//! A two-shard booking service in miniature: the STAMP `vacation` idea
//! grown into the sharded deployment DESIGN.md §13 describes.
//!
//! Two `TmRuntime`s — two independent clocks, orec tables, waitlists and
//! Shrink scheduler instances — each own half the keys of a
//! `ShardedStore`. Concurrent clerks move money between shards through
//! the four-phase escrow protocol and book two-leg trips whose first
//! unit comes from whichever shard frees capacity first (a cross-runtime
//! `retry_select` parks one waiter across both runtimes' waitlists).
//! While they work, an auditor repeatedly takes the freeze-gated
//! distributed snapshot: conservation must be exact on every one, not
//! just at the end.
//!
//! Run with: `cargo run --release --example vacation_booking`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shrink::prelude::*;
use shrink::stm::select_stats;
use shrink::workloads::service::{BookingOutcome, ShardedStore};

const ACCOUNTS_PER_SHARD: usize = 8;
const INITIAL_BALANCE: i64 = 500;
const SEATS_PER_SHARD: i64 = 1;
const CLERKS: usize = 4;
const REQUESTS_PER_CLERK: usize = 200;

fn main() {
    // One Shrink scheduler per shard: prediction state is per-runtime,
    // exactly as it would be per-process in a real deployment.
    let mut store = ShardedStore::new(
        2,
        ACCOUNTS_PER_SHARD,
        INITIAL_BALANCE,
        SEATS_PER_SHARD,
        |_| {
            TmRuntime::builder()
                .backend(BackendKind::Swiss)
                .scheduler_arc(Arc::new(Shrink::new(ShrinkConfig::default())))
                .build()
        },
    );
    // Simulated service work inside each transaction body: holds stay open
    // long enough that bookings genuinely contend for the scarce seats and
    // the cross-runtime select actually parks.
    store.set_tx_work(20_000);
    let store = Arc::new(store);
    println!(
        "two shards ({} runtimes), {} keys, {} minted",
        store.n_shards(),
        store.n_keys(),
        store.expected_total()
    );

    // Curtain-raiser: hold every seat on both shards, start a booking —
    // its first-leg select finds nothing and parks ONE waiter across both
    // runtimes' waitlists — then release the seats; the release commit on
    // either shard wakes it.
    store.hold_all_capacity();
    let waiter = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || store.book(0, 1, Instant::now() + Duration::from_secs(30)))
    };
    while store.runtime(0).retry_waiters() == 0 || store.runtime(1).retry_waiters() == 0 {
        std::thread::yield_now();
    }
    store.release_all_holds();
    assert_eq!(waiter.join().unwrap(), BookingOutcome::Confirmed);
    assert!(select_stats().parked >= 1);
    println!(
        "a booking against two sold-out shards parked across both waitlists \
         and was woken by the seat-release commit"
    );

    let stop = Arc::new(AtomicBool::new(false));
    let auditor = {
        let (store, stop) = (Arc::clone(&store), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut audits = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Freeze-gated distributed snapshot: exact even while
                // transfers sit between escrow phases on the two shards.
                assert_eq!(store.audit_conservation(), store.expected_total());
                audits += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            audits
        })
    };

    let clerks: Vec<_> = (0..CLERKS)
        .map(|c| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let mut seed = 0xB00C_u64 ^ ((c as u64) << 32);
                let mut confirmed = 0u64;
                let mut declined = 0u64;
                for _ in 0..REQUESTS_PER_CLERK {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let a = (seed >> 33) as usize % store.n_keys();
                    let b = (seed >> 13) as usize % store.n_keys();
                    if seed % 2 == 0 {
                        // A two-leg trip: car on one shard, room on the
                        // other. The deadline bounds blocking; a timed-out
                        // second leg compensates by releasing the first.
                        let deadline = Instant::now() + Duration::from_millis(20);
                        match store.book(a, a + 1, deadline) {
                            BookingOutcome::Confirmed => confirmed += 1,
                            BookingOutcome::Declined => declined += 1,
                        }
                    } else {
                        // Billing traffic, often crossing the shard line.
                        store.transfer(a, b, (seed % 7) as i64);
                    }
                }
                (confirmed, declined)
            })
        })
        .collect();

    let mut confirmed = 0u64;
    let mut declined = 0u64;
    for clerk in clerks {
        let (c, d) = clerk.join().expect("clerk panicked");
        confirmed += c;
        declined += d;
    }
    stop.store(true, Ordering::Relaxed);
    let audits = auditor.join().expect("auditor panicked");

    println!("after {} client requests:", CLERKS * REQUESTS_PER_CLERK);
    for shard in 0..store.n_shards() {
        println!("  shard {shard}: {}", store.runtime(shard).stats());
    }
    let stats = select_stats();
    println!("  bookings: {confirmed} confirmed, {declined} declined (deadline-compensated)");
    println!(
        "  cross-runtime selects: {} rounds, {} parked, {} woken",
        stats.rounds, stats.parked, stats.woken
    );
    println!("  mid-flight distributed audits: {audits}, every one exact");

    // The books reconcile: seats all returned, escrow drained, money intact.
    // (+1: the curtain-raiser booking confirmed too.)
    assert_eq!(store.audit_bookings(), confirmed + 1);
    assert_eq!(store.pending_transfers(), 0);
    assert_eq!(store.audit_conservation(), store.expected_total());
    println!("  final audit: OK (conservation exact, escrow drained)");
}
