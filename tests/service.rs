//! Sharded-service stress: cross-shard money conservation on mid-flight
//! distributed snapshots, across every scheduler × Preemptive/Busy
//! waiting, plus the open-loop traffic generator end to end and (with
//! `--features faults`) seeded fault injection at the register and park
//! sites of the cross-runtime selects.
//!
//! The store under test is `workloads::service::ShardedStore`: one
//! `TmRuntime` per shard, four-phase escrow transfers, and two-shard
//! bookings through a cross-runtime `retry_select`, whose arms carry
//! their own runtimes. The auditor takes **freeze-gated distributed snapshots** while transfers
//! and bookings are mid-protocol — the invariant must be exact on every
//! snapshot, not just at the end.
//!
//! Set `SHRINK_STRESS=1` (CI stress job) to raise the volume.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{all_schedulers, stress_factor};
use shrink::prelude::*;
use shrink::workloads::service::{
    build_schedule, run_open_loop, BookingOutcome, RequestKind, RequestMix, ShardedStore,
    TrafficConfig,
};

/// Fault schedules are process-global: when the `faults` feature is on,
/// every test in this binary serializes on one lock, and the invariant
/// tests shadow any ambient `SHRINK_FAULTS` schedule with a rate-0 one —
/// they assert exact conservation and are not fault targets themselves.
#[cfg(feature = "faults")]
static FAULT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(feature = "faults")]
fn shield() -> (
    std::sync::MutexGuard<'static, ()>,
    shrink::stm::faults::FaultGuard,
) {
    use shrink::stm::faults::ScheduleBuilder;
    // A poisoned lock only means an assertion failed in another test.
    let serial = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let quiet = ScheduleBuilder::new(0).rate_per_mille(0).install();
    (serial, quiet)
}

fn build_store(wait: WaitPolicy, kind: &SchedulerKind) -> ShardedStore {
    ShardedStore::new(3, 4, 250, 2, |_| {
        TmRuntime::builder()
            .backend(BackendKind::Swiss)
            .wait_policy(wait)
            .scheduler_arc(kind.build())
            .build()
    })
}

/// One matrix cell: transfer writers and a booking client hammer the
/// store while the main thread repeatedly takes the freeze-gated
/// distributed snapshot; conservation must be exact on every one.
fn conservation_cell(wait: WaitPolicy, kind: &SchedulerKind) {
    let sf = stress_factor();
    let transfers_per_mover = 40 * sf;
    let bookings = 6 * sf;
    let store = Arc::new(build_store(wait, kind));
    let label = kind.label();

    let movers: Vec<_> = (0..3)
        .map(|t| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let mut seed = 0x5EED ^ (t as u64) << 17;
                for _ in 0..transfers_per_mover {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let from = (seed >> 33) as usize % store.n_keys();
                    let to = (seed >> 13) as usize % store.n_keys();
                    store.transfer(from, to, (seed % 9) as i64);
                }
            })
        })
        .collect();
    let booker = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            let mut confirmed = 0u64;
            for i in 0..bookings {
                // Keys on different shards (3 shards: consecutive keys
                // differ); generous deadline so contention, not time,
                // decides.
                let outcome = store.book(i, i + 1, Instant::now() + Duration::from_secs(30));
                if outcome == BookingOutcome::Confirmed {
                    confirmed += 1;
                }
            }
            confirmed
        })
    };

    // Audit mid-flight until every worker is done — each snapshot must
    // balance exactly while transfers sit between protocol phases.
    let mut audits = 0u64;
    let mut workers: Vec<std::thread::JoinHandle<()>> = movers;
    while !workers.is_empty() {
        workers.retain(|h| !h.is_finished());
        assert_eq!(
            store.audit_conservation(),
            store.expected_total(),
            "mid-flight conservation violated: wait={wait:?} scheduler={label}"
        );
        audits += 1;
        std::thread::yield_now();
    }
    let confirmed = booker.join().unwrap();
    assert!(audits > 0, "the auditor must have audited at least once");
    assert_eq!(
        confirmed, bookings as u64,
        "every booking with a generous deadline confirms: wait={wait:?} scheduler={label}"
    );
    assert_eq!(
        store.audit_conservation(),
        store.expected_total(),
        "final conservation violated: wait={wait:?} scheduler={label}"
    );
    assert_eq!(store.audit_bookings(), bookings as u64);
    assert_eq!(
        store.pending_transfers(),
        0,
        "all escrow entries must drain: wait={wait:?} scheduler={label}"
    );
}

#[test]
fn preemptive_conserves_across_shards_under_all_schedulers() {
    #[cfg(feature = "faults")]
    let _shield = shield();
    for kind in all_schedulers() {
        conservation_cell(WaitPolicy::Preemptive, &kind);
    }
}

#[test]
fn busy_conserves_across_shards_under_all_schedulers() {
    #[cfg(feature = "faults")]
    let _shield = shield();
    for kind in all_schedulers() {
        conservation_cell(WaitPolicy::Busy, &kind);
    }
}

/// The open-loop generator end to end: a Zipfian, bursty schedule served
/// against the store leaves it conserved, drains every escrow entry, and
/// accounts for every booking.
#[test]
fn open_loop_traffic_leaves_the_store_conserved() {
    #[cfg(feature = "faults")]
    let _shield = shield();
    let sf = stress_factor();
    for kind in [SchedulerKind::Noop, SchedulerKind::shrink_default()] {
        let store = build_store(WaitPolicy::Preemptive, &kind);
        let cfg = TrafficConfig {
            clients: 128,
            workers: 4,
            requests: 600 * sf,
            offered_rps: 50_000.0,
            zipf_s: 1.1,
            burstiness: 0.5,
            burst_period: Duration::from_millis(5),
            mix: RequestMix::DEFAULT,
            booking_deadline: Duration::from_millis(200),
            seed: 7,
        };
        let schedule = build_schedule(store.n_keys(), store.n_shards(), &cfg);
        let report = run_open_loop(&store, &schedule, &cfg);
        assert_eq!(report.latencies.len(), cfg.requests);
        let bookings = schedule
            .iter()
            .filter(|r| r.kind == RequestKind::Booking)
            .count() as u64;
        assert_eq!(
            report.confirmed_bookings + report.declined_bookings,
            bookings,
            "every booking resolves: scheduler={}",
            kind.label()
        );
        assert_eq!(store.audit_conservation(), store.expected_total());
        store.audit_bookings();
        assert_eq!(store.pending_transfers(), 0);
    }
}

/// A transfer stranded between any two protocol phases must still balance
/// on the distributed snapshot — the escrow term covers exactly the
/// prepared-but-not-applied window.
#[test]
fn stranded_transfer_phases_balance_on_every_snapshot() {
    #[cfg(feature = "faults")]
    let _shield = shield();
    for phases in 1..=4 {
        let store = build_store(WaitPolicy::Preemptive, &SchedulerKind::Noop);
        store.transfer_phases(0, 1, 40, phases);
        assert_eq!(
            store.audit_conservation(),
            store.expected_total(),
            "snapshot unbalanced with transfer stopped after phase {phases}"
        );
    }
}

/// Seeded fault injection where bookings' selects register and park:
/// delays and spurious wakes at `WaitRegister`/`EventPark` must never
/// break booking-capacity conservation or hang a select, and a panic
/// injected at the register site must unwind without leaking a hold or a
/// waitlist registration.
#[cfg(feature = "faults")]
mod faulted {
    use super::*;
    use shrink::stm::faults::ScheduleBuilder;
    use shrink::stm::{FaultKind, FaultSite};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn select_storm_keeps_bookings_correct() {
        // Serialize on the shared lock and shadow any ambient schedule
        // while setting up; the storm below then installs over the shield.
        let _shield = shield();
        let sf = stress_factor();
        let store = Arc::new(build_store(WaitPolicy::Preemptive, &SchedulerKind::Noop));
        let guard = ScheduleBuilder::new(0xB00C)
            .rate_per_mille(400)
            .sites(&[FaultSite::WaitRegister, FaultSite::EventPark])
            .kinds(&[FaultKind::Delay, FaultKind::SpuriousWake])
            .install();
        // Capacity 2 per shard and 4 bookers: selects park and wake under
        // injected delays and spurious wakes. Concurrent two-shard bookers
        // can form a hold-wait cycle that only the deadline breaks, so a
        // decline is a legal outcome — what must never happen is a hang, a
        // leaked hold, or a broken invariant.
        let bookers: Vec<_> = (0..4)
            .map(|b| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    let mut confirmed = 0usize;
                    for i in 0..6 * sf {
                        let outcome =
                            store.book(b + i, b + i + 1, Instant::now() + Duration::from_secs(2));
                        if outcome == BookingOutcome::Confirmed {
                            confirmed += 1;
                        }
                    }
                    confirmed
                })
            })
            .collect();
        let confirmed: usize = bookers.into_iter().map(|h| h.join().unwrap()).sum();
        drop(guard);
        assert!(confirmed > 0, "the storm must not starve every booking");
        assert_eq!(store.audit_bookings(), confirmed as u64);
        assert_eq!(store.audit_conservation(), store.expected_total());
    }

    #[test]
    fn register_panic_unwinds_without_leaking_holds() {
        let _shield = shield();
        let store = Arc::new(ShardedStore::new(2, 2, 100, 1, |_| {
            TmRuntime::builder()
                .backend(BackendKind::Swiss)
                .wait_policy(WaitPolicy::Preemptive)
                .build()
        }));
        // Drain both shards so the booking select must park — its first
        // pass through the WaitRegister failpoint.
        let sink = Instant::now() + Duration::from_secs(30);
        assert_eq!(store.hold_all_capacity(), 2, "both units held");
        let guard = ScheduleBuilder::new(0xDEAD)
            .rate_per_mille(1000)
            .sites(&[FaultSite::WaitRegister])
            .kinds(&[FaultKind::Panic])
            .install();
        let boom = catch_unwind(AssertUnwindSafe(|| {
            store.book(0, 1, Instant::now() + Duration::from_millis(200))
        }));
        assert!(boom.is_err(), "rate-1000 register panic must fire");
        drop(guard);
        for shard in 0..store.n_shards() {
            assert_eq!(
                store.runtime(shard).retry_waiters(),
                0,
                "the panic leaked a registration on shard {shard}"
            );
        }
        // The panic unwound before any arm held capacity: the booking
        // invariant still balances and the select is reusable.
        store.audit_bookings();
        store.release_all_holds();
        assert_eq!(
            store.book(0, 1, sink),
            BookingOutcome::Confirmed,
            "select reusable after an injected register panic"
        );
        assert_eq!(store.audit_bookings(), 1);
    }
}
