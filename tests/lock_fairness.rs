//! Fairness and progress of the parked locking subsystem under convoys.
//!
//! The futex-parked `SerialLock` claims FIFO-ish wakeup (kernel futex
//! queues drain roughly in arrival order; the portable parker is strictly
//! FIFO). These tests pin down the properties the schedulers actually rely
//! on:
//!
//! * **progress** — every thread in an N-way convoy completes its
//!   acquisition quota (a starved thread would hang the test);
//! * **bounded spread** — over a shared time window, no thread monopolizes
//!   the lock: max/min acquisition counts stay within a generous factor.
//!   Futex mutexes barge (a releasing thread can re-acquire before the
//!   woken waiter is scheduled), so the bound is deliberately loose — the
//!   claim is "no starvation", not strict round-robin;
//! * **exact `wait_count`** — the affinity signal never over-counts the
//!   number of serialized threads and returns to exactly zero at
//!   quiescence, even while park/unpark churn.
//!
//! Set `SHRINK_STRESS=1` (CI stress job) to raise thread counts and
//! iteration multipliers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use shrink_core::SerialLock;
use shrink_stm::ThreadId;

/// Stress scaling: 1 in normal runs, larger under `SHRINK_STRESS=1`.
fn stress_factor() -> usize {
    match std::env::var("SHRINK_STRESS") {
        Ok(v) if !v.is_empty() && v != "0" => 4,
        _ => 1,
    }
}

fn tid(raw: u16) -> ThreadId {
    ThreadId::from_u16(raw)
}

/// Every thread must finish `quota` acquisitions — starvation hangs here
/// (and trips the harness timeout) instead of flaking an assertion.
#[test]
fn parked_convoy_completes_quota() {
    let threads = 4 * stress_factor().min(2);
    let quota = 2_000 * stress_factor() as u64;
    let lock = Arc::new(SerialLock::new());
    let in_section = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (1..=threads as u16)
        .map(|raw| {
            let lock = Arc::clone(&lock);
            let in_section = Arc::clone(&in_section);
            std::thread::spawn(move || {
                let me = tid(raw);
                for _ in 0..quota {
                    lock.acquire(me);
                    // Mutual exclusion: never two threads inside.
                    assert_eq!(in_section.fetch_add(1, Ordering::SeqCst), 0);
                    in_section.fetch_sub(1, Ordering::SeqCst);
                    assert!(lock.release_if_held(me));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(lock.wait_count(), 0);
}

/// Shared-window convoy: counts per-thread acquisitions, asserts everyone
/// made progress and the spread is bounded. One retry absorbs the rare
/// pathological window an oversubscribed CI container can produce.
#[test]
fn parked_convoy_spread_is_bounded() {
    let threads = if stress_factor() > 1 { 8 } else { 4 };
    let window = Duration::from_millis(300 * stress_factor() as u64);
    // Futex barging plus single-core timeslicing skews convoys; the
    // bound only rules out starvation-grade skew.
    const MAX_SPREAD: u64 = 100;

    let attempt = || -> (u64, u64) {
        let lock = Arc::new(SerialLock::new());
        let stop = Arc::new(AtomicBool::new(false));
        let counts: Vec<Arc<AtomicU64>> =
            (0..threads).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let lock = Arc::clone(&lock);
                let stop = Arc::clone(&stop);
                let count = Arc::clone(&counts[i]);
                std::thread::spawn(move || {
                    let me = tid((i + 1) as u16);
                    while !stop.load(Ordering::Relaxed) {
                        lock.acquire(me);
                        count.fetch_add(1, Ordering::Relaxed);
                        lock.release_if_held(me);
                    }
                })
            })
            .collect();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        let all: Vec<u64> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        (*all.iter().min().unwrap(), *all.iter().max().unwrap())
    };

    let (mut min, mut max) = attempt();
    if min == 0 || max > min * MAX_SPREAD {
        // One retry: a single bad window on a loaded container is noise, a
        // repeatably starved thread is a bug.
        (min, max) = attempt();
    }
    assert!(min > 0, "a thread starved (0 acquisitions)");
    assert!(
        max <= min * MAX_SPREAD,
        "acquisition spread {max}/{min} exceeds {MAX_SPREAD}×"
    );
}

/// `wait_count` exactness under churn: with N threads looping through the
/// lock, a sampler must never read more than N (over-count) and the signal
/// must settle to exactly 0 at quiescence. Guards the SeqCst pairing of
/// `waiting.fetch_add`/`fetch_sub` across the park/unpark boundary.
#[test]
fn wait_count_stays_exact_under_churn() {
    let threads = 4 * stress_factor().min(2);
    let iters = 3_000 * stress_factor() as u64;
    let lock = Arc::new(SerialLock::new());
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let lock = Arc::clone(&lock);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut max_seen = 0;
            while !stop.load(Ordering::Relaxed) {
                let count = lock.wait_count();
                max_seen = max_seen.max(count);
                std::hint::spin_loop();
            }
            max_seen
        })
    };
    let handles: Vec<_> = (1..=threads as u16)
        .map(|raw| {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let me = tid(raw);
                for _ in 0..iters {
                    lock.acquire(me);
                    lock.release_if_held(me);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let max_seen = sampler.join().unwrap();
    assert!(
        max_seen <= threads as u32,
        "wait_count over-counted: saw {max_seen} with only {threads} threads"
    );
    assert_eq!(
        lock.wait_count(),
        0,
        "signal must be exactly 0 at quiescence"
    );
}
