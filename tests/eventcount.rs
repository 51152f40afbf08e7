//! Correctness of the `EventCount` epoch futex under contention.
//!
//! The primitive's contract (vendor/parking_lot/src/eventcount.rs) is the
//! foundation of the scheduler stack's epoch waiting (DESIGN.md §8.5):
//!
//! * **no lost wakeups** — a waiter that observed version `v` and an
//!   advancer that bumps past `v` can never miss each other, regardless of
//!   interleaving (the waiter-bit CAS / futex-compare protocol);
//! * **exact version accounting** — concurrent advances from N wakers are
//!   all distinct RMWs: the final version equals the initial version plus
//!   the number of advances;
//! * **deadline exactness** — a bounded wait never reports expiry before
//!   its deadline, and an expired wait never reports `TimedOut` when the
//!   version in fact advanced.
//!
//! A lost wakeup deadlocks the hammer (and trips the harness timeout)
//! instead of flaking an assertion. Set `SHRINK_STRESS=1` (CI stress job)
//! to raise thread counts and iteration multipliers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{EventCount, WaitOutcome};

/// Stress scaling: 1 in normal runs, larger under `SHRINK_STRESS=1`.
fn stress_factor() -> usize {
    match std::env::var("SHRINK_STRESS") {
        Ok(v) if !v.is_empty() && v != "0" => 4,
        _ => 1,
    }
}

/// Lost-wakeup hammer: M waiters ride the version from 0 to the target
/// with *unbounded* waits while N wakers race exactly `target` advances in
/// total. If any wakeup were lost, a waiter would sleep forever on a stale
/// version and the join below would hang. Exact version accounting is
/// asserted at the end.
#[test]
fn lost_wakeup_hammer_with_exact_version_accounting() {
    let wakers = 2 * stress_factor();
    let waiters = 2 * stress_factor();
    let advances_per_waker = (5_000 * stress_factor()) as u32;
    let target = (wakers as u32) * advances_per_waker;

    let ec = Arc::new(EventCount::new());
    let wake_issued = Arc::new(AtomicU64::new(0));
    let woken_total = Arc::new(AtomicU64::new(0));

    let waiter_handles: Vec<_> = (0..waiters)
        .map(|_| {
            let ec = Arc::clone(&ec);
            std::thread::spawn(move || {
                let mut observed = ec.version();
                let mut wakes_seen = 0u64;
                while observed != target {
                    // Unbounded: only an advance (i.e. a wakeup) can free us.
                    let outcome = ec.wait_while_eq(observed, None);
                    assert_eq!(outcome, WaitOutcome::Advanced);
                    let now = ec.version();
                    assert_ne!(now, observed, "Advanced must mean it moved");
                    observed = now;
                    wakes_seen += 1;
                }
                wakes_seen
            })
        })
        .collect();

    // Park-first handshake: all waiters are provably asleep on version 0
    // before the first advance, so every one of them exercises the wakeup
    // path at least once (otherwise, on a small container, the wakers could
    // finish before any waiter was scheduled).
    while ec.waiters() < waiters as u32 {
        std::thread::yield_now();
    }

    let waker_handles: Vec<_> = (0..wakers)
        .map(|_| {
            let ec = Arc::clone(&ec);
            let wake_issued = Arc::clone(&wake_issued);
            let woken_total = Arc::clone(&woken_total);
            std::thread::spawn(move || {
                for i in 0..advances_per_waker {
                    let adv = ec.advance();
                    if adv.wake_issued {
                        wake_issued.fetch_add(1, Ordering::Relaxed);
                        woken_total.fetch_add(adv.woken as u64, Ordering::Relaxed);
                    }
                    if i % 1024 == 0 {
                        // Let waiters actually park now and then, so the
                        // hammer exercises the sleep path and not only the
                        // version-already-moved fast path.
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();

    for h in waker_handles {
        h.join().unwrap();
    }
    // Exact accounting: every advance is a distinct +1.
    assert_eq!(ec.version(), target, "N wakers × K advances must all land");
    // Every waiter must come home (a lost wakeup would hang this join).
    for h in waiter_handles {
        let wakes_seen = h.join().unwrap();
        assert!(wakes_seen > 0, "each waiter must have slept at least once");
    }
    assert_eq!(ec.waiters(), 0, "waiter accounting must return to zero");
    // The probe is only meaningful if parking actually happened.
    assert!(
        wake_issued.load(Ordering::Relaxed) > 0,
        "hammer never parked a waiter — scale is too small to test anything"
    );
}

/// Deadline-expiry exactness: a bounded wait on a never-advancing count
/// returns `TimedOut`, never before its deadline.
#[test]
fn deadline_expiry_is_exact() {
    let ec = EventCount::new();
    for wait_ms in [5u64, 20, 50] {
        let deadline = Instant::now() + Duration::from_millis(wait_ms);
        let outcome = ec.wait_while_eq(ec.version(), Some(deadline));
        let now = Instant::now();
        assert_eq!(outcome, WaitOutcome::TimedOut);
        assert!(
            now >= deadline,
            "reported expiry {:?} before the {wait_ms} ms deadline",
            deadline - now
        );
    }
    // Already-expired deadline: immediate, still honest about the version.
    let outcome = ec.wait_while_eq(
        ec.version(),
        Some(Instant::now() - Duration::from_millis(1)),
    );
    assert_eq!(outcome, WaitOutcome::TimedOut);
    ec.advance();
    let outcome = ec.wait_while_eq(0, Some(Instant::now() - Duration::from_millis(1)));
    assert_eq!(
        outcome,
        WaitOutcome::Advanced,
        "an advanced version must win over an expired deadline"
    );
}

/// Bounded waits racing real advances: every outcome must be consistent
/// with the word — `Advanced` implies the version moved; `TimedOut` implies
/// the deadline truly passed.
///
/// The waiter's first wait has no deadline and the advancer starts only
/// once it is parked, so the `Advanced` path is exercised by construction
/// rather than by scheduling luck.
#[test]
fn bounded_waits_under_churn_report_consistent_outcomes() {
    let rounds = (2_000 * stress_factor()) as u32;
    let ec = Arc::new(EventCount::new());
    let waiter = {
        let ec = Arc::clone(&ec);
        std::thread::spawn(move || {
            let mut advanced = 0u64;
            let mut timed_out = 0u64;
            let mut first = true;
            loop {
                let observed = ec.version();
                if observed == rounds {
                    break;
                }
                let deadline = Instant::now() + Duration::from_micros(100);
                let bound = if first { None } else { Some(deadline) };
                first = false;
                match ec.wait_while_eq(observed, bound) {
                    WaitOutcome::Advanced => {
                        assert_ne!(ec.version(), observed);
                        advanced += 1;
                    }
                    WaitOutcome::TimedOut => {
                        assert!(Instant::now() >= deadline, "early TimedOut");
                        timed_out += 1;
                    }
                }
            }
            (advanced, timed_out)
        })
    };
    while ec.waiters() == 0 {
        std::thread::yield_now();
    }
    for i in 0..rounds {
        ec.advance();
        if i % 128 == 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    let (advanced, _timed_out) = waiter.join().unwrap();
    assert!(advanced > 0, "churn must exercise the advanced path");
    assert_eq!(ec.version(), rounds);
    assert_eq!(ec.waiters(), 0);
}

/// Waiter accounting is exact at the handshake points the scheduler tests
/// rely on: all M waiters visible while parked, zero after the wake.
#[test]
fn waiter_count_is_exact_at_quiescence() {
    let waiters = 2 * stress_factor();
    let ec = Arc::new(EventCount::new());
    let observed = ec.version();
    let handles: Vec<_> = (0..waiters)
        .map(|_| {
            let ec = Arc::clone(&ec);
            std::thread::spawn(move || ec.wait_while_eq(observed, None))
        })
        .collect();
    // All waiters must become visible (they can only leave via an advance).
    while ec.waiters() < waiters as u32 {
        std::thread::yield_now();
    }
    assert_eq!(ec.waiters(), waiters as u32, "must not over-count");
    ec.advance();
    for h in handles {
        assert_eq!(h.join().unwrap(), WaitOutcome::Advanced);
    }
    assert_eq!(ec.waiters(), 0, "must return to exactly zero");
}
