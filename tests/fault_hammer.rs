//! Seeded fault-injection hammer: panics, spurious aborts, spurious wakes
//! and delays injected at every hazard site must leave the runtime
//! reusable and the money conserved.
//!
//! Only compiled with the `faults` feature:
//!
//! ```text
//! SHRINK_FAULTS=42,rate=25 cargo test --features faults --test fault_hammer
//! ```
//!
//! Fault schedules are process-global, so every test here serializes on
//! one lock; CI additionally runs this binary with `--test-threads=1`.
//! Set `SHRINK_STRESS=1` (CI stress job) to raise thread counts and
//! volume.

#![cfg(feature = "faults")]

mod common;

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use common::{all_schedulers, stress_factor};
use shrink::prelude::*;
use shrink::stm::faults::{self, FaultGuard, ScheduleBuilder};
use shrink::stm::{retry_select_deadline, FaultKind, FaultSite, SelectArm, TmError};

/// Fault schedules are process-global state: tests must not overlap.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    // A poisoned lock only means an assertion failed in another test;
    // the schedule guard there still restored the previous schedule.
    FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// A rate-0 schedule shadowing any `SHRINK_FAULTS` ambient schedule: these
/// tests install their own precisely targeted storms and need the warm-up
/// and reuse phases around them inert, whatever the environment says.
fn quiet() -> FaultGuard {
    ScheduleBuilder::new(0).rate_per_mille(0).install()
}

fn build_runtime(kind: &SchedulerKind, wait: WaitPolicy) -> TmRuntime {
    TmRuntime::builder()
        .wait_policy(wait)
        .retry_wait(Duration::from_millis(10))
        .scheduler_arc(kind.build())
        .build()
}

fn transfer(rt: &TmRuntime, accounts: &[TVar<i64>], from: usize, to: usize, amount: i64) {
    rt.run(|tx| {
        let a = tx.read(&accounts[from])?;
        let b = tx.read(&accounts[to])?;
        tx.write(&accounts[from], a - amount)?;
        tx.write(&accounts[to], b + amount)
    });
}

fn total(accounts: &[TVar<i64>]) -> i64 {
    accounts.iter().map(|a| a.snapshot()).sum()
}

/// A panic forced mid-commit (after validation, before the write set is
/// installed) must unwind out of `run` leaving every scheduler reusable:
/// the next transaction on the *same runtime and thread* commits normally
/// and the books balance.
#[test]
fn mid_commit_panic_leaves_every_scheduler_reusable() {
    let _serial = serialize();
    let _quiet = quiet();
    for kind in all_schedulers() {
        for wait in [WaitPolicy::Preemptive, WaitPolicy::Busy] {
            let rt = build_runtime(&kind, wait);
            let accounts: Vec<TVar<i64>> = (0..4).map(|_| TVar::new(100)).collect();
            // Warm up: bind the TVars and register the thread while the
            // schedule is still inert.
            transfer(&rt, &accounts, 0, 1, 5);
            let guard = ScheduleBuilder::new(0xC0FFEE)
                .rate_per_mille(1000)
                .sites(&[FaultSite::CommitInstall])
                .kinds(&[FaultKind::Panic])
                .install();
            let boom = catch_unwind(AssertUnwindSafe(|| transfer(&rt, &accounts, 1, 2, 7)));
            assert!(
                boom.is_err(),
                "rate-1000 commit_install panic must fire: {} {wait:?}",
                kind.label()
            );
            drop(guard);
            // The interrupted transfer rolled back wholesale...
            assert_eq!(
                total(&accounts),
                400,
                "torn commit: {} {wait:?}",
                kind.label()
            );
            // ...and the runtime is not poisoned: fresh transfers commit.
            transfer(&rt, &accounts, 2, 3, 9);
            transfer(&rt, &accounts, 3, 0, 2);
            assert_eq!(total(&accounts), 400);
            assert!(rt.stats().commits >= 3, "{} {wait:?}", kind.label());
        }
    }
}

/// Every site whose safety mask admits panics gets a dedicated storm:
/// a schedule that panics on *every* probe of that one site, a driver
/// body that reaches the site, and the reuse check afterwards.
#[test]
fn panic_storm_at_every_panic_safe_site() {
    let _serial = serialize();
    let _quiet = quiet();
    let panic_sites: Vec<FaultSite> = FaultSite::ALL
        .iter()
        .copied()
        .filter(|s| s.allows(FaultKind::Panic))
        .collect();
    assert!(
        panic_sites.len() >= 8,
        "expected the full panic-safe catalog, got {panic_sites:?}"
    );
    for site in panic_sites {
        let rt = build_runtime(&SchedulerKind::shrink_default(), WaitPolicy::Preemptive);
        let accounts: Vec<TVar<i64>> = (0..4).map(|_| TVar::new(100)).collect();
        transfer(&rt, &accounts, 0, 1, 5);
        let guard = ScheduleBuilder::new(42)
            .rate_per_mille(1000)
            .sites(&[site])
            .kinds(&[FaultKind::Panic])
            .install();
        let boom = catch_unwind(AssertUnwindSafe(|| drive_site(&rt, &accounts, site)));
        assert!(boom.is_err(), "storm at {site} must panic the driver");
        drop(guard);
        assert_eq!(total(&accounts), 400, "conservation violated at {site}");
        // Reuse on the same thread, then from a fresh thread (the epoch
        // advanced: nobody stalls serialized behind the dead attempt).
        transfer(&rt, &accounts, 1, 2, 3);
        let worker = {
            let rt = rt.clone();
            let accounts = accounts.clone();
            std::thread::spawn(move || transfer(&rt, &accounts, 2, 3, 4))
        };
        worker.join().unwrap();
        assert_eq!(total(&accounts), 400, "post-storm transfers at {site}");
    }
}

/// Runs a body that provably reaches `site` on a read-write path.
fn drive_site(rt: &TmRuntime, accounts: &[TVar<i64>], site: FaultSite) {
    match site {
        // Reached by any writing transaction.
        FaultSite::OrecAcquire
        | FaultSite::CommitInstall
        | FaultSite::WaitWake
        | FaultSite::SchedBeforeStart
        | FaultSite::SchedOnCommit => transfer(rt, accounts, 0, 1, 1),
        // Reached via a user restart booking an abort.
        FaultSite::SchedOnAbort => {
            let first = Cell::new(true);
            rt.run(|tx| {
                if first.replace(false) {
                    return tx.restart();
                }
                tx.modify(&accounts[0], |x| x)
            });
        }
        // Reached via a deliberate retry: the completion hook fires, then
        // (for wait_register) the waitlist probe, before any parking.
        FaultSite::SchedOnRetryWait | FaultSite::WaitRegister => {
            let deadline = Instant::now() + Duration::from_secs(5);
            let _: Result<(), _> = rt.run_with_deadline(deadline, |tx| {
                let x = tx.read(&accounts[0])?;
                if x < i64::MAX {
                    return tx.retry();
                }
                Ok(())
            });
        }
        other => panic!("no driver for {other}"),
    }
}

/// The full seeded hammer: several threads transfer money while a
/// moderate-rate schedule sprays all four fault kinds over every site.
/// Each transfer is individually allowed to panic; the invariants are that
/// the total is conserved, the runtime stays reusable throughout, and the
/// schedule provably fired.
#[test]
fn seeded_hammer_conserves_money() {
    let _serial = serialize();
    let _quiet = quiet();
    const ACCOUNTS: usize = 8;
    let seeds: Vec<u64> = match faults::from_env() {
        // CI provides one seed per job via SHRINK_FAULTS; replay exactly it.
        Some(spec) => vec![spec.seed()],
        None => vec![0xC0FFEE, 42, 7],
    };
    let transfers = 150 * stress_factor();
    for seed in seeds {
        for kind in all_schedulers() {
            for wait in [WaitPolicy::Preemptive, WaitPolicy::Busy] {
                let rt = build_runtime(&kind, wait);
                let accounts: Arc<Vec<TVar<i64>>> =
                    Arc::new((0..ACCOUNTS).map(|_| TVar::new(1000)).collect());
                transfer(&rt, &accounts, 0, 1, 1);
                faults::reset_stats();
                let guard: FaultGuard = ScheduleBuilder::new(seed).rate_per_mille(25).install();
                let panics = Arc::new(AtomicU64::new(0));
                let handles: Vec<_> = (0..4)
                    .map(|t| {
                        let rt = rt.clone();
                        let accounts = Arc::clone(&accounts);
                        let panics = Arc::clone(&panics);
                        std::thread::spawn(move || {
                            let mut state = 0x9E37u64 + t as u64;
                            for _ in 0..transfers {
                                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                                let from = (state >> 33) as usize % ACCOUNTS;
                                let to = (state >> 13) as usize % ACCOUNTS;
                                if from == to {
                                    continue;
                                }
                                let amount = (state % 9) as i64;
                                let attempt = catch_unwind(AssertUnwindSafe(|| {
                                    transfer(&rt, &accounts, from, to, amount);
                                }));
                                if attempt.is_err() {
                                    panics.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
                drop(guard);
                let injected = faults::stats();
                assert!(
                    injected.total() > 0,
                    "seed {seed} on {} injected nothing: {injected}",
                    kind.label()
                );
                // Transfers conserve whether they committed or unwound.
                assert_eq!(
                    total(&accounts),
                    ACCOUNTS as i64 * 1000,
                    "seed {seed} on {} broke conservation \
                     ({injected}; {} transfers panicked)",
                    kind.label(),
                    panics.load(Ordering::Relaxed)
                );
                // And the hammered runtime still works with the faults gone.
                transfer(&rt, &accounts, 0, 1, 13);
                transfer(&rt, &accounts, 1, 0, 13);
                assert_eq!(total(&accounts), ACCOUNTS as i64 * 1000);
            }
        }
    }
}

/// Spurious wakeups forced into the retry path: a consumer parked on a
/// `Tx::retry` keeps being woken with nothing to read and must simply
/// revalidate and park again — never return early, never miss the real
/// wake.
#[test]
fn spurious_wakes_do_not_break_retry() {
    let _serial = serialize();
    let _quiet = quiet();
    let rounds = 20 * stress_factor();
    let rt = TmRuntime::builder()
        .retry_wait(Duration::from_millis(50))
        .build();
    let v = TVar::new(0u64);
    // Bind + register while inert.
    rt.run(|tx| tx.write(&v, 0));
    let _guard = ScheduleBuilder::new(7)
        .rate_per_mille(500)
        .sites(&[FaultSite::WaitValidate, FaultSite::EventPark])
        .kinds(&[FaultKind::SpuriousWake])
        .install();
    faults::reset_stats();
    for round in 1..=rounds as u64 {
        let consumer = {
            let rt = rt.clone();
            let v = v.clone();
            std::thread::spawn(move || {
                rt.run(|tx| {
                    let x = tx.read(&v)?;
                    if x < round {
                        return tx.retry();
                    }
                    Ok(x)
                })
            })
        };
        // No parked-waits handshake here: spurious wakes may keep the
        // consumer bouncing without ever counting a park. A short grace
        // period is enough for it to reach its first wait.
        std::thread::sleep(Duration::from_millis(2));
        rt.run(|tx| tx.write(&v, round));
        assert_eq!(consumer.join().unwrap(), round);
    }
    let injected = faults::stats();
    assert!(
        injected.spurious_wakes > 0,
        "the wake storm never fired: {injected}"
    );
}

/// A `RetryTimeout` under a fault schedule still reports cleanly: the
/// deadline path and the injection path compose.
#[test]
fn deadline_survives_fault_schedule() {
    let _serial = serialize();
    let _quiet = quiet();
    let rt = TmRuntime::builder()
        .retry_wait(Duration::from_millis(5))
        .build();
    let v = TVar::new(0u64);
    rt.run(|tx| tx.write(&v, 0));
    let _guard = ScheduleBuilder::new(99)
        .rate_per_mille(200)
        .kinds(&[FaultKind::Delay, FaultKind::SpuriousWake])
        .install();
    let deadline = Instant::now() + Duration::from_millis(60);
    let got: Result<u64, TmError> = rt.run_with_deadline(deadline, |tx| {
        let x = tx.read(&v)?;
        if x == 0 {
            return tx.retry();
        }
        Ok(x)
    });
    assert!(
        matches!(got, Err(TmError::RetryTimeout { .. })),
        "expected RetryTimeout, got {got:?}"
    );
    // Still reusable under the same schedule.
    rt.run(|tx| tx.write(&v, 5));
    assert_eq!(v.snapshot(), 5);
}

/// The async suspension path under an injected wake storm: spurious
/// `Changed` outcomes out of register-validate (plus delays widening the
/// race windows) force suspended `TxFuture`s to revalidate and re-register,
/// and they must neither return early nor miss the real commit. The async
/// analogue of [`spurious_wakes_do_not_break_retry`].
#[test]
fn async_futures_survive_spurious_wakes() {
    let _serial = serialize();
    let _quiet = quiet();
    let rounds = 20 * stress_factor();
    let rt = TmRuntime::new();
    let v = TVar::new(0u64);
    // Bind + register while inert.
    rt.run(|tx| tx.write(&v, 0));
    let _guard = ScheduleBuilder::new(11)
        .rate_per_mille(500)
        .sites(&[
            FaultSite::WaitRegister,
            FaultSite::WaitValidate,
            FaultSite::WaitWake,
        ])
        .kinds(&[FaultKind::SpuriousWake, FaultKind::Delay])
        .install();
    faults::reset_stats();
    for round in 1..=rounds as u64 {
        let consumer = {
            let rt = rt.clone();
            let v = v.clone();
            // Drive the future on its own thread so the commit below can
            // race it; `block_on` parks that thread while suspended, the
            // transaction itself stays on the async waitlist path.
            std::thread::spawn(move || {
                futures::executor::block_on(atomically_async(&rt, move |tx| {
                    let x = tx.read(&v)?;
                    if x < round {
                        return tx.retry();
                    }
                    Ok(x)
                }))
            })
        };
        // No waiter-count handshake: injected `Changed` outcomes may keep
        // the future bouncing without a stable registration to observe.
        std::thread::sleep(Duration::from_millis(2));
        rt.run(|tx| tx.write(&v, round));
        assert_eq!(consumer.join().unwrap(), round);
    }
    assert_eq!(
        rt.retry_waiters(),
        0,
        "every suspension deregistered despite the storm"
    );
    let injected = faults::stats();
    assert!(
        injected.spurious_wakes > 0,
        "the wake storm never fired: {injected}"
    );
}

/// Regression for the `Tx::read` stale-read-after-extension window: a read
/// that found its stripe newer than the snapshot used to extend and then
/// return the value it had loaded *before* the extension sampled the clock,
/// so a commit landing in between went unnoticed — a zombie attempt
/// (panicking in the tree's delete fix-up) or, where commit validation is
/// skipped, a committed stale read. Delays at exactly that window
/// (`ReadExtend`) make the race routine: a 64-key tree under 100 % updates
/// must finish with no body panic and equal to the sequential model.
///
/// `ReadTx` extends the same way and fires the same site, so lock-free
/// readers run beside the updaters under the same delays: lookups, and
/// now and then a full red-black audit, through `read_only`. None may
/// panic, and no audit may see a broken tree.
#[test]
fn delayed_read_extension_never_admits_a_stale_read() {
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicBool;

    let _serial = serialize();
    let _quiet = quiet();
    const KEYS: u64 = 64;
    let threads = if stress_factor() > 1 { 4 } else { 3 };
    let read_only_threads = if stress_factor() > 1 { 2 } else { 1 };
    let ops = 4000 * stress_factor();
    let (readers_started, updaters_done) = (AtomicU64::new(0), AtomicBool::new(false));
    let rt = TmRuntime::new();
    let tree = TxRbTree::new();
    let _guard = ScheduleBuilder::new(16)
        .rate_per_mille(1000)
        .sites(&[FaultSite::ReadExtend])
        .kinds(&[FaultKind::Delay])
        .install();
    faults::reset_stats();

    // Each thread owns the keys congruent to its index, so the final
    // content is the union of per-thread sequential models — while the
    // threads still collide on the tree's shared interior all the time.
    let (models, readers) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..read_only_threads)
            .map(|r| {
                let (rt, tree) = (&rt, &tree);
                let (started, done) = (&readers_started, &updaters_done);
                scope.spawn(move || {
                    let (mut reads, mut panics) = (0u64, 0u64);
                    let mut broken = Vec::new();
                    let mut state = 0x5851_F42Du64 + r;
                    while reads == 0 || !done.load(Ordering::Relaxed) {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let key = (state >> 33) % KEYS;
                        let audit = (state >> 20) % 16 == 0;
                        let ran = catch_unwind(AssertUnwindSafe(|| {
                            if audit {
                                rt.read_only(|tx| tree.check_invariants(tx)).map(drop)
                            } else {
                                rt.read_only(|tx| tree.get(tx, key));
                                Ok(())
                            }
                        }));
                        match ran {
                            Ok(Ok(())) => {}
                            Ok(Err(violation)) => broken.push(violation),
                            Err(_) => panics += 1,
                        }
                        reads += 1;
                        if reads == 1 {
                            started.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    (reads, panics, broken)
                })
            })
            .collect::<Vec<_>>();
        // On a small host the updaters could finish before a reader first
        // runs: they start only once every reader has read once.
        while readers_started.load(Ordering::Relaxed) < read_only_threads {
            std::thread::yield_now();
        }
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (rt, tree) = (&rt, &tree);
                scope.spawn(move || {
                    let mut model = BTreeMap::new();
                    let mut panics = 0u64;
                    let mut state = 0x9E37_79B9u64 + t;
                    for i in 0..ops as u64 {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let key = (state >> 33) % (KEYS / threads) * threads + t;
                        let insert = (state >> 20) & 1 == 0;
                        let ran = catch_unwind(AssertUnwindSafe(|| {
                            rt.run(|tx| {
                                if insert {
                                    tree.insert(tx, key, i).map(|_| ())
                                } else {
                                    tree.remove(tx, key).map(|_| ())
                                }
                            })
                        }));
                        match ran {
                            Ok(()) if insert => drop(model.insert(key, i)),
                            Ok(()) => drop(model.remove(&key)),
                            Err(_) => panics += 1,
                        }
                    }
                    (model, panics)
                })
            })
            .collect();
        let models: Vec<(BTreeMap<u64, u64>, u64)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        updaters_done.store(true, Ordering::Relaxed);
        let readers: Vec<_> = readers.into_iter().map(|h| h.join().unwrap()).collect();
        (models, readers)
    });

    let injected = faults::stats();
    assert!(injected.delays > 0, "the window was never hit: {injected}");
    let panics: u64 = models.iter().map(|(_, p)| p).sum();
    assert_eq!(
        panics, 0,
        "zombie attempts panicked in the body ({injected})"
    );
    for (_, panics, broken) in readers {
        assert_eq!(panics, 0, "zombie read-only attempts panicked ({injected})");
        assert!(
            broken.is_empty(),
            "read-only audits saw a broken tree: {broken:?}"
        );
    }
    let expected: BTreeMap<u64, u64> = models.into_iter().flat_map(|(m, _)| m).collect();
    let (content, shape) = rt.run(|tx| {
        let mut content = BTreeMap::new();
        for key in tree.keys(tx)? {
            content.insert(key, tree.get(tx, key)?.expect("listed key"));
        }
        Ok((content, tree.check_invariants(tx)?))
    });
    assert_eq!(content, expected, "tree diverged from the sequential model");
    shape.expect("red-black invariants");
}

/// Every wait validation claims a change and every park returns at once:
/// the wait loop never sleeps, and a bounded call must still end.
fn endless_wake_storm() -> FaultGuard {
    ScheduleBuilder::new(42)
        .rate_per_mille(1000)
        .sites(&[FaultSite::WaitValidate, FaultSite::EventPark])
        .kinds(&[FaultKind::SpuriousWake])
        .install()
}

/// Runs `f` on a thread of its own and returns its result, failing the
/// test if it has not returned within one second.
fn within_a_second<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || done.send(f()).expect("the test is waiting"));
    let value = result
        .recv_timeout(Duration::from_secs(1))
        .expect("the call did not return within 1 s");
    worker.join().expect("the worker finished after sending");
    value
}

/// A wake before the deadline earns one more round, and only one: under a
/// storm that ends every wait early, a 50 ms deadline still reports
/// `RetryTimeout` — for `run_with_deadline` and for a two-arm select.
#[test]
fn deadline_bounds_waits_that_every_round_wakes() {
    let _serial = serialize();
    let _quiet = quiet();
    let a = TmRuntime::new();
    let b = TmRuntime::new();
    let va: TVar<Option<u32>> = TVar::new(None);
    let vb: TVar<Option<u32>> = TVar::new(None);
    a.run(|tx| tx.write(&va, None));
    b.run(|tx| tx.write(&vb, None));
    let take = |v: &TVar<Option<u32>>, tx: &mut Tx<'_>| match tx.read(v)? {
        Some(x) => Ok(x),
        None => tx.retry(),
    };
    let _storm = endless_wake_storm();

    let got = within_a_second({
        let (a, va) = (a.clone(), va.clone());
        move || {
            a.run_with_deadline(Instant::now() + Duration::from_millis(50), |tx| {
                take(&va, tx)
            })
        }
    });
    assert!(
        matches!(got, Err(TmError::RetryTimeout { .. })),
        "expected RetryTimeout, got {got:?}"
    );

    let got = within_a_second({
        let (a, b, va, vb) = (a.clone(), b.clone(), va.clone(), vb.clone());
        move || {
            retry_select_deadline(
                &mut [
                    SelectArm::new(&a, |tx| take(&va, tx)),
                    SelectArm::new(&b, |tx| take(&vb, tx)),
                ],
                Instant::now() + Duration::from_millis(50),
            )
        }
    });
    assert!(
        matches!(got, Err(TmError::RetryTimeout { .. })),
        "expected RetryTimeout, got {got:?}"
    );
    assert_eq!(a.retry_waiters() + b.retry_waiters(), 0);
}

/// A waker that only counts its wakes.
#[derive(Default)]
struct CountingWaker(AtomicU64);

impl std::task::Wake for CountingWaker {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// A registration that keeps catching a change counts toward the poll's
/// attempt allowance: one `poll` yields (`wake_by_ref`, then `Pending`)
/// instead of re-running the body forever.
#[test]
fn one_poll_yields_when_every_registration_sees_a_change() {
    use std::future::Future;
    use std::task::{Context, Waker};

    let _serial = serialize();
    let _quiet = quiet();
    let rt = TmRuntime::new();
    let v: TVar<Option<u32>> = TVar::new(None);
    rt.run(|tx| tx.write(&v, None));
    let _storm = endless_wake_storm();

    let (pending, wakes) = within_a_second({
        let rt = rt.clone();
        move || {
            let counter = Arc::new(CountingWaker::default());
            let waker = Waker::from(Arc::clone(&counter));
            let mut fut = atomically_async(&rt, move |tx| match tx.read(&v)? {
                Some(x) => Ok(x),
                None => tx.retry(),
            });
            let pending = std::pin::Pin::new(&mut fut)
                .poll(&mut Context::from_waker(&waker))
                .is_pending();
            (pending, counter.0.load(Ordering::SeqCst))
        }
    });
    assert!(pending);
    assert_eq!(wakes, 1, "the task re-enqueued itself");
    assert_eq!(rt.retry_waiters(), 0);
    assert_eq!(rt.retry_stats().async_parks, 0, "it never suspended");
}
