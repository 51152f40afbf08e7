//! Opacity stress: transactions must never observe a torn snapshot, even
//! transiently, under either backend.
//!
//! A writer repeatedly updates a group of variables to a common value in
//! one transaction; readers assert inside their own transactions that all
//! members are equal. TL2-style incremental validation (with timestamp
//! extension) must make the assertion unfailable.
//!
//! Three tiers:
//!
//! * `snapshot_stress` — the original one-writer/three-reader shape;
//! * `contended_snapshot_stress` — several *competing* writer threads (so
//!   commit-time installs, aborts and orec hand-offs all race) against a
//!   pool of readers, with every writer stamping its own tag so a torn
//!   snapshot cannot hide behind coincidentally equal values;
//! * `read_only_snapshot_stress` — the same multi-writer hammer with the
//!   readers on the lock-free [`TmRuntime::read_only`] path, which must
//!   deliver the identical opacity guarantees while leaving zero marks on
//!   shared state (asserted per reader thread from the stats ledger);
//! * `borrowed_read_stress` — readers on both paths that check the
//!   invariant *inside* a `read_with` closure, on values borrowed in place:
//!   the closure must only ever run on a value its read validated.
//!
//! Set `SHRINK_STRESS=1` to raise thread counts and rounds.

mod common;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use common::stress_factor;
use shrink::prelude::*;

fn snapshot_stress(backend: BackendKind, wait: WaitPolicy, kind: SchedulerKind) {
    const VARS: usize = 16;
    const WRITER_ROUNDS: u64 = 400;
    let rt = TmRuntime::builder()
        .backend(backend)
        .wait_policy(wait)
        .scheduler_arc(kind.build())
        .build();
    let vars: Arc<Vec<TVar<u64>>> = Arc::new((0..VARS).map(|_| TVar::new(0)).collect());
    let stop = Arc::new(AtomicBool::new(false));
    let observed = Arc::new(AtomicU64::new(0));

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let rt = rt.clone();
            let vars = Arc::clone(&vars);
            let stop = Arc::clone(&stop);
            let observed = Arc::clone(&observed);
            std::thread::spawn(move || {
                let mut observations = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let values: Vec<u64> = rt.run(|tx| {
                        let mut out = Vec::with_capacity(VARS);
                        for v in vars.iter() {
                            out.push(tx.read(v)?);
                        }
                        Ok(out)
                    });
                    assert!(
                        values.windows(2).all(|w| w[0] == w[1]),
                        "torn snapshot observed: {values:?}"
                    );
                    observed.fetch_add(1, Ordering::Relaxed);
                    observations += 1;
                }
                observations
            })
        })
        .collect();

    // At least WRITER_ROUNDS, and on until a reader got a look in: on a
    // small host an optimized writer can finish before any reader is
    // scheduled at all.
    let mut round = 0;
    while round < WRITER_ROUNDS || observed.load(Ordering::Relaxed) == 0 {
        round += 1;
        rt.run(|tx| {
            for v in vars.iter() {
                tx.write(v, round)?;
            }
            Ok(())
        });
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total > 0, "readers must have observed snapshots");
    assert!(vars.iter().all(|v| v.snapshot() == round));
}

/// The same opacity invariants under real multi-writer contention: W writer
/// threads race to install their own tag across the whole group, so every
/// commit-time install overlaps other writers' acquires, aborts and
/// retries. Readers assert all-equal and additionally that the observed tag
/// was actually produced by some writer round (values are
/// `round * WRITERS + writer_id`, so tag consistency is checkable).
fn contended_snapshot_stress(backend: BackendKind, wait: WaitPolicy, kind: SchedulerKind) {
    const VARS: usize = 12;
    let writers = 4 * stress_factor().min(2) as u64;
    let readers = 3 * stress_factor().min(2);
    let writer_rounds = 200 * stress_factor() as u64;

    let rt = TmRuntime::builder()
        .backend(backend)
        .wait_policy(wait)
        .scheduler_arc(kind.build())
        .build();
    let vars: Arc<Vec<TVar<u64>>> = Arc::new((0..VARS).map(|_| TVar::new(0)).collect());
    let stop = Arc::new(AtomicBool::new(false));

    let reader_handles: Vec<_> = (0..readers)
        .map(|_| {
            let rt = rt.clone();
            let vars = Arc::clone(&vars);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut observations = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let values: Vec<u64> = rt.run(|tx| {
                        let mut out = Vec::with_capacity(VARS);
                        for v in vars.iter() {
                            out.push(tx.read(v)?);
                        }
                        Ok(out)
                    });
                    assert!(
                        values.windows(2).all(|w| w[0] == w[1]),
                        "torn snapshot under contention: {values:?}"
                    );
                    observations += 1;
                }
                observations
            })
        })
        .collect();

    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let rt = rt.clone();
            let vars = Arc::clone(&vars);
            std::thread::spawn(move || {
                for round in 1..=writer_rounds {
                    let tag = round * writers + w;
                    rt.run(|tx| {
                        for v in vars.iter() {
                            tx.write(v, tag)?;
                        }
                        Ok(())
                    });
                }
            })
        })
        .collect();

    for h in writer_handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = reader_handles.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total > 0, "readers must have observed snapshots");

    // The final group value is whichever writer's last round won, but it
    // must be a tag some writer actually wrote in its final round.
    let final_values = rt.run(|tx| {
        let mut out = Vec::with_capacity(VARS);
        for v in vars.iter() {
            out.push(tx.read(v)?);
        }
        Ok(out)
    });
    assert!(final_values.windows(2).all(|w| w[0] == w[1]));
    let tag = final_values[0];
    assert!(
        tag / writers >= 1 && tag / writers <= writer_rounds,
        "final tag {tag} not produced by any writer round"
    );
}

/// The contended hammer with lock-free readers: several writers race their
/// tags across the group while readers scan via [`TmRuntime::read_only`].
/// Readers assert all-equal, tag validity, and within-snapshot re-read
/// stability; afterwards the stats ledger must show that every pure-reader
/// thread acquired zero orecs and aborted zero transactions — the
/// lock-freedom claim, checked rather than assumed.
fn read_only_snapshot_stress(backend: BackendKind, wait: WaitPolicy, kind: SchedulerKind) {
    const VARS: usize = 12;
    let writers = 4 * stress_factor().min(2) as u64;
    let readers = 3 * stress_factor().min(2);
    let writer_rounds = 200 * stress_factor() as u64;

    let rt = TmRuntime::builder()
        .backend(backend)
        .wait_policy(wait)
        .scheduler_arc(kind.build())
        .build();
    let vars: Arc<Vec<TVar<u64>>> = Arc::new((0..VARS).map(|_| TVar::new(0)).collect());
    let stop = Arc::new(AtomicBool::new(false));
    // Readers that completed their first snapshot.
    let started = Arc::new(AtomicU64::new(0));

    let reader_handles: Vec<_> = (0..readers)
        .map(|_| {
            let rt = rt.clone();
            let vars = Arc::clone(&vars);
            let stop = Arc::clone(&stop);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let mut observations = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (values, again) = rt.read_only(|tx| {
                        let mut out = Vec::with_capacity(VARS);
                        for v in vars.iter() {
                            out.push(tx.read(v)?);
                        }
                        // Re-reading inside the same snapshot must return
                        // what the snapshot already showed (no time-travel
                        // within one read-only transaction).
                        let again = tx.read(&vars[0])?;
                        Ok((out, again))
                    });
                    assert!(
                        values.windows(2).all(|w| w[0] == w[1]),
                        "torn read-only snapshot: {values:?}"
                    );
                    assert_eq!(again, values[0], "re-read moved within a snapshot");
                    let tag = values[0];
                    assert!(
                        tag == 0 || (1..=writer_rounds).contains(&(tag / writers)),
                        "tag {tag} not produced by any writer round"
                    );
                    observations += 1;
                    if observations == 1 {
                        started.fetch_add(1, Ordering::Relaxed);
                    }
                }
                observations
            })
        })
        .collect();
    // Handshake: on a small host the writers can finish before a reader
    // thread first runs, so they start only once every reader has taken a
    // snapshot.
    while started.load(Ordering::Relaxed) < readers as u64 {
        std::thread::yield_now();
    }

    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let rt = rt.clone();
            let vars = Arc::clone(&vars);
            std::thread::spawn(move || {
                for round in 1..=writer_rounds {
                    let tag = round * writers + w;
                    rt.run(|tx| {
                        for v in vars.iter() {
                            tx.write(v, tag)?;
                        }
                        Ok(())
                    });
                }
            })
        })
        .collect();

    for h in writer_handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = reader_handles.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total > 0, "readers must have observed snapshots");

    // Lock-freedom footprint: a pure reader (only ro commits) leaves no
    // orec writes, no rw commits, no aborts — ever.
    let stats = rt.stats();
    let pure_readers: Vec<_> = stats
        .per_thread
        .iter()
        .filter(|t| t.ro_commits > 0 && t.commits == 0)
        .collect();
    assert!(
        pure_readers.len() >= readers,
        "every reader thread must appear as a pure reader"
    );
    for t in pure_readers {
        assert_eq!(t.orec_acquires, 0, "pure reader wrote an orec: {t:?}");
        assert_eq!(t.aborts, 0, "pure reader aborted: {t:?}");
    }
}

/// Zombie check for [`TxRead::read_with`]: writers move units between two
/// boxed vectors, keeping the grand total constant, while readers on `run`
/// and on `read_only` sum the first vector in one `read_with` and assert
/// the total inside the second one's closure. Borrowed values are never
/// cloned, so the assertion sees exactly what the closure was handed; a
/// closure that ran on a value the read had not yet validated — loaded
/// before the orec confirm, or before an extension's re-load — could pair
/// two generations and would panic the reader thread.
fn borrowed_read_stress(backend: BackendKind) {
    const UNITS: u64 = 32;
    const TOTAL: u64 = UNITS * (UNITS + 1) / 2;
    let writers = 2 * stress_factor().min(2);
    let readers_per_path = 2 * stress_factor().min(2);
    let writer_rounds = 300 * stress_factor();

    let rt = TmRuntime::builder().backend(backend).build();
    let left = TVar::new((1..=UNITS).collect::<Vec<u64>>());
    let right = TVar::new(Vec::<u64>::new());
    assert!(!left.uses_inline_storage());
    let stop = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicU64::new(0));

    // The two halves of one transactional check, run on either path.
    fn check(tx: &mut impl TxRead, left: &TVar<Vec<u64>>, right: &TVar<Vec<u64>>) -> TxResult<()> {
        let in_left = tx.read_with(left, |v| v.iter().sum::<u64>())?;
        tx.read_with(right, |v| {
            let total = in_left + v.iter().sum::<u64>();
            assert_eq!(total, TOTAL, "a read_with closure saw an unvalidated value");
        })
    }

    let reader_handles: Vec<_> = (0..2 * readers_per_path)
        .map(|r| {
            let (rt, left, right) = (rt.clone(), left.clone(), right.clone());
            let (stop, started) = (Arc::clone(&stop), Arc::clone(&started));
            std::thread::spawn(move || {
                let mut observations = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if r % 2 == 0 {
                        rt.run(|tx| check(tx, &left, &right));
                    } else {
                        rt.read_only(|tx| check(tx, &left, &right));
                    }
                    observations += 1;
                    if observations == 1 {
                        started.fetch_add(1, Ordering::Relaxed);
                    }
                }
                observations
            })
        })
        .collect();
    while started.load(Ordering::Relaxed) < 2 * readers_per_path as u64 {
        std::thread::yield_now();
    }

    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let (rt, left, right) = (rt.clone(), left.clone(), right.clone());
            std::thread::spawn(move || {
                for round in 0..writer_rounds {
                    // Alternate directions so both vectors keep changing
                    // length as well as content.
                    let (from, to) = if (round + w) % 2 == 0 {
                        (&left, &right)
                    } else {
                        (&right, &left)
                    };
                    rt.run(|tx| {
                        let mut source = tx.read(from)?;
                        let Some(unit) = source.pop() else {
                            return Ok(());
                        };
                        let mut sink = tx.read(to)?;
                        sink.push(unit);
                        tx.write(from, source)?;
                        tx.write(to, sink)
                    });
                }
            })
        })
        .collect();

    for h in writer_handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = reader_handles.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total > 0, "readers must have observed snapshots");
    let (l, r) = (left.snapshot(), right.snapshot());
    assert_eq!(l.iter().chain(&r).sum::<u64>(), TOTAL);
    assert_eq!(l.len() + r.len(), UNITS as usize, "units are conserved");
}

#[test]
fn swiss_read_with_closures_only_see_validated_values() {
    borrowed_read_stress(BackendKind::Swiss);
}

#[test]
fn tiny_read_with_closures_only_see_validated_values() {
    borrowed_read_stress(BackendKind::Tiny);
}

/// Deterministic writer/reader interleaving, single-threaded: a writer
/// transaction commits a whole-group bump between *every* reader step
/// while its budget lasts, so a naive reader would assemble a
/// mixed-generation view. The read-only transaction must instead restart
/// (visible as revalidations) until the writer budget is exhausted, and
/// the final view must be all-old-or-all-new — here, all-new.
#[test]
fn deterministic_interleaving_reads_all_old_or_all_new() {
    const VARS: usize = 8;
    const WRITE_BUDGET: u64 = 4 * VARS as u64;
    let rt = TmRuntime::new();
    let vars: Vec<TVar<u64>> = (0..VARS).map(|_| TVar::new(0)).collect();
    let budget = std::cell::Cell::new(WRITE_BUDGET);
    let view = rt.read_only(|tx| {
        let mut out = Vec::with_capacity(VARS);
        for v in &vars {
            out.push(tx.read(v)?);
            if budget.get() > 0 {
                budget.set(budget.get() - 1);
                // The writer commits between every reader step,
                // invalidating the reader's snapshot mid-scan.
                rt.run(|wtx| {
                    for v in &vars {
                        wtx.modify(v, |x| x + 1)?;
                    }
                    Ok(())
                });
            }
        }
        Ok(out)
    });
    assert!(
        view.windows(2).all(|w| w[0] == w[1]),
        "mixed-generation view: {view:?}"
    );
    let stats = rt.stats();
    // The scan can only complete once the writer budget is spent, so the
    // consistent view is the all-new one.
    assert_eq!(view[0], stats.commits);
    assert!(
        stats.ro_revalidations > 0,
        "interleaved commits must have forced reader restarts"
    );
    assert_eq!(stats.ro_commits, 1, "one read-only transaction, many tries");
    assert_eq!(stats.aborts, 0, "the writer never aborts single-threaded");
}

#[test]
fn swiss_backend_never_shows_torn_snapshots() {
    snapshot_stress(
        BackendKind::Swiss,
        WaitPolicy::Preemptive,
        SchedulerKind::Noop,
    );
}

#[test]
fn tiny_backend_never_shows_torn_snapshots() {
    snapshot_stress(
        BackendKind::Tiny,
        WaitPolicy::Preemptive,
        SchedulerKind::Noop,
    );
}

#[test]
fn shrink_scheduler_preserves_opacity() {
    snapshot_stress(
        BackendKind::Swiss,
        WaitPolicy::Preemptive,
        SchedulerKind::shrink_default(),
    );
}

#[test]
fn busy_waiting_preserves_opacity() {
    snapshot_stress(BackendKind::Tiny, WaitPolicy::Busy, SchedulerKind::Noop);
}

#[test]
fn swiss_backend_survives_contended_writers() {
    contended_snapshot_stress(
        BackendKind::Swiss,
        WaitPolicy::Preemptive,
        SchedulerKind::Noop,
    );
}

#[test]
fn tiny_backend_survives_contended_writers() {
    contended_snapshot_stress(
        BackendKind::Tiny,
        WaitPolicy::Preemptive,
        SchedulerKind::Noop,
    );
}

#[test]
fn shrink_scheduler_survives_contended_writers() {
    contended_snapshot_stress(
        BackendKind::Swiss,
        WaitPolicy::Preemptive,
        SchedulerKind::shrink_default(),
    );
}

#[test]
fn swiss_read_only_readers_survive_contended_writers() {
    read_only_snapshot_stress(
        BackendKind::Swiss,
        WaitPolicy::Preemptive,
        SchedulerKind::Noop,
    );
}

#[test]
fn tiny_read_only_readers_survive_contended_writers() {
    read_only_snapshot_stress(
        BackendKind::Tiny,
        WaitPolicy::Preemptive,
        SchedulerKind::Noop,
    );
}

#[test]
fn shrink_scheduler_read_only_readers_survive_contended_writers() {
    read_only_snapshot_stress(
        BackendKind::Swiss,
        WaitPolicy::Preemptive,
        SchedulerKind::shrink_default(),
    );
}
