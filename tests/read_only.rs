//! Acceptance tests for lock-free read-only transactions (DESIGN.md §10).
//!
//! The contract under test: [`TmRuntime::read_only`] delivers a consistent
//! multi-variable snapshot while performing **zero orec writes**, taking
//! **zero commit tickets**, and staying **invisible to the scheduler** —
//! a pure-reader thread must not even create scheduler state, and its
//! restarts are revalidations, never aborts.

use std::sync::Arc;

use shrink::prelude::*;

#[test]
fn read_only_attempts_do_not_inflate_commit_or_abort_counters() {
    let rt = TmRuntime::new();
    let vars: Vec<TVar<u64>> = (0..4).map(TVar::new).collect();
    for _ in 0..25 {
        let sum = rt.read_only(|tx| {
            let mut sum = 0;
            for v in &vars {
                sum += tx.read(v)?;
            }
            Ok(sum)
        });
        assert_eq!(sum, 6, "sum of the seeded values 0..4");
    }
    let stats = rt.stats();
    assert_eq!(stats.commits, 0, "ro attempts must not count as commits");
    assert_eq!(stats.aborts, 0, "ro restarts must not count as aborts");
    assert_eq!(stats.ro_commits, 25);
    assert_eq!(stats.ro_reads, 100);
    assert_eq!(stats.orec_acquires, 0, "no lock traffic at all");
}

/// Satellite: [`TArray::read_all`] reused from a read-only transaction
/// yields the consistent, version-stamped counterpart of
/// [`TArray::snapshot_all`], with zero orec writes (checked via
/// [`TmStats::orec_acquires`]).
#[test]
fn tarray_bulk_read_is_consistent_version_stamped_and_lock_free() {
    let rt = TmRuntime::new();
    let arr = TArray::new(16, 0u64);
    rt.run(|tx| {
        for i in 0..16 {
            arr.set(tx, i, i as u64 + 1)?;
        }
        Ok(())
    });
    let writer_orecs = rt.stats().orec_acquires;
    assert!(writer_orecs > 0, "the seeding writer took locks");

    let (view, stamp) = rt.read_only(|tx| Ok((arr.read_all(tx)?, tx.start_timestamp())));
    assert_eq!(view, (1..=16).collect::<Vec<u64>>());
    assert!(stamp >= 1, "the view carries the clock time it is valid at");
    // With no writers in flight the unsynchronized helper agrees.
    assert_eq!(arr.snapshot_all(), view);

    let stats = rt.stats();
    assert_eq!(
        stats.orec_acquires, writer_orecs,
        "the bulk read-only scan performed zero orec writes"
    );
    assert_eq!(stats.ro_reads, 16);
    assert_eq!(stats.commits, 1, "only the seeding writer committed");
}

/// A revalidation failure mid-scan restarts the reader — visible as
/// `ro_revalidations`, never as an abort, and still without touching an
/// orec.
#[test]
fn revalidation_failure_retries_without_touching_orecs() {
    let rt = TmRuntime::new();
    let arr = TArray::new(8, 0u64);
    let fired = std::cell::Cell::new(false);
    let (a, b) = rt.read_only(|tx| {
        let a = arr.get(tx, 0)?;
        if !fired.get() {
            fired.set(true);
            // Commit a whole-array bump between the reader's steps, once:
            // slot 7's version now exceeds the reader's snapshot, so the
            // next read must fail extension and restart.
            rt.run(|wtx| {
                for i in 0..8 {
                    arr.update(wtx, i, |v| v + 1)?;
                }
                Ok(())
            });
        }
        let b = arr.get(tx, 7)?;
        Ok((a, b))
    });
    assert_eq!((a, b), (1, 1), "the retried scan sees the new generation");
    let stats = rt.stats();
    assert!(
        stats.ro_revalidations > 0,
        "the forced restart shows up as a revalidation"
    );
    assert_eq!(stats.ro_commits, 1);
    assert_eq!(stats.aborts, 0, "a reader restart is not an abort");
    assert_eq!(stats.orec_acquires, 8, "only the writer took locks");
}

/// Satellite regression: a pure-reader thread leaves the Shrink scheduler's
/// per-thread success-rate state untouched — not merely neutral, but never
/// created.
#[test]
fn pure_reader_leaves_shrink_success_rate_untouched() {
    let sched = Arc::new(Shrink::new(ShrinkConfig::default()));
    let rt = TmRuntime::builder().scheduler_arc(sched.clone()).build();
    let v = TVar::new(7u64);
    for _ in 0..40 {
        assert_eq!(rt.read_only(|tx| tx.read(&v)), 7);
    }
    let stats = rt.stats();
    assert_eq!(stats.ro_commits, 40);
    let me = stats.per_thread[0].thread;
    assert_eq!(
        sched.success_rate(me),
        None,
        "read-only traffic must not create a Shrink slot"
    );
}

/// Same regression against ATS: read-only traffic must leave the
/// contention-intensity table untouched (no slot, no decay).
#[test]
fn pure_reader_leaves_ats_intensity_untouched() {
    let sched = Arc::new(Ats::new());
    let rt = TmRuntime::builder().scheduler_arc(sched.clone()).build();
    let v = TVar::new(1u64);
    for _ in 0..40 {
        rt.read_only(|tx| tx.read(&v));
    }
    let stats = rt.stats();
    assert_eq!(stats.ro_commits, 40);
    let me = stats.per_thread[0].thread;
    assert_eq!(
        sched.contention_intensity(me),
        None,
        "read-only traffic must not create an ATS intensity slot"
    );
    // A real read-write commit does create the slot — proving the probe
    // would have caught a leak.
    rt.run(|tx| tx.modify(&v, |x| x + 1));
    assert!(sched.contention_intensity(me).is_some());
}
