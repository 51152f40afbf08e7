//! Commit/abort statistics.
//!
//! The throughput and abort-rate numbers behind every figure in the paper
//! come from these counters. Counting happens with relaxed atomics on the
//! transacting threads; [`TmStats`] is a consistent-enough snapshot taken by
//! whoever asks.

use std::fmt;

use crate::thread::ThreadId;

/// Counters of a single thread at snapshot time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadStats {
    /// Which thread these counters belong to.
    pub thread: ThreadId,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Attempts that ended in [`Tx::retry`](crate::Tx::retry) (whether the
    /// round then parked, found its snapshot already stale, or exhausted
    /// the attempt budget — [`RetryStats`](crate::RetryStats) breaks the
    /// wait outcomes down). Deliberate blocking is not a conflict: it is
    /// counted here, never in `aborts`.
    pub retry_waits: u64,
    /// Read-only transactions completed via
    /// [`TmRuntime::read_only`](crate::TmRuntime::read_only). Counted apart
    /// from `commits`: a read-only transaction never competes for orecs, so
    /// it must not inflate the success rates that scheduler policies
    /// (Shrink's success-rate decay, ATS's contention intensity) feed on.
    pub ro_commits: u64,
    /// Individual reads performed inside read-only transactions.
    pub ro_reads: u64,
    /// Read-only snapshot revalidations: timestamp extensions plus
    /// whole-body restarts forced by concurrent writers. Never counted as
    /// aborts.
    pub ro_revalidations: u64,
    /// Orec stripes write-locked by this thread. Zero for a pure reader —
    /// the lock-free read-only claim, asserted by tests.
    pub orec_acquires: u64,
}

impl ThreadStats {
    /// Commits divided by total attempts; 1.0 for an idle thread.
    ///
    /// Read-only transactions are excluded on both sides of the ratio: they
    /// can neither abort nor cause aborts, so they carry no information
    /// about conflict pressure.
    pub fn success_ratio(&self) -> f64 {
        let total = self.commits + self.aborts;
        if total == 0 {
            1.0
        } else {
            self.commits as f64 / total as f64
        }
    }
}

/// Aggregate snapshot over all registered threads.
///
/// # Examples
///
/// ```
/// use shrink_stm::TmRuntime;
///
/// let rt = TmRuntime::new();
/// let v = shrink_stm::TVar::new(1u32);
/// let _: u32 = rt.run(|tx| tx.read(&v));
/// assert_eq!(rt.stats().commits, 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TmStats {
    /// Total committed transactions.
    pub commits: u64,
    /// Total aborted attempts.
    pub aborts: u64,
    /// Total attempts that ended in [`Tx::retry`](crate::Tx::retry)
    /// (deliberate blocking, counted apart from conflict aborts).
    pub retry_waits: u64,
    /// Total read-only transactions completed
    /// ([`TmRuntime::read_only`](crate::TmRuntime::read_only)); kept apart
    /// from `commits` so conflict accounting stays read-write only.
    pub ro_commits: u64,
    /// Total reads performed inside read-only transactions.
    pub ro_reads: u64,
    /// Total read-only snapshot revalidations (extensions + restarts).
    pub ro_revalidations: u64,
    /// Total orec stripes write-locked across all threads.
    pub orec_acquires: u64,
    /// Per-thread breakdown.
    pub per_thread: Vec<ThreadStats>,
}

impl TmStats {
    /// Aggregates per-thread counters.
    pub fn from_threads(per_thread: Vec<ThreadStats>) -> Self {
        let commits = per_thread.iter().map(|t| t.commits).sum();
        let aborts = per_thread.iter().map(|t| t.aborts).sum();
        let retry_waits = per_thread.iter().map(|t| t.retry_waits).sum();
        let ro_commits = per_thread.iter().map(|t| t.ro_commits).sum();
        let ro_reads = per_thread.iter().map(|t| t.ro_reads).sum();
        let ro_revalidations = per_thread.iter().map(|t| t.ro_revalidations).sum();
        let orec_acquires = per_thread.iter().map(|t| t.orec_acquires).sum();
        TmStats {
            commits,
            aborts,
            retry_waits,
            ro_commits,
            ro_reads,
            ro_revalidations,
            orec_acquires,
            per_thread,
        }
    }

    /// Aborts per commit (the paper's "wasted work" proxy). Zero when no
    /// transaction committed.
    pub fn aborts_per_commit(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.aborts as f64 / self.commits as f64
        }
    }

    /// Commits divided by total attempts; 1.0 when nothing ran.
    pub fn success_ratio(&self) -> f64 {
        let total = self.commits + self.aborts;
        if total == 0 {
            1.0
        } else {
            self.commits as f64 / total as f64
        }
    }

    /// Difference against an earlier snapshot of the same runtime.
    ///
    /// Used by the throughput harness: snapshot, run for a wall-clock
    /// window, snapshot again, divide.
    pub fn since(&self, earlier: &TmStats) -> TmStats {
        TmStats {
            commits: self.commits.saturating_sub(earlier.commits),
            aborts: self.aborts.saturating_sub(earlier.aborts),
            retry_waits: self.retry_waits.saturating_sub(earlier.retry_waits),
            ro_commits: self.ro_commits.saturating_sub(earlier.ro_commits),
            ro_reads: self.ro_reads.saturating_sub(earlier.ro_reads),
            ro_revalidations: self
                .ro_revalidations
                .saturating_sub(earlier.ro_revalidations),
            orec_acquires: self.orec_acquires.saturating_sub(earlier.orec_acquires),
            per_thread: Vec::new(),
        }
    }
}

impl fmt::Display for TmStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} commits, {} aborts ({:.2} aborts/commit)",
            self.commits,
            self.aborts,
            self.aborts_per_commit()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(thread: u16, commits: u64, aborts: u64) -> ThreadStats {
        ThreadStats {
            thread: ThreadId::from_u16(thread),
            commits,
            aborts,
            retry_waits: 0,
            ro_commits: 0,
            ro_reads: 0,
            ro_revalidations: 0,
            orec_acquires: 0,
        }
    }

    #[test]
    fn aggregation_sums_threads() {
        let s = TmStats::from_threads(vec![ts(1, 10, 2), ts(2, 5, 3)]);
        assert_eq!(s.commits, 15);
        assert_eq!(s.aborts, 5);
        assert!((s.aborts_per_commit() - 5.0 / 15.0).abs() < 1e-12);
        assert!((s.success_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_neutral_ratios() {
        let s = TmStats::default();
        assert_eq!(s.aborts_per_commit(), 0.0);
        assert_eq!(s.success_ratio(), 1.0);
    }

    #[test]
    fn since_subtracts_counters() {
        let early = TmStats::from_threads(vec![ts(1, 10, 4)]);
        let late = TmStats::from_threads(vec![ts(1, 25, 9)]);
        let d = late.since(&early);
        assert_eq!(d.commits, 15);
        assert_eq!(d.aborts, 5);
    }

    #[test]
    fn retry_waits_aggregate_apart_from_aborts() {
        let mut a = ts(1, 10, 2);
        a.retry_waits = 7;
        let mut b = ts(2, 5, 0);
        b.retry_waits = 3;
        let s = TmStats::from_threads(vec![a, b]);
        assert_eq!(s.retry_waits, 10);
        assert_eq!(s.aborts, 2, "deliberate waits are not aborts");
        let early = TmStats {
            retry_waits: 4,
            ..TmStats::default()
        };
        assert_eq!(s.since(&early).retry_waits, 6);
    }

    #[test]
    fn read_only_counters_stay_out_of_conflict_accounting() {
        let mut a = ts(1, 10, 2);
        a.ro_commits = 100;
        a.ro_reads = 3200;
        a.ro_revalidations = 5;
        a.orec_acquires = 12;
        let mut b = ts(2, 0, 0);
        b.ro_commits = 50;
        b.ro_reads = 1600;
        let s = TmStats::from_threads(vec![a, b]);
        assert_eq!(s.ro_commits, 150);
        assert_eq!(s.ro_reads, 4800);
        assert_eq!(s.ro_revalidations, 5);
        assert_eq!(s.orec_acquires, 12);
        // The conflict-facing ratios never see read-only traffic.
        assert_eq!(s.commits, 10);
        assert_eq!(s.aborts, 2);
        assert!((s.success_ratio() - 10.0 / 12.0).abs() < 1e-12);
        assert_eq!(b.success_ratio(), 1.0, "pure reader is neutral");
        let early = TmStats {
            ro_commits: 30,
            ro_reads: 800,
            ..TmStats::default()
        };
        let d = s.since(&early);
        assert_eq!(d.ro_commits, 120);
        assert_eq!(d.ro_reads, 4000);
    }

    #[test]
    fn thread_success_ratio() {
        assert_eq!(ts(1, 0, 0).success_ratio(), 1.0);
        assert!((ts(1, 3, 1).success_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn display_is_informative() {
        let s = TmStats::from_threads(vec![ts(1, 4, 2)]);
        let text = s.to_string();
        assert!(text.contains("4 commits"), "{text}");
        assert!(text.contains("2 aborts"), "{text}");
    }
}
