//! Runtime configuration: backend, waiting and retry-wait policies.
//!
//! The backend also fixes the contention manager, as in the STMs the paper
//! measures: Swiss resolves write/write conflicts with SwissTM's two-phase
//! manager, Tiny with TinySTM's suicide after a bounded spin (`txn.rs`).
//! Two backends × two wait policies are the four configurations the paper's
//! figures use.

use std::fmt;
use std::time::Duration;

/// Which conflict-detection protocol the runtime uses.
///
/// Both backends acquire write locks eagerly (so writes are *visible*, as
/// Shrink requires), buffer written values, and install them at commit under
/// a TL2-style global clock. They differ in how conflicts are handled, which
/// is what produces the paper's contrasting throughput curves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// SwissTM-like: readers may read *through* a write lock until the owner
    /// starts committing; write/write conflicts go through a two-phase
    /// contention manager (timid below a work threshold, greedy above, with
    /// remote kill of the lighter transaction).
    #[default]
    Swiss,
    /// TinySTM-like (version 0.9.5 semantics): encounter-time locking with
    /// bounded busy-waiting on locked stripes and suicide on write/write
    /// conflicts. Degrades steeply when overloaded — the behaviour Figures
    /// 8, 10 and 11 of the paper rely on.
    Tiny,
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendKind::Swiss => f.write_str("swiss"),
            BackendKind::Tiny => f.write_str("tiny"),
        }
    }
}

/// What a thread does while it waits (for a committing stripe, a kill to
/// take effect, or between retries).
///
/// The paper evaluates SwissTM under both policies: Figure 5 uses
/// *preemptive* waiting, the appendix's Figure 9 uses *busy* waiting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum WaitPolicy {
    /// Yield the processor while waiting (`std::thread::yield_now`), so
    /// waiting threads release their core in overloaded systems.
    #[default]
    Preemptive,
    /// Spin without yielding. Threads that wait do not release the
    /// processor, which wastes whole scheduling quanta once the system is
    /// overloaded.
    Busy,
}

impl fmt::Display for WaitPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitPolicy::Preemptive => f.write_str("preemptive"),
            WaitPolicy::Busy => f.write_str("busy"),
        }
    }
}

/// The policies of a [`TmRuntime`](crate::TmRuntime).
///
/// Construct via [`TmRuntime::builder`](crate::TmRuntime::builder); the
/// defaults reproduce the paper's setup. The spin, threshold and backoff
/// tuning constants live beside their only readers (`txn.rs`, `runtime.rs`,
/// `backoff.rs`).
#[derive(Clone, Debug)]
pub struct TmConfig {
    /// Conflict-detection protocol, and with it the contention manager.
    pub backend: BackendKind,
    /// Waiting behaviour.
    pub wait_policy: WaitPolicy,
    /// Longest one parked [`Tx::retry`](crate::Tx::retry) round sleeps
    /// before revalidating its read snapshot. The wake normally comes from
    /// a committer writing a watched stripe (DESIGN.md §9); the deadline is
    /// the safety net against waits nothing will ever satisfy (an empty
    /// read set, a wait-bucket alias race) and what bounds
    /// [`run_budgeted`](crate::TmRuntime::run_budgeted) on a permanently
    /// blocked transaction.
    ///
    /// # Round semantics, thread-parked vs. async
    ///
    /// This is the authoritative description of how `retry_wait` interacts
    /// with the two blocking modes and with
    /// [`run_with_deadline`](crate::TmRuntime::run_with_deadline):
    ///
    /// * **Thread-parked round** ([`TmRuntime::run`](crate::TmRuntime::run)
    ///   and friends): each retry round parks the OS thread for at most
    ///   `retry_wait`, then re-runs the body regardless — a bounded
    ///   sleep-revalidate loop. Under `run_with_deadline` every round's
    ///   bound is *clamped per round* to `min(now + retry_wait, deadline)`,
    ///   so a 30 s `retry_wait` never overshoots a 50 ms deadline; once the
    ///   deadline passes, the next round that blocks returns
    ///   [`TmError::RetryTimeout`](crate::TmError::RetryTimeout).
    /// * **Async round**
    ///   ([`atomically_async`](crate::future::atomically_async)): a
    ///   suspended [`TxFuture`](crate::future::TxFuture) consumes no thread,
    ///   so there is nothing to time out — `retry_wait` is **not consulted**.
    ///   The future re-polls only when a commit bumps a watched stripe (or
    ///   when its executor polls it spuriously, which just revalidates and
    ///   re-suspends). The safety-net role `retry_wait` plays for threads is
    ///   unnecessary there: bucket aliasing can only cause spurious wakes,
    ///   never missed ones, and a retry with an *empty* read set — the one
    ///   wait no commit can ever satisfy — pends forever, which is the
    ///   documented contract for that body bug. Callers who want a bounded
    ///   async wait should race the future against their executor's timer.
    pub retry_wait: Duration,
}

impl Default for TmConfig {
    fn default() -> Self {
        TmConfig {
            backend: BackendKind::Swiss,
            wait_policy: WaitPolicy::Preemptive,
            retry_wait: Duration::from_millis(10),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = TmConfig::default();
        assert_eq!(c.backend, BackendKind::Swiss);
        assert_eq!(c.wait_policy, WaitPolicy::Preemptive);
        assert!(c.retry_wait > Duration::ZERO);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(BackendKind::Swiss.to_string(), "swiss");
        assert_eq!(BackendKind::Tiny.to_string(), "tiny");
        assert_eq!(WaitPolicy::Preemptive.to_string(), "preemptive");
        assert_eq!(WaitPolicy::Busy.to_string(), "busy");
    }
}
