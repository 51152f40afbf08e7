//! The transaction-scheduler integration surface.
//!
//! A *TM scheduler* in the paper's sense is "a software component
//! encapsulating a policy that decides when a particular transaction
//! executes". Algorithm 1 consults it at two moments only — when an
//! attempt starts and when it ends — and [`TxScheduler`] has exactly those
//! two hooks:
//!
//! * [`before_start`](TxScheduler::before_start) — "On transactional start";
//!   this is where a scheduler may block the thread (serialize it through a
//!   global lock) based on its prediction.
//! * [`on_finish`](TxScheduler::on_finish) — how the attempt ended
//!   ([`AttemptEnd`]) together with its access sets: success-rate
//!   bookkeeping, the read-set predictor ("On transactional read of addr",
//!   fed from the `reads` slice), write-set prediction (the aborted write
//!   set becomes the prediction for the retry) and release of the
//!   serialization lock.
//!
//! Nothing is dispatched per transactional access: the scheduler's
//! prediction is only ever consulted at the next `before_start`, so the
//! access sets handed over at the end carry everything a per-read hook
//! could have seen. Both hooks fire from one place, the runtime's attempt
//! step (DESIGN.md §12.2), and only around read-write attempts: a
//! read-only transaction can neither cause nor lose a conflict, so it never
//! reaches the scheduler, and a suspended future that is dropped has
//! already closed its bracket.
//!
//! Concrete schedulers (Shrink, ATS, Pool, Serializer) live in the
//! `shrink-core` crate; this crate ships only [`NoopScheduler`], the
//! "base TM" configuration.

use std::fmt;

use crate::epoch::AttemptEpochs;
use crate::error::Abort;
use crate::thread::ThreadId;
use crate::varid::VarId;
use crate::visible::VisibleWrites;

/// Context handed to every scheduler hook.
///
/// Borrows the runtime's [`VisibleWrites`] oracle so schedulers can check
/// whether predicted addresses are currently being written — the core of
/// Shrink's conflict-prevention test — and the [`AttemptEpochs`] oracle so
/// schedule-after-conflict policies can *sleep* until an enemy's attempt
/// epoch advances instead of yield-polling it (DESIGN.md §8.5).
pub struct SchedCtx<'a> {
    /// The thread the hook fires for.
    pub thread: ThreadId,
    /// Who is currently writing what (the orec table).
    pub visible: &'a dyn VisibleWrites,
    /// Per-thread attempt epochs: read, and park until one advances.
    pub epochs: &'a dyn AttemptEpochs,
}

impl fmt::Debug for SchedCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchedCtx")
            .field("thread", &self.thread)
            .finish()
    }
}

/// How a transaction attempt ended, as reported to
/// [`TxScheduler::on_finish`].
#[derive(Clone, Copy, Debug)]
pub enum AttemptEnd<'a> {
    /// The attempt committed.
    Committed,
    /// The attempt lost a conflict (or was restarted by its body) and will
    /// be re-run. Never carries
    /// [`AbortReason::Retry`](crate::AbortReason::Retry) — those attempts
    /// end as [`RetryWait`](AttemptEnd::RetryWait).
    Aborted(&'a Abort),
    /// The attempt ended in [`Tx::retry`](crate::Tx::retry): a deliberate
    /// wait for the read set to change, reported *before* the runtime parks
    /// the thread (or suspends the future). Policies reacting to conflicts
    /// (success-rate decay, contention intensity, schedule-after) must stay
    /// untouched (DESIGN.md §9).
    RetryWait,
    /// The attempt was abandoned without a normal completion: the body
    /// panicked (the hook then runs during unwinding), or a non-retryable
    /// error such as a foreign-`TVar` access cut it short. The access sets
    /// are empty. It always closes an open bracket, but `before_start` need
    /// not have taken a lock (a scheduler may serialize only some attempts,
    /// and a panic can cut `before_start` short), so releases on this path
    /// stay conditional.
    Abandoned,
}

/// A pluggable transaction scheduling policy.
///
/// Hooks run on the transacting thread itself. `before_start` is allowed to
/// block (that is how serialization is implemented); `on_finish` should be
/// fast and must not panic (it also runs during unwinding).
///
/// One scheduler instance serves one runtime. [`ThreadId`]s are numbered
/// per runtime, so an instance installed in two runtimes would see two
/// different threads under one id and alias their per-thread state and
/// serialization-lock ownership.
///
/// # Contract
///
/// * Hooks bracket **read-write attempts only**, and they run on the
///   transacting thread. A read-only transaction
///   ([`TmRuntime::read_only`](crate::TmRuntime::read_only)) fires no hook:
///   it takes no lock and has no write set, so there is nothing to predict,
///   serialize or book.
/// * Every read-write attempt is bracketed: `before_start` is followed by
///   exactly one `on_finish` for the same thread, before that thread
///   starts its next attempt.
/// * `reads` and `writes` list the variables accessed by the finished
///   attempt. `reads` has one entry per dynamic read, in program order
///   (duplicates and reads of the attempt's own writes included); `writes`
///   is duplicate-free, in first-write order.
/// * A scheduler that acquires a lock in `before_start` **must** release it
///   in `on_finish`, whatever the [`AttemptEnd`], and must leave its
///   per-thread attempt state (pending schedule-after targets, active
///   predictions) ready for the thread's next `before_start` — this is
///   what makes a panicking transaction body recoverable instead of fatal
///   for the runtime. [`AttemptEnd::RetryWait`] in particular closes the
///   bracket for good when the thread parks or the future suspends:
///   dropping a suspended [`TxFuture`](crate::future::TxFuture) reports
///   nothing more.
pub trait TxScheduler: Send + Sync + fmt::Debug {
    /// Called before every read-write attempt (first try and retries).
    /// May block to serialize the transaction.
    fn before_start(&self, ctx: &SchedCtx<'_>) {
        let _ = ctx;
    }

    /// Called once when the attempt opened by
    /// [`before_start`](TxScheduler::before_start) ends, with how it ended
    /// and its access sets.
    fn on_finish(
        &self,
        ctx: &SchedCtx<'_>,
        end: AttemptEnd<'_>,
        reads: &[VarId],
        writes: &[VarId],
    ) {
        let _ = (ctx, end, reads, writes);
    }

    /// A short name for reports ("noop", "shrink", "ats", ...).
    fn name(&self) -> &str;
}

/// The do-nothing scheduler: the base TM without any scheduling policy.
///
/// # Examples
///
/// ```
/// use shrink_stm::{TmRuntime, sched::NoopScheduler};
///
/// let rt = TmRuntime::builder().scheduler(NoopScheduler).build();
/// assert_eq!(rt.scheduler_name(), "noop");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopScheduler;

impl TxScheduler for NoopScheduler {
    fn name(&self) -> &str {
        "noop"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visible::StaticWrites;

    #[test]
    fn noop_scheduler_hooks_are_callable() {
        let s = NoopScheduler;
        let oracle = StaticWrites::new();
        let ctx = SchedCtx {
            thread: ThreadId::from_raw(1),
            visible: &oracle,
            epochs: &crate::epoch::NoEpochs,
        };
        s.before_start(&ctx);
        let abort = Abort::new(crate::AbortReason::ReadValidation);
        for end in [
            AttemptEnd::Committed,
            AttemptEnd::Aborted(&abort),
            AttemptEnd::RetryWait,
            AttemptEnd::Abandoned,
        ] {
            s.on_finish(&ctx, end, &[VarId::from_u64(1)], &[]);
        }
        assert_eq!(s.name(), "noop");
    }

    #[test]
    fn scheduler_trait_is_object_safe() {
        let s: Box<dyn TxScheduler> = Box::new(NoopScheduler);
        assert_eq!(s.name(), "noop");
    }
}
