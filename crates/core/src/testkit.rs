//! Shared scaffolding for the schedulers' unit tests: hook contexts over a
//! scripted visible-writes oracle and one-line attempt completions.

use shrink_stm::{
    Abort, AbortReason, AttemptEnd, NoEpochs, SchedCtx, StaticWrites, ThreadId, TxScheduler,
};

/// A hook context for `thread` (no epoch oracle).
pub(crate) fn ctx<'a>(thread: u16, oracle: &'a StaticWrites) -> SchedCtx<'a> {
    SchedCtx {
        thread: ThreadId::from_u16(thread),
        visible: oracle,
        epochs: &NoEpochs,
    }
}

/// Ends the attempt `before_start` opened, with empty access sets.
pub(crate) fn finish(s: &dyn TxScheduler, c: &SchedCtx<'_>, end: AttemptEnd<'_>) {
    s.on_finish(c, end, &[], &[]);
}

/// Ends it as a conflict abort with no identified enemy.
pub(crate) fn abort(s: &dyn TxScheduler, c: &SchedCtx<'_>) {
    let conflict = Abort::new(AbortReason::WriteConflict);
    finish(s, c, AttemptEnd::Aborted(&conflict));
}
