//! Transaction failure types.
//!
//! A transaction body has the signature `FnMut(&mut Tx) -> Result<T, Abort>`;
//! any transactional operation can fail with [`Abort`], which the `?`
//! operator propagates out of the body so the runtime's retry loop can
//! restart the attempt. An `Abort` is not a user-visible error of
//! [`TmRuntime::run`](crate::TmRuntime::run) — it is consumed by the retry
//! loop — but it is part of the public API because bodies must thread it.

use std::error::Error;
use std::fmt;

use crate::thread::ThreadId;
use crate::varid::VarId;

/// Why a transaction attempt must be restarted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// A read observed a version newer than the snapshot and the snapshot
    /// could not be extended.
    ReadValidation,
    /// Commit-time validation of the read set failed.
    CommitValidation,
    /// A write/write conflict was resolved against this transaction.
    WriteConflict,
    /// The spin budget for a locked ownership record was exhausted.
    LockTimeout,
    /// A higher-priority transaction requested this one be killed
    /// (SwissTM-style two-phase contention management).
    Killed,
    /// The transaction body requested a restart via [`Tx::restart`](crate::Tx::restart).
    UserRestart,
    /// The transaction body called [`Tx::retry`](crate::Tx::retry): the
    /// current snapshot does not let it proceed (a queue was empty, a
    /// predicate was false). Unlike every other reason this is *control
    /// flow*, not a conflict: [`Tx::or_else`](crate::Tx::or_else) catches it
    /// to run an alternative branch, and the runtime's retry loop **parks**
    /// the thread on the per-stripe commit event counts of its read set
    /// instead of spinning the attempt again (DESIGN.md §9). Schedulers see
    /// it as [`AttemptEnd::RetryWait`](crate::sched::AttemptEnd::RetryWait)
    /// rather than `Aborted`, so a deliberate wait is never booked as a
    /// conflict abort.
    Retry,
    /// The body touched a [`TVar`](crate::TVar) owned by a different
    /// [`TmRuntime`](crate::TmRuntime). Not retryable: the runtime loop
    /// converts it into [`TmError::ForeignTVar`] (fallible entry points) or
    /// a panic (`run`/`read_only`) instead of restarting the attempt.
    ForeignTVar,
    /// The fault-injection layer (`faults` feature, DESIGN.md §11) forced a
    /// spurious abort at a failpoint. Never produced in default builds;
    /// handled by the retry loop exactly like a conflict abort.
    FaultInjected,
}

impl AbortReason {
    /// True for [`AbortReason::Retry`] — the control-flow variant
    /// [`Tx::or_else`](crate::Tx::or_else) catches and the runtime parks on.
    pub fn is_retry(self) -> bool {
        self == AbortReason::Retry
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbortReason::ReadValidation => "read validation failed",
            AbortReason::CommitValidation => "commit validation failed",
            AbortReason::WriteConflict => "write/write conflict",
            AbortReason::LockTimeout => "lock wait budget exhausted",
            AbortReason::Killed => "killed by contention manager",
            AbortReason::UserRestart => "restart requested by transaction body",
            AbortReason::Retry => "retry: blocked until the read set changes",
            AbortReason::ForeignTVar => "TVar belongs to a different runtime",
            AbortReason::FaultInjected => "spurious abort forced by fault injection",
        };
        f.write_str(s)
    }
}

/// A request to abort and retry the current transaction attempt.
///
/// Carries the reason plus, when known, the variable, the competing thread,
/// and the competing thread's *attempt epoch sampled while the conflict was
/// live*. Schedulers receive this information through
/// [`AttemptEnd::Aborted`](crate::sched::AttemptEnd::Aborted).
///
/// The epoch matters for schedule-after-conflict policies: by the time
/// `on_finish` runs (after rollback and log extraction), a fast enemy may
/// already have committed the conflicting transaction and be deep into its
/// next one. A scheduler that sampled the enemy's epoch *then* would make
/// the victim wait behind the wrong transaction; the conflict-time sample
/// recorded here compares against the attempt that actually won.
///
/// # Examples
///
/// ```
/// use shrink_stm::{Abort, AbortReason};
///
/// let a = Abort::new(AbortReason::WriteConflict);
/// assert_eq!(a.reason(), AbortReason::WriteConflict);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Abort {
    reason: AbortReason,
    var: Option<VarId>,
    enemy: Option<ThreadId>,
    enemy_epoch: Option<u32>,
}

impl Abort {
    /// Creates an abort with no conflict details.
    #[must_use]
    pub fn new(reason: AbortReason) -> Self {
        Abort {
            reason,
            var: None,
            enemy: None,
            enemy_epoch: None,
        }
    }

    /// The control-flow abort raised by [`Tx::retry`](crate::Tx::retry).
    #[must_use]
    pub fn retry() -> Self {
        Abort::new(AbortReason::Retry)
    }

    /// Creates an abort attributed to a conflict on `var` with `enemy`.
    #[must_use]
    pub fn on_conflict(reason: AbortReason, var: VarId, enemy: ThreadId) -> Self {
        Abort {
            reason,
            var: Some(var),
            enemy: Some(enemy),
            enemy_epoch: None,
        }
    }

    /// Attaches the enemy's attempt epoch as sampled while the conflict was
    /// live (i.e. while the enemy still held the contested stripe).
    #[must_use]
    pub fn with_enemy_epoch(mut self, epoch: u32) -> Self {
        self.enemy_epoch = Some(epoch);
        self
    }

    /// The cause of the abort.
    pub fn reason(&self) -> AbortReason {
        self.reason
    }

    /// The variable on which the conflict occurred, if known.
    pub fn var(&self) -> Option<VarId> {
        self.var
    }

    /// The thread this transaction lost against, if known.
    pub fn enemy(&self) -> Option<ThreadId> {
        self.enemy
    }

    /// The enemy's attempt epoch observed at conflict-detection time, if it
    /// was sampled while the conflict was live. `None` means the enemy had
    /// already released the contested stripe by the time the abort was
    /// built (its conflicting attempt is over — there is nothing left to
    /// wait for), or the conflict predates epoch stamping.
    pub fn enemy_epoch(&self) -> Option<u32> {
        self.enemy_epoch
    }
}

impl fmt::Display for Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transaction aborted: {}", self.reason)?;
        if let Some(v) = self.var {
            write!(f, " on {v}")?;
        }
        if let Some(t) = self.enemy {
            write!(f, " against {t}")?;
        }
        if let Some(e) = self.enemy_epoch {
            write!(f, " (enemy epoch {e})")?;
        }
        Ok(())
    }
}

impl Error for Abort {}

/// Result alias used by transaction bodies.
pub type TxResult<T> = Result<T, Abort>;

/// Terminal failures of the bounded transaction entry points
/// ([`run_budgeted`](crate::TmRuntime::run_budgeted),
/// [`read_only_budgeted`](crate::TmRuntime::read_only_budgeted),
/// [`run_with_deadline`](crate::TmRuntime::run_with_deadline)).
///
/// Unlike [`Abort`], which the retry loop consumes internally, a `TmError`
/// reaches the caller: the transaction did not commit and will not be
/// retried.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TmError {
    /// The attempt budget ran out before a commit.
    RetryLimitExceeded {
        /// Number of attempts consumed (equals the budget passed in).
        attempts: u64,
    },
    /// The deadline passed while parked in [`Tx::retry`](crate::Tx::retry)
    /// with no commit changing the read set.
    RetryTimeout {
        /// Time between the first attempt and giving up.
        waited: std::time::Duration,
    },
    /// The body accessed a [`TVar`](crate::TVar) through a runtime other
    /// than the one it is bound to. Cross-runtime sharing would validate
    /// against the wrong orec table and park on the wrong waitlist (lost
    /// wakeups), so it is rejected eagerly with this typed error.
    ForeignTVar {
        /// The variable that was accessed.
        var: VarId,
        /// Id of the runtime the variable is bound to.
        owner: u64,
        /// Id of the runtime the access came through.
        runtime: u64,
    },
}

impl fmt::Display for TmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TmError::RetryLimitExceeded { attempts } => {
                write!(f, "transaction gave up after {attempts} attempts")
            }
            TmError::RetryTimeout { waited } => write!(
                f,
                "transaction timed out after {waited:?}: retry parked with no writer arriving"
            ),
            TmError::ForeignTVar {
                var,
                owner,
                runtime,
            } => write!(
                f,
                "foreign TVar: {var} is bound to runtime {owner} but was accessed through \
                 runtime {runtime}; sharing a TVar across runtimes loses wakeups and \
                 validates against the wrong orec table"
            ),
        }
    }
}

impl Error for TmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_conflict_details() {
        let a = Abort::on_conflict(
            AbortReason::WriteConflict,
            VarId::from_u64(9),
            ThreadId::from_u16(3),
        );
        let s = a.to_string();
        assert!(s.contains("write/write conflict"), "{s}");
        assert!(s.contains("v9"), "{s}");
        assert!(s.contains("t3"), "{s}");
    }

    #[test]
    fn enemy_epoch_is_carried_when_stamped() {
        let base = Abort::on_conflict(
            AbortReason::WriteConflict,
            VarId::from_u64(1),
            ThreadId::from_u16(2),
        );
        assert_eq!(base.enemy_epoch(), None, "unstamped by default");
        let stamped = base.with_enemy_epoch(41);
        assert_eq!(stamped.enemy_epoch(), Some(41));
        assert_eq!(
            stamped.enemy(),
            base.enemy(),
            "stamping changes nothing else"
        );
    }

    #[test]
    fn plain_abort_has_no_details() {
        let a = Abort::new(AbortReason::Killed);
        assert!(a.var().is_none());
        assert!(a.enemy().is_none());
        assert!(a.enemy_epoch().is_none());
        assert_eq!(
            a.to_string(),
            "transaction aborted: killed by contention manager"
        );
    }

    #[test]
    fn abort_is_a_std_error() {
        fn takes_err<E: Error>(_: E) {}
        takes_err(Abort::new(AbortReason::ReadValidation));
    }

    #[test]
    fn retry_is_control_flow_not_a_conflict() {
        let a = Abort::retry();
        assert_eq!(a.reason(), AbortReason::Retry);
        assert!(a.reason().is_retry());
        assert!(!AbortReason::WriteConflict.is_retry());
        assert!(a.var().is_none());
        assert!(a.enemy().is_none());
        assert!(a.to_string().contains("retry"), "{a}");
    }

    #[test]
    fn tm_error_displays_and_is_a_std_error() {
        fn takes_err<E: Error>(_: E) {}
        let limit = TmError::RetryLimitExceeded { attempts: 3 };
        assert!(limit.to_string().contains("3 attempts"), "{limit}");
        let timeout = TmError::RetryTimeout {
            waited: std::time::Duration::from_millis(5),
        };
        assert!(timeout.to_string().contains("timed out"), "{timeout}");
        let foreign = TmError::ForeignTVar {
            var: VarId::from_u64(7),
            owner: 1,
            runtime: 2,
        };
        let s = foreign.to_string();
        assert!(s.contains("v7"), "{s}");
        assert!(s.contains("runtime 1"), "{s}");
        assert!(s.contains("runtime 2"), "{s}");
        takes_err(limit);
    }

    #[test]
    fn new_abort_reasons_display() {
        assert!(Abort::new(AbortReason::ForeignTVar)
            .to_string()
            .contains("different runtime"));
        assert!(Abort::new(AbortReason::FaultInjected)
            .to_string()
            .contains("fault injection"));
        assert!(!AbortReason::ForeignTVar.is_retry());
    }

    #[test]
    fn display_includes_enemy_epoch_when_stamped() {
        let a = Abort::on_conflict(
            AbortReason::WriteConflict,
            VarId::from_u64(1),
            ThreadId::from_u16(2),
        )
        .with_enemy_epoch(17);
        assert!(a.to_string().contains("enemy epoch 17"), "{a}");
    }
}
