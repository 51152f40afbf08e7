//! The one wait loop of every blocking entry point, and the cross-runtime
//! blocking select built on it.
//!
//! Touching a `TVar` from another runtime is a typed refusal
//! ([`TmError::ForeignTVar`]): a sharded deployment that accidentally
//! shares a variable fails loud instead of losing wakeups. This module is
//! the *deliberate* counterpart. A thread that must wait for "whichever of
//! these shards changes first" cannot express that with per-runtime
//! [`TmRuntime::run`] calls: each call parks on one runtime's waitlist and
//! is deaf to commits on every other shard.
//!
//! The **cross-runtime select** ([`retry_select`] /
//! [`retry_select_deadline`]) closes the gap: each [`SelectArm`] is an
//! ordinary transaction body bound to its own runtime; the select runs
//! every arm until one commits (done: that arm's value is returned) or
//! every arm blocks in [`Tx::retry`], and then parks **one** parker on the
//! union of every arm's read-set stripes *across all the involved runtimes'
//! waitlists*, so a commit on any shard wakes the thread.
//!
//! [`TmRuntime::run`] and its siblings are the same loop with one arm, and
//! a [`TxFuture`](crate::future::TxFuture) drives its round as a task.
//!
//! # Lost-wakeup protocol
//!
//! The park is the register → `SeqCst` fence → validate → park →
//! deregister function of the [`waitlist`](crate::waitlist) module docs,
//! with one wait arm per select arm: it registers the thread's one parker
//! on every involved runtime's waitlist, validates every arm's plan
//! against its own runtime's orec table, and sleeps. The commit side needs
//! no changes at all: `notify_commit` on any involved runtime advances the
//! select's parker exactly as it would a native waiter. Select rounds are
//! booked into [`select_stats`], not into any runtime's `RetryStats`;
//! `run`'s rounds go to its runtime's `RetryStats`.
//!
//! Each park round is bounded by the smallest `retry_wait` among the arms'
//! configurations — the safety net against waits no commit will ever
//! satisfy — and clamped to the caller's deadline, if any.
//!
//! [`TmError::ForeignTVar`]: crate::TmError::ForeignTVar

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::backoff::retry_backoff;
use crate::error::{TmError, TxResult};
use crate::runtime::{Attempt, TmRuntime};
use crate::thread::ThreadCtx;
use crate::txn::Tx;
use crate::waitlist::{park_thread, WaitArm, WaitCounters};

static SELECT_ROUNDS: AtomicU64 = AtomicU64::new(0);
static SELECT_WAITS: WaitCounters = WaitCounters::new();

/// The one wait loop over arms, each a body bound to its runtime: the
/// attempt count, budget and deadline its caller keeps across waits.
/// [`run`](Round::run) is the only match on an [`Attempt`]. A thread,
/// through [`wait_rounds`], backs off and parks; a task,
/// [`TxFuture`](crate::future::TxFuture)'s `poll`, yields once its budget
/// of a few attempts per poll is spent, and suspends.
pub(crate) struct Round {
    attempts: u64,
    max_attempts: u64,
    /// The deadline, and when the wait started, to report `waited`.
    deadline: Option<(Instant, Instant)>,
    /// One wait plan per arm, after a pass in which every arm blocked.
    plans: Vec<Vec<(usize, u64)>>,
}

impl Round {
    pub(crate) fn new(max_attempts: u64, deadline: Option<Instant>) -> Self {
        Round {
            attempts: 0,
            max_attempts,
            deadline: deadline.map(|deadline| (deadline, Instant::now())),
            plans: Vec::new(),
        }
    }

    /// Runs the arms in order through the attempt step until one commits
    /// (its index and value are returned) or every arm blocks in
    /// [`Tx::retry`] (`None`: wait on [`wait_arms`](Round::wait_arms), then
    /// run again). After each conflict abort it calls `on_abort` with the
    /// arm's runtime, the thread's context and the arm's consecutive aborts.
    ///
    /// # Errors
    ///
    /// [`TmError::RetryLimitExceeded`] once `max_attempts` attempts (over
    /// all arms and rounds) are used; [`TmError::RetryTimeout`] when every
    /// arm blocked past the deadline — checked only here, before each wait,
    /// so a wake before the deadline earns one more round, and only one;
    /// and an arm's [`TmError::ForeignTVar`].
    pub(crate) fn run<T, B: FnMut(&mut Tx<'_>) -> TxResult<T>>(
        &mut self,
        arms: &mut [(&TmRuntime, B)],
        mut on_abort: impl FnMut(&TmRuntime, &ThreadCtx, u32),
    ) -> Result<Option<(usize, T)>, TmError> {
        self.plans.clear();
        'arms: for (i, (rt, body)) in arms.iter_mut().enumerate() {
            let ctx = rt.current_ctx();
            // Waking from a wait is progress, not an abort storm: each
            // round counts the aborts afresh.
            let mut consecutive_aborts: u32 = 0;
            loop {
                self.attempts += 1;
                match rt.inner.attempt(&ctx, &mut *body) {
                    Attempt::Committed(value) => return Ok(Some((i, value))),
                    Attempt::Blocked(plan) => break self.plans.push(plan),
                    Attempt::Fatal(err) => return Err(err),
                    Attempt::Aborted if self.attempts >= self.max_attempts => break 'arms,
                    Attempt::Aborted => {
                        consecutive_aborts += 1;
                        on_abort(rt, &ctx, consecutive_aborts);
                    }
                }
            }
        }
        if self.attempts >= self.max_attempts {
            return Err(TmError::RetryLimitExceeded {
                attempts: self.attempts,
            });
        }
        match self.deadline {
            Some((deadline, started)) if Instant::now() >= deadline => {
                let waited = started.elapsed();
                Err(TmError::RetryTimeout { waited })
            }
            _ => Ok(None),
        }
    }

    /// One wait arm per arm: its runtime's waitlist and orec table, and the
    /// plan of the round that blocked.
    pub(crate) fn wait_arms<'a, B>(&'a self, arms: &'a [(&TmRuntime, B)]) -> Vec<WaitArm<'a>> {
        let arms = arms.iter().map(|(rt, _)| &rt.inner);
        arms.zip(&self.plans)
            .map(|(inner, plan)| WaitArm {
                waitlist: &inner.retry_waits,
                orecs: &inner.orecs,
                plan,
            })
            .collect()
    }
}

/// The thread side of the one wait loop, behind every blocking thread
/// entry point, failing as [`Round::run`] does: conflict aborts back off,
/// and when every arm has blocked the thread parks once across all their
/// wait plans, bounded by the smallest `retry_wait` and clamped to
/// `deadline`.
///
/// Each round bumps `rounds`, if given, and each park is booked into
/// `waits`: `run` books into its runtime's `RetryStats` and counts no
/// rounds, a select books both into the process-global [`select_stats`].
pub(crate) fn wait_rounds<T, B: FnMut(&mut Tx<'_>) -> TxResult<T>>(
    arms: &mut [(&TmRuntime, B)],
    max_attempts: u64,
    deadline: Option<Instant>,
    rounds: Option<&AtomicU64>,
    waits: &WaitCounters,
) -> Result<(usize, T), TmError> {
    let mut round = Round::new(max_attempts, deadline);
    loop {
        if let Some(rounds) = rounds {
            rounds.fetch_add(1, Ordering::Relaxed);
        }
        let backoff = |rt: &TmRuntime, ctx: &ThreadCtx, aborts| {
            retry_backoff(rt.config().wait_policy, aborts, ctx.id().as_u16() as u64);
        };
        if let Some(won) = round.run(arms, backoff)? {
            return Ok(won);
        }
        let retry_wait = arms
            .iter()
            .map(|(rt, _)| rt.config().retry_wait)
            .min()
            .expect("arms is non-empty");
        let bound = Instant::now() + retry_wait;
        let bound = deadline.map_or(bound, |d| bound.min(d));
        park_thread(&round.wait_arms(arms), bound, waits);
    }
}

/// Wait-op counters of the cross-runtime select path, process-global
/// (selects span runtimes, so no single runtime can own them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelectStats {
    /// Select rounds driven (every arm ran once per round).
    pub rounds: u64,
    /// Rounds that actually parked the thread across the arms' waitlists.
    pub parked: u64,
    /// Parked rounds ended by some shard's commit-side wake.
    pub woken: u64,
    /// Rounds where validation caught a changed stripe before any sleep.
    pub changed_before_park: u64,
    /// Parked rounds that expired with every arm's snapshot unchanged.
    pub timed_out: u64,
}

/// Snapshot of the process-global select counters.
pub fn select_stats() -> SelectStats {
    SelectStats {
        rounds: SELECT_ROUNDS.load(Ordering::Relaxed),
        parked: SELECT_WAITS.parked.load(Ordering::Relaxed),
        woken: SELECT_WAITS.woken.load(Ordering::Relaxed),
        changed_before_park: SELECT_WAITS.changed_before_park.load(Ordering::Relaxed),
        timed_out: SELECT_WAITS.timed_out.load(Ordering::Relaxed),
    }
}

/// One alternative of a cross-runtime select: a transaction body bound to
/// the runtime it must run on.
///
/// The body has ordinary [`Tx`] semantics — it may read, write, and call
/// [`Tx::retry`] when its predicate does not hold. Arms on the *same*
/// runtime are allowed (then the select degenerates to a multi-branch
/// [`Tx::or_else`] with per-arm commit granularity).
pub struct SelectArm<'a, T> {
    rt: TmRuntime,
    body: ArmBody<'a, T>,
}

/// A boxed select-arm transaction body.
type ArmBody<'a, T> = Box<dyn FnMut(&mut Tx<'_>) -> TxResult<T> + 'a>;

impl<'a, T> SelectArm<'a, T> {
    /// Binds `body` to `rt` as one select alternative.
    pub fn new(rt: &TmRuntime, body: impl FnMut(&mut Tx<'_>) -> TxResult<T> + 'a) -> Self {
        SelectArm {
            rt: rt.clone(),
            body: Box::new(body),
        }
    }
}

impl<T> fmt::Debug for SelectArm<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SelectArm")
            .field("runtime", &self.rt.id())
            .finish_non_exhaustive()
    }
}

/// Runs `arms` until one commits, parking across **all** the involved
/// runtimes' waitlists whenever every arm blocks in [`Tx::retry`]. Returns
/// the winning arm's index and value.
///
/// Arms are polled in order each round, so earlier arms win ties — a
/// priority select, like `or_else` chains.
///
/// # Panics
///
/// Panics if `arms` is empty, and propagates the [`TmError::ForeignTVar`]
/// panic when an arm's body touches a `TVar` owned by a *different* runtime than the
/// arm's own (binding arms to the right runtimes is exactly the caller's
/// contract).
///
/// # Examples
///
/// Wait for a message on whichever of two shards delivers first:
///
/// ```
/// use shrink_stm::select::{retry_select, SelectArm};
/// use shrink_stm::{TmRuntime, TVar};
///
/// let shard_a = TmRuntime::new();
/// let shard_b = TmRuntime::new();
/// let inbox_a: TVar<Option<u32>> = TVar::new(None);
/// let inbox_b: TVar<Option<u32>> = TVar::new(Some(7));
///
/// let (winner, value) = retry_select(&mut [
///     SelectArm::new(&shard_a, |tx| match tx.read(&inbox_a)? {
///         Some(v) => Ok(v),
///         None => tx.retry(),
///     }),
///     SelectArm::new(&shard_b, |tx| match tx.read(&inbox_b)? {
///         Some(v) => Ok(v),
///         None => tx.retry(),
///     }),
/// ]);
/// assert_eq!((winner, value), (1, 7));
/// ```
pub fn retry_select<T>(arms: &mut [SelectArm<'_, T>]) -> (usize, T) {
    // Without a deadline the only error left is the foreign `TVar`.
    retry_select_until(arms, None).unwrap_or_else(|err| panic!("{err}"))
}

/// [`retry_select`] with a blocking bound: once `deadline` passes while
/// every arm is blocked, gives up instead of parking again.
///
/// Like [`TmRuntime::run_with_deadline`], the deadline bounds *blocking*,
/// not execution: a running arm is never interrupted.
///
/// # Errors
///
/// Returns [`TmError::RetryTimeout`] when every arm blocked with the
/// deadline passed: the deadline is checked before each park, so a wake
/// that arrives before the deadline earns one more round, and only one.
/// Returns [`TmError::ForeignTVar`] when an arm's body touched a `TVar`
/// bound to a different runtime than the arm's own.
pub fn retry_select_deadline<T>(
    arms: &mut [SelectArm<'_, T>],
    deadline: Instant,
) -> Result<(usize, T), TmError> {
    retry_select_until(arms, Some(deadline))
}

fn retry_select_until<T>(
    arms: &mut [SelectArm<'_, T>],
    deadline: Option<Instant>,
) -> Result<(usize, T), TmError> {
    assert!(!arms.is_empty(), "retry_select needs at least one arm");
    let mut arms: Vec<_> = arms
        .iter_mut()
        .map(|arm| (&arm.rt, &mut arm.body))
        .collect();
    wait_rounds(
        &mut arms,
        u64::MAX,
        deadline,
        Some(&SELECT_ROUNDS),
        &SELECT_WAITS,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tvar::TVar;
    use std::time::Duration;

    #[test]
    fn select_returns_the_already_ready_arm() {
        let a = TmRuntime::new();
        let b = TmRuntime::new();
        let va: TVar<Option<u32>> = TVar::new(None);
        let vb: TVar<Option<u32>> = TVar::new(Some(9));
        let (winner, value) = retry_select(&mut [
            SelectArm::new(&a, |tx| match tx.read(&va)? {
                Some(v) => Ok(v),
                None => tx.retry(),
            }),
            SelectArm::new(&b, |tx| match tx.read(&vb)? {
                Some(v) => Ok(v),
                None => tx.retry(),
            }),
        ]);
        assert_eq!((winner, value), (1, 9));
        // Nothing parked and no residue on either waitlist.
        assert_eq!(a.retry_waiters(), 0);
        assert_eq!(b.retry_waiters(), 0);
    }

    #[test]
    fn earlier_arms_win_ties() {
        let a = TmRuntime::new();
        let b = TmRuntime::new();
        let va = TVar::new(1u32);
        let vb = TVar::new(2u32);
        let (winner, value) = retry_select(&mut [
            SelectArm::new(&a, |tx| tx.read(&va)),
            SelectArm::new(&b, |tx| tx.read(&vb)),
        ]);
        assert_eq!((winner, value), (0, 1));
    }

    #[test]
    fn a_commit_on_either_runtime_wakes_a_parked_select() {
        let a = TmRuntime::new();
        let b = TmRuntime::new();
        let va: TVar<Option<u32>> = TVar::new(None);
        let vb: TVar<Option<u32>> = TVar::new(None);
        let selector = {
            let (a, b) = (a.clone(), b.clone());
            let (va, vb) = (va.clone(), vb.clone());
            std::thread::spawn(move || {
                retry_select(&mut [
                    SelectArm::new(&a, |tx| match tx.read(&va)? {
                        Some(v) => Ok(v),
                        None => tx.retry(),
                    }),
                    SelectArm::new(&b, |tx| match tx.read(&vb)? {
                        Some(v) => Ok(v),
                        None => tx.retry(),
                    }),
                ])
            })
        };
        // Deterministic handshake: the parker is registered on *both*
        // runtimes' waitlists before the producer commits on the second.
        while a.retry_waiters() == 0 || b.retry_waiters() == 0 {
            std::thread::yield_now();
        }
        b.run(|tx| tx.write(&vb, Some(42)));
        assert_eq!(selector.join().unwrap(), (1, 42));
        assert_eq!(a.retry_waiters(), 0, "deregistered from the loser too");
        assert_eq!(b.retry_waiters(), 0);
        assert!(select_stats().woken >= 1, "the park was wake-ended");
        // Select parks are booked into the select counters, never into
        // either runtime's own wait counters.
        assert_eq!(a.retry_stats().parked_waits, 0);
        assert_eq!(b.retry_stats().parked_waits, 0);
    }

    #[test]
    fn deadline_select_times_out_when_nothing_commits() {
        let a = TmRuntime::new();
        let b = TmRuntime::new();
        let va: TVar<Option<u32>> = TVar::new(None);
        let vb: TVar<Option<u32>> = TVar::new(None);
        let start = Instant::now();
        let got = retry_select_deadline(
            &mut [
                SelectArm::new(&a, |tx| match tx.read(&va)? {
                    Some(v) => Ok(v),
                    None => tx.retry(),
                }),
                SelectArm::new(&b, |tx| match tx.read(&vb)? {
                    Some(v) => Ok(v),
                    None => tx.retry(),
                }),
            ],
            start + Duration::from_millis(50),
        );
        match got {
            Err(TmError::RetryTimeout { waited }) => {
                assert!(waited >= Duration::from_millis(50));
            }
            other => panic!("expected RetryTimeout, got {other:?}"),
        }
        assert_eq!(a.retry_waiters(), 0);
        assert_eq!(b.retry_waiters(), 0);
    }

    #[test]
    fn select_arms_may_write_on_their_own_runtimes() {
        // The winning arm is a full read-write transaction: its commit is
        // durable, and the losing arm's attempts left no trace.
        let a = TmRuntime::new();
        let b = TmRuntime::new();
        let gate: TVar<bool> = TVar::new(true);
        let out_a = TVar::new(0u32);
        let out_b = TVar::new(0u32);
        let (winner, ()) = retry_select(&mut [
            SelectArm::new(&a, |tx| {
                if tx.read(&gate)? {
                    tx.write(&out_a, 1)
                } else {
                    tx.retry()
                }
            }),
            SelectArm::new(&b, |tx| tx.write(&out_b, 2)),
        ]);
        assert_eq!(winner, 0);
        assert_eq!(out_a.snapshot(), 1);
        assert_eq!(out_b.snapshot(), 0, "the losing arm must not commit");
    }
}
