//! The thread-side wait loop and the cross-runtime blocking select built
//! on it.
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
//! [`TmRuntime::run`] and its siblings are the same loop with one arm.
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
use crate::waitlist::{park_thread, RetryWaitOutcome, WaitArm, WaitCounters};

static SELECT_ROUNDS: AtomicU64 = AtomicU64::new(0);
static SELECT_WAITS: WaitCounters = WaitCounters::new();

/// One arm of [`wait_rounds`]: a transaction body bound to the runtime it
/// runs on.
pub(crate) trait Arm<T> {
    /// The runtime the body runs on.
    fn runtime(&self) -> &TmRuntime;
    /// Runs the body once as a read-write attempt on that runtime.
    fn attempt(&mut self, ctx: &ThreadCtx) -> Attempt<T>;
}

/// The one-arm form `run` uses: no boxing, the body stays generic.
impl<T, B: FnMut(&mut Tx<'_>) -> TxResult<T>> Arm<T> for (&TmRuntime, B) {
    #[inline]
    fn runtime(&self) -> &TmRuntime {
        self.0
    }

    #[inline]
    fn attempt(&mut self, ctx: &ThreadCtx) -> Attempt<T> {
        self.0.inner.attempt(ctx, &mut self.1)
    }
}

/// The thread-side wait loop every blocking thread entry point drives.
///
/// Each round runs every arm in order through the attempt step — conflict
/// aborts re-run the arm with the usual backoff, afresh each round — until
/// one arm commits (its index and value are returned) or blocks in
/// [`Tx::retry`]. When every arm has blocked, the thread parks once across
/// all their wait plans, bounded by the smallest `retry_wait` and clamped
/// to `deadline`.
///
/// Each round bumps `rounds`, if given, and each park is booked into
/// `waits`: `run` books into its runtime's `RetryStats` and counts no
/// rounds, a select books both into the process-global [`select_stats`].
///
/// # Errors
///
/// [`TmError::RetryLimitExceeded`] once `max_attempts` attempts (over all
/// arms and rounds) are used; [`TmError::RetryTimeout`] when a park expires
/// past `deadline` with nothing changed — a wake, or a plan that changed
/// before the park, earns one more round even at the deadline; and an
/// arm's [`TmError::ForeignTVar`].
pub(crate) fn wait_rounds<T>(
    arms: &mut [impl Arm<T>],
    max_attempts: u64,
    deadline: Option<Instant>,
    rounds: Option<&AtomicU64>,
    waits: &WaitCounters,
) -> Result<(usize, T), TmError> {
    // Sampled only for deadline-bounded waits, to report `waited`.
    let started = deadline.map(|_| Instant::now());
    let mut attempts: u64 = 0;
    let mut plans: Vec<Vec<(usize, u64)>> = Vec::new();
    loop {
        if let Some(rounds) = rounds {
            rounds.fetch_add(1, Ordering::Relaxed);
        }
        plans.clear();
        for (i, arm) in arms.iter_mut().enumerate() {
            let ctx = arm.runtime().current_ctx();
            // Waking from a park is progress, not an abort storm: each
            // round starts the backoff afresh.
            let mut consecutive_aborts: u32 = 0;
            loop {
                attempts += 1;
                match arm.attempt(&ctx) {
                    Attempt::Committed(value) => return Ok((i, value)),
                    Attempt::Blocked(plan) => {
                        plans.push(plan);
                        break;
                    }
                    Attempt::Fatal(err) => return Err(err),
                    Attempt::Aborted if attempts >= max_attempts => {
                        return Err(TmError::RetryLimitExceeded { attempts });
                    }
                    Attempt::Aborted => {
                        consecutive_aborts += 1;
                        retry_backoff(
                            arm.runtime().config().wait_policy,
                            consecutive_aborts,
                            ctx.id().as_u16() as u64,
                        );
                    }
                }
            }
        }
        if attempts >= max_attempts {
            return Err(TmError::RetryLimitExceeded { attempts });
        }
        // Every arm blocked: park one parker across all their waitlists.
        // Once the deadline passed the park degenerates to one
        // registration-and-revalidate pass.
        let round = arms
            .iter()
            .map(|arm| arm.runtime().config().retry_wait)
            .min()
            .expect("arms is non-empty");
        let bound = Instant::now() + round;
        let bound = deadline.map_or(bound, |d| bound.min(d));
        let wait_arms: Vec<WaitArm<'_>> = arms
            .iter()
            .zip(&plans)
            .map(|(arm, plan)| arm.runtime().inner.wait_arm(plan))
            .collect();
        let outcome = park_thread(&wait_arms, bound, waits);
        if let Some(d) = deadline {
            if outcome == RetryWaitOutcome::TimedOut && Instant::now() >= d {
                return Err(TmError::RetryTimeout {
                    waited: started.expect("deadline implies start").elapsed(),
                });
            }
        }
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

impl<T> Arm<T> for SelectArm<'_, T> {
    fn runtime(&self) -> &TmRuntime {
        &self.rt
    }

    fn attempt(&mut self, ctx: &ThreadCtx) -> Attempt<T> {
        self.rt.inner.attempt(ctx, &mut *self.body)
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
/// not execution — a wake that arrives just before the deadline still gets
/// its re-run, and a running arm is never interrupted.
///
/// # Errors
///
/// Returns [`TmError::RetryTimeout`] when the deadline passed with every
/// arm still blocked, or [`TmError::ForeignTVar`] when an arm's body
/// touched a `TVar` bound to a different runtime than the arm's own.
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
    wait_rounds(
        arms,
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
