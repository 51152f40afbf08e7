//! Process-global runtime registry and cross-runtime blocking select.
//!
//! PR 8 made cross-runtime `TVar` *touch* a typed refusal
//! ([`TmError::ForeignTVar`]): a sharded deployment that accidentally
//! shares a variable fails loud instead of losing wakeups. This module is
//! the *deliberate* counterpart — the ROADMAP's named gap. A thread that
//! must wait for "whichever of these shards changes first" cannot express
//! that with per-runtime [`TmRuntime::run`] calls: each call parks on one
//! runtime's waitlist and is deaf to commits on every other shard.
//!
//! Two pieces close the gap:
//!
//! * a **registry** — every [`TmRuntime`] is published here at build (and
//!   withdrawn when its last handle drops), so shard ids resolve back to
//!   live runtimes ([`lookup_runtime`]);
//! * a **cross-runtime select** ([`retry_select`] /
//!   [`retry_select_deadline`]) — each [`SelectArm`] is an ordinary
//!   transaction body on its own runtime; the select runs every arm until
//!   it either commits (done: that arm's value is returned) or blocks in
//!   [`Tx::retry`], and when *all* arms block it registers **one** parker
//!   on the union of every arm's read-set stripes *across all the involved
//!   runtimes' waitlists*, so a commit on any shard wakes the thread.
//!
//! # Lost-wakeup protocol
//!
//! The park is the single-runtime retry wait with one arm per select arm:
//! the same register → `SeqCst` fence → validate → park → deregister
//! function ([`waitlist`](crate::waitlist) module docs) registers the
//! thread's one parker on every involved runtime's waitlist, validates
//! every arm's plan against its own runtime's orec table, and sleeps. The
//! commit side needs no changes at all: `notify_commit` on any involved
//! runtime advances the select's parker exactly as it would a native
//! waiter. Rounds are booked into [`select_stats`], not into any runtime's
//! `RetryStats`.
//!
//! Each park round is bounded by the smallest `retry_wait` among the arms'
//! configurations — the same safety net single-runtime retries have
//! against waits no commit will ever satisfy.
//!
//! [`TmError::ForeignTVar`]: crate::TmError::ForeignTVar

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

use parking_lot::Mutex;

use crate::error::{TmError, TxResult};
use crate::runtime::{BlockOutcome, RuntimeInner, TmRuntime};
use crate::txn::Tx;
use crate::waitlist::{park_thread, RetryWaitOutcome, WaitArm, WaitCounters};

/// Live runtimes by id. Weak entries: the registry must never keep a
/// runtime alive, only make it findable while someone else does.
static RUNTIMES: Mutex<Option<HashMap<u64, Weak<RuntimeInner>>>> = Mutex::new(None);

static SELECT_ROUNDS: AtomicU64 = AtomicU64::new(0);
static SELECT_WAITS: WaitCounters = WaitCounters::new();

/// Publishes a freshly built runtime. Called by `TmBuilder::build`.
pub(crate) fn register_runtime(inner: &Arc<RuntimeInner>) {
    let mut map = RUNTIMES.lock();
    map.get_or_insert_with(HashMap::new)
        .insert(inner.id, Arc::downgrade(inner));
}

/// Withdraws a dying runtime's entry. Called by `RuntimeInner::drop`.
pub(crate) fn deregister_runtime(id: u64) {
    if let Some(map) = RUNTIMES.lock().as_mut() {
        map.remove(&id);
    }
}

/// Resolves a runtime id — the value [`TmRuntime::id`] returns and
/// [`TmError::ForeignTVar`](crate::TmError::ForeignTVar) reports — back to
/// a live handle, if any handle still exists.
///
/// This is what lets a sharded service route a foreign-access refusal (or
/// a cross-shard protocol step) to the owning shard without threading every
/// runtime handle through every call path.
///
/// # Examples
///
/// ```
/// use shrink_stm::{registry, TmRuntime};
///
/// let rt = TmRuntime::new();
/// let found = registry::lookup_runtime(rt.id()).expect("still alive");
/// assert_eq!(found.id(), rt.id());
/// drop(found);
/// drop(rt);
/// // The last handle is gone: the id no longer resolves.
/// ```
pub fn lookup_runtime(id: u64) -> Option<TmRuntime> {
    let map = RUNTIMES.lock();
    let inner = map.as_ref()?.get(&id)?.upgrade()?;
    Some(TmRuntime { inner })
}

/// Number of live runtimes currently published in the registry.
pub fn registered_runtimes() -> usize {
    RUNTIMES
        .lock()
        .as_ref()
        .map_or(0, |m| m.values().filter(|w| w.strong_count() > 0).count())
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
/// Panics if `arms` is empty, and propagates the
/// [`TmError::ForeignTVar`](crate::TmError::ForeignTVar) panic when an
/// arm's body touches a `TVar` owned by a *different* runtime than the
/// arm's own (binding arms to the right runtimes is exactly the caller's
/// contract).
///
/// # Examples
///
/// Wait for a message on whichever of two shards delivers first:
///
/// ```
/// use shrink_stm::registry::{retry_select, SelectArm};
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
    select_rounds(arms, None).unwrap_or_else(|err| panic!("{err}"))
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
    select_rounds(arms, Some(deadline))
}

fn select_rounds<T>(
    arms: &mut [SelectArm<'_, T>],
    deadline: Option<Instant>,
) -> Result<(usize, T), TmError> {
    assert!(!arms.is_empty(), "retry_select needs at least one arm");
    let started = deadline.map(|_| Instant::now());
    let mut plans: Vec<Vec<(usize, u64)>> = vec![Vec::new(); arms.len()];
    loop {
        SELECT_ROUNDS.fetch_add(1, Ordering::Relaxed);
        for (i, arm) in arms.iter_mut().enumerate() {
            let ctx = arm.rt.current_ctx();
            match arm
                .rt
                .run_until_block(&ctx, &mut 0, u64::MAX, &mut *arm.body)?
            {
                BlockOutcome::Committed(value) => return Ok((i, value)),
                BlockOutcome::Blocked(plan) => plans[i] = plan,
            }
        }
        // Every arm blocked: park one parker across all their waitlists.
        let round = arms
            .iter()
            .map(|arm| arm.rt.config().retry_wait)
            .min()
            .expect("arms is non-empty");
        let bound = Instant::now() + round;
        let bound = deadline.map_or(bound, |d| bound.min(d));
        let wait_arms: Vec<WaitArm<'_>> = arms
            .iter()
            .zip(&plans)
            .map(|(arm, plan)| arm.rt.inner.wait_arm(plan))
            .collect();
        let outcome = park_thread(&wait_arms, bound, &SELECT_WAITS);
        if let Some(d) = deadline {
            // A wake (or a changed plan) earns one more round even at the
            // deadline; only an expired park with nothing new gives up.
            if outcome == RetryWaitOutcome::TimedOut && Instant::now() >= d {
                return Err(TmError::RetryTimeout {
                    waited: started.expect("deadline implies start").elapsed(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tvar::TVar;
    use std::time::Duration;

    #[test]
    fn lookup_resolves_live_runtimes_and_forgets_dead_ones() {
        let rt = TmRuntime::new();
        let id = rt.id();
        let found = lookup_runtime(id).expect("live runtime resolves");
        assert_eq!(found.id(), id);
        // Registry entries are weak: dropping every handle kills the entry.
        drop(found);
        drop(rt);
        assert!(lookup_runtime(id).is_none(), "dead id must not resolve");
    }

    #[test]
    fn lookup_is_usable_as_a_runtime_handle() {
        let rt = TmRuntime::new();
        let v = TVar::new(3u64);
        rt.run(|tx| tx.write(&v, 4));
        let via_registry = lookup_runtime(rt.id()).unwrap();
        let got = via_registry.run(|tx| tx.read(&v));
        assert_eq!(got, 4);
    }

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
