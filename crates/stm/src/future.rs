//! Transaction = future: run a transaction as a [`Future`] that suspends
//! instead of parking a thread.
//!
//! [`atomically_async`] is the async sibling of
//! [`atomically`](crate::atomically): the body is the same synchronous
//! `FnMut(&mut Tx)` closure — attempts run to completion *inside*
//! [`poll`](Future::poll), never across an `.await` point — but a
//! [`Tx::retry`] that would park the OS thread instead registers a
//! [`Waker`](std::task::Waker)-backed parker on the per-stripe waitlist and returns
//! [`Poll::Pending`]. The committing writer that would have issued a futex
//! wake delivers the waker at the exact same protocol point, so one commit
//! wakes thread-parked and future-suspended waiters alike (DESIGN.md §12).
//!
//! # Poll / retry state machine
//!
//! `poll` drives the one wait loop's round (in [`select`](crate::select)),
//! at most 16 attempts per poll.
//!
//! ```text
//!            ┌──────────────────────────────────────────────┐
//!            ▼                                              │ epoch moved
//! poll ─► round ─ commit ──► Poll::Ready(value)             │ (deregister)
//!          │  └─ attempts spent ──► yield: wake_by_ref,     │
//!          │                        Poll::Pending           │
//!          │ Tx::retry                                      │
//!          ▼                                                │
//!    register AsyncParker ─ read set changed ─► round       │
//!          │ registered                                     │
//!          ▼                                                │
//!     Poll::Pending ──► re-poll: waker stored, epoch read ──┘
//!                              │ epoch equal
//!                              ▼
//!                        Poll::Pending (spurious poll)
//! ```
//!
//! # Cancellation
//!
//! Dropping a suspended `TxFuture` only deregisters its parker from every
//! watched bucket: no waitlist slot leaks, and no stray wake reaches a dead
//! task. The scheduler hears nothing more. A future suspends only after its
//! attempt rolled back and reported [`AttemptEnd::RetryWait`], which closed
//! the bracket and left every scheduler ready for the thread's next
//! `before_start`. The drop may also run on any thread, even inside another
//! attempt's bracket, so reporting from it would act on scheduler state
//! (a held serialization lock) that belongs to someone else.
//!
//! [`AttemptEnd::RetryWait`]: crate::sched::AttemptEnd::RetryWait
//!
//! # What never happens here
//!
//! * **Blocking in `poll`.** Conflict aborts, and re-runs after a
//!   registration that caught a change, spend the poll's few attempts;
//!   then the task yields (`wake_by_ref` + `Pending`) instead of
//!   backoff-sleeping on an executor thread.
//! * **Timed rounds.** [`TmConfig::retry_wait`](crate::TmConfig::retry_wait)
//!   bounds thread-parked rounds only; a suspended future is purely
//!   wake-driven. A retry with an empty read set therefore pends forever —
//!   the same body bug the thread path only papers over by waking
//!   spuriously every round.

use std::fmt;
use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Context, Poll};

use crate::error::{TmError, TxResult};
use crate::runtime::TmRuntime;
use crate::select::Round;
use crate::txn::Tx;
use crate::waitlist::{register, AsyncParker, Parker};

/// Attempts one `poll` may run before yielding back to the executor.
/// Replaces the thread path's backoff sleep: an executor thread must never
/// block, so heavy contention is spread across polls by re-enqueueing the
/// task instead of spinning it hot.
const ABORTS_PER_POLL: u64 = 16;

/// Where a suspended future is registered, and what must be undone when it
/// resumes or is dropped.
struct Suspension {
    /// Deduplicated waitlist bucket indices holding this future's parker.
    buckets: Vec<usize>,
    /// The parker epoch sampled before registration; an unequal value on
    /// re-poll proves a commit bumped a watched stripe since.
    observed: u32,
}

/// A transaction running as a future — created by [`atomically_async`].
///
/// Completes with the body's `Ok` value once an attempt commits. While the
/// transaction is blocked in [`Tx::retry`] the future is suspended: it
/// holds a registered parker on the retry waitlist and consumes no thread.
///
/// # Panics
///
/// Polling propagates panics from the body and panics on cross-runtime
/// `TVar` access, exactly like [`TmRuntime::run`]. Polling again after the
/// future returned [`Poll::Ready`] panics.
pub struct TxFuture<T, F> {
    rt: TmRuntime,
    body: F,
    /// Created at the first suspension and kept for later ones: a future
    /// that never blocks allocates none.
    parker: Option<Arc<AsyncParker>>,
    suspended: Option<Suspension>,
    done: bool,
    _result: PhantomData<fn() -> T>,
}

/// Runs `body` as a transaction on `rt`, as a future.
///
/// The async spelling of [`atomically`](crate::atomically): the body stays
/// a synchronous `FnMut(&mut Tx)` closure and every attempt runs entirely
/// within one `poll`, but a blocked [`Tx::retry`] suspends the task
/// instead of parking the thread. Tens of thousands of blocked consumers
/// then cost a few hundred bytes each — a registered parker and a stored
/// [`Waker`](std::task::Waker) — rather than an OS thread stack.
///
/// The returned future does nothing until polled. It is `Unpin`, so it can
/// be driven by hand in tests, and `Send` when the body is.
///
/// # Examples
///
/// ```
/// use futures::executor::block_on;
/// use shrink_stm::future::atomically_async;
/// use shrink_stm::{TmRuntime, TVar};
///
/// let rt = TmRuntime::new();
/// let v = TVar::new(41u32);
/// let got = block_on(atomically_async(&rt, |tx| tx.modify(&v, |x| x + 1)));
/// assert_eq!(got, ());
/// assert_eq!(v.snapshot(), 42);
/// ```
pub fn atomically_async<T, F>(rt: &TmRuntime, body: F) -> TxFuture<T, F>
where
    F: FnMut(&mut Tx<'_>) -> TxResult<T>,
{
    TxFuture {
        rt: rt.clone(),
        body,
        parker: None,
        suspended: None,
        done: false,
        _result: PhantomData,
    }
}

// The future owns all its state behind `Arc`s and never self-references;
// hand-rolled polling in tests relies on this.
impl<T, F> Unpin for TxFuture<T, F> {}

impl<T, F> Future for TxFuture<T, F>
where
    F: FnMut(&mut Tx<'_>) -> TxResult<T>,
{
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let this = self.get_mut();
        assert!(!this.done, "TxFuture polled after completion");

        if let Some(susp) = &this.suspended {
            // Lost-wakeup ordering, poll side: store the waker *first*,
            // then read the epoch. The committer bumps the epoch first,
            // then takes the waker — both slot accesses under the parker's
            // mutex — so whichever side runs second sees the other's
            // effect: either we observe the bumped epoch here, or the
            // committer finds our fresh waker and wakes us.
            let parker = this
                .parker
                .as_ref()
                .expect("a suspended future has a parker");
            parker.set_waker(cx.waker());
            if parker.epoch() == susp.observed {
                return Poll::Pending; // spurious poll; still waiting
            }
            // A commit touched a watched stripe: resume. Deregister before
            // re-running so a false alarm re-registers from scratch.
            let parker = Parker::Task(Arc::clone(parker));
            let susp = this.suspended.take().expect("checked above");
            let waitlist = &this.rt.inner.retry_waits;
            waitlist.deregister(&susp.buckets, &parker);
            waitlist.async_woken.fetch_add(1, Ordering::Relaxed);
        }

        // The task side of the one wait loop: no deadline, no backoff,
        // and a budget of `ABORTS_PER_POLL` attempts per poll.
        let mut round = Round::new(ABORTS_PER_POLL, None);
        loop {
            let arm = &mut [(&this.rt, &mut this.body)];
            match round.run(arm, |_, _, _| {}) {
                Ok(Some((_, value))) => {
                    this.done = true;
                    return Poll::Ready(value);
                }
                Ok(None) => {
                    // Deliberate blocking: suspend the task instead of
                    // parking the thread. The scheduler bracket is already
                    // closed — none stays open across Pending.
                    // Waker before registration, epoch before registration:
                    // a commit landing between the epoch sample and the
                    // registration also changed an orec, which the
                    // register-fence-validate protocol catches.
                    let task = this
                        .parker
                        .get_or_insert_with(|| Arc::new(AsyncParker::new()));
                    task.set_waker(cx.waker());
                    let observed = task.epoch();
                    let parker = Parker::Task(Arc::clone(task));
                    let waitlist = &this.rt.inner.retry_waits;
                    if let Some(mut buckets) = register(&round.wait_arms(arm), &parker) {
                        waitlist.async_parks.fetch_add(1, Ordering::Relaxed);
                        this.suspended = Some(Suspension {
                            buckets: buckets.pop().expect("one arm"),
                            observed,
                        });
                        return Poll::Pending;
                    }
                    // The read set already moved: re-run now, within the
                    // same budget.
                    let changed = &waitlist.waits.changed_before_park;
                    changed.fetch_add(1, Ordering::Relaxed);
                }
                Err(TmError::RetryLimitExceeded { .. }) => {
                    // Cooperative backoff: re-enqueue instead of sleeping
                    // on the executor thread.
                    cx.waker().wake_by_ref();
                    return Poll::Pending;
                }
                // `run` panics on a foreign `TVar` too: it is a program
                // bug, not a schedulable condition, and `poll` has no
                // error lane.
                Err(err) => panic!("{err}"),
            }
        }
    }
}

impl<T, F> Drop for TxFuture<T, F> {
    fn drop(&mut self) {
        let (Some(susp), Some(parker)) = (self.suspended.take(), &self.parker) else {
            return;
        };
        // Deregistration removes the parker from every watched bucket
        // (registered-parker counts return to zero, a later commit finds
        // nothing to wake) and clears the stored waker, so even a committer
        // that snapshotted the old bucket list delivers no wake to a dead
        // task. No scheduler hook fires: the `RetryWait` report closed the
        // bracket before `Pending`.
        self.rt
            .inner
            .retry_waits
            .deregister(&susp.buckets, &Parker::Task(Arc::clone(parker)));
    }
}

impl<T, F> fmt::Debug for TxFuture<T, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxFuture")
            .field("runtime", &self.rt.id())
            .field("suspended", &self.suspended.is_some())
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}
