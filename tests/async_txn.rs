//! Async transactions (`atomically_async`, DESIGN.md §12): the poll/retry
//! state machine driven *by hand* with a counting waker, so every edge is
//! deterministic:
//!
//! * **suspension** — a blocked `Tx::retry` registers exactly one parker
//!   and returns `Pending` without waking anyone;
//! * **wake delivery** — the committing writer delivers exactly one wake,
//!   and the next poll resumes and completes;
//! * **cancellation** — dropping a suspended future deregisters its parker
//!   (waiter count back to zero), leaves no stray wake for a later commit,
//!   and fires no scheduler hook — not even from inside another attempt's
//!   serialized bracket on the same thread;
//! * **wake/drop race** — dropping after the wake fired but before the
//!   re-poll still cleans up;
//! * **selective cancellation** — cancelled and surviving futures on the
//!   same bucket don't disturb each other;
//! * **task churn** — more producer and consumer tasks than executor
//!   workers move every item through one small queue;
//! * **yield** — one poll runs at most 16 conflicting attempts, then
//!   re-enqueues the task once;
//! * **foreign `TVar`** — panics out of `poll` and leaves the runtime
//!   usable.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::task::{Context, Poll, Wake, Waker};

use shrink::prelude::*;
use shrink::stm::{AttemptEnd, SchedCtx, VarId};

/// A waker that only counts. `Wake::wake` and `wake_by_ref` both land here,
/// so the count is exactly the number of wake deliveries the waitlist made.
#[derive(Debug, Default)]
struct CountingWaker {
    wakes: AtomicU64,
}

impl CountingWaker {
    fn count(&self) -> u64 {
        self.wakes.load(Ordering::SeqCst)
    }
}

impl Wake for CountingWaker {
    fn wake(self: Arc<Self>) {
        self.wakes.fetch_add(1, Ordering::SeqCst);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.wakes.fetch_add(1, Ordering::SeqCst);
    }
}

/// Scheduler double recording the hooks the async path fires: the
/// retry-wait bracket closed before each suspension, and any `Abandoned`
/// report (a cancellation must deliver none).
#[derive(Debug, Default)]
struct RecordingScheduler {
    retry_waits: AtomicU64,
    resets: AtomicU64,
}

impl TxScheduler for RecordingScheduler {
    fn on_finish(&self, _ctx: &SchedCtx<'_>, end: AttemptEnd<'_>, _r: &[VarId], _w: &[VarId]) {
        let counter = match end {
            AttemptEnd::RetryWait => &self.retry_waits,
            AttemptEnd::Abandoned => &self.resets,
            AttemptEnd::Committed | AttemptEnd::Aborted(_) => return,
        };
        counter.fetch_add(1, Ordering::SeqCst);
    }

    fn name(&self) -> &str {
        "recording-async"
    }
}

/// A future suspended on `gate == 0`, returning the gate value it resumed
/// to. Single TVar → single stripe → exactly one waitlist bucket, so the
/// runtime's registered-waiter count is exact.
fn gate_future(rt: &TmRuntime, gate: &TVar<u64>) -> impl std::future::Future<Output = u64> + Unpin {
    let gate = gate.clone();
    atomically_async(rt, move |tx| {
        let v = tx.read(&gate)?;
        if v == 0 {
            return tx.retry();
        }
        Ok(v)
    })
}

#[test]
fn suspended_future_registers_one_parker_and_resumes_on_commit() {
    let rt = TmRuntime::new();
    let gate = TVar::new(0u64);
    let waker_a = Arc::new(CountingWaker::default());
    let waker = Waker::from(Arc::clone(&waker_a));
    let mut cx = Context::from_waker(&waker);

    let mut fut = gate_future(&rt, &gate);
    assert!(matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Pending));
    assert_eq!(rt.retry_waiters(), 1, "one registered parker");
    assert_eq!(waker_a.count(), 0, "suspension itself wakes nobody");

    // A spurious poll keeps waiting without consuming the registration.
    assert!(matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Pending));
    assert_eq!(rt.retry_waiters(), 1);

    rt.run(|tx| tx.write(&gate, 7));
    assert_eq!(waker_a.count(), 1, "the commit delivers exactly one wake");
    assert!(matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Ready(7)));
    assert_eq!(rt.retry_waiters(), 0, "resume deregisters the parker");

    let stats = rt.retry_stats();
    assert_eq!(stats.async_parks, 1);
    assert_eq!(stats.async_woken, 1);
    assert_eq!(stats.tasks_woken, 1);
    assert_eq!(stats.parked_waits, 0, "no thread ever parked");
}

#[test]
fn dropping_a_suspended_future_deregisters_and_never_wakes() {
    let recorder = Arc::new(RecordingScheduler::default());
    let rt = TmRuntime::builder().scheduler_arc(recorder.clone()).build();
    let gate = TVar::new(0u64);
    let waker_a = Arc::new(CountingWaker::default());
    let waker = Waker::from(Arc::clone(&waker_a));
    let mut cx = Context::from_waker(&waker);

    let mut fut = gate_future(&rt, &gate);
    assert!(matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Pending));
    assert_eq!(rt.retry_waiters(), 1);
    assert_eq!(recorder.retry_waits.load(Ordering::SeqCst), 1);
    assert_eq!(recorder.resets.load(Ordering::SeqCst), 0);

    drop(fut);
    assert_eq!(
        rt.retry_waiters(),
        0,
        "cancellation removes the parker from every bucket"
    );
    assert_eq!(
        recorder.resets.load(Ordering::SeqCst),
        0,
        "the RetryWait report already closed the bracket"
    );

    // A later commit to the watched stripe finds an empty bucket: no wake
    // round is issued at all and the dead task's waker never fires.
    let before = rt.retry_stats();
    rt.run(|tx| tx.write(&gate, 1));
    let after = rt.retry_stats();
    assert_eq!(
        after.wakes_issued, before.wakes_issued,
        "no stray wake round"
    );
    assert_eq!(after.tasks_woken, before.tasks_woken);
    assert_eq!(waker_a.count(), 0, "no wake reaches the dropped future");
}

#[test]
fn dropping_after_the_wake_but_before_the_repoll_still_cleans_up() {
    let rt = TmRuntime::new();
    let gate = TVar::new(0u64);
    let waker_a = Arc::new(CountingWaker::default());
    let waker = Waker::from(Arc::clone(&waker_a));
    let mut cx = Context::from_waker(&waker);

    let mut fut = gate_future(&rt, &gate);
    assert!(matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Pending));
    rt.run(|tx| tx.write(&gate, 1));
    assert_eq!(waker_a.count(), 1, "wake delivered");

    // The wake only hands the task back to its executor; the parker stays
    // registered until the re-poll. Dropping in that window must still
    // deregister it.
    assert_eq!(rt.retry_waiters(), 1);
    drop(fut);
    assert_eq!(rt.retry_waiters(), 0);
}

#[test]
fn cancelled_and_surviving_futures_on_one_bucket_do_not_disturb_each_other() {
    let recorder = Arc::new(RecordingScheduler::default());
    let rt = TmRuntime::builder().scheduler_arc(recorder.clone()).build();
    let gate = TVar::new(0u64);

    let mut futures = Vec::new();
    let mut counters = Vec::new();
    for _ in 0..4 {
        let counter = Arc::new(CountingWaker::default());
        let waker = Waker::from(Arc::clone(&counter));
        let mut fut = gate_future(&rt, &gate);
        let mut cx = Context::from_waker(&waker);
        assert!(matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Pending));
        futures.push(fut);
        counters.push(counter);
    }
    assert_eq!(rt.retry_waiters(), 4);

    // Cancel the last two of the four.
    drop(futures.pop().expect("four futures"));
    drop(futures.pop().expect("three futures"));
    assert_eq!(rt.retry_waiters(), 2);
    assert_eq!(recorder.resets.load(Ordering::SeqCst), 0);

    rt.run(|tx| tx.write(&gate, 9));
    assert_eq!(
        counters[2].count() + counters[3].count(),
        0,
        "cancelled futures stay silent"
    );
    assert_eq!(counters[0].count(), 1);
    assert_eq!(counters[1].count(), 1);

    for mut fut in futures {
        let waker = Waker::from(Arc::new(CountingWaker::default()));
        let mut cx = Context::from_waker(&waker);
        assert!(matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Ready(9)));
    }
    assert_eq!(rt.retry_waiters(), 0);
}

#[test]
fn dropping_a_suspended_future_inside_a_serialized_attempt_keeps_the_lock() {
    let pool = Arc::new(Pool::new());
    let rt = TmRuntime::builder().scheduler_arc(pool.clone()).build();
    let gate = TVar::new(0u64);
    let waker = Waker::from(Arc::new(CountingWaker::default()));
    let mut cx = Context::from_waker(&waker);

    let mut fut = gate_future(&rt, &gate);
    assert!(matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Pending));
    assert_eq!(pool.wait_count(), 0, "a retry wait is not contention");

    // The first attempt restarts, so Pool serializes the second one; the
    // future, suspended by an earlier attempt of this same thread, is
    // dropped while that serialized bracket is open.
    let mut fut = Some(fut);
    let mut first = true;
    let (before, after) = rt.run(|tx| {
        if std::mem::replace(&mut first, false) {
            return tx.restart();
        }
        let before = pool.wait_count();
        drop(fut.take());
        Ok((before, pool.wait_count()))
    });
    assert_eq!(
        (before, after),
        (1, 1),
        "the drop must not release the serialization lock the running attempt holds"
    );
    assert_eq!(pool.wait_count(), 0, "the commit released it");
    assert_eq!(rt.retry_waiters(), 0, "the drop still deregistered");
}

#[test]
fn task_churn_conserves_items_with_more_tasks_than_workers() {
    // 64 tasks on 4 workers over a 4-slot queue: most tasks spend most of
    // their life suspended on the waitlist, the regime async transactions
    // exist for.
    const TASKS: u64 = 32;
    const PER_TASK: u64 = 50;
    let n = TASKS * PER_TASK;
    let rt = TmRuntime::new();
    let queue = Arc::new(TxQueue::<u64>::new(4));
    let pool = futures::executor::ThreadPool::builder()
        .pool_size(4)
        .create()
        .unwrap();
    // Every task reports once: a producer 0, a consumer the sum it popped.
    let (done, reports) = mpsc::channel::<u64>();
    for p in 0..TASKS {
        let (rt, queue, done) = (rt.clone(), Arc::clone(&queue), done.clone());
        pool.spawn_ok(async move {
            // Producer `p` pushes `p·PER_TASK ..`: the values `0..n`, once each.
            for v in p * PER_TASK..(p + 1) * PER_TASK {
                atomically_async(&rt, |tx| queue.push(tx, v)).await;
            }
            done.send(0).unwrap();
        });
    }
    for _ in 0..TASKS {
        let (rt, queue, done) = (rt.clone(), Arc::clone(&queue), done.clone());
        pool.spawn_ok(async move {
            let mut sum = 0;
            for _ in 0..PER_TASK {
                sum += atomically_async(&rt, |tx| queue.pop(tx)).await;
            }
            done.send(sum).unwrap();
        });
    }
    // Only the tasks hold senders now: a task that dies ends the
    // iteration short instead of hanging it.
    drop(done);
    let total: u64 = reports.iter().take(2 * TASKS as usize).sum();
    assert_eq!(total, n * (n - 1) / 2, "every value popped exactly once");

    let stats = rt.retry_stats();
    assert!(
        stats.async_parks >= 1,
        "a 4-slot queue under 64 tasks must have suspended someone: {stats:?}"
    );
    assert_eq!(
        stats.async_parks, stats.async_woken,
        "every suspension resumed (none cancelled): {stats:?}"
    );
    assert_eq!(rt.retry_waiters(), 0, "no parker left registered");
}

#[test]
fn block_on_completes_an_unblocked_future_without_suspending() {
    let rt = TmRuntime::new();
    let v = TVar::new(10u64);
    let got = futures::executor::block_on(atomically_async(&rt, |tx| {
        tx.modify(&v, |x| x * 2)?;
        tx.read(&v)
    }));
    assert_eq!(got, 20);
    assert_eq!(v.snapshot(), 20);
    assert_eq!(rt.retry_stats().async_parks, 0);
}

#[test]
fn conflict_aborts_yield_after_sixteen_attempts_per_poll() {
    let rt = TmRuntime::new();
    let counter = Arc::new(CountingWaker::default());
    let waker = Waker::from(Arc::clone(&counter));
    let mut cx = Context::from_waker(&waker);
    let mut attempts = 0u64;
    let mut fut = atomically_async(&rt, |tx| {
        attempts += 1;
        tx.restart::<()>()
    });
    assert!(std::mem::size_of_val(&fut) <= 64, "a future stays small");
    assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
    drop(fut);
    assert_eq!(attempts, 16, "one poll absorbs exactly 16 conflict aborts");
    assert_eq!(counter.count(), 1, "then re-enqueues itself once");
    assert_eq!(rt.stats().aborts, 16);
    assert_eq!(rt.retry_waiters(), 0, "a yield is not a suspension");
}

#[test]
fn a_polled_foreign_tvar_panics_and_leaves_the_runtime_usable() {
    let owner = TmRuntime::new();
    let rt = TmRuntime::new();
    let foreign = TVar::new(0u64);
    owner.run(|tx| tx.write(&foreign, 1));
    let waker = Waker::from(Arc::new(CountingWaker::default()));
    let mut cx = Context::from_waker(&waker);
    let mut fut = atomically_async(&rt, |tx| tx.read(&foreign));
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = Pin::new(&mut fut).poll(&mut cx);
    }))
    .expect_err("a foreign TVar access must panic out of poll");
    let message = panic
        .downcast_ref::<String>()
        .expect("the panic carries the formatted TmError");
    assert!(message.starts_with("foreign TVar"), "{message}");
    drop(fut);
    let own = TVar::new(5u64);
    assert_eq!(
        rt.run(|tx| tx.modify(&own, |x| x + 1).and_then(|()| tx.read(&own))),
        6
    );
    assert_eq!(rt.retry_waiters(), 0);
}
