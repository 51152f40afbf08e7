//! Blocking transactional queues: the workloads `retry`/`or_else` unlock.
//!
//! [`TxQueue`] is a bounded multi-producer/multi-consumer FIFO built
//! entirely from `TVar`s: [`push`](TxQueue::push) blocks (via
//! [`Tx::retry`]) while the queue is full, [`pop`](TxQueue::pop) while it
//! is empty, and the `try_*` variants are *compositions* —
//! `or_else(pop, return None)` — rather than separate implementations,
//! which is the point of composable blocking: one blocking primitive, every
//! polling/timeout/alternative flavour derived from it (DESIGN.md §9).
//!
//! [`AsyncQueueChurn`] is a producers-versus-consumers MPMC churn over one
//! queue with **tasks instead of threads**: every producer and consumer is
//! a plain future composed from [`atomically_async`], so a blocked `pop`
//! suspends its task on the retry waitlist rather than parking an OS
//! thread. The queue type is untouched —
//! transaction bodies stay synchronous closures — which is the whole point
//! of the pluggable-parker refactor (DESIGN.md §12). The churn is
//! executor-agnostic: it hands out boxed tasks and the caller spawns them
//! (`bench_async` uses the vendored `futures::executor::ThreadPool`).
//!
//! [`Tx::retry`]: shrink_stm::Tx::retry

use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::EventCount;
use shrink_stm::future::atomically_async;
use shrink_stm::{TVar, TmRuntime, Tx, TxResult, TxValue};

/// A bounded, blocking, transactional MPMC FIFO queue.
///
/// All operations are transactional methods taking a [`Tx`]: they compose
/// with any other transactional work — move an item between two queues
/// atomically, pop-and-update an account in one transaction, wrap a `pop`
/// in [`Tx::or_else`] for a non-blocking variant.
///
/// # Examples
///
/// ```
/// use shrink_stm::{atomically, TmRuntime};
/// use shrink_workloads::TxQueue;
///
/// let rt = TmRuntime::new();
/// let q: TxQueue<u32> = TxQueue::new(4);
/// atomically(&rt, |tx| q.push(tx, 7));
/// let got = atomically(&rt, |tx| q.pop(tx));
/// assert_eq!(got, 7);
/// ```
pub struct TxQueue<T: TxValue> {
    slots: Vec<TVar<Option<T>>>,
    /// Index of the next element to pop (monotonic; slot = `head % cap`).
    head: TVar<u64>,
    /// Index of the next free slot to push into (monotonic).
    tail: TVar<u64>,
}

impl<T: TxValue> TxQueue<T> {
    /// Creates an empty queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity queue can never accept");
        TxQueue {
            slots: (0..capacity).map(|_| TVar::new(None)).collect(),
            head: TVar::new(0),
            tail: TVar::new(0),
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of items currently queued, within this transaction's
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Aborts propagate from the underlying reads.
    pub fn len(&self, tx: &mut Tx<'_>) -> TxResult<usize> {
        let head = tx.read(&self.head)?;
        let tail = tx.read(&self.tail)?;
        Ok((tail - head) as usize)
    }

    /// True when the queue holds nothing, within this transaction's
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Aborts propagate from the underlying reads.
    pub fn is_empty(&self, tx: &mut Tx<'_>) -> TxResult<bool> {
        Ok(self.len(tx)? == 0)
    }

    /// Enqueues `item`, **blocking** (via [`Tx::retry`]) while the queue is
    /// full: the transaction parks until a consumer's commit frees a slot.
    ///
    /// # Errors
    ///
    /// [`AbortReason::Retry`](shrink_stm::AbortReason::Retry) when full
    /// (caught by an enclosing [`Tx::or_else`], or parked by the runtime);
    /// other aborts propagate from the underlying reads and writes.
    pub fn push(&self, tx: &mut Tx<'_>, item: T) -> TxResult<()> {
        let head = tx.read(&self.head)?;
        let tail = tx.read(&self.tail)?;
        if (tail - head) as usize == self.slots.len() {
            return tx.retry();
        }
        tx.write(&self.slots[tail as usize % self.slots.len()], Some(item))?;
        tx.write(&self.tail, tail + 1)
    }

    /// Dequeues the oldest item, **blocking** (via [`Tx::retry`]) while the
    /// queue is empty: the transaction parks until a producer's commit
    /// fills a slot.
    ///
    /// # Errors
    ///
    /// [`AbortReason::Retry`](shrink_stm::AbortReason::Retry) when empty;
    /// other aborts propagate from the underlying reads and writes.
    pub fn pop(&self, tx: &mut Tx<'_>) -> TxResult<T> {
        let head = tx.read(&self.head)?;
        let tail = tx.read(&self.tail)?;
        if head == tail {
            return tx.retry();
        }
        let slot = &self.slots[head as usize % self.slots.len()];
        let item = tx.read(slot)?.expect("occupied slot holds a value");
        tx.write(slot, None)?;
        tx.write(&self.head, head + 1)?;
        Ok(item)
    }

    /// Non-blocking push, derived from the blocking one by composition:
    /// `or_else(push, return false)`.
    ///
    /// # Errors
    ///
    /// Aborts propagate from the underlying operations; a full queue is
    /// `Ok(false)`, not an error.
    pub fn try_push(&self, tx: &mut Tx<'_>, item: T) -> TxResult<bool> {
        tx.or_else(
            |tx| self.push(tx, item.clone()).map(|()| true),
            |_tx| Ok(false),
        )
    }

    /// Non-blocking pop, derived from the blocking one by composition:
    /// `or_else(pop, return None)`.
    ///
    /// # Errors
    ///
    /// Aborts propagate from the underlying operations; an empty queue is
    /// `Ok(None)`, not an error.
    pub fn try_pop(&self, tx: &mut Tx<'_>) -> TxResult<Option<T>> {
        tx.or_else(|tx| self.pop(tx).map(Some), |_tx| Ok(None))
    }

    /// Pops from `self`, falling back to `other` when `self` is empty, and
    /// blocking only when **both** are — `or_else` composing two blocking
    /// pops, parked on the union of both queues' read sets.
    ///
    /// # Errors
    ///
    /// [`AbortReason::Retry`](shrink_stm::AbortReason::Retry) when both
    /// queues are empty; other aborts propagate.
    pub fn pop_either(&self, tx: &mut Tx<'_>, other: &TxQueue<T>) -> TxResult<T> {
        tx.or_else(|tx| self.pop(tx), |tx| other.pop(tx))
    }

    /// Sum of all queued items outside any transaction (single-variable
    /// atomicity only, like [`TVar::snapshot`]) — for post-run conservation
    /// audits once the workers have been joined.
    pub fn drain_snapshot(&self) -> Vec<T> {
        let head = self.head.snapshot();
        let tail = self.tail.snapshot();
        (head..tail)
            .map(|i| {
                self.slots[i as usize % self.slots.len()]
                    .snapshot()
                    .expect("occupied slot holds a value")
            })
            .collect()
    }
}

impl<T: TxValue> fmt::Debug for TxQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxQueue")
            .field("capacity", &self.slots.len())
            .finish()
    }
}

/// A boxed task produced by [`AsyncQueueChurn`]: spawn it on any executor.
pub type ChurnTask = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// The MPMC queue churn as **futures**: N producer tasks push a fixed
/// number of items each, M consumer tasks pop fixed quotas summing to the
/// total, and a blocked `pop`/`push` suspends its task (no thread parks).
///
/// Logical concurrency is decoupled from OS threads: ten thousand consumer
/// tasks run fine on an 8-worker pool, because a consumer waiting on an
/// empty queue costs a registered parker, not a stack. Conservation is
/// audited by [`verify`](AsyncQueueChurn::verify): everything produced is
/// consumed, by count and by value sum (consumers drain the queue completely — quotas
/// cover the full production).
///
/// # Examples
///
/// ```
/// use futures::executor::ThreadPool;
/// use shrink_stm::TmRuntime;
/// use shrink_workloads::AsyncQueueChurn;
///
/// let rt = TmRuntime::new();
/// let pool = ThreadPool::builder().pool_size(4).create().unwrap();
/// let churn = AsyncQueueChurn::new(8, 4, 16, 100);
/// for task in churn.tasks(&rt) {
///     pool.spawn_ok(task);
/// }
/// churn.wait_finished();
/// churn.verify().unwrap();
/// ```
pub struct AsyncQueueChurn {
    queue: Arc<TxQueue<u64>>,
    producers: usize,
    consumers: usize,
    items_per_producer: u64,
    produced: AtomicU64,
    produced_sum: AtomicU64,
    consumed: AtomicU64,
    consumed_sum: AtomicU64,
    /// Tasks (producer and consumer) that ran to completion.
    finished: AtomicU64,
    /// Advanced once per task completion; [`wait_finished`] parks on it.
    ///
    /// [`wait_finished`]: AsyncQueueChurn::wait_finished
    done: EventCount,
}

impl AsyncQueueChurn {
    /// Creates a churn over a fresh queue of `capacity`: `producers` tasks
    /// pushing `items_per_producer` items each, `consumers` tasks popping
    /// quotas that exactly cover the total.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    #[must_use]
    pub fn new(
        capacity: usize,
        producers: usize,
        consumers: usize,
        items_per_producer: u64,
    ) -> Arc<Self> {
        assert!(producers > 0 && consumers > 0 && items_per_producer > 0);
        Arc::new(AsyncQueueChurn {
            queue: Arc::new(TxQueue::new(capacity)),
            producers,
            consumers,
            items_per_producer,
            produced: AtomicU64::new(0),
            produced_sum: AtomicU64::new(0),
            consumed: AtomicU64::new(0),
            consumed_sum: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            done: EventCount::new(),
        })
    }

    /// Total tasks the churn consists of.
    pub fn task_count(&self) -> u64 {
        (self.producers + self.consumers) as u64
    }

    /// Items moved end to end so far (consumer side).
    pub fn items_moved(&self) -> u64 {
        self.consumed.load(Ordering::Relaxed)
    }

    /// Builds every producer and consumer task, ready to spawn. Each task
    /// is an ordinary future: a loop of `atomically_async(..).await`
    /// transactions, suspending wherever the thread version would park.
    pub fn tasks(self: &Arc<Self>, rt: &TmRuntime) -> Vec<ChurnTask> {
        let total = self.producers as u64 * self.items_per_producer;
        let base_quota = total / self.consumers as u64;
        let remainder = total % self.consumers as u64;
        let mut tasks: Vec<ChurnTask> = Vec::with_capacity(self.producers + self.consumers);
        for p in 0..self.producers {
            tasks.push(Box::pin(Arc::clone(self).produce(rt.clone(), p as u64)));
        }
        for c in 0..self.consumers {
            // Spread the remainder over the first `remainder` consumers.
            let quota = base_quota + u64::from((c as u64) < remainder);
            tasks.push(Box::pin(Arc::clone(self).consume(rt.clone(), quota)));
        }
        tasks
    }

    async fn produce(self: Arc<Self>, rt: TmRuntime, seed: u64) {
        // Deterministic per-producer value stream (splitmix-style), so the
        // value-sum audit catches duplicated or invented items.
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        for _ in 0..self.items_per_producer {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = s >> 33;
            let queue = Arc::clone(&self.queue);
            atomically_async(&rt, move |tx| queue.push(tx, v)).await;
            self.produced.fetch_add(1, Ordering::Relaxed);
            self.produced_sum.fetch_add(v, Ordering::Relaxed);
        }
        self.finish_task();
    }

    async fn consume(self: Arc<Self>, rt: TmRuntime, quota: u64) {
        for _ in 0..quota {
            let queue = Arc::clone(&self.queue);
            let v = atomically_async(&rt, move |tx| queue.pop(tx)).await;
            self.consumed.fetch_add(1, Ordering::Relaxed);
            self.consumed_sum.fetch_add(v, Ordering::Relaxed);
        }
        self.finish_task();
    }

    fn finish_task(&self) {
        self.finished.fetch_add(1, Ordering::Release);
        self.done.advance();
    }

    /// Parks the calling thread until every task has finished. The churn
    /// deadlocks only if tasks were dropped unrun (quotas then never
    /// complete) — spawn everything [`tasks`](AsyncQueueChurn::tasks)
    /// returned before waiting.
    pub fn wait_finished(&self) {
        loop {
            let observed = self.done.version();
            if self.finished.load(Ordering::Acquire) >= self.task_count() {
                return;
            }
            self.done.wait_while_eq(observed, None);
        }
    }

    /// Post-run conservation audit: every produced item consumed (the
    /// quotas drain the queue), counts and value sums matching.
    ///
    /// # Errors
    ///
    /// A message describing the lost or invented items.
    pub fn verify(&self) -> Result<(), String> {
        let produced = self.produced.load(Ordering::Relaxed);
        let consumed = self.consumed.load(Ordering::Relaxed);
        let expected = self.producers as u64 * self.items_per_producer;
        if produced != expected || consumed != expected {
            return Err(format!(
                "async churn lost items: produced {produced}, consumed {consumed}, \
                 expected {expected}"
            ));
        }
        let produced_sum = self.produced_sum.load(Ordering::Relaxed);
        let consumed_sum = self.consumed_sum.load(Ordering::Relaxed);
        if produced_sum != consumed_sum {
            return Err(format!(
                "async churn transferred wrong values: consumed sum {consumed_sum} \
                 != produced sum {produced_sum}"
            ));
        }
        let residue = self.queue.drain_snapshot();
        if !residue.is_empty() {
            return Err(format!("{} items still queued after drain", residue.len()));
        }
        Ok(())
    }
}

impl fmt::Debug for AsyncQueueChurn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsyncQueueChurn")
            .field("capacity", &self.queue.capacity())
            .field("producers", &self.producers)
            .field("consumers", &self.consumers)
            .field("moved", &self.items_moved())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrink_stm::atomically;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_thread() {
        let rt = TmRuntime::new();
        let q = TxQueue::new(3);
        for i in 0..3u64 {
            atomically(&rt, |tx| q.push(tx, i));
        }
        for i in 0..3u64 {
            assert_eq!(atomically(&rt, |tx| q.pop(tx)), i);
        }
    }

    #[test]
    fn try_variants_compose_from_blocking_ones() {
        let rt = TmRuntime::new();
        let q: TxQueue<u64> = TxQueue::new(1);
        assert_eq!(atomically(&rt, |tx| q.try_pop(tx)), None);
        assert!(atomically(&rt, |tx| q.try_push(tx, 1)));
        assert!(!atomically(&rt, |tx| q.try_push(tx, 2)), "full: refused");
        assert_eq!(atomically(&rt, |tx| q.try_pop(tx)), Some(1));
        assert_eq!(rt.stats().retry_waits, 0, "or_else absorbed every retry");
        assert_eq!(atomically(&rt, |tx| q.len(tx)), 0);
        assert!(atomically(&rt, |tx| q.is_empty(tx)));
    }

    #[test]
    fn a_retried_branch_leaks_no_slot_writes() {
        // The nasty checkpoint shape: a branch that *did* write the slot
        // and tail, and only then retried (here via a composed predicate).
        // The fallback must observe the queue exactly as before the branch.
        let rt = TmRuntime::new();
        let q: TxQueue<u64> = TxQueue::new(2);
        atomically(&rt, |tx| q.push(tx, 10));
        // Compose: push, then require the queue be empty (it is not) —
        // branch retries after writing, fallback sees pristine state.
        let len = rt.run(|tx| {
            tx.or_else(
                |tx| {
                    q.push(tx, 99)?;
                    tx.retry()
                },
                |tx| q.len(tx),
            )
        });
        assert_eq!(len, 1, "the retried branch's push must not leak");
        assert_eq!(atomically(&rt, |tx| q.pop(tx)), 10);
        assert_eq!(atomically(&rt, |tx| q.try_pop(tx)), None);
    }

    #[test]
    fn pop_either_prefers_first_then_falls_back() {
        let rt = TmRuntime::new();
        let a: TxQueue<u64> = TxQueue::new(2);
        let b: TxQueue<u64> = TxQueue::new(2);
        atomically(&rt, |tx| b.push(tx, 5));
        assert_eq!(atomically(&rt, |tx| a.pop_either(tx, &b)), 5);
        atomically(&rt, |tx| a.push(tx, 1));
        atomically(&rt, |tx| b.push(tx, 2));
        assert_eq!(atomically(&rt, |tx| a.pop_either(tx, &b)), 1);
    }

    #[test]
    fn blocking_pop_is_woken_by_a_push() {
        let rt = TmRuntime::new();
        let q: Arc<TxQueue<u64>> = Arc::new(TxQueue::new(4));
        let consumer = {
            let rt = rt.clone();
            let q = Arc::clone(&q);
            std::thread::spawn(move || atomically(&rt, |tx| q.pop(tx)))
        };
        while rt.retry_stats().parked_waits == 0 {
            std::thread::yield_now();
        }
        atomically(&rt, |tx| q.push(tx, 77));
        assert_eq!(consumer.join().unwrap(), 77);
        assert!(rt.retry_stats().woken >= 1, "{:?}", rt.retry_stats());
    }

    #[test]
    fn async_churn_conserves_items_with_more_tasks_than_workers() {
        // 64 tasks on 4 workers: most consumers spend most of their life
        // suspended on the waitlist, which is exactly the regime the
        // pluggable parker exists for.
        let rt = TmRuntime::new();
        let pool = futures::executor::ThreadPool::builder()
            .pool_size(4)
            .create()
            .unwrap();
        let churn = AsyncQueueChurn::new(4, 32, 32, 50);
        for task in churn.tasks(&rt) {
            pool.spawn_ok(task);
        }
        churn.wait_finished();
        churn.verify().unwrap();
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
    fn async_churn_runs_on_block_on_when_tasks_fit_one_thread() {
        // A single producer and consumer can interleave through one
        // blocking driver only if neither ever truly blocks — give the
        // queue enough capacity that the producer finishes first.
        let rt = TmRuntime::new();
        let churn = AsyncQueueChurn::new(64, 1, 1, 64);
        let mut tasks = churn.tasks(&rt);
        let consumer = tasks.pop().unwrap();
        let producer = tasks.pop().unwrap();
        futures::executor::block_on(producer);
        futures::executor::block_on(consumer);
        churn.wait_finished();
        churn.verify().unwrap();
    }
}
