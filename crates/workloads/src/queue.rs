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
//! The operations are plain transaction bodies, so the same queue serves
//! thread-parked and async callers alike: inside
//! [`atomically_async`](shrink_stm::future::atomically_async) a blocked
//! `pop` suspends its task on the retry waitlist instead of parking an OS
//! thread (DESIGN.md §12).
//!
//! [`Tx::retry`]: shrink_stm::Tx::retry

use std::fmt;

use shrink_stm::{TVar, Tx, TxResult, TxValue};

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

#[cfg(test)]
mod tests {
    use super::*;
    use shrink_stm::{atomically, TmRuntime};
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
}
