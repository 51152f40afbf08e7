//! Per-thread state storage for schedulers.
//!
//! Scheduler hooks receive only a [`ThreadId`]; this container maps ids to
//! lazily created per-thread state. Lookup is a shared lock plus an index,
//! growth happens at most once per thread.

use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;
use shrink_stm::ThreadId;

/// Lazily grown, thread-id-indexed storage.
///
/// `S` is created by the factory on first access from each thread. State is
/// shared (`Arc`), so concurrent readers (e.g. a contention manager peeking
/// at another thread) are allowed; interior mutability is `S`'s business.
pub struct ThreadSlots<S> {
    slots: RwLock<Vec<Arc<S>>>,
    factory: Box<dyn Fn() -> S + Send + Sync>,
}

impl<S: Send + Sync> ThreadSlots<S> {
    /// Creates empty storage with a state factory.
    pub fn new(factory: impl Fn() -> S + Send + Sync + 'static) -> Self {
        ThreadSlots {
            slots: RwLock::new(Vec::new()),
            factory: Box::new(factory),
        }
    }

    /// Returns the state of `thread`, creating it (and any missing slots
    /// below it) on first use.
    ///
    /// # Panics
    ///
    /// Panics on [`ThreadId::NONE`].
    pub fn get(&self, thread: ThreadId) -> Arc<S> {
        let index = thread.index();
        {
            let read = self.slots.read();
            if let Some(slot) = read.get(index) {
                return Arc::clone(slot);
            }
        }
        let mut write = self.slots.write();
        while write.len() <= index {
            write.push(Arc::new((self.factory)()));
        }
        Arc::clone(&write[index])
    }

    /// Returns the state of `thread` if it was ever created.
    pub fn try_get(&self, thread: ThreadId) -> Option<Arc<S>> {
        if thread == ThreadId::NONE {
            return None;
        }
        self.slots.read().get(thread.index()).cloned()
    }

    /// Snapshot of every created slot, in thread-id order.
    pub fn snapshot(&self) -> Vec<Arc<S>> {
        self.slots.read().clone()
    }
}

impl<S> fmt::Debug for ThreadSlots<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadSlots")
            .field("len", &self.slots.read().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tid(raw: u16) -> ThreadId {
        ThreadId::from_u16(raw)
    }

    #[test]
    fn get_creates_and_reuses_state() {
        let slots = ThreadSlots::new(|| AtomicU64::new(0));
        let a = slots.get(tid(1));
        a.store(7, Ordering::Relaxed);
        let again = slots.get(tid(1));
        assert_eq!(again.load(Ordering::Relaxed), 7);
        assert_eq!(slots.snapshot().len(), 1);
    }

    #[test]
    fn sparse_registration_fills_gaps() {
        let slots = ThreadSlots::new(|| AtomicU64::new(0));
        let _ = slots.get(tid(5));
        assert_eq!(slots.snapshot().len(), 5);
        let early = slots.get(tid(2));
        early.store(3, Ordering::Relaxed);
        assert_eq!(slots.get(tid(2)).load(Ordering::Relaxed), 3);
    }

    #[test]
    fn try_get_does_not_create() {
        let slots = ThreadSlots::new(|| AtomicU64::new(0));
        assert!(slots.try_get(tid(1)).is_none());
        let _ = slots.get(tid(1));
        assert!(slots.try_get(tid(1)).is_some());
        assert!(slots.try_get(ThreadId::NONE).is_none());
    }

    #[test]
    fn snapshot_lists_all_slots() {
        let slots = ThreadSlots::new(|| AtomicU64::new(9));
        let _ = slots.get(tid(3));
        let snap = slots.snapshot();
        assert_eq!(snap.len(), 3);
        assert!(snap.iter().all(|s| s.load(Ordering::Relaxed) == 9));
    }
}
