//! The global serialization lock shared by scheduler policies.
//!
//! All serializing schedulers in the paper funnel "dangerous" transactions
//! through one process-wide mutex (the paper implements it with a pthread
//! mutex). This wrapper adds the piece Shrink needs on top: a counter of
//! threads currently serialized (waiting for or holding the lock), which is
//! the *serialization affinity* signal, and per-thread ownership tracking so
//! `on_finish` can release exactly when the paper's Algorithm 1
//! says "if own global lock then unlock".
//!
//! The backing is the futex-parked [`RawMutex`]: a queued transaction
//! sleeps in the kernel instead of burning its core, which is precisely the
//! regime (more threads than cores, everything serialized) where the
//! paper's Figures 7/9 live (DESIGN.md §8.4).

use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

use parking_lot::lock_api::RawMutex as _;
use parking_lot::RawMutex;
use shrink_stm::ThreadId;

use crate::slots::ThreadSlots;

/// A global mutex with a serialized-thread counter and per-thread ownership
/// bookkeeping.
pub struct SerialLock {
    raw: RawMutex,
    /// Exact count of threads between `acquire`'s entry and
    /// `release_if_held`'s exit — i.e. blocked on or holding the lock.
    ///
    /// Ordering: the increment/decrement are `SeqCst` RMWs and the read is
    /// a `SeqCst` load, so every observer sees the transitions in one total
    /// order consistent with the park/unpark they bracket. A thread is
    /// counted *before* it can possibly block (increment precedes the raw
    /// `lock()`) and stays counted until *after* the lock is released
    /// (decrement follows the raw `unlock()`), so the signal can neither
    /// transiently under-count a parked thread nor drop below the number of
    /// holders — `wait_count` is exact, never an estimate, across the
    /// futex park/unpark boundary.
    waiting: AtomicU32,
    holds: ThreadSlots<AtomicU32>,
}

impl SerialLock {
    /// Creates an unheld, futex-parked lock.
    pub fn new() -> Self {
        SerialLock {
            raw: RawMutex::INIT,
            waiting: AtomicU32::new(0),
            holds: ThreadSlots::new(|| AtomicU32::new(0)),
        }
    }

    /// Number of threads currently serialized: blocked on or holding the
    /// lock. This is the paper's `wait_count`, and it is exact (see the
    /// field docs on `waiting`).
    pub fn wait_count(&self) -> u32 {
        self.waiting.load(Ordering::SeqCst)
    }

    /// Serializes the calling thread: counts it as waiting, then blocks
    /// (parked) until the lock is acquired. No-op if the thread already
    /// holds it.
    pub fn acquire(&self, me: ThreadId) {
        let held = self.holds.get(me);
        if held.load(Ordering::Relaxed) != 0 {
            return;
        }
        // Count first, block second: a parked thread is always visible in
        // the affinity signal.
        self.waiting.fetch_add(1, Ordering::SeqCst);
        self.raw.lock();
        held.store(1, Ordering::Relaxed);
    }

    /// Releases the lock if the calling thread holds it; returns whether a
    /// release happened.
    pub fn release_if_held(&self, me: ThreadId) -> bool {
        let held = self.holds.get(me);
        if held.load(Ordering::Relaxed) == 0 {
            return false;
        }
        held.store(0, Ordering::Relaxed);
        // SAFETY: this thread holds the raw mutex (tracked by `holds`, which
        // is written only by the owning thread between acquire/release).
        unsafe {
            self.raw.unlock();
        }
        // Uncount last: the thread stays in the signal until the lock is
        // actually free for the next waiter.
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        true
    }

    /// True if `me` currently holds the lock.
    pub fn is_held_by(&self, me: ThreadId) -> bool {
        self.holds
            .try_get(me)
            .is_some_and(|h| h.load(Ordering::Relaxed) != 0)
    }
}

impl Default for SerialLock {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SerialLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SerialLock")
            .field("wait_count", &self.wait_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn tid(raw: u16) -> ThreadId {
        ThreadId::from_u16(raw)
    }

    #[test]
    fn acquire_release_round_trip() {
        let lock = SerialLock::new();
        let me = tid(1);
        assert_eq!(lock.wait_count(), 0);
        lock.acquire(me);
        assert!(lock.is_held_by(me));
        assert_eq!(lock.wait_count(), 1);
        assert!(lock.release_if_held(me));
        assert!(!lock.is_held_by(me));
        assert_eq!(lock.wait_count(), 0);
        assert!(!lock.release_if_held(me), "double release is a no-op");
    }

    #[test]
    fn reacquire_while_held_is_noop() {
        let lock = SerialLock::new();
        let me = tid(1);
        lock.acquire(me);
        lock.acquire(me);
        assert_eq!(lock.wait_count(), 1);
        assert!(lock.release_if_held(me));
        assert_eq!(lock.wait_count(), 0);
    }

    #[test]
    fn contending_threads_serialize() {
        let lock = Arc::new(SerialLock::new());
        let shared = Arc::new(AtomicU32::new(0));
        let handles: Vec<_> = (1..=4u16)
            .map(|raw| {
                let lock = Arc::clone(&lock);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let me = tid(raw);
                    for _ in 0..100 {
                        lock.acquire(me);
                        // Critical section: non-atomic-looking increment.
                        let v = shared.load(Ordering::Relaxed);
                        std::hint::spin_loop();
                        shared.store(v + 1, Ordering::Relaxed);
                        assert!(lock.release_if_held(me));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.load(Ordering::Relaxed), 400);
        assert_eq!(lock.wait_count(), 0);
    }

    #[test]
    fn wait_count_observes_blocked_threads() {
        let lock = Arc::new(SerialLock::new());
        lock.acquire(tid(1));
        let waiter = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                lock.acquire(tid(2));
                lock.release_if_held(tid(2));
            })
        };
        // Wait until the second thread is counted; along the way the signal
        // must never over-count (exactness: only two threads exist, so any
        // reading above 2 would be a counting bug across park/unpark).
        let mut tries = 0;
        loop {
            let count = lock.wait_count();
            assert!(count <= 2, "wait_count {count} over-counts two threads");
            if count == 2 || tries >= 1000 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
            tries += 1;
        }
        assert_eq!(lock.wait_count(), 2, "holder + parked waiter");
        lock.release_if_held(tid(1));
        waiter.join().unwrap();
        // Quiescent: the counter must return exactly to zero — the paper's
        // affinity gate reads it raw, a residual ±1 would skew every
        // serialization decision from here on.
        assert_eq!(lock.wait_count(), 0);
    }
}
