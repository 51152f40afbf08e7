//! Tests of the per-thread slots the schedulers keep.
//!
//! Every scheduler in this crate stores its per-thread state in a
//! [`ThreadTable`] looked up by the hook's [`ThreadId`]: a hook that records
//! state calls `get_or_init`, a hook that only reads calls `get`, and a
//! statistic over all threads walks `iter`. These tests pin down the three
//! behaviours the schedulers rely on.

#[cfg(test)]
mod tests {
    use shrink_stm::{ThreadId, ThreadTable};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tid(raw: u16) -> ThreadId {
        ThreadId::from_u16(raw)
    }

    #[test]
    fn get_creates_and_reuses_state() {
        let slots = ThreadTable::new();
        let a = slots.get_or_init(tid(1), || AtomicU64::new(0));
        a.store(7, Ordering::Relaxed);
        let again = slots.get_or_init(tid(1), || unreachable!("slot 1 exists"));
        assert_eq!(again.load(Ordering::Relaxed), 7);
        assert_eq!(slots.iter().count(), 1);
    }

    #[test]
    fn try_get_does_not_create() {
        let slots = ThreadTable::new();
        assert!(slots.get(tid(1)).is_none());
        let _ = slots.get_or_init(tid(1), || AtomicU64::new(0));
        assert!(slots.get(tid(1)).is_some());
        assert!(slots.get(ThreadId::NONE).is_none());
        assert_eq!(slots.iter().count(), 1, "lookups created nothing");
    }

    #[test]
    fn snapshot_lists_all_slots() {
        let slots = ThreadTable::new();
        for raw in 1..=3 {
            let _ = slots.get_or_init(tid(raw), || AtomicU64::new(9));
        }
        let snap: Vec<&AtomicU64> = slots.iter().collect();
        assert_eq!(snap.len(), 3);
        assert!(snap.iter().all(|s| s.load(Ordering::Relaxed) == 9));
    }
}
