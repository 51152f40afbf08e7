//! Ownership records ("orecs") and the striped lock table.
//!
//! Every transactional variable maps (by hashing its [`VarId`]) to one slot
//! of a fixed-size table of ownership records, exactly like the per-stripe
//! lock tables of TinySTM and SwissTM. An orec packs into a single
//! `AtomicU64`:
//!
//! ```text
//!  63       62          61..47        46..0
//! [locked] [committing] [owner: 15b] [version: 47b]
//! ```
//!
//! * `locked` — a writer has acquired the stripe (eagerly, at first write).
//! * `committing` — the owner is installing values; readers must wait.
//! * `owner` — the [`ThreadId`] of the lock holder. This is what makes
//!   writes *visible*: any thread can ask "who is writing this address?",
//!   which is the facility the Shrink scheduler requires of its host TM.
//! * `version` — the commit timestamp of the last transaction that wrote the
//!   stripe. While locked, the field still holds the pre-lock version so
//!   aborting writers can release without disturbing readers.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::thread::ThreadId;
use crate::varid::VarId;
use crate::visible::VisibleWrites;

/// Number of bits available for commit timestamps.
pub const VERSION_BITS: u32 = 47;

const VERSION_MASK: u64 = (1 << VERSION_BITS) - 1;
const OWNER_SHIFT: u32 = VERSION_BITS;
const OWNER_FIELD_MASK: u64 = 0x7FFF;
const COMMITTING_BIT: u64 = 1 << 62;
const LOCKED_BIT: u64 = 1 << 63;

/// A decoded view of an orec word at one instant.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct OrecSnapshot {
    raw: u64,
}

impl OrecSnapshot {
    /// Reconstructs a snapshot from a raw word (test helper).
    pub fn from_raw(raw: u64) -> Self {
        OrecSnapshot { raw }
    }

    /// The raw packed word.
    pub fn raw(self) -> u64 {
        self.raw
    }

    /// True if a writer holds the stripe.
    pub fn locked(self) -> bool {
        self.raw & LOCKED_BIT != 0
    }

    /// True if the owner is currently installing values.
    pub fn committing(self) -> bool {
        self.raw & COMMITTING_BIT != 0
    }

    /// The thread holding the lock ([`ThreadId::NONE`] when unlocked).
    pub fn owner(self) -> ThreadId {
        ThreadId::from_u16(((self.raw >> OWNER_SHIFT) & OWNER_FIELD_MASK) as u16)
    }

    /// The version stamped by the last committed writer (pre-lock version
    /// while the stripe is locked).
    pub fn version(self) -> u64 {
        self.raw & VERSION_MASK
    }

    /// True if `me` holds the lock.
    pub fn locked_by(self, me: ThreadId) -> bool {
        self.locked() && self.owner() == me
    }

    /// True if some thread other than `me` holds the lock.
    pub fn locked_by_other(self, me: ThreadId) -> bool {
        self.locked() && self.owner() != me
    }
}

impl fmt::Debug for OrecSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrecSnapshot")
            .field("locked", &self.locked())
            .field("committing", &self.committing())
            .field("owner", &self.owner())
            .field("version", &self.version())
            .finish()
    }
}

/// One ownership record.
#[derive(Debug)]
pub struct Orec {
    word: AtomicU64,
}

impl Orec {
    fn new() -> Self {
        Orec {
            word: AtomicU64::new(0),
        }
    }

    /// Reads the current state.
    #[inline]
    pub fn snapshot(&self) -> OrecSnapshot {
        OrecSnapshot {
            raw: self.word.load(Ordering::Acquire),
        }
    }

    /// Attempts to acquire the write lock for `me`, expecting the orec to
    /// still be in the unlocked state `expected`. Returns `true` on success.
    ///
    /// The pre-lock version is preserved in the word so an aborting owner can
    /// release without changing what concurrent readers validate against.
    #[inline]
    pub fn try_lock(&self, expected: OrecSnapshot, me: ThreadId) -> bool {
        debug_assert!(!expected.locked());
        debug_assert!(me != ThreadId::NONE);
        let desired =
            LOCKED_BIT | ((me.as_u16() as u64) << OWNER_SHIFT) | (expected.raw & VERSION_MASK);
        self.word
            .compare_exchange(expected.raw, desired, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    /// Marks the stripe as being committed by its owner.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `me` owns the lock.
    #[inline]
    pub fn begin_commit(&self, me: ThreadId) {
        let cur = self.snapshot();
        debug_assert!(cur.locked_by(me), "begin_commit by non-owner");
        self.word.store(cur.raw | COMMITTING_BIT, Ordering::Release);
    }

    /// Releases the lock after an abort, restoring the pre-lock version.
    #[inline]
    pub fn unlock_abort(&self, me: ThreadId) {
        let cur = self.snapshot();
        debug_assert!(cur.locked_by(me), "unlock_abort by non-owner");
        self.word.store(cur.version(), Ordering::Release);
    }

    /// Releases the lock after a successful commit, stamping `new_version`.
    ///
    /// # Panics
    ///
    /// Debug-asserts ownership and that the version fits the field.
    #[inline]
    pub fn unlock_commit(&self, me: ThreadId, new_version: u64) {
        debug_assert!(self.snapshot().locked_by(me), "unlock_commit by non-owner");
        debug_assert!(new_version <= VERSION_MASK, "version overflow");
        self.word.store(new_version, Ordering::Release);
    }
}

/// The striped table of ownership records shared by all variables of a
/// runtime.
///
/// Distinct variables may hash to the same stripe; such aliasing can produce
/// false conflicts but never missed ones, the standard trade-off of
/// word-based STMs.
pub struct OrecTable {
    orecs: Box<[Orec]>,
    mask: u64,
    shift: u32,
}

impl OrecTable {
    /// Creates a table with `size` stripes (rounded up to a power of two,
    /// minimum 64).
    pub fn new(size: usize) -> Self {
        let size = size.next_power_of_two().max(64);
        let orecs: Vec<Orec> = (0..size).map(|_| Orec::new()).collect();
        OrecTable {
            orecs: orecs.into_boxed_slice(),
            mask: (size - 1) as u64,
            shift: 64 - size.trailing_zeros(),
        }
    }

    /// Number of stripes.
    pub fn len(&self) -> usize {
        self.orecs.len()
    }

    /// True if the table has no stripes (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.orecs.is_empty()
    }

    /// Maps a variable to its stripe index (Fibonacci hashing).
    #[inline]
    pub fn index_of(&self, var: VarId) -> usize {
        let h = var.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> self.shift) & self.mask) as usize
    }

    /// Returns the orec for a stripe index.
    #[inline]
    pub fn at(&self, index: usize) -> &Orec {
        &self.orecs[index]
    }

    /// Returns the orec guarding `var`.
    #[inline]
    pub fn for_var(&self, var: VarId) -> &Orec {
        self.at(self.index_of(var))
    }
}

impl fmt::Debug for OrecTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrecTable")
            .field("stripes", &self.len())
            .finish()
    }
}

impl VisibleWrites for OrecTable {
    fn is_written_by_other(&self, var: VarId, me: ThreadId) -> bool {
        self.for_var(var).snapshot().locked_by_other(me)
    }

    fn writer_of(&self, var: VarId) -> Option<ThreadId> {
        let snap = self.for_var(var).snapshot();
        if snap.locked() {
            Some(snap.owner())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u16) -> ThreadId {
        ThreadId::from_u16(id)
    }

    #[test]
    fn fresh_orec_is_unlocked_version_zero() {
        let o = Orec::new();
        let s = o.snapshot();
        assert!(!s.locked());
        assert!(!s.committing());
        assert_eq!(s.owner(), ThreadId::NONE);
        assert_eq!(s.version(), 0);
    }

    #[test]
    fn lock_preserves_version_and_records_owner() {
        let o = Orec::new();
        o.unlock_commit_unchecked(17);
        let before = o.snapshot();
        assert!(o.try_lock(before, t(5)));
        let s = o.snapshot();
        assert!(s.locked());
        assert_eq!(s.owner(), t(5));
        assert_eq!(s.version(), 17, "pre-lock version preserved");
        assert!(s.locked_by(t(5)));
        assert!(s.locked_by_other(t(6)));
        assert!(!s.locked_by_other(t(5)));
    }

    #[test]
    fn second_lock_attempt_fails() {
        let o = Orec::new();
        let s0 = o.snapshot();
        assert!(o.try_lock(s0, t(1)));
        assert!(!o.try_lock(s0, t(2)), "stale CAS must fail");
    }

    #[test]
    fn abort_restores_pre_lock_version() {
        let o = Orec::new();
        o.unlock_commit_unchecked(9);
        let s = o.snapshot();
        assert!(o.try_lock(s, t(3)));
        o.unlock_abort(t(3));
        let after = o.snapshot();
        assert!(!after.locked());
        assert_eq!(after.version(), 9);
    }

    #[test]
    fn commit_stamps_new_version_and_clears_flags() {
        let o = Orec::new();
        let s = o.snapshot();
        assert!(o.try_lock(s, t(3)));
        o.begin_commit(t(3));
        assert!(o.snapshot().committing());
        o.unlock_commit(t(3), 42);
        let after = o.snapshot();
        assert!(!after.locked());
        assert!(!after.committing());
        assert_eq!(after.version(), 42);
        assert_eq!(after.owner(), ThreadId::NONE);
    }

    #[test]
    fn max_owner_and_version_round_trip() {
        let o = Orec::new();
        o.unlock_commit_unchecked(VERSION_MASK - 1);
        let s = o.snapshot();
        assert!(o.try_lock(s, t(0x7FFF)));
        let locked = o.snapshot();
        assert_eq!(locked.owner(), t(0x7FFF));
        assert_eq!(locked.version(), VERSION_MASK - 1);
    }

    #[test]
    fn table_maps_vars_deterministically_within_bounds() {
        let table = OrecTable::new(1 << 10);
        assert_eq!(table.len(), 1 << 10);
        for i in 0..10_000u64 {
            let v = VarId::from_u64(i);
            let idx = table.index_of(v);
            assert!(idx < table.len());
            assert_eq!(idx, table.index_of(v), "stable mapping");
        }
    }

    #[test]
    fn table_size_rounds_up_to_power_of_two() {
        assert_eq!(OrecTable::new(100).len(), 128);
        assert_eq!(OrecTable::new(1).len(), 64);
    }

    #[test]
    fn visible_writes_reports_locked_stripes() {
        let table = OrecTable::new(64);
        let v = VarId::from_u64(7);
        assert!(!table.is_written_by_other(v, t(1)));
        assert_eq!(table.writer_of(v), None);
        let o = table.for_var(v);
        assert!(o.try_lock(o.snapshot(), t(2)));
        assert!(table.is_written_by_other(v, t(1)));
        assert!(
            !table.is_written_by_other(v, t(2)),
            "own locks are not conflicts"
        );
        assert_eq!(table.writer_of(v), Some(t(2)));
    }

    impl Orec {
        /// Test helper: stamp a version without holding the lock.
        fn unlock_commit_unchecked(&self, v: u64) {
            self.word.store(v, Ordering::Release);
        }
    }
}
