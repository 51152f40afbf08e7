//! Transaction logs: what one attempt records, and where it keeps it.
//!
//! Every thread owns one [`TxLogs`] — read log, read-var list, write log,
//! write index, stripe release list and `or_else` undo records — that the
//! attempt step lends to each attempt by reference ([`with_logs`]) and
//! takes back cleared, capacity kept. In steady state a transaction
//! therefore allocates nothing for its logs; only a write of a boxed value
//! allocates, once, the box its commit moves into the cell.
//!
//! The write log is unboxed: a [`WriteEntry`] holds the buffered value in
//! the representation its cell stores ([`Staged`]) plus a two-function
//! vtable for the type-erased install and drop. Reads of own writes,
//! overwrites and undo records work on the entry in place. The index from
//! a written `VarId` to its entry is an open-addressed table with a
//! multiplicative hash ([`WriteIndex`]); `VarId`s are sequential
//! process-unique counters, not outside input, so no keyed hash is needed.

use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::ptr;
use std::sync::Arc;

use crate::cell::Staged;
use crate::tvar::{TVarInner, TxValue};
use crate::varid::VarId;

/// One validated read: which stripe, and the version it had when read.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ReadEntry {
    pub(crate) orec: usize,
    pub(crate) version: u64,
}

/// The type-erased operations of one [`WriteEntry`], one static table per
/// value type.
struct EntryOps {
    /// Publishes the value into the target's cell, consuming both.
    install: unsafe fn(*const (), Staged),
    /// Drops the value and the target reference.
    discard: unsafe fn(*const (), Staged),
}

struct OpsOf<T>(PhantomData<T>);

impl<T: TxValue> OpsOf<T> {
    const OPS: EntryOps = EntryOps {
        install: install::<T>,
        discard: discard::<T>,
    };
}

/// # Safety
///
/// `target` came from `Arc::<TVarInner<T>>::into_raw` and `value` was
/// staged as `T`; both are consumed.
unsafe fn install<T: TxValue>(target: *const (), value: Staged) {
    // SAFETY: per the contract.
    unsafe {
        let target = Arc::from_raw(target.cast::<TVarInner<T>>());
        target.cell.install(value);
    }
}

/// # Safety
///
/// As for [`install`].
unsafe fn discard<T: TxValue>(target: *const (), value: Staged) {
    // SAFETY: per the contract.
    unsafe {
        drop(Arc::from_raw(target.cast::<TVarInner<T>>()));
        value.discard::<T>();
    }
}

/// One buffered write: the target variable (a strong reference, so the
/// variable outlives the transaction that wrote it), the value, and the
/// operations for its type.
pub(crate) struct WriteEntry {
    target: *const (),
    value: Staged,
    ops: &'static EntryOps,
}

// SAFETY: the entry owns a `T: Send` value and an `Arc` of a `Sync` cell,
// exactly what the boxed `dyn Send` entry it replaces owned.
unsafe impl Send for WriteEntry {}

impl WriteEntry {
    /// Buffers `value` for `target`.
    #[inline]
    pub(crate) fn new<T: TxValue>(target: &Arc<TVarInner<T>>, value: T) -> Self {
        WriteEntry {
            target: Arc::into_raw(Arc::clone(target)).cast(),
            value: Staged::new(value),
            ops: &OpsOf::<T>::OPS,
        }
    }

    /// The entry's target is `target`, so its value is a `T`.
    #[inline]
    fn check<T>(&self, target: &Arc<TVarInner<T>>) {
        // One pointer compare; it is what makes the typed accessors safe.
        assert!(
            ptr::eq(self.target, Arc::as_ptr(target).cast()),
            "write log entry belongs to another variable"
        );
    }

    /// Runs `f` on the buffered value for `target` (read-own-write).
    #[inline]
    pub(crate) fn with<T: TxValue, R>(
        &self,
        target: &Arc<TVarInner<T>>,
        f: impl FnOnce(&T) -> R,
    ) -> R {
        self.check(target);
        // SAFETY: `check` proved the value was staged as `T`.
        unsafe { self.value.with::<T, R>(f) }
    }

    /// Replaces the buffered value for `target` in place (overwrite).
    #[inline]
    pub(crate) fn set<T: TxValue>(&mut self, target: &Arc<TVarInner<T>>, value: T) {
        self.check(target);
        // SAFETY: `check` proved the value was staged as `T`.
        unsafe { self.value.set::<T>(value) }
    }

    /// Publishes the value into its variable's cell.
    #[inline]
    pub(crate) fn install(self) {
        let entry = ManuallyDrop::new(self);
        // SAFETY: `new` produced the pointer and the staged value for the
        // type `ops` was built for; `ManuallyDrop` keeps the drop below
        // from consuming them a second time.
        unsafe { (entry.ops.install)(entry.target, entry.value) }
    }
}

impl Drop for WriteEntry {
    fn drop(&mut self) {
        // SAFETY: as in `install`; a dropped entry was never installed.
        unsafe { (self.ops.discard)(self.target, self.value) }
    }
}

/// Smallest non-empty [`WriteIndex`] table.
const MIN_INDEX_SLOTS: usize = 16;

#[derive(Clone, Copy, Default)]
struct IndexSlot {
    var: u64,
    pos: u32,
    /// The slot is live only when this equals the table's generation.
    generation: u32,
}

/// Open-addressed map from a written `VarId` to its write-log position.
///
/// Linear probing over a power-of-two table kept at most half full, with
/// a multiplicative hash of the raw id. Clearing bumps the generation
/// instead of touching the slots, so a reused table costs nothing to
/// reset.
pub(crate) struct WriteIndex {
    slots: Vec<IndexSlot>,
    /// `64 - log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
    generation: u32,
    len: usize,
}

impl WriteIndex {
    const fn new() -> Self {
        WriteIndex {
            slots: Vec::new(),
            shift: 64,
            generation: 1,
            len: 0,
        }
    }

    #[inline]
    fn home(&self, var: VarId) -> usize {
        (var.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The write-log position of `var`, if it was written.
    #[inline]
    pub(crate) fn get(&self, var: VarId) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(var);
        loop {
            let slot = self.slots[i];
            if slot.generation != self.generation {
                return None;
            }
            if slot.var == var.as_u64() {
                return Some(slot.pos as usize);
            }
            i = (i + 1) & mask;
        }
    }

    /// Records `var`, not yet present, at write-log position `pos`.
    #[inline]
    pub(crate) fn insert(&mut self, var: VarId, pos: usize) {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        self.place(var.as_u64(), pos as u32);
        self.len += 1;
    }

    fn place(&mut self, var: u64, pos: u32) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(VarId::from_u64(var));
        while self.slots[i].generation == self.generation {
            i = (i + 1) & mask;
        }
        self.slots[i] = IndexSlot {
            var,
            pos,
            generation: self.generation,
        };
    }

    #[cold]
    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(MIN_INDEX_SLOTS);
        let live = self.generation;
        let old = std::mem::replace(&mut self.slots, vec![IndexSlot::default(); size]);
        self.shift = 64 - size.trailing_zeros();
        // The fresh slots carry generation 0, which `clear` never hands out.
        for slot in old.into_iter().filter(|s| s.generation == live) {
            self.place(slot.var, slot.pos);
        }
    }

    /// Empties the index, keeping its table.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Once every 2^32 clears: stale stamps could alias again.
            self.slots.fill(IndexSlot::default());
            self.generation = 1;
        }
    }

    /// Re-indexes from scratch: `written[i]` sits at position `i`.
    pub(crate) fn rebuild(&mut self, written: &[VarId]) {
        self.clear();
        for (pos, &var) in written.iter().enumerate() {
            self.insert(var, pos);
        }
    }
}

/// A rollback point inside one transaction attempt, pushed by
/// [`Tx::or_else`](crate::Tx::or_else) around its first branch (DESIGN.md
/// §9.1): the lengths of the write log, the stripe release list and the
/// undo stack when the branch began.
///
/// Rolling back to a checkpoint undoes everything the branch *wrote* —
/// write-log entries are truncated, overwritten pre-branch entries are
/// restored from the undo stack, and stripes first acquired inside the
/// branch are released — while the branch's *reads* are deliberately kept:
/// they were real reads of the snapshot, keeping them validates the
/// alternative branch against the same consistency, and a
/// [`Tx::retry`](crate::Tx::retry) that escapes both branches must park on
/// the union of both read sets.
#[derive(Clone, Copy)]
pub(crate) struct Checkpoint {
    pub(crate) writes: usize,
    pub(crate) owned: usize,
    pub(crate) undo: usize,
}

/// Everything one attempt logs. Owned per thread and lent to one attempt
/// at a time by [`with_logs`].
pub(crate) struct TxLogs {
    pub(crate) read_log: Vec<ReadEntry>,
    /// Every dynamic read, in order (may contain duplicates).
    pub(crate) read_vars: Vec<VarId>,
    pub(crate) write_log: Vec<WriteEntry>,
    /// Distinct written variables, in first-write order: `write_vars[i]`
    /// is the target of `write_log[i]`.
    pub(crate) write_vars: Vec<VarId>,
    pub(crate) write_index: WriteIndex,
    /// Stripes this attempt locked, in acquisition order: the release list.
    pub(crate) owned_order: Vec<usize>,
    /// Active `or_else` rollback points, innermost last.
    pub(crate) checkpoints: Vec<Checkpoint>,
    /// Write-log entries an `or_else` branch overwrote, as they were before
    /// it: `(write_log position, old entry)`, restored in reverse order.
    pub(crate) undo: Vec<(usize, WriteEntry)>,
}

impl TxLogs {
    pub(crate) const fn new() -> Self {
        TxLogs {
            read_log: Vec::new(),
            read_vars: Vec::new(),
            write_log: Vec::new(),
            write_vars: Vec::new(),
            write_index: WriteIndex::new(),
            owned_order: Vec::new(),
            checkpoints: Vec::new(),
            undo: Vec::new(),
        }
    }

    /// Empties every log, keeping its capacity. Buffered values that were
    /// not installed are dropped here.
    fn clear(&mut self) {
        self.read_log.clear();
        self.read_vars.clear();
        self.write_log.clear();
        self.write_vars.clear();
        self.write_index.clear();
        self.owned_order.clear();
        self.checkpoints.clear();
        self.undo.clear();
    }
}

struct LogSlot {
    lent: Cell<bool>,
    logs: UnsafeCell<TxLogs>,
}

thread_local! {
    static LOGS: LogSlot = const {
        LogSlot {
            lent: Cell::new(false),
            logs: UnsafeCell::new(TxLogs::new()),
        }
    };
}

/// Hands the slot's logs back: cleared after a normal return, dropped when
/// the attempt is unwinding (a panicking body's logs are not reused).
struct GiveBack<'a>(&'a LogSlot);

impl Drop for GiveBack<'_> {
    fn drop(&mut self) {
        // SAFETY: the `&mut` lent out by `with_logs` ended before this
        // guard drops, and the slot is still marked lent.
        let logs = unsafe { &mut *self.0.logs.get() };
        if std::thread::panicking() {
            *logs = TxLogs::new();
        } else {
            logs.clear();
        }
        self.0.lent.set(false);
    }
}

/// Lends the calling thread's logs to `attempt` and takes them back
/// cleared. The logs pass by reference: the attempt works on the
/// thread-local in place.
///
/// A transaction nested inside another on the same thread (a body that
/// runs a transaction on another runtime, or `read_only` inside `run`)
/// finds the logs already lent and gets fresh ones of its own, as does a
/// transaction run while the thread's locals are being torn down.
#[inline]
pub(crate) fn with_logs<R>(attempt: impl FnOnce(&mut TxLogs) -> R) -> R {
    let mut attempt = Some(attempt);
    let lent = LOGS.try_with(|slot| {
        if slot.lent.replace(true) {
            return None;
        }
        let _give_back = GiveBack(slot);
        let attempt = attempt.take().expect("attempt runs once");
        // SAFETY: `lent` was false, so no other borrow of the logs exists;
        // it stays true until `_give_back` drops after this borrow ends.
        Some(attempt(unsafe { &mut *slot.logs.get() }))
    });
    match lent {
        Ok(Some(result)) => result,
        _ => attempt.take().expect("attempt runs once")(&mut TxLogs::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: impl IntoIterator<Item = u64>) -> Vec<VarId> {
        raw.into_iter().map(VarId::from_u64).collect()
    }

    #[test]
    fn index_finds_every_inserted_var_across_growth() {
        let mut index = WriteIndex::new();
        assert_eq!(index.get(VarId::from_u64(1)), None);
        let vars = ids((1..=1000).map(|i| i * 7));
        for (pos, &v) in vars.iter().enumerate() {
            index.insert(v, pos);
        }
        for (pos, &v) in vars.iter().enumerate() {
            assert_eq!(index.get(v), Some(pos));
        }
        assert_eq!(index.get(VarId::from_u64(3)), None);
    }

    #[test]
    fn index_generation_wrap_resets_stale_slots() {
        let mut index = WriteIndex::new();
        index.insert(VarId::from_u64(9), 0);
        index.generation = u32::MAX;
        index.insert(VarId::from_u64(10), 1);
        index.clear();
        assert_eq!(index.generation, 1);
        assert_eq!(index.get(VarId::from_u64(9)), None);
        assert_eq!(index.get(VarId::from_u64(10)), None);
    }
}
