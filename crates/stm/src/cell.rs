//! Lock-free value storage for transactional variables.
//!
//! Each [`TVar`](crate::TVar) keeps its current value in a `ValueCell`,
//! which picks one of two lock-free representations at construction time
//! (the choice is a compile-time constant per `T`, so the dispatch branch
//! predicts perfectly):
//!
//! * **Inline seqlock** — for types with no drop glue that fit in a small
//!   word buffer (`size <= 32`, `align <= 8`): the value's bytes live
//!   directly in the cell as atomic words guarded by a sequence counter.
//!   A snapshot read is a handful of atomic loads with no heap
//!   indirection, no epoch pin, and no allocation on store. This covers
//!   the counters, prices and keys the paper's word-based STM workloads
//!   are made of.
//! * **Epoch-reclaimed box** — for everything else: an atomic pointer to a
//!   heap value. Readers pin an epoch, load the pointer and clone the
//!   value out; a transactional write boxes its value once, commit swaps
//!   that box in as it is, and destruction of the old one is deferred
//!   until all pinned readers have moved on (see `vendor/crossbeam` and
//!   DESIGN.md §7).
//!
//! A write log buffers values as `Staged`: the same two representations,
//! detached from any cell.
//!
//! Neither path acquires a mutex or rwlock. Combined with the orec
//! validate-read-validate protocol this gives torn-read-free, safe
//! snapshots without a per-variable lock.
//!
//! This load path is what makes the lock-free read-only mode
//! ([`TmRuntime::read_only`](crate::TmRuntime::read_only)) possible: a
//! `ReadTx` read is exactly `orec snapshot → ValueCell::load → orec
//! re-snapshot`, with no shared-state write anywhere on the path.

use std::fmt;
use std::marker::PhantomData;
use std::mem::{self, ManuallyDrop};
use std::ptr;
use std::sync::atomic::{fence, AtomicU64, Ordering};

use crossbeam::epoch::{self, Atomic, Owned};

/// Inline storage budget: up to this many 8-byte words.
const INLINE_WORDS: usize = 4;

/// Whether `T` takes the inline seqlock representation.
///
/// Requirements: no drop glue (a seqlock read materializes a bitwise
/// temporary that is never dropped), fits the word buffer, and alignment
/// no stricter than the `u64` words backing it.
const fn use_inline<T>() -> bool {
    !mem::needs_drop::<T>()
        && mem::size_of::<T>() <= INLINE_WORDS * mem::size_of::<u64>()
        && mem::align_of::<T>() <= mem::align_of::<u64>()
}

/// A single versioned storage slot.
///
/// The cell itself knows nothing about versions — ordering and visibility
/// of *which* value a transaction may use come from the ownership record
/// that guards the variable.
pub(crate) struct ValueCell<T> {
    repr: Repr<T>,
}

enum Repr<T> {
    Inline(InlineCell<T>),
    Boxed(Atomic<T>),
}

impl<T: Clone + Send + Sync + 'static> ValueCell<T> {
    /// Creates a cell holding `value`.
    pub(crate) fn new(value: T) -> Self {
        let repr = if use_inline::<T>() {
            Repr::Inline(InlineCell::new(value))
        } else {
            Repr::Boxed(Atomic::new(value))
        };
        ValueCell { repr }
    }

    /// True when this cell uses the inline seqlock fast path (diagnostic,
    /// used by tests and benches to assert representation selection).
    pub(crate) fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline(_))
    }

    /// Clones the current value out.
    #[inline]
    pub(crate) fn load(&self) -> T {
        match &self.repr {
            Repr::Inline(cell) => cell.load(),
            Repr::Boxed(ptr) => {
                let guard = epoch::pin();
                let shared = ptr.load(Ordering::Acquire, &guard);
                // SAFETY: the pointer is never null after construction and
                // the pinned epoch keeps the pointee alive for the clone.
                unsafe { shared.deref().clone() }
            }
        }
    }

    /// Publishes a staged value, consuming it: inline bytes are copied in,
    /// a boxed value's allocation is moved in as it is — no clone and no
    /// second allocation.
    ///
    /// # Safety
    ///
    /// `staged` must hold a live value staged as `T` (by
    /// [`Staged::new::<T>`]); it is consumed and must not be used again.
    /// No other install into this cell may run concurrently (the commit
    /// path holds the variable's stripe lock).
    #[inline]
    pub(crate) unsafe fn install(&self, staged: Staged) {
        match &self.repr {
            // SAFETY (both arms): the cell's representation and the staged
            // one are both chosen by `use_inline::<T>()`, so the union
            // field read is the one `Staged::new` wrote.
            Repr::Inline(cell) => cell.store_words(unsafe { staged.words }),
            Repr::Boxed(ptr) => {
                // SAFETY: `Staged::new` leaked this box from a `Box<T>`, and
                // the caller hands over its ownership.
                let boxed = unsafe { Box::from_raw(staged.boxed.cast::<T>()) };
                swap_in(ptr, Owned::from(boxed));
            }
        }
    }
}

/// Swaps `new` into a boxed cell, deferring destruction of the previous
/// value until all current readers unpin.
#[inline]
fn swap_in<T: Send + 'static>(ptr: &Atomic<T>, new: Owned<T>) {
    let guard = epoch::pin();
    let old = ptr.swap(new, Ordering::AcqRel, &guard);
    // SAFETY: `old` was the uniquely installed previous value; no new
    // reader can acquire it after the swap, and already pinned readers are
    // covered by the two-epoch grace period.
    unsafe {
        guard.defer_destroy(old);
    }
}

/// One value detached from any cell, in the representation [`ValueCell`]
/// stores for its type: the frozen bytes of an inline value, or the raw
/// heap box of a boxed one. This is what a write log buffers (see
/// `log.rs`): fixed-size whatever `T` is, so log entries need no box of
/// their own.
///
/// The type is erased, so every accessor is `unsafe` and must be called
/// with the `T` the value was staged as. A `Staged` owns its value but has
/// no drop glue: the owner ends it with [`ValueCell::install`] or
/// [`Staged::discard`].
#[derive(Clone, Copy)]
pub(crate) union Staged {
    words: [u64; INLINE_WORDS],
    boxed: *mut (),
}

impl Staged {
    /// Detaches `value`: frozen into the inline words, or moved into a box
    /// (the one allocation a boxed write costs).
    #[inline]
    pub(crate) fn new<T>(value: T) -> Self {
        if use_inline::<T>() {
            Staged {
                words: freeze(value),
            }
        } else {
            Staged {
                boxed: Box::into_raw(Box::new(value)).cast(),
            }
        }
    }

    /// Clones the staged value out.
    ///
    /// # Safety
    ///
    /// `self` holds a live value staged as `T`.
    #[inline]
    pub(crate) unsafe fn get<T: Clone>(&self) -> T {
        // SAFETY: per the contract, the field matching `use_inline::<T>()`
        // holds a valid `T`.
        unsafe {
            if use_inline::<T>() {
                assemble(&self.words)
            } else {
                (*self.boxed.cast::<T>()).clone()
            }
        }
    }

    /// Replaces the staged value in place: inline bytes are overwritten, a
    /// box is reused (the old value is dropped inside it).
    ///
    /// # Safety
    ///
    /// `self` holds a live value staged as `T`.
    #[inline]
    pub(crate) unsafe fn set<T>(&mut self, value: T) {
        if use_inline::<T>() {
            // No drop glue on this path: the old bytes are simply replaced.
            self.words = freeze(value);
        } else {
            // SAFETY: the box holds a live `T`, per the contract.
            unsafe { *self.boxed.cast::<T>() = value };
        }
    }

    /// Drops the staged value.
    ///
    /// # Safety
    ///
    /// `self` holds a live value staged as `T`; it is consumed and must not
    /// be used again.
    #[inline]
    pub(crate) unsafe fn discard<T>(self) {
        if !use_inline::<T>() {
            // SAFETY: leaked from a `Box<T>` by `Staged::new`, owned here.
            drop(unsafe { Box::from_raw(self.boxed.cast::<T>()) });
        }
    }
}

impl<T> fmt::Debug for ValueCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.repr {
            Repr::Inline(_) => f.write_str("ValueCell(inline)"),
            Repr::Boxed(_) => f.write_str("ValueCell(boxed)"),
        }
    }
}

/// Seqlock over an inline word buffer.
///
/// `seq` is even when the words are stable and odd while the writer is
/// copying new bytes in, and readers retry until they observe the same
/// even count on both sides of the word copy. There is one writer at a
/// time — every store after construction is a commit's install, which
/// holds the variable's stripe lock — so the writer takes the odd state
/// with a plain store, not a CAS.
struct InlineCell<T> {
    seq: AtomicU64,
    words: [AtomicU64; INLINE_WORDS],
    _marker: PhantomData<T>,
}

impl<T: Clone> InlineCell<T> {
    fn new(value: T) -> Self {
        let cell = InlineCell {
            seq: AtomicU64::new(0),
            words: [const { AtomicU64::new(0) }; INLINE_WORDS],
            _marker: PhantomData,
        };
        cell.store_words(freeze(value));
        cell
    }

    #[inline]
    fn load(&self) -> T {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let mut buf = [0u64; INLINE_WORDS];
            for (slot, word) in buf.iter_mut().zip(&self.words) {
                *slot = word.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == s1 {
                // SAFETY: the sequence count was even and unchanged across
                // the word copy, so `buf` holds the exact bytes of a value
                // that was fully written by `store` — a valid `T`.
                return unsafe { assemble(&buf) };
            }
        }
    }

    /// Publishes frozen bytes (from [`freeze`]) as the new value.
    #[inline]
    fn store_words(&self, buf: [u64; INLINE_WORDS]) {
        debug_assert!(use_inline::<T>());
        // Even -> odd. The release fence orders the odd count before the
        // word stores: a reader that sees any new word then sees the count
        // moved when it re-checks after its acquire fence.
        let s = self.seq.load(Ordering::Relaxed);
        debug_assert!(s & 1 == 0, "concurrent inline stores");
        self.seq.store(s + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        for (word, val) in self.words.iter().zip(buf) {
            word.store(val, Ordering::Relaxed);
        }
        // Publish: odd -> next even. Release orders the word stores before
        // the counter store that readers acquire.
        self.seq.store(s + 2, Ordering::Release);
    }
}

/// Freezes an inline value's bytes into a zero-initialized word buffer,
/// taking ownership of the value.
#[inline]
fn freeze<T>(value: T) -> [u64; INLINE_WORDS] {
    debug_assert!(use_inline::<T>());
    let mut buf = [0u64; INLINE_WORDS];
    // (Like crossbeam's `AtomicCell`, this byte copy may include internal
    // padding; every tier-1 target handles that as a plain memcpy.)
    // SAFETY: `use_inline` guarantees the value fits the buffer.
    unsafe {
        ptr::copy_nonoverlapping(
            ptr::from_ref(&value).cast::<u8>(),
            buf.as_mut_ptr().cast::<u8>(),
            mem::size_of::<T>(),
        );
    }
    // The buffer now owns the bytes; `T` has no drop glue, so forgetting
    // the source is a plain ownership transfer.
    mem::forget(value);
    buf
}

/// Materializes a `T` from validated seqlock bytes, preserving `Clone`
/// semantics: the bitwise temporary is cloned, then forgotten (legal
/// because the inline representation is only chosen for dropless types).
///
/// # Safety
///
/// `buf` must hold the bytes of a valid, fully written `T` (guaranteed by
/// the seqlock validation in `InlineCell::load`, or by [`freeze`] for a
/// staged value), and `T` must satisfy
/// [`use_inline`].
#[inline]
unsafe fn assemble<T: Clone>(buf: &[u64; INLINE_WORDS]) -> T {
    // SAFETY: size checked by `use_inline`; the bytes are a valid `T` per
    // the caller's contract. `ManuallyDrop` suppresses drop of the bitwise
    // temporary (which has no drop glue anyway).
    let tmp = unsafe { mem::transmute_copy::<[u64; INLINE_WORDS], ManuallyDrop<T>>(buf) };
    (*tmp).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
    use std::sync::Arc;

    impl<T: Clone + Send + Sync + 'static> ValueCell<T> {
        /// Publishes `value` through the commit path's staging.
        pub(crate) fn store(&self, value: T) {
            // SAFETY: staged as `T` right here, consumed once.
            unsafe { self.install(Staged::new(value)) }
        }
    }

    #[test]
    fn load_returns_stored_value() {
        let c = ValueCell::new(41);
        assert_eq!(c.load(), 41);
        c.store(42);
        assert_eq!(c.load(), 42);
    }

    #[test]
    fn representation_selection() {
        // Dropless and small: inline.
        assert!(ValueCell::new(0u8).is_inline());
        assert!(ValueCell::new(0u64).is_inline());
        assert!(ValueCell::new((0u64, 0u64, 0u64, 0u64)).is_inline());
        assert!(ValueCell::new([0u8; 32]).is_inline());
        // Zero-sized types are (degenerately) inline.
        assert!(ValueCell::new(()).is_inline());
        // Too big: boxed.
        assert!(!ValueCell::new([0u64; 5]).is_inline());
        // Drop glue: boxed.
        assert!(!ValueCell::new(String::from("x")).is_inline());
        assert!(!ValueCell::new(vec![1u8]).is_inline());
        assert!(!ValueCell::new(Arc::new(1u8)).is_inline());
        // Over-aligned: boxed (the word buffer is only 8-byte aligned).
        #[derive(Clone)]
        #[repr(align(16))]
        struct Overaligned(#[allow(dead_code)] u64);
        assert!(!ValueCell::new(Overaligned(1)).is_inline());
    }

    #[test]
    fn zero_sized_values_round_trip() {
        let c = ValueCell::new(());
        c.store(());
        #[allow(clippy::let_unit_value)]
        let v = c.load();
        let _: () = v;

        #[derive(Clone, PartialEq, Debug)]
        struct Marker;
        let m = ValueCell::new(Marker);
        assert_eq!(m.load(), Marker);
        m.store(Marker);
        assert_eq!(m.load(), Marker);
    }

    #[test]
    fn odd_sizes_round_trip() {
        // 1, 3, 4, 12 and 17-byte payloads exercise the zero-padded tail.
        let c1 = ValueCell::new(0xABu8);
        assert_eq!(c1.load(), 0xAB);
        let c3 = ValueCell::new([1u8, 2, 3]);
        assert_eq!(c3.load(), [1, 2, 3]);
        let c4 = ValueCell::new(0xDEAD_BEEFu32);
        assert_eq!(c4.load(), 0xDEAD_BEEF);
        let c12 = ValueCell::new((7u32, 8u64));
        assert_eq!(c12.load(), (7, 8));
        let c17 = ValueCell::new([9u8; 17]);
        assert_eq!(c17.load(), [9u8; 17]);
    }

    /// A boxed-path twin of a `u64`: drop glue forces `Repr::Boxed`, while
    /// the payload semantics stay identical to the inline path.
    #[derive(Clone, PartialEq, Debug)]
    struct BoxedU64(u64);
    impl Drop for BoxedU64 {
        fn drop(&mut self) {}
    }

    #[test]
    fn inline_and_boxed_paths_agree() {
        let inline = ValueCell::new(0u64);
        let boxed = ValueCell::new(BoxedU64(0));
        assert!(inline.is_inline());
        assert!(!boxed.is_inline());
        for i in 1..=100u64 {
            inline.store(i);
            boxed.store(BoxedU64(i));
            assert_eq!(inline.load(), boxed.load().0);
        }
    }

    #[test]
    fn inline_and_boxed_paths_agree_under_contention() {
        const ROUNDS: u64 = 2000;
        let inline = Arc::new(ValueCell::new(0u64));
        let boxed = Arc::new(ValueCell::new(BoxedU64(0)));
        let writer = {
            let inline = Arc::clone(&inline);
            let boxed = Arc::clone(&boxed);
            std::thread::spawn(move || {
                for i in 1..=ROUNDS {
                    inline.store(i);
                    boxed.store(BoxedU64(i));
                }
            })
        };
        let reader = {
            let inline = Arc::clone(&inline);
            let boxed = Arc::clone(&boxed);
            std::thread::spawn(move || {
                let (mut last_i, mut last_b) = (0, 0);
                for _ in 0..ROUNDS {
                    let i = inline.load();
                    let b = boxed.load().0;
                    assert!(i >= last_i, "inline path went backwards: {i} < {last_i}");
                    assert!(b >= last_b, "boxed path went backwards: {b} < {last_b}");
                    last_i = i;
                    last_b = b;
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(inline.load(), ROUNDS);
        assert_eq!(boxed.load(), BoxedU64(ROUNDS));
    }

    #[test]
    fn store_is_visible_to_other_threads() {
        let c = Arc::new(ValueCell::new(0u64));
        let writer = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for i in 1..=1000 {
                    c.store(i);
                }
            })
        };
        let reader = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                let mut last = 0;
                for _ in 0..1000 {
                    let v = c.load();
                    assert!(v >= last, "values must be monotone: {v} < {last}");
                    last = v;
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(c.load(), 1000);
    }

    #[test]
    fn wide_inline_values_are_never_torn() {
        // All four words must always agree; a torn seqlock read would mix
        // rounds.
        let c = Arc::new(ValueCell::new([0u64; 4]));
        assert!(c.is_inline());
        let writer = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for i in 1..=4000u64 {
                    c.store([i; 4]);
                }
            })
        };
        let reader = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for _ in 0..4000 {
                    let v = c.load();
                    assert!(
                        v.windows(2).all(|w| w[0] == w[1]),
                        "torn inline read: {v:?}"
                    );
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
    }

    #[test]
    fn dropping_cell_drops_value() {
        struct Tracked(Arc<AtomicUsize>);
        impl Clone for Tracked {
            fn clone(&self) -> Self {
                Tracked(Arc::clone(&self.0))
            }
        }
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_add(1, AtomicOrdering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let cell = ValueCell::new(Tracked(Arc::clone(&drops)));
            drop(cell);
        }
        assert!(drops.load(AtomicOrdering::SeqCst) >= 1);
    }

    #[test]
    fn heavy_store_load_does_not_leak_wildly() {
        // Smoke test: epoch reclamation keeps up with churn on the boxed
        // path (1 KiB payloads would OOM quickly if retirement leaked).
        let c = ValueCell::new(vec![0u8; 1024]);
        for i in 0..10_000 {
            c.store(vec![(i % 256) as u8; 1024]);
        }
        assert_eq!(c.load()[0], ((10_000 - 1) % 256) as u8);
    }

    #[test]
    fn clone_semantics_preserved_on_inline_path() {
        // A dropless type whose Clone is observable: the inline path must
        // call it (via `assemble`) rather than bit-copying past it.
        static CLONES: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct CountsClones(u64);
        impl Clone for CountsClones {
            fn clone(&self) -> Self {
                CLONES.fetch_add(1, AtomicOrdering::SeqCst);
                CountsClones(self.0)
            }
        }
        let c = ValueCell::new(CountsClones(9));
        assert!(c.is_inline());
        let before = CLONES.load(AtomicOrdering::SeqCst);
        let v = c.load();
        assert_eq!(v.0, 9);
        assert_eq!(CLONES.load(AtomicOrdering::SeqCst), before + 1);
    }
}
