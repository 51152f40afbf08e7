//! Heap allocations per transaction, counted by a global allocator.
//!
//! In steady state the read-write and read-only paths allocate nothing for
//! their logs: every thread's logs are reused across attempts, the write
//! log stores values unboxed, and the write index is a reused table. The
//! one allocation left is the box a write of a boxed value (`Vec`,
//! `String`, ...) puts its value in — the box the commit then moves into
//! the cell — plus, amortised, the epoch collector sealing a garbage bag
//! every 64 retired values.
//!
//! A read through `read_with` borrows the value where it lies — a boxed
//! value included — so it allocates nothing either; `read` allocates
//! whatever cloning the value allocates.
//!
//! The counter is a const-initialised thread-local, so it counts only the
//! calling thread: tests running in parallel cannot disturb each other.
//! Run it in release too (`cargo test --release --test tx_alloc`): the
//! optimiser may change what allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use shrink::prelude::*;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also serves threads being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialised thread-local without a destructor, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Transactions per measurement, after as many warm-up runs.
const ROUNDS: u64 = 1024;

/// Heap allocations `op` makes on this thread over `ROUNDS` calls, after
/// `ROUNDS` warm-up calls (thread registration, epoch pinning, log and
/// index capacity).
fn allocations(mut op: impl FnMut(u64)) -> u64 {
    for i in 0..ROUNDS {
        op(i);
    }
    let before = ALLOCS.with(Cell::get);
    for i in 0..ROUNDS {
        op(i);
    }
    ALLOCS.with(Cell::get) - before
}

#[test]
fn empty_run_allocates_nothing() {
    let rt = TmRuntime::new();
    assert_eq!(allocations(|_| rt.run(|_| Ok(()))), 0);
}

#[test]
fn two_read_run_allocates_nothing() {
    let rt = TmRuntime::new();
    let (a, b) = (TVar::new(1u64), TVar::new(2u64));
    let n = allocations(|_| {
        let sum = rt.run(|tx| Ok(tx.read(&a)? + tx.read(&b)?));
        assert_eq!(sum, 3);
    });
    assert_eq!(n, 0);
}

#[test]
fn two_read_read_only_allocates_nothing() {
    let rt = TmRuntime::new();
    let (a, b) = (TVar::new(1u64), TVar::new(2u64));
    let n = allocations(|_| {
        let sum = rt.read_only(|tx| Ok(tx.read(&a)? + tx.read(&b)?));
        assert_eq!(sum, 3);
    });
    assert_eq!(n, 0);
}

#[test]
fn two_write_run_allocates_nothing() {
    let rt = TmRuntime::new();
    let (a, b) = (TVar::new(0u64), TVar::new(0u64));
    let n = allocations(|i| {
        rt.run(|tx| {
            tx.write(&a, i)?;
            tx.write(&b, i + 1)
        });
    });
    assert_eq!(n, 0);
    assert_eq!((a.snapshot(), b.snapshot()), (ROUNDS - 1, ROUNDS));
}

#[test]
fn boxed_write_allocates_only_its_box() {
    let rt = TmRuntime::new();
    let v = TVar::new(vec![0u64; 4]);
    // The body's `vec!` is the caller's own value (one allocation); the
    // transaction adds the box that commit moves into the cell, and at
    // most one bag seal per 64 retired values.
    let n = allocations(|i| rt.run(|tx| tx.write(&v, vec![i; 4])));
    let beyond_value = n - ROUNDS;
    assert!(
        (ROUNDS..=ROUNDS + ROUNDS / 64).contains(&beyond_value),
        "{beyond_value} allocations over {ROUNDS} boxed writes"
    );
    assert_eq!(v.snapshot(), vec![ROUNDS - 1; 4]);
}

/// Two boxed vectors, read in place or cloned out.
fn vectors() -> (TVar<Vec<u64>>, TVar<Vec<u64>>) {
    (TVar::new(vec![1u64; 8]), TVar::new(vec![2u64; 8]))
}

fn first_sum_in_place(
    tx: &mut impl TxRead,
    a: &TVar<Vec<u64>>,
    b: &TVar<Vec<u64>>,
) -> TxResult<u64> {
    Ok(tx.read_with(a, |v| v[0])? + tx.read_with(b, |v| v[0])?)
}

fn first_sum_of_clones(
    tx: &mut impl TxRead,
    a: &TVar<Vec<u64>>,
    b: &TVar<Vec<u64>>,
) -> TxResult<u64> {
    Ok(tx.read(a)?[0] + tx.read(b)?[0])
}

#[test]
fn two_boxed_read_with_run_allocates_nothing() {
    let rt = TmRuntime::new();
    let (a, b) = vectors();
    let n = allocations(|_| assert_eq!(rt.run(|tx| first_sum_in_place(tx, &a, &b)), 3));
    assert_eq!(n, 0);
}

#[test]
fn two_boxed_read_with_read_only_allocates_nothing() {
    let rt = TmRuntime::new();
    let (a, b) = vectors();
    let n = allocations(|_| assert_eq!(rt.read_only(|tx| first_sum_in_place(tx, &a, &b)), 3));
    assert_eq!(n, 0);
}

#[test]
fn two_boxed_reads_allocate_their_two_clones() {
    let rt = TmRuntime::new();
    let (a, b) = vectors();
    let n = allocations(|_| assert_eq!(rt.run(|tx| first_sum_of_clones(tx, &a, &b)), 3));
    assert_eq!(n, 2 * ROUNDS, "run");
    let n = allocations(|_| assert_eq!(rt.read_only(|tx| first_sum_of_clones(tx, &a, &b)), 3));
    assert_eq!(n, 2 * ROUNDS, "read_only");
}
