//! Concurrency stress suite for the epoch-based reclamation behind `TVar`
//! snapshots (`vendor/crossbeam`, wired through `ValueCell` — see
//! DESIGN.md §7).
//!
//! Four layers:
//!
//! 1. **Vendor-level churn** drives `epoch::Atomic` directly: writer threads
//!    swap-and-retire while reader threads dereference under held guards.
//! 2. **TVar-level churn** exercises the same machinery through the public
//!    STM API with a drop-counting canary payload.
//! 3. **The attempt's pin**: a transaction attempt pins once, at begin, and
//!    every way it can end unpins the thread — so a thread parked in
//!    `retry` never holds reclamation back.
//! 4. **Exhaustive interleaving model** enumerates every schedule of a
//!    pin/load/unpin vs. swap/retire/advance/collect program on the
//!    algorithm's state machine — two writers with a sealed-bag queue each,
//!    one of which exits and hands its queue over — and proves the
//!    two-epoch grace rule safe and the hand-over leak-free (and shows that
//!    a one-epoch grace period, or an exit without hand-over, is *not* — the
//!    model has teeth).
//!
//! Invariants asserted throughout:
//!
//! * (a) **no use-after-free** — a value reachable from a pinned snapshot is
//!   never dropped (canary magic + model check);
//! * (b) **no leak** — once the workers are joined, one `quiesce()` has
//!   dropped every retired value, exactly once.
//!
//! (b) is exact, not eventual, because the churn tests run one at a time:
//! `quiesce()` promises it only while no thread is pinned, and a sibling
//! test's thread descheduled inside a pin holds the epoch back for as long
//! as the scheduler pleases.
//!
//! Set `SHRINK_STRESS=1` (CI stress job) to raise thread counts and
//! iteration multipliers.

mod common;

use std::collections::HashSet;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use common::stress_factor;
use crossbeam::epoch::{self, Atomic, Owned};
use shrink::prelude::*;
use shrink::stm::{quiesce, TmError};

fn stress_threads(base: usize) -> usize {
    if stress_factor() > 1 {
        base * 2
    } else {
        base
    }
}

// ---------------------------------------------------------------- canary

const MAGIC: u64 = 0xA11C_E55E_D00D_FEED;
const POISON: u64 = 0xDEAD_DEAD_DEAD_DEAD;

/// Bookkeeping shared by every canary in one test run.
#[derive(Default)]
struct CanaryLedger {
    created: AtomicUsize,
    dropped: AtomicUsize,
}

impl CanaryLedger {
    fn live(&self) -> isize {
        // Read dropped first: a racing clone that bumps `created` between
        // the two loads can only make `live` look larger, never negative.
        let dropped = self.dropped.load(Ordering::SeqCst) as isize;
        let created = self.created.load(Ordering::SeqCst) as isize;
        created - dropped
    }
}

/// A payload whose clone and drop validate a magic word, so that a
/// use-after-free (clone of a poisoned value) or double free (drop of a
/// poisoned value) fails loudly, and whose drops are counted exactly.
struct Canary {
    magic: u64,
    value: u64,
    ledger: Arc<CanaryLedger>,
}

impl Canary {
    fn new(value: u64, ledger: &Arc<CanaryLedger>) -> Self {
        ledger.created.fetch_add(1, Ordering::SeqCst);
        Canary {
            magic: MAGIC,
            value,
            ledger: Arc::clone(ledger),
        }
    }

    fn check(&self) -> u64 {
        assert_eq!(
            self.magic, MAGIC,
            "use-after-free: observed a dropped canary (value {})",
            self.value
        );
        self.value
    }
}

impl Clone for Canary {
    fn clone(&self) -> Self {
        self.check();
        Canary::new(self.value, &self.ledger)
    }
}

impl Drop for Canary {
    fn drop(&mut self) {
        assert_eq!(
            self.magic, MAGIC,
            "double free: canary {} dropped twice",
            self.value
        );
        self.magic = POISON;
        self.ledger.dropped.fetch_add(1, Ordering::SeqCst);
    }
}

/// Held by every test that pins: see the module docs on invariant (b).
fn no_other_test_pins() -> MutexGuard<'static, ()> {
    static CHURN: Mutex<()> = Mutex::new(());
    CHURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Quiesces once and checks that the ledger then accounts for exactly
/// `expected_live` canaries. Call with every worker joined: a joined
/// thread has handed its bags over, so nothing retired is out of reach.
fn quiesce_leaves_live(ledger: &CanaryLedger, expected_live: isize) {
    quiesce();
    assert_eq!(
        ledger.live(),
        expected_live,
        "leak: canaries live after quiescence (created {}, dropped {})",
        ledger.created.load(Ordering::SeqCst),
        ledger.dropped.load(Ordering::SeqCst),
    );
}

// ------------------------------------------------- vendor-level Atomic churn

/// Writers swap-and-retire on a shared `epoch::Atomic` while readers
/// dereference the loaded pointer repeatedly under a *held* guard — the
/// rawest form of "a snapshot must outlive concurrent replacement".
#[test]
fn atomic_churn_with_held_guards() {
    let _alone = no_other_test_pins();
    let writers = stress_threads(2);
    let readers = stress_threads(2);
    let swaps_per_writer = 5_000 * stress_factor();

    let ledger = Arc::new(CanaryLedger::default());
    let slot = Arc::new(Atomic::new(Canary::new(0, &ledger)));
    let stop = Arc::new(AtomicBool::new(false));

    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let slot = Arc::clone(&slot);
            let ledger = Arc::clone(&ledger);
            std::thread::spawn(move || {
                for i in 0..swaps_per_writer {
                    let value = (w * swaps_per_writer + i) as u64;
                    let guard = epoch::pin();
                    let old = slot.swap(
                        Owned::new(Canary::new(value, &ledger)),
                        Ordering::AcqRel,
                        &guard,
                    );
                    // SAFETY: `old` was just swapped out; each swap returns
                    // a distinct previous pointer, so this thread is the
                    // unique retirer.
                    unsafe { guard.defer_destroy(old) };
                }
            })
        })
        .collect();

    let reader_handles: Vec<_> = (0..readers)
        .map(|_| {
            let slot = Arc::clone(&slot);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut observations = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let guard = epoch::pin();
                    let shared = slot.load(Ordering::Acquire, &guard);
                    // Hold the snapshot across repeated validation: the
                    // pointee must stay alive for as long as the guard does,
                    // however much the writers churn meanwhile.
                    for _ in 0..32 {
                        // SAFETY: loaded under `guard`, non-null (the slot
                        // is never emptied), alive while `guard` pins.
                        let v = unsafe { shared.deref() };
                        v.check();
                        std::hint::spin_loop();
                    }
                    observations += 1;
                    drop(guard);
                }
                observations
            })
        })
        .collect();

    for h in writer_handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = reader_handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0, "readers must have validated snapshots");

    // Exactly one canary (the currently installed one) may remain live.
    quiesce_leaves_live(&ledger, 1);
    drop(slot);
    quiesce_leaves_live(&ledger, 0);
    assert_eq!(
        ledger.created.load(Ordering::SeqCst),
        ledger.dropped.load(Ordering::SeqCst),
        "every retired canary must be dropped exactly once"
    );
}

// -------------------------------------------------------- TVar-level churn

/// N writer threads churn boxed `TVar`s through transactions while M reader
/// threads take snapshots (both transactional and not); afterwards the
/// ledger must balance exactly: retired == dropped, zero early drops.
fn tvar_churn(backend: BackendKind, writers: usize, readers: usize, iters_per_writer: usize) {
    const VARS: usize = 8;
    let _alone = no_other_test_pins();
    let rt = TmRuntime::builder()
        .backend(backend)
        .wait_policy(WaitPolicy::Preemptive)
        .build();
    let ledger = Arc::new(CanaryLedger::default());
    let vars: Arc<Vec<TVar<Canary>>> = Arc::new(
        (0..VARS)
            .map(|i| TVar::new(Canary::new(i as u64, &ledger)))
            .collect(),
    );
    // Canary has drop glue, so it must take the epoch-reclaimed boxed path.
    assert!(!vars[0].uses_inline_storage());
    let stop = Arc::new(AtomicBool::new(false));

    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let rt = rt.clone();
            let vars = Arc::clone(&vars);
            let ledger = Arc::clone(&ledger);
            std::thread::spawn(move || {
                for i in 0..iters_per_writer {
                    let var = &vars[(w + i) % VARS];
                    let value = (w * iters_per_writer + i) as u64;
                    rt.run(|tx| tx.write(var, Canary::new(value, &ledger)));
                }
            })
        })
        .collect();

    let reader_handles: Vec<_> = (0..readers)
        .map(|r| {
            let rt = rt.clone();
            let vars = Arc::clone(&vars);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut observations = 0u64;
                // A small window of held snapshots: clones whose canaries
                // must stay valid however long the reader keeps them.
                let mut held: Vec<Canary> = Vec::with_capacity(8);
                while !stop.load(Ordering::Relaxed) {
                    // Non-transactional single-variable snapshot.
                    let snap = vars[observations as usize % VARS].snapshot();
                    snap.check();
                    if held.len() == 8 {
                        held.remove(0);
                    }
                    held.push(snap);
                    // Transactional multi-variable snapshot.
                    if r % 2 == 0 {
                        let all: Vec<Canary> = rt.run(|tx| {
                            let mut out = Vec::with_capacity(VARS);
                            for v in vars.iter() {
                                out.push(tx.read(v)?);
                            }
                            Ok(out)
                        });
                        for c in &all {
                            c.check();
                        }
                    }
                    for c in &held {
                        c.check();
                    }
                    observations += 1;
                }
                observations
            })
        })
        .collect();

    for h in writer_handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = reader_handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0, "readers must have observed snapshots");

    // After quiescence exactly the VARS currently-installed canaries remain:
    // every replaced value was retired and dropped (no leak), and none of
    // the checks above ever saw a poisoned magic (no early drop).
    quiesce_leaves_live(&ledger, VARS as isize);
    drop(vars);
    quiesce_leaves_live(&ledger, 0);
    assert_eq!(
        ledger.created.load(Ordering::SeqCst),
        ledger.dropped.load(Ordering::SeqCst),
        "retired == dropped must hold exactly after final quiescence"
    );
}

#[test]
fn tvar_churn_swiss_4w_4r_10k() {
    tvar_churn(
        BackendKind::Swiss,
        stress_threads(4),
        stress_threads(4),
        10_000 * stress_factor(),
    );
}

#[test]
fn tvar_churn_tiny_4w_4r_10k() {
    tvar_churn(
        BackendKind::Tiny,
        stress_threads(4),
        stress_threads(4),
        10_000 * stress_factor(),
    );
}

// ------------------------------------------------------ the attempt's pin

/// Every way an attempt can end — commit, abort, panic, refusal of a
/// foreign `TVar`, a `retry` that parks, a future that suspends — leaves
/// the thread unpinned, on both transaction kinds where the ending exists.
#[test]
fn every_way_an_attempt_ends_leaves_the_thread_unpinned() {
    let _alone = no_other_test_pins();
    let rt = TmRuntime::builder()
        .retry_wait(Duration::from_millis(1))
        .build();
    let boxed = TVar::new(vec![1u64, 2, 3]);
    assert!(!epoch::is_pinned());

    let len = rt.run(|tx| {
        assert!(epoch::is_pinned(), "an attempt runs pinned");
        tx.read_with(&boxed, Vec::len)
    });
    assert_eq!(len, 3);
    assert!(!epoch::is_pinned(), "after a commit");
    let len = rt.read_only(|tx| {
        assert!(epoch::is_pinned(), "a read-only attempt runs pinned");
        tx.read_with(&boxed, Vec::len)
    });
    assert_eq!(len, 3);
    assert!(!epoch::is_pinned(), "after a read-only commit");

    let aborted: Result<(), _> = rt.run_budgeted(3, |tx| {
        tx.read(&boxed)?;
        tx.restart()
    });
    assert!(matches!(aborted, Err(TmError::RetryLimitExceeded { .. })));
    assert!(!epoch::is_pinned(), "after aborts");
    let restarted: Result<(), _> = rt.read_only_budgeted(3, |tx| {
        tx.read(&boxed)?;
        tx.restart()
    });
    assert!(matches!(restarted, Err(TmError::RetryLimitExceeded { .. })));
    assert!(!epoch::is_pinned(), "after read-only restarts");

    let panicked = catch_unwind(AssertUnwindSafe(|| {
        rt.run(|tx| -> TxResult<()> {
            tx.read(&boxed)?;
            panic!("body panics while pinned")
        })
    }));
    assert!(panicked.is_err());
    assert!(!epoch::is_pinned(), "after a panic");
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        rt.read_only(|tx| -> TxResult<()> {
            tx.read(&boxed)?;
            panic!("read-only body panics while pinned")
        })
    }));
    assert!(panicked.is_err());
    assert!(!epoch::is_pinned(), "after a read-only panic");

    let foreign = TmRuntime::new();
    let refused = foreign.run_budgeted(8, |tx| tx.read(&boxed));
    assert!(matches!(refused, Err(TmError::ForeignTVar { .. })));
    assert!(!epoch::is_pinned(), "after a refused foreign read");
    let refused = foreign.read_only_budgeted(8, |tx| tx.read(&boxed));
    assert!(matches!(refused, Err(TmError::ForeignTVar { .. })));
    assert!(
        !epoch::is_pinned(),
        "after a refused foreign read-only read"
    );

    let blocked: Result<(), _> =
        rt.run_with_deadline(Instant::now() + Duration::from_millis(5), |tx| {
            tx.read(&boxed)?;
            tx.retry()
        });
    assert!(matches!(blocked, Err(TmError::RetryTimeout { .. })));
    assert!(!epoch::is_pinned(), "after parking in retry");

    let gate = TVar::new(0u64);
    let mut suspended = atomically_async(&rt, |tx| {
        tx.read(&boxed)?;
        if tx.read(&gate)? == 0 {
            return tx.retry();
        }
        Ok(())
    });
    let mut cx = Context::from_waker(Waker::noop());
    assert!(Pin::new(&mut suspended).poll(&mut cx).is_pending());
    assert!(!epoch::is_pinned(), "after a future suspended");
    rt.run(|tx| tx.write(&gate, 1));
    assert!(matches!(
        Pin::new(&mut suspended).poll(&mut cx),
        Poll::Ready(())
    ));
    assert!(!epoch::is_pinned(), "after a resumed future committed");
}

/// A thread parked in `Tx::retry` holds no pin, so it cannot hold the
/// epoch back: while it sleeps, `quiesce()` frees every box another thread
/// retired.
#[test]
fn quiesce_frees_retired_boxes_while_a_thread_is_parked_in_retry() {
    let _alone = no_other_test_pins();
    let rt = TmRuntime::builder()
        .retry_wait(Duration::from_secs(60))
        .build();
    let ledger = Arc::new(CanaryLedger::default());
    let watched = TVar::new(Canary::new(0, &ledger));
    let churned = TVar::new(Canary::new(0, &ledger));

    let waiter = {
        let (rt, watched) = (rt.clone(), watched.clone());
        std::thread::spawn(move || {
            rt.run(|tx| {
                if tx.read_with(&watched, Canary::check)? == 0 {
                    return tx.retry();
                }
                Ok(())
            });
        })
    };
    // Registered on the waitlist (one variable, one bucket): its attempt,
    // and with it its pin, is over.
    while rt.retry_waiters() == 0 {
        std::thread::yield_now();
    }
    // The churn commits on a runtime of its own, so it cannot wake the
    // waiter through a shared waitlist bucket; the epoch collector is
    // process-global either way.
    let churner = {
        let (rt, churned, ledger) = (TmRuntime::new(), churned.clone(), Arc::clone(&ledger));
        std::thread::spawn(move || {
            for i in 1..=4 * 64 {
                rt.run(|tx| tx.write(&churned, Canary::new(i, &ledger)));
            }
        })
    };
    churner.join().unwrap();
    assert_eq!(rt.retry_waiters(), 1, "the waiter is still parked");
    // Live: the two installed canaries, nothing the churner retired.
    quiesce_leaves_live(&ledger, 2);
    assert_eq!(rt.retry_waiters(), 1, "the waiter slept through quiesce");

    rt.run(|tx| tx.write(&watched, Canary::new(1, &ledger)));
    waiter.join().unwrap();
    drop((watched, churned));
    quiesce_leaves_live(&ledger, 0);
}

// ------------------------------------------- exhaustive interleaving model

/// Abstract state of the epoch algorithm: two readers running
/// `pin → load → unpin` twice; writer 0 running
/// `swap → retire → maintain` twice and then exiting; writer 1 (the
/// survivor) running `swap → retire → maintain` once. Generations 0..=3
/// identify values (generation 0 is installed initially).
///
/// `reachable[r]` is the stale-visibility set: the generations reader `r`'s
/// next load may return — the generation current at pin time plus anything
/// installed afterwards (pin publication is a sequentially consistent
/// barrier, so anything unlinked *before* the pin is invisible).
///
/// Each writer retires onto a queue of its own and `maintain` (try_advance,
/// then collect) pops only the ready prefix of the caller's queue, plus
/// whatever is ready on the orphan queue, which holds the queue of the
/// writer that exited.
#[derive(Clone, PartialEq, Eq, Hash)]
struct ModelState {
    /// Readers 0 and 1, then writers 0 and 1.
    pcs: [usize; 4],
    epoch: u8,
    /// `Some(e)` = pinned at epoch `e`.
    pins: [Option<u8>; 2],
    /// Generation currently installed in the atomic.
    current: u8,
    /// Bitmask of generations reader `r` may still load.
    reachable: [u8; 2],
    /// Generation a reader has loaded and may still dereference.
    held: [Option<u8>; 2],
    /// Generation writer `w` has swapped out and not yet retired.
    unlinked: [Option<u8>; 2],
    /// Writer `w`'s retired (generation, epoch-tag) pairs, oldest first.
    queues: [Vec<(u8, u8)>; 2],
    /// What writer 0 handed over when it exited.
    orphans: Vec<(u8, u8)>,
    /// Bitmask of freed generations.
    freed: u8,
}

const READER_OPS: usize = 6; // (pin, load, unpin) × 2
const LEAVER_OPS: usize = 7; // (swap, retire, maintain) × 2, exit
const SURVIVOR_OPS: usize = 3; // (swap, retire, maintain) × 1
const WRITER_OPS: [usize; 2] = [LEAVER_OPS, SURVIVOR_OPS];
const GENERATIONS: u8 = 4;

/// The knobs the meta-checks turn; the shipped algorithm is
/// `Model { grace: 2, hand_over: true }`.
#[derive(Clone, Copy)]
struct Model {
    /// Epoch steps a retired generation must age before collection.
    grace: u8,
    /// Whether an exiting writer moves its queue to the orphan queue.
    hand_over: bool,
}

impl Model {
    /// Frees the ready prefix of `queue`. The prefix is all of the ready
    /// entries because tags never decrease along a queue, which `explore`
    /// checks in every state.
    fn collect_prefix(self, queue: &mut Vec<(u8, u8)>, epoch: u8, freed: &mut u8) {
        let ready = queue
            .iter()
            .take_while(|&&(_, tag)| tag + self.grace <= epoch)
            .count();
        for (gen, _) in queue.drain(..ready) {
            *freed |= 1 << gen;
        }
    }

    /// What writer `w`'s collect does at `state.epoch`: its own queue and
    /// the orphans, never the other writer's queue.
    fn collect(self, state: &mut ModelState, w: usize) {
        let epoch = state.epoch;
        self.collect_prefix(&mut state.queues[w], epoch, &mut state.freed);
        self.collect_prefix(&mut state.orphans, epoch, &mut state.freed);
    }

    /// Explores every interleaving; returns an error description if any
    /// schedule violates an invariant, else the number of states.
    fn explore(self) -> Result<usize, String> {
        let grace = self.grace;
        let initial = ModelState {
            pcs: [0; 4],
            epoch: 0,
            pins: [None, None],
            current: 0,
            reachable: [0, 0],
            held: [None, None],
            unlinked: [None, None],
            queues: [Vec::new(), Vec::new()],
            orphans: Vec::new(),
            freed: 0,
        };
        let mut seen: HashSet<ModelState> = HashSet::new();
        let mut stack = vec![initial];
        let mut explored = 0usize;
        while let Some(state) = stack.pop() {
            if !seen.insert(state.clone()) {
                continue;
            }
            explored += 1;

            // Safety invariant (a): a generation held under a live pin is
            // never freed.
            for r in 0..2 {
                if let (Some(gen), Some(_)) = (state.held[r], state.pins[r]) {
                    if state.freed & (1 << gen) != 0 {
                        return Err(format!(
                            "use-after-free: reader {r} holds freed generation {gen} \
                             (epoch {}, grace {grace})",
                            state.epoch
                        ));
                    }
                }
            }
            // Popping only the front of a queue is complete.
            for queue in state.queues.iter().chain([&state.orphans]) {
                if queue.windows(2).any(|pair| pair[0].1 > pair[1].1) {
                    return Err(format!("epoch tags decrease along a queue: {queue:?}"));
                }
            }

            let terminal = state.pcs[..2].iter().all(|&pc| pc == READER_OPS)
                && state.pcs[2] == LEAVER_OPS
                && state.pcs[3] == SURVIVOR_OPS;
            if terminal {
                // Liveness invariant (b): with everyone unpinned and the
                // leaver gone, the survivor's quiescing sweep (advance +
                // collect until stable) frees every retired generation.
                let mut s = state.clone();
                for _ in 0..8 {
                    s.epoch += 1;
                    self.collect(&mut s, 1);
                }
                let stranded: Vec<_> = s.queues.iter().flatten().chain(&s.orphans).collect();
                if !stranded.is_empty() {
                    return Err(format!(
                        "leak: generations {stranded:?} never freed after quiescence"
                    ));
                }
                continue;
            }

            // Reader transitions.
            for r in 0..2 {
                let pc = state.pcs[r];
                if pc == READER_OPS {
                    continue;
                }
                match pc % 3 {
                    // pin: publish at the current epoch (the implementation's
                    // publish-and-revalidate loop makes this atomic).
                    0 => {
                        let mut next = state.clone();
                        next.pins[r] = Some(state.epoch);
                        next.reachable[r] = 1 << state.current;
                        next.pcs[r] += 1;
                        stack.push(next);
                    }
                    // load: nondeterministically observe any reachable
                    // generation (current or stale-but-unlinked-after-pin).
                    1 => {
                        for gen in 0..GENERATIONS {
                            if state.reachable[r] & (1 << gen) == 0 {
                                continue;
                            }
                            if state.freed & (1 << gen) != 0 {
                                return Err(format!(
                                    "stale load of freed generation {gen} by reader {r} \
                                     (grace {grace})"
                                ));
                            }
                            let mut next = state.clone();
                            next.held[r] = Some(gen);
                            next.pcs[r] += 1;
                            stack.push(next);
                        }
                    }
                    // unpin: the held value may no longer be dereferenced.
                    _ => {
                        let mut next = state.clone();
                        next.pins[r] = None;
                        next.held[r] = None;
                        next.reachable[r] = 0;
                        next.pcs[r] += 1;
                        stack.push(next);
                    }
                }
            }

            // Writer transitions.
            for (w, &ops) in WRITER_OPS.iter().enumerate() {
                let pc = state.pcs[2 + w];
                if pc == ops {
                    continue;
                }
                let mut next = state.clone();
                next.pcs[2 + w] += 1;
                match pc {
                    // exit: hand the queue over; nobody pops it again.
                    6 => {
                        if self.hand_over {
                            let left = std::mem::take(&mut next.queues[w]);
                            next.orphans.extend(left);
                        }
                    }
                    // swap: install the next generation; the previous one
                    // stays reachable (stale) to currently pinned readers.
                    0 | 3 => {
                        next.unlinked[w] = Some(state.current);
                        next.current = state.current + 1;
                        for r in 0..2 {
                            if next.pins[r].is_some() {
                                next.reachable[r] |= 1 << next.current;
                            }
                        }
                    }
                    // retire the just-unlinked generation onto the writer's
                    // own queue, tagged with the epoch current at (or
                    // after) unlink time.
                    1 | 4 => {
                        let gen = next.unlinked[w].take().expect("retire follows swap");
                        next.queues[w].push((gen, state.epoch));
                    }
                    // maintain = try_advance + collect: advance only if
                    // every pinned participant is pinned at the current
                    // epoch, then free sufficiently aged retirees of the
                    // caller (and of exited threads). The attempt is
                    // consumed either way (matching `try_advance`).
                    _ => {
                        let all_current = next
                            .pins
                            .iter()
                            .flatten()
                            .all(|&pinned_at| pinned_at == next.epoch);
                        if all_current {
                            next.epoch += 1;
                        }
                        self.collect(&mut next, w);
                    }
                }
                stack.push(next);
            }
        }
        Ok(explored)
    }
}

/// The shipped algorithm (two-epoch grace, per-writer queues, exit
/// hand-over) is safe and leak-free across every interleaving of two
/// pinning readers, a retiring writer that exits, and one that survives.
#[test]
fn model_two_epoch_grace_is_safe_across_all_interleavings() {
    let shipped = Model {
        grace: 2,
        hand_over: true,
    };
    let explored = shipped
        .explore()
        .unwrap_or_else(|violation| panic!("{violation}"));
    // Sanity: the enumeration is genuinely exhaustive, not trivially small.
    assert!(
        explored > 100_000,
        "model explored only {explored} states — enumeration is broken"
    );
}

/// Meta-check that the model can actually detect unsafety: a one-epoch
/// grace period admits a use-after-free schedule (reader pinned at epoch e
/// still holds a value retired at e when the epoch reaches e+1).
#[test]
fn model_one_epoch_grace_is_unsafe() {
    let violation = Model {
        grace: 1,
        hand_over: true,
    }
    .explore()
    .expect_err("one-epoch grace must admit a violation");
    assert!(
        violation.contains("freed generation") || violation.contains("use-after-free"),
        "unexpected violation kind: {violation}"
    );
}

/// Meta-check on the liveness half: if an exiting writer kept its queue to
/// itself, what it had not freed yet would never be.
#[test]
fn model_exit_without_hand_over_leaks() {
    let violation = Model {
        grace: 2,
        hand_over: false,
    }
    .explore()
    .expect_err("a queue nobody pops must be reported");
    assert!(violation.starts_with("leak:"), "{violation}");
}
