//! Correctness of the composable blocking API (`Tx::retry` / `Tx::or_else`,
//! DESIGN.md §9):
//!
//! * **checkpoint isolation** — writes made by a retried `or_else` branch
//!   never become visible, at any nesting depth, even when the branch
//!   overwrote values written before it (property-tested against a pure
//!   model, over an inline and a boxed value type);
//! * **read-set union** — a retry escaping both branches parks on the union
//!   of both read sets: a commit touching only the *second* branch's reads
//!   must wake it;
//! * **no lost wakeups** — producers and consumers hammering blocking
//!   queues and counters with a retry deadline far beyond the test length:
//!   a lost wakeup hangs the join (and trips the harness timeout) instead
//!   of flaking an assertion;
//! * **parked, not polling** — a blocked consumer's wait-op counters show
//!   parked futex waits and no transaction re-runs while nothing changed.
//!
//! Set `SHRINK_STRESS=1` (CI stress job) to raise thread counts and volume.

mod common;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use common::stress_factor;
use shrink::prelude::*;
use shrink::stm::TxValue;

/// A runtime whose retry deadline is far beyond the test length: a lost
/// wakeup hangs instead of being papered over by deadline revalidation.
fn hang_on_lost_wakeup_runtime() -> TmRuntime {
    TmRuntime::builder()
        .retry_wait(Duration::from_secs(120))
        .build()
}

// ---------------------------------------------------------------------------
// Checkpoint isolation, property-tested against a pure model.
// ---------------------------------------------------------------------------

/// One `or_else` alternative in a right-associated chain. Each segment
/// writes some variables, then runs a *nested* `or_else` of its own (whose
/// first branch may retry), then either commits or retries the whole
/// segment.
#[derive(Clone, Debug)]
struct Segment {
    writes: Vec<(usize, u64)>,
    inner_first: Vec<(usize, u64)>,
    inner_first_retries: bool,
    inner_second: Vec<(usize, u64)>,
    retries: bool,
}

fn segment_strategy(vars: usize) -> impl Strategy<Value = Segment> {
    let writes = proptest::collection::vec((0..vars, 0u64..1000), 0..4);
    let inner1 = proptest::collection::vec((0..vars, 0u64..1000), 0..3);
    let inner2 = proptest::collection::vec((0..vars, 0u64..1000), 0..3);
    (writes, inner1, any::<bool>(), inner2, any::<bool>()).prop_map(
        |(writes, inner_first, inner_first_retries, inner_second, retries)| Segment {
            writes,
            inner_first,
            inner_first_retries,
            inner_second,
            retries,
        },
    )
}

/// A value type the model test runs over: `u64` takes the cells' inline
/// path, `Box<u64>` the boxed one (and with it the write log's boxed
/// entries and moved-out undo records).
trait Val: TxValue + From<u64> + PartialEq + std::fmt::Debug {}
impl<V: TxValue + From<u64> + PartialEq + std::fmt::Debug> Val for V {}

/// Runs one segment transactionally: its writes, then its nested or_else.
fn run_segment<V: Val>(tx: &mut Tx<'_>, vars: &[TVar<V>], seg: &Segment) -> TxResult<()> {
    for &(v, val) in &seg.writes {
        tx.write(&vars[v], V::from(val))?;
    }
    tx.or_else(
        |tx| {
            for &(v, val) in &seg.inner_first {
                tx.write(&vars[v], V::from(val))?;
            }
            if seg.inner_first_retries {
                tx.retry()
            } else {
                Ok(())
            }
        },
        |tx| {
            for &(v, val) in &seg.inner_second {
                tx.write(&vars[v], V::from(val))?;
            }
            Ok(())
        },
    )
}

/// Runs the right-associated `or_else` chain; returns the winning index.
fn run_chain<V: Val>(tx: &mut Tx<'_>, vars: &[TVar<V>], segs: &[Segment]) -> TxResult<usize> {
    let (first, rest) = segs.split_first().expect("chain is non-empty");
    if rest.is_empty() {
        run_segment(tx, vars, first)?;
        return Ok(0);
    }
    tx.or_else(
        |tx| {
            run_segment(tx, vars, first)?;
            if first.retries {
                tx.retry()
            } else {
                Ok(0)
            }
        },
        |tx| run_chain(tx, vars, rest).map(|i| i + 1),
    )
}

/// Applies one segment to the pure model (a map of pending writes).
fn model_segment(state: &mut HashMap<usize, u64>, seg: &Segment) {
    for &(v, val) in &seg.writes {
        state.insert(v, val);
    }
    // The nested or_else: the first branch's writes count only if it does
    // not retry; otherwise the second branch runs on the pre-branch state.
    if seg.inner_first_retries {
        for &(v, val) in &seg.inner_second {
            state.insert(v, val);
        }
    } else {
        for &(v, val) in &seg.inner_first {
            state.insert(v, val);
        }
    }
}

/// The model outcome of the whole chain: the first segment that commits
/// wins; everything a retried segment did is discarded.
fn model_chain(segs: &[Segment]) -> (HashMap<usize, u64>, usize) {
    for (i, seg) in segs.iter().enumerate() {
        let last = i == segs.len() - 1;
        if !seg.retries || last {
            let mut state = HashMap::new();
            model_segment(&mut state, seg);
            return (state, i);
        }
    }
    unreachable!("loop returns at the last segment");
}

/// Runs prefix writes plus the chain over six `TVar<V>`s and compares the
/// committed state with the model.
fn check_chain<V: Val>(prefix: &[(usize, u64)], segs: &[Segment]) -> Result<(), TestCaseError> {
    let rt = TmRuntime::new();
    let vars: Vec<TVar<V>> = (0..6).map(|_| TVar::new(V::from(u64::MAX))).collect();
    let winner = rt.run(|tx| {
        for &(v, val) in prefix {
            tx.write(&vars[v], V::from(val))?;
        }
        run_chain(tx, &vars, segs)
    });

    // Model: prefix writes, then the winning segment on top.
    let mut expected: HashMap<usize, u64> = HashMap::new();
    for &(v, val) in prefix {
        expected.insert(v, val);
    }
    let (winner_state, expected_winner) = model_chain(segs);
    for (v, val) in winner_state {
        expected.insert(v, val);
    }
    prop_assert_eq!(winner, expected_winner);
    for (i, var) in vars.iter().enumerate() {
        let expected_val = V::from(expected.get(&i).copied().unwrap_or(u64::MAX));
        prop_assert!(
            var.snapshot() == expected_val,
            "var {} diverged from the model (winner {}): {:?} != {:?}",
            i,
            winner,
            var.snapshot(),
            expected_val
        );
    }
    prop_assert!(rt.stats().aborts == 0, "or_else handles retries inline");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Writes in a retried branch never leak — at either nesting level —
    /// and overwrites of pre-branch writes are rolled back exactly.
    #[test]
    fn retried_branch_writes_never_leak(
        prefix in proptest::collection::vec((0usize..6, 0u64..1000), 0..4),
        segs in proptest::collection::vec(segment_strategy(6), 1..5),
    ) {
        let mut segs = segs;
        // The final alternative must commit, or the whole transaction
        // blocks (that path is exercised by the wakeup tests below).
        segs.last_mut().expect("non-empty").retries = false;

        check_chain::<u64>(&prefix, &segs)?;
        check_chain::<Box<u64>>(&prefix, &segs)?;
    }

    /// try_push/try_pop round-trips preserve queue contents exactly (the
    /// or_else-composed non-blocking API against a VecDeque model).
    #[test]
    fn queue_matches_model_under_try_ops(
        ops in proptest::collection::vec((any::<bool>(), 0u64..100), 1..60),
        capacity in 1usize..6,
    ) {
        let rt = TmRuntime::new();
        let q: TxQueue<u64> = TxQueue::new(capacity);
        let mut model: std::collections::VecDeque<u64> = Default::default();
        for (is_push, val) in ops {
            if is_push {
                let accepted = atomically(&rt, |tx| q.try_push(tx, val));
                prop_assert_eq!(accepted, model.len() < capacity);
                if accepted {
                    model.push_back(val);
                }
            } else {
                let got = atomically(&rt, |tx| q.try_pop(tx));
                prop_assert_eq!(got, model.pop_front());
            }
            prop_assert_eq!(atomically(&rt, |tx| q.len(tx)), model.len());
        }
        prop_assert!(rt.stats().retry_waits == 0, "try ops never park");
    }
}

// ---------------------------------------------------------------------------
// Read-set union and wakeup semantics.
// ---------------------------------------------------------------------------

/// A retry escaping both `or_else` branches parks on the union of both
/// read sets: writing only the variable the *second* branch read must wake
/// the transaction.
#[test]
fn double_retry_parks_on_the_union_of_both_read_sets() {
    let rt = hang_on_lost_wakeup_runtime();
    let a: TVar<u64> = TVar::new(0);
    let b: TVar<u64> = TVar::new(0);
    let blocked = {
        let rt = rt.clone();
        let a = a.clone();
        let b = b.clone();
        std::thread::spawn(move || {
            rt.run(|tx| {
                tx.or_else(
                    |tx| {
                        if tx.read(&a)? == 0 {
                            return tx.retry();
                        }
                        Ok("first")
                    },
                    |tx| {
                        if tx.read(&b)? == 0 {
                            return tx.retry();
                        }
                        Ok("second")
                    },
                )
            })
        })
    };
    while rt.retry_stats().parked_waits == 0 {
        std::thread::yield_now();
    }
    // Wake via the SECOND branch's variable only.
    rt.run(|tx| tx.write(&b, 1));
    assert_eq!(blocked.join().unwrap(), "second");
    assert!(rt.retry_stats().woken >= 1, "{:?}", rt.retry_stats());
}

/// While nothing changes, a parked consumer re-runs nothing: no aborts, no
/// extra attempts, exactly one parked wait-op — the "0 yield-polls" proof.
#[test]
fn a_blocked_consumer_is_parked_not_polling() {
    let rt = hang_on_lost_wakeup_runtime();
    let v: TVar<u64> = TVar::new(0);
    let consumer = {
        let rt = rt.clone();
        let v = v.clone();
        std::thread::spawn(move || {
            rt.run(|tx| {
                let x = tx.read(&v)?;
                if x == 0 {
                    return tx.retry();
                }
                Ok(x)
            })
        })
    };
    while rt.retry_stats().parked_waits == 0 {
        std::thread::yield_now();
    }
    // Give a poller every chance to spin; a parked thread does nothing.
    std::thread::sleep(Duration::from_millis(100));
    let stats = rt.stats();
    let waits = rt.retry_stats();
    assert_eq!(stats.retry_waits, 1, "exactly one retry round entered");
    assert_eq!(stats.aborts, 0, "no conflict aborts while parked");
    assert_eq!(waits.parked_waits, 1, "exactly one parked wait-op");
    assert_eq!(waits.timed_out, 0, "the deadline is far away");
    assert_eq!(
        stats.commits, 0,
        "a parked consumer commits nothing while blocked"
    );
    rt.run(|tx| tx.write(&v, 3));
    assert_eq!(consumer.join().unwrap(), 3);
    assert!(rt.retry_stats().woken >= 1);
}

// ---------------------------------------------------------------------------
// Lost-wakeup hammers (the per-stripe mirror of tests/eventcount.rs).
// ---------------------------------------------------------------------------

/// Counter hammer: consumers ride a TVar from 0 to the target with
/// effectively unbounded retry waits while producers race increments. A
/// lost per-stripe wakeup leaves a consumer parked forever and hangs the
/// join.
#[test]
fn counter_hammer_loses_no_wakeups() {
    let producers = 2 * stress_factor();
    let consumers = 2 * stress_factor();
    let increments_per_producer = 200 * stress_factor() as u64;
    let target = producers as u64 * increments_per_producer;

    let rt = hang_on_lost_wakeup_runtime();
    let counter: TVar<u64> = TVar::new(0);

    let consumer_handles: Vec<_> = (0..consumers)
        .map(|_| {
            let rt = rt.clone();
            let counter = counter.clone();
            std::thread::spawn(move || {
                let mut seen = 0u64;
                let mut wakes = 0u64;
                while seen != target {
                    // Block until the counter moves past what we saw.
                    let now = rt.run(|tx| {
                        let v = tx.read(&counter)?;
                        if v <= seen {
                            return tx.retry();
                        }
                        Ok(v)
                    });
                    assert!(now > seen, "blocking read must return progress");
                    seen = now;
                    wakes += 1;
                }
                wakes
            })
        })
        .collect();

    let producer_handles: Vec<_> = (0..producers)
        .map(|_| {
            let rt = rt.clone();
            let counter = counter.clone();
            std::thread::spawn(move || {
                for i in 0..increments_per_producer {
                    rt.run(|tx| tx.modify(&counter, |v| v + 1));
                    if i % 64 == 0 {
                        // Let consumers actually park now and then, so the
                        // hammer exercises the sleep path and not only the
                        // value-already-moved fast path.
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();

    for h in producer_handles {
        h.join().unwrap();
    }
    assert_eq!(counter.snapshot(), target, "every increment must land");
    for h in consumer_handles {
        let wakes = h.join().unwrap();
        assert!(wakes > 0, "each consumer must have blocked at least once");
    }
    let waits = rt.retry_stats();
    assert!(
        waits.parked_waits > 0,
        "hammer never parked — too small to test anything: {waits:?}"
    );
    assert_eq!(
        waits.timed_out, 0,
        "no wait may hit the 120 s deadline: a timeout here is a lost wakeup"
    );
}

/// Queue hammer: both blocking directions at once — producers park on a
/// full queue, consumers on an empty one, through a capacity far smaller
/// than the volume. Exact conservation of count and sum at the end.
#[test]
fn queue_hammer_conserves_items_and_loses_no_wakeups() {
    let producers = 2 * stress_factor();
    let consumers = 2 * stress_factor();
    let items_per_producer = 250 * stress_factor() as u64;
    let total = producers as u64 * items_per_producer;
    assert_eq!(total % consumers as u64, 0, "test setup: even split");
    let items_per_consumer = total / consumers as u64;

    let rt = hang_on_lost_wakeup_runtime();
    let q: Arc<TxQueue<u64>> = Arc::new(TxQueue::new(4));

    let consumer_handles: Vec<_> = (0..consumers)
        .map(|_| {
            let rt = rt.clone();
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut sum = 0u64;
                for _ in 0..items_per_consumer {
                    sum += rt.run(|tx| q.pop(tx));
                }
                sum
            })
        })
        .collect();
    let producer_handles: Vec<_> = (0..producers)
        .map(|p| {
            let rt = rt.clone();
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut sum = 0u64;
                for i in 0..items_per_producer {
                    let v = (p as u64) << 32 | i;
                    rt.run(|tx| q.push(tx, v));
                    sum += v;
                }
                sum
            })
        })
        .collect();

    let pushed: u64 = producer_handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .sum();
    let popped: u64 = consumer_handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .sum();
    assert_eq!(pushed, popped, "every item exactly once, by value sum");
    assert!(
        q.drain_snapshot().is_empty(),
        "exact counts drain the queue"
    );
    let waits = rt.retry_stats();
    assert!(
        waits.parked_waits > 0,
        "hammer must actually block: {waits:?}"
    );
    assert_eq!(waits.timed_out, 0, "a deadline hit here is a lost wakeup");
}

/// The composable API under a real scheduler: the pipeline shape (pop from
/// one queue, push to the next, one transaction) with Shrink installed,
/// exercising the `RetryWait` release paths under contention.
#[test]
fn pipeline_hops_work_under_the_shrink_scheduler() {
    let hops = 3usize;
    let items = 300 * stress_factor() as u64;
    let rt = TmRuntime::builder()
        .retry_wait(Duration::from_secs(120))
        .scheduler(Shrink::new(ShrinkConfig::default()))
        .build();
    let queues: Vec<Arc<TxQueue<u64>>> = (0..hops + 1).map(|_| Arc::new(TxQueue::new(8))).collect();

    let movers: Vec<_> = (0..hops)
        .map(|h| {
            let rt = rt.clone();
            let from = Arc::clone(&queues[h]);
            let to = Arc::clone(&queues[h + 1]);
            std::thread::spawn(move || {
                for _ in 0..items {
                    rt.run(|tx| {
                        let v = from.pop(tx)?;
                        to.push(tx, v + 1)
                    });
                }
            })
        })
        .collect();

    let sink = {
        let rt = rt.clone();
        let last = Arc::clone(&queues[hops]);
        std::thread::spawn(move || {
            let mut sum = 0u64;
            for _ in 0..items {
                sum += rt.run(|tx| last.pop(tx));
            }
            sum
        })
    };

    for i in 0..items {
        rt.run(|tx| queues[0].push(tx, i));
    }
    for m in movers {
        m.join().unwrap();
    }
    let sum = sink.join().unwrap();
    let expected: u64 = (0..items).map(|i| i + hops as u64).sum();
    assert_eq!(sum, expected, "each item gains exactly one per hop");
    assert_eq!(
        rt.retry_stats().timed_out,
        0,
        "no lost wakeups under Shrink"
    );
}

// ---------------------------------------------------------------------------
// Sync/async interop: thread-parked and future-suspended waiters share the
// same per-stripe buckets, so one commit must wake both kinds (DESIGN.md §12).
// ---------------------------------------------------------------------------

/// Deterministic mixed wake: a thread parked in `Tx::retry` and a suspended
/// `TxFuture` watch the same stripe. The committer waits until *both* are
/// registered (single TVar → one bucket → the runtime's waiter count is
/// exact), then commits once; the thread must return and the future must
/// receive its waker.
#[test]
fn one_commit_wakes_a_parked_thread_and_a_suspended_future() {
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::task::{Context, Poll, Wake, Waker};

    #[derive(Default)]
    struct CountingWaker(AtomicU64);
    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    let rt = hang_on_lost_wakeup_runtime();
    let gate: TVar<u64> = TVar::new(0);

    // Future side, suspended by hand.
    let counter = Arc::new(CountingWaker::default());
    let waker = Waker::from(Arc::clone(&counter));
    let mut cx = Context::from_waker(&waker);
    let mut fut = {
        let gate = gate.clone();
        atomically_async(&rt, move |tx| {
            let v = tx.read(&gate)?;
            if v == 0 {
                return tx.retry();
            }
            Ok(v)
        })
    };
    assert!(matches!(
        Pin::new(&mut fut).poll(&mut cx),
        std::task::Poll::Pending
    ));
    assert_eq!(rt.retry_waiters(), 1, "future registered");

    // Thread side.
    let parked = {
        let rt = rt.clone();
        let gate = gate.clone();
        std::thread::spawn(move || {
            rt.run(|tx| {
                let v = tx.read(&gate)?;
                if v == 0 {
                    return tx.retry();
                }
                Ok(v)
            })
        })
    };
    while rt.retry_waiters() < 2 {
        std::thread::yield_now();
    }

    // One commit, both waiters.
    rt.run(|tx| tx.write(&gate, 5));
    assert_eq!(parked.join().unwrap(), 5, "the thread waiter resumed");
    assert_eq!(counter.0.load(Ordering::SeqCst), 1, "the future was woken");
    assert!(matches!(Pin::new(&mut fut).poll(&mut cx), Poll::Ready(5)));

    let stats = rt.retry_stats();
    assert!(stats.threads_woken >= 1, "futex wake delivered: {stats:?}");
    assert!(stats.tasks_woken >= 1, "waker delivered: {stats:?}");
    assert_eq!(rt.retry_waiters(), 0, "both registrations cleaned up");
}

/// The counter lost-wakeup hammer with a mixed consumer population: half
/// the consumers are OS threads parked in `Tx::retry`, half are futures on
/// the vendored thread-pool executor, all on the same stripe buckets. The
/// thread half hangs on its 120 s deadline if a wake is lost; the future
/// half (wake-driven only, no deadline) hangs the final channel recv.
#[test]
fn mixed_thread_and_future_consumers_lose_no_wakeups() {
    let producers = 2 * stress_factor();
    let thread_consumers = 2 * stress_factor();
    let future_consumers = 2 * stress_factor();
    let increments_per_producer = 150 * stress_factor() as u64;
    let target = producers as u64 * increments_per_producer;

    let rt = hang_on_lost_wakeup_runtime();
    let counter: TVar<u64> = TVar::new(0);
    let pool = futures::executor::ThreadPool::builder()
        .pool_size(2)
        .name_prefix("interop-")
        .create()
        .expect("spawn executor");

    let thread_handles: Vec<_> = (0..thread_consumers)
        .map(|_| {
            let rt = rt.clone();
            let counter = counter.clone();
            std::thread::spawn(move || {
                let mut seen = 0u64;
                while seen != target {
                    let now = rt.run(|tx| {
                        let v = tx.read(&counter)?;
                        if v <= seen {
                            return tx.retry();
                        }
                        Ok(v)
                    });
                    assert!(now > seen);
                    seen = now;
                }
            })
        })
        .collect();

    let (done_tx, done_rx) = std::sync::mpsc::channel::<u64>();
    for _ in 0..future_consumers {
        let rt = rt.clone();
        let counter = counter.clone();
        let done = done_tx.clone();
        pool.spawn_ok(async move {
            let mut seen = 0u64;
            let mut wakes = 0u64;
            while seen != target {
                let counter = counter.clone();
                let floor = seen;
                let now = atomically_async(&rt, move |tx| {
                    let v = tx.read(&counter)?;
                    if v <= floor {
                        return tx.retry();
                    }
                    Ok(v)
                })
                .await;
                assert!(now > seen);
                seen = now;
                wakes += 1;
            }
            done.send(wakes).expect("main thread waits on the channel");
        });
    }
    drop(done_tx);

    let producer_handles: Vec<_> = (0..producers)
        .map(|_| {
            let rt = rt.clone();
            let counter = counter.clone();
            std::thread::spawn(move || {
                for i in 0..increments_per_producer {
                    rt.run(|tx| tx.modify(&counter, |v| v + 1));
                    if i % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();

    for h in producer_handles {
        h.join().unwrap();
    }
    assert_eq!(counter.snapshot(), target);
    for h in thread_handles {
        h.join().unwrap();
    }
    for _ in 0..future_consumers {
        let wakes = done_rx.recv().expect("every async consumer finishes");
        assert!(wakes > 0, "each async consumer must have blocked");
    }

    let stats = rt.retry_stats();
    assert!(stats.parked_waits > 0, "threads parked: {stats:?}");
    assert!(stats.async_parks > 0, "futures suspended: {stats:?}");
    assert_eq!(stats.timed_out, 0, "a deadline hit is a lost wakeup");
    assert_eq!(rt.retry_waiters(), 0, "waitlist fully drained: {stats:?}");
}
