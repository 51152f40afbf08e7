//! Async-transaction micro benchmarks: suspended `TxFuture`s against the
//! thread-parked `Tx::retry` baseline they decouple from OS threads.
//!
//! Three layers (DESIGN.md §12):
//!
//! 1. `blocked_footprint/*` — resident bytes per blocked consumer: 100k+
//!    logical consumers suspended in retry on an 8-worker pool, versus
//!    hundreds of OS threads parked in the same predicate. The async cell
//!    is the headline of the pluggable-parker refactor: a suspended
//!    transaction is a registered parker plus a boxed task, not a stack.
//! 2. `wake_storm/*` — one commit flips the gate every blocked consumer
//!    watches; measures how fast the whole population drains (commit →
//!    last consumer finished), async wake-and-poll vs. futex wake.
//! 3. `retry_wake_latency/1/async` — the single-consumer commit→resume
//!    round trip, against the thread-parked round trip as `/thread`.
//!
//! Results print as a table and are written to `BENCH_async.json`
//! (regenerated and uploaded by CI's `ledger-smoke` job alongside
//! `BENCH_service.json`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use futures::executor::ThreadPool;
use parking_lot::EventCount;
use shrink_bench::perf::{median, resident_bytes, write_json, Record};
use shrink_bench::{shape, BenchOpts};
use shrink_stm::future::atomically_async;
use shrink_stm::{TVar, TmRuntime};

/// Worker threads driving every async probe — the "≤ 8 workers" side of
/// the headline claim.
const WORKERS: usize = 8;

/// Completion latch: tasks count themselves done, one thread waits.
struct Latch {
    done: AtomicU64,
    ev: EventCount,
}

impl Latch {
    fn new() -> Arc<Self> {
        Arc::new(Latch {
            done: AtomicU64::new(0),
            ev: EventCount::new(),
        })
    }

    fn arrive(&self) {
        self.done.fetch_add(1, Ordering::Release);
        self.ev.advance();
    }

    fn wait(&self, count: u64) {
        loop {
            let observed = self.ev.version();
            if self.done.load(Ordering::Acquire) >= count {
                return;
            }
            self.ev.wait_while_eq(observed, None);
        }
    }
}

/// Outcome of one footprint+storm population run.
struct PopulationOutcome {
    bytes_per_consumer: f64,
    suspend_wall_s: f64,
    drain_wall_s: f64,
}

/// Async population: `consumers` TxFuture tasks suspended on one gate
/// TVar, on a `WORKERS`-thread pool. Measures RSS per suspended consumer,
/// then releases the whole population with a single commit.
fn async_population(consumers: u64, records: &mut Vec<Record>) -> PopulationOutcome {
    let rt = TmRuntime::new();
    let gate: TVar<u64> = TVar::new(0);
    let pool = ThreadPool::builder()
        .pool_size(WORKERS)
        .name_prefix("bench-async-")
        .create()
        .expect("spawn worker pool");
    let latch = Latch::new();

    let rss_before = resident_bytes();
    let suspend_started = Instant::now();
    for _ in 0..consumers {
        let rt = rt.clone();
        let gate = gate.clone();
        let latch = Arc::clone(&latch);
        pool.spawn_ok(async move {
            atomically_async(&rt, move |tx| {
                if tx.read(&gate)? == 0 {
                    return tx.retry();
                }
                Ok(())
            })
            .await;
            latch.arrive();
        });
    }
    // Every consumer reads the same TVar, so all registrations land on one
    // bucket and the waiter count hits exactly `consumers` when the whole
    // population is suspended.
    while rt.retry_waiters() < consumers {
        std::thread::yield_now();
    }
    let suspend_wall_s = suspend_started.elapsed().as_secs_f64();
    let rss_after = resident_bytes();
    let bytes_per_consumer = match (rss_before, rss_after) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 / consumers as f64,
        _ => f64::NAN,
    };

    // One commit releases everyone: bump-and-wake on the shared bucket
    // hands every stored waker to the pool.
    let drain_started = Instant::now();
    rt.run(|tx| tx.write(&gate, 1));
    latch.wait(consumers);
    let drain_wall_s = drain_started.elapsed().as_secs_f64();

    let stats = rt.retry_stats();
    assert!(
        stats.async_parks >= consumers,
        "every consumer suspended at least once: {stats:?}"
    );
    assert_eq!(rt.retry_waiters(), 0, "waitlist drained: {stats:?}");

    println!(
        "{:>20}/{WORKERS}  {:>10}  {bytes_per_consumer:>10.0} B/consumer \
         ({consumers} suspended in {suspend_wall_s:.2}s, {} async parks)",
        "blocked_footprint", "async", stats.async_parks
    );
    records.push(Record {
        name: format!("blocked_footprint/{WORKERS}/async"),
        threads: WORKERS,
        ops_per_s: consumers as f64 / suspend_wall_s,
        ns_per_op: None,
        bytes_per_op: Some(bytes_per_consumer),
        wall_s: suspend_wall_s,
        ..Record::default()
    });
    println!(
        "{:>20}/{WORKERS}  {:>10}  {:>12.0} consumers/s drained \
         ({drain_wall_s:.3}s commit→last, {} tasks woken)",
        "wake_storm",
        "async",
        consumers as f64 / drain_wall_s,
        stats.tasks_woken
    );
    records.push(Record {
        name: format!("wake_storm/{WORKERS}/async"),
        threads: WORKERS,
        ops_per_s: consumers as f64 / drain_wall_s,
        ns_per_op: Some(drain_wall_s * 1e9 / consumers as f64),
        bytes_per_op: None,
        wall_s: drain_wall_s,
        ..Record::default()
    });

    PopulationOutcome {
        bytes_per_consumer,
        suspend_wall_s,
        drain_wall_s,
    }
}

/// Thread-parked baseline population: `threads` OS threads blocked in
/// `Tx::retry` on one gate. Far fewer than the async population — at 8 MiB
/// of (virtual) stack a 100k-thread baseline would not even spawn — which
/// is itself the point being measured.
fn thread_population(threads: u64, records: &mut Vec<Record>) -> PopulationOutcome {
    let rt = TmRuntime::builder()
        .retry_wait(Duration::from_secs(30))
        .build();
    let gate: TVar<u64> = TVar::new(0);

    let rss_before = resident_bytes();
    let suspend_started = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let rt = rt.clone();
            let gate = gate.clone();
            std::thread::spawn(move || {
                rt.run(|tx| {
                    if tx.read(&gate)? == 0 {
                        return tx.retry();
                    }
                    Ok(())
                })
            })
        })
        .collect();
    while rt.retry_waiters() < threads {
        std::thread::yield_now();
    }
    let suspend_wall_s = suspend_started.elapsed().as_secs_f64();
    let rss_after = resident_bytes();
    let bytes_per_consumer = match (rss_before, rss_after) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 / threads as f64,
        _ => f64::NAN,
    };

    let drain_started = Instant::now();
    rt.run(|tx| tx.write(&gate, 1));
    for w in workers {
        w.join().expect("parked consumer panicked");
    }
    let drain_wall_s = drain_started.elapsed().as_secs_f64();

    println!(
        "{:>20}/{threads}  {:>10}  {bytes_per_consumer:>10.0} B/consumer \
         ({threads} parked in {suspend_wall_s:.2}s; RSS counts touched stack pages only)",
        "blocked_footprint", "thread"
    );
    records.push(Record {
        name: format!("blocked_footprint/{threads}/thread"),
        threads: threads as usize,
        ops_per_s: threads as f64 / suspend_wall_s,
        ns_per_op: None,
        bytes_per_op: Some(bytes_per_consumer),
        wall_s: suspend_wall_s,
        ..Record::default()
    });
    println!(
        "{:>20}/{threads}  {:>10}  {:>12.0} consumers/s drained ({drain_wall_s:.3}s commit→last)",
        "wake_storm",
        "thread",
        threads as f64 / drain_wall_s
    );
    records.push(Record {
        name: format!("wake_storm/{threads}/thread"),
        threads: threads as usize,
        ops_per_s: threads as f64 / drain_wall_s,
        ns_per_op: Some(drain_wall_s * 1e9 / threads as f64),
        bytes_per_op: None,
        wall_s: drain_wall_s,
        ..Record::default()
    });

    PopulationOutcome {
        bytes_per_consumer,
        suspend_wall_s,
        drain_wall_s,
    }
}

/// Single-consumer wake latency, async flavour: a TxFuture suspended on a
/// counter predicate, a producer commit, median ns commit→task-finished.
/// The handshake is deterministic: the producer commits only once the
/// waiter count proves the consumer is registered.
fn wake_latency_async(rounds: u32, records: &mut Vec<Record>) -> f64 {
    let rt = TmRuntime::new();
    let var: TVar<u64> = TVar::new(0);
    let pool = ThreadPool::builder()
        .pool_size(1)
        .name_prefix("bench-async-lat-")
        .create()
        .expect("spawn worker pool");
    let mut samples = Vec::with_capacity(rounds as usize);
    let started = Instant::now();
    for r in 1..=rounds as u64 {
        let latch = Latch::new();
        {
            let rt = rt.clone();
            let var = var.clone();
            let latch = Arc::clone(&latch);
            pool.spawn_ok(async move {
                atomically_async(&rt, move |tx| {
                    if tx.read(&var)? < r {
                        return tx.retry();
                    }
                    Ok(())
                })
                .await;
                latch.arrive();
            });
        }
        while rt.retry_waiters() == 0 {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        rt.run(|tx| tx.write(&var, r));
        latch.wait(1);
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    let wall = started.elapsed().as_secs_f64();
    let med = median(&mut samples);
    let stats = rt.retry_stats();
    println!(
        "{:>20}/1  {:>10}  {med:>10.0} ns commit→resume (median of {rounds}; \
         {} async parks, {} tasks woken)",
        "retry_wake_latency", "async", stats.async_parks, stats.tasks_woken
    );
    records.push(Record {
        name: "retry_wake_latency/1/async".into(),
        threads: 1,
        ops_per_s: rounds as f64 / wall,
        ns_per_op: Some(med),
        bytes_per_op: None,
        wall_s: wall,
        ..Record::default()
    });
    med
}

/// Single-consumer wake latency, thread-parked flavour — the baseline the
/// async row is judged against.
fn wake_latency_thread(rounds: u32, records: &mut Vec<Record>) -> f64 {
    let rt = TmRuntime::builder()
        .retry_wait(Duration::from_secs(30))
        .build();
    let var: TVar<u64> = TVar::new(0);
    let mut samples = Vec::with_capacity(rounds as usize);
    let started = Instant::now();
    for r in 1..=rounds as u64 {
        let consumer = {
            let rt = rt.clone();
            let var = var.clone();
            std::thread::spawn(move || {
                rt.run(|tx| {
                    if tx.read(&var)? < r {
                        return tx.retry();
                    }
                    Ok(())
                })
            })
        };
        while rt.retry_waiters() == 0 {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        rt.run(|tx| tx.write(&var, r));
        consumer.join().expect("parked consumer panicked");
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    let wall = started.elapsed().as_secs_f64();
    let med = median(&mut samples);
    println!(
        "{:>20}/1  {:>10}  {med:>10.0} ns commit→resume (median of {rounds})",
        "retry_wake_latency", "thread"
    );
    records.push(Record {
        name: "retry_wake_latency/1/thread".into(),
        threads: 1,
        ops_per_s: rounds as f64 / wall,
        ns_per_op: Some(med),
        bytes_per_op: None,
        wall_s: wall,
        ..Record::default()
    });
    med
}

fn main() {
    let opts = BenchOpts::from_args();
    let mut records = Vec::new();

    // The headline population stays ≥ 100k even in --quick: the suspend and
    // drain phases are linear and cheap (a quick run spends well under a
    // second here), and shrinking it would unmeasure the claim.
    let consumers: u64 = 100_000;
    let baseline_threads: u64 = if opts.quick { 256 } else { 512 };

    println!("# bench_async — suspended TxFutures vs thread-parked Tx::retry");
    println!("# blocked-consumer footprint ({consumers} async consumers on {WORKERS} workers)");
    let async_pop = async_population(consumers, &mut records);
    let thread_pop = thread_population(baseline_threads, &mut records);

    println!("# single-consumer wake latency (commit → blocked consumer resumed)");
    let rounds = if opts.quick { 100 } else { 1000 };
    let async_lat = wake_latency_async(rounds, &mut records);
    let thread_lat = wake_latency_thread(rounds, &mut records);

    // Qualitative claims (see DESIGN.md §5.3 for the shape grammar).
    shape(
        &format!("{consumers} logical consumers block concurrently on {WORKERS} worker threads"),
        consumers >= 100_000 && WORKERS <= 8,
    );
    shape(
        &format!(
            "per-consumer memory ({:.0} B async) is an order of magnitude below the \
             thread-parked baseline ({:.0} B resident/thread)",
            async_pop.bytes_per_consumer, thread_pop.bytes_per_consumer
        ),
        async_pop.bytes_per_consumer.is_finite()
            && thread_pop.bytes_per_consumer.is_finite()
            && 10.0 * async_pop.bytes_per_consumer <= thread_pop.bytes_per_consumer,
    );
    shape(
        "per-consumer memory is two orders of magnitude below a default 8 MiB thread stack",
        async_pop.bytes_per_consumer.is_finite()
            && 100.0 * async_pop.bytes_per_consumer <= 8.0 * 1024.0 * 1024.0,
    );
    shape(
        "one commit drains the whole suspended population (no consumer left registered)",
        async_pop.drain_wall_s.is_finite(),
    );
    shape(
        "async wake latency stays within 16x the thread-parked futex wake",
        async_lat.is_finite() && thread_lat.is_finite() && async_lat <= 16.0 * thread_lat,
    );
    let _ = (async_pop.suspend_wall_s, thread_pop.suspend_wall_s);

    write_json("BENCH_async.json", "async", opts.quick, &records);
}
