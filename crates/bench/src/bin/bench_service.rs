//! Service scenario: the sharded KV/booking store under open-loop traffic,
//! compared across all five schedulers at multiples of measured capacity.
//!
//! This is the figure the closed-loop benchmarks cannot draw. Capacity is
//! calibrated once (base scheduler, arrivals offered far faster than the
//! store can serve, so the worker pool runs flat out), then every
//! scheduler serves the *same* pre-generated arrival schedule at 1×, 2×
//! and 4× that rate. Latency is measured from **scheduled arrival**, so at
//! 2× and 4× the queueing delay of an overloaded store lands in the p99 —
//! the regime where the paper says prevention beats curing.
//!
//! While each cell runs, an auditor thread repeatedly takes the
//! freeze-gated distributed snapshot and asserts exact cross-shard
//! conservation — the ledger numbers are only written if the store stayed
//! correct mid-flight.
//!
//! Output: a table per load level plus `BENCH_service.json` with
//! p50/p99/p999 per (scheduler, load) cell and `shape:` lines for the
//! qualitative claims. Each cell keeps the run with the median p99 of
//! three. Like fig7's overhead check, the two cross-scheduler `shape:`
//! claims are noisy under `--quick` on a small container (fewer samples
//! than the p99 needs); the full run is the ledger of record.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use shrink_bench::perf::{write_json, LatencyHistogram, Record};
use shrink_bench::{make_runtime, print_header, shape, BenchOpts};
use shrink_core::{SchedulerKind, SerializerConfig};
use shrink_stm::{BackendKind, WaitPolicy};
use shrink_workloads::service::{
    build_schedule, run_open_loop, RequestKind, RequestMix, ShardedStore, TrafficConfig,
};

const SHARDS: usize = 4;
const ACCOUNTS_PER_SHARD: usize = 32;
const INITIAL_BALANCE: i64 = 1_000;
const BOOKING_CAPACITY: i64 = 3;
/// Spin iterations inside each transaction body — the simulated service
/// work. Sized so calibrated capacity lands in the tens of kilorequests
/// per second, keeping arrival gaps well above `thread::sleep` granularity
/// (otherwise the percentiles measure timer jitter, not queueing).
const TX_WORK: u32 = 30_000;

struct Cell {
    sched: &'static str,
    mult: f64,
    ops_per_s: f64,
    p50: f64,
    p99: f64,
    p999: f64,
}

fn fresh_store(kind: &SchedulerKind) -> ShardedStore {
    let mut store = ShardedStore::new(
        SHARDS,
        ACCOUNTS_PER_SHARD,
        INITIAL_BALANCE,
        BOOKING_CAPACITY,
        |_| make_runtime(BackendKind::Swiss, WaitPolicy::Preemptive, kind),
    );
    store.set_tx_work(TX_WORK);
    store
}

fn base_config(opts: &BenchOpts) -> TrafficConfig {
    TrafficConfig {
        clients: 2_000,
        // Same worker count in quick mode: with fewer workers the overload
        // contention the scheduler comparison is about mostly vanishes,
        // and the preventive-vs-pool p99 gap drops below the histogram's
        // bucket resolution. Requests stay high for the same reason — a
        // cell is only ~50 ms of serving, and below ~4k samples the p99
        // run-to-run swing exceeds the scheduler effect.
        workers: 8,
        requests: if opts.quick { 4_000 } else { 6_000 },
        offered_rps: 0.0, // set per cell
        zipf_s: 1.2,
        burstiness: 0.6,
        burst_period: Duration::from_millis(10),
        mix: RequestMix::DEFAULT,
        booking_deadline: Duration::from_millis(30),
        seed: 0xC0FFEE,
    }
}

/// Serves one schedule while an auditor thread hammers the freeze-gated
/// conservation snapshot; panics if conservation or the booking invariant
/// ever fails.
fn run_cell(kind: &SchedulerKind, cfg: &TrafficConfig) -> (f64, LatencyHistogram, f64) {
    let store = fresh_store(kind);
    let schedule = build_schedule(store.n_keys(), store.n_shards(), cfg);
    let stop = AtomicBool::new(false);
    let report = std::thread::scope(|scope| {
        let auditor = {
            let store = &store;
            let stop = &stop;
            scope.spawn(move || {
                let mut audits = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    assert_eq!(
                        store.audit_conservation(),
                        store.expected_total(),
                        "conservation broke mid-flight"
                    );
                    audits += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
                audits
            })
        };
        let report = run_open_loop(&store, &schedule, cfg);
        stop.store(true, Ordering::Relaxed);
        let audits = auditor.join().expect("auditor panicked");
        assert!(audits > 0, "no live audits ran");
        report
    });
    assert_eq!(store.audit_conservation(), store.expected_total());
    store.audit_bookings();
    assert_eq!(store.pending_transfers(), 0);
    let bookings = schedule
        .iter()
        .filter(|r| r.kind == RequestKind::Booking)
        .count() as u64;
    assert_eq!(
        report.confirmed_bookings + report.declined_bookings,
        bookings
    );
    let hist = LatencyHistogram::new();
    for &(_, ns) in &report.latencies {
        hist.record(ns);
    }
    let confirm_rate = if bookings == 0 {
        1.0
    } else {
        report.confirmed_bookings as f64 / bookings as f64
    };
    let ops = report.latencies.len() as f64 / report.wall.as_secs_f64();
    (ops, hist, confirm_rate)
}

/// Measures how fast the worker pool can drain the mix when arrivals are
/// offered far above capacity (closed-loop-equivalent service rate).
fn calibrate(opts: &BenchOpts) -> f64 {
    let mut cfg = base_config(opts);
    cfg.requests = cfg.requests.min(3_000);
    cfg.offered_rps = 1e9;
    cfg.burstiness = 0.0;
    let (ops, _, _) = run_cell(&SchedulerKind::Noop, &cfg);
    ops
}

/// A single p99 sample on a small container swings more run-to-run than
/// the scheduler effect it is supposed to rank; run each cell a few times
/// and keep the p99-median run, like the other benches' median-of-N.
const REPS: usize = 3;

fn run_cell_median(kind: &SchedulerKind, cfg: &TrafficConfig) -> (f64, LatencyHistogram, f64) {
    let p99 = |run: &(f64, LatencyHistogram, f64)| {
        run.1.percentile(99.0).expect("cell recorded no latencies")
    };
    let mut runs: Vec<_> = (0..REPS).map(|_| run_cell(kind, cfg)).collect();
    runs.sort_by(|a, b| p99(a).total_cmp(&p99(b)));
    runs.swap_remove(REPS / 2)
}

fn main() {
    let opts = BenchOpts::from_args();
    let kinds: Vec<(&'static str, SchedulerKind)> = vec![
        ("base", SchedulerKind::Noop),
        ("shrink", SchedulerKind::shrink_default()),
        ("ats", SchedulerKind::Ats),
        ("pool", SchedulerKind::Pool),
        (
            "serializer",
            SchedulerKind::Serializer(SerializerConfig::default()),
        ),
    ];
    // Both load sweeps include 2×: the "beats on p99 under overload"
    // claims quantify over the overload levels, and moderate overload is
    // where prevention shows most clearly.
    let mults: &[f64] = &[1.0, 2.0, 4.0];

    let capacity = calibrate(&opts);
    println!("# calibrated capacity (base scheduler, flat-out): {capacity:.0} req/s");

    let cfg0 = base_config(&opts);
    let mut cells: Vec<Cell> = Vec::new();
    let mut records: Vec<Record> = Vec::new();
    for &mult in mults {
        print_header(
            &format!(
                "service @ {mult}x capacity ({:.0} req/s offered)",
                capacity * mult
            ),
            &["sched", "req/s", "p50_us", "p99_us", "p999_us", "confirm%"],
        );
        for (label, kind) in &kinds {
            let mut cfg = cfg0.clone();
            cfg.offered_rps = capacity * mult;
            let (ops, hist, confirm) = run_cell_median(kind, &cfg);
            let pct = |q| hist.percentile(q).expect("cell recorded no latencies");
            let (p50, p99, p999) = (pct(50.0), pct(99.0), pct(99.9));
            println!(
                "{label:>10} {ops:>14.1} {:>14.1} {:>14.1} {:>14.1} {:>14.1}",
                p50 / 1e3,
                p99 / 1e3,
                p999 / 1e3,
                confirm * 100.0
            );
            let mut record = Record {
                name: format!("service/{mult}x/{label}"),
                threads: cfg.workers,
                ops_per_s: ops,
                wall_s: cfg0.requests as f64 / ops,
                ..Record::default()
            };
            hist.fill_record(&mut record);
            records.push(record);
            cells.push(Cell {
                sched: label,
                mult,
                ops_per_s: ops,
                p50,
                p99,
                p999,
            });
        }
        println!();
    }

    // Qualitative claims.
    let monotone = cells.iter().all(|c| c.p50 <= c.p99 && c.p99 <= c.p999);
    shape(
        "percentiles are monotone (p50 <= p99 <= p999) in every cell",
        monotone,
    );
    shape(
        "cross-shard conservation held on every live audit (hard-asserted above)",
        true,
    );
    let find = |sched: &str, mult: f64| {
        cells
            .iter()
            .find(|c| c.sched == sched && c.mult == mult)
            .expect("cell missing")
    };
    let lo = mults[0];
    let hi = *mults.last().unwrap();
    shape(
        "overload inflates the base scheduler's tail (p99 grows with offered load)",
        find("base", hi).p99 >= find("base", lo).p99,
    );
    let preventive = ["shrink", "ats", "serializer"];
    let overload: Vec<f64> = mults.iter().copied().filter(|&m| m > 1.0).collect();
    let beats = |baseline: &str| {
        overload.iter().any(|&m| {
            preventive
                .iter()
                .any(|p| find(p, m).p99 < find(baseline, m).p99)
        })
    };
    shape(
        "a preventive scheduler beats the backoff-cured base on p99 under overload",
        beats("base"),
    );
    shape(
        "a preventive scheduler beats pool on p99 under overload",
        beats("pool"),
    );
    let worst_loss = cells
        .iter()
        .filter(|c| c.mult == lo)
        .map(|c| c.ops_per_s)
        .fold(f64::INFINITY, f64::min);
    shape(
        "no scheduler collapses at 1x (throughput within 4x of calibrated capacity)",
        worst_loss * 4.0 >= capacity,
    );

    write_json("BENCH_service.json", "service", opts.quick, &records);
}
