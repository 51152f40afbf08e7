//! The closed-loop measurement: W threads each issue their next operation
//! the moment the previous one returns, for a warm-up and then N
//! one-second slices. Throughput and latency percentiles are taken per slice
//! and reported as the quiet quartile of the slices (see
//! [`PerSlice`]), so a hypervisor stall spoils the slices it touches, not
//! the metric.
//!
//! Workers never touch a shared cache line on the hot path: they read the
//! current slice index (written once a second by the coordinator) and bump
//! thread-local per-slice counters.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::stats::{slice_percentiles_us, PerSlice};
use crate::trace::Tracing;

/// Slice index during warm-up; measured slices are `1..=n`.
pub const WARMUP: usize = 0;
/// Slice index telling workers to stop.
pub const STOP: usize = usize::MAX;

/// The coordinator's clock: which slice operations are attributed to.
#[derive(Debug)]
pub struct SliceClock(AtomicUsize);

impl SliceClock {
    #[inline]
    pub fn now(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

/// Warm-up length and number/length of measured slices of one arm.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub warmup: Duration,
    pub slices: usize,
    pub slice_len: Duration,
}

impl Plan {
    pub fn seconds(warmup_s: u64, slices: usize) -> Plan {
        Plan {
            warmup: Duration::from_secs(warmup_s),
            slices,
            slice_len: Duration::from_secs(1),
        }
    }
}

/// Times an operation whose attempt panicked is issued again before it
/// counts as failed.
const OP_RERUNS: u64 = 3;

/// A worker thread's private ledger: operations per slice, every
/// `lat_every`-th operation's latency per slice, failures, and the tracer.
#[derive(Debug)]
pub struct Recorder<T> {
    pub tracer: T,
    counts: Vec<u64>,
    lat: Vec<Vec<u32>>,
    lat_every: u64,
    next_op: u64,
    failed: u64,
    reruns: u64,
}

impl<T: Tracing> Recorder<T> {
    fn new(tracer: T, slices: usize, lat_every: u64) -> Self {
        Recorder {
            tracer,
            counts: vec![0; slices + 1],
            lat: (0..=slices).map(|_| Vec::with_capacity(1 << 16)).collect(),
            lat_every: lat_every.max(1),
            next_op: 0,
            failed: 0,
            reruns: 0,
        }
    }

    /// Runs one operation unless the coordinator said stop (then returns
    /// `false`). `op` gets the operation id and the tracer and returns
    /// whether its result agreed with the workload's model.
    ///
    /// An operation that panics is caught and issued again, as a client whose
    /// call died would; only one that panics [`OP_RERUNS`] times more is
    /// counted as failed. That is not hypothetical: on `rbtree_hot` roughly
    /// one run in ten has a doomed attempt observe a torn tree and trip an
    /// `expect` in the tree's `delete_fixup` (README.md, "Known failure").
    /// The runtime guarantees a panic unwinding out of `run` rolls the
    /// attempt back, so the repeat starts from clean state and its result is
    /// checked against the model like any other. Repeats are tallied in
    /// `reruns`, where a fix of the underlying opacity hole will show.
    #[inline]
    pub fn step(&mut self, clock: &SliceClock, mut op: impl FnMut(u64, &mut T) -> bool) -> bool {
        let slice = clock.now();
        if slice == STOP {
            return false;
        }
        let id = self.next_op;
        self.next_op += 1;
        let t0 = (id % self.lat_every == 0).then(Instant::now);
        let mut panics = 0;
        let ok = loop {
            // Opening the root again abandons the spans of a panicked try.
            self.tracer.begin_op(id, "op");
            let tracer = &mut self.tracer;
            match catch_unwind(AssertUnwindSafe(|| op(id, tracer))) {
                Ok(ok) => break ok,
                Err(_) if panics < OP_RERUNS => panics += 1,
                Err(_) => break false,
            }
        };
        self.tracer.end();
        self.reruns += panics;
        if let Some(t0) = t0 {
            self.lat[slice].push(t0.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
        }
        self.counts[slice] += 1;
        self.failed += u64::from(!ok);
        true
    }
}

/// What one arm's run measured.
#[derive(Debug)]
pub struct ArmOutcome<T> {
    /// Operations per second of each measured slice.
    pub slice_ops_per_s: Vec<f64>,
    /// Sampled operation latencies (ns) of each measured slice.
    pub slice_lat_ns: Vec<Vec<u64>>,
    /// Operations run, warm-up included.
    pub attempted: u64,
    /// Operations whose result contradicted the workload's model.
    pub failed: u64,
    /// Times an operation was issued again because its attempt panicked.
    pub reruns: u64,
    /// Operations run inside measured slices.
    pub measured_ops: u64,
    /// One tracer per worker thread, in thread order.
    pub tracers: Vec<T>,
}

impl<T> ArmOutcome<T> {
    /// Operations per second of each measured slice.
    pub fn ops_per_s(&self) -> PerSlice {
        PerSlice(self.slice_ops_per_s.clone())
    }

    /// Percentile `q` of operation latency in each measured slice, µs.
    pub fn lat_us(&mut self, q: f64) -> PerSlice {
        slice_percentiles_us(&mut self.slice_lat_ns, q)
    }
}

/// Runs one arm: spawns `threads` workers, each running `worker(thread,
/// clock, recorder)` until the clock says [`STOP`] (a worker that blocks on
/// another must arrange its own wake-up, see the ping-pong workload), and
/// drives the clock from the calling thread. `at_boundary(false)` runs when
/// measurement starts, `at_boundary(true)` when it ends, both while the
/// workers are still running — that is where counters are snapshotted.
pub fn run_arm<T: Tracing, R: Send>(
    threads: usize,
    plan: Plan,
    lat_every: u64,
    make_tracer: impl Fn(usize) -> T,
    worker: impl Fn(usize, &SliceClock, &mut Recorder<T>) -> R + Sync,
    mut at_boundary: impl FnMut(bool),
) -> (ArmOutcome<T>, Vec<R>) {
    let clock = SliceClock(AtomicUsize::new(WARMUP));
    let start = Barrier::new(threads + 1);
    let mut boundaries = Vec::with_capacity(plan.slices + 1);
    let mut recorders: Vec<Recorder<T>> = (0..threads)
        .map(|t| Recorder::new(make_tracer(t), plan.slices, lat_every))
        .collect();

    let results: Vec<R> = std::thread::scope(|scope| {
        let handles: Vec<_> = recorders
            .iter_mut()
            .enumerate()
            .map(|(t, rec)| {
                let (clock, start, worker) = (&clock, &start, &worker);
                scope.spawn(move || {
                    start.wait();
                    worker(t, clock, rec)
                })
            })
            .collect();

        start.wait();
        let t0 = Instant::now();
        sleep_until(t0 + plan.warmup);
        at_boundary(false);
        let measure_start = Instant::now();
        clock.0.store(1, Ordering::Relaxed);
        boundaries.push(measure_start);
        for slice in 1..=plan.slices {
            sleep_until(measure_start + plan.slice_len * slice as u32);
            if slice == plan.slices {
                at_boundary(true);
            }
            let next = if slice == plan.slices {
                STOP
            } else {
                slice + 1
            };
            boundaries.push(Instant::now());
            clock.0.store(next, Ordering::Relaxed);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    let mut slice_ops_per_s = Vec::with_capacity(plan.slices);
    let mut slice_lat_ns = Vec::with_capacity(plan.slices);
    for slice in 1..=plan.slices {
        let secs = (boundaries[slice] - boundaries[slice - 1]).as_secs_f64();
        let ops: u64 = recorders.iter().map(|r| r.counts[slice]).sum();
        slice_ops_per_s.push(ops as f64 / secs);
        slice_lat_ns.push(
            recorders
                .iter()
                .flat_map(|r| r.lat[slice].iter().map(|&ns| u64::from(ns)))
                .collect(),
        );
    }
    let outcome = ArmOutcome {
        slice_ops_per_s,
        slice_lat_ns,
        attempted: recorders.iter().map(|r| r.next_op).sum(),
        failed: recorders.iter().map(|r| r.failed).sum(),
        reruns: recorders.iter().map(|r| r.reruns).sum(),
        measured_ops: recorders
            .iter()
            .map(|r| r.counts[1..].iter().sum::<u64>())
            .sum(),
        tracers: recorders.into_iter().map(|r| r.tracer).collect(),
    };
    (outcome, results)
}

fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Off;

    #[test]
    fn slices_attribute_ops_and_latencies_and_boundaries_fire_in_order() {
        let plan = Plan {
            warmup: Duration::from_millis(20),
            slices: 3,
            slice_len: Duration::from_millis(30),
        };
        let mut events = Vec::new();
        let (mut out, results) = run_arm(
            2,
            plan,
            4,
            |_| Off,
            |thread, clock, rec| {
                let mut n = 0u64;
                let mut tries = (u64::MAX, 0u64);
                while rec.step(clock, |id, _| {
                    std::thread::sleep(Duration::from_micros(200));
                    tries = (id, if tries.0 == id { tries.1 + 1 } else { 1 });
                    // On thread 1 every 10th op returns a wrong result, every
                    // 10th panics on its first try only, and every 20th
                    // panics on every try.
                    if thread == 1 {
                        assert!(!(id % 10 == 5 && tries.1 == 1), "a doomed attempt");
                        assert!(id % 20 != 7, "a broken operation");
                    }
                    !(thread == 1 && id % 10 == 0)
                }) {
                    n += 1;
                }
                n
            },
            |end| events.push(end),
        );
        assert_eq!(events, [false, true]);
        assert_eq!(out.slice_ops_per_s.len(), 3);
        assert!(out.slice_ops_per_s.iter().all(|&r| r > 0.0));
        assert_eq!(out.attempted, results.iter().sum::<u64>());
        assert!(
            out.measured_ops < out.attempted,
            "warm-up ops are not measured"
        );
        // Wrong results and persistent panics fail; a panic that does not
        // repeat costs a rerun, not a failure.
        let thread1 = results[1];
        assert!(out.failed >= thread1 / 10 && out.failed <= thread1 / 10 + thread1 / 20 + 2);
        let (once, always) = (thread1 / 10, thread1 / 20);
        assert!(out.reruns + 4 >= once + OP_RERUNS * always);
        assert!(out.reruns <= once + OP_RERUNS * always + 4);
        // Every fourth op is timed, and each took at least the 200 µs sleep.
        let timed: usize = out.slice_lat_ns.iter().map(Vec::len).sum();
        assert!(timed as u64 <= out.measured_ops / 4 + 2);
        assert!(out.lat_us(50.0).quiet_low() >= 200.0);
    }
}
