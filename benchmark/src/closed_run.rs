//! Runs a closed-loop workload: the untraced pass that produces the
//! end-to-end metrics, and the traced pass that produces the per-layer
//! ones.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::arms::{
    build_runtime, ratio, setup_samples, timed_builds, Arm, ArmRt, Counters, SETUP_SAMPLES,
};
use crate::closed::{run_arm, ArmOutcome, Plan, Recorder, SliceClock};
use crate::closed_workloads::ClosedWorkload;
use crate::inputs::Digest;
use crate::report::{Options, RunResult};
use crate::stats::{median, percentile, summarize};
use crate::trace::{measured_spans, self_times, Off, Span, Spans, Tracing};

/// Spans a traced worker thread may record; allocated up front.
const SPAN_CAPACITY: usize = 1 << 18;

/// Measured slices per arm of an untraced closed-loop run of `seconds`:
/// two arms, each a 1 s warm-up plus the slices.
pub fn untraced_slices(seconds: u64) -> usize {
    (seconds.saturating_sub(2) / 2).max(2) as usize
}

/// Measured slices per phase of a traced run: four phases (each arm plain,
/// then each arm traced) share 70 % of the run, the probes get the rest.
pub fn traced_slices(seconds: u64) -> usize {
    ((seconds * 7 / 10).saturating_sub(4) / 4).max(1) as usize
}

/// Length of one probe timing window in a traced run of `seconds`.
pub fn probe_window(seconds: u64) -> Duration {
    Duration::from_micros(seconds * 1500)
}

/// One measurement of one arm: what the workers did and what the runtimes'
/// counters moved by meanwhile.
pub struct Measured<T> {
    pub outcome: ArmOutcome<T>,
    pub counters: Counters,
    /// Start of measurement on the tracers' clock; earlier spans are
    /// warm-up.
    pub measure_start_ns: u64,
}

impl<T> Measured<T> {
    /// Appends the slices, tallies and counters of a later phase of the
    /// same arm.
    fn append(&mut self, later: Measured<T>) {
        let (o, l) = (&mut self.outcome, later.outcome);
        o.slice_ops_per_s.extend(l.slice_ops_per_s);
        o.slice_lat_ns.extend(l.slice_lat_ns);
        o.attempted += l.attempted;
        o.failed += l.failed;
        o.reruns += l.reruns;
        o.measured_ops += l.measured_ops;
        o.tracers.extend(l.tracers);
        self.counters = self.counters.plus(&later.counters);
    }
}

/// Runs one arm (see [`run_arm`]) and snapshots the counters of `rts` where
/// measurement starts and ends. Also returns each worker's result.
pub fn measure_counted<T: Tracing, R: Send>(
    rts: &[ArmRt],
    threads: usize,
    plan: Plan,
    lat_every: u64,
    origin: Instant,
    make_tracer: impl Fn(usize) -> T,
    worker: impl Fn(usize, &SliceClock, &mut Recorder<T>) -> R + Sync,
) -> (Measured<T>, Vec<R>) {
    let mut before = Counters::default();
    let mut counters = Counters::default();
    let mut measure_start_ns = 0;
    let (outcome, results) = run_arm(threads, plan, lat_every, make_tracer, worker, |end| {
        let now = Counters::snapshot(rts);
        if end {
            counters = now.since(&before);
        } else {
            before = now;
            measure_start_ns = origin.elapsed().as_nanos() as u64;
        }
    });
    let measured = Measured {
        outcome,
        counters,
        measure_start_ns,
    };
    (measured, results)
}

fn measure<W: ClosedWorkload, T: Tracing>(
    w: &W,
    inst: &W::Instance,
    threads: usize,
    plan: Plan,
    origin: Instant,
    make_tracer: impl Fn(usize) -> T,
) -> Measured<T> {
    measure_counted(
        std::slice::from_ref(w.runtime(inst)),
        threads,
        plan,
        w.lat_every(),
        origin,
        make_tracer,
        |thread, clock, rec| w.worker(inst, thread, clock, rec),
    )
    .0
}

/// Times one arm may repeat a phase because the correctness gate failed.
const GATE_RETRIES: u32 = 8;

/// Most measured slices an untraced run puts between two runs of the gate.
/// A failing gate throws away everything since the previous one, and on
/// `rbtree_hot` it fails about once in 30 s of a noisy spell of the host
/// (README.md, "Known failure"): gating an arm's nine slices in one piece
/// discarded a third of them, and two in a row now and then.
const PHASE_SLICES: usize = 3;

/// Warm-up of a phase on an instance an earlier phase left warm.
const REWARM: Duration = Duration::from_millis(300);

/// One arm of a run: its instance and the operation tallies of every phase
/// kept on it.
struct ArmRun<'a, W: ClosedWorkload> {
    w: &'a W,
    opts: &'a Options,
    arm: Arm,
    threads: usize,
    inst: W::Instance,
    attempted: u64,
    failed: u64,
    reruns: u64,
    gate_retries: u32,
    /// A phase has been kept on `inst`.
    warm: bool,
}

impl<'a, W: ClosedWorkload> ArmRun<'a, W> {
    /// Builds the arm's instance, timing `samples` windows of builds (see
    /// [`timed_builds`]); the timings are appended to `setup_s`.
    fn build(
        w: &'a W,
        opts: &'a Options,
        arm: Arm,
        samples: usize,
        setup_s: &mut Vec<f64>,
    ) -> Self {
        let threads = w.threads(opts.workers);
        let (inst, times) =
            timed_builds(samples, || w.build(build_runtime(arm), opts.seed, threads));
        setup_s.extend(times);
        ArmRun {
            w,
            opts,
            arm,
            threads,
            inst,
            attempted: 0,
            failed: 0,
            reruns: 0,
            gate_retries: 0,
            warm: false,
        }
    }

    /// Measures one phase and runs the correctness gate on the instance.
    ///
    /// If the gate fails, the phase was an execution on broken data: it says
    /// nothing about speed, and which of its operations the breakage touched
    /// cannot be told. The whole phase is discarded, timings and operation
    /// tallies alike, and repeated on a fresh instance; `gate_retries` says
    /// how often. This exists because of the stale read described in
    /// README.md under "Known failure", which now and then commits on the
    /// small, write-hot trees. An arm that uses up its [`GATE_RETRIES`]
    /// fails the run. With `rewarm`, a phase on an instance that is already
    /// warm gets the short [`REWARM`] warm-up instead of `plan`'s.
    fn measure_verified<T: Tracing>(
        &mut self,
        plan: Plan,
        rewarm: bool,
        origin: Instant,
        make_tracer: impl Fn(usize) -> T,
    ) -> Result<Measured<T>, String> {
        loop {
            let plan = Plan {
                warmup: if rewarm && self.warm {
                    REWARM
                } else {
                    plan.warmup
                },
                ..plan
            };
            let m = measure(self.w, &self.inst, self.threads, plan, origin, &make_tracer);
            match self.w.verify(&self.inst) {
                Ok(contradicted) => {
                    self.attempted += m.outcome.attempted;
                    self.failed += m.outcome.failed + contradicted;
                    self.reruns += m.outcome.reruns;
                    self.warm = true;
                    return Ok(m);
                }
                Err(e) if self.gate_retries < GATE_RETRIES => {
                    self.gate_retries += 1;
                    self.warm = false;
                    eprintln!(
                        "{} arm: {e}; discarding this phase ({} operations) and repeating it on a fresh instance",
                        self.arm.label(),
                        m.outcome.attempted
                    );
                    self.inst = self
                        .w
                        .build(build_runtime(self.arm), self.opts.seed, self.threads);
                }
                Err(e) => return Err(format!("{} arm: {e}", self.arm.label())),
            }
        }
    }

    /// The untraced measurement of the arm: `slices` measured slices in
    /// phases of at most [`PHASE_SLICES`], the gate after each.
    fn measure_in_phases(
        &mut self,
        slices: usize,
        origin: Instant,
    ) -> Result<Measured<Off>, String> {
        let phases = slices.div_ceil(PHASE_SLICES).max(1);
        let mut whole: Option<Measured<Off>> = None;
        for i in 0..phases {
            let plan = Plan::seconds(1, slices / phases + usize::from(i < slices % phases));
            let m = self.measure_verified(plan, true, origin, |_| Off)?;
            match &mut whole {
                Some(whole) => whole.append(m),
                None => whole = Some(m),
            }
        }
        Ok(whole.expect("at least one phase"))
    }

    fn digest(&self) -> String {
        let mut digest = Digest::default();
        self.w.digest(&self.inst, &mut digest);
        digest.hex()
    }

    /// Adds this arm's tallies to the run's.
    fn tally_into(&self, result: &mut RunResult) {
        result.attempted += self.attempted;
        result.failed += self.failed;
        result.detail.push((
            format!("gate_retries.{}", self.arm.label()),
            f64::from(self.gate_retries),
        ));
        result.detail.push((
            format!("ops_rerun.{}", self.arm.label()),
            self.reruns as f64,
        ));
    }
}

fn counter_details(result: &mut RunResult, arm: Arm, c: &Counters) {
    let arm = arm.label();
    result.detail.push((
        format!("attempts_per_commit.{arm}"),
        c.attempts_per_commit(),
    ));
    result
        .detail
        .push((format!("commits.{arm}"), c.commits as f64));
    result
        .detail
        .push((format!("ro_commits.{arm}"), c.ro_commits as f64));
    result
        .detail
        .push((format!("parked_waits.{arm}"), c.parked_waits as f64));
}

/// The untraced pass: both arms at full length, tracing compiled out.
pub fn run_untraced<W: ClosedWorkload>(w: &W, opts: &Options) -> Result<RunResult, String> {
    let slices = untraced_slices(opts.seconds);
    let origin = Instant::now();
    let mut result = RunResult::default();
    let mut setup_s = Vec::new();
    for arm in Arm::BOTH {
        let mut run = ArmRun::build(w, opts, arm, SETUP_SAMPLES, &mut setup_s);
        result.input_digest = run.digest();
        let mut m = run.measure_in_phases(slices, origin)?;
        let ops = m.outcome.ops_per_s();
        let (p50, p99) = (m.outcome.lat_us(50.0), m.outcome.lat_us(99.0));
        match arm {
            Arm::Base => result.set("ops_per_s.base", ops.quiet_high()),
            Arm::Shrink => {
                result.set("ops_per_s.shrink", ops.quiet_high());
                // Latency is reported for the system the paper proposes.
                result.set("p50_us", p50.quiet_low());
            }
        }
        result.detail_summary(&format!("ops_per_s.{}", arm.label()), ops.summary());
        result.detail_summary(&format!("op_p50_us.{}", arm.label()), p50.summary());
        result.detail_summary(&format!("op_p99_us.{}", arm.label()), p99.summary());
        counter_details(&mut result, arm, &m.counters);
        run.tally_into(&mut result);
    }
    let setup = summarize(&setup_samples(&setup_s));
    result.set("setup_s", setup.median);
    result.detail_summary("setup_s", setup);
    Ok(result)
}

/// Durations (ns) of spans named `name`, ascending.
fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    let mut d: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect();
    d.sort_unstable();
    d
}

fn p_us(sorted: &[u64], q: f64) -> f64 {
    percentile(sorted, q).map_or(0.0, |ns| ns as f64 / 1e3)
}

/// What the spans of one arm say about the runtime layer.
struct SpanFacts {
    /// Mean self time of a `stm.*` call span: begin + validate + commit +
    /// hooks + backoff, i.e. the call minus its body attempts.
    overhead_ns: f64,
    /// Body time of non-final attempts over all body time.
    wasted_body_share: f64,
    /// Mean duration of an `op` root span.
    op_ns: f64,
    /// Recorded operations.
    ops: u64,
}

fn span_facts(spans: &[Span]) -> SpanFacts {
    let self_ns = self_times(spans);
    let mut bodies: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.name.starts_with("body:")) {
        bodies.entry(s.parent).or_default().push(s);
    }
    let (mut calls, mut call_self) = (0u64, 0u64);
    let (mut body_ns, mut wasted_ns) = (0u64, 0u64);
    for call in spans.iter().filter(|s| s.name.starts_with("stm.")) {
        calls += 1;
        call_self += self_ns[&call.id];
        if let Some(attempts) = bodies.get_mut(&call.id) {
            attempts.sort_by_key(|s| s.start_ns);
            let all: u64 = attempts.iter().map(|s| s.dur_ns()).sum();
            body_ns += all;
            wasted_ns += all - attempts.last().map_or(0, |s| s.dur_ns());
        }
    }
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent == 0).collect();
    let root_ns: u64 = roots.iter().map(|s| s.dur_ns()).sum();
    SpanFacts {
        overhead_ns: ratio(call_self, calls),
        wasted_body_share: ratio(wasted_ns, body_ns),
        op_ns: ratio(root_ns, roots.len() as u64),
        ops: roots.len() as u64,
    }
}

/// Median µs from a push call's start on one thread to the matching pop's
/// return on the other, over both directions of the ping-pong.
fn hop_us(spans: &[Span]) -> f64 {
    let mut push_start: HashMap<(u16, u64), u64> = HashMap::new();
    let mut pop_end: HashMap<(u16, u64), u64> = HashMap::new();
    for s in spans {
        match s.name {
            "stm.run:queue.push" => push_start.insert((s.thread, s.op), s.start_ns),
            "stm.run:queue.pop" => pop_end.insert((s.thread, s.op), s.end_ns),
            _ => None,
        };
    }
    let hops: Vec<f64> = push_start
        .iter()
        .filter_map(|(&(thread, op), &start)| {
            // Two threads, ids 0 and 1: the receiver is the other one.
            let end = *pop_end.get(&(1 - thread, op))?;
            (end > start).then(|| (end - start) as f64 / 1e3)
        })
        .collect();
    median(&hops)
}

/// The per-layer times one arm's spans yield. A workload's spans name only
/// the layers it calls into; the others read 0 here and are measured by
/// [`span_probe`] on the workload that does call them.
fn span_times(spans: &[Span], facts: &SpanFacts) -> [(&'static str, f64); 7] {
    let p50_ns = |name: &str| percentile(&durations(spans, name), 50.0).map_or(0.0, |ns| ns as f64);
    let step_ns = durations(spans, "workloads.sb7.step");
    [
        ("stm.runtime.overhead_ns", facts.overhead_ns),
        ("stm.waitlist.hop_us", hop_us(spans)),
        ("workloads.rbtree.get_ns", p50_ns("body:rbtree.get")),
        ("workloads.rbtree.insert_ns", p50_ns("body:rbtree.insert")),
        ("workloads.rbtree.remove_ns", p50_ns("body:rbtree.remove")),
        ("workloads.sb7.step_us_p50", p_us(&step_ns, 50.0)),
        ("workloads.sb7.step_us_p99", p_us(&step_ns, 99.0)),
    ]
}

/// Warm-up and the one measured slice of a [`span_probe`].
const PROBE_PLAN: Plan = Plan {
    warmup: Duration::from_millis(500),
    slices: 1,
    slice_len: Duration::from_secs(1),
};

/// Every traced run reports every per-layer metric, whichever workload it
/// was asked for. This fills in the span times `result` still lacks that
/// `w` yields, from one short traced phase of `w` on the base arm. They
/// describe `w`, not the workload the run was asked for, and are noisier
/// than the ones `w`'s own traced run reports.
pub fn span_probe<W: ClosedWorkload>(
    w: &W,
    opts: &Options,
    result: &mut RunResult,
) -> Result<(), String> {
    let origin = Instant::now();
    let mut run = ArmRun::build(w, opts, Arm::Base, 1, &mut Vec::new());
    let traced = run.measure_verified(PROBE_PLAN, false, origin, |t| {
        Spans::new(origin, t as u16, w.trace_every(), SPAN_CAPACITY)
    })?;
    let spans = measured_spans(traced.outcome.tracers, traced.measure_start_ns);
    for (name, value) in span_times(&spans, &span_facts(&spans)) {
        result.set_if_unset(name, value);
    }
    result.attempted += run.attempted;
    result.failed += run.failed;
    Ok(())
}

/// The traced pass: each arm plain then traced, at reduced length, plus the
/// probes' workload-independent numbers handed in by the caller.
pub fn run_traced<W: ClosedWorkload>(
    w: &W,
    opts: &Options,
    probes: &[(&'static str, f64)],
) -> Result<RunResult, String> {
    let plan = Plan::seconds(1, traced_slices(opts.seconds));
    let origin = Instant::now();

    let mut result = RunResult::default();
    for &(name, value) in probes {
        result.set(name, value);
    }

    let mut plain_ops = [0.0; 2];
    let mut traced_ops = [0.0; 2];
    let mut counters = [Counters::default(); 2];
    let mut measured_ops = [0u64; 2];
    let mut facts = Vec::new();
    let mut reads_per_op = 0.0;
    for (i, arm) in Arm::BOTH.into_iter().enumerate() {
        let mut run = ArmRun::build(w, opts, arm, 1, &mut Vec::new());
        result.input_digest = run.digest();
        let plain = run.measure_verified(plan, false, origin, |_| Off)?;
        plain_ops[i] = plain.outcome.ops_per_s().quiet_high();

        let mut traced = run.measure_verified(plan, false, origin, |t| {
            Spans::new(origin, t as u16, w.trace_every(), SPAN_CAPACITY)
        })?;
        traced_ops[i] = traced.outcome.ops_per_s().quiet_high();
        counters[i] = traced.counters;
        measured_ops[i] = traced.outcome.measured_ops;
        let op_p99 = traced.outcome.lat_us(99.0).quiet_low();
        result.set(
            match arm {
                Arm::Base => "workloads.op_p99_us.base",
                Arm::Shrink => "workloads.op_p99_us.shrink",
            },
            op_p99,
        );

        let tracers = traced.outcome.tracers;
        let reads: u64 = tracers.iter().map(|t| t.reads).sum();
        let dropped: u64 = tracers.iter().map(|t| t.dropped).sum();
        let spans = measured_spans(tracers, traced.measure_start_ns);
        let f = span_facts(&spans);
        if arm == Arm::Base {
            reads_per_op = ratio(reads, f.ops);
        }
        result
            .detail
            .push((format!("spans_dropped.{}", arm.label()), dropped as f64));
        result
            .detail
            .push((format!("ops_recorded.{}", arm.label()), f.ops as f64));
        counter_details(&mut result, arm, &counters[i]);
        run.tally_into(&mut result);
        facts.push(f);
        result.spans.push((arm.label(), spans));
    }

    // Span metrics without an arm in their name describe the bare TM.
    let (base, shrink) = (&counters[0], &counters[1]);
    let times = span_times(&result.spans[0].1, &facts[0]);
    let hops = measured_ops[0] * w.hops_per_op();
    let layer = [
        (
            "stm.runtime.attempts_per_commit.base",
            base.attempts_per_commit(),
        ),
        (
            "stm.runtime.attempts_per_commit.shrink",
            shrink.attempts_per_commit(),
        ),
        ("stm.runtime.wasted_body_share", facts[0].wasted_body_share),
        (
            "stm.readtx.revalidations_per_commit",
            ratio(base.ro_revalidations, base.ro_commits),
        ),
        (
            "stm.orec.acquires_per_commit",
            ratio(base.orec_acquires, base.commits),
        ),
        ("stm.waitlist.parks_per_hop", ratio(base.parked_waits, hops)),
        (
            "stm.waitlist.changed_before_park_share",
            ratio(
                base.changed_before_park,
                base.changed_before_park + base.parked_waits,
            ),
        ),
        (
            "stm.waitlist.wasted_wake_share",
            ratio(base.wasted_wakes, base.wakes_issued),
        ),
        ("core.shrink.tax_share", 1.0 - plain_ops[1] / plain_ops[0]),
        (
            "core.shrink.serialized_share",
            ratio(shrink.serialized, shrink.commits),
        ),
        (
            "core.shrink.checks_per_commit",
            ratio(shrink.prediction_checks, shrink.commits),
        ),
        (
            "core.shrink.read_accuracy",
            ratio(shrink.read_correct, shrink.read_predicted),
        ),
        (
            "core.shrink.write_accuracy",
            ratio(shrink.write_correct, shrink.write_predicted),
        ),
        (
            "trace.overhead_share",
            1.0 - (traced_ops[0] + traced_ops[1]) / (plain_ops[0] + plain_ops[1]),
        ),
    ];
    for (name, value) in layer.into_iter().chain(times) {
        result.set(name, value);
    }
    for (i, arm) in Arm::BOTH.iter().enumerate() {
        result
            .detail
            .push((format!("ops_per_s.plain.{}", arm.label()), plain_ops[i]));
        result
            .detail
            .push((format!("ops_per_s.traced.{}", arm.label()), traced_ops[i]));
        result
            .detail
            .push((format!("op_ns.traced.{}", arm.label()), facts[i].op_ns));
    }
    result
        .detail
        .push(("reads_per_op.base".into(), reads_per_op));
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A workload whose gate reports corruption the first `corruptions`
    /// times it is asked, and two contradicted operations after that.
    struct Flaky {
        corruptions: AtomicU32,
    }

    impl ClosedWorkload for Flaky {
        type Instance = ArmRt;

        fn lat_every(&self) -> u64 {
            1
        }
        fn trace_every(&self) -> u64 {
            1
        }
        fn build(&self, rt: ArmRt, _seed: u64, _threads: usize) -> ArmRt {
            rt
        }
        fn runtime<'a>(&self, inst: &'a ArmRt) -> &'a ArmRt {
            inst
        }
        fn digest(&self, _inst: &ArmRt, _digest: &mut Digest) {}
        fn worker<T: Tracing>(
            &self,
            inst: &ArmRt,
            _thread: usize,
            clock: &SliceClock,
            rec: &mut Recorder<T>,
        ) {
            while rec.step(clock, |_, _| {
                inst.rt.run(|_| Ok(()));
                true
            }) {}
        }
        fn verify(&self, _inst: &ArmRt) -> Result<u64, String> {
            let left = self.corruptions.load(Ordering::Relaxed);
            if left > 0 {
                self.corruptions.store(left - 1, Ordering::Relaxed);
                Err("index corrupt".into())
            } else {
                Ok(2)
            }
        }
    }

    fn opts() -> Options {
        Options {
            workload: "flaky".into(),
            seed: 1,
            seconds: 1,
            trace: false,
            quick: true,
            out: PathBuf::new(),
            workers: 2,
            nproc: 2,
        }
    }

    const SHORT: Plan = Plan {
        warmup: Duration::from_millis(2),
        slices: 2,
        slice_len: Duration::from_millis(5),
    };

    #[test]
    fn a_corrupted_phase_is_discarded_and_repeated() {
        let (w, opts) = (
            Flaky {
                corruptions: AtomicU32::new(GATE_RETRIES),
            },
            opts(),
        );
        let mut run = ArmRun::build(&w, &opts, Arm::Base, 1, &mut Vec::new());
        let m = run
            .measure_verified(SHORT, false, Instant::now(), |_| Off)
            .expect("the last repeat passes the gate");
        assert_eq!(run.gate_retries, GATE_RETRIES);
        assert_eq!(run.failed, 2, "the two the kept phase's gate reported");
        assert_eq!(
            run.attempted, m.outcome.attempted,
            "the discarded phases' operations do not count"
        );
        // The retries are spent: the next corruption fails the run.
        w.corruptions.store(1, Ordering::Relaxed);
        let err = run
            .measure_verified(SHORT, false, Instant::now(), |_| Off)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, "base arm: index corrupt");
    }
}
