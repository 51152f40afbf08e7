//! `service_steady`: the sharded store under a fixed-rate open loop, plus
//! closed-loop capacity arms.
//!
//! The open loop is the benchmark's own. The crate's `run_open_loop` sleeps
//! to each due time, and the sleep's ~55 µs timer slack would be most of
//! the median; here a worker that is early spins until the request is due
//! and times from the due instant. It never sleeps: a sleeping worker halts
//! its virtual CPU, and how fast a shared host hands a halted CPU back
//! varied the median from 59 to 124 µs between identical runs while the
//! same store's closed-loop capacity moved by 3 %. The rate is an absolute
//! constant, never recalibrated to capacity — a faster store must show as
//! lower latency, not as more offered load.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use shrink_workloads::service::{
    build_schedule, BookingOutcome, Request, RequestKind, RequestMix, ShardedStore, TrafficConfig,
};

use crate::arms::{
    build_runtime, ratio, setup_samples, timed_builds, Arm, ArmRt, Counters, SETUP_SAMPLES,
};
use crate::closed::Plan;
use crate::closed_run::{measure_counted, traced_slices, Measured};
use crate::inputs::Digest;
use crate::report::{Options, RunResult};
use crate::stats::{percentile, slice_percentiles_us, summarize, PerSlice};
use crate::trace::{measured_spans, Off, Spans, Tracing};

/// Offered load of the open loop, requests per second.
pub const RATE_RPS: u64 = 8000;
/// A request finishing later than this after its due time is tallied as
/// late (a sanity line, not a failure: its latency is in the percentiles,
/// and on a shared host one stolen time slice makes hundreds late).
const LATE_LIMIT: Duration = Duration::from_millis(50);
/// How long a booking may wait for its two units. A booking takes ~7 µs and
/// W workers can never hold all of a shard's units, so none waits long on a
/// working store; the deadline is generous so that a descheduled holder
/// shows as latency rather than as a declined (failed) booking.
const BOOKING_DEADLINE: Duration = Duration::from_secs(2);
/// The schedule starts this long after the workers do, so the first
/// requests are not late by thread start-up.
const START_LEAD: Duration = Duration::from_millis(5);
/// Spin iterations inside each transaction body (the request's work).
const TX_WORK: u32 = 300_000;
const SPAN_CAPACITY: usize = 1 << 18;

struct Service {
    store: ShardedStore,
    rts: Vec<ArmRt>,
}

/// Four shards of 32 accounts, balance 1000, three booking units per shard,
/// every shard on `arm`'s runtime.
fn build_store(arm: Arm) -> Service {
    let mut rts = Vec::new();
    let mut store = ShardedStore::new(4, 32, 1000, 3, |_| {
        let rt = build_runtime(arm);
        rts.push(rt.clone());
        rt.rt
    });
    store.set_tx_work(TX_WORK);
    Service { store, rts }
}

fn schedule_for(opts: &Options, store: &ShardedStore, seconds: usize) -> Vec<Request> {
    let cfg = TrafficConfig {
        clients: 1000,
        workers: opts.workers,
        requests: RATE_RPS as usize * seconds,
        offered_rps: RATE_RPS as f64,
        zipf_s: 1.2,
        burstiness: 0.0,
        burst_period: Duration::from_secs(1),
        mix: RequestMix::DEFAULT,
        booking_deadline: BOOKING_DEADLINE,
        seed: opts.seed,
    };
    build_schedule(store.n_keys(), store.n_shards(), &cfg)
}

fn digest_of(schedule: &[Request]) -> String {
    let mut digest = Digest::default();
    for r in schedule {
        digest.push(r.arrival.as_nanos() as u64);
        digest.push(r.kind as u64);
        digest.push(r.a as u64);
        digest.push(r.b as u64);
    }
    digest.hex()
}

/// Executes one request; `false` means a declined booking.
fn serve<T: Tracing>(store: &ShardedStore, req: &Request, tr: &mut T) -> bool {
    match req.kind {
        RequestKind::Read => {
            tr.begin("store.read_key");
            black_box(store.read_key(req.a));
            tr.end();
            true
        }
        RequestKind::Update => {
            tr.begin("store.update_key");
            store.update_key(req.a);
            tr.end();
            true
        }
        RequestKind::Transfer => {
            tr.begin("store.transfer");
            store.transfer(req.a, req.b, 1);
            tr.end();
            true
        }
        RequestKind::Booking => {
            tr.begin("store.book");
            let outcome = store.book(req.a, req.b, Instant::now() + BOOKING_DEADLINE);
            tr.end();
            outcome == BookingOutcome::Confirmed
        }
    }
}

/// Closed-loop capacity: workers stride through the schedule back to back,
/// ignoring arrival times. Also returns the bookings the store confirmed
/// to the workers.
fn closed_arm<T: Tracing>(
    svc: &Service,
    schedule: &[Request],
    workers: usize,
    plan: Plan,
    origin: Instant,
    make_tracer: impl Fn(usize) -> T,
) -> (Measured<T>, u64) {
    let (measured, confirmed) = measure_counted(
        &svc.rts,
        workers,
        plan,
        1,
        origin,
        make_tracer,
        |thread, clock, rec| {
            let mut bookings_confirmed = 0;
            while rec.step(clock, |id, tr| {
                let req = &schedule[(thread + id as usize * workers) % schedule.len()];
                let confirmed = serve(&svc.store, req, tr);
                bookings_confirmed += u64::from(confirmed && req.kind == RequestKind::Booking);
                confirmed
            }) {}
            bookings_confirmed
        },
    );
    (measured, confirmed.iter().sum())
}

/// One served open-loop request, times in ns since the run's origin.
#[derive(Clone, Copy, Debug)]
struct Served {
    kind: RequestKind,
    slice: usize,
    due_ns: u64,
    start_ns: u64,
    end_ns: u64,
    /// `false` only for a declined booking.
    confirmed: bool,
    /// The worker had claimed the request before it was due and was
    /// waiting for it: `start − due` is then how late the generator ran.
    waited: bool,
}

impl Served {
    fn latency_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.due_ns)
    }

    fn call_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn queue_ns(&self) -> u64 {
        self.start_ns.saturating_sub(self.due_ns)
    }

    fn late(&self) -> bool {
        self.latency_ns() > LATE_LIMIT.as_nanos() as u64
    }
}

struct OpenLoop<T> {
    served: Vec<Served>,
    counters: Counters,
    tracers: Vec<T>,
}

impl<T> OpenLoop<T> {
    fn bookings_confirmed(&self) -> u64 {
        self.served
            .iter()
            .filter(|s| s.kind == RequestKind::Booking && s.confirmed)
            .count() as u64
    }

    /// Declined bookings.
    fn failed(&self) -> u64 {
        self.served.iter().filter(|s| !s.confirmed).count() as u64
    }

    fn late(&self) -> u64 {
        self.served.iter().filter(|s| s.late()).count() as u64
    }
}

/// Serves `schedule` at its own pace: workers claim requests in arrival
/// order, wait for each one's due time, and time from that instant.
fn open_loop<T: Tracing>(
    svc: &Service,
    schedule: &[Request],
    workers: usize,
    slices: usize,
    origin: Instant,
    make_tracer: impl Fn(usize) -> T,
) -> OpenLoop<T> {
    let cursor = AtomicUsize::new(0);
    let before = Counters::snapshot(&svc.rts);
    let t0 = Instant::now() + START_LEAD;
    let t0_ns = (t0 - origin).as_nanos() as u64;
    let mut tracers: Vec<T> = (0..workers).map(make_tracer).collect();
    let lanes: Vec<Vec<Served>> = std::thread::scope(|scope| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .map(|tr| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut lane = Vec::with_capacity(schedule.len());
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = schedule.get(i) else { break };
                        let due = t0 + req.arrival;
                        let claimed = Instant::now();
                        let waited = claimed < due;
                        while Instant::now() < due {
                            std::hint::spin_loop();
                        }
                        let due_ns = t0_ns + req.arrival.as_nanos() as u64;
                        tr.begin_op_at(i as u64, "request", due_ns);
                        let start = Instant::now();
                        let confirmed = serve(&svc.store, req, tr);
                        let end = Instant::now();
                        tr.end();
                        lane.push(Served {
                            kind: req.kind,
                            slice: (req.arrival.as_secs() as usize).min(slices - 1),
                            due_ns,
                            start_ns: (start - origin).as_nanos() as u64,
                            end_ns: (end - origin).as_nanos() as u64,
                            confirmed,
                            waited,
                        });
                    }
                    lane
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop worker panicked"))
            .collect()
    });
    OpenLoop {
        served: lanes.into_iter().flatten().collect(),
        counters: Counters::snapshot(&svc.rts).since(&before),
        tracers,
    }
}

/// Percentile `q` of due→completion latency in each slice, µs.
fn open_latency_us(served: &[Served], slices: usize, q: f64) -> PerSlice {
    let mut per_slice = vec![Vec::new(); slices];
    for s in served {
        per_slice[s.slice].push(s.latency_ns());
    }
    slice_percentiles_us(&mut per_slice, q)
}

/// Percentile (µs) of `value` over the served requests `keep` selects.
fn served_us(
    served: &[Served],
    q: f64,
    keep: impl Fn(&Served) -> bool,
    value: impl Fn(&Served) -> u64,
) -> f64 {
    let mut v: Vec<u64> = served.iter().filter(|s| keep(s)).map(value).collect();
    v.sort_unstable();
    percentile(&v, q).map_or(0.0, |ns| ns as f64 / 1e3)
}

fn gen_late_us_p99(served: &[Served]) -> f64 {
    served_us(served, 99.0, |s| s.waited, Served::queue_ns)
}

/// The sanity lines of the open loop: printed, not gated.
fn open_sanity<T>(result: &mut RunResult, open: &OpenLoop<T>, p50_us: f64) {
    let missed = open.served.iter().filter(|s| !s.confirmed || s.late());
    let done = 1.0 - ratio(missed.count() as u64, open.served.len() as u64);
    result
        .detail
        .push(("open.late_requests".into(), open.late() as f64));
    result.check(
        &format!(
            "service_steady completed {:.3} % of offered requests on time (want >= 99 %)",
            done * 100.0
        ),
        done >= 0.99,
    );
    let late = gen_late_us_p99(&open.served);
    result.check(
        &format!("gen_late_us_p99 {late:.2} us < 10 % of p50_us {p50_us:.2} us"),
        late < 0.1 * p50_us,
    );
}

/// The correctness gate: money conserved on a distributed snapshot, booking
/// capacity conserved (`audit_bookings` asserts it) with exactly the
/// bookings this run saw confirmed, no transfer left in flight.
fn verify(svc: &Service, arm: Arm, confirmed: u64) -> Result<(), String> {
    let total = svc.store.audit_conservation();
    if total != svc.store.expected_total() {
        return Err(format!(
            "{} store: audited total {total} != expected {}",
            arm.label(),
            svc.store.expected_total()
        ));
    }
    let audited = svc.store.audit_bookings();
    if audited != confirmed {
        return Err(format!(
            "{} store: {audited} bookings on the books, {confirmed} confirmed to callers",
            arm.label()
        ));
    }
    match svc.store.pending_transfers() {
        0 => Ok(()),
        n => Err(format!(
            "{} store: {n} transfers still in flight",
            arm.label()
        )),
    }
}

/// Closed-loop slices per arm and open-loop slices of an untraced run of
/// `seconds`: two closed arms (1 s warm-up each) and the open loop.
pub fn untraced_plan(seconds: u64) -> (usize, usize) {
    let closed = (seconds.saturating_sub(2) / 4).max(2);
    let open = seconds.saturating_sub(2 + 2 * closed).max(3);
    (closed as usize, open as usize)
}

/// Open-loop slices of a traced run: what three closed phases (base plain,
/// Shrink plain, Shrink traced) leave of its 70 % share.
fn traced_open_slices(seconds: u64) -> usize {
    let closed = 3 * (1 + traced_slices(seconds) as u64);
    (seconds * 7 / 10).saturating_sub(closed).max(3) as usize
}

/// Builds each arm's store and the schedule, timing `samples` windows of
/// builds per arm; returns each arm's last store, the schedule and the
/// timings.
fn set_up(
    opts: &Options,
    open_slices: usize,
    samples: usize,
) -> (Vec<Service>, Vec<Request>, Vec<f64>) {
    let mut setup_s = Vec::new();
    let mut schedule = Vec::new();
    let services = Arm::BOTH
        .iter()
        .map(|&arm| {
            let (svc, times) = timed_builds(samples, || {
                let svc = build_store(arm);
                schedule = schedule_for(opts, &svc.store, open_slices);
                svc
            });
            setup_s.extend(times);
            svc
        })
        .collect();
    (services, schedule, setup_s)
}

pub fn run_untraced(opts: &Options) -> Result<RunResult, String> {
    let (closed_slices, open_slices) = untraced_plan(opts.seconds);
    let origin = Instant::now();
    let (services, schedule, setup_s) = set_up(opts, open_slices, SETUP_SAMPLES);
    let mut result = RunResult {
        input_digest: digest_of(&schedule),
        ..RunResult::default()
    };

    let plan = Plan::seconds(1, closed_slices);
    let mut confirmed = [0u64; 2];
    for (i, (&arm, svc)) in Arm::BOTH.iter().zip(&services).enumerate() {
        let (closed, bookings) = closed_arm(svc, &schedule, opts.workers, plan, origin, |_| Off);
        let ops = closed.outcome.ops_per_s();
        result.set(
            match arm {
                Arm::Base => "ops_per_s.base",
                Arm::Shrink => "ops_per_s.shrink",
            },
            ops.quiet_high(),
        );
        result.detail_summary(&format!("ops_per_s.{}", arm.label()), ops.summary());
        result.detail.push((
            format!("attempts_per_commit.{}", arm.label()),
            closed.counters.attempts_per_commit(),
        ));
        result.detail.push((
            format!("ops_rerun.{}", arm.label()),
            closed.outcome.reruns as f64,
        ));
        result.attempted += closed.outcome.attempted;
        result.failed += closed.outcome.failed;
        confirmed[i] = bookings;
    }

    // The open loop runs on the Shrink store, already warm from its arm.
    let open = open_loop(
        &services[1],
        &schedule,
        opts.workers,
        open_slices,
        origin,
        |_| Off,
    );
    let p50 = open_latency_us(&open.served, open_slices, 50.0);
    let p99 = open_latency_us(&open.served, open_slices, 99.0);
    result.set("p50_us", p50.quiet_low());
    result.detail_summary("p50_us", p50.summary());
    result.detail_summary("p99_us", p99.summary());
    result.detail.push((
        "open.attempts_per_commit".into(),
        open.counters.attempts_per_commit(),
    ));
    result.attempted += open.served.len() as u64;
    result.failed += open.failed();
    confirmed[1] += open.bookings_confirmed();
    open_sanity(&mut result, &open, p50.quiet_low());

    for (i, (&arm, svc)) in Arm::BOTH.iter().zip(&services).enumerate() {
        verify(svc, arm, confirmed[i])?;
    }
    let setup = summarize(&setup_samples(&setup_s));
    result.set("setup_s", setup.median);
    result.detail_summary("setup_s", setup);
    Ok(result)
}

/// The per-layer times an open loop's served requests yield.
fn open_times(served: &[Served], slices: usize) -> [(&'static str, f64); 9] {
    let call_p50 = |kind| served_us(served, 50.0, |s| s.kind == kind, Served::call_ns);
    let all_p99 = |value: fn(&Served) -> u64| served_us(served, 99.0, |_| true, value);
    [
        ("stm.registry.book_us_p50", call_p50(RequestKind::Booking)),
        ("workloads.service.read_us_p50", call_p50(RequestKind::Read)),
        (
            "workloads.service.update_us_p50",
            call_p50(RequestKind::Update),
        ),
        (
            "workloads.service.transfer_us_p50",
            call_p50(RequestKind::Transfer),
        ),
        (
            "workloads.service.booking_us_p50",
            call_p50(RequestKind::Booking),
        ),
        ("workloads.service.call_us_p99", all_p99(Served::call_ns)),
        (
            "workloads.service.queue_wait_us_p99",
            all_p99(Served::queue_ns),
        ),
        ("workloads.service.gen_late_us_p99", gen_late_us_p99(served)),
        (
            "workloads.service.latency_us_p99",
            open_latency_us(served, slices, 99.0).quiet_low(),
        ),
    ]
}

/// Open-loop seconds of a [`span_probe`].
const PROBE_SLICES: usize = 2;

/// The service's counterpart of `closed_run::span_probe`: fills in the
/// service times `result` still lacks from a short traced open loop on a
/// fresh Shrink store. They describe the service, not the workload the run
/// was asked for.
pub fn span_probe(opts: &Options, result: &mut RunResult) -> Result<(), String> {
    let origin = Instant::now();
    let svc = build_store(Arm::Shrink);
    let schedule = schedule_for(opts, &svc.store, PROBE_SLICES);
    let open = open_loop(&svc, &schedule, opts.workers, PROBE_SLICES, origin, |t| {
        Spans::new(origin, t as u16, 1, SPAN_CAPACITY)
    });
    verify(&svc, Arm::Shrink, open.bookings_confirmed())?;
    for (name, value) in open_times(&open.served, PROBE_SLICES) {
        result.set_if_unset(name, value);
    }
    result.attempted += open.served.len() as u64;
    result.failed += open.failed();
    Ok(())
}

pub fn run_traced(opts: &Options, probes: &[(&'static str, f64)]) -> Result<RunResult, String> {
    let open_slices = traced_open_slices(opts.seconds);
    let origin = Instant::now();
    let (services, schedule, _) = set_up(opts, open_slices, 1);
    let mut result = RunResult {
        input_digest: digest_of(&schedule),
        ..RunResult::default()
    };
    for &(name, value) in probes {
        result.set(name, value);
    }
    let plan = Plan::seconds(1, traced_slices(opts.seconds));
    let (base_svc, shrink_svc) = (&services[0], &services[1]);
    let workers = opts.workers;

    let (mut base, base_bookings) = closed_arm(base_svc, &schedule, workers, plan, origin, |_| Off);
    let (mut plain, plain_bookings) =
        closed_arm(shrink_svc, &schedule, workers, plan, origin, |_| Off);
    let (traced, traced_bookings) = closed_arm(shrink_svc, &schedule, workers, plan, origin, |t| {
        Spans::new(origin, t as u16, 1, SPAN_CAPACITY)
    });
    let open = open_loop(shrink_svc, &schedule, workers, open_slices, origin, |t| {
        Spans::new(origin, t as u16, 1, SPAN_CAPACITY)
    });

    let (base_ops, plain_ops, traced_ops) = (
        base.outcome.ops_per_s().quiet_high(),
        plain.outcome.ops_per_s().quiet_high(),
        traced.outcome.ops_per_s().quiet_high(),
    );
    result.attempted = base.outcome.attempted
        + plain.outcome.attempted
        + traced.outcome.attempted
        + open.served.len() as u64;
    result.failed =
        base.outcome.failed + plain.outcome.failed + traced.outcome.failed + open.failed();
    verify(base_svc, Arm::Base, base_bookings)?;
    verify(
        shrink_svc,
        Arm::Shrink,
        plain_bookings + traced_bookings + open.bookings_confirmed(),
    )?;

    let served = &open.served;
    let requests = served.len() as u64;
    let bookings = served
        .iter()
        .filter(|s| s.kind == RequestKind::Booking)
        .count() as u64;
    let p50 = open_latency_us(served, open_slices, 50.0);
    let p99 = open_latency_us(served, open_slices, 99.0);
    // Shrink's counters come from the open loop: that is the pass the
    // workload's latency metrics are measured on.
    let c = &open.counters;
    let layer = [
        (
            "stm.runtime.attempts_per_commit.base",
            base.counters.attempts_per_commit(),
        ),
        (
            "stm.runtime.attempts_per_commit.shrink",
            plain.counters.attempts_per_commit(),
        ),
        (
            "stm.readtx.revalidations_per_commit",
            ratio(c.ro_revalidations, c.ro_commits),
        ),
        (
            "stm.orec.acquires_per_commit",
            ratio(c.orec_acquires, c.commits),
        ),
        (
            "stm.waitlist.parks_per_hop",
            ratio(c.parked_waits, requests),
        ),
        (
            "stm.waitlist.changed_before_park_share",
            ratio(
                c.changed_before_park,
                c.changed_before_park + c.parked_waits,
            ),
        ),
        (
            "stm.waitlist.wasted_wake_share",
            ratio(c.wasted_wakes, c.wakes_issued),
        ),
        (
            "stm.registry.select_parks_per_booking",
            ratio(c.select_parked, bookings),
        ),
        ("core.shrink.tax_share", 1.0 - plain_ops / base_ops),
        (
            "core.shrink.serialized_share",
            ratio(c.serialized, c.commits),
        ),
        (
            "core.shrink.checks_per_commit",
            ratio(c.prediction_checks, c.commits),
        ),
        (
            "core.shrink.read_accuracy",
            ratio(c.read_correct, c.read_predicted),
        ),
        (
            "core.shrink.write_accuracy",
            ratio(c.write_correct, c.write_predicted),
        ),
        (
            "workloads.op_p99_us.base",
            base.outcome.lat_us(99.0).quiet_low(),
        ),
        (
            "workloads.op_p99_us.shrink",
            plain.outcome.lat_us(99.0).quiet_low(),
        ),
        (
            "workloads.service.aborts_per_request",
            ratio(c.aborts, requests),
        ),
        ("trace.overhead_share", 1.0 - traced_ops / plain_ops),
    ];
    for (name, value) in layer.into_iter().chain(open_times(served, open_slices)) {
        result.set(name, value);
    }
    result.detail_summary("traced.p50_us", p50.summary());
    result.detail_summary("traced.p99_us", p99.summary());
    for (name, ops) in [
        ("ops_per_s.plain.base", base_ops),
        ("ops_per_s.plain.shrink", plain_ops),
        ("ops_per_s.traced.shrink", traced_ops),
    ] {
        result.detail.push((name.into(), ops));
    }
    open_sanity(&mut result, &open, p50.quiet_low());

    let dropped: u64 = traced
        .outcome
        .tracers
        .iter()
        .chain(&open.tracers)
        .map(|t| t.dropped)
        .sum();
    result.detail.push(("spans_dropped".into(), dropped as f64));
    result.spans.push((
        "shrink.closed",
        measured_spans(traced.outcome.tracers, traced.measure_start_ns),
    ));
    result
        .spans
        .push(("shrink.open", measured_spans(open.tracers, 0)));
    Ok(result)
}
