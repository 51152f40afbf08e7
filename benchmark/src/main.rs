//! The benchmark of record. One process per workload:
//!
//! ```text
//! shrink-benchmark --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--out DIR] [--quick]
//! shrink-benchmark --list
//! shrink-benchmark --compare <dir A> <dir B>
//! ```
//!
//! See `README.md` beside this package for what each workload and metric is
//! and why.

mod arms;
mod closed;
mod closed_run;
mod closed_workloads;
mod compare;
mod inputs;
mod json;
mod metrics;
mod probes;
mod report;
mod service;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use closed_workloads::{ClosedWorkload, PingPong, RbTree, Sb7Write};
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use report::{Options, RunResult};

/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;
/// `--quick`: two slices per arm. A smoke test, refused by `--compare`.
const QUICK_SECONDS: u64 = 6;

const USAGE: &str = "usage: shrink-benchmark --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--out DIR] [--quick]
       shrink-benchmark --list
       shrink-benchmark --compare <dir A> <dir B>";

enum Command {
    Run(Options),
    List,
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        workers: nproc.clamp(2, 4),
        nproc,
    };
    let mut seconds_given = false;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--list" => return Ok(Command::List),
            "--compare" => {
                let a = value(&mut i, "--compare")?;
                let b = value(&mut i, "--compare")?;
                return Ok(Command::Compare(a.into(), b.into()));
            }
            "--workload" => opts.workload = value(&mut i, "--workload")?,
            "--seed" => {
                opts.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a whole number".to_string())?;
            }
            "--seconds" => {
                opts.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds must be a whole number from 1 to 60")?;
                seconds_given = true;
            }
            "--trace" => {
                // The driver passes `--trace 0|1`; a bare `--trace` means 1.
                opts.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--out" => opts.out = value(&mut i, "--out")?.into(),
            "--quick" => opts.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if opts.quick && !seconds_given {
        opts.seconds = QUICK_SECONDS;
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == opts.workload) {
        return Err(format!(
            "--workload must be one of: {}",
            WORKLOADS.map(|(name, _)| name).join(", ")
        ));
    }
    Ok(Command::Run(opts))
}

fn run_closed<W: ClosedWorkload>(
    w: &W,
    opts: &Options,
    probes: Option<&[(&'static str, f64)]>,
) -> Result<RunResult, String> {
    match probes {
        None => closed_run::run_untraced(w, opts),
        Some(probes) => closed_run::run_traced(w, opts, probes),
    }
}

/// The paper's fig7 parameters: 16384 keys half-filled, 20 % updates.
const RBTREE_LOWCONT: RbTree = RbTree {
    key_range: 16384,
    update_permille: 200,
};
const RBTREE_HOT: RbTree = RbTree {
    key_range: 64,
    update_permille: 1000,
};

fn run_workload(opts: &Options) -> Result<RunResult, String> {
    // The probes are workload-independent, but the contract wants every
    // per-layer metric from every traced run.
    let probes = opts
        .trace
        .then(|| probes::run_all(closed_run::probe_window(opts.seconds), opts.workers));
    let probes = probes.as_deref();
    let mut result = match opts.workload.as_str() {
        "rbtree_lowcont" => run_closed(&RBTREE_LOWCONT, opts, probes),
        "rbtree_hot" => run_closed(&RBTREE_HOT, opts, probes),
        "sb7_write" => run_closed(&Sb7Write, opts, probes),
        "handoff_pingpong" => run_closed(&PingPong, opts, probes),
        "service_steady" => match probes {
            None => service::run_untraced(opts),
            Some(probes) => service::run_traced(opts, probes),
        },
        other => Err(format!("unknown workload {other:?}")),
    }?;
    if opts.trace {
        span_probes(opts, &mut result)?;
    }
    Ok(result)
}

/// A workload's spans time only the layers it calls into. Whatever span
/// time is still missing after its own phases is measured on a short phase
/// of the workload that yields it, so that every traced run reports every
/// layer's times; see `closed_run::span_probe`.
fn span_probes(opts: &Options, result: &mut RunResult) -> Result<(), String> {
    if result.metric("workloads.rbtree.get_ns") == 0.0 {
        closed_run::span_probe(&RBTREE_LOWCONT, opts, result)?;
    }
    if result.metric("workloads.sb7.step_us_p50") == 0.0 {
        closed_run::span_probe(&Sb7Write, opts, result)?;
    }
    if result.metric("stm.waitlist.hop_us") == 0.0 {
        closed_run::span_probe(&PingPong, opts, result)?;
    }
    if result.metric("workloads.service.read_us_p50") == 0.0 {
        service::span_probe(opts, result)?;
    }
    Ok(())
}

/// Orders the metrics as `BENCHMARK.json` lists them; a per-layer count of
/// a layer the workload did not exercise reads 0.
fn in_contract_order(result: &mut RunResult, trace: bool) {
    let defs: &[metrics::MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    result.metrics = defs
        .iter()
        .map(|m| (m.name, result.metric(m.name)))
        .collect();
}

/// The sanity lines that depend on the workload: printed, never gated.
fn workload_sanity(opts: &Options, result: &mut RunResult) {
    let detail = |r: &RunResult, key: &str| {
        r.detail
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v)
    };
    let attempts = detail(result, "attempts_per_commit.base");
    let (failed, attempted) = (result.failed, result.attempted);
    result.check(
        &format!("{failed} of {attempted} operations failed (want 0)"),
        failed == 0,
    );
    let sum = |prefix: &str| -> f64 {
        let matching = result.detail.iter().filter(|(k, _)| k.starts_with(prefix));
        matching.fold(0.0, |sum, (_, v)| sum + v)
    };
    let (reruns, discarded) = (sum("ops_rerun."), sum("gate_retries."));
    result.check(
        &format!(
            "{reruns} operations issued again after a panicking attempt, {discarded} phases discarded by the gate (want 0 and 0)"
        ),
        reruns == 0.0 && discarded == 0.0,
    );
    match opts.workload.as_str() {
        "rbtree_lowcont" => {
            result.check(
                &format!("attempts_per_commit.base {attempts:.5} < 1.01 on rbtree_lowcont"),
                attempts < 1.01,
            );
            if opts.trace {
                // Conflicts are absent, so the layers' costs should add up
                // to the time of an operation: runtime overhead plus reads
                // times the per-read cost (80 % of operations read through
                // `ReadTx`, 20 % through `Tx`).
                let read_ns = 0.8 * result.metric("stm.readtx.read_ns")
                    + 0.2 * result.metric("stm.txn.read_ns");
                let sum = result.metric("stm.runtime.overhead_ns")
                    + detail(result, "reads_per_op.base") * read_ns;
                let op_ns = detail(result, "op_ns.traced.base");
                result.check(
                    &format!(
                        "layer sum {sum:.0} ns within 25 % of the traced operation's {op_ns:.0} ns"
                    ),
                    (sum - op_ns).abs() <= 0.25 * op_ns,
                );
            }
        }
        "rbtree_hot" => result.check(
            &format!("attempts_per_commit.base {attempts:.4} > 1.03 on rbtree_hot"),
            attempts > 1.03,
        ),
        "handoff_pingpong" if opts.trace => {
            let parks = result.metric("stm.waitlist.parks_per_hop");
            result.check(
                &format!("stm.waitlist.parks_per_hop {parks:.3} > 0.9"),
                parks > 0.9,
            );
        }
        _ => {}
    }
}

fn run(opts: &Options) -> Result<(), String> {
    let mut result = run_workload(opts)?;
    workload_sanity(opts, &mut result);
    if opts.trace {
        std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
        let arms: Vec<(&str, &[trace::Span])> = result
            .spans
            .iter()
            .map(|(arm, spans)| (*arm, spans.as_slice()))
            .collect();
        let path = report::trace_path(opts);
        trace::write_jsonl(&path, &arms).map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        result.set("peak_rss_mb", report::peak_rss_mb()?);
    }
    in_contract_order(&mut result, opts.trace);
    let path = report::result_path(opts);
    report::write_result(&path, opts, &result).map_err(|e| format!("{}: {e}", path.display()))?;

    eprintln!(
        "{} seed {} ({} s, W = {} of nproc {}, trace {}): input_digest {}",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.workers,
        opts.nproc,
        u8::from(opts.trace),
        result.input_digest
    );
    for (name, value) in &result.metrics {
        eprintln!("  {name:<42} {value:>16.4} {}", metrics::unit_of(name));
    }
    for line in &result.sanity {
        eprintln!("  sanity {line}");
    }
    eprintln!("  result file {}", path.display());
    println!("{}", report::driver_line(&result));
    Ok(())
}

fn main() -> ExitCode {
    // Workers catch an operation that panics (README.md, "Known failure").
    // Report it in one line: with `RUST_BACKTRACE` set the default hook
    // symbolises a backtrace, which stalls the worker and loads ~28 MB of
    // debug info into `peak_rss_mb`.
    std::panic::set_hook(Box::new(|info| eprintln!("shrink-benchmark: {info}")));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Err(e) => Err(format!("{e}\n{USAGE}")),
        Ok(Command::List) => {
            print!("{}", metrics::list());
            Ok(())
        }
        Ok(Command::Compare(a, b)) => compare::compare(&a, &b).and_then(|(table, any_worse)| {
            print!("{table}");
            if any_worse {
                Err("at least one end-to-end metric is worse by more than its bound".into())
            } else {
                Ok(())
            }
        }),
        Ok(Command::Run(opts)) => run(&opts),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // A failed correctness gate prints no metrics.
            eprintln!("shrink-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&args)
    }

    fn run_opts(line: &str) -> Options {
        match parse(line) {
            Ok(Command::Run(opts)) => opts,
            _ => panic!("{line:?} must parse as a run"),
        }
    }

    #[test]
    fn driver_command_line_parses() {
        let o = run_opts("--workload rbtree_hot --seed 7 --seconds 20 --trace 0");
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds),
            ("rbtree_hot", 7, 20)
        );
        assert!(!o.trace && !o.quick);
        assert!(run_opts("--workload rbtree_hot --seed 7 --seconds 20 --trace 1").trace);
        assert!((2..=4).contains(&o.workers), "W = clamp(nproc, 2, 4)");
    }

    #[test]
    fn bare_trace_flag_and_quick_mode() {
        let o = run_opts("--workload sb7_write --trace --out somewhere");
        assert!(o.trace);
        assert_eq!(o.out, PathBuf::from("somewhere"));
        assert_eq!(o.seconds, DEFAULT_SECONDS);
        let q = run_opts("--trace --quick --workload sb7_write");
        assert!(q.trace && q.quick);
        assert_eq!(q.seconds, QUICK_SECONDS);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload rbtree_hot --seconds 0",
            "--workload rbtree_hot --seconds 61",
            "--workload rbtree_hot --seed x",
            "--workload rbtree_hot --bogus",
            "--workload",
            "--compare only-one",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
        assert!(matches!(parse("--list"), Ok(Command::List)));
        assert!(matches!(parse("--compare a b"), Ok(Command::Compare(..))));
    }
}
