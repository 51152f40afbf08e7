//! # shrink-bench — figure regeneration harness
//!
//! One binary per figure of the paper (see DESIGN.md §5 for the index).
//! Binaries share the option parsing, runtime construction and table
//! formatting in this library.
//!
//! Every binary accepts:
//!
//! * `--quick` — CI-scale run (fewer thread counts, shorter windows);
//! * `--seconds <s>` — measurement window per cell (default 0.25);
//! * `--threads <a,b,c>` — override the thread sweep.
//!
//! Output is gnuplot-ready whitespace-separated series plus a `shape:`
//! trailer summarizing how the measured curves compare with the paper's
//! qualitative claims (who wins, where the crossover falls). Absolute
//! numbers are not expected to match the paper's 2009 testbed.

pub mod figures;
pub mod perf;

use std::sync::Arc;
use std::time::Duration;

use shrink_core::SchedulerKind;
use shrink_stm::{BackendKind, TmRuntime, WaitPolicy};
use shrink_workloads::harness::{run_throughput, RunConfig, RunOutcome, TxWorkload};

/// Command-line options shared by all figure binaries.
#[derive(Clone, Debug)]
pub struct BenchOpts {
    /// CI-scale run.
    pub quick: bool,
    /// Measurement window per cell, in seconds.
    pub seconds: f64,
    /// Optional explicit thread sweep.
    pub threads: Option<Vec<usize>>,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts {
            quick: false,
            seconds: 0.25,
            threads: None,
        }
    }
}

impl BenchOpts {
    /// Parses `std::env::args`, honouring the `SHRINK_BENCH_SECONDS`
    /// environment variable as a default for `--seconds`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn from_args() -> Self {
        let mut opts = BenchOpts::default();
        if let Ok(s) = std::env::var("SHRINK_BENCH_SECONDS") {
            opts.seconds = s.parse().expect("SHRINK_BENCH_SECONDS must be a float");
        }
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => opts.quick = true,
                "--seconds" => {
                    i += 1;
                    opts.seconds = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .expect("--seconds needs a float argument");
                }
                "--threads" => {
                    i += 1;
                    let list = args.get(i).expect("--threads needs a comma-separated list");
                    opts.threads = Some(
                        list.split(',')
                            .map(|t| t.parse().expect("thread counts must be integers"))
                            .collect(),
                    );
                }
                other => panic!("unknown option {other}; supported: --quick --seconds --threads"),
            }
            i += 1;
        }
        if opts.quick {
            opts.seconds = opts.seconds.min(0.1);
        }
        opts
    }

    /// The paper's STMBench7/red-black-tree thread sweep (1–24), or the
    /// quick/explicit override.
    pub fn paper_threads(&self) -> Vec<usize> {
        if let Some(t) = &self.threads {
            return t.clone();
        }
        if self.quick {
            vec![1, 2, 4, 8]
        } else {
            vec![1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24]
        }
    }

    /// The paper's STAMP sweep: 2/4/8 underloaded, 16/32/64 overloaded.
    pub fn stamp_threads(&self) -> (Vec<usize>, Vec<usize>) {
        if let Some(t) = &self.threads {
            return (t.clone(), Vec::new());
        }
        if self.quick {
            (vec![2, 4], vec![16])
        } else {
            (vec![2, 4, 8], vec![16, 32, 64])
        }
    }

    /// Per-cell run configuration at a given thread count.
    pub fn run_config(&self, threads: usize) -> RunConfig {
        let duration = Duration::from_secs_f64(self.seconds);
        RunConfig {
            threads,
            duration,
            warmup: duration / 5,
            seed: 0xC0FFEE,
        }
    }
}

/// Builds a runtime with the given backend, waiting policy and scheduler.
pub fn make_runtime(backend: BackendKind, wait: WaitPolicy, kind: &SchedulerKind) -> TmRuntime {
    TmRuntime::builder()
        .backend(backend)
        .wait_policy(wait)
        .scheduler_arc(kind.build())
        .build()
}

/// Measures one cell: fresh runtime, fresh workload, time-boxed run.
pub fn measure_cell(
    backend: BackendKind,
    wait: WaitPolicy,
    kind: &SchedulerKind,
    make_workload: impl FnOnce(&TmRuntime) -> Arc<dyn TxWorkload>,
    config: &RunConfig,
) -> RunOutcome {
    let rt = make_runtime(backend, wait, kind);
    let workload = make_workload(&rt);
    run_throughput(&rt, &workload, config)
}

/// Measures one cell `repeats` times (fresh runtime and workload each time)
/// and returns the **median** throughput.
///
/// Quick-mode windows (0.1 s) over small thread sweeps sit close to the
/// noise floor on small containers, which made single-shot qualitative
/// shape checks flap between ok/DIFFERS run-to-run. The median over a few
/// repeats stabilizes exactly those checks without lengthening the headline
/// sweep — and unlike a mean it shrugs off the occasional pathological
/// window an oversubscribed container produces.
pub fn measure_cell_median(
    backend: BackendKind,
    wait: WaitPolicy,
    kind: &SchedulerKind,
    make_workload: impl Fn(&TmRuntime) -> Arc<dyn TxWorkload>,
    config: &RunConfig,
    repeats: usize,
) -> f64 {
    assert!(repeats > 0, "repeats must be positive");
    let mut samples: Vec<f64> = (0..repeats)
        .map(|_| measure_cell(backend, wait, kind, &make_workload, config).throughput())
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Prints one gnuplot-ready series header.
pub fn print_header(figure: &str, columns: &[&str]) {
    println!("# {figure}");
    print!("# {:>8}", columns[0]);
    for c in &columns[1..] {
        print!(" {c:>14}");
    }
    println!();
}

/// Prints one row of a throughput table.
pub fn print_row(x: usize, values: &[f64]) {
    print!("{x:>10}");
    for v in values {
        print!(" {v:>14.1}");
    }
    println!();
}

/// Reports a qualitative shape check without failing the run.
pub fn shape(description: &str, holds: bool) {
    println!(
        "shape: [{}] {description}",
        if holds { "ok" } else { "DIFFERS" }
    );
}

/// Geometric-mean helper for speedup summaries.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values.iter().map(|v| v.max(1e-9).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrink_workloads::rbtree::RbTreeWorkload;

    #[test]
    fn default_sweeps_match_paper_axes() {
        let opts = BenchOpts::default();
        assert_eq!(opts.paper_threads().len(), 11);
        assert_eq!(opts.paper_threads()[0], 1);
        assert_eq!(*opts.paper_threads().last().unwrap(), 24);
        let (under, over) = opts.stamp_threads();
        assert_eq!(under, vec![2, 4, 8]);
        assert_eq!(over, vec![16, 32, 64]);
    }

    #[test]
    fn quick_mode_shrinks_everything() {
        let opts = BenchOpts {
            quick: true,
            ..BenchOpts::default()
        };
        assert!(opts.paper_threads().len() <= 4);
    }

    #[test]
    fn explicit_threads_override_both_sweeps() {
        let opts = BenchOpts {
            threads: Some(vec![3, 5]),
            ..BenchOpts::default()
        };
        assert_eq!(opts.paper_threads(), vec![3, 5]);
        assert_eq!(opts.stamp_threads().0, vec![3, 5]);
    }

    #[test]
    fn geomean_of_constant_is_constant() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn measure_cell_produces_commits() {
        let opts = BenchOpts {
            seconds: 0.05,
            ..BenchOpts::default()
        };
        let outcome = measure_cell(
            BackendKind::Swiss,
            WaitPolicy::Preemptive,
            &SchedulerKind::Noop,
            |rt| Arc::new(RbTreeWorkload::new(rt, 128, 20)),
            &opts.run_config(2),
        );
        assert!(outcome.commits > 0);
    }
}
