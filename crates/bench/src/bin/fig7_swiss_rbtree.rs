//! Figure 7: red-black-tree microbenchmark on SwissTM — base, Shrink and
//! ATS, at 20 % and 70 % update rates over the 16384-key range.
//!
//! The microbenchmark exists to expose scheduler overhead: the paper
//! measures ~13 % Shrink overhead at 1 thread shrinking to a few percent
//! at 24 threads, while ATS pays substantially more.

use std::sync::Arc;
use std::time::Duration;

use shrink_bench::figures::{rbtree_figure, Variant};
use shrink_bench::{measure_cell_median, shape, BenchOpts};
use shrink_core::SchedulerKind;
use shrink_stm::{BackendKind, TmRuntime, WaitPolicy};
use shrink_workloads::harness::TxWorkload;
use shrink_workloads::rbtree::RbTreeWorkload;

/// Repeats medianed into the noise-sensitive overload shape check (the
/// single-thread overhead check divides much larger numbers and does not
/// need it).
const SHAPE_CHECK_REPEATS: usize = 5;

fn main() {
    let opts = BenchOpts::from_args();
    let variants = [
        Variant {
            label: "SwissTM",
            kind: SchedulerKind::Noop,
        },
        Variant {
            label: "Shrink-SwissTM",
            kind: SchedulerKind::shrink_default(),
        },
        Variant {
            label: "ATS-SwissTM",
            kind: SchedulerKind::Ats,
        },
    ];
    let threads = opts.paper_threads();
    let results = rbtree_figure(
        "fig7",
        BackendKind::Swiss,
        WaitPolicy::Preemptive,
        &[20, 70],
        &variants,
        &opts,
    );
    for (pct, series) in &results {
        let overhead_1t = 1.0 - series[1][0] / series[0][0].max(1e-9);
        println!(
            "Shrink overhead at {} thread(s), {pct}% updates: {:.1}%",
            threads[0],
            overhead_1t * 100.0
        );
        shape(
            &format!("{pct}% updates: Shrink single-thread overhead is modest (paper: ~13%)"),
            overhead_1t < 0.35,
        );
        // The "overhead shrinks as threads grow" comparison runs closest to
        // the noise floor in --quick mode (0.1 s single-shot cells), so it
        // is re-measured with averaged repeats over widened windows rather
        // than trusting the sweep cells — and phrased the way the paper
        // means it: the Shrink/base throughput ratio at the top thread
        // count must be no worse than at one thread (minus a small noise
        // margin), i.e. the relative overhead does not *grow* with threads.
        let top = *threads.last().expect("thread sweep is non-empty");
        let measure_median = |kind: &SchedulerKind, t: usize| {
            let mut config = opts.run_config(t);
            config.duration = config.duration.max(Duration::from_millis(250));
            measure_cell_median(
                BackendKind::Swiss,
                WaitPolicy::Preemptive,
                kind,
                |rt: &TmRuntime| -> Arc<dyn TxWorkload> {
                    Arc::new(RbTreeWorkload::new(rt, 16384, *pct))
                },
                &config,
                SHAPE_CHECK_REPEATS,
            )
        };
        let ratio_at = |t: usize| {
            let base = measure_median(&variants[0].kind, t);
            let shrink = measure_median(&variants[1].kind, t);
            shrink / base.max(1e-9)
        };
        let ratio_one = ratio_at(threads[0]);
        let ratio_top = ratio_at(top);
        println!(
            "Shrink/base throughput ratio, {pct}% updates: {ratio_one:.3} at \
             {} thread(s) vs {ratio_top:.3} at {top}",
            threads[0]
        );
        shape(
            &format!("{pct}% updates: Shrink overhead shrinks as threads grow"),
            ratio_top >= (ratio_one - 0.10).min(0.95),
        );
    }
}
