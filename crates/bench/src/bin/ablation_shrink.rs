//! Ablation study: which of Shrink's ingredients buys what?
//!
//! Runs the write-dominated STMBench7 mix (the paper's most
//! scheduler-sensitive configuration) in a heavily overloaded setting and
//! compares:
//!
//! * `base` — no scheduler;
//! * `shrink` — the full scheduler (paper defaults);
//! * `literal-paper` — affinity bias 0, the listing taken literally (cannot
//!   bootstrap; expected ≈ base);
//! * `always-predict` — affinity gate forced open (bias = the lottery's
//!   modulus, 32): serialization affinity ablated;
//! * `window-1`/`window-8` — locality window halved/doubled;
//! * `pool` — serialize on any contention (no prediction at all).

use std::sync::Arc;

use shrink_bench::{measure_cell, print_header, BenchOpts};
use shrink_core::{SchedulerKind, ShrinkConfig};
use shrink_stm::{BackendKind, WaitPolicy};
use shrink_workloads::harness::TxWorkload;
use shrink_workloads::stmbench7::{Sb7Config, Sb7Mix, Sb7Workload};

fn main() {
    let opts = BenchOpts::from_args();
    let threads = if opts.quick { 8 } else { 16 };

    let defaults = ShrinkConfig::default();
    let variants: Vec<(&str, SchedulerKind)> = vec![
        ("base", SchedulerKind::Noop),
        ("shrink", SchedulerKind::Shrink(defaults.clone())),
        (
            "literal-paper",
            SchedulerKind::Shrink(ShrinkConfig {
                affinity_bias: 0,
                ..defaults.clone()
            }),
        ),
        (
            "always-predict",
            SchedulerKind::Shrink(ShrinkConfig {
                affinity_bias: 32,
                ..defaults.clone()
            }),
        ),
        (
            "window-1",
            SchedulerKind::Shrink(ShrinkConfig {
                confidence_weights: vec![3],
                ..defaults.clone()
            }),
        ),
        (
            "window-8",
            SchedulerKind::Shrink(ShrinkConfig {
                confidence_weights: vec![3, 3, 2, 2, 1, 1, 1],
                ..defaults.clone()
            }),
        ),
        ("pool", SchedulerKind::Pool),
    ];

    println!("== Shrink ablation: STMBench7 write-dominated, {threads} threads ==");
    print_header("ablation", &["variant", "commits/s", "aborts/commit"]);
    let mut baseline = None;
    for (label, kind) in &variants {
        let outcome = measure_cell(
            BackendKind::Swiss,
            WaitPolicy::Preemptive,
            kind,
            |rt| -> Arc<dyn TxWorkload> {
                Arc::new(Sb7Workload::new(
                    rt,
                    Sb7Config::default(),
                    Sb7Mix::WriteDominated,
                ))
            },
            &opts.run_config(threads),
        );
        if *label == "base" {
            baseline = Some(outcome.throughput());
        }
        let relative = baseline
            .map(|b| outcome.throughput() / b.max(1.0))
            .unwrap_or(1.0);
        println!(
            "{label:>16} {:>14.1} {:>14.3}   ({relative:.2}x base)",
            outcome.throughput(),
            outcome.abort_ratio()
        );
    }
}
