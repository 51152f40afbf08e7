//! A tour of the STMBench7 port: build the CAD object graph, run each
//! workload mix under base and Shrink scheduling, and audit consistency.
//!
//! Run with: `cargo run --release --example stmbench7_tour`

use std::sync::Arc;
use std::time::Duration;

use shrink::prelude::*;
use shrink::workloads::harness::{run_throughput, RunConfig};
use shrink::workloads::stmbench7::{Sb7Config, Sb7Mix, Sb7Workload};

fn main() {
    let threads = 8;
    println!(
        "{:>16} {:>10} {:>14} {:>14}",
        "mix", "scheduler", "commits/s", "aborts/commit"
    );
    for mix in Sb7Mix::all() {
        for kind in [SchedulerKind::Noop, SchedulerKind::shrink_default()] {
            let rt = TmRuntime::builder()
                .backend(BackendKind::Swiss)
                .scheduler_arc(kind.build())
                .build();
            let workload: Arc<dyn TxWorkload> =
                Arc::new(Sb7Workload::new(&rt, Sb7Config::default(), mix));
            let outcome = run_throughput(
                &rt,
                &workload,
                &RunConfig::new(threads, Duration::from_millis(250)),
            );
            println!(
                "{:>16} {:>10} {:>14.0} {:>14.3}",
                mix.label(),
                kind.label(),
                outcome.throughput(),
                outcome.abort_ratio()
            );
            workload
                .verify(&rt)
                .expect("the CAD graph must stay consistent");
        }
    }
    println!("all post-run audits passed (indexes, part graphs, RB invariants)");
    // Removed parts are freed, so this stays near the size of six object
    // graphs however long the mixes run (DESIGN.md §4).
    if let Some(kb) = peak_rss_kb() {
        println!("peak resident set (VmHWM): {:.1} MB", kb as f64 / 1024.0);
    }
}

/// `VmHWM` of this process in kB, where `/proc` has it.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.split_whitespace().next()?.parse().ok()
}
