//! Figure 5: SwissTM throughput on STMBench7 (preemptive waiting) for the
//! base TM and the Pool, Shrink and ATS schedulers, across 1–24 threads
//! and the three workload mixes.

use shrink_bench::figures::{check_overload_shape, stmbench7_figure, Variant};
use shrink_bench::{shape, BenchOpts};
use shrink_core::{SchedulerKind, SerializerConfig};
use shrink_stm::{BackendKind, WaitPolicy};

fn main() {
    let opts = BenchOpts::from_args();
    let variants = [
        Variant {
            label: "SwissTM",
            kind: SchedulerKind::Noop,
        },
        Variant {
            label: "Pool-SwissTM",
            kind: SchedulerKind::Pool,
        },
        Variant {
            label: "Shrink-SwissTM",
            kind: SchedulerKind::shrink_default(),
        },
        Variant {
            label: "ATS-SwissTM",
            kind: SchedulerKind::Ats,
        },
        Variant {
            label: "Serializer",
            kind: SchedulerKind::Serializer(SerializerConfig::default()),
        },
    ];
    let threads = opts.paper_threads();
    let results = stmbench7_figure(
        "fig5",
        BackendKind::Swiss,
        WaitPolicy::Preemptive,
        &variants,
        &opts,
    );
    for (mix, series) in &results {
        // series[0]=base, series[2]=shrink, series[3]=ats
        check_overload_shape(&format!("{mix}"), &threads, &series[0], &series[2]);
        let last = threads.len() - 1;
        shape(
            &format!("{mix}: Shrink beats ATS when heavily overloaded"),
            series[2][last] >= series[3][last] * 0.9,
        );
    }
}
