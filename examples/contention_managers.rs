//! Cure vs prevent on a hot counter. The backends' native contention
//! managers — SwissTM's two-phase manager and TinySTM's suicide — act only
//! *after* a conflict exists; Shrink on the same Swiss runtime prevents the
//! conflict from being scheduled at all. This is the paper's titular
//! contrast.
//!
//! Run with: `cargo run --release --example contention_managers`

use std::time::Instant;

use shrink::prelude::*;

fn main() {
    const THREADS: usize = 8;
    const INCREMENTS: usize = 2_000;
    println!(
        "{:>22} {:>10} {:>10} {:>12}",
        "configuration", "commits", "aborts", "elapsed"
    );
    let configurations = [
        (
            "cure: swiss two-phase",
            BackendKind::Swiss,
            SchedulerKind::Noop,
        ),
        ("cure: tiny suicide", BackendKind::Tiny, SchedulerKind::Noop),
        (
            "prevent: swiss+shrink",
            BackendKind::Swiss,
            SchedulerKind::shrink_default(),
        ),
    ];
    for (label, backend, kind) in configurations {
        let rt = TmRuntime::builder()
            .backend(backend)
            .scheduler_arc(kind.build())
            .build();
        let hot = TVar::new(0u64);
        let started = Instant::now();
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let rt = rt.clone();
                let hot = hot.clone();
                std::thread::spawn(move || {
                    for _ in 0..INCREMENTS {
                        rt.run(|tx| tx.modify(&hot, |v| v + 1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
        let stats = rt.stats();
        assert_eq!(hot.snapshot(), (THREADS * INCREMENTS) as u64);
        println!(
            "{label:>22} {:>10} {:>10} {:>10.0}ms",
            stats.commits,
            stats.aborts,
            started.elapsed().as_secs_f64() * 1000.0
        );
    }
    println!("every configuration serialized the hot counter correctly");
}
