//! Criterion micro-benchmarks: STM primitives, scheduler hook overhead,
//! Bloom-filter prediction machinery and the theory simulators.
//!
//! These quantify the constant factors behind the figures (e.g. the
//! paper's ~13 % single-thread Shrink overhead on the red-black tree);
//! the full figure sweeps live in the `fig*` binaries.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use shrink_core::{BloomFilter, SchedulerKind, Shrink, ShrinkConfig};
use shrink_stm::{BackendKind, TVar, TmRuntime};
use shrink_theory::{ats_makespan, restart_makespan, scenarios, serializer_makespan};
use shrink_workloads::rbtree::TxRbTree;
use shrink_workloads::stmbench7::{Sb7Config, Sb7Mix, Sb7Workload};
use shrink_workloads::TxWorkload;

/// The raw `TVar` snapshot read path, isolated from transaction machinery:
/// inline seqlock (small dropless payloads) vs. epoch-pinned boxed path,
/// plus contended variants with a writer churning in the background. This
/// is the surface the `vendor/crossbeam` epoch rewrite optimizes — compare
/// against the orec-protocol costs in `stm/read_tx` to see how much of a
/// transactional read is value access vs. validation.
fn read_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("read_path");
    group.sample_size(50);

    // Inline seqlock path: no heap, no pin.
    let inline_var = TVar::new(0u64);
    assert!(inline_var.uses_inline_storage());
    group.bench_function("snapshot/inline_u64", |b| {
        b.iter(|| black_box(&inline_var).snapshot())
    });
    let wide_var = TVar::new([0u64; 4]);
    assert!(wide_var.uses_inline_storage());
    group.bench_function("snapshot/inline_4xu64", |b| {
        b.iter(|| black_box(&wide_var).snapshot())
    });

    // Boxed path: epoch pin + atomic pointer load + clone.
    let boxed_var = TVar::new(Arc::new(0u64));
    assert!(!boxed_var.uses_inline_storage());
    group.bench_function("snapshot/boxed_arc", |b| {
        b.iter(|| black_box(&boxed_var).snapshot())
    });

    // Store side: seqlock publish vs. box + swap + retire.
    group.bench_function("rt_write/inline_u64", |b| {
        let rt = TmRuntime::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            rt.run(|tx| tx.write(black_box(&inline_var), i))
        })
    });
    group.bench_function("rt_write/boxed_arc", |b| {
        let rt = TmRuntime::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            rt.run(|tx| tx.write(black_box(&boxed_var), Arc::new(i)))
        })
    });

    // Contended snapshot reads: a background writer churns the variable so
    // readers cross live seqlock publishes / epoch retirements.
    for label in ["inline", "boxed"] {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let inline_var = TVar::new(0u64);
        let boxed_var = TVar::new(Arc::new(0u64));
        let writer = {
            let stop = Arc::clone(&stop);
            let inline_var = inline_var.clone();
            let boxed_var = boxed_var.clone();
            let boxed = label == "boxed";
            std::thread::spawn(move || {
                let rt = TmRuntime::new();
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    i += 1;
                    if boxed {
                        rt.run(|tx| tx.write(&boxed_var, Arc::new(i)));
                    } else {
                        rt.run(|tx| tx.write(&inline_var, i));
                    }
                }
            })
        };
        group.bench_function(format!("snapshot_contended/{label}"), |b| {
            b.iter(|| {
                if label == "boxed" {
                    black_box(*boxed_var.snapshot());
                } else {
                    black_box(inline_var.snapshot());
                }
            })
        });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        writer.join().unwrap();
    }
    group.finish();
}

fn stm_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("stm");
    group.sample_size(30);
    for backend in [BackendKind::Swiss, BackendKind::Tiny] {
        let rt = TmRuntime::builder().backend(backend).build();
        let v = TVar::new(0u64);
        group.bench_function(format!("read_tx/{backend}"), |b| {
            b.iter(|| rt.run(|tx| tx.read(black_box(&v))))
        });
        group.bench_function(format!("rmw_tx/{backend}"), |b| {
            b.iter(|| rt.run(|tx| tx.modify(black_box(&v), |x| x + 1)))
        });
        let vars: Vec<TVar<u64>> = (0..32).map(TVar::new).collect();
        group.bench_function(format!("scan32_tx/{backend}"), |b| {
            b.iter(|| {
                rt.run(|tx| {
                    let mut sum = 0;
                    for var in &vars {
                        sum += tx.read(var)?;
                    }
                    Ok(sum)
                })
            })
        });
    }
    group.finish();
}

fn scheduler_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler_overhead");
    group.sample_size(30);
    let kinds = [
        SchedulerKind::Noop,
        SchedulerKind::shrink_default(),
        SchedulerKind::ats_default(),
        SchedulerKind::Pool,
    ];
    for kind in kinds {
        let rt = TmRuntime::builder().scheduler_arc(kind.build()).build();
        let tree = TxRbTree::new();
        for k in 0..512u64 {
            rt.run(|tx| tree.insert(tx, k * 2, k));
        }
        let mut key = 0u64;
        group.bench_function(format!("rbtree_lookup/{kind}"), |b| {
            b.iter(|| {
                key = (key + 37) % 1024;
                rt.run(|tx| tree.get(tx, black_box(key)))
            })
        });
    }
    group.finish();
}

fn bloom_prediction(c: &mut Criterion) {
    let mut group = c.benchmark_group("bloom");
    group.sample_size(50);
    group.bench_function("insert_contains", |b| {
        let mut bf = BloomFilter::with_bits(8192, 2);
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            bf.insert(shrink_stm::VarId::from_u64(id));
            black_box(bf.contains(shrink_stm::VarId::from_u64(id / 2)))
        })
    });
    // A 64-read transaction under Shrink: what the scheduler adds is one
    // `before_start` plus the attempt-end replay of the 64-entry read slice
    // into the Bloom ring (compare `stm/scan32_tx` for the bare reads).
    group.bench_function("shrink_scan64_replay", |b| {
        let shrink = Arc::new(Shrink::new(ShrinkConfig::default()));
        let rt = TmRuntime::builder().scheduler_arc(shrink).build();
        let vars: Vec<TVar<u64>> = (0..64).map(TVar::new).collect();
        b.iter(|| {
            rt.run(|tx| {
                let mut sum = 0;
                for var in &vars {
                    sum += tx.read(var)?;
                }
                Ok(sum)
            })
        })
    });
    group.finish();
}

fn theory_simulators(c: &mut Criterion) {
    let mut group = c.benchmark_group("theory");
    group.sample_size(30);
    group.bench_function("serializer_star_64", |b| {
        let inst = scenarios::serializer_star(64);
        b.iter(|| serializer_makespan(black_box(&inst)))
    });
    group.bench_function("ats_hub_64", |b| {
        let inst = scenarios::ats_hub(64, 4);
        b.iter(|| ats_makespan(black_box(&inst), 4))
    });
    group.bench_function("restart_random_12", |b| {
        let inst = scenarios::random_instance(12, 4, 96, 5);
        b.iter(|| restart_makespan(black_box(&inst)))
    });
    group.finish();
}

fn stmbench7_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("stmbench7");
    group.sample_size(20);
    for mix in [Sb7Mix::ReadDominated, Sb7Mix::WriteDominated] {
        let rt = TmRuntime::new();
        let workload = Sb7Workload::new(&rt, Sb7Config::tiny(), mix);
        let mut rng = rand::SeedableRng::seed_from_u64(7);
        group.bench_function(format!("step/{mix}"), |b| {
            b.iter(|| workload.step(&rt, 0, &mut rng))
        });
    }
    group.finish();
}

/// Boxed-value churn on runtimes that share nothing: each thread owns a
/// runtime, a `TVar<Vec<u64>>` and a `TxRbTree`, so whatever keeps the
/// 2-thread cell from twice the 1-thread rate is process-global state under
/// the STM — the allocator and the epoch reclaimer every boxed store
/// retires through (DESIGN.md §7). One iteration is `OPS` operations on
/// every thread: scaling = 2 × `threads_1` ns/iter ÷ `threads_2` ns/iter.
fn independent_runtimes_boxed_churn(c: &mut Criterion) {
    const OPS: u64 = 10_000;
    const KEYS: u64 = 256;
    let mut group = c.benchmark_group("independent_runtimes_boxed_churn");
    group.sample_size(10);
    for threads in [1usize, 2] {
        let lanes: Vec<(TmRuntime, TVar<Vec<u64>>, TxRbTree)> = (0..threads)
            .map(|_| {
                let rt = TmRuntime::new();
                let tree = TxRbTree::new();
                for k in (0..KEYS).step_by(2) {
                    rt.run(|tx| tree.insert(tx, k, k));
                }
                (rt, TVar::new(vec![0u64; 16]), tree)
            })
            .collect();
        group.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for (rt, var, tree) in &lanes {
                        scope.spawn(move || {
                            for i in 0..OPS {
                                let key = i.wrapping_mul(0x9E37_79B9) % KEYS;
                                rt.run(|tx| {
                                    let mut v = tx.read(var)?;
                                    v[(i % 16) as usize] += 1;
                                    tx.write(var, v)?;
                                    if i % 2 == 0 {
                                        tree.insert(tx, key, i).map(drop)
                                    } else {
                                        tree.remove(tx, key).map(drop)
                                    }
                                });
                            }
                        });
                    }
                });
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    read_path,
    stm_primitives,
    scheduler_overhead,
    bloom_prediction,
    theory_simulators,
    stmbench7_ops,
    independent_runtimes_boxed_churn
);
criterion_main!(benches);
