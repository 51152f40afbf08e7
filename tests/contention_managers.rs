//! The two native contention managers — SwissTM's two-phase manager on the
//! Swiss backend, TinySTM's suicide on the Tiny backend — must preserve
//! serializability and make progress, and the two-phase kill path must
//! really fire.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shrink::prelude::*;

fn hammer_one_hot_variable(backend: BackendKind) -> (u64, u64) {
    const THREADS: usize = 4;
    const INCREMENTS: usize = 300;
    let rt = TmRuntime::builder().backend(backend).build();
    let hot = TVar::new(0u64);
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let rt = rt.clone();
            let hot = hot.clone();
            std::thread::spawn(move || {
                for _ in 0..INCREMENTS {
                    rt.run(|tx| {
                        let v = tx.read(&hot)?;
                        // Widen the conflict window.
                        for _ in 0..50 {
                            std::hint::spin_loop();
                        }
                        tx.write(&hot, v + 1)
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = rt.stats();
    assert_eq!(
        hot.snapshot(),
        (THREADS * INCREMENTS) as u64,
        "{backend}: lost updates"
    );
    (stats.commits, stats.aborts)
}

#[test]
fn two_phase_cm_is_serializable_under_contention() {
    let (commits, _) = hammer_one_hot_variable(BackendKind::Swiss);
    assert_eq!(commits, 1200);
}

#[test]
fn suicide_cm_is_serializable_under_contention() {
    let (commits, _) = hammer_one_hot_variable(BackendKind::Tiny);
    assert_eq!(commits, 1200);
}

#[test]
fn two_phase_kills_the_lighter_transaction() {
    // A transaction past the timid threshold (128 reads > 32 accesses) that
    // meets a stripe held by a lighter one kills the holder instead of
    // losing to it.
    let rt = TmRuntime::new();
    let contended = TVar::new(0u64);
    let ballast: Arc<Vec<TVar<u64>>> = Arc::new((0..128).map(|_| TVar::new(1)).collect());
    let held = Arc::new(AtomicBool::new(false));

    // Light holder: acquires the stripe with one access, then holds it
    // until the heavy transaction has met it. The heavy one can only abort
    // by timing out its wait for the victim, after it requested the kill,
    // so an abort on the books proves the kill request is pending. The
    // light attempt then finds it at commit.
    let light = {
        let rt = rt.clone();
        let contended = contended.clone();
        let held = Arc::clone(&held);
        std::thread::spawn(move || {
            let mut me = None;
            rt.run(|tx| {
                me = Some(tx.thread());
                tx.write(&contended, 1)?;
                held.store(true, Ordering::Release);
                let give_up = Instant::now() + Duration::from_secs(30);
                while rt.stats().aborts == 0 {
                    assert!(
                        Instant::now() < give_up,
                        "the heavy writer never met the stripe"
                    );
                    std::thread::yield_now();
                }
                Ok(())
            });
            me.expect("the body ran")
        })
    };
    // Heavy contender: starts once the stripe is held, does lots of reads
    // first, then wants the stripe.
    let heavy = {
        let rt = rt.clone();
        let contended = contended.clone();
        let ballast = Arc::clone(&ballast);
        std::thread::spawn(move || {
            while !held.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            rt.run(|tx| {
                let mut sum = 0;
                for v in ballast.iter() {
                    sum += tx.read(v)?;
                }
                tx.write(&contended, sum)
            });
        })
    };
    let light_id = light.join().unwrap();
    heavy.join().unwrap();
    // Both eventually commit (order unspecified); the last writer's value
    // stands and nothing deadlocks.
    let v = contended.snapshot();
    assert!(v == 1 || v == 128, "unexpected final value {v}");
    let stats = rt.stats();
    assert_eq!(stats.commits, 2);
    let light_stats = stats
        .per_thread
        .iter()
        .find(|t| t.thread == light_id)
        .expect("the light thread is registered");
    assert!(
        light_stats.aborts >= 1,
        "the lighter holder must have been killed: {light_stats:?}"
    );
}

#[test]
fn cm_policies_conserve_money_on_tiny_backend_too() {
    for wait in [WaitPolicy::Preemptive, WaitPolicy::Busy] {
        let rt = TmRuntime::builder()
            .backend(BackendKind::Tiny)
            .wait_policy(wait)
            .build();
        let a = TVar::new(100i64);
        let b = TVar::new(100i64);
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let rt = rt.clone();
                let (a, b) = (a.clone(), b.clone());
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        rt.run(|tx| {
                            let x = tx.read(&a)?;
                            let y = tx.read(&b)?;
                            tx.write(&a, x - 1)?;
                            tx.write(&b, y + 1)
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            a.snapshot() + b.snapshot(),
            200,
            "tiny/{wait}: conservation violated"
        );
    }
}
