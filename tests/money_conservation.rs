//! Serializability stress: concurrent bank transfers must conserve the
//! total across every backend × waiting-policy × scheduler combination.
//! A read-only auditor thread sums the accounts concurrently with the
//! transfer writers — conservation must hold on *every* lock-free
//! snapshot, not just at the end.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use common::all_schedulers;
use shrink::prelude::*;

fn transfer_matrix_cell(backend: BackendKind, wait: WaitPolicy, kind: &SchedulerKind) {
    const ACCOUNTS: usize = 12;
    const THREADS: usize = 4;
    const TRANSFERS: usize = 400;
    let rt = TmRuntime::builder()
        .backend(backend)
        .wait_policy(wait)
        .scheduler_arc(kind.build())
        .build();
    let accounts: Arc<Vec<TVar<i64>>> = Arc::new((0..ACCOUNTS).map(|_| TVar::new(500)).collect());
    let stop = Arc::new(AtomicBool::new(false));
    let audited = Arc::new(AtomicBool::new(false));
    let auditor = {
        let rt = rt.clone();
        let accounts = Arc::clone(&accounts);
        let stop = Arc::clone(&stop);
        let audited = Arc::clone(&audited);
        let label = kind.label().to_string();
        std::thread::spawn(move || {
            let mut audits = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let total: i64 = rt.read_only(|tx| {
                    let mut sum = 0;
                    for a in accounts.iter() {
                        sum += tx.read(a)?;
                    }
                    Ok(sum)
                });
                assert_eq!(
                    total,
                    ACCOUNTS as i64 * 500,
                    "mid-flight conservation violated: backend={backend:?} \
                     wait={wait:?} scheduler={label}"
                );
                audits += 1;
                audited.store(true, Ordering::Relaxed);
            }
            audits
        })
    };
    // Handshake: on a small host the writers can finish before the auditor
    // thread first runs, so they start only after its first audit.
    while !audited.load(Ordering::Relaxed) {
        std::thread::yield_now();
    }
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let rt = rt.clone();
            let accounts = Arc::clone(&accounts);
            std::thread::spawn(move || {
                let mut seed = 0x9E37 + t as u64;
                for _ in 0..TRANSFERS {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let from = (seed >> 33) as usize % ACCOUNTS;
                    let to = (seed >> 13) as usize % ACCOUNTS;
                    if from == to {
                        continue;
                    }
                    let amount = (seed % 7) as i64;
                    rt.run(|tx| {
                        let a = tx.read(&accounts[from])?;
                        let b = tx.read(&accounts[to])?;
                        tx.write(&accounts[from], a - amount)?;
                        tx.write(&accounts[to], b + amount)
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let audits = auditor.join().unwrap();
    assert!(audits > 0, "the auditor must have summed at least once");
    let total: i64 = accounts.iter().map(|a| a.snapshot()).sum();
    assert_eq!(
        total,
        ACCOUNTS as i64 * 500,
        "conservation violated: backend={backend:?} wait={wait:?} scheduler={}",
        kind.label()
    );
    let stats = rt.stats();
    assert!(stats.commits > 0, "stats must be readable: {stats}");
    assert!(stats.ro_commits >= audits, "audits ride the read-only path");
    // The auditor is a pure reader: it never wrote an orec or aborted.
    for t in stats
        .per_thread
        .iter()
        .filter(|t| t.ro_commits > 0 && t.commits == 0)
    {
        assert_eq!(t.orec_acquires, 0, "auditor wrote an orec: {t:?}");
        assert_eq!(t.aborts, 0, "auditor aborted: {t:?}");
    }
}

#[test]
fn swiss_preemptive_conserves_money_under_all_schedulers() {
    for kind in all_schedulers() {
        transfer_matrix_cell(BackendKind::Swiss, WaitPolicy::Preemptive, &kind);
    }
}

#[test]
fn swiss_busy_conserves_money_under_all_schedulers() {
    for kind in all_schedulers() {
        transfer_matrix_cell(BackendKind::Swiss, WaitPolicy::Busy, &kind);
    }
}

#[test]
fn tiny_preemptive_conserves_money_under_all_schedulers() {
    for kind in all_schedulers() {
        transfer_matrix_cell(BackendKind::Tiny, WaitPolicy::Preemptive, &kind);
    }
}

#[test]
fn tiny_busy_conserves_money_under_all_schedulers() {
    for kind in all_schedulers() {
        transfer_matrix_cell(BackendKind::Tiny, WaitPolicy::Busy, &kind);
    }
}

/// The blocking-queue cell: money moves producer-account → queue →
/// consumer-account through a bounded [`TxQueue`], with both blocking
/// directions exercised (producers park on a full queue, consumers on an
/// empty one) under every scheduler. Debit+push and pop+credit are single
/// transactions, so the total is conserved at every instant and — checked
/// here — at the end.
fn blocking_queue_cell(backend: BackendKind, kind: &SchedulerKind) {
    const PRODUCERS: usize = 2;
    const CONSUMERS: usize = 2;
    const COINS_PER_PRODUCER: u64 = 300;
    const TOTAL: u64 = PRODUCERS as u64 * COINS_PER_PRODUCER;
    const PER_CONSUMER: u64 = TOTAL / CONSUMERS as u64;

    let rt = TmRuntime::builder()
        .backend(backend)
        // Far beyond the test length: a lost wakeup hangs loudly instead
        // of being papered over by deadline revalidation.
        .retry_wait(std::time::Duration::from_secs(120))
        .scheduler_arc(kind.build())
        .build();
    let queue: Arc<TxQueue<u64>> = Arc::new(TxQueue::new(4));
    let sources: Arc<Vec<TVar<i64>>> = Arc::new(
        (0..PRODUCERS)
            .map(|_| TVar::new(COINS_PER_PRODUCER as i64))
            .collect(),
    );
    let sinks: Arc<Vec<TVar<i64>>> = Arc::new((0..CONSUMERS).map(|_| TVar::new(0)).collect());

    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|c| {
            let rt = rt.clone();
            let queue = Arc::clone(&queue);
            let sinks = Arc::clone(&sinks);
            std::thread::spawn(move || {
                for _ in 0..PER_CONSUMER {
                    // Pop one coin and credit it, atomically; blocks while
                    // the queue is empty.
                    rt.run(|tx| {
                        let coin = queue.pop(tx)?;
                        tx.modify(&sinks[c], |v| v + coin as i64)
                    });
                }
            })
        })
        .collect();
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let rt = rt.clone();
            let queue = Arc::clone(&queue);
            let sources = Arc::clone(&sources);
            std::thread::spawn(move || {
                for _ in 0..COINS_PER_PRODUCER {
                    // Debit one coin and push it, atomically; blocks while
                    // the queue is full.
                    rt.run(|tx| {
                        tx.modify(&sources[p], |v| v - 1)?;
                        queue.push(tx, 1)
                    });
                }
            })
        })
        .collect();
    for h in producers {
        h.join().unwrap();
    }
    for h in consumers {
        h.join().unwrap();
    }

    let remaining: i64 = sources.iter().map(|a| a.snapshot()).sum();
    let credited: i64 = sinks.iter().map(|a| a.snapshot()).sum();
    assert_eq!(remaining, 0, "every coin left its source: {}", kind.label());
    assert_eq!(
        credited,
        TOTAL as i64,
        "conservation violated through the queue: backend={backend:?} scheduler={}",
        kind.label()
    );
    assert!(
        queue.drain_snapshot().is_empty(),
        "exact counts drain the queue"
    );
    assert_eq!(
        rt.retry_stats().timed_out,
        0,
        "a retry-deadline hit here is a lost wakeup: scheduler={}",
        kind.label()
    );
}

#[test]
fn swiss_blocking_queue_conserves_money_under_all_schedulers() {
    for kind in all_schedulers() {
        blocking_queue_cell(BackendKind::Swiss, &kind);
    }
}

#[test]
fn tiny_blocking_queue_conserves_money_under_all_schedulers() {
    for kind in all_schedulers() {
        blocking_queue_cell(BackendKind::Tiny, &kind);
    }
}
