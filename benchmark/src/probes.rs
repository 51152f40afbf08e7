//! Single-purpose probes of each layer's public functions: the
//! workload-independent half of the per-layer metrics. Each probe times a
//! tight loop over one call for five windows and reports the median window
//! in ns per call; "differential" probes subtract two such medians so the
//! fixed cost of the enclosing transaction cancels.
//!
//! The contract wants every per-layer metric from every traced run, so the
//! probes run in each of them (about a fifth of a traced run's time).

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use futures::executor::block_on;
use parking_lot::{EventCount, Mutex};
use shrink_core::{BloomFilter, SchedulerKind, SerialLock, SerializerConfig};
use shrink_stm::clock::GlobalClock;
use shrink_stm::orec::OrecTable;
use shrink_stm::{atomically_async, TVar, ThreadId, TmRuntime, VarId};

use crate::stats::median;

const WINDOWS: usize = 5;
/// Calls between two looks at the clock, so `Instant::now` (~30 ns) adds
/// well under 1 ns per call.
const BATCH: u64 = 64;

/// Median-of-five ns per call of `op`.
fn time_op(window: Duration, mut op: impl FnMut()) -> f64 {
    let mut samples = [0.0; WINDOWS];
    for sample in &mut samples {
        let t0 = Instant::now();
        let mut calls = 0u64;
        while t0.elapsed() < window {
            for _ in 0..BATCH {
                op();
            }
            calls += BATCH;
        }
        *sample = t0.elapsed().as_nanos() as f64 / calls as f64;
    }
    median(&samples)
}

fn vars(n: usize) -> Vec<TVar<u64>> {
    (0..n as u64).map(TVar::new).collect()
}

/// ns per read-write transaction doing `reads` reads then `writes` writes
/// over distinct variables.
fn tx_ns(window: Duration, rt: &TmRuntime, reads: usize, writes: usize) -> f64 {
    let (rs, ws) = (vars(reads), vars(writes));
    time_op(window, || {
        let sum = rt.run(|tx| {
            let mut sum = 0u64;
            for v in &rs {
                sum = sum.wrapping_add(tx.read(v)?);
            }
            for v in &ws {
                tx.write(v, sum)?;
            }
            Ok(sum)
        });
        black_box(sum);
    })
}

/// ns per read-only transaction doing `reads` reads.
fn ro_ns(window: Duration, rt: &TmRuntime, reads: usize) -> f64 {
    let rs = vars(reads);
    time_op(window, || {
        let sum = rt.read_only(|tx| {
            let mut sum = 0u64;
            for v in &rs {
                sum = sum.wrapping_add(tx.read(v)?);
            }
            Ok(sum)
        });
        black_box(sum);
    })
}

/// ns per `tick` with `threads` threads ticking one clock.
fn contended_tick_ns(window: Duration, threads: usize) -> f64 {
    let clock = GlobalClock::new();
    let samples: Vec<f64> = (0..WINDOWS)
        .map(|_| {
            let start = Barrier::new(threads);
            let per_thread: Vec<f64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            let t0 = Instant::now();
                            let mut calls = 0u64;
                            while t0.elapsed() < window {
                                for _ in 0..BATCH {
                                    black_box(clock.tick());
                                }
                                calls += BATCH;
                            }
                            t0.elapsed().as_nanos() as f64 / calls as f64
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("tick thread panicked"))
                    .collect()
            });
            per_thread.iter().sum::<f64>() / threads as f64
        })
        .collect();
    median(&samples)
}

/// µs per hop of a raw `EventCount` ping-pong between two threads: the
/// floor under `stm.waitlist.hop_us`. Each side advances only once the other
/// is inside its wait, so every hop is a real futex sleep and wake — without
/// the handshake the two threads can fall into step and never sleep, and the
/// probe would flip between 1 µs and 16 µs from run to run.
fn eventcount_hop_us(window: Duration) -> f64 {
    const VERSION_MASK: u32 = u32::MAX >> 1;
    // The spin yields now and then: when the scheduler has both threads on
    // one core, a pure spin burns its whole time slice waiting for a thread
    // that cannot run, and the probe reads 4 ms a hop.
    let advance_to_waiter = |ec: &EventCount| {
        let mut spins = 0u32;
        while ec.waiters() == 0 {
            spins += 1;
            if spins % 128 == 0 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        ec.advance();
    };
    let samples: Vec<f64> = (0..WINDOWS)
        .map(|_| {
            let (ping, pong) = (EventCount::new(), EventCount::new());
            let stop = AtomicBool::new(false);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    // Rounds alternate strictly, so `ping` advances exactly
                    // once per round and its next version is known.
                    let mut seen = 0;
                    loop {
                        ping.wait_while_eq(seen, None);
                        seen = (seen + 1) & VERSION_MASK;
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        advance_to_waiter(&pong);
                    }
                });
                let t0 = Instant::now();
                let mut rounds = 0u64;
                while t0.elapsed() < window {
                    let seen = pong.version();
                    advance_to_waiter(&ping);
                    pong.wait_while_eq(seen, None);
                    rounds += 1;
                }
                let hop = t0.elapsed().as_nanos() as f64 / (2 * rounds) as f64 / 1e3;
                stop.store(true, Ordering::SeqCst);
                advance_to_waiter(&ping);
                hop
            })
        })
        .collect();
    median(&samples)
}

/// Runs every probe; `window` is the length of one of a probe's five
/// timing windows and `threads` the worker count for the contended ones.
pub fn run_all(window: Duration, threads: usize) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let rt = TmRuntime::new();

    // stm.runtime — begin + commit with nothing in between.
    out.push((
        "stm.runtime.empty_tx_ns",
        time_op(window, || rt.run(|_| Ok(()))),
    ));
    out.push((
        "stm.runtime.empty_ro_ns",
        time_op(window, || rt.read_only(|_| Ok(()))),
    ));

    // stm.txn — per-access cost, differential 128 vs 8 accesses.
    let per_access = |big: f64, small: f64| (big - small) / 120.0;
    out.push((
        "stm.txn.read_ns",
        per_access(tx_ns(window, &rt, 128, 0), tx_ns(window, &rt, 8, 0)),
    ));
    out.push((
        "stm.txn.write_ns",
        per_access(tx_ns(window, &rt, 0, 128), tx_ns(window, &rt, 0, 8)),
    ));
    // N reads + 1 write, so commit validates the read set: the linear
    // bound of invisible-read validation is the yardstick.
    out.push(("stm.txn.scan8_ns", tx_ns(window, &rt, 8, 1)));
    out.push(("stm.txn.scan32_ns", tx_ns(window, &rt, 32, 1)));
    out.push(("stm.txn.scan128_ns", tx_ns(window, &rt, 128, 1)));
    out.push((
        "stm.readtx.read_ns",
        per_access(ro_ns(window, &rt, 128), ro_ns(window, &rt, 8)),
    ));
    out.push(("stm.readtx.scan32_ns", ro_ns(window, &rt, 32)));

    // stm.clock
    let clock = GlobalClock::new();
    out.push((
        "stm.clock.tick_ns",
        time_op(window, || {
            black_box(clock.tick());
        }),
    ));
    out.push((
        "stm.clock.tick_contended_ns",
        contended_tick_ns(window, threads),
    ));

    // stm.orec — one uncontended acquire + commit-release.
    let orecs = OrecTable::new(1024);
    let (orec, me) = (orecs.at(7), ThreadId::from_u16(1));
    out.push((
        "stm.orec.lock_unlock_ns",
        time_op(window, || {
            let seen = orec.snapshot();
            assert!(orec.try_lock(seen, me), "the probe's orec is uncontended");
            orec.unlock_commit(me, seen.version() + 1);
        }),
    ));

    // stm.tvar — both storage paths of a non-transactional snapshot.
    let inline_var = TVar::new(7u64);
    let boxed_var = TVar::new(std::sync::Arc::new(7u64));
    assert!(inline_var.uses_inline_storage() && !boxed_var.uses_inline_storage());
    out.push((
        "stm.tvar.snapshot_ns",
        time_op(window, || {
            black_box(inline_var.snapshot());
        }),
    ));
    out.push((
        "stm.tvar.snapshot_boxed_ns",
        time_op(window, || {
            black_box(*boxed_var.snapshot());
        }),
    ));

    // stm.future — one write as a future on the calling thread.
    let async_var = TVar::new(0u64);
    out.push((
        "stm.future.async_tx_ns",
        time_op(window, || {
            block_on(atomically_async(&rt, |tx| tx.write(&async_var, 1)));
        }),
    ));

    // core.*.hook_ns — an uncontended 8-read/2-write transaction under each
    // scheduler, minus the same under no scheduler.
    let hooked = |kind: SchedulerKind| {
        let rt = TmRuntime::builder().scheduler_arc(kind.build()).build();
        tx_ns(window, &rt, 8, 2)
    };
    let bare = hooked(SchedulerKind::Noop);
    out.push((
        "core.shrink.hook_ns",
        hooked(SchedulerKind::shrink_default()) - bare,
    ));
    out.push((
        "core.ats.hook_ns",
        hooked(SchedulerKind::ats_default()) - bare,
    ));
    out.push(("core.pool.hook_ns", hooked(SchedulerKind::Pool) - bare));
    out.push((
        "core.serializer.hook_ns",
        hooked(SchedulerKind::Serializer(SerializerConfig::default())) - bare,
    ));

    // core.bloom / core.serial_lock — Shrink's building blocks, sized as
    // `ShrinkConfig::default()` sizes them.
    let mut bloom = BloomFilter::with_bits(8192, 2);
    let mut next = 0u64;
    out.push((
        "core.bloom.insert_ns",
        time_op(window, || {
            next = next.wrapping_add(1);
            bloom.insert(VarId::from_u64(next));
        }),
    ));
    out.push((
        "core.bloom.contains_ns",
        time_op(window, || {
            next = next.wrapping_add(1);
            black_box(bloom.contains(VarId::from_u64(next)));
        }),
    ));
    let serial = SerialLock::new();
    out.push((
        "core.serial_lock.acquire_release_ns",
        time_op(window, || {
            serial.acquire(me);
            serial.release_if_held(me);
        }),
    ));

    // vendor.*
    let mutex = Mutex::new(0u64);
    out.push((
        "vendor.parking_lot.mutex_ns",
        time_op(window, || {
            *mutex.lock() += 1;
        }),
    ));
    out.push((
        "vendor.parking_lot.eventcount_hop_us",
        eventcount_hop_us(window),
    ));
    out.push((
        "vendor.crossbeam.pin_ns",
        time_op(window, || {
            black_box(&crossbeam::epoch::pin());
        }),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_finite_value_and_costs_scale_with_work() {
        let values = run_all(Duration::from_millis(2), 2);
        let get = |name: &str| values.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(values.iter().all(|(_, v)| v.is_finite()));
        let mut names: Vec<_> = values.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), values.len(), "each probe reports once");
        // Not a timing assertion: 128 validated reads are more work than 8.
        assert!(get("stm.txn.scan128_ns") > get("stm.txn.scan8_ns"));
        assert!(get("stm.runtime.empty_tx_ns") > 0.0);
    }
}
