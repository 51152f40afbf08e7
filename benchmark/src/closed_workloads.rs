//! The four closed-loop workloads. Each owns the closures it hands to the
//! runtime, so a traced run can bracket every call into a layer and every
//! body attempt from outside.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use rand::rngs::StdRng;
use shrink_workloads::stmbench7::{Sb7Config, Sb7Mix, Sb7Workload};
use shrink_workloads::{TxQueue, TxRbTree, TxWorkload};

use crate::arms::ArmRt;
use crate::closed::{Recorder, SliceClock};
use crate::inputs::{digest_rng_head, lane_rng, Digest, TreeOp, TreeOps};
use crate::trace::Tracing;

/// A workload the closed-loop driver can run on either arm.
pub trait ClosedWorkload: Sync {
    /// One arm's runtime plus the data built on it.
    type Instance: Sync;

    /// Worker threads given `w = clamp(nproc, 2, 4)`.
    fn threads(&self, w: usize) -> usize {
        w
    }
    /// Time every n-th operation for the latency percentiles (the untimed
    /// ones keep `Instant::now` off the throughput path).
    fn lat_every(&self) -> u64;
    /// Record every n-th operation's spans in a traced run.
    fn trace_every(&self) -> u64;
    /// Blocking hand-offs one operation is made of (the denominator of the
    /// waitlist counters).
    fn hops_per_op(&self) -> u64 {
        1
    }
    /// Generates the inputs from the seed and builds the data on `rt`. This
    /// is what `setup_s` times.
    fn build(&self, rt: ArmRt, seed: u64, threads: usize) -> Self::Instance;
    fn runtime<'a>(&self, inst: &'a Self::Instance) -> &'a ArmRt;
    fn digest(&self, inst: &Self::Instance, digest: &mut Digest);
    /// One worker thread's loop; returns when the clock says stop.
    fn worker<T: Tracing>(
        &self,
        inst: &Self::Instance,
        thread: usize,
        clock: &SliceClock,
        rec: &mut Recorder<T>,
    );
    /// The correctness gate, run after each phase on `inst`. `Err` means
    /// the data is corrupt or disagrees with what the operations reported
    /// (the phase is then discarded and repeated); `Ok(n)` is the number of
    /// operations since the previous call that returned a result
    /// contradicting the workload's model (they are added to `failed`).
    fn verify(&self, inst: &Self::Instance) -> Result<u64, String>;
}

/// `rbtree_lowcont` and `rbtree_hot`: the same tree code at two contention
/// levels.
#[derive(Clone, Copy, Debug)]
pub struct RbTree {
    pub key_range: u64,
    pub update_permille: u32,
}

#[derive(Debug)]
pub struct RbTreeInstance {
    rt: ArmRt,
    tree: TxRbTree,
    ops: Vec<TreeOps>,
    initial_len: usize,
    /// Successful inserts minus successful removes, summed over workers:
    /// the per-thread model the final size is checked against.
    net: AtomicI64,
}

impl ClosedWorkload for RbTree {
    type Instance = RbTreeInstance;

    fn lat_every(&self) -> u64 {
        16
    }

    fn trace_every(&self) -> u64 {
        128
    }

    fn build(&self, rt: ArmRt, seed: u64, threads: usize) -> RbTreeInstance {
        let ops = (0..threads as u64)
            .map(|lane| TreeOps::generate(seed, lane, self.key_range, self.update_permille))
            .collect();
        // Deterministic half-fill, as `RbTreeWorkload::new` does it.
        let tree = TxRbTree::new();
        let mut initial_len = 0;
        for key in (0..self.key_range).step_by(2) {
            rt.rt.run(|tx| tree.insert(tx, key, key));
            initial_len += 1;
        }
        RbTreeInstance {
            rt,
            tree,
            ops,
            initial_len,
            net: AtomicI64::new(0),
        }
    }

    fn runtime<'a>(&self, inst: &'a RbTreeInstance) -> &'a ArmRt {
        &inst.rt
    }

    fn digest(&self, inst: &RbTreeInstance, digest: &mut Digest) {
        for ops in &inst.ops {
            ops.digest_into(digest);
        }
    }

    fn worker<T: Tracing>(
        &self,
        inst: &RbTreeInstance,
        thread: usize,
        clock: &SliceClock,
        rec: &mut Recorder<T>,
    ) {
        let (rt, tree, ops) = (&inst.rt.rt, &inst.tree, &inst.ops[thread]);
        let mut net = 0i64;
        // Every value equals its key, so any value an operation returns can
        // be checked without knowing what the other threads did.
        while rec.step(clock, |id, tr| match ops.get(id) {
            TreeOp::Get(key) => {
                tr.begin("stm.read_only:rbtree.get");
                let got = rt.read_only(|tx| {
                    tr.begin("body:rbtree.get");
                    let r = tree.get(tx, key);
                    tr.add_reads(tx.read_count());
                    tr.end();
                    r
                });
                tr.end();
                got.is_none_or(|v| v == key)
            }
            TreeOp::Insert(key) => {
                tr.begin("stm.run:rbtree.insert");
                let old = rt.run(|tx| {
                    tr.begin("body:rbtree.insert");
                    let r = tree.insert(tx, key, key);
                    tr.add_reads(tx.read_count());
                    tr.end();
                    r
                });
                tr.end();
                net += i64::from(old.is_none());
                old.is_none_or(|v| v == key)
            }
            TreeOp::Remove(key) => {
                tr.begin("stm.run:rbtree.remove");
                let old = rt.run(|tx| {
                    tr.begin("body:rbtree.remove");
                    let r = tree.remove(tx, key);
                    tr.add_reads(tx.read_count());
                    tr.end();
                    r
                });
                tr.end();
                net -= i64::from(old.is_some());
                old.is_none_or(|v| v == key)
            }
        }) {}
        inst.net.fetch_add(net, Ordering::Relaxed);
    }

    fn verify(&self, inst: &RbTreeInstance) -> Result<u64, String> {
        let len = inst
            .rt
            .rt
            .read_only(|tx| inst.tree.check_invariants(tx))
            .map_err(|e| format!("red-black invariant violated: {e}"))?;
        // A tree that is sound but holds k keys more or fewer than the
        // workers' tallies say means k operations reported an outcome
        // (inserted / replaced, removed / absent) that is not what they did
        // to the tree: a stale read got committed (README.md, "Known
        // failure"), and nothing measured on this instance can be trusted.
        let actual = len as i64 - inst.initial_len as i64;
        // Re-base the tally on the tree so the next phase counts only its
        // own discrepancies.
        let tallied = inst.net.swap(actual, Ordering::Relaxed);
        match actual.abs_diff(tallied) {
            0 => Ok(0),
            k => Err(format!(
                "tree is {k} keys off the workers' insert/remove tallies"
            )),
        }
    }
}

/// `sb7_write`: STMBench7, write-dominated mix, long traversals off.
#[derive(Clone, Copy, Debug)]
pub struct Sb7Write;

#[derive(Debug)]
pub struct Sb7Instance {
    rt: ArmRt,
    workload: Sb7Workload,
    seed: u64,
}

impl ClosedWorkload for Sb7Write {
    type Instance = Sb7Instance;

    fn lat_every(&self) -> u64 {
        4
    }

    fn trace_every(&self) -> u64 {
        16
    }

    fn build(&self, rt: ArmRt, seed: u64, _threads: usize) -> Sb7Instance {
        let workload = Sb7Workload::new(&rt.rt, Sb7Config::default(), Sb7Mix::WriteDominated);
        Sb7Instance { rt, workload, seed }
    }

    fn runtime<'a>(&self, inst: &'a Sb7Instance) -> &'a ArmRt {
        &inst.rt
    }

    fn digest(&self, inst: &Sb7Instance, digest: &mut Digest) {
        // `Sb7Workload::step` draws its operations from the worker's RNG,
        // so the RNG streams are the input.
        for lane in 0..4 {
            digest_rng_head(&lane_rng(inst.seed, lane), digest);
        }
    }

    fn worker<T: Tracing>(
        &self,
        inst: &Sb7Instance,
        thread: usize,
        clock: &SliceClock,
        rec: &mut Recorder<T>,
    ) {
        // Each phase restarts its lane's stream.
        let mut rng: StdRng = lane_rng(inst.seed, thread as u64);
        while rec.step(clock, |_, tr| {
            tr.begin("workloads.sb7.step");
            inst.workload.step(&inst.rt.rt, thread, &mut rng);
            tr.end();
            true
        }) {}
    }

    fn verify(&self, inst: &Sb7Instance) -> Result<u64, String> {
        inst.workload
            .bench()
            .audit(&inst.rt.rt)
            .map_err(|e| format!("STMBench7 audit failed: {e}"))?;
        Ok(0)
    }
}

/// `handoff_pingpong`: two threads, two blocking queues, one token.
#[derive(Clone, Copy, Debug)]
pub struct PingPong;

#[derive(Debug)]
pub struct PingPongInstance {
    rt: ArmRt,
    there: TxQueue<u64>,
    back: TxQueue<u64>,
    /// Tokens that arrived out of sequence on the echo side.
    echo_failures: AtomicU64,
}

/// Tells the echo thread to exit (it blocks in `pop`, so it cannot watch
/// the clock).
const SHUTDOWN: u64 = u64::MAX;
const PRIMING_ROUND_TRIPS: u64 = 512;

impl ClosedWorkload for PingPong {
    type Instance = PingPongInstance;

    fn threads(&self, _w: usize) -> usize {
        2
    }

    fn lat_every(&self) -> u64 {
        1
    }

    fn trace_every(&self) -> u64 {
        16
    }

    fn hops_per_op(&self) -> u64 {
        2
    }

    fn build(&self, rt: ArmRt, _seed: u64, _threads: usize) -> PingPongInstance {
        let inst = PingPongInstance {
            rt,
            there: TxQueue::new(1),
            back: TxQueue::new(1),
            echo_failures: AtomicU64::new(0),
        };
        // Two queues and a runtime take ~13 µs to allocate: as `setup_s` that
        // would turn any few microseconds a later change adds to building a
        // runtime into a double-digit regression. Passing a token through
        // both queues on this thread makes set-up a measurable amount of
        // the work the workload is about (~0.6 ms of transactions).
        for token in 0..PRIMING_ROUND_TRIPS {
            for q in [&inst.there, &inst.back] {
                inst.rt.rt.run(|tx| q.push(tx, token));
                inst.rt.rt.run(|tx| q.pop(tx));
            }
        }
        inst
    }

    fn runtime<'a>(&self, inst: &'a PingPongInstance) -> &'a ArmRt {
        &inst.rt
    }

    fn digest(&self, _inst: &PingPongInstance, digest: &mut Digest) {
        // The only input is the token sequence 1, 2, 3, …
        digest.push(1);
    }

    fn worker<T: Tracing>(
        &self,
        inst: &PingPongInstance,
        thread: usize,
        clock: &SliceClock,
        rec: &mut Recorder<T>,
    ) {
        let rt = &inst.rt.rt;
        let push = |tr: &mut T, q: &TxQueue<u64>, token: u64| {
            tr.begin("stm.run:queue.push");
            rt.run(|tx| {
                tr.begin("body:queue.push");
                let r = q.push(tx, token);
                tr.end();
                r
            });
            tr.end();
        };
        let pop = |tr: &mut T, q: &TxQueue<u64>| {
            tr.begin("stm.run:queue.pop");
            let token = rt.run(|tx| {
                tr.begin("body:queue.pop");
                let r = q.pop(tx);
                tr.end();
                r
            });
            tr.end();
            token
        };
        if thread == 0 {
            // One operation = one round trip. Tokens must come back strictly
            // increasing: sent t, received t + 1.
            let mut token = 0;
            while rec.step(clock, |_, tr| {
                push(tr, &inst.there, token + 1);
                let got = pop(tr, &inst.back);
                let ok = got == token + 2;
                token = got;
                ok
            }) {}
            rt.run(|tx| inst.there.push(tx, SHUTDOWN));
        } else {
            // The echo side mirrors thread 0's operation ids (the token
            // alternates strictly), so spans of hop k carry op k on both
            // threads. It counts no operations of its own.
            let tr = &mut rec.tracer;
            let (mut op, mut expected, mut failures) = (0, 1, 0);
            loop {
                tr.begin_op(op, "op");
                let got = pop(tr, &inst.there);
                if got == SHUTDOWN {
                    tr.end();
                    break;
                }
                failures += u64::from(got != expected);
                push(tr, &inst.back, got + 1);
                tr.end();
                expected = got + 2;
                op += 1;
            }
            inst.echo_failures.fetch_add(failures, Ordering::Relaxed);
        }
    }

    fn verify(&self, inst: &PingPongInstance) -> Result<u64, String> {
        let leftover = inst.there.drain_snapshot().len() + inst.back.drain_snapshot().len();
        if leftover == 0 {
            // Tokens the echo side received out of sequence.
            Ok(inst.echo_failures.swap(0, Ordering::Relaxed))
        } else {
            Err(format!("{leftover} tokens left queued after shutdown"))
        }
    }
}
