//! The **Shrink** scheduler — the paper's primary contribution.
//!
//! Shrink prevents conflicts instead of curing them. Per thread it
//! maintains:
//!
//! * a *success rate* (exponential moving average: `(s + success)/2` on
//!   commit, `s/2` on abort) — prediction only activates once the rate falls
//!   below `succ_threshold`;
//! * a ring of Bloom filters over the read sets of the last
//!   `locality_window` transactions; an address read now that was also read
//!   in recent transactions (confidence `Σ cᵢ ≥ 3`) enters the **predicted
//!   read set** (temporal locality);
//! * the write set of the immediately previous *aborted* attempt as the
//!   **predicted write set** (repeated transactions mimic their aborted
//!   predecessor);
//! * the **serialization affinity** heuristic: the prediction/serialization
//!   machinery runs with probability proportional to the number of threads
//!   currently serialized (`wait_count`), so Shrink stays out of the way in
//!   low-contention and underloaded runs.
//!
//! On transaction start, if prediction is active and some predicted address
//! is currently being written by another thread (checked through the host
//! TM's *visible writes*), the transaction is serialized through the global
//! lock.
//!
//! ## Deviation from the paper's listing
//!
//! Algorithm 1 guards the prediction scheme with `r < wait_count` for a
//! random `r ∈ [1, 32]`, and `wait_count` starts at zero — taken literally,
//! the scheme can never bootstrap (nothing ever serializes, so `wait_count`
//! never rises). We add a configurable floor, [`ShrinkConfig::affinity_bias`]
//! (default 1), i.e. the gate is `r ≤ wait_count + bias`: a thread whose
//! success rate has collapsed checks its prediction at least once in 32
//! starts even when nobody is serialized yet. Setting `affinity_bias = 0`
//! recovers the literal listing.

use std::collections::HashSet;
use std::fmt;

use parking_lot::Mutex;
use shrink_stm::{AttemptEnd, SchedCtx, ThreadId, ThreadTable, TxScheduler, VarId};

use crate::bloom::BloomRing;
use crate::serial_lock::SerialLock;

/// Value mixed into the success-rate average on commit (the paper's
/// `success`).
const SUCCESS: f64 = 1.0;
/// Confidence at or above which an address joins the predicted read set.
const CONFIDENCE_THRESHOLD: u32 = 3;
/// Bits per Bloom filter.
const BLOOM_BITS: usize = 8192;
/// Hash probes per Bloom filter.
const BLOOM_PROBES: u32 = 2;
/// Modulus of the serialization-affinity lottery (the paper's 32).
const AFFINITY_MODULUS: u32 = 32;
/// Cap on the size of each predicted set.
const MAX_PRED_SET: usize = 512;

/// Tuning parameters of [`Shrink`]: the three the ablation and Figure 3
/// harnesses vary. The rest of the paper's §4 constants are fixed.
///
/// Defaults are the paper's: `succ_threshold = 0.5`, `c = [3, 2, 1]` (a
/// locality window of 4), plus this implementation's bootstrap bias of 1.
#[derive(Clone, Debug, PartialEq)]
pub struct ShrinkConfig {
    /// Success rate below which prediction and serialization activate.
    pub succ_threshold: f64,
    /// Per-age confidence weights `c₁, c₂, …` for filters 1, 2, … steps in
    /// the past. The Bloom-filter ring remembers one more transaction than
    /// there are weights (`locality_window`; the extra filter is the
    /// in-progress transaction's).
    pub confidence_weights: Vec<u32>,
    /// Bootstrap floor added to `wait_count` in the affinity gate; see the
    /// module documentation. 0 reproduces the paper's listing literally.
    pub affinity_bias: u32,
}

impl Default for ShrinkConfig {
    fn default() -> Self {
        ShrinkConfig {
            succ_threshold: 0.5,
            confidence_weights: vec![3, 2, 1],
            affinity_bias: 1,
        }
    }
}

/// Aggregate prediction-accuracy counters (the measurements behind the
/// paper's Figure 3).
///
/// "Predicted" counts address-level predictions that were in force when a
/// transaction committed; "correct" counts the subset that the transaction
/// actually accessed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredictionStats {
    /// Total predicted-read addresses across committed transactions.
    pub read_predicted: u64,
    /// Predicted-read addresses that were actually read.
    pub read_correct: u64,
    /// Total predicted-write addresses across committed transactions.
    pub write_predicted: u64,
    /// Predicted-write addresses that were actually written.
    pub write_correct: u64,
    /// Transactions serialized through the global lock.
    pub serialized: u64,
    /// Transaction starts for which prediction was consulted.
    pub prediction_checks: u64,
}

impl PredictionStats {
    /// Fraction of predicted reads that were correct, if any were made.
    pub fn read_accuracy(&self) -> Option<f64> {
        (self.read_predicted > 0).then(|| self.read_correct as f64 / self.read_predicted as f64)
    }

    /// Fraction of predicted writes that were correct, if any were made.
    pub fn write_accuracy(&self) -> Option<f64> {
        (self.write_predicted > 0).then(|| self.write_correct as f64 / self.write_predicted as f64)
    }
}

/// Per-thread Shrink state. Only the owning thread takes the mutex (twice
/// per attempt), so it is effectively uncontended.
struct ThreadState {
    succ_rate: f64,
    ring: BloomRing,
    pred_reads: HashSet<VarId>,
    pred_writes: Vec<VarId>,
    /// Snapshot of the predictions that were in force for the running
    /// attempt, for accuracy accounting.
    active_pred_reads: Vec<VarId>,
    active_pred_writes: Vec<VarId>,
    /// Reused sort buffer for [`score`].
    scratch: Vec<VarId>,
    last_committed: bool,
    rng: u64,
    stats: PredictionStats,
}

impl ThreadState {
    fn new(config: &ShrinkConfig, thread: ThreadId) -> Self {
        ThreadState {
            succ_rate: 1.0,
            ring: BloomRing::new(
                config.confidence_weights.len() + 1,
                BLOOM_BITS,
                BLOOM_PROBES,
            ),
            pred_reads: HashSet::new(),
            pred_writes: Vec::new(),
            active_pred_reads: Vec::new(),
            active_pred_writes: Vec::new(),
            scratch: Vec::new(),
            last_committed: true,
            // Distinct per thread, and the same from run to run.
            rng: (0x5EED + thread.index() as u64 * 0x9E37_79B9) | 1,
            stats: PredictionStats::default(),
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*: cheap, no external RNG on the transaction hot path.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The Shrink prediction-based transaction scheduler.
///
/// # Examples
///
/// ```
/// use shrink_core::{Shrink, ShrinkConfig};
/// use shrink_stm::TmRuntime;
/// use std::sync::Arc;
///
/// let shrink = Arc::new(Shrink::new(ShrinkConfig::default()));
/// let rt = TmRuntime::builder().scheduler_arc(shrink.clone()).build();
/// let v = shrink_stm::TVar::new(0u32);
/// rt.run(|tx| tx.modify(&v, |x| x + 1));
/// assert_eq!(v.snapshot(), 1);
/// // The typed handle stays available for accuracy reporting:
/// let _stats = shrink.prediction_stats();
/// ```
pub struct Shrink {
    config: ShrinkConfig,
    lock: SerialLock,
    threads: ThreadTable<Mutex<ThreadState>>,
}

impl Shrink {
    /// Creates a Shrink scheduler with the given configuration.
    pub fn new(config: ShrinkConfig) -> Self {
        Shrink {
            config,
            lock: SerialLock::new(),
            threads: ThreadTable::new(),
        }
    }

    fn state(&self, thread: ThreadId) -> &Mutex<ThreadState> {
        self.threads.get_or_init(thread, || {
            Mutex::new(ThreadState::new(&self.config, thread))
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &ShrinkConfig {
        &self.config
    }

    /// Number of threads currently serialized (the affinity signal).
    pub fn wait_count(&self) -> u32 {
        self.lock.wait_count()
    }

    /// Aggregated prediction statistics across all threads.
    pub fn prediction_stats(&self) -> PredictionStats {
        let mut total = PredictionStats::default();
        for slot in self.threads.iter() {
            let s = slot.lock();
            total.read_predicted += s.stats.read_predicted;
            total.read_correct += s.stats.read_correct;
            total.write_predicted += s.stats.write_predicted;
            total.write_correct += s.stats.write_correct;
            total.serialized += s.stats.serialized;
            total.prediction_checks += s.stats.prediction_checks;
        }
        total
    }

    /// The success rate of `thread`, if it has state.
    pub fn success_rate(&self, thread: ThreadId) -> Option<f64> {
        self.threads.get(thread).map(|s| s.lock().succ_rate)
    }
}

impl fmt::Debug for Shrink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shrink")
            .field("config", &self.config)
            .field("wait_count", &self.lock.wait_count())
            .finish()
    }
}

impl TxScheduler for Shrink {
    fn before_start(&self, ctx: &SchedCtx<'_>) {
        let mut s = self.state(ctx.thread).lock();

        if s.succ_rate < self.config.succ_threshold {
            // Serialization affinity: consult the prediction with probability
            // proportional to the number of already-serialized threads.
            let r = (s.next_rand() % AFFINITY_MODULUS as u64) as u32 + 1;
            let gate = self.lock.wait_count() + self.config.affinity_bias;
            if r <= gate {
                s.stats.prediction_checks += 1;
                let me = ctx.thread;
                let mut predicted = s.pred_reads.iter().chain(&s.pred_writes);
                if predicted.any(|&v| ctx.visible.is_written_by_other(v, me)) {
                    s.stats.serialized += 1;
                    // Blocks until the global lock is ours; the wait itself
                    // is what prevents the predicted conflict.
                    self.lock.acquire(me);
                }
            }
        }

        // Record which predictions are in force for this attempt, then reset
        // per Algorithm 1: the read prediction survives aborts (the retry
        // reads similar addresses), the write prediction is consumed every
        // start.
        let s = &mut *s;
        s.active_pred_reads.clear();
        s.active_pred_reads.extend(&s.pred_reads);
        s.active_pred_writes.clone_from(&s.pred_writes);
        if s.last_committed {
            s.pred_reads.clear();
        }
        s.pred_writes.clear();
    }

    fn on_finish(
        &self,
        ctx: &SchedCtx<'_>,
        end: AttemptEnd<'_>,
        reads: &[VarId],
        writes: &[VarId],
    ) {
        let mut s = self.state(ctx.thread).lock();
        // "On transactional read of addr", replayed in program order (an
        // abandoned attempt reports none): the prediction is only consulted
        // at the next `before_start`, so building it here is
        // indistinguishable from per-read hooks. The Bloom history is always
        // maintained; the predicted read set is only worth computing once
        // the thread's success rate has dropped into the range where
        // `before_start` will consult it (the filters are already warm at
        // that point, so predictions are available from the first
        // struggling transaction).
        for &var in reads {
            if s.ring.current_mut().insert_if_absent(var)
                && s.succ_rate < self.config.succ_threshold
                && s.ring.confidence(var, &self.config.confidence_weights) >= CONFIDENCE_THRESHOLD
                && s.pred_reads.len() < MAX_PRED_SET
            {
                s.pred_reads.insert(var);
            }
        }
        match end {
            AttemptEnd::Committed => {
                s.succ_rate = (s.succ_rate + SUCCESS) / 2.0;
                s.last_committed = true;
                s.ring.rotate();
                let s = &mut *s;
                score(
                    &mut s.active_pred_reads,
                    reads,
                    &mut s.scratch,
                    &mut s.stats.read_predicted,
                    &mut s.stats.read_correct,
                );
                score(
                    &mut s.active_pred_writes,
                    writes,
                    &mut s.scratch,
                    &mut s.stats.write_predicted,
                    &mut s.stats.write_correct,
                );
            }
            AttemptEnd::Aborted(_) => {
                s.succ_rate /= 2.0;
                s.last_committed = false;
                // "copy write set of transaction into pred_write_set": the
                // retry is expected to mimic the aborted attempt's writes.
                s.pred_writes.clear();
                s.pred_writes.extend(writes.iter().take(MAX_PRED_SET));
                // Temporal locality spans committed *and* aborted
                // transactions.
                s.ring.rotate();
            }
            // A deliberate `Tx::retry` wait is not a conflict: the success
            // rate and predicted write set stay untouched, and the ring is
            // not rotated (the re-run after the wake re-reads the same
            // addresses into the current filter).
            AttemptEnd::RetryWait => {}
            // Panic unwind, or a non-retryable error: the attempt never
            // completed, so neither success rate nor prediction accuracy
            // can be judged. Drop its active predictions unscored.
            AttemptEnd::Abandoned => {
                s.active_pred_reads.clear();
                s.active_pred_writes.clear();
            }
        }
        drop(s);
        // "if own global lock then unlock" — the waiting (or unwinding)
        // thread must not serialize everybody else.
        self.lock.release_if_held(ctx.thread);
    }

    fn name(&self) -> &str {
        "shrink"
    }
}

/// Scores the predictions that were in force for a committed attempt
/// against what it actually accessed, and consumes them. `sorted` is a
/// reused buffer: the accesses are sorted into it and probed by binary
/// search, so scoring allocates nothing in steady state.
fn score(
    predicted: &mut Vec<VarId>,
    actual: &[VarId],
    sorted: &mut Vec<VarId>,
    total: &mut u64,
    correct: &mut u64,
) {
    if !predicted.is_empty() {
        sorted.clear();
        sorted.extend_from_slice(actual);
        sorted.sort_unstable();
        *total += predicted.len() as u64;
        *correct += predicted
            .iter()
            .filter(|v| sorted.binary_search(v).is_ok())
            .count() as u64;
        predicted.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ctx;
    use shrink_stm::{Abort, AbortReason, StaticWrites};

    /// One attempt that reads `reads` and commits.
    fn commit(s: &Shrink, c: &SchedCtx<'_>, reads: &[VarId]) {
        s.before_start(c);
        s.on_finish(c, AttemptEnd::Committed, reads, &[]);
    }

    /// One attempt that reads `reads`, writes `writes` and aborts.
    fn abort(s: &Shrink, c: &SchedCtx<'_>, reads: &[VarId], writes: &[VarId]) {
        s.before_start(c);
        let abort = Abort::new(AbortReason::WriteConflict);
        s.on_finish(c, AttemptEnd::Aborted(&abort), reads, writes);
    }

    fn pred_reads(s: &Shrink, thread: u16) -> Vec<u64> {
        let slot = s.state(ThreadId::from_u16(thread));
        let mut ids: Vec<u64> = slot.lock().pred_reads.iter().map(|v| v.as_u64()).collect();
        ids.sort_unstable();
        ids
    }

    fn pred_writes(s: &Shrink, thread: u16) -> Vec<VarId> {
        s.state(ThreadId::from_u16(thread))
            .lock()
            .pred_writes
            .clone()
    }

    #[test]
    fn success_rate_tracks_commits_and_aborts() {
        let s = Shrink::new(ShrinkConfig::default());
        let oracle = StaticWrites::new();
        let c = ctx(1, &oracle);
        let t = ThreadId::from_u16(1);
        commit(&s, &c, &[]);
        assert_eq!(s.success_rate(t), Some(1.0));
        abort(&s, &c, &[], &[]);
        assert_eq!(s.success_rate(t), Some(0.5));
        abort(&s, &c, &[], &[]);
        assert_eq!(s.success_rate(t), Some(0.25));
        commit(&s, &c, &[]);
        assert_eq!(s.success_rate(t), Some(0.625));
    }

    #[test]
    fn repeated_reads_build_read_prediction() {
        // Default confidence: an address read in the immediately previous
        // transaction has confidence 3 >= threshold 3, so the next
        // transaction predicts it — once the thread is struggling enough
        // (success rate below threshold) for prediction to be maintained.
        let s = Shrink::new(ShrinkConfig::default());
        let oracle = StaticWrites::new();
        let c = ctx(1, &oracle);
        let addr = VarId::from_u64(99);

        // Aborted attempts reading `addr`: the first seeds the history, a
        // later one (success rate now in 0.5 -> 0.25 territory) predicts.
        for _ in 0..3 {
            abort(&s, &c, &[addr], &[]);
        }
        assert_eq!(pred_reads(&s, 1), [99], "confidence 3 must predict");
    }

    #[test]
    fn healthy_threads_skip_prediction_maintenance() {
        let s = Shrink::new(ShrinkConfig::default());
        let oracle = StaticWrites::new();
        let c = ctx(1, &oracle);
        for _ in 0..5 {
            commit(&s, &c, &[VarId::from_u64(99)]);
        }
        assert!(
            pred_reads(&s, 1).is_empty(),
            "a thread that always commits never pays for predicted sets"
        );
    }

    /// A scheduler whose affinity gate always passes, driven until thread 1
    /// struggles and predicts `addr`, which `enemy` is writing: the next
    /// `before_start` serializes.
    fn about_to_serialize(oracle: &StaticWrites, addr: VarId) -> Shrink {
        let s = Shrink::new(ShrinkConfig {
            affinity_bias: 32,
            ..ShrinkConfig::default()
        });
        let c = ctx(1, oracle);
        commit(&s, &c, &[addr]);
        for _ in 0..3 {
            abort(&s, &c, &[addr], &[]);
        }
        assert!(s.success_rate(ThreadId::from_u16(1)).unwrap() < 0.5);
        s
    }

    #[test]
    fn serializes_on_predicted_conflict_when_unlucky_thread_checks() {
        let addr = VarId::from_u64(5);
        let oracle = StaticWrites::new().with_writer(addr, ThreadId::from_u16(9));
        let s = about_to_serialize(&oracle, addr);
        let c = ctx(1, &oracle);

        s.before_start(&c);
        assert_eq!(s.wait_count(), 1, "thread must be serialized");
        assert!(s.prediction_stats().serialized >= 1);
        s.on_finish(&c, AttemptEnd::Committed, &[addr], &[]);
        assert_eq!(s.wait_count(), 0, "commit releases the global lock");
    }

    #[test]
    fn retry_wait_is_not_a_conflict_for_the_success_rate() {
        let s = Shrink::new(ShrinkConfig::default());
        let oracle = StaticWrites::new();
        let c = ctx(1, &oracle);
        let t = ThreadId::from_u16(1);
        commit(&s, &c, &[]);
        assert_eq!(s.success_rate(t), Some(1.0));
        // Ten deliberate waits in a row: the rate must not decay — a
        // blocked consumer is not a struggling transaction.
        for _ in 0..10 {
            s.before_start(&c);
            s.on_finish(&c, AttemptEnd::RetryWait, &[VarId::from_u64(1)], &[]);
        }
        assert_eq!(s.success_rate(t), Some(1.0));
        assert_eq!(s.wait_count(), 0, "no serialization slot leaks");
    }

    #[test]
    fn retry_wait_and_abandonment_release_a_held_serialization_lock() {
        // Serialized in `before_start`, but the body then retries (or
        // panics): the completion must hand the global lock back.
        let addr = VarId::from_u64(5);
        let oracle = StaticWrites::new().with_writer(addr, ThreadId::from_u16(9));
        for end in [AttemptEnd::RetryWait, AttemptEnd::Abandoned] {
            let s = about_to_serialize(&oracle, addr);
            let c = ctx(1, &oracle);
            s.before_start(&c);
            assert_eq!(s.wait_count(), 1, "thread must be serialized");
            s.on_finish(&c, end, &[], &[]);
            assert_eq!(s.wait_count(), 0, "{end:?} releases the global lock");
        }
    }

    #[test]
    fn healthy_threads_never_consult_prediction() {
        let s = Shrink::new(ShrinkConfig::default());
        let oracle = StaticWrites::new();
        let c = ctx(1, &oracle);
        for _ in 0..50 {
            commit(&s, &c, &[]);
        }
        assert_eq!(s.prediction_stats().prediction_checks, 0);
    }

    #[test]
    fn write_prediction_comes_from_aborted_write_set() {
        let s = Shrink::new(ShrinkConfig::default());
        let oracle = StaticWrites::new();
        let c = ctx(1, &oracle);
        let w = VarId::from_u64(44);
        abort(&s, &c, &[], &[w]);
        assert_eq!(pred_writes(&s, 1), vec![w]);
        // The next start consumes it.
        s.before_start(&c);
        assert!(
            pred_writes(&s, 1).is_empty(),
            "write prediction is one-shot"
        );
    }

    #[test]
    fn accuracy_counters_reflect_hits_and_misses() {
        // succ_threshold above 1.0 keeps prediction maintenance always on,
        // the configuration the Figure 3 accuracy harness uses.
        let config = ShrinkConfig {
            affinity_bias: 32,
            succ_threshold: 1.1,
            ..ShrinkConfig::default()
        };
        let s = Shrink::new(config);
        let oracle = StaticWrites::new();
        let c = ctx(1, &oracle);
        let hit = VarId::from_u64(1);
        let miss = VarId::from_u64(2);

        // Two transactions reading {hit, miss} to build predictions.
        for _ in 0..2 {
            commit(&s, &c, &[hit, miss]);
        }
        // Third transaction reads only `hit`; both were predicted.
        commit(&s, &c, &[hit]);

        let stats = s.prediction_stats();
        assert_eq!(stats.read_predicted, 2);
        assert_eq!(stats.read_correct, 1);
        assert_eq!(stats.read_accuracy(), Some(0.5));
    }

    #[test]
    fn read_prediction_survives_aborts_but_not_commits() {
        let s = Shrink::new(ShrinkConfig {
            succ_threshold: 1.1,
            ..ShrinkConfig::default()
        });
        let oracle = StaticWrites::new();
        let c = ctx(1, &oracle);
        let addr = VarId::from_u64(7);

        commit(&s, &c, &[addr]);
        abort(&s, &c, &[addr], &[]); // predicted now

        // After an abort the prediction must survive the next start.
        s.before_start(&c);
        assert_eq!(pred_reads(&s, 1), [7]);
        s.on_finish(&c, AttemptEnd::Committed, &[addr], &[]);

        // After a commit the next start clears it.
        s.before_start(&c);
        assert!(pred_reads(&s, 1).is_empty());
        s.on_finish(&c, AttemptEnd::Committed, &[], &[]);
    }

    /// Equivalence with the per-access implementation this scheduler used
    /// to be (a hook dispatch per transactional read, one completion hook
    /// per outcome): a scripted single-thread history whose expected state
    /// after every attempt was captured from that implementation (commit
    /// bfba885). One intended deviation is outside the script: the reads of
    /// an `Abandoned` attempt used to enter the current Bloom generation as
    /// they happened and are now dropped with the attempt (the script's
    /// abandoned attempt reads nothing).
    #[test]
    fn slice_replay_matches_the_per_read_goldens() {
        #[derive(Clone, Copy)]
        enum End {
            Commit,
            Conflict,
            RetryWait,
            Abandon,
        }
        use End::*;
        type Step = (&'static [u64], &'static [u64], End);
        /// succ_rate, pred_reads (sorted), pred_writes, then PredictionStats
        /// as [read_predicted, read_correct, write_predicted, write_correct,
        /// serialized, prediction_checks].
        type Golden = (f64, &'static [u64], &'static [u64], [u64; 6]);
        #[rustfmt::skip]
        let script: [(Step, Golden); 14] = [
            ((&[1, 2, 1], &[10], Commit),       (1.0, &[], &[], [0, 0, 0, 0, 0, 0])),
            ((&[1, 2, 3], &[], Commit),         (1.0, &[], &[], [0, 0, 0, 0, 0, 0])),
            ((&[1, 3, 3], &[10, 11], Conflict), (0.5, &[], &[10, 11], [0, 0, 0, 0, 0, 0])),
            ((&[1, 3], &[10], Conflict),        (0.25, &[], &[10], [0, 0, 0, 0, 0, 0])),
            // Struggling from here on: prediction is maintained and checked.
            ((&[1, 2, 3, 1], &[11], Conflict),  (0.125, &[1, 3], &[11], [0, 0, 0, 0, 0, 1])),
            // 3 is predicted and being written: this start serializes.
            ((&[1, 4, 2], &[], RetryWait),      (0.125, &[1, 2, 3], &[], [0, 0, 0, 0, 1, 2])),
            ((&[1, 4, 2], &[10], Commit),       (0.5625, &[1, 2, 3], &[], [3, 2, 0, 0, 2, 3])),
            ((&[2], &[], Commit),               (0.78125, &[], &[], [6, 3, 0, 0, 2, 3])),
            ((&[4, 4, 2], &[10, 11], Conflict), (0.390625, &[], &[10, 11], [6, 3, 0, 0, 2, 3])),
            ((&[4, 2, 3], &[11], Conflict),     (0.1953125, &[2, 4], &[11], [6, 3, 0, 0, 2, 4])),
            ((&[], &[], Abandon),               (0.1953125, &[2, 4], &[], [6, 3, 0, 0, 2, 5])),
            ((&[1, 2, 3, 4], &[10], Commit),    (0.59765625, &[2, 3, 4], &[], [8, 5, 0, 0, 2, 6])),
            ((&[1, 1, 2], &[10], Conflict),     (0.298828125, &[], &[10], [8, 5, 0, 0, 2, 6])),
            ((&[1, 2], &[10], Commit),          (0.6494140625, &[1, 2], &[], [8, 5, 1, 1, 2, 7])),
        ];
        let ids = |raw: &[u64]| raw.iter().map(|&v| VarId::from_u64(v)).collect::<Vec<_>>();

        let s = Shrink::new(ShrinkConfig {
            affinity_bias: 32,
            ..ShrinkConfig::default()
        });
        let oracle = StaticWrites::new().with_writer(VarId::from_u64(3), ThreadId::from_u16(9));
        let c = ctx(1, &oracle);
        let conflict = Abort::new(AbortReason::WriteConflict);
        for (step, ((reads, writes, end), golden)) in script.into_iter().enumerate() {
            s.before_start(&c);
            let end = match end {
                Commit => AttemptEnd::Committed,
                Conflict => AttemptEnd::Aborted(&conflict),
                RetryWait => AttemptEnd::RetryWait,
                Abandon => AttemptEnd::Abandoned,
            };
            s.on_finish(&c, end, &ids(reads), &ids(writes));
            assert_eq!(s.wait_count(), 0, "step {step}: lock released");

            let stats = s.prediction_stats();
            let got = (
                s.success_rate(ThreadId::from_u16(1)).unwrap(),
                pred_reads(&s, 1),
                pred_writes(&s, 1),
                [
                    stats.read_predicted,
                    stats.read_correct,
                    stats.write_predicted,
                    stats.write_correct,
                    stats.serialized,
                    stats.prediction_checks,
                ],
            );
            let want = (golden.0, golden.1.to_vec(), ids(golden.2), golden.3);
            assert_eq!(got, want, "step {step}");
        }
    }
}
