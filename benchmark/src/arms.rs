//! The two arms every throughput number is measured under, and the counter
//! snapshots taken at a measurement's boundaries.

use std::sync::Arc;
use std::time::{Duration, Instant};

use shrink_core::{Shrink, ShrinkConfig};
use shrink_stm::{select_stats, BackendKind, TmRuntime, WaitPolicy};

/// `.base` is the bare TM (Swiss backend, preemptive waiting, no
/// scheduler); `.shrink` is the same runtime with the paper's scheduler.
/// The arm is part of the metric name, so a change that speeds one and
/// slows the other shows as two rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    Base,
    Shrink,
}

impl Arm {
    pub const BOTH: [Arm; 2] = [Arm::Base, Arm::Shrink];

    pub fn label(self) -> &'static str {
        match self {
            Arm::Base => "base",
            Arm::Shrink => "shrink",
        }
    }
}

/// A runtime plus the typed handle to its Shrink scheduler (kept so
/// `prediction_stats()` stays readable; `None` on the base arm).
#[derive(Clone, Debug)]
pub struct ArmRt {
    pub rt: TmRuntime,
    pub shrink: Option<Arc<Shrink>>,
}

pub fn build_runtime(arm: Arm) -> ArmRt {
    let builder = TmRuntime::builder()
        .backend(BackendKind::Swiss)
        .wait_policy(WaitPolicy::Preemptive);
    match arm {
        Arm::Base => ArmRt {
            rt: builder.build(),
            shrink: None,
        },
        Arm::Shrink => {
            // `SchedulerKind::shrink_default()` builds exactly this, but
            // type-erased.
            let shrink = Arc::new(Shrink::new(ShrinkConfig::default()));
            ArmRt {
                rt: builder.scheduler_arc(shrink.clone()).build(),
                shrink: Some(shrink),
            }
        }
    }
}

/// Shortest stretch of back-to-back builds one `setup_s` sample averages
/// over. Several workloads set up in microseconds; a single build of those
/// would time the allocator's mood, not the set-up.
const SETUP_WINDOW: Duration = Duration::from_millis(20);

/// Windows of back-to-back builds an untraced run times per arm.
pub const SETUP_SAMPLES: usize = 5;

/// The `setup_s` samples of a run, from the window means of both arms (in
/// `Arm::BOTH` order, equally many per arm): sample *i* is what building
/// both arms took in their *i*-th windows. The arms build different
/// runtimes, so their windows are two populations; a median across them
/// would sit between the two and jump with either.
pub fn setup_samples(window_means: &[f64]) -> Vec<f64> {
    let (base, shrink) = window_means.split_at(window_means.len() / 2);
    base.iter().zip(shrink).map(|(b, s)| b + s).collect()
}

/// Builds an instance over and over, `samples` windows of at least
/// [`SETUP_WINDOW`] each, and returns the last instance with each window's
/// mean build time in seconds. Dropping the previous instance is not timed.
pub fn timed_builds<I>(samples: usize, mut build: impl FnMut() -> I) -> (I, Vec<f64>) {
    let mut last = None;
    let means = (0..samples.max(1))
        .map(|_| {
            let window = Instant::now();
            let (mut busy, mut builds) = (Duration::ZERO, 0u32);
            while builds == 0 || window.elapsed() < SETUP_WINDOW {
                let t0 = Instant::now();
                let instance = build();
                busy += t0.elapsed();
                builds += 1;
                last = Some(instance);
            }
            busy.as_secs_f64() / f64::from(builds)
        })
        .collect();
    (last.expect("at least one build"), means)
}

/// Every counter the crates expose, summed over the given runtimes.
/// Subtracting two snapshots gives the counts of the interval between them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub commits: u64,
    pub aborts: u64,
    pub retry_waits: u64,
    pub ro_commits: u64,
    pub ro_reads: u64,
    pub ro_revalidations: u64,
    pub orec_acquires: u64,
    pub parked_waits: u64,
    pub changed_before_park: u64,
    pub wakes_issued: u64,
    pub wasted_wakes: u64,
    pub select_rounds: u64,
    pub select_parked: u64,
    pub read_predicted: u64,
    pub read_correct: u64,
    pub write_predicted: u64,
    pub write_correct: u64,
    pub serialized: u64,
    pub prediction_checks: u64,
}

impl Counters {
    /// Snapshots `TmStats`, `RetryStats` and `PredictionStats` of every
    /// runtime plus the process-global `select_stats()`.
    pub fn snapshot<'a>(rts: impl IntoIterator<Item = &'a ArmRt>) -> Counters {
        let sel = select_stats();
        let mut c = Counters {
            select_rounds: sel.rounds,
            select_parked: sel.parked,
            ..Counters::default()
        };
        for a in rts {
            let tm = a.rt.stats();
            c.commits += tm.commits;
            c.aborts += tm.aborts;
            c.retry_waits += tm.retry_waits;
            c.ro_commits += tm.ro_commits;
            c.ro_reads += tm.ro_reads;
            c.ro_revalidations += tm.ro_revalidations;
            c.orec_acquires += tm.orec_acquires;
            let retry = a.rt.retry_stats();
            c.parked_waits += retry.parked_waits;
            c.changed_before_park += retry.changed_before_park;
            c.wakes_issued += retry.wakes_issued;
            c.wasted_wakes += retry.wasted_wakes;
            if let Some(shrink) = &a.shrink {
                let p = shrink.prediction_stats();
                c.read_predicted += p.read_predicted;
                c.read_correct += p.read_correct;
                c.write_predicted += p.write_predicted;
                c.write_correct += p.write_correct;
                c.serialized += p.serialized;
                c.prediction_checks += p.prediction_checks;
            }
        }
        c
    }

    fn zip(&self, o: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            commits: f(self.commits, o.commits),
            aborts: f(self.aborts, o.aborts),
            retry_waits: f(self.retry_waits, o.retry_waits),
            ro_commits: f(self.ro_commits, o.ro_commits),
            ro_reads: f(self.ro_reads, o.ro_reads),
            ro_revalidations: f(self.ro_revalidations, o.ro_revalidations),
            orec_acquires: f(self.orec_acquires, o.orec_acquires),
            parked_waits: f(self.parked_waits, o.parked_waits),
            changed_before_park: f(self.changed_before_park, o.changed_before_park),
            wakes_issued: f(self.wakes_issued, o.wakes_issued),
            wasted_wakes: f(self.wasted_wakes, o.wasted_wakes),
            select_rounds: f(self.select_rounds, o.select_rounds),
            select_parked: f(self.select_parked, o.select_parked),
            read_predicted: f(self.read_predicted, o.read_predicted),
            read_correct: f(self.read_correct, o.read_correct),
            write_predicted: f(self.write_predicted, o.write_predicted),
            write_correct: f(self.write_correct, o.write_correct),
            serialized: f(self.serialized, o.serialized),
            prediction_checks: f(self.prediction_checks, o.prediction_checks),
        }
    }

    /// The counts of the interval from `earlier` to this snapshot.
    pub fn since(&self, earlier: &Counters) -> Counters {
        self.zip(earlier, |now, then| now - then)
    }

    /// The counts of two intervals together.
    pub fn plus(&self, other: &Counters) -> Counters {
        self.zip(other, |a, b| a + b)
    }

    /// Attempts per committed read-write transaction (1.0 = no aborts).
    pub fn attempts_per_commit(&self) -> f64 {
        ratio(self.commits + self.aborts, self.commits)
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_samples_pair_the_arms_windows() {
        // Base builds in 1 ms, Shrink in 2 ms: every sample is 3 ms, where a
        // median over all six windows would read 1.5 ms.
        let windows = [1.0, 1.1, 0.9, 2.0, 2.1, 1.9];
        let samples = setup_samples(&windows);
        assert_eq!(samples.len(), 3);
        assert!(samples.iter().all(|s| (s - 3.0).abs() < 0.25));
        let (last, means) = timed_builds(2, || 7u8);
        assert_eq!((last, means.len()), (7, 2));
        assert!(means.iter().all(|m| *m >= 0.0));
    }
}
