//! Adaptive Transaction Scheduling (ATS), after Yoo & Lee (SPAA 2008).
//!
//! ATS measures each thread's *contention intensity* as an exponential
//! moving average over transaction outcomes: `ci = α·ci + (1−α)` on abort,
//! `ci = α·ci` on commit. When the intensity exceeds a threshold the thread
//! is dispatched through a global serialization queue; when it falls back
//! below, the thread runs freely again.
//!
//! The paper uses ATS as the representative of coarse serializing schedulers
//! (CAR-STM, Steal-on-abort): it reacts to *how often* a thread aborts, not
//! to *what* it is about to access, which is why it keeps serializing even
//! when the cause of past conflicts has gone away (Theorem 1 builds the
//! O(n) lower-bound family from exactly this behaviour).

use std::fmt;

use parking_lot::Mutex;
use shrink_stm::{AttemptEnd, SchedCtx, ThreadId, ThreadTable, TxScheduler, VarId};

use crate::serial_lock::SerialLock;

/// Smoothing factor of the contention-intensity moving average: 0.75
/// weights recent outcomes heavily, matching Yoo & Lee's reference
/// implementation.
const ALPHA: f64 = 0.75;
/// Intensity above which a thread serializes (Yoo & Lee report 0.3–0.5 as
/// robust thresholds).
const THRESHOLD: f64 = 0.5;

/// The ATS scheduler.
///
/// # Examples
///
/// ```
/// use shrink_core::Ats;
/// use shrink_stm::TmRuntime;
///
/// let rt = TmRuntime::builder().scheduler(Ats::new()).build();
/// assert_eq!(rt.scheduler_name(), "ats");
/// ```
pub struct Ats {
    lock: SerialLock,
    /// Each thread's contention intensity.
    intensity: ThreadTable<Mutex<f64>>,
}

impl Ats {
    /// Creates an ATS scheduler.
    pub fn new() -> Self {
        Ats {
            lock: SerialLock::new(),
            intensity: ThreadTable::new(),
        }
    }

    /// The current contention intensity of `thread`, if it has state.
    pub fn contention_intensity(&self, thread: ThreadId) -> Option<f64> {
        self.intensity.get(thread).map(|ci| *ci.lock())
    }

    fn intensity_of(&self, thread: ThreadId) -> &Mutex<f64> {
        self.intensity.get_or_init(thread, Mutex::default)
    }

    /// Number of threads currently serialized.
    pub fn wait_count(&self) -> u32 {
        self.lock.wait_count()
    }
}

impl Default for Ats {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Ats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ats")
            .field("wait_count", &self.lock.wait_count())
            .finish()
    }
}

impl TxScheduler for Ats {
    fn before_start(&self, ctx: &SchedCtx<'_>) {
        let ci = self.intensity.get(ctx.thread);
        if ci.is_some_and(|ci| *ci.lock() > THRESHOLD) {
            self.lock.acquire(ctx.thread);
        }
    }

    fn on_finish(
        &self,
        ctx: &SchedCtx<'_>,
        end: AttemptEnd<'_>,
        _reads: &[VarId],
        _writes: &[VarId],
    ) {
        match end {
            AttemptEnd::Committed => *self.intensity_of(ctx.thread).lock() *= ALPHA,
            AttemptEnd::Aborted(_) => {
                let mut ci = self.intensity_of(ctx.thread).lock();
                *ci = ALPHA * *ci + (1.0 - ALPHA);
            }
            // Deliberate blocking is not contention, and an unwinding panic
            // is neither a commit nor a conflict: the intensity average is
            // left alone.
            AttemptEnd::RetryWait | AttemptEnd::Abandoned => {}
        }
        self.lock.release_if_held(ctx.thread);
    }

    fn name(&self) -> &str {
        "ats"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{abort, ctx, finish};
    use shrink_stm::StaticWrites;

    #[test]
    fn intensity_rises_with_aborts_and_decays_with_commits() {
        let ats = Ats::new();
        let oracle = StaticWrites::new();
        let c = ctx(1, &oracle);
        let t = ThreadId::from_u16(1);
        ats.before_start(&c);
        abort(&ats, &c);
        assert!((ats.contention_intensity(t).unwrap() - 0.25).abs() < 1e-12);
        ats.before_start(&c);
        abort(&ats, &c);
        let after_two = ats.contention_intensity(t).unwrap();
        assert!(after_two > 0.4);
        ats.before_start(&c);
        finish(&ats, &c, AttemptEnd::Committed);
        assert!(ats.contention_intensity(t).unwrap() < after_two);
    }

    #[test]
    fn serializes_once_over_threshold_and_releases() {
        let ats = Ats::new();
        let oracle = StaticWrites::new();
        let c = ctx(1, &oracle);
        // Three aborts with α 0.75: ci = 0.25, 0.4375, 0.578 — over 0.5.
        for _ in 0..3 {
            ats.before_start(&c);
            abort(&ats, &c);
        }
        assert_eq!(ats.wait_count(), 0);
        ats.before_start(&c);
        assert_eq!(ats.wait_count(), 1, "high intensity must serialize");
        finish(&ats, &c, AttemptEnd::Committed);
        assert_eq!(ats.wait_count(), 0, "commit releases the queue");
    }

    #[test]
    fn retry_wait_leaves_intensity_alone_and_releases_the_queue() {
        let ats = Ats::new();
        let oracle = StaticWrites::new();
        let c = ctx(1, &oracle);
        let t = ThreadId::from_u16(1);
        for _ in 0..3 {
            ats.before_start(&c);
            abort(&ats, &c);
        }
        let intensity = ats.contention_intensity(t).unwrap();
        assert!(intensity > THRESHOLD);
        // The serialized thread blocks in Tx::retry: the slot is released
        // and the intensity neither bumps (abort) nor decays (commit).
        ats.before_start(&c);
        assert_eq!(ats.wait_count(), 1);
        finish(&ats, &c, AttemptEnd::RetryWait);
        assert_eq!(ats.wait_count(), 0, "retry wait releases the queue");
        assert_eq!(ats.contention_intensity(t), Some(intensity));
    }

    #[test]
    fn repeated_commits_keep_thread_free() {
        let ats = Ats::new();
        let oracle = StaticWrites::new();
        let c = ctx(1, &oracle);
        for _ in 0..20 {
            ats.before_start(&c);
            assert_eq!(ats.wait_count(), 0);
            finish(&ats, &c, AttemptEnd::Committed);
        }
    }
}
