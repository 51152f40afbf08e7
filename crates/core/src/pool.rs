//! The Pool scheduler: serialize every transaction that faces contention.
//!
//! The paper builds Pool as a measurement instrument: "to understand the
//! performance tradeoff associated with serialization, we built a simple TM
//! scheduler that serializes all threads that face contention". A thread
//! that aborts runs its retry through the global lock; a commit sets it free
//! again. Comparing Pool against base and Shrink variants (Figure 5) is what
//! motivates the serialization-affinity heuristic. Serialized threads queue
//! on the parked [`SerialLock`], sleeping rather than spinning.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

use shrink_stm::{AttemptEnd, SchedCtx, ThreadTable, TxScheduler, VarId};

use crate::serial_lock::SerialLock;

/// The Pool scheduler.
///
/// # Examples
///
/// ```
/// use shrink_core::Pool;
/// use shrink_stm::TmRuntime;
///
/// let rt = TmRuntime::builder().scheduler(Pool::new()).build();
/// assert_eq!(rt.scheduler_name(), "pool");
/// ```
pub struct Pool {
    lock: SerialLock,
    /// Whether each thread's last real outcome was an abort; a thread
    /// without a slot has not aborted yet.
    contended: ThreadTable<AtomicBool>,
}

impl Pool {
    /// Creates a Pool scheduler (parked serialization lock).
    pub fn new() -> Self {
        Pool {
            lock: SerialLock::new(),
            contended: ThreadTable::new(),
        }
    }

    /// Number of threads currently serialized.
    pub fn wait_count(&self) -> u32 {
        self.lock.wait_count()
    }
}

impl Default for Pool {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Pool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("wait_count", &self.wait_count())
            .finish()
    }
}

impl TxScheduler for Pool {
    fn before_start(&self, ctx: &SchedCtx<'_>) {
        let contended = self.contended.get(ctx.thread);
        if contended.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
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
        let contended = match end {
            AttemptEnd::Committed => Some(false),
            AttemptEnd::Aborted(_) => Some(true),
            // Neither a retry nor a panic is "facing contention": the flag
            // keeps whatever value the last real outcome gave it.
            AttemptEnd::RetryWait | AttemptEnd::Abandoned => None,
        };
        if let Some(contended) = contended {
            self.contended
                .get_or_init(ctx.thread, AtomicBool::default)
                .store(contended, Ordering::Relaxed);
        }
        self.lock.release_if_held(ctx.thread);
    }

    fn name(&self) -> &str {
        "pool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{abort, ctx, finish};
    use shrink_stm::StaticWrites;

    #[test]
    fn first_attempt_is_free_retry_is_serialized() {
        let pool = Pool::new();
        let oracle = StaticWrites::new();
        let c = ctx(1, &oracle);
        pool.before_start(&c);
        assert_eq!(pool.wait_count(), 0);
        abort(&pool, &c);
        pool.before_start(&c);
        assert_eq!(pool.wait_count(), 1, "contended thread serializes");
        finish(&pool, &c, AttemptEnd::Committed);
        assert_eq!(pool.wait_count(), 0);
        // After the commit the flag is clear again.
        pool.before_start(&c);
        assert_eq!(pool.wait_count(), 0);
        finish(&pool, &c, AttemptEnd::Committed);
    }

    #[test]
    fn retry_wait_releases_the_lock_without_flagging_contention() {
        let pool = Pool::new();
        let oracle = StaticWrites::new();
        let c = ctx(1, &oracle);
        pool.before_start(&c);
        finish(&pool, &c, AttemptEnd::RetryWait);
        // A retry is not contention: the next start runs free.
        pool.before_start(&c);
        assert_eq!(pool.wait_count(), 0);
        finish(&pool, &c, AttemptEnd::Committed);

        // And a contended thread that retries releases the slot it held,
        // while staying contended for its next real attempt.
        pool.before_start(&c);
        abort(&pool, &c);
        pool.before_start(&c);
        assert_eq!(pool.wait_count(), 1);
        finish(&pool, &c, AttemptEnd::RetryWait);
        assert_eq!(pool.wait_count(), 0, "slot released while parked");
        pool.before_start(&c);
        assert_eq!(pool.wait_count(), 1, "contended flag survives the wait");
        finish(&pool, &c, AttemptEnd::Committed);
    }

    #[test]
    fn abort_while_serialized_keeps_thread_serialized() {
        let pool = Pool::new();
        let oracle = StaticWrites::new();
        let c = ctx(1, &oracle);
        pool.before_start(&c);
        abort(&pool, &c);
        pool.before_start(&c);
        assert_eq!(pool.wait_count(), 1);
        abort(&pool, &c);
        assert_eq!(pool.wait_count(), 0, "abort releases the lock");
        pool.before_start(&c);
        assert_eq!(pool.wait_count(), 1, "but the retry serializes again");
        finish(&pool, &c, AttemptEnd::Committed);
    }
}
