//! The Serializer scheduler, after CAR-STM (Dolev, Hendler & Suissa,
//! PODC 2008).
//!
//! "Upon a conflict between two transactions T₁ and T₂, one of the
//! transactions is scheduled after another": when an attempt aborts against
//! an identified enemy thread, the retry is postponed until that enemy
//! finishes its current transaction, guaranteeing the same pair never
//! conflicts on the same transactions twice.
//!
//! CAR-STM implements this by physically moving the transaction to the
//! enemy's per-core queue. Our runtime binds transactions to their threads,
//! so we keep the schedule-after ordering instead: the aborted thread waits
//! for the enemy's *attempt epoch* to advance past the value observed while
//! the conflict was live.
//!
//! Two properties make the wait correct and cheap (DESIGN.md §8.5):
//!
//! * **The epoch is sampled at conflict-detection time**, in the STM's
//!   conflict path, and carried inside the [`Abort`]. Sampling it any later
//!   (this scheduler's `on_finish` runs after rollback and log extraction)
//!   races a fast enemy: the enemy may already have committed the
//!   conflicting transaction, so a late sample would make the victim
//!   serialize behind the enemy's *next* transaction — the mis-prediction
//!   cost that makes waiting lose to restarting. An abort whose conflict
//!   was already over at detection time carries no epoch, and no wait
//!   happens at all.
//! * **The wait parks on an epoch futex** ([`EventCount`] per thread,
//!   advanced bump-and-wake by the runtime when an attempt finishes, or
//!   when the thread exits). The victim sleeps in the kernel and is woken
//!   by the enemy's commit/abort — there is no poll loop. The deadline
//!   bound against enemies that have gone idle is a wall-clock duration
//!   ([`SerializerConfig::max_wait`]), and an enemy whose epoch slot is
//!   absent (never registered, or its thread exited) is skipped outright
//!   instead of being waited on in vain.
//!
//! [`EventCount`]: parking_lot::EventCount
//! [`Abort`]: shrink_stm::Abort

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use shrink_stm::{
    AttemptEnd, EpochWaitOutcome, SchedCtx, ThreadId, ThreadTable, TxScheduler, VarId,
};

/// Tuning parameters of [`Serializer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SerializerConfig {
    /// Longest a victim sleeps on its enemy's epoch before running anyway
    /// — the bound against enemies that have gone idle.
    pub max_wait: Duration,
}

impl Default for SerializerConfig {
    fn default() -> Self {
        SerializerConfig {
            // Generous against real transactions (µs of work) while keeping
            // the idle-enemy stall short on a loaded box.
            max_wait: Duration::from_millis(2),
        }
    }
}

/// Wait-op counters of a [`Serializer`] — how `before_start` actually
/// waited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SerializerWaitStats {
    /// Parked epoch waits issued (each may sleep up to `max_wait`).
    pub parked_waits: u64,
    /// Waits that ended because the enemy's epoch advanced (including
    /// instantly, when the conflicting attempt was already over).
    pub advanced: u64,
    /// Waits that hit the idle-enemy deadline.
    pub timed_out: u64,
    /// Waits skipped because the enemy had no live epoch slot (never
    /// registered, or its thread exited).
    pub absent_skips: u64,
}

#[derive(Debug, Default)]
struct WaitCounters {
    parked_waits: AtomicU64,
    advanced: AtomicU64,
    timed_out: AtomicU64,
    absent_skips: AtomicU64,
}

/// The CAR-STM-style Serializer scheduler.
///
/// # Examples
///
/// ```
/// use shrink_core::{Serializer, SerializerConfig};
/// use shrink_stm::TmRuntime;
///
/// let rt = TmRuntime::builder()
///     .scheduler(Serializer::new(SerializerConfig::default()))
///     .build();
/// assert_eq!(rt.scheduler_name(), "serializer");
/// ```
pub struct Serializer {
    config: SerializerConfig,
    /// Per thread, set when an attempt aborts: who to wait for, and the
    /// enemy's attempt epoch observed *at conflict time* (carried by the
    /// [`Abort`](shrink_stm::Abort)).
    pending: ThreadTable<Mutex<Option<(ThreadId, u32)>>>,
    counters: WaitCounters,
}

impl Serializer {
    /// Creates a Serializer scheduler.
    pub fn new(config: SerializerConfig) -> Self {
        Serializer {
            config,
            pending: ThreadTable::new(),
            counters: WaitCounters::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SerializerConfig {
        &self.config
    }

    /// Aggregate wait-op counters across all threads.
    pub fn wait_stats(&self) -> SerializerWaitStats {
        SerializerWaitStats {
            parked_waits: self.counters.parked_waits.load(Ordering::Relaxed),
            advanced: self.counters.advanced.load(Ordering::Relaxed),
            timed_out: self.counters.timed_out.load(Ordering::Relaxed),
            absent_skips: self.counters.absent_skips.load(Ordering::Relaxed),
        }
    }

    fn wait_parked(&self, ctx: &SchedCtx<'_>, enemy: ThreadId, observed: u32) {
        let deadline = Instant::now() + self.config.max_wait;
        match ctx.epochs.wait_epoch_change(enemy, observed, deadline) {
            EpochWaitOutcome::Advanced => {
                self.counters.parked_waits.fetch_add(1, Ordering::Relaxed);
                self.counters.advanced.fetch_add(1, Ordering::Relaxed);
            }
            EpochWaitOutcome::TimedOut => {
                self.counters.parked_waits.fetch_add(1, Ordering::Relaxed);
                self.counters.timed_out.fetch_add(1, Ordering::Relaxed);
            }
            // Not a wait op: the slot was dead on arrival.
            EpochWaitOutcome::Absent => {
                self.counters.absent_skips.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl fmt::Debug for Serializer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Serializer")
            .field("config", &self.config)
            .field("wait_stats", &self.wait_stats())
            .finish()
    }
}

impl TxScheduler for Serializer {
    fn before_start(&self, ctx: &SchedCtx<'_>) {
        let pending = self.pending.get(ctx.thread).and_then(|p| p.lock().take());
        if let Some((enemy, observed)) = pending {
            self.wait_parked(ctx, enemy, observed);
        }
    }

    fn on_finish(
        &self,
        ctx: &SchedCtx<'_>,
        end: AttemptEnd<'_>,
        _reads: &[VarId],
        _writes: &[VarId],
    ) {
        // No lock is ever held here; the only per-thread state is the
        // pending schedule-after target `before_start` consumes.
        match end {
            // Schedule-after only when the conflict was *live* at detection
            // time: the Abort then carries the enemy's attempt epoch sampled
            // at that moment. An unstamped abort means the enemy had already
            // finished the conflicting attempt (or was never identified) —
            // there is nothing to wait for, and recording a later-sampled
            // epoch would serialize the victim behind the enemy's next
            // transaction.
            AttemptEnd::Aborted(abort) => {
                if let (Some(enemy), Some(observed)) = (abort.enemy(), abort.enemy_epoch()) {
                    if enemy != ctx.thread && enemy != ThreadId::NONE {
                        let pending = self.pending.get_or_init(ctx.thread, Mutex::default);
                        *pending.lock() = Some((enemy, observed));
                    }
                }
            }
            // Abandoned attempt: its conflict evidence is stale —
            // serializing the thread's *next* transaction behind it would
            // be a spurious stall.
            AttemptEnd::Abandoned => {
                if let Some(pending) = self.pending.get(ctx.thread) {
                    *pending.lock() = None;
                }
            }
            // A commit consumed nothing, and a deliberate retry has no
            // enemy to schedule after (the runtime parks the thread on its
            // read set's commit events instead).
            AttemptEnd::Committed | AttemptEnd::RetryWait => {}
        }
    }

    fn name(&self) -> &str {
        "serializer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{abort, finish};
    use shrink_stm::{Abort, AbortReason, AttemptEpochs, EpochTable, StaticWrites, VarId};
    use std::sync::Arc;

    fn ctx<'a>(thread: u16, oracle: &'a StaticWrites, epochs: &'a EpochTable) -> SchedCtx<'a> {
        SchedCtx {
            thread: ThreadId::from_u16(thread),
            visible: oracle,
            epochs,
        }
    }

    /// An abort against `enemy`, stamped with its current epoch (i.e. the
    /// conflict is live right now).
    fn live_conflict(epochs: &EpochTable, enemy: ThreadId) -> Abort {
        Abort::on_conflict(AbortReason::WriteConflict, VarId::from_u64(1), enemy)
            .with_enemy_epoch(epochs.epoch_of(enemy).expect("enemy registered"))
    }

    #[test]
    fn abort_without_enemy_does_not_wait() {
        let s = Serializer::new(SerializerConfig::default());
        let oracle = StaticWrites::new();
        let epochs = EpochTable::new();
        let c = ctx(1, &oracle, &epochs);
        s.before_start(&c);
        abort(&s, &c);
        // Must return immediately (no pending enemy).
        s.before_start(&c);
        finish(&s, &c, AttemptEnd::Committed);
        assert_eq!(s.wait_stats(), SerializerWaitStats::default());
    }

    #[test]
    fn unstamped_conflict_does_not_wait() {
        // The enemy is known but the Abort carries no conflict-time epoch:
        // the conflicting attempt was already over, so waiting would target
        // the enemy's *next* transaction. No pending wait may be recorded.
        let s = Serializer::new(SerializerConfig {
            // A wrongly recorded wait would stall the full bound and fail
            // the elapsed assertion below.
            max_wait: Duration::from_secs(60),
        });
        let oracle = StaticWrites::new();
        let epochs = EpochTable::new();
        let enemy = ThreadId::from_u16(2);
        epochs.ensure(enemy);
        let c = ctx(1, &oracle, &epochs);
        s.before_start(&c);
        let abort = Abort::on_conflict(AbortReason::WriteConflict, VarId::from_u64(1), enemy);
        finish(&s, &c, AttemptEnd::Aborted(&abort));
        let start = Instant::now();
        s.before_start(&c);
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(s.wait_stats().parked_waits, 0, "no wait op at all");
    }

    #[test]
    fn retry_wait_records_no_schedule_after() {
        let s = Serializer::new(SerializerConfig {
            max_wait: Duration::from_secs(60),
        });
        let oracle = StaticWrites::new();
        let epochs = EpochTable::new();
        let c = ctx(1, &oracle, &epochs);
        s.before_start(&c);
        finish(&s, &c, AttemptEnd::RetryWait);
        // No pending enemy: the next start must return instantly.
        let start = Instant::now();
        s.before_start(&c);
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(s.wait_stats(), SerializerWaitStats::default());
    }

    #[test]
    fn waits_parked_until_enemy_finishes() {
        let s = Arc::new(Serializer::new(SerializerConfig {
            max_wait: Duration::from_secs(60),
        }));
        let oracle = StaticWrites::new();
        let epochs = Arc::new(EpochTable::new());
        let enemy = ThreadId::from_u16(2);
        epochs.ensure(enemy);

        let me = ctx(1, &oracle, &epochs);
        s.before_start(&me);
        finish(
            &*s,
            &me,
            AttemptEnd::Aborted(&live_conflict(&epochs, enemy)),
        );

        let waiter = {
            let s = Arc::clone(&s);
            let epochs = Arc::clone(&epochs);
            std::thread::spawn(move || {
                let oracle = StaticWrites::new();
                let me = ctx(1, &oracle, &epochs);
                // Parks until the enemy's epoch advances.
                s.before_start(&me);
            })
        };
        // Deterministic handshake: the waiter is provably parked on the
        // enemy's epoch before we let the enemy finish — no sleep races.
        while epochs.waiters_on(enemy) == 0 {
            std::thread::yield_now();
        }
        assert!(!waiter.is_finished(), "waiter must be parked on the enemy");
        epochs.bump(enemy);
        waiter.join().unwrap();

        let stats = s.wait_stats();
        assert_eq!(stats.parked_waits, 1);
        assert_eq!(stats.advanced, 1);
        assert_eq!(stats.timed_out, 0);
    }

    #[test]
    fn fast_committing_enemy_is_not_waited_for() {
        // Regression (stale-enemy-epoch bug): the enemy finishes the
        // conflicting attempt *between* conflict detection and the victim's
        // abort bookkeeping. The conflict-time epoch carried by the Abort is
        // already stale by then, so before_start must return instantly
        // instead of serializing the victim behind the enemy's next
        // transaction.
        let s = Serializer::new(SerializerConfig {
            max_wait: Duration::from_secs(60),
        });
        let oracle = StaticWrites::new();
        let epochs = EpochTable::new();
        let enemy = ThreadId::from_u16(2);
        epochs.ensure(enemy);

        let me = ctx(1, &oracle, &epochs);
        s.before_start(&me);
        let abort = live_conflict(&epochs, enemy);
        // The fast enemy commits before the victim's abort bookkeeping runs.
        epochs.bump(enemy);
        finish(&s, &me, AttemptEnd::Aborted(&abort));

        let start = Instant::now();
        s.before_start(&me);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "victim must not wait behind the enemy's next transaction"
        );
        let stats = s.wait_stats();
        assert_eq!(stats.advanced, 1, "wait satisfied without sleeping");
    }

    #[test]
    fn absent_enemy_is_skipped_not_stalled() {
        // Regression (unregistered-enemy stall): an enemy with no live
        // epoch slot will never advance; the old code recorded epoch 0 for
        // it and burned the whole wait bound.
        let s = Serializer::new(SerializerConfig {
            max_wait: Duration::from_secs(60),
        });
        let oracle = StaticWrites::new();
        let epochs = EpochTable::new();
        let ghost = ThreadId::from_u16(7); // never registered
        let c = ctx(1, &oracle, &epochs);
        s.before_start(&c);
        let abort = Abort::on_conflict(AbortReason::WriteConflict, VarId::from_u64(1), ghost)
            .with_enemy_epoch(0);
        finish(&s, &c, AttemptEnd::Aborted(&abort));
        let start = Instant::now();
        s.before_start(&c);
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(s.wait_stats().absent_skips, 1);
    }

    #[test]
    fn bounded_wait_times_out_on_idle_enemy() {
        let max_wait = Duration::from_millis(20);
        let s = Serializer::new(SerializerConfig { max_wait });
        let oracle = StaticWrites::new();
        let epochs = EpochTable::new();
        let enemy = ThreadId::from_u16(2);
        epochs.ensure(enemy);
        let me = ctx(1, &oracle, &epochs);
        s.before_start(&me);
        finish(&s, &me, AttemptEnd::Aborted(&live_conflict(&epochs, enemy)));
        // The enemy never runs again; before_start must still return, and
        // not before the deadline.
        let start = Instant::now();
        s.before_start(&me);
        assert!(start.elapsed() >= max_wait, "deadline must be honoured");
        finish(&s, &me, AttemptEnd::Committed);
        let stats = s.wait_stats();
        assert_eq!(stats.timed_out, 1);
    }
}
