//! Per-thread *attempt epochs*: the epoch-futex oracle schedulers wait on.
//!
//! Every registered thread carries an [`EventCount`] that the runtime
//! advances (bump **and wake**) each time an attempt finishes — after the
//! scheduler's `on_finish` hook has run, so a woken waiter observes the
//! enemy's bookkeeping fully settled. The CAR-STM-style Serializer uses
//! this to *sleep* until its enemy finishes the conflicting transaction
//! instead of burning a `yield_now` poll loop (DESIGN.md §8.5), and the conflict paths in `txn.rs` stamp the enemy's
//! epoch into the [`Abort`](crate::Abort) at detection time so the victim
//! never serializes behind the wrong transaction.
//!
//! The oracle is a trait (like [`VisibleWrites`](crate::VisibleWrites)) so
//! schedulers can be unit-tested against a scripted [`EpochTable`] without
//! a runtime.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use parking_lot::{EventCount, WaitOutcome};

use crate::thread::{ThreadId, ThreadTable};

/// How an [`AttemptEpochs::wait_epoch_change`] call ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpochWaitOutcome {
    /// The thread's epoch moved past the observed value (it finished an
    /// attempt, or departed and was retired).
    Advanced,
    /// The deadline expired with the epoch unchanged — the enemy is idle or
    /// slow; the caller should stop waiting and run.
    TimedOut,
    /// The thread has no live epoch slot (never registered, or already
    /// departed). Waiting on it would stall against a counter that will
    /// never advance; callers must skip the wait.
    Absent,
}

/// Read-and-wait access to per-thread attempt epochs.
///
/// Implemented by the runtime's thread registry and by the scripted
/// [`EpochTable`] used in scheduler unit tests.
pub trait AttemptEpochs: Send + Sync {
    /// The current attempt epoch of `thread`, or `None` if the thread never
    /// registered or has departed (a departed thread's epoch will never
    /// advance again — waiting on it is the stale-enemy stall this
    /// interface exists to prevent).
    fn epoch_of(&self, thread: ThreadId) -> Option<u32>;

    /// Blocks (parked, never yield-polling) until `thread`'s epoch differs
    /// from `observed`, the thread departs, or `deadline` passes.
    ///
    /// Returns immediately when the epoch already moved or the slot is
    /// absent.
    fn wait_epoch_change(
        &self,
        thread: ThreadId,
        observed: u32,
        deadline: Instant,
    ) -> EpochWaitOutcome;

    /// Exact number of threads currently parked in
    /// [`wait_epoch_change`](Self::wait_epoch_change) on `thread`'s epoch.
    ///
    /// A deterministic handshake for tests ("wake the enemy only once the
    /// victim is provably parked"); not a scheduling signal.
    fn waiters_on(&self, thread: ThreadId) -> u32;
}

/// One thread's epoch state: the event count plus the departed flag.
///
/// Embedded both in the runtime's `ThreadCtx` and in the scripted
/// [`EpochTable`], so the live-filtering and wait protocol exist exactly
/// once and the test double cannot drift from the runtime it stands in
/// for.
#[derive(Debug, Default)]
pub(crate) struct EpochCell {
    event: EventCount,
    departed: AtomicBool,
}

impl EpochCell {
    /// The current epoch, regardless of liveness.
    pub(crate) fn version(&self) -> u32 {
        self.event.version()
    }

    /// The current epoch, or `None` once the owner departed.
    pub(crate) fn version_if_live(&self) -> Option<u32> {
        (!self.departed()).then(|| self.event.version())
    }

    /// True once the owning thread has exited.
    pub(crate) fn departed(&self) -> bool {
        self.departed.load(Ordering::SeqCst)
    }

    /// Advances the epoch, waking every waiter. Returns the new epoch.
    pub(crate) fn advance(&self) -> u32 {
        // Delay-only site: advance also runs from attempt-cleanup guards.
        let _ = crate::failpoint!(crate::faults::FaultSite::EventWake);
        self.event.advance().version
    }

    /// Marks the owner departed and wakes anything still waiting.
    pub(crate) fn retire(&self) {
        self.departed.store(true, Ordering::SeqCst);
        self.event.advance();
    }

    /// Parks until the epoch differs from `observed`, the owner departs,
    /// or `deadline` passes. Departed cells report [`Absent`] up front.
    ///
    /// [`Absent`]: EpochWaitOutcome::Absent
    pub(crate) fn wait_change(&self, observed: u32, deadline: Instant) -> EpochWaitOutcome {
        if self.departed() {
            return EpochWaitOutcome::Absent;
        }
        // Forced spurious wakeup: report the epoch advanced without
        // sleeping. Epoch waiters (the Serializer's schedule-after wait)
        // must tolerate waking before their enemy actually finished.
        if crate::failpoint!(crate::faults::FaultSite::EventPark) {
            return EpochWaitOutcome::Advanced;
        }
        match self.event.wait_while_eq(observed, Some(deadline)) {
            WaitOutcome::Advanced => EpochWaitOutcome::Advanced,
            WaitOutcome::TimedOut => EpochWaitOutcome::TimedOut,
        }
    }

    /// Exact number of threads parked on this epoch.
    pub(crate) fn waiters(&self) -> u32 {
        self.event.waiters()
    }
}

/// A scripted [`AttemptEpochs`] implementation for scheduler unit tests and
/// benchmarks: register threads with [`ensure`](Self::ensure), finish their
/// attempts with [`bump`](Self::bump), end their lives with
/// [`retire`](Self::retire).
///
/// # Examples
///
/// ```
/// use shrink_stm::{AttemptEpochs, EpochTable, ThreadId};
///
/// let table = EpochTable::new();
/// let enemy = ThreadId::from_u16(2);
/// table.ensure(enemy);
/// assert_eq!(table.epoch_of(enemy), Some(0));
/// table.bump(enemy);
/// assert_eq!(table.epoch_of(enemy), Some(1));
/// table.retire(enemy);
/// assert_eq!(table.epoch_of(enemy), None);
/// ```
#[derive(Debug, Default)]
pub struct EpochTable {
    slots: ThreadTable<EpochCell>,
}

impl EpochTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `thread` (idempotent), creating its epoch slot at 0.
    ///
    /// # Panics
    ///
    /// Panics on [`ThreadId::NONE`] and on ids at or past
    /// [`MAX_THREADS`](crate::thread::MAX_THREADS).
    pub fn ensure(&self, thread: ThreadId) {
        self.cell(thread);
    }

    fn cell(&self, thread: ThreadId) -> &EpochCell {
        self.slots.get_or_init(thread, EpochCell::default)
    }

    /// Advances `thread`'s epoch (registering it if needed), waking its
    /// waiters. Returns the new epoch.
    pub fn bump(&self, thread: ThreadId) -> u32 {
        self.cell(thread).advance()
    }

    /// Marks `thread` as departed and wakes anything waiting on its epoch.
    pub fn retire(&self, thread: ThreadId) {
        if let Some(slot) = self.slots.get(thread) {
            slot.retire();
        }
    }
}

impl AttemptEpochs for EpochTable {
    fn epoch_of(&self, thread: ThreadId) -> Option<u32> {
        self.slots.get(thread).and_then(EpochCell::version_if_live)
    }

    fn wait_epoch_change(
        &self,
        thread: ThreadId,
        observed: u32,
        deadline: Instant,
    ) -> EpochWaitOutcome {
        self.slots
            .get(thread)
            .map_or(EpochWaitOutcome::Absent, |s| {
                s.wait_change(observed, deadline)
            })
    }

    fn waiters_on(&self, thread: ThreadId) -> u32 {
        self.slots.get(thread).map_or(0, EpochCell::waiters)
    }
}

/// An [`AttemptEpochs`] oracle with no threads: every lookup is absent,
/// every wait returns immediately. For scheduler tests that do not exercise
/// epoch waiting.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoEpochs;

impl AttemptEpochs for NoEpochs {
    fn epoch_of(&self, _thread: ThreadId) -> Option<u32> {
        None
    }

    fn wait_epoch_change(
        &self,
        _thread: ThreadId,
        _observed: u32,
        _deadline: Instant,
    ) -> EpochWaitOutcome {
        EpochWaitOutcome::Absent
    }

    fn waiters_on(&self, _thread: ThreadId) -> u32 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn tid(raw: u16) -> ThreadId {
        ThreadId::from_u16(raw)
    }

    #[test]
    fn unknown_threads_are_absent() {
        let table = EpochTable::new();
        assert_eq!(table.epoch_of(tid(3)), None);
        assert_eq!(table.epoch_of(ThreadId::NONE), None);
        let outcome = table.wait_epoch_change(tid(3), 0, Instant::now() + Duration::from_secs(5));
        assert_eq!(outcome, EpochWaitOutcome::Absent, "must not stall");
    }

    #[test]
    fn bump_advances_and_satisfies_waits() {
        let table = EpochTable::new();
        let t = tid(1);
        assert_eq!(table.bump(t), 1);
        assert_eq!(table.epoch_of(t), Some(1));
        // Observed epoch already stale: no sleep.
        let outcome = table.wait_epoch_change(t, 0, Instant::now() + Duration::from_secs(5));
        assert_eq!(outcome, EpochWaitOutcome::Advanced);
    }

    #[test]
    fn wait_times_out_against_an_idle_thread() {
        let table = EpochTable::new();
        let t = tid(1);
        table.ensure(t);
        let deadline = Instant::now() + Duration::from_millis(20);
        let outcome = table.wait_epoch_change(t, 0, deadline);
        assert_eq!(outcome, EpochWaitOutcome::TimedOut);
        assert!(Instant::now() >= deadline);
    }

    #[test]
    fn retire_wakes_waiters_and_goes_absent() {
        let table = Arc::new(EpochTable::new());
        let t = tid(2);
        table.ensure(t);
        let waiter = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                table.wait_epoch_change(t, 0, Instant::now() + Duration::from_secs(30))
            })
        };
        while table.waiters_on(t) == 0 {
            std::thread::yield_now();
        }
        table.retire(t);
        // The retire's advance releases the waiter well before the deadline.
        assert_eq!(waiter.join().unwrap(), EpochWaitOutcome::Advanced);
        assert_eq!(table.epoch_of(t), None, "departed threads are absent");
        assert_eq!(
            table.wait_epoch_change(t, 1, Instant::now() + Duration::from_secs(5)),
            EpochWaitOutcome::Absent
        );
    }

    #[test]
    fn no_epochs_is_always_absent() {
        let oracle = NoEpochs;
        assert_eq!(oracle.epoch_of(tid(1)), None);
        assert_eq!(
            oracle.wait_epoch_change(tid(1), 0, Instant::now() + Duration::from_secs(5)),
            EpochWaitOutcome::Absent
        );
        assert_eq!(oracle.waiters_on(tid(1)), 0);
    }
}
