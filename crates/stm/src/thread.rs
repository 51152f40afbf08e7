//! Per-thread transaction contexts and the runtime's thread registry.
//!
//! Every OS thread that executes transactions against a
//! [`TmRuntime`](crate::TmRuntime) is registered once and receives a dense
//! [`ThreadId`]. The identifier is packed into ownership records so that any
//! thread can see *who* holds a write lock (the paper's "visible writes"
//! requirement) and, for the SwissTM-like contention manager, reach the
//! owner's context to request a remote abort.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::RwLock;

use crate::epoch::{AttemptEpochs, EpochCell, EpochWaitOutcome};

/// Maximum number of threads a single runtime can register.
///
/// Thread identifiers are packed into a 15-bit orec field; we reserve id 0 as
/// "nobody", leaving 32766 usable slots — far more than any benchmark spawns.
pub const MAX_THREADS: usize = 1 << 15;

/// Dense identifier of a registered transactional thread.
///
/// Ids start at 1; 0 is reserved for "no owner" in ownership records.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub(crate) u16);

impl ThreadId {
    /// Sentinel meaning "no thread".
    pub const NONE: ThreadId = ThreadId(0);

    /// Returns the raw id.
    pub fn as_u16(self) -> u16 {
        self.0
    }

    /// Returns the zero-based index of this thread in registry vectors.
    ///
    /// # Panics
    ///
    /// Panics if called on [`ThreadId::NONE`].
    pub fn index(self) -> usize {
        assert!(self.0 != 0, "ThreadId::NONE has no index");
        (self.0 - 1) as usize
    }

    /// Rebuilds a `ThreadId` from its raw representation.
    pub(crate) fn from_raw(raw: u16) -> Self {
        ThreadId(raw)
    }

    /// Builds a `ThreadId` from a raw value.
    ///
    /// Ids are normally allocated by the runtime's registry; this
    /// constructor exists for scheduler unit tests and tooling that need to
    /// fabricate ids.
    pub fn from_u16(raw: u16) -> Self {
        ThreadId(raw)
    }
}

impl fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 0 {
            write!(f, "ThreadId(NONE)")
        } else {
            write!(f, "ThreadId({})", self.0)
        }
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Shared, concurrently accessible state of one registered thread.
///
/// Other threads touch this only through atomics: the contention manager may
/// set [`kill_requested`](ThreadCtx::request_kill), and statistics readers
/// aggregate the counters.
#[derive(Debug)]
pub struct ThreadCtx {
    id: ThreadId,
    /// Set by a higher-priority conflicting transaction (SwissTM-style
    /// two-phase contention management). Polled at every read/write.
    kill_requested: AtomicBool,
    /// Number of transactional accesses performed by the *current* attempt;
    /// doubles as the "work done" priority of the greedy CM phase.
    accesses: AtomicU64,
    /// Commits performed by this thread.
    pub(crate) commits: AtomicU64,
    /// Aborts suffered by this thread.
    pub(crate) aborts: AtomicU64,
    /// Attempts by this thread that ended in [`Tx::retry`] (deliberate
    /// waits, counted apart from conflict aborts; the runtime-wide
    /// `RetryStats` break down how each round then waited).
    ///
    /// [`Tx::retry`]: crate::Tx::retry
    pub(crate) retry_waits: AtomicU64,
    /// Read-only transactions completed by this thread
    /// ([`TmRuntime::read_only`](crate::TmRuntime::read_only)). Counted
    /// apart from `commits` so scheduler policies keyed on the read-write
    /// success rate never see read-only traffic.
    pub(crate) ro_commits: AtomicU64,
    /// Individual reads performed inside read-only transactions.
    pub(crate) ro_reads: AtomicU64,
    /// Snapshot revalidations inside read-only transactions: timestamp
    /// extensions plus whole-body restarts. A pure measure of how often
    /// writers invalidated a reader's snapshot — never booked as aborts.
    pub(crate) ro_revalidations: AtomicU64,
    /// Orec stripes acquired (write locks taken) by this thread. A declared
    /// read-only workload must leave this at zero — the lock-free claim,
    /// asserted by tests through [`ThreadStats`](crate::ThreadStats).
    pub(crate) orec_acquires: AtomicU64,
    /// The *attempt epoch*: advanced (bump + wake) by the runtime every
    /// time an attempt finishes, after the completion hook has run, and
    /// retired when the OS thread exits (a departed thread's epoch never
    /// advances again, so waiters treat it as absent; the retirement
    /// advance wakes anyone already parked). A scheduler that serialized a
    /// victim behind this thread sleeps on this cell (DESIGN.md §8.5).
    epoch: EpochCell,
}

/// Adds `n` to one of a [`ThreadCtx`]'s counters and returns the new
/// total. Only the owning thread writes them, so a plain load and store
/// does, not a locked read-modify-write; readers on other threads see a
/// recent total either way.
#[inline]
pub(crate) fn bump(counter: &AtomicU64, n: u64) -> u64 {
    let total = counter.load(Ordering::Relaxed) + n;
    counter.store(total, Ordering::Relaxed);
    total
}

impl ThreadCtx {
    fn new(id: ThreadId) -> Self {
        ThreadCtx {
            id,
            kill_requested: AtomicBool::new(false),
            accesses: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            retry_waits: AtomicU64::new(0),
            ro_commits: AtomicU64::new(0),
            ro_reads: AtomicU64::new(0),
            ro_revalidations: AtomicU64::new(0),
            orec_acquires: AtomicU64::new(0),
            epoch: EpochCell::default(),
        }
    }

    /// The id of this thread.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// Asks the owning thread to abort its current transaction attempt.
    ///
    /// Used by the SwissTM-like contention manager when the requester has
    /// higher priority than the lock holder.
    pub fn request_kill(&self) {
        self.kill_requested.store(true, Ordering::Release);
    }

    /// Returns and clears the kill request flag. A load first: the flag is
    /// almost always clear, and then no read-modify-write is needed.
    #[inline]
    pub(crate) fn take_kill_request(&self) -> bool {
        self.kill_pending() && self.kill_requested.swap(false, Ordering::AcqRel)
    }

    /// True if a kill has been requested but not yet consumed.
    pub fn kill_pending(&self) -> bool {
        self.kill_requested.load(Ordering::Acquire)
    }

    /// Resets the per-attempt access counter.
    pub(crate) fn reset_accesses(&self) {
        self.accesses.store(0, Ordering::Relaxed);
    }

    /// Records one transactional access and returns the new total.
    #[inline]
    pub(crate) fn bump_accesses(&self) -> u64 {
        bump(&self.accesses, 1)
    }

    /// Number of accesses performed by the current attempt (CM priority).
    pub fn accesses(&self) -> u64 {
        self.accesses.load(Ordering::Relaxed)
    }

    /// Total commits by this thread.
    pub fn commit_count(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Total aborts by this thread.
    pub fn abort_count(&self) -> u64 {
        self.aborts.load(Ordering::Relaxed)
    }

    /// Total attempts by this thread that ended in `Tx::retry`.
    pub fn retry_wait_count(&self) -> u64 {
        self.retry_waits.load(Ordering::Relaxed)
    }

    /// Total read-only transactions completed by this thread.
    pub fn ro_commit_count(&self) -> u64 {
        self.ro_commits.load(Ordering::Relaxed)
    }

    /// Total reads performed inside read-only transactions.
    pub fn ro_read_count(&self) -> u64 {
        self.ro_reads.load(Ordering::Relaxed)
    }

    /// Total read-only snapshot revalidations (extensions + restarts).
    pub fn ro_revalidation_count(&self) -> u64 {
        self.ro_revalidations.load(Ordering::Relaxed)
    }

    /// Total orec stripes this thread has write-locked.
    pub fn orec_acquire_count(&self) -> u64 {
        self.orec_acquires.load(Ordering::Relaxed)
    }

    /// The current attempt epoch. Conflict paths sample this *at detection
    /// time* and stamp it into the [`Abort`](crate::Abort), so a scheduler
    /// waiting for "the conflicting attempt to finish" compares against the
    /// epoch of that attempt, not of whatever the enemy runs later.
    pub fn attempt_epoch(&self) -> u32 {
        self.epoch.version()
    }

    /// The current attempt epoch, or `None` once this thread departed.
    pub(crate) fn attempt_epoch_if_live(&self) -> Option<u32> {
        self.epoch.version_if_live()
    }

    /// Advances the attempt epoch, waking every thread serialized behind
    /// this one. Called by the runtime after the completion hook of each
    /// attempt.
    pub(crate) fn finish_attempt(&self) {
        // Delay-only site: this also runs from panic-cleanup guards.
        let _ = crate::failpoint!(crate::faults::FaultSite::EpochAdvance);
        self.epoch.advance();
    }

    /// Marks this thread as departed and wakes its epoch waiters. Runs from
    /// the thread-local registration guard when the OS thread exits.
    pub(crate) fn retire(&self) {
        // Delay-only site: this runs inside a TLS destructor, where a panic
        // would abort the process.
        let _ = crate::failpoint!(crate::faults::FaultSite::EpochRetire);
        self.epoch.retire();
    }

    /// True once the owning OS thread has exited.
    pub fn departed(&self) -> bool {
        self.epoch.departed()
    }

    /// Parks until the attempt epoch differs from `observed`, this thread
    /// departs (reported as [`EpochWaitOutcome::Absent`] up front), or
    /// `deadline` passes.
    pub(crate) fn wait_attempt_change(&self, observed: u32, deadline: Instant) -> EpochWaitOutcome {
        self.epoch.wait_change(observed, deadline)
    }

    /// Exact number of threads parked on this thread's attempt epoch.
    pub fn epoch_waiters(&self) -> u32 {
        self.epoch.waiters()
    }
}

/// Registry of all thread contexts of one runtime.
///
/// Registration is rare (once per thread), lookup is hot (contention
/// manager); contexts are stored behind an `RwLock<Vec<Arc<..>>>` where the
/// read path is a shared lock plus an index.
pub(crate) struct ThreadRegistry {
    threads: RwLock<Vec<std::sync::Arc<ThreadCtx>>>,
}

impl ThreadRegistry {
    pub(crate) fn new() -> Self {
        ThreadRegistry {
            threads: RwLock::new(Vec::new()),
        }
    }

    /// Registers a new thread and returns its context.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_THREADS`] threads register.
    pub(crate) fn register(&self) -> std::sync::Arc<ThreadCtx> {
        let mut guard = self.threads.write();
        let id = guard.len() + 1;
        assert!(id < MAX_THREADS, "too many registered threads");
        let ctx = std::sync::Arc::new(ThreadCtx::new(ThreadId(id as u16)));
        guard.push(std::sync::Arc::clone(&ctx));
        ctx
    }

    /// Looks up a context by id. Returns `None` for [`ThreadId::NONE`] or
    /// unknown ids.
    pub(crate) fn get(&self, id: ThreadId) -> Option<std::sync::Arc<ThreadCtx>> {
        if id.0 == 0 {
            return None;
        }
        self.threads.read().get(id.index()).cloned()
    }

    /// Number of registered threads.
    pub(crate) fn len(&self) -> usize {
        self.threads.read().len()
    }

    /// Snapshot of all registered contexts, for statistics aggregation.
    pub(crate) fn snapshot(&self) -> Vec<std::sync::Arc<ThreadCtx>> {
        self.threads.read().clone()
    }
}

impl AttemptEpochs for ThreadRegistry {
    fn epoch_of(&self, thread: ThreadId) -> Option<u32> {
        self.get(thread).and_then(|ctx| ctx.attempt_epoch_if_live())
    }

    fn wait_epoch_change(
        &self,
        thread: ThreadId,
        observed: u32,
        deadline: Instant,
    ) -> EpochWaitOutcome {
        self.get(thread).map_or(EpochWaitOutcome::Absent, |ctx| {
            ctx.wait_attempt_change(observed, deadline)
        })
    }

    fn waiters_on(&self, thread: ThreadId) -> u32 {
        self.get(thread).map_or(0, |ctx| ctx.epoch_waiters())
    }
}

impl fmt::Debug for ThreadRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadRegistry")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_assigns_dense_ids_from_one() {
        let reg = ThreadRegistry::new();
        let a = reg.register();
        let b = reg.register();
        assert_eq!(a.id().as_u16(), 1);
        assert_eq!(b.id().as_u16(), 2);
        assert_eq!(a.id().index(), 0);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn lookup_by_id() {
        let reg = ThreadRegistry::new();
        let a = reg.register();
        let found = reg.get(a.id()).expect("registered thread must be found");
        assert_eq!(found.id(), a.id());
        assert!(reg.get(ThreadId::NONE).is_none());
        assert!(reg.get(ThreadId(42)).is_none());
    }

    #[test]
    fn kill_request_round_trip() {
        let reg = ThreadRegistry::new();
        let a = reg.register();
        assert!(!a.take_kill_request());
        a.request_kill();
        assert!(a.kill_pending());
        assert!(a.take_kill_request());
        assert!(!a.take_kill_request(), "flag must be consumed");
    }

    #[test]
    fn access_counter_tracks_work() {
        let reg = ThreadRegistry::new();
        let a = reg.register();
        assert_eq!(a.bump_accesses(), 1);
        assert_eq!(a.bump_accesses(), 2);
        a.reset_accesses();
        assert_eq!(a.accesses(), 0);
    }

    #[test]
    #[should_panic(expected = "no index")]
    fn none_id_has_no_index() {
        let _ = ThreadId::NONE.index();
    }

    #[test]
    fn attempt_epoch_advances_on_finish() {
        let reg = ThreadRegistry::new();
        let a = reg.register();
        assert_eq!(a.attempt_epoch(), 0);
        a.finish_attempt();
        a.finish_attempt();
        assert_eq!(a.attempt_epoch(), 2);
        assert_eq!(reg.epoch_of(a.id()), Some(2));
    }

    #[test]
    fn retired_threads_are_absent_to_the_epoch_oracle() {
        let reg = ThreadRegistry::new();
        let a = reg.register();
        assert_eq!(reg.epoch_of(a.id()), Some(0));
        a.retire();
        assert!(a.departed());
        assert_eq!(reg.epoch_of(a.id()), None);
        let outcome = reg.wait_epoch_change(
            a.id(),
            1,
            Instant::now() + std::time::Duration::from_secs(5),
        );
        assert_eq!(outcome, EpochWaitOutcome::Absent, "must not stall");
    }

    #[test]
    fn retire_wakes_a_parked_epoch_waiter() {
        let reg = std::sync::Arc::new(ThreadRegistry::new());
        let a = reg.register();
        let id = a.id();
        let waiter = {
            let reg = std::sync::Arc::clone(&reg);
            std::thread::spawn(move || {
                reg.wait_epoch_change(id, 0, Instant::now() + std::time::Duration::from_secs(30))
            })
        };
        while reg.waiters_on(id) == 0 {
            std::thread::yield_now();
        }
        a.retire();
        assert_eq!(waiter.join().unwrap(), EpochWaitOutcome::Advanced);
    }
}
