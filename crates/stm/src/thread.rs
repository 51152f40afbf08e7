//! Per-thread transaction contexts, the [`ThreadTable`] that holds every
//! kind of per-thread state, and the runtime's thread registry.
//!
//! Every OS thread that executes transactions against a
//! [`TmRuntime`](crate::TmRuntime) is registered once and receives a dense
//! [`ThreadId`]. The identifier is packed into ownership records so that any
//! thread can see *who* holds a write lock (the paper's "visible writes"
//! requirement) and, for the SwissTM-like contention manager, reach the
//! owner's context to request a remote abort.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::epoch::{AttemptEpochs, EpochCell, EpochWaitOutcome};
use crate::stats::ThreadStats;

/// Maximum number of threads a single runtime can register.
///
/// Thread identifiers are packed into a 15-bit orec field; we reserve id 0 as
/// "nobody", leaving ids 1 to 32767 — far more than any benchmark spawns.
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

    /// Returns the zero-based index of this thread's slot in a
    /// [`ThreadTable`].
    ///
    /// # Panics
    ///
    /// Panics if called on [`ThreadId::NONE`].
    pub fn index(self) -> usize {
        assert!(self.0 != 0, "ThreadId::NONE has no index");
        (self.0 - 1) as usize
    }

    /// Builds a `ThreadId` from a raw value.
    ///
    /// Ids are normally allocated by the runtime's registry; this
    /// constructor decodes the owner field of an orec, and lets scheduler
    /// unit tests and tooling fabricate ids.
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

    /// A snapshot of this thread's counters.
    pub fn stats(&self) -> ThreadStats {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        ThreadStats {
            thread: self.id,
            commits: load(&self.commits),
            aborts: load(&self.aborts),
            retry_waits: load(&self.retry_waits),
            ro_commits: load(&self.ro_commits),
            ro_reads: load(&self.ro_reads),
            ro_revalidations: load(&self.ro_revalidations),
            orec_acquires: load(&self.orec_acquires),
        }
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

/// Slots per chunk of a [`ThreadTable`]; chunks are allocated on first use.
const CHUNK: usize = 64;

/// `CHUNK` consecutive slots of a [`ThreadTable`].
type Chunk<T> = Box<[OnceLock<T>]>;

/// Per-thread state indexed by [`ThreadId`], with room for every id a
/// runtime can hand out (1 up to `MAX_THREADS - 1`).
///
/// Each slot is published once ([`OnceLock`]) and lives as long as the
/// table, so a lookup is two acquire loads and an index: no lock, no
/// reference count. Slots come in chunks of 64 that are allocated when one
/// of their ids is first initialized; an idle table costs one empty cell
/// per chunk, about 12 KB. Mutation after the first publication is
/// `T`'s business (atomics, a `Mutex`).
///
/// # Examples
///
/// ```
/// use shrink_stm::{ThreadId, ThreadTable};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let table = ThreadTable::new();
/// let t = ThreadId::from_u16(3);
/// assert!(table.get(t).is_none());
/// table.get_or_init(t, AtomicU64::default).fetch_add(1, Ordering::Relaxed);
/// assert_eq!(table.get(t).map(|n| n.load(Ordering::Relaxed)), Some(1));
/// assert_eq!(table.iter().count(), 1, "only initialized slots are visited");
/// ```
pub struct ThreadTable<T> {
    chunks: Box<[OnceLock<Chunk<T>>]>,
}

impl<T> ThreadTable<T> {
    /// Creates a table with no slot initialized.
    pub fn new() -> Self {
        ThreadTable {
            chunks: (0..MAX_THREADS / CHUNK).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The chunk and offset of `id`'s slot; `None` for [`ThreadId::NONE`]
    /// and for ids at or past [`MAX_THREADS`].
    fn position(id: ThreadId) -> Option<(usize, usize)> {
        let index = usize::from(id.0).checked_sub(1)?;
        (index < MAX_THREADS - 1).then_some((index / CHUNK, index % CHUNK))
    }

    /// The state of `id`, if its slot was initialized. Never creates one.
    pub fn get(&self, id: ThreadId) -> Option<&T> {
        let (chunk, offset) = Self::position(id)?;
        self.chunks[chunk].get()?[offset].get()
    }

    /// The state of `id`, initializing its slot with `init` on first use.
    /// Concurrent first calls for one id run `init` exactly once.
    ///
    /// # Panics
    ///
    /// Panics on [`ThreadId::NONE`] and on ids at or past [`MAX_THREADS`],
    /// before allocating anything.
    pub fn get_or_init(&self, id: ThreadId, init: impl FnOnce() -> T) -> &T {
        let Some((chunk, offset)) = Self::position(id) else {
            panic!("ThreadTable: {id:?} is not a valid thread id (1..{MAX_THREADS})");
        };
        let chunk =
            self.chunks[chunk].get_or_init(|| (0..CHUNK).map(|_| OnceLock::new()).collect());
        chunk[offset].get_or_init(init)
    }

    /// Every initialized slot, in thread-id order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|chunk| chunk.iter().filter_map(OnceLock::get))
    }
}

impl<T> Default for ThreadTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for ThreadTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadTable")
            .field("len", &self.iter().count())
            .finish()
    }
}

/// Registry of all thread contexts of one runtime: a [`ThreadTable`] of
/// contexts plus the counter that hands out dense ids.
#[derive(Debug)]
pub(crate) struct ThreadRegistry {
    threads: ThreadTable<Arc<ThreadCtx>>,
    registered: AtomicUsize,
}

impl ThreadRegistry {
    pub(crate) fn new() -> Self {
        ThreadRegistry {
            threads: ThreadTable::new(),
            registered: AtomicUsize::new(0),
        }
    }

    /// Registers a new thread and returns its context.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_THREADS`] threads register.
    pub(crate) fn register(&self) -> Arc<ThreadCtx> {
        let id = self.registered.fetch_add(1, Ordering::Relaxed) + 1;
        assert!(id < MAX_THREADS, "too many registered threads");
        let id = ThreadId(id as u16);
        Arc::clone(
            self.threads
                .get_or_init(id, || Arc::new(ThreadCtx::new(id))),
        )
    }

    /// Looks up a context by id. Returns `None` for [`ThreadId::NONE`] or
    /// unknown ids.
    pub(crate) fn get(&self, id: ThreadId) -> Option<&ThreadCtx> {
        self.threads.get(id).map(|ctx| &**ctx)
    }

    /// All registered contexts, for statistics aggregation.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &ThreadCtx> {
        self.threads.iter().map(|ctx| &**ctx)
    }
}

impl AttemptEpochs for ThreadRegistry {
    fn epoch_of(&self, thread: ThreadId) -> Option<u32> {
        self.get(thread).and_then(ThreadCtx::attempt_epoch_if_live)
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
        self.get(thread).map_or(0, ThreadCtx::epoch_waiters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(raw: usize) -> ThreadId {
        ThreadId::from_u16(u16::try_from(raw).expect("test ids fit in u16"))
    }

    #[test]
    fn table_slots_are_created_once_reused_and_never_by_lookup() {
        let table = ThreadTable::new();
        assert!(table.get(tid(1)).is_none(), "get does not create");
        assert_eq!(table.iter().count(), 0);
        table.get_or_init(tid(1), || AtomicU64::new(7));
        let again = table.get_or_init(tid(1), || unreachable!("slot 1 exists"));
        assert_eq!(again.load(Ordering::Relaxed), 7);
        // Sparse ids stay sparse: no slot below 5 is filled in.
        table.get_or_init(tid(5), || AtomicU64::new(9));
        assert!(table.get(tid(2)).is_none());
        let values: Vec<u64> = table.iter().map(|v| v.load(Ordering::Relaxed)).collect();
        assert_eq!(values, [7, 9], "iter lists every initialized slot");
    }

    #[test]
    fn table_ids_on_chunk_edges_and_the_last_id_work() {
        let table = ThreadTable::new();
        let ids = [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, MAX_THREADS - 1];
        for &id in &ids {
            assert_eq!(*table.get_or_init(tid(id), || id), id);
        }
        for &id in &ids {
            assert_eq!(table.get(tid(id)), Some(&id));
        }
        assert!(table.get(tid(CHUNK + 2)).is_none());
        assert!(table.get(tid(MAX_THREADS - 2)).is_none());
        assert_eq!(table.iter().copied().collect::<Vec<_>>(), ids);
    }

    #[test]
    fn table_rejects_none_and_out_of_range_ids_without_allocating() {
        let table = ThreadTable::new();
        for raw in [0, MAX_THREADS, 40_000, usize::from(u16::MAX)] {
            let id = tid(raw);
            assert!(table.get(id).is_none(), "{id:?}");
            let init = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                table.get_or_init(id, || unreachable!("init must not run for {id:?}"));
            }));
            let message = init.expect_err("get_or_init must panic");
            let message = message.downcast_ref::<String>().expect("formatted panic");
            assert!(message.contains("not a valid thread id"), "{message}");
        }
        assert!(
            table.chunks.iter().all(|chunk| chunk.get().is_none()),
            "no chunk allocated"
        );
    }

    #[test]
    fn table_races_initialize_each_slot_exactly_once() {
        const WRITERS: usize = 8;
        // Spans three chunks, so writers also race on chunk allocation.
        const IDS: usize = 2 * CHUNK + 8;
        let stress = std::env::var("SHRINK_STRESS").is_ok_and(|v| !v.is_empty() && v != "0");
        for _ in 0..if stress { 100 } else { 25 } {
            let table = ThreadTable::new();
            let inits: Vec<AtomicU64> = (0..=IDS).map(|_| AtomicU64::new(0)).collect();
            let running = AtomicUsize::new(WRITERS);
            std::thread::scope(|s| {
                s.spawn(|| {
                    while running.load(Ordering::Acquire) > 0 {
                        let seen: Vec<usize> = table.iter().copied().collect();
                        assert!(seen.windows(2).all(|w| w[0] < w[1]), "{seen:?}");
                    }
                });
                for w in 0..WRITERS {
                    let (table, inits, running) = (&table, &inits, &running);
                    s.spawn(move || {
                        // Each writer starts elsewhere, so every id is
                        // contended by several writers.
                        for k in 0..IDS {
                            let id = (w * IDS / WRITERS + k) % IDS + 1;
                            table.get_or_init(tid(id), || {
                                inits[id].fetch_add(1, Ordering::Relaxed);
                                id
                            });
                        }
                        running.fetch_sub(1, Ordering::Release);
                    });
                }
            });
            assert!(inits[1..].iter().all(|n| n.load(Ordering::Relaxed) == 1));
            assert!(
                table.iter().copied().eq(1..=IDS),
                "every id, holding itself"
            );
        }
    }

    #[test]
    fn registration_assigns_dense_ids_from_one() {
        let reg = ThreadRegistry::new();
        let a = reg.register();
        let b = reg.register();
        assert_eq!(a.id().as_u16(), 1);
        assert_eq!(b.id().as_u16(), 2);
        assert_eq!(a.id().index(), 0);
        assert_eq!(reg.iter().count(), 2);
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
        let reg = Arc::new(ThreadRegistry::new());
        let a = reg.register();
        let id = a.id();
        let waiter = {
            let reg = Arc::clone(&reg);
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
