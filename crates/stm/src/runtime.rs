//! The transactional-memory runtime: configuration, thread registration and
//! the attempt step every read-write transaction runs (the wait loop
//! around it lives in [`select`](crate::select)).

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::backoff::pause;
use crate::clock::GlobalClock;
use crate::config::{BackendKind, TmConfig, WaitPolicy};
use crate::error::{AbortReason, TmError, TxResult};
use crate::faults::FaultSite;
use crate::log::{with_logs, ReadEntry};
use crate::orec::OrecTable;
use crate::sched::{AttemptEnd, NoopScheduler, SchedCtx, TxScheduler};
use crate::select::wait_rounds;
use crate::stats::TmStats;
use crate::thread::{bump, ThreadCtx, ThreadId, ThreadRegistry};
use crate::txn::{ReadTx, Tx};
use crate::varid::VarId;
use crate::waitlist::{RetryStats, StripeWaitlist};

static NEXT_RUNTIME_ID: AtomicU64 = AtomicU64::new(1);

/// A thread's registration with one runtime. Dropping it — which happens in
/// the thread-local destructor when the OS thread exits — retires the
/// context: the thread's attempt epoch is marked departed and advanced one
/// final time, so a scheduler parked on it wakes instead of stalling its
/// full wait bound against a counter that will never move again.
struct Registration(Arc<ThreadCtx>);

impl Drop for Registration {
    fn drop(&mut self) {
        self.0.retire();
    }
}

thread_local! {
    /// Per-OS-thread map from runtime id to this thread's context in that
    /// runtime. A thread registers lazily on its first transaction.
    static THREAD_CTXS: RefCell<HashMap<u64, Registration>> = RefCell::new(HashMap::new());
}

pub(crate) struct RuntimeInner {
    pub(crate) id: u64,
    pub(crate) config: TmConfig,
    pub(crate) clock: GlobalClock,
    pub(crate) orecs: OrecTable,
    pub(crate) scheduler: Arc<dyn TxScheduler>,
    pub(crate) registry: ThreadRegistry,
    /// Per-stripe commit wait buckets: where `Tx::retry` parks and what the
    /// commit path wakes (DESIGN.md §9).
    pub(crate) retry_waits: StripeWaitlist,
}

/// How one read-write attempt left the transaction — what
/// [`RuntimeInner::attempt`] hands the one wait loop,
/// [`Round`](crate::select::Round) (DESIGN.md §12.2).
pub(crate) enum Attempt<T> {
    /// The attempt committed.
    Committed(T),
    /// The body ended in [`Tx::retry`] and was rolled back: the
    /// deduplicated `(stripe, observed version)` pairs of the attempt's
    /// read set — what a commit must touch to make re-running worthwhile.
    Blocked(Vec<(usize, u64)>),
    /// The attempt lost a conflict (booked as an abort); re-run it.
    Aborted,
    /// A non-retryable error ended the transaction.
    Fatal(TmError),
}

/// The scheduler bracket around one read-write attempt — the only place
/// the runtime talks to its [`TxScheduler`].
///
/// [`begin`](AttemptGuard::begin) opens the bracket (`before_start`),
/// [`finish`](AttemptGuard::finish) closes it (per-thread stats bump, the
/// `on_finish` dispatch) and the drop advances the attempt epoch. If the
/// attempt is abandoned instead — the body panicked and is unwinding, or a
/// non-retryable error (foreign `TVar`) returned early — the drop first
/// closes it as [`AttemptEnd::Abandoned`], so the scheduler releases any
/// serialization taken in `before_start` and threads serialized behind
/// this one wake instead of stalling their full wait bound.
///
/// Declared *before* the `Tx` in the attempt step, so during an unwind the
/// `Tx` drops first (rollback: stripe locks released, versions restored)
/// and this guard second — the scheduler never observes the abandoned
/// attempt's stripes still locked.
struct AttemptGuard<'a> {
    inner: &'a RuntimeInner,
    ctx: &'a ThreadCtx,
    open: bool,
}

impl<'a> AttemptGuard<'a> {
    fn new(inner: &'a RuntimeInner, ctx: &'a ThreadCtx) -> Self {
        AttemptGuard {
            inner,
            ctx,
            open: false,
        }
    }

    /// Opens the bracket. A method on the guard in its final place rather
    /// than a constructor: returning the opened guard by value copies it
    /// right after its flags were written — a store-forwarding stall on
    /// every attempt.
    #[inline]
    fn begin(&mut self) {
        self.open = true;
        let ctx = self.inner.sched_ctx(self.ctx.id());
        self.inner.scheduler.before_start(&ctx);
        // Hazard probe with serialization possibly held: a panic here must
        // release it through the guard's drop.
        let _ = crate::failpoint!(FaultSite::SchedBeforeStart);
    }

    /// Closes the bracket; the guard's drop, at the end of the caller's
    /// scope, then only advances the attempt epoch. By reference for the
    /// same reason as [`begin`](AttemptGuard::begin).
    #[inline]
    fn finish(&mut self, end: AttemptEnd<'_>, reads: &[VarId], writes: &[VarId]) {
        debug_assert!(self.open, "an attempt finishes once");
        // Closed first: a panic below (scheduler bug, injected fault) must
        // not make the drop handler dispatch a second completion.
        self.open = false;
        let booked = match end {
            AttemptEnd::Committed => Some((&self.ctx.commits, FaultSite::SchedOnCommit)),
            AttemptEnd::Aborted(_) => Some((&self.ctx.aborts, FaultSite::SchedOnAbort)),
            AttemptEnd::RetryWait => Some((&self.ctx.retry_waits, FaultSite::SchedOnRetryWait)),
            AttemptEnd::Abandoned => None,
        };
        if let Some((counter, _)) = booked {
            bump(counter, 1);
        }
        let ctx = self.inner.sched_ctx(self.ctx.id());
        self.inner.scheduler.on_finish(&ctx, end, reads, writes);
        if let Some((_, site)) = booked {
            let _ = crate::failpoint!(site);
        }
    }
}

impl Drop for AttemptGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        if self.open {
            self.finish(AttemptEnd::Abandoned, &[], &[]);
        }
        // Bump-and-wake *after* the hook: a victim released here observes
        // the enemy's scheduler bookkeeping settled.
        self.ctx.finish_attempt();
    }
}

impl RuntimeInner {
    fn sched_ctx(&self, thread: ThreadId) -> SchedCtx<'_> {
        SchedCtx {
            thread,
            visible: &self.orecs,
            epochs: &self.registry,
        }
    }

    /// Runs `body` as one read-write attempt: `begin → body → commit |
    /// blocked | aborted | fatal`, with the scheduler bracket, stats and
    /// failpoints owned by the [`AttemptGuard`]. Every read-write entry
    /// point drives this step.
    #[inline]
    pub(crate) fn attempt<T>(
        &self,
        ctx: &ThreadCtx,
        body: impl FnOnce(&mut Tx<'_>) -> TxResult<T>,
    ) -> Attempt<T> {
        // The thread's logs first, guard second, `tx` third: on an unwind
        // the transaction rolls back (stripes released) and unpins before
        // the guard closes the scheduler bracket and advances the attempt
        // epoch, and the logs are handed back last. On every other path
        // `tx` — and with it the attempt's epoch pin — is dropped before
        // the bracket closes, so no hook, park or `relieve` runs pinned.
        let attempt = with_logs(|logs| {
            let mut guard = AttemptGuard::new(self, ctx);
            guard.begin();
            let mut tx = Tx::begin(self, ctx, logs);
            let abort = match body(&mut tx).and_then(|value| tx.try_commit().map(|()| value)) {
                Ok(value) => {
                    drop(tx);
                    guard.finish(AttemptEnd::Committed, &logs.read_vars, &logs.write_vars);
                    return Attempt::Committed(value);
                }
                Err(abort) => abort,
            };
            tx.rollback();
            if abort.reason() == AbortReason::ForeignTVar {
                // Not retryable, and not a conflict either: no abort is
                // booked; the guard's drop closes the bracket as
                // `Abandoned`.
                return Attempt::Fatal(tx.refusal.take().expect("foreign abort carries details"));
            }
            let wait_plan = abort.reason().is_retry().then(|| tx.retry_wait_plan());
            drop(tx);
            let (reads, writes) = (&logs.read_vars, &logs.write_vars);
            match wait_plan {
                // Deliberate blocking, not a conflict: the driver waits for
                // a commit to overwrite something the attempt read.
                Some(plan) => {
                    guard.finish(AttemptEnd::RetryWait, reads, writes);
                    Attempt::Blocked(plan)
                }
                None => {
                    guard.finish(AttemptEnd::Aborted(&abort), reads, writes);
                    Attempt::Aborted
                }
            }
        });
        if matches!(attempt, Attempt::Committed(_)) {
            // A commit retires the values it replaced. With no lock, pin or
            // scheduler bracket held any more, this is where a thread whose
            // retired values pile up (another thread preempted while pinned
            // holds the epoch back) gives way instead of piling on.
            crossbeam::epoch::relieve();
        }
        attempt
    }
}

/// The restart loop of one read-only transaction, on the lent `read_log`.
fn read_only_loop<T>(
    inner: &RuntimeInner,
    ctx: &ThreadCtx,
    read_log: &mut Vec<ReadEntry>,
    max_attempts: u64,
    mut body: impl FnMut(&mut ReadTx<'_>) -> TxResult<T>,
) -> Result<T, TmError> {
    // No scheduler bracket: a reader can neither cause nor lose a
    // conflict, so there is nothing to predict, serialize or book, and no
    // attempt epoch to advance.
    let mut attempts: u64 = 0;
    loop {
        attempts += 1;
        let mut tx = ReadTx::begin(inner, ctx.id(), read_log);
        let outcome = body(&mut tx);
        let (reads, revalidations) = tx.counters();
        let refusal = tx.refusal.take();
        // The attempt's epoch pin ends here: neither the restart pause
        // below nor the caller runs pinned.
        drop(tx);
        bump(&ctx.ro_reads, reads);
        bump(&ctx.ro_revalidations, revalidations);
        if let Ok(value) = outcome {
            bump(&ctx.ro_commits, 1);
            return Ok(value);
        }
        if let Some(refusal) = refusal {
            // Not retryable: a fresh snapshot cannot change which
            // runtime owns the variable.
            return Err(refusal);
        }
        // A concurrent writer invalidated the snapshot (or the body
        // asked to restart). Not an abort — no lock was held, no writer
        // was harmed. Grant the writer a short pause, then re-run on a
        // fresh snapshot.
        bump(&ctx.ro_revalidations, 1);
        if attempts >= max_attempts {
            return Err(TmError::RetryLimitExceeded { attempts });
        }
        pause(
            inner.config.wait_policy,
            u32::try_from(attempts).unwrap_or(u32::MAX),
        );
    }
}

/// Stripes in every runtime's ownership-record table.
const OREC_TABLE_SIZE: usize = 1 << 16;

/// Builder for [`TmRuntime`].
///
/// # Examples
///
/// ```
/// use shrink_stm::{TmRuntime, BackendKind, WaitPolicy};
///
/// let rt = TmRuntime::builder()
///     .backend(BackendKind::Tiny)
///     .wait_policy(WaitPolicy::Busy)
///     .build();
/// assert_eq!(rt.config().backend, BackendKind::Tiny);
/// ```
#[derive(Debug)]
pub struct TmBuilder {
    config: TmConfig,
    scheduler: Arc<dyn TxScheduler>,
}

impl TmBuilder {
    fn new() -> Self {
        TmBuilder {
            config: TmConfig::default(),
            scheduler: Arc::new(NoopScheduler),
        }
    }

    /// Selects the conflict-detection backend.
    #[must_use]
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.config.backend = backend;
        self
    }

    /// Selects the waiting policy.
    #[must_use]
    pub fn wait_policy(mut self, policy: WaitPolicy) -> Self {
        self.config.wait_policy = policy;
        self
    }

    /// Sets the bounded deadline of one parked [`Tx::retry`] round (the
    /// safety net against waits no commit will ever satisfy).
    ///
    /// Applies to thread-parked rounds only; a suspended
    /// [`TxFuture`](crate::future::TxFuture) is purely wake-driven and does
    /// not consult it. See [`TmConfig::retry_wait`] for the full round
    /// semantics, including how
    /// [`run_with_deadline`](TmRuntime::run_with_deadline) clamps each
    /// round to `min(now + retry_wait, deadline)`.
    #[must_use]
    pub fn retry_wait(mut self, deadline: Duration) -> Self {
        self.config.retry_wait = deadline;
        self
    }

    /// Installs a transaction scheduler (defaults to [`NoopScheduler`]).
    #[must_use]
    pub fn scheduler(mut self, scheduler: impl TxScheduler + 'static) -> Self {
        self.scheduler = Arc::new(scheduler);
        self
    }

    /// Installs an already-shared scheduler, letting the caller keep a typed
    /// handle to it (e.g. to read Shrink's prediction-accuracy counters).
    ///
    /// Share the handle, not the instance between runtimes: thread ids are
    /// numbered per runtime, so one scheduler installed in two runtimes
    /// would alias two threads in its per-thread state and serialization
    /// lock.
    #[must_use]
    pub fn scheduler_arc(mut self, scheduler: Arc<dyn TxScheduler>) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Builds the runtime.
    pub fn build(self) -> TmRuntime {
        let orecs = OrecTable::new(OREC_TABLE_SIZE);
        let retry_waits = StripeWaitlist::new(orecs.len());
        let inner = Arc::new(RuntimeInner {
            id: NEXT_RUNTIME_ID.fetch_add(1, Ordering::Relaxed),
            orecs,
            retry_waits,
            clock: GlobalClock::new(),
            registry: ThreadRegistry::new(),
            scheduler: self.scheduler,
            config: self.config,
        });
        TmRuntime { inner }
    }
}

/// A software transactional memory runtime with a pluggable scheduler.
///
/// Cloning is cheap and shares the underlying memory; the usual pattern is
/// one runtime cloned into every worker thread.
///
/// # Examples
///
/// ```
/// use shrink_stm::{TmRuntime, TVar};
///
/// let rt = TmRuntime::new();
/// let counter = TVar::new(0u64);
///
/// let handles: Vec<_> = (0..4)
///     .map(|_| {
///         let rt = rt.clone();
///         let counter = counter.clone();
///         std::thread::spawn(move || {
///             for _ in 0..100 {
///                 rt.run(|tx| tx.modify(&counter, |v| v + 1));
///             }
///         })
///     })
///     .collect();
/// for h in handles {
///     h.join().unwrap();
/// }
/// assert_eq!(counter.snapshot(), 400);
/// ```
#[derive(Clone)]
pub struct TmRuntime {
    pub(crate) inner: Arc<RuntimeInner>,
}

impl TmRuntime {
    /// Creates a runtime with default configuration (Swiss backend,
    /// preemptive waiting, no scheduler).
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Starts building a customized runtime.
    pub fn builder() -> TmBuilder {
        TmBuilder::new()
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &TmConfig {
        &self.inner.config
    }

    /// This runtime's process-unique id — the value `TVar`s are stamped
    /// with on first transactional access and that
    /// [`TmError::ForeignTVar`] reports for both sides of a cross-runtime
    /// misuse.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The installed scheduler's short name.
    pub fn scheduler_name(&self) -> &str {
        self.inner.scheduler.name()
    }

    /// Registers the calling thread (if needed) and returns its context.
    pub(crate) fn current_ctx(&self) -> Arc<ThreadCtx> {
        THREAD_CTXS.with(|map| {
            let mut map = map.borrow_mut();
            if let Some(reg) = map.get(&self.inner.id) {
                return Arc::clone(&reg.0);
            }
            let ctx = self.inner.registry.register();
            map.insert(self.inner.id, Registration(Arc::clone(&ctx)));
            ctx
        })
    }

    /// Runs `body` as a transaction, retrying until it commits, and returns
    /// its result.
    ///
    /// The body may run many times; it must be idempotent apart from its
    /// transactional effects. Values captured by mutable reference should be
    /// written only on the path that returns `Ok`.
    ///
    /// # Panics
    ///
    /// Propagates panics from `body`, and panics with the
    /// [`TmError::ForeignTVar`] message when the body accesses a `TVar`
    /// bound to a different runtime (use [`run_budgeted`] or
    /// [`run_with_deadline`] to handle that case as a value).
    ///
    /// A panic unwinding out of `run` leaves the runtime fully reusable — a
    /// tested guarantee, not best-effort: the attempt's drop guards release
    /// stripe locks and restore their versions, release any scheduler
    /// serialization taken in `before_start`, reset the scheduler's
    /// per-thread attempt state, and advance the attempt epoch with a final
    /// wake so threads serialized behind the panicking one proceed. The
    /// transaction itself did not commit (its buffered writes are
    /// discarded), and subsequent transactions on any thread — including
    /// the panicking one — run normally.
    ///
    /// [`run_budgeted`]: TmRuntime::run_budgeted
    /// [`run_with_deadline`]: TmRuntime::run_with_deadline
    pub fn run<T>(&self, body: impl FnMut(&mut Tx<'_>) -> TxResult<T>) -> T {
        // Unbounded: the only error left is the foreign `TVar` program bug.
        self.run_arm(u64::MAX, None, body)
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// Runs `body` as a transaction but gives up after `max_attempts`
    /// attempts.
    ///
    /// # Errors
    ///
    /// Returns [`TmError::RetryLimitExceeded`] if no attempt committed, or
    /// [`TmError::ForeignTVar`] if the body accessed a `TVar` bound to a
    /// different runtime.
    pub fn run_budgeted<T>(
        &self,
        max_attempts: u64,
        body: impl FnMut(&mut Tx<'_>) -> TxResult<T>,
    ) -> Result<T, TmError> {
        self.run_arm(max_attempts, None, body)
    }

    /// Runs `body` as a transaction, retrying until it commits or until
    /// `deadline` passes while the transaction is blocked in [`Tx::retry`]
    /// — the time-bounded sibling of [`run_budgeted`](TmRuntime::run_budgeted)
    /// for bodies that *park* rather than conflict: a consumer waiting on a
    /// queue that may stay empty forever, a predicate no writer ever makes
    /// true.
    ///
    /// The deadline bounds **blocking**, not total execution: an attempt
    /// that is actively running is never interrupted. Once the deadline has
    /// passed, a blocked transaction stops parking and the call returns.
    ///
    /// # Errors
    ///
    /// Returns [`TmError::RetryTimeout`] when the transaction blocked with
    /// the deadline passed: the deadline is checked before each park, so a
    /// wake that arrives before the deadline earns one more round, and only
    /// one. Returns [`TmError::ForeignTVar`] for cross-runtime access.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::time::{Duration, Instant};
    /// use shrink_stm::{TmError, TmRuntime, TVar};
    ///
    /// let rt = TmRuntime::new();
    /// let inbox: TVar<Option<u32>> = TVar::new(None);
    /// let got = rt.run_with_deadline(Instant::now() + Duration::from_millis(50), |tx| {
    ///     match tx.read(&inbox)? {
    ///         Some(v) => Ok(v),
    ///         None => tx.retry(), // nobody ever fills the inbox
    ///     }
    /// });
    /// assert!(matches!(got, Err(TmError::RetryTimeout { .. })));
    /// ```
    pub fn run_with_deadline<T>(
        &self,
        deadline: Instant,
        body: impl FnMut(&mut Tx<'_>) -> TxResult<T>,
    ) -> Result<T, TmError> {
        self.run_arm(u64::MAX, Some(deadline), body)
    }

    /// Runs `first` as a transaction, falling back to `second` whenever
    /// `first` ends in [`Tx::retry`] — the top-level form of
    /// [`Tx::or_else`], retrying until the composition commits.
    ///
    /// If *both* branches retry, the thread parks on the union of their
    /// read sets and the composition re-runs when any of it changes.
    ///
    /// # Examples
    ///
    /// ```
    /// use shrink_stm::{TmRuntime, TVar};
    ///
    /// let rt = TmRuntime::new();
    /// let inbox: TVar<Option<u32>> = TVar::new(None);
    /// let got = rt.run_or_else(
    ///     |tx| match tx.read(&inbox)? {
    ///         Some(v) => Ok(v),
    ///         None => tx.retry(),
    ///     },
    ///     |_tx| Ok(0), // default when the inbox is empty
    /// );
    /// assert_eq!(got, 0);
    /// ```
    pub fn run_or_else<T>(
        &self,
        mut first: impl FnMut(&mut Tx<'_>) -> TxResult<T>,
        mut second: impl FnMut(&mut Tx<'_>) -> TxResult<T>,
    ) -> T {
        self.run(move |tx| {
            let first = &mut first;
            let second = &mut second;
            tx.or_else(|tx| first(tx), |tx| second(tx))
        })
    }

    /// Runs `body` as a **lock-free read-only transaction**, restarting it
    /// on snapshot invalidation until it observes a consistent snapshot,
    /// and returns its result.
    ///
    /// The body receives a [`ReadTx`]: a reader that snapshots the global
    /// clock once, reads versioned cells through the lock-free
    /// `ValueCell::peek` path and revalidates per read. Compared to
    /// [`run`](TmRuntime::run) with a non-writing body, `read_only` skips
    /// everything writer-facing:
    ///
    /// * **zero orec writes** — it never locks a stripe, so it can never
    ///   conflict with, delay, kill or be killed by a writer;
    /// * **zero commit ticket** — the global clock is read, never ticked;
    /// * **zero waitlist registration** — there is no retry/blocking
    ///   support; a read-only body that cannot proceed should return its
    ///   "not ready" answer and let the caller decide;
    /// * **invisible to the scheduler** — no
    ///   [`TxScheduler`] hook fires, neither for the transaction nor for
    ///   its internal restarts, so a reader is never serialized and never
    ///   moves a success rate or contention intensity.
    ///
    /// Restarts are accounted as `ro_revalidations` (never as aborts) in
    /// [`stats`](TmRuntime::stats); completions as `ro_commits`.
    ///
    /// The body may run many times; it must be idempotent apart from its
    /// reads. Like [`run`](TmRuntime::run), `read_only` retries without
    /// bound: a body that can never observe a consistent snapshot (an
    /// unconditional [`ReadTx::restart`], or a very long scan under a
    /// saturating writer stream) livelocks here — use
    /// [`read_only_budgeted`](TmRuntime::read_only_budgeted) to cap the
    /// attempts instead.
    ///
    /// # Examples
    ///
    /// ```
    /// use shrink_stm::{TmRuntime, TVar};
    ///
    /// let rt = TmRuntime::new();
    /// let a = TVar::new(3u64);
    /// let b = TVar::new(4u64);
    /// let sum = rt.read_only(|tx| Ok(tx.read(&a)? + tx.read(&b)?));
    /// assert_eq!(sum, 7);
    /// let stats = rt.stats();
    /// assert_eq!(stats.ro_commits, 1);
    /// assert_eq!(stats.commits, 0, "read-only is not a commit");
    /// ```
    pub fn read_only<T>(&self, body: impl FnMut(&mut ReadTx<'_>) -> TxResult<T>) -> T {
        self.read_only_attempts(u64::MAX, body)
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// Runs `body` as a read-only transaction like
    /// [`read_only`](TmRuntime::read_only) but gives up after
    /// `max_attempts` attempts — the read-only analogue of
    /// [`run_budgeted`](TmRuntime::run_budgeted).
    ///
    /// # Errors
    ///
    /// Returns [`TmError::RetryLimitExceeded`] if no attempt observed a
    /// consistent snapshot, or [`TmError::ForeignTVar`] if the body read a
    /// `TVar` bound to a different runtime.
    pub fn read_only_budgeted<T>(
        &self,
        max_attempts: u64,
        body: impl FnMut(&mut ReadTx<'_>) -> TxResult<T>,
    ) -> Result<T, TmError> {
        self.read_only_attempts(max_attempts, body)
    }

    fn read_only_attempts<T>(
        &self,
        max_attempts: u64,
        body: impl FnMut(&mut ReadTx<'_>) -> TxResult<T>,
    ) -> Result<T, TmError> {
        let ctx = self.current_ctx();
        with_logs(|logs| read_only_loop(&self.inner, &ctx, &mut logs.read_log, max_attempts, body))
    }

    /// The one-arm wait loop behind `run` and its siblings, booking its
    /// parks into this runtime's `RetryStats`.
    fn run_arm<T>(
        &self,
        max_attempts: u64,
        deadline: Option<Instant>,
        body: impl FnMut(&mut Tx<'_>) -> TxResult<T>,
    ) -> Result<T, TmError> {
        let waits = &self.inner.retry_waits.waits;
        wait_rounds(&mut [(self, body)], max_attempts, deadline, None, waits)
            .map(|(_, value)| value)
    }

    /// Takes a statistics snapshot over all registered threads.
    pub fn stats(&self) -> TmStats {
        TmStats::from_threads(self.inner.registry.iter().map(ThreadCtx::stats).collect())
    }

    /// Wait-op counters of the [`Tx::retry`] wake path: how blocked
    /// transactions waited (parked, woken, timed out) and what the commit
    /// side paid (wakes issued, wasted wakes). The parked path has no
    /// yield-poll counterpart at all — these counters are the proof.
    pub fn retry_stats(&self) -> RetryStats {
        self.inner.retry_waits.stats()
    }

    /// Number of parkers currently registered on the retry waitlist —
    /// thread and task parkers combined, counted once per watched bucket.
    ///
    /// Transient non-zero values are normal while transactions block; the
    /// count returns to zero once every blocked transaction has been woken,
    /// timed out, or (for futures) dropped. Tests use it to prove that a
    /// cancelled [`TxFuture`](crate::future::TxFuture) leaked no slot.
    pub fn retry_waiters(&self) -> u64 {
        self.inner.retry_waits.registered()
    }
}

impl Default for TmRuntime {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs `body` as a transaction on `rt`, retrying until it commits — the
/// Haskell-STM spelling of [`TmRuntime::run`], for bodies written in the
/// composable [`Tx::retry`] / [`Tx::or_else`] style.
///
/// # Examples
///
/// ```
/// use shrink_stm::{atomically, TmRuntime, TVar};
///
/// let rt = TmRuntime::new();
/// let v = TVar::new(41u32);
/// atomically(&rt, |tx| tx.modify(&v, |x| x + 1));
/// assert_eq!(v.snapshot(), 42);
/// ```
pub fn atomically<T>(rt: &TmRuntime, body: impl FnMut(&mut Tx<'_>) -> TxResult<T>) -> T {
    rt.run(body)
}

/// Drains deferred epoch garbage at a quiescent point.
///
/// Boxed `TVar` values replaced at commit are not freed immediately — their
/// destruction is deferred until every reader pinned at the time of
/// replacement has moved on, and then falls to the thread that replaced
/// them (see DESIGN.md §7). Reclamation normally runs piggybacked on the
/// attempt and commit paths; call this from a thread that holds no
/// transaction when you need the backlog drained *now* — after joining
/// worker threads, between benchmark phases, or in tests asserting exact
/// drop counts. The epoch collector is process-global, not per-runtime.
///
/// Each call seals the calling thread's deferral bag and attempts a bounded
/// number of epoch advances; when no thread is pinned, everything retired
/// before the call by this thread or by threads that have since exited has
/// been dropped by the time it returns. Out of its reach is what a thread
/// that is still alive but idle retired last (a few hundred values at
/// most): that thread frees it when it next runs a transaction, calls
/// `quiesce` itself, or exits.
pub fn quiesce() {
    // Two epoch advances make any previously sealed bag eligible; the
    // spare rounds cover advances lost to a concurrent pin.
    for _ in 0..4 {
        crossbeam::epoch::flush();
    }
}

impl fmt::Debug for TmRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TmRuntime")
            .field("id", &self.inner.id)
            .field("backend", &self.inner.config.backend)
            .field("wait_policy", &self.inner.config.wait_policy)
            .field("scheduler", &self.inner.scheduler.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tvar::TVar;

    #[test]
    fn single_threaded_counter() {
        let rt = TmRuntime::new();
        let v = TVar::new(0u64);
        for _ in 0..100 {
            rt.run(|tx| tx.modify(&v, |x| x + 1));
        }
        assert_eq!(v.snapshot(), 100);
        let stats = rt.stats();
        assert_eq!(stats.commits, 100);
        assert_eq!(stats.aborts, 0);
    }

    #[test]
    fn read_own_write() {
        let rt = TmRuntime::new();
        let v = TVar::new(1u64);
        let seen = rt.run(|tx| {
            tx.write(&v, 7)?;
            tx.read(&v)
        });
        assert_eq!(seen, 7);
        assert_eq!(v.snapshot(), 7);
    }

    #[test]
    fn writes_are_buffered_until_commit() {
        let rt = TmRuntime::new();
        let v = TVar::new(1u64);
        rt.run(|tx| {
            tx.write(&v, 99)?;
            // Not yet installed: snapshot still sees the old value.
            assert_eq!(v.snapshot(), 1);
            Ok(())
        });
        assert_eq!(v.snapshot(), 99);
    }

    #[test]
    fn user_restart_retries() {
        let rt = TmRuntime::new();
        let v = TVar::new(0u32);
        let mut first = true;
        rt.run(|tx| {
            if first {
                first = false;
                return tx.restart();
            }
            tx.write(&v, 5)
        });
        assert_eq!(v.snapshot(), 5);
        assert_eq!(rt.stats().aborts, 1);
    }

    #[test]
    fn budgeted_run_gives_up() {
        let rt = TmRuntime::new();
        let result: Result<(), _> = rt.run_budgeted(3, |tx| tx.restart());
        assert_eq!(result, Err(TmError::RetryLimitExceeded { attempts: 3 }));
    }

    #[test]
    fn budgeted_read_only_gives_up() {
        let rt = TmRuntime::new();
        let result: Result<(), _> = rt.read_only_budgeted(3, |tx| tx.restart());
        assert_eq!(result, Err(TmError::RetryLimitExceeded { attempts: 3 }));
        let stats = rt.stats();
        assert_eq!(stats.aborts, 0, "read-only restarts are not aborts");
        assert_eq!(stats.ro_commits, 0);
    }

    #[test]
    fn budgeted_read_only_succeeds_within_budget() {
        let rt = TmRuntime::new();
        let v = TVar::new(11u64);
        let mut first = true;
        let got = rt.read_only_budgeted(2, |tx| {
            if first {
                first = false;
                return tx.restart();
            }
            tx.read(&v)
        });
        assert_eq!(got, Ok(11));
        assert_eq!(rt.stats().ro_commits, 1);
    }

    #[test]
    fn retry_blocks_until_a_commit_changes_the_read_set() {
        let rt = TmRuntime::new();
        let v = TVar::new(0u64);
        let consumer = {
            let rt = rt.clone();
            let v = v.clone();
            std::thread::spawn(move || {
                rt.run(|tx| {
                    let x = tx.read(&v)?;
                    if x == 0 {
                        return tx.retry();
                    }
                    Ok(x)
                })
            })
        };
        // Deterministic handshake: wait until the consumer is provably
        // parked (a stats-visible retry round), then publish.
        while rt.retry_stats().parked_waits == 0 {
            std::thread::yield_now();
        }
        rt.run(|tx| tx.write(&v, 7));
        assert_eq!(consumer.join().unwrap(), 7);
        let stats = rt.stats();
        assert!(stats.retry_waits >= 1, "the wait rounds are accounted");
        assert_eq!(
            stats.aborts, 0,
            "a deliberate retry must not count as a conflict abort"
        );
        let wait_stats = rt.retry_stats();
        assert!(wait_stats.parked_waits >= 1);
        assert!(
            wait_stats.woken >= 1,
            "the producer's commit must wake the parked consumer: {wait_stats:?}"
        );
    }

    #[test]
    fn budgeted_run_bounds_a_permanently_blocked_retry() {
        let rt = TmRuntime::builder()
            .retry_wait(std::time::Duration::from_millis(1))
            .build();
        let v = TVar::new(0u64);
        let result: Result<(), _> = rt.run_budgeted(3, |tx| {
            let _ = tx.read(&v)?;
            tx.retry()
        });
        assert_eq!(result, Err(TmError::RetryLimitExceeded { attempts: 3 }));
    }

    #[test]
    fn run_or_else_takes_the_fallback_when_first_retries() {
        let rt = TmRuntime::new();
        let a: TVar<Option<u32>> = TVar::new(None);
        let b: TVar<Option<u32>> = TVar::new(Some(5));
        let got = rt.run_or_else(
            |tx| match tx.read(&a)? {
                Some(v) => Ok(v),
                None => tx.retry(),
            },
            |tx| match tx.read(&b)? {
                Some(v) => Ok(v),
                None => tx.retry(),
            },
        );
        assert_eq!(got, 5);
        assert_eq!(rt.stats().retry_waits, 0, "or_else caught the retry");
    }

    #[test]
    fn atomically_is_run() {
        let rt = TmRuntime::new();
        let v = TVar::new(1u32);
        let got = atomically(&rt, |tx| tx.modify(&v, |x| x * 2).map(|()| 0));
        assert_eq!(got, 0);
        assert_eq!(v.snapshot(), 2);
    }

    #[test]
    fn retry_releases_branch_locks_before_parking() {
        // A transaction that wrote (acquiring a stripe) and then retried
        // must not park while holding the stripe: another thread writing
        // the same variable is exactly what will wake it.
        let rt = TmRuntime::builder()
            .retry_wait(std::time::Duration::from_secs(30))
            .build();
        let gate = TVar::new(false);
        let target = TVar::new(0u64);
        let blocked = {
            let rt = rt.clone();
            let gate = gate.clone();
            let target = target.clone();
            std::thread::spawn(move || {
                rt.run(|tx| {
                    tx.write(&target, 99)?;
                    if !tx.read(&gate)? {
                        return tx.retry();
                    }
                    Ok(())
                })
            })
        };
        while rt.retry_stats().parked_waits == 0 {
            std::thread::yield_now();
        }
        // The stripe must be free: this write succeeds without conflict and
        // (also writing `gate`'s stripe set) wakes the parked thread.
        rt.run(|tx| {
            tx.write(&target, 1)?;
            tx.write(&gate, true)
        });
        blocked.join().unwrap();
        assert_eq!(target.snapshot(), 99, "retried write re-ran and won");
    }

    #[test]
    fn multithreaded_transfer_conserves_money_swiss() {
        transfer_conserves_money(BackendKind::Swiss, WaitPolicy::Preemptive);
    }

    #[test]
    fn multithreaded_transfer_conserves_money_tiny() {
        transfer_conserves_money(BackendKind::Tiny, WaitPolicy::Preemptive);
    }

    fn transfer_conserves_money(backend: BackendKind, wait: WaitPolicy) {
        const ACCOUNTS: usize = 8;
        const THREADS: usize = 4;
        const TRANSFERS: usize = 500;
        let rt = TmRuntime::builder()
            .backend(backend)
            .wait_policy(wait)
            .build();
        let accounts: Vec<TVar<i64>> = (0..ACCOUNTS).map(|_| TVar::new(1000)).collect();
        let accounts = Arc::new(accounts);
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let rt = rt.clone();
                let accounts = Arc::clone(&accounts);
                std::thread::spawn(move || {
                    let mut s = t as u64 + 1;
                    for _ in 0..TRANSFERS {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let from = (s >> 33) as usize % ACCOUNTS;
                        let to = (s >> 17) as usize % ACCOUNTS;
                        if from == to {
                            continue;
                        }
                        rt.run(|tx| {
                            let a = tx.read(&accounts[from])?;
                            let b = tx.read(&accounts[to])?;
                            tx.write(&accounts[from], a - 1)?;
                            tx.write(&accounts[to], b + 1)
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: i64 = accounts.iter().map(|a| a.snapshot()).sum();
        assert_eq!(total, ACCOUNTS as i64 * 1000, "money must be conserved");
    }

    #[test]
    fn read_only_observes_committed_state_without_orec_writes() {
        let rt = TmRuntime::new();
        let vars: Vec<TVar<u64>> = (0..8).map(TVar::new).collect();
        let sum = rt.read_only(|tx| {
            let mut total = 0;
            for v in &vars {
                total += tx.read(v)?;
            }
            Ok(total)
        });
        assert_eq!(sum, 28);
        let stats = rt.stats();
        assert_eq!(stats.ro_commits, 1);
        assert_eq!(stats.ro_reads, 8);
        assert_eq!(stats.commits, 0, "no commit ticket was taken");
        assert_eq!(stats.aborts, 0);
        assert_eq!(stats.orec_acquires, 0, "lock-free: zero orec writes");
        assert_eq!(
            rt.retry_stats().parked_waits,
            0,
            "zero waitlist registration"
        );
    }

    #[test]
    fn read_only_interleaves_with_writers_on_one_thread() {
        let rt = TmRuntime::new();
        let v = TVar::new(0u64);
        for round in 1..=10u64 {
            rt.run(|tx| tx.write(&v, round));
            let seen = rt.read_only(|tx| tx.read(&v));
            assert_eq!(seen, round);
        }
        let stats = rt.stats();
        assert_eq!(stats.commits, 10);
        assert_eq!(stats.ro_commits, 10);
    }

    #[test]
    fn read_only_restart_is_a_revalidation_not_an_abort() {
        let rt = TmRuntime::new();
        let v = TVar::new(7u64);
        let mut first = true;
        let got = rt.read_only(|tx| {
            if first {
                first = false;
                return tx.restart();
            }
            tx.read(&v)
        });
        assert_eq!(got, 7);
        let stats = rt.stats();
        assert_eq!(stats.ro_commits, 1);
        assert!(stats.ro_revalidations >= 1, "the restart is accounted");
        assert_eq!(stats.aborts, 0, "restarts never masquerade as conflicts");
    }

    #[test]
    fn read_only_reads_through_a_held_write_lock() {
        // A writer that holds the stripe but has not begun committing must
        // not delay a read-only reader: buffered writes leave the committed
        // value in the cell. Exercised on both backends — the read-only
        // path reads through non-committing locks regardless of backend.
        for backend in [BackendKind::Swiss, BackendKind::Tiny] {
            let rt = TmRuntime::builder().backend(backend).build();
            let v = TVar::new(1u64);
            rt.run(|tx| {
                tx.write(&v, 2)?;
                // Stripe is locked by this thread right now; the read-only
                // snapshot still sees the committed value instantly.
                let seen = rt.read_only(|ro| ro.read(&v));
                assert_eq!(seen, 1, "buffered write must not leak ({backend})");
                Ok(())
            });
            assert_eq!(v.snapshot(), 2);
            assert_eq!(rt.stats().ro_commits, 1);
        }
    }

    #[test]
    fn stats_count_both_threads() {
        let rt = TmRuntime::new();
        let v = TVar::new(0u64);
        let t = {
            let rt = rt.clone();
            let v = v.clone();
            std::thread::spawn(move || rt.run(|tx| tx.modify(&v, |x| x + 1)))
        };
        t.join().unwrap();
        rt.run(|tx| tx.modify(&v, |x| x + 1));
        let stats = rt.stats();
        assert_eq!(stats.commits, 2);
        assert_eq!(stats.per_thread.len(), 2);
    }

    #[test]
    fn panicking_body_releases_locks() {
        let rt = TmRuntime::new();
        let v = TVar::new(0u64);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(|tx| {
                tx.write(&v, 1)?;
                panic!("boom");
                #[allow(unreachable_code)]
                Ok(())
            })
        }));
        assert!(result.is_err());
        // The stripe must be free again: another transaction can write it.
        rt.run(|tx| tx.write(&v, 2));
        assert_eq!(v.snapshot(), 2);
    }

    #[test]
    fn exited_threads_are_retired_from_the_epoch_oracle() {
        use crate::epoch::{AttemptEpochs, EpochWaitOutcome};
        use crate::thread::ThreadId;

        let rt = TmRuntime::new();
        let v = TVar::new(0u64);
        // Main thread registers first → id 1; the worker gets id 2.
        rt.run(|tx| tx.modify(&v, |x| x + 1));
        let worker = {
            let rt = rt.clone();
            let v = v.clone();
            std::thread::spawn(move || rt.run(|tx| tx.modify(&v, |x| x + 1)))
        };
        worker.join().unwrap();
        let worker_id = ThreadId::from_u16(2);
        // The joined worker's registration guard has retired it: the oracle
        // reports it absent and refuses to wait on it.
        assert_eq!(rt.inner.registry.epoch_of(worker_id), None);
        let outcome = rt.inner.registry.wait_epoch_change(
            worker_id,
            0,
            std::time::Instant::now() + std::time::Duration::from_secs(5),
        );
        assert_eq!(outcome, EpochWaitOutcome::Absent, "must not stall");
        // The live main thread still has an epoch (one finished attempt).
        assert_eq!(rt.inner.registry.epoch_of(ThreadId::from_u16(1)), Some(1));
    }

    #[test]
    fn foreign_tvar_access_is_a_typed_error() {
        let rt1 = TmRuntime::new();
        let rt2 = TmRuntime::new();
        let v = TVar::new(0u64);
        // First transactional access binds the TVar to rt1.
        rt1.run(|tx| tx.write(&v, 1));
        assert_eq!(v.owner_runtime(), Some(rt1.id()));
        // Reads and writes through another runtime are refused, not
        // silently mis-synchronized.
        let read: Result<u64, _> = rt2.run_budgeted(8, |tx| tx.read(&v));
        match read {
            Err(TmError::ForeignTVar {
                var,
                owner,
                runtime,
            }) => {
                assert_eq!(var, v.id());
                assert_eq!(owner, rt1.id());
                assert_eq!(runtime, rt2.id());
            }
            other => panic!("expected ForeignTVar, got {other:?}"),
        }
        let write: Result<(), _> = rt2.run_budgeted(8, |tx| tx.write(&v, 9));
        assert!(matches!(write, Err(TmError::ForeignTVar { .. })));
        let ro: Result<u64, _> = rt2.read_only_budgeted(8, |tx| tx.read(&v));
        assert!(matches!(ro, Err(TmError::ForeignTVar { .. })));
        // The owning runtime is unaffected and keeps working.
        rt1.run(|tx| tx.modify(&v, |x| x + 1));
        assert_eq!(v.snapshot(), 2);
        assert_eq!(rt2.stats().commits, 0, "rt2 never committed");
        // Non-transactional snapshots stay runtime-free.
        assert_eq!(v.snapshot(), 2);
    }

    #[test]
    fn foreign_tvar_does_not_burn_the_retry_budget() {
        // A foreign access is non-retryable: it must return on the first
        // attempt, not spin the budget down.
        let rt1 = TmRuntime::new();
        let rt2 = TmRuntime::new();
        let v = TVar::new(0u64);
        rt1.run(|tx| tx.write(&v, 1));
        let _: Result<u64, _> = rt2.run_budgeted(1_000_000, |tx| tx.read(&v));
        assert_eq!(rt2.stats().aborts, 0, "foreign access is not an abort");
    }

    #[test]
    fn run_with_deadline_times_out_a_blocked_retry() {
        let rt = TmRuntime::builder()
            .retry_wait(std::time::Duration::from_secs(30))
            .build();
        let v = TVar::new(0u64);
        let start = std::time::Instant::now();
        let deadline = start + std::time::Duration::from_millis(50);
        let got: Result<u64, _> = rt.run_with_deadline(deadline, |tx| {
            let x = tx.read(&v)?;
            if x == 0 {
                return tx.retry();
            }
            Ok(x)
        });
        match got {
            Err(TmError::RetryTimeout { waited }) => {
                assert!(waited >= std::time::Duration::from_millis(50));
            }
            other => panic!("expected RetryTimeout, got {other:?}"),
        }
        // The deadline clamps the 30s retry_wait round: we did not sleep
        // anywhere near the configured round length.
        assert!(start.elapsed() < std::time::Duration::from_secs(10));
    }

    #[test]
    fn run_with_deadline_returns_a_value_that_arrives_in_time() {
        let rt = TmRuntime::new();
        let v = TVar::new(0u64);
        let producer = {
            let rt = rt.clone();
            let v = v.clone();
            std::thread::spawn(move || {
                while rt.retry_stats().parked_waits == 0 {
                    std::thread::yield_now();
                }
                rt.run(|tx| tx.write(&v, 7));
            })
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let got = rt.run_with_deadline(deadline, |tx| {
            let x = tx.read(&v)?;
            if x == 0 {
                return tx.retry();
            }
            Ok(x)
        });
        producer.join().unwrap();
        assert_eq!(got, Ok(7));
    }

    #[test]
    fn runtime_is_reusable_after_a_panicking_body() {
        // The tested guarantee that replaced the old "fatal for the
        // runtime" caveat: after a panic unwinds out of `run`, the same
        // runtime keeps committing on the same thread, the epoch advanced
        // (nobody stalls serialized behind the dead attempt), and stats
        // keep flowing.
        use crate::epoch::AttemptEpochs;
        use crate::thread::ThreadId;

        let rt = TmRuntime::new();
        let v = TVar::new(0u64);
        let s = TVar::new(String::from("kept"));
        rt.run(|tx| tx.modify(&v, |x| x + 1));
        let epoch_before = rt.inner.registry.epoch_of(ThreadId::from_u16(1));
        for _ in 0..3 {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.run(|tx| {
                    tx.write(&v, 99)?;
                    tx.write(&s, String::from("lost"))?;
                    panic!("boom");
                    #[allow(unreachable_code)]
                    Ok(())
                })
            }));
            assert!(result.is_err());
        }
        let epoch_after = rt.inner.registry.epoch_of(ThreadId::from_u16(1));
        assert!(
            epoch_after > epoch_before,
            "abandoned attempts must advance the epoch: {epoch_before:?} -> {epoch_after:?}"
        );
        rt.run(|tx| {
            // The panicking attempts' logs were dropped, not handed on.
            assert_eq!((tx.read_count(), tx.write_count()), (0, 0));
            assert_eq!(tx.read(&s)?, "kept");
            tx.modify(&v, |x| x + 1)
        });
        assert_eq!(v.snapshot(), 2, "panicked writes rolled back");
        assert_eq!(s.snapshot(), "kept");
        assert_eq!(rt.stats().commits, 2);
    }

    #[test]
    fn transactions_nested_on_one_thread_keep_their_own_logs() {
        // A body that runs a transaction on another runtime, and a
        // read-only transaction inside a read-write one: each nested
        // transaction gets logs of its own.
        let rt_a = TmRuntime::new();
        let rt_b = TmRuntime::new();
        let a = TVar::new(0u64);
        let b = TVar::new(String::new());
        rt_a.run(|tx| {
            tx.write(&a, 1)?;
            assert_eq!(tx.read(&a)?, 1);
            rt_b.run(|inner| {
                assert_eq!((inner.read_count(), inner.write_count()), (0, 0));
                inner.write(&b, String::from("b"))?;
                assert_eq!(inner.read(&b)?, "b");
                Ok(())
            });
            let seen = rt_b.read_only(|ro| {
                assert_eq!(ro.read_count(), 0);
                ro.read(&b)
            });
            assert_eq!(seen, "b");
            assert_eq!((tx.read_count(), tx.write_count()), (1, 1));
            assert_eq!(tx.read(&a)?, 1);
            Ok(())
        });
        assert_eq!((a.snapshot(), b.snapshot().as_str()), (1, "b"));
        assert_eq!((rt_a.stats().commits, rt_b.stats().commits), (1, 1));
        rt_a.run(|tx| {
            assert_eq!((tx.read_count(), tx.write_count()), (0, 0));
            Ok(())
        });
    }
}
