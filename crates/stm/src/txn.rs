//! The transaction engine: read/write protocol, validation, commit and
//! rollback for both backends.
//!
//! Common skeleton (TL2/TinySTM family):
//!
//! * transactions snapshot the global clock at start (`start_ts`);
//! * reads validate the guarding orec's version against `start_ts`,
//!   *extending* the snapshot (revalidating the whole read log against the
//!   current clock) when they encounter newer data;
//! * writes acquire the orec eagerly — making the write **visible** to every
//!   other thread, as Shrink requires — and buffer the value in a write log;
//! * commit stamps a fresh clock value, validates the read log once more and
//!   installs buffered values.
//!
//! The logs are not the transaction's own: a [`Tx`] or [`ReadTx`] works on
//! the thread's `TxLogs`, lent by reference for one attempt and taken
//! back cleared (see `log.rs`), so a steady-state transaction allocates
//! nothing for them. The write log is unboxed — each entry holds its value
//! in the representation its cell stores — and is indexed by an
//! open-addressed table that a read probes only once something was
//! written. Which stripes the attempt owns is read from the orec word
//! itself (`locked_by(me)`); `owned_order` is only the release list.
//!
//! Value loads (`ValueCell::peek`) are lock-free on both storage paths
//! (inline seqlock or pointer load; see DESIGN.md §7). A boxed load needs
//! the thread pinned, and an attempt pins once, at `begin`, for all of its
//! reads: the guard is a field of the attempt and drops with it. So the
//! per-read cost on top of the load is exactly the orec snapshot/validate
//! pair below — the overhead budget the paper's ~13 % Shrink figure rides
//! on. Every read is a [`read_with`](Tx::read_with): the caller's closure
//! runs once, on the value the read validated, and [`Tx::read`] is the
//! closure `T::clone`.
//!
//! Backend differences (see [`BackendKind`]):
//!
//! * **Swiss** — readers read *through* a write lock until the owner begins
//!   committing (write/read conflicts are resolved lazily, at commit), and
//!   write/write conflicts go through a two-phase contention manager: timid
//!   (self-abort) while the transaction is small, greedy (kill the lighter
//!   transaction) afterwards.
//! * **Tiny** — readers and writers busy-wait on locked stripes with a
//!   bounded spin budget and abort when it is exhausted (encounter-time
//!   locking with suicide resolution).

use std::fmt;
use std::mem;

use crossbeam::epoch::{self, Guard};

use crate::backoff::pause;
use crate::config::BackendKind;
use crate::error::{Abort, AbortReason, TmError, TxResult};
use crate::faults::FaultSite;
use crate::log::{Checkpoint, ReadEntry, TxLogs, WriteEntry};
use crate::orec::OrecSnapshot;
use crate::runtime::RuntimeInner;
use crate::thread::{bump, ThreadCtx, ThreadId};
use crate::tvar::{TVar, TVarInner, TxValue};
use crate::varid::VarId;

/// Spins a reader grants a committing writer — and the snapshot-moved and
/// post-extension re-reads — before giving up on the read.
const READ_SPIN_BUDGET: u32 = 512;
/// Spins a Tiny-backend transaction waits on a locked stripe before
/// aborting itself (TinySTM's busy-wait window, then suicide).
const LOCK_SPIN_BUDGET: u32 = 2048;
/// Accesses below which a Swiss transaction loses write/write conflicts
/// without a fight (the "timid" first phase of the two-phase manager).
const CM_TIMID_THRESHOLD: u64 = 32;
/// Spins a Swiss transaction waits for a killed victim to release its
/// locks before giving up and aborting itself.
const KILL_WAIT_BUDGET: u32 = 4096;

/// Binds `inner` to runtime `rt` on first transactional use, or refuses the
/// access when it is already bound to a different one (orec striping and
/// retry waitlists are per-runtime). The full [`TmError::ForeignTVar`] is
/// left in `refusal` for the attempt step; the [`Abort`] itself only
/// carries the reason.
#[inline]
fn check_owner<T>(
    rt: &RuntimeInner,
    inner: &TVarInner<T>,
    refusal: &mut Option<TmError>,
) -> TxResult<()> {
    inner.bind_owner(rt.id).map_err(|owner| {
        *refusal = Some(TmError::ForeignTVar {
            var: inner.id,
            owner,
            runtime: rt.id,
        });
        Abort::new(AbortReason::ForeignTVar)
    })
}

/// An in-flight transaction attempt.
///
/// Handed to the body closure by [`TmRuntime::run`](crate::TmRuntime::run);
/// all transactional operations return [`TxResult`] so the body can
/// propagate aborts with `?`.
pub struct Tx<'rt> {
    rt: &'rt RuntimeInner,
    ctx: &'rt ThreadCtx,
    me: ThreadId,
    start_ts: u64,
    /// The thread's logs, lent for this attempt (see `log.rs`).
    logs: &'rt mut TxLogs,
    /// The refused access, once the body touched a `TVar` bound to another
    /// runtime (the abort was [`AbortReason::ForeignTVar`]).
    pub(crate) refusal: Option<TmError>,
    finished: bool,
    /// The attempt's epoch pin: every boxed value its reads load stays
    /// allocated until the attempt is dropped.
    pin: Guard,
}

impl<'rt> Tx<'rt> {
    /// Starts an attempt on `logs`, which arrive empty and are cleared by
    /// their lender once the attempt is over.
    pub(crate) fn begin(rt: &'rt RuntimeInner, ctx: &'rt ThreadCtx, logs: &'rt mut TxLogs) -> Self {
        debug_assert!(logs.write_log.is_empty() && logs.read_vars.is_empty());
        ctx.reset_accesses();
        // Drop any kill request aimed at a previous attempt.
        let _ = ctx.take_kill_request();
        Tx {
            rt,
            ctx,
            me: ctx.id(),
            pin: epoch::pin(),
            start_ts: rt.clock.now(),
            logs,
            refusal: None,
            finished: false,
        }
    }

    /// The id of the thread running this transaction.
    pub fn thread(&self) -> ThreadId {
        self.me
    }

    /// Number of dynamic reads so far.
    pub fn read_count(&self) -> usize {
        self.logs.read_vars.len()
    }

    /// Number of distinct variables written so far.
    pub fn write_count(&self) -> usize {
        self.logs.write_vars.len()
    }

    /// The snapshot timestamp the attempt currently validates against.
    pub fn start_timestamp(&self) -> u64 {
        self.start_ts
    }

    /// Requests an abort-and-retry of this attempt.
    ///
    /// # Errors
    ///
    /// Always returns `Err` with [`AbortReason::UserRestart`]; intended to be
    /// propagated with `?` or returned directly from the body.
    pub fn restart<T>(&self) -> TxResult<T> {
        Err(Abort::new(AbortReason::UserRestart))
    }

    /// Blocks this transaction until its read set changes.
    ///
    /// The Haskell-STM `retry` operator: the body declares that the current
    /// snapshot does not let it proceed (a queue is empty, a predicate is
    /// false). Inside [`Tx::or_else`] the nearest enclosing `or_else`
    /// catches it and runs the alternative branch; otherwise the runtime
    /// rolls the attempt back, releases every stripe lock, and **parks**
    /// the thread on the per-stripe commit event counts of everything the
    /// attempt read — it sleeps in the kernel until a committer overwrites
    /// one of those stripes (or a bounded deadline revalidates), never
    /// yield-polling (DESIGN.md §9).
    ///
    /// A `retry` with an *empty* read set can never be woken by a commit;
    /// it blocks in bounded [`retry_wait`](crate::TmConfig::retry_wait)
    /// rounds instead of forever, but is almost certainly a bug in the
    /// body.
    ///
    /// # Errors
    ///
    /// Always returns `Err` with [`AbortReason::Retry`]; intended to be
    /// propagated with `?` or returned directly from the body.
    ///
    /// # Examples
    ///
    /// ```
    /// use shrink_stm::{TmRuntime, TVar, TxResult};
    ///
    /// let rt = TmRuntime::new();
    /// let ready = TVar::new(false);
    /// let flag = ready.clone();
    /// let setter = {
    ///     let rt = rt.clone();
    ///     std::thread::spawn(move || {
    ///         std::thread::sleep(std::time::Duration::from_millis(5));
    ///         rt.run(|tx| tx.write(&flag, true));
    ///     })
    /// };
    /// // Blocks (parked) until the setter's commit flips the flag.
    /// rt.run(|tx| {
    ///     if !tx.read(&ready)? {
    ///         return tx.retry();
    ///     }
    ///     Ok(())
    /// });
    /// setter.join().unwrap();
    /// ```
    pub fn retry<T>(&self) -> TxResult<T> {
        Err(Abort::retry())
    }

    /// Runs `first`; if it ends in [`Tx::retry`], rolls back *only its
    /// writes* and runs `second` instead.
    ///
    /// The Haskell-STM `orElse` combinator, and the reason `retry` composes:
    /// alternatives nest arbitrarily (`or_else` inside either branch works)
    /// and the whole composition is still one atomic transaction. Semantics:
    ///
    /// * Writes made by a retried `first` never become visible — buffered
    ///   entries are dropped, overwritten pre-branch entries restored, and
    ///   stripes first locked inside the branch released.
    /// * Reads made by `first` stay in the read set: the transaction
    ///   validates against them, and if `second` also retries, the thread
    ///   parks on the **union** of both branches' read sets (either branch
    ///   becoming runnable wakes it).
    /// * Any non-`retry` abort (conflict, validation, kill) propagates and
    ///   restarts the whole transaction, exactly as outside `or_else`.
    ///
    /// # Errors
    ///
    /// Propagates `second`'s result when `first` retries, and any
    /// non-`retry` abort of either branch.
    ///
    /// # Examples
    ///
    /// ```
    /// use shrink_stm::{TmRuntime, TVar, TxResult};
    ///
    /// let rt = TmRuntime::new();
    /// let primary: TVar<Option<u32>> = TVar::new(None);
    /// let fallback: TVar<Option<u32>> = TVar::new(Some(9));
    /// let take = |v: &TVar<Option<u32>>| {
    ///     let v = v.clone();
    ///     move |tx: &mut shrink_stm::Tx<'_>| match tx.read(&v)? {
    ///         Some(x) => {
    ///             tx.write(&v, None)?;
    ///             Ok(x)
    ///         }
    ///         None => tx.retry(),
    ///     }
    /// };
    /// let got = rt.run(|tx| tx.or_else(take(&primary), take(&fallback)));
    /// assert_eq!(got, 9);
    /// ```
    pub fn or_else<T>(
        &mut self,
        first: impl FnOnce(&mut Tx<'rt>) -> TxResult<T>,
        second: impl FnOnce(&mut Tx<'rt>) -> TxResult<T>,
    ) -> TxResult<T> {
        self.logs.checkpoints.push(Checkpoint {
            writes: self.logs.write_log.len(),
            owned: self.logs.owned_order.len(),
            undo: self.logs.undo.len(),
        });
        let result = first(self);
        let cp = self
            .logs
            .checkpoints
            .pop()
            .expect("checkpoint pushed above");
        match result {
            Err(abort) if abort.reason() == AbortReason::Retry => {
                self.rollback_to(cp);
                second(self)
            }
            other => {
                // The branch's undo records stay for an enclosing
                // checkpoint; with none left they can never be used.
                if self.logs.checkpoints.is_empty() {
                    self.logs.undo.clear();
                }
                other
            }
        }
    }

    /// Restores the attempt to `cp`: restore overwritten pre-branch
    /// entries, truncate the write log, release branch-acquired stripes.
    /// Reads are kept (see [`Checkpoint`]).
    fn rollback_to(&mut self, cp: Checkpoint) {
        let logs = &mut *self.logs;
        debug_assert_eq!(logs.write_log.len(), logs.write_vars.len());
        // Newest record first: when an entry was saved more than once
        // (by this branch and by a completed inner one), the oldest value
        // is restored last and wins.
        for (i, saved) in logs.undo.drain(cp.undo..).rev() {
            logs.write_log[i] = saved;
        }
        if logs.write_log.len() > cp.writes {
            logs.write_log.truncate(cp.writes);
            logs.write_vars.truncate(cp.writes);
            logs.write_index.rebuild(&logs.write_vars);
        }
        // Stripes first locked inside the branch guard only branch-local
        // first-writes (a pre-branch write would have acquired its stripe
        // at that earlier write), so they are safe to hand back.
        for idx in logs.owned_order.drain(cp.owned..) {
            self.rt.orecs.at(idx).unlock_abort(self.me);
        }
    }

    /// Builds a conflict abort against `owner`, stamping the owner's
    /// attempt epoch **only if the conflict is still live** (the owner
    /// still holds stripe `idx` after the sample). A live sample identifies
    /// the conflicting attempt exactly — the epoch only advances when that
    /// attempt ends — so a scheduler waiting on it serializes behind the
    /// right transaction. If the owner already released the stripe, its
    /// conflicting attempt is over and there is nothing to wait for: no
    /// epoch is attached and schedule-after policies skip the wait.
    fn conflict(&self, reason: AbortReason, var: VarId, idx: usize, owner: ThreadId) -> Abort {
        let abort = Abort::on_conflict(reason, var, owner);
        let Some(enemy) = self.rt.registry.get(owner) else {
            return abort;
        };
        let epoch = enemy.attempt_epoch();
        let snap = self.rt.orecs.at(idx).snapshot();
        if snap.locked_by_other(self.me) && snap.owner() == owner {
            abort.with_enemy_epoch(epoch)
        } else {
            abort
        }
    }

    #[inline]
    fn check_kill(&self) -> TxResult<()> {
        if self.ctx.kill_pending() {
            let _ = self.ctx.take_kill_request();
            Err(Abort::new(AbortReason::Killed))
        } else {
            Ok(())
        }
    }

    /// Transactionally reads `tvar`: a clone of the value.
    ///
    /// # Errors
    ///
    /// Aborts (for the retry loop to handle) on validation failure, lock
    /// wait timeout, or a contention-manager kill.
    pub fn read<T: TxValue>(&mut self, tvar: &TVar<T>) -> TxResult<T> {
        self.read_with(tvar, T::clone)
    }

    /// Transactionally reads `tvar` and runs `f` on the value in place,
    /// without cloning it.
    ///
    /// `f` runs exactly once, on the value the read validated: after the
    /// orec confirm and after any timestamp extension and re-load — or on
    /// the buffered value, when this attempt wrote `tvar` before. A read
    /// that aborts runs it not at all.
    ///
    /// # Errors
    ///
    /// As [`read`](Tx::read).
    ///
    /// # Examples
    ///
    /// ```
    /// use shrink_stm::{TmRuntime, TVar};
    ///
    /// let rt = TmRuntime::new();
    /// let log = TVar::new(vec![3u64, 4, 5]);
    /// // Sums the vector where it lies: no clone of the `Vec`.
    /// assert_eq!(rt.run(|tx| tx.read_with(&log, |v| v.iter().sum::<u64>())), 12);
    /// ```
    pub fn read_with<T: TxValue, R>(
        &mut self,
        tvar: &TVar<T>,
        f: impl FnOnce(&T) -> R,
    ) -> TxResult<R> {
        self.check_kill()?;
        check_owner(self.rt, &tvar.inner, &mut self.refusal)?;
        self.ctx.bump_accesses();
        let var = tvar.inner.id;

        // Read-own-write.
        if let Some(i) = self.logs.write_index.get(var) {
            self.logs.read_vars.push(var);
            return Ok(self.logs.write_log[i].with(&tvar.inner, f));
        }

        let idx = self.rt.orecs.index_of(var);
        let mut spins: u32 = 0;
        loop {
            self.check_kill()?;
            let orec = self.rt.orecs.at(idx);
            let s1 = orec.snapshot();

            if s1.locked_by_other(self.me) {
                // Swiss reads *through* a lock whose owner is still
                // executing (its writes are buffered, so the committed
                // value is still in the cell) and waits briefly only while
                // the owner installs values; Tiny busy-waits for the writer
                // (encounter-time locking).
                let wait_budget = match self.rt.config.backend {
                    BackendKind::Swiss if !s1.committing() => None,
                    BackendKind::Swiss => Some(READ_SPIN_BUDGET),
                    BackendKind::Tiny => Some(LOCK_SPIN_BUDGET),
                };
                if let Some(budget) = wait_budget {
                    if spins >= budget {
                        return Err(self.conflict(AbortReason::LockTimeout, var, idx, s1.owner()));
                    }
                    pause(self.rt.config.wait_policy, spins);
                    spins += 1;
                    continue;
                }
            }

            // Unlocked, read-through, or stripe aliasing (I own the stripe
            // through a write to some other variable; buffered writes
            // install only at commit): the cell holds the committed value,
            // guarded by the (pre-lock) version. Load, then confirm the
            // orec did not move under us.
            let value = tvar.inner.cell.peek(&self.pin);
            if orec.snapshot() != s1 {
                spins += 1;
                continue;
            }
            if s1.version() > self.start_ts {
                // Delay-only site: widens the window between the confirm
                // above and the extension's clock sample.
                let _ = crate::failpoint!(FaultSite::ReadExtend);
                self.extend()?;
                // The extension only vouches for the read log; `value`/`s1`
                // predate its clock sample. Re-snapshot and re-load under
                // the advanced timestamp (see the same step in
                // `ReadTx::read_with`).
                if spins >= READ_SPIN_BUDGET {
                    return Err(Abort::new(AbortReason::ReadValidation));
                }
                spins += 1;
                continue;
            }
            let version = s1.version();
            self.logs.read_log.push(ReadEntry { orec: idx, version });
            self.logs.read_vars.push(var);
            return Ok(value.with(f));
        }
    }

    /// Transactionally writes `value` into `tvar`.
    ///
    /// The write lock is acquired immediately (visible writes); the value is
    /// buffered and installed at commit.
    ///
    /// # Errors
    ///
    /// Aborts on write/write conflict resolution against this transaction,
    /// lock wait timeout, or a contention-manager kill.
    pub fn write<T: TxValue>(&mut self, tvar: &TVar<T>, value: T) -> TxResult<()> {
        self.check_kill()?;
        check_owner(self.rt, &tvar.inner, &mut self.refusal)?;
        self.ctx.bump_accesses();
        let var = tvar.inner.id;

        if let Some(i) = self.logs.write_index.get(var) {
            let logs = &mut *self.logs;
            // Inside an or_else branch, overwriting an entry that predates
            // the branch must be undoable: the first such overwrite moves
            // the pre-branch entry itself onto the undo stack.
            if let Some(cp) = logs.checkpoints.last() {
                if i < cp.writes && !logs.undo[cp.undo..].iter().any(|&(j, _)| j == i) {
                    let saved =
                        mem::replace(&mut logs.write_log[i], WriteEntry::new(&tvar.inner, value));
                    logs.undo.push((i, saved));
                    return Ok(());
                }
            }
            logs.write_log[i].set(&tvar.inner, value);
            return Ok(());
        }

        // The orec word names its owner: a stripe this attempt already
        // locked (through a write to another variable) needs no acquire.
        let idx = self.rt.orecs.index_of(var);
        if self.rt.orecs.at(idx).snapshot().locked_by(self.me) {
            debug_assert!(
                self.logs.owned_order.contains(&idx),
                "stripe locked by another attempt of this thread: a read-write \
                 transaction nested in another on the same runtime"
            );
        } else {
            self.acquire_stripe(idx, var)?;
        }
        let logs = &mut *self.logs;
        logs.write_index.insert(var, logs.write_log.len());
        logs.write_log.push(WriteEntry::new(&tvar.inner, value));
        logs.write_vars.push(var);
        Ok(())
    }

    /// Reads, applies `f`, and writes back — the common read-modify-write.
    ///
    /// # Errors
    ///
    /// Propagates aborts from the underlying read and write.
    pub fn modify<T: TxValue>(&mut self, tvar: &TVar<T>, f: impl FnOnce(T) -> T) -> TxResult<()> {
        let current = self.read(tvar)?;
        self.write(tvar, f(current))
    }

    fn acquire_stripe(&mut self, idx: usize, var: VarId) -> TxResult<()> {
        if crate::failpoint!(FaultSite::OrecAcquire) {
            return Err(Abort::new(AbortReason::FaultInjected));
        }
        let mut spins: u32 = 0;
        let mut requested_kill = false;
        loop {
            self.check_kill()?;
            let orec = self.rt.orecs.at(idx);
            let s1 = orec.snapshot();

            if s1.locked_by_other(self.me) {
                // The backend's contention manager decides how long this
                // transaction may wait for the owner before it loses.
                let owner = s1.owner();
                let lose = |tx: &Self| tx.conflict(AbortReason::WriteConflict, var, idx, owner);
                let budget = match self.rt.config.backend {
                    // Suicide: bounded busy-wait, then abort self.
                    BackendKind::Tiny => LOCK_SPIN_BUDGET,
                    // Two-phase: young transactions lose quietly (timid
                    // phase); past the threshold the one that did more work
                    // kills the owner and waits (bounded) for the release.
                    BackendKind::Swiss => {
                        let my_work = self.ctx.accesses();
                        if my_work <= CM_TIMID_THRESHOLD {
                            return Err(lose(self));
                        }
                        match self.rt.registry.get(owner) {
                            Some(victim) if victim.accesses() < my_work => {
                                if !requested_kill {
                                    victim.request_kill();
                                    requested_kill = true;
                                }
                                KILL_WAIT_BUDGET
                            }
                            // Owner has priority (or vanished): I lose.
                            _ => return Err(lose(self)),
                        }
                    }
                };
                if spins >= budget {
                    return Err(lose(self));
                }
                pause(self.rt.config.wait_policy, spins);
                spins += 1;
                continue;
            }

            if s1.locked() {
                // Locked by me — impossible: `write` read the orec word
                // before calling, and only this thread locks as `me`.
                // Treat as a racing snapshot and retry.
                spins += 1;
                continue;
            }

            if s1.version() > self.start_ts {
                self.extend()?;
            }
            // Extend-then-lock needs no re-snapshot: the CAS compares
            // against `s1`, so a commit that slipped in fails it.
            if orec.try_lock(s1, self.me) {
                bump(&self.ctx.orec_acquires, 1);
                self.logs.owned_order.push(idx);
                return Ok(());
            }
            spins += 1;
        }
    }

    /// Revalidates the read log and, on success, moves the snapshot forward
    /// to the current clock (TinySTM-style timestamp extension).
    fn extend(&mut self) -> TxResult<()> {
        let candidate = self.rt.clock.now();
        if self.read_log_valid() {
            self.start_ts = candidate;
            Ok(())
        } else {
            Err(Abort::new(AbortReason::ReadValidation))
        }
    }

    fn entry_valid(&self, entry: &ReadEntry, snap: OrecSnapshot) -> bool {
        if snap.locked_by(self.me) {
            snap.version() == entry.version
        } else if snap.locked_by_other(self.me) {
            // Swiss resolves read/write conflicts lazily: a lock whose owner
            // has not committed (version unchanged, not installing) does not
            // invalidate the read. Tiny is conservative.
            self.rt.config.backend == BackendKind::Swiss
                && !snap.committing()
                && snap.version() == entry.version
        } else {
            snap.version() == entry.version
        }
    }

    fn read_log_valid(&self) -> bool {
        self.logs
            .read_log
            .iter()
            .all(|e| self.entry_valid(e, self.rt.orecs.at(e.orec).snapshot()))
    }

    /// Attempts to commit. On success the buffered writes are installed and
    /// all locks released; on failure the caller must invoke
    /// [`rollback`](Tx::rollback).
    pub(crate) fn try_commit(&mut self) -> Result<(), Abort> {
        self.check_kill()?;
        if self.logs.write_log.is_empty() {
            // Read-only: the incremental validation performed at each read
            // already guarantees a consistent snapshot.
            self.finished = true;
            return Ok(());
        }
        for &idx in &self.logs.owned_order {
            self.rt.orecs.at(idx).begin_commit(self.me);
        }
        let commit_ts = self.rt.clock.tick();
        if commit_ts > self.start_ts + 1 && !self.read_log_valid() {
            return Err(Abort::new(AbortReason::CommitValidation));
        }
        // Mid-commit hazard window: commit locks are held and validation
        // passed, but nothing is published yet — a panic or spurious abort
        // here rolls back cleanly (`unlock_abort` restores the pre-lock
        // versions). The install loop below is deliberately *not* a
        // failpoint: interrupting it would publish a torn write set.
        if crate::failpoint!(FaultSite::CommitInstall) {
            return Err(Abort::new(AbortReason::FaultInjected));
        }
        for entry in self.logs.write_log.drain(..) {
            entry.install();
        }
        for &idx in &self.logs.owned_order {
            self.rt.orecs.at(idx).unlock_commit(self.me, commit_ts);
        }
        // The commit is durable once the version stamps above are released;
        // mark finished *before* waking waiters so a panic injected inside
        // the notify path cannot make the drop-rollback revert freshly
        // committed stripes.
        self.finished = true;
        // Wake transactions parked in `Tx::retry` on any stripe this commit
        // wrote — after the version stamps above, so a woken waiter always
        // observes the stripe moved (DESIGN.md §9).
        self.rt.retry_waits.notify_commit(&self.logs.owned_order);
        Ok(())
    }

    /// Releases every held lock after a failed attempt.
    pub(crate) fn rollback(&mut self) {
        if self.finished {
            return;
        }
        // Delay-only site (this path runs during unwinds): widens the
        // window in which other threads observe the stripes still locked.
        let _ = crate::failpoint!(FaultSite::OrecRelease);
        for &idx in &self.logs.owned_order {
            self.rt.orecs.at(idx).unlock_abort(self.me);
        }
        let _ = self.ctx.take_kill_request();
        self.finished = true;
    }

    /// The `(stripe, observed version)` pairs a retrying attempt must park
    /// on: its validated read log, deduplicated by stripe. Taken after
    /// [`rollback`](Tx::rollback) — released stripes carry their pre-lock
    /// versions again, so the observed versions below are live.
    pub(crate) fn retry_wait_plan(&self) -> Vec<(usize, u64)> {
        let mut plan: Vec<(usize, u64)> = self
            .logs
            .read_log
            .iter()
            .map(|e| (e.orec, e.version))
            .collect();
        plan.sort_unstable();
        // A consistent read log holds one version per stripe (a version
        // moving mid-attempt forces extend-or-abort), so stripe dedup is
        // lossless.
        plan.dedup_by_key(|&mut (orec, _)| orec);
        plan
    }
}

impl Drop for Tx<'_> {
    fn drop(&mut self) {
        // Panic safety: a body that unwinds must not leave stripes locked.
        self.rollback();
    }
}

impl fmt::Debug for Tx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tx")
            .field("thread", &self.me)
            .field("start_ts", &self.start_ts)
            .field("reads", &self.logs.read_vars.len())
            .field("writes", &self.logs.write_vars.len())
            .finish()
    }
}

/// The read capability shared by [`Tx`] and [`ReadTx`].
///
/// Code that only *reads* transactional state can be written once against
/// this trait and run both inside a full read-write transaction
/// ([`TmRuntime::run`](crate::TmRuntime::run)) and inside the lock-free
/// read-only mode ([`TmRuntime::read_only`](crate::TmRuntime::read_only)).
/// The workload crates use it to route their lookup/traversal operations
/// through either path.
///
/// The trait has a generic method, so it is not object-safe; take it as a
/// generic parameter (`fn lookup(tx: &mut impl TxRead, ...)`). A
/// `&mut Tx<'_>` reborrows into such a parameter unchanged, so existing
/// call sites keep compiling.
///
/// # Examples
///
/// ```
/// use shrink_stm::{TmRuntime, TVar, TxRead, TxResult};
///
/// fn sum(tx: &mut impl TxRead, vars: &[TVar<u64>]) -> TxResult<u64> {
///     let mut total = 0;
///     for v in vars {
///         total += tx.read(v)?;
///     }
///     Ok(total)
/// }
///
/// let rt = TmRuntime::new();
/// let vars: Vec<TVar<u64>> = (1..=3).map(TVar::new).collect();
/// assert_eq!(rt.run(|tx| sum(tx, &vars)), 6); // read-write path
/// assert_eq!(rt.read_only(|tx| sum(tx, &vars)), 6); // lock-free path
/// ```
pub trait TxRead {
    /// Transactionally reads `tvar` and runs `f` once on the value the
    /// read validated, in place (see [`Tx::read_with`]).
    ///
    /// # Errors
    ///
    /// Aborts (for the owning retry loop to handle) when the read cannot be
    /// added to a consistent snapshot.
    fn read_with<T: TxValue, R>(&mut self, tvar: &TVar<T>, f: impl FnOnce(&T) -> R) -> TxResult<R>;

    /// Transactionally reads `tvar`: `read_with(tvar, T::clone)`.
    ///
    /// # Errors
    ///
    /// As [`read_with`](TxRead::read_with).
    fn read<T: TxValue>(&mut self, tvar: &TVar<T>) -> TxResult<T> {
        self.read_with(tvar, T::clone)
    }

    /// Requests an abort-and-restart of this attempt.
    ///
    /// # Errors
    ///
    /// Always returns `Err` with [`AbortReason::UserRestart`].
    fn restart<T>(&self) -> TxResult<T> {
        Err(Abort::new(AbortReason::UserRestart))
    }
}

impl TxRead for Tx<'_> {
    fn read_with<T: TxValue, R>(&mut self, tvar: &TVar<T>, f: impl FnOnce(&T) -> R) -> TxResult<R> {
        Tx::read_with(self, tvar, f)
    }
}

/// A lock-free read-only transaction attempt, handed to the body closure by
/// [`TmRuntime::read_only`](crate::TmRuntime::read_only).
///
/// The protocol is the read half of TL2, with everything writer-facing
/// removed:
///
/// * the global clock is sampled **once** at begin (`start_ts`);
/// * every read snapshots the guarding orec, loads the value through the
///   lock-free `ValueCell::peek` path under the attempt's one epoch pin,
///   and re-snapshots to confirm the stripe did not move;
/// * a version newer than `start_ts` triggers a timestamp extension
///   (revalidate the whole read log against the current clock); a
///   successful extension **re-reads the stripe** under the advanced
///   timestamp (the pre-extension value may predate a commit the
///   extension slid past); a failed extension restarts the body with a
///   fresh snapshot.
///
/// What a `ReadTx` **never** does: acquire an orec (no write lock, no CAS
/// on shared state), take a commit ticket (`GlobalClock::tick`), register
/// on a retry waitlist, or request a kill. Writers cannot observe it, so it
/// can never abort one — and no writer can *force* it to block; invalidated
/// snapshots restart quietly inside `read_only`, invisible to the
/// schedulers. The mode is **lock-free, not wait-free**: every retry path
/// inside a single read is bounded by `READ_SPIN_BUDGET`, but each restart
/// is caused by a writer *committing*, so the system makes progress while
/// an individual reader can in principle starve under a saturating writer
/// stream (bound it with
/// [`read_only_budgeted`](crate::TmRuntime::read_only_budgeted)).
///
/// Unlike the read-write path, reads go *through* non-committing write
/// locks on **both** backends (not just Swiss): buffered writes install
/// only during the `committing` window, so a locked-but-not-committing
/// stripe still guards the committed value under its pre-lock version. The
/// only state a reader must wait out is `committing` itself, and that wait
/// — like the snapshot-moved and extension retry paths — is bounded by
/// `READ_SPIN_BUDGET` before the reader restarts.
pub struct ReadTx<'rt> {
    rt: &'rt RuntimeInner,
    me: ThreadId,
    start_ts: u64,
    /// The read log of the thread's logs, lent for this attempt.
    read_log: &'rt mut Vec<ReadEntry>,
    /// Reads performed by this attempt (flushed to `ThreadCtx::ro_reads`).
    reads: u64,
    /// Timestamp extensions performed by this attempt (flushed to
    /// `ThreadCtx::ro_revalidations`; restarts are counted by the driver).
    revalidations: u64,
    /// The refused access, once the body touched a `TVar` bound to another
    /// runtime (the abort was [`AbortReason::ForeignTVar`]).
    pub(crate) refusal: Option<TmError>,
    /// The attempt's epoch pin, as in [`Tx`].
    pin: Guard,
}

impl<'rt> ReadTx<'rt> {
    pub(crate) fn begin(
        rt: &'rt RuntimeInner,
        me: ThreadId,
        read_log: &'rt mut Vec<ReadEntry>,
    ) -> Self {
        read_log.clear();
        ReadTx {
            rt,
            me,
            pin: epoch::pin(),
            start_ts: rt.clock.now(),
            read_log,
            reads: 0,
            revalidations: 0,
            refusal: None,
        }
    }

    /// The id of the thread running this transaction.
    pub fn thread(&self) -> ThreadId {
        self.me
    }

    /// The snapshot timestamp the attempt currently validates against.
    pub fn start_timestamp(&self) -> u64 {
        self.start_ts
    }

    /// Number of reads performed by this attempt.
    pub fn read_count(&self) -> usize {
        self.read_log.len()
    }

    /// Requests a restart of this attempt with a fresh snapshot.
    ///
    /// # Errors
    ///
    /// Always returns `Err` with [`AbortReason::UserRestart`].
    pub fn restart<T>(&self) -> TxResult<T> {
        Err(Abort::new(AbortReason::UserRestart))
    }

    /// Reads `tvar` as part of the lock-free snapshot: a clone of the
    /// value.
    ///
    /// # Errors
    ///
    /// Aborts with [`AbortReason::ReadValidation`] when the value cannot be
    /// added to a consistent snapshot (a concurrent writer moved part of
    /// the read set, or a committing installer outlasted the spin budget).
    /// [`TmRuntime::read_only`](crate::TmRuntime::read_only) catches this
    /// and restarts the body; it never surfaces to user code.
    pub fn read<T: TxValue>(&mut self, tvar: &TVar<T>) -> TxResult<T> {
        self.read_with(tvar, T::clone)
    }

    /// Reads `tvar` as part of the lock-free snapshot and runs `f` on the
    /// value in place, exactly once, after the read validated it (see
    /// [`Tx::read_with`]).
    ///
    /// # Errors
    ///
    /// As [`read`](ReadTx::read).
    pub fn read_with<T: TxValue, R>(
        &mut self,
        tvar: &TVar<T>,
        f: impl FnOnce(&T) -> R,
    ) -> TxResult<R> {
        // A foreign read would validate against the wrong runtime's orec
        // table — a torn multi-variable snapshot, not just a lost wakeup —
        // so the owner stamp is enforced on this path too.
        check_owner(self.rt, &tvar.inner, &mut self.refusal)?;
        self.reads += 1;
        let idx = self.rt.orecs.index_of(tvar.inner.id);
        let mut spins: u32 = 0;
        loop {
            let orec = self.rt.orecs.at(idx);
            let s1 = orec.snapshot();
            if s1.committing() {
                // The owner is installing values right now — the only
                // window where the cell may hold uncommitted data. Grant it
                // a bounded wait, then restart rather than lock or kill.
                if spins >= READ_SPIN_BUDGET {
                    return Err(Abort::new(AbortReason::ReadValidation));
                }
                pause(self.rt.config.wait_policy, spins);
                spins += 1;
                continue;
            }
            // Unlocked, or locked but not yet committing: the committed
            // value is still in the cell, guarded by the pre-lock version.
            let value = tvar.inner.cell.peek(&self.pin);
            let s2 = orec.snapshot();
            if s2 != s1 {
                if spins >= READ_SPIN_BUDGET {
                    return Err(Abort::new(AbortReason::ReadValidation));
                }
                spins += 1;
                continue;
            }
            if s1.version() > self.start_ts {
                // Delay-only site, as in `Tx::read_with`.
                let _ = crate::failpoint!(FaultSite::ReadExtend);
                self.extend()?;
                // The extension proved the read log consistent at the new
                // timestamp, but `value`/`s1` were sampled *before* extend
                // read the clock — a writer may have committed to this very
                // stripe in between, which the extension cannot see (the
                // entry is not in the read log yet). Re-snapshot and
                // re-load under the advanced timestamp (TinySTM's
                // goto-restart) instead of admitting a possibly stale pair.
                if spins >= READ_SPIN_BUDGET {
                    return Err(Abort::new(AbortReason::ReadValidation));
                }
                spins += 1;
                continue;
            }
            self.read_log.push(ReadEntry {
                orec: idx,
                version: s1.version(),
            });
            return Ok(value.with(f));
        }
    }

    /// Revalidates the read log and, on success, moves the snapshot forward
    /// to the current clock — the same timestamp extension as the
    /// read-write path, minus any own-lock cases (a `ReadTx` holds none).
    fn extend(&mut self) -> TxResult<()> {
        self.revalidations += 1;
        let candidate = self.rt.clock.now();
        let valid = self.read_log.iter().all(|e| {
            let snap = self.rt.orecs.at(e.orec).snapshot();
            !snap.committing() && snap.version() == e.version
        });
        if valid {
            self.start_ts = candidate;
            Ok(())
        } else {
            Err(Abort::new(AbortReason::ReadValidation))
        }
    }

    /// The per-attempt counters, for the driver to flush into `ThreadCtx`.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.reads, self.revalidations)
    }
}

impl TxRead for ReadTx<'_> {
    fn read_with<T: TxValue, R>(&mut self, tvar: &TVar<T>, f: impl FnOnce(&T) -> R) -> TxResult<R> {
        ReadTx::read_with(self, tvar, f)
    }
}

impl fmt::Debug for ReadTx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReadTx")
            .field("thread", &self.me)
            .field("start_ts", &self.start_ts)
            .field("reads", &self.read_log.len())
            .finish()
    }
}
