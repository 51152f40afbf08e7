//! Per-stripe commit wait lists: the wake path behind [`Tx::retry`].
//!
//! A transaction that calls [`Tx::retry`](crate::Tx::retry) is saying "this
//! snapshot cannot proceed — run me again when it changes". The only events
//! that can change the snapshot are commits that write one of the stripes
//! the transaction read, so the runtime parks the thread here until exactly
//! such a commit happens (or a bounded deadline passes).
//!
//! # Protocol
//!
//! The orec table's stripes are hashed down onto a fixed set of *wait
//! buckets* (aliasing produces spurious wakeups, never missed ones — the
//! same trade-off as the orec striping itself). Each bucket holds an exact
//! waiter count plus a list of registered *parkers*, one
//! [`EventCount`](parking_lot::EventCount) per waiting thread:
//!
//! 1. The waiter samples its own parker version, registers the parker on
//!    every bucket its read set hashes to, and **then** validates the read
//!    snapshot against the live orec versions. A commit that raced ahead of
//!    the registration is caught by this validation; a commit that lands
//!    after it finds the parker registered and wakes it. A `SeqCst` fence on
//!    both sides closes the store-buffer window between "publish my
//!    registration" and "read your version stamp".
//! 2. If the snapshot is still current, the waiter parks on its own parker
//!    — a single futex word, regardless of how many stripes it watches —
//!    with a bounded deadline ([`TmConfig::retry_wait`]); on wake or expiry
//!    it deregisters from every bucket.
//! 3. The commit path calls [`notify_commit`](StripeWaitlist::notify_commit)
//!    with its written stripes *after* the new versions are installed. A
//!    bucket with zero waiters costs one atomic load; otherwise every
//!    registered parker is advanced (bump **and wake**).
//!
//! All waiting is futex/parker sleeping: the retry path contains no
//! `yield_now` poll loop at all, which is what the wait-op counters in
//! [`RetryStats`] let tests and the benchmark of record
//! (`stm.waitlist.*` cells) prove.
//!
//! # Pluggable parkers
//!
//! A registered waiter is a [`Parker`], of which there are two kinds
//! sharing one bucket list and one wake point:
//!
//! * [`Parker::Thread`] — an [`EventCount`](parking_lot::EventCount): the
//!   waiter is an OS thread that futex-sleeps in [`wait`] until the count
//!   advances. This is the classic [`Tx::retry`] path.
//! * [`Parker::Task`] — an [`AsyncParker`]: the waiter is a *future*
//!   ([`TxFuture`](crate::future::TxFuture)) that returned `Poll::Pending`
//!   instead of blocking a thread. The commit-side advance bumps an atomic
//!   wake epoch and fires the stored [`Waker`], handing the task back to
//!   its executor. Registration goes through [`register_async`] /
//!   [`deregister_async`] and follows the *same*
//!   register→`SeqCst`-fence→validate protocol as [`wait`], so the
//!   lost-wakeup argument above carries over unchanged — the only
//!   difference is what "wake" means.
//!
//! The commit path treats both kinds identically:
//! [`notify_commit`](StripeWaitlist::notify_commit) advances every parker
//! registered on a written bucket at the exact point it would have futex-
//! woken a thread, so sync and async waiters on the same bucket are woken
//! by the same commit.
//!
//! [`wait`]: StripeWaitlist::wait
//! [`register_async`]: StripeWaitlist::register_async
//! [`deregister_async`]: StripeWaitlist::deregister_async
//! [`Tx::retry`]: crate::Tx::retry
//! [`TmConfig::retry_wait`]: crate::config::TmConfig::retry_wait

use std::fmt;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::Waker;
use std::time::Instant;

use parking_lot::{EventCount, Mutex, WaitOutcome};

use crate::faults::FaultSite;
use crate::orec::OrecTable;

/// Most wait buckets a runtime allocates; stripes hash down onto these.
const MAX_BUCKETS: usize = 1024;

/// The `Waker`-backed parker of a suspended [`TxFuture`]: the async
/// counterpart of [`EventCount`], mirroring its protocol with a task waker
/// in place of a futex word.
///
/// * **Wake epoch** — an atomic counter bumped by every commit-side
///   [`advance`](AsyncParker::advance), standing in for the event count's
///   version word. The future samples it before registering and compares
///   at every poll: "epoch moved" means "a watched commit happened while I
///   was suspended".
/// * **Waker slot** — the suspended task's [`Waker`], (re)stored on every
///   poll per the `Future` contract and *taken* by the advance that wakes
///   it.
///
/// # Lost-wakeup ordering
///
/// The poll side **stores the waker, then reads the epoch**; the advance
/// side **bumps the epoch, then takes the waker** (both slot accesses under
/// the same mutex). The mutex totally orders the two critical sections:
/// if the poll's store comes first, the advance finds the fresh waker and
/// wakes the task; if the advance's take comes first, the poll's epoch
/// read is ordered after the bump and observes it, so the future
/// re-attempts instead of suspending. Either way a commit that races a
/// poll is never lost — the same crossing argument the event count's futex
/// compare makes in hardware.
///
/// [`TxFuture`]: crate::future::TxFuture
#[derive(Debug, Default)]
pub(crate) struct AsyncParker {
    /// Wake epoch (see above). 32 wrapping bits; a suspended future
    /// compares for equality, so wrapping is harmless short of exactly
    /// 2³² advances between two polls.
    epoch: AtomicU32,
    /// The suspended task's waker. `None` while no poll has stored one or
    /// after an advance consumed it.
    waker: Mutex<Option<Waker>>,
}

impl AsyncParker {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The current wake epoch. `SeqCst` for the same reason as
    /// [`EventCount::version`]: the sample must be ordered against the
    /// committer's bump in the single total order both sides observe.
    pub(crate) fn epoch(&self) -> u32 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Stores the suspended task's waker. Called on *every* poll — the
    /// `Future` contract lets the executor swap wakers between polls, and
    /// only the latest one is guaranteed to reach the current task.
    ///
    /// Callers must read [`epoch`](Self::epoch) *after* this returns (see
    /// the type-level ordering note).
    pub(crate) fn set_waker(&self, waker: &Waker) {
        let mut slot = self.waker.lock();
        match slot.as_ref() {
            Some(old) if old.will_wake(waker) => {}
            _ => *slot = Some(waker.clone()),
        }
    }

    /// Drops the stored waker without waking, leaving the epoch untouched.
    /// Used by deregistration paths so a cancelled future does not keep its
    /// executor task alive through the parker.
    pub(crate) fn clear_waker(&self) {
        *self.waker.lock() = None;
    }

    /// Bumps the wake epoch and fires the stored waker, if any. Returns
    /// `true` when a waker was actually delivered — the commit-side
    /// analogue of [`EventCount::advance`] reporting `woken > 0`.
    pub(crate) fn advance(&self) -> bool {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let woken = self.waker.lock().take();
        match woken {
            Some(waker) => {
                waker.wake();
                true
            }
            None => false,
        }
    }
}

/// One registered waiter: an OS thread futex-parked on an event count, or
/// a suspended future reachable through its stored waker. Both kinds share
/// the bucket lists and are advanced by the same
/// [`notify_commit`](StripeWaitlist::notify_commit) pass.
pub(crate) enum Parker {
    /// A thread blocked in [`StripeWaitlist::wait`].
    Thread(Arc<EventCount>),
    /// A future suspended through [`StripeWaitlist::register_async`].
    Task(Arc<AsyncParker>),
}

impl Parker {
    fn is_thread(&self, parker: &Arc<EventCount>) -> bool {
        matches!(self, Parker::Thread(p) if Arc::ptr_eq(p, parker))
    }

    fn is_task(&self, parker: &Arc<AsyncParker>) -> bool {
        matches!(self, Parker::Task(p) if Arc::ptr_eq(p, parker))
    }
}

/// How an async registration attempt ended.
#[derive(Debug)]
pub(crate) enum AsyncRegisterOutcome {
    /// Validation caught a change after registering; the registration was
    /// rolled back and the future should re-attempt immediately.
    Changed,
    /// The parker is registered on the returned buckets; the future should
    /// return `Poll::Pending` and later pass the same buckets to
    /// [`StripeWaitlist::deregister_async`].
    Registered {
        /// The deduplicated bucket indices holding the registration.
        buckets: Vec<usize>,
    },
}

/// How one bounded retry-wait round ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RetryWaitOutcome {
    /// The read snapshot was already stale when (re)checked — no sleep, the
    /// transaction should re-run immediately.
    Changed,
    /// A committer writing a watched stripe woke the parker.
    Woken,
    /// The deadline expired with the snapshot unchanged.
    TimedOut,
}

/// Wait-op counters of the [`Tx::retry`](crate::Tx::retry) wake path,
/// aggregated per runtime and exposed through
/// [`TmRuntime::retry_stats`](crate::TmRuntime::retry_stats).
///
/// The waiter side proves *how* blocked transactions waited (`parked_waits`
/// never comes with a yield-poll counterpart because the path has none);
/// the committer side (`wakes_issued` / `wasted_wakes`) is what the
/// benchmark's `stm.waitlist.wasted_wake_share` cell reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Wait rounds that actually parked on the futex.
    pub parked_waits: u64,
    /// Parked rounds ended by a committer's wake.
    pub woken: u64,
    /// Parked rounds that expired with the snapshot unchanged.
    pub timed_out: u64,
    /// Rounds where validation caught a change before any sleep.
    pub changed_before_park: u64,
    /// Commit-side wake rounds that found at least one registered parker.
    pub wakes_issued: u64,
    /// Threads actually released by commit-side wakes.
    pub threads_woken: u64,
    /// Wake syscalls (or waker deliveries) that released nobody (the
    /// parker's owner had already left — deadline expiry or a wake from
    /// another bucket in the same instant — or, for a task, another stripe
    /// of the same commit already consumed the waker).
    pub wasted_wakes: u64,
    /// Futures suspended with a registered [`AsyncParker`] (the async
    /// counterpart of `parked_waits`; a suspension parks a *task*, never a
    /// thread).
    pub async_parks: u64,
    /// Suspended futures whose next poll found the wake epoch advanced —
    /// the async counterpart of `woken`.
    pub async_woken: u64,
    /// Commit-side advances that delivered a stored waker to a suspended
    /// task — the task counterpart of `threads_woken`.
    pub tasks_woken: u64,
}

struct Bucket {
    /// Exact number of parkers currently registered (fast no-waiter skip on
    /// the commit path).
    waiters: AtomicU32,
    list: Mutex<Vec<Parker>>,
}

/// The runtime-wide table of commit wait buckets (see the module docs).
pub(crate) struct StripeWaitlist {
    buckets: Box<[Bucket]>,
    mask: usize,
    parked_waits: AtomicU64,
    woken: AtomicU64,
    timed_out: AtomicU64,
    changed_before_park: AtomicU64,
    wakes_issued: AtomicU64,
    threads_woken: AtomicU64,
    wasted_wakes: AtomicU64,
    async_parks: AtomicU64,
    async_woken: AtomicU64,
    tasks_woken: AtomicU64,
}

impl StripeWaitlist {
    /// Creates a waitlist covering `stripes` orec stripes (a power of two).
    pub(crate) fn new(stripes: usize) -> Self {
        let n = stripes.clamp(1, MAX_BUCKETS);
        debug_assert!(n.is_power_of_two());
        let buckets: Vec<Bucket> = (0..n)
            .map(|_| Bucket {
                waiters: AtomicU32::new(0),
                list: Mutex::new(Vec::new()),
            })
            .collect();
        StripeWaitlist {
            buckets: buckets.into_boxed_slice(),
            mask: n - 1,
            parked_waits: AtomicU64::new(0),
            woken: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            changed_before_park: AtomicU64::new(0),
            wakes_issued: AtomicU64::new(0),
            threads_woken: AtomicU64::new(0),
            wasted_wakes: AtomicU64::new(0),
            async_parks: AtomicU64::new(0),
            async_woken: AtomicU64::new(0),
            tasks_woken: AtomicU64::new(0),
        }
    }

    /// True if some watched stripe moved past its observed version (or is
    /// mid-install): the retrying transaction's snapshot is stale and it
    /// should re-run rather than sleep. Crate-visible because the
    /// cross-runtime select registry revalidates with the same predicate.
    pub(crate) fn changed(orecs: &OrecTable, plan: &[(usize, u64)]) -> bool {
        plan.iter().any(|&(idx, version)| {
            let snap = orecs.at(idx).snapshot();
            snap.version() != version || snap.committing()
        })
    }

    /// One bounded retry-wait round for a thread whose read set validated to
    /// `plan` (deduplicated `(stripe, observed version)` pairs). `parker` is
    /// the thread's own event count; the same one must be passed on every
    /// round (registration lists hold clones of it).
    pub(crate) fn wait(
        &self,
        orecs: &OrecTable,
        plan: &[(usize, u64)],
        parker: &Arc<EventCount>,
        deadline: Instant,
    ) -> RetryWaitOutcome {
        // Probed before any bucket is touched, so an injected panic here
        // cannot leak a registration.
        let _ = crate::failpoint!(FaultSite::WaitRegister);
        let observed = parker.version();
        let buckets = self.register_thread(plan, parker);
        // Pairs with the fence in `notify_commit`: a committer either sees
        // the registration above, or this validation sees its version
        // stamps. Without it both sides could read stale state and the wake
        // would be lost for a full deadline round.
        fence(Ordering::SeqCst);
        // Registered-but-not-deregistered window: only delays and forced
        // spurious wakeups may be injected between here and the deregister
        // loop (a panic would leak the registration). `WaitValidate` makes
        // the validation claim a change, `EventPark` skips the park as if
        // notified — both exercise the callers' revalidate-and-re-run loop.
        let outcome = if crate::failpoint!(FaultSite::WaitValidate) || Self::changed(orecs, plan) {
            self.changed_before_park.fetch_add(1, Ordering::Relaxed);
            RetryWaitOutcome::Changed
        } else if crate::failpoint!(FaultSite::EventPark) {
            self.woken.fetch_add(1, Ordering::Relaxed);
            RetryWaitOutcome::Woken
        } else {
            self.parked_waits.fetch_add(1, Ordering::Relaxed);
            match parker.wait_while_eq(observed, Some(deadline)) {
                WaitOutcome::Advanced => {
                    self.woken.fetch_add(1, Ordering::Relaxed);
                    RetryWaitOutcome::Woken
                }
                WaitOutcome::TimedOut => {
                    self.timed_out.fetch_add(1, Ordering::Relaxed);
                    RetryWaitOutcome::TimedOut
                }
            }
        };
        self.deregister_thread(&buckets, parker);
        outcome
    }

    /// Registers a thread parker on the buckets of `plan` without
    /// validating or parking — the building block [`wait`](Self::wait) and
    /// the cross-runtime select registry share. Returns the deduplicated
    /// bucket indices holding the registration; the caller owns the rest of
    /// the lost-wakeup protocol (`SeqCst` fence, validate via
    /// [`changed`](Self::changed), park, then
    /// [`deregister_thread`](Self::deregister_thread) with the same
    /// buckets).
    pub(crate) fn register_thread(
        &self,
        plan: &[(usize, u64)],
        parker: &Arc<EventCount>,
    ) -> Vec<usize> {
        let buckets = self.bucket_set(plan);
        for &b in &buckets {
            let bucket = &self.buckets[b];
            bucket.waiters.fetch_add(1, Ordering::SeqCst);
            bucket.list.lock().push(Parker::Thread(Arc::clone(parker)));
        }
        buckets
    }

    /// Removes a thread parker from `buckets` (as returned by
    /// [`register_thread`](Self::register_thread)). Removal is by pointer
    /// identity, so deregistering after a concurrent commit already woke
    /// the parker is harmless.
    pub(crate) fn deregister_thread(&self, buckets: &[usize], parker: &Arc<EventCount>) {
        for &b in buckets {
            let bucket = &self.buckets[b];
            {
                let mut list = bucket.list.lock();
                if let Some(pos) = list.iter().position(|p| p.is_thread(parker)) {
                    list.swap_remove(pos);
                }
            }
            bucket.waiters.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// The deduplicated wait-bucket indices of a retry plan.
    fn bucket_set(&self, plan: &[(usize, u64)]) -> Vec<usize> {
        let mut buckets: Vec<usize> = plan.iter().map(|&(s, _)| s & self.mask).collect();
        buckets.sort_unstable();
        buckets.dedup();
        buckets
    }

    /// Registers a suspended future's parker on the buckets of `plan` —
    /// the async counterpart of the register-and-validate half of
    /// [`wait`](Self::wait), with identical protocol and failpoints: probe,
    /// register on the deduped buckets, `SeqCst` fence, validate. The
    /// caller must have stored the task's waker in `parker` **before**
    /// calling (see [`AsyncParker`]'s ordering note); on
    /// [`AsyncRegisterOutcome::Registered`] it returns `Poll::Pending` and
    /// is responsible for eventually calling
    /// [`deregister_async`](Self::deregister_async) with the returned
    /// buckets — on wake *and* on cancellation (drop).
    pub(crate) fn register_async(
        &self,
        orecs: &OrecTable,
        plan: &[(usize, u64)],
        parker: &Arc<AsyncParker>,
    ) -> AsyncRegisterOutcome {
        // Same probe discipline as `wait`: before any bucket is touched, so
        // an injected panic cannot leak a registration.
        let _ = crate::failpoint!(FaultSite::WaitRegister);
        let buckets = self.bucket_set(plan);
        for &b in &buckets {
            let bucket = &self.buckets[b];
            bucket.waiters.fetch_add(1, Ordering::SeqCst);
            bucket.list.lock().push(Parker::Task(Arc::clone(parker)));
        }
        // Pairs with the fence in `notify_commit`, exactly as in `wait`: a
        // committer either sees the registration above (and advances the
        // parker, firing the stored waker), or this validation sees its
        // version stamps.
        fence(Ordering::SeqCst);
        if crate::failpoint!(FaultSite::WaitValidate) || Self::changed(orecs, plan) {
            self.deregister_async(&buckets, parker);
            self.changed_before_park.fetch_add(1, Ordering::Relaxed);
            return AsyncRegisterOutcome::Changed;
        }
        self.async_parks.fetch_add(1, Ordering::Relaxed);
        AsyncRegisterOutcome::Registered { buckets }
    }

    /// Removes a future's parker from `buckets` (as returned by
    /// [`register_async`](Self::register_async)) and drops any stored
    /// waker. Idempotent per registration: positions are found by pointer
    /// identity, so deregistering after a concurrent commit already woke
    /// the task is harmless.
    pub(crate) fn deregister_async(&self, buckets: &[usize], parker: &Arc<AsyncParker>) {
        for &b in buckets {
            let bucket = &self.buckets[b];
            {
                let mut list = bucket.list.lock();
                if let Some(pos) = list.iter().position(|p| p.is_task(parker)) {
                    list.swap_remove(pos);
                }
            }
            bucket.waiters.fetch_sub(1, Ordering::SeqCst);
        }
        // A waker left behind would keep the executor task alive (and a
        // late advance would spuriously wake it); cancellation must sever
        // that edge.
        parker.clear_waker();
    }

    /// Books one suspended-future wake observation (the poll after a
    /// commit-side advance) — the async counterpart of the `woken` bump in
    /// [`wait`](Self::wait).
    pub(crate) fn note_async_woken(&self) {
        self.async_woken.fetch_add(1, Ordering::Relaxed);
    }

    /// Exact number of parker registrations currently held across all
    /// buckets (a waiter watching `k` buckets counts `k` times). Zero when
    /// nobody — thread or task — is registered; what the cancellation
    /// tests assert returns to zero after a suspended future is dropped.
    pub(crate) fn registered(&self) -> u64 {
        self.buckets
            .iter()
            .map(|b| u64::from(b.waiters.load(Ordering::SeqCst)))
            .sum()
    }

    /// Wakes every parker registered on the buckets of `stripes`. Called by
    /// the commit path *after* the new orec versions are installed, so a
    /// woken (or racing) waiter always observes the stripe moved.
    ///
    /// Costs one atomic load per distinct bucket when nobody is waiting.
    pub(crate) fn notify_commit(&self, stripes: &[usize]) {
        if stripes.is_empty() {
            return;
        }
        // A panic injected here unwinds out of a commit whose values are
        // already durable: waiters miss this wake but revalidate on their
        // bounded deadline, so the system degrades to a delayed wakeup
        // rather than a lost one.
        let _ = crate::failpoint!(FaultSite::WaitWake);
        // Pairs with the fence in `wait` (see there).
        fence(Ordering::SeqCst);
        for (i, &stripe) in stripes.iter().enumerate() {
            let b = stripe & self.mask;
            // Dedup without allocating: written-stripe sets are small.
            if stripes[..i].iter().any(|&prev| prev & self.mask == b) {
                continue;
            }
            let bucket = &self.buckets[b];
            if bucket.waiters.load(Ordering::SeqCst) == 0 {
                continue;
            }
            // Snapshot the parker list and wake *outside* the bucket lock:
            // a woken waiter's first action is to re-take this lock to
            // deregister, so advancing under it would convoy every waiter
            // behind the committer's wake syscalls. Waking a parker whose
            // owner already left is harmless — the owner resamples its
            // version before the next registration, so a stale bump can at
            // worst cost one spurious (counted) wake.
            let parkers: Vec<Parker> = {
                let list = bucket.list.lock();
                if list.is_empty() {
                    continue;
                }
                list.iter()
                    .map(|p| match p {
                        Parker::Thread(ec) => Parker::Thread(Arc::clone(ec)),
                        Parker::Task(ap) => Parker::Task(Arc::clone(ap)),
                    })
                    .collect()
            };
            self.wakes_issued.fetch_add(1, Ordering::Relaxed);
            let mut released = 0u64;
            let mut tasks = 0u64;
            let mut wasted = 0u64;
            for parker in &parkers {
                match parker {
                    Parker::Thread(ec) => {
                        let adv = ec.advance();
                        released += adv.woken as u64;
                        if adv.wake_issued && adv.woken == 0 {
                            wasted += 1;
                        }
                    }
                    Parker::Task(ap) => {
                        // Bump-and-wake at the same point as the futex
                        // advance: the stored waker hands the suspended
                        // task back to its executor. No waker means the
                        // future is mid-poll (it will read the bumped
                        // epoch) or another stripe of this commit already
                        // delivered it — counted wasted, same as a futex
                        // wake that released nobody.
                        if ap.advance() {
                            tasks += 1;
                        } else {
                            wasted += 1;
                        }
                    }
                }
            }
            self.threads_woken.fetch_add(released, Ordering::Relaxed);
            self.tasks_woken.fetch_add(tasks, Ordering::Relaxed);
            self.wasted_wakes.fetch_add(wasted, Ordering::Relaxed);
        }
    }

    /// Snapshot of the wait-op counters.
    pub(crate) fn stats(&self) -> RetryStats {
        RetryStats {
            parked_waits: self.parked_waits.load(Ordering::Relaxed),
            woken: self.woken.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            changed_before_park: self.changed_before_park.load(Ordering::Relaxed),
            wakes_issued: self.wakes_issued.load(Ordering::Relaxed),
            threads_woken: self.threads_woken.load(Ordering::Relaxed),
            wasted_wakes: self.wasted_wakes.load(Ordering::Relaxed),
            async_parks: self.async_parks.load(Ordering::Relaxed),
            async_woken: self.async_woken.load(Ordering::Relaxed),
            tasks_woken: self.tasks_woken.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for StripeWaitlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StripeWaitlist")
            .field("buckets", &self.buckets.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread::ThreadId;
    use std::time::Duration;

    fn table_with_version(stripe: usize, version: u64) -> OrecTable {
        let orecs = OrecTable::new(64);
        if version > 0 {
            let o = orecs.at(stripe);
            assert!(o.try_lock(o.snapshot(), ThreadId::from_u16(1)));
            o.unlock_commit(ThreadId::from_u16(1), version);
        }
        orecs
    }

    #[test]
    fn stale_plan_is_caught_before_parking() {
        let wl = StripeWaitlist::new(64);
        let orecs = table_with_version(3, 7);
        let parker = Arc::new(EventCount::new());
        // Observed version 6, stripe already at 7: no sleep.
        let outcome = wl.wait(
            &orecs,
            &[(3, 6)],
            &parker,
            Instant::now() + Duration::from_secs(30),
        );
        assert_eq!(outcome, RetryWaitOutcome::Changed);
        assert_eq!(wl.stats().changed_before_park, 1);
        assert_eq!(wl.stats().parked_waits, 0);
    }

    #[test]
    fn unchanged_plan_times_out_at_the_deadline() {
        let wl = StripeWaitlist::new(64);
        let orecs = table_with_version(3, 7);
        let parker = Arc::new(EventCount::new());
        let deadline = Instant::now() + Duration::from_millis(20);
        let outcome = wl.wait(&orecs, &[(3, 7)], &parker, deadline);
        assert_eq!(outcome, RetryWaitOutcome::TimedOut);
        assert!(Instant::now() >= deadline, "must not report expiry early");
        let stats = wl.stats();
        assert_eq!(stats.parked_waits, 1);
        assert_eq!(stats.timed_out, 1);
    }

    #[test]
    fn commit_to_a_watched_stripe_wakes_the_parker() {
        let wl = Arc::new(StripeWaitlist::new(64));
        let orecs = Arc::new(table_with_version(3, 7));
        let parker = Arc::new(EventCount::new());
        let waiter = {
            let wl = Arc::clone(&wl);
            let orecs = Arc::clone(&orecs);
            let parker = Arc::clone(&parker);
            std::thread::spawn(move || {
                wl.wait(
                    &orecs,
                    &[(3, 7)],
                    &parker,
                    Instant::now() + Duration::from_secs(30),
                )
            })
        };
        // Deterministic handshake: the parker's own waiter count proves it
        // is inside the futex path before the "commit" fires.
        while parker.waiters() == 0 {
            std::thread::yield_now();
        }
        // Install the new version, then notify — commit order.
        let o = orecs.at(3);
        assert!(o.try_lock(o.snapshot(), ThreadId::from_u16(2)));
        o.unlock_commit(ThreadId::from_u16(2), 8);
        wl.notify_commit(&[3]);
        assert_eq!(waiter.join().unwrap(), RetryWaitOutcome::Woken);
        let stats = wl.stats();
        assert_eq!(stats.woken, 1);
        assert_eq!(stats.wakes_issued, 1);
        assert_eq!(stats.threads_woken, 1);
    }

    #[test]
    fn commit_to_an_unwatched_bucket_is_a_single_load() {
        let wl = StripeWaitlist::new(64);
        // No waiters anywhere: notify must do nothing (and count nothing).
        wl.notify_commit(&[0, 1, 2, 3]);
        assert_eq!(wl.stats().wakes_issued, 0);
    }

    #[test]
    fn empty_plan_waits_out_the_deadline() {
        // A retry with an empty read set can never be woken; the bounded
        // deadline is what keeps it from blocking forever.
        let wl = StripeWaitlist::new(64);
        let orecs = OrecTable::new(64);
        let parker = Arc::new(EventCount::new());
        let deadline = Instant::now() + Duration::from_millis(10);
        let outcome = wl.wait(&orecs, &[], &parker, deadline);
        assert_eq!(outcome, RetryWaitOutcome::TimedOut);
    }

    #[test]
    fn deregistration_leaves_no_residue() {
        let wl = StripeWaitlist::new(64);
        let orecs = OrecTable::new(64);
        let parker = Arc::new(EventCount::new());
        let _ = wl.wait(
            &orecs,
            &[(1, 0), (2, 0)],
            &parker,
            Instant::now() + Duration::from_millis(5),
        );
        for bucket in wl.buckets.iter() {
            assert_eq!(bucket.waiters.load(Ordering::SeqCst), 0);
            assert!(bucket.list.lock().is_empty());
        }
        // A later commit wakes nobody and wastes nothing.
        wl.notify_commit(&[1, 2]);
        assert_eq!(wl.stats().wakes_issued, 0);
        assert_eq!(wl.stats().wasted_wakes, 0);
    }
}
