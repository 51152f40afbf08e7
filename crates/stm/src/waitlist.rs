//! Per-stripe commit wait lists: the wake path behind [`Tx::retry`].
//!
//! A transaction that calls [`Tx::retry`](crate::Tx::retry) is saying "this
//! snapshot cannot proceed — run me again when it changes". The only events
//! that can change the snapshot are commits that write one of the stripes
//! the transaction read, so the runtime parks the waiter here until exactly
//! such a commit happens (or a bounded deadline passes).
//!
//! # Protocol
//!
//! The orec table's stripes are hashed down onto a fixed set of *wait
//! buckets* (aliasing produces spurious wakeups, never missed ones — the
//! same trade-off as the orec striping itself). Each bucket holds an exact
//! waiter count plus a list of registered `Parker`s.
//!
//! 1. `register` is the waiter half, and the only one: it registers the
//!    waiter's parker on every bucket its read set hashes to — on one
//!    runtime's waitlist, or on several for a cross-runtime select — and
//!    **then** validates every read snapshot against the live orec
//!    versions. A commit that raced ahead of the registration is caught by
//!    this validation; a commit that lands after it finds the parker
//!    registered and wakes it. A `SeqCst` fence on both sides closes the
//!    store-buffer window between "publish my registration" and "read your
//!    version stamp".
//! 2. If every snapshot is still current, the waiter sleeps. A thread
//!    (`park_thread`, used by `run` and by `retry_select`) parks on its
//!    parker — a single futex word, regardless of how many stripes or
//!    runtimes it watches — with a bounded deadline
//!    ([`TmConfig::retry_wait`]), then deregisters. A future returns
//!    `Poll::Pending` and deregisters when it is re-polled or dropped.
//! 3. The commit path calls `StripeWaitlist::notify_commit`
//!    with its written stripes *after* the new versions are installed. A
//!    bucket with zero waiters costs one atomic load; otherwise every
//!    registered parker is advanced (bump **and wake**).
//!
//! All waiting is futex/parker sleeping: the retry path contains no
//! `yield_now` poll loop at all, which is what the wait-op counters in
//! [`RetryStats`] let tests and the benchmark of record
//! (`stm.waitlist.*` cells) prove.
//!
//! # Two kinds of parker
//!
//! * `Parker::Thread` — an [`EventCount`]: the waiter is an OS thread
//!   that futex-sleeps until the count advances. Each thread has one,
//!   shared by every place it can block, since a thread parks in at most
//!   one place at a time.
//! * `Parker::Task` — an `AsyncParker`: the waiter is a *future*
//!   ([`TxFuture`](crate::future::TxFuture)) that returned `Poll::Pending`
//!   instead of blocking a thread. The commit-side advance bumps an atomic
//!   wake epoch and fires the stored [`Waker`], handing the task back to
//!   its executor.
//!
//! Both kinds share one bucket list, one registration protocol and one
//! wake point, so the lost-wakeup argument above covers them alike and
//! sync and async waiters on the same bucket are woken by the same commit.
//!
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

    /// Drops the stored waker without waking, leaving the epoch untouched
    /// (see [`StripeWaitlist::deregister`]).
    fn clear_waker(&self) {
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
#[derive(Clone)]
pub(crate) enum Parker {
    /// A thread blocked in [`park_thread`].
    Thread(Arc<EventCount>),
    /// A suspended [`TxFuture`](crate::future::TxFuture).
    Task(Arc<AsyncParker>),
}

impl Parker {
    /// Identity, not equality: registrations are found by pointer.
    fn is(&self, other: &Parker) -> bool {
        match (self, other) {
            (Parker::Thread(a), Parker::Thread(b)) => Arc::ptr_eq(a, b),
            (Parker::Task(a), Parker::Task(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

thread_local! {
    /// The calling thread's parker, shared by `run` and `retry_select`
    /// alike: registrations hold clones, and a thread parks in at most one
    /// place at a time (it runs no transaction body while registered).
    static THREAD_PARKER: Arc<EventCount> = Arc::new(EventCount::new());
}

/// The waiter-side counters of thread wait rounds, booked by
/// [`park_thread`]. Each runtime's waitlist owns one set (reported in its
/// [`RetryStats`]); the cross-runtime select books into a process-global
/// one.
#[derive(Debug)]
pub(crate) struct WaitCounters {
    /// Rounds that parked on the futex. Booked just before the sleep, so a
    /// non-zero value proves a waiter is (about to be) parked.
    pub(crate) parked: AtomicU64,
    /// Rounds ended by a committer's wake.
    pub(crate) woken: AtomicU64,
    /// Rounds where validation caught a change before any sleep.
    pub(crate) changed_before_park: AtomicU64,
    /// Parked rounds that expired with the snapshot unchanged.
    pub(crate) timed_out: AtomicU64,
}

impl WaitCounters {
    pub(crate) const fn new() -> Self {
        WaitCounters {
            parked: AtomicU64::new(0),
            woken: AtomicU64::new(0),
            changed_before_park: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
        }
    }
}

/// One arm of a retry wait: the waitlist and orec table of a runtime whose
/// commits can end the wait, and the deduplicated `(stripe, observed
/// version)` pairs the waiter read there.
#[derive(Clone, Copy)]
pub(crate) struct WaitArm<'a> {
    pub(crate) waitlist: &'a StripeWaitlist,
    pub(crate) orecs: &'a OrecTable,
    pub(crate) plan: &'a [(usize, u64)],
}

/// The waiter half of the lost-wakeup protocol, shared by every way of
/// blocking in [`Tx::retry`](crate::Tx::retry): probe, register `parker` on
/// the buckets of every arm, one `SeqCst` fence, validate every arm.
///
/// Returns the bucket indices holding the registration, one set per arm,
/// which the caller must later hand to
/// [`deregister`](StripeWaitlist::deregister) on the same arm. Returns
/// `None` when validation caught a change: the registration is then
/// already withdrawn and the caller should re-run at once.
///
/// A future must store its waker in `parker` **before** calling (see
/// [`AsyncParker`]'s ordering note).
pub(crate) fn register(arms: &[WaitArm<'_>], parker: &Parker) -> Option<Vec<Vec<usize>>> {
    // Probed before any bucket is touched, so an injected panic here
    // cannot leak a registration on any runtime.
    let _ = crate::failpoint!(FaultSite::WaitRegister);
    let buckets: Vec<Vec<usize>> = arms
        .iter()
        .map(|arm| arm.waitlist.enlist(arm.plan, parker))
        .collect();
    // Pairs with the fence in `notify_commit`: a commit on any arm's
    // runtime either sees the registration above, or the validation below
    // sees its version stamps. Without it both sides could read stale
    // state and the wake would be lost for a full deadline round. One
    // fence orders this thread's registrations against *all* the commit
    // sides — the pairing is per-runtime, the fence is not.
    fence(Ordering::SeqCst);
    // Registered-but-not-deregistered window until the caller deregisters:
    // only delays and forced spurious wakeups may be injected there (a
    // panic would leak the registration). `WaitValidate` makes the
    // validation claim a change, exercising the re-run loop.
    let changed = crate::failpoint!(FaultSite::WaitValidate)
        || arms
            .iter()
            .any(|arm| StripeWaitlist::changed(arm.orecs, arm.plan));
    if changed {
        for (arm, held) in arms.iter().zip(&buckets) {
            arm.waitlist.deregister(held, parker);
        }
        return None;
    }
    Some(buckets)
}

/// One bounded retry-wait round of the calling thread over `arms`:
/// [`register`] its parker, sleep until a commit on any arm advances it or
/// `deadline` passes, deregister. How the round ended (a change caught
/// before parking, a wake, or the deadline) is booked into `counters`.
pub(crate) fn park_thread(arms: &[WaitArm<'_>], deadline: Instant, counters: &WaitCounters) {
    let event = THREAD_PARKER.with(Arc::clone);
    let observed = event.version();
    let parker = Parker::Thread(Arc::clone(&event));
    let Some(buckets) = register(arms, &parker) else {
        counters.changed_before_park.fetch_add(1, Ordering::Relaxed);
        return;
    };
    // `EventPark` skips the park as if notified, exercising the caller's
    // revalidate-and-re-run loop.
    if crate::failpoint!(FaultSite::EventPark) {
        counters.woken.fetch_add(1, Ordering::Relaxed);
    } else {
        counters.parked.fetch_add(1, Ordering::Relaxed);
        match event.wait_while_eq(observed, Some(deadline)) {
            WaitOutcome::Advanced => counters.woken.fetch_add(1, Ordering::Relaxed),
            WaitOutcome::TimedOut => counters.timed_out.fetch_add(1, Ordering::Relaxed),
        };
    }
    for (arm, held) in arms.iter().zip(&buckets) {
        arm.waitlist.deregister(held, &parker);
    }
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
    /// Futures suspended with a registered `AsyncParker` (the async
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
    /// Thread rounds on this runtime (`run` and its siblings), plus the
    /// futures whose registration caught a change.
    pub(crate) waits: WaitCounters,
    wakes_issued: AtomicU64,
    threads_woken: AtomicU64,
    wasted_wakes: AtomicU64,
    /// Futures suspended on this waitlist.
    pub(crate) async_parks: AtomicU64,
    /// Suspended futures resumed by a wake-epoch advance.
    pub(crate) async_woken: AtomicU64,
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
            waits: WaitCounters::new(),
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
    /// should re-run rather than sleep.
    fn changed(orecs: &OrecTable, plan: &[(usize, u64)]) -> bool {
        plan.iter().any(|&(idx, version)| {
            let snap = orecs.at(idx).snapshot();
            snap.version() != version || snap.committing()
        })
    }

    /// Adds `parker` to the buckets of `plan` — the registration step of
    /// [`register`]. Returns the deduplicated bucket indices it holds.
    fn enlist(&self, plan: &[(usize, u64)], parker: &Parker) -> Vec<usize> {
        let mut buckets: Vec<usize> = plan.iter().map(|&(s, _)| s & self.mask).collect();
        buckets.sort_unstable();
        buckets.dedup();
        for &b in &buckets {
            let bucket = &self.buckets[b];
            bucket.waiters.fetch_add(1, Ordering::SeqCst);
            bucket.list.lock().push(parker.clone());
        }
        buckets
    }

    /// Removes `parker` from `buckets` (one set returned by [`register`])
    /// and drops a future's stored waker, so a cancelled future does not
    /// keep its executor task alive through the parker. Removal is by
    /// pointer identity, so deregistering after a concurrent commit already
    /// woke the parker is harmless.
    pub(crate) fn deregister(&self, buckets: &[usize], parker: &Parker) {
        for &b in buckets {
            let bucket = &self.buckets[b];
            {
                let mut list = bucket.list.lock();
                if let Some(pos) = list.iter().position(|p| p.is(parker)) {
                    list.swap_remove(pos);
                }
            }
            bucket.waiters.fetch_sub(1, Ordering::SeqCst);
        }
        if let Parker::Task(task) = parker {
            task.clear_waker();
        }
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
    /// Costs one atomic load per written stripe when nobody is waiting.
    pub(crate) fn notify_commit(&self, stripes: &[usize]) {
        if stripes.is_empty() {
            return;
        }
        // A panic injected here unwinds out of a commit whose values are
        // already durable: waiters miss this wake but revalidate on their
        // bounded deadline, so the system degrades to a delayed wakeup
        // rather than a lost one.
        let _ = crate::failpoint!(FaultSite::WaitWake);
        // Pairs with the fence in `register` (see there).
        fence(Ordering::SeqCst);
        for (i, &stripe) in stripes.iter().enumerate() {
            let b = stripe & self.mask;
            let bucket = &self.buckets[b];
            if bucket.waiters.load(Ordering::SeqCst) == 0 {
                continue;
            }
            // Dedup without allocating, and only among buckets with
            // waiters: a large write set without waiters costs one load
            // per stripe, not a quadratic scan. (A bucket skipped earlier
            // for having no waiters is skipped here too: a waiter that
            // registered since then validates after the fence above and
            // sees this commit's versions, so it does not park.)
            if stripes[..i].iter().any(|&prev| prev & self.mask == b) {
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
                list.clone()
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
            parked_waits: self.waits.parked.load(Ordering::Relaxed),
            woken: self.waits.woken.load(Ordering::Relaxed),
            timed_out: self.waits.timed_out.load(Ordering::Relaxed),
            changed_before_park: self.waits.changed_before_park.load(Ordering::Relaxed),
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

    /// One thread round on a single-arm wait, booked into `wl`'s counters.
    fn wait(wl: &StripeWaitlist, orecs: &OrecTable, plan: &[(usize, u64)], deadline: Instant) {
        let arm = WaitArm {
            waitlist: wl,
            orecs,
            plan,
        };
        park_thread(&[arm], deadline, &wl.waits);
    }

    fn assert_no_residue(wl: &StripeWaitlist) {
        for bucket in wl.buckets.iter() {
            assert_eq!(bucket.waiters.load(Ordering::SeqCst), 0);
            assert!(bucket.list.lock().is_empty());
        }
    }

    #[test]
    fn stale_plan_is_caught_before_parking() {
        let wl = StripeWaitlist::new(64);
        let orecs = table_with_version(3, 7);
        // Observed version 6, stripe already at 7: no sleep.
        let far = Instant::now() + Duration::from_secs(30);
        wait(&wl, &orecs, &[(3, 6)], far);
        let stats = wl.stats();
        assert_eq!(stats.changed_before_park, 1);
        assert_eq!(stats.parked_waits, 0);
        assert_eq!(stats.woken, 0);
        assert_eq!(stats.timed_out, 0);
        assert_no_residue(&wl);
    }

    #[test]
    fn one_stale_arm_withdraws_the_registration_from_every_arm() {
        let (wl_a, wl_b) = (StripeWaitlist::new(64), StripeWaitlist::new(64));
        let fresh = table_with_version(3, 7);
        let stale = table_with_version(5, 9);
        let arms = [
            WaitArm {
                waitlist: &wl_a,
                orecs: &fresh,
                plan: &[(3, 7)],
            },
            WaitArm {
                waitlist: &wl_b,
                orecs: &stale,
                plan: &[(5, 8)],
            },
        ];
        let parker = Parker::Thread(Arc::new(EventCount::new()));
        assert!(register(&arms, &parker).is_none());
        assert_no_residue(&wl_a);
        assert_no_residue(&wl_b);
    }

    #[test]
    fn unchanged_plan_times_out_at_the_deadline() {
        let wl = StripeWaitlist::new(64);
        let orecs = table_with_version(3, 7);
        let deadline = Instant::now() + Duration::from_millis(20);
        wait(&wl, &orecs, &[(3, 7)], deadline);
        assert!(Instant::now() >= deadline, "must not report expiry early");
        let stats = wl.stats();
        assert_eq!(stats.parked_waits, 1);
        assert_eq!(stats.timed_out, 1);
        assert_eq!(stats.woken, 0);
        assert_eq!(stats.changed_before_park, 0);
    }

    #[test]
    fn commit_to_a_watched_stripe_wakes_the_parker() {
        let wl = Arc::new(StripeWaitlist::new(64));
        let orecs = Arc::new(table_with_version(3, 7));
        let (send, recv) = std::sync::mpsc::channel();
        let waiter = {
            let wl = Arc::clone(&wl);
            let orecs = Arc::clone(&orecs);
            std::thread::spawn(move || {
                send.send(THREAD_PARKER.with(Arc::clone)).unwrap();
                wait(
                    &wl,
                    &orecs,
                    &[(3, 7)],
                    Instant::now() + Duration::from_secs(30),
                )
            })
        };
        // Deterministic handshake: the waiter's own parker count proves it
        // is inside the futex path before the "commit" fires.
        let parker = recv.recv().unwrap();
        while parker.waiters() == 0 {
            std::thread::yield_now();
        }
        // Install the new version, then notify — commit order.
        let o = orecs.at(3);
        assert!(o.try_lock(o.snapshot(), ThreadId::from_u16(2)));
        o.unlock_commit(ThreadId::from_u16(2), 8);
        wl.notify_commit(&[3]);
        waiter.join().unwrap();
        let stats = wl.stats();
        assert_eq!(stats.woken, 1);
        assert_eq!(stats.timed_out, 0);
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
    fn a_large_commit_wakes_one_waiter_once() {
        let wl = StripeWaitlist::new(64);
        let parker = Parker::Task(Arc::new(AsyncParker::new()));
        let held = wl.enlist(&[(3, 0)], &parker);
        // 1024 written stripes alias bucket 3 sixteen times over.
        let stripes: Vec<usize> = (0..1024).collect();
        wl.notify_commit(&stripes);
        assert_eq!(wl.stats().wakes_issued, 1);
        wl.deregister(&held, &parker);
        assert_no_residue(&wl);
    }

    #[test]
    fn empty_plan_waits_out_the_deadline() {
        // A retry with an empty read set can never be woken; the bounded
        // deadline is what keeps it from blocking forever.
        let wl = StripeWaitlist::new(64);
        let orecs = OrecTable::new(64);
        let deadline = Instant::now() + Duration::from_millis(10);
        wait(&wl, &orecs, &[], deadline);
        let stats = wl.stats();
        assert_eq!(stats.parked_waits, 1);
        assert_eq!(stats.timed_out, 1);
        assert_eq!(stats.woken, 0);
    }

    #[test]
    fn deregistration_leaves_no_residue() {
        let wl = StripeWaitlist::new(64);
        let orecs = OrecTable::new(64);
        let soon = Instant::now() + Duration::from_millis(5);
        wait(&wl, &orecs, &[(1, 0), (2, 0)], soon);
        assert_no_residue(&wl);
        // A later commit wakes nobody and wastes nothing.
        wl.notify_commit(&[1, 2]);
        assert_eq!(wl.stats().wakes_issued, 0);
        assert_eq!(wl.stats().wasted_wakes, 0);
    }
}
