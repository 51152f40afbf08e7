//! Deterministic, seeded fault injection for the runtime's hazard sites.
//!
//! Every place where the runtime manipulates shared liveness state — orec
//! acquire/release, the commit version-install window, waitlist
//! register/validate/wake, the scheduler hook bracket, `EventCount`
//! park/wake, and attempt-epoch advance/retire — carries a
//! [`failpoint!`](crate::failpoint) probe. With the `faults` cargo feature
//! **off** (the default) every probe compiles to a `const false` and the
//! instrumented code is byte-identical to uninstrumented code. With the
//! feature **on**, an installed `ScheduleBuilder` schedule injects, from a
//! seeded deterministic stream:
//!
//! * **delays** — a short sleep, widening race windows;
//! * **spurious aborts** — the probe reports "abort here" at sites that are
//!   allowed to fail with [`AbortReason::FaultInjected`](crate::AbortReason);
//! * **spurious wakeups** — parked paths return as if woken without a
//!   matching notify, exercising the re-validation loops;
//! * **panics** — `panic!` unwinds out of the site, exercising the RAII
//!   drop-guards that keep the runtime reusable.
//!
//! # Seeding and replay
//!
//! Schedules are pure functions of `(seed, site, thread lane, per-thread hit
//! counter)`, so a given seed replays the same decision stream on every run
//! of the same interleaving. Install one programmatically:
//!
//! ```ignore
//! let _guard = shrink_stm::faults::ScheduleBuilder::new(42)
//!     .rate_per_mille(25)
//!     .sites(&[shrink_stm::FaultSite::CommitInstall])
//!     .kinds(&[shrink_stm::FaultKind::Panic])
//!     .install();
//! ```
//!
//! or ambiently through the environment (picked up on the first probe):
//!
//! ```text
//! SHRINK_FAULTS=<seed>[,rate=<per-mille>][,sites=<name>+<name>|all][,kinds=delay+abort+wake+panic]
//! ```
//!
//! Injection never fires while the current thread is already panicking
//! (probes on unwind/cleanup paths stay inert), and sites are masked to the
//! fault kinds they can absorb safely — e.g. the commit install loop itself
//! is never interrupted, only the window before it, so atomicity of
//! installed writes is preserved by construction.

use std::fmt;

/// Instrumented hazard sites (the failpoint catalog).
///
/// Each variant names one probe location; DESIGN.md §11 documents what each
/// site guards and which fault kinds it accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FaultSite {
    /// `Tx` taking a stripe lock (encounter-time orec acquisition).
    OrecAcquire = 0,
    /// Rollback releasing owned stripes (runs on drop/unwind paths).
    OrecRelease = 1,
    /// `try_commit` after read-set validation, before the first value
    /// install — commit locks are held, nothing is published yet.
    CommitInstall = 2,
    /// A retry wait (thread, future or cross-runtime select) about to
    /// register on the stripe waitlists, before any bucket is touched.
    WaitRegister = 3,
    /// The lost-wakeup re-validation between waitlist registration and the
    /// park (spurious wake here skips the park entirely).
    WaitValidate = 4,
    /// A committer waking stripe waiters in `notify_commit`.
    WaitWake = 5,
    /// After the scheduler's `before_start` hook returned (serialization
    /// may be held).
    SchedBeforeStart = 6,
    /// After the scheduler's `on_finish(Committed)` hook returned.
    SchedOnCommit = 7,
    /// After the scheduler's `on_finish(Aborted)` hook returned.
    SchedOnAbort = 8,
    /// After the scheduler's `on_finish(RetryWait)` hook returned.
    SchedOnRetryWait = 9,
    /// An `EventCount` park (a thread's retry-wait or select parker, or an
    /// attempt-epoch wait); spurious wake here returns as if notified.
    EventPark = 10,
    /// An `EventCount` advance waking waiters (attempt-epoch bump).
    EventWake = 11,
    /// `finish_attempt` advancing the thread's attempt epoch.
    EpochAdvance = 12,
    /// Thread exit retiring its epoch slot (runs in a TLS destructor).
    EpochRetire = 13,
    /// `Tx::read_with` or `ReadTx::read_with` between confirming a stripe
    /// newer than the snapshot and the timestamp extension's clock sample —
    /// the window in which a commit to that stripe makes the loaded value
    /// stale.
    ReadExtend = 14,
}

/// What an active schedule may inject at a site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Sleep a few microseconds, widening race windows.
    Delay,
    /// Fail the operation with [`AbortReason::FaultInjected`](crate::AbortReason).
    SpuriousAbort,
    /// Return from a park/validate as if woken without a notify.
    SpuriousWake,
    /// `panic!` out of the site.
    Panic,
}

impl FaultKind {
    #[cfg_attr(not(feature = "faults"), allow(dead_code))]
    const ALL: [FaultKind; 4] = [
        FaultKind::Delay,
        FaultKind::SpuriousAbort,
        FaultKind::SpuriousWake,
        FaultKind::Panic,
    ];

    fn bit(self) -> u8 {
        match self {
            FaultKind::Delay => 1,
            FaultKind::SpuriousAbort => 2,
            FaultKind::SpuriousWake => 4,
            FaultKind::Panic => 8,
        }
    }

    /// The name used in `SHRINK_FAULTS` specs: `delay`, `abort`, `wake`,
    /// `panic`.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Delay => "delay",
            FaultKind::SpuriousAbort => "abort",
            FaultKind::SpuriousWake => "wake",
            FaultKind::Panic => "panic",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FaultSite {
    /// Every instrumented site, in catalog order.
    pub const ALL: [FaultSite; 15] = [
        FaultSite::OrecAcquire,
        FaultSite::OrecRelease,
        FaultSite::CommitInstall,
        FaultSite::WaitRegister,
        FaultSite::WaitValidate,
        FaultSite::WaitWake,
        FaultSite::SchedBeforeStart,
        FaultSite::SchedOnCommit,
        FaultSite::SchedOnAbort,
        FaultSite::SchedOnRetryWait,
        FaultSite::EventPark,
        FaultSite::EventWake,
        FaultSite::EpochAdvance,
        FaultSite::EpochRetire,
        FaultSite::ReadExtend,
    ];

    #[cfg_attr(not(feature = "faults"), allow(dead_code))]
    fn bit(self) -> u32 {
        1u32 << (self as u8)
    }

    /// Bitmask of [`FaultKind`]s this site can absorb without corrupting
    /// runtime invariants. Sites on unwind/cleanup paths (release, retire)
    /// accept only delays; sites between waitlist registration and
    /// deregistration accept wakes but never panics; sites before any state
    /// is published accept the full menu.
    fn allowed_kinds(self) -> u8 {
        const D: u8 = 1;
        const A: u8 = 2;
        const W: u8 = 4;
        const P: u8 = 8;
        match self {
            FaultSite::OrecAcquire | FaultSite::CommitInstall => D | A | P,
            FaultSite::OrecRelease | FaultSite::EventWake | FaultSite::ReadExtend => D,
            FaultSite::WaitRegister | FaultSite::WaitWake => D | P,
            FaultSite::WaitValidate | FaultSite::EventPark => D | W,
            FaultSite::SchedBeforeStart
            | FaultSite::SchedOnCommit
            | FaultSite::SchedOnAbort
            | FaultSite::SchedOnRetryWait => D | P,
            FaultSite::EpochAdvance | FaultSite::EpochRetire => D,
        }
    }

    /// True when an active schedule may inject `kind` at this site.
    pub fn allows(self, kind: FaultKind) -> bool {
        self.allowed_kinds() & kind.bit() != 0
    }

    /// The name used in `SHRINK_FAULTS` specs and panic messages.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::OrecAcquire => "orec_acquire",
            FaultSite::OrecRelease => "orec_release",
            FaultSite::CommitInstall => "commit_install",
            FaultSite::WaitRegister => "wait_register",
            FaultSite::WaitValidate => "wait_validate",
            FaultSite::WaitWake => "wait_wake",
            FaultSite::SchedBeforeStart => "sched_before_start",
            FaultSite::SchedOnCommit => "sched_on_commit",
            FaultSite::SchedOnAbort => "sched_on_abort",
            FaultSite::SchedOnRetryWait => "sched_on_retry_wait",
            FaultSite::EventPark => "event_park",
            FaultSite::EventWake => "event_wake",
            FaultSite::EpochAdvance => "epoch_advance",
            FaultSite::EpochRetire => "epoch_retire",
            FaultSite::ReadExtend => "read_extend",
        }
    }

    #[cfg_attr(not(feature = "faults"), allow(dead_code))]
    fn from_name(name: &str) -> Option<FaultSite> {
        FaultSite::ALL.iter().copied().find(|s| s.name() == name)
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Probes a failpoint: returns `true` when the active fault schedule wants
/// the calling site to take its spurious-abort/spurious-wake branch.
/// Delays and panics happen inside the probe itself.
///
/// With the `faults` feature off this expands to a `const false` the
/// optimizer deletes, so instrumented code pays nothing in default builds.
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {
        $crate::faults::hit($site)
    };
}

/// Inert probe body used when the `faults` feature is off: always `false`,
/// resolved at compile time.
#[cfg(not(feature = "faults"))]
#[inline(always)]
pub const fn hit(_site: FaultSite) -> bool {
    false
}

#[cfg(feature = "faults")]
pub use active::{
    from_env, hit, parse_spec, pin_thread_stream, reset_stats, stats, FaultGuard, FaultStats,
    ScheduleBuilder,
};

#[cfg(feature = "faults")]
mod active {
    use super::{FaultKind, FaultSite};
    use std::cell::Cell;
    use std::fmt;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Once, PoisonError, RwLock};
    use std::time::Duration;

    #[derive(Debug)]
    struct Schedule {
        seed: u64,
        rate_per_mille: u32,
        sites_mask: u32,
        kinds_mask: u8,
    }

    /// Every update is one assignment, so a lock poisoned by a panicking
    /// holder still guards a valid schedule.
    static ACTIVE: RwLock<Option<Arc<Schedule>>> = RwLock::new(None);
    static ENV_ONCE: Once = Once::new();
    static NEXT_LANE: AtomicU64 = AtomicU64::new(0);

    static DELAYS: AtomicU64 = AtomicU64::new(0);
    static SPURIOUS_ABORTS: AtomicU64 = AtomicU64::new(0);
    static SPURIOUS_WAKES: AtomicU64 = AtomicU64::new(0);
    static PANICS: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        static LANE: Cell<u64> = const { Cell::new(u64::MAX) };
        static HITS: Cell<u64> = const { Cell::new(0) };
    }

    /// Counts of injected faults since the last [`reset_stats`], summed over
    /// all threads and sites. Lets tests assert a schedule actually fired
    /// and benchmarks prove one did not.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct FaultStats {
        /// Injected delays.
        pub delays: u64,
        /// Injected spurious aborts.
        pub spurious_aborts: u64,
        /// Injected spurious wakeups.
        pub spurious_wakes: u64,
        /// Injected panics.
        pub panics: u64,
    }

    impl FaultStats {
        /// Total injected faults of any kind.
        pub fn total(&self) -> u64 {
            self.delays + self.spurious_aborts + self.spurious_wakes + self.panics
        }
    }

    /// Snapshot of the global injected-fault counters.
    pub fn stats() -> FaultStats {
        FaultStats {
            delays: DELAYS.load(Ordering::Relaxed),
            spurious_aborts: SPURIOUS_ABORTS.load(Ordering::Relaxed),
            spurious_wakes: SPURIOUS_WAKES.load(Ordering::Relaxed),
            panics: PANICS.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the global injected-fault counters.
    pub fn reset_stats() {
        DELAYS.store(0, Ordering::Relaxed);
        SPURIOUS_ABORTS.store(0, Ordering::Relaxed);
        SPURIOUS_WAKES.store(0, Ordering::Relaxed);
        PANICS.store(0, Ordering::Relaxed);
    }

    /// Configures a fault schedule; [`install`](ScheduleBuilder::install)
    /// activates it for the scope of the returned guard.
    #[must_use = "a builder does nothing until .install() activates it"]
    #[derive(Clone, Debug)]
    pub struct ScheduleBuilder {
        seed: u64,
        rate_per_mille: u32,
        sites_mask: u32,
        kinds_mask: u8,
    }

    impl ScheduleBuilder {
        /// Starts a schedule from `seed`: every site, every kind, firing on
        /// 1% of probes (`rate_per_mille(10)`).
        pub fn new(seed: u64) -> Self {
            ScheduleBuilder {
                seed,
                rate_per_mille: 10,
                sites_mask: u32::MAX,
                kinds_mask: u8::MAX,
            }
        }

        /// The schedule's seed (for replay instructions in test output).
        pub fn seed(&self) -> u64 {
            self.seed
        }

        /// Probability, in thousandths, that an eligible probe injects.
        /// `1000` fires on every probe.
        #[must_use = "builder methods return the updated builder"]
        pub fn rate_per_mille(mut self, rate: u32) -> Self {
            self.rate_per_mille = rate.min(1000);
            self
        }

        /// Restricts injection to `sites` (default: all).
        #[must_use = "builder methods return the updated builder"]
        pub fn sites(mut self, sites: &[FaultSite]) -> Self {
            self.sites_mask = sites.iter().fold(0, |m, s| m | s.bit());
            self
        }

        /// Restricts injection to `kinds` (default: all). Each site further
        /// masks to the kinds it can absorb safely.
        #[must_use = "builder methods return the updated builder"]
        pub fn kinds(mut self, kinds: &[FaultKind]) -> Self {
            self.kinds_mask = kinds.iter().fold(0, |m, k| m | k.bit());
            self
        }

        fn schedule(&self) -> Arc<Schedule> {
            Arc::new(Schedule {
                seed: self.seed,
                rate_per_mille: self.rate_per_mille,
                sites_mask: self.sites_mask,
                kinds_mask: self.kinds_mask,
            })
        }

        /// Activates the schedule process-wide until the returned guard
        /// drops, which restores whatever schedule (possibly none) was
        /// active before.
        ///
        /// Any `SHRINK_FAULTS` ambient schedule is primed first, so a guard
        /// installed before the first probe still *displaces* the ambient
        /// schedule (and restores it on drop) instead of being clobbered by
        /// the lazy env initialization.
        pub fn install(self) -> FaultGuard {
            prime_env();
            let mut active = ACTIVE.write().unwrap_or_else(PoisonError::into_inner);
            let prev = active.replace(self.schedule());
            FaultGuard { prev }
        }
    }

    /// RAII scope for an installed schedule; dropping restores the
    /// previously active schedule.
    #[must_use = "dropping the guard immediately uninstalls the schedule"]
    #[derive(Debug)]
    pub struct FaultGuard {
        prev: Option<Arc<Schedule>>,
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            *ACTIVE.write().unwrap_or_else(PoisonError::into_inner) = self.prev.take();
        }
    }

    /// Parses a `SHRINK_FAULTS` spec:
    /// `<seed>[,rate=<per-mille>][,sites=<name>+…|all][,kinds=<name>+…|all]`.
    /// Returns `None` on any malformed field.
    pub fn parse_spec(spec: &str) -> Option<ScheduleBuilder> {
        let mut fields = spec.split(',');
        let seed: u64 = fields.next()?.trim().parse().ok()?;
        let mut builder = ScheduleBuilder::new(seed);
        for field in fields {
            let (key, value) = field.trim().split_once('=')?;
            match key {
                "rate" => builder = builder.rate_per_mille(value.parse().ok()?),
                "sites" if value == "all" => builder.sites_mask = u32::MAX,
                "sites" => {
                    let sites: Option<Vec<FaultSite>> =
                        value.split('+').map(FaultSite::from_name).collect();
                    builder = builder.sites(&sites?);
                }
                "kinds" if value == "all" => builder.kinds_mask = u8::MAX,
                "kinds" => {
                    let kinds: Option<Vec<FaultKind>> = value
                        .split('+')
                        .map(|n| FaultKind::ALL.iter().copied().find(|k| k.name() == n))
                        .collect();
                    builder = builder.kinds(&kinds?);
                }
                _ => return None,
            }
        }
        Some(builder)
    }

    /// The schedule described by the `SHRINK_FAULTS` environment variable,
    /// if set and well-formed. The first probe of the process installs this
    /// automatically; tests use it to pick up the CI-provided seed.
    pub fn from_env() -> Option<ScheduleBuilder> {
        std::env::var("SHRINK_FAULTS")
            .ok()
            .and_then(|s| parse_spec(&s))
    }

    /// Pins the calling thread's probe lane and resets its hit counter, so
    /// a probe stream replays independently of thread spawn order. Test
    /// harness helper; normal threads draw lanes automatically.
    pub fn pin_thread_stream(lane: u64) {
        LANE.with(|l| l.set(lane));
        HITS.with(|h| h.set(0));
    }

    /// One-time installation of the `SHRINK_FAULTS` ambient schedule. Runs
    /// before the first probe decides and before any guard install, so the
    /// guard stack always sits *on top of* the ambient schedule.
    fn prime_env() {
        ENV_ONCE.call_once(|| {
            if let Some(builder) = from_env() {
                *ACTIVE.write().unwrap_or_else(PoisonError::into_inner) = Some(builder.schedule());
            }
        });
    }

    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Live probe body: decides deterministically from
    /// `(seed, site, lane, hit counter)` whether and what to inject.
    /// See [`failpoint!`](crate::failpoint).
    pub fn hit(site: FaultSite) -> bool {
        // Probes on unwind paths (rollback, guard drops) must stay inert
        // while a panic is already in flight: a second panic would abort
        // the process and delays would only slow the cleanup under test.
        if std::thread::panicking() {
            return false;
        }
        prime_env();
        let Some(sched) = ACTIVE
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
        else {
            return false;
        };
        if sched.sites_mask & site.bit() == 0 {
            return false;
        }
        let kinds_mask = sched.kinds_mask & site.allowed_kinds();
        if kinds_mask == 0 {
            return false;
        }
        let lane = LANE.with(|l| {
            if l.get() == u64::MAX {
                l.set(NEXT_LANE.fetch_add(1, Ordering::Relaxed));
            }
            l.get()
        });
        let n = HITS.with(|h| {
            let n = h.get();
            h.set(n + 1);
            n
        });
        let x = splitmix64(
            sched.seed
                ^ (site as u64).wrapping_mul(0xA24B_AED4_963E_E407)
                ^ lane.wrapping_mul(0x9FB2_1C65_1E98_DF25)
                ^ n,
        );
        if (x % 1000) as u32 >= sched.rate_per_mille {
            return false;
        }
        let candidates: Vec<FaultKind> = FaultKind::ALL
            .iter()
            .copied()
            .filter(|k| kinds_mask & k.bit() != 0)
            .collect();
        let pick = candidates[((x >> 32) as usize) % candidates.len()];
        match pick {
            FaultKind::Delay => {
                DELAYS.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(1 + (x >> 40) % 50));
                false
            }
            FaultKind::SpuriousAbort => {
                SPURIOUS_ABORTS.fetch_add(1, Ordering::Relaxed);
                true
            }
            FaultKind::SpuriousWake => {
                SPURIOUS_WAKES.fetch_add(1, Ordering::Relaxed);
                true
            }
            FaultKind::Panic => {
                PANICS.fetch_add(1, Ordering::Relaxed);
                panic!(
                    "fault injection: forced panic at {} (seed {}, lane {lane}, hit {n}); \
                     replay with SHRINK_FAULTS={}",
                    site.name(),
                    sched.seed,
                    sched.seed,
                )
            }
        }
    }

    impl fmt::Display for FaultStats {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(
                f,
                "faults injected: {} delays, {} spurious aborts, {} spurious wakes, {} panics",
                self.delays, self.spurious_aborts, self.spurious_wakes, self.panics
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_roundtrip() {
        for (i, a) in FaultSite::ALL.iter().enumerate() {
            for b in &FaultSite::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
        assert_eq!(FaultSite::ALL.len(), 15);
    }

    #[test]
    fn kind_masks_respect_unwind_safety() {
        // Sites that run during drops/unwinds must never panic or abort;
        // nor may the pure race-window widener in `Tx::read`.
        for site in [
            FaultSite::OrecRelease,
            FaultSite::EventWake,
            FaultSite::EpochAdvance,
            FaultSite::EpochRetire,
            FaultSite::ReadExtend,
        ] {
            assert!(site.allows(FaultKind::Delay), "{site}");
            assert!(!site.allows(FaultKind::Panic), "{site}");
            assert!(!site.allows(FaultKind::SpuriousAbort), "{site}");
        }
        // The registered-but-not-yet-deregistered window tolerates wakes
        // only — a panic there would leak a waitlist registration; before
        // registration a panic is fine.
        assert!(FaultSite::WaitValidate.allows(FaultKind::SpuriousWake));
        assert!(!FaultSite::WaitValidate.allows(FaultKind::Panic));
        assert!(FaultSite::EventPark.allows(FaultKind::SpuriousWake));
        assert!(!FaultSite::EventPark.allows(FaultKind::Panic));
        assert!(FaultSite::WaitRegister.allows(FaultKind::Panic));
        // Full menu where nothing is published yet.
        assert!(FaultSite::CommitInstall.allows(FaultKind::Panic));
        assert!(FaultSite::CommitInstall.allows(FaultKind::SpuriousAbort));
    }

    #[cfg(not(feature = "faults"))]
    #[test]
    fn inert_probe_is_const_false() {
        // Compile-time proof of the zero-cost claim: with the feature off
        // a probe is a constant `false` the optimizer deletes.
        const { assert!(!hit(FaultSite::OrecAcquire)) }
    }

    #[cfg(feature = "faults")]
    #[test]
    fn spec_grammar_parses_and_rejects() {
        let b = active::parse_spec("42,rate=25,sites=commit_install+orec_acquire,kinds=panic")
            .expect("well-formed spec");
        assert_eq!(b.seed(), 42);
        assert!(active::parse_spec("").is_none());
        assert!(active::parse_spec("7,bogus=1").is_none());
        assert!(active::parse_spec("7,sites=nope").is_none());
        assert!(active::parse_spec("7,kinds=explode").is_none());
        let _ = active::parse_spec("9,sites=all,kinds=all").expect("all is accepted");
    }

    #[cfg(feature = "faults")]
    #[test]
    fn same_seed_same_decisions() {
        // Determinism probe: two passes over the same (site, counter)
        // stream under the same seed must agree. Uses a private rate of
        // 1000 so every probe decides *something*, and kinds=delay so the
        // decisions are side-effect-observable without unwinding.
        let run = || {
            let _g = ScheduleBuilder::new(7)
                .rate_per_mille(500)
                .kinds(&[FaultKind::SpuriousAbort])
                .sites(&[FaultSite::OrecAcquire, FaultSite::CommitInstall])
                .install();
            // Pin the lane and zero the hit counter so both passes replay
            // the identical (seed, site, lane, counter) stream.
            pin_thread_stream(3);
            (0..64)
                .map(|i| {
                    let site = if i % 2 == 0 {
                        FaultSite::OrecAcquire
                    } else {
                        FaultSite::CommitInstall
                    };
                    hit(site)
                })
                .collect::<Vec<bool>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "seeded decision stream must replay identically");
        assert!(a.iter().any(|&x| x), "rate 500/1000 must fire sometimes");
        assert!(!a.iter().all(|&x| x), "…but not always");
    }
}
