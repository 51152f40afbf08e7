//! An STMBench7-like CAD benchmark.
//!
//! STMBench7 (Guerraoui, Kapałka & Vitek, EuroSys 2007) models a CAD/CAM
//! in-memory database: a module whose *complex assemblies* form a tree,
//! whose leaf *base assemblies* reference *composite parts* from a shared
//! pool; each composite part owns a *document* and a graph of *atomic
//! parts*; indexes map part ids to their composites. Operations are grouped
//! into read-only traversals/queries and structural modifications, mixed in
//! three flavours (read-dominated 90/10, read-write 60/40, write-dominated
//! 10/90). Following the paper's setup, long traversals are off.
//!
//! This port is structurally faithful but scaled (the conflict structure —
//! hot index paths, shared assembly spine, per-composite part graphs — is
//! what drives scheduling behaviour, not absolute object counts). See
//! DESIGN.md §4 for the substitution record.

mod ops;

use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shrink_stm::{TVar, TmRuntime};

use crate::harness::TxWorkload;
use crate::rbtree::TxRbTree;

/// Sizing knobs for the object graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sb7Config {
    /// Depth of the complex-assembly tree (≥ 1).
    pub assembly_levels: u32,
    /// Children per complex assembly.
    pub assembly_fanout: u32,
    /// Size of the shared composite-part pool.
    pub composite_pool: u32,
    /// Composite parts referenced by each base assembly.
    pub composites_per_base: u32,
    /// Atomic parts initially in each composite part.
    pub parts_per_composite: u32,
    /// Outgoing connections per atomic part.
    pub connections_per_part: u32,
    /// Enable the long traversals (T1): whole-design read-only walks. The
    /// paper runs all figures with long traversals **off**, which is the
    /// default here; the operation is implemented for completeness.
    pub long_traversals: bool,
}

impl Default for Sb7Config {
    fn default() -> Self {
        Sb7Config {
            assembly_levels: 4,
            assembly_fanout: 3,
            composite_pool: 64,
            composites_per_base: 3,
            parts_per_composite: 16,
            connections_per_part: 3,
            long_traversals: false,
        }
    }
}

impl Sb7Config {
    /// A miniature graph for unit tests.
    pub fn tiny() -> Self {
        Sb7Config {
            assembly_levels: 2,
            assembly_fanout: 2,
            composite_pool: 4,
            composites_per_base: 2,
            parts_per_composite: 6,
            connections_per_part: 2,
            long_traversals: false,
        }
    }
}

/// The three STMBench7 operation mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sb7Mix {
    /// 90 % read operations, 10 % writes.
    ReadDominated,
    /// 60 % read operations, 40 % writes.
    ReadWrite,
    /// 10 % read operations, 90 % writes.
    WriteDominated,
}

impl Sb7Mix {
    /// Percentage of read-only operations in the mix.
    pub fn read_pct(self) -> u32 {
        match self {
            Sb7Mix::ReadDominated => 90,
            Sb7Mix::ReadWrite => 60,
            Sb7Mix::WriteDominated => 10,
        }
    }

    /// All three mixes, in the paper's presentation order.
    pub fn all() -> [Sb7Mix; 3] {
        [
            Sb7Mix::ReadDominated,
            Sb7Mix::ReadWrite,
            Sb7Mix::WriteDominated,
        ]
    }

    /// The label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            Sb7Mix::ReadDominated => "read-dominated",
            Sb7Mix::ReadWrite => "read-write",
            Sb7Mix::WriteDominated => "write-dominated",
        }
    }
}

impl fmt::Display for Sb7Mix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An atomic part: the leaves of the CAD graph.
#[derive(Debug)]
pub(crate) struct AtomicPart {
    pub(crate) id: u64,
    pub(crate) x: TVar<i64>,
    pub(crate) y: TVar<i64>,
    pub(crate) build_date: TVar<u64>,
    /// Outgoing connections (ids of other atomic parts in the same
    /// composite).
    pub(crate) to: TVar<Vec<u64>>,
}

impl AtomicPart {
    fn new(id: u64, seed: u64) -> Arc<Self> {
        Arc::new(AtomicPart {
            id,
            x: TVar::new(seed as i64 % 1000),
            y: TVar::new((seed / 7) as i64 % 1000),
            build_date: TVar::new(seed % 4096),
            to: TVar::new(Vec::new()),
        })
    }
}

/// A composite part: a document plus a connected graph of atomic parts.
#[derive(Debug)]
pub(crate) struct CompositePart {
    pub(crate) id: u64,
    pub(crate) doc_title: String,
    pub(crate) doc_text: TVar<Arc<String>>,
    pub(crate) root_part: TVar<u64>,
    /// The composite's atomic parts, and the only handles that keep them
    /// alive: a commit that drops a part from the list retires the old
    /// list, and the part dies with it once the epoch's grace period ends.
    pub(crate) parts: TVar<Vec<Arc<AtomicPart>>>,
}

/// A leaf assembly referencing composite parts from the shared pool.
#[derive(Debug)]
pub(crate) struct BaseAssembly {
    pub(crate) id: u64,
    pub(crate) components: TVar<Vec<u64>>,
}

/// An inner node of the assembly tree.
#[derive(Debug)]
pub(crate) struct ComplexAssembly {
    pub(crate) id: u64,
    /// Touched by every traversal through this node; bumped by structural
    /// modifications below it — the benchmark's hot shared spine.
    pub(crate) date: TVar<u64>,
    pub(crate) children: AssemblyChildren,
}

#[derive(Debug)]
pub(crate) enum AssemblyChildren {
    Complex(Vec<ComplexAssembly>),
    /// Indices into [`Sb7::base_assemblies`].
    Base(Vec<usize>),
}

/// The benchmark: object graph, indexes and operation mix.
pub struct Sb7 {
    pub(crate) config: Sb7Config,
    pub(crate) mix: Sb7Mix,
    pub(crate) composites: Vec<CompositePart>,
    pub(crate) design_root: ComplexAssembly,
    pub(crate) base_assemblies: Vec<BaseAssembly>,
    /// Atomic part id → owning composite id.
    pub(crate) part_index: TxRbTree,
    pub(crate) next_part_id: AtomicU64,
}

impl fmt::Debug for Sb7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sb7")
            .field("mix", &self.mix)
            .field("composites", &self.composites.len())
            .field("base_assemblies", &self.base_assemblies.len())
            .finish()
    }
}

impl Sb7 {
    /// Builds the object graph with transactions on `rt`.
    pub fn build(rt: &TmRuntime, config: Sb7Config, mix: Sb7Mix) -> Arc<Self> {
        let mut rng = StdRng::seed_from_u64(0x5B7);
        let part_index = TxRbTree::new();

        // Composite pool with per-composite atomic-part graphs.
        let mut next_part_id: u64 = 1;
        let composites: Vec<CompositePart> = (0..config.composite_pool as u64)
            .map(|cid| {
                let parts: Vec<Arc<AtomicPart>> = (0..config.parts_per_composite)
                    .map(|_| {
                        let id = next_part_id;
                        next_part_id += 1;
                        AtomicPart::new(id, rng.random())
                    })
                    .collect();
                // Ring + random chords: connected, bounded degree.
                for (i, part) in parts.iter().enumerate() {
                    let mut to = vec![parts[(i + 1) % parts.len()].id];
                    for _ in 1..config.connections_per_part {
                        to.push(parts[rng.random_range(0..parts.len())].id);
                    }
                    rt.run(|tx| tx.write(&part.to, to.clone()));
                }
                for part in &parts {
                    rt.run(|tx| part_index.insert(tx, part.id, cid));
                }
                CompositePart {
                    id: cid,
                    doc_title: format!("composite-{cid}"),
                    doc_text: TVar::new(Arc::new(format!("specification of composite part {cid}"))),
                    root_part: TVar::new(parts[0].id),
                    parts: TVar::new(parts),
                }
            })
            .collect();

        // Assembly tree.
        let mut next_assembly_id: u64 = 1;
        let mut base_assemblies = Vec::new();
        let design_root = Self::build_assembly(
            &config,
            &mut rng,
            &mut next_assembly_id,
            &mut base_assemblies,
            config.assembly_levels,
        );

        Arc::new(Sb7 {
            config,
            mix,
            composites,
            design_root,
            base_assemblies,
            part_index,
            next_part_id: AtomicU64::new(next_part_id),
        })
    }

    fn build_assembly(
        config: &Sb7Config,
        rng: &mut StdRng,
        next_id: &mut u64,
        bases: &mut Vec<BaseAssembly>,
        level: u32,
    ) -> ComplexAssembly {
        let id = *next_id;
        *next_id += 1;
        let children = if level <= 1 {
            let leaves: Vec<usize> = (0..config.assembly_fanout)
                .map(|_| {
                    let bid = *next_id;
                    *next_id += 1;
                    let components: Vec<u64> = (0..config.composites_per_base)
                        .map(|_| rng.random_range(0..config.composite_pool as usize) as u64)
                        .collect();
                    bases.push(BaseAssembly {
                        id: bid,
                        components: TVar::new(components),
                    });
                    bases.len() - 1
                })
                .collect();
            AssemblyChildren::Base(leaves)
        } else {
            AssemblyChildren::Complex(
                (0..config.assembly_fanout)
                    .map(|_| Self::build_assembly(config, rng, next_id, bases, level - 1))
                    .collect(),
            )
        };
        ComplexAssembly {
            id,
            date: TVar::new(0),
            children,
        }
    }

    /// The operation mix of this instance.
    pub fn mix(&self) -> Sb7Mix {
        self.mix
    }

    /// The sizing configuration the graph was built with.
    pub fn config(&self) -> &Sb7Config {
        &self.config
    }

    /// Runs the workload's consistency audit: one read-only transaction
    /// over the whole graph, so it may run while operations are in flight.
    ///
    /// # Errors
    ///
    /// Describes the violated invariant.
    pub fn audit(&self, rt: &TmRuntime) -> Result<(), String> {
        ops::audit(self, rt)
    }
}

/// [`TxWorkload`] adapter: one operation per step, drawn from the mix.
pub struct Sb7Workload {
    bench: Arc<Sb7>,
}

impl fmt::Debug for Sb7Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sb7Workload")
            .field("bench", &self.bench)
            .finish()
    }
}

impl Sb7Workload {
    /// Builds the benchmark graph and wraps it as a workload.
    pub fn new(rt: &TmRuntime, config: Sb7Config, mix: Sb7Mix) -> Self {
        Sb7Workload {
            bench: Sb7::build(rt, config, mix),
        }
    }

    /// The underlying benchmark.
    pub fn bench(&self) -> &Arc<Sb7> {
        &self.bench
    }
}

impl TxWorkload for Sb7Workload {
    fn step(&self, rt: &TmRuntime, _worker: usize, rng: &mut StdRng) {
        ops::step(&self.bench, rt, rng);
    }

    fn verify(&self, rt: &TmRuntime) -> Result<(), String> {
        self.bench.audit(rt)
    }

    fn name(&self) -> &'static str {
        "stmbench7"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Weak;
    use std::time::{Duration, Instant};

    use shrink_stm::sched::{AttemptEnd, SchedCtx, TxScheduler};
    use shrink_stm::VarId;

    /// Stress scaling: 1 in normal runs, larger under `SHRINK_STRESS=1`.
    fn stress_factor() -> u64 {
        match std::env::var("SHRINK_STRESS") {
            Ok(v) if !v.is_empty() && v != "0" => 4,
            _ => 1,
        }
    }

    fn indexed_parts(bench: &Sb7, rt: &TmRuntime) -> usize {
        rt.read_only(|tx| bench.part_index.len(tx))
    }

    /// Adds a weak handle, keyed by id, of every part the composites list
    /// now.
    fn watch_listed_parts(
        bench: &Sb7,
        rt: &TmRuntime,
        watched: &mut HashMap<u64, Weak<AtomicPart>>,
    ) {
        let listed = rt.read_only(|tx| {
            let mut listed = Vec::new();
            for composite in &bench.composites {
                tx.read_with(&composite.parts, |parts| {
                    listed.extend(parts.iter().map(|part| (part.id, Arc::downgrade(part))));
                })?;
            }
            Ok(listed)
        });
        watched.extend(listed);
    }

    /// Parts alive == parts indexed: once a grace period has passed with no
    /// operation in flight, a watched part is alive exactly when the index
    /// names it, so every removed part has died with the list that held it.
    /// `quiesce` frees only while no thread is pinned, and the other tests
    /// of this binary pin, so it is retried for a bounded time.
    fn assert_alive_is_indexed(
        bench: &Sb7,
        rt: &TmRuntime,
        watched: &HashMap<u64, Weak<AtomicPart>>,
    ) {
        bench.audit(rt).expect("graph must stay consistent");
        let indexed: HashSet<u64> = rt
            .read_only(|tx| bench.part_index.keys(tx))
            .into_iter()
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            shrink_stm::quiesce();
            let mismatched: Vec<u64> = watched
                .iter()
                .filter(|(id, part)| (part.strong_count() > 0) != indexed.contains(id))
                .map(|(&id, _)| id)
                .collect();
            if mismatched.is_empty() {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "{} parts are alive but not indexed, or indexed but dead, e.g. {:?}",
                mismatched.len(),
                &mismatched[..mismatched.len().min(8)]
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn build_produces_expected_shape() {
        let rt = TmRuntime::new();
        let bench = Sb7::build(&rt, Sb7Config::tiny(), Sb7Mix::ReadWrite);
        let cfg = *bench.config();
        assert_eq!(cfg, Sb7Config::tiny());
        assert_eq!(bench.composites.len(), cfg.composite_pool as usize);
        // levels=2, fanout=2 => 2 base assemblies under 2 complex nodes.
        assert_eq!(bench.base_assemblies.len(), 4);
        let expected_parts = (cfg.composite_pool * cfg.parts_per_composite) as usize;
        assert_eq!(indexed_parts(&bench, &rt), expected_parts);
        bench
            .audit(&rt)
            .expect("freshly built graph must audit clean");
    }

    #[test]
    fn mixes_have_documented_read_fractions() {
        assert_eq!(Sb7Mix::ReadDominated.read_pct(), 90);
        assert_eq!(Sb7Mix::ReadWrite.read_pct(), 60);
        assert_eq!(Sb7Mix::WriteDominated.read_pct(), 10);
        assert_eq!(Sb7Mix::all().len(), 3);
    }

    #[test]
    fn single_threaded_steps_keep_graph_consistent() {
        let rt = TmRuntime::new();
        let workload = Sb7Workload::new(&rt, Sb7Config::tiny(), Sb7Mix::WriteDominated);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..400 {
            workload.step(&rt, 0, &mut rng);
        }
        workload.verify(&rt).expect("graph must stay consistent");
    }

    #[test]
    fn long_traversals_run_when_enabled() {
        let rt = TmRuntime::new();
        let config = Sb7Config {
            long_traversals: true,
            ..Sb7Config::tiny()
        };
        let workload = Sb7Workload::new(&rt, config, Sb7Mix::ReadDominated);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            workload.step(&rt, 0, &mut rng);
        }
        workload.verify(&rt).expect("graph must stay consistent");
        // Read operations (T1 included) run as lock-free read-only
        // transactions; updates take the read-write path. 200 read-heavy
        // steps must complete as one or the other.
        let stats = rt.stats();
        assert!(stats.ro_commits + stats.commits >= 200);
        assert!(
            stats.ro_commits > stats.commits,
            "a read-dominated mix must mostly take the read-only path"
        );
    }

    #[test]
    fn concurrent_steps_keep_graph_consistent() {
        let rt = TmRuntime::new();
        let workload: Arc<dyn TxWorkload> =
            Arc::new(Sb7Workload::new(&rt, Sb7Config::tiny(), Sb7Mix::ReadWrite));
        crate::harness::run_fixed_steps(&rt, &workload, 4, 150, 0xAB);
        workload.verify(&rt).expect("graph must stay consistent");
    }

    /// The audit reads one snapshot of state that lives entirely in the
    /// STM, so every audit passes while writers run.
    #[test]
    fn audits_pass_while_writers_run() {
        let rt = TmRuntime::new();
        let workload = Sb7Workload::new(&rt, Sb7Config::tiny(), Sb7Mix::WriteDominated);
        let bench = Arc::clone(workload.bench());
        let workload: Arc<dyn TxWorkload> = Arc::new(workload);
        let writers_done = AtomicBool::new(false);
        let audits = std::thread::scope(|s| {
            let auditor = s.spawn(|| {
                let mut audits = 0u64;
                loop {
                    if let Err(e) = bench.audit(&rt) {
                        panic!("audit {audits} failed mid-flight: {e}");
                    }
                    audits += 1;
                    if writers_done.load(Ordering::Acquire) {
                        return audits;
                    }
                }
            });
            crate::harness::run_fixed_steps(&rt, &workload, 4, 20_000 * stress_factor(), 0xA0D1);
            writers_done.store(true, Ordering::Release);
            auditor.join().expect("auditor panicked")
        });
        assert!(audits > 1, "only {audits} audit ran");
    }

    /// Removed parts are freed: however long SM1/SM2 churn runs, the live
    /// parts are the indexed ones, not the history.
    #[test]
    fn removed_parts_die_with_their_list() {
        for config in [Sb7Config::tiny(), Sb7Config::default()] {
            let rt = TmRuntime::new();
            let workload = Sb7Workload::new(&rt, config, Sb7Mix::WriteDominated);
            let bench = Arc::clone(workload.bench());
            let built = indexed_parts(&bench, &rt);
            let mut watched = HashMap::new();

            // One thread, structural modifications only.
            let mut rng = StdRng::seed_from_u64(0x5B7);
            for i in 0..20_000 * stress_factor() {
                if i % 500 == 0 {
                    watch_listed_parts(&bench, &rt, &mut watched);
                }
                if rng.random_bool(0.5) {
                    ops::sm1_add_part(&bench, &rt, &mut rng);
                } else {
                    ops::sm2_remove_part(&bench, &rt, &mut rng);
                }
            }
            watch_listed_parts(&bench, &rt, &mut watched);
            assert!(
                watched.len() > built + 100,
                "too few parts came and went: {} watched",
                watched.len()
            );
            assert_alive_is_indexed(&bench, &rt, &watched);

            // Four threads, the whole write-dominated mix.
            let workload: Arc<dyn TxWorkload> = Arc::new(workload);
            crate::harness::run_fixed_steps(&rt, &workload, 4, 5_000 * stress_factor(), 0xC0DE);
            watch_listed_parts(&bench, &rt, &mut watched);
            assert_alive_is_indexed(&bench, &rt, &watched);

            // SM1 and SM2 are equally likely, so the population random-walks
            // around its built size; the ids handed out show how much history
            // the heap would hold had it kept every part.
            let created = bench.next_part_id.load(Ordering::Relaxed) as usize - 1;
            assert!(
                created > 4 * built,
                "churn too short to tell: {created} ids"
            );
            let alive = watched
                .values()
                .filter(|part| part.strong_count() > 0)
                .count();
            assert_eq!(
                alive,
                indexed_parts(&bench, &rt),
                "every indexed part is watched"
            );
            assert!(
                alive < created / 2,
                "{alive} of {created} parts ever created are alive"
            );
        }
    }

    /// Panics out of one scheduler hook while armed.
    #[derive(Debug)]
    struct PanickingScheduler {
        armed: AtomicBool,
        after_commit: bool,
    }

    impl PanickingScheduler {
        fn fire(&self) {
            if self.armed.swap(false, Ordering::SeqCst) {
                panic!("injected scheduler panic");
            }
        }
    }

    impl TxScheduler for PanickingScheduler {
        fn before_start(&self, _ctx: &SchedCtx<'_>) {
            if !self.after_commit {
                self.fire();
            }
        }

        fn on_finish(&self, _: &SchedCtx<'_>, end: AttemptEnd<'_>, _: &[VarId], _: &[VarId]) {
            if self.after_commit && matches!(end, AttemptEnd::Committed) {
                self.fire();
            }
        }

        fn name(&self) -> &str {
            "panicking"
        }
    }

    /// An SM1 that unwinds before its transaction commits leaves its part
    /// dead; one that unwinds after the commit leaves it indexed and alive.
    #[test]
    fn an_unwinding_sm1_leaves_no_orphan() {
        for after_commit in [false, true] {
            let scheduler = Arc::new(PanickingScheduler {
                armed: AtomicBool::new(false),
                after_commit,
            });
            let rt = TmRuntime::builder()
                .scheduler_arc(Arc::clone(&scheduler) as Arc<dyn TxScheduler>)
                .build();
            let bench = Sb7::build(&rt, Sb7Config::tiny(), Sb7Mix::WriteDominated);
            let built = indexed_parts(&bench, &rt);
            let part = AtomicPart::new(bench.next_part_id.fetch_add(1, Ordering::Relaxed), 7);
            let watched = HashMap::from([(part.id, Arc::downgrade(&part))]);

            scheduler.armed.store(true, Ordering::SeqCst);
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                ops::link_part(&bench, &rt, 0, part, 7);
            }));
            assert!(unwound.is_err(), "the armed hook must have fired");
            assert!(!scheduler.armed.load(Ordering::SeqCst));

            assert_eq!(
                indexed_parts(&bench, &rt),
                built + usize::from(after_commit)
            );
            assert_alive_is_indexed(&bench, &rt, &watched);
        }
    }
}
