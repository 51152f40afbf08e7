//! STMBench7 operations: short traversals, queries and structural
//! modifications (long traversals are off, as in the paper's runs).

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;
use shrink_stm::{TVar, TmRuntime, Tx, TxRead, TxResult};

use super::{AssemblyChildren, AtomicPart, Sb7};

/// Executes one operation drawn from the benchmark's mix.
pub(crate) fn step(bench: &Arc<Sb7>, rt: &TmRuntime, rng: &mut StdRng) {
    let read_roll: u32 = rng.random_range(0..100);
    if read_roll < bench.mix.read_pct() {
        // STMBench7 mixes one long traversal into ~20 read operations when
        // they are enabled; the paper's runs keep them off.
        if bench.config.long_traversals && rng.random_range(0..20u32) == 0 {
            t1_long_traversal(bench, rt);
            return;
        }
        match rng.random_range(0..4u32) {
            0 => st_query_part(bench, rt, rng),
            1 => st_traverse_composite(bench, rt, rng),
            2 => st_assembly_path(bench, rt, rng),
            _ => op_scan_document(bench, rt, rng),
        }
    } else {
        match rng.random_range(0..5u32) {
            0 => op_update_part(bench, rt, rng),
            1 => sm1_add_part(bench, rt, rng),
            2 => sm2_remove_part(bench, rt, rng),
            3 => op_update_document(bench, rt, rng),
            _ => sm_swap_component(bench, rt, rng),
        }
    }
}

fn random_part_id(bench: &Sb7, rng: &mut StdRng) -> u64 {
    let ceiling = bench.next_part_id.load(Ordering::Relaxed).max(2);
    rng.random_range(1..ceiling)
}

fn random_composite(bench: &Sb7, rng: &mut StdRng) -> usize {
    rng.random_range(0..bench.composites.len())
}

/// OP1-style index query: look a part up and read its payload and
/// connections. Pure reads, so it takes the lock-free read-only path —
/// as do the other `st_`/`op_scan` operations below.
fn st_query_part(bench: &Arc<Sb7>, rt: &TmRuntime, rng: &mut StdRng) {
    let id = random_part_id(bench, rng);
    rt.read_only(|tx| {
        if bench.part_index.get(tx, id)?.is_some() {
            if let Some(part) = bench.registry.get(id) {
                let _ = tx.read(&part.x)?;
                let _ = tx.read(&part.y)?;
                let _ = tx.read(&part.build_date)?;
                let _ = tx.read_with(&part.to, Vec::len)?;
            }
        }
        Ok(())
    });
}

/// T6/ST-style traversal of one composite's atomic-part graph.
fn st_traverse_composite(bench: &Arc<Sb7>, rt: &TmRuntime, rng: &mut StdRng) {
    let cid = random_composite(bench, rng);
    let composite = Arc::clone(&bench.composites[cid]);
    rt.read_only(|tx| {
        let root = tx.read(&composite.root_part)?;
        let mut visited: HashSet<u64> = HashSet::new();
        let mut frontier = vec![root];
        let mut checksum: i64 = 0;
        while let Some(id) = frontier.pop() {
            if !visited.insert(id) || visited.len() > 256 {
                continue;
            }
            if let Some(part) = bench.registry.get(id) {
                checksum = checksum.wrapping_add(tx.read(&part.x)?);
                tx.read_with(&part.to, |to| {
                    frontier.extend(to.iter().filter(|next| !visited.contains(next)));
                })?;
            }
        }
        Ok(checksum)
    });
}

/// ST1-style walk from the design root to a base assembly, then into one of
/// its composites' documents.
fn st_assembly_path(bench: &Arc<Sb7>, rt: &TmRuntime, rng: &mut StdRng) {
    let turns: u64 = rng.random();
    rt.read_only(|tx| {
        let mut node = Arc::clone(&bench.design_root);
        let mut turn = turns;
        let base = loop {
            let _ = tx.read(&node.date)?;
            match &node.children {
                AssemblyChildren::Complex(children) => {
                    let pick = (turn % children.len() as u64) as usize;
                    turn /= children.len() as u64;
                    node = Arc::clone(&children[pick]);
                }
                AssemblyChildren::Base(bases) => {
                    break Arc::clone(&bases[(turn % bases.len() as u64) as usize]);
                }
            }
        };
        let components = tx.read(&base.components)?;
        if let Some(&cid) = components.first() {
            let composite = &bench.composites[cid as usize];
            let text = tx.read(&composite.doc_text)?;
            return Ok(text.len());
        }
        Ok(0)
    });
}

/// OP-style document scan.
fn op_scan_document(bench: &Arc<Sb7>, rt: &TmRuntime, rng: &mut StdRng) {
    let cid = random_composite(bench, rng);
    let composite = Arc::clone(&bench.composites[cid]);
    rt.read_only(|tx| {
        let text = tx.read(&composite.doc_text)?;
        Ok(text.bytes().filter(|&b| b == b'c').count())
    });
}

/// T2-style short update of one atomic part.
fn op_update_part(bench: &Arc<Sb7>, rt: &TmRuntime, rng: &mut StdRng) {
    let id = random_part_id(bench, rng);
    let stamp: u64 = rng.random_range(0..4096);
    rt.run(|tx| {
        if bench.part_index.get(tx, id)?.is_some() {
            if let Some(part) = bench.registry.get(id) {
                tx.modify(&part.x, |x| x + 1)?;
                tx.modify(&part.y, |y| y - 1)?;
                tx.write(&part.build_date, stamp)?;
            }
        }
        Ok(())
    });
}

/// SM1: create an atomic part, wire it into a composite and the index, and
/// stamp the assembly spine above a random base assembly.
pub(super) fn sm1_add_part(bench: &Arc<Sb7>, rt: &TmRuntime, rng: &mut StdRng) {
    let cid = random_composite(bench, rng);
    let composite = Arc::clone(&bench.composites[cid]);
    let new_id = bench.next_part_id.fetch_add(1, Ordering::Relaxed);
    // Physical allocation outside the transaction; logical insertion inside.
    let part = Arc::new(AtomicPart {
        id: new_id,
        x: TVar::new(rng.random_range(0..1000)),
        y: TVar::new(rng.random_range(0..1000)),
        build_date: TVar::new(rng.random_range(0..4096)),
        to: TVar::new(Vec::new()),
    });
    bench.registry.publish(Arc::clone(&part));
    let undo = UndoPublish {
        bench,
        rt,
        id: new_id,
    };
    let turns: u64 = rng.random();
    rt.run(|tx| {
        let mut parts = tx.read(&composite.parts)?;
        let anchor = parts[(turns % parts.len() as u64) as usize];
        parts.push(new_id);
        tx.write(&composite.parts, parts)?;
        tx.write(&part.to, vec![anchor])?;
        // Link the anchor back so the new part is reachable.
        if let Some(anchor_part) = bench.registry.get(anchor) {
            let mut to = tx.read(&anchor_part.to)?;
            to.push(new_id);
            tx.write(&anchor_part.to, to)?;
        }
        bench.part_index.insert(tx, new_id, cid as u64)?;
        stamp_spine(bench, tx, turns)
    });
    std::mem::forget(undo);
}

/// Withdraws the part `sm1_add_part` published if the call unwinds, so an
/// aborted creation leaves no orphan in the registry.
struct UndoPublish<'a> {
    bench: &'a Sb7,
    rt: &'a TmRuntime,
    id: u64,
}

impl Drop for UndoPublish<'_> {
    fn drop(&mut self) {
        // A panic can also come out of `rt.run` *after* the commit (a
        // scheduler's commit hook): then the index names the part and it
        // has to stay resolvable.
        let linked = self
            .rt
            .read_only(|tx| self.bench.part_index.get(tx, self.id))
            .is_some();
        if !linked {
            self.bench.registry.withdraw(self.id);
        }
    }
}

/// SM2: delete a non-root atomic part from a composite, and free it once
/// the deletion has committed.
pub(super) fn sm2_remove_part(bench: &Arc<Sb7>, rt: &TmRuntime, rng: &mut StdRng) {
    let cid = random_composite(bench, rng);
    let composite = Arc::clone(&bench.composites[cid]);
    let turns: u64 = rng.random();
    let removed = rt.run(|tx| {
        let mut parts = tx.read(&composite.parts)?;
        if parts.len() <= 1 {
            return Ok(None);
        }
        let root = tx.read(&composite.root_part)?;
        let pick = (turns % parts.len() as u64) as usize;
        let victim = parts[pick];
        if victim == root {
            return Ok(None);
        }
        parts.remove(pick);
        tx.write(&composite.parts, parts.clone())?;
        bench.part_index.remove(tx, victim)?;
        // Unlink every reference to the victim within the composite.
        for &id in &parts {
            if let Some(part) = bench.registry.get(id) {
                let pruned = tx.read_with(&part.to, |to| {
                    to.contains(&victim)
                        .then(|| to.iter().copied().filter(|&t| t != victim).collect())
                })?;
                if let Some(pruned) = pruned {
                    tx.write(&part.to, pruned)?;
                }
            }
        }
        stamp_spine(bench, tx, turns)?;
        Ok(Some(victim))
    });
    if let Some(victim) = removed {
        bench.registry.withdraw(victim);
    }
}

/// OP-style document rewrite.
fn op_update_document(bench: &Arc<Sb7>, rt: &TmRuntime, rng: &mut StdRng) {
    let cid = random_composite(bench, rng);
    let composite = Arc::clone(&bench.composites[cid]);
    let revision: u64 = rng.random();
    rt.run(|tx| {
        tx.write(
            &composite.doc_text,
            Arc::new(format!(
                "specification of composite part {} rev {revision}",
                composite.id
            )),
        )
    });
}

/// SM-style swap of one base assembly's component reference.
fn sm_swap_component(bench: &Arc<Sb7>, rt: &TmRuntime, rng: &mut StdRng) {
    let base = Arc::clone(&bench.base_assemblies[rng.random_range(0..bench.base_assemblies.len())]);
    let replacement = bench.composites[random_composite(bench, rng)].id;
    let turns: u64 = rng.random();
    rt.run(|tx| {
        let mut components = tx.read(&base.components)?;
        if components.is_empty() {
            return Ok(());
        }
        let slot = (turns % components.len() as u64) as usize;
        components[slot] = replacement;
        tx.write(&base.components, components)?;
        stamp_spine(bench, tx, turns)
    });
}

/// T1: the long traversal — walk the entire assembly tree and, for every
/// composite referenced by every base assembly, count its atomic parts.
/// One enormous read-only transaction touching most of the design; the
/// paper's figures all run with this operation disabled. Running it on the
/// lock-free path means it can never abort a writer, however long it takes
/// — it restarts itself on revalidation failure instead.
fn t1_long_traversal(bench: &Arc<Sb7>, rt: &TmRuntime) {
    rt.read_only(|tx| {
        fn walk(
            bench: &Arc<Sb7>,
            tx: &mut impl TxRead,
            node: &Arc<super::ComplexAssembly>,
        ) -> TxResult<usize> {
            let _ = tx.read(&node.date)?;
            let mut parts = 0;
            match &node.children {
                AssemblyChildren::Complex(children) => {
                    for child in children {
                        parts += walk(bench, tx, child)?;
                    }
                }
                AssemblyChildren::Base(bases) => {
                    for base in bases {
                        for cid in tx.read(&base.components)? {
                            let composite = &bench.composites[cid as usize];
                            parts += tx.read_with(&composite.parts, Vec::len)?;
                        }
                    }
                }
            }
            Ok(parts)
        }
        walk(bench, tx, &bench.design_root)
    });
}

/// Walks one root-to-leaf spine path, *reading* every assembly date (the
/// shared traversal footprint) and bumping only the leaf complex assembly's
/// date — structural modifications contend on the `fanout^(levels-1)` leaf
/// assemblies but not on the single root.
fn stamp_spine(bench: &Arc<Sb7>, tx: &mut Tx<'_>, turns: u64) -> TxResult<()> {
    let mut node = Arc::clone(&bench.design_root);
    let mut turn = turns;
    loop {
        match &node.children {
            AssemblyChildren::Complex(children) => {
                let _ = tx.read(&node.date)?;
                let pick = (turn % children.len() as u64) as usize;
                turn /= children.len() as u64;
                node = Arc::clone(&children[pick]);
            }
            AssemblyChildren::Base(_) => {
                return tx.modify(&node.date, |d| d + 1);
            }
        }
    }
}

/// Collects assembly ids depth-first for the uniqueness audit.
fn collect_assembly_ids(node: &Arc<super::ComplexAssembly>, out: &mut Vec<u64>) {
    out.push(node.id);
    match &node.children {
        AssemblyChildren::Complex(children) => {
            for child in children {
                collect_assembly_ids(child, out);
            }
        }
        AssemblyChildren::Base(bases) => {
            for base in bases {
                out.push(base.id);
            }
        }
    }
}

/// Full-graph consistency audit (one big transaction).
pub(crate) fn audit(bench: &Sb7, rt: &TmRuntime) -> Result<(), String> {
    // Structural checks outside the transaction: assembly ids are unique,
    // documents carry their composite's title, and the physical part
    // registry covers at least the logical population.
    let mut assembly_ids = Vec::new();
    collect_assembly_ids(&bench.design_root, &mut assembly_ids);
    let unique: HashSet<u64> = assembly_ids.iter().copied().collect();
    if unique.len() != assembly_ids.len() {
        return Err("duplicate assembly ids".to_string());
    }
    for composite in &bench.composites {
        if composite.doc_title != format!("composite-{}", composite.id) {
            return Err(format!(
                "composite {} has mismatched document title {}",
                composite.id, composite.doc_title
            ));
        }
    }
    rt.run(|tx| {
        let mut indexed_parts = 0usize;
        for composite in &bench.composites {
            let parts = tx.read(&composite.parts)?;
            if parts.is_empty() {
                return Ok(Err(format!("composite {} has no parts", composite.id)));
            }
            let root = tx.read(&composite.root_part)?;
            if !parts.contains(&root) {
                return Ok(Err(format!(
                    "composite {} root {root} not in its part list",
                    composite.id
                )));
            }
            let part_set: HashSet<u64> = parts.iter().copied().collect();
            if part_set.len() != parts.len() {
                return Ok(Err(format!(
                    "composite {} part list has duplicates",
                    composite.id
                )));
            }
            for &id in &parts {
                match bench.part_index.get(tx, id)? {
                    Some(owner) if owner == composite.id => {}
                    Some(owner) => {
                        return Ok(Err(format!(
                            "part {id} indexed under composite {owner}, expected {}",
                            composite.id
                        )))
                    }
                    None => return Ok(Err(format!("part {id} missing from index"))),
                }
                let part = match bench.registry.get(id) {
                    Some(p) => p,
                    None => return Ok(Err(format!("part {id} missing from registry"))),
                };
                for target in tx.read(&part.to)? {
                    if !part_set.contains(&target) {
                        return Ok(Err(format!(
                            "part {id} connects to {target} outside composite {}",
                            composite.id
                        )));
                    }
                }
            }
            indexed_parts += parts.len();
        }
        let index_len = bench.part_index.len(tx)?;
        if index_len != indexed_parts {
            return Ok(Err(format!(
                "index holds {index_len} parts, composites hold {indexed_parts}"
            )));
        }
        if bench.registry.physical_len() < indexed_parts {
            return Ok(Err(format!(
                "registry holds {} parts, fewer than the {indexed_parts} logically alive",
                bench.registry.physical_len()
            )));
        }
        // Base assemblies reference pool composites only.
        for base in &bench.base_assemblies {
            for cid in tx.read(&base.components)? {
                if cid as usize >= bench.composites.len() {
                    return Ok(Err(format!(
                        "base assembly {} references unknown composite {cid}",
                        base.id
                    )));
                }
            }
        }
        match bench.part_index.check_invariants(tx)? {
            Ok(_) => Ok(Ok(())),
            Err(e) => Ok(Err(format!("part index corrupt: {e}"))),
        }
    })
}
