//! STMBench7 operations: short traversals, queries and structural
//! modifications (long traversals are off, as in the paper's runs).

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;
use shrink_stm::{TVar, TmRuntime, Tx, TxRead, TxResult};

use super::{AssemblyChildren, AtomicPart, BaseAssembly, ComplexAssembly, Sb7};

/// Executes one operation drawn from the benchmark's mix.
pub(crate) fn step(bench: &Sb7, rt: &TmRuntime, rng: &mut StdRng) {
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

/// Resolves part `id` through the part index and its composite's list,
/// cloning only the one handle found.
fn find_part(bench: &Sb7, tx: &mut impl TxRead, id: u64) -> TxResult<Option<Arc<AtomicPart>>> {
    let Some(cid) = bench.part_index.get(tx, id)? else {
        return Ok(None);
    };
    tx.read_with(&bench.composites[cid as usize].parts, |parts| {
        parts.iter().find(|part| part.id == id).cloned()
    })
}

/// OP1-style index query: look a part up and read its payload and
/// connections. Pure reads, so it takes the lock-free read-only path —
/// as do the other `st_`/`op_scan` operations below.
fn st_query_part(bench: &Sb7, rt: &TmRuntime, rng: &mut StdRng) {
    let id = random_part_id(bench, rng);
    rt.read_only(|tx| {
        if let Some(part) = find_part(bench, tx, id)? {
            let _ = tx.read(&part.x)?;
            let _ = tx.read(&part.y)?;
            let _ = tx.read(&part.build_date)?;
            let _ = tx.read_with(&part.to, Vec::len)?;
        }
        Ok(())
    });
}

/// T6/ST-style traversal of one composite's atomic-part graph.
fn st_traverse_composite(bench: &Sb7, rt: &TmRuntime, rng: &mut StdRng) {
    let composite = &bench.composites[random_composite(bench, rng)];
    rt.read_only(|tx| {
        let root = tx.read(&composite.root_part)?;
        let parts = tx.read(&composite.parts)?;
        let mut visited: HashSet<u64> = HashSet::new();
        let mut frontier = vec![root];
        let mut checksum: i64 = 0;
        while let Some(id) = frontier.pop() {
            if !visited.insert(id) || visited.len() > 256 {
                continue;
            }
            if let Some(part) = parts.iter().find(|part| part.id == id) {
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
fn st_assembly_path(bench: &Sb7, rt: &TmRuntime, rng: &mut StdRng) {
    let turns: u64 = rng.random();
    rt.read_only(|tx| {
        let mut node = &bench.design_root;
        let mut turn = turns;
        let base = loop {
            let _ = tx.read(&node.date)?;
            match &node.children {
                AssemblyChildren::Complex(children) => {
                    let pick = (turn % children.len() as u64) as usize;
                    turn /= children.len() as u64;
                    node = &children[pick];
                }
                AssemblyChildren::Base(bases) => {
                    break &bench.base_assemblies[bases[(turn % bases.len() as u64) as usize]];
                }
            }
        };
        let first = tx.read_with(&base.components, |components| components.first().copied())?;
        if let Some(cid) = first {
            let composite = &bench.composites[cid as usize];
            return tx.read_with(&composite.doc_text, |text| text.len());
        }
        Ok(0)
    });
}

/// OP-style document scan.
fn op_scan_document(bench: &Sb7, rt: &TmRuntime, rng: &mut StdRng) {
    let composite = &bench.composites[random_composite(bench, rng)];
    rt.read_only(|tx| {
        tx.read_with(&composite.doc_text, |text| {
            text.bytes().filter(|&b| b == b'c').count()
        })
    });
}

/// T2-style short update of one atomic part.
fn op_update_part(bench: &Sb7, rt: &TmRuntime, rng: &mut StdRng) {
    let id = random_part_id(bench, rng);
    let stamp: u64 = rng.random_range(0..4096);
    rt.run(|tx| {
        if let Some(part) = find_part(bench, tx, id)? {
            tx.modify(&part.x, |x| x + 1)?;
            tx.modify(&part.y, |y| y - 1)?;
            tx.write(&part.build_date, stamp)?;
        }
        Ok(())
    });
}

/// SM1: create an atomic part, wire it into a composite and the index, and
/// stamp the assembly spine above a random base assembly.
pub(super) fn sm1_add_part(bench: &Sb7, rt: &TmRuntime, rng: &mut StdRng) {
    let cid = random_composite(bench, rng);
    // Physical allocation outside the transaction; logical insertion inside.
    let part = Arc::new(AtomicPart {
        id: bench.next_part_id.fetch_add(1, Ordering::Relaxed),
        x: TVar::new(rng.random_range(0..1000)),
        y: TVar::new(rng.random_range(0..1000)),
        build_date: TVar::new(rng.random_range(0..4096)),
        to: TVar::new(Vec::new()),
    });
    let turns: u64 = rng.random();
    link_part(bench, rt, cid, part, turns);
}

/// SM1's transaction: appends `part` to composite `cid`'s list, connects it
/// both ways with an existing part and indexes it. Until that commits the
/// only handle is `part` itself, so a call that unwinds first frees it.
pub(super) fn link_part(
    bench: &Sb7,
    rt: &TmRuntime,
    cid: usize,
    part: Arc<AtomicPart>,
    turns: u64,
) {
    let composite = &bench.composites[cid];
    rt.run(|tx| {
        let (anchor, grown) = tx.read_with(&composite.parts, |parts| {
            let anchor = Arc::clone(&parts[(turns % parts.len() as u64) as usize]);
            let mut grown = Vec::with_capacity(parts.len() + 1);
            grown.extend(parts.iter().cloned());
            grown.push(Arc::clone(&part));
            (anchor, grown)
        })?;
        tx.write(&composite.parts, grown)?;
        tx.write(&part.to, vec![anchor.id])?;
        // Link the anchor back so the new part is reachable.
        tx.modify(&anchor.to, |mut to| {
            to.push(part.id);
            to
        })?;
        bench.part_index.insert(tx, part.id, cid as u64)?;
        stamp_spine(bench, tx, turns)
    });
}

/// SM2: delete a non-root atomic part from a composite. The part dies with
/// the list the commit retires.
pub(super) fn sm2_remove_part(bench: &Sb7, rt: &TmRuntime, rng: &mut StdRng) {
    let composite = &bench.composites[random_composite(bench, rng)];
    let turns: u64 = rng.random();
    rt.run(|tx| {
        let root = tx.read(&composite.root_part)?;
        let removal = tx.read_with(&composite.parts, |parts| {
            let pick = (turns % parts.len() as u64) as usize;
            (parts.len() > 1 && parts[pick].id != root).then(|| {
                let mut kept = Vec::with_capacity(parts.len() - 1);
                kept.extend_from_slice(&parts[..pick]);
                kept.extend_from_slice(&parts[pick + 1..]);
                (parts[pick].id, kept)
            })
        })?;
        let Some((victim, kept)) = removal else {
            return Ok(());
        };
        bench.part_index.remove(tx, victim)?;
        // Unlink every reference to the victim within the composite.
        for part in &kept {
            let pruned = tx.read_with(&part.to, |to| {
                to.contains(&victim)
                    .then(|| to.iter().copied().filter(|&t| t != victim).collect())
            })?;
            if let Some(pruned) = pruned {
                tx.write(&part.to, pruned)?;
            }
        }
        tx.write(&composite.parts, kept)?;
        stamp_spine(bench, tx, turns)
    });
}

/// OP-style document rewrite.
fn op_update_document(bench: &Sb7, rt: &TmRuntime, rng: &mut StdRng) {
    let composite = &bench.composites[random_composite(bench, rng)];
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
fn sm_swap_component(bench: &Sb7, rt: &TmRuntime, rng: &mut StdRng) {
    let base = &bench.base_assemblies[rng.random_range(0..bench.base_assemblies.len())];
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
fn t1_long_traversal(bench: &Sb7, rt: &TmRuntime) {
    rt.read_only(|tx| {
        fn walk(bench: &Sb7, tx: &mut impl TxRead, node: &ComplexAssembly) -> TxResult<usize> {
            let _ = tx.read(&node.date)?;
            let mut parts = 0;
            match &node.children {
                AssemblyChildren::Complex(children) => {
                    for child in children {
                        parts += walk(bench, tx, child)?;
                    }
                }
                AssemblyChildren::Base(bases) => {
                    for &base in bases {
                        for cid in tx.read(&bench.base_assemblies[base].components)? {
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
fn stamp_spine(bench: &Sb7, tx: &mut Tx<'_>, turns: u64) -> TxResult<()> {
    let mut node = &bench.design_root;
    let mut turn = turns;
    loop {
        match &node.children {
            AssemblyChildren::Complex(children) => {
                let _ = tx.read(&node.date)?;
                let pick = (turn % children.len() as u64) as usize;
                turn /= children.len() as u64;
                node = &children[pick];
            }
            AssemblyChildren::Base(_) => {
                return tx.modify(&node.date, |d| d + 1);
            }
        }
    }
}

/// Collects assembly ids depth-first for the uniqueness audit.
fn collect_assembly_ids(bases: &[BaseAssembly], node: &ComplexAssembly, out: &mut Vec<u64>) {
    out.push(node.id);
    match &node.children {
        AssemblyChildren::Complex(children) => {
            for child in children {
                collect_assembly_ids(bases, child, out);
            }
        }
        AssemblyChildren::Base(leaves) => out.extend(leaves.iter().map(|&base| bases[base].id)),
    }
}

/// Full-graph consistency audit (one read-only transaction).
pub(crate) fn audit(bench: &Sb7, rt: &TmRuntime) -> Result<(), String> {
    // Structural checks outside the transaction, on what never changes:
    // assembly ids are unique and documents carry their composite's title.
    let mut assembly_ids = Vec::new();
    collect_assembly_ids(
        &bench.base_assemblies,
        &bench.design_root,
        &mut assembly_ids,
    );
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
    rt.read_only(|tx| {
        let mut indexed_parts = 0usize;
        for composite in &bench.composites {
            let parts = tx.read(&composite.parts)?;
            if parts.is_empty() {
                return Ok(Err(format!("composite {} has no parts", composite.id)));
            }
            let root = tx.read(&composite.root_part)?;
            let part_set: HashSet<u64> = parts.iter().map(|part| part.id).collect();
            if !part_set.contains(&root) {
                return Ok(Err(format!(
                    "composite {} root {root} not in its part list",
                    composite.id
                )));
            }
            if part_set.len() != parts.len() {
                return Ok(Err(format!(
                    "composite {} part list has duplicates",
                    composite.id
                )));
            }
            for part in &parts {
                let id = part.id;
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
