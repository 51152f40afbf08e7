//! A transactional red-black tree.
//!
//! The paper's microbenchmark ("we perform our experiments on red-black
//! tree benchmark, under 20% and 70% update operations and integer set
//! range of 16384") and the table index inside the `vacation` STAMP
//! workload. Every node lives in its own [`TVar`]; lookups read the search
//! path, updates additionally write the O(1)-amortized set of nodes touched
//! by the CLRS rebalancing, so the conflict footprint matches the classic
//! STM red-black-tree benchmarks.
//!
//! Walks read nodes in place with [`TxRead::read_with`]: a search step
//! clones only the child link it follows, and a color or link probe clones
//! nothing. A whole node is cloned only where an update is about to write
//! a modified copy of it.

use std::ops::ControlFlow;

use rand::rngs::StdRng;
use rand::Rng;
use shrink_stm::{TVar, TmRuntime, Tx, TxRead, TxResult};

use crate::harness::TxWorkload;

/// A tree node. Child links are embedded in the value, so structural
/// changes rewrite whole nodes — the standard design for STM search trees.
#[derive(Clone, Debug)]
struct Node {
    key: u64,
    value: u64,
    red: bool,
    left: Option<NodeVar>,
    right: Option<NodeVar>,
}

impl Node {
    /// Clones of both child links (a full traversal follows both).
    fn children(&self) -> (Option<NodeVar>, Option<NodeVar>) {
        (self.left.clone(), self.right.clone())
    }
}

/// A shared handle to a tree node.
#[derive(Clone, Debug)]
struct NodeVar(TVar<Node>);

impl NodeVar {
    fn new(node: Node) -> Self {
        NodeVar(TVar::new(node))
    }

    fn same(&self, other: &NodeVar) -> bool {
        self.0.id() == other.0.id()
    }
}

/// A concurrent ordered map from `u64` keys to `u64` values, balanced as a
/// red-black tree, with all operations running inside transactions.
///
/// # Examples
///
/// ```
/// use shrink_stm::TmRuntime;
/// use shrink_workloads::rbtree::TxRbTree;
///
/// let rt = TmRuntime::new();
/// let tree = TxRbTree::new();
/// rt.run(|tx| tree.insert(tx, 5, 50));
/// let found = rt.run(|tx| tree.get(tx, 5));
/// assert_eq!(found, Some(50));
/// ```
#[derive(Clone, Debug)]
pub struct TxRbTree {
    root: TVar<Option<NodeVar>>,
}

impl Default for TxRbTree {
    fn default() -> Self {
        Self::new()
    }
}

impl TxRbTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        TxRbTree {
            root: TVar::new(None),
        }
    }

    fn read_node(tx: &mut impl TxRead, nv: &NodeVar) -> TxResult<Node> {
        tx.read(&nv.0)
    }

    fn write_node(tx: &mut Tx<'_>, nv: &NodeVar, node: Node) -> TxResult<()> {
        tx.write(&nv.0, node)
    }

    fn is_red(tx: &mut impl TxRead, nv: &NodeVar) -> TxResult<bool> {
        tx.read_with(&nv.0, |n| n.red)
    }

    /// True if `child` is `parent`'s left child.
    fn is_left_child(tx: &mut impl TxRead, parent: &NodeVar, child: &NodeVar) -> TxResult<bool> {
        tx.read_with(&parent.0, |n| {
            n.left.as_ref().is_some_and(|l| l.same(child))
        })
    }

    /// One step of a search for `key` at `nv`: `found` applied to the node
    /// if it holds `key`, else the child link toward `key` — the only part
    /// of the node the step clones.
    fn search_step<R>(
        tx: &mut impl TxRead,
        nv: &NodeVar,
        key: u64,
        found: impl FnOnce(&Node) -> R,
    ) -> TxResult<ControlFlow<R, Option<NodeVar>>> {
        tx.read_with(&nv.0, |node| {
            if key == node.key {
                ControlFlow::Break(found(node))
            } else if key < node.key {
                ControlFlow::Continue(node.left.clone())
            } else {
                ControlFlow::Continue(node.right.clone())
            }
        })
    }

    /// Looks up `key`.
    ///
    /// Generic over [`TxRead`]: the search path is pure reads, so lookups
    /// run equally well inside a lock-free read-only transaction
    /// ([`TmRuntime::read_only`]) — the paper's 20%-update configuration
    /// spends most of its operations here without touching a single orec.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn get(&self, tx: &mut impl TxRead, key: u64) -> TxResult<Option<u64>> {
        let mut cur = tx.read(&self.root)?;
        while let Some(nv) = cur {
            match Self::search_step(tx, &nv, key, |node| node.value)? {
                ControlFlow::Break(value) => return Ok(Some(value)),
                ControlFlow::Continue(next) => cur = next,
            }
        }
        Ok(None)
    }

    /// True if `key` is present.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn contains(&self, tx: &mut impl TxRead, key: u64) -> TxResult<bool> {
        Ok(self.get(tx, key)?.is_some())
    }

    /// Replaces the child link pointing at `from` (under `parent`, or the
    /// root when `parent` is `None`) with `to`.
    fn replace_link(
        &self,
        tx: &mut Tx<'_>,
        parent: Option<&NodeVar>,
        from: &NodeVar,
        to: Option<NodeVar>,
    ) -> TxResult<()> {
        match parent {
            None => tx.write(&self.root, to),
            Some(p) => {
                let mut pn = Self::read_node(tx, p)?;
                if pn.left.as_ref().is_some_and(|l| l.same(from)) {
                    pn.left = to;
                } else {
                    debug_assert!(pn.right.as_ref().is_some_and(|r| r.same(from)));
                    pn.right = to;
                }
                Self::write_node(tx, p, pn)
            }
        }
    }

    /// Rotates the subtree rooted at `x` left (`true`) or right (`false`);
    /// returns the new subtree root.
    fn rotate(
        &self,
        tx: &mut Tx<'_>,
        x: &NodeVar,
        left: bool,
        parent: Option<&NodeVar>,
    ) -> TxResult<NodeVar> {
        let mut xn = Self::read_node(tx, x)?;
        let y = if left {
            xn.right.clone().expect("rotation requires a child")
        } else {
            xn.left.clone().expect("rotation requires a child")
        };
        let mut yn = Self::read_node(tx, &y)?;
        if left {
            xn.right = yn.left.take();
            yn.left = Some(x.clone());
        } else {
            xn.left = yn.right.take();
            yn.right = Some(x.clone());
        }
        Self::write_node(tx, x, xn)?;
        Self::write_node(tx, &y, yn)?;
        self.replace_link(tx, parent, x, Some(y.clone()))?;
        Ok(y)
    }

    /// Inserts `key → value`; returns the previous value if the key was
    /// already present.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn insert(&self, tx: &mut Tx<'_>, key: u64, value: u64) -> TxResult<Option<u64>> {
        // Descend, recording the path.
        let mut path: Vec<NodeVar> = Vec::new();
        let mut cur = tx.read(&self.root)?;
        while let Some(nv) = cur {
            match Self::search_step(tx, &nv, key, Node::clone)? {
                ControlFlow::Break(node) => {
                    let old = node.value;
                    Self::write_node(tx, &nv, Node { value, ..node })?;
                    return Ok(Some(old));
                }
                ControlFlow::Continue(next) => cur = next,
            }
            path.push(nv);
        }

        let z = NodeVar::new(Node {
            key,
            value,
            red: true,
            left: None,
            right: None,
        });
        match path.last() {
            None => tx.write(&self.root, Some(z.clone()))?,
            Some(p) => {
                let mut pn = Self::read_node(tx, p)?;
                if key < pn.key {
                    pn.left = Some(z.clone());
                } else {
                    pn.right = Some(z.clone());
                }
                Self::write_node(tx, p, pn)?;
            }
        }
        path.push(z);
        self.insert_fixup(tx, path)?;
        Ok(None)
    }

    fn insert_fixup(&self, tx: &mut Tx<'_>, mut path: Vec<NodeVar>) -> TxResult<()> {
        while path.len() >= 3 {
            let z = path[path.len() - 1].clone();
            let p = path[path.len() - 2].clone();
            let g = path[path.len() - 3].clone();
            let (p_red, z_is_left) = tx.read_with(&p.0, |pn| {
                (pn.red, pn.left.as_ref().is_some_and(|l| l.same(&z)))
            })?;
            if !p_red {
                break;
            }
            let (p_is_left, uncle) = tx.read_with(&g.0, |gn| {
                if gn.left.as_ref().is_some_and(|l| l.same(&p)) {
                    (true, gn.right.clone())
                } else {
                    (false, gn.left.clone())
                }
            })?;
            let uncle_red = match &uncle {
                Some(u) => Self::is_red(tx, u)?,
                None => false,
            };
            if uncle_red {
                // Case 1: red uncle — recolor and move two levels up.
                let mut pn = Self::read_node(tx, &p)?;
                pn.red = false;
                Self::write_node(tx, &p, pn)?;
                let u = uncle.expect("red uncle exists");
                let mut un = Self::read_node(tx, &u)?;
                un.red = false;
                Self::write_node(tx, &u, un)?;
                let mut gn = Self::read_node(tx, &g)?;
                gn.red = true;
                Self::write_node(tx, &g, gn)?;
                path.pop();
                path.pop();
                continue;
            }
            // Cases 2/3: black uncle — one or two rotations.
            let (top, _mid) = if p_is_left == z_is_left {
                (p.clone(), z.clone())
            } else {
                // Case 2: inner child — rotate at p so the path straightens.
                self.rotate(tx, &p, p_is_left, Some(&g))?;
                (z.clone(), p.clone())
            };
            // Case 3: recolor and rotate at g. `top` takes g's place.
            let mut tn = Self::read_node(tx, &top)?;
            tn.red = false;
            Self::write_node(tx, &top, tn)?;
            let mut gn = Self::read_node(tx, &g)?;
            gn.red = true;
            Self::write_node(tx, &g, gn)?;
            let g_parent = if path.len() >= 4 {
                Some(path[path.len() - 4].clone())
            } else {
                None
            };
            self.rotate(tx, &g, !p_is_left, g_parent.as_ref())?;
            break;
        }
        // Root is always black.
        if let Some(rv) = tx.read(&self.root)? {
            if Self::is_red(tx, &rv)? {
                let rn = Self::read_node(tx, &rv)?;
                Self::write_node(tx, &rv, Node { red: false, ..rn })?;
            }
        }
        Ok(())
    }

    /// Removes `key`; returns its value if it was present.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn remove(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<Option<u64>> {
        // Descend to the node, recording the path (root .. z).
        let mut path: Vec<NodeVar> = Vec::new();
        let mut cur = tx.read(&self.root)?;
        let (z, zn) = loop {
            let Some(nv) = cur else {
                return Ok(None);
            };
            match Self::search_step(tx, &nv, key, Node::clone)? {
                ControlFlow::Break(node) => break (nv, node),
                ControlFlow::Continue(next) => cur = next,
            }
            path.push(nv);
        };
        let removed_value = zn.value;

        // If z has two children, splice its successor instead.
        let (target, target_node) = if zn.left.is_some() && zn.right.is_some() {
            path.push(z.clone());
            // The successor is the leftmost node of z's right subtree.
            let mut s = zn.right.clone().expect("two children");
            let sn = loop {
                let step = tx.read_with(&s.0, |sn| match &sn.left {
                    Some(l) => ControlFlow::Continue(l.clone()),
                    None => ControlFlow::Break(sn.clone()),
                })?;
                match step {
                    ControlFlow::Continue(l) => path.push(std::mem::replace(&mut s, l)),
                    ControlFlow::Break(sn) => break sn,
                }
            };
            // Move successor's payload into z, then delete s.
            let zn_now = Self::read_node(tx, &z)?;
            Self::write_node(
                tx,
                &z,
                Node {
                    key: sn.key,
                    value: sn.value,
                    ..zn_now
                },
            )?;
            (s, sn)
        } else {
            (z, zn)
        };

        // Splice `target` out: it has at most one child.
        let child = target_node.left.clone().or(target_node.right.clone());
        let parent = path.last().cloned();
        let target_is_left = match &parent {
            Some(p) => Self::is_left_child(tx, p, &target)?,
            None => false,
        };
        self.replace_link(tx, parent.as_ref(), &target, child.clone())?;

        if !target_node.red {
            self.delete_fixup(tx, path, child, target_is_left)?;
        }
        Ok(Some(removed_value))
    }

    /// CLRS delete fixup: `x` (possibly a nil leaf) carries an extra black;
    /// `path` is root..parent-of-x; `x_is_left` locates x under the parent.
    fn delete_fixup(
        &self,
        tx: &mut Tx<'_>,
        mut path: Vec<NodeVar>,
        mut x: Option<NodeVar>,
        mut x_is_left: bool,
    ) -> TxResult<()> {
        loop {
            if let Some(xv) = &x {
                let xn = Self::read_node(tx, xv)?;
                if xn.red {
                    Self::write_node(tx, xv, Node { red: false, ..xn })?;
                    return Ok(());
                }
            }
            let p = match path.last() {
                Some(p) => p.clone(),
                None => return Ok(()), // x is the root: drop the extra black
            };
            let pn = Self::read_node(tx, &p)?;
            let w = if x_is_left {
                pn.right.clone()
            } else {
                pn.left.clone()
            }
            .expect("double-black node must have a sibling");
            let wn = Self::read_node(tx, &w)?;

            if wn.red {
                // Case 1: red sibling — rotate it up; the new sibling is
                // black. `w` becomes an ancestor, so it joins the path.
                Self::write_node(tx, &w, Node { red: false, ..wn })?;
                let pn2 = Self::read_node(tx, &p)?;
                Self::write_node(tx, &p, Node { red: true, ..pn2 })?;
                let gp = if path.len() >= 2 {
                    Some(path[path.len() - 2].clone())
                } else {
                    None
                };
                self.rotate(tx, &p, x_is_left, gp.as_ref())?;
                let last = path.len() - 1;
                path.insert(last, w);
                continue;
            }

            let near = if x_is_left {
                wn.left.clone()
            } else {
                wn.right.clone()
            };
            let far = if x_is_left {
                wn.right.clone()
            } else {
                wn.left.clone()
            };
            let near_red = match &near {
                Some(nv) => Self::is_red(tx, nv)?,
                None => false,
            };
            let far_red = match &far {
                Some(fv) => Self::is_red(tx, fv)?,
                None => false,
            };

            if !near_red && !far_red {
                // Case 2: both of w's children black — recolor w, push the
                // extra black to the parent.
                Self::write_node(tx, &w, Node { red: true, ..wn })?;
                x = Some(p.clone());
                path.pop();
                if let Some(gp) = path.last() {
                    x_is_left = Self::is_left_child(tx, gp, &p)?;
                }
                continue;
            }

            let w = if !far_red {
                // Case 3: near child red, far child black — rotate at w;
                // the near child becomes the new (black) sibling with a red
                // far child.
                let nv = near.expect("near child is red");
                let nn = Self::read_node(tx, &nv)?;
                Self::write_node(tx, &nv, Node { red: false, ..nn })?;
                let wn2 = Self::read_node(tx, &w)?;
                Self::write_node(tx, &w, Node { red: true, ..wn2 })?;
                self.rotate(tx, &w, !x_is_left, Some(&p))?
            } else {
                w
            };

            // Case 4: far child red — final rotation at p absorbs the extra
            // black.
            let wn = Self::read_node(tx, &w)?;
            let pn = Self::read_node(tx, &p)?;
            let far = if x_is_left {
                wn.right.clone()
            } else {
                wn.left.clone()
            }
            .expect("case 4 has a red far child");
            Self::write_node(tx, &w, Node { red: pn.red, ..wn })?;
            let pn = Self::read_node(tx, &p)?;
            Self::write_node(tx, &p, Node { red: false, ..pn })?;
            let fn_ = Self::read_node(tx, &far)?;
            Self::write_node(tx, &far, Node { red: false, ..fn_ })?;
            let gp = if path.len() >= 2 {
                Some(path[path.len() - 2].clone())
            } else {
                None
            };
            self.rotate(tx, &p, x_is_left, gp.as_ref())?;
            return Ok(());
        }
    }

    /// Number of keys, by full traversal.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn len(&self, tx: &mut impl TxRead) -> TxResult<usize> {
        fn count(tx: &mut impl TxRead, cur: Option<NodeVar>) -> TxResult<usize> {
            match cur {
                None => Ok(0),
                Some(nv) => {
                    let (left, right) = tx.read_with(&nv.0, Node::children)?;
                    Ok(1 + count(tx, left)? + count(tx, right)?)
                }
            }
        }
        let root = tx.read(&self.root)?;
        count(tx, root)
    }

    /// True if the tree holds no keys.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn is_empty(&self, tx: &mut impl TxRead) -> TxResult<bool> {
        Ok(tx.read(&self.root)?.is_none())
    }

    /// All keys in ascending order (test/audit helper).
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn keys(&self, tx: &mut impl TxRead) -> TxResult<Vec<u64>> {
        fn walk(tx: &mut impl TxRead, cur: Option<NodeVar>, out: &mut Vec<u64>) -> TxResult<()> {
            if let Some(nv) = cur {
                let (key, (left, right)) = tx.read_with(&nv.0, |n| (n.key, n.children()))?;
                walk(tx, left, out)?;
                out.push(key);
                walk(tx, right, out)?;
            }
            Ok(())
        }
        let mut out = Vec::new();
        let root = tx.read(&self.root)?;
        walk(tx, root, &mut out)?;
        Ok(out)
    }

    /// Audits the red-black invariants; returns the key count.
    ///
    /// # Errors
    ///
    /// Returns a violation description inside `Ok(Err(..))`-free form: the
    /// outer `TxResult` carries transactional aborts, the inner `Result`
    /// carries audit failures.
    #[allow(clippy::type_complexity)]
    pub fn check_invariants(&self, tx: &mut impl TxRead) -> TxResult<Result<usize, String>> {
        // Returns (black_height, count) or an error description.
        fn audit(
            tx: &mut impl TxRead,
            cur: Option<NodeVar>,
            low: Option<u64>,
            high: Option<u64>,
            parent_red: bool,
        ) -> TxResult<Result<(usize, usize), String>> {
            let Some(nv) = cur else {
                return Ok(Ok((1, 0))); // nil leaves are black
            };
            let (key, red, (left, right)) =
                tx.read_with(&nv.0, |n| (n.key, n.red, n.children()))?;
            if low.is_some_and(|lo| key <= lo) || high.is_some_and(|hi| key >= hi) {
                return Ok(Err(format!("BST order violated at key {key}")));
            }
            if parent_red && red {
                return Ok(Err(format!("red-red violation at key {key}")));
            }
            let left = audit(tx, left, low, Some(key), red)?;
            let right = audit(tx, right, Some(key), high, red)?;
            Ok(match (left, right) {
                (Ok((lb, lc)), Ok((rb, rc))) => {
                    if lb != rb {
                        Err(format!("black-height mismatch at key {key}: {lb} vs {rb}"))
                    } else {
                        Ok((lb + usize::from(!red), lc + rc + 1))
                    }
                }
                (Err(e), _) | (_, Err(e)) => Err(e),
            })
        }
        let root = tx.read(&self.root)?;
        if let Some(rv) = &root {
            if Self::is_red(tx, rv)? {
                return Ok(Err("root is red".to_string()));
            }
        }
        Ok(audit(tx, root, None, None, false)?.map(|(_, count)| count))
    }
}

/// The red-black-tree microbenchmark of the paper: lookups and
/// insert/remove updates over a bounded integer key range.
#[derive(Debug)]
pub struct RbTreeWorkload {
    tree: TxRbTree,
    key_range: u64,
    update_permille: u32,
}

impl RbTreeWorkload {
    /// Creates the workload and pre-fills the tree to half occupancy using
    /// transactions on `rt`.
    ///
    /// `update_pct` is the percentage of operations that mutate (the paper
    /// evaluates 20 and 70); the rest are lookups.
    ///
    /// # Panics
    ///
    /// Panics if `update_pct > 100` or `key_range == 0`.
    pub fn new(rt: &TmRuntime, key_range: u64, update_pct: u32) -> Self {
        assert!(update_pct <= 100, "update percentage over 100");
        assert!(key_range > 0, "key range must be positive");
        let tree = TxRbTree::new();
        // Deterministic half-fill: every other key.
        for key in (0..key_range).step_by(2) {
            rt.run(|tx| tree.insert(tx, key, key));
        }
        RbTreeWorkload {
            tree,
            key_range,
            update_permille: update_pct * 10,
        }
    }

    /// The underlying tree (for audits).
    pub fn tree(&self) -> &TxRbTree {
        &self.tree
    }
}

impl TxWorkload for RbTreeWorkload {
    fn step(&self, rt: &TmRuntime, _worker: usize, rng: &mut StdRng) {
        let key = rng.random_range(0..self.key_range);
        let roll: u32 = rng.random_range(0..1000);
        if roll < self.update_permille {
            if roll % 2 == 0 {
                rt.run(|tx| self.tree.insert(tx, key, key));
            } else {
                rt.run(|tx| self.tree.remove(tx, key));
            }
        } else {
            // Lookups take the lock-free path: no orec writes, no commit
            // ticket, invisible to the scheduler.
            rt.read_only(|tx| self.tree.get(tx, key));
        }
    }

    fn verify(&self, rt: &TmRuntime) -> Result<(), String> {
        rt.read_only(|tx| self.tree.check_invariants(tx))
            .map(|_| ())
    }

    fn name(&self) -> &'static str {
        "rbtree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn audit(rt: &TmRuntime, tree: &TxRbTree) -> usize {
        rt.run(|tx| tree.check_invariants(tx))
            .unwrap_or_else(|e| panic!("invariant violated: {e}"))
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let rt = TmRuntime::new();
        let tree = TxRbTree::new();
        assert_eq!(rt.run(|tx| tree.insert(tx, 10, 100)), None);
        assert_eq!(rt.run(|tx| tree.insert(tx, 10, 200)), Some(100));
        assert_eq!(rt.run(|tx| tree.get(tx, 10)), Some(200));
        assert_eq!(rt.run(|tx| tree.remove(tx, 10)), Some(200));
        assert_eq!(rt.run(|tx| tree.get(tx, 10)), None);
        assert_eq!(rt.run(|tx| tree.remove(tx, 10)), None);
        assert!(rt.run(|tx| tree.is_empty(tx)));
    }

    #[test]
    fn ascending_inserts_stay_balanced() {
        let rt = TmRuntime::new();
        let tree = TxRbTree::new();
        for k in 0..512 {
            rt.run(|tx| tree.insert(tx, k, k));
            if k % 64 == 0 {
                audit(&rt, &tree);
            }
        }
        assert_eq!(audit(&rt, &tree), 512);
        let keys = rt.run(|tx| tree.keys(tx));
        assert_eq!(keys, (0..512).collect::<Vec<_>>());
    }

    #[test]
    fn descending_inserts_stay_balanced() {
        let rt = TmRuntime::new();
        let tree = TxRbTree::new();
        for k in (0..256).rev() {
            rt.run(|tx| tree.insert(tx, k, k));
        }
        assert_eq!(audit(&rt, &tree), 256);
    }

    #[test]
    fn random_mix_matches_model() {
        let rt = TmRuntime::new();
        let tree = TxRbTree::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(42);
        for i in 0..4000 {
            let key = rng.random_range(0..200);
            if rng.random_bool(0.5) {
                let mine = rt.run(|tx| tree.insert(tx, key, i));
                let theirs = model.insert(key, i);
                assert_eq!(mine, theirs, "insert disagreement at step {i}");
            } else {
                let mine = rt.run(|tx| tree.remove(tx, key));
                let theirs = model.remove(&key);
                assert_eq!(mine, theirs, "remove disagreement at step {i}");
            }
            if i % 500 == 0 {
                assert_eq!(audit(&rt, &tree), model.len());
            }
        }
        assert_eq!(audit(&rt, &tree), model.len());
        let keys = rt.run(|tx| tree.keys(tx));
        assert_eq!(keys, model.keys().copied().collect::<Vec<_>>());
    }

    #[test]
    fn removal_of_internal_nodes_with_two_children() {
        let rt = TmRuntime::new();
        let tree = TxRbTree::new();
        for k in [50u64, 25, 75, 12, 37, 62, 87, 6, 18, 31, 43] {
            rt.run(|tx| tree.insert(tx, k, k * 10));
        }
        // 50 and 25 are internal with two children.
        assert_eq!(rt.run(|tx| tree.remove(tx, 50)), Some(500));
        audit(&rt, &tree);
        assert_eq!(rt.run(|tx| tree.remove(tx, 25)), Some(250));
        assert_eq!(audit(&rt, &tree), 9);
        let keys = rt.run(|tx| tree.keys(tx));
        assert!(!keys.contains(&50) && !keys.contains(&25));
    }

    #[test]
    fn drain_entire_tree_in_random_order() {
        let rt = TmRuntime::new();
        let tree = TxRbTree::new();
        let mut keys: Vec<u64> = (0..300).collect();
        for &k in &keys {
            rt.run(|tx| tree.insert(tx, k, k));
        }
        // Pseudo-shuffle.
        let mut rng = StdRng::seed_from_u64(7);
        for i in (1..keys.len()).rev() {
            let j = rng.random_range(0..=i);
            keys.swap(i, j);
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(rt.run(|tx| tree.remove(tx, k)), Some(k));
            if i % 50 == 0 {
                audit(&rt, &tree);
            }
        }
        assert!(rt.run(|tx| tree.is_empty(tx)));
    }

    #[test]
    fn concurrent_updates_preserve_invariants() {
        let rt = TmRuntime::new();
        let tree = Arc::new(TxRbTree::new());
        for k in 0..128 {
            rt.run(|tx| tree.insert(tx, k * 2, k));
        }
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let rt = rt.clone();
                let tree = Arc::clone(&tree);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t);
                    for _ in 0..300 {
                        let k = rng.random_range(0..256u64);
                        if rng.random_bool(0.5) {
                            rt.run(|tx| tree.insert(tx, k, k));
                        } else {
                            rt.run(|tx| tree.remove(tx, k));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        audit(&rt, &tree);
    }

    #[test]
    fn lookups_run_lock_free_in_read_only_transactions() {
        let rt = TmRuntime::new();
        let tree = TxRbTree::new();
        for k in 0..64 {
            rt.run(|tx| tree.insert(tx, k, k + 1));
        }
        let before = rt.stats();
        assert_eq!(rt.read_only(|tx| tree.get(tx, 33)), Some(34));
        assert!(rt.read_only(|tx| tree.contains(tx, 0)));
        assert_eq!(rt.read_only(|tx| tree.keys(tx)).len(), 64);
        assert_eq!(rt.read_only(|tx| tree.len(tx)), 64);
        let after = rt.stats();
        assert_eq!(
            after.orec_acquires, before.orec_acquires,
            "tree lookups must take no locks"
        );
        assert_eq!(after.ro_commits, before.ro_commits + 4);
        assert_eq!(after.commits, before.commits, "no rw commit tickets");
    }

    #[test]
    fn workload_runs_and_verifies() {
        let rt = TmRuntime::new();
        let workload = RbTreeWorkload::new(&rt, 256, 50);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            workload.step(&rt, 0, &mut rng);
        }
        workload.verify(&rt).unwrap();
    }
}
