//! Dominance frontiers and iterated dominance frontiers.
//!
//! `DF(b)` is the set of blocks where `b`'s dominance stops: the join points
//! that need a φ when `b` contains a definition. `DF⁺` (the iterated
//! frontier) is the transitive closure used both by SSA construction and by
//! SSAPRE's Φ-Insertion step (§4.2 of the paper: "Φs are inserted at the
//! Iterated Dominance Frontiers (DF+) of each occurrence of an expression").

use crate::dom::DomTree;
use specframe_ir::{BlockId, Function};

/// Dominance frontiers for every block of one function.
///
/// Only *join blocks* (two or more predecessors) appear in frontiers:
/// a single-predecessor block never needs a φ, so omitting it is sound for
/// every φ/Φ-placement use in this workspace (and is what the classic
/// "only merge nodes" optimization of Cytron et al. does).
#[derive(Debug, Clone)]
pub struct DomFrontiers {
    df: Vec<Vec<BlockId>>,
}

impl DomFrontiers {
    /// Computes dominance frontiers with the Cytron et al. / CHK algorithm:
    /// for each join block `j` and each predecessor `p`, walk `p`'s idom
    /// chain up to (but excluding) `idom(j)`, adding `j` to each frontier.
    pub fn compute(f: &Function, dt: &DomTree) -> DomFrontiers {
        let n = f.blocks.len();
        let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        let preds = f.predecessors();
        for b in f.block_ids() {
            if !dt.is_reachable(b) || preds[b.index()].len() < 2 {
                continue;
            }
            let idom_b = dt.idom(b);
            for &p in &preds[b.index()] {
                if !dt.is_reachable(p) {
                    continue;
                }
                let mut runner = Some(p);
                while let Some(r) = runner {
                    if Some(r) == idom_b {
                        break;
                    }
                    if !df[r.index()].contains(&b) {
                        df[r.index()].push(b);
                    }
                    runner = dt.idom(r);
                }
            }
        }
        DomFrontiers { df }
    }

    /// The dominance frontier of one block.
    #[inline]
    pub fn of(&self, b: BlockId) -> &[BlockId] {
        &self.df[b.index()]
    }
}

/// The iterated dominance frontier of a set of seed blocks.
///
/// Returns the fixpoint `DF⁺(seeds)` as a sorted, deduplicated vector.
pub fn iterated_df(df: &DomFrontiers, seeds: impl IntoIterator<Item = BlockId>) -> Vec<BlockId> {
    let mut in_set: Vec<BlockId> = Vec::new();
    let mut work: Vec<BlockId> = seeds.into_iter().collect();
    // dense membership, allocated on the first frontier block (most
    // seed sets of straight-line code have none)
    let mut member: Vec<bool> = Vec::new();
    while let Some(b) = work.pop() {
        for &d in df.of(b) {
            if member.is_empty() {
                member = vec![false; df.df.len()];
            }
            if !std::mem::replace(&mut member[d.index()], true) {
                in_set.push(d);
                work.push(d);
            }
        }
    }
    in_set.sort();
    in_set
}

#[cfg(test)]
mod tests {
    use super::*;
    use specframe_ir::{ModuleBuilder, Ty};

    /// entry -> {a, b}; a -> m; b -> m; m -> ret — DF(a) = DF(b) = {m}.
    #[test]
    fn diamond_frontier() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("d", &[("x", Ty::I64)], None);
        {
            let mut fb = mb.define(f);
            let x = fb.param(0);
            let a = fb.block("a");
            let b = fb.block("b");
            let m = fb.block("m");
            fb.br(x.into(), a, b);
            fb.switch_to(a);
            fb.jmp(m);
            fb.switch_to(b);
            fb.jmp(m);
            fb.switch_to(m);
            fb.ret(None);
        }
        let m = mb.finish();
        let dt = DomTree::compute(&m.funcs[0]);
        let df = DomFrontiers::compute(&m.funcs[0], &dt);
        assert_eq!(df.of(BlockId(1)), &[BlockId(3)]);
        assert_eq!(df.of(BlockId(2)), &[BlockId(3)]);
        assert_eq!(df.of(BlockId(0)), &[] as &[BlockId]);
        assert_eq!(df.of(BlockId(3)), &[] as &[BlockId]);
    }

    /// Loop: entry -> head; head -> {body, exit}; body -> head.
    /// DF(body) = {head}; DF(head) = {head} (head is its own frontier via
    /// the back edge).
    #[test]
    fn loop_frontier_contains_header() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("l", &[("x", Ty::I64)], None);
        {
            let mut fb = mb.define(f);
            let x = fb.param(0);
            let head = fb.block("head");
            let body = fb.block("body");
            let exit = fb.block("exit");
            fb.jmp(head);
            fb.switch_to(head);
            fb.br(x.into(), body, exit);
            fb.switch_to(body);
            fb.jmp(head);
            fb.switch_to(exit);
            fb.ret(None);
        }
        let m = mb.finish();
        let dt = DomTree::compute(&m.funcs[0]);
        let df = DomFrontiers::compute(&m.funcs[0], &dt);
        assert_eq!(df.of(BlockId(2)), &[BlockId(1)]);
        assert_eq!(df.of(BlockId(1)), &[BlockId(1)]);
        // a def in `body` needs phis at head only
        let idf = iterated_df(&df, [BlockId(2)]);
        assert_eq!(idf, vec![BlockId(1)]);
    }

    /// Nested joins require iteration: def in `a` reaches join `m1`, whose
    /// frontier adds `m2`.
    #[test]
    fn iterated_frontier_closes() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("n", &[("x", Ty::I64)], None);
        {
            let mut fb = mb.define(f);
            let x = fb.param(0);
            let a = fb.block("a");
            let b = fb.block("b");
            let m1 = fb.block("m1");
            let c = fb.block("c");
            let m2 = fb.block("m2");
            fb.br(x.into(), a, c);
            fb.switch_to(a);
            fb.br(x.into(), b, m1);
            fb.switch_to(b);
            fb.jmp(m1);
            fb.switch_to(m1);
            fb.jmp(m2);
            fb.switch_to(c);
            fb.jmp(m2);
            fb.switch_to(m2);
            fb.ret(None);
        }
        let m = mb.finish();
        let dt = DomTree::compute(&m.funcs[0]);
        let df = DomFrontiers::compute(&m.funcs[0], &dt);
        let idf = iterated_df(&df, [BlockId(2)]); // def in b
        assert_eq!(idf, vec![BlockId(3), BlockId(5)]); // m1 then m2
    }
}
