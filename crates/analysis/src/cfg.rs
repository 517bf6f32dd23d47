//! CFG traversal orders and edge utilities.

use specframe_ir::{Block, BlockId, Function, Terminator};

/// Blocks reachable from the entry, as a membership vector indexed by block.
pub fn reachable_blocks(f: &Function) -> Vec<bool> {
    let mut seen = vec![false; f.blocks.len()];
    let mut stack = vec![f.entry()];
    seen[f.entry().index()] = true;
    while let Some(b) = stack.pop() {
        for s in f.block(b).term.successors() {
            if !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    seen
}

/// Reverse postorder over reachable blocks, starting at the entry.
///
/// This is the iteration order for forward dataflow and the block order the
/// dominator computation requires.
pub fn reverse_postorder(f: &Function) -> Vec<BlockId> {
    let mut post = Vec::with_capacity(f.blocks.len());
    let mut state = vec![0u8; f.blocks.len()]; // 0 unvisited, 1 open, 2 done
                                               // iterative DFS with explicit successor cursor
    let mut stack: Vec<(BlockId, usize)> = vec![(f.entry(), 0)];
    state[f.entry().index()] = 1;
    while let Some(&mut (b, ref mut cursor)) = stack.last_mut() {
        let succs = f.block(b).term.successors();
        if *cursor < succs.len() {
            let s = succs[*cursor];
            *cursor += 1;
            if state[s.index()] == 0 {
                state[s.index()] = 1;
                stack.push((s, 0));
            }
        } else {
            state[b.index()] = 2;
            post.push(b);
            stack.pop();
        }
    }
    post.reverse();
    post
}

/// Which blocks lie on a CFG cycle: the members of a strongly connected
/// component with more than one block, or with a self-loop (Tarjan's
/// algorithm, iterative).
///
/// Unlike natural-loop depth this sees irreducible cycles too: a loop with
/// two entries has no dominating header, so [`crate::LoopInfo`] reports
/// depth 0 for its blocks, but they are still on a cycle.
pub fn cyclic_blocks(f: &Function) -> Vec<bool> {
    const UNSEEN: u32 = u32::MAX;
    let n = f.blocks.len();
    let succs: Vec<Vec<BlockId>> = f.blocks.iter().map(|b| b.term.successors()).collect();
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut cyclic = vec![false; n];
    let mut clock = 0u32;
    // DFS frames: (block, next successor cursor)
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        index[root] = clock;
        low[root] = clock;
        clock += 1;
        stack.push(root);
        on_stack[root] = true;
        frames.push((root, 0));
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if let Some(w) = succs[v].get(*cursor).map(|s| s.index()) {
                *cursor += 1;
                if index[w] == UNSEEN {
                    index[w] = clock;
                    low[w] = clock;
                    clock += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(u, _)) = frames.last() {
                low[u] = low[u].min(low[v]);
            }
            if low[v] == index[v] {
                let at = stack.iter().rposition(|&w| w == v).expect("root on stack");
                let on_cycle = stack.len() - at > 1 || succs[v].iter().any(|s| s.index() == v);
                for w in stack.drain(at..) {
                    on_stack[w] = false;
                    cyclic[w] = on_cycle;
                }
            }
        }
    }
    cyclic
}

/// Splits every critical edge (edge from a block with multiple successors to
/// a block with multiple predecessors) by inserting an empty forwarding
/// block. Returns the number of edges split.
///
/// SSAPRE inserts computations *on edges* (at Φ operands); splitting makes
/// every insertion point a block of its own, and out-of-SSA φ lowering needs
/// it for the same reason.
pub fn split_critical_edges(f: &mut Function) -> usize {
    let preds = f.predecessors();
    let mut to_split: Vec<(BlockId, BlockId)> = Vec::new();
    for b in f.block_ids() {
        let succs = f.block(b).term.successors();
        if succs.len() <= 1 {
            continue;
        }
        for s in succs {
            if preds[s.index()].len() > 1 {
                to_split.push((b, s));
            }
        }
    }
    for &(from, to) in &to_split {
        let mid = BlockId::from_index(f.blocks.len());
        f.blocks.push(Block {
            name: format!(
                "crit_{}_{}",
                f.blocks[from.index()].name,
                f.blocks[to.index()].name
            ),
            insts: Vec::new(),
            term: Terminator::Jump(to),
        });
        f.block_mut(from).term.map_successors(|t| {
            if *t == to {
                *t = mid;
            }
        });
    }
    to_split.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use specframe_ir::{ModuleBuilder, Operand, Ty};

    /// entry -> (a | b); a -> c; b -> c; c -> ret
    fn diamond() -> specframe_ir::Module {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("d", &[("x", Ty::I64)], None);
        {
            let mut fb = mb.define(f);
            let x = fb.param(0);
            let a = fb.block("a");
            let b = fb.block("b");
            let c = fb.block("c");
            fb.br(x.into(), a, b);
            fb.switch_to(a);
            fb.jmp(c);
            fb.switch_to(b);
            fb.jmp(c);
            fb.switch_to(c);
            fb.ret(None);
        }
        mb.finish()
    }

    #[test]
    fn cyclic_blocks_sees_loops_self_loops_and_irreducible_cycles() {
        // acyclic diamond: nothing is on a cycle
        assert!(cyclic_blocks(&diamond().funcs[0]).iter().all(|&c| !c));

        // entry -> (a | b); a <-> b; a -> s; s -> (s | exit): the a/b
        // cycle has two entries, so it has no natural loop; `s` loops on
        // itself
        let mut mb = ModuleBuilder::new();
        let fid = mb.declare_func("irr", &[("x", Ty::I64)], None);
        {
            let mut fb = mb.define(fid);
            let x = fb.param(0);
            let a = fb.block("a");
            let b = fb.block("b");
            let s = fb.block("s");
            let exit = fb.block("exit");
            fb.br(x.into(), a, b);
            fb.switch_to(a);
            fb.br(x.into(), b, s);
            fb.switch_to(b);
            fb.jmp(a);
            fb.switch_to(s);
            fb.br(x.into(), s, exit);
            fb.switch_to(exit);
            fb.ret(None);
        }
        let m = mb.finish();
        let f = &m.funcs[0];
        assert_eq!(cyclic_blocks(f), vec![false, true, true, true, false]);
        let dt = crate::DomTree::compute(f);
        let loops = crate::LoopInfo::compute(f, &dt);
        assert!(
            loops
                .loops
                .iter()
                .all(|l| l.header != BlockId(1) && l.header != BlockId(2)),
            "a two-entry cycle has no natural-loop header"
        );
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let m = diamond();
        let rpo = reverse_postorder(&m.funcs[0]);
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], m.funcs[0].entry());
        // c must come after both a and b
        let pos = |b: BlockId| rpo.iter().position(|&x| x == b).unwrap();
        assert!(pos(BlockId(3)) > pos(BlockId(1)));
        assert!(pos(BlockId(3)) > pos(BlockId(2)));
    }

    #[test]
    fn unreachable_blocks_excluded() {
        let mut m = diamond();
        let dead = m.funcs[0].new_block("dead");
        m.funcs[0].block_mut(dead).term = Terminator::Ret(None);
        let rpo = reverse_postorder(&m.funcs[0]);
        assert_eq!(rpo.len(), 4);
        let reach = reachable_blocks(&m.funcs[0]);
        assert!(!reach[dead.index()]);
    }

    #[test]
    fn critical_edge_split() {
        // entry -br-> (merge | side); side -> merge: edge entry->merge is critical
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("t", &[("x", Ty::I64)], None);
        {
            let mut fb = mb.define(f);
            let x = fb.param(0);
            let merge = fb.block("merge");
            let side = fb.block("side");
            fb.br(x.into(), merge, side);
            fb.switch_to(side);
            fb.jmp(merge);
            fb.switch_to(merge);
            fb.ret(None);
        }
        let mut m = mb.finish();
        let n = split_critical_edges(&mut m.funcs[0]);
        assert_eq!(n, 1);
        // the branch no longer targets merge directly
        let Terminator::Br { then_, .. } = m.funcs[0].blocks[0].term.clone() else {
            panic!()
        };
        assert_ne!(then_, BlockId(1));
        assert!(matches!(
            m.funcs[0].block(then_).term,
            Terminator::Jump(b) if b == BlockId(1)
        ));
        // splitting again is a no-op
        assert_eq!(split_critical_edges(&mut m.funcs[0]), 0);
        specframe_ir::verify_module(&m).unwrap();
    }

    #[test]
    fn branch_with_const_cond_still_splits() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("t", &[], None);
        {
            let mut fb = mb.define(f);
            let a = fb.block("a");
            let b = fb.block("b");
            fb.br(Operand::ConstI(1), a, b);
            fb.switch_to(a);
            fb.jmp(b);
            fb.switch_to(b);
            fb.ret(None);
        }
        let mut m = mb.finish();
        assert_eq!(split_critical_edges(&mut m.funcs[0]), 1);
    }
}
