//! Step 2: Rename.
//!
//! A preorder dominator-tree walk maintains an expression stack alongside
//! one version stack per operand variable and assigns h-versions (classes)
//! to the real occurrences and Φ operands. The walk is sparse: it visits
//! only the candidate's events (variable φs, Φs, occurrences, defs of the
//! tracked variables, edges into Φ blocks) in preorder, and a stack entry
//! is popped when the walk reaches a block its own block does not
//! dominate. The speculative extension
//! (paper Figure 7): when the memory versions of two occurrences differ
//! *only through speculative weak updates* — checked by the weak-chain
//! walker over the candidate's χ def chain — they receive the same class
//! with a speculation flag.

use super::{weak_reaches, Ev, Kernel, OpndDef, SpecClient};
use crate::expr::OccVersions;
use specframe_hssa::HssaFunc;

#[derive(Clone, Copy, Debug)]
pub(crate) enum Top {
    Real(usize),
    Phi(usize),
}

pub(crate) struct Entry {
    class: u32,
    top: Top,
    vers: OccVersions,
}

/// Undo-log tag of the expression stack (variable stacks log their slot).
const EXPR: u32 = u32::MAX;

impl<C: SpecClient> Kernel<'_, C> {
    pub(crate) fn rename(&mut self, hf: &HssaFunc) {
        let Kernel {
            client,
            policy,
            dt,
            mem_var,
            occs,
            chis,
            phis,
            scratch,
            ..
        } = self;
        let client = *client;
        let nregs = client.tracked_regs().len();
        let mem_var = *mem_var;
        let base_collapsed = client.base_collapsed();
        let data = policy.data();

        let mut next_class = 0u32;
        let expr_stack = &mut scratch.expr_stack;
        expr_stack.clear();
        // variable version stacks: regs by position in tracked_regs, mem
        // last; each starts at the entry version
        let stacks = &mut scratch.var_stacks;
        stacks.resize_with(nregs + 1, Vec::new);
        for st in stacks.iter_mut() {
            st.clear();
            st.push(0);
        }
        let tops = |stacks: &[Vec<u32>]| OccVersions {
            regs: stacks[..nregs].iter().map(|s| *s.last().unwrap()).collect(),
            mem: mem_var.map(|_| *stacks[nregs].last().unwrap()),
        };
        let log = &mut scratch.log;
        log.clear();

        let mut cur_block = None;
        for e in &scratch.events {
            let b = e.block;
            if cur_block != Some(b) {
                cur_block = Some(b);
                // leave the scopes of blocks that do not dominate `b`
                while let Some(&(lb, slot)) = log.last() {
                    if dt.dominates(lb, b) {
                        break;
                    }
                    log.pop();
                    if slot == EXPR {
                        expr_stack.pop();
                    } else {
                        stacks[slot as usize].pop();
                    }
                }
            }
            match e.ev {
                // (a) variable φs and defs
                Ev::VarPhi { slot, dest: ver } | Ev::Def { slot, ver, .. } => {
                    stacks[slot as usize].push(ver);
                    log.push((b, slot));
                }
                // (b) expression Φ
                Ev::Phi(pi) => {
                    let class = next_class;
                    next_class += 1;
                    phis[pi].class = class;
                    expr_stack.push(Entry {
                        class,
                        top: Top::Phi(pi),
                        vers: tops(stacks),
                    });
                    log.push((b, EXPR));
                }
                // (c) real occurrences
                Ev::Occ(oi) => {
                    let vers = occs[oi].vers.clone();
                    let mut assigned = false;
                    if let Some(top) = expr_stack.last() {
                        let regs_exact = top.vers.regs == vers.regs;
                        let regs_eq = regs_exact || (base_collapsed && data);
                        let reg_spec = regs_eq && !regs_exact;
                        if regs_eq && top.vers.mem == vers.mem {
                            occs[oi].class = top.class;
                            occs[oi].spec = reg_spec;
                            assigned = true;
                        } else if regs_eq && data {
                            if let (Some(cur), Some(at)) = (vers.mem, top.vers.mem) {
                                if let Some(true) = weak_reaches(hf, chis, client, cur, at) {
                                    occs[oi].class = top.class;
                                    occs[oi].spec = true;
                                    assigned = true;
                                }
                            }
                        }
                    }
                    if !assigned {
                        occs[oi].class = next_class;
                        next_class += 1;
                    }
                    expr_stack.push(Entry {
                        class: occs[oi].class,
                        top: Top::Real(oi),
                        vers,
                    });
                    log.push((b, EXPR));
                }
                // (d) expression-Φ operands along the edge b -> s
                Ev::PredEnd(s) => {
                    let pi = scratch.phi_at[s.index()] as usize;
                    let Some(op_idx) = hf.pred_index(s, b) else {
                        continue;
                    };
                    let cur = tops(stacks);
                    let mut bind: Option<(OpndDef, bool, bool)> = None;
                    if let Some(top) = expr_stack.last() {
                        let regs_exact = top.vers.regs == cur.regs;
                        let regs_eq = regs_exact || (base_collapsed && data);
                        let reg_spec = regs_eq && !regs_exact;
                        let mem_match = if top.vers.mem == cur.mem {
                            Some(reg_spec)
                        } else if regs_eq && data {
                            match (cur.mem, top.vers.mem) {
                                (Some(c), Some(a)) => weak_reaches(hf, chis, client, c, a),
                                _ => None,
                            }
                        } else {
                            None
                        };
                        if regs_eq {
                            if let Some(spec) = mem_match {
                                let def = match top.top {
                                    Top::Real(i) => OpndDef::Real(i),
                                    Top::Phi(i) => OpndDef::Phi(i),
                                };
                                bind = Some((def, matches!(top.top, Top::Real(_)), spec));
                            }
                        }
                    }
                    let opnd = &mut phis[pi].opnds[op_idx];
                    opnd.vers_at_pred = cur;
                    if let Some((def, has_real_use, spec)) = bind {
                        opnd.def = def;
                        opnd.has_real_use = has_real_use;
                        opnd.spec = spec;
                    }
                }
            }
        }
        self.next_class = next_class;
    }
}
