//! Step 5: Finalize.
//!
//! An availability walk in dominator preorder decides, for every real
//! occurrence, whether it computes the candidate (possibly saving into
//! the kernel temporary `t`) or reloads from `t`, and for every
//! will-be-available Φ operand whether an insertion is required at the
//! predecessor end. All t-versions are allocated here, in walk order —
//! that ordering is part of the printed SSA form the golden tests pin. The
//! walk is rename's sparse event walk (Φs, occurrences, edges into Φ
//! blocks), which meets them in the order a full preorder walk would.

use super::{Ev, Kernel, OpndDef, Role, SpecClient};
use specframe_hssa::HssaFunc;
use specframe_ir::VarId;

/// Finalize's verdict, consumed by CodeMotion. Saves are recorded
/// directly in the occurrences' roles.
pub(crate) struct FinalizeOut {
    /// (phi index, operand index) pairs needing an insertion.
    pub(crate) insertions: Vec<(usize, usize)>,
    /// Whether anything materialized at all (some reload, save or
    /// insertion); when false the kernel bails out without touching `hf`.
    pub(crate) changed: bool,
}

#[derive(Clone, Copy)]
pub(crate) enum Avail {
    FromPhi { phi: usize, t_ver: u32 },
    FromReal { occ: usize, t_ver: u32 },
}

/// No entry below (the bottom of a class's availability stack).
const NONE: u32 = u32::MAX;

impl<C: SpecClient> Kernel<'_, C> {
    pub(crate) fn finalize(&mut self, hf: &mut HssaFunc, t: VarId) -> FinalizeOut {
        let Kernel {
            dt,
            occs,
            phis,
            next_class,
            scratch,
            ..
        } = self;
        // per-class availability stacks, threaded through one arena: the
        // top entry of each class, and each entry's predecessor
        let (top, arena) = (&mut scratch.avail_top, &mut scratch.avail);
        top.clear();
        top.resize(*next_class as usize, NONE);
        arena.clear();
        let push = |arena: &mut Vec<(Avail, u32)>, top: &mut [u32], class: u32, a: Avail| {
            arena.push((a, top[class as usize]));
            top[class as usize] = arena.len() as u32 - 1;
        };
        // collected edits
        let mut saved = vec![false; occs.len()]; // occ indices that must save
        let mut insertions: Vec<(usize, usize)> = Vec::new(); // (phi, opnd)
        let log = &mut scratch.log;
        log.clear();
        let mut cur_block = None;
        for e in &scratch.events {
            let b = e.block;
            if cur_block != Some(b) {
                cur_block = Some(b);
                while let Some(&(lb, class)) = log.last() {
                    if dt.dominates(lb, b) {
                        break;
                    }
                    log.pop();
                    top[class as usize] = arena[top[class as usize] as usize].1;
                }
            }
            match e.ev {
                Ev::Phi(pi) => {
                    if phis[pi].will_be_avail {
                        let tv = hf.fresh_ver_of_reg(t);
                        phis[pi].t_ver = tv;
                        push(
                            arena,
                            top,
                            phis[pi].class,
                            Avail::FromPhi { phi: pi, t_ver: tv },
                        );
                        log.push((b, phis[pi].class));
                    }
                }
                Ev::Occ(oi) => {
                    let class = occs[oi].class;
                    let avail = match top[class as usize] {
                        NONE => None,
                        i => Some(arena[i as usize].0),
                    };
                    match avail {
                        Some(Avail::FromPhi { phi, t_ver }) => {
                            let check = occs[oi].spec || phis[phi].tainted;
                            occs[oi].role = Role::Reload { from: t_ver, check };
                        }
                        Some(Avail::FromReal { occ, t_ver }) => {
                            let check = occs[oi].spec || occs[occ].spec;
                            occs[oi].role = Role::Reload { from: t_ver, check };
                            saved[occ] = true;
                        }
                        None => {
                            let tv = hf.fresh_ver_of_reg(t);
                            occs[oi].t_ver = tv;
                            occs[oi].role = Role::Compute { save: false };
                            push(arena, top, class, Avail::FromReal { occ: oi, t_ver: tv });
                            log.push((b, class));
                        }
                    }
                }
                // successors' Phi operands: insertions & t-version routing
                Ev::PredEnd(s) => {
                    let pi = scratch.phi_at[s.index()] as usize;
                    if !phis[pi].will_be_avail {
                        continue;
                    }
                    let Some(op_idx) = hf.pred_index(s, b) else {
                        continue;
                    };
                    let need_insert = match phis[pi].opnds[op_idx].def {
                        OpndDef::Bottom => true,
                        OpndDef::Phi(j) => {
                            !phis[j].will_be_avail && !phis[pi].opnds[op_idx].has_real_use
                        }
                        OpndDef::Real(_) => false,
                    };
                    if need_insert {
                        let tv = hf.fresh_ver_of_reg(t);
                        phis[pi].opnds[op_idx].t_ver = tv;
                        phis[pi].opnds[op_idx].inserted = true;
                        insertions.push((pi, op_idx));
                    } else {
                        // route the available t version along the edge
                        let tv = match phis[pi].opnds[op_idx].def {
                            OpndDef::Real(oi) => {
                                saved[oi] = true;
                                match occs[oi].role {
                                    Role::Compute { .. } => occs[oi].t_ver,
                                    Role::Reload { from, .. } => from,
                                }
                            }
                            OpndDef::Phi(j) => phis[j].t_ver,
                            OpndDef::Bottom => unreachable!(),
                        };
                        phis[pi].opnds[op_idx].t_ver = tv;
                    }
                }
                Ev::VarPhi { .. } | Ev::Def { .. } => {}
            }
        }
        for (oi, &s) in saved.iter().enumerate() {
            if s {
                if let Role::Compute { .. } = occs[oi].role {
                    occs[oi].role = Role::Compute { save: true };
                }
            }
        }

        // nothing materialized? (all computes unsaved and no reloads)
        let changed = occs.iter().any(|o| match o.role {
            Role::Reload { .. } => true,
            Role::Compute { save } => save,
        }) || !insertions.is_empty();

        FinalizeOut {
            insertions,
            changed,
        }
    }
}
