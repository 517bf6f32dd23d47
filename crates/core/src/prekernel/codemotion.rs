//! Step 6: CodeMotion.
//!
//! Turns Finalize's decisions into a list of [`MotionEdit`]s and applies
//! them with [`apply_edits`]: saves become `t = E; x = t`, reloads become
//! `x = t`, *speculative* reloads become check loads (`ld.c`, Appendix
//! B), control-speculative insertions become `ld.s` with NaT-check
//! reloads, and every load feeding a check is flagged as an advanced
//! load (`ld.a`).
//!
//! The [`MotionEdit`] vocabulary and [`apply_edits`] are shared by every
//! kernel client: store promotion and strength reduction express their
//! loop-shaped rewrites in the same terms instead of splicing statement
//! lists by hand.

use super::finalize::FinalizeOut;
use super::{Kernel, OpndDef, Role, SpecClient};
use crate::stats::OptStats;
use specframe_hssa::{HOperand, HStmt, HStmtKind, HVarKind, HssaFunc, Phi as HPhi};
use specframe_ir::{BlockId, CheckKind, LoadSpec, Ty, VarId};

/// One program rewrite, in kernel vocabulary. Statement indices refer to
/// the block's statement list *at application time*: emit per-block edits
/// in descending statement order (as the kernel does) so earlier indices
/// stay stable, and front/back insertions wherever convenient.
#[derive(Debug)]
pub enum MotionEdit {
    /// Replace the statement at `stmt` with `with`.
    Replace {
        block: BlockId,
        stmt: usize,
        with: HStmt,
    },
    /// Insert `what` immediately after the statement at `stmt`.
    InsertAfter {
        block: BlockId,
        stmt: usize,
        what: HStmt,
    },
    /// Insert `what` at the front of the block.
    InsertFront { block: BlockId, what: HStmt },
    /// Append `what` at the end of the block (before the terminator).
    Append { block: BlockId, what: HStmt },
    /// Attach a φ to the block.
    AddPhi { block: BlockId, phi: HPhi },
}

/// Applies the edits in order.
pub fn apply_edits(hf: &mut HssaFunc, edits: Vec<MotionEdit>) {
    for e in edits {
        match e {
            MotionEdit::Replace { block, stmt, with } => {
                hf.blocks[block.index()].stmts[stmt] = with;
            }
            MotionEdit::InsertAfter { block, stmt, what } => {
                hf.blocks[block.index()].stmts.insert(stmt + 1, what);
            }
            MotionEdit::InsertFront { block, what } => {
                hf.blocks[block.index()].stmts.insert(0, what);
            }
            MotionEdit::Append { block, what } => {
                hf.blocks[block.index()].stmts.push(what);
            }
            MotionEdit::AddPhi { block, phi } => {
                hf.blocks[block.index()].phis.push(phi);
            }
        }
    }
}

impl<C: SpecClient> Kernel<'_, C> {
    pub(crate) fn codemotion(
        &self,
        hf: &mut HssaFunc,
        t: VarId,
        fin: FinalizeOut,
        stats: &mut OptStats,
        inserted_after: &mut Vec<(BlockId, u32)>,
    ) {
        let occs = &self.occs;
        let phis = &self.phis;
        let is_load_expr = self.client.is_load();
        let nclasses = self.next_class as usize;

        // advanced-load marking (Appendix B): a class with any checking
        // reload gets its defining loads flagged ld.a — class and Φ sets
        // are dense bit vectors keyed by the rename-allocated indices
        let mut checked_classes = vec![false; nclasses];
        for o in occs.iter() {
            if let Role::Reload { check: true, .. } = o.role {
                checked_classes[o.class as usize] = true;
            }
        }
        // any Phi reachable from a checked class spreads the marking to
        // defs (conservative: mark every saving def of a checked class and
        // every insertion feeding a Phi of a checked class)
        let mut changed = true;
        let mut checked_phis = vec![false; phis.len()];
        while changed {
            changed = false;
            for (i, p) in phis.iter().enumerate() {
                if checked_classes[p.class as usize] && !checked_phis[i] {
                    checked_phis[i] = true;
                    changed = true;
                }
            }
            for p in phis.iter() {
                for o in &p.opnds {
                    if let OpndDef::Phi(j) = o.def {
                        if checked_classes[p.class as usize]
                            && !checked_classes[phis[j].class as usize]
                        {
                            checked_classes[phis[j].class as usize] = true;
                            changed = true;
                        }
                    }
                }
            }
            // defs linked as operands of checked phis
            for (i, p) in phis.iter().enumerate() {
                if !checked_phis[i] {
                    continue;
                }
                for o in &p.opnds {
                    if let OpndDef::Real(oi) = o.def {
                        if !checked_classes[occs[oi].class as usize] {
                            checked_classes[occs[oi].class as usize] = true;
                            changed = true;
                        }
                    }
                }
            }
        }

        // control-speculation: classes fed by a cspec Phi need NaT-check
        // reloads
        let mut any_cspec = false;
        let mut nat_classes = vec![false; nclasses];
        for p in phis.iter() {
            if p.cspec && p.will_be_avail {
                any_cspec = true;
                nat_classes[p.class as usize] = true;
            }
        }
        // propagate downstream through phi operands
        let mut changed = true;
        while changed {
            changed = false;
            for p in phis.iter() {
                if p.opnds.iter().any(|o| match o.def {
                    OpndDef::Phi(j) => nat_classes[phis[j].class as usize],
                    _ => false,
                }) && !nat_classes[p.class as usize]
                {
                    nat_classes[p.class as usize] = true;
                    changed = true;
                }
            }
        }

        // ---- emit the motion edits ---------------------------------------
        // occs are sorted by (block index, statement index), so the
        // emission order the printed SSA form pins — block-index order,
        // descending statement order within a block (t-version allocation
        // happens while emitting) — falls out of walking each block's
        // contiguous occurrence run in reverse. No map, no sort.
        let mut motion: Vec<MotionEdit> = Vec::new();
        let mut run_start = 0usize;
        while run_start < occs.len() {
            let b = occs[run_start].block;
            let mut run_end = run_start;
            while run_end < occs.len() && occs[run_end].block == b {
                run_end += 1;
            }
            for occ in (run_start..run_end).rev() {
                let o = &occs[occ];
                let stmt = o.stmt;
                match o.role {
                    Role::Compute { save: true } => {
                        let old = hf.blocks[b.index()].stmts[stmt].clone();
                        let dst = old.def_reg().expect("occurrence defines a register");
                        let mut def_stmt = old.clone();
                        // defining statement now writes t
                        set_dst(&mut def_stmt.kind, (t, o.t_ver));
                        if is_load_expr
                            && (checked_classes[o.class as usize] || nat_classes[o.class as usize])
                        {
                            if let HStmtKind::Load { spec, .. } = &mut def_stmt.kind {
                                if *spec == LoadSpec::Normal {
                                    *spec = LoadSpec::Advanced;
                                    stats.advanced_loads += 1;
                                }
                            }
                        }
                        let copy = HStmt::new(HStmtKind::Copy {
                            dst,
                            src: HOperand::Reg(t, o.t_ver),
                        });
                        motion.push(MotionEdit::Replace {
                            block: b,
                            stmt,
                            with: def_stmt,
                        });
                        motion.push(MotionEdit::InsertAfter {
                            block: b,
                            stmt,
                            what: copy,
                        });
                        inserted_after.push((b, o.orig));
                        stats.saves += 1;
                    }
                    Role::Reload { from, check } => {
                        let old = hf.blocks[b.index()].stmts[stmt].clone();
                        let dst = old.def_reg().expect("occurrence defines a register");
                        let needs_nat = nat_classes[o.class as usize];
                        if is_load_expr && (check || needs_nat) {
                            // check load revalidates t, then the original
                            // destination copies from it (Appendix B / Fig. 8)
                            let tv2 = hf.fresh_ver_of_reg(t);
                            let (base, offset, lty, site_kind) = load_shape(&old.kind);
                            let kind = if check {
                                CheckKind::Alat
                            } else {
                                CheckKind::Nat
                            };
                            let chk = HStmt::new(HStmtKind::CheckLoad {
                                dst: (t, tv2),
                                base,
                                offset,
                                ty: lty,
                                kind,
                                site: site_kind,
                                dvar: None,
                            });
                            let copy = HStmt::new(HStmtKind::Copy {
                                dst,
                                src: HOperand::Reg(t, tv2),
                            });
                            motion.push(MotionEdit::Replace {
                                block: b,
                                stmt,
                                with: chk,
                            });
                            motion.push(MotionEdit::InsertAfter {
                                block: b,
                                stmt,
                                what: copy,
                            });
                            inserted_after.push((b, o.orig));
                            stats.checks += 1;
                            if check {
                                stats.data_spec_reloads += 1;
                            }
                        } else {
                            let copy = HStmt::new(HStmtKind::Copy {
                                dst,
                                src: HOperand::Reg(t, from),
                            });
                            motion.push(MotionEdit::Replace {
                                block: b,
                                stmt,
                                with: copy,
                            });
                        }
                        stats.reloads += 1;
                        if is_load_expr {
                            stats.loads_removed += 1;
                        }
                    }
                    Role::Compute { save: false } => {}
                }
            }
            run_start = run_end;
        }

        // insertions at predecessor ends
        for (pi, op_idx) in fin.insertions {
            let p = &phis[pi];
            let pred = hf.preds[p.block.index()][op_idx];
            let opnd = &p.opnds[op_idx];
            let spec_load = p.cspec && is_load_expr;
            let stmt = self.client.materialize(
                hf,
                (t, opnd.t_ver),
                &opnd.vers_at_pred,
                if spec_load {
                    LoadSpec::Speculative
                } else if checked_classes[p.class as usize] || nat_classes[p.class as usize] {
                    LoadSpec::Advanced
                } else {
                    LoadSpec::Normal
                },
            );
            motion.push(MotionEdit::Append {
                block: pred,
                what: stmt,
            });
            stats.insertions += 1;
            if spec_load {
                stats.control_spec_loads += 1;
            }
        }

        // phis for t
        let t_hvar = hf.catalog.get(HVarKind::Reg(t)).expect("temp interned");
        for p in phis.iter() {
            if !p.will_be_avail {
                continue;
            }
            let args: Vec<u32> = p
                .opnds
                .iter()
                .map(|o| {
                    if o.t_ver != u32::MAX {
                        o.t_ver
                    } else {
                        0 // unreachable value path; collapsed var makes this benign
                    }
                })
                .collect();
            motion.push(MotionEdit::AddPhi {
                block: p.block,
                phi: HPhi {
                    var: t_hvar,
                    dest: p.t_ver,
                    args,
                },
            });
        }

        apply_edits(hf, motion);

        stats.transformed += 1;
        if occs.iter().any(|o| o.spec) {
            stats.data_speculated_exprs += 1;
        }
        if any_cspec {
            stats.control_speculated_exprs += 1;
        }
    }
}

fn set_dst(kind: &mut HStmtKind, new: (VarId, u32)) {
    match kind {
        HStmtKind::Bin { dst, .. }
        | HStmtKind::Un { dst, .. }
        | HStmtKind::Copy { dst, .. }
        | HStmtKind::Load { dst, .. }
        | HStmtKind::CheckLoad { dst, .. }
        | HStmtKind::Alloc { dst, .. } => *dst = new,
        HStmtKind::Call { dst: Some(d), .. } => *d = new,
        _ => panic!("set_dst on store"),
    }
}

/// Extracts the address shape of a load statement for check generation.
fn load_shape(kind: &HStmtKind) -> (HOperand, i64, Ty, specframe_ir::MemSiteId) {
    match kind {
        HStmtKind::Load {
            base, offset, ty, ..
        } => (*base, *offset, *ty, specframe_hssa::stmt::FRESH_SITE),
        HStmtKind::CheckLoad {
            base, offset, ty, ..
        } => (*base, *offset, *ty, specframe_hssa::stmt::FRESH_SITE),
        other => panic!("load_shape on non-load {other:?}"),
    }
}
