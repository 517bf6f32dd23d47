//! Speculative SSAPRE clients: expression PRE and register promotion.
//!
//! The six-step engine itself lives in [`crate::prekernel`]; this module
//! hosts the *expression* client of that kernel — the lexical candidate
//! families [`ExprKey`] describes:
//!
//! * arithmetic expressions (address computations among them);
//! * direct loads (scalar promotion);
//! * indirect loads (speculative register promotion, §5 of the paper).
//!
//! [`ssapre_function`] runs the kernel over every candidate in the phase
//! order the cascading rewrites need (arithmetic first so address
//! computations common up, then direct loads whose collapsed temporaries
//! may become indirect bases, then indirect loads). The client's kill
//! query routes every χ weak-update decision through the driver's single
//! [`Likeliness`](specframe_hssa::Likeliness) oracle.
//!
//! The PRE temporary `t` is *collapsed* at lowering (all SSA versions map
//! to one register): that is what lets the ALAT key advanced loads and
//! check loads by the same register, and what makes a failed check's
//! reloaded value visible to every later reload.

use crate::expr::{
    collect_candidates, kills, CandIndex, ExprKey, Family, OccVersions, TrackedRegs,
};
use crate::prekernel::{run_kernel, CandSites, DefSite, KernelCx, KernelScratch, SpecClient};
use crate::stats::OptStats;
use specframe_analysis::FuncAnalyses;
use specframe_hssa::{
    ChiRefine, HOperand, HStmt, HStmtKind, HVarId, HssaFunc, MemBase, RefineStmt,
};
use specframe_ir::FxHashSet;
use specframe_ir::{BlockId, LoadSpec, Ty, VarId};

// The engine moved to `prekernel`; keep the public surface stable.
pub use crate::prekernel::{
    cleanup_hssa, copy_propagate, eliminate_dead_copies, eliminate_dead_phis,
    propagate_collapsed_local, SpecPolicy,
};

/// Runs speculative SSAPRE for every candidate expression of `hf`.
/// Returns the number of expressions that were transformed.
///
/// `f_base` is the function the SSA form was built from (pre-SSAPRE view;
/// SSAPRE itself never mutates it) and `fa` its cached CFG analyses.
pub fn ssapre_function(
    f_base: &specframe_ir::Function,
    hf: &mut HssaFunc,
    policy: &SpecPolicy<'_>,
    stats: &mut OptStats,
    fa: &FuncAnalyses,
) -> usize {
    let cx = KernelCx::new(f_base, hf, fa, policy);
    let mut scratch = KernelScratch::default();
    let mut sites = CandSites::default();
    // one phase: index the function, then run every candidate of `family`
    // (the index records all families when `count` asks for the total)
    let mut phase = |hf: &mut HssaFunc, stats: &mut OptStats, family: Family, count: bool| {
        let mut index = collect_candidates(hf, &fa.dt, (!count).then_some(family));
        if count {
            stats.candidates += index.keys().len() as u64;
        }
        let keys: Vec<ExprKey> = index
            .keys()
            .iter()
            .copied()
            .filter(|k| k.family() == family)
            .collect();
        let mut changed = 0;
        for key in &keys {
            if ssapre_expression(hf, key, &mut index, &cx, &mut sites, &mut scratch, stats) {
                changed += 1;
            }
        }
        changed
    };
    // phase 1: arithmetic expressions (address computations among them)
    let mut changed = phase(hf, stats, Family::Arith, true);
    // phase 2: copy propagation unifies the base registers of loads whose
    // address arithmetic phase 1 just commoned — this restores the "same
    // syntax tree" identity the paper's lexical expression matching relies
    // on (a three-address IR would otherwise hide it behind copies)
    copy_propagate(hf);
    // phase 3a: direct loads (scalar promotion) first — their collapsed
    // temporaries may become the base registers of indirect candidates
    changed += phase(hf, stats, Family::Direct, false);
    // phase 3b: forward the promoted pointers into dependent load bases so
    // cascaded speculation (Appendix B's chk.a scenario) can see them
    copy_propagate(hf);
    propagate_collapsed_local(hf);
    // phase 3c: indirect loads, re-collected after the rewrite
    changed += phase(hf, stats, Family::Indirect, false);
    // phase 4: clean up — propagate the copies the transformations left
    // behind and drop the dead ones, so a reload costs its check and
    // nothing more
    cleanup_hssa(hf);
    changed
}

/// Runs the six kernel steps for one expression, reading its sites from
/// the phase's `index` and keeping the index exact afterwards. Returns
/// `true` if the program changed.
fn ssapre_expression(
    hf: &mut HssaFunc,
    key: &ExprKey,
    index: &mut CandIndex,
    cx: &KernelCx<'_>,
    sites: &mut CandSites,
    scratch: &mut KernelScratch,
    stats: &mut OptStats,
) -> bool {
    let client = ExprClient::new(hf, key, cx.policy, index);
    sites.clear();
    client.occurrences_into(index, sites);
    #[cfg(test)]
    exactness::check_candidate(hf, key, index, &client, sites, cx);
    let fill_vars = |sites: &mut CandSites| client.vars_into(index, sites);
    if !run_kernel(hf, &client, sites, fill_vars, cx, scratch, stats) {
        return false;
    }
    for &(b, stmt) in &sites.inserted_after {
        index.note_inserted_after(b, stmt);
    }
    true
}

#[cfg(test)]
mod exactness;

// ---------------------------------------------------------------------------
// the expression client
// ---------------------------------------------------------------------------

/// The kernel client for one lexical expression candidate.
struct ExprClient<'a> {
    key: &'a ExprKey,
    policy: &'a SpecPolicy<'a>,
    tracked_regs: TrackedRegs,
    mem_var: Option<HVarId>,
    /// Cascaded speculation (Appendix B's chk.a case): when an indirect
    /// load's base register is itself a collapsed promotion temporary, its
    /// SSA versions all denote "the current value of the promoted pointer"
    /// and a new version (a check or save of the pointer) is an *injuring*
    /// definition, not a kill: the dependent reload re-validates through
    /// its own ALAT check against the current address, so matching across
    /// those versions is recoverable.
    base_collapsed: bool,
    /// Union of profiled LOCs across the candidate's occurrence sites
    /// (for the per-expression χ refinement in profile mode).
    expr_locs: FxHashSet<specframe_alias::Loc>,
}

impl<'a> ExprClient<'a> {
    fn new(hf: &HssaFunc, key: &'a ExprKey, policy: &'a SpecPolicy<'a>, index: &CandIndex) -> Self {
        let base_collapsed = match key {
            ExprKey::IndirectLoad { base, .. } => hf.collapsed_vars.contains(base),
            _ => false,
        };
        let mut expr_locs: FxHashSet<specframe_alias::Loc> = FxHashSet::default();
        if let Some(p) = policy.oracle.profile() {
            for o in index.occurrences(key) {
                let stmt = index.current(o.block, o.stmt);
                let stmt = &hf.blocks[o.block.index()].stmts[stmt as usize];
                if let HStmtKind::Load { site, .. } = &stmt.kind {
                    if let Some(s) = p.locs(*site) {
                        expr_locs.extend(s.iter().copied());
                    }
                }
            }
        }
        ExprClient {
            key,
            policy,
            tracked_regs: key.tracked_regs(),
            mem_var: key.tracked_mem(hf),
            base_collapsed,
            expr_locs,
        }
    }

    /// The candidate's occurrences, read from the index (current
    /// coordinates).
    fn occurrences_into(&self, index: &CandIndex, sites: &mut CandSites) {
        sites.occs.extend(index.occurrences(self.key).map(|o| {
            let cur = index.current(o.block, o.stmt);
            (o.block, cur, o.stmt, o.vers.clone())
        }));
    }

    /// The defs and φs of the candidate's variables, read from the index.
    fn vars_into(&self, index: &CandIndex, sites: &mut CandSites) {
        let def = |slot: usize, d: &crate::expr::VarDef| DefSite {
            block: d.block,
            stmt: index.current(d.block, d.stmt),
            slot: slot as u32,
            ver: d.ver,
            chi_old: d.chi_old,
        };
        let phi = |slot: usize, &(b, dest): &(BlockId, u32)| (b, slot as u32, dest);
        for (slot, &r) in self.tracked_regs.iter().enumerate() {
            sites.defs.extend(index.reg_defs(r).map(|d| def(slot, d)));
            sites
                .var_phis
                .extend(index.reg_phis(r).map(|p| phi(slot, p)));
        }
        if let Some(mv) = self.mem_var {
            let slot = self.tracked_regs.len();
            sites.defs.extend(index.mem_defs(mv).map(|d| def(slot, d)));
            sites
                .var_phis
                .extend(index.mem_phis(mv).map(|p| phi(slot, p)));
        }
    }
}

impl SpecClient for ExprClient<'_> {
    fn describe(&self) -> String {
        format!("{:?}", self.key)
    }

    fn kills(&self, stmt: &HStmt) -> bool {
        kills_with_policy(
            stmt,
            self.key,
            &self.tracked_regs,
            self.mem_var,
            self.policy,
            &self.expr_locs,
            self.base_collapsed,
        )
    }

    fn tracked_regs(&self) -> &[VarId] {
        &self.tracked_regs
    }

    fn tracked_mem(&self) -> Option<HVarId> {
        self.mem_var
    }

    fn base_collapsed(&self) -> bool {
        self.base_collapsed
    }

    fn is_load(&self) -> bool {
        self.key.is_load()
    }

    fn control_speculatable(&self) -> bool {
        self.key.control_speculatable()
    }

    fn temp_ty(&self) -> Ty {
        match self.key {
            ExprKey::Bin(op, _, _) => op.result_ty(),
            ExprKey::DirectLoad(_, ty) => *ty,
            ExprKey::IndirectLoad { ty, .. } => *ty,
        }
    }

    fn temp_name(&self, n: u64) -> String {
        format!("pre{n}")
    }

    fn materialize(
        &self,
        hf: &HssaFunc,
        t: (VarId, u32),
        vers: &OccVersions,
        spec: LoadSpec,
    ) -> HStmt {
        materialize(self.key, hf, t, vers, self.mem_var, spec)
    }
}

// ---------------------------------------------------------------------------
// the client's kill query (the speculative-weak-update decision)
// ---------------------------------------------------------------------------

/// The killing statement's shape as the oracle's plain-data view.
fn refine_stmt(stmt: &HStmt) -> RefineStmt {
    match &stmt.kind {
        HStmtKind::Store {
            site, base, offset, ..
        } => RefineStmt::Store {
            site: *site,
            syntax: match base {
                HOperand::Reg(sb, _) => Some((*sb, *offset)),
                _ => None,
            },
        },
        HStmtKind::Call { site, .. } => RefineStmt::Call { site: *site },
        _ => RefineStmt::Other,
    }
}

fn kills_with_policy(
    stmt: &HStmt,
    key: &ExprKey,
    tracked_regs: &[VarId],
    mem_var: Option<HVarId>,
    policy: &SpecPolicy<'_>,
    expr_locs: &FxHashSet<specframe_alias::Loc>,
    base_collapsed: bool,
) -> bool {
    if !policy.data() {
        return kills(stmt, key, mem_var, false, false);
    }
    // a redefinition of a collapsed base register is an injuring def, not a
    // kill: dependent reloads re-validate through their own check
    if base_collapsed {
        if let Some((v, _)) = stmt.def_reg() {
            if tracked_regs.contains(&v) && !kills_mem_part(stmt, key, mem_var, policy, expr_locs) {
                return false;
            }
        }
    }
    if kills_reg_or_strong(stmt, tracked_regs, mem_var) {
        return true;
    }
    let Some(mv) = mem_var else { return false };
    let Some(chi) = stmt.chi_of(mv) else {
        return false;
    };
    policy.oracle.chi_kills(&ChiRefine {
        chi_likely: chi.likely,
        stmt: refine_stmt(stmt),
        cand_direct: matches!(key, ExprKey::DirectLoad(..)),
        cand_syntax: key.syntax(),
        cand_ty: key.load_ty(),
        expr_locs,
    })
}

/// The memory component of the kill decision (strong def or effective chi
/// kill of the tracked memory variable), ignoring register redefinitions.
fn kills_mem_part(
    stmt: &HStmt,
    key: &ExprKey,
    mem_var: Option<HVarId>,
    policy: &SpecPolicy<'_>,
    expr_locs: &FxHashSet<specframe_alias::Loc>,
) -> bool {
    let Some(mv) = mem_var else { return false };
    if let HStmtKind::Store {
        dvar_def: Some((id, _)),
        ..
    } = &stmt.kind
    {
        if *id == mv {
            return true;
        }
    }
    let Some(chi) = stmt.chi_of(mv) else {
        return false;
    };
    policy.oracle.chi_kills(&ChiRefine {
        chi_likely: chi.likely,
        stmt: refine_stmt(stmt),
        cand_direct: matches!(key, ExprKey::DirectLoad(..)),
        cand_syntax: key.syntax(),
        cand_ty: key.load_ty(),
        expr_locs,
    })
}

fn kills_reg_or_strong(stmt: &HStmt, tracked_regs: &[VarId], mem_var: Option<HVarId>) -> bool {
    if let Some((v, _)) = stmt.def_reg() {
        if tracked_regs.contains(&v) {
            return true;
        }
    }
    if let (
        Some(mv),
        HStmtKind::Store {
            dvar_def: Some((id, _)),
            ..
        },
    ) = (mem_var, &stmt.kind)
    {
        if *id == mv {
            return true;
        }
    }
    false
}

/// Builds the inserted computation of `key` writing `t`, using the operand
/// versions recorded at the predecessor end.
fn materialize(
    key: &ExprKey,
    hf: &HssaFunc,
    t: (VarId, u32),
    vers: &OccVersions,
    mem_var: Option<HVarId>,
    spec: LoadSpec,
) -> HStmt {
    let _ = hf;
    match key {
        ExprKey::Bin(op, a, b) => {
            let mut it = vers.regs.iter();
            let mut conv = |l: &crate::expr::LexOperand| -> HOperand {
                match l {
                    crate::expr::LexOperand::Reg(v) => HOperand::Reg(*v, *it.next().unwrap()),
                    crate::expr::LexOperand::ConstI(c) => HOperand::ConstI(*c),
                    crate::expr::LexOperand::ConstF(c) => HOperand::ConstF(f64::from_bits(*c)),
                    crate::expr::LexOperand::GlobalAddr(g) => HOperand::GlobalAddr(*g),
                    crate::expr::LexOperand::SlotAddr(s) => HOperand::SlotAddr(*s),
                }
            };
            // note: tracked_regs dedups, so a+a uses one version for both
            let a_op = conv(a);
            let b_op = if a == b { a_op } else { conv(b) };
            HStmt::new(HStmtKind::Bin {
                dst: t,
                op: *op,
                a: a_op,
                b: b_op,
            })
        }
        ExprKey::DirectLoad(mv, ty) => {
            let base = match mv.base {
                MemBase::Global(g) => HOperand::GlobalAddr(g),
                MemBase::Slot(s) => HOperand::SlotAddr(s),
            };
            let mut stmt = HStmt::new(HStmtKind::Load {
                dst: t,
                base,
                offset: mv.off,
                ty: *ty,
                spec,
                site: specframe_hssa::stmt::FRESH_SITE,
                dvar: mem_var.map(|id| (id, vers.mem.unwrap_or(0))),
            });
            stmt.mu.clear();
            stmt
        }
        ExprKey::IndirectLoad {
            base,
            off,
            ty,
            vvar,
            ..
        } => {
            let mut stmt = HStmt::new(HStmtKind::Load {
                dst: t,
                base: HOperand::Reg(*base, vers.regs[0]),
                offset: *off,
                ty: *ty,
                spec,
                site: specframe_hssa::stmt::FRESH_SITE,
                dvar: None,
            });
            stmt.mu.push(specframe_hssa::MuOp {
                var: *vvar,
                ver: vers.mem.unwrap_or(0),
                likely: true,
            });
            stmt
        }
    }
}
