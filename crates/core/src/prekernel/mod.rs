//! The client-parameterized six-step speculative SSAPRE kernel.
//!
//! This module tree is the paper's §4 framework factored out of its
//! clients. One [`run_kernel`] call performs the six SSAPRE steps for a
//! single candidate described by a [`SpecClient`] over a function in
//! speculative SSA form — each step lives in the module named after it:
//!
//! 1. [`phi_insert`] — **Φ-Insertion**: Φs for the hypothetical temporary
//!    `h` are placed at the iterated dominance frontier of every real
//!    occurrence and at every φ of a variable of the candidate. Because
//!    the operand-variable φ set includes φs reached *through speculative
//!    weak updates*, this is the superset the paper's Appendix A computes
//!    by walking unflagged χs (an expression killed only by weak updates
//!    is *speculatively anticipated*, Figure 6).
//! 2. [`rename`] — a sparse preorder dominator-tree walk over the
//!    candidate's events assigns h-versions. The paper's extension: when
//!    operand versions differ *only through speculative weak updates*,
//!    the occurrence receives the same h-version and a speculation flag
//!    (Figure 7).
//! 3. [`downsafety`] — block-lexical backward anticipation; with data
//!    speculation, weak updates do not kill. Control speculation treats a
//!    profitable non-down-safe Φ as down-safe (edge-profile gated).
//! 4. [`willbeavail`] — `can_be_avail` / `later` propagation over the Φ
//!    graph, exactly as in SSAPRE.
//! 5. [`finalize`] — availability walk deciding saves, reloads and
//!    insertions, and allocating the t-versions they carry.
//! 6. [`codemotion`] — turns those decisions into [`MotionEdit`]s and
//!    applies them: saves become `t = E; x = t`, reloads become `x = t`,
//!    *speculative* reloads become check loads (`ld.c`, Appendix B),
//!    control-speculative insertions become `ld.s` with NaT-check
//!    reloads, and every load feeding a check is flagged `ld.a`.
//!
//! The kernel is shared by four clients: expression PRE and speculative
//! register promotion (both hosted in [`crate::ssapre`], running all six
//! steps), store promotion ([`crate::storeprom`]) and strength reduction
//! ([`crate::strength`]), which reuse the kernel's loop recognition
//! ([`loops`]) and motion-edit application ([`codemotion::apply_edits`])
//! for their loop-shaped candidates, plus linear-function test
//! replacement ([`crate::lftr`]), which consumes the rename/version state
//! strength reduction records for its temporaries.
//!
//! The kernel is sparse: [`run_kernel`] takes the candidate's occurrences
//! and the defs and φs of its variables as [`CandSites`] (the expression
//! client reads them from an index built once per phase) and never walks
//! the function's statements, so a candidate costs time proportional to
//! its occurrences, those defs and its Φ blocks. A candidate with one
//! occurrence in a block on no CFG cycle exits before step 1.
//!
//! Beyond its sites, a client answers two questions and nothing more:
//! *does this statement kill the candidate under the active speculation
//! policy* — the speculative-weak-update query routed through the
//! driver's single [`Likeliness`] oracle ([`SpecClient::kills`]) — and
//! *how is an inserted computation emitted* ([`SpecClient::materialize`]).

pub mod cleanup;
pub mod codemotion;
pub mod downsafety;
pub mod finalize;
pub mod loops;
pub mod phi_insert;
pub mod rename;
pub mod willbeavail;

pub use cleanup::{
    cleanup_hssa, copy_propagate, eliminate_dead_copies, eliminate_dead_phis,
    propagate_collapsed_local,
};
pub use codemotion::{apply_edits, MotionEdit};
pub use loops::{reducible_loops, LoopShape};

use crate::expr::OccVersions;
use crate::stats::OptStats;
use specframe_analysis::{DomTree, EdgeProfile, FuncAnalyses};
use specframe_hssa::{HStmt, HVarId, HssaFunc, Likeliness};
use specframe_ir::{BlockId, DenseMap, FuncId, Function, LoadSpec, Ty, VarId};

/// Speculation policy given to the kernel: the driver-owned likeliness
/// oracle (data speculation) plus the control-speculation edge profile.
#[derive(Clone, Copy, Debug)]
pub struct SpecPolicy<'a> {
    /// Likeliness oracle answering every χ weak-update question.
    pub oracle: Likeliness<'a>,
    /// Control speculation: edge profile + owning function.
    pub control: Option<(&'a EdgeProfile, FuncId)>,
}

impl SpecPolicy<'_> {
    /// Policy with all speculation off (the O3 baseline).
    pub fn none() -> SpecPolicy<'static> {
        SpecPolicy {
            oracle: Likeliness::new(specframe_hssa::SpecMode::NoSpeculation),
            control: None,
        }
    }

    /// Data speculation enabled (weak updates skippable).
    pub fn data(&self) -> bool {
        self.oracle.speculative()
    }
}

/// The kernel's contract with a candidate. Everything lexical about the
/// candidate (its shape, its operand variables, its kill set under the
/// speculation policy) lives behind this trait; the six steps themselves
/// are candidate-agnostic.
pub trait SpecClient {
    /// Debug rendering of the candidate (used by `SPECFRAME_DEBUG_SSAPRE`).
    fn describe(&self) -> String;
    /// The speculative-weak-update query: does `stmt` kill the candidate
    /// under the active policy? Implementations route χ decisions through
    /// the driver's [`Likeliness`] oracle.
    fn kills(&self, stmt: &HStmt) -> bool;
    /// Register operand variables, in lexical position order (deduped).
    fn tracked_regs(&self) -> &[VarId];
    /// Memory/virtual variable the candidate depends on, if any.
    fn tracked_mem(&self) -> Option<HVarId>;
    /// Whether the candidate's base register is itself a collapsed
    /// promotion temporary (Appendix B's cascaded `chk.a` case): its
    /// redefinitions are injuring, not killing.
    fn base_collapsed(&self) -> bool {
        false
    }
    /// Whether occurrences are loads (the temporary then collapses onto
    /// one machine register so the ALAT can key it).
    fn is_load(&self) -> bool;
    /// Whether the candidate may be control-speculated (inserted on
    /// non-down-safe paths).
    fn control_speculatable(&self) -> bool;
    /// Result type of the kernel temporary.
    fn temp_ty(&self) -> Ty;
    /// Name of the kernel temporary (`n` is the global temp counter).
    fn temp_name(&self, n: u64) -> String;
    /// Motion-edit emission: build the inserted computation writing `t`,
    /// using the operand versions recorded at the predecessor end.
    fn materialize(
        &self,
        hf: &HssaFunc,
        t: (VarId, u32),
        vers: &OccVersions,
        spec: LoadSpec,
    ) -> HStmt;
}

// ---------------------------------------------------------------------------
// the candidate's sites (what the client hands the kernel)
// ---------------------------------------------------------------------------

/// One definition of a tracked variable, as the client found it in its
/// index. `slot` is the variable's position in
/// [`SpecClient::tracked_regs`], or `tracked_regs().len()` for the tracked
/// memory variable.
#[derive(Clone, Copy, Debug)]
pub struct DefSite {
    /// Block of the defining statement (reachable).
    pub block: BlockId,
    /// Statement index, current coordinates.
    pub stmt: u32,
    /// Variable slot (see above).
    pub slot: u32,
    /// Version defined.
    pub ver: u32,
    /// For a χ def of the memory variable, the version merged in; `None`
    /// for register defs and strong stores.
    pub chi_old: Option<u32>,
}

/// Everything the kernel reads about one candidate. The client fills it
/// from an index built once per phase, so the kernel never walks the
/// function's statements: its cost is proportional to the occurrences,
/// the tracked variables' defs and the Φ blocks. One value is reused
/// across candidates.
#[derive(Default, Debug, Clone)]
pub struct CandSites {
    /// Real occurrences in reachable blocks, in (block index, statement)
    /// order: (block, current statement index, index-coordinate statement
    /// index, operand versions).
    pub occs: Vec<(BlockId, u32, u32, OccVersions)>,
    /// Defs of the tracked variables in reachable blocks. Within one
    /// statement, a register def comes before a strong memory def, which
    /// comes before a χ. Every statement for which [`SpecClient::kills`]
    /// can answer yes is among them.
    pub defs: Vec<DefSite>,
    /// φs of the tracked variables in reachable blocks: (block, slot, dest).
    pub var_phis: Vec<(BlockId, u32, u32)>,
    /// Filled by CodeMotion: the index-coordinate positions (block,
    /// statement) after which a statement was inserted.
    pub inserted_after: Vec<(BlockId, u32)>,
}

impl CandSites {
    /// Empties every list, keeping the allocations.
    pub fn clear(&mut self) {
        self.occs.clear();
        self.defs.clear();
        self.var_phis.clear();
        self.inserted_after.clear();
    }
}

/// Per-function context shared by every candidate's kernel run.
pub struct KernelCx<'a> {
    /// The base function (for the control-speculation block frequencies).
    pub f_base: &'a Function,
    /// Cached CFG analyses (dominators, frontiers, cycle bitmap).
    pub fa: &'a FuncAnalyses,
    /// The speculation policy.
    pub policy: &'a SpecPolicy<'a>,
    /// Reachable blocks without successors (the anticipation sinks).
    exits: Vec<BlockId>,
    /// Edge-profile block frequencies, computed on first use.
    freqs: std::cell::OnceCell<Vec<u64>>,
}

impl<'a> KernelCx<'a> {
    /// The context of one function (the CFG is fixed from here on).
    pub fn new(
        f_base: &'a Function,
        hf: &HssaFunc,
        fa: &'a FuncAnalyses,
        policy: &'a SpecPolicy<'a>,
    ) -> Self {
        let exits = hf
            .block_ids()
            .filter(|&b| {
                fa.dt.is_reachable(b)
                    && hf.blocks[b.index()]
                        .term
                        .as_ref()
                        .is_none_or(|t| t.succs().next().is_none())
            })
            .collect();
        KernelCx {
            f_base,
            fa,
            policy,
            exits,
            freqs: std::cell::OnceCell::new(),
        }
    }

    fn block_freqs(&self, ep: &EdgeProfile, fid: FuncId) -> &[u64] {
        self.freqs.get_or_init(|| ep.block_freqs(fid, self.f_base))
    }
}

/// Buffers reused across candidates so the per-candidate cost carries no
/// O(function) allocation: the dense per-block tables are reset entry by
/// entry after each run.
#[derive(Default)]
pub struct KernelScratch {
    /// Per block: index into the candidate's Φs, or [`NO_PHI`].
    phi_at: Vec<u32>,
    /// Per block: downsafety state (see `downsafety.rs`).
    mark: Vec<u8>,
    /// Blocks whose `mark` is set.
    marked: Vec<BlockId>,
    events: Vec<Event>,
    /// Dominance-scoped undo log shared by rename and finalize.
    log: Vec<(BlockId, u32)>,
    /// Per redundancy class: seen / will-be-available bits.
    class_bits: Vec<u8>,
    /// Rename's expression and variable stacks.
    expr_stack: Vec<rename::Entry>,
    var_stacks: Vec<Vec<u32>>,
    /// Finalize's per-class availability stacks: each class's top entry,
    /// and the entries with the index of the one below.
    avail_top: Vec<u32>,
    avail: Vec<(finalize::Avail, u32)>,
    work: Vec<BlockId>,
}

impl KernelScratch {
    fn fit(&mut self, nblocks: usize) {
        if self.phi_at.len() < nblocks {
            self.phi_at.resize(nblocks, NO_PHI);
            self.mark.resize(nblocks, 0);
        }
    }
}

/// Whether `SPECFRAME_DEBUG_SSAPRE` is set (read once per process).
fn debug_ssapre() -> bool {
    static DEBUG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *DEBUG.get_or_init(|| std::env::var_os("SPECFRAME_DEBUG_SSAPRE").is_some())
}

// ---------------------------------------------------------------------------
// occurrence bookkeeping (shared by all six steps)
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
pub(crate) struct RealOcc {
    pub(crate) block: BlockId,
    /// Statement index, current coordinates.
    pub(crate) stmt: usize,
    /// Statement index in the client index's coordinates.
    pub(crate) orig: u32,
    pub(crate) vers: OccVersions,
    pub(crate) class: u32,
    /// Matched its class only through speculative weak updates.
    pub(crate) spec: bool,
    /// Filled by Finalize.
    pub(crate) role: Role,
    /// t-version, when this occurrence is a class def (save).
    pub(crate) t_ver: u32,
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum Role {
    /// Computes the candidate itself (maybe saving into t).
    Compute { save: bool },
    /// Reloads from t.
    Reload { from: u32, check: bool },
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum OpndDef {
    Bottom,
    Real(usize),
    Phi(usize),
}

#[derive(Clone, Debug)]
pub(crate) struct PhiOpnd {
    pub(crate) def: OpndDef,
    pub(crate) has_real_use: bool,
    pub(crate) spec: bool,
    /// Variable versions at the end of the predecessor (for insertion).
    pub(crate) vers_at_pred: OccVersions,
    /// t-version carried along this edge (filled by Finalize).
    pub(crate) t_ver: u32,
    /// Insertion performed on this edge.
    pub(crate) inserted: bool,
}

#[derive(Clone, Debug)]
pub(crate) struct PhiE {
    pub(crate) block: BlockId,
    pub(crate) class: u32,
    pub(crate) opnds: Vec<PhiOpnd>,
    pub(crate) down_safe: bool,
    /// Made "down-safe" by control speculation.
    pub(crate) cspec: bool,
    pub(crate) can_be_avail: bool,
    pub(crate) later: bool,
    pub(crate) will_be_avail: bool,
    /// Some incoming value is only speculatively equal.
    pub(crate) tainted: bool,
    pub(crate) t_ver: u32,
}

/// A χ def of the tracked memory variable (for weak-chain walking).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChiDef {
    block: BlockId,
    stmt: u32,
    /// The version merged in.
    old: u32,
}

/// One point of the sparse dominator-tree walk that rename and finalize
/// share.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Ev {
    /// A φ of tracked variable `slot` at block entry.
    VarPhi { slot: u32, dest: u32 },
    /// The block's expression Φ (index into `phis`).
    Phi(usize),
    /// A real occurrence (index into `occs`).
    Occ(usize),
    /// A def of tracked variable `slot` by statement `stmt`.
    Def { slot: u32, ver: u32, stmt: u32 },
    /// End of the block: the edge into successor `succ`, which has a Φ.
    PredEnd(BlockId),
}

/// An [`Ev`] with its place in the walk: dominator-tree preorder of the
/// block, then the position inside the block.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    order: (u32, u64),
    pub(crate) block: BlockId,
    pub(crate) ev: Ev,
}

/// Position of the statement-level events of statement `stmt`; `sub`
/// orders an occurrence (0) before the register (1), strong memory (2)
/// and χ (3) defs of the same statement.
fn stmt_pos(stmt: u32, sub: u64) -> u64 {
    2 + 4 * u64::from(stmt) + sub
}

/// Position of the edge to the `i`-th successor, after every statement.
const PRED_END: u64 = u64::MAX - 2;

// ---------------------------------------------------------------------------
// kernel state
// ---------------------------------------------------------------------------

/// Sentinel for "no Φ in this block" in the dense [`KernelScratch`] map.
pub(crate) const NO_PHI: u32 = u32::MAX;

/// State threaded through the six steps for one candidate.
///
/// Occurrences live in one `Vec` sorted by (block layout index, statement
/// index); rename and finalize walk one event list sorted by dominator-tree
/// preorder instead of visiting every block and statement.
pub(crate) struct Kernel<'k, C: SpecClient> {
    pub(crate) client: &'k C,
    pub(crate) cx: &'k KernelCx<'k>,
    pub(crate) policy: &'k SpecPolicy<'k>,
    pub(crate) dt: &'k DomTree,
    pub(crate) mem_var: Option<HVarId>,
    pub(crate) occs: Vec<RealOcc>,
    /// Defs and φs of the tracked variables.
    pub(crate) defs: &'k [DefSite],
    pub(crate) var_phis: &'k [(BlockId, u32, u32)],
    /// χ defs of the memory variable, keyed by the version they define.
    pub(crate) chis: DenseMap<ChiDef>,
    pub(crate) phis: Vec<PhiE>,
    /// Number of redundancy classes allocated by rename.
    pub(crate) next_class: u32,
    pub(crate) scratch: &'k mut KernelScratch,
}

impl<'k, C: SpecClient> Kernel<'k, C> {
    fn new(
        hf: &HssaFunc,
        client: &'k C,
        cx: &'k KernelCx<'k>,
        sites: &'k CandSites,
        scratch: &'k mut KernelScratch,
    ) -> Self {
        scratch.fit(hf.blocks.len());
        let occs = sites
            .occs
            .iter()
            .map(|(block, stmt, orig, vers)| RealOcc {
                block: *block,
                stmt: *stmt as usize,
                orig: *orig,
                vers: vers.clone(),
                class: u32::MAX,
                spec: false,
                role: Role::Compute { save: false },
                t_ver: u32::MAX,
            })
            .collect();
        let mem_slot = client.tracked_regs().len() as u32;
        let mut chis = DenseMap::new();
        for d in &sites.defs {
            if let (true, Some(old)) = (d.slot == mem_slot, d.chi_old) {
                chis.insert(
                    d.ver,
                    ChiDef {
                        block: d.block,
                        stmt: d.stmt,
                        old,
                    },
                );
            }
        }
        Kernel {
            client,
            cx,
            policy: cx.policy,
            dt: &cx.fa.dt,
            mem_var: client.tracked_mem(),
            occs,
            defs: &sites.defs,
            var_phis: &sites.var_phis,
            chis,
            phis: Vec::new(),
            next_class: 0,
            scratch,
        }
    }

    /// Builds the sparse walk: every event of the candidate, sorted by
    /// (dominator-tree preorder of its block, position in the block). The
    /// order is exactly the one a full preorder walk over every block and
    /// statement would meet them in.
    pub(crate) fn build_events(&mut self, hf: &HssaFunc) {
        let dt = self.dt;
        let order = |b: BlockId, pos: u64| (dt.preorder_num(b), pos);
        let KernelScratch {
            events,
            phi_at,
            work,
            ..
        } = &mut *self.scratch;
        events.clear();
        let mut push = |block: BlockId, pos: u64, ev: Ev| {
            events.push(Event {
                order: order(block, pos),
                block,
                ev,
            })
        };
        for &(b, slot, dest) in self.var_phis {
            push(b, 0, Ev::VarPhi { slot, dest });
        }
        for (i, p) in self.phis.iter().enumerate() {
            push(p.block, 1, Ev::Phi(i));
        }
        for (i, o) in self.occs.iter().enumerate() {
            push(o.block, stmt_pos(o.stmt as u32, 0), Ev::Occ(i));
        }
        let mem_slot = self.client.tracked_regs().len() as u32;
        for d in self.defs {
            let sub = match (d.slot == mem_slot, d.chi_old) {
                (false, _) => 1,
                (true, None) => 2,
                (true, Some(_)) => 3,
            };
            push(
                d.block,
                stmt_pos(d.stmt, sub),
                Ev::Def {
                    slot: d.slot,
                    ver: d.ver,
                    stmt: d.stmt,
                },
            );
        }
        // the edges into Φ blocks, from every reachable predecessor, in
        // the predecessor's successor order
        work.clear();
        for p in &self.phis {
            work.extend(
                hf.preds[p.block.index()]
                    .iter()
                    .filter(|&&q| dt.is_reachable(q)),
            );
        }
        work.sort_unstable();
        work.dedup();
        for &q in work.iter() {
            let Some(term) = &hf.blocks[q.index()].term else {
                continue;
            };
            for (i, s) in term.succs().enumerate() {
                if phi_at[s.index()] != NO_PHI {
                    push(q, PRED_END + i as u64, Ev::PredEnd(s));
                }
            }
        }
        // keys are unique except among one block's variable φs, which
        // push onto distinct stacks
        events.sort_unstable_by_key(|e| e.order);
    }

    /// Hands the dense per-block tables back clean.
    fn release(self) {
        for p in &self.phis {
            self.scratch.phi_at[p.block.index()] = NO_PHI;
        }
    }
}

/// Weak-chain query: can memory version `from` reach `to` through
/// skippable (unlikely, per the oracle) χs only? `Some(true)` = reaches
/// with >0 weak steps; `Some(false)` = equal; `None` = blocked.
pub(crate) fn weak_reaches<C: SpecClient>(
    hf: &HssaFunc,
    chis: &DenseMap<ChiDef>,
    client: &C,
    mut from: u32,
    to: u32,
) -> Option<bool> {
    if from == to {
        return Some(false);
    }
    let mut steps = 0;
    while steps < 4096 {
        let c = chis.get(from)?;
        let s = &hf.blocks[c.block.index()].stmts[c.stmt as usize];
        if client.kills(s) {
            return None;
        }
        from = c.old;
        if from == to {
            return Some(true);
        }
        steps += 1;
    }
    None
}

/// The exact early exit: one real occurrence, in a block on no CFG cycle.
/// There is no redundant pair, and for the occurrence to take the class
/// of a will-be-available Φ, that Φ would need a `later`-clearing chain of
/// Φ operands leading back from the occurrence to it — a CFG cycle through
/// the occurrence's block (see DESIGN.md). Irreducible cycles count: the
/// bitmap comes from strongly connected components, not loop depth.
pub(crate) fn takes_early_exit(sites: &CandSites, cx: &KernelCx<'_>) -> bool {
    sites.occs.len() == 1 && !cx.fa.on_cycle[sites.occs[0].0.index()]
}

/// Steps 1-4 with neither early exit, on a clone: whether the candidate
/// has a redundant pair, and whether an occurrence takes the class of a
/// will-be-available Φ. Tests check every exit against it.
#[cfg(test)]
pub(crate) fn verdict_without_exits<C: SpecClient>(
    hf: &HssaFunc,
    client: &C,
    sites: &CandSites,
    cx: &KernelCx<'_>,
) -> (bool, bool) {
    let mut scratch = KernelScratch::default();
    let mut k = Kernel::new(hf, client, cx, sites, &mut scratch);
    k.phi_insertion(hf);
    let verdict = k.analyze(hf);
    k.release();
    verdict
}

/// Runs the six steps for one candidate. The client has gathered its
/// occurrences into `sites`; `fill_vars` adds the tracked variables' defs
/// and φs, and is only called when the early exit does not fire. Returns
/// `true` if the program changed; CodeMotion then records in
/// `sites.inserted_after` where it inserted statements.
pub fn run_kernel<C: SpecClient>(
    hf: &mut HssaFunc,
    client: &C,
    sites: &mut CandSites,
    fill_vars: impl FnOnce(&mut CandSites),
    cx: &KernelCx<'_>,
    scratch: &mut KernelScratch,
    stats: &mut OptStats,
) -> bool {
    if sites.occs.is_empty() {
        return false;
    }
    if takes_early_exit(sites, cx) {
        if debug_ssapre() {
            eprintln!(
                "[ssapre] key={} occs=1 acyclic: no redundancy",
                client.describe()
            );
        }
        return false;
    }
    fill_vars(sites);
    let mut inserted_after = std::mem::take(&mut sites.inserted_after);
    let mut k = Kernel::new(hf, client, cx, sites, scratch);
    let changed = k.run(hf, stats, &mut inserted_after);
    k.release();
    sites.inserted_after = inserted_after;
    changed
}

impl<C: SpecClient> Kernel<'_, C> {
    fn run(
        &mut self,
        hf: &mut HssaFunc,
        stats: &mut OptStats,
        inserted_after: &mut Vec<(BlockId, u32)>,
    ) -> bool {
        let client = self.client;

        // ---- steps 1-4 ----------------------------------------------------
        self.phi_insertion(hf);
        if self.occs.len() == 1 && self.phis.is_empty() {
            // one occurrence and no Φ: nothing can be redundant
            if debug_ssapre() {
                eprintln!(
                    "[ssapre] key={} occs=1 no Φ: no redundancy",
                    client.describe()
                );
            }
            return false;
        }
        let (any_redundancy, any_wba_phi_use) = self.analyze(hf);
        if !any_redundancy && !any_wba_phi_use {
            return false;
        }

        // ---- steps 5+6 ----------------------------------------------------
        // the kernel temporary (collapsed at lowering for load clients: the
        // ALAT keys ld.a/ld.c by it, and failed checks refresh it for later
        // reloads; arithmetic temporaries stay in proper SSA)
        let t = hf.add_temp(client.temp_name(stats.temps), client.temp_ty());
        stats.temps += 1;
        if client.is_load() {
            hf.collapsed_vars.push(t);
        }

        let fin = self.finalize(hf, t);
        if !fin.changed {
            // nothing materialized (all computes unsaved and no reloads);
            // the allocated temp is left behind, harmless but unused
            return false;
        }

        self.codemotion(hf, t, fin, stats, inserted_after);
        true
    }

    /// Steps 2-4 after Φ-insertion, then the profitability scan: is there
    /// a redundant pair, or an occurrence of a will-be-available Φ's class?
    fn analyze(&mut self, hf: &HssaFunc) -> (bool, bool) {
        let debug = debug_ssapre();
        self.build_events(hf);
        self.rename(hf);
        self.downsafety(hf);
        self.willbeavail();

        // quick profitability scan: is there anything to do at all?
        // Occurrence positions are unique, so a class is redundant iff it
        // has two members; one counting pass over the dense class ids
        // replaces the O(n²) probe.
        const SEEN: u8 = 1;
        const WBA: u8 = 2;
        let class_bits = &mut self.scratch.class_bits;
        class_bits.clear();
        class_bits.resize(self.next_class as usize, 0);
        let mut any_redundancy = false;
        for o in &self.occs {
            let c = &mut class_bits[o.class as usize];
            any_redundancy |= *c & SEEN != 0;
            *c |= SEEN;
        }
        for p in &self.phis {
            if p.will_be_avail {
                class_bits[p.class as usize] |= WBA;
            }
        }
        let any_wba_phi_use = self
            .occs
            .iter()
            .any(|o| class_bits[o.class as usize] & WBA != 0);
        if debug {
            eprintln!(
                "[ssapre] key={} occs={:?}",
                self.client.describe(),
                self.occs
            );
            for p in &self.phis {
                eprintln!(
                    "[ssapre]   phi@{:?} class={} ds={} cspec={} cba={} later={} wba={} opnds={:?}",
                    p.block,
                    p.class,
                    p.down_safe,
                    p.cspec,
                    p.can_be_avail,
                    p.later,
                    p.will_be_avail,
                    p.opnds
                );
            }
            eprintln!("[ssapre]   any_red={any_redundancy} any_wba={any_wba_phi_use}");
        }
        (any_redundancy, any_wba_phi_use)
    }
}
