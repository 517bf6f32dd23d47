//! Expression candidates for SSAPRE.
//!
//! SSAPRE works one *lexically identified* expression at a time (§4.1: "all
//! expressions are represented as trees with leaves being either constants
//! or SSA renamed variables"; the program is three-address, so every
//! candidate is first-order). Three families exist:
//!
//! * arithmetic expressions `a ⊕ b`;
//! * direct loads of a real variable (`a` in the paper's figures) — the
//!   scalar register-promotion candidates;
//! * indirect loads `*(p + off)` — the paper's `*p` / `A[i][j]` promotion
//!   candidates, where data speculation pays off.

use specframe_analysis::DomTree;
use specframe_hssa::{HOperand, HStmt, HStmtKind, HVarId, HVarKind, HssaFunc, MemBase, MemVar};
use specframe_ir::{BinOp, BlockId, FxHashMap, InlineVec, Ty, VarId};
use std::cmp::Ordering;

/// A lexical operand of an expression key: the *identity* of the value, not
/// a version.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LexOperand {
    /// A register by id.
    Reg(VarId),
    /// An integer constant.
    ConstI(i64),
    /// A float constant (compared bitwise).
    ConstF(u64),
    /// A link-time global address.
    GlobalAddr(specframe_ir::GlobalId),
    /// A slot address.
    SlotAddr(specframe_ir::SlotId),
}

impl LexOperand {
    fn of(o: &HOperand) -> LexOperand {
        match o {
            HOperand::Reg(v, _) => LexOperand::Reg(*v),
            HOperand::ConstI(c) => LexOperand::ConstI(*c),
            HOperand::ConstF(c) => LexOperand::ConstF(c.to_bits()),
            HOperand::GlobalAddr(g) => LexOperand::GlobalAddr(*g),
            HOperand::SlotAddr(s) => LexOperand::SlotAddr(*s),
        }
    }

    /// The register, if this operand is one.
    pub fn reg(self) -> Option<VarId> {
        match self {
            LexOperand::Reg(v) => Some(v),
            _ => None,
        }
    }
}

/// A lexically identified expression.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExprKey {
    /// `a ⊕ b` (commutative operators canonicalized).
    Bin(BinOp, LexOperand, LexOperand),
    /// Direct load of a real variable.
    DirectLoad(MemVar, Ty),
    /// Indirect load `*(base + off)`; `vvar` is the virtual variable of the
    /// access class (the second SSA operand of the expression).
    IndirectLoad {
        /// Base pointer register.
        base: VarId,
        /// Constant word offset.
        off: i64,
        /// Access type.
        ty: Ty,
        /// The virtual variable of the load's alias class.
        vvar: HVarId,
    },
}

impl ExprKey {
    /// The family the expression belongs to.
    pub fn family(&self) -> Family {
        match self {
            ExprKey::Bin(..) => Family::Arith,
            ExprKey::DirectLoad(..) => Family::Direct,
            ExprKey::IndirectLoad { .. } => Family::Indirect,
        }
    }

    /// Whether this expression is a memory load (eligible for data
    /// speculation — arithmetic never is, because registers have no χs).
    pub fn is_load(&self) -> bool {
        !matches!(self, ExprKey::Bin(..))
    }

    /// The loaded type when this expression is a load (feeds the oracle's
    /// per-target profitability gate); `None` for arithmetic.
    pub fn load_ty(&self) -> Option<Ty> {
        match self {
            ExprKey::Bin(..) => None,
            ExprKey::DirectLoad(_, ty) => Some(*ty),
            ExprKey::IndirectLoad { ty, .. } => Some(*ty),
        }
    }

    /// Whether an inserted computation of this expression may fault, which
    /// rules out *control* speculation (inserting on paths that did not
    /// execute it): loads may fault (handled by `ld.s`), and so do integer
    /// division/modulo — the paper's framework only control-speculates
    /// instructions the architecture can defer.
    pub fn control_speculatable(&self) -> bool {
        match self {
            ExprKey::Bin(op, _, _) => !matches!(op, BinOp::Div | BinOp::Mod),
            _ => true, // loads are speculated via ld.s
        }
    }

    /// The registers the expression's value depends on, in lexical
    /// position order (deduplicated).
    pub fn tracked_regs(&self) -> TrackedRegs {
        let mut t = TrackedRegs {
            regs: [VarId(0); 2],
            len: 0,
        };
        let mut push = |r: VarId| {
            if !t.contains(&r) {
                t.regs[t.len as usize] = r;
                t.len += 1;
            }
        };
        match self {
            ExprKey::Bin(_, a, b) => {
                a.reg().into_iter().chain(b.reg()).for_each(&mut push);
            }
            ExprKey::DirectLoad(..) => {}
            ExprKey::IndirectLoad { base, .. } => push(*base),
        }
        t
    }

    /// The memory variable (real or virtual) the expression's value depends
    /// on, if any.
    pub fn tracked_mem(&self, hf: &HssaFunc) -> Option<HVarId> {
        match self {
            ExprKey::Bin(..) => None,
            ExprKey::DirectLoad(mv, _) => hf.catalog.get(HVarKind::Mem(*mv)),
            ExprKey::IndirectLoad { vvar, .. } => Some(*vvar),
        }
    }

    /// The load syntax `(base reg, offset)` for the heuristic same-syntax
    /// rule (§3.2.2 rule 1), if this is an indirect load.
    pub fn syntax(&self) -> Option<(VarId, i64)> {
        match self {
            ExprKey::IndirectLoad { base, off, .. } => Some((*base, *off)),
            _ => None,
        }
    }
}

/// The at most two registers an [`ExprKey`] depends on, held inline (the
/// kill query asks for them once per statement, so they must not
/// allocate). Dereferences to a slice.
#[derive(Clone, Copy, Debug)]
pub struct TrackedRegs {
    regs: [VarId; 2],
    len: u8,
}

impl std::ops::Deref for TrackedRegs {
    type Target = [VarId];

    fn deref(&self) -> &[VarId] {
        &self.regs[..self.len as usize]
    }
}

/// Does `stmt` contain a real occurrence of `key`? Returns the operand
/// versions if so: register versions in [`ExprKey::tracked_regs`] order,
/// and the memory-variable version.
pub fn occurrence_versions(stmt: &HStmt, key: &ExprKey) -> Option<OccVersions> {
    match (&stmt.kind, key) {
        (HStmtKind::Bin { op, a, b, .. }, ExprKey::Bin(kop, ka, kb)) => {
            if op != kop {
                return None;
            }
            let (la, lb) = (LexOperand::of(a), LexOperand::of(b));
            let matched = if la == *ka && lb == *kb {
                Some((a, b))
            } else if op.is_commutative() && la == *kb && lb == *ka {
                Some((b, a))
            } else {
                None
            };
            let (a, b) = matched?;
            let mut regs = InlineVec::new();
            for &r in key.tracked_regs().iter() {
                // find the version of r among the (possibly swapped) operands
                let ver = [a, b]
                    .iter()
                    .find_map(|o| match o {
                        HOperand::Reg(v, ver) if *v == r => Some(*ver),
                        _ => None,
                    })
                    .expect("tracked reg present");
                regs.push(ver);
            }
            Some(OccVersions { regs, mem: None })
        }
        (
            HStmtKind::Load {
                base: HOperand::GlobalAddr(g),
                offset,
                ty,
                dvar: Some((_, mver)),
                ..
            },
            ExprKey::DirectLoad(mv, kty),
        ) => {
            if mv.base == MemBase::Global(*g) && mv.off == *offset && ty == kty {
                Some(OccVersions {
                    regs: InlineVec::new(),
                    mem: Some(*mver),
                })
            } else {
                None
            }
        }
        (
            HStmtKind::Load {
                base: HOperand::SlotAddr(s),
                offset,
                ty,
                dvar: Some((_, mver)),
                ..
            },
            ExprKey::DirectLoad(mv, kty),
        ) => {
            if mv.base == MemBase::Slot(*s) && mv.off == *offset && ty == kty {
                Some(OccVersions {
                    regs: InlineVec::new(),
                    mem: Some(*mver),
                })
            } else {
                None
            }
        }
        (
            HStmtKind::Load {
                base: HOperand::Reg(b, bver),
                offset,
                ty,
                ..
            },
            ExprKey::IndirectLoad {
                base,
                off,
                ty: kty,
                vvar,
            },
        ) => {
            if b == base && offset == off && ty == kty {
                let mver = stmt.mu.iter().find(|m| m.var == *vvar).map(|m| m.ver)?;
                Some(OccVersions {
                    regs: [*bver].into_iter().collect(),
                    mem: Some(mver),
                })
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The three candidate families, in collection order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    /// Arithmetic expressions ([`ExprKey::Bin`]).
    Arith,
    /// Direct loads ([`ExprKey::DirectLoad`]).
    Direct,
    /// Indirect loads ([`ExprKey::IndirectLoad`]).
    Indirect,
}

/// Operand versions of one real occurrence.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OccVersions {
    /// Versions of the tracked registers, in [`ExprKey::tracked_regs`]
    /// order.
    pub regs: InlineVec<u32, 2>,
    /// Version of the tracked memory variable.
    pub mem: Option<u32>,
}

/// One indexed real occurrence.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IndexedOcc {
    /// The occurrence's block.
    pub block: BlockId,
    /// Statement index, in the coordinates the index was built in (see
    /// [`CandIndex::current`]).
    pub stmt: u32,
    /// Operand versions it reads.
    pub vers: OccVersions,
}

/// One def site of a variable: a register def, a strong store to a memory
/// variable, or a χ over it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VarDef {
    /// The defining statement's block.
    pub block: BlockId,
    /// Statement index, index coordinates.
    pub stmt: u32,
    /// Version defined.
    pub ver: u32,
    /// For a χ, the version merged in.
    pub chi_old: Option<u32>,
}

/// "No entry" link of a [`Chains`] row.
const NIL: u32 = u32::MAX;

/// Many append-only lists in one arena: each row is a chain of entries
/// linked in push order, so building needs no grouping pass.
#[derive(Debug)]
struct Chains<T> {
    /// Per row: first and last entry, or [`NIL`].
    ends: Vec<(u32, u32)>,
    /// Entries with the index of the next entry of their row.
    items: Vec<(T, u32)>,
}

impl<T> Chains<T> {
    fn new(rows: usize, capacity: usize) -> Chains<T> {
        Chains {
            ends: vec![(NIL, NIL); rows],
            items: Vec::with_capacity(capacity),
        }
    }

    fn push(&mut self, row: usize, t: T) {
        if row >= self.ends.len() {
            self.ends.resize(row + 1, (NIL, NIL));
        }
        let at = self.items.len() as u32;
        self.items.push((t, NIL));
        match &mut self.ends[row] {
            (head, tail) if *head == NIL => (*head, *tail) = (at, at),
            (_, tail) => {
                self.items[*tail as usize].1 = at;
                *tail = at;
            }
        }
    }

    fn row(&self, row: usize) -> impl Iterator<Item = &T> + '_ {
        let mut at = self.ends.get(row).map_or(NIL, |e| e.0);
        std::iter::from_fn(move || {
            let (t, next) = self.items.get(at as usize)?;
            at = *next;
            Some(t)
        })
    }
}

/// The per-phase index of one function in speculative SSA form: the
/// SSAPRE candidates with their real occurrences, and every variable's
/// def sites and φ blocks. One pass over the function builds it, and the
/// kernel reads it instead of walking the function per candidate.
///
/// Occurrences and defs are recorded in reachable blocks only, in scan
/// order (block index, then statement). Statement indices are in the
/// coordinates of the build; a transformation that inserts a statement
/// after index `j` of block `b` reports it with
/// [`CandIndex::note_inserted_after`], and [`CandIndex::current`]
/// translates. That keeps the index exact for the rest of the phase: a
/// statement is an occurrence of one candidate at most, and a
/// transformation only replaces its own candidate's occurrences, inserts
/// right after them, appends at block ends, and defines its fresh
/// temporary.
#[derive(Debug)]
pub struct CandIndex {
    keys: Vec<ExprKey>,
    ids: FxHashMap<ExprKey, u32>,
    occs: Chains<IndexedOcc>,
    /// Rows: registers by [`VarId`], then memory variables by [`HVarId`]
    /// from `nregs` on.
    defs: Chains<VarDef>,
    phis: Chains<(BlockId, u32)>,
    nregs: usize,
    inserted: Vec<Vec<u32>>,
}

impl CandIndex {
    /// The candidates, in a deterministic order: arithmetic first, then
    /// direct loads, then indirect loads (so promoted address arithmetic
    /// feeds load candidates within one pass ordering), each family in
    /// scan order. Keys are collected from every block, reachable or
    /// not. Expressions with speculative loads or checks already in place
    /// are not collected.
    pub fn keys(&self) -> &[ExprKey] {
        &self.keys
    }

    /// The real occurrences of `key` in reachable blocks, in scan order.
    /// Loads already flagged speculative count as occurrences of their
    /// shape's key.
    pub fn occurrences(&self, key: &ExprKey) -> impl Iterator<Item = &IndexedOcc> + '_ {
        let id = self.ids.get(key).map_or(usize::MAX, |&id| id as usize);
        self.occs.row(id)
    }

    /// Def sites of register `v` in reachable blocks, in scan order.
    pub fn reg_defs(&self, v: VarId) -> impl Iterator<Item = &VarDef> + '_ {
        self.defs.row(v.index())
    }

    /// Strong and χ def sites of memory variable `v` in reachable blocks,
    /// in scan order (a strong def before a χ of the same statement).
    pub fn mem_defs(&self, v: HVarId) -> impl Iterator<Item = &VarDef> + '_ {
        self.defs.row(self.nregs + v.index())
    }

    /// φs of register `v` in reachable blocks: (block, dest version).
    pub fn reg_phis(&self, v: VarId) -> impl Iterator<Item = &(BlockId, u32)> + '_ {
        self.phis.row(v.index())
    }

    /// φs of memory variable `v` in reachable blocks.
    pub fn mem_phis(&self, v: HVarId) -> impl Iterator<Item = &(BlockId, u32)> + '_ {
        self.phis.row(self.nregs + v.index())
    }

    /// The current index of the statement indexed at `stmt` in `b`.
    pub fn current(&self, b: BlockId, stmt: u32) -> u32 {
        let shift = self.inserted[b.index()]
            .iter()
            .filter(|&&p| p <= stmt)
            .count();
        stmt + shift as u32
    }

    /// Records that a statement was inserted right after the one indexed
    /// at `stmt` in `b` (that statement itself kept its place, but the
    /// register it defined is now defined by the inserted one).
    pub fn note_inserted_after(&mut self, b: BlockId, stmt: u32) {
        self.inserted[b.index()].push(stmt);
    }
}

/// Builds the [`CandIndex`] of `hf` in one pass over its statements:
/// the candidates of family `only` (all families when `None`) with their
/// occurrences, and the defs and φs of the variables such candidates
/// track.
pub fn collect_candidates(hf: &HssaFunc, dt: &DomTree, only: Option<Family>) -> CandIndex {
    let want = |f: Family| only.is_none_or(|o| o == f);
    let (want_regs, want_mems) = (
        want(Family::Arith) || want(Family::Indirect),
        want(Family::Direct) || want(Family::Indirect),
    );
    let mut ids: FxHashMap<ExprKey, u32> = FxHashMap::default();
    let mut discovered: Vec<bool> = Vec::new();
    // bins, directs, indirects, as ids in discovery order
    let mut families: [Vec<u32>; 3] = Default::default();
    // arithmetic and register defs are most statements; loads are few
    let nstmts = hf.stmt_count();
    let (arith_cap, reg_cap) = (
        if want(Family::Arith) { nstmts } else { 0 },
        if want_regs { nstmts } else { 0 },
    );
    let nregs = hf.first_new_var as usize + hf.new_vars.len();
    let nvars = nregs + hf.catalog.len();
    let mut occs: Chains<IndexedOcc> = Chains::new(0, arith_cap);
    let mut defs: Chains<VarDef> = Chains::new(nvars, reg_cap);
    let mut phis: Chains<(BlockId, u32)> = Chains::new(nvars, 0);
    ids.reserve(arith_cap);
    // every key seen, by id; `discovered` = collected as a candidate
    let mut by_id: Vec<ExprKey> = Vec::new();
    for b in hf.block_ids() {
        let reach = dt.is_reachable(b);
        let blk = &hf.blocks[b.index()];
        if reach {
            for phi in &blk.phis {
                match hf.catalog.kind(phi.var) {
                    HVarKind::Reg(v) if want_regs => phis.push(v.index(), (b, phi.dest)),
                    HVarKind::Reg(_) => {}
                    _ if want_mems => phis.push(nregs + phi.var.index(), (b, phi.dest)),
                    _ => {}
                }
            }
        }
        for (si, stmt) in blk.stmts.iter().enumerate() {
            let si = si as u32;
            // the key the statement is an occurrence of (one at most), the
            // family it is collected into (none for loads already flagged
            // speculative) and the operand versions it reads — exactly as
            // `occurrence_versions` would answer
            let found = match &stmt.kind {
                HStmtKind::Bin { op, a, b, .. } if want(Family::Arith) => {
                    let (la, lb) = (LexOperand::of(a), LexOperand::of(b));
                    // skip all-constant expressions (constant folding's job)
                    (la.reg().is_some() || lb.reg().is_some()).then(|| {
                        let swap = op.is_commutative() && lex_gt(&la, &lb);
                        let (ka, kb, first, second) =
                            if swap { (lb, la, b, a) } else { (la, lb, a, b) };
                        // the tracked registers' versions, deduplicated by
                        // register as `tracked_regs` is
                        let mut regs = InlineVec::new();
                        match (*first, *second) {
                            (HOperand::Reg(v1, r1), HOperand::Reg(v2, r2)) => {
                                regs.push(r1);
                                if v1 != v2 {
                                    regs.push(r2);
                                }
                            }
                            (HOperand::Reg(_, r), _) | (_, HOperand::Reg(_, r)) => regs.push(r),
                            _ => {}
                        }
                        let vers = OccVersions { regs, mem: None };
                        (ExprKey::Bin(*op, ka, kb), Some(Family::Arith), vers)
                    })
                }
                HStmtKind::Load {
                    base,
                    offset,
                    ty,
                    spec,
                    dvar,
                    ..
                } => {
                    let normal = *spec == specframe_ir::LoadSpec::Normal;
                    let direct = |base, ver| {
                        let key = ExprKey::DirectLoad(MemVar { base, off: *offset }, *ty);
                        let vers = OccVersions {
                            regs: InlineVec::new(),
                            mem: Some(ver),
                        };
                        (key, normal.then_some(Family::Direct), vers)
                    };
                    match (base, dvar) {
                        (HOperand::GlobalAddr(g), Some((_, ver))) if want(Family::Direct) => {
                            Some(direct(MemBase::Global(*g), *ver))
                        }
                        (HOperand::SlotAddr(s), Some((_, ver))) if want(Family::Direct) => {
                            Some(direct(MemBase::Slot(*s), *ver))
                        }
                        // the first μ is always the vvar (build order); every
                        // other μ names a real variable, which no key carries
                        (HOperand::Reg(r, rver), _) if want(Family::Indirect) => {
                            stmt.mu.first().map(|mu| {
                                let key = ExprKey::IndirectLoad {
                                    base: *r,
                                    off: *offset,
                                    ty: *ty,
                                    vvar: mu.var,
                                };
                                let vers = OccVersions {
                                    regs: [*rver].into_iter().collect(),
                                    mem: Some(mu.ver),
                                };
                                (key, normal.then_some(Family::Indirect), vers)
                            })
                        }
                        _ => None,
                    }
                }
                _ => None,
            };
            if let Some((key, family, vers)) = found {
                let next = ids.len() as u32;
                let id = *ids.entry(key).or_insert(next);
                if id == next {
                    discovered.push(false);
                    by_id.push(key);
                }
                if let Some(fam) = family {
                    if !std::mem::replace(&mut discovered[id as usize], true) {
                        families[fam as usize].push(id);
                    }
                }
                if reach {
                    let occ = IndexedOcc {
                        block: b,
                        stmt: si,
                        vers,
                    };
                    occs.push(id as usize, occ);
                }
            }
            if !reach {
                continue;
            }
            let def = |ver, chi_old| VarDef {
                block: b,
                stmt: si,
                ver,
                chi_old,
            };
            if let Some((v, ver)) = stmt.def_reg().filter(|_| want_regs) {
                defs.push(v.index(), def(ver, None));
            }
            if !want_mems {
                continue;
            }
            if let HStmtKind::Store {
                dvar_def: Some((id, ver)),
                ..
            } = &stmt.kind
            {
                defs.push(nregs + id.index(), def(*ver, None));
            }
            // the first χ per variable (what `chi_of` answers)
            for (i, chi) in stmt.chi.iter().enumerate() {
                if !stmt.chi.iter().take(i).any(|c| c.var == chi.var) {
                    defs.push(nregs + chi.var.index(), def(chi.new_ver, Some(chi.old_ver)));
                }
            }
        }
    }
    let [bins, directs, indirects] = families;
    let keys = bins
        .into_iter()
        .chain(directs)
        .chain(indirects)
        .map(|id| by_id[id as usize])
        .collect();
    CandIndex {
        keys,
        ids,
        occs,
        defs,
        phis,
        nregs,
        inserted: vec![Vec::new(); hf.blocks.len()],
    }
}

/// Whether `a` sorts after `b` in the canonical operand order of
/// commutative keys; see [`lex_cmp`].
fn lex_gt(a: &LexOperand, b: &LexOperand) -> bool {
    lex_cmp(a, b) == Ordering::Greater
}

/// The canonical operand order: exactly the byte order of the operands'
/// `Debug` renderings (the order decides operand placement in emitted
/// code), computed without formatting. Those renderings are the variant
/// name, `(`, a fixed id prefix, the number in decimal, and `)`; no variant
/// name is a prefix of another, and `)` sorts below `-` and every digit,
/// so the order is the variant name's, then the decimal spelling's as a
/// string — `Reg(v10)` < `Reg(v9)`, `ConstI(-12)` < `ConstI(-3)`.
fn lex_cmp(a: &LexOperand, b: &LexOperand) -> Ordering {
    // variant rank (ConstF < ConstI < GlobalAddr < Reg < SlotAddr, the
    // byte order of the names) and the number as (negative, magnitude)
    fn parts(o: &LexOperand) -> (u8, bool, u64) {
        match *o {
            LexOperand::ConstF(bits) => (0, false, bits),
            LexOperand::ConstI(c) => (1, c < 0, c.unsigned_abs()),
            LexOperand::GlobalAddr(g) => (2, false, u64::from(g.0)),
            LexOperand::Reg(v) => (3, false, u64::from(v.0)),
            LexOperand::SlotAddr(s) => (4, false, u64::from(s.0)),
        }
    }
    fn decimal(neg: bool, mut mag: u64, buf: &mut [u8; 21]) -> &[u8] {
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (mag % 10) as u8;
            mag /= 10;
            if mag == 0 {
                break;
            }
        }
        if neg {
            i -= 1;
            buf[i] = b'-';
        }
        &buf[i..]
    }
    let ((ra, na, ma), (rb, nb, mb)) = (parts(a), parts(b));
    ra.cmp(&rb).then_with(|| {
        let (mut ba, mut bb) = ([0u8; 21], [0u8; 21]);
        decimal(na, ma, &mut ba).cmp(decimal(nb, mb, &mut bb))
    })
}

/// Statements killed/defined view used by the anticipation dataflow: does
/// `stmt` redefine any value `key` depends on? `speculative` controls
/// whether weak updates kill (they do **not** when data speculation is on —
/// that is the paper's enhancement); `heuristic` additionally makes a store
/// with the same syntax as an indirect-load candidate kill it (rule 1 of
/// §3.2.2 read in the contrapositive).
pub fn kills(
    stmt: &HStmt,
    key: &ExprKey,
    mem_var: Option<HVarId>,
    speculative: bool,
    heuristic: bool,
) -> bool {
    // register redefinitions always kill
    if let Some((v, _)) = stmt.def_reg() {
        if key.tracked_regs().contains(&v) {
            return true;
        }
    }
    let Some(mv) = mem_var else {
        return false;
    };
    // strong (direct) def of the memory variable
    if let HStmtKind::Store {
        dvar_def: Some((id, _)),
        ..
    } = &stmt.kind
    {
        if *id == mv {
            return true;
        }
    }
    // chi over the memory variable
    if let Some(chi) = stmt.chi_of(mv) {
        if !speculative {
            return true;
        }
        if heuristic {
            if let HStmtKind::Store {
                base: HOperand::Reg(sb, _),
                offset,
                ..
            } = &stmt.kind
            {
                // for indirect stores the per-candidate same-syntax
                // comparison is authoritative: identical address
                // expressions are highly likely to hold the same value ->
                // the store's new value IS the expression's new value (not
                // redundant with older loads), while a different-syntax
                // store is a skippable weak update even when the build-time
                // flag answered rule 1 for some *other* load's syntax
                return matches!(key.syntax(), Some((eb, eoff)) if *sb == eb && *offset == eoff);
            }
            // calls kill in heuristic mode (rule 3) via their likely flag
        }
        if chi.likely {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use specframe_alias::AliasAnalysis;
    use specframe_hssa::{build_hssa, SpecMode};
    use specframe_ir::parse_module;

    fn hssa_of(src: &str, func: &str) -> (specframe_ir::Module, HssaFunc) {
        let m = parse_module(src).unwrap();
        let aa = AliasAnalysis::analyze(&m);
        let fid = m.func_by_name(func).unwrap();
        let hf = build_hssa(&m, fid, &aa, SpecMode::NoSpeculation);
        (m, hf)
    }

    /// The candidate keys of `hf` (every block of these tests is reachable).
    fn keys_of(m: &specframe_ir::Module, hf: &HssaFunc) -> Vec<ExprKey> {
        let dt = DomTree::compute(&m.funcs[hf.func.index()]);
        collect_candidates(hf, &dt, None).keys().to_vec()
    }

    #[test]
    fn collects_all_three_families() {
        let (m, hf) = hssa_of(
            r#"
global g: i64[1]

func f(p: ptr, n: i64) -> i64 {
  var x: i64
  var y: i64
  var z: i64
entry:
  x = add n, 1
  y = load.i64 [@g]
  z = load.i64 [p + 2]
  x = add x, y
  x = add x, z
  ret x
}
"#,
            "f",
        );
        let cands = keys_of(&m, &hf);
        assert!(cands
            .iter()
            .any(|k| matches!(k, ExprKey::Bin(BinOp::Add, ..))));
        assert!(cands.iter().any(|k| matches!(k, ExprKey::DirectLoad(..))));
        assert!(cands
            .iter()
            .any(|k| matches!(k, ExprKey::IndirectLoad { off: 2, .. })));
    }

    #[test]
    fn commutative_keys_canonicalize() {
        let (m, hf) = hssa_of(
            r#"
func f(a: i64, b: i64) -> i64 {
  var x: i64
  var y: i64
entry:
  x = add a, b
  y = add b, a
  x = add x, y
  ret x
}
"#,
            "f",
        );
        let cands = keys_of(&m, &hf);
        let adds: Vec<_> = cands
            .iter()
            .filter(|k| {
                matches!(k, ExprKey::Bin(BinOp::Add, LexOperand::Reg(a), LexOperand::Reg(b))
                    if (a.0 == 0 && b.0 == 1) || (a.0 == 1 && b.0 == 0))
            })
            .collect();
        assert_eq!(adds.len(), 1, "a+b and b+a must share one key: {cands:?}");
    }

    #[test]
    fn occurrence_versions_extracted() {
        let (m, hf) = hssa_of(
            r#"
global g: i64[1]

func f(n: i64) -> i64 {
  var x: i64
  var y: i64
entry:
  x = load.i64 [@g]
  store.i64 [@g], n
  y = load.i64 [@g]
  x = add x, y
  ret x
}
"#,
            "f",
        );
        let key = keys_of(&m, &hf)
            .into_iter()
            .find(|k| matches!(k, ExprKey::DirectLoad(..)))
            .unwrap();
        let b0 = &hf.blocks[0];
        let v1 = occurrence_versions(&b0.stmts[0], &key).unwrap();
        let v2 = occurrence_versions(&b0.stmts[2], &key).unwrap();
        assert_ne!(v1.mem, v2.mem, "store must change the mem version");
        assert!(occurrence_versions(&b0.stmts[1], &key).is_none());
    }

    #[test]
    fn kill_semantics_respect_speculation() {
        let (m, hf) = hssa_of(
            r#"
global a: i64[1]
global b: i64[1]

func f(p: ptr) -> i64 {
  var x: i64
  var y: i64
entry:
  x = load.i64 [@a]
  store.i64 [p], 1
  y = load.i64 [@a]
  x = add x, y
  ret x
}

func main(s: i64) -> i64 {
  var q: ptr
  var r: i64
entry:
  br s, ua, ub
ua:
  q = @a
  jmp go
ub:
  q = @b
  jmp go
go:
  r = call f(q)
  ret r
}
"#,
            "f",
        );
        let key = keys_of(&m, &hf)
            .into_iter()
            .find(|k| matches!(k, ExprKey::DirectLoad(..)))
            .unwrap();
        let mv = key.tracked_mem(&hf);
        let store = &hf.blocks[0].stmts[1];
        // NoSpeculation mode: the chi is flagged likely -> kills regardless
        assert!(kills(store, &key, mv, true, false));
        assert!(kills(store, &key, mv, false, false));
    }

    /// Operands spanning every variant, with the values where a decimal
    /// spelling's byte order departs from numeric order: negatives,
    /// `i64::MIN`/`MAX`, ids past one digit, large ids and f64 bit
    /// patterns.
    fn operand() -> impl proptest::strategy::Strategy<Value = LexOperand> {
        use proptest::prelude::*;
        let f64_bits = [
            0.0,
            -0.0,
            1.5,
            -2.25,
            f64::NAN,
            f64::INFINITY,
            1e300,
            -1e-300,
        ];
        prop_oneof![
            (0u32..24).prop_map(|v| LexOperand::Reg(VarId(v))),
            any::<u32>().prop_map(|v| LexOperand::Reg(VarId(v))),
            (-24i64..24).prop_map(LexOperand::ConstI),
            any::<i64>().prop_map(LexOperand::ConstI),
            (0usize..4).prop_map(|i| LexOperand::ConstI([i64::MIN, i64::MAX, -1, 0][i])),
            any::<u64>().prop_map(LexOperand::ConstF),
            (0usize..f64_bits.len()).prop_map(move |i| LexOperand::ConstF(f64_bits[i].to_bits())),
            (0u32..24).prop_map(|g| LexOperand::GlobalAddr(specframe_ir::GlobalId(g))),
            any::<u32>().prop_map(|g| LexOperand::GlobalAddr(specframe_ir::GlobalId(g))),
            (0u32..24).prop_map(|s| LexOperand::SlotAddr(specframe_ir::SlotId(s))),
            any::<u32>().prop_map(|s| LexOperand::SlotAddr(specframe_ir::SlotId(s))),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 4096, ..Default::default() })]
        /// The canonical operand order is exactly the byte order of the
        /// operands' `Debug` renderings (the reference it replaced).
        #[test]
        fn lex_order_is_debug_string_order(a in operand(), b in operand()) {
            proptest::prop_assert_eq!(lex_cmp(&a, &b), format!("{a:?}").cmp(&format!("{b:?}")));
        }
    }

    #[test]
    fn lex_order_pins_decimal_spelling() {
        use LexOperand::*;
        let lt = |a: LexOperand, b: LexOperand| lex_cmp(&a, &b) == Ordering::Less;
        assert!(lt(Reg(VarId(10)), Reg(VarId(9))));
        assert!(lt(ConstI(-12), ConstI(-3)));
        assert!(lt(ConstI(-9), ConstI(i64::MIN)));
        assert!(lt(ConstI(-1), ConstI(0)));
        assert!(lt(ConstF(0), ConstI(-1)));
        assert!(lt(ConstI(5), GlobalAddr(specframe_ir::GlobalId(0))));
        assert!(lt(Reg(VarId(u32::MAX)), SlotAddr(specframe_ir::SlotId(0))));
    }
}
