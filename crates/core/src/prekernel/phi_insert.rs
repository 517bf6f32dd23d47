//! Step 1: Φ-Insertion.
//!
//! Φs for the hypothetical temporary are placed at the iterated dominance
//! frontier of every real occurrence, plus at every φ of a variable of the
//! candidate (the paper's Appendix A enhancement: walking def chains
//! through speculative weak updates can only ever reach variable φs, so
//! taking all of them is a sound superset).

use super::{Kernel, OpndDef, PhiE, PhiOpnd, SpecClient};
use crate::expr::OccVersions;
use specframe_analysis::iterated_df;
use specframe_hssa::HssaFunc;
use specframe_ir::InlineVec;

impl<C: SpecClient> Kernel<'_, C> {
    pub(crate) fn phi_insertion(&mut self, hf: &HssaFunc) {
        let nregs = self.client.tracked_regs().len();
        let mem_var = self.mem_var;
        // occs are sorted by block, so consecutive dedup yields the seeds
        let mut occ_blocks = Vec::with_capacity(self.occs.len());
        for o in &self.occs {
            if occ_blocks.last() != Some(&o.block) {
                occ_blocks.push(o.block);
            }
        }
        // DF⁺ of the occurrences plus the φ blocks of the candidate's
        // variables (all reachable), in block-index order
        let mut blocks = iterated_df(&self.cx.fa.df, occ_blocks);
        blocks.extend(self.var_phis.iter().map(|&(b, _, _)| b));
        blocks.sort_unstable();
        blocks.dedup();
        let phi_at = &mut self.scratch.phi_at;
        self.phis = blocks
            .into_iter()
            .enumerate()
            .map(|(i, b)| {
                phi_at[b.index()] = i as u32;
                PhiE {
                    block: b,
                    class: u32::MAX,
                    opnds: hf.preds[b.index()]
                        .iter()
                        .map(|_| PhiOpnd {
                            def: OpndDef::Bottom,
                            has_real_use: false,
                            spec: false,
                            vers_at_pred: OccVersions {
                                regs: InlineVec::filled(0, nregs),
                                mem: mem_var.map(|_| 0),
                            },
                            t_ver: u32::MAX,
                            inserted: false,
                        })
                        .collect(),
                    down_safe: false,
                    cspec: false,
                    can_be_avail: true,
                    later: true,
                    will_be_avail: false,
                    tainted: false,
                    t_ver: u32::MAX,
                }
            })
            .collect();
    }
}
