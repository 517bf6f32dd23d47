//! Step 3: DownSafety (block-lexical backward anticipation).
//!
//! A Φ is down-safe when the candidate is anticipated at its block. With
//! data speculation active, weak updates (χs the oracle calls unlikely) do
//! not kill — that is the client's [`SpecClient::kills`] answering
//! through the likeliness oracle. Control speculation then treats a
//! profitable non-down-safe Φ as down-safe when the edge profile says the
//! speculated path is cold relative to the block (Lo et al., PLDI '98).
//!
//! A block's first event is the earlier of its first occurrence and its
//! first tracked-variable def that kills; only def sites can kill, so the
//! statements in between are never asked. Anticipation is the greatest
//! fixpoint of "use, or transparent with every successor anticipated";
//! its complement is found by one backward search from the killing blocks
//! and the transparent exits, and the whole step is skipped when the
//! candidate has no Φ.

use super::{Ev, Kernel, OpndDef, SpecClient};
use specframe_hssa::HssaFunc;

/// `mark` states: anticipated unless stated otherwise.
const TRANSPARENT: u8 = 0;
const USE: u8 = 1;
const KILL: u8 = 2;
/// Transparent, but some path leaves through a kill or an exit.
const NOT_ANT: u8 = 3;

impl<C: SpecClient> Kernel<'_, C> {
    pub(crate) fn downsafety(&mut self, hf: &HssaFunc) {
        if self.phis.is_empty() {
            return;
        }
        let dt = self.dt;
        let scratch = &mut *self.scratch;
        let (mark, marked, work) = (&mut scratch.mark, &mut scratch.marked, &mut scratch.work);
        // first events: the events are grouped by block, statement order
        let mut cur_block = None;
        let mut decided = false;
        for e in &scratch.events {
            if cur_block != Some(e.block) {
                cur_block = Some(e.block);
                decided = false;
            }
            if decided {
                continue;
            }
            let state = match e.ev {
                Ev::Occ(_) => USE,
                Ev::Def { stmt, .. }
                    if self
                        .client
                        .kills(&hf.blocks[e.block.index()].stmts[stmt as usize]) =>
                {
                    KILL
                }
                _ => continue,
            };
            mark[e.block.index()] = state;
            marked.push(e.block);
            decided = true;
        }
        // not anticipated: kills, transparent exits, and every transparent
        // block with a successor already found not anticipated
        work.clear();
        work.extend(marked.iter().copied().filter(|b| mark[b.index()] == KILL));
        for &x in &self.cx.exits {
            if mark[x.index()] == TRANSPARENT {
                mark[x.index()] = NOT_ANT;
                marked.push(x);
                work.push(x);
            }
        }
        while let Some(s) = work.pop() {
            for &p in &hf.preds[s.index()] {
                if mark[p.index()] == TRANSPARENT && dt.is_reachable(p) {
                    mark[p.index()] = NOT_ANT;
                    marked.push(p);
                    work.push(p);
                }
            }
        }
        for p in self.phis.iter_mut() {
            p.down_safe = matches!(mark[p.block.index()], TRANSPARENT | USE);
        }
        for b in marked.drain(..) {
            mark[b.index()] = TRANSPARENT;
        }
        // control speculation: profitable non-down-safe Phis become
        // "down-safe"
        if let Some((ep, fid)) = self.policy.control {
            if self.client.control_speculatable() {
                for p in self.phis.iter_mut() {
                    if p.down_safe {
                        continue;
                    }
                    let bfreq = self.cx.block_freqs(ep, fid)[p.block.index()];
                    if bfreq == 0 {
                        continue;
                    }
                    let preds = &hf.preds[p.block.index()];
                    let ok = p.opnds.iter().enumerate().all(|(i, o)| {
                        o.def != OpndDef::Bottom
                            || ep.edge_count(fid, preds[i], p.block) * 2 < bfreq
                    });
                    // at least one operand must carry a value for
                    // speculation to be able to pay off
                    let any_def = p.opnds.iter().any(|o| o.def != OpndDef::Bottom);
                    if ok && any_def {
                        p.cspec = true;
                    }
                }
            }
        }
    }
}
