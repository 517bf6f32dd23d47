//! Optimization statistics.

/// Counters reported by one [`crate::driver::optimize`] run.
///
/// These are *static* counts (program text); the dynamic effect — retired
/// loads, check ratio, cycles — is measured by `specframe-machine` after
/// code generation, matching the paper's split between compile-time
/// transformation and `pfmon` run-time measurement.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OptStats {
    /// Candidate expressions scanned.
    pub candidates: u64,
    /// Expressions that changed the program.
    pub transformed: u64,
    /// PRE temporaries introduced.
    pub temps: u64,
    /// Defining occurrences saved into a temporary.
    pub saves: u64,
    /// Redundant occurrences replaced by reloads.
    pub reloads: u64,
    /// Static loads eliminated (reloads of load expressions).
    pub loads_removed: u64,
    /// Check instructions (ld.c / NaT checks) emitted.
    pub checks: u64,
    /// Reloads that required an ALAT check (data speculation).
    pub data_spec_reloads: u64,
    /// Loads flagged as advanced loads (`ld.a`).
    pub advanced_loads: u64,
    /// Computations inserted on incoming paths.
    pub insertions: u64,
    /// Inserted loads that are control-speculative (`ld.s`).
    pub control_spec_loads: u64,
    /// Expressions where data speculation fired.
    pub data_speculated_exprs: u64,
    /// Expressions where control speculation fired.
    pub control_speculated_exprs: u64,
    /// Strength-reduction rewrites applied.
    pub strength_reduced: u64,
    /// Linear-function test replacements applied.
    pub lftr_applied: u64,
    /// Loop stores sunk to loop exits (store promotion).
    pub stores_sunk: u64,
    /// Functions whose speculative compilation failed and were recompiled
    /// non-speculatively (each one also carries an `OptReport` warning).
    pub spec_fallbacks: u64,
    /// Functions rescued by the per-pass rollback rung of the degradation
    /// ladder: one offending pass was rolled back and the remaining
    /// pipeline re-run, keeping speculation for everything else.
    pub pass_rollbacks: u64,
    /// Speculative-leak sites the `--audit-leaks`/`--fence-leaks` auditor
    /// flagged (advanced-load values reaching an address or branch sink
    /// before their check).
    pub leak_sites_flagged: u64,
    /// Speculation barriers inserted by `--fence-leaks`.
    pub leak_fences_inserted: u64,
}

impl OptStats {
    /// Merges another stats block into this one.
    pub fn absorb(&mut self, other: &OptStats) {
        self.candidates += other.candidates;
        self.transformed += other.transformed;
        self.temps += other.temps;
        self.saves += other.saves;
        self.reloads += other.reloads;
        self.loads_removed += other.loads_removed;
        self.checks += other.checks;
        self.data_spec_reloads += other.data_spec_reloads;
        self.advanced_loads += other.advanced_loads;
        self.insertions += other.insertions;
        self.control_spec_loads += other.control_spec_loads;
        self.data_speculated_exprs += other.data_speculated_exprs;
        self.control_speculated_exprs += other.control_speculated_exprs;
        self.strength_reduced += other.strength_reduced;
        self.lftr_applied += other.lftr_applied;
        self.stores_sunk += other.stores_sunk;
        self.spec_fallbacks += other.spec_fallbacks;
        self.pass_rollbacks += other.pass_rollbacks;
        self.leak_sites_flagged += other.leak_sites_flagged;
        self.leak_fences_inserted += other.leak_fences_inserted;
    }
}

/// Per-pass wall-clock time of one [`crate::driver::optimize`] run, plus
/// the dominator-build counter backing the analysis-cache invariant.
///
/// Kept separate from [`OptStats`] on purpose: `OptStats` is `Eq`-compared
/// across serial and parallel runs by the determinism tests, while wall
/// times necessarily differ from run to run. Per-function timings are
/// merged (summed) at the driver's join point in function-index order, so
/// the *set* of samples is deterministic even though the values are not.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassTimings {
    /// Module-level Steensgaard alias analysis.
    pub alias: std::time::Duration,
    /// FuncAnalyses construction (dominators, frontiers, loops) — all
    /// functions.
    pub analyses: std::time::Duration,
    /// Flow-sensitive refinement (`refine_function`).
    pub refine: std::time::Duration,
    /// Speculative SSA construction (`build_hssa`).
    pub hssa_build: std::time::Duration,
    /// The SSAPRE engine.
    pub ssapre: std::time::Duration,
    /// Strength reduction.
    pub strength: std::time::Duration,
    /// Linear-function test replacement.
    pub lftr: std::time::Duration,
    /// Store sinking.
    pub storeprom: std::time::Duration,
    /// HSSA verification.
    pub verify: std::time::Duration,
    /// Pass-boundary verification (`--verify-each`): every structural
    /// re-check between stages, summed.
    pub verify_each: std::time::Duration,
    /// Post-lowering speculation-safety audit (`--audit-spec`).
    pub audit: std::time::Duration,
    /// Post-lowering speculative-leak audit and fencing
    /// (`--audit-leaks` / `--fence-leaks`).
    pub audit_leaks: std::time::Duration,
    /// Out-of-SSA lowering.
    pub lower: std::time::Duration,
    /// Final whole-module IR verification.
    pub module_verify: std::time::Duration,
    /// Compile-cache overhead: key derivation, entry probes/decodes and
    /// write-back encodes. Zero when no cache is attached.
    pub cache: std::time::Duration,
    /// Whole `optimize` call, wall clock.
    pub total: std::time::Duration,
    /// `DomTree::compute` invocations attributed to this run.
    pub dom_computes: u64,
    /// Name of the execution target the run lowered for (`""` until a
    /// driver stamps it). Shown in the report header and the lower row so
    /// `--time-passes` output says which cost model was active.
    pub target: &'static str,
}

impl PassTimings {
    /// Merges another timing block into this one (sums every field).
    pub fn absorb(&mut self, other: &PassTimings) {
        self.alias += other.alias;
        self.analyses += other.analyses;
        self.refine += other.refine;
        self.hssa_build += other.hssa_build;
        self.ssapre += other.ssapre;
        self.strength += other.strength;
        self.lftr += other.lftr;
        self.storeprom += other.storeprom;
        self.verify += other.verify;
        self.verify_each += other.verify_each;
        self.audit += other.audit;
        self.audit_leaks += other.audit_leaks;
        self.lower += other.lower;
        self.module_verify += other.module_verify;
        self.cache += other.cache;
        self.total += other.total;
        self.dom_computes += other.dom_computes;
        if self.target.is_empty() {
            self.target = other.target;
        }
    }

    /// The per-pass rows in pipeline order, as `(name, duration)`.
    pub fn rows(&self) -> [(&'static str, std::time::Duration); 15] {
        [
            ("alias", self.alias),
            ("analyses", self.analyses),
            ("refine", self.refine),
            ("hssa-build", self.hssa_build),
            ("ssapre", self.ssapre),
            ("strength", self.strength),
            ("lftr", self.lftr),
            ("storeprom", self.storeprom),
            ("verify", self.verify),
            ("verify-each", self.verify_each),
            ("audit", self.audit),
            ("audit-leaks", self.audit_leaks),
            ("lower", self.lower),
            ("module-verify", self.module_verify),
            ("cache", self.cache),
        ]
    }

    /// Human-readable aggregate table (the `specc --time-passes` output):
    /// every pass with its time and its share of the summed pass time,
    /// sorted most-expensive first (ties keep pipeline order — the sort is
    /// stable — so the layout is deterministic), then the wall-clock total
    /// of the `optimize` call, the process peak RSS when the OS exposes it
    /// cheaply, and the dominator-build counter. A pass row sums worker
    /// time across threads, so at `--jobs N` the rows can add up to more
    /// than the wall total; the shares are of the row sum and add to 100%.
    pub fn report(&self) -> String {
        fn ms(d: std::time::Duration) -> String {
            format!("{:9.3} ms", d.as_secs_f64() * 1e3)
        }
        let mut rows = self.rows();
        let summed: f64 = rows.iter().map(|r| r.1.as_secs_f64()).sum();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        let mut s = String::new();
        if self.target.is_empty() {
            s.push_str("=== pass timings ===\n");
        } else {
            s.push_str(&format!("=== pass timings (target: {}) ===\n", self.target));
        }
        s.push_str("  (time summed over worker threads; share of summed pass time)\n");
        for (name, d) in rows {
            let pct = if summed > 0.0 {
                100.0 * d.as_secs_f64() / summed
            } else {
                0.0
            };
            // the lower row names the target whose hooks produced the code
            let name = if name == "lower" && !self.target.is_empty() {
                format!("lower({})", self.target)
            } else {
                name.to_string()
            };
            s.push_str(&format!("  {name:<14} {} {pct:5.1}%\n", ms(d)));
        }
        s.push_str(&format!("  {:<14} {} wall\n", "total", ms(self.total)));
        if let Some(kb) = peak_rss_kb() {
            s.push_str(&format!("  {:<14} {:>9} kB\n", "peak-rss", kb));
        }
        s.push_str(&format!("  dom computes   {:>9}\n", self.dom_computes));
        s
    }
}

/// The process's peak resident set size in kilobytes (`VmHWM` from
/// `/proc/self/status`), or `None` where that interface does not exist.
/// One small file read — cheap enough to sample per report.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_absorb_sums() {
        let mut a = PassTimings {
            ssapre: std::time::Duration::from_millis(2),
            dom_computes: 3,
            ..Default::default()
        };
        let b = PassTimings {
            ssapre: std::time::Duration::from_millis(5),
            lower: std::time::Duration::from_millis(1),
            dom_computes: 4,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.ssapre, std::time::Duration::from_millis(7));
        assert_eq!(a.lower, std::time::Duration::from_millis(1));
        assert_eq!(a.dom_computes, 7);
    }

    #[test]
    fn report_mentions_every_pass() {
        let t = PassTimings::default();
        let r = t.report();
        for name in [
            "alias",
            "analyses",
            "refine",
            "hssa-build",
            "ssapre",
            "strength",
            "lftr",
            "storeprom",
            "verify",
            "verify-each",
            "audit",
            "audit-leaks",
            "lower",
            "module-verify",
            "cache",
            "total",
            "dom computes",
        ] {
            assert!(r.contains(name), "missing {name} in report");
        }
    }

    #[test]
    fn shares_are_of_summed_pass_time() {
        // a --jobs 2 shape: two workers each spent 80 ms in ssapre and
        // 20 ms in lower inside 100 ms of wall clock, so the rows sum to
        // twice the wall total
        let t = PassTimings {
            ssapre: std::time::Duration::from_millis(160),
            lower: std::time::Duration::from_millis(40),
            total: std::time::Duration::from_millis(100),
            ..Default::default()
        };
        let r = t.report();
        assert!(r.contains("share of summed pass time"), "{r}");
        let shares: Vec<f64> = r
            .lines()
            .filter_map(|l| l.trim_end().strip_suffix('%'))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(shares.len(), t.rows().len(), "{r}");
        assert!((shares.iter().sum::<f64>() - 100.0).abs() < 0.05, "{r}");
        assert!(r.contains(" 80.0%") && r.contains(" 20.0%"), "{r}");
    }

    #[test]
    fn report_names_the_target_when_stamped() {
        let t = PassTimings {
            target: "swr",
            ..Default::default()
        };
        let r = t.report();
        assert!(r.contains("=== pass timings (target: swr) ==="));
        assert!(r.contains("lower(swr)"));
        // an unstamped block keeps the historical layout
        let plain = PassTimings::default().report();
        assert!(plain.contains("=== pass timings ===\n"));
        assert!(!plain.contains("lower("));
        // absorbing a stamped block propagates the name
        let mut merged = PassTimings::default();
        merged.absorb(&t);
        assert_eq!(merged.target, "swr");
    }

    #[test]
    fn absorb_sums_fields() {
        let mut a = OptStats {
            saves: 2,
            reloads: 3,
            ..Default::default()
        };
        let b = OptStats {
            saves: 1,
            checks: 5,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.saves, 3);
        assert_eq!(a.reloads, 3);
        assert_eq!(a.checks, 5);
    }
}
