//! Exactness checks for the sparse SSAPRE kernel.
//!
//! While a check is active on the current thread, every candidate the
//! expression client hands to the kernel is compared against a full walk
//! of the function — the per-candidate scan the kernel used to make:
//!
//! * the index's occurrence list (current statement indices, operand
//!   versions) equals the list a full statement walk finds;
//! * the index's defs and φs of the candidate's variables equal a full
//!   walk's, so the sparse rename and downsafety see every event the full
//!   walks saw;
//! * every candidate the early exit skips, run through the kernel steps
//!   with the exits disabled, has no redundant pair and no occurrence of a
//!   will-be-available Φ's class.
//!
//! Failures are recorded, not raised: the driver turns a panic inside a
//! pass into a recompilation without speculation, which would hide it.

use super::{CandIndex, ExprClient, ExprKey, KernelCx};
use crate::driver::{optimize_with, prepare_module, ControlSpec, OptOptions, SpecSource};
use crate::expr::occurrence_versions;
use crate::prekernel::{takes_early_exit, verdict_without_exits, CandSites, SpecClient};
use crate::PipelineConfig;
use specframe_hssa::{HStmtKind, HVarKind, HssaFunc};
use specframe_ir::{parse_module, BlockId, Module, Value};
use specframe_profile::{observer::Compose, run_with, AliasProfiler, EdgeProfiler};
use std::cell::{Cell, RefCell};

#[derive(Default, Debug)]
struct Log {
    candidates: usize,
    exits: usize,
    /// Compiles made with a profile-guided data or control mode.
    profiled: usize,
    failures: Vec<String>,
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static LOG: RefCell<Log> = RefCell::new(Log::default());
}

/// A statement position with what was found there.
type At<T> = (BlockId, usize, T);

/// Called for each candidate before the kernel runs.
pub(super) fn check_candidate(
    hf: &HssaFunc,
    key: &ExprKey,
    index: &CandIndex,
    client: &ExprClient<'_>,
    sites: &CandSites,
    cx: &KernelCx<'_>,
) {
    if !ACTIVE.with(Cell::get) {
        return;
    }
    let dt = &cx.fa.dt;
    let mut fails = Vec::new();
    let mut expect = |what: &str, old: String, new: String| {
        if old != new {
            fails.push(format!(
                "{:?} in func {:?}: {what}\n  full walk: {old}\n  index:     {new}",
                key, hf.func
            ));
        }
    };
    // the old per-candidate scan: every statement of every reachable block
    let reachable = || hf.block_ids().filter(|&b| dt.is_reachable(b));
    let stmts = || {
        reachable().flat_map(|b| {
            let stmts = &hf.blocks[b.index()].stmts;
            stmts.iter().enumerate().map(move |(si, s)| (b, si, s))
        })
    };
    let old_occs: Vec<At<_>> = stmts()
        .filter_map(|(b, si, s)| Some((b, si, occurrence_versions(s, key)?)))
        .collect();
    let new_occs: Vec<At<_>> = sites
        .occs
        .iter()
        .map(|(b, cur, _, vers)| (*b, *cur as usize, vers.clone()))
        .collect();
    expect(
        "occurrences",
        format!("{old_occs:?}"),
        format!("{new_occs:?}"),
    );

    let cur = |d: &crate::expr::VarDef| (d.block, index.current(d.block, d.stmt) as usize);
    for &r in client.tracked_regs() {
        let old: Vec<At<u32>> = stmts()
            .filter_map(|(b, si, s)| s.def_reg().filter(|d| d.0 == r).map(|d| (b, si, d.1)))
            .collect();
        let new: Vec<At<u32>> = index
            .reg_defs(r)
            .map(|d| (cur(d).0, cur(d).1, d.ver))
            .collect();
        expect("register defs", format!("{old:?}"), format!("{new:?}"));
        let old: Vec<(BlockId, u32)> = reachable()
            .flat_map(|b| hf.blocks[b.index()].phis.iter().map(move |p| (b, p)))
            .filter(|(_, p)| hf.catalog.kind(p.var) == HVarKind::Reg(r))
            .map(|(b, p)| (b, p.dest))
            .collect();
        let new: Vec<(BlockId, u32)> = index.reg_phis(r).copied().collect();
        expect("register φs", format!("{old:?}"), format!("{new:?}"));
    }
    if let Some(mv) = client.tracked_mem() {
        let old: Vec<At<(u32, Option<u32>)>> = stmts()
            .flat_map(|(b, si, s)| {
                let strong = match &s.kind {
                    HStmtKind::Store {
                        dvar_def: Some((id, ver)),
                        ..
                    } if *id == mv => Some((b, si, (*ver, None))),
                    _ => None,
                };
                let chi = s.chi_of(mv).map(|c| (b, si, (c.new_ver, Some(c.old_ver))));
                strong.into_iter().chain(chi)
            })
            .collect();
        let new: Vec<At<(u32, Option<u32>)>> = index
            .mem_defs(mv)
            .map(|d| (cur(d).0, cur(d).1, (d.ver, d.chi_old)))
            .collect();
        expect("memory defs", format!("{old:?}"), format!("{new:?}"));
        let old: Vec<(BlockId, u32)> = reachable()
            .flat_map(|b| hf.blocks[b.index()].phis.iter().map(move |p| (b, p)))
            .filter(|(_, p)| p.var == mv)
            .map(|(b, p)| (b, p.dest))
            .collect();
        let new: Vec<(BlockId, u32)> = index.mem_phis(mv).copied().collect();
        expect("memory φs", format!("{old:?}"), format!("{new:?}"));
    }

    let mut exits = 0;
    if !sites.occs.is_empty() && takes_early_exit(sites, cx) {
        exits = 1;
        let mut full = sites.clone();
        client.vars_into(index, &mut full);
        let (redundant, wba_use) = verdict_without_exits(hf, client, &full, cx);
        if redundant || wba_use {
            fails.push(format!(
                "{key:?} in func {:?}: early exit skipped a candidate with \
                 redundancy={redundant} will-be-available-use={wba_use}",
                hf.func
            ));
        }
    }
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        l.candidates += 1;
        l.exits += exits;
        l.failures.extend(fails);
    });
}

/// Runs `f` with the checks active on this thread (compile with `jobs: 1`
/// so the driver stays on it) and returns what they logged.
fn checked(f: impl FnOnce()) -> Log {
    ACTIVE.with(|a| a.set(true));
    f();
    ACTIVE.with(|a| a.set(false));
    LOG.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

/// A training run's alias and edge profiles.
fn profiles(
    m: &Module,
    entry: &str,
    args: &[Value],
) -> Option<(
    specframe_profile::AliasProfile,
    specframe_analysis::EdgeProfile,
)> {
    m.func_by_name(entry)?;
    let (mut ap, mut ep) = (AliasProfiler::new(), EdgeProfiler::new());
    {
        let mut obs = Compose(vec![&mut ap, &mut ep]);
        run_with(m, entry, args, 10_000_000, &mut obs).ok()?;
    }
    Some((ap.finish(), ep.finish()))
}

/// Compiles `m` in every data × control speculation mode (the profile
/// modes only when a training run of `entry(args)` succeeds) with the
/// checks active, and returns the merged log.
fn check_all_modes(m: &Module, entry: &str, args: &[Value]) -> Log {
    let mut m = m.clone();
    prepare_module(&mut m);
    let prof = profiles(&m, entry, args);
    let mut datas = vec![
        SpecSource::None,
        SpecSource::Heuristic,
        SpecSource::Aggressive,
    ];
    let mut controls = vec![ControlSpec::Off, ControlSpec::Static];
    if let Some((ap, ep)) = &prof {
        datas.push(SpecSource::Profile(ap));
        controls.push(ControlSpec::Profile(ep));
    }
    let mut log = Log::default();
    for data in &datas {
        for control in &controls {
            let opts = OptOptions {
                data: *data,
                control: *control,
                strength_reduction: true,
                lftr: true,
                store_sinking: true,
                target: Default::default(),
            };
            let l = checked(|| {
                optimize_with(&mut m.clone(), &opts, &PipelineConfig { jobs: 1 });
            });
            log.candidates += l.candidates;
            log.exits += l.exits;
            log.failures.extend(l.failures);
            let profiled = matches!(data, SpecSource::Profile(_))
                || matches!(control, ControlSpec::Profile(_));
            log.profiled += usize::from(profiled);
        }
    }
    log
}

fn assert_clean(what: &str, log: &Log) {
    assert!(
        log.failures.is_empty(),
        "{what}: {} exactness failures, first:\n{}",
        log.failures.len(),
        log.failures[0]
    );
    assert!(log.candidates > 0, "{what}: no candidate was checked");
}

/// The value list of a `--args`/`--train-args` flag.
fn flag_values(run: &str, flag: &str) -> Option<Vec<Value>> {
    let mut words = run.split_whitespace();
    words.find(|&w| w == flag)?;
    let list = words.next()?;
    list.split(',')
        .map(|v| v.parse().ok().map(Value::I))
        .collect()
}

#[test]
fn golden_inputs_index_exactly_in_every_mode() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("golden dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "spec"))
        .collect();
    files.sort();
    assert!(!files.is_empty());
    let mut total = Log::default();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("read golden");
        // the IR is every line that is not a `;` directive or comment
        let ir: String = text
            .lines()
            .filter(|l| !l.trim_start().starts_with(';'))
            .flat_map(|l| [l, "\n"])
            .collect();
        let Ok(m) = parse_module(&ir) else { continue };
        let run = text
            .lines()
            .find_map(|l| l.split_once("RUN:").map(|(_, r)| r.to_string()))
            .unwrap_or_default();
        let mut words = run.split_whitespace();
        let entry = words
            .find(|&w| w == "--entry")
            .and_then(|_| words.next())
            .unwrap_or("main")
            .to_string();
        let args = flag_values(&run, "--train-args")
            .or_else(|| flag_values(&run, "--args"))
            .unwrap_or_default();
        let log = check_all_modes(&m, &entry, &args);
        assert_clean(&path.display().to_string(), &log);
        total.exits += log.exits;
        total.profiled += log.profiled;
    }
    assert!(total.exits > 0, "the early exit never fired on the goldens");
    assert!(total.profiled > 0, "no golden compiled in a profile mode");
}

#[test]
fn reference_kernels_index_exactly_in_every_mode() {
    use specframe_workloads::{all_workloads, Scale};
    for w in all_workloads(Scale::Test) {
        let log = check_all_modes(&w.module, w.entry, &w.train_args);
        assert_clean(w.name, &log);
        assert!(log.profiled > 0, "{}: the training run failed", w.name);
    }
}

#[test]
fn mega_modules_index_exactly() {
    for seed in [1, 42, 2003] {
        let mut m = specframe_workloads::mega_module(seed, 60);
        prepare_module(&mut m);
        for (data, control) in [
            (SpecSource::Heuristic, ControlSpec::Static),
            (SpecSource::Aggressive, ControlSpec::Static),
            (SpecSource::None, ControlSpec::Off),
        ] {
            let opts = OptOptions {
                data,
                control,
                strength_reduction: true,
                lftr: true,
                store_sinking: true,
                target: Default::default(),
            };
            let log = checked(|| {
                optimize_with(&mut m.clone(), &opts, &PipelineConfig { jobs: 1 });
            });
            assert_clean(&format!("mega seed {seed}"), &log);
            assert!(
                log.exits > 0,
                "mega seed {seed}: the early exit never fired"
            );
        }
    }
}

/// A load inside a cycle with two entries: no block of the cycle
/// dominates the other, so there is no natural loop and `LoopInfo` gives
/// depth 0 — yet the occurrence can be hoisted around the cycle, so the
/// exit must not fire. The cycle bitmap comes from SCCs and sees it.
#[test]
fn irreducible_cycle_keeps_the_candidate() {
    let src = r#"
func f(p: ptr, n: i64, s: i64) -> i64 {
  var x: i64
  var i: i64
  var acc: i64
entry:
  i = n
  acc = 0
  br s, a, b
a:
  x = load.i64 [p + 1]
  acc = add acc, x
  i = sub i, 1
  br i, b, out
b:
  jmp a
out:
  ret acc
}
"#;
    let mut m = parse_module(src).expect("parses");
    prepare_module(&mut m);
    let f = &m.funcs[0];
    let fa = specframe_analysis::FuncAnalyses::compute(f);
    let a = BlockId(1);
    assert_eq!(f.blocks[a.index()].name, "a");
    assert_eq!(fa.loops.depth(a), 0, "two-entry cycle: no natural loop");
    assert!(fa.on_cycle[a.index()], "but `a` is on a cycle");

    let aa = specframe_alias::AliasAnalysis::analyze(&m);
    let hf = specframe_hssa::build_hssa(
        &m,
        specframe_ir::FuncId(0),
        &aa,
        specframe_hssa::SpecMode::Heuristic,
    );
    let index = crate::expr::collect_candidates(&hf, &fa.dt, None);
    let key = *index
        .keys()
        .iter()
        .find(|k| matches!(k, ExprKey::IndirectLoad { off: 1, .. }))
        .expect("the load is a candidate");
    let policy = super::SpecPolicy::none();
    let cx = KernelCx::new(f, &hf, &fa, &policy);
    let client = ExprClient::new(&hf, &key, &policy, &index);
    let mut sites = CandSites::default();
    client.occurrences_into(&index, &mut sites);
    assert_eq!(sites.occs.len(), 1, "one real occurrence");
    assert!(!takes_early_exit(&sites, &cx), "the exit must not fire");
    client.vars_into(&index, &mut sites);
    let verdict = verdict_without_exits(&hf, &client, &sites, &cx);
    assert_eq!(
        verdict,
        (false, true),
        "the load is partially redundant around the cycle"
    );
}
