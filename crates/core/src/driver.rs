//! The whole-module optimization pipeline.
//!
//! `prepare_module` → (profiling, outside) → [`optimize`]:
//!
//! 1. split critical edges (so SSAPRE insertions and φ lowering have a
//!    block per edge);
//! 2. Steensgaard alias analysis;
//! 3. per function: build the speculative SSA form, run the speculative
//!    SSAPRE worklist (PRE + register promotion), run strength reduction /
//!    LFTR, verify, lower out of SSA;
//! 4. verify the module.
//!
//! The `SpecSource`/`ControlSpec` pair selects the paper's configurations:
//!
//! | paper configuration | `SpecSource`  | `ControlSpec` |
//! |---------------------|---------------|----------------|
//! | O3 baseline         | `None`        | `Off`          |
//! | profile-guided      | `Profile`     | `Profile`      |
//! | heuristic rules     | `Heuristic`   | `Static`       |
//! | potential estimate  | `Aggressive`  | `Off`          |

use crate::cache::{self, CacheOutcome, CacheStats, CachedFunc, FuncCache, Probe};
use crate::error::{panic_message, with_quiet_panics, CompileDiag, CompileError};
use crate::passes::{Pass, PassDump, PassSet, PipelineHooks};
use crate::ssapre::{ssapre_function, SpecPolicy};
use crate::stats::{OptStats, PassTimings};
use crate::strength::strength_reduce_hssa;
use specframe_alias::AliasAnalysis;
use specframe_analysis::{
    dom_compute_count, estimate_function_with, split_critical_edges, EdgeProfile, FuncAnalyses,
};
use specframe_hssa::{
    build_hssa_with, lower_function, print_hssa_in, refine_function_in, resolve_fresh_sites,
    verify_hssa_detailed, HssaFunc, Likeliness, SpecCosts, SpecMode,
};
use specframe_ir::display::{func_name_table, print_function_in};
use specframe_ir::{layout_globals, CalleeSig, FuncId, Function, Global, MemSiteId, Module};
use specframe_profile::AliasProfile;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// Where data-speculation likeliness comes from (Figure 3's "alias profile
/// / heuristic rules" box).
#[derive(Debug, Clone, Copy, Default)]
pub enum SpecSource<'a> {
    /// No data speculation: the O3 baseline.
    #[default]
    None,
    /// Alias-profile guided (§3.2.1).
    Profile(&'a AliasProfile),
    /// Heuristic rules (§3.2.2).
    Heuristic,
    /// Ignore all may-aliases — the §5.3 upper-bound estimator.
    Aggressive,
}

impl<'a> SpecSource<'a> {
    /// The speculative SSA construction mode that reads likeliness from
    /// this source.
    pub fn mode(self) -> SpecMode<'a> {
        match self {
            SpecSource::None => SpecMode::NoSpeculation,
            SpecSource::Profile(p) => SpecMode::Profile(p),
            SpecSource::Heuristic => SpecMode::Heuristic,
            SpecSource::Aggressive => SpecMode::Aggressive,
        }
    }
}

/// Where control-speculation likeliness comes from (Figure 3's "edge/path
/// profile / heuristic rules" box).
#[derive(Debug, Clone, Copy, Default)]
pub enum ControlSpec<'a> {
    /// No control speculation.
    #[default]
    Off,
    /// Edge-profile guided.
    Profile(&'a EdgeProfile),
    /// Ball–Larus-style static heuristics.
    Static,
}

/// Pipeline options.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptOptions<'a> {
    /// Data speculation source.
    pub data: SpecSource<'a>,
    /// Control speculation source.
    pub control: ControlSpec<'a>,
    /// Run strength reduction.
    pub strength_reduction: bool,
    /// Run linear-function test replacement over the strength-reduction
    /// temporaries. A no-op unless strength reduction also ran (LFTR
    /// consumes the `s ≡ i*c` version state SR records).
    pub lftr: bool,
    /// Run store promotion (sinking loop-invariant direct stores).
    pub store_sinking: bool,
    /// The execution target whose lowering hooks and cost model the
    /// pipeline compiles for. The oracle weighs speculation profitability
    /// against this target's per-check overhead, so the same input can
    /// legitimately motion differently per target.
    pub target: specframe_machine::TargetId,
}

impl OptOptions<'_> {
    /// The oracle's plain-data view of the target's cost model.
    pub fn spec_costs(&self) -> SpecCosts {
        target_spec_costs(self.target)
    }
}

/// Projects a target's cost table down to the oracle's plain-data view
/// (the hssa crate cannot depend on the machine crate, so the driver — and
/// the `--explain-spec` renderer — perform the projection).
pub fn target_spec_costs(target: specframe_machine::TargetId) -> SpecCosts {
    let t = target.spec();
    let c = t.costs();
    SpecCosts {
        check_cost: t.check_overhead(),
        int_load: c.int_load,
        fp_load: c.fp_load,
    }
}

/// Splits critical edges in every function. Run this **before** collecting
/// edge profiles so profile block ids match what [`optimize`] sees
/// (idempotent).
pub fn prepare_module(m: &mut Module) {
    for f in &mut m.funcs {
        split_critical_edges(f);
    }
}

/// Execution configuration of the pipeline (how to run, not what to run —
/// that is [`OptOptions`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineConfig {
    /// Worker threads for the per-function fan-out. `0` means auto: the
    /// `SPECFRAME_JOBS` environment variable if set to a positive integer,
    /// otherwise the machine's available parallelism.
    pub jobs: usize,
}

impl PipelineConfig {
    /// The effective worker count after env/auto resolution (always ≥ 1).
    pub fn resolved_jobs(&self) -> usize {
        if self.jobs > 0 {
            return self.jobs;
        }
        if let Some(n) = std::env::var("SPECFRAME_JOBS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return n;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Everything one [`optimize_with`] call reports: transformation counters
/// plus per-pass wall times, plus the diagnostics of any per-function
/// degradation the driver performed.
#[derive(Debug, Default, Clone)]
pub struct OptReport {
    /// Deterministic transformation counters (identical for any job count).
    pub stats: OptStats,
    /// Per-pass wall clock (varies run to run).
    pub timings: PassTimings,
    /// One warning per function that was recompiled non-speculatively
    /// after its speculative compilation failed (function index order),
    /// preceded by one `"cache"` warning per stale entry encountered.
    pub warnings: Vec<CompileDiag>,
    /// Compile-cache counters for this run; all-zero when no cache was
    /// attached. Deliberately not part of [`OptStats`]: cached and
    /// uncached runs must report identical transformation counters while
    /// reporting different cache counters.
    pub cache: CacheStats,
    /// Per-function cache outcome in function-index order; empty when no
    /// cache was attached. The compile service's per-function status lines
    /// read these.
    pub cache_outcomes: Vec<CacheOutcome>,
}

/// Runs the full speculative optimization pipeline over `m` with the
/// default execution configuration (parallel fan-out, auto worker count).
///
/// # Panics
/// Panics if an internal invariant breaks (the SSA verifier or the module
/// verifier rejects the result) — optimizer bugs are made loud.
pub fn optimize(m: &mut Module, opts: &OptOptions<'_>) -> OptStats {
    optimize_with(m, opts, &PipelineConfig::default()).stats
}

/// [`optimize`] with an explicit execution configuration, reporting per-pass
/// timings.
///
/// The per-function stages — refine → build HSSA → SSAPRE → strength
/// reduction / store sinking → verify → lower — are embarrassingly
/// parallel: each worker owns exactly one [`Function`] (moved out of the
/// module) plus read-only shared state (globals, alias analysis, profiles,
/// the per-function analysis cache). The module is only touched at two
/// deterministic points: the fan-out (functions moved out in index order)
/// and the join (lowered functions spliced back in index order, with
/// optimizer-synthesized memory sites renumbered serially there). Output is
/// therefore bit-identical for every job count, including 1.
pub fn optimize_with(m: &mut Module, opts: &OptOptions<'_>, cfg: &PipelineConfig) -> OptReport {
    optimize_with_hooks(m, opts, cfg, &PipelineHooks::default()).0
}

/// [`optimize_with`] plus the pass-manager seam: snapshot the textual form
/// of any function after any named stage ([`PipelineHooks::dump_after`]),
/// or run the pipeline only through a stage
/// ([`PipelineHooks::stop_after`]).
///
/// Snapshots are taken inside the per-function workers (each one depends
/// only on that worker's function) and assembled at the deterministic
/// join, functions in module order and stages in pipeline order, so the
/// returned dump list — like the module itself — is bit-identical for
/// every job count. `lower` snapshots are taken at the join, after fresh
/// memory sites have been renumbered to their module-unique ids.
pub fn optimize_with_hooks(
    m: &mut Module,
    opts: &OptOptions<'_>,
    cfg: &PipelineConfig,
    hooks: &PipelineHooks,
) -> (OptReport, Vec<PassDump>) {
    match try_optimize_with_hooks(m, opts, cfg, hooks) {
        Ok(out) => out,
        Err(e) => panic!("optimize failed: {e}"),
    }
}

/// [`optimize_with_hooks`] with structured failure instead of panics.
///
/// A function whose speculative compilation fails (verifier rejection or a
/// worker panic) is recompiled with speculation disabled; the degradation
/// is recorded as an [`OptReport`] warning and counted in
/// [`OptStats::spec_fallbacks`]. An error is returned only when that
/// fallback fails too, or when final whole-module verification rejects the
/// result.
///
/// # Errors
/// A [`CompileError`] naming the function and stage that failed.
pub fn try_optimize_with_hooks(
    m: &mut Module,
    opts: &OptOptions<'_>,
    cfg: &PipelineConfig,
    hooks: &PipelineHooks,
) -> Result<(OptReport, Vec<PassDump>), CompileError> {
    try_optimize_cached(m, opts, cfg, hooks, None)
}

/// [`try_optimize_with_hooks`] over a persistent per-function compile
/// cache.
///
/// Before the fan-out, every function's content hash (body + config +
/// alias-analysis slice + profile slices — see [`crate::cache::key`]) is
/// probed serially. Hits replay their stored lowering, stats, and dumps
/// and never occupy a worker slot; only misses (and stale entries, which
/// degrade with a `"cache"` diagnostic on the report) enter the chunked
/// claim loop. Clean misses are written back at the deterministic join,
/// *before* fresh-site renumbering, so an entry replays identically into
/// any module. Cached and uncached compiles are byte-identical at every
/// job count; cache counters land on [`OptReport::cache`], never on
/// [`OptStats`].
///
/// # Errors
/// A [`CompileError`] naming the function and stage that failed. Cache
/// I/O failures are never errors — they degrade to fresh compiles.
pub fn try_optimize_cached(
    m: &mut Module,
    opts: &OptOptions<'_>,
    cfg: &PipelineConfig,
    hooks: &PipelineHooks,
    fcache: Option<&FuncCache>,
) -> Result<(OptReport, Vec<PassDump>), CompileError> {
    let total0 = Instant::now();
    let dom0 = dom_compute_count();
    prepare_module(m);

    let mut timings = PassTimings {
        target: opts.target.name(),
        ..PassTimings::default()
    };
    let t0 = Instant::now();
    let aa = AliasAnalysis::analyze(m);
    timings.alias = t0.elapsed();

    // Fault injection makes a compile run-specific (the injected failure
    // and its recovery must actually happen); replaying such a result —
    // or caching it — would defeat the test hooks, so they turn the cache
    // off wholesale.
    let fcache = fcache.filter(|_| {
        hooks.inject_spec_fail.is_none()
            && hooks.inject_fallback_fail.is_none()
            && hooks.inject_corrupt.is_none()
    });

    let nfuncs = m.funcs.len();
    let mut cache_stats = CacheStats::default();
    let mut cache_outcomes: Vec<CacheOutcome> = Vec::new();
    // stale-entry diagnostics are module-level (the *recompile* itself is
    // clean and write-back eligible), so they are collected apart from the
    // per-function fallback warnings and prepended to the report
    let mut cache_warnings: Vec<CompileDiag> = Vec::new();
    let mut keys: Vec<cache::CacheKey> = Vec::new();
    let mut cached: Vec<Option<Box<CachedFunc>>> = Vec::new();
    cached.resize_with(nfuncs, || None);
    if let Some(c) = fcache {
        let t0 = Instant::now();
        let ctx = cache::KeyContext::new(m, &aa, opts, hooks);
        // key derivation and entry decode are independent per function, so
        // probing fans out over the worker pool like compilation does; the
        // outcomes are folded back in index order below, keeping counters,
        // warnings and write-back decisions deterministic.
        let probes = fan_out(cfg.resolved_jobs(), nfuncs, |fi| {
            let key = ctx.function_key(fi);
            let probe = c.probe(&key);
            (key, probe)
        });
        for (fi, (key, probe)) in probes.into_iter().enumerate() {
            match probe {
                Probe::Hit(cf) => {
                    cache_stats.hits += 1;
                    cache_outcomes.push(CacheOutcome::Hit);
                    cached[fi] = Some(cf);
                }
                Probe::Miss => {
                    cache_stats.misses += 1;
                    cache_outcomes.push(CacheOutcome::Miss);
                }
                Probe::Stale(why) => {
                    cache_stats.stale += 1;
                    cache_outcomes.push(CacheOutcome::Stale);
                    cache_warnings.push(CompileDiag {
                        function: m.funcs[fi].name.clone(),
                        pass: "cache".into(),
                        message: format!("stale cache entry ({why}); recompiled from source"),
                    });
                }
            }
            keys.push(key);
        }
        timings.cache += t0.elapsed();
    }

    // CFG analyses once per function, up front: every later pass only
    // rewrites instructions (never the CFG — critical edges were split
    // above), so the cache stays valid through the whole fan-out. Cache
    // hits skip the pipeline entirely and need no analyses.
    let t0 = Instant::now();
    let fas: Vec<Option<FuncAnalyses>> = m
        .funcs
        .iter()
        .enumerate()
        .map(|(fi, f)| cached[fi].is_none().then(|| FuncAnalyses::compute(f)))
        .collect();
    timings.analyses = t0.elapsed();

    let estimated;
    let control_profile: Option<&EdgeProfile> = match opts.control {
        ControlSpec::Off => None,
        ControlSpec::Profile(p) => Some(p),
        ControlSpec::Static => {
            // estimate only the functions that will actually compile; the
            // estimator is per-function, so hits don't change miss keys
            let mut p = EdgeProfile::new();
            for (fi, (f, fa)) in m.funcs.iter().zip(&fas).enumerate() {
                if let Some(fa) = fa {
                    estimate_function_with(&mut p, FuncId::from_index(fi), f, fa);
                }
            }
            estimated = p;
            Some(&estimated)
        }
    };

    let func_names = func_name_table(m);
    // callee signatures and the global address layout, frozen before the
    // fan-out so per-worker verification/audit can run without the
    // (moved-out) module
    let sigs: Vec<(u32, bool)> = m
        .funcs
        .iter()
        .map(|f| (f.params, f.ret_ty.is_some()))
        .collect();
    let layout = layout_globals(&m.globals);
    // only misses occupy worker slots; hits are spliced in at the join
    let miss: Vec<usize> = (0..nfuncs).filter(|&fi| cached[fi].is_none()).collect();
    let funcs = std::mem::take(&mut m.funcs);
    let shared = Shared {
        globals: &m.globals,
        func_names: &func_names,
        sigs: &sigs,
        layout: &layout,
        aa: &aa,
        opts,
        control_profile,
        hooks,
    };
    let fa_of = |fi: usize| fas[fi].as_ref().expect("analyses computed for every miss");

    // each input slot has its own (uncontended) mutex, so a worker takes
    // its function by value without fighting over one queue lock. Worker
    // panics are caught inside process_function, so the fan-out never
    // unwinds; failures arrive as CompileErrors in order.
    let slots: Vec<Mutex<Option<Function>>> =
        funcs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let mut compiled = fan_out(cfg.resolved_jobs(), miss.len(), |k| {
        let fi = miss[k];
        let f = slots[fi].lock().unwrap().take().expect("slot claimed once");
        process_function(&shared, f, fi, fa_of(fi))
    });

    // deterministic join: splice lowered functions back in index order and
    // renumber fresh memory sites serially, reproducing serial numbering;
    // per-function dumps and warnings are concatenated in the same order.
    // An unrecoverable per-function failure surfaces here — the lowest
    // function index wins, independent of worker scheduling. Clean misses
    // are written back here, encoded *before* renumbering so the stored
    // placeholders replay into any module.
    let mut stats = OptStats::default();
    let mut warnings: Vec<CompileDiag> = cache_warnings;
    let mut dumps: Vec<PassDump> = Vec::new();
    m.funcs = Vec::with_capacity(nfuncs);
    for (fi, hit) in cached.into_iter().enumerate() {
        let mut r = match hit {
            Some(cf) => FuncResult::from_cached(*cf),
            None => compiled.next().expect("one result per miss")?,
        };
        let write_back = match fcache {
            // a cancelled request stops writing entries: the join may still
            // splice results compiled before the deadline, but none of them
            // reach the store (the deadline error surfaces from `?` above)
            Some(_)
                if matches!(
                    cache_outcomes.get(fi),
                    Some(CacheOutcome::Miss | CacheOutcome::Stale)
                ) && r.warnings.is_empty()
                    && !hooks.cancel.cancelled() =>
            {
                // a function that needed the degradation ladder is not
                // cached: its result encodes a recovery, not the plain
                // compile the key describes
                let t0 = Instant::now();
                let bytes = cache::encode_entry(&r.f, r.fresh_sites, &r.stats, &r.dumps);
                timings.cache += t0.elapsed();
                Some(bytes)
            }
            _ => None,
        };
        let first = MemSiteId(m.next_mem_site);
        m.next_mem_site += r.fresh_sites;
        resolve_fresh_sites(&mut r.f, first);
        stats.absorb(&r.stats);
        timings.absorb(&r.timings);
        warnings.append(&mut r.warnings);
        dumps.append(&mut r.dumps);
        if hooks.dump_after.contains(Pass::Lower) {
            let mut text = String::new();
            print_function_in(&mut text, &m.globals, &func_names, &r.f);
            dumps.push(PassDump {
                pass: Pass::Lower,
                func: r.f.name.clone(),
                text,
            });
        }
        if let (Some(c), Some(bytes)) = (fcache, write_back) {
            let t0 = Instant::now();
            match c.insert(&keys[fi], &bytes) {
                Ok(evicted) => cache_stats.evicts += evicted,
                Err(e) => warnings.push(CompileDiag {
                    function: r.f.name.clone(),
                    pass: "cache".into(),
                    message: format!("cache write failed ({e}); result not cached"),
                }),
            }
            timings.cache += t0.elapsed();
        }
        m.funcs.push(r.f);
    }

    // fold the storage-fault counters in and surface the circuit breaker
    // (once per session: only the cache instance that tripped it reports)
    if let Some(c) = fcache {
        let (retries, io_errors, breaker_trips) = c.fault_counters();
        cache_stats.retries = retries;
        cache_stats.io_errors = io_errors;
        cache_stats.breaker_trips = breaker_trips;
        if let Some(reason) = c.breaker_diag() {
            warnings.push(CompileDiag {
                function: String::new(),
                pass: "cache".into(),
                message: format!(
                    "cache circuit breaker tripped ({reason}); compiling without the cache"
                ),
            });
        }
    }

    let t0 = Instant::now();
    if let Err(e) = specframe_ir::verify_module(m) {
        return Err(CompileError {
            function: String::new(),
            pass: "module-verify".into(),
            message: e.to_string(),
            fallback_exhausted: false,
        });
    }
    timings.module_verify = t0.elapsed();
    timings.total = total0.elapsed();
    timings.dom_computes = dom_compute_count() - dom0;
    Ok((
        OptReport {
            stats,
            timings,
            warnings,
            cache: cache_stats,
            cache_outcomes,
        },
        dumps,
    ))
}

/// One worker's output for one function.
struct FuncResult {
    /// The lowered function (fresh sites still local placeholders).
    f: Function,
    stats: OptStats,
    timings: PassTimings,
    /// Placeholder count for [`resolve_fresh_sites`] at the join.
    fresh_sites: u32,
    /// Snapshots this worker took, in pipeline order.
    dumps: Vec<PassDump>,
    /// Degradation diagnostics (non-speculative fallback taken).
    warnings: Vec<CompileDiag>,
}

impl FuncResult {
    /// A result replayed from a cache entry: stored lowering, stats and
    /// dumps, zero timings (nothing ran), no warnings (only clean compiles
    /// are written back).
    fn from_cached(cf: CachedFunc) -> FuncResult {
        FuncResult {
            f: cf.func,
            stats: cf.stats,
            timings: PassTimings::default(),
            fresh_sites: cf.fresh_sites,
            dumps: cf.dumps,
            warnings: Vec::new(),
        }
    }
}

/// Read-only state shared by every per-function worker.
struct Shared<'a, 'p> {
    globals: &'a [Global],
    func_names: &'a [String],
    /// `(params, has_ret)` per function, for per-worker call checking.
    sigs: &'a [(u32, bool)],
    /// Global address layout, for per-worker machine lowering (`--audit-spec`).
    layout: &'a [i64],
    aa: &'a AliasAnalysis,
    opts: &'a OptOptions<'p>,
    control_profile: Option<&'a EdgeProfile>,
    hooks: &'a PipelineHooks,
}

/// Output of one (speculative or fallback) run of the post-refine stages.
struct StageOutput {
    f: Function,
    stats: OptStats,
    timings: PassTimings,
    fresh_sites: u32,
    dumps: Vec<PassDump>,
    /// Diagnostics from repairing stages (`--fence-leaks` site reports).
    warnings: Vec<CompileDiag>,
}

/// Runs `work(i)` for every `i` in `0..n` on up to `jobs` threads and
/// yields the results in index order, so callers fold them
/// deterministically whatever the scheduling. Workers claim chunks of
/// indices with one atomic `fetch_add` per chunk and keep results
/// worker-locally, merging them under the output lock once per worker;
/// the calling thread is worker zero, so only `jobs - 1` threads spawn.
fn fan_out<T: Send>(
    jobs: usize,
    n: usize,
    work: impl Fn(usize) -> T + Sync,
) -> impl Iterator<Item = T> {
    let jobs = jobs.clamp(1, n.max(1));
    let chunk = (n / (jobs * 8)).clamp(1, 32);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let out: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let worker = || {
        let mut local = Vec::new();
        loop {
            let lo = next.fetch_add(chunk, std::sync::atomic::Ordering::Relaxed);
            if lo >= n {
                break;
            }
            for i in lo..(lo + chunk).min(n) {
                local.push((i, work(i)));
            }
        }
        let mut out = out.lock().unwrap();
        for (i, r) in local {
            out[i] = Some(r);
        }
    };
    std::thread::scope(|s| {
        for _ in 1..jobs {
            s.spawn(worker);
        }
        worker();
    });
    let out = out.into_inner().unwrap();
    assert!(out.iter().all(Option::is_some), "every index claimed");
    out.into_iter().flatten()
}

/// The per-function pipeline. Owns `f`; everything else is shared
/// read-only.
///
/// Refinement runs once up front (it is not speculation-dependent), then
/// the speculative stage group — HSSA build, SSAPRE, strength reduction,
/// store promotion, verify, lower — runs under `catch_unwind`. If it fails
/// (verifier rejection or panic), the same group is re-run with
/// speculation fully disabled; only a failure of that fallback, too, is an
/// error.
fn process_function(
    sh: &Shared<'_, '_>,
    mut f: Function,
    fi: usize,
    fa: &FuncAnalyses,
) -> Result<FuncResult, CompileError> {
    let fid = FuncId::from_index(fi);
    let hooks = sh.hooks;
    // between-functions deadline gate: a request past its deadline stops
    // claiming work; functions already in flight stop at their next pass
    // boundary (see `check_deadline` in `run_spec_stages`)
    if hooks.cancel.cancelled() {
        return Err(CompileError::deadline(&f.name));
    }
    let mut dumps: Vec<PassDump> = Vec::new();

    // flow-sensitive refinement (Figure 4's last box): fold pointer bases
    // that provably hold one static address into direct references, then
    // build the SSA form the optimizer sees
    let mut refine_time = std::time::Duration::ZERO;
    let refined = with_quiet_panics(|| {
        catch_unwind(AssertUnwindSafe(|| {
            let t0 = Instant::now();
            refine_function_in(sh.globals, &mut f, fid, sh.aa, fa);
            refine_time = t0.elapsed();
        }))
    });
    if let Err(payload) = refined {
        // refinement is shared by both attempts, so there is no
        // speculation to disable — report it directly
        return Err(CompileError {
            function: f.name.clone(),
            pass: "refine".into(),
            message: panic_message(payload.as_ref()),
            fallback_exhausted: false,
        });
    }
    let mut pre_verify_time = std::time::Duration::ZERO;
    if hooks.verify_each {
        // pass-boundary check on the refined IR (refine is shared by every
        // later attempt, so a rejection here is unrecoverable, like a
        // refine panic)
        let t0 = Instant::now();
        let checked = verify_ir_function(sh, Pass::Refine, &f);
        pre_verify_time = t0.elapsed();
        if let Err(message) = checked {
            return Err(CompileError {
                function: f.name.clone(),
                pass: Pass::Refine.name().into(),
                message,
                fallback_exhausted: false,
            });
        }
    }
    if hooks.dump_after.contains(Pass::Refine) {
        let mut text = String::new();
        print_function_in(&mut text, sh.globals, sh.func_names, &f);
        dumps.push(PassDump {
            pass: Pass::Refine,
            func: f.name.clone(),
            text,
        });
    }
    if !hooks.runs(Pass::Hssa) {
        // stopped after refine: the function is already executable IR
        return Ok(FuncResult {
            f,
            stats: OptStats::default(),
            timings: PassTimings {
                refine: refine_time,
                verify_each: pre_verify_time,
                ..Default::default()
            },
            fresh_sites: 0,
            dumps,
            warnings: Vec::new(),
        });
    }

    // the degradation ladder: full speculative attempt, then per-pass
    // rollback (skip just the offending pass, keep speculating), then the
    // whole-function non-speculative fallback
    let current = Cell::new("hssa");
    let attempt = |speculative: bool, skip: PassSet| {
        current.set("hssa");
        let r = with_quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                run_spec_stages(sh, &f, fid, fa, speculative, skip, &current)
            }))
        });
        flatten_attempt(r, &current)
    };
    let (out, warnings) = match attempt(true, PassSet::EMPTY) {
        Ok(out) => (out, Vec::new()),
        // a deadline is not a compile failure the ladder can recover from —
        // retrying without speculation cannot buy time back — so it
        // bypasses every rung and surfaces as its own error shape
        Err((pass, _)) if pass == CompileError::DEADLINE_PASS => {
            return Err(CompileError::deadline(&f.name))
        }
        Err((pass, message)) => {
            // rung 1: roll back just the offending pass and re-run the
            // remaining pipeline. An attributed failure names its pass; an
            // unattributed one (final verify, audit, lower) is bisected by
            // trying single-pass skips from the back of the pipeline.
            let candidates: Vec<Pass> = match pass.parse::<Pass>() {
                Ok(p) if SKIPPABLE.contains(&p) => vec![p],
                _ => SKIPPABLE.iter().rev().copied().collect(),
            };
            let mut rescued = None;
            for p in candidates {
                if !pass_enabled(sh, p) {
                    continue;
                }
                match attempt(true, PassSet::from_iter([p])) {
                    Ok(mut out) => {
                        out.stats.pass_rollbacks = 1;
                        let diag = CompileDiag {
                            function: f.name.clone(),
                            pass: pass.clone(),
                            message: format!(
                                "speculative compilation failed ({message}); rolled back \
                                 pass `{p}` for this function and re-ran the remaining \
                                 pipeline"
                            ),
                        };
                        rescued = Some((out, vec![diag]));
                        break;
                    }
                    Err((p2, _)) if p2 == CompileError::DEADLINE_PASS => {
                        return Err(CompileError::deadline(&f.name))
                    }
                    Err(_) => {}
                }
            }
            if let Some(r) = rescued {
                r
            } else {
                // rung 2: non-speculative fallback — same function,
                // speculation off
                match attempt(false, PassSet::EMPTY) {
                    Ok(mut out) => {
                        out.stats.spec_fallbacks = 1;
                        let diag = CompileDiag {
                            function: f.name.clone(),
                            pass,
                            message: format!(
                                "speculative compilation failed ({message}); \
                                 recompiled without speculation"
                            ),
                        };
                        (out, vec![diag])
                    }
                    Err((fpass, _)) if fpass == CompileError::DEADLINE_PASS => {
                        return Err(CompileError::deadline(&f.name))
                    }
                    Err((fpass, fmessage)) => {
                        return Err(CompileError {
                            function: f.name.clone(),
                            pass: fpass,
                            message: fmessage,
                            fallback_exhausted: true,
                        })
                    }
                }
            }
        }
    };

    let mut out = out;
    let mut warnings = warnings;
    warnings.append(&mut out.warnings);
    let mut timings = out.timings;
    timings.refine = refine_time;
    timings.verify_each += pre_verify_time;
    dumps.extend(out.dumps);
    Ok(FuncResult {
        f: out.f,
        stats: out.stats,
        timings,
        fresh_sites: out.fresh_sites,
        dumps,
        warnings,
    })
}

/// Collapses the two failure shapes of a stage-group attempt — a clean
/// verifier rejection and a caught panic — into one `(pass, message)`.
fn flatten_attempt(
    attempt: std::thread::Result<Result<StageOutput, (String, String)>>,
    current: &Cell<&'static str>,
) -> Result<StageOutput, (String, String)> {
    match attempt {
        Ok(Ok(out)) => Ok(out),
        Ok(Err(e)) => Err(e),
        Err(payload) => Err((current.get().to_string(), panic_message(payload.as_ref()))),
    }
}

/// The passes the rollback rung of the degradation ladder may skip
/// individually. HSSA build and lowering are structural (nothing runs
/// without them); refine runs before the ladder.
const SKIPPABLE: [Pass; 4] = [Pass::Ssapre, Pass::Strength, Pass::Lftr, Pass::Storeprom];

/// Whether pass `p` actually runs under this configuration (hooks *and*
/// option gates) — skipping a pass that never ran is a wasted retry.
fn pass_enabled(sh: &Shared<'_, '_>, p: Pass) -> bool {
    sh.hooks.runs(p)
        && match p {
            Pass::Strength => sh.opts.strength_reduction,
            Pass::Lftr => sh.opts.lftr,
            Pass::Storeprom => sh.opts.store_sinking,
            _ => true,
        }
}

/// The `pass=<p> fn=<f> bb=<n>` attribution suffix of verify-each and
/// audit diagnostics.
fn attribution(pass: &str, func: &str, bb: Option<u32>) -> String {
    match bb {
        Some(b) => format!("pass={pass} fn={func} bb={b}"),
        None => format!("pass={pass} fn={func}"),
    }
}

/// IR-level pass-boundary check (after `refine` and after `lower`): the
/// per-function structural verifier, run against the worker-shared global
/// count and callee signatures.
///
/// # Errors
/// Returns the fully attributed diagnostic message.
fn verify_ir_function(sh: &Shared<'_, '_>, pass: Pass, f: &Function) -> Result<(), String> {
    let callee = |i: usize| -> Option<CalleeSig<'_>> {
        sh.sigs.get(i).map(|&(params, has_ret)| CalleeSig {
            name: &sh.func_names[i],
            params,
            has_ret,
        })
    };
    specframe_ir::verify_function_in(sh.globals.len(), &callee, f).map_err(|e| {
        format!(
            "pass-boundary verification failed after `{pass}`: {} [{}]",
            e.msg,
            attribution(pass.name(), &f.name, e.block)
        )
    })
}

/// HSSA-level pass-boundary check: the detailed structural verifier plus,
/// once strength reduction has run, the SrTemp chain-consistency check.
///
/// # Errors
/// `(pass, message)` in the shape the degradation ladder consumes.
fn hssa_verify_each(
    f: &Function,
    hf: &HssaFunc,
    p: Pass,
    sr_temps: &[crate::strength::SrTemp],
    t: &mut PassTimings,
) -> Result<(), (String, String)> {
    let t0 = Instant::now();
    let mut r = verify_hssa_detailed(hf).map_err(|e| (e.block.map(|b| b as u32), e.msg));
    if r.is_ok() && p >= Pass::Strength {
        r = crate::lftr::verify_sr_temps(hf, sr_temps).map_err(|m| (None, m));
    }
    t.verify_each += t0.elapsed();
    r.map_err(|(bb, msg)| {
        (
            p.name().to_string(),
            format!(
                "pass-boundary verification failed after `{p}`: {msg} [{}]",
                attribution(p.name(), &f.name, bb)
            ),
        )
    })
}

/// Deterministic HSSA corruption for `--inject-corrupt`: breaks the first
/// renamed φ argument (falling back to a χ operand, then the entry
/// terminator) so the verify-each checker has a real violation to catch.
fn corrupt_hssa(hf: &mut HssaFunc) {
    for b in &mut hf.blocks {
        if let Some(arg) = b.phis.first_mut().and_then(|phi| phi.args.first_mut()) {
            *arg = u32::MAX;
            return;
        }
    }
    for b in &mut hf.blocks {
        if let Some(st) = b.stmts.iter_mut().find(|s| !s.chi.is_empty()) {
            st.chi[0].old_ver = u32::MAX;
            return;
        }
    }
    if let Some(b) = hf.blocks.first_mut() {
        b.term = None;
    }
}

/// The speculation-dependent stage group: HSSA build → SSAPRE → strength
/// reduction → store promotion → verify → lower. When `speculative` is
/// false, every speculation source is forced off (the degradation target).
/// Passes in `skip` are left out (the ladder's per-pass rollback rung).
/// `current` tracks the running stage so a panic can be attributed.
fn run_spec_stages(
    sh: &Shared<'_, '_>,
    f: &Function,
    fid: FuncId,
    fa: &FuncAnalyses,
    speculative: bool,
    skip: PassSet,
    current: &Cell<&'static str>,
) -> Result<StageOutput, (String, String)> {
    let hooks = sh.hooks;
    let mut stats = OptStats::default();
    let mut t = PassTimings::default();
    let mut dumps: Vec<PassDump> = Vec::new();
    let dump_hssa = |dumps: &mut Vec<PassDump>, pass: Pass, hf: &HssaFunc| {
        dumps.push(PassDump {
            pass,
            func: f.name.clone(),
            text: print_hssa_in(sh.globals, sh.func_names, f, hf),
        });
    };
    let inject = if speculative {
        &hooks.inject_spec_fail
    } else {
        &hooks.inject_fallback_fail
    };
    // the driver owns the likeliness oracle; HSSA construction and the
    // SSAPRE kernel query the same instance, so their verdicts agree
    let mode = if speculative {
        sh.opts.data.mode()
    } else {
        SpecMode::NoSpeculation
    };
    let oracle = Likeliness::with_costs(mode, sh.opts.spec_costs());

    // deadline poll, one per stage gate: cancellation is only observed at
    // pass boundaries, where no function is half-rewritten, so a cancelled
    // compile never commits (or caches) a partial transformation
    let check_deadline = || -> Result<(), (String, String)> {
        if hooks.cancel.cancelled() {
            Err((
                CompileError::DEADLINE_PASS.into(),
                "deadline exceeded".into(),
            ))
        } else {
            Ok(())
        }
    };

    // `--inject-corrupt` sabotages the speculative attempt right after the
    // named pass; the fallback attempt stays clean, like the other
    // injection knobs, so the ladder always has a sound rung to land on
    let maybe_corrupt = |hf: &mut HssaFunc, p: Pass| {
        if let Some((func, pass)) = &hooks.inject_corrupt {
            if speculative && *pass == p && func == f.name.as_str() {
                corrupt_hssa(hf);
            }
        }
    };

    current.set("hssa");
    check_deadline()?;
    let t0 = Instant::now();
    let mut hf = build_hssa_with(sh.globals, f, fid, sh.aa, &oracle, fa);
    t.hssa_build = t0.elapsed();
    if hooks.dump_after.contains(Pass::Hssa) {
        dump_hssa(&mut dumps, Pass::Hssa, &hf);
    }
    maybe_corrupt(&mut hf, Pass::Hssa);
    if hooks.verify_each {
        hssa_verify_each(f, &hf, Pass::Hssa, &[], &mut t)?;
    }

    if hooks.runs(Pass::Ssapre) {
        current.set("ssapre");
        check_deadline()?;
        // injection fires on every attempt that reaches this stage — also
        // the rollback retry — so recovery degrades past rung 1
        if inject.as_deref() == Some(f.name.as_str()) {
            panic!(
                "injected {} failure",
                if speculative {
                    "speculative-compilation"
                } else {
                    "fallback-compilation"
                }
            );
        }
        if !skip.contains(Pass::Ssapre) {
            let policy = if speculative {
                SpecPolicy {
                    oracle,
                    control: sh.control_profile.map(|p| (p, fid)),
                }
            } else {
                SpecPolicy::none()
            };
            let t0 = Instant::now();
            ssapre_function(f, &mut hf, &policy, &mut stats, fa);
            t.ssapre = t0.elapsed();
            if hooks.dump_after.contains(Pass::Ssapre) {
                dump_hssa(&mut dumps, Pass::Ssapre, &hf);
            }
            maybe_corrupt(&mut hf, Pass::Ssapre);
            if hooks.verify_each {
                hssa_verify_each(f, &hf, Pass::Ssapre, &[], &mut t)?;
            }
        }
    }

    let mut sr_temps: Vec<crate::strength::SrTemp> = Vec::new();
    if sh.opts.strength_reduction && hooks.runs(Pass::Strength) && !skip.contains(Pass::Strength) {
        current.set("strength");
        check_deadline()?;
        let t0 = Instant::now();
        strength_reduce_hssa(&mut hf, &mut stats, fa, &mut sr_temps);
        crate::ssapre::cleanup_hssa(&mut hf);
        t.strength = t0.elapsed();
        if hooks.dump_after.contains(Pass::Strength) {
            dump_hssa(&mut dumps, Pass::Strength, &hf);
        }
        maybe_corrupt(&mut hf, Pass::Strength);
        if hooks.verify_each {
            hssa_verify_each(f, &hf, Pass::Strength, &sr_temps, &mut t)?;
        }
    }
    if sh.opts.lftr && hooks.runs(Pass::Lftr) && !skip.contains(Pass::Lftr) {
        current.set("lftr");
        check_deadline()?;
        let t0 = Instant::now();
        crate::lftr::lftr_hssa(&mut hf, &sr_temps, &mut stats);
        crate::ssapre::cleanup_hssa(&mut hf);
        t.lftr = t0.elapsed();
        if hooks.dump_after.contains(Pass::Lftr) {
            dump_hssa(&mut dumps, Pass::Lftr, &hf);
        }
        maybe_corrupt(&mut hf, Pass::Lftr);
        if hooks.verify_each {
            hssa_verify_each(f, &hf, Pass::Lftr, &sr_temps, &mut t)?;
        }
    }
    if sh.opts.store_sinking && hooks.runs(Pass::Storeprom) && !skip.contains(Pass::Storeprom) {
        current.set("storeprom");
        check_deadline()?;
        let t0 = Instant::now();
        crate::storeprom::sink_stores_hssa(&mut hf, &mut stats, fa);
        crate::ssapre::cleanup_hssa(&mut hf);
        t.storeprom = t0.elapsed();
        if hooks.dump_after.contains(Pass::Storeprom) {
            dump_hssa(&mut dumps, Pass::Storeprom, &hf);
        }
        maybe_corrupt(&mut hf, Pass::Storeprom);
        if hooks.verify_each {
            hssa_verify_each(f, &hf, Pass::Storeprom, &sr_temps, &mut t)?;
        }
    }

    current.set("verify");
    check_deadline()?;
    let t0 = Instant::now();
    if let Err(e) = verify_hssa_detailed(&hf) {
        return Err(("verify".into(), e.msg));
    }
    t.verify = t0.elapsed();

    current.set("lower");
    check_deadline()?;
    let t0 = Instant::now();
    let (lowered, fresh_sites) = lower_function(f, &hf);
    t.lower = t0.elapsed();
    if hooks.verify_each {
        let t0 = Instant::now();
        let checked = verify_ir_function(sh, Pass::Lower, &lowered);
        t.verify_each += t0.elapsed();
        if let Err(message) = checked {
            return Err((Pass::Lower.name().into(), message));
        }
    }

    if hooks.audit_spec {
        // machine-lower this one function against the frozen global layout
        // and prove the ld.a/ld.c pairing contract on the result
        current.set("audit");
        let t0 = Instant::now();
        let mf = specframe_codegen::lower_function_machine_for(
            &lowered,
            sh.layout,
            sh.opts.target.spec(),
        );
        let audited = specframe_machine::audit_func(&mf);
        t.audit = t0.elapsed();
        if let Err(e) = audited {
            return Err((
                "audit".into(),
                format!("{e} [{}]", attribution("audit", &f.name, None)),
            ));
        }
    }

    let mut warnings: Vec<CompileDiag> = Vec::new();
    if hooks.audit_leaks || hooks.fence_leaks {
        // speculative-leak audit: no advanced-load value may reach an
        // address or branch sink before its check. Audit mode rejects the
        // function (the degradation ladder then rolls speculation back);
        // fence mode records the repair the machine lowering will apply
        // (the IR artifact is untouched — fences are a deterministic
        // machine-level transform, so sim/bench lowerings re-derive them).
        current.set("audit-leaks");
        let t0 = Instant::now();
        let mut mf = specframe_codegen::lower_function_machine_for(
            &lowered,
            sh.layout,
            sh.opts.target.spec(),
        );
        let sites = specframe_machine::leak_audit_func(&mf);
        if !sites.is_empty() {
            stats.leak_sites_flagged = sites.len() as u64;
            if hooks.fence_leaks {
                let fences = specframe_machine::fence_func(&mut mf);
                stats.leak_fences_inserted = fences;
                let clean = specframe_machine::leak_audit_func(&mf).is_empty();
                for s in &sites {
                    warnings.push(CompileDiag {
                        function: f.name.clone(),
                        pass: "audit-leaks".into(),
                        message: format!("{s} [{}]", attribution("audit-leaks", &f.name, None)),
                    });
                }
                warnings.push(CompileDiag {
                    function: f.name.clone(),
                    pass: "audit-leaks".into(),
                    message: format!(
                        "fenced `{}`: inserted {} speculation barrier(s); re-audit {}",
                        f.name,
                        fences,
                        if clean { "clean" } else { "STILL DIRTY" }
                    ),
                });
                if !clean {
                    return Err((
                        "audit-leaks".into(),
                        format!(
                            "fencing failed to close every speculation window [{}]",
                            attribution("audit-leaks", &f.name, None)
                        ),
                    ));
                }
            } else {
                let report: Vec<String> = sites.iter().map(|s| s.to_string()).collect();
                return Err((
                    "audit-leaks".into(),
                    format!(
                        "{} [{}]",
                        report.join("; "),
                        attribution("audit-leaks", &f.name, None)
                    ),
                ));
            }
        }
        t.audit_leaks = t0.elapsed();
    }

    Ok(StageOutput {
        f: lowered,
        stats,
        timings: t,
        fresh_sites,
        dumps,
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use specframe_ir::{parse_module, Value};
    use specframe_profile::{run, run_with, AliasProfiler, EdgeProfiler};

    /// End-to-end semantic preservation: every configuration must compute
    /// what the unoptimized interpreter computes.
    fn check_all_modes(src: &str, entry: &str, args: &[Value]) {
        let m0 = parse_module(src).unwrap();
        let (expect, base_stats) = run(&m0, entry, args, 10_000_000).unwrap();

        // collect profiles on the prepared module
        let mut prepared = m0.clone();
        prepare_module(&mut prepared);
        let mut ap = AliasProfiler::new();
        let mut ep = EdgeProfiler::new();
        {
            let mut both = specframe_profile::observer::Compose(vec![&mut ap, &mut ep]);
            run_with(&prepared, entry, args, 10_000_000, &mut both).unwrap();
        }
        let aprof = ap.finish();
        let eprof = ep.finish();

        let configs: Vec<(&str, OptOptions)> = vec![
            ("baseline", OptOptions::default()),
            (
                "profile",
                OptOptions {
                    data: SpecSource::Profile(&aprof),
                    control: ControlSpec::Profile(&eprof),
                    strength_reduction: true,
                    lftr: true,
                    store_sinking: false,
                    target: Default::default(),
                },
            ),
            (
                "heuristic",
                OptOptions {
                    data: SpecSource::Heuristic,
                    control: ControlSpec::Static,
                    strength_reduction: true,
                    lftr: true,
                    store_sinking: false,
                    target: Default::default(),
                },
            ),
            (
                "aggressive",
                OptOptions {
                    data: SpecSource::Aggressive,
                    control: ControlSpec::Off,
                    strength_reduction: false,
                    lftr: false,
                    store_sinking: false,
                    target: Default::default(),
                },
            ),
        ];
        for (name, opts) in configs {
            let mut m = prepared.clone();
            let stats = optimize(&mut m, &opts);
            let (got, opt_stats) = run(&m, entry, args, 10_000_000)
                .unwrap_or_else(|e| panic!("{name}: optimized program failed: {e}"));
            assert_eq!(got, expect, "{name}: wrong result");
            let _ = (stats, opt_stats, base_stats);
        }
    }

    #[test]
    fn loop_with_global_promotes() {
        let src = r#"
global g: i64[1] = [5]

func f(n: i64) -> i64 {
  var i: i64
  var c: i64
  var v: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  v = load.i64 [@g]
  acc = add acc, v
  i = add i, 1
  jmp head
exit:
  ret acc
}
"#;
        check_all_modes(src, "f", &[Value::I(25)]);
        // promotion effect: optimized baseline should do fewer dynamic loads
        let m0 = parse_module(src).unwrap();
        let (_, s0) = run(&m0, "f", &[Value::I(25)], 1_000_000).unwrap();
        let mut m = m0.clone();
        // loop-invariant promotion out of a while loop needs control
        // speculation (the paper's O3 ORC baseline has it: "the existing
        // SSAPRE in ORC already supports control speculation")
        optimize(
            &mut m,
            &OptOptions {
                control: ControlSpec::Static,
                ..Default::default()
            },
        );
        let (_, s1) = run(&m, "f", &[Value::I(25)], 1_000_000).unwrap();
        assert!(
            s1.loads < s0.loads,
            "promotion must cut loads: {} -> {}",
            s0.loads,
            s1.loads
        );
    }

    #[test]
    fn may_aliased_loop_needs_speculation() {
        // the paper's core scenario: a loop-invariant load may-aliased with
        // a store through a pointer that never actually aliases at run time
        // p may point at a or b (Steensgaard unifies them), but at run
        // time it only ever points at b — the paper's exact scenario
        let src = r#"
global a: i64[1] = [7]
global b: i64[1]

func smvp_like(p: ptr, n: i64) -> i64 {
  var i: i64
  var c: i64
  var v: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  v = load.i64 [@a]
  acc = add acc, v
  store.i64 [p], acc
  i = add i, 1
  jmp head
exit:
  ret acc
}

func main(n: i64) -> i64 {
  var r: i64
  var p: ptr
entry:
  br n, ub, ua
ua:
  p = @a
  jmp go
ub:
  p = @b
  jmp go
go:
  r = call smvp_like(p, n)
  ret r
}
"#;
        check_all_modes(src, "main", &[Value::I(30)]);

        // baseline cannot promote (store *p may alias a); profile mode can
        let m0 = parse_module(src).unwrap();
        let mut prepared = m0.clone();
        prepare_module(&mut prepared);
        let mut ap = AliasProfiler::new();
        run_with(&prepared, "main", &[Value::I(30)], 1_000_000, &mut ap).unwrap();
        let aprof = ap.finish();

        let mut base = prepared.clone();
        optimize(
            &mut base,
            &OptOptions {
                control: ControlSpec::Static,
                ..Default::default()
            },
        );
        let (_, sb) = run(&base, "main", &[Value::I(30)], 1_000_000).unwrap();

        let mut spec = prepared.clone();
        let st = optimize(
            &mut spec,
            &OptOptions {
                data: SpecSource::Profile(&aprof),
                control: ControlSpec::Static,
                strength_reduction: false,
                lftr: false,
                store_sinking: false,
                target: Default::default(),
            },
        );
        let (_, ss) = run(&spec, "main", &[Value::I(30)], 1_000_000).unwrap();
        assert!(st.data_spec_reloads > 0, "speculation must fire: {st:?}");
        assert!(
            ss.loads < sb.loads,
            "speculative promotion must cut loads: baseline {} spec {}",
            sb.loads,
            ss.loads
        );
    }

    #[test]
    fn redundant_expressions_eliminated() {
        let src = r#"
func f(a: i64, b: i64) -> i64 {
  var x: i64
  var y: i64
  var z: i64
entry:
  x = add a, b
  y = add a, b
  z = add x, y
  ret z
}
"#;
        check_all_modes(src, "f", &[Value::I(3), Value::I(4)]);
        let m0 = parse_module(src).unwrap();
        let mut m = m0.clone();
        let stats = optimize(&mut m, &OptOptions::default());
        assert!(stats.reloads >= 1, "a+b must be reloaded: {stats:?}");
    }

    #[test]
    fn diamond_partial_redundancy() {
        // classic PRE: a+b computed in one arm and after the merge
        let src = r#"
func f(a: i64, b: i64, sel: i64) -> i64 {
  var x: i64
  var y: i64
entry:
  br sel, have, nothave
have:
  x = add a, b
  jmp merge
nothave:
  x = 0
  jmp merge
merge:
  y = add a, b
  x = add x, y
  ret x
}
"#;
        check_all_modes(src, "f", &[Value::I(3), Value::I(4), Value::I(1)]);
        check_all_modes(src, "f", &[Value::I(3), Value::I(4), Value::I(0)]);
        let m0 = parse_module(src).unwrap();
        let mut m = m0.clone();
        let stats = optimize(&mut m, &OptOptions::default());
        // PRE must insert a+b on the nothave edge and reload at merge
        assert!(stats.insertions >= 1, "{stats:?}");
        assert!(stats.reloads >= 1, "{stats:?}");
    }

    #[test]
    fn injected_spec_failure_falls_back_to_nonspeculative() {
        // two functions; `kern`'s speculative compile is sabotaged — the
        // module must still compile, with `kern` recompiled non-
        // speculatively and a warning recorded; `other` is unaffected
        let src = r#"
global g: i64[1] = [5]

func kern(n: i64) -> i64 {
  var i: i64
  var c: i64
  var v: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  v = load.i64 [@g]
  acc = add acc, v
  i = add i, 1
  jmp head
exit:
  ret acc
}

func other(a: i64, b: i64) -> i64 {
  var x: i64
  var y: i64
entry:
  x = add a, b
  y = add a, b
  ret y
}
"#;
        let m0 = parse_module(src).unwrap();
        let (expect, _) = run(&m0, "kern", &[Value::I(20)], 1_000_000).unwrap();
        for jobs in [1, 4] {
            let mut m = m0.clone();
            let hooks = PipelineHooks {
                inject_spec_fail: Some("kern".into()),
                ..Default::default()
            };
            let opts = OptOptions {
                data: SpecSource::Heuristic,
                control: ControlSpec::Static,
                strength_reduction: true,
                lftr: true,
                store_sinking: false,
                target: Default::default(),
            };
            let (report, _) =
                try_optimize_with_hooks(&mut m, &opts, &PipelineConfig { jobs }, &hooks)
                    .expect("fallback must rescue the module");
            assert_eq!(report.stats.spec_fallbacks, 1, "jobs={jobs}");
            assert_eq!(report.warnings.len(), 1, "jobs={jobs}");
            let w = &report.warnings[0];
            assert_eq!(w.function, "kern");
            assert_eq!(w.pass, "ssapre");
            assert!(
                w.message
                    .contains("injected speculative-compilation failure"),
                "{w}"
            );
            assert!(w.message.contains("recompiled without speculation"), "{w}");
            let (got, _) = run(&m, "kern", &[Value::I(20)], 1_000_000).unwrap();
            assert_eq!(got, expect, "jobs={jobs}: fallback output must run");
        }
    }

    #[test]
    fn injected_corruption_recovers_via_pass_rollback() {
        // corrupt kern's HSSA right after strength reduction: verify-each
        // must catch it, attribute it, and the ladder's rollback rung must
        // rescue the function by skipping just that pass — speculation and
        // the rest of the pipeline stay on
        let src = r#"
global g: i64[1] = [5]

func kern(n: i64) -> i64 {
  var i: i64
  var c: i64
  var v: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  v = load.i64 [@g]
  acc = add acc, v
  i = add i, 1
  jmp head
exit:
  ret acc
}

func other(a: i64, b: i64) -> i64 {
  var x: i64
entry:
  x = add a, b
  ret x
}
"#;
        let m0 = parse_module(src).unwrap();
        let (expect, _) = run(&m0, "kern", &[Value::I(20)], 1_000_000).unwrap();
        for jobs in [1, 4] {
            let mut m = m0.clone();
            let hooks = PipelineHooks {
                verify_each: true,
                inject_corrupt: Some(("kern".into(), Pass::Strength)),
                ..Default::default()
            };
            let opts = OptOptions {
                data: SpecSource::Heuristic,
                control: ControlSpec::Static,
                strength_reduction: true,
                lftr: true,
                store_sinking: false,
                target: Default::default(),
            };
            let (report, _) =
                try_optimize_with_hooks(&mut m, &opts, &PipelineConfig { jobs }, &hooks)
                    .expect("rollback must rescue the module");
            assert_eq!(report.stats.pass_rollbacks, 1, "jobs={jobs}");
            assert_eq!(report.stats.spec_fallbacks, 0, "jobs={jobs}");
            assert_eq!(report.warnings.len(), 1, "jobs={jobs}");
            let w = &report.warnings[0];
            assert_eq!(w.function, "kern");
            assert_eq!(w.pass, "strength");
            assert!(w.message.contains("rolled back pass `strength`"), "{w}");
            assert!(w.message.contains("pass=strength fn=kern"), "{w}");
            let (got, _) = run(&m, "kern", &[Value::I(20)], 1_000_000).unwrap();
            assert_eq!(got, expect, "jobs={jobs}: rescued output must run");
        }
    }

    #[test]
    fn unskippable_corruption_degrades_to_nonspeculative() {
        // corruption injected after HSSA build poisons every speculative
        // attempt (hssa is not a skippable pass), so rung 1 fails for each
        // candidate and rung 2 — the non-speculative fallback, which the
        // injector leaves clean — must rescue the function
        let src = r#"
global g: i64[1] = [5]

func kern(n: i64) -> i64 {
  var i: i64
  var c: i64
  var v: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  v = load.i64 [@g]
  acc = add acc, v
  i = add i, 1
  jmp head
exit:
  ret acc
}
"#;
        let m0 = parse_module(src).unwrap();
        let (expect, _) = run(&m0, "kern", &[Value::I(20)], 1_000_000).unwrap();
        let mut m = m0.clone();
        let hooks = PipelineHooks {
            verify_each: true,
            inject_corrupt: Some(("kern".into(), Pass::Hssa)),
            ..Default::default()
        };
        let (report, _) = try_optimize_with_hooks(
            &mut m,
            &OptOptions {
                data: SpecSource::Heuristic,
                control: ControlSpec::Static,
                strength_reduction: true,
                lftr: true,
                store_sinking: false,
                target: Default::default(),
            },
            &PipelineConfig { jobs: 1 },
            &hooks,
        )
        .expect("fallback must rescue the module");
        assert_eq!(report.stats.pass_rollbacks, 0);
        assert_eq!(report.stats.spec_fallbacks, 1);
        assert_eq!(report.warnings.len(), 1);
        let w = &report.warnings[0];
        assert_eq!(w.function, "kern");
        assert_eq!(w.pass, "hssa");
        assert!(w.message.contains("recompiled without speculation"), "{w}");
        let (got, _) = run(&m, "kern", &[Value::I(20)], 1_000_000).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn audit_spec_accepts_speculative_output() {
        // the auditor must accept the pipeline's own speculative output:
        // heuristic data speculation over a may-aliased loop emits
        // ld.a/ld.c pairs, and --audit-spec proves the pairing contract
        let src = r#"
global a: i64[1] = [7]
global b: i64[1]

func kern(p: ptr, n: i64) -> i64 {
  var i: i64
  var c: i64
  var v: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  v = load.i64 [@a]
  acc = add acc, v
  store.i64 [p], i
  i = add i, 1
  jmp head
exit:
  ret acc
}

func main(sel: i64, n: i64) -> i64 {
  var r: i64
  var p: ptr
entry:
  br sel, ua, ub
ua:
  p = @a
  jmp go
ub:
  p = @b
  jmp go
go:
  r = call kern(p, n)
  ret r
}
"#;
        let mut m = parse_module(src).unwrap();
        let hooks = PipelineHooks {
            verify_each: true,
            audit_spec: true,
            ..Default::default()
        };
        let (report, _) = try_optimize_with_hooks(
            &mut m,
            &OptOptions {
                data: SpecSource::Heuristic,
                control: ControlSpec::Static,
                strength_reduction: true,
                lftr: true,
                store_sinking: false,
                target: Default::default(),
            },
            &PipelineConfig { jobs: 1 },
            &hooks,
        )
        .expect("clean speculative output must pass the audit");
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        assert!(
            report.stats.checks > 0,
            "speculation must fire so the audit has checked loads to prove: {:?}",
            report.stats
        );
        assert!(report.timings.audit > std::time::Duration::ZERO);
        let (got, _) = run(&m, "main", &[Value::I(1), Value::I(10)], 1_000_000).unwrap();
        let m0 = parse_module(src).unwrap();
        let (expect, _) = run(&m0, "main", &[Value::I(1), Value::I(10)], 1_000_000).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn injected_fallback_failure_exhausts_recovery() {
        let src = r#"
func f(a: i64, b: i64) -> i64 {
  var x: i64
entry:
  x = add a, b
  ret x
}
"#;
        let mut m = parse_module(src).unwrap();
        let hooks = PipelineHooks {
            inject_spec_fail: Some("f".into()),
            inject_fallback_fail: Some("f".into()),
            ..Default::default()
        };
        let e = try_optimize_with_hooks(
            &mut m,
            &OptOptions::default(),
            &PipelineConfig { jobs: 1 },
            &hooks,
        )
        .expect_err("both attempts sabotaged");
        assert_eq!(e.function, "f");
        assert!(e.fallback_exhausted, "{e}");
        assert!(
            e.message.contains("injected fallback-compilation failure"),
            "{e}"
        );
    }

    #[test]
    fn no_injection_means_no_warnings() {
        let src = r#"
func f(a: i64, b: i64) -> i64 {
  var x: i64
entry:
  x = add a, b
  ret x
}
"#;
        let mut m = parse_module(src).unwrap();
        let (report, _) = try_optimize_with_hooks(
            &mut m,
            &OptOptions::default(),
            &PipelineConfig { jobs: 1 },
            &PipelineHooks::default(),
        )
        .unwrap();
        assert_eq!(report.stats.spec_fallbacks, 0);
        assert!(report.warnings.is_empty());
    }

    #[test]
    fn mis_speculation_still_correct() {
        // profile lies: train with p = &b, run with p = &a (input
        // sensitivity, §1) — the check loads must keep the result correct
        let src = r#"
global a: i64[1] = [7]
global b: i64[1]

func kern(p: ptr, n: i64) -> i64 {
  var i: i64
  var c: i64
  var v: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  v = load.i64 [@a]
  acc = add acc, v
  store.i64 [p], i
  i = add i, 1
  jmp head
exit:
  ret acc
}

func main(sel: i64, n: i64) -> i64 {
  var r: i64
  var p: ptr
entry:
  br sel, ua, ub
ua:
  p = @a
  jmp go
ub:
  p = @b
  jmp go
go:
  r = call kern(p, n)
  ret r
}
"#;
        let m0 = parse_module(src).unwrap();
        let mut prepared = m0.clone();
        prepare_module(&mut prepared);
        // train on sel=0 (p=&b, no aliasing)
        let mut ap = AliasProfiler::new();
        run_with(
            &prepared,
            "main",
            &[Value::I(0), Value::I(10)],
            1_000_000,
            &mut ap,
        )
        .unwrap();
        let aprof = ap.finish();
        let mut spec = prepared.clone();
        optimize(
            &mut spec,
            &OptOptions {
                data: SpecSource::Profile(&aprof),
                ..Default::default()
            },
        );
        // deploy on sel=1 (p=&a: the weak update actually happens!)
        let (expect, _) = run(&prepared, "main", &[Value::I(1), Value::I(10)], 1_000_000).unwrap();
        let (got, _) = run(&spec, "main", &[Value::I(1), Value::I(10)], 1_000_000).unwrap();
        assert_eq!(got, expect, "mis-speculated run must still be correct");
    }
}
