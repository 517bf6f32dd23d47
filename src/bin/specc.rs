//! `specc` — the specframe compiler driver.
//!
//! ```text
//! specc INPUT.ir [options]
//! specc --mega SEED[:FUNCS] [options]
//! specc --serve | --serve-queue DIR [options]
//! specc cache stats|clear|verify --cache-dir DIR
//! ```
//!
//! The options are the rows of the flag table in [`specframe::args`];
//! `specc --help` prints them. A golden test's `; RUN:` line is a `specc`
//! command parsed by the same table. One-shot `specc` interprets the
//! program only when `--run`, `--sim` or `--reduce` uses the result.
//!
//! Cache maintenance subcommands (need a cache directory):
//!
//!   specc cache stats  --cache-dir DIR   entry count and total bytes
//!   specc cache clear  --cache-dir DIR   remove every entry
//!   specc cache verify --cache-dir DIR   decode every entry; exit 2 and
//!                                        list offenders if any fail; also
//!                                        reports .tmp-* debris and sweeps
//!                                        the stale ones
//!
//! Exit codes: 0 success, 1 usage/IO error, 2 input parse or verification
//! error, 3 compile/run failure, 4 speculative-compilation recovery
//! exhausted (even the non-speculative recompile failed), 5 deadline
//! exceeded (--deadline-ms expired before compilation finished).
//!
//! Example:
//!
//! ```text
//! specc kernel.ir --args 0,100 --spec profile --control static --sim \
//!       --fault-policy always-miss --fault-policy random:7
//! ```

use specframe::args::{Context, Emit, Invocation};
use specframe::pipeline::CompileFailure;
use specframe::prelude::*;
use std::process::ExitCode;

fn usage(msg: String) -> CompileFailure {
    CompileFailure::Usage(msg)
}

/// The argv-only rules: which modes combine, and the environment's cache
/// directory under the flag.
fn check_modes(inv: &mut Invocation) -> Result<(), String> {
    // the flag wins over the environment
    if inv.req.cache_dir.is_none() {
        if let Ok(dir) = std::env::var("SPECFRAME_CACHE_DIR") {
            if !dir.is_empty() {
                inv.req.cache_dir = Some(dir.into());
            }
        }
    }
    if inv.input.as_deref() == Some("cache") {
        match inv.cache_cmd.as_deref() {
            Some("stats" | "clear" | "verify") => {}
            Some(other) => {
                return Err(format!(
                    "unknown cache action `{other}` (stats, clear or verify)"
                ))
            }
            None => return Err("`specc cache` needs an action: stats, clear or verify".into()),
        }
        if inv.req.cache_dir.is_none() {
            return Err("`specc cache` needs --cache-dir DIR (or SPECFRAME_CACHE_DIR)".into());
        }
        return Ok(());
    }
    if inv.serve && inv.serve_queue.is_some() {
        return Err("--serve and --serve-queue are mutually exclusive".into());
    }
    if inv.serve || inv.serve_queue.is_some() {
        if inv.input.is_some() || inv.mega.is_some() {
            return Err("serve mode reads requests; drop the input file / --mega".into());
        }
        if inv.needs_reference() {
            return Err("serve mode is compile-only (no --run/--sim/--reduce)".into());
        }
        return Ok(());
    }
    if inv.mega.is_some() {
        if inv.input.is_some() {
            return Err("--mega generates the input; drop the input file".into());
        }
        if inv.needs_reference() {
            return Err("--mega is compile-only (no --run/--sim/--reduce)".into());
        }
        // the synthetic module has no entry to train on
        inv.req.degrade_untrained();
    } else if inv.input.is_none() {
        return Err("no input file (try --help)".into());
    }
    Ok(())
}

fn real_main() -> Result<(), CompileFailure> {
    let mut inv = Invocation::parse(Context::Argv, std::env::args().skip(1)).map_err(usage)?;
    check_modes(&mut inv).map_err(usage)?;
    if inv.cache_cmd.is_some() {
        return run_cache_cmd(&inv);
    }
    if inv.serve || inv.serve_queue.is_some() {
        return run_serve(inv);
    }
    let target = inv.req.target_id()?;
    let input = inv.input.as_deref().unwrap_or("");
    let mut m = match inv.mega {
        Some((seed, funcs)) => specframe::workloads::mega_module(seed, funcs),
        None => {
            let src = std::fs::read_to_string(input)
                .map_err(|e| usage(format!("cannot read {input}: {e}")))?;
            let m =
                parse_module(&src).map_err(|e| CompileFailure::Parse(format!("{input}: {e}")))?;
            verify_module(&m).map_err(|e| CompileFailure::Parse(format!("{input}: {e}")))?;
            m
        }
    };
    prepare_module(&mut m);
    // Input-side shape for the --time-passes throughput line (the
    // optimized module's instruction count would move with the optimizer).
    let input_shape = (m.funcs.len(), specframe::workloads::inst_count(&m));
    let req = &inv.req;

    // the reference result, interpreted only when something compares
    // against it
    let expect = if inv.needs_reference() {
        if m.func_by_name(&req.entry).is_none() {
            return Err(usage(format!("no function `{}` in {input}", req.entry)));
        }
        let (expect, _) = run(&m, &req.entry, &req.args, req.fuel).map_err(|e| {
            CompileFailure::internal("reference-run", format!("reference run failed: {e}"))
        })?;
        expect
    } else {
        None
    };

    if inv.emit == Emit::Hssa {
        let (text, warnings) = specframe::pipeline::render_hssa(m, req)?;
        for w in &warnings {
            eprintln!("specc: warning: {w}");
        }
        return emit(&inv, &text).map_err(usage);
    }

    // keep the input around so a failure can be shrunk to a minimal repro
    // (and so an --audit-leaks rejection can be adversarially witnessed)
    let input_for_reduce = inv.reduce.then(|| m.clone());
    let hooks = &req.hooks;
    let input_for_witness =
        ((hooks.audit_leaks || hooks.fence_leaks) && inv.mega.is_none()).then(|| m.clone());
    let out = match compile_module(m, req) {
        Ok(out) => out,
        Err(e @ CompileFailure::Compile(_)) if inv.reduce => {
            return reduce_and_report(&inv, input_for_reduce.as_ref().unwrap(), &e, false);
        }
        Err(e) => {
            // close the loop adversarially: re-derive the input lowering's
            // leak sites and drive each into actual misspeculation with a
            // seeded eviction schedule, so the static report is backed by
            // (or refuted against) a concrete simulator run — the printed
            // policy string replays with `--sim --fault-policy`
            if let (CompileFailure::Compile(ce), Some(orig)) = (&e, &input_for_witness) {
                if ce.pass == "audit-leaks" {
                    let text = specframe::pipeline::witness_leaks_text(
                        orig, target, &req.entry, &req.args, req.fuel,
                    );
                    for line in text.lines() {
                        eprintln!("specc: {line}");
                    }
                }
            }
            return Err(e);
        }
    };
    for w in &out.report.warnings {
        eprintln!("specc: warning: {w}");
    }
    if let Some(table) = &out.explain {
        print!("{table}");
    }
    let m = out.module;
    let report = &out.report;
    // every fenced site is also witnessed against the *unfenced* lowering
    // of the optimized module (the emitted IR carries no fences — they are
    // re-applied at machine level), proving each repaired leak was real
    if hooks.fence_leaks && report.stats.leak_sites_flagged > 0 && inv.mega.is_none() {
        let text =
            specframe::pipeline::witness_leaks_text(&m, target, &req.entry, &req.args, req.fuel);
        for line in text.lines() {
            eprintln!("specc: {line}");
        }
    }
    if inv.stats {
        eprintln!("optimizer: {:?}", report.stats);
    }
    if req.cache_dir.is_some() && (inv.stats || inv.time_passes) {
        let c = report.cache;
        eprintln!(
            "cache: {} hits, {} misses, {} stale, {} evicts, {} retries, {} io errors, {} breaker trips",
            c.hits, c.misses, c.stale, c.evicts, c.retries, c.io_errors, c.breaker_trips
        );
    }
    if inv.time_passes {
        eprint!("{}", report.timings.report());
        let secs = report.timings.total.as_secs_f64();
        if secs > 0.0 {
            let (funcs, insts) = input_shape;
            eprintln!(
                "  throughput     {:.0} funcs/sec, {:.0} insts/sec ({funcs} funcs, {insts} insts)",
                funcs as f64 / secs,
                insts as f64 / secs
            );
        }
    }
    if let Some(path) = &inv.save_alias_profile {
        let prof = out.alias_profile.as_ref().ok_or_else(|| {
            usage("--save-alias-profile needs --spec profile (no profile was collected)".into())
        })?;
        let text = specframe::profile::write_alias_profile(prof);
        std::fs::write(path, text).map_err(|e| usage(format!("cannot write {path}: {e}")))?;
    }
    if !hooks.dump_after.is_empty() {
        // dump mode: the per-pass snapshots are the product
        return emit(&inv, &specframe::core::render_dumps(&out.dumps)).map_err(usage);
    }
    if inv.emit == Emit::Mach {
        // machine-code mode: the rendered lowering for the active target
        // is the product (the same lowering --sim executes)
        let prog = specframe::codegen::lower_module_for(&m, target.spec());
        return emit(&inv, &specframe::machine::render_mprogram(&prog)).map_err(usage);
    }

    // a result that differs from the reference run is a miscompile, which
    // ends the run: reported, or with --reduce shrunk to a repro (exit 0)
    let miscompile = |what: &str, got: Option<Value>| {
        (got != expect).then(|| {
            let fail = CompileFailure::internal(
                what,
                format!("MISCOMPILE: {what} result {got:?} != reference {expect:?}"),
            );
            match &input_for_reduce {
                Some(input) => reduce_and_report(&inv, input, &fail, true),
                None => Err(fail),
            }
        })
    };
    if inv.run {
        let (got, rs) = run(&m, &req.entry, &req.args, req.fuel)
            .map_err(|e| CompileFailure::internal("run", format!("optimized run failed: {e}")))?;
        if let Some(end) = miscompile("run", got) {
            return end;
        }
        eprintln!(
            "result = {:?}  (loads {} checks {} stores {})",
            got, rs.loads, rs.check_loads, rs.stores
        );
    }
    if inv.sim {
        let sim_opts = inv.sim_options().map_err(usage)?;
        for policy in &inv.fault_policies {
            let (got, text) = specframe::pipeline::simulate_text_with(
                &m, &req.entry, &req.args, req.fuel, policy, &sim_opts,
            )?;
            if let Some(end) = miscompile("sim", got) {
                return end;
            }
            eprint!("{text}");
        }
    }

    if inv.reduce {
        eprintln!("specc: --reduce: nothing to reduce (no failure reproduced)");
    }
    if !inv.run && !inv.sim || inv.out.is_some() {
        emit(&inv, &specframe::ir::display::print_module(&m)).map_err(usage)?;
    }
    Ok(())
}

/// `specc cache stats|clear|verify`: cache maintenance over the directory
/// named by `--cache-dir` / `SPECFRAME_CACHE_DIR`. `verify` exits 2 when
/// any entry fails to decode — same family as input verification errors.
fn run_cache_cmd(inv: &Invocation) -> Result<(), CompileFailure> {
    let dir = inv.req.cache_dir.as_ref().unwrap();
    let cache = specframe::core::FuncCache::open(dir);
    let io_err = |e: std::io::Error| usage(format!("cache dir {}: {e}", dir.display()));
    match inv.cache_cmd.as_deref().unwrap() {
        "stats" => {
            let (entries, bytes) = cache.entry_stats().map_err(io_err)?;
            println!("cache {}: {entries} entries, {bytes} bytes", dir.display());
        }
        "clear" => {
            let removed = cache.clear().map_err(io_err)?;
            println!("cache {}: removed {removed} entries", dir.display());
        }
        _ => {
            let report = cache.verify().map_err(io_err)?;
            for (key, why) in &report.bad {
                println!("bad  {} {why}", key.hex());
            }
            for tmp in &report.tmps {
                println!("tmp  {}", tmp.display());
            }
            println!(
                "cache {}: {} ok, {} bad, {} bytes",
                dir.display(),
                report.ok,
                report.bad.len(),
                report.bytes
            );
            if !report.tmps.is_empty() {
                let swept = cache.sweep_stale_tmps().map_err(io_err)?;
                println!(
                    "cache {}: {} tmp files, {swept} stale swept",
                    dir.display(),
                    report.tmps.len()
                );
            }
            if !report.bad.is_empty() {
                return Err(CompileFailure::Parse(format!(
                    "cache verify: {} undecodable entries",
                    report.bad.len()
                )));
            }
        }
    }
    Ok(())
}

/// `--serve` / `--serve-queue`: run the compile service with this
/// invocation's flags as the base request for every served compile.
fn run_serve(inv: Invocation) -> Result<(), CompileFailure> {
    let mut base = inv.req;
    // the profile-guided defaults need a training run, which needs entry
    // arguments; a service session started without --args/--train-args
    // cannot provide them per request, so degrade to the self-contained
    // modes (exactly like `--mega` does) instead of failing every compile
    if base.args.is_empty() && base.train_args.as_ref().is_none_or(Vec::is_empty) {
        base.degrade_untrained();
    }
    // served compiles answer one status line; nothing renders the table
    base.explain_spec = false;
    let cfg = ServeConfig {
        base,
        verbose: inv.verbose,
    };
    match &inv.serve_queue {
        Some(dir) => {
            let rep = serve_queue(&cfg, dir)
                .map_err(|e| usage(format!("serve queue {}: {e}", dir.display())))?;
            eprintln!(
                "specc: served {} requests ({} skipped, {} quarantined, {} tmp swept)",
                rep.handled, rep.skipped, rep.quarantined, rep.swept
            );
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let served = serve_stdin(&cfg, &mut stdin.lock(), &mut stdout.lock())
                .map_err(|e| usage(format!("serve: {e}")))?;
            eprintln!("specc: served {served} requests");
        }
    }
    Ok(())
}

/// The `--reduce` tail: shrink the failing input to a minimal module that
/// fails the same way, and emit it (stdout or `-o`) under a `; reduce:`
/// stats header. The repro is the product, so the process exits 0.
fn reduce_and_report(
    inv: &Invocation,
    input: &specframe::ir::Module,
    failure: &CompileFailure,
    run_check: bool,
) -> Result<(), CompileFailure> {
    let req = &inv.req;
    eprintln!("specc: {failure}");
    eprintln!("specc: --reduce: shrinking the failing input...");
    let rc = run_check.then_some((req.entry.as_str(), req.args.as_slice(), req.fuel));
    let (red, stats) = specframe::pipeline::reduce_failure(input, req, failure, rc);
    let mut text = format!(
        "; reduce: {} probes, {} -> {} instructions\n",
        stats.probes, stats.initial_insts, stats.final_insts
    );
    text.push_str(&specframe::ir::display::print_module(&red));
    emit(inv, &text).map_err(usage)
}

fn emit(inv: &Invocation, text: &str) -> Result<(), String> {
    match &inv.out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("specc: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
