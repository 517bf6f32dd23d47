//! `.spec` file parsing, in-process RUN execution and case discovery.

use crate::matcher::{run_checks, CheckKind, Directive};
use specframe::args::{Context, Emit, Invocation};
use specframe::prelude::*;
use std::path::{Path, PathBuf};

/// One parsed golden test.
#[derive(Debug)]
pub struct SpecCase {
    /// The RUN lines parsed as `specc` commands, in file order (at least
    /// one).
    pub runs: Vec<Invocation>,
    /// The raw RUN command strings (for reporting).
    pub run_lines: Vec<String>,
    /// The check directives, in file order.
    pub directives: Vec<Directive>,
    /// Harness-wide overrides this case must be *skipped* under
    /// (`; UNSUPPORTED: audit-spec`): a case whose pinned behavior
    /// contradicts an override by design — e.g. a deliberately leaky
    /// kernel, which the speculation auditor necessarily rejects — opts
    /// out instead of failing the overridden suite run.
    pub unsupported: Vec<String>,
    /// The IR program: the file with every `;` line removed.
    pub input: String,
}

/// Override names a `; UNSUPPORTED:` line may name.
const OVERRIDE_NAMES: [&str; 5] = [
    "verify-each",
    "audit-spec",
    "audit-leaks",
    "cache",
    "target",
];

/// Parses the text of a `.spec` file.
///
/// Lines whose first non-blank character is `;` are harness lines: either
/// a directive (`RUN:`, `CHECK:`, `CHECK-NEXT:`, `CHECK-NOT:`,
/// `CHECK-DAG:`, `UNSUPPORTED:` after the `;`) or a free-form comment.
/// An `UNSUPPORTED:` line names harness-wide overrides (whitespace
/// separated, from [`OVERRIDE_NAMES`]) the case must be skipped under. Everything else is
/// the IR program handed to the compiler (so `#` comments stay IR-side).
/// A `;` comment that *mentions* `CHECK` or `RUN:` but parses as neither
/// is rejected — it is almost certainly a typo that would silently turn a
/// directive into a comment.
pub fn parse_spec(text: &str) -> Result<SpecCase, String> {
    let mut runs = Vec::new();
    let mut run_lines = Vec::new();
    let mut directives = Vec::new();
    let mut unsupported = Vec::new();
    let mut input = String::new();

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let trimmed = line.trim_start();
        let Some(body) = trimmed.strip_prefix(';') else {
            input.push_str(line);
            input.push('\n');
            continue;
        };
        let body = body.trim_start();
        if let Some(cmd) = body.strip_prefix("RUN:") {
            let cmd = cmd.trim();
            runs.push(
                parse_run_command(cmd).map_err(|e| format!("line {lineno}: bad RUN line: {e}"))?,
            );
            run_lines.push(cmd.to_string());
            continue;
        }
        if let Some(rest) = body.strip_prefix("UNSUPPORTED:") {
            for tok in rest.split_whitespace() {
                if !OVERRIDE_NAMES.contains(&tok) {
                    return Err(format!(
                        "line {lineno}: UNSUPPORTED names unknown override `{tok}` \
                         (known: {})",
                        OVERRIDE_NAMES.join(", ")
                    ));
                }
                unsupported.push(tok.to_string());
            }
            continue;
        }
        let kinds = [
            ("CHECK-NEXT:", CheckKind::Next),
            ("CHECK-NOT:", CheckKind::Not),
            ("CHECK-DAG:", CheckKind::Dag),
            ("CHECK:", CheckKind::Check),
        ];
        if let Some((pat, kind)) = kinds
            .iter()
            .find_map(|(p, k)| body.strip_prefix(p).map(|rest| (rest.trim(), *k)))
        {
            directives.push(Directive::new(kind, pat, lineno)?);
            continue;
        }
        if body.contains("CHECK") || body.contains("RUN:") {
            return Err(format!(
                "line {lineno}: `{}` looks like a directive but is not one of \
                 RUN: / CHECK: / CHECK-NEXT: / CHECK-NOT: / CHECK-DAG:",
                body.trim_end()
            ));
        }
        // plain harness comment: dropped
    }

    if runs.is_empty() {
        return Err("no `; RUN:` line".into());
    }
    if directives.first().map(|d| d.kind) == Some(CheckKind::Next) {
        return Err(format!(
            "line {}: CHECK-NEXT cannot be the first directive",
            directives[0].line
        ));
    }
    Ok(SpecCase {
        runs,
        run_lines,
        directives,
        unsupported,
        input,
    })
}

/// Parses a `specc %s …` command with `specc`'s own flag table in its
/// RUN context: the tokens mean what they mean on the command line, under
/// the same defaults, and flags whose effect lies outside a hermetic run
/// (`-o`, `--cache-dir`, `--run`, `--reduce`, `--serve`, `--emit hssa`,
/// …) are rejected, so a `.spec` file cannot silently diverge from what
/// the harness actually executes.
pub fn parse_run_command(cmd: &str) -> Result<Invocation, String> {
    let mut toks = cmd.split_whitespace();
    if toks.next() != Some("specc") {
        return Err("RUN command must start with `specc`".into());
    }
    let inv = Invocation::parse(Context::Run, toks)?;
    if inv.input.as_deref() != Some("%s") {
        return Err("RUN command must reference the input as `%s`".into());
    }
    Ok(inv)
}

/// Executes one RUN pipeline over the case's IR and returns the text the
/// checks run against: degradation warnings first (as `; warning:` lines,
/// so goldens can pin recovery diagnostics), then the rendered pass dumps
/// when `--dump-after` was given, the `--sim` counter block per fault
/// policy when simulating, and the optimized module otherwise.
pub fn execute_run(input: &str, inv: &Invocation, leak_contract: bool) -> Result<String, String> {
    let req = &inv.req;
    let target = req.target_id()?;
    let out = compile(input, req)?;
    if leak_contract {
        check_leak_contract(&out.module, target, &req.entry, &req.args, req.fuel)?;
    }
    let mut text = String::new();
    for w in &out.report.warnings {
        text.push_str(&format!("; warning: {w}\n"));
    }
    if !req.hooks.dump_after.is_empty() {
        text.push_str(&render_dumps(&out.dumps));
    } else if inv.emit == Emit::Mach {
        let prog = specframe::codegen::lower_module_for(&out.module, target.spec());
        text.push_str(&specframe::machine::render_mprogram(&prog));
    } else if inv.sim {
        let sim_opts = inv.sim_options()?;
        for policy in &inv.fault_policies {
            let (_, sim) = specframe::pipeline::simulate_text_with(
                &out.module,
                &req.entry,
                &req.args,
                req.fuel,
                policy,
                &sim_opts,
            )?;
            text.push_str(&sim);
        }
    } else {
        text.push_str(&specframe::ir::display::print_module(&out.module));
    }
    Ok(text)
}

/// The `spectest --audit-leaks` contract over one compiled module: every
/// speculative-leak site in its lowering must be closable by the fencing
/// transform (re-audit clean), and — when the entry function exists —
/// fencing must not change the architectural result. Checked at machine
/// level so pinned golden output is untouched.
fn check_leak_contract(
    m: &specframe::ir::Module,
    target: specframe::machine::TargetId,
    entry: &str,
    args: &[Value],
    fuel: u64,
) -> Result<(), String> {
    use specframe::machine::{leak_audit_program, run_machine_on};
    let plain = specframe::codegen::lower_module_for(m, target.spec());
    let sites = specframe::machine::leak_audit_program(&plain);
    if sites.is_empty() {
        return Ok(());
    }
    let (fenced, fences) = specframe::codegen::lower_module_fenced_for(m, target.spec());
    let still = leak_audit_program(&fenced);
    if !still.is_empty() {
        return Err(format!(
            "leak contract: {} of {} flagged sites survive fencing ({} fences inserted); first: {}",
            still.len(),
            sites.len(),
            fences,
            still[0]
        ));
    }
    if m.func_by_name(entry).is_some() {
        let want = run_machine_on(&plain, target.spec(), entry, args, fuel)
            .map_err(|e| format!("leak contract: unfenced run failed: {e}"))?
            .0;
        let got = run_machine_on(&fenced, target.spec(), entry, args, fuel)
            .map_err(|e| format!("leak contract: fenced run failed: {e}"))?
            .0;
        if got != want {
            return Err(format!(
                "leak contract: fencing changed the architectural result: {want:?} -> {got:?}"
            ));
        }
    }
    Ok(())
}

/// The verdict on one `.spec` file.
#[derive(Debug)]
pub enum CaseOutcome {
    /// Every directive matched.
    Pass,
    /// The case declared an active override `; UNSUPPORTED:`; the string
    /// names the override.
    Skip(String),
    /// Parse, compile or match failure; the string is the full report.
    Fail(String),
}

/// Harness-wide overrides (`spectest --verify-each --target swr …`):
/// applied on top of every RUN line, so the entire golden suite can be
/// re-run with pass-boundary verification, the speculation-safety
/// auditor, a persistent compile cache or another target — any golden
/// whose output changes under them exposes a pipeline invariant
/// violation. Parsed by `specc`'s flag table in its harness context.
#[derive(Debug, Clone, Default)]
pub struct RunOverrides {
    /// Force [`PipelineHooks::verify_each`] on every RUN.
    pub verify_each: bool,
    /// Force [`PipelineHooks::audit_spec`] on every RUN.
    pub audit_spec: bool,
    /// Run the speculative-leak fencing contract over every RUN's compiled
    /// module (`spectest --audit-leaks`): the output lowering is
    /// leak-audited, flagged sites are fenced, and the case fails if the
    /// re-audit is not clean or fencing changed the architectural result.
    /// A *post-compile* check on purpose — setting the pipeline's
    /// `audit_leaks`/`fence_leaks` hooks instead would add warning lines
    /// and degradations to pinned golden output wherever the optimizer
    /// legitimately speculates.
    pub audit_leaks: bool,
    /// Route every RUN through a persistent compile cache
    /// (`spectest --cache-dir`): the cached-path parity harness — the
    /// whole golden suite must produce identical output with caching on,
    /// cold or warm.
    pub cache_dir: Option<PathBuf>,
    /// Inject storage faults into the compile cache
    /// (`spectest --cache-fault-policy`, with `--cache-dir`): the
    /// fault-tolerance parity harness — retries and breaker trips may
    /// happen underneath, but the golden output must not move a byte.
    pub cache_fault_policy: Option<String>,
    /// Force every RUN onto this execution target (`spectest --target`):
    /// the whole golden suite is re-lowered and re-simulated for another
    /// backend. Cases that pin target-specific output (counter blocks,
    /// machine text, `--explain-spec` verdicts) declare
    /// `; UNSUPPORTED: target` and are counted as skipped.
    pub target: Option<String>,
}

impl RunOverrides {
    /// Parses override flags with `specc`'s flag table in its harness
    /// context; the flags mean what they mean to `specc`, except that
    /// `--audit-leaks` selects the post-compile leak contract.
    pub fn parse<S: AsRef<str>>(tokens: impl IntoIterator<Item = S>) -> Result<Self, String> {
        let mut inv = Invocation::default();
        // empty: no `--target` given, every RUN keeps its own
        inv.req.target.clear();
        inv.apply(Context::Harness, tokens)?;
        let req = inv.req;
        Ok(RunOverrides {
            verify_each: req.hooks.verify_each,
            audit_spec: req.hooks.audit_spec,
            audit_leaks: req.hooks.audit_leaks,
            cache_dir: req.cache_dir,
            cache_fault_policy: req.cache_fault_policy,
            target: Some(req.target).filter(|t| !t.is_empty()),
        })
    }
}

/// Runs one golden test file from disk.
pub fn run_case(path: &Path) -> CaseOutcome {
    run_case_with(path, RunOverrides::default())
}

/// [`run_case`] with harness-wide hook overrides.
pub fn run_case_with(path: &Path, ov: RunOverrides) -> CaseOutcome {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return CaseOutcome::Fail(format!("cannot read {}: {e}", path.display())),
    };
    let case = match parse_spec(&text) {
        Ok(c) => c,
        Err(e) => return CaseOutcome::Fail(e),
    };
    let active = [
        ("verify-each", ov.verify_each),
        ("audit-spec", ov.audit_spec),
        ("audit-leaks", ov.audit_leaks),
        ("cache", ov.cache_dir.is_some()),
        ("target", ov.target.is_some()),
    ];
    for (name, on) in active {
        if on && case.unsupported.iter().any(|u| u == name) {
            return CaseOutcome::Skip(name.to_string());
        }
    }
    if case.directives.is_empty() {
        return CaseOutcome::Fail("no CHECK directives".into());
    }
    match case_output(&case, &ov) {
        Ok(output) => match run_checks(&output, &case.directives) {
            Ok(()) => CaseOutcome::Pass,
            Err(f) => CaseOutcome::Fail(f.to_string()),
        },
        Err(e) => CaseOutcome::Fail(e),
    }
}

/// The concatenated output of every RUN line of a parsed case, with the
/// harness-wide overrides applied on top of each line.
pub fn case_output(case: &SpecCase, ov: &RunOverrides) -> Result<String, String> {
    let mut output = String::new();
    for (inv, cmd) in case.runs.iter().zip(&case.run_lines) {
        let mut inv = inv.clone();
        let hooks = &mut inv.req.hooks;
        hooks.verify_each |= ov.verify_each;
        hooks.audit_spec |= ov.audit_spec;
        inv.req.cache_dir = ov.cache_dir.clone();
        inv.req.cache_fault_policy = ov.cache_fault_policy.clone();
        if let Some(t) = &ov.target {
            inv.req.target = t.clone();
        }
        output.push_str(
            &execute_run(&case.input, &inv, ov.audit_leaks)
                .map_err(|e| format!("RUN `{cmd}`: {e}"))?,
        );
    }
    Ok(output)
}

/// Expands files and directories into a sorted list of `.spec` files.
pub fn discover(paths: &[PathBuf]) -> Result<Vec<PathBuf>, String> {
    let mut found = Vec::new();
    for p in paths {
        if p.is_dir() {
            let entries =
                std::fs::read_dir(p).map_err(|e| format!("cannot list {}: {e}", p.display()))?;
            for entry in entries {
                let path = entry.map_err(|e| e.to_string())?.path();
                if path.extension().is_some_and(|e| e == "spec") {
                    found.push(path);
                }
            }
        } else if p.is_file() {
            found.push(p.clone());
        } else {
            return Err(format!("no such file or directory: {}", p.display()));
        }
    }
    found.sort();
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CASE: &str = "\
; RUN: specc %s --spec heuristic --control static --dump-after=ssapre
; Pins PRE insertion on the cold arm (paper SS4, Appendix A).
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
; CHECK: dump-after ssapre: func f
; CHECK: nothave:
; CHECK-NEXT: x2 = 0
; CHECK-NEXT: pre0{{.*}} = add a0, b0
";

    #[test]
    fn end_to_end_case_passes() {
        let case = parse_spec(CASE).unwrap();
        assert_eq!(case.runs.len(), 1);
        let out = case_output(&case, &RunOverrides::default()).unwrap();
        assert!(run_checks(&out, &case.directives).is_ok(), "{out}");
    }

    #[test]
    fn directive_typos_are_rejected() {
        let bad = CASE.replace("; CHECK: nothave:", "; CHECK-NXT: nothave:");
        let e = parse_spec(&bad).unwrap_err();
        assert!(e.contains("looks like a directive"), "{e}");
    }

    #[test]
    fn run_line_is_a_specc_command() {
        assert!(parse_run_command("specc %s -o out.ir")
            .unwrap_err()
            .contains("unsupported RUN token `-o`"));
        assert!(parse_run_command("specc %s --emit hssa").is_err());
        assert_eq!(
            parse_run_command("specc %s --emit ir").unwrap().emit,
            Emit::Ir
        );
        assert!(parse_run_command("cc %s").is_err());
        assert!(parse_run_command("specc --spec none").is_err()); // no %s
        assert!(parse_run_command("specc other.ir").is_err());
        // specc's own defaults apply: profile-guided, automatic jobs
        let inv = parse_run_command("specc %s --target=swr --emit mach").unwrap();
        assert_eq!((inv.req.spec.as_str(), inv.req.jobs), ("profile", 0));
        assert_eq!(inv.req.target, "swr");
        assert_eq!(inv.emit, Emit::Mach);
        // injection hooks ride on the request
        let inv = parse_run_command("specc %s --inject-spec-fail f").unwrap();
        assert_eq!(inv.req.hooks.inject_spec_fail.as_deref(), Some("f"));
        // a bogus override target is rejected at execution time
        let mut inv = parse_run_command("specc %s --spec none --control off").unwrap();
        inv.req.target = "vliw".into();
        let e = execute_run("func f() -> i64 {\nentry:\n  ret 0\n}\n", &inv, false).unwrap_err();
        assert!(e.contains("unknown --target"), "{e}");
    }

    #[test]
    fn target_override_forces_every_run_and_honors_unsupported() {
        let dir = std::env::temp_dir().join(format!("spectest-target-ov-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let case = dir.join("case.spec");
        std::fs::write(
            &case,
            "; RUN: specc %s --spec none --control off\n; CHECK: func f\n\
             func f() -> i64 {\nentry:\n  ret 0\n}\n",
        )
        .unwrap();
        let ov = RunOverrides::parse(["--target", "swr"]).unwrap();
        assert!(matches!(
            run_case_with(&case, ov.clone()),
            CaseOutcome::Pass
        ));
        // an epic-pinned case opts out of the override
        let pinned = dir.join("pinned.spec");
        std::fs::write(
            &pinned,
            "; UNSUPPORTED: target\n; RUN: specc %s --spec none --control off\n; CHECK: func f\n\
             func f() -> i64 {\nentry:\n  ret 0\n}\n",
        )
        .unwrap();
        assert!(matches!(run_case_with(&pinned, ov), CaseOutcome::Skip(s) if s == "target"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsupported_skips_named_overrides_only() {
        let text = "; UNSUPPORTED: audit-spec\n; RUN: specc %s\n; CHECK: func f\nfunc f() -> i64 {\nentry:\n  ret 0\n}\n";
        let case = parse_spec(text).unwrap();
        assert_eq!(case.unsupported, ["audit-spec"]);
        // unknown override names are a parse error, not a silent comment
        let bad = text.replace("audit-spec", "audit-specs");
        assert!(parse_spec(&bad).unwrap_err().contains("unknown override"));
    }

    #[test]
    fn missing_run_is_an_error_and_missing_checks_fail_at_run_time() {
        assert!(parse_spec("func f() {\nentry:\n  ret\n}\n").is_err());
        // no checks: parses (so `spectest --dump` works on it) but has none
        let case = parse_spec("; RUN: specc %s\nfunc f() {\nentry:\n  ret\n}\n").unwrap();
        assert!(case.directives.is_empty());
    }
}
