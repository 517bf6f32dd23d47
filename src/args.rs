//! The one flag table.
//!
//! `specc`'s argv, a golden test's `; RUN: specc %s …` line, the
//! trailing tokens of a `--serve` request and `spectest`'s suite-wide
//! overrides describe a compile the same way, so one table parses all
//! four: each [`Flag`] row gives a flag, the
//! value it takes, the contexts that accept it and its help text. Parsing
//! yields one [`Invocation`] — a [`CompileRequest`] plus what happens
//! around the compile (`--run`, `--sim`, `--emit`, `-o`, …). A RUN line is
//! therefore literally a `specc` command: its tokens mean what they mean on
//! the command line, under the same defaults; the RUN context only narrows
//! the vocabulary to flags whose effect stays inside a hermetic run.
//! `specc --help` is generated from the table.

use crate::pipeline::{CompileRequest, SimOptions};
use specframe_core::{parse_store_fault_policy, PassSet, PipelineHooks};
use specframe_ir::Value;
use specframe_machine::parse_fault_policy;
use std::path::PathBuf;

/// Where a token list comes from. A flag outside the contexts its row
/// names is rejected like an unknown one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Context {
    /// `specc`'s command line: every flag.
    Argv,
    /// A golden test's `; RUN: specc %s …` line: only flags whose effect
    /// stays inside a hermetic run (no other files, no cache, no `--run`
    /// or `--reduce`, no service).
    Run,
    /// The tokens after `compile PATH` / `mega SEED` in a serve request:
    /// `-o` and `--deadline-ms`, over the session's base request.
    Serve,
    /// `spectest`'s suite-wide overrides, laid over every RUN line:
    /// checking hooks, the compile cache and the target (`--audit-leaks`
    /// there checks spectest's post-compile leak contract).
    Harness,
}

const ARGV: u8 = 1;
const RUN: u8 = 2;
const SERVE: u8 = 4;
const HARNESS: u8 = 8;

impl Context {
    fn bit(self) -> u8 {
        match self {
            Context::Argv => ARGV,
            Context::Run => RUN,
            Context::Serve => SERVE,
            Context::Harness => HARNESS,
        }
    }

    fn reject(self, tok: &str) -> String {
        match self {
            Context::Argv => format!("unknown option `{tok}` (try --help)"),
            Context::Run => format!("unsupported RUN token `{tok}`"),
            Context::Serve => format!("unknown token `{tok}`"),
            Context::Harness => format!("unknown option `{tok}` (try --help)"),
        }
    }
}

/// The compile's product (`--emit`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Emit {
    /// The optimized module's IR text.
    #[default]
    Ir,
    /// The speculative SSA dump of every function before optimization.
    Hssa,
    /// The optimized module lowered for the active target, rendered.
    Mach,
}

/// One parsed invocation: the compile request plus the actions around it.
/// [`Invocation::parse`] starts from `specc`'s defaults; `Default` is the
/// bare [`CompileRequest::default`] with no actions.
#[derive(Debug, Clone, Default)]
pub struct Invocation {
    /// The compile itself.
    pub req: CompileRequest,
    /// The positional input: a module path (argv), `%s` (RUN line), or
    /// `cache` for the cache maintenance subcommand.
    pub input: Option<String>,
    /// `specc cache ACTION`: `stats`, `clear` or `verify`.
    pub cache_cmd: Option<String>,
    /// `--mega SEED[:FUNCS]`: compile the generated mega-module instead.
    pub mega: Option<(u64, usize)>,
    /// `--emit`.
    pub emit: Emit,
    /// `-o`: where the product goes instead of stdout.
    pub out: Option<String>,
    /// `--run`.
    pub run: bool,
    /// `--sim`.
    pub sim: bool,
    /// `--fault-policy` values for `--sim` (`default` when none is given).
    pub fault_policies: Vec<String>,
    /// `--taint-secret` locations for `--sim`.
    pub taint_secret: Vec<String>,
    /// `--stats`.
    pub stats: bool,
    /// `--time-passes`.
    pub time_passes: bool,
    /// `--reduce`.
    pub reduce: bool,
    /// `--save-alias-profile`.
    pub save_alias_profile: Option<String>,
    /// `--serve`.
    pub serve: bool,
    /// `--serve-queue`.
    pub serve_queue: Option<PathBuf>,
    /// `--verbose`.
    pub verbose: bool,
}

/// One row of the flag table.
struct Flag {
    /// The flag as typed (`--spec`, `-o`).
    name: &'static str,
    /// The value placeholder shown in help (`MODE`); empty for a switch.
    /// A value is the next token, or follows `=` (`--spec=none`).
    value: &'static str,
    contexts: u8,
    /// Help text; a `\n` starts a continuation line.
    help: &'static str,
    set: fn(&mut Invocation, &str) -> Result<(), String>,
}

impl Flag {
    /// Whether `ctx` accepts this flag.
    fn accepted_in(&self, ctx: Context) -> bool {
        self.contexts & ctx.bit() != 0
    }
}

fn put<T>(slot: &mut T, v: T) -> Result<(), String> {
    *slot = v;
    Ok(())
}

fn number<T: std::str::FromStr>(v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e: T::Err| e.to_string())
}

/// Parses a value list of the `--args 0,100` form: integers, or floats
/// when the token has a `.`.
fn parse_values(s: &str) -> Result<Vec<Value>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|t| {
            let t = t.trim();
            if t.contains('.') {
                t.parse::<f64>()
                    .map(Value::F)
                    .map_err(|e| format!("bad float `{t}`: {e}"))
            } else {
                t.parse::<i64>()
                    .map(Value::I)
                    .map_err(|e| format!("bad int `{t}`: {e}"))
            }
        })
        .collect()
}

/// Parses a mega-module spec `SEED[:FUNCS]` (1000 functions by default).
pub(crate) fn parse_mega(v: &str) -> Result<(u64, usize), String> {
    let (seed, funcs) = v.split_once(':').unwrap_or((v, "1000"));
    let seed = seed
        .parse()
        .map_err(|_| format!("bad mega seed `{seed}`"))?;
    let funcs = funcs
        .parse()
        .map_err(|_| format!("bad mega function count `{funcs}`"))?;
    Ok((seed, funcs))
}

/// The flag table, in `--help` order.
#[rustfmt::skip]
static FLAGS: &[Flag] = &[
    Flag { name: "--entry", value: "NAME", contexts: ARGV | RUN,
        set: |i, v| put(&mut i.req.entry, v.into()),
        help: "entry function (default: main)" },
    Flag { name: "--args", value: "N,N,...", contexts: ARGV | RUN,
        set: |i, v| put(&mut i.req.args, parse_values(v)?),
        help: "arguments for --run / --sim / profiling" },
    Flag { name: "--train-args", value: "N,N,...", contexts: ARGV | RUN,
        set: |i, v| put(&mut i.req.train_args, Some(parse_values(v)?)),
        help: "profiling-run arguments (default: --args)" },
    Flag { name: "--mega", value: "SEED[:FUNCS]", contexts: ARGV,
        set: |i, v| put(&mut i.mega, Some(parse_mega(v)?)),
        help: "compile the generated mega-module (1000 functions by default)\n\
               instead of a file; compile-only, profile modes degrade" },
    Flag { name: "--spec", value: "MODE", contexts: ARGV | RUN,
        set: |i, v| put(&mut i.req.spec, v.into()),
        help: "data speculation: none|profile|heuristic|aggressive (default: profile)" },
    Flag { name: "--control", value: "MODE", contexts: ARGV | RUN,
        set: |i, v| put(&mut i.req.control, v.into()),
        help: "control speculation: off|profile|static (default: profile)" },
    Flag { name: "--target", value: "NAME", contexts: ARGV | RUN | HARNESS,
        set: |i, v| put(&mut i.req.target, v.into()),
        help: "execution target: epic (hardware ALAT, default) | swr (software\n\
               checks); selects the lowering and the profitability cost model" },
    Flag { name: "--no-sr", value: "", contexts: ARGV | RUN,
        set: |i, _| put(&mut i.req.strength_reduction, false),
        help: "disable strength reduction (and with it LFTR)" },
    Flag { name: "--no-lftr", value: "", contexts: ARGV | RUN,
        set: |i, _| put(&mut i.req.lftr, false),
        help: "disable linear-function test replacement only" },
    Flag { name: "--store-sinking", value: "", contexts: ARGV | RUN,
        set: |i, _| put(&mut i.req.store_sinking, true),
        help: "enable store promotion" },
    Flag { name: "--explain-spec", value: "", contexts: ARGV,
        set: |i, _| put(&mut i.req.explain_spec, true),
        help: "print the per-site likeliness-oracle decision table" },
    Flag { name: "--alias-profile", value: "FILE", contexts: ARGV,
        set: |i, v| put(&mut i.req.alias_profile, Some(std::fs::read_to_string(v).map_err(|e| e.to_string())?)),
        help: "reuse a saved alias profile instead of a training run; an\n\
               unusable profile degrades to the heuristic rules" },
    Flag { name: "--save-alias-profile", value: "FILE", contexts: ARGV,
        set: |i, v| put(&mut i.save_alias_profile, Some(v.into())),
        help: "serialize the alias profile this compile used" },
    Flag { name: "--emit", value: "WHAT", contexts: ARGV | RUN,
        set: |i, v| put(&mut i.emit, match v {
            "ir" => Emit::Ir,
            "hssa" => Emit::Hssa,
            "mach" => Emit::Mach,
            _ => return Err("expected ir|hssa|mach".into()),
        }),
        help: "ir (optimized IR, default) | hssa (speculative SSA before\n\
               optimization; not in RUN lines) | mach (lowered machine code)" },
    Flag { name: "-o", value: "FILE", contexts: ARGV | SERVE,
        set: |i, v| put(&mut i.out, Some(v.into())),
        help: "write the product to FILE (default: stdout)" },
    Flag { name: "--run", value: "", contexts: ARGV,
        set: |i, _| put(&mut i.run, true),
        help: "interpret the optimized program, check it against the\n\
               reference run and print the result" },
    Flag { name: "--sim", value: "", contexts: ARGV | RUN,
        set: |i, _| put(&mut i.sim, true),
        help: "simulate it on the target machine, check it against the\n\
               reference run and print the counter block" },
    Flag { name: "--fault-policy", value: "SPEC", contexts: ARGV | RUN,
        set: |i, v| { parse_fault_policy(v)?; i.fault_policies.push(v.into()); Ok(()) },
        help: "ALAT fault policy for --sim (repeatable): default | geom:E:W |\n\
               always-miss | forced-miss | random:SEED[:DENOM] |\n\
               flash-clear[:PERIOD] | evict-at:N[:N...]" },
    Flag { name: "--taint-secret", value: "LOC[,LOC...]", contexts: ARGV | RUN,
        set: |i, v| {
            let locs = v.split(',').map(str::trim).filter(|s| !s.is_empty());
            i.taint_secret.extend(locs.map(str::to_string));
            Ok(())
        },
        help: "with --sim: mark `@global` words or word addresses secret and\n\
               track misspeculated flow to address and branch sinks" },
    Flag { name: "--stats", value: "", contexts: ARGV,
        set: |i, _| put(&mut i.stats, true),
        help: "print optimizer statistics" },
    Flag { name: "--jobs", value: "N", contexts: ARGV | RUN,
        set: |i, v| put(&mut i.req.jobs, number(v)?),
        help: "worker threads (0, the default, auto-detects: the SPECFRAME_JOBS\n\
               environment variable if a positive integer, else all cores)" },
    Flag { name: "--fuel", value: "N", contexts: ARGV | RUN,
        set: |i, v| put(&mut i.req.fuel, number(v)?),
        help: "interpreter and simulator step budget (default: 100000000)" },
    Flag { name: "--time-passes", value: "", contexts: ARGV,
        set: |i, _| put(&mut i.time_passes, true),
        help: "print per-pass times to stderr" },
    Flag { name: "--dump-after", value: "PASSES", contexts: ARGV | RUN,
        set: |i, v| put(&mut i.req.hooks.dump_after, PassSet::parse_list(v)?),
        help: "print every function after each named stage and exit (from:\n\
               refine, hssa, ssapre, strength, lftr, storeprom, lower)" },
    Flag { name: "--stop-after", value: "PASS", contexts: ARGV | RUN,
        set: |i, v| put(&mut i.req.hooks.stop_after, Some(v.parse()?)),
        help: "run the pipeline only through the named stage" },
    Flag { name: "--verify-each", value: "", contexts: ARGV | RUN | HARNESS,
        set: |i, _| put(&mut i.req.hooks.verify_each, true),
        help: "verify at every pass boundary; failures feed the degradation ladder" },
    Flag { name: "--audit-spec", value: "", contexts: ARGV | RUN | HARNESS,
        set: |i, _| put(&mut i.req.hooks.audit_spec, true),
        help: "prove every advanced load is checked on every path" },
    Flag { name: "--audit-leaks", value: "", contexts: ARGV | RUN | HARNESS,
        set: |i, _| put(&mut i.req.hooks.audit_leaks, true),
        help: "reject code where an advanced-load value reaches an address or\n\
               branch before its check, with a forced-eviction witness per site" },
    Flag { name: "--fence-leaks", value: "", contexts: ARGV | RUN,
        set: |i, _| put(&mut i.req.hooks.fence_leaks, true),
        help: "like --audit-leaks, but fence each flagged sink instead" },
    Flag { name: "--reduce", value: "", contexts: ARGV,
        set: |i, _| put(&mut i.reduce, true),
        help: "shrink a failing input to a minimal module that fails the same way" },
    Flag { name: "--inject-spec-fail", value: "FUNC", contexts: ARGV | RUN,
        set: |i, v| put(&mut i.req.hooks.inject_spec_fail, Some(v.into())),
        help: "fault injection: make FUNC's speculative compile panic" },
    Flag { name: "--inject-fallback-fail", value: "FUNC", contexts: ARGV | RUN,
        set: |i, v| put(&mut i.req.hooks.inject_fallback_fail, Some(v.into())),
        help: "fault injection: make FUNC's fallback compile panic too" },
    Flag { name: "--inject-corrupt", value: "FUNC:PASS", contexts: ARGV | RUN,
        set: |i, v| put(&mut i.req.hooks.inject_corrupt, Some(PipelineHooks::parse_inject_corrupt(v)?)),
        help: "corrupt FUNC's HSSA right after PASS" },
    Flag { name: "--cache-dir", value: "DIR", contexts: ARGV | HARNESS,
        set: |i, v| put(&mut i.req.cache_dir, Some(v.into())),
        help: "persistent per-function compile cache (the flag wins over\n\
               SPECFRAME_CACHE_DIR)" },
    Flag { name: "--cache-fault-policy", value: "SPEC", contexts: ARGV | HARNESS,
        set: |i, v| { parse_store_fault_policy(v)?; put(&mut i.req.cache_fault_policy, Some(v.into())) },
        help: "storage fault injection under the cache: enospc:N |\n\
               eio-read:SEED[:DENOM] | torn-write:N | latency:MS" },
    Flag { name: "--cache-retries", value: "N", contexts: ARGV,
        set: |i, v| put(&mut i.req.cache_retries, number(v)?),
        help: "transient cache-I/O retries per operation (default: 2)" },
    Flag { name: "--deadline-ms", value: "N", contexts: ARGV | SERVE,
        set: |i, v| put(&mut i.req.deadline_ms, Some(number(v)?)),
        help: "compile deadline; on expiry exit 5 (serve: `code=5 msg=deadline`)" },
    Flag { name: "--serve", value: "", contexts: ARGV,
        set: |i, _| put(&mut i.serve, true),
        help: "compile service on stdin: `compile PATH [-o OUT] [--deadline-ms N]`,\n\
               `mega SEED[:FUNCS] ...`, `stats`, `quit`" },
    Flag { name: "--serve-queue", value: "DIR", contexts: ARGV,
        set: |i, v| put(&mut i.serve_queue, Some(v.into())),
        help: "drain every *.req file in DIR to <stem>.resp, then exit" },
    Flag { name: "--verbose", value: "", contexts: ARGV,
        set: |i, _| put(&mut i.verbose, true),
        help: "with --serve: a `fn NAME outcome` line per function" },
    Flag { name: "--help", value: "", contexts: ARGV,
        set: |_, _| Err(help()),
        help: "print this help" },
    Flag { name: "-h", value: "", contexts: ARGV,
        set: |_, _| Err(help()),
        help: "same as --help" },
];

/// The `specc --help` text, generated from [`FLAGS`].
fn help() -> String {
    let mut s = String::from(
        "usage: specc INPUT.ir [options]\n\
         \x20      specc --mega SEED[:FUNCS] [options]\n\
         \x20      specc --serve | --serve-queue DIR [options]\n\
         \x20      specc cache stats|clear|verify --cache-dir DIR\n\
         \n\
         options (R: also in golden RUN lines, S: also in serve requests,\n\
         \x20        H: also spectest overrides):\n",
    );
    for f in FLAGS {
        let flag = format!("{} {}", f.name, f.value);
        let marks: String = [
            (Context::Run, 'R'),
            (Context::Serve, 'S'),
            (Context::Harness, 'H'),
        ]
        .map(|(c, m)| if f.accepted_in(c) { m } else { ' ' })
        .iter()
        .collect();
        for (k, line) in f.help.lines().enumerate() {
            match k {
                0 if flag.len() > 24 => {
                    s.push_str(&format!("  {flag}\n  {:24} {marks} {line}\n", ""))
                }
                0 => s.push_str(&format!("  {flag:24} {marks} {line}\n")),
                _ => s.push_str(&format!("  {:24}     {line}\n", "")),
            }
        }
    }
    s.push_str(
        "\none-shot specc interprets the program only when --run, --sim or\n\
         --reduce uses the result\n\
         exit codes: 0 ok, 1 usage/IO, 2 parse/verify, 3 compile/run failure,\n\
         4 speculation recovery exhausted, 5 deadline exceeded",
    );
    s
}

/// Whether `ctx` accepts `tok` as a flag that takes its value from the
/// next token: lets a caller with tokens of its own (`spectest`'s paths)
/// hand the table every flag together with its value.
pub fn takes_next_value(ctx: Context, tok: &str) -> bool {
    FLAGS
        .iter()
        .any(|f| f.name == tok && f.accepted_in(ctx) && !f.value.is_empty())
}

impl Invocation {
    /// Parses `tokens` in `ctx` over `specc`'s defaults: profile-guided
    /// data and control speculation, automatic `--jobs`.
    pub fn parse<S: AsRef<str>>(
        ctx: Context,
        tokens: impl IntoIterator<Item = S>,
    ) -> Result<Invocation, String> {
        let mut inv = Invocation {
            req: CompileRequest {
                spec: "profile".into(),
                control: "profile".into(),
                jobs: 0,
                ..CompileRequest::default()
            },
            ..Invocation::default()
        };
        inv.apply(ctx, tokens)?;
        Ok(inv)
    }

    /// Applies `tokens` on top of this invocation (a serve request's
    /// tokens over the session's base request), then checks the flags
    /// that only make sense together.
    pub fn apply<S: AsRef<str>>(
        &mut self,
        ctx: Context,
        tokens: impl IntoIterator<Item = S>,
    ) -> Result<(), String> {
        let mut toks = tokens.into_iter();
        while let Some(tok) = toks.next() {
            let tok = tok.as_ref();
            if !tok.starts_with('-') {
                self.positional(ctx, tok)?;
                continue;
            }
            let (name, inline) = match tok.split_once('=') {
                Some((n, v)) if n.starts_with("--") => (n, Some(v)),
                _ => (tok, None),
            };
            let flag = FLAGS
                .iter()
                .find(|f| f.name == name && f.accepted_in(ctx))
                .ok_or_else(|| ctx.reject(tok))?;
            let value = match (flag.value, inline) {
                ("", None) => String::new(),
                ("", Some(_)) => return Err(format!("{name} takes no value")),
                (_, Some(v)) => v.to_string(),
                (_, None) => toks
                    .next()
                    .map(|v| v.as_ref().to_string())
                    .ok_or_else(|| format!("{name} needs a value"))?,
            };
            // a switch fails only as `--help`, whose text is the message
            (flag.set)(self, &value).map_err(|e| match flag.value {
                "" => e,
                _ => format!("bad {name} `{value}`: {e}"),
            })?;
        }
        if ctx == Context::Run && self.emit == Emit::Hssa {
            return Err(ctx.reject("--emit hssa"));
        }
        if !self.fault_policies.is_empty() && !self.sim {
            return Err("--fault-policy requires --sim".into());
        }
        if !self.taint_secret.is_empty() && !self.sim {
            return Err("--taint-secret requires --sim".into());
        }
        if self.sim && self.fault_policies.is_empty() {
            self.fault_policies.push("default".into());
        }
        Ok(())
    }

    fn positional(&mut self, ctx: Context, tok: &str) -> Result<(), String> {
        let slot = match ctx {
            Context::Argv | Context::Run if self.input.is_none() => &mut self.input,
            // `specc cache stats|clear|verify`: the action is the second
            // positional
            Context::Argv if self.input.as_deref() == Some("cache") && self.cache_cmd.is_none() => {
                &mut self.cache_cmd
            }
            _ => return Err(ctx.reject(tok)),
        };
        put(slot, Some(tok.into()))
    }

    /// Whether the reference interpreter run is needed: only `--run`,
    /// `--sim` and `--reduce` use its result.
    pub fn needs_reference(&self) -> bool {
        self.run || self.sim || self.reduce
    }

    /// The simulator options this invocation asks for.
    pub fn sim_options(&self) -> Result<SimOptions, String> {
        Ok(SimOptions {
            taint_secret: self.taint_secret.clone(),
            fence_leaks: self.req.hooks.fence_leaks,
            target: self.req.target_id()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specframe_core::Pass;

    #[test]
    fn every_flag_is_one_row() {
        for (i, f) in FLAGS.iter().enumerate() {
            assert!(
                FLAGS[i + 1..].iter().all(|g| g.name != f.name),
                "{} twice",
                f.name
            );
            assert!(help().contains(f.name), "{} missing from help", f.name);
        }
    }

    #[test]
    fn argv_defaults_are_specc_defaults() {
        let inv = Invocation::parse(Context::Argv, ["x.ir"]).unwrap();
        assert_eq!(inv.input.as_deref(), Some("x.ir"));
        assert_eq!(
            (inv.req.spec.as_str(), inv.req.control.as_str()),
            ("profile", "profile")
        );
        assert_eq!(inv.req.jobs, 0);
        assert_eq!(inv.req.train_args, None);
    }

    #[test]
    fn run_line_parses_full_vocabulary() {
        let line = "%s --entry f --args 1,2 --train-args 3 --spec profile --control profile \
                    --target swr --no-sr --store-sinking --jobs 4 --dump-after=hssa,lower \
                    --stop-after ssapre";
        let req = Invocation::parse(Context::Run, line.split_whitespace())
            .unwrap()
            .req;
        assert_eq!(req.entry, "f");
        assert_eq!(req.target, "swr");
        assert_eq!(req.args, vec![Value::I(1), Value::I(2)]);
        assert_eq!(req.train_args, Some(vec![Value::I(3)]));
        assert!(!req.strength_reduction && req.store_sinking);
        assert_eq!(req.jobs, 4);
        assert!(req.hooks.dump_after.contains(Pass::Hssa));
        assert!(req.hooks.dump_after.contains(Pass::Lower));
        assert_eq!(req.hooks.stop_after, Some(Pass::Ssapre));
    }

    #[test]
    fn sim_policies_default_and_require_sim() {
        let p = |s: &str| Invocation::parse(Context::Run, s.split_whitespace());
        let inv = p("%s --sim --fault-policy always-miss --fault-policy=random:3").unwrap();
        assert_eq!(inv.fault_policies, ["always-miss", "random:3"]);
        assert_eq!(p("%s --sim").unwrap().fault_policies, ["default"]);
        assert!(p("%s --fault-policy always-miss").is_err());
        assert!(p("%s --taint-secret @t").is_err());
        assert!(p("%s --sim --fault-policy bogus").is_err());
    }

    #[test]
    fn contexts_narrow_the_vocabulary() {
        for (ctx, toks) in [
            (Context::Run, "%s -o out.ir"),
            (Context::Run, "%s --cache-dir d"),
            (Context::Run, "%s --run"),
            (Context::Run, "%s --reduce"),
            (Context::Run, "%s --serve"),
            (Context::Run, "%s --emit hssa"),
            (Context::Serve, "--spec none"),
            (Context::Serve, "extra"),
        ] {
            let e = Invocation::parse(ctx, toks.split_whitespace()).unwrap_err();
            let want = match ctx {
                Context::Run => "unsupported RUN token",
                _ => "unknown token",
            };
            assert!(e.contains(want), "{toks}: {e}");
        }
        let e =
            Invocation::parse(Context::Argv, "x.ir --frobnicate".split_whitespace()).unwrap_err();
        assert!(e.contains("unknown option"), "{e}");
        let mut inv = Invocation::default();
        inv.apply(Context::Serve, "-o x.ir --deadline-ms 7".split_whitespace())
            .unwrap();
        assert_eq!(
            (inv.out.as_deref(), inv.req.deadline_ms),
            (Some("x.ir"), Some(7))
        );
    }

    #[test]
    fn values_and_switches_are_checked() {
        let p = |s: &str| Invocation::parse(Context::Argv, s.split_whitespace());
        let e = p("x.ir --jobs").unwrap_err();
        assert!(e.contains("--jobs needs a value"), "{e}");
        let e = p("x.ir --jobs=two").unwrap_err();
        assert!(e.starts_with("bad --jobs `two`: invalid digit"), "{e}");
        let e = p("x.ir --run=1").unwrap_err();
        assert!(e.contains("takes no value"), "{e}");
        let e = p("x.ir --sim --fault-policy bogus").unwrap_err();
        assert!(e.starts_with("bad --fault-policy `bogus`"), "{e}");
        assert!(p("x.ir -h").unwrap_err().contains("SPECFRAME_JOBS"));
        assert_eq!(parse_mega("7").unwrap(), (7, 1000));
        assert_eq!(parse_mega("7:20").unwrap(), (7, 20));
        assert!(parse_mega("x:20").is_err());
    }
}
