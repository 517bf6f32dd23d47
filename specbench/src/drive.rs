//! The three workloads: set-up, closed-loop traffic from one client
//! against the real `specc`, the correctness checks, and the traced
//! in-process run.

use specbench::gen::{self, EditStream};
use specbench::parse::{parse_ok_line, parse_sim_block, SimBlock};
use specbench::trace::Tracer;
use specbench::{per_layer, proc, stats, END_TO_END, PASS_ROWS, SELF_TIME_SPANS};
use specframe::ir::display::print_module;
use specframe::ir::inst::Inst;
use specframe::pipeline::CompileRequest;
use specframe::prelude::*;
use specframe::profile::observer::Compose;
use specframe::workloads::megamod::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Worker threads of every compile (`--jobs`).
pub const JOBS: usize = 2;
/// Instructions of the one-shot mega module (about 2000 functions).
const MEGA_INSTS: usize = 105_000;
/// Instructions of the served base module (about 1000 functions).
const SERVE_INSTS: usize = 52_500;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// `latency_ms.tail` is the highest percentile with this many samples
/// beyond it.
const TAIL_BEYOND: usize = 10;
/// Nominal shares of straight-line functions (one block) and of loop nests
/// one deep (four blocks) and two deep (seven) among the call-free
/// functions `mega_source` generates: 35%, 22.5% and 22.5% of all.
const SHAPE_WEIGHTS: [f64; 3] = [35.0 / 80.0, 22.5 / 80.0, 22.5 / 80.0];
/// Trip count `n` of every simulated mega function.
const SIM_N: i64 = 8;
const SIM_FUEL: u64 = 10_000_000;
/// The `p` argument of a simulated mega function: a word past every
/// global. No call in a mega module passes a global's address, so alias
/// analysis may prove `p` aliases no global, and the optimized code is
/// only correct for pointers that honour that.
const SIM_P_ADDR: i64 = 1 << 20;
/// Requests whose cache counts must repeat exactly (one global-edit
/// period, so the window holds exactly one all-miss request).
const CACHE_WINDOW: usize = gen::GLOBAL_EDIT_PERIOD;
/// One served output in this many (at most `SERVE_SAMPLES`) is compared
/// with an uncached in-process compile of the same file.
const SERVE_SAMPLE_EVERY: u64 = 8;
const SERVE_SAMPLES: usize = 3;

pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub input_shape: String,
    pub samples: usize,
    pub tail_label: String,
}

pub struct Ctx {
    workload: String,
    specc: PathBuf,
    work: PathBuf,
    out_dir: PathBuf,
    seed: u64,
    pub attempted: u64,
    pub failed: u64,
    failed_ops: BTreeSet<u64>,
    pub errors: Vec<String>,
    /// Counts that must repeat exactly: within a run and, through the
    /// ledger, across runs of one seed on one source tree.
    counts: BTreeMap<String, f64>,
}

impl Ctx {
    pub fn new(workload: &str, specc: PathBuf, work: PathBuf, out_dir: PathBuf, seed: u64) -> Ctx {
        Ctx {
            workload: workload.to_string(),
            specc,
            work,
            out_dir,
            seed,
            attempted: 0,
            failed: 0,
            failed_ops: BTreeSet::new(),
            errors: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn start_op(&mut self) -> u64 {
        self.attempted += 1;
        self.attempted - 1
    }

    /// Marks operation `op` failed (once, however many checks it fails).
    fn fail(&mut self, op: u64, msg: String) {
        if self.failed_ops.insert(op) {
            self.failed += 1;
        }
        self.self_check_failed(format!("op {op}: {msg}"));
    }

    fn self_check_failed(&mut self, msg: String) {
        if self.errors.len() < 20 {
            eprintln!("specbench: {msg}");
        }
        self.errors.push(msg);
    }

    /// Records a count that must repeat exactly.
    fn count(&mut self, key: String, value: f64) {
        match self.counts.get(&key) {
            Some(&old) if old.to_bits() != value.to_bits() => {
                self.self_check_failed(format!("count {key} changed: {old} then {value}"))
            }
            _ => {
                self.counts.insert(key, value);
            }
        }
    }

    /// Compares this run's counts with earlier runs of the same workload,
    /// seed and source tree, then adds them to the ledger.
    pub fn check_ledger(&mut self, src_hash: u64) {
        let path = self.out_dir.join(format!(
            "counts-{}-{}-{src_hash:016x}.txt",
            self.workload, self.seed
        ));
        let mut ledger: BTreeMap<String, f64> = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(&path) {
            for l in text.lines() {
                if let Some((k, v)) = l.split_once(' ') {
                    if let Ok(bits) = u64::from_str_radix(v, 16) {
                        ledger.insert(k.to_string(), f64::from_bits(bits));
                    }
                }
            }
        }
        let counts = std::mem::take(&mut self.counts);
        for (k, v) in counts {
            match ledger.get(&k) {
                Some(old) if old.to_bits() != v.to_bits() => self.self_check_failed(format!(
                    "count {k} = {v} differs from an earlier run's {old} ({})",
                    path.display()
                )),
                _ => {
                    ledger.insert(k, v);
                }
            }
        }
        let text: String = ledger
            .iter()
            .map(|(k, v)| format!("{k} {:016x}\n", v.to_bits()))
            .collect();
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("specbench: cannot write {}: {e}", path.display());
        }
    }

    /// Runs `specc` once; its stderr goes to a file so a chatty compile
    /// can never block on a full pipe.
    fn invoke(&self, args: &[String]) -> Result<Invocation, String> {
        let err_path = self.work.join("specc.stderr");
        let err = std::fs::File::create(&err_path).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let mut child = Command::new(&self.specc)
            .args(args)
            .env_remove("SPECFRAME_CACHE_DIR")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot start specc: {e}"))?;
        let (status, rss_kb) = proc::wait_with_rusage(&mut child).map_err(|e| e.to_string())?;
        let wall = t0.elapsed().as_secs_f64();
        let stderr = std::fs::read_to_string(&err_path).map_err(|e| e.to_string())?;
        Ok(Invocation {
            status,
            wall,
            rss_kb,
            stderr,
        })
    }

    fn write(&self, name: &str, text: &str) -> Result<PathBuf, String> {
        let p = self.work.join(name);
        std::fs::write(&p, text).map_err(|e| format!("{}: {e}", p.display()))?;
        Ok(p)
    }
}

struct Invocation {
    status: ExitStatus,
    wall: f64,
    rss_kb: u64,
    stderr: String,
}

impl Invocation {
    fn failure(&self) -> Option<String> {
        (!self.status.success()).then(|| {
            let tail: Vec<&str> = self.stderr.lines().rev().take(3).collect();
            format!("specc exited with {}: {}", self.status, tail.join(" | "))
        })
    }
}

/// A `specc --serve` session; dropping it unfinished kills and reaps it.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    reaped: bool,
}

impl Server {
    fn spawn(specc: &Path, cache: &Path, err: &Path) -> Result<Server, String> {
        let err = std::fs::File::create(err).map_err(|e| e.to_string())?;
        let mut child = Command::new(specc)
            .arg("--serve")
            .arg("--cache-dir")
            .arg(cache)
            .args(["--spec", "heuristic", "--control", "static", "--jobs"])
            .arg(JOBS.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot start specc --serve: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Server {
            child,
            stdin,
            stdout,
            reaped: false,
        })
    }

    /// Sends one request line and reads its one-line response.
    fn request(&mut self, line: &str) -> Result<String, String> {
        let stdin = self.stdin.as_mut().expect("session is open");
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to specc --serve: {e}"))?;
        let mut resp = String::new();
        match self.stdout.read_line(&mut resp) {
            Ok(0) => Err("specc --serve closed its output".into()),
            Ok(_) => Ok(resp),
            Err(e) => Err(format!("reading from specc --serve: {e}")),
        }
    }

    /// Ends the session; returns its exit status and peak RSS (kB).
    fn quit(&mut self) -> Result<(ExitStatus, u64), String> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = writeln!(stdin, "quit");
        }
        let r = proc::wait_with_rusage(&mut self.child).map_err(|e| e.to_string());
        self.reaped = r.is_ok();
        r
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Input size, for the provenance line.
struct Shape {
    funcs: u64,
    insts: u64,
    bytes: u64,
}

impl Shape {
    fn of(ms: &[&Module], bytes: usize) -> Shape {
        Shape {
            funcs: ms.iter().map(|m| m.funcs.len() as u64).sum(),
            insts: ms.iter().map(|m| inst_count(m) as u64).sum(),
            bytes: bytes as u64,
        }
    }

    fn label(&self) -> String {
        format!(
            "funcs={} insts={} bytes={}",
            self.funcs, self.insts, self.bytes
        )
    }
}

/// What an untraced run measured.
#[derive(Default)]
struct E2e {
    setup_s: Vec<f64>,
    lat_ms: Vec<f64>,
    funcs: u64,
    busy_s: f64,
    rss_kb: u64,
    sim_cycles: f64,
    loads_retired: f64,
    code_insts: u64,
}

impl E2e {
    fn tail(&self) -> (f64, String) {
        match stats::tail(&self.lat_ms, TAIL_BEYOND) {
            Some((v, p)) => (v, format!("p{p}")),
            None => (
                self.lat_ms.iter().copied().fold(0.0, f64::max),
                "max".into(),
            ),
        }
    }

    fn report(&self, shape: &Shape) -> Report {
        let (tail, tail_label) = self.tail();
        // in `END_TO_END` order
        let values = [
            stats::median(&self.setup_s),
            self.funcs as f64 / self.busy_s,
            stats::median(&self.lat_ms),
            tail,
            self.rss_kb as f64 / 1024.0,
            self.sim_cycles,
            self.loads_retired,
            self.code_insts as f64,
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n.to_string(), v, u))
            .collect();
        Report {
            metrics,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            input_shape: shape.label(),
            samples: self.lat_ms.len(),
            tail_label,
        }
    }

    fn record_generated_code(&mut self, ctx: &mut Ctx, sim: (f64, f64), code_insts: u64) {
        (self.sim_cycles, self.loads_retired) = sim;
        self.code_insts = code_insts;
        ctx.count("sim_cycles.geomean".into(), sim.0);
        ctx.count("loads_retired.geomean".into(), sim.1);
        ctx.count("code_insts.total".into(), code_insts as f64);
    }
}

fn setup_reps(trace: bool) -> usize {
    if trace {
        1
    } else {
        SETUP_REPS
    }
}

fn parse_checked(text: &str) -> Result<Module, String> {
    let m = parse_module(text).map_err(|e| format!("output does not parse: {e}"))?;
    verify_module(&m).map_err(|e| format!("output does not verify: {e}"))?;
    Ok(m)
}

/// Static machine instructions of `m` lowered for the default target.
fn static_insts(m: &Module) -> u64 {
    lower_module_for(m, TargetId::Epic.spec())
        .funcs
        .iter()
        .map(|f| f.code.len() as u64)
        .sum()
}

/// The compile `specc --spec heuristic --control static --jobs 2` makes.
fn heuristic_request(cache_dir: Option<PathBuf>) -> CompileRequest {
    CompileRequest {
        spec: "heuristic".into(),
        control: "static".into(),
        train_args: Some(Vec::new()),
        jobs: JOBS,
        cache_dir,
        ..Default::default()
    }
}

/// An uncached in-process compile of `text`, printed.
fn compile_in_process(text: &str) -> Result<(String, OptReport), String> {
    let out = specframe::pipeline::compile(text, &heuristic_request(None))
        .map_err(|e| format!("in-process compile failed: {e}"))?;
    Ok((print_module(&out.module), out.report))
}

fn record_stats(ctx: &mut Ctx, s: &OptStats) {
    for (k, v) in stat_rows(s) {
        ctx.count(format!("core.stats.{k}"), v as f64);
    }
}

fn stat_rows(s: &OptStats) -> [(&'static str, u64); 5] {
    [
        ("loads_removed", s.loads_removed),
        ("checks", s.checks),
        ("advanced_loads", s.advanced_loads),
        ("control_spec_loads", s.control_spec_loads),
        ("spec_fallbacks", s.spec_fallbacks),
    ]
}

/// Simulates every call-free function of the emitted mega module `out`
/// (arguments `n = SIM_N`, `p = SIM_P_ADDR`) on the default target and
/// checks each result against the interpreter on the unoptimized `input`.
/// Returns the shape-weighted geomeans of (cycles, retired loads). Taking
/// every such function, not a sample, keeps them steady from seed to seed.
fn mega_sim(ctx: &mut Ctx, op: u64, input: &Module, out: &Module) -> Result<(f64, f64), String> {
    let call_free = input.funcs.iter().filter(|f| {
        f.name != "main"
            && !f
                .blocks
                .iter()
                .any(|b| b.insts.iter().any(|i| matches!(i, Inst::Call { .. })))
    });
    let args = [Value::I(SIM_N), Value::I(SIM_P_ADDR)];
    let prog = lower_module_for(out, TargetId::Epic.spec());
    // per shape: (sum of ln cycles, sum of ln loads, functions)
    let mut shapes = [(0.0, 0.0, 0usize); 3];
    for f in call_free {
        let name = f.name.as_str();
        let (want, _) = run(input, name, &args, SIM_FUEL)
            .map_err(|e| format!("reference run of {name} failed: {e}"))?;
        let policy = parse_fault_policy("default")?;
        let (got, c) =
            run_machine_with_policy_on(&prog, TargetId::Epic.spec(), name, &args, SIM_FUEL, policy)
                .map_err(|e| format!("simulating {name} failed: {e}"))?;
        if got != want {
            ctx.fail(
                op,
                format!("{name}: simulated {got:?} != interpreted {want:?}"),
            );
        }
        // a function whose loads were all removed still costs one unit, so
        // the logarithm stays defined
        let s = &mut shapes[match f.blocks.len() {
            1 => 0,
            2..=5 => 1,
            _ => 2,
        }];
        s.0 += (c.cycles.max(1) as f64).ln();
        s.1 += (c.loads_retired.max(1) as f64).ln();
        s.2 += 1;
    }
    // weigh each shape by the generator's nominal share of it, so a seed's
    // chance mix of shapes does not move the geomeans
    let (mut cycles, mut loads) = (0.0, 0.0);
    for (s, w) in shapes.iter().zip(SHAPE_WEIGHTS) {
        let n = s.2.max(1) as f64;
        cycles += w * s.0 / n;
        loads += w * s.1 / n;
    }
    Ok((cycles.exp(), loads.exp()))
}

/// Per-layer figures accumulated over traced operations.
#[derive(Default)]
struct LayerAcc {
    pass_cpu: BTreeMap<&'static str, Duration>,
    optimize_wall: Duration,
    dom_computes: u64,
    parse_bytes: u64,
    /// Counts that are not per-operation means (cache window, machine
    /// counters, first-round outputs).
    counts: BTreeMap<String, f64>,
}

impl LayerAcc {
    /// Adds one compile's report; its optimizer time becomes a derived
    /// child of the `pipeline.compile_module` span `cm`.
    fn absorb(&mut self, tr: &mut Tracer, cm: usize, rep: &OptReport) {
        let opt = tr.derived(cm, "core.optimize", rep.timings.total);
        tr.derived(opt, "alias.analyze", rep.timings.alias);
        self.optimize_wall += rep.timings.total;
        self.dom_computes += rep.timings.dom_computes;
        for (name, d) in rep.timings.rows() {
            if PASS_ROWS.contains(&name) {
                *self.pass_cpu.entry(name).or_default() += d;
            }
        }
    }

    /// Every per-layer metric, in `per_layer()` order; layers a workload
    /// never enters read 0.
    fn metrics(
        &self,
        tr: &Tracer,
        root: &'static str,
        e2e_p50_ms: f64,
    ) -> Vec<(String, f64, &'static str)> {
        let roots: Vec<f64> = tr
            .spans()
            .iter()
            .filter(|s| s.name == root)
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .collect();
        let ops = roots.len().max(1) as f64;
        let per_op = |d: Duration| d.as_secs_f64() * 1e3 / ops;
        let root_mean = roots.iter().sum::<f64>() / ops;
        let mut v: BTreeMap<String, f64> = self.counts.clone();
        for (name, (d, _)) in tr.self_times() {
            let name = if name == root {
                "bench.root_self"
            } else {
                name
            };
            debug_assert!(SELF_TIME_SPANS.contains(&name), "unlisted span {name}");
            v.insert(format!("{name}_ms"), per_op(d));
        }
        v.insert(format!("{root}_ms"), root_mean);
        v.insert("bench.unattributed_ms".into(), e2e_p50_ms - root_mean);
        v.insert("core.optimize_wall_ms".into(), per_op(self.optimize_wall));
        for (name, d) in &self.pass_cpu {
            v.insert(format!("core.pass.{name}_cpu_ms"), per_op(*d));
        }
        v.insert("core.dom_computes".into(), self.dom_computes as f64 / ops);
        let parse_ms = v.get("ir.parse_ms").copied().unwrap_or(0.0) * ops;
        if parse_ms > 0.0 {
            v.insert(
                "ir.parse_mb_per_s".into(),
                self.parse_bytes as f64 / 1e6 / (parse_ms / 1e3),
            );
        }
        let names = per_layer();
        for k in v.keys() {
            debug_assert!(names.iter().any(|(n, _)| n == k), "unlisted metric {k}");
        }
        names
            .into_iter()
            .map(|(n, u)| {
                let x = v.get(&n).copied().unwrap_or(0.0);
                (n, x, u)
            })
            .collect()
    }
}

/// One traced operation: the calls `specc` makes for it, in its order.
/// A one-shot `specc FILE ... -o OUT` (root `specc.invoke`) prepares the
/// module and makes its reference run before compiling; a served
/// `compile PATH -o OUT` (root `serve.request`) goes straight from
/// verification to `compile_module`.
struct Op<'a> {
    root: &'static str,
    input: &'a Path,
    out: &'a Path,
    req: &'a CompileRequest,
    /// Entry, arguments and fuel of the reference run, for one-shots.
    reference: Option<(&'a str, &'a [Value], u64)>,
    /// Simulate the result with the reference run's arguments (`--sim`).
    sim: bool,
}

struct Traced {
    cm: usize,
    report: OptReport,
    output: String,
    input: String,
    expect: Option<Value>,
    sim: Option<(Option<Value>, Counters)>,
}

fn traced(tr: &mut Tracer, op: &Op) -> Result<Traced, String> {
    let root = tr.begin(op.root);
    let r = traced_body(tr, op);
    tr.end(root);
    r
}

fn traced_body(tr: &mut Tracer, op: &Op) -> Result<Traced, String> {
    let src = tr
        .span("bench.read", || std::fs::read_to_string(op.input))
        .map_err(|e| e.to_string())?;
    let mut m = tr
        .span("ir.parse", || parse_module(&src))
        .map_err(|e| e.to_string())?;
    tr.span("ir.verify", || verify_module(&m))
        .map_err(|e| e.to_string())?;
    let mut expect = None;
    if let Some((entry, args, fuel)) = op.reference {
        tr.span("core.prepare", || prepare_module(&mut m));
        expect = tr
            .span("profile.ref_run", || run(&m, entry, args, fuel))
            .map_err(|e| format!("reference run failed: {e}"))?
            .0;
    }
    let cm = tr.begin("pipeline.compile_module");
    let out = compile_module(m, op.req);
    tr.end(cm);
    let out = out.map_err(|e| e.to_string())?;
    let mut sim = None;
    if let (true, Some((entry, args, fuel))) = (op.sim, op.reference) {
        let target = TargetId::Epic.spec();
        let prog = tr.span("codegen.lower", || lower_module_for(&out.module, target));
        let policy = parse_fault_policy("default")?;
        let r = tr
            .span("machine.sim", || {
                run_machine_with_policy_on(&prog, target, entry, args, fuel, policy)
            })
            .map_err(|e| format!("simulation failed: {e}"))?;
        sim = Some(r);
    }
    let text = tr.span("ir.print", || print_module(&out.module));
    tr.span("serve.write", || std::fs::write(op.out, &text))
        .map_err(|e| e.to_string())?;
    Ok(Traced {
        cm,
        report: out.report,
        output: text,
        input: src,
        expect,
        sim,
    })
}

/// Removes `p` before a file of that name is written again. Rewriting an
/// existing file in place makes ext4 flush its blocks to disk at once
/// (`auto_da_alloc`); a fresh file's data is dropped unwritten when it is
/// removed in time, so the benchmark's own output churn stays off the disk.
fn fresh(p: &Path) {
    let _ = std::fs::remove_file(p);
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// `mega_oneshot`: one `specc FILE --spec heuristic --control static
/// --jobs 2 -o OUT` at a time over a seeded mega module.
pub fn mega_oneshot(ctx: &mut Ctx, budget: Duration, trace: bool) -> Result<Report, String> {
    let src = gen::mega_input(ctx.seed, gen::mega_funcs_for_insts(ctx.seed, MEGA_INSTS));
    let input = ctx.write("mega.ir", &src)?;
    let out = ctx.work.join("mega.out.ir");
    let m_in = parse_checked(&src).map_err(|e| format!("generated input: {e}"))?;
    let shape = Shape::of(&[&m_in], src.len());
    let args = |jobs: usize| -> Vec<String> {
        vec![
            path_arg(&input),
            "--spec".into(),
            "heuristic".into(),
            "--control".into(),
            "static".into(),
            "--jobs".into(),
            jobs.to_string(),
            "-o".into(),
            path_arg(&out),
        ]
    };
    let mut e = E2e::default();
    let mut want: Option<Vec<u8>> = None;
    let mut check = |ctx: &mut Ctx, op: u64, inv: &Invocation| {
        if let Some(f) = inv.failure() {
            return ctx.fail(op, f);
        }
        match std::fs::read(&out) {
            Err(err) => ctx.fail(op, format!("no output: {err}")),
            Ok(bytes) => match &want {
                None => want = Some(bytes),
                Some(w) if *w != bytes => ctx.fail(op, "output differs from the first".into()),
                Some(_) => {}
            },
        }
    };
    for _ in 0..setup_reps(trace) {
        let op = ctx.start_op();
        fresh(&out);
        let inv = ctx.invoke(&args(JOBS))?;
        e.setup_s.push(inv.wall);
        e.rss_kb = e.rss_kb.max(inv.rss_kb);
        check(ctx, op, &inv);
    }
    let phase = if trace { budget / 2 } else { budget };
    let deadline = Instant::now() + phase;
    while Instant::now() < deadline {
        let op = ctx.start_op();
        fresh(&out);
        let inv = ctx.invoke(&args(JOBS))?;
        e.lat_ms.push(inv.wall * 1e3);
        e.busy_s += inv.wall;
        e.funcs += shape.funcs;
        e.rss_kb = e.rss_kb.max(inv.rss_kb);
        check(ctx, op, &inv);
    }
    let want = want.ok_or("no mega compile succeeded")?;
    let want = String::from_utf8(want).map_err(|_| "output is not UTF-8")?;
    // every output is byte-equal to `want`, so checking it checks them all
    let op = ctx.start_op();
    let m_out = parse_checked(&want).map_err(|e| format!("mega output: {e}"))?;
    let (inproc, rep) = compile_in_process(&src)?;
    if inproc != want {
        ctx.fail(
            op,
            "specc output differs from an in-process compile_module".into(),
        );
    }
    fresh(&out);
    let inv = ctx.invoke(&args(1))?;
    match inv.failure() {
        Some(f) => ctx.fail(op, format!("--jobs 1: {f}")),
        None if std::fs::read(&out).ok().as_deref() != Some(want.as_bytes()) => {
            ctx.fail(op, "--jobs 1 and --jobs 2 outputs differ".into())
        }
        None => {}
    }
    let sim = mega_sim(ctx, op, &m_in, &m_out)?;
    e.record_generated_code(ctx, sim, static_insts(&m_out));
    ctx.count("ir.output_bytes".into(), want.len() as f64);
    record_stats(ctx, &rep.stats);
    if !trace {
        return Ok(e.report(&shape));
    }

    let mut tr = Tracer::default();
    let mut acc = LayerAcc::default();
    let req = heuristic_request(None);
    let shot = Op {
        root: "specc.invoke",
        input: &input,
        out: &out,
        req: &req,
        reference: Some(("main", &[], req.fuel)),
        sim: false,
    };
    let deadline = Instant::now() + budget / 2;
    let mut i = 0u64;
    while i == 0 || Instant::now() < deadline {
        tr.set_req(i);
        let op = ctx.start_op();
        fresh(&out);
        match traced(&mut tr, &shot) {
            Err(err) => ctx.fail(op, err),
            Ok(t) => {
                acc.absorb(&mut tr, t.cm, &t.report);
                acc.parse_bytes += t.input.len() as u64;
                if t.output != want {
                    ctx.fail(op, "traced output differs from specc's".into());
                }
                if i == 0 {
                    acc.first_round(ctx, &t.report, &t.output, static_insts(&m_out));
                }
            }
        }
        i += 1;
    }
    finish_trace(ctx, &tr, &acc, "specc.invoke", &e, &shape)
}

impl LayerAcc {
    /// Counts of the first traced round, which must repeat exactly.
    fn first_round(&mut self, ctx: &mut Ctx, rep: &OptReport, output: &str, insts: u64) {
        self.counts
            .insert("ir.output_bytes".into(), output.len() as f64);
        self.counts
            .insert("codegen.static_insts".into(), insts as f64);
        for (k, v) in stat_rows(&rep.stats) {
            self.counts.insert(format!("core.stats.{k}"), v as f64);
        }
        for (k, v) in self.counts.clone() {
            ctx.count(format!("trace.{k}"), v);
        }
    }
}

fn finish_trace(
    ctx: &mut Ctx,
    tr: &Tracer,
    acc: &LayerAcc,
    root: &'static str,
    e: &E2e,
    shape: &Shape,
) -> Result<Report, String> {
    let p50 = stats::median(&e.lat_ms);
    let path = ctx
        .out_dir
        .join(format!("trace-{}-{}.jsonl", ctx.workload, ctx.seed));
    tr.write_jsonl(&path)
        .map_err(|err| format!("{}: {err}", path.display()))?;
    eprintln!(
        "specbench: {} spans written to {}",
        tr.spans().len(),
        path.display()
    );
    let mut r = e.report(shape);
    r.metrics = acc.metrics(tr, root, p50);
    Ok(r)
}

/// `serve_edit`: one `specc --serve` session answering a seeded stream of
/// `compile PATH -o OUT` requests, each the base module with a few bodies
/// edited and one in 20 with a global initializer changed.
pub fn serve_edit(ctx: &mut Ctx, budget: Duration, trace: bool) -> Result<Report, String> {
    let edited = gen::mega_funcs_for_insts(ctx.seed, SERVE_INSTS);
    let base = gen::mega_input(ctx.seed, edited);
    let base_path = ctx.write("base.ir", &base)?;
    let base_out = ctx.work.join("base.out.ir");
    let req_path = ctx.work.join("req.ir");
    let out = ctx.work.join("out.ir");
    let m_in = parse_checked(&base).map_err(|e| format!("generated input: {e}"))?;
    let shape = Shape::of(&[&m_in], base.len());
    let funcs = m_in.funcs.len() as u64;
    let mut e = E2e::default();
    let mut server: Option<Server> = None;
    for k in 0..setup_reps(trace) {
        let op = ctx.start_op();
        let t0 = Instant::now();
        let mut s = Server::spawn(
            &ctx.specc,
            &ctx.work.join(format!("cache{k}")),
            &ctx.work.join(format!("serve{k}.stderr")),
        )?;
        fresh(&base_out);
        let line = s.request(&format!(
            "compile {} -o {}",
            base_path.display(),
            base_out.display()
        ))?;
        e.setup_s.push(t0.elapsed().as_secs_f64());
        match parse_ok_line(&line) {
            Err(l) => ctx.fail(op, format!("priming compile: {l}")),
            Ok(ok) if ok.funcs != funcs || ok.misses != funcs => {
                ctx.fail(op, format!("priming compile of a cold cache: {line}"))
            }
            Ok(_) => {}
        }
        if let Some(mut prev) = server.replace(s) {
            prev.quit()?;
        }
    }
    let mut server = server.expect("at least one set-up");
    let base_text = std::fs::read_to_string(&base_out).map_err(|e| e.to_string())?;
    let op = ctx.start_op();
    let m_out = parse_checked(&base_text).map_err(|e| format!("base output: {e}"))?;
    let (inproc, base_rep) = compile_in_process(&base)?;
    if inproc != base_text {
        ctx.fail(
            op,
            "served base output differs from an in-process compile".into(),
        );
    }
    record_stats(ctx, &base_rep.stats);

    let mut stream = EditStream::new(ctx.seed, edited);
    let mut sampler = Rng::new(ctx.seed ^ 0x5a3b_1e00);
    let mut samples: Vec<(u64, String, String)> = Vec::new();
    let mut served: Vec<u64> = Vec::new();
    let phase = if trace { budget / 2 } else { budget };
    let deadline = Instant::now() + phase;
    let mut i = 0usize;
    // whole global-edit periods only, so every run holds the same share of
    // all-miss requests
    while !i.is_multiple_of(CACHE_WINDOW) || i == 0 || Instant::now() < deadline {
        let text = gen::apply_edit(&base, &stream.next().expect("endless stream"));
        fresh(&req_path);
        fresh(&out);
        std::fs::write(&req_path, &text).map_err(|e| e.to_string())?;
        let op = ctx.start_op();
        let t0 = Instant::now();
        let line = server.request(&format!(
            "compile {} -o {}",
            req_path.display(),
            out.display()
        ))?;
        let dt = t0.elapsed().as_secs_f64();
        e.lat_ms.push(dt * 1e3);
        e.busy_s += dt;
        let ok = match parse_ok_line(&line) {
            Err(l) => {
                ctx.fail(op, l);
                served.push(0);
                i += 1;
                continue;
            }
            Ok(ok) => ok,
        };
        e.funcs += ok.funcs;
        if ok.funcs != funcs || ok.hits + ok.misses + ok.stale != ok.funcs {
            ctx.fail(op, format!("inconsistent response: {line}"));
        }
        if i < CACHE_WINDOW {
            ctx.count(format!("serve.req{i:02}.hits"), ok.hits as f64);
            ctx.count(format!("serve.req{i:02}.misses"), ok.misses as f64);
        }
        match std::fs::read_to_string(&out) {
            Err(err) => ctx.fail(op, format!("no output: {err}")),
            Ok(o) => {
                if let Err(err) = parse_checked(&o) {
                    ctx.fail(op, err);
                }
                served.push(fnv(o.as_bytes()));
                if samples.len() < SERVE_SAMPLES && sampler.below(SERVE_SAMPLE_EVERY) == 0 {
                    samples.push((op, text, o));
                }
            }
        }
        i += 1;
    }
    let (status, rss_kb) = server.quit()?;
    e.rss_kb = rss_kb;
    if !status.success() {
        ctx.self_check_failed(format!("specc --serve exited with {status}"));
    }
    for (op, text, o) in samples {
        if compile_in_process(&text)?.0 != o {
            ctx.fail(
                op,
                "served output differs from an in-process compile".into(),
            );
        }
    }
    let op = ctx.start_op();
    let sim = mega_sim(ctx, op, &m_in, &m_out)?;
    e.record_generated_code(ctx, sim, static_insts(&m_out));
    if !trace {
        return Ok(e.report(&shape));
    }

    let mut tr = Tracer::default();
    let mut acc = LayerAcc::default();
    let cache = ctx.work.join("trace-cache");
    let req = heuristic_request(Some(cache.clone()));
    compile_module(m_in, &req).map_err(|e| format!("priming the traced cache: {e}"))?;
    let mut stream = EditStream::new(ctx.seed, edited);
    let (mut hits, mut misses, mut stale) = (0u64, 0u64, 0u64);
    let deadline = Instant::now() + budget / 2;
    let request = Op {
        root: "serve.request",
        input: &req_path,
        out: &out,
        req: &req,
        reference: None,
        sim: false,
    };
    let mut i = 0usize;
    while i < CACHE_WINDOW || Instant::now() < deadline {
        let text = gen::apply_edit(&base, &stream.next().expect("endless stream"));
        fresh(&req_path);
        fresh(&out);
        std::fs::write(&req_path, &text).map_err(|e| e.to_string())?;
        tr.set_req(i as u64);
        let op = ctx.start_op();
        match traced(&mut tr, &request) {
            Err(err) => ctx.fail(op, err),
            Ok(t) => {
                acc.absorb(&mut tr, t.cm, &t.report);
                acc.parse_bytes += t.input.len() as u64;
                if served
                    .get(i)
                    .is_some_and(|&h| h != fnv(t.output.as_bytes()))
                {
                    ctx.fail(
                        op,
                        format!("traced request {i} output differs from the served one"),
                    );
                }
                let c = t.report.cache;
                if i < CACHE_WINDOW {
                    ctx.count(format!("serve.req{i:02}.hits"), c.hits as f64);
                    ctx.count(format!("serve.req{i:02}.misses"), c.misses as f64);
                    hits += c.hits;
                    misses += c.misses;
                    stale += c.stale;
                }
                if i == 0 {
                    let m = parse_module(&t.output).map_err(|e| e.to_string())?;
                    acc.first_round(ctx, &t.report, &t.output, static_insts(&m));
                }
                if i + 1 == CACHE_WINDOW {
                    let (n, bytes) = specframe::core::FuncCache::open(&cache)
                        .entry_stats()
                        .map_err(|e| e.to_string())?;
                    acc.counts.insert("cache.entries".into(), n as f64);
                    acc.counts.insert("cache.bytes".into(), bytes as f64);
                }
            }
        }
        i += 1;
    }
    let probed = (hits + misses + stale).max(1) as f64;
    for (k, v) in [
        ("cache.hits", hits as f64),
        ("cache.misses", misses as f64),
        ("cache.stale", stale as f64),
        ("cache.hit_ratio", hits as f64 / probed),
    ] {
        acc.counts.insert(k.into(), v);
        ctx.count(format!("trace.{k}"), v);
    }
    finish_trace(ctx, &tr, &acc, "serve.request", &e, &shape)
}

/// One paper kernel as `kernels_sim` runs it.
struct Kernel {
    name: &'static str,
    input: PathBuf,
    out: PathBuf,
    entry: &'static str,
    train: Vec<Value>,
    args: Vec<Value>,
    fuel: u64,
    /// The interpreter's result on the unoptimized module, `{:?}`-printed
    /// as `specc --sim` prints it.
    expect: String,
    funcs: u64,
}

fn value_list(vs: &[Value]) -> String {
    vs.iter()
        .map(|v| match v {
            Value::F(x) => format!("{x:?}"),
            Value::I(x) => x.to_string(),
            Value::Nat => "nat".into(),
        })
        .collect::<Vec<_>>()
        .join(",")
}

impl Kernel {
    fn args(&self) -> Vec<String> {
        vec![
            path_arg(&self.input),
            "--spec".into(),
            "profile".into(),
            "--control".into(),
            "profile".into(),
            "--train-args".into(),
            value_list(&self.train),
            "--args".into(),
            value_list(&self.args),
            "--fuel".into(),
            self.fuel.to_string(),
            "--sim".into(),
            "--jobs".into(),
            JOBS.to_string(),
            "-o".into(),
            path_arg(&self.out),
        ]
    }
}

/// The counter rows of a `--sim` block reported per kernel.
fn sim_rows(b: &SimBlock) -> [(&'static str, u64); 4] {
    [
        ("cycles", b.cycles),
        ("loads_retired", b.loads_retired),
        ("check_loads", b.check_loads),
        ("failed_checks", b.failed_checks),
    ]
}

/// What the first run of each kernel produced; later runs must repeat it.
struct KernelFirst {
    sim: SimBlock,
    output: Vec<u8>,
}

/// `kernels_sim`: round-robin `specc FILE --spec profile --control profile
/// --train-args T --args R --fuel F --sim -o OUT` over the nine reference
/// kernels, checked against the interpreter in this process.
pub fn kernels_sim(ctx: &mut Ctx, budget: Duration, trace: bool) -> Result<Report, String> {
    let ws = all_workloads(Scale::Reference);
    let mut kernels = Vec::new();
    let mut bytes = 0;
    for w in &ws {
        let text = print_module(&w.module);
        bytes += text.len();
        let input = ctx.write(&format!("{}.ir", w.name), &text)?;
        let (want, _) = run(&w.module, w.entry, &w.ref_args, w.fuel)
            .map_err(|e| format!("{}: reference run failed: {e}", w.name))?;
        kernels.push(Kernel {
            name: w.name,
            input,
            out: ctx.work.join(format!("{}.out.ir", w.name)),
            entry: w.entry,
            train: w.train_args.clone(),
            args: w.ref_args.clone(),
            fuel: w.fuel,
            expect: format!("{want:?}"),
            funcs: w.module.funcs.len() as u64,
        });
    }
    let shape = Shape::of(&ws.iter().map(|w| &w.module).collect::<Vec<_>>(), bytes);
    let mut first: Vec<Option<KernelFirst>> = (0..kernels.len()).map(|_| None).collect();
    let mut e = E2e::default();
    let check = |ctx: &mut Ctx,
                 first: &mut Vec<Option<KernelFirst>>,
                 op: u64,
                 k: usize,
                 inv: &Invocation| {
        let kn = &kernels[k];
        if let Some(f) = inv.failure() {
            return ctx.fail(op, format!("{}: {f}", kn.name));
        }
        let sim = match parse_sim_block(&inv.stderr) {
            Ok(s) => s,
            Err(err) => return ctx.fail(op, format!("{}: {err}", kn.name)),
        };
        if sim.result != kn.expect {
            ctx.fail(
                op,
                format!(
                    "{}: simulated {} != interpreted {}",
                    kn.name, sim.result, kn.expect
                ),
            );
        }
        let output = match std::fs::read(&kn.out) {
            Ok(o) => o,
            Err(err) => return ctx.fail(op, format!("{}: no output: {err}", kn.name)),
        };
        match &first[k] {
            None => first[k] = Some(KernelFirst { sim, output }),
            Some(f) if f.sim != sim || f.output != output => ctx.fail(
                op,
                format!("{}: counters or output changed between runs", kn.name),
            ),
            Some(_) => {}
        }
    };
    for _ in 0..setup_reps(trace) {
        let op = ctx.start_op();
        fresh(&kernels[0].out);
        let inv = ctx.invoke(&kernels[0].args())?;
        e.setup_s.push(inv.wall);
        e.rss_kb = e.rss_kb.max(inv.rss_kb);
        check(ctx, &mut first, op, 0, &inv);
    }
    // whole rounds only, so every kernel weighs the same in every run; the
    // seed picks the kernel each round starts with
    let start = (ctx.seed % kernels.len() as u64) as usize;
    let order: Vec<usize> = (0..kernels.len())
        .map(|j| (start + j) % kernels.len())
        .collect();
    let phase = if trace { budget / 2 } else { budget };
    let deadline = Instant::now() + phase;
    while e.lat_ms.is_empty() || Instant::now() < deadline {
        for &k in &order {
            let op = ctx.start_op();
            fresh(&kernels[k].out);
            let inv = ctx.invoke(&kernels[k].args())?;
            e.lat_ms.push(inv.wall * 1e3);
            e.busy_s += inv.wall;
            e.funcs += kernels[k].funcs;
            e.rss_kb = e.rss_kb.max(inv.rss_kb);
            check(ctx, &mut first, op, k, &inv);
        }
    }
    let mut firsts = Vec::new();
    for (k, f) in first.iter().enumerate() {
        firsts.push(
            f.as_ref()
                .ok_or_else(|| format!("{} never succeeded", kernels[k].name))?,
        );
    }
    let op = ctx.start_op();
    let (mut code_insts, mut output_bytes) = (0, 0);
    for (kn, f) in kernels.iter().zip(&firsts) {
        match parse_checked(&String::from_utf8_lossy(&f.output)) {
            Ok(m) => code_insts += static_insts(&m),
            Err(err) => ctx.fail(op, format!("{}: {err}", kn.name)),
        }
        output_bytes += f.output.len();
        for (c, v) in sim_rows(&f.sim) {
            ctx.count(format!("machine.{c}.{}", kn.name), v as f64);
        }
    }
    let cycles: Vec<f64> = firsts.iter().map(|f| f.sim.cycles as f64).collect();
    let loads: Vec<f64> = firsts.iter().map(|f| f.sim.loads_retired as f64).collect();
    e.record_generated_code(
        ctx,
        (stats::geomean(&cycles), stats::geomean(&loads)),
        code_insts,
    );
    ctx.count("ir.output_bytes".into(), output_bytes as f64);
    if !trace {
        return Ok(e.report(&shape));
    }

    let mut tr = Tracer::default();
    let mut acc = LayerAcc::default();
    let (mut round_bytes, mut round_stats) = (0usize, OptStats::default());
    let deadline = Instant::now() + budget / 2;
    let (mut rounds, mut n) = (0u64, 0u64);
    while rounds == 0 || Instant::now() < deadline {
        for &k in &order {
            let kn = &kernels[k];
            let req = CompileRequest {
                entry: kn.entry.into(),
                args: kn.args.clone(),
                train_args: Some(kn.train.clone()),
                spec: "profile".into(),
                control: "profile".into(),
                fuel: kn.fuel,
                jobs: JOBS,
                ..Default::default()
            };
            let shot = Op {
                root: "specc.invoke",
                input: &kn.input,
                out: &kn.out,
                req: &req,
                reference: Some((kn.entry, &kn.args, kn.fuel)),
                sim: true,
            };
            tr.set_req(n);
            n += 1;
            let op = ctx.start_op();
            fresh(&kn.out);
            let t = match traced(&mut tr, &shot) {
                Ok(t) => t,
                Err(err) => {
                    ctx.fail(op, format!("{}: {err}", kn.name));
                    continue;
                }
            };
            // compile_module's training run, re-run alone so its time can
            // be charged to the profile layer
            let mut m = parse_module(&t.input).map_err(|e| e.to_string())?;
            prepare_module(&mut m);
            let (mut ap, mut ep) = (AliasProfiler::new(), EdgeProfiler::new());
            let t0 = Instant::now();
            run_with(
                &m,
                kn.entry,
                &kn.train,
                kn.fuel,
                &mut Compose(vec![&mut ap, &mut ep]),
            )
            .map_err(|e| format!("{}: training run failed: {e}", kn.name))?;
            tr.derived(t.cm, "profile.train_run", t0.elapsed());
            acc.absorb(&mut tr, t.cm, &t.report);
            acc.parse_bytes += t.input.len() as u64;
            let (got, c) = t.sim.expect("kernels are simulated");
            if format!("{got:?}") != kn.expect || format!("{:?}", t.expect) != kn.expect {
                ctx.fail(
                    op,
                    format!("{}: traced result {got:?} != {}", kn.name, kn.expect),
                );
            }
            let f = firsts[k];
            let traced = [c.cycles, c.loads_retired, c.check_loads, c.failed_checks];
            if traced != sim_rows(&f.sim).map(|r| r.1) || t.output.as_bytes() != f.output {
                ctx.fail(
                    op,
                    format!("{}: traced counters or output differ from specc's", kn.name),
                );
            }
            if rounds == 0 {
                round_bytes += t.output.len();
                round_stats.absorb(&t.report.stats);
            }
        }
        rounds += 1;
    }
    acc.counts
        .insert("ir.output_bytes".into(), round_bytes as f64);
    acc.counts
        .insert("codegen.static_insts".into(), code_insts as f64);
    for (k, v) in stat_rows(&round_stats) {
        acc.counts.insert(format!("core.stats.{k}"), v as f64);
        ctx.count(format!("trace.core.stats.{k}"), v as f64);
    }
    let (mut checks, mut failed) = (0u64, 0u64);
    for (kn, f) in kernels.iter().zip(&firsts) {
        for (c, v) in sim_rows(&f.sim) {
            acc.counts
                .insert(format!("machine.{c}.{}", kn.name), v as f64);
        }
        checks += f.sim.check_loads;
        failed += f.sim.failed_checks;
    }
    acc.counts.insert(
        "machine.misspec_ratio".into(),
        failed as f64 / checks.max(1) as f64,
    );
    finish_trace(ctx, &tr, &acc, "specc.invoke", &e, &shape)
}
