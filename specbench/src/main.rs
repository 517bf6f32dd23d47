//! `specbench` — runs one benchmark workload against the real `specc`
//! binary and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path specbench/Cargo.toml -- \
//!     --workload mega_oneshot|serve_edit|kernels_sim \
//!     --seed N|heldout --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root: it builds `specc` from the sources
//! there (`cargo build --release`, honouring `CARGO_TARGET_DIR`) and keeps
//! its scratch files, traces and count ledgers under
//! `<target dir>/specbench/`. With `--trace 0` it measures the end-to-end
//! metrics from outside the process; with `--trace 1` it also calls each
//! layer's public functions in-process and reports per-layer metrics. The
//! last line of stdout is one JSON object; the lines before it are a
//! human-readable table with the provenance of every number.

mod drive;

use specbench::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// A seed no tuning run used: re-check a claimed gain with
/// `--seed heldout` on inputs its change was not tuned on.
const HELD_OUT_SEED: u64 = 0x00d0_5eed;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => {
                let v = val()?;
                seed = Some(if v == "heldout" {
                    HELD_OUT_SEED
                } else {
                    v.parse().map_err(|e| format!("bad --seed `{v}`: {e}"))?
                });
            }
            "--seconds" => {
                let v = val()?;
                seconds = Some(v.parse().map_err(|e| format!("bad --seconds `{v}`: {e}"))?);
            }
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` ({WORKLOADS:?})"));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Builds `specc` from the repository in the working directory.
fn build_specc(target_dir: &Path) -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("src/bin/specc.rs").is_file() {
        return Err("run from the specframe repository root (no src/bin/specc.rs here)".into());
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "specc",
        ])
        .args(["-p", "specframe", "--manifest-path", "Cargo.toml"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building specc failed ({status})"));
    }
    let bin = target_dir.join("release").join("specc");
    if !bin.is_file() {
        return Err(format!("{} was not built", bin.display()));
    }
    Ok(bin)
}

/// FNV-1a over the compiler's and the benchmark's sources, so runs of one
/// tree are recognised even in a checkout that is not a git repository.
fn source_hash() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("src"), &mut files);
    walk(Path::new("crates"), &mut files);
    walk(Path::new("specbench"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn git_revision() -> String {
    // only a repository rooted here counts, not one the checkout sits in
    let parent = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", parent)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

fn run(args: &Args, src_hash: u64) -> Result<drive::Report, String> {
    let target_dir =
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()));
    let specc = build_specc(&target_dir)?;
    let out_dir = target_dir.join("specbench");
    let work = out_dir.join(format!("work-{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let mut ctx = drive::Ctx::new(&args.workload, specc, work.clone(), out_dir, args.seed);
    let budget = std::time::Duration::from_secs(args.seconds);
    let report = match args.workload.as_str() {
        "mega_oneshot" => drive::mega_oneshot(&mut ctx, budget, args.trace),
        "serve_edit" => drive::serve_edit(&mut ctx, budget, args.trace),
        _ => drive::kernels_sim(&mut ctx, budget, args.trace),
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut report = report?;
    ctx.check_ledger(src_hash);
    report.attempted = ctx.attempted;
    report.failed = ctx.failed;
    report.errors = std::mem::take(&mut ctx.errors);
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("specbench: {e}");
            return ExitCode::from(2);
        }
    };
    let src_hash = source_hash();
    let report = match run(&args, src_hash) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("specbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let prov = format!(
        "nproc={nproc} jobs={} seed={} {} rev={} src={:016x} samples={} tail={}",
        drive::JOBS,
        args.seed,
        report.input_shape,
        git_revision(),
        src_hash,
        report.samples,
        report.tail_label,
    );
    println!(
        "# workload {} trace={}",
        args.workload,
        u8::from(args.trace)
    );
    println!("# provenance: {prov}");
    for (name, value, unit) in &report.metrics {
        println!("{:<14} {name:<34} {value:>16.4} {unit}", args.workload);
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "{:<14} {:<34} {error_rate:>16.4} ratio ({} failed of {} attempted)",
        args.workload, "error_rate", report.failed, report.attempted
    );
    let correct = report.failed == 0 && report.errors.is_empty() && report.attempted > 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// A JSON number with every digit Rust keeps (shortest round-trip form).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
