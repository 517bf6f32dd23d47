//! The specframe benchmark: seeded workloads that drive the real `specc`
//! binary end to end, plus a traced in-process run that calls each
//! layer's public functions in the order `specc` calls them. See
//! `specbench/README.md` for why each workload exists.

pub mod gen;
pub mod parse;
pub mod proc;
pub mod stats;
pub mod trace;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["mega_oneshot", "serve_edit", "kernels_sim"];

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("funcs_per_s", "funcs/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles.geomean", "cycles"),
    ("loads_retired.geomean", "loads"),
    ("code_insts.total", "insts"),
];

/// The `all_workloads(Scale::Reference)` kernels, alphabetically.
pub const KERNELS: [&str; 9] = [
    "ammp",
    "art",
    "equake_smvp",
    "gzip",
    "many_funcs",
    "mcf",
    "parser",
    "twolf",
    "vpr",
];

/// Per-pass rows of `PassTimings` reported as summed worker CPU time.
pub const PASS_ROWS: [&str; 10] = [
    "ssapre",
    "hssa-build",
    "refine",
    "strength",
    "lftr",
    "verify",
    "lower",
    "analyses",
    "module-verify",
    "cache",
];

/// Span self times, in ms per operation. Together with
/// `bench.unattributed_ms` they add up to `latency_ms.p50`.
pub const SELF_TIME_SPANS: [&str; 14] = [
    "bench.read",
    "ir.parse",
    "ir.verify",
    "core.prepare",
    "profile.ref_run",
    "pipeline.compile_module",
    "profile.train_run",
    "core.optimize",
    "alias.analyze",
    "codegen.lower",
    "machine.sim",
    "ir.print",
    "serve.write",
    "bench.root_self",
];

/// Per-layer metrics `(name, unit)`, printed by every traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for s in SELF_TIME_SPANS {
        v.push((format!("{s}_ms"), "ms"));
    }
    for m in [
        "specc.invoke_ms",
        "serve.request_ms",
        "bench.unattributed_ms",
        "core.optimize_wall_ms",
    ] {
        v.push((m.to_string(), "ms"));
    }
    for p in PASS_ROWS {
        v.push((format!("core.pass.{p}_cpu_ms"), "ms"));
    }
    v.push(("core.dom_computes".into(), "count"));
    v.push(("ir.parse_mb_per_s".into(), "MB/s"));
    v.push(("ir.output_bytes".into(), "bytes"));
    for (m, u) in [
        ("cache.hits", "count"),
        ("cache.misses", "count"),
        ("cache.stale", "count"),
        ("cache.hit_ratio", "ratio"),
        ("cache.entries", "count"),
        ("cache.bytes", "bytes"),
    ] {
        v.push((m.into(), u));
    }
    for c in ["cycles", "loads_retired", "check_loads", "failed_checks"] {
        for k in KERNELS {
            v.push((format!("machine.{c}.{k}"), "count"));
        }
    }
    v.push(("machine.misspec_ratio".into(), "ratio"));
    for s in [
        "loads_removed",
        "checks",
        "advanced_loads",
        "control_spec_loads",
        "spec_fallbacks",
    ] {
        v.push((format!("core.stats.{s}"), "count"));
    }
    v.push(("codegen.static_insts".into(), "insts"));
    v
}
