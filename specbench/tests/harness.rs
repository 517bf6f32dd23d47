//! The benchmark's own checks: its generators are deterministic per seed,
//! edits move the compile cache the way the workloads assume, and the
//! `specc` outputs it reads still parse.

use specbench::gen::{apply_edit, mega_input, EditPlan, EditStream, GLOBAL_EDIT_PERIOD};
use specbench::parse::{parse_ok_line, parse_sim_block};
use specbench::{per_layer, stats, END_TO_END};
use specframe::pipeline::{compile, render_sim_counters, CompileRequest};
use specframe::prelude::*;
use specframe::serve::{handle_request, ServeConfig};
use std::path::PathBuf;

const FUNCS: usize = 40;

/// A fresh directory under Cargo's per-test scratch area.
fn scratch(name: &str) -> PathBuf {
    let d = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn cached_request(dir: &std::path::Path) -> CompileRequest {
    CompileRequest {
        spec: "heuristic".into(),
        control: "static".into(),
        train_args: Some(Vec::new()),
        jobs: 2,
        cache_dir: Some(dir.to_path_buf()),
        ..Default::default()
    }
}

#[test]
fn generators_are_deterministic_per_seed() {
    assert_eq!(mega_input(5, FUNCS), mega_input(5, FUNCS));
    assert_ne!(mega_input(5, FUNCS), mega_input(6, FUNCS));
    let a: Vec<EditPlan> = EditStream::new(5, FUNCS).take(60).collect();
    let b: Vec<EditPlan> = EditStream::new(5, FUNCS).take(60).collect();
    let c: Vec<EditPlan> = EditStream::new(6, FUNCS).take(60).collect();
    assert_eq!(a, b);
    assert_ne!(a, c);
    let base = mega_input(5, FUNCS);
    for p in &a {
        assert_eq!(apply_edit(&base, p), apply_edit(&base, p));
    }
}

#[test]
fn one_request_in_each_period_edits_a_global() {
    let plans: Vec<EditPlan> = EditStream::new(9, FUNCS)
        .take(5 * GLOBAL_EDIT_PERIOD)
        .collect();
    for block in plans.chunks(GLOBAL_EDIT_PERIOD) {
        assert_eq!(block.iter().filter(|p| p.global_edit.is_some()).count(), 1);
    }
    for p in &plans {
        assert!((1..=4).contains(&p.body_edits.len()));
    }
}

#[test]
fn edited_modules_parse_and_verify() {
    let base = mega_input(3, FUNCS);
    for p in EditStream::new(3, FUNCS).take(2 * GLOBAL_EDIT_PERIOD) {
        let text = apply_edit(&base, &p);
        assert_ne!(text, base);
        let m = parse_module(&text).expect("edited module parses");
        verify_module(&m).expect("edited module verifies");
    }
}

#[test]
fn body_edit_misses_exactly_the_edited_functions() {
    let dir = scratch("body_edit");
    let base = mega_input(11, FUNCS);
    let req = cached_request(&dir);
    let cold = compile(&base, &req).unwrap();
    assert_eq!(cold.report.cache.misses, FUNCS as u64 + 1);
    let plan = EditPlan {
        body_edits: vec![(2, 5), (17, 1), (30, 8)],
        global_edit: None,
    };
    let warm = compile(&apply_edit(&base, &plan), &req).unwrap();
    assert_eq!(warm.report.cache.misses, 3);
    assert_eq!(warm.report.cache.hits, FUNCS as u64 + 1 - 3);
}

#[test]
fn global_edit_misses_every_function() {
    let dir = scratch("global_edit");
    let base = mega_input(12, FUNCS);
    let req = cached_request(&dir);
    compile(&base, &req).unwrap();
    let plan = EditPlan {
        body_edits: vec![(4, 2)],
        global_edit: Some((7, 1234)),
    };
    let warm = compile(&apply_edit(&base, &plan), &req).unwrap();
    assert_eq!(warm.report.cache.hits, 0);
    assert_eq!(warm.report.cache.misses, FUNCS as u64 + 1);
}

#[test]
fn sim_counter_block_parses() {
    let c = Counters {
        cycles: 1234,
        loads_retired: 56,
        check_loads: 7,
        failed_checks: 1,
        ..Default::default()
    };
    let text = render_sim_counters("default", Some(Value::I(-9)), &c);
    let b = parse_sim_block(&format!("specc: warning: x\n{text}")).unwrap();
    assert_eq!(b.result, "Some(I(-9))");
    assert_eq!(
        (b.cycles, b.loads_retired, b.check_loads, b.failed_checks),
        (1234, 56, 7, 1)
    );
    assert!(parse_sim_block("result = None\n").is_err());
}

#[test]
fn serve_ok_line_parses() {
    let dir = scratch("ok_line");
    let input = dir.join("in.ir");
    std::fs::write(&input, mega_input(13, FUNCS)).unwrap();
    let cfg = ServeConfig {
        base: cached_request(&dir.join("cache")),
        verbose: false,
    };
    let mut resp = String::new();
    handle_request(&cfg, &format!("compile {}", input.display()), &mut resp);
    let ok = parse_ok_line(&resp).unwrap();
    assert_eq!(
        (ok.funcs, ok.hits, ok.misses),
        (FUNCS as u64 + 1, 0, FUNCS as u64 + 1)
    );
    let mut resp = String::new();
    handle_request(&cfg, &format!("compile {}", input.display()), &mut resp);
    let ok = parse_ok_line(&resp).unwrap();
    assert_eq!((ok.hits, ok.misses, ok.stale), (FUNCS as u64 + 1, 0, 0));
    assert!(parse_ok_line("err in=compile:x code=1 msg=nope").is_err());
}

#[test]
fn tail_is_the_highest_percentile_with_ten_beyond() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(stats::tail(&xs, 10), Some((90.0, 89)));
    assert_eq!(stats::tail(&xs[..10], 10), None);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    assert!((stats::geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    let names = |section: &str| -> Vec<String> {
        let start = json.find(&format!("\"{section}\"")).unwrap();
        let body = &json[start..start + json[start..].find(']').unwrap()];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    };
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names("end_to_end"), e2e);
    let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names("per_layer"), layers);
}

#[test]
fn mega_modules_are_sized_by_instructions() {
    use specframe::workloads::mega_source;
    // the sizing relies on shorter modules being prefixes of longer ones
    let long = mega_source(21, 60);
    assert!(long.starts_with(&mega_source(21, 45)));
    let n = specbench::gen::mega_funcs_for_insts(21, 3000);
    let count = |funcs| inst_count(&parse_module(&mega_source(21, funcs)).unwrap());
    assert!(count(n) <= 3000 && count(n + 1) > 3000, "{n}");
}
