//! A golden RUN line is a `specc` command: run verbatim through the built
//! binary, with `%s` replaced by a file holding the case's IR, every line
//! exits 0 and produces exactly the text the golden harness checks, minus
//! its `; warning:` lines (specc prints those on stderr). The product is
//! stdout for IR, pass dumps and `--emit mach`, and the stderr counter
//! block for `--sim`.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn every_golden_run_line_is_a_specc_command() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let scratch = std::env::temp_dir().join(format!("specc-run-lines-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    let mut checked = 0;
    for path in spectest::discover(&[golden]).unwrap() {
        let case = spectest::parse_spec(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let ir = scratch.join(path.file_stem().unwrap()).with_extension("ir");
        std::fs::write(&ir, &case.input).unwrap();
        for (inv, cmd) in case.runs.iter().zip(&case.run_lines) {
            let want: String = spectest::runner::execute_run(&case.input, inv, false)
                .unwrap_or_else(|e| panic!("{}: `{cmd}`: {e}", path.display()))
                .split_inclusive('\n')
                .filter(|l| !l.starts_with("; warning:"))
                .collect();
            let argv = cmd.split_whitespace().skip(1).map(|t| match t {
                "%s" => ir.as_os_str().to_owned(),
                t => t.into(),
            });
            let out = Command::new(env!("CARGO_BIN_EXE_specc"))
                .args(argv)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{}: `{cmd}` exited {:?}: {stderr}",
                path.display(),
                out.status.code()
            );
            let got: String = if inv.sim {
                stderr
                    .split_inclusive('\n')
                    .filter(|l| !l.starts_with("specc: "))
                    .collect()
            } else {
                String::from_utf8_lossy(&out.stdout).into_owned()
            };
            assert_eq!(got, want, "{}: `{cmd}`", path.display());
            checked += 1;
        }
    }
    std::fs::remove_dir_all(&scratch).ok();
    assert_eq!(checked, 38, "golden RUN lines checked");
}
