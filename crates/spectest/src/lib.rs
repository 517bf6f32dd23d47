//! # spectest
//!
//! A FileCheck-lite golden-test harness for the speculative pipeline.
//!
//! A golden test is a single `.spec` file containing a textual-IR program
//! interleaved with `;`-prefixed directives:
//!
//! ```text
//! ; RUN: specc %s --spec heuristic --control static --dump-after=ssapre
//! ;
//! ; Pins speculative PRE insertion (paper §4, Appendix A).
//!
//! func f(a: i64, b: i64, sel: i64) -> i64 {
//!   ...
//! }
//!
//! ; CHECK: dump-after ssapre: func f
//! ; CHECK: nothave:
//! ; CHECK-NEXT: x2 = 0
//! ; CHECK: pre0{{.*}} = add a0, b0
//! ; CHECK-NOT: y1 = add
//! ```
//!
//! * `; RUN: specc %s …` says how to produce the output under test. The
//!   command is a `specc` argv, parsed by `specc`'s own flag table
//!   (`specframe::args`) under `specc`'s defaults, and run **in process**
//!   against the `specframe` library — no subprocess is spawned, so the
//!   suite is hermetic and offline.
//!   `%s` stands for the file's own IR content (every `;` line stripped;
//!   `#` comments are the IR's own and pass through). With `--dump-after`
//!   the output is the pass-dump stream; otherwise it is the optimized
//!   module. Multiple RUN lines concatenate their outputs in order.
//! * `; CHECK: pat` — scan forward for a line containing `pat`.
//! * `; CHECK-NEXT: pat` — the line immediately after the previous match.
//! * `; CHECK-NOT: pat` — must not appear before the next positive match
//!   (or end of output).
//! * `; CHECK-DAG: pat` — consecutive `CHECK-DAG`s match in any order.
//!
//! Patterns are literal after whitespace normalization (runs of blanks
//! compare equal), except `{{…}}`, which matches any — possibly empty —
//! run of characters within the line.
//!
//! The `spectest` binary discovers `tests/golden/*.spec`, runs every case
//! and reports failures with the searched output region; `ci.sh` runs it
//! as part of the tier-1 gate. To author a new test, write the IR and RUN
//! line, then `spectest --dump FILE` to see the exact output and pick the
//! lines worth pinning.

pub mod matcher;
pub mod runner;

pub use matcher::{run_checks, CheckKind, Directive, MatchFailure};
pub use runner::{discover, parse_spec, run_case, CaseOutcome, SpecCase};
