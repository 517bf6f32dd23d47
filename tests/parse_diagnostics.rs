//! Pinned parser diagnostics: each input holds exactly one error, and the
//! parser must report it with this exact `(line, msg)`. Together the cases
//! reach every reachable `ParseError` path in `crates/ir/src/parse.rs`.

use specframe::ir::parse_module;

/// `(input, line, msg)`.
const CASES: &[(&str, u32, &str)] = &[
    // lexer
    (
        "func f() {\nentry:\n  ret $\n}\n",
        3,
        "unexpected character `$`",
    ),
    (
        "global g: i64[1] = [99999999999999999999]\n",
        1,
        "bad int literal `99999999999999999999`",
    ),
    (
        "func f() -> f64 {\nentry:\n  ret 1.5e+\n}\n",
        3,
        "bad float literal `1.5e+`",
    ),
    // expected-X-found-Y, one per token kind and end of input
    (
        "global g i64[1]\n",
        1,
        "expected `:`, found Some(Ident(\"i64\"))",
    ),
    ("global g -> i64[1]\n", 1, "expected `:`, found Some(Arrow)"),
    (
        "func 5() {\n}\n",
        1,
        "expected identifier, found Some(Int(5))",
    ),
    (
        "func f() -> {\nentry:\n  ret\n}\n",
        2,
        "expected identifier, found Some(Punct('{'))",
    ),
    ("func f(\n", 1, "expected identifier, found None"),
    (
        "global g: i64[x]\n",
        1,
        "expected integer, found Some(Ident(\"x\"))",
    ),
    (
        "global g: i64[1.5]\n",
        1,
        "expected integer, found Some(Float(1.5))",
    ),
    (
        "global g: i64[2] = [1, x]\n",
        1,
        "expected value, found Some(Ident(\"x\"))",
    ),
    (
        "func f() -> i64 {\nentry:\n  ret - x\n}\n",
        4,
        "expected literal after `-`, found Some(Ident(\"x\"))",
    ),
    (
        "func f() {\n  var x: i64\nentry:\n  x = add , 1\n  ret\n}\n",
        4,
        "expected operand, found Some(Punct(','))",
    ),
    (
        "var x: i64\n",
        1,
        "expected `global` or `func` at top level",
    ),
    // unknown names
    ("global g: i32[1]\n", 1, "unknown type `i32`"),
    (
        "func f() {\n  var x: i64\nentry:\n  x = add y, 1\n  ret\n}\n",
        4,
        "unknown var `y`",
    ),
    (
        "func f() {\nentry:\n  y = 1\n  ret\n}\n",
        3,
        "unknown var `y`",
    ),
    (
        "func f() {\n  var x: i64\nentry:\n  x = load.i64 [@nog]\n  ret\n}\n",
        4,
        "unknown global `nog`",
    ),
    (
        "func f() {\n  var x: i64\nentry:\n  x = load.i64 [&buf]\n  ret\n}\n",
        4,
        "unknown slot `buf`",
    ),
    (
        "func f() {\nentry:\n  call nope()\n  ret\n}\n",
        3,
        "unknown function `nope`",
    ),
    (
        "func f() {\nentry:\n  jmp nowhere\n}\n",
        4,
        "unknown block `nowhere`",
    ),
    (
        "global g: i64[1]\nfunc f() {\nentry:\n  store.i32 [@g], 1\n  ret\n}\n",
        4,
        "bad store type `i32`",
    ),
    (
        "global g: i64[1]\nfunc f() {\n  var x: i64\nentry:\n  x = load.i32 [@g]\n  ret\n}\n",
        5,
        "bad load type",
    ),
    (
        "global g: i64[1]\nfunc f() {\n  var x: i64\nentry:\n  x = ldc.i32 [@g]\n  ret\n}\n",
        5,
        "bad check type",
    ),
    // duplicates
    (
        "global g: i64[1]\nglobal g: i64[2]\n",
        2,
        "duplicate global `g`",
    ),
    (
        "func f() {\nentry:\n  ret\n}\nfunc f() {\nentry:\n  ret\n}\n",
        8,
        "duplicate function `f`",
    ),
    (
        "func f(a: i64) {\n  var a: i64\nentry:\n  ret\n}\n",
        3,
        "duplicate var `a`",
    ),
    (
        "func f() {\n  slot s: i64[1]\n  slot s: i64[2]\nentry:\n  ret\n}\n",
        4,
        "duplicate slot `s`",
    ),
    (
        "func f() {\nentry:\n  jmp entry\nentry:\n  ret\n}\n",
        5,
        "duplicate block `entry`",
    ),
    // block structure
    (
        "func f() {\nentry:\n  jmp b\nb:\nc:\n  ret\n}\n",
        5,
        "block falls through without terminator",
    ),
    (
        "func f() {\nentry:\n  ret\n  jmp entry\n}\n",
        4,
        "statement after block terminator",
    ),
    (
        "func f() {\n  ret\n}\n",
        2,
        "statement before first block label",
    ),
    (
        "func f() {\nentry:\n}\n",
        3,
        "last block lacks a terminator",
    ),
    (
        "func f() {\n}\nfunc g() {\nentry:\n  ret\n}\n",
        3,
        "function has no blocks",
    ),
    // declarations and bodies
    (
        "func f() {\nentry:\n  ret\n",
        3,
        "unterminated function body",
    ),
    ("global g: i64[-1]\n", 1, "negative global size"),
    (
        "global g: i64[1] = [1, 2]\n",
        1,
        "initializer longer than global",
    ),
    (
        "global g: i64[1]\nfunc f() {\nentry:\n  store [@g], 1\n  ret\n}\n",
        4,
        "`store` needs a type suffix, e.g. `store.i64`",
    ),
];

#[test]
fn each_single_error_input_reports_its_pinned_line_and_message() {
    let mut wrong = Vec::new();
    for &(src, line, msg) in CASES {
        match parse_module(src) {
            Ok(_) => wrong.push(format!("{src:?}: parsed, wanted line {line}: {msg}")),
            Err(e) if (e.line, e.msg.as_str()) != (line, msg) => {
                wrong.push(format!("{src:?}: got ({}, {:?})", e.line, e.msg));
            }
            Err(_) => {}
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// A slot or global size must fit a `u32`; anything else is an error on
/// the declaring line, not a silently truncated size.
#[test]
fn out_of_range_sizes_are_rejected_on_the_declaring_line() {
    let cases = [
        (
            "func f() {\n  slot b: i64[-1]\nentry:\n  ret\n}\n",
            2,
            "negative slot size",
        ),
        (
            "func f() {\n  slot b: i64[4294967296]\nentry:\n  ret\n}\n",
            2,
            "slot size 4294967296 exceeds 4294967295",
        ),
        (
            "global h: i64[1]\nglobal g: i64[4294967297]\n",
            2,
            "global size 4294967297 exceeds 4294967295",
        ),
    ];
    for (src, line, msg) in cases {
        let e = parse_module(src).unwrap_err();
        assert_eq!((e.line, e.msg.as_str()), (line, msg), "{src:?}");
    }
    let m = parse_module("global g: i64[4294967295]\n").unwrap();
    assert_eq!(m.globals[0].words, u32::MAX);
}
