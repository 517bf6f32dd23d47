//! The text layer at scale: printing and parsing are inverse, byte for
//! byte, on generated mega modules and on every golden input; the printer
//! writes exactly what the previous printer (kept below as the reference)
//! wrote wherever that output already read back; and the constants that
//! printer spelled unreadably now round-trip.

use specframe::ir::display::print_module;
use specframe::ir::{
    parse_module, verify_module, BinOp, FuncId, Inst, Module, ModuleBuilder, Operand, Terminator,
    Ty, Value,
};
use specframe::workloads::mega_source;

/// `print(parse(text))`, which must parse and print to itself.
fn fixpoint(text: &str, what: &str) -> (Module, String) {
    let m = parse_module(text).unwrap_or_else(|e| panic!("{what}: {e}"));
    let printed = print_module(&m);
    let again = parse_module(&printed).unwrap_or_else(|e| panic!("{what} reprinted: {e}"));
    assert!(
        print_module(&again) == printed,
        "{what}: print(parse(print)) moved"
    );
    (m, printed)
}

#[test]
fn mega_texts_round_trip_and_match_the_reference_printer() {
    for seed in [1, 42, 2003] {
        let what = format!("mega_source({seed}, 400)");
        let (m, printed) = fixpoint(&mega_source(seed, 400), &what);
        assert!(
            printed == seed_printer::print_module(&m),
            "{what}: printer bytes moved"
        );
    }
}

#[test]
fn golden_inputs_round_trip_and_match_the_reference_printer() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("tests/golden") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "spec") {
            continue;
        }
        // `;` lines are the harness's directives; the rest is the program
        let text = std::fs::read_to_string(&path).expect("golden file");
        let input: String = text
            .lines()
            .filter(|l| !l.trim_start().starts_with(';'))
            .flat_map(|l| [l, "\n"])
            .collect();
        let what = path.display().to_string();
        let (m, printed) = fixpoint(&input, &what);
        assert!(
            printed == seed_printer::print_module(&m),
            "{what}: printer bytes moved"
        );
        seen += 1;
    }
    assert!(seen >= 20, "only {seen} golden inputs found");
}

/// Constants the reference printer already spelled readably keep their
/// exact bytes.
#[test]
fn readable_constants_keep_their_spelling() {
    let mut mb = ModuleBuilder::new();
    let floats = [
        0.5,
        1.0,
        -3.0,
        1e14,
        -99999999999999.0,
        123456.789,
        1e-7,
        2.5e-300,
    ];
    let ints = [0, -1, 7, i64::MAX, i64::MIN + 1];
    // integer literals read back exactly in an f64 global below 2^63
    let big = [1e15, -1e15, 1e18, 9.2e18];
    let init = floats.iter().chain(&big).map(|&x| Value::F(x)).collect();
    mb.global_init("gf", Ty::F64, init);
    mb.global_init("gi", Ty::I64, ints.iter().map(|&x| Value::I(x)).collect());
    let f = mb.declare_func("f", &[("x", Ty::F64)], Some(Ty::F64));
    {
        let mut fb = mb.define(f);
        let mut acc = fb.param(0);
        for x in floats {
            acc = fb.bin(BinOp::FAdd, acc.into(), Operand::ConstF(x));
        }
        for c in ints {
            fb.bin(BinOp::Add, Operand::ConstI(c), Operand::ConstI(c));
        }
        fb.ret(Some(acc.into()));
    }
    let m = mb.finish();
    let printed = print_module(&m);
    assert_eq!(printed, seed_printer::print_module(&m));
    fixpoint(&printed, "readable constants");
}

/// Every `i64` and every finite `f64` reads back bit for bit, in operands,
/// returns, global initializers and address offsets.
#[test]
fn extreme_constants_round_trip() {
    let floats = [
        1e15,
        -1e15,
        1e16,
        1e20,
        -1e300,
        f64::MAX,
        f64::MIN,
        9_223_372_036_854_775_808.0,
        f64::MIN_POSITIVE,
        5e-324,
        -0.0,
        (1u64 << 53) as f64 + 2.0,
    ];
    let ints = [i64::MIN, i64::MAX, i64::MIN + 1, -1];
    let mut mb = ModuleBuilder::new();
    mb.global_init("gf", Ty::F64, floats.iter().map(|&x| Value::F(x)).collect());
    mb.global_init("gi", Ty::I64, ints.iter().map(|&x| Value::I(x)).collect());
    let f = mb.declare_func("f", &[("x", Ty::F64), ("p", Ty::Ptr)], Some(Ty::F64));
    {
        let mut fb = mb.define(f);
        let mut acc = fb.param(0);
        let p = fb.param(1);
        for x in floats {
            acc = fb.bin(BinOp::FAdd, Operand::ConstF(x), acc.into());
        }
        for c in ints {
            fb.bin(BinOp::Add, Operand::ConstI(c), Operand::ConstI(c));
            fb.load(Operand::Var(p), c, Ty::I64);
        }
        fb.ret(Some(Operand::ConstF(1e20)));
    }
    let m = mb.finish();
    let printed = print_module(&m);
    let back = parse_module(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
    verify_module(&back).unwrap_or_else(|e| panic!("{e:?}\n{printed}"));
    assert_eq!(print_module(&back), printed);
    assert_eq!(constants(&back), constants(&m), "{printed}");
    // `fadd 1e15, 1e15` used to read back as an i64 operand
    assert!(printed.contains("fadd 1000000000000000.0, x"), "{printed}");
    assert!(printed.contains("ret 1e20"), "{printed}");
}

/// Bit patterns of every constant in `m`, in textual order.
fn constants(m: &Module) -> Vec<u64> {
    let mut out = Vec::new();
    for g in &m.globals {
        for v in &g.init {
            out.push(match *v {
                Value::I(x) => x as u64,
                Value::F(x) => x.to_bits(),
                Value::Nat => unreachable!(),
            });
        }
    }
    let bits = |o: &Operand| match *o {
        Operand::ConstI(c) => Some(c as u64),
        Operand::ConstF(c) => Some(c.to_bits()),
        _ => None,
    };
    let f = &m.funcs[FuncId(0).index()];
    for b in &f.blocks {
        for inst in &b.insts {
            match inst {
                Inst::Bin { a, b, .. } => out.extend([a, b].into_iter().filter_map(bits)),
                Inst::Load { offset, .. } => out.push(*offset as u64),
                _ => {}
            }
        }
        if let Terminator::Ret(Some(v)) = &b.term {
            out.extend(bits(v));
        }
    }
    out
}

/// The printer as it was before it wrote straight into its buffer: the
/// reference the current printer must match byte for byte.
mod seed_printer {
    use core::fmt::Write;
    use specframe::ir::{Function, Global, Inst, Module, Operand, Terminator, Value};

    /// Renders a whole module in the textual IR syntax.
    pub fn print_module(m: &Module) -> String {
        let mut out = String::new();
        for g in &m.globals {
            write!(out, "global {}: {}[{}]", g.name, g.ty, g.words).unwrap();
            if !g.init.is_empty() {
                out.push_str(" = [");
                for (i, v) in g.init.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    print_value(&mut out, *v);
                }
                out.push(']');
            }
            out.push('\n');
        }
        if !m.globals.is_empty() {
            out.push('\n');
        }
        let names = func_name_table(m);
        for f in &m.funcs {
            print_function_in(&mut out, &m.globals, &names, f);
            out.push('\n');
        }
        out
    }

    fn func_name_table(m: &Module) -> Vec<String> {
        m.funcs.iter().map(|f| f.name.clone()).collect()
    }

    fn print_value(out: &mut String, v: Value) {
        match v {
            Value::I(x) => write!(out, "{x}").unwrap(),
            Value::F(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(out, "{x:.1}").unwrap()
                } else {
                    write!(out, "{x}").unwrap()
                }
            }
            Value::Nat => out.push_str("NaT"),
        }
    }

    fn print_function_in(
        out: &mut String,
        globals: &[Global],
        func_names: &[String],
        f: &Function,
    ) {
        write!(out, "func {}(", f.name).unwrap();
        for i in 0..f.params {
            if i > 0 {
                out.push_str(", ");
            }
            let d = &f.vars[i as usize];
            write!(out, "{}: {}", d.name, d.ty).unwrap();
        }
        out.push(')');
        if let Some(t) = f.ret_ty {
            write!(out, " -> {t}").unwrap();
        }
        out.push_str(" {\n");
        for d in f.vars.iter().skip(f.params as usize) {
            writeln!(out, "  var {}: {}", d.name, d.ty).unwrap();
        }
        for s in &f.slots {
            writeln!(out, "  slot {}: {}[{}]", s.name, s.ty, s.words).unwrap();
        }
        for b in &f.blocks {
            writeln!(out, "{}:", b.name).unwrap();
            for inst in &b.insts {
                out.push_str("  ");
                print_inst(out, globals, func_names, f, inst);
                out.push('\n');
            }
            out.push_str("  ");
            print_term(out, f, &b.term);
            out.push('\n');
        }
        out.push_str("}\n");
    }

    fn opnd(globals: &[Global], f: &Function, o: Operand) -> String {
        match o {
            Operand::Var(v) => f.vars[v.index()].name.clone(),
            Operand::ConstI(c) => format!("{c}"),
            Operand::ConstF(c) => {
                if c.fract() == 0.0 && c.is_finite() && c.abs() < 1e15 {
                    format!("{c:.1}")
                } else {
                    format!("{c}")
                }
            }
            Operand::GlobalAddr(g) => format!("@{}", globals[g.index()].name),
            Operand::SlotAddr(s) => format!("&{}", f.slots[s.index()].name),
        }
    }

    fn addr(globals: &[Global], f: &Function, base: Operand, offset: i64) -> String {
        let b = opnd(globals, f, base);
        if offset == 0 {
            format!("[{b}]")
        } else if offset > 0 {
            format!("[{b} + {offset}]")
        } else {
            format!("[{b} - {}]", -offset)
        }
    }

    fn print_inst(
        out: &mut String,
        globals: &[Global],
        func_names: &[String],
        f: &Function,
        inst: &Inst,
    ) {
        let vname = |v: specframe::ir::VarId| f.vars[v.index()].name.clone();
        match inst {
            Inst::Bin { dst, op, a, b } => write!(
                out,
                "{} = {} {}, {}",
                vname(*dst),
                op,
                opnd(globals, f, *a),
                opnd(globals, f, *b)
            )
            .unwrap(),
            Inst::Un { dst, op, a } => {
                write!(out, "{} = {} {}", vname(*dst), op, opnd(globals, f, *a)).unwrap()
            }
            Inst::Copy { dst, src } => {
                write!(out, "{} = {}", vname(*dst), opnd(globals, f, *src)).unwrap()
            }
            Inst::Load {
                dst,
                base,
                offset,
                ty,
                spec,
                ..
            } => write!(
                out,
                "{} = load{}.{} {}",
                vname(*dst),
                spec.suffix(),
                ty,
                addr(globals, f, *base, *offset)
            )
            .unwrap(),
            Inst::Store {
                base,
                offset,
                val,
                ty,
                ..
            } => write!(
                out,
                "store.{} {}, {}",
                ty,
                addr(globals, f, *base, *offset),
                opnd(globals, f, *val)
            )
            .unwrap(),
            Inst::CheckLoad {
                dst,
                base,
                offset,
                ty,
                kind,
                ..
            } => write!(
                out,
                "{} = {}.{} {}",
                vname(*dst),
                kind.mnemonic(),
                ty,
                addr(globals, f, *base, *offset)
            )
            .unwrap(),
            Inst::Call {
                dst, callee, args, ..
            } => {
                if let Some(d) = dst {
                    write!(out, "{} = ", vname(*d)).unwrap();
                }
                write!(out, "call {}(", func_names[callee.index()]).unwrap();
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&opnd(globals, f, *a));
                }
                out.push(')');
            }
            Inst::Alloc { dst, words, .. } => {
                write!(out, "{} = alloc {}", vname(*dst), opnd(globals, f, *words)).unwrap()
            }
        }
    }

    fn print_term(out: &mut String, f: &Function, t: &Terminator) {
        match t {
            Terminator::Jump(b) => write!(out, "jmp {}", f.blocks[b.index()].name).unwrap(),
            Terminator::Br { cond, then_, else_ } => {
                let c = match cond {
                    Operand::Var(v) => f.vars[v.index()].name.clone(),
                    Operand::ConstI(c) => format!("{c}"),
                    _ => unreachable!("br condition must be var or int const"),
                };
                write!(
                    out,
                    "br {}, {}, {}",
                    c,
                    f.blocks[then_.index()].name,
                    f.blocks[else_.index()].name
                )
                .unwrap()
            }
            Terminator::Ret(None) => out.push_str("ret"),
            Terminator::Ret(Some(v)) => {
                let s = match v {
                    Operand::Var(x) => f.vars[x.index()].name.clone(),
                    Operand::ConstI(c) => format!("{c}"),
                    Operand::ConstF(c) => format!("{c:?}"),
                    _ => unreachable!("ret value must be var or const"),
                };
                write!(out, "ret {s}").unwrap()
            }
        }
    }
}
