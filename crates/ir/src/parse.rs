//! Textual IR parser.
//!
//! The grammar mirrors the printer in [`crate::display`]:
//!
//! ```text
//! module   := (global | func)*
//! global   := "global" NAME ":" ty "[" INT "]" ("=" "[" value,* "]")?
//! func     := "func" NAME "(" (NAME ":" ty),* ")" ("->" ty)? "{" decl* block+ "}"
//! decl     := "var" NAME ":" ty | "slot" NAME ":" ty "[" INT "]"
//! block    := NAME ":" stmt*
//! stmt     := NAME "=" rhs | "store" "." ty addr "," operand
//!           | "call" NAME "(" operand,* ")"
//!           | "jmp" NAME | "br" operand "," NAME "," NAME | "ret" operand?
//! rhs      := binop operand "," operand | unop operand
//!           | ("load"|"load.a"|"load.s"|"ldc"|"chks") "." ty addr
//!           | "call" NAME "(" operand,* ")" | "alloc" operand | operand
//! addr     := "[" operand (("+"|"-") INT)? "]"
//! operand  := NAME | "@" NAME | "&" NAME | INT | FLOAT
//! ```
//!
//! Comments run from `#` to end of line. Site ids are assigned fresh in
//! textual order.
//!
//! Cost is linear in the input. Tokens are slices of the source, lexed on
//! demand with two tokens of lookahead, and every name resolves through a
//! hash table keyed by those slices. Pass 1 reads the globals and function
//! headers and skips each body with a byte scan to its closing `}`; pass 2
//! parses each body from where pass 1 found it.

use crate::function::{Function, Global, Module, SlotDecl, VarDecl};
use crate::fx::FxHashMap;
use crate::ids::{BlockId, FuncId, GlobalId, SlotId, VarId};
use crate::inst::{BinOp, CheckKind, Inst, LoadSpec, Operand, Terminator, UnOp};
use crate::types::{Ty, Value};

/// A parse failure, with a 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending token.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    /// An integer literal's magnitude. `-` is a token of its own, so the
    /// lexer admits `2^63`, which only fits an `i64` once negated.
    Int(u64),
    Float(f64),
    Punct(char),
    Arrow,
}

/// Streaming lexer: yields one token at a time, borrowed from the source.
struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    /// Byte offset of the token last returned.
    tok_start: usize,
    /// The first lexical error; the lexer yields nothing after it.
    err: Option<ParseError>,
}

impl<'a> Lexer<'a> {
    /// The next token and its line; `None` at the end or after an error.
    fn next(&mut self) -> Option<(Tok<'a>, u32)> {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            let start = self.pos;
            self.pos += 1;
            let tok = match b {
                b'\n' => {
                    self.line += 1;
                    continue;
                }
                b' ' | b'\t' | b'\r' => continue,
                b'#' => {
                    self.pos = bytes[start..]
                        .iter()
                        .position(|&c| c == b'\n')
                        .map_or(bytes.len(), |n| start + n);
                    continue;
                }
                b'-' if bytes.get(self.pos) == Some(&b'>') => {
                    self.pos += 1;
                    Tok::Arrow
                }
                b'(' | b')' | b'{' | b'}' | b'[' | b']' | b',' | b':' | b'@' | b'&' | b'='
                | b'+' | b'-' => Tok::Punct(b as char),
                b'0'..=b'9' => self.number(start)?,
                b if b.is_ascii_alphabetic() || b == b'_' || b == b'.' => {
                    let word = |c: &&u8| c.is_ascii_alphanumeric() || **c == b'_' || **c == b'.';
                    self.pos += bytes[self.pos..].iter().take_while(word).count();
                    Tok::Ident(&self.src[start..self.pos])
                }
                other => {
                    return self.fail(format!("unexpected character `{}`", other as char));
                }
            };
            self.tok_start = start;
            return Some((tok, self.line));
        }
        None
    }

    /// Lexes the numeric literal starting at `start`.
    fn number(&mut self, start: usize) -> Option<Tok<'a>> {
        let bytes = self.src.as_bytes();
        let digit_at = |i: usize| bytes.get(i).is_some_and(u8::is_ascii_digit);
        let mut is_float = false;
        let mut i = start;
        while let Some(&d) = bytes.get(i) {
            if d.is_ascii_digit() {
                i += 1;
            } else if d == b'.' && digit_at(i + 1) {
                is_float = true;
                i += 1;
            } else if (d == b'e' || d == b'E')
                && (digit_at(i + 1) || matches!(bytes.get(i + 1), Some(b'-' | b'+')))
            {
                is_float = true;
                i += 2;
            } else {
                break;
            }
        }
        self.pos = i;
        let text = &self.src[start..i];
        if is_float {
            match text.parse() {
                Ok(v) => Some(Tok::Float(v)),
                Err(_) => self.fail(format!("bad float literal `{text}`")),
            }
        } else {
            match text.parse::<u64>() {
                Ok(v) if v <= 1 << 63 => Some(Tok::Int(v)),
                _ => self.fail(format!("bad int literal `{text}`")),
            }
        }
    }

    fn fail<T>(&mut self, msg: String) -> Option<T> {
        self.err = Some(ParseError {
            line: self.line,
            msg,
        });
        self.pos = self.src.len();
        None
    }
}

struct Parser<'a> {
    lex: Lexer<'a>,
    /// The next unconsumed token, lexed eagerly; `None` at the end.
    tok: Option<Tok<'a>>,
    /// Its line, or at the end the last token's line: where errors point.
    line: u32,
    /// The token after `tok`, once something looked that far.
    second: Option<(Option<Tok<'a>>, u32)>,
}

impl<'a> Parser<'a> {
    /// A parser starting at byte `pos` of `src`, which is on `line`.
    fn new(src: &'a str, pos: usize, line: u32) -> Self {
        let lex = Lexer {
            src,
            pos,
            line,
            tok_start: pos,
            err: None,
        };
        let mut p = Parser {
            lex,
            tok: None,
            line,
            second: None,
        };
        p.next();
        p
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.tok
    }

    /// The token after the next one.
    fn peek2(&mut self) -> Option<Tok<'a>> {
        let line = self.line;
        let lex = &mut self.lex;
        self.second
            .get_or_insert_with(|| lex.next().map_or((None, line), |(t, l)| (Some(t), l)))
            .0
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.tok;
        let (tok, line) = match self.second.take() {
            Some(s) => s,
            None => self
                .lex
                .next()
                .map_or((None, self.line), |(t, l)| (Some(t), l)),
        };
        self.tok = tok;
        self.line = line;
        t
    }

    /// An error at the next unconsumed token; a lexical error found on the
    /// way there wins, since it cut the parser's input short.
    fn err(&self, msg: impl Into<String>) -> ParseError {
        self.lex.err.clone().unwrap_or(ParseError {
            line: self.line,
            msg: msg.into(),
        })
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Punct(p)) if p == c => Ok(()),
            other => Err(self.err(format!("expected `{c}`, found {other:?}"))),
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        let hit = self.peek() == Some(Tok::Punct(c));
        if hit {
            self.next();
        }
        hit
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn ty(&mut self) -> Result<Ty, ParseError> {
        let s = self.ident()?;
        ty_by_name(s).ok_or_else(|| self.err(format!("unknown type `{s}`")))
    }

    /// An integer with an optional `-`, negated once more if `neg`.
    fn int(&mut self, neg: bool) -> Result<i64, ParseError> {
        let neg = neg ^ self.eat_punct('-');
        match self.next() {
            Some(Tok::Int(v)) => self.signed(v, neg),
            other => Err(self.err(format!("expected integer, found {other:?}"))),
        }
    }

    /// The `i64` a literal's magnitude and sign spell.
    fn signed(&self, v: u64, neg: bool) -> Result<i64, ParseError> {
        if neg {
            Ok((v as i64).wrapping_neg())
        } else {
            i64::try_from(v).map_err(|_| self.err(format!("bad int literal `{v}`")))
        }
    }

    /// A declared size, `[` INT `]`, which must fit a `u32`.
    fn size(&mut self, what: &str) -> Result<u32, ParseError> {
        self.expect_punct('[')?;
        let n = self.int(false)?;
        let words = match u32::try_from(n) {
            Ok(w) => w,
            Err(_) if n < 0 => return Err(self.err(format!("negative {what} size"))),
            Err(_) => {
                return Err(self.err(format!("{what} size {n} exceeds {}", u32::MAX)));
            }
        };
        self.expect_punct(']')?;
        Ok(words)
    }

    /// Skips a function body whose `{` was just consumed, with a byte scan
    /// to the matching `}` (`#` comments may hold braces), and returns
    /// where the body starts: the byte offset and line of its first token.
    fn skip_body(&mut self) -> Result<(usize, u32), ParseError> {
        debug_assert!(self.second.is_none(), "headers look one token ahead");
        if self.tok.is_none() {
            return Err(self.err("unterminated function body"));
        }
        let start = (self.lex.tok_start, self.line);
        let body = &self.lex.src.as_bytes()[start.0..];
        let (mut i, mut depth) = (0, 1u32);
        while let Some(n) = body[i..]
            .iter()
            .position(|b| matches!(b, b'{' | b'}' | b'#'))
        {
            i += n;
            match body[i] {
                b'#' => {
                    i += body[i..]
                        .iter()
                        .position(|&c| c == b'\n')
                        .unwrap_or(body.len() - i);
                    continue;
                }
                b'{' => depth += 1,
                _ => depth -= 1,
            }
            i += 1;
            if depth == 0 {
                // resume lexing after the `}`, which is the last token seen
                self.line = start.1 + body[..i].iter().filter(|&&c| c == b'\n').count() as u32;
                self.lex.line = self.line;
                self.lex.pos = start.0 + i;
                self.next();
                return Ok(start);
            }
        }
        // Unterminated: lex the rest, so a lexical error in it, or else the
        // line of the last token, is what gets reported.
        let mut rest = Parser::new(self.lex.src, start.0, start.1);
        while rest.next().is_some() {}
        Err(rest.err("unterminated function body"))
    }
}

/// Every name table the parser resolves against, keyed by source slices.
/// The function-level tables are cleared and reused for each body.
#[derive(Default)]
struct Scope<'a> {
    globals: FxHashMap<&'a str, GlobalId>,
    funcs: FxHashMap<&'a str, FuncId>,
    vars: FxHashMap<&'a str, VarId>,
    slots: FxHashMap<&'a str, SlotId>,
    blocks: FxHashMap<&'a str, BlockId>,
    /// Terminators waiting for the labels of the whole body.
    pending: Vec<(BlockId, PendingTerm<'a>)>,
}

/// Resolves `name` in one of the scope's tables.
fn lookup<'a, T: Copy>(
    p: &Parser<'a>,
    table: &FxHashMap<&'a str, T>,
    name: &str,
    kind: &str,
) -> Result<T, ParseError> {
    table
        .get(name)
        .copied()
        .ok_or_else(|| p.err(format!("unknown {kind} `{name}`")))
}

/// Parses a whole module from its textual form.
///
/// # Errors
/// Returns a [`ParseError`] with the offending line on malformed input,
/// unresolved names, or a slot or global size outside `0..=u32::MAX`.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let mut module = Module::new();
    let mut sc = Scope::default();
    // pass 1: globals and function signatures, so forward references
    // (calls, @globals) resolve; bodies are only located
    let mut p = Parser::new(src, 0, 1);
    let mut bodies = Vec::new();
    let mut params = Vec::new();
    while let Some(t) = p.peek() {
        match t {
            Tok::Ident("global") => {
                p.next();
                let (name, global) = parse_global(&mut p)?;
                let id = GlobalId::from_index(module.globals.len());
                if sc.globals.insert(name, id).is_some() {
                    return Err(p.err(format!("duplicate global `{name}`")));
                }
                module.globals.push(global);
            }
            Tok::Ident("func") => {
                p.next();
                let name = p.ident()?;
                p.expect_punct('(')?;
                let mut vars = Vec::new();
                if !p.eat_punct(')') {
                    loop {
                        let pn = p.ident()?;
                        p.expect_punct(':')?;
                        let ty = p.ty()?;
                        params.push(pn);
                        vars.push(VarDecl {
                            name: pn.to_string(),
                            ty,
                        });
                        if !p.eat_punct(',') {
                            break;
                        }
                    }
                    p.expect_punct(')')?;
                }
                let ret_ty = if p.peek() == Some(Tok::Arrow) {
                    p.next();
                    Some(p.ty()?)
                } else {
                    None
                };
                p.expect_punct('{')?;
                bodies.push(p.skip_body()?);
                let id = FuncId::from_index(module.funcs.len());
                if sc.funcs.insert(name, id).is_some() {
                    return Err(p.err(format!("duplicate function `{name}`")));
                }
                module.funcs.push(Function {
                    name: name.to_string(),
                    params: vars.len() as u32,
                    ret_ty,
                    vars,
                    slots: Vec::new(),
                    blocks: Vec::new(),
                });
            }
            _ => return Err(p.err("expected `global` or `func` at top level")),
        }
    }
    if let Some(e) = p.lex.err {
        return Err(e);
    }

    // pass 2: each body, from where pass 1 found it
    let mut params = params.into_iter();
    for (fi, (pos, line)) in bodies.into_iter().enumerate() {
        sc.vars.clear();
        sc.slots.clear();
        sc.blocks.clear();
        let nparams = module.funcs[fi].params as usize;
        for (i, name) in params.by_ref().take(nparams).enumerate() {
            sc.vars.insert(name, VarId::from_index(i));
        }
        let mut p = Parser::new(src, pos, line);
        parse_body(&mut p, &mut module, FuncId::from_index(fi), &mut sc)?;
    }
    Ok(module)
}

/// One `global` declaration after its keyword; returns its name too.
fn parse_global<'a>(p: &mut Parser<'a>) -> Result<(&'a str, Global), ParseError> {
    let name = p.ident()?;
    p.expect_punct(':')?;
    let ty = p.ty()?;
    let words = p.size("global")?;
    let mut init = Vec::new();
    if p.eat_punct('=') {
        p.expect_punct('[')?;
        if !p.eat_punct(']') {
            loop {
                let neg = p.eat_punct('-');
                let v = match p.next() {
                    Some(Tok::Int(v)) if ty == Ty::F64 => {
                        Value::F(if neg { -(v as f64) } else { v as f64 })
                    }
                    Some(Tok::Int(v)) => Value::I(p.signed(v, neg)?),
                    Some(Tok::Float(v)) => Value::F(if neg { -v } else { v }),
                    other => return Err(p.err(format!("expected value, found {other:?}"))),
                };
                init.push(v);
                if !p.eat_punct(',') {
                    break;
                }
            }
            p.expect_punct(']')?;
        }
    }
    if init.len() > words as usize {
        return Err(p.err("initializer longer than global"));
    }
    let global = Global {
        name: name.to_string(),
        words,
        ty,
        init,
    };
    Ok((name, global))
}

/// Parses the body of function `fid`, from its first token through its `}`.
fn parse_body<'a>(
    p: &mut Parser<'a>,
    module: &mut Module,
    fid: FuncId,
    sc: &mut Scope<'a>,
) -> Result<(), ParseError> {
    let fi = fid.index();

    // declarations
    loop {
        match p.peek() {
            Some(Tok::Ident("var")) => {
                p.next();
                let name = p.ident()?;
                p.expect_punct(':')?;
                let ty = p.ty()?;
                if sc.vars.contains_key(name) {
                    return Err(p.err(format!("duplicate var `{name}`")));
                }
                let id = module.funcs[fi].new_var(name, ty);
                sc.vars.insert(name, id);
            }
            Some(Tok::Ident("slot")) => {
                p.next();
                let name = p.ident()?;
                p.expect_punct(':')?;
                let ty = p.ty()?;
                let words = p.size("slot")?;
                if sc.slots.contains_key(name) {
                    return Err(p.err(format!("duplicate slot `{name}`")));
                }
                let slots = &mut module.funcs[fi].slots;
                sc.slots.insert(name, SlotId::from_index(slots.len()));
                slots.push(SlotDecl {
                    name: name.to_string(),
                    words,
                    ty,
                });
            }
            _ => break,
        }
    }

    // blocks; branch targets resolved afterwards via names
    let mut cur: Option<BlockId> = None;
    let mut cur_terminated = false;
    loop {
        match p.peek() {
            Some(Tok::Punct('}')) => {
                p.next();
                break;
            }
            Some(Tok::Ident(name)) if p.peek2() == Some(Tok::Punct(':')) => {
                if cur.is_some() && !cur_terminated {
                    return Err(p.err("block falls through without terminator"));
                }
                p.next();
                p.next();
                if sc.blocks.contains_key(name) {
                    return Err(p.err(format!("duplicate block `{name}`")));
                }
                let b = module.funcs[fi].new_block(name);
                sc.blocks.insert(name, b);
                cur = Some(b);
                cur_terminated = false;
            }
            Some(_) => {
                let b = cur.ok_or_else(|| p.err("statement before first block label"))?;
                if cur_terminated {
                    return Err(p.err("statement after block terminator"));
                }
                if let Some(pending) = parse_stmt(p, module, fid, sc, b)? {
                    sc.pending.push((b, pending));
                    cur_terminated = true;
                }
            }
            None => return Err(p.err("unterminated function body")),
        }
    }
    if cur.is_some() && !cur_terminated {
        return Err(p.err("last block lacks a terminator"));
    }
    if module.funcs[fi].blocks.is_empty() {
        return Err(p.err("function has no blocks"));
    }

    // resolve branch targets
    for (b, pending) in sc.pending.drain(..) {
        let target = |name| lookup(p, &sc.blocks, name, "block");
        let term = match pending {
            PendingTerm::Jump(t) => Terminator::Jump(target(t)?),
            PendingTerm::Br(cond, t, e) => Terminator::Br {
                cond,
                then_: target(t)?,
                else_: target(e)?,
            },
            PendingTerm::Ret(v) => Terminator::Ret(v),
        };
        module.funcs[fi].block_mut(b).term = term;
    }
    Ok(())
}

enum PendingTerm<'a> {
    Jump(&'a str),
    Br(Operand, &'a str, &'a str),
    Ret(Option<Operand>),
}

fn parse_operand<'a>(p: &mut Parser<'a>, sc: &Scope<'a>) -> Result<Operand, ParseError> {
    match p.next() {
        Some(Tok::Ident(n)) => lookup(p, &sc.vars, n, "var").map(Operand::Var),
        Some(Tok::Int(v)) => p.signed(v, false).map(Operand::ConstI),
        Some(Tok::Float(v)) => Ok(Operand::ConstF(v)),
        Some(Tok::Punct('-')) => match p.next() {
            Some(Tok::Int(v)) => p.signed(v, true).map(Operand::ConstI),
            Some(Tok::Float(v)) => Ok(Operand::ConstF(-v)),
            other => Err(p.err(format!("expected literal after `-`, found {other:?}"))),
        },
        Some(Tok::Punct('@')) => {
            let n = p.ident()?;
            lookup(p, &sc.globals, n, "global").map(Operand::GlobalAddr)
        }
        Some(Tok::Punct('&')) => {
            let n = p.ident()?;
            lookup(p, &sc.slots, n, "slot").map(Operand::SlotAddr)
        }
        other => Err(p.err(format!("expected operand, found {other:?}"))),
    }
}

fn parse_addr<'a>(p: &mut Parser<'a>, sc: &Scope<'a>) -> Result<(Operand, i64), ParseError> {
    p.expect_punct('[')?;
    let base = parse_operand(p, sc)?;
    let mut off = 0i64;
    if p.eat_punct('+') {
        off = p.int(false)?;
    } else if p.eat_punct('-') {
        off = p.int(true)?;
    }
    p.expect_punct(']')?;
    Ok((base, off))
}

/// The memory-read mnemonics, each a prefix of `<prefix><ty>`. `load.a.`
/// and `load.s.` come before `load.`, which is a prefix of both.
const READS: [(&str, Read); 5] = [
    ("load.a.", Read::Load(LoadSpec::Advanced)),
    ("load.s.", Read::Load(LoadSpec::Speculative)),
    ("load.", Read::Load(LoadSpec::Normal)),
    ("ldc.", Read::Check(CheckKind::Alat)),
    ("chks.", Read::Check(CheckKind::Nat)),
];

#[derive(Clone, Copy)]
enum Read {
    Load(LoadSpec),
    Check(CheckKind),
}

/// Parses one statement into block `b`; returns `Some` if it terminated the
/// block.
fn parse_stmt<'a>(
    p: &mut Parser<'a>,
    module: &mut Module,
    fid: FuncId,
    sc: &Scope<'a>,
    b: BlockId,
) -> Result<Option<PendingTerm<'a>>, ParseError> {
    let first = p.ident()?;
    let inst = match first {
        "jmp" => return Ok(Some(PendingTerm::Jump(p.ident()?))),
        "br" => {
            let c = parse_operand(p, sc)?;
            p.expect_punct(',')?;
            let t = p.ident()?;
            p.expect_punct(',')?;
            return Ok(Some(PendingTerm::Br(c, t, p.ident()?)));
        }
        "ret" => {
            // a value may follow; a name only counts as one if it is a var
            // and not the next block's label
            let v = match p.peek() {
                Some(Tok::Int(_) | Tok::Float(_) | Tok::Punct('-' | '@' | '&')) => {
                    Some(parse_operand(p, sc)?)
                }
                Some(Tok::Ident(n))
                    if sc.vars.contains_key(n) && p.peek2() != Some(Tok::Punct(':')) =>
                {
                    Some(parse_operand(p, sc)?)
                }
                _ => None,
            };
            return Ok(Some(PendingTerm::Ret(v)));
        }
        "store" => return Err(p.err("`store` needs a type suffix, e.g. `store.i64`")),
        _ if first.starts_with("store.") => {
            let rest = &first["store.".len()..];
            let ty = ty_by_name(rest).ok_or_else(|| p.err(format!("bad store type `{rest}`")))?;
            let (base, offset) = parse_addr(p, sc)?;
            p.expect_punct(',')?;
            let val = parse_operand(p, sc)?;
            Inst::Store {
                base,
                offset,
                val,
                ty,
                site: module.fresh_mem_site(),
            }
        }
        "call" => {
            let (callee, args) = parse_call_tail(p, sc)?;
            Inst::Call {
                dst: None,
                callee,
                args,
                site: module.fresh_call_site(),
            }
        }
        // otherwise: `dst = rhs`
        _ => {
            let dst = lookup(p, &sc.vars, first, "var")?;
            p.expect_punct('=')?;
            parse_rhs(p, module, sc, dst)?
        }
    };
    module.funcs[fid.index()].block_mut(b).insts.push(inst);
    Ok(None)
}

/// The right-hand side of `dst = ...`.
fn parse_rhs<'a>(
    p: &mut Parser<'a>,
    module: &mut Module,
    sc: &Scope<'a>,
    dst: VarId,
) -> Result<Inst, ParseError> {
    let Some(Tok::Ident(k)) = p.peek() else {
        let src = parse_operand(p, sc)?;
        return Ok(Inst::Copy { dst, src });
    };
    let read = READS
        .iter()
        .find_map(|&(prefix, read)| Some((k.strip_prefix(prefix)?, read)));
    Ok(if let Some((rest, read)) = read {
        p.next();
        let ty = ty_by_name(rest).ok_or_else(|| {
            p.err(match read {
                Read::Load(_) => "bad load type",
                Read::Check(_) => "bad check type",
            })
        })?;
        let (base, offset) = parse_addr(p, sc)?;
        let site = module.fresh_mem_site();
        match read {
            Read::Load(spec) => Inst::Load {
                dst,
                base,
                offset,
                ty,
                spec,
                site,
            },
            Read::Check(kind) => Inst::CheckLoad {
                dst,
                base,
                offset,
                ty,
                kind,
                site,
            },
        }
    } else if k == "call" {
        p.next();
        let (callee, args) = parse_call_tail(p, sc)?;
        Inst::Call {
            dst: Some(dst),
            callee,
            args,
            site: module.fresh_call_site(),
        }
    } else if k == "alloc" {
        p.next();
        let words = parse_operand(p, sc)?;
        Inst::Alloc {
            dst,
            words,
            site: module.fresh_alloc_site(),
        }
    } else if let Some(op) = BinOp::ALL.into_iter().find(|o| o.mnemonic() == k) {
        p.next();
        let a = parse_operand(p, sc)?;
        p.expect_punct(',')?;
        let b = parse_operand(p, sc)?;
        Inst::Bin { dst, op, a, b }
    } else if let Some(op) = UnOp::ALL.into_iter().find(|o| o.mnemonic() == k) {
        p.next();
        let a = parse_operand(p, sc)?;
        Inst::Un { dst, op, a }
    } else {
        // copy from a var
        let src = parse_operand(p, sc)?;
        Inst::Copy { dst, src }
    })
}

fn parse_call_tail<'a>(
    p: &mut Parser<'a>,
    sc: &Scope<'a>,
) -> Result<(FuncId, Vec<Operand>), ParseError> {
    let name = p.ident()?;
    let callee = lookup(p, &sc.funcs, name, "function")?;
    p.expect_punct('(')?;
    let mut args = Vec::new();
    if !p.eat_punct(')') {
        loop {
            args.push(parse_operand(p, sc)?);
            if !p.eat_punct(',') {
                break;
            }
        }
        p.expect_punct(')')?;
    }
    Ok((callee, args))
}

fn ty_by_name(s: &str) -> Option<Ty> {
    match s {
        "i64" => Some(Ty::I64),
        "f64" => Some(Ty::F64),
        "ptr" => Some(Ty::Ptr),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::display::print_module;

    const LOOPY: &str = r#"
global sum: i64[1]
global tab: f64[4] = [1.0, 2.5, -3.0, 0.0]

func count(n: i64) -> i64 {
  var i: i64
  var c: i64
  var s: i64
  var s2: i64
  var r: i64
entry:
  i = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  s = load.i64 [@sum]
  s2 = add s, 1
  store.i64 [@sum], s2
  i = add i, 1
  jmp head
exit:
  r = load.i64 [@sum]
  ret r
}
"#;

    #[test]
    fn parses_loop() {
        let m = parse_module(LOOPY).unwrap();
        assert_eq!(m.globals.len(), 2);
        assert_eq!(m.globals[1].init.len(), 4);
        assert_eq!(m.funcs.len(), 1);
        assert_eq!(m.funcs[0].blocks.len(), 4);
        crate::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn print_parse_print_fixpoint() {
        let m = parse_module(LOOPY).unwrap();
        let s1 = print_module(&m);
        let m2 = parse_module(&s1).unwrap();
        let s2 = print_module(&m2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn parses_speculative_forms() {
        let src = r#"
func f(p: ptr) -> i64 {
  var a: i64
  var b: i64
entry:
  a = load.a.i64 [p + 2]
  store.i64 [p], 5
  b = ldc.i64 [p + 2]
  ret b
}
"#;
        let m = parse_module(src).unwrap();
        let f = &m.funcs[0];
        assert!(matches!(
            f.blocks[0].insts[0],
            Inst::Load {
                spec: LoadSpec::Advanced,
                offset: 2,
                ..
            }
        ));
        assert!(matches!(
            f.blocks[0].insts[2],
            Inst::CheckLoad {
                kind: CheckKind::Alat,
                ..
            }
        ));
        let s1 = print_module(&m);
        let m2 = parse_module(&s1).unwrap();
        assert_eq!(s1, print_module(&m2));
    }

    #[test]
    fn forward_calls_resolve() {
        let src = r#"
func main() -> i64 {
  var r: i64
entry:
  r = call helper(3)
  ret r
}

func helper(x: i64) -> i64 {
entry:
  ret x
}
"#;
        let m = parse_module(src).unwrap();
        assert_eq!(m.funcs.len(), 2);
        crate::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn errors_carry_lines() {
        let e = parse_module("func f() {\nentry:\n  x = bogus y\n}").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn unknown_block_target_is_error() {
        let e = parse_module("func f() {\nentry:\n  jmp nowhere\n}").unwrap_err();
        assert!(e.msg.contains("unknown block"));
    }

    #[test]
    fn fallthrough_is_error() {
        let src = "func f() {\nentry:\n  jmp b\nb:\nc:\n  ret\n}";
        // block b has no terminator before label c
        let e = parse_module(src).unwrap_err();
        assert!(e.msg.contains("terminator"), "{e}");
    }

    #[test]
    fn slots_parse_and_print() {
        let src = r#"
func f() -> i64 {
  var x: i64
  slot buf: i64[8]
entry:
  store.i64 [&buf + 3], 9
  x = load.i64 [&buf + 3]
  ret x
}
"#;
        let m = parse_module(src).unwrap();
        let s1 = print_module(&m);
        assert!(s1.contains("slot buf: i64[8]"));
        assert!(s1.contains("[&buf + 3]"));
        let m2 = parse_module(&s1).unwrap();
        assert_eq!(s1, print_module(&m2));
    }
}
