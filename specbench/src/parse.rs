//! Parsers for what `specc` prints: the `--sim` counter block (stderr) and
//! the compile service's `ok` response line (stdout).

/// The counters of one `--sim` counter block that the benchmark reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimBlock {
    /// The `result` row verbatim, e.g. `Some(I(42))`.
    pub result: String,
    pub cycles: u64,
    pub loads_retired: u64,
    pub check_loads: u64,
    pub failed_checks: u64,
}

/// Parses the first `--sim` counter block in `text` (lines of the form
/// `name<spaces>= value`; other lines are ignored).
pub fn parse_sim_block(text: &str) -> Result<SimBlock, String> {
    let num = |key: &str| -> Result<u64, String> {
        let v = row(text, key)?;
        v.parse()
            .map_err(|e| format!("bad `{key}` value `{v}`: {e}"))
    };
    Ok(SimBlock {
        result: row(text, "result")?.to_string(),
        cycles: num("cycles")?,
        loads_retired: num("loads retired")?,
        check_loads: num("check loads")?,
        failed_checks: num("failed checks")?,
    })
}

fn row<'a>(text: &'a str, key: &str) -> Result<&'a str, String> {
    text.lines()
        .find_map(|l| {
            let (k, v) = l.split_once('=')?;
            (k.trim() == key).then(|| v.trim())
        })
        .ok_or_else(|| format!("no `{key}` row in the counter block"))
}

/// The fields of a compile service `ok in=... funcs=N hits=H ...` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OkLine {
    pub funcs: u64,
    pub hits: u64,
    pub misses: u64,
    pub stale: u64,
}

/// Parses a service response line; an `err` line is returned as `Err`
/// with the line itself.
pub fn parse_ok_line(line: &str) -> Result<OkLine, String> {
    let line = line.trim_end();
    if !line.starts_with("ok ") {
        return Err(line.to_string());
    }
    let field = |key: &str| -> Result<u64, String> {
        line.split_whitespace()
            .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
            .ok_or_else(|| format!("no `{key}=` in `{line}`"))?
            .parse()
            .map_err(|e| format!("bad `{key}=` in `{line}`: {e}"))
    };
    Ok(OkLine {
        funcs: field("funcs")?,
        hits: field("hits")?,
        misses: field("misses")?,
        stale: field("stale")?,
    })
}
