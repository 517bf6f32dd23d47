//! Seeded input generators. `specc` only ever sees the files these write.

use specframe::workloads::{mega_source, megamod::Rng};

/// The entry point appended to a mega module: it makes the module an
/// ordinary program whose one-shot reference run is trivial, so the
/// optimizer, not the interpreter, dominates a compile.
pub const TRIVIAL_MAIN: &str = "func main() -> i64 {\nentry:\n  ret 0\n}\n";

/// The function count `n` at which `mega_source(seed, n)` holds about
/// `insts` instructions (terminators included). Sizing inputs by
/// instructions rather than functions keeps the work of a seed's module
/// the same from seed to seed.
pub fn mega_funcs_for_insts(seed: u64, insts: usize) -> usize {
    // mega_source(seed, n) is a prefix of mega_source(seed, m) for n < m:
    // function i depends only on the generator state before it
    let mut cap = insts / 25 + 1;
    loop {
        let src = mega_source(seed, cap);
        let mut count = 0;
        for (n, body) in src.split("\nfunc ").skip(1).enumerate() {
            count += body
                .lines()
                .filter(|l| l.starts_with("  ") && !l.starts_with("  var "))
                .count();
            if count > insts {
                return n;
            }
        }
        cap *= 2;
    }
}

/// `mega_source(seed, funcs)` plus [`TRIVIAL_MAIN`].
pub fn mega_input(seed: u64, funcs: usize) -> String {
    let mut s = mega_source(seed, funcs);
    s.push_str(TRIVIAL_MAIN);
    s
}

/// One serve request's edit of the base module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditPlan {
    /// `(function index, addend)`: `f<index>` gains `V = add V, addend`
    /// right before its `ret V`.
    pub body_edits: Vec<(usize, i64)>,
    /// `(global index, new initializer)` for `g<index>`.
    pub global_edit: Option<(usize, i64)>,
}

/// One request in this many also edits a global initializer.
pub const GLOBAL_EDIT_PERIOD: usize = 20;

/// The seeded request stream over a base module of `funcs` functions:
/// every request edits 1 to 4 function bodies, and exactly one request in
/// each block of [`GLOBAL_EDIT_PERIOD`] (at a seeded position) also
/// changes a global initializer to a value never used before.
pub struct EditStream {
    rng: Rng,
    funcs: usize,
    next: usize,
    global_slot: usize,
}

impl EditStream {
    /// A stream for `seed` over `funcs` editable functions (`funcs >= 4`).
    pub fn new(seed: u64, funcs: usize) -> Self {
        let mut rng = Rng::new(seed ^ 0x5eed_ed17);
        let global_slot = rng.below(GLOBAL_EDIT_PERIOD as u64) as usize;
        EditStream {
            rng,
            funcs,
            next: 0,
            global_slot,
        }
    }
}

impl Iterator for EditStream {
    type Item = EditPlan;

    fn next(&mut self) -> Option<EditPlan> {
        let i = self.next;
        self.next += 1;
        if i.is_multiple_of(GLOBAL_EDIT_PERIOD) && i > 0 {
            self.global_slot = self.rng.below(GLOBAL_EDIT_PERIOD as u64) as usize;
        }
        let n = self.rng.range(1, 4) as usize;
        let mut body_edits: Vec<(usize, i64)> = Vec::with_capacity(n);
        while body_edits.len() < n {
            let f = self.rng.below(self.funcs as u64) as usize;
            if body_edits.iter().all(|&(g, _)| g != f) {
                body_edits.push((f, self.rng.range(1, 8) as i64));
            }
        }
        body_edits.sort_unstable();
        // Initializers of the generated globals are 1..=48; a value past
        // that range that grows with the request index is never repeated.
        let global_edit = (i % GLOBAL_EDIT_PERIOD == self.global_slot)
            .then(|| (self.rng.below(48) as usize, 1000 + i as i64));
        Some(EditPlan {
            body_edits,
            global_edit,
        })
    }
}

/// Applies `plan` to a module text produced by [`mega_input`].
///
/// # Panics
/// Panics if the text lacks an edited function or global, which means the
/// plan was made for a different module.
pub fn apply_edit(base: &str, plan: &EditPlan) -> String {
    let mut s = base.to_string();
    for &(f, k) in &plan.body_edits {
        let head = format!("func f{f}(");
        let start = s.find(&head).expect("edited function exists");
        let end = start + s[start..].find("\n}\n").expect("function is closed");
        let ret = start + s[start..end].rfind("\n  ret ").expect("function returns") + 1;
        let var = s[ret + "  ret ".len()..end].trim().to_string();
        s.insert_str(ret, &format!("  {var} = add {var}, {k}\n"));
    }
    if let Some((g, v)) = plan.global_edit {
        let old = format!("global g{g}: i64[1] = [{}]\n", g + 1);
        let new = format!("global g{g}: i64[1] = [{v}]\n");
        assert!(
            s.contains(&old),
            "global g{g} has its generated initializer"
        );
        s = s.replacen(&old, &new, 1);
    }
    s
}
