//! Workspace call graph: the one owner of call-graph mechanics, plus the
//! two rules that need nothing else.
//!
//! Built on the [`parser`](crate::parser) declaration extraction plus
//! [`resolve`](crate::resolve) name resolution, [`Graph`] answers the
//! question the per-file rules cannot: *is this operation reachable from a
//! public API?* Every semantic layer ([`dataflow`](crate::dataflow),
//! [`effects`](crate::effects), [`concurrency`](crate::concurrency)) reads
//! these pieces from it instead of re-deriving them:
//!
//! * **ownership** — innermost-span token ownership (`Graph::owns`), so a
//!   nested fn's tokens belong to the nested fn only;
//! * **edges** — over-approximate callees for reachability
//!   ([`Graph::callees`]) and the confident subset that caller facts
//!   travel over (`Graph::confident_callees`);
//! * **witness** — first-root-wins reachability from any root list
//!   (`Graph::witness_from`); the public-root witness is kept;
//! * **fixpoint** — reverse propagation of a monotone per-symbol fact up
//!   the confident edges (`Graph::propagate_callers`).
//!
//! Two rules run directly on the graph:
//!
//! * **`ntv::panic-path`** — documented-invariant panic forms (`.expect(..)`,
//!   message-carrying `unreachable!(..)`) and slice indexing by a
//!   caller-supplied parameter, flagged only when the enclosing function is
//!   reachable from a `pub` function of a Library-class file. Bare
//!   `unwrap()` and the `panic!` family stay with the always-on
//!   `ntv::unwrap` / `ntv::panic` rules — this rule covers the forms those
//!   deliberately allow, once they sit on a public path.
//! * **`ntv::lock-discipline`** — `RwLock`/`Mutex` guards (recognized by the
//!   workspace idiom `.read()/.write()/.lock()` + `.unwrap()/.expect(..)`)
//!   held across calls into functions that themselves (transitively)
//!   acquire a lock, across a second direct acquisition, or across the
//!   Gauss–Hermite build path (`PathDistribution::build`); and
//!   `OnceLock::get_or_init` closures that call back into lock-acquiring
//!   code. This is exactly the discipline `ntv_core::op_cache` documents:
//!   the map lock is never held across a build, racers park per-entry.
//!
//! The graph is deterministic: files arrive sorted by path, symbols are
//! numbered in (file, line) order, and every worklist is processed in
//! ascending id order, so two runs emit byte-identical diagnostics.

use std::collections::BTreeSet;
use std::path::Path;

use crate::lexer::Token;
use crate::parser::{self, CallSite, ParsedFile};
use crate::resolve::{FileInput, SymbolId, SymbolTable};
use crate::rules::{Hit, RuleId};

/// One file's inputs to the semantic pass (Library-class files only — the
/// rules police library internals; bench/harness consumers cannot change
/// library-internal reachability).
#[derive(Debug, Clone, Copy)]
pub struct SemFile<'a> {
    /// Workspace-relative path (classification already done by the engine).
    pub rel: &'a Path,
    /// The file's full token stream.
    pub tokens: &'a [Token],
    /// Extracted declarations.
    pub parsed: &'a ParsedFile,
    /// Inclusive `#[cfg(test)]` line ranges (test fns are not graph nodes).
    pub test_ranges: &'a [(u32, u32)],
}

/// A panicking operation found inside a function body.
#[derive(Debug, Clone)]
enum PanicOp {
    /// `.expect(..)` method call.
    Expect,
    /// `unreachable!(..)` with a message (argument-less is `ntv::panic`).
    UnreachableMsg,
    /// Slice/array indexing whose index uses the named fn parameter raw.
    ParamIndex(String),
}

/// A recognized lock acquisition (`.read()/.write()/.lock()` followed by
/// `.unwrap()/.expect(..)`). Shared with the [`concurrency`](crate::concurrency)
/// pass, which classifies acquisitions into lock classes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Acquisition {
    /// Token index of the `read`/`write`/`lock` identifier.
    pub(crate) tok: usize,
    /// Token index just past the `.unwrap()/.expect(..)` suffix.
    pub(crate) chain_end: usize,
    /// 1-based line of the acquisition.
    pub(crate) line: u32,
}

/// The token span during which a guard is considered held.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HoldRegion {
    pub(crate) start: usize,
    pub(crate) end: usize,
    /// `OnceLock::get_or_init` closures only check lock-acquiring callees;
    /// build-under-lock inside the per-entry cell is the sanctioned pattern.
    pub(crate) once_cell: bool,
}

/// One resolved call site inside a symbol's body.
pub struct Call {
    /// The call as parsed (name, qualifier, token/line position).
    pub site: CallSite,
    /// Every workspace symbol the call may target (over-approximate).
    pub candidates: Vec<SymbolId>,
    /// Whether resolution was confident. The precision-sensitive analyses
    /// (lock discipline, caller-fact propagation) only follow `candidates`
    /// when this is set; over-approximate fallbacks go into `edges` for
    /// reachability and widen the effect lattice instead.
    pub confident: bool,
}

/// The analyzed call graph plus per-symbol facts.
pub struct Graph {
    /// Symbol table (public so the engine can display roots).
    pub table: SymbolTable,
    /// Per file, every (symbol, body span) in id order: the one table
    /// behind innermost-span token ownership.
    spans: Vec<Vec<(SymbolId, (usize, usize))>>,
    /// Over-approximate callees per symbol (ascending, deduplicated).
    edges: Vec<Vec<SymbolId>>,
    /// Confident callees per symbol (ascending, deduplicated, self-free):
    /// the only edges caller facts travel over.
    conf_edges: Vec<Vec<SymbolId>>,
    /// Resolved call list per symbol, with token positions.
    calls: Vec<Vec<Call>>,
    /// Per-symbol panic operations (line, op).
    panic_ops: Vec<Vec<(u32, PanicOp)>>,
    /// Per-symbol lock acquisitions.
    acquisitions: Vec<Vec<Acquisition>>,
    /// Per-symbol `get_or_init` closure spans.
    once_regions: Vec<Vec<(usize, usize)>>,
    /// Witness public root per symbol (`usize::MAX` = unreachable).
    witness: Vec<SymbolId>,
    /// Symbol (transitively) acquires a lock.
    trans_lock: Vec<bool>,
    /// Symbol (transitively) reaches `PathDistribution::build`.
    reaches_build: Vec<bool>,
}

const INDEX_PREV_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "dyn", "in", "as", "return", "break", "move", "box", "loop", "while",
    "if", "else", "match", "unsafe", "const", "static", "where", "impl", "for", "fn", "use", "pub",
    "struct", "enum", "trait", "type", "mod", "crate",
];

impl Graph {
    /// Build the graph over `files` (already sorted by path).
    #[must_use]
    pub fn build(files: &[SemFile]) -> Graph {
        let inputs: Vec<FileInput<'_>> = files
            .iter()
            .enumerate()
            .map(|(i, f)| (i, f.rel, f.parsed, f.test_ranges))
            .collect();
        let table = SymbolTable::build(&inputs);
        let n = table.symbols.len();
        let mut spans: Vec<Vec<(SymbolId, (usize, usize))>> = vec![Vec::new(); files.len()];
        for (id, sym) in table.symbols.iter().enumerate() {
            if let Some(span) = sym.body {
                spans[sym.file].push((id, span));
            }
        }
        let mut g = Graph {
            table,
            spans,
            edges: vec![Vec::new(); n],
            conf_edges: vec![Vec::new(); n],
            calls: (0..n).map(|_| Vec::new()).collect(),
            panic_ops: vec![Vec::new(); n],
            acquisitions: vec![Vec::new(); n],
            once_regions: vec![Vec::new(); n],
            witness: Vec::new(),
            trans_lock: Vec::new(),
            reaches_build: Vec::new(),
        };

        for id in 0..n {
            let sym = &g.table.symbols[id];
            let Some(span) = sym.body else { continue };
            let file = &files[sym.file];
            let impl_ty = sym.impl_ty.as_deref();
            let mut calls = Vec::new();
            for call in parser::calls_in(file.tokens, span) {
                if !g.owns(id, call.tok) {
                    continue; // belongs to a nested fn
                }
                let (mut all, conf) = g.table.resolve_with_confidence(&call, impl_ty);
                all.retain(|&t| t != id); // self-recursion adds nothing
                g.edges[id].extend_from_slice(&all);
                if conf {
                    g.conf_edges[id].extend_from_slice(&all);
                }
                calls.push(Call {
                    site: call,
                    candidates: all,
                    confident: conf,
                });
            }
            for list in [&mut g.edges[id], &mut g.conf_edges[id]] {
                list.sort_unstable();
                list.dedup();
            }

            let params: BTreeSet<String> = file.parsed.fns[sym.sig]
                .params
                .iter()
                .flat_map(|p| {
                    p.name
                        .split(|c: char| !c.is_alphanumeric() && c != '_')
                        .filter(|s| !s.is_empty() && *s != "_")
                        .map(str::to_owned)
                        .collect::<Vec<_>>()
                })
                .collect();
            g.panic_ops[id] = scan_panic_ops(file.tokens, span, &params, |tok| g.owns(id, tok));
            g.acquisitions[id] = scan_acquisitions(file.tokens, span);
            g.once_regions[id] = scan_once_regions(file.tokens, span);
            g.calls[id] = calls;
        }

        g.witness = g.witness_from(&g.table.public_roots());
        // "Transitively acquires a lock" and "transitively reaches
        // PathDistribution::build".
        let direct_lock: Vec<bool> = g.acquisitions.iter().map(|a| !a.is_empty()).collect();
        let is_build: Vec<bool> = g
            .table
            .symbols
            .iter()
            .map(|s| s.name == "build" && s.impl_ty.as_deref() == Some("PathDistribution"))
            .collect();
        g.trans_lock = g.propagate_callers(direct_lock, any_callee);
        g.reaches_build = g.propagate_callers(is_build, any_callee);
        g
    }

    /// Innermost-span token ownership: does `tok` of `sym`'s file belong
    /// to `sym` itself rather than to a fn nested inside it?
    #[must_use]
    pub(crate) fn owns(&self, sym: SymbolId, tok: usize) -> bool {
        self.spans[self.table.symbols[sym].file]
            .iter()
            .filter(|(_, (a, b))| (*a..*b).contains(&tok))
            .max_by_key(|(_, (a, _))| *a)
            .is_some_and(|&(o, _)| o == sym)
    }

    /// First-root-wins reachability over the over-approximate edges: the
    /// witness root per symbol (`usize::MAX` = unreachable). `roots` come
    /// ascending, so the lowest-id root reaching a symbol is its witness.
    #[must_use]
    pub(crate) fn witness_from(&self, roots: &[SymbolId]) -> Vec<SymbolId> {
        let mut witness = vec![usize::MAX; self.table.symbols.len()];
        for &root in roots {
            if witness[root] != usize::MAX {
                continue;
            }
            witness[root] = root;
            let mut queue = vec![root];
            while let Some(s) = queue.pop() {
                for &t in self.callees(s) {
                    if witness[t] == usize::MAX {
                        witness[t] = root;
                        queue.push(t);
                    }
                }
            }
        }
        witness
    }

    /// Reverse-propagate per-symbol facts up the confident call edges to
    /// their least fixpoint: `join(caller, callee)` returns the caller's
    /// grown fact, or `None` when the callee adds nothing. Every join used
    /// is monotone over a finite lattice, so the result does not depend on
    /// visit order; sweeps run in ascending id order until nothing grows.
    #[must_use]
    pub(crate) fn propagate_callers<T>(
        &self,
        mut facts: Vec<T>,
        join: impl Fn(&T, &T) -> Option<T>,
    ) -> Vec<T> {
        loop {
            let mut changed = false;
            for id in 0..facts.len() {
                for &t in &self.conf_edges[id] {
                    if let Some(grown) = join(&facts[id], &facts[t]) {
                        facts[id] = grown;
                        changed = true;
                    }
                }
            }
            if !changed {
                return facts;
            }
        }
    }

    /// Is `sym` reachable from any public root?
    #[must_use]
    pub fn reachable(&self, sym: SymbolId) -> bool {
        self.witness[sym] != usize::MAX
    }

    /// The witness public root that makes `sym` reachable, if any (the
    /// lowest-id public function with a call path to `sym`).
    #[must_use]
    pub fn witness_root(&self, sym: SymbolId) -> Option<SymbolId> {
        (self.witness[sym] != usize::MAX).then(|| self.witness[sym])
    }

    /// All `ntv::panic-path` hits, as (file index, hit), in symbol order.
    #[must_use]
    pub fn panic_path_hits(&self) -> Vec<(usize, Hit)> {
        let mut out = Vec::new();
        for (id, sym) in self.table.symbols.iter().enumerate() {
            if self.witness[id] == usize::MAX {
                continue;
            }
            let root = &self.table.symbols[self.witness[id]].fq;
            for (line, op) in &self.panic_ops[id] {
                let what = match op {
                    PanicOp::Expect => "`.expect(..)`".to_string(),
                    PanicOp::UnreachableMsg => "`unreachable!(..)`".to_string(),
                    PanicOp::ParamIndex(p) => {
                        format!("slice indexing by caller-supplied `{p}`")
                    }
                };
                out.push((
                    sym.file,
                    Hit {
                        rule: RuleId::PanicPath,
                        line: *line,
                        message: format!(
                            "{what} in `{}` is reachable from public API `{root}`",
                            sym.fq
                        ),
                    },
                ));
            }
        }
        out
    }

    /// All `ntv::lock-discipline` hits, as (file index, hit).
    #[must_use]
    pub fn lock_discipline_hits(&self, files: &[SemFile]) -> Vec<(usize, Hit)> {
        let mut out = Vec::new();
        for (id, sym) in self.table.symbols.iter().enumerate() {
            let Some(span) = sym.body else { continue };
            let tokens = files[sym.file].tokens;
            let mut regions: Vec<HoldRegion> = self.acquisitions[id]
                .iter()
                .map(|a| hold_region(tokens, span, a))
                .collect();
            regions.extend(
                self.once_regions[id]
                    .iter()
                    .map(|&(start, end)| HoldRegion {
                        start,
                        end,
                        once_cell: true,
                    }),
            );
            for region in &regions {
                // A second direct acquisition while a guard is held.
                for other in &self.acquisitions[id] {
                    if (region.start..region.end).contains(&other.tok) {
                        out.push((
                            sym.file,
                            Hit {
                                rule: RuleId::LockDiscipline,
                                line: other.line,
                                message: format!(
                                    "second lock acquired in `{}` while a guard is held",
                                    sym.fq
                                ),
                            },
                        ));
                    }
                }
                for call in &self.calls[id] {
                    if !(region.start..region.end).contains(&call.site.tok) || !call.confident {
                        continue;
                    }
                    if let Some(&t) = call.candidates.iter().find(|&&t| self.trans_lock[t]) {
                        out.push((
                            sym.file,
                            Hit {
                                rule: RuleId::LockDiscipline,
                                line: call.site.line,
                                message: format!(
                                    "lock guard held in `{}` across call into \
                                     lock-acquiring `{}`",
                                    sym.fq, self.table.symbols[t].fq
                                ),
                            },
                        ));
                    } else if !region.once_cell {
                        if let Some(&t) = call.candidates.iter().find(|&&t| self.reaches_build[t]) {
                            out.push((
                                sym.file,
                                Hit {
                                    rule: RuleId::LockDiscipline,
                                    line: call.site.line,
                                    message: format!(
                                        "lock guard held in `{}` across Gauss–Hermite \
                                         build path `{}`",
                                        sym.fq, self.table.symbols[t].fq
                                    ),
                                },
                            ));
                        }
                    }
                }
            }
        }
        out.sort_by(|a, b| {
            (a.0, a.1.line, a.1.message.as_str()).cmp(&(b.0, b.1.line, b.1.message.as_str()))
        });
        out.dedup_by(|a, b| a.0 == b.0 && a.1.line == b.1.line && a.1.message == b.1.message);
        out
    }

    /// Over-approximate direct callees of `sym`: the edges every witness
    /// search walks.
    #[must_use]
    pub fn callees(&self, sym: SymbolId) -> &[SymbolId] {
        &self.edges[sym]
    }

    /// Confident direct callees of `sym`: the edges caller facts travel
    /// over, and the forward edges of the readiness witness chains.
    #[must_use]
    pub(crate) fn confident_callees(&self, sym: SymbolId) -> &[SymbolId] {
        &self.conf_edges[sym]
    }

    /// Resolved call sites inside `sym`'s body, in body order.
    #[must_use]
    pub fn calls(&self, sym: SymbolId) -> &[Call] {
        &self.calls[sym]
    }

    /// Recognized lock acquisitions inside `sym`'s body, in token order —
    /// `sync` effect seeds and the raw input of the
    /// [`concurrency`](crate::concurrency) lock-class analysis.
    #[must_use]
    pub(crate) fn acquisitions(&self, sym: SymbolId) -> &[Acquisition] {
        &self.acquisitions[sym]
    }
}

/// Boolean caller join: a caller is marked once any callee is.
pub(crate) fn any_callee(caller: &bool, callee: &bool) -> Option<bool> {
    (*callee && !*caller).then_some(true)
}

/// Scan a body span for panic operations, keeping only tokens owned by the
/// symbol itself (`own` filters out nested fns).
fn scan_panic_ops(
    tokens: &[Token],
    span: (usize, usize),
    params: &BTreeSet<String>,
    own: impl Fn(usize) -> bool,
) -> Vec<(u32, PanicOp)> {
    let mut out = Vec::new();
    for i in span.0..span.1.min(tokens.len()) {
        if !own(i) {
            continue;
        }
        let t = &tokens[i];
        if let Some(id) = t.ident() {
            match id {
                "expect"
                    if i > 0
                        && tokens[i - 1].is_punct('.')
                        && tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) =>
                {
                    out.push((t.line, PanicOp::Expect));
                }
                "unreachable"
                    if tokens.get(i + 1).is_some_and(|n| n.is_punct('!'))
                        && tokens.get(i + 2).is_some_and(|n| n.is_punct('('))
                        && !tokens.get(i + 3).is_some_and(|n| n.is_punct(')')) =>
                {
                    out.push((t.line, PanicOp::UnreachableMsg));
                }
                _ => {}
            }
            continue;
        }
        if !t.is_punct('[') {
            continue;
        }
        // Expression-position indexing: the token before the `[` must be an
        // expression tail (identifier that is not a keyword, or a closing
        // bracket) — type positions (`&[f64]`), attributes (`#[..]`) and
        // array literals (`= [0; 8]`) all fail this test.
        let Some(prev) = i.checked_sub(1).and_then(|p| tokens.get(p)) else {
            continue;
        };
        let is_expr_tail = match prev.ident() {
            Some(id) => !INDEX_PREV_KEYWORDS.contains(&id),
            None => prev.is_punct(')') || prev.is_punct(']'),
        };
        if !is_expr_tail {
            continue;
        }
        let end = parser::skip_balanced(tokens, i);
        // Flag when a caller-supplied parameter is used raw at the top
        // level of the index expression — not routed through a method call
        // (`v.index()` is the sanctioned bounded-accessor shape) and not
        // an argument of a nested call (`sf[Self::bucket(g)]` delegates
        // the bounding to `bucket`).
        let mut depth = 0i64;
        let mut raw_param = None;
        for j in i + 1..end.saturating_sub(1) {
            let tj = &tokens[j];
            if tj.is_punct('(') || tj.is_punct('[') || tj.is_punct('{') {
                depth += 1;
                continue;
            }
            if tj.is_punct(')') || tj.is_punct(']') || tj.is_punct('}') {
                depth -= 1;
                continue;
            }
            if depth != 0 {
                continue;
            }
            let Some(id) = tj.ident() else { continue };
            if !params.contains(id) {
                continue;
            }
            if tokens
                .get(j + 1)
                .is_some_and(|n| n.is_punct('.') || n.is_punct('('))
            {
                continue;
            }
            raw_param = Some(id.to_owned());
            break;
        }
        if let Some(p) = raw_param {
            out.push((t.line, PanicOp::ParamIndex(p)));
        }
    }
    out
}

/// Scan a body span for lock acquisitions: `.read()`, `.write()` or
/// `.lock()` (no arguments — `io::Read::read(&mut buf)` never matches)
/// immediately followed by `.unwrap()` or `.expect(..)`.
fn scan_acquisitions(tokens: &[Token], span: (usize, usize)) -> Vec<Acquisition> {
    let mut out = Vec::new();
    for i in span.0..span.1.min(tokens.len()) {
        let Some(id) = tokens[i].ident() else {
            continue;
        };
        if !matches!(id, "read" | "write" | "lock") {
            continue;
        }
        if !(i > 0 && tokens[i - 1].is_punct('.')) {
            continue;
        }
        if !(tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(')')))
        {
            continue;
        }
        let after_call = i + 3;
        if !tokens.get(after_call).is_some_and(|t| t.is_punct('.')) {
            continue;
        }
        let m = after_call + 1;
        if !matches!(
            tokens.get(m).and_then(Token::ident),
            Some("unwrap" | "expect")
        ) {
            continue;
        }
        if !tokens.get(m + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let chain_end = parser::skip_balanced(tokens, m + 1);
        out.push(Acquisition {
            tok: i,
            chain_end,
            line: tokens[i].line,
        });
    }
    out
}

/// Spans of `.get_or_init(..)` argument lists (OnceLock closures).
fn scan_once_regions(tokens: &[Token], span: (usize, usize)) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in span.0..span.1.min(tokens.len()) {
        if tokens[i].ident() == Some("get_or_init")
            && i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            out.push((i + 1, parser::skip_balanced(tokens, i + 1)));
        }
    }
    out
}

/// Compute the hold region of an acquisition.
///
/// A *bound* guard (`let g = x.lock().expect("..");` — the binding is the
/// guard itself) is held to the end of its enclosing block, or to an
/// explicit `drop(g)`. A *temporary* guard (the chain continues, or the
/// acquisition sits inside a larger expression) is held to the end of the
/// enclosing statement — Rust temporaries drop at the statement's semicolon.
pub(crate) fn hold_region(tokens: &[Token], span: (usize, usize), acq: &Acquisition) -> HoldRegion {
    // Statement start: nearest `;`, `{` or `}` before the acquisition.
    let mut s = acq.tok;
    while s > span.0 {
        if tokens[s - 1].is_punct(';') || tokens[s - 1].is_punct('{') || tokens[s - 1].is_punct('}')
        {
            break;
        }
        s -= 1;
    }
    let b = if tokens.get(s).and_then(Token::ident) == Some("let") {
        // `let g = ..` or `let mut g = ..` — the binding follows the
        // optional `mut`.
        if tokens.get(s + 1).and_then(Token::ident) == Some("mut") {
            s + 2
        } else {
            s + 1
        }
    } else {
        usize::MAX
    };
    let binding = if b != usize::MAX && tokens.get(b + 1).is_some_and(|t| t.is_punct('=')) {
        tokens.get(b).and_then(Token::ident)
    } else {
        None
    };
    let bound = binding.is_some() && tokens.get(acq.chain_end).is_some_and(|t| t.is_punct(';'));

    let mut depth: i64 = 0;
    let mut j = acq.chain_end;
    let limit = span.1.min(tokens.len());
    while j < limit {
        let t = &tokens[j];
        if bound {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                if depth == 0 {
                    break; // end of the enclosing block
                }
                depth -= 1;
            } else if t.ident() == Some("drop")
                && tokens.get(j + 1).is_some_and(|n| n.is_punct('('))
                && tokens.get(j + 2).and_then(Token::ident) == binding
                && tokens.get(j + 3).is_some_and(|n| n.is_punct(')'))
            {
                break; // explicit drop ends the hold
            }
        } else {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
            } else if t.is_punct(';') && depth <= 0 {
                break; // end of the enclosing statement
            }
        }
        j += 1;
    }
    HoldRegion {
        start: acq.chain_end,
        end: j,
        once_cell: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrency::Concurrency;
    use crate::effects::{effect_hits, nostd_readiness_report, Effects, FileWaivers};
    use crate::lexer::lex;
    use crate::parser::parse;
    use std::path::PathBuf;

    type FileHits = Vec<(usize, Hit)>;

    fn analyze_one(src: &str) -> (Graph, FileHits, FileHits) {
        let lexed = lex(src);
        let parsed = parse(&lexed);
        let rel = PathBuf::from("crates/core/src/x.rs");
        let files = [SemFile {
            rel: &rel,
            tokens: &lexed.tokens,
            parsed: &parsed,
            test_ranges: &[],
        }];
        let graph = Graph::build(&files);
        let pp = graph.panic_path_hits();
        let ld = graph.lock_discipline_hits(&files);
        (graph, pp, ld)
    }

    #[test]
    fn expect_in_private_helper_reachable_from_pub_api_is_flagged() {
        let src = "
pub fn api(xs: &[f64]) -> f64 { tail(xs) }
fn tail(xs: &[f64]) -> f64 { *xs.last().expect(\"non-empty\") }
fn dead(xs: &[f64]) -> f64 { *xs.first().expect(\"never called\") }
";
        let (graph, pp, _) = analyze_one(src);
        assert_eq!(pp.len(), 1, "{pp:?}");
        assert_eq!(pp[0].1.line, 3);
        assert!(
            pp[0].1.message.contains("ntv_core::x::api"),
            "{}",
            pp[0].1.message
        );
        // `dead` is not reachable from any public root.
        let dead = graph
            .table
            .symbols
            .iter()
            .position(|s| s.name == "dead")
            .expect("symbol exists");
        assert!(!graph.reachable(dead));
    }

    #[test]
    fn param_indexing_is_flagged_but_bounded_accessors_are_not() {
        let src = "
pub fn pick(xs: &[f64], i: usize) -> f64 { xs[i] }
pub fn masked(xs: &[f64; 8], r: Reg) -> f64 { xs[r.index()] }
pub fn local(xs: &[f64]) -> f64 { let k = 0; xs[k] }
";
        let (_, pp, _) = analyze_one(src);
        assert_eq!(pp.len(), 1, "{pp:?}");
        assert_eq!(pp[0].1.line, 2);
        assert!(pp[0].1.message.contains('i'), "{}", pp[0].1.message);
    }

    #[test]
    fn messaged_unreachable_is_flagged_when_reachable() {
        let src =
            "pub fn f(n: usize) -> usize { match n { 0 => 1, _ => unreachable!(\"n is 0\") } }";
        let (_, pp, _) = analyze_one(src);
        assert_eq!(pp.len(), 1, "{pp:?}");
        // Argument-less unreachable!() stays with ntv::panic.
        let (_, pp2, _) = analyze_one("pub fn f() { unreachable!() }");
        assert!(pp2.is_empty(), "{pp2:?}");
    }

    #[test]
    fn guard_held_across_lock_acquiring_call_is_flagged() {
        let src = "
pub struct C { m: RwLock<Vec<f64>> }
impl C {
    pub fn total(&self) -> f64 {
        let guard = self.m.read().expect(\"lock\");
        self.recount(&guard)
    }
    fn recount(&self, xs: &[f64]) -> f64 {
        self.m.read().expect(\"lock\");
        xs.len() as f64
    }
}
";
        let (_, _, ld) = analyze_one(src);
        assert_eq!(ld.len(), 1, "{ld:?}");
        assert_eq!(ld[0].1.line, 6);
        assert!(ld[0].1.message.contains("recount"), "{}", ld[0].1.message);
    }

    #[test]
    fn statement_scoped_temporaries_do_not_hold_across_later_calls() {
        // The op_cache idiom: read the map under a temporary guard, then
        // build outside any lock.
        let src = "
pub struct C { m: RwLock<BTreeMap<u64, f64>> }
impl C {
    pub fn get(&self, k: u64) -> f64 {
        let hit = self.m.read().expect(\"lock\").get(&k).copied();
        match hit { Some(v) => v, None => self.build_slow(k) }
    }
    fn build_slow(&self, k: u64) -> f64 {
        let v = k as f64;
        *self.m.write().expect(\"lock\").entry(k).or_insert(v)
    }
}
";
        let (_, _, ld) = analyze_one(src);
        assert!(ld.is_empty(), "{ld:?}");
    }

    #[test]
    fn explicit_drop_ends_the_hold_region() {
        let src = "
pub struct C { m: RwLock<Vec<f64>> }
impl C {
    pub fn relock(&self) -> usize {
        let g = self.m.read().expect(\"lock\");
        let n = g.len();
        drop(g);
        self.count_again(n)
    }
    fn count_again(&self, n: usize) -> usize {
        self.m.read().expect(\"lock\");
        n
    }
}
";
        let (_, _, ld) = analyze_one(src);
        assert!(ld.is_empty(), "{ld:?}");
    }

    #[test]
    fn cross_file_reachability_connects_modules() {
        let entry_src = "pub fn entry(t: f64) -> f64 { helper::risky(t) }";
        let helper_src = "pub(crate) fn risky(t: f64) -> f64 { t.sqrt().partial_cmp(&t).map(|_| t).expect(\"finite\") }";
        let entry_lex = lex(entry_src);
        let helper_lex = lex(helper_src);
        let entry_parsed = parse(&entry_lex);
        let helper_parsed = parse(&helper_lex);
        let entry_rel = PathBuf::from("crates/core/src/entry.rs");
        let helper_rel = PathBuf::from("crates/core/src/helper.rs");
        let files = [
            SemFile {
                rel: &entry_rel,
                tokens: &entry_lex.tokens,
                parsed: &entry_parsed,
                test_ranges: &[],
            },
            SemFile {
                rel: &helper_rel,
                tokens: &helper_lex.tokens,
                parsed: &helper_parsed,
                test_ranges: &[],
            },
        ];
        let graph = Graph::build(&files);
        let pp = graph.panic_path_hits();
        assert_eq!(pp.len(), 1, "{pp:?}");
        assert_eq!(pp[0].0, 1, "finding lands in helper.rs");
        assert!(
            pp[0].1.message.contains("ntv_core::entry::entry"),
            "witness root names the public entry: {}",
            pp[0].1.message
        );
        // Linting helper.rs alone: `risky` is pub(crate), not a root.
        let alone = [files[1]];
        let graph_alone = Graph::build(&alone);
        assert!(graph_alone.panic_path_hits().is_empty());
    }

    #[test]
    fn facts_propagate_through_a_recursion_cycle() {
        // `api` holds a guard across a call into the `a` <-> `b` cycle; only
        // `b` calls `leaf`, which prints, acquires a lock and blocks on
        // `recv`. Every caller fact must cross the cycle to reach `api`.
        let src = "
use std::sync::mpsc::Receiver;
use std::sync::Mutex;
static STATE: Mutex<u64> = Mutex::new(0);
pub fn api(rx: &Receiver<u64>) -> u64 {
    let guard = STATE.lock().expect(\"state\");
    let v = a(rx, 3);
    *guard + v
}
fn a(rx: &Receiver<u64>, n: u64) -> u64 { b(rx, n) }
fn b(rx: &Receiver<u64>, n: u64) -> u64 { if n == 0 { leaf(rx) } else { a(rx, n - 1) } }
fn leaf(rx: &Receiver<u64>) -> u64 {
    println!(\"leaf\");
    *STATE.lock().expect(\"state\") += 1;
    rx.recv().unwrap_or(0)
}
";
        let lexed = lex(src);
        let parsed = parse(&lexed);
        let rel = PathBuf::from("crates/soda/src/cycle.rs");
        let files = [SemFile {
            rel: &rel,
            tokens: &lexed.tokens,
            parsed: &parsed,
            test_ranges: &[],
        }];
        let graph = Graph::build(&files);
        let eff = Effects::collect(&graph, &files);
        let mut hits = graph.lock_discipline_hits(&files);
        hits.extend(effect_hits(&graph, &files, &eff));
        hits.extend(Concurrency::analyze(&graph, &files, &eff).into_hits());
        let mut got: Vec<(RuleId, u32)> = hits
            .iter()
            .filter(|(_, h)| {
                matches!(
                    h.rule,
                    RuleId::HiddenIo | RuleId::LockDiscipline | RuleId::BlockingUnderLock
                )
            })
            .map(|(_, h)| (h.rule, h.line))
            .collect();
        got.sort();
        let mut want = vec![
            (RuleId::LockDiscipline, 7),
            (RuleId::HiddenIo, 13),
            (RuleId::BlockingUnderLock, 7),
        ];
        want.sort();
        assert_eq!(got, want, "{hits:?}");
        let message = |rule: RuleId| {
            hits.iter()
                .find(|(_, h)| h.rule == rule)
                .map(|(_, h)| h.message.clone())
                .expect("hit present")
        };
        assert!(message(RuleId::HiddenIo).contains("public API `ntv_soda::cycle::api`"));
        assert!(message(RuleId::LockDiscipline).contains("lock-acquiring `ntv_soda::cycle::a`"));
        assert!(message(RuleId::BlockingUnderLock).contains("blocking `ntv_soda::cycle::a`"));

        // With `api`'s own acquisition waived, the blocking witness is the
        // shortest confident chain through the cycle into `leaf`.
        let waivers = [FileWaivers {
            effect_escape: BTreeSet::from([6u32]),
            ..FileWaivers::default()
        }];
        let report = nostd_readiness_report(&graph, &files, &eff, &waivers);
        assert!(
            report.contains(
                "\"witness\":[\"ntv_soda::cycle::api\",\"ntv_soda::cycle::a\",\
                 \"ntv_soda::cycle::b\",\"ntv_soda::cycle::leaf\"]"
            ),
            "{report}"
        );
    }
}
