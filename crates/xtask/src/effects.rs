//! Platform-effect inference over the workspace call graph.
//!
//! The no-std/WASM split (ROADMAP) needs to know which functions are
//! portable pure compute and which transitively reach threads, locks,
//! process-global state, I/O, or ambient clocks. This layer answers that
//! statically: a token scan seeds per-function **effect facts** —
//!
//! * `thread` — `std::thread` paths, `.spawn(..)` calls
//! * `sync` — `Mutex`/`RwLock`/`OnceLock`/`Condvar`/`Barrier`/atomics,
//!   `.get_or_init(..)`, and the [`graph`](crate::graph) lock-acquisition
//!   scan (an acquisition through a field never names the lock type)
//! * `global` — `static` items declared inside a body (the lexer drops
//!   lifetimes, so `'static` never masquerades as one)
//! * `io` — `println!`/`eprintln!` family, `std::io`, `std::fs`,
//!   `File::open`/`File::create`
//! * `clock` — `Instant::now`, `SystemTime::now`
//! * `env` — `std::env` reads, `available_parallelism`
//!
//! — and propagates them over the call graph in two modes:
//!
//! 1. **Over-approximate reachability** (the same witness machinery as
//!    `ntv::panic-path`) powers three deny rules: `ntv::hidden-io` (io
//!    reachable from any public Library fn), `ntv::ambient-clock`
//!    (clock/env reaching a sampling or solver path), and
//!    `ntv::effect-escape` (thread/sync/global reachable from the public
//!    API of a crate the WASM split must keep pure). Diagnostics land at
//!    the *seed* site, so one inline waiver stating the invariant absorbs
//!    every over-approximate path to it — the panic-path precedent.
//! 2. **Confidence-filtered propagation** powers the `--report
//!    nostd-readiness` worklist: only confident edges carry effects,
//!    non-confident *method* calls are assumed to target `std` (a
//!    documented under-approximation the rule layer backstops),
//!    non-confident qualified calls through known-std qualifiers
//!    (`Vec::..`, `Arc::..`) are skipped — their direct effects are
//!    already seeded at the call site — and every remaining ambiguous
//!    call widens the caller to `unknown`, which the report surfaces
//!    rather than hides.
//!
//! Like the rest of the pass, everything is deterministic: symbols are
//! path-ordered, worklists run in ascending id order, and the report is
//! byte-identical across runs.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::graph::{Graph, SemFile};
use crate::json;
use crate::lexer::Token;
use crate::resolve::SymbolId;
use crate::rules::{Hit, RuleId};

/// Effect lattice bits (a `u8` bitmask per function).
pub const THREAD: u8 = 1 << 0;
/// Locks, once-cells, atomics.
pub const SYNC: u8 = 1 << 1;
/// Process-global `static` state.
pub const GLOBAL: u8 = 1 << 2;
/// Stdout/stderr/filesystem.
pub const IO: u8 = 1 << 3;
/// Wall-clock reads.
pub const CLOCK: u8 = 1 << 4;
/// Environment reads.
pub const ENV: u8 = 1 << 5;

/// Bit → report name, in mask-bit order (report arrays list effects in
/// this order, so output is deterministic).
const EFFECT_NAMES: [(u8, &str); 6] = [
    (THREAD, "thread"),
    (SYNC, "sync"),
    (GLOBAL, "global"),
    (IO, "io"),
    (CLOCK, "clock"),
    (ENV, "env"),
];

/// Which deny rule polices an effect bit — decides which waiver rule name
/// covers a seed in the readiness report.
fn bit_rule(bit: u8) -> RuleId {
    match bit {
        IO => RuleId::HiddenIo,
        CLOCK | ENV => RuleId::AmbientClock,
        _ => RuleId::EffectEscape,
    }
}

/// Render a mask as its effect names, mask-bit order.
fn mask_names(mask: u8) -> Vec<String> {
    EFFECT_NAMES
        .iter()
        .filter(|(bit, _)| mask & bit != 0)
        .map(|(_, name)| (*name).to_string())
        .collect()
}

/// One direct effect site inside a function body.
#[derive(Debug, Clone)]
pub struct Seed {
    /// 1-based source line of the effectful token.
    pub line: u32,
    /// Single effect bit this site contributes.
    pub mask: u8,
    /// What was found, for messages (e.g. ```std::thread```).
    pub what: String,
}

/// Per-symbol direct effect facts (pre-propagation).
pub struct Effects {
    /// Direct effect sites per symbol, (line, mask, what)-sorted.
    pub seeds: Vec<Vec<Seed>>,
    /// Symbol body contains an `unsafe` block — a hard portability stop.
    pub unsafe_direct: Vec<bool>,
}

impl Effects {
    /// Scan every symbol body for direct effect sites. Nested fns own
    /// their tokens (innermost span wins), mirroring the panic-op and
    /// reduction scans.
    #[must_use]
    pub fn collect(graph: &Graph, files: &[SemFile]) -> Effects {
        let n = graph.table.symbols.len();
        let mut seeds: Vec<Vec<Seed>> = (0..n).map(|_| Vec::new()).collect();
        let mut unsafe_direct = vec![false; n];
        for (id, sym) in graph.table.symbols.iter().enumerate() {
            let Some(span) = sym.body else { continue };
            let (mut s, uns) =
                scan_effects(files[sym.file].tokens, span, |tok| graph.owns(id, tok));
            unsafe_direct[id] = uns;
            for a in graph.acquisitions(id) {
                s.push(Seed {
                    line: a.line,
                    mask: SYNC,
                    what: "lock acquisition".to_string(),
                });
            }
            s.sort_by(|a, b| (a.line, a.mask, &a.what).cmp(&(b.line, b.mask, &b.what)));
            s.dedup_by(|a, b| a.line == b.line && a.mask == b.mask && a.what == b.what);
            seeds[id] = s;
        }
        Effects {
            seeds,
            unsafe_direct,
        }
    }
}

/// Is token `i` followed by `::`?
fn double_colon(tokens: &[Token], i: usize) -> bool {
    tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
}

/// Is token `i` followed by `::name`?
fn path_call(tokens: &[Token], i: usize, name: &str) -> bool {
    double_colon(tokens, i) && tokens.get(i + 3).and_then(Token::ident) == Some(name)
}

/// Token scan of one body span for direct effect sites and `unsafe`.
fn scan_effects(
    tokens: &[Token],
    span: (usize, usize),
    own: impl Fn(usize) -> bool,
) -> (Vec<Seed>, bool) {
    let mut out = Vec::new();
    let mut has_unsafe = false;
    let mut seed = |line: u32, mask: u8, what: String| {
        out.push(Seed { line, mask, what });
    };
    for i in span.0..span.1.min(tokens.len()) {
        if !own(i) {
            continue;
        }
        let t = &tokens[i];
        let Some(id) = t.ident() else { continue };
        let method = i > 0 && tokens[i - 1].is_punct('.');
        match id {
            "thread" if double_colon(tokens, i) => {
                seed(t.line, THREAD, "`std::thread`".to_string());
            }
            "spawn" if method && tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) => {
                seed(t.line, THREAD, "`.spawn(..)`".to_string());
            }
            "Mutex" | "RwLock" | "OnceLock" | "Condvar" | "Barrier" => {
                seed(t.line, SYNC, format!("`{id}`"));
            }
            "get_or_init" if method => {
                seed(t.line, SYNC, "`OnceLock::get_or_init`".to_string());
            }
            "static" => {
                seed(t.line, GLOBAL, "`static` item".to_string());
            }
            "println" | "eprintln" | "print" | "eprint"
                if tokens.get(i + 1).is_some_and(|n| n.is_punct('!')) =>
            {
                seed(t.line, IO, format!("`{id}!`"));
            }
            "io" | "fs" if double_colon(tokens, i) => {
                seed(t.line, IO, format!("`std::{id}`"));
            }
            "File" if path_call(tokens, i, "open") || path_call(tokens, i, "create") => {
                seed(t.line, IO, "`File` open/create".to_string());
            }
            "Instant" | "SystemTime" if path_call(tokens, i, "now") => {
                seed(t.line, CLOCK, format!("`{id}::now`"));
            }
            "env" if double_colon(tokens, i) => {
                seed(t.line, ENV, "`std::env`".to_string());
            }
            "available_parallelism" => {
                seed(t.line, ENV, "`available_parallelism`".to_string());
            }
            "unsafe" => has_unsafe = true,
            _ if id.starts_with("Atomic") && id.len() > "Atomic".len() => {
                seed(t.line, SYNC, format!("`{id}`"));
            }
            _ => {}
        }
    }
    (out, has_unsafe)
}

/// Is `name` a sampling/solver entry point for `ntv::ambient-clock`?
fn sampling_root(name: &str) -> bool {
    name.starts_with("sample")
        || name.contains("solve")
        || name.contains("quantile")
        || name.contains("min_spares")
}

/// Is this file part of the API surface the WASM split must keep pure?
fn pure_crate_path(rel: &std::path::Path) -> bool {
    let p = rel.to_string_lossy().replace('\\', "/");
    [
        "crates/units/",
        "crates/device/",
        "crates/circuit/",
        "crates/mc/",
        "crates/core/",
    ]
    .iter()
    .any(|d| p.starts_with(d))
        || p.contains("tests/fixtures/library/pure/")
}

/// All `ntv::hidden-io` / `ntv::ambient-clock` / `ntv::effect-escape` hits
/// as (file index, hit). Diagnostics land at the seed site with a witness
/// chain root in the message, mirroring `ntv::panic-path`.
#[must_use]
pub fn effect_hits(graph: &Graph, files: &[SemFile], eff: &Effects) -> Vec<(usize, Hit)> {
    let syms = &graph.table.symbols;
    let clock_roots: Vec<SymbolId> = (0..syms.len())
        .filter(|&id| syms[id].is_pub && sampling_root(&syms[id].name))
        .collect();
    let clock_witness = graph.witness_from(&clock_roots);
    let pure_roots: Vec<SymbolId> = (0..syms.len())
        .filter(|&id| syms[id].is_pub && pure_crate_path(files[syms[id].file].rel))
        .collect();
    let pure_witness = graph.witness_from(&pure_roots);

    let mut out = Vec::new();
    for (id, sym) in syms.iter().enumerate() {
        for seed in &eff.seeds[id] {
            if seed.mask & IO != 0 {
                if let Some(root) = graph.witness_root(id) {
                    out.push((
                        sym.file,
                        Hit {
                            rule: RuleId::HiddenIo,
                            line: seed.line,
                            message: format!(
                                "hidden I/O ({}) in `{}` is reachable from public API `{}`",
                                seed.what, sym.fq, syms[root].fq
                            ),
                        },
                    ));
                }
            }
            if seed.mask & (CLOCK | ENV) != 0 && clock_witness[id] != usize::MAX {
                out.push((
                    sym.file,
                    Hit {
                        rule: RuleId::AmbientClock,
                        line: seed.line,
                        message: format!(
                            "ambient read ({}) in `{}` reaches the sampling/solver path \
                             rooted at public API `{}`",
                            seed.what, sym.fq, syms[clock_witness[id]].fq
                        ),
                    },
                ));
            }
            if seed.mask & (THREAD | SYNC | GLOBAL) != 0 && pure_witness[id] != usize::MAX {
                out.push((
                    sym.file,
                    Hit {
                        rule: RuleId::EffectEscape,
                        line: seed.line,
                        message: format!(
                            "platform effect ({}) in `{}` is reachable from pure-crate \
                             public API `{}`",
                            seed.what, sym.fq, syms[pure_witness[id]].fq
                        ),
                    },
                ));
            }
        }
    }
    out
}

/// Non-confident *qualified* calls through these qualifiers are `std`
/// shapes whose direct effects are already seeded at the call site
/// (`Mutex::new`, `Instant::now`, ...); they must not widen the caller to
/// `unknown`.
const STD_QUALIFIERS: &[&str] = &[
    "Arc",
    "BTreeMap",
    "BTreeSet",
    "Box",
    "Cell",
    "Condvar",
    "Cow",
    "Duration",
    "Err",
    "Instant",
    "Iterator",
    "Mutex",
    "Ok",
    "OnceLock",
    "Option",
    "Ordering",
    "Path",
    "PathBuf",
    "Rc",
    "RefCell",
    "Result",
    "RwLock",
    "Some",
    "String",
    "SystemTime",
    "Vec",
    "VecDeque",
    "alloc",
    "array",
    "bool",
    "char",
    "cmp",
    "collections",
    "core",
    "f32",
    "f64",
    "fmt",
    "i128",
    "i16",
    "i32",
    "i64",
    "i8",
    "isize",
    "iter",
    "mem",
    "num",
    "ptr",
    "slice",
    "std",
    "str",
    "u128",
    "u16",
    "u32",
    "u64",
    "u8",
    "usize",
];

fn is_std_qualifier(q: &str) -> bool {
    STD_QUALIFIERS.binary_search(&q).is_ok() || q.starts_with("Atomic") || q.starts_with("NonZero")
}

/// What a symbol reaches over confident edges, joined bitwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Reach {
    /// Effects reachable through *unwaived* seeds — blocking.
    unwaived: u8,
    /// Effects reachable through waived seeds — gated.
    waived: u8,
    /// Widened by an ambiguous call somewhere in the filtered closure.
    unknown: bool,
    /// `unsafe` reachable — a hard blocked marker.
    unsafe_reach: bool,
}

impl Reach {
    /// Caller join for [`Graph::propagate_callers`].
    fn join(&self, callee: &Reach) -> Option<Reach> {
        let joined = Reach {
            unwaived: self.unwaived | callee.unwaived,
            waived: self.waived | callee.waived,
            unknown: self.unknown | callee.unknown,
            unsafe_reach: self.unsafe_reach | callee.unsafe_reach,
        };
        (joined != *self).then_some(joined)
    }
}

/// Confidence-filtered propagation state for the readiness report.
struct Propagated {
    /// Per-symbol reach, propagated over confident edges.
    reach: Vec<Reach>,
    /// The ambiguous call name that widened this symbol directly, if any.
    widen_call: Vec<Option<String>>,
}

/// Waiver line coverage for one library file, per effect rule (a waiver
/// covers its own line and the next, exactly as in the engine).
#[derive(Debug, Default, Clone)]
pub struct FileWaivers {
    /// Lines covered by an `ntv:allow(hidden-io)` waiver.
    pub hidden_io: BTreeSet<u32>,
    /// Lines covered by an `ntv:allow(ambient-clock)` waiver.
    pub ambient_clock: BTreeSet<u32>,
    /// Lines covered by an `ntv:allow(effect-escape)` waiver.
    pub effect_escape: BTreeSet<u32>,
}

impl FileWaivers {
    fn covers(&self, rule: RuleId, line: u32) -> bool {
        match rule {
            RuleId::HiddenIo => self.hidden_io.contains(&line),
            RuleId::AmbientClock => self.ambient_clock.contains(&line),
            RuleId::EffectEscape => self.effect_escape.contains(&line),
            _ => false,
        }
    }
}

/// Fixed-point propagation over confidence-filtered edges.
fn propagate(graph: &Graph, eff: &Effects, waivers: &[FileWaivers]) -> Propagated {
    let n = graph.table.symbols.len();
    let mut reach = vec![Reach::default(); n];
    let mut widen_call = vec![None; n];
    for id in 0..n {
        let sym = &graph.table.symbols[id];
        let r = &mut reach[id];
        r.unsafe_reach = eff.unsafe_direct[id];
        for seed in &eff.seeds[id] {
            if waivers[sym.file].covers(bit_rule(seed.mask), seed.line) {
                r.waived |= seed.mask;
            } else {
                r.unwaived |= seed.mask;
            }
        }
        for call in graph.calls(id) {
            if call.confident || call.site.is_method || call.candidates.is_empty() {
                continue; // followed by propagation / assumed std / resolves to nothing
            }
            if call.site.qualifier.as_deref().is_some_and(is_std_qualifier) {
                continue; // std constructor/path: effects seeded at the site
            }
            if widen_call[id].is_none() {
                widen_call[id] = Some(call.site.name.clone());
            }
            r.unknown = true;
        }
    }
    Propagated {
        reach: graph.propagate_callers(reach, Reach::join),
        widen_call,
    }
}

/// Shortest path (by BFS over filtered edges, ascending neighbors) from
/// `from` to the first symbol satisfying `hit`, inclusive of both ends.
fn witness_chain(
    graph: &Graph,
    from: SymbolId,
    hit: impl Fn(SymbolId) -> bool,
) -> Option<Vec<SymbolId>> {
    let n = graph.table.symbols.len();
    let mut parent: Vec<Option<SymbolId>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = VecDeque::from([from]);
    seen[from] = true;
    while let Some(s) = queue.pop_front() {
        if hit(s) {
            let mut chain = vec![s];
            let mut cur = s;
            while let Some(prev) = parent[cur] {
                chain.push(prev);
                cur = prev;
            }
            chain.reverse();
            return Some(chain);
        }
        for &t in graph.confident_callees(s) {
            if !seen[t] {
                seen[t] = true;
                parent[t] = Some(s);
                queue.push_back(t);
            }
        }
    }
    None
}

/// The `--report nostd-readiness` JSON: every `pub` fn classified as
/// `portable` / `gated` / `blocked` for the no-std/WASM split, with a
/// per-crate summary. Deterministic — symbols arrive path-sorted and every
/// list is emitted in sorted order — so two runs are byte-identical.
///
/// Classification over the confidence-filtered closure:
///
/// * **blocked** — reaches an *unwaived* effect seed, or `unsafe` code;
///   the entry carries the shortest witness chain to the blocking symbol.
/// * **gated** — reaches only *waived* seeds (an inline waiver states the
///   invariant, so a feature gate can carve the effect out) and/or was
///   widened to `unknown` by an ambiguous call; the entry lists the
///   effects and the carrier (`via`).
/// * **portable** — none of the above: pure compute, ready to move.
#[must_use]
pub fn nostd_readiness_report(
    graph: &Graph,
    files: &[SemFile],
    eff: &Effects,
    waivers: &[FileWaivers],
) -> String {
    assert_eq!(
        files.len(),
        waivers.len(),
        "waiver sets must parallel the file list"
    );
    let p = propagate(graph, eff, waivers);
    let syms = &graph.table.symbols;

    let mut crate_counts: BTreeMap<String, [usize; 3]> = BTreeMap::new();
    let mut entries: Vec<(String, u32, String)> = Vec::new();
    for (id, sym) in syms.iter().enumerate() {
        if !sym.is_pub {
            continue;
        }
        let rel = files[sym.file].rel.to_string_lossy().replace('\\', "/");
        let krate = sym.fq.split("::").next().unwrap_or("").to_string();
        let head = format!(
            "{{\"fn\":\"{}\",\"file\":\"{}\",\"line\":{}",
            json::escape(&sym.fq),
            json::escape(&rel),
            sym.line
        );
        let r = p.reach[id];
        let blocked = r.unsafe_reach || r.unwaived != 0;
        let gated = r.waived != 0 || r.unknown;
        let (slot, entry) = if blocked {
            let chain = witness_chain(graph, id, |t| {
                eff.unsafe_direct[t]
                    || eff.seeds[t]
                        .iter()
                        .any(|s| !waivers[syms[t].file].covers(bit_rule(s.mask), s.line))
            })
            .unwrap_or_else(|| vec![id]);
            let chain_fqs: Vec<String> = chain.iter().map(|&t| syms[t].fq.clone()).collect();
            let mut e = format!(
                "{head},\"status\":\"blocked\",\"effects\":{},\"witness\":{}",
                json::string_array(&mask_names(r.unwaived)),
                json::string_array(&chain_fqs),
            );
            if r.unsafe_reach {
                e.push_str(",\"unsafe\":true");
            }
            e.push('}');
            (2, e)
        } else if gated {
            let mut effects = mask_names(r.waived);
            if r.unknown {
                effects.push("unknown".to_string());
            }
            let via = witness_chain(graph, id, |t| {
                eff.seeds[t]
                    .iter()
                    .any(|s| waivers[syms[t].file].covers(bit_rule(s.mask), s.line))
            })
            .map(|chain| syms[*chain.last().unwrap_or(&id)].fq.clone())
            .or_else(|| {
                witness_chain(graph, id, |t| p.widen_call[t].is_some()).map(|chain| {
                    let t = *chain.last().unwrap_or(&id);
                    format!(
                        "{} -> `{}`(unresolved)",
                        syms[t].fq,
                        p.widen_call[t].as_deref().unwrap_or("?")
                    )
                })
            })
            .unwrap_or_else(|| sym.fq.clone());
            (
                1,
                format!(
                    "{head},\"status\":\"gated\",\"effects\":{},\"via\":\"{}\"}}",
                    json::string_array(&effects),
                    json::escape(&via),
                ),
            )
        } else {
            (0, format!("{head},\"status\":\"portable\"}}"))
        };
        crate_counts.entry(krate).or_default()[slot] += 1;
        entries.push((sym.fq.clone(), sym.line, entry));
    }
    entries.sort();

    let crate_items: Vec<String> = crate_counts
        .iter()
        .map(|(krate, counts)| {
            format!(
                "{{\"crate\":\"{}\",\"portable\":{},\"gated\":{},\"blocked\":{}}}",
                json::escape(krate),
                counts[0],
                counts[1],
                counts[2]
            )
        })
        .collect();
    let entry_items: Vec<String> = entries.into_iter().map(|(_, _, e)| e).collect();
    format!(
        "{{\n  \"schema\": \"ntv-nostd-readiness/1\",\n  \"crates\": {},\n  \
         \"functions\": {}\n}}\n",
        json::array(&crate_items, 4, 2),
        json::array(&entry_items, 4, 2),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use std::path::PathBuf;

    fn analyze(src: &str, rel: &str) -> (Vec<(usize, Hit)>, String) {
        let lexed = lex(src);
        let parsed = parse(&lexed);
        let rel = PathBuf::from(rel);
        let files = [SemFile {
            rel: &rel,
            tokens: &lexed.tokens,
            parsed: &parsed,
            test_ranges: &[],
        }];
        let graph = Graph::build(&files);
        let eff = Effects::collect(&graph, &files);
        let hits = effect_hits(&graph, &files, &eff);
        let report = nostd_readiness_report(&graph, &files, &eff, &[FileWaivers::default()]);
        (hits, report)
    }

    #[test]
    fn hidden_io_fires_on_reachable_print_and_classifies_blocked() {
        let (hits, report) = analyze(
            "pub fn api(x: u64) -> u64 { helper(x) }\nfn helper(x: u64) -> u64 { println!(\"{x}\"); x }",
            "crates/soda/src/x.rs",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].1.rule, RuleId::HiddenIo);
        assert_eq!(hits[0].1.line, 2);
        assert!(hits[0].1.message.contains("ntv_soda::x::api"));
        assert!(report.contains("\"status\":\"blocked\""), "{report}");
        assert!(report.contains("\"effects\":[\"io\"]"), "{report}");
        assert!(
            report.contains("\"witness\":[\"ntv_soda::x::api\",\"ntv_soda::x::helper\"]"),
            "{report}"
        );
    }

    #[test]
    fn ambient_clock_fires_only_on_sampling_paths() {
        let (hits, _) = analyze(
            "pub fn sample_thing(n: u64) -> u64 { seed(n) }\nfn seed(n: u64) -> u64 { let t = std::env::var(\"X\"); let _ = t; n }",
            "crates/soda/src/x.rs",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].1.rule, RuleId::AmbientClock);
        // The same effect without a sampling/solver root stays quiet.
        let (hits, _) = analyze(
            "pub fn tabulate(n: u64) -> u64 { seed(n) }\nfn seed(n: u64) -> u64 { let t = std::env::var(\"X\"); let _ = t; n }",
            "crates/soda/src/x.rs",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn effect_escape_fires_from_pure_crates_only() {
        let src = "pub fn total(n: u64) -> u64 { let m = Mutex::new(n); let _ = m; n }";
        let (hits, _) = analyze(src, "crates/device/src/x.rs");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].1.rule, RuleId::EffectEscape);
        // Soda is not on the pure-crate list.
        let (hits, report) = analyze(src, "crates/soda/src/x.rs");
        assert!(hits.is_empty(), "{hits:?}");
        // ... but the readiness report still classifies it blocked.
        assert!(report.contains("\"status\":\"blocked\""), "{report}");
        assert!(report.contains("\"effects\":[\"sync\"]"), "{report}");
    }

    #[test]
    fn unsafe_blocks_and_statics_are_hard_markers() {
        let (_, report) = analyze(
            "pub fn raw(n: u64) -> u64 { unsafe { n } }",
            "crates/soda/src/x.rs",
        );
        assert!(report.contains("\"unsafe\":true"), "{report}");
        let (hits, report) = analyze(
            "pub fn counter() -> u64 { static N: u64 = 7; N }",
            "crates/core/src/x.rs",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].1.rule, RuleId::EffectEscape);
        assert!(report.contains("\"effects\":[\"global\"]"), "{report}");
    }

    #[test]
    fn waived_seeds_classify_gated_not_blocked() {
        let src = "pub fn total(n: u64) -> u64 { let m = Mutex::new(n); let _ = m; n }";
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
        let eff = Effects::collect(&graph, &files);
        let waivers = [FileWaivers {
            effect_escape: BTreeSet::from([1u32]),
            ..FileWaivers::default()
        }];
        let report = nostd_readiness_report(&graph, &files, &eff, &waivers);
        assert!(report.contains("\"status\":\"gated\""), "{report}");
        assert!(report.contains("\"effects\":[\"sync\"]"), "{report}");
        assert!(
            report.contains("\"via\":\"ntv_core::x::total\""),
            "{report}"
        );
        assert!(!report.contains("blocked\":1"), "{report}");
    }

    #[test]
    fn ambiguous_free_calls_widen_to_unknown_not_portable() {
        // Two free fns named `helper` in different modules: a free call
        // can't pick one, so the caller is widened, not declared portable.
        let a = "pub fn entry(n: u64) -> u64 { helper(n) }\nfn helper(n: u64) -> u64 { n }";
        let b = "fn helper(n: u64) -> u64 { n + 1 }";
        let la = lex(a);
        let lb = lex(b);
        let pa = parse(&la);
        let pb = parse(&lb);
        let ra = PathBuf::from("crates/soda/src/a.rs");
        let rb = PathBuf::from("crates/soda/src/b.rs");
        let files = [
            SemFile {
                rel: &ra,
                tokens: &la.tokens,
                parsed: &pa,
                test_ranges: &[],
            },
            SemFile {
                rel: &rb,
                tokens: &lb.tokens,
                parsed: &pb,
                test_ranges: &[],
            },
        ];
        let graph = Graph::build(&files);
        let eff = Effects::collect(&graph, &files);
        let report = nostd_readiness_report(
            &graph,
            &files,
            &eff,
            &[FileWaivers::default(), FileWaivers::default()],
        );
        assert!(report.contains("\"status\":\"gated\""), "{report}");
        assert!(report.contains("\"effects\":[\"unknown\"]"), "{report}");
        assert!(report.contains("unresolved"), "{report}");
    }

    #[test]
    fn std_qualifiers_and_methods_stay_portable() {
        let (_, report) = analyze(
            "pub fn calc(xs: &[u64]) -> u64 { let v = Vec::from(xs); v.iter().copied().max().unwrap_or(0) }",
            "crates/soda/src/x.rs",
        );
        assert!(report.contains("\"status\":\"portable\""), "{report}");
        assert!(!report.contains("unknown"), "{report}");
    }

    #[test]
    fn report_is_byte_identical_and_counts_crates() {
        let src =
            "pub fn a() -> u64 { 1 }\npub fn b() -> u64 { let m = Mutex::new(1u64); let _ = m; 2 }";
        let (_, r1) = analyze(src, "crates/device/src/x.rs");
        let (_, r2) = analyze(src, "crates/device/src/x.rs");
        assert_eq!(r1, r2);
        assert!(r1.contains("\"schema\": \"ntv-nostd-readiness/1\""), "{r1}");
        assert!(
            r1.contains("{\"crate\":\"ntv_device\",\"portable\":1,\"gated\":0,\"blocked\":1}"),
            "{r1}"
        );
    }
}
