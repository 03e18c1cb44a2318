//! The cross-file flow rules: `rng-discipline`, `reduction-order`,
//! `shared-state`.
//!
//! These are the three hazards that break sharded determinism (ROADMAP
//! item 1) and that no per-file token rule can see:
//!
//! * an RNG stream shared across worker shards — results then depend on
//!   which worker drew first ([`RNG_DISCIPLINE`]);
//! * an order-dependent float fold in a merge function — `f64` addition is
//!   not associative, so the fold order is part of the result's identity
//!   ([`REDUCTION_ORDER`]);
//! * hidden mutable statics — cross-shard channels invisible to both of the
//!   above ([`SHARED_STATE`]).
//!
//! All three work on the [`crate::parse`] item inventory; `reduction-order`
//! additionally walks the [`crate::graph::CallGraph`] so a float fold
//! hidden two calls below a merge callback is still caught. Findings carry
//! exact spans, and module-scoped exemptions (`crate::exemptions`) are
//! honoured at scan time.
//!
//! [`RNG_DISCIPLINE`]: crate::rules::RNG_DISCIPLINE
//! [`REDUCTION_ORDER`]: crate::rules::REDUCTION_ORDER
//! [`SHARED_STATE`]: crate::rules::SHARED_STATE

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::exemptions::exemption_for;
use crate::graph::{named_calls, CallGraph, FnId, ModuleGraph, NamedCall};
use crate::lexer::{Tok, TokKind};
use crate::parse::{ItemKind, ParsedFile};
use crate::report::Finding;
use crate::rules::{classify, FileKind, REDUCTION_ORDER, RNG_DISCIPLINE, SHARED_STATE};

/// The names of the sanctioned seed-derivation functions: an RNG
/// constructed inside one of these (or fed an argument derived from one) is
/// a disciplined stream.
const SEED_FNS: &[&str] = &["server_seed", "pair_seed", "colocation_seed", "seed"];

/// Type names that mark a binding as an RNG stream.
const RNG_TYPES: &[&str] = &["SimRng", "Rng", "SplitMix", "SplitMix64", "Xoshiro256"];

/// Interior-mutability wrappers that make a `static` shared mutable state.
const INTERIOR_MUT: &[&str] = &[
    "RefCell",
    "Cell",
    "UnsafeCell",
    "Mutex",
    "RwLock",
    "OnceCell",
    "OnceLock",
    "LazyLock",
    "Lazy",
];

/// The worker-pool entry points (`sim_model::parallel`), each with the index
/// of its argument that runs concurrently on worker threads — the *shard*
/// closure. `parallel_map(items, workers, f)` maps with `f`;
/// `parallel_fold(items, workers, init, map, fold)` maps with `map` and runs
/// `fold` one result at a time in index order, so `fold` is merge code.
const POOL_CALLS: &[(&str, usize)] = &[("parallel_map", 2), ("parallel_fold", 3)];

/// Float accumulation sinks that ARE the canonical reducer — calls to these
/// never need flagging.
const CANONICAL_REDUCERS: &[&str] = &["det_sum", "det_merge", "det_mean"];

/// Runs the three flow rules over the parsed workspace. Returned findings
/// are unsuppressed (directive handling happens later, per file).
pub fn scan(files: &[ParsedFile], mods: &ModuleGraph, graph: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        if !matches!(classify(&f.path), FileKind::Lib | FileKind::Bin) {
            continue;
        }
        let module = mods.module_of(&f.path);
        if exemption_for(&module, SHARED_STATE).is_none() {
            shared_state(f, &mut out);
        }
        if exemption_for(&module, RNG_DISCIPLINE).is_none() {
            rng_discipline(f, &mut out);
        }
    }
    reduction_order(files, mods, graph, &mut out);
    out
}

fn finding(rule: &'static str, path: &str, tok: &Tok, message: String) -> Finding {
    Finding {
        rule,
        file: path.to_string(),
        line: tok.line,
        column: tok.col,
        message,
        suppressed: None,
    }
}

// ---------------------------------------------------------------- shared-state

fn shared_state(f: &ParsedFile, out: &mut Vec<Finding>) {
    for item in f.items_of(ItemKind::Static) {
        if item.in_test {
            continue;
        }
        let anchor = &f.toks[item.tokens.start];
        if item.is_mut_static {
            out.push(finding(
                SHARED_STATE,
                &f.path,
                anchor,
                format!(
                    "`static mut {}` is shared mutable state; shards would race on it and \
                     results would depend on scheduling — thread the value through explicit \
                     per-shard parameters",
                    item.name
                ),
            ));
            continue;
        }
        let interior = f.toks[item.tokens.clone()].iter().find(|t| {
            t.kind == TokKind::Ident
                && (INTERIOR_MUT.contains(&t.text.as_str()) || t.text.starts_with("Atomic"))
        });
        if let Some(t) = interior {
            out.push(finding(
                SHARED_STATE,
                &f.path,
                anchor,
                format!(
                    "static `{}` smuggles mutability through {}; a static with interior \
                     mutability is a cross-shard channel invisible to the determinism rules — \
                     pass state explicitly instead",
                    item.name, t.text
                ),
            ));
        }
    }
}

// -------------------------------------------------------------- rng-discipline

/// True when `name` is (or derives from) a sanctioned seed-derivation
/// function name.
fn is_seed_fn(name: &str) -> bool {
    SEED_FNS.contains(&name) || name.ends_with("_seed")
}

/// True when an identifier plausibly carries seed material.
fn is_seedish_ident(t: &Tok) -> bool {
    t.kind == TokKind::Ident && t.text.to_ascii_lowercase().contains("seed")
}

fn rng_discipline(f: &ParsedFile, out: &mut Vec<Finding>) {
    let toks = &f.toks;
    // Part A: every RNG construction must trace to a named seed derivation.
    for call in named_calls(f, "new") {
        let i = call.name_tok;
        // Only `SimRng::new(` / `<RngType>::new(` constructions.
        let is_rng_ctor = i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && RNG_TYPES.contains(&toks[i - 3].text.as_str());
        if !is_rng_ctor || f.in_test_region(toks[i].line) {
            continue;
        }
        let sanctioned_context =
            f.enclosing_fn(i).is_some_and(|idx| is_seed_fn(&f.items[idx].name));
        let seeded_args =
            toks[call.args.clone()].iter().any(|t| is_seedish_ident(t) || is_seed_fn(&t.text));
        if !sanctioned_context && !seeded_args {
            out.push(finding(
                RNG_DISCIPLINE,
                &f.path,
                &toks[i - 3],
                format!(
                    "{}::new(…) without seed provenance: RNG streams must originate from a \
                     named seed-derivation function (server_seed, pair_seed, Scenario::seed) so \
                     every shard's stream is a pure function of the scenario",
                    toks[i - 3].text
                ),
            ));
        }
    }

    // Part B: an RNG bound outside a shard closure must not be captured by
    // it — the shards would share one stream and the draw order would
    // depend on worker scheduling.
    for (call, closure) in pool_calls(f) {
        if f.in_test_region(toks[call.name_tok].line) {
            continue;
        }
        let Some(fn_idx) = f.enclosing_fn(call.name_tok) else { continue };
        let item = &f.items[fn_idx];
        let body = item.body.clone().expect("enclosing_fn only returns fns with bodies");
        let mut rng_names: BTreeSet<&str> = BTreeSet::new();
        // `let [mut] name … = … <RngType> …;` bindings before the closure.
        for j in body.start..closure.start {
            if !toks[j].is_ident("let") {
                continue;
            }
            let mut k = j + 1;
            if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            let Some(name) = toks.get(k).filter(|t| t.kind == TokKind::Ident) else { continue };
            let stmt_end = stmt_end(toks, k, closure.start);
            if toks[k..stmt_end].iter().any(|t| RNG_TYPES.contains(&t.text.as_str())) {
                rng_names.insert(&name.text);
            }
        }
        // RNG-typed parameters of the enclosing fn.
        for j in item.tokens.start..body.start {
            if toks[j].kind == TokKind::Ident
                && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                && !toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
            {
                let until = param_end(toks, j + 2, body.start);
                if toks[j + 2..until].iter().any(|t| RNG_TYPES.contains(&t.text.as_str())) {
                    rng_names.insert(&toks[j].text);
                }
            }
        }
        // First capture of each shared RNG inside the closure is the finding.
        let mut flagged: BTreeSet<&str> = BTreeSet::new();
        for t in &toks[closure.start..closure.end] {
            if t.kind == TokKind::Ident
                && rng_names.contains(t.text.as_str())
                && flagged.insert(&t.text)
            {
                out.push(finding(
                    RNG_DISCIPLINE,
                    &f.path,
                    t,
                    format!(
                        "RNG `{}` is declared outside the {} shard closure and captured by \
                         it: all shards would share one stream and the draw order would depend \
                         on worker scheduling — fork a per-item stream from a named seed \
                         derivation inside the closure instead",
                        t.text, toks[call.name_tok].text
                    ),
                ));
            }
        }
    }
}

/// Every worker-pool call in `f`, with the token range of its shard
/// argument.
fn pool_calls(f: &ParsedFile) -> Vec<(NamedCall, Range<usize>)> {
    let mut out = Vec::new();
    for &(name, shard_arg) in POOL_CALLS {
        for call in named_calls(f, name) {
            if let Some(shard) = call.arg_list.get(shard_arg).cloned() {
                out.push((call, shard));
            }
        }
    }
    out
}

/// Index of the `;` ending the statement starting near `from` (depth-aware
/// for braces), clamped to `limit`.
fn stmt_end(toks: &[Tok], from: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    let mut j = from;
    while j < limit {
        let t = &toks[j];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct(';') && depth <= 0 {
            return j;
        }
        j += 1;
    }
    limit
}

/// Index of the `,` or `)` ending a parameter's type, clamped to `limit`.
fn param_end(toks: &[Tok], from: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    let mut j = from;
    while j < limit {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(']') || t.is_punct('>') {
            depth -= 1;
        } else if t.is_punct(')') {
            if depth <= 0 {
                return j;
            }
            depth -= 1;
        } else if t.is_punct(',') && depth <= 0 {
            return j;
        }
        j += 1;
    }
    limit
}

// -------------------------------------------------------------- reduction-order

/// A function that merges shard results: it calls a [`POOL_CALLS`] entry
/// point, and its body *outside* the shard closures is the merge region (a
/// `parallel_fold` fold closure included).
struct MergeFn {
    file: usize,
    item: usize,
    /// Token ranges of the shard closures (excluded from the merge region —
    /// code in there runs sequentially per item).
    closures: Vec<Range<usize>>,
}

fn reduction_order(
    files: &[ParsedFile],
    mods: &ModuleGraph,
    graph: &CallGraph,
    out: &mut Vec<Finding>,
) {
    // 1. Find the merge functions.
    let mut merges: BTreeMap<FnId, MergeFn> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        if !matches!(classify(&f.path), FileKind::Lib | FileKind::Bin) {
            continue;
        }
        for (call, closure) in pool_calls(f) {
            if f.in_test_region(f.toks[call.name_tok].line) {
                continue;
            }
            let Some(item) = f.enclosing_fn(call.name_tok) else { continue };
            merges
                .entry((fi, item))
                .or_insert(MergeFn { file: fi, item, closures: Vec::new() })
                .closures
                .push(closure);
        }
    }

    // 2. Direct scan of each merge region.
    let mut flagged_fns: BTreeSet<FnId> = BTreeSet::new();
    for m in merges.values() {
        let f = &files[m.file];
        let body = files[m.file].items[m.item].body.clone().expect("merge fns have bodies");
        flagged_fns.insert((m.file, m.item));
        scan_accumulation(f, body.clone(), &m.closures, None, out);
    }

    // 3. Transitive scan: functions reachable from merge-region call sites.
    let mut seeds: BTreeSet<FnId> = BTreeSet::new();
    for m in merges.values() {
        let f = &files[m.file];
        for call in f.call_sites(m.item) {
            if m.closures.iter().any(|c| c.contains(&call.tok)) {
                continue;
            }
            if let Some(id) = graph.resolve(&call.name) {
                seeds.insert(id);
            }
        }
    }
    for id in graph.reachable(seeds) {
        if !flagged_fns.insert(id) {
            continue;
        }
        let f = &files[id.0];
        if !matches!(classify(&f.path), FileKind::Lib | FileKind::Bin) {
            continue;
        }
        let module = mods.module_of(&f.path);
        if exemption_for(&module, REDUCTION_ORDER).is_some() {
            continue;
        }
        let item = &f.items[id.1];
        if item.in_test {
            continue;
        }
        let Some(body) = item.body.clone() else { continue };
        scan_accumulation(f, body, &[], Some(&item.name), out);
    }

    // Merge fns themselves honour exemptions too (checked late so the
    // flagged_fns bookkeeping above stays simple).
    out.retain(|f| {
        f.rule != REDUCTION_ORDER
            || exemption_for(&mods.module_of(&f.file), REDUCTION_ORDER).is_none()
    });
}

/// Flags order-dependent float accumulation inside `body` (minus the
/// `excluded` closure ranges): float `+=`, `.sum()` with float evidence, and
/// `.fold(…)` whose combiner adds. `via` names the merge-reachable function
/// for the transitive case.
fn scan_accumulation(
    f: &ParsedFile,
    body: Range<usize>,
    excluded: &[Range<usize>],
    via: Option<&str>,
    out: &mut Vec<Finding>,
) {
    let toks = &f.toks;
    let floaty = float_bindings(f, body.clone());
    let skip = |j: usize| excluded.iter().any(|c| c.contains(&j)) || f.in_test_region(toks[j].line);
    let context = |kind: &str| match via {
        Some(name) => {
            format!("{kind} in `{name}`, which is reachable from a worker-pool merge function")
        }
        None => format!("{kind} in a worker-pool merge function"),
    };
    for j in body.start..body.end.min(toks.len()) {
        if skip(j) {
            continue;
        }
        let t = &toks[j];
        // Float `+=`.
        if t.is_punct('+')
            && toks
                .get(j + 1)
                .is_some_and(|n| n.is_punct('=') && n.line == t.line && n.col == t.col + 1)
            && !toks.get(j.wrapping_sub(1)).is_some_and(|p| p.is_punct('+'))
            && stmt_has_float_evidence(toks, j, &body, &floaty)
        {
            out.push(finding(
                REDUCTION_ORDER,
                &f.path,
                t,
                format!(
                    "{}: the accumulation order becomes part of the result once shards merge \
                     in completion order — collect the values and reduce them with \
                     sim_stats::reduce::det_sum / det_merge",
                    context("order-dependent float `+=` accumulation")
                ),
            ));
            continue;
        }
        // `.sum()` with float evidence.
        if t.is_punct('.')
            && toks.get(j + 1).is_some_and(|n| n.is_ident("sum"))
            && toks.get(j + 2).is_some_and(|n| n.is_punct('('))
            && stmt_has_float_evidence(toks, j, &body, &floaty)
        {
            out.push(finding(
                REDUCTION_ORDER,
                &f.path,
                &toks[j + 1],
                format!(
                    "{}: `.sum()` folds left-to-right over an iterator whose order the merge \
                     does not pin — use sim_stats::reduce::det_sum over a collected slice",
                    context("float `.sum()`")
                ),
            ));
            continue;
        }
        // `.fold(…)` whose combiner contains `+` (min/max folds are
        // order-safe and stay exempt).
        if t.is_punct('.')
            && toks.get(j + 1).is_some_and(|n| n.is_ident("fold"))
            && toks.get(j + 2).is_some_and(|n| n.is_punct('('))
        {
            let args_end = match_paren(toks, j + 2);
            let adds = (j + 3..args_end).any(|k| {
                toks[k].is_punct('+') && !toks.get(k + 1).is_some_and(|n| n.is_punct('='))
            });
            if adds && stmt_has_float_evidence(toks, j, &body, &floaty) {
                out.push(finding(
                    REDUCTION_ORDER,
                    &f.path,
                    &toks[j + 1],
                    format!(
                        "{}: an additive `.fold(…)` fixes this call site's association but not \
                         the merge's — route the reduction through sim_stats::reduce::det_sum",
                        context("additive float `.fold`")
                    ),
                ));
            }
        }
    }
}

/// Token index just past the `)` matching the `(` at `open`.
fn match_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_punct('(') {
            depth += 1;
        } else if toks[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    toks.len()
}

/// Names bound with float evidence inside `body`: `let [mut] n` whose
/// statement mentions a float literal, `f64`/`f32`, or an already-float
/// binding, and the accumulator parameter of a
/// `parallel_fold(items, workers, init, map, |acc, r| …)` fold closure
/// whose `init` shows such evidence.
fn float_bindings(f: &ParsedFile, body: Range<usize>) -> BTreeSet<String> {
    let toks = &f.toks;
    let mut set: BTreeSet<String> = BTreeSet::new();
    let is_evidence = |set: &BTreeSet<String>, t: &Tok| {
        t.kind == TokKind::Float
            || t.is_ident("f64")
            || t.is_ident("f32")
            || (t.kind == TokKind::Ident && set.contains(&t.text))
    };
    let folds: Vec<NamedCall> = named_calls(f, "parallel_fold")
        .into_iter()
        .filter(|call| body.contains(&call.name_tok))
        .collect();
    // Two passes so `let b = a;` after `let a = 0.0;` is caught.
    for _ in 0..2 {
        for j in body.start..body.end.min(toks.len()) {
            if !toks[j].is_ident("let") {
                continue;
            }
            let mut k = j + 1;
            if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            let Some(name) = toks.get(k).filter(|t| t.kind == TokKind::Ident) else { continue };
            let end = stmt_end(toks, k, body.end.min(toks.len()));
            if toks[k + 1..end.max(k + 1)].iter().any(|t| is_evidence(&set, t)) {
                set.insert(name.text.clone());
            }
        }
        for call in &folds {
            let (Some(init), Some(fold)) = (call.arg_list.get(2), call.arg_list.get(4)) else {
                continue;
            };
            let Some(acc) = toks.get(fold.start + 1) else { continue };
            if toks[fold.start].is_punct('|')
                && acc.kind == TokKind::Ident
                && toks[init.clone()].iter().any(|t| is_evidence(&set, t))
            {
                set.insert(acc.text.clone());
            }
        }
    }
    set
}

/// Does the statement containing token `at` show float evidence?
fn stmt_has_float_evidence(
    toks: &[Tok],
    at: usize,
    body: &Range<usize>,
    floaty: &BTreeSet<String>,
) -> bool {
    // Statement extent: back to the previous `;`/`{`, forward to the next
    // depth-0 `;` (clamped to the body).
    let mut start = at;
    while start > body.start {
        let t = &toks[start - 1];
        if t.is_punct(';') || t.is_punct('{') {
            break;
        }
        start -= 1;
    }
    let end = stmt_end(toks, at, body.end.min(toks.len()));
    toks[start..end.max(start)].iter().any(|t| {
        t.kind == TokKind::Float
            || t.is_ident("f64")
            || t.is_ident("f32")
            || (t.kind == TokKind::Ident
                && floaty.contains(&t.text)
                && !CANONICAL_REDUCERS.contains(&t.text.as_str()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CallGraph, ModuleGraph};

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let parsed: Vec<ParsedFile> =
            files.iter().map(|(p, s)| ParsedFile::parse(p, "x", s)).collect();
        let mods = ModuleGraph::build(&parsed);
        let graph = CallGraph::build(&parsed);
        scan(&parsed, &mods, &graph)
    }

    #[test]
    fn static_mut_and_interior_mutability_are_flagged() {
        let hits = run(&[(
            "crates/cpu/src/state.rs",
            "static mut TICKS: u64 = 0;\nstatic CACHE: Mutex<u32> = Mutex::new(0);\nstatic OK: u32 = 7;\n",
        )]);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h.rule == SHARED_STATE));
        assert_eq!((hits[0].line, hits[0].column), (1, 1));
        assert_eq!((hits[1].line, hits[1].column), (2, 1));
    }

    #[test]
    fn cfg_test_statics_are_exempt() {
        let hits = run(&[(
            "crates/cpu/src/state.rs",
            "#[cfg(test)]\nmod tests {\n    static NEXT: AtomicU64 = AtomicU64::new(0);\n}\n",
        )]);
        assert!(hits.is_empty());
    }

    #[test]
    fn unseeded_rng_construction_is_flagged_and_seeded_is_not() {
        let src = "fn setup(seed: u64) -> SimRng { SimRng::new(seed) }\n\
                   fn sloppy() -> SimRng { SimRng::new(42) }\n\
                   fn server_seed(x: u64) -> SimRng { SimRng::new(x ^ 7) }\n";
        let hits = run(&[("crates/cluster/src/fleet.rs", src)]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RNG_DISCIPLINE);
        assert_eq!((hits[0].line, hits[0].column), (2, 25));
    }

    #[test]
    fn rng_captured_by_parallel_map_closure_is_flagged() {
        let src = "fn merge(seed: u64) {\n    let mut rng = SimRng::new(seed);\n    \
                   let out = parallel_map(items, 4, |i| rng.next_u64() + i);\n}\n";
        let hits = run(&[("crates/bench/src/figures.rs", src)]);
        let rng_hits: Vec<_> = hits.iter().filter(|h| h.rule == RNG_DISCIPLINE).collect();
        assert_eq!(rng_hits.len(), 1);
        assert_eq!((rng_hits[0].line, rng_hits[0].column), (3, 42));
    }

    #[test]
    fn rng_captured_by_parallel_fold_map_closure_is_flagged() {
        // The map closure is shard code; the fold closure runs one result
        // at a time in index order, so its RNG use is deterministic.
        let src = "fn merge(seed: u64) {\n    let mut rng = SimRng::new(seed);\n    \
                   let out = parallel_fold(items, 4, 0, |i| rng.next_u64() + i, |a, r| {\n        \
                   *a ^= r ^ rng.next_u64();\n    });\n}\n";
        let hits = run(&[("crates/bench/src/figures.rs", src)]);
        let rng_hits: Vec<_> = hits.iter().filter(|h| h.rule == RNG_DISCIPLINE).collect();
        assert_eq!(rng_hits.len(), 1, "{hits:?}");
        assert_eq!((rng_hits[0].line, rng_hits[0].column), (3, 46));
        assert!(rng_hits[0].message.contains("parallel_fold shard closure"));
    }

    #[test]
    fn float_accumulation_in_a_fold_closure_is_flagged_but_map_closure_is_not() {
        let src = "fn merge() -> f64 {\n    parallel_fold(items, 2, 0.0, |x| {\n        \
                   let mut local = 0.0;\n        local += x;\n        local\n    }, |total, o| {\n        \
                   *total += o;\n    })\n}\n";
        let hits = run(&[("crates/bench/src/figures.rs", src)]);
        let red: Vec<_> = hits.iter().filter(|h| h.rule == REDUCTION_ORDER).collect();
        // Only the fold-closure `+=` (line 7), not the shard-local one.
        assert_eq!(red.len(), 1, "{hits:?}");
        assert_eq!((red[0].line, red[0].column), (7, 16));
    }

    #[test]
    fn float_accumulation_in_merge_region_is_flagged_but_closure_is_not() {
        let src = "fn merge() -> f64 {\n    let outs = parallel_map(items, 2, |x| {\n        \
                   let mut local = 0.0;\n        local += x;\n        local\n    });\n    \
                   let mut total = 0.0;\n    for o in outs { total += o; }\n    total\n}\n";
        let hits = run(&[("crates/bench/src/figures.rs", src)]);
        let red: Vec<_> = hits.iter().filter(|h| h.rule == REDUCTION_ORDER).collect();
        // Only the merge-region `+=` (line 8), not the shard-local one.
        assert_eq!(red.len(), 1);
        assert_eq!(red[0].line, 8);
    }

    #[test]
    fn transitive_callees_of_merge_fns_are_scanned() {
        let merge = "fn merge() {\n    let outs = parallel_map(items, 2, |x| x);\n    \
                     total_of(&outs);\n}\n";
        let helper =
            "pub fn total_of(xs: &[f64]) -> f64 {\n    xs.iter().map(|x| x * 2.0).sum()\n}\n";
        let hits =
            run(&[("crates/bench/src/figures.rs", merge), ("crates/stats/src/lib.rs", helper)]);
        let red: Vec<_> = hits.iter().filter(|h| h.rule == REDUCTION_ORDER).collect();
        assert_eq!(red.len(), 1);
        assert_eq!(red[0].file, "crates/stats/src/lib.rs");
        assert_eq!(red[0].line, 2);
        assert!(red[0].message.contains("total_of"));
    }

    #[test]
    fn min_max_folds_and_det_sum_calls_are_order_safe() {
        let src = "fn merge(outs: Vec<f64>) -> f64 {\n    \
                   let _m = parallel_map(items, 2, |x| x);\n    \
                   let worst = outs.iter().cloned().fold(f64::MAX, f64::min);\n    \
                   worst + det_sum(&outs)\n}\n";
        let hits = run(&[("crates/bench/src/figures.rs", src)]);
        assert!(hits.iter().all(|h| h.rule != REDUCTION_ORDER), "{hits:?}");
    }

    #[test]
    fn reduce_module_exemption_silences_the_canonical_reducer() {
        let merge = "fn merge() {\n    let _o = parallel_map(items, 2, |x| x);\n    \
                     det_sum(&[1.0]);\n}\n";
        let reduce = "pub fn det_sum(values: &[f64]) -> f64 {\n    let mut acc = 0.0;\n    \
                      for &v in values { acc += v; }\n    acc\n}\n";
        let hits =
            run(&[("crates/bench/src/figures.rs", merge), ("crates/stats/src/reduce.rs", reduce)]);
        assert!(hits.iter().all(|h| h.rule != REDUCTION_ORDER), "{hits:?}");
    }
}
