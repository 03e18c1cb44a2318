//! The rule catalog and the per-file scanners.
//!
//! Every rule reports [`Finding`]s with exact `file:line:column` spans taken
//! from the token stream, and every finding can be suppressed — only on the
//! offending line, only with a reason — via
//!
//! ```text
//! ... offending code ...  // simlint: allow(<rule>, "<reason>")
//! ```
//!
//! Suppressed findings stay in the report (with their reason); a directive
//! without a reason does not suppress, and a directive that suppresses
//! nothing is itself a finding ([`ALLOW_HYGIENE`]).
//!
//! Test code (integration tests, benches, and `#[cfg(test)]` items inside
//! library sources) is exempt from the determinism and panic-policy rules:
//! it cannot perturb simulation results, and `unwrap()` in a test *is* the
//! assertion. The hygiene rules ([`LINT_HEADER`], [`CANON_MANIFEST`]) are
//! workspace-level and live in [`crate::manifest`] / [`crate::Workspace`].

use crate::exemptions::{exempt_rules, exemption_for};
use crate::graph::{ModuleGraph, ModulePath};
use crate::lexer::{tokenize, Tok, TokKind};
use crate::report::Finding;

/// Rule id: `HashMap`/`HashSet` in deterministic simulation code.
pub const NONDET_COLLECTIONS: &str = "nondet-collections";
/// Rule id: wall-clock, OS-entropy or environment reads in simulation code.
pub const NONDET_TIME: &str = "nondet-time";
/// Rule id: float `==` / `!=` comparisons.
pub const FLOAT_EQ: &str = "float-eq";
/// Rule id: bare `.unwrap()` / empty `.expect("")` in non-test library code.
pub const PANIC_POLICY: &str = "panic-policy";
/// Rule id: missing crate lint header (`#![forbid(unsafe_code)]`,
/// `#![warn(missing_docs)]`, `[lints] workspace = true`).
pub const LINT_HEADER: &str = "lint-header";
/// Rule id: a `CanonicalKey` type definition drifted from the committed
/// manifest (field added without a conscious canon re-pin).
pub const CANON_MANIFEST: &str = "canon-manifest";
/// Rule id: malformed, unknown-rule or no-op `simlint: allow` directives.
pub const ALLOW_HYGIENE: &str = "allow-hygiene";
/// Rule id: OS threads started anywhere but the one worker pool,
/// `sim_model::parallel`.
pub const THREAD_POOL: &str = "thread-pool";
/// Rule id: RNG streams must originate from named seed-derivation functions
/// and must not be shared across `parallel_map` / `parallel_fold` shards.
pub const RNG_DISCIPLINE: &str = "rng-discipline";
/// Rule id: float accumulation on a `parallel_map` / `parallel_fold` merge
/// path must go through the canonical reducer in `sim_stats::reduce`.
pub const REDUCTION_ORDER: &str = "reduction-order";
/// Rule id: no `static mut` and no non-test statics with interior
/// mutability in simulation code.
pub const SHARED_STATE: &str = "shared-state";
/// Rule id: line waivers that duplicate a module-scoped exemption.
pub const SCOPED_EXEMPTIONS: &str = "scoped-exemptions";

/// One catalog entry for `--list-rules`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The rule id accepted by `--rule` and `simlint: allow(...)`.
    pub id: &'static str,
    /// One-line description of what the rule enforces.
    pub summary: &'static str,
    /// Where the rule applies (and its built-in allowlist, if any).
    pub scope: &'static str,
}

/// The full rule catalog, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: NONDET_COLLECTIONS,
        summary: "no std HashMap/HashSet: their iteration order is nondeterministic and must \
                  never reach simulation results; use BTreeMap/BTreeSet or sorted-key iteration",
        scope: "all first-party non-test code; module-scoped exemption: bench::engine (the \
                Engine memo is keyed lookup only)",
    },
    RuleInfo {
        id: NONDET_TIME,
        summary: "no Instant::now/SystemTime/thread_rng/env reads: simulation time comes from \
                  the cycle counter and entropy from seeded SimRng streams",
        scope: "all first-party non-test code, with no module-scoped exemption",
    },
    RuleInfo {
        id: FLOAT_EQ,
        summary: "no float == / != comparisons (detected against float literals): bit-exact \
                  checks go through f64::to_bits, tolerance checks through an epsilon",
        scope: "all first-party non-test code",
    },
    RuleInfo {
        id: PANIC_POLICY,
        summary: "no bare .unwrap() or empty .expect(\"\") in library code: name the invariant \
                  in an expect message or propagate the error",
        scope: "library sources only (bins, examples, benches and test code exempt)",
    },
    RuleInfo {
        id: LINT_HEADER,
        summary: "every crate's lib.rs carries #![forbid(unsafe_code)] and \
                  #![warn(missing_docs)], and its Cargo.toml opts into the workspace lint table",
        scope: "every first-party crate (vendor shims excluded)",
    },
    RuleInfo {
        id: CANON_MANIFEST,
        summary: "every locally-defined CanonicalKey type matches its struct-field fingerprint \
                  pinned in crates/simlint/canon_manifest.json — a field change forces a \
                  conscious encode_key review and --fix-manifest re-pin",
        scope: "all first-party non-test code",
    },
    RuleInfo {
        id: ALLOW_HYGIENE,
        summary: "simlint: allow directives must name a known rule and actually suppress a \
                  finding on their line",
        scope: "every scanned file",
    },
    RuleInfo {
        id: THREAD_POOL,
        summary: "no thread::spawn, thread::scope or thread::Builder: sim_model::parallel is \
                  the one worker pool, and its index-order fold is what keeps results \
                  independent of worker count and scheduling; fan work out through \
                  parallel_map or parallel_fold",
        scope: "all first-party non-test code; module-scoped exemption: model::parallel (it \
                is the pool)",
    },
    RuleInfo {
        id: RNG_DISCIPLINE,
        summary: "every RNG construction must trace to a named seed-derivation function \
                  (server_seed, pair_seed, Scenario::seed), and an RNG bound outside a \
                  parallel_map closure or a parallel_fold map closure must not be captured by \
                  it — shared streams make draw order depend on worker scheduling",
        scope: "library and binary sources of all first-party crates, non-test code",
    },
    RuleInfo {
        id: REDUCTION_ORDER,
        summary: "float accumulation (+=, additive .fold, float .sum) inside parallel_map and \
                  parallel_fold merge functions (a parallel_fold fold closure included) — or \
                  anything they reach through unambiguous calls — must go through \
                  sim_stats::reduce::det_sum/det_merge so the reduction tree is a pure function \
                  of the data, never of thread timing",
        scope: "library and binary sources; module-scoped exemption: stats::reduce (it defines \
                the canonical reducer)",
    },
    RuleInfo {
        id: SHARED_STATE,
        summary: "no `static mut`, and no non-test statics wrapping interior mutability \
                  (RefCell/Cell/Mutex/RwLock/Once*/Lazy*/Atomic*): hidden shared state is a \
                  cross-shard channel the determinism rules cannot see",
        scope: "library and binary sources of all first-party crates, non-test code",
    },
    RuleInfo {
        id: SCOPED_EXEMPTIONS,
        summary: "line waivers must not duplicate a module-scoped exemption: if the module is \
                  already exempt from a rule, a simlint: allow for that rule is stale noise",
        scope: "every scanned file; built-in exemptions: bench::engine (nondet-collections), \
                stats::reduce (reduction-order), model::parallel (thread-pool)",
    },
];

/// Looks up a catalog entry by id.
pub fn rule_by_id(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// What kind of source a file is, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A library source under `src/` (rules apply in full).
    Lib,
    /// A binary source (`src/bin/*`, `src/main.rs`): a CLI driver, exempt
    /// from the panic policy.
    Bin,
    /// An example: demo code, exempt from the panic policy.
    Example,
    /// An integration test: exempt from determinism and panic rules.
    Test,
    /// A criterion-style bench: exempt like test code (benches measure wall
    /// clocks by design).
    Bench,
}

/// Classifies a workspace-relative path (`/`-separated) into a [`FileKind`].
pub fn classify(path: &str) -> FileKind {
    if path.contains("/benches/") {
        FileKind::Bench
    } else if path.starts_with("tests/") || path.contains("/tests/") {
        FileKind::Test
    } else if path.starts_with("examples/") || path.contains("/examples/") {
        FileKind::Example
    } else if path.contains("/src/bin/") || path.ends_with("src/main.rs") {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

/// True when `toks[i..]` spells the `::`-separated identifier path `segs`
/// (e.g. `["Instant", "now"]` matches `Instant::now` and `Instant :: now`).
fn match_path(toks: &[Tok], i: usize, segs: &[&str]) -> bool {
    let mut j = i;
    for (k, seg) in segs.iter().enumerate() {
        if k > 0 {
            let sep = toks.get(j).is_some_and(|t| t.is_punct(':'))
                && toks.get(j + 1).is_some_and(|t| t.is_punct(':'));
            if !sep {
                return false;
            }
            j += 2;
        }
        if !toks.get(j).is_some_and(|t| t.is_ident(seg)) {
            return false;
        }
        j += 1;
    }
    true
}

/// Line ranges (1-based, inclusive) of `#[cfg(test)]` items: the attribute,
/// any stacked attributes after it, and the full item they gate (brace- or
/// semicolon-terminated, found by token-level brace matching — braces inside
/// strings or comments cannot confuse it).
pub fn test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let attr = toks[i].is_punct('#')
            && match_path(toks, i + 2, &["cfg"])
            && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 4).is_some_and(|t| t.is_ident("test"))
            && toks.get(i + 5).is_some_and(|t| t.is_punct(')'))
            && toks.get(i + 6).is_some_and(|t| t.is_punct(']'));
        if !attr {
            i += 1;
            continue;
        }
        let start_line = toks[i].line;
        let mut j = i + 7;
        // Skip any further stacked attributes.
        while toks.get(j).is_some_and(|t| t.is_punct('#'))
            && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            let mut depth = 0usize;
            j += 1;
            while let Some(t) = toks.get(j) {
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // Consume the gated item: to the matching close brace of its first
        // brace block, or to a top-level semicolon (e.g. a gated `use`).
        let mut depth = 0usize;
        let mut end_line = start_line;
        while let Some(t) = toks.get(j) {
            end_line = t.line;
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
            } else if t.is_punct(';') && depth == 0 {
                break;
            }
            j += 1;
        }
        regions.push((start_line, end_line));
        i = j + 1;
    }
    regions
}

fn in_regions(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| line >= a && line <= b)
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

/// Runs the per-file rules over one source file and returns the raw
/// findings. `path` is the workspace-relative path (used for kind
/// classification and the built-in allowlists). Suppression directives are
/// applied separately, by [`apply_suppressions`], once *all* findings for a
/// file — including the workspace-level ones anchored in it — are known.
pub fn scan_source(path: &str, source: &str) -> Vec<Finding> {
    scan_source_in(path, &ModuleGraph::fallback(path), source)
}

/// [`scan_source`] with an explicit module placement (the workspace pass
/// resolves modules through the real `mod`-declaration graph; the plain
/// entry point uses the path-derived fallback, which coincides for
/// conventional layouts).
pub fn scan_source_in(path: &str, module: &ModulePath, source: &str) -> Vec<Finding> {
    let kind = classify(path);
    let toks = tokenize(source);
    let regions = if kind == FileKind::Lib { test_regions(&toks) } else { Vec::new() };
    // Test-like code cannot perturb simulation results; the panic policy
    // additionally exempts CLI drivers and demo code.
    let det_exempt = matches!(kind, FileKind::Test | FileKind::Bench);
    let panic_exempt = kind != FileKind::Lib;

    let mut out = Vec::new();
    if !det_exempt {
        let skip = |line: u32| in_regions(&regions, line);
        if exemption_for(module, NONDET_COLLECTIONS).is_none() {
            nondet_collections(path, &toks, &skip, &mut out);
        }
        if exemption_for(module, NONDET_TIME).is_none() {
            nondet_time(path, &toks, &skip, &mut out);
        }
        float_eq(path, &toks, &skip, &mut out);
        if exemption_for(module, THREAD_POOL).is_none() {
            thread_pool(path, &toks, &skip, &mut out);
        }
        if !panic_exempt {
            panic_policy(path, &toks, &skip, &mut out);
        }
    }
    out
}

fn nondet_collections(
    path: &str,
    toks: &[Tok],
    skip: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    for t in toks {
        if skip(t.line) {
            continue;
        }
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            out.push(finding(
                NONDET_COLLECTIONS,
                path,
                t,
                format!(
                    "std::collections::{} has nondeterministic iteration order; use \
                     BTreeMap/BTreeSet (or sorted-key iteration) so no result can depend on \
                     hash order",
                    t.text
                ),
            ));
        }
    }
}

fn nondet_time(path: &str, toks: &[Tok], skip: &dyn Fn(u32) -> bool, out: &mut Vec<Finding>) {
    const ENV_READS: &[&str] = &["var", "vars", "var_os", "vars_os", "temp_dir"];
    for (i, t) in toks.iter().enumerate() {
        if skip(t.line) {
            continue;
        }
        let message = if match_path(toks, i, &["Instant", "now"]) {
            Some(
                "Instant::now() reads the wall clock; simulation time must come from the \
                  cycle counter"
                    .to_string(),
            )
        } else if t.is_ident("SystemTime") {
            Some(
                "SystemTime is wall-clock state; simulated timestamps must be derived from \
                  the seeded clock"
                    .to_string(),
            )
        } else if t.is_ident("thread_rng") || t.is_ident("from_entropy") {
            Some(format!(
                "{} draws OS entropy; use sim_model::SimRng seeded from the scenario",
                t.text
            ))
        } else if t.is_ident("env") && ENV_READS.iter().any(|m| match_path(toks, i, &["env", m])) {
            let which = &toks[i + 3].text;
            Some(format!(
                "std::env::{which} makes results depend on the process environment; thread \
                 configuration through explicit parameters instead"
            ))
        } else {
            None
        };
        if let Some(message) = message {
            out.push(finding(NONDET_TIME, path, t, message));
        }
    }
}

fn thread_pool(path: &str, toks: &[Tok], skip: &dyn Fn(u32) -> bool, out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if skip(t.line) || !t.is_ident("thread") {
            continue;
        }
        let Some(entry) =
            ["spawn", "scope", "Builder"].into_iter().find(|e| match_path(toks, i, &["thread", e]))
        else {
            continue;
        };
        out.push(finding(
            THREAD_POOL,
            path,
            t,
            format!(
                "thread::{entry} starts OS threads outside sim_model::parallel, the one worker \
                 pool; fan the work out through parallel_map or parallel_fold"
            ),
        ));
    }
}

fn float_eq(path: &str, toks: &[Tok], skip: &dyn Fn(u32) -> bool, out: &mut Vec<Finding>) {
    for i in 1..toks.len().saturating_sub(2) {
        let (a, b) = (&toks[i], &toks[i + 1]);
        let operator = (a.is_punct('=') || a.is_punct('!'))
            && b.is_punct('=')
            && a.line == b.line
            && b.col == a.col + 1;
        if !operator || skip(a.line) {
            continue;
        }
        // `==` also matches at its own second character when followed by
        // another `=`; requiring a non-`=` left neighbour rejects that.
        if toks[i - 1].is_punct('=')
            || toks[i - 1].is_punct('!')
            || toks[i - 1].is_punct('<')
            || toks[i - 1].is_punct('>')
        {
            continue;
        }
        if toks[i - 1].kind == TokKind::Float || toks[i + 2].kind == TokKind::Float {
            let op = format!("{}{}", a.text, b.text);
            out.push(finding(
                FLOAT_EQ,
                path,
                a,
                format!(
                    "float `{op}` comparison; compare via f64::to_bits for bit-exact identity \
                     or an explicit epsilon for tolerance"
                ),
            ));
        }
    }
}

fn panic_policy(path: &str, toks: &[Tok], skip: &dyn Fn(u32) -> bool, out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if !toks[i].is_punct('.') || skip(toks[i].line) {
            continue;
        }
        let bare_unwrap = toks.get(i + 1).is_some_and(|t| t.is_ident("unwrap"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'));
        if bare_unwrap {
            out.push(finding(
                PANIC_POLICY,
                path,
                &toks[i + 1],
                "bare .unwrap() in library code; state the invariant with \
                 .expect(\"<invariant>\") or propagate the error"
                    .to_string(),
            ));
            continue;
        }
        let empty_expect = toks.get(i + 1).is_some_and(|t| t.is_ident("expect"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.kind == TokKind::Str && t.text.is_empty())
            && toks.get(i + 4).is_some_and(|t| t.is_punct(')'));
        if empty_expect {
            out.push(finding(
                PANIC_POLICY,
                path,
                &toks[i + 1],
                ".expect(\"\") carries no invariant; name the condition that makes the value \
                 present"
                    .to_string(),
            ));
        }
    }
}

/// A parsed `simlint: allow(rule, "reason")` directive.
#[derive(Debug, PartialEq, Eq)]
pub struct AllowDirective {
    /// The rule id named by the directive.
    pub rule: String,
    /// The quoted reason, if one was given.
    pub reason: Option<String>,
}

/// Byte offset of the first `//` that starts a genuine line comment (not
/// inside a string literal, escape-aware). `None` when the line has no
/// comment.
fn code_comment_start(line: &str) -> Option<usize> {
    let b = line.as_bytes();
    let mut i = 0;
    let mut in_str = false;
    while i < b.len() {
        if in_str {
            match b[i] {
                b'\\' => i += 1,
                b'"' => in_str = false,
                _ => {}
            }
        } else if b[i] == b'"' {
            in_str = true;
        } else if b[i] == b'/' && b.get(i + 1) == Some(&b'/') {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Parses the allow directive on `line`, if any. The directive must sit in a
/// plain `//` comment: `// simlint: allow(<rule>, "<reason>")`. Doc comments
/// (`///`, `//!`) never carry directives — text there is documentation, so
/// rule examples in rustdoc do not count as waivers — and neither do
/// occurrences inside string literals.
pub fn parse_allow(line: &str) -> Option<AllowDirective> {
    let marker = "simlint: allow(";
    let comment = code_comment_start(line)?;
    let tail = &line[comment + 2..];
    if tail.starts_with('/') || tail.starts_with('!') {
        return None;
    }
    let at = tail.find(marker)?;
    let rest = &tail[at + marker.len()..];
    let close = rest.find(')')?;
    let inner = &rest[..close];
    let (rule, reason) = match inner.find(',') {
        Some(comma) => {
            let quoted = inner[comma + 1..].trim();
            let reason = quoted.strip_prefix('"').and_then(|q| q.strip_suffix('"'));
            (inner[..comma].trim(), reason.map(str::to_string))
        }
        None => (inner.trim(), None),
    };
    Some(AllowDirective { rule: rule.to_string(), reason })
}

/// Applies suppression directives to `findings` (all of them anchored in
/// `path`) and appends [`ALLOW_HYGIENE`] findings for directives that are
/// malformed, name an unknown rule, or suppress nothing.
pub fn apply_suppressions(path: &str, source: &str, findings: &mut Vec<Finding>) {
    apply_suppressions_in(path, &ModuleGraph::fallback(path), source, findings);
}

/// [`apply_suppressions`] with an explicit module placement. Directives
/// waiving a rule the module is already exempt from are flagged as
/// [`SCOPED_EXEMPTIONS`] findings instead of being treated as stale
/// [`ALLOW_HYGIENE`] noise — the fix is to delete them, and the message
/// says which exemption makes them redundant.
pub fn apply_suppressions_in(
    path: &str,
    module: &ModulePath,
    source: &str,
    findings: &mut Vec<Finding>,
) {
    let module_exempt = exempt_rules(module);
    for (idx, raw) in source.lines().enumerate() {
        let line = idx as u32 + 1;
        let Some(directive) = parse_allow(raw) else { continue };
        let column = code_comment_start(raw)
            .and_then(|c| raw[c..].find("simlint:").map(|o| c + o))
            .unwrap_or(0) as u32
            + 1;
        let anchor = Tok { kind: TokKind::Punct, text: String::new(), line, col: column };
        if let Some(e) = module_exempt.iter().find(|e| e.rule == directive.rule) {
            findings.push(finding(
                SCOPED_EXEMPTIONS,
                path,
                &anchor,
                format!(
                    "allow({}) duplicates the module-scoped exemption on {} ({}); remove the \
                     line waiver",
                    directive.rule,
                    module.display(),
                    e.reason
                ),
            ));
            continue;
        }
        if rule_by_id(&directive.rule).is_none() {
            findings.push(finding(
                ALLOW_HYGIENE,
                path,
                &anchor,
                format!(
                    "allow names unknown rule '{}'; run simlint --list-rules for the catalog",
                    directive.rule
                ),
            ));
            continue;
        }
        let Some(reason) = directive.reason.filter(|r| !r.trim().is_empty()) else {
            findings.push(finding(
                ALLOW_HYGIENE,
                path,
                &anchor,
                format!(
                    "allow({}) carries no reason string; suppressions must say why the rule \
                     does not apply",
                    directive.rule
                ),
            ));
            continue;
        };
        let mut suppressed_any = false;
        for f in findings.iter_mut() {
            if f.line == line && f.rule == directive.rule && f.suppressed.is_none() {
                f.suppressed = Some(reason.clone());
                suppressed_any = true;
            }
        }
        if !suppressed_any {
            findings.push(finding(
                ALLOW_HYGIENE,
                path,
                &anchor,
                format!(
                    "allow({}, ...) suppresses nothing: no {} finding on this line — remove \
                     the stale directive",
                    directive.rule, directive.rule
                ),
            ));
        }
    }
    findings.sort_by(|a, b| (a.line, a.column, a.rule).cmp(&(b.line, b.column, b.rule)));
}

/// Checks one crate's lint header: `#![forbid(unsafe_code)]` and
/// `#![warn(missing_docs)]` in its `lib.rs`, and a `[lints]` table with
/// `workspace = true` in its `Cargo.toml`.
pub fn check_lint_header(
    lib_path: &str,
    lib_source: &str,
    cargo_path: &str,
    cargo_toml: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = tokenize(lib_source);
    let has_inner_attr = |outer: &str, inner: &str| {
        (0..toks.len()).any(|i| {
            toks[i].is_punct('#')
                && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('['))
                && toks.get(i + 3).is_some_and(|t| t.is_ident(outer))
                && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 5).is_some_and(|t| t.is_ident(inner))
                && toks.get(i + 6).is_some_and(|t| t.is_punct(')'))
                && toks.get(i + 7).is_some_and(|t| t.is_punct(']'))
        })
    };
    let anchor = Tok { kind: TokKind::Punct, text: String::new(), line: 1, col: 1 };
    for (outer, inner) in [("forbid", "unsafe_code"), ("warn", "missing_docs")] {
        if !has_inner_attr(outer, inner) {
            out.push(finding(
                LINT_HEADER,
                lib_path,
                &anchor,
                format!(
                    "lib.rs is missing the workspace lint header attribute #![{outer}({inner})]"
                ),
            ));
        }
    }
    if !cargo_opts_into_workspace_lints(cargo_toml) {
        out.push(finding(
            LINT_HEADER,
            cargo_path,
            &anchor,
            "Cargo.toml is missing the `[lints]` table with `workspace = true`".to_string(),
        ));
    }
    out
}

fn cargo_opts_into_workspace_lints(cargo_toml: &str) -> bool {
    let mut in_lints = false;
    for line in cargo_toml.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
            continue;
        }
        if in_lints && line.split('#').next().unwrap_or("").trim() == "workspace = true" {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_paths_to_kinds() {
        assert_eq!(classify("crates/cpu/src/core.rs"), FileKind::Lib);
        assert_eq!(classify("crates/bench/src/bin/perf.rs"), FileKind::Bin);
        assert_eq!(classify("crates/simlint/src/main.rs"), FileKind::Bin);
        assert_eq!(classify("tests/golden_parity.rs"), FileKind::Test);
        assert_eq!(classify("crates/cpu/tests/extra.rs"), FileKind::Test);
        assert_eq!(classify("examples/quickstart.rs"), FileKind::Example);
        assert_eq!(classify("crates/bench/benches/figures.rs"), FileKind::Bench);
    }

    #[test]
    fn cfg_test_regions_cover_the_gated_item() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let x = \"}\"; }\n}\nfn after() {}\n";
        let regions = test_regions(&tokenize(src));
        assert_eq!(regions, vec![(2, 5)]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nmod not_tests { fn f() {} }\n";
        assert!(test_regions(&tokenize(src)).is_empty());
    }

    #[test]
    fn parse_allow_extracts_rule_and_reason() {
        assert_eq!(
            parse_allow("let x = 1; // simlint: allow(nondet-time, \"perf harness\")"),
            Some(AllowDirective {
                rule: "nondet-time".to_string(),
                reason: Some("perf harness".to_string())
            })
        );
        assert_eq!(
            parse_allow("// simlint: allow(float-eq)"),
            Some(AllowDirective { rule: "float-eq".to_string(), reason: None })
        );
        assert_eq!(parse_allow("let y = 2; // no directive here"), None);
        // A directive spelled inside a string literal is not a directive,
        // even when the string itself contains escaped quotes.
        assert_eq!(parse_allow("println!(\"use // simlint: allow(x) to…\")"), None);
        assert_eq!(parse_allow("let s = \"say \\\"hi\\\" // simlint: allow(x)\";"), None);
        // Doc comments carry documentation, not waivers.
        assert_eq!(parse_allow("/// e.g. `// simlint: allow(float-eq, \"x\")`"), None);
        assert_eq!(parse_allow("//! ... // simlint: allow(nondet-time, \"y\")"), None);
    }

    #[test]
    fn lint_header_checks_both_files() {
        let good_lib = "//! Docs.\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n";
        let good_toml = "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n";
        assert!(check_lint_header("l", good_lib, "c", good_toml).is_empty());

        let missing = check_lint_header("l", "//! Docs only.\n", "c", "[package]\nname = \"x\"\n");
        let rules: Vec<&str> = missing.iter().map(|f| f.file.as_str()).collect();
        assert_eq!(missing.len(), 3);
        assert_eq!(rules, vec!["l", "l", "c"]);
    }
}
