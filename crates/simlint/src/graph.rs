//! The workspace module graph and the approximate call graph.
//!
//! Both graphs are built from [`ParsedFile`] inventories only — no name
//! resolution, no type information. They are deliberately *approximate* in
//! ways that are documented, deterministic, and conservative for the rules
//! that consume them:
//!
//! * The **module graph** maps every source file to `(crate key, module
//!   path)` by following `mod m;` declarations from each crate root
//!   (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`, …), honouring both the
//!   `m.rs` and `m/mod.rs` layouts. Files no declaration reaches fall back
//!   to a path-derived module path (which coincides with the declared one
//!   for conventional layouts). This is what lets rule exemptions attach to
//!   *modules* instead of hardcoded file paths — move `engine.rs` to
//!   `engine/mod.rs` and its exemption follows.
//! * The **call graph** connects `fn` items through call sites that resolve
//!   to exactly **one** function of that name in the whole workspace.
//!   Ambiguous names (`run`, `new`, `len`, …) create no edges: a missing
//!   edge can at worst miss a finding in code that is already covered by
//!   the token-level rules, while a wrong edge would manufacture false
//!   positives deep inside the simulators. Reachability is a plain BFS over
//!   those edges.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::lexer::Tok;
use crate::parse::{ItemKind, ParsedFile};

/// A file's position in the module tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModulePath {
    /// The crate key: the `crates/<key>` directory basename, or `""` for
    /// the root package.
    pub crate_key: String,
    /// Module path segments inside the crate (empty = crate root). Bin,
    /// test, example and bench targets are namespaced under `bin::`,
    /// `tests::`, `examples::`, `benches::`.
    pub segments: Vec<String>,
    /// True when a `mod` declaration chain from a crate root reaches the
    /// file (false = path-derived fallback).
    pub declared: bool,
}

impl ModulePath {
    /// `true` when this path sits at or below `prefix` within `crate_key`.
    pub fn is_within(&self, crate_key: &str, prefix: &[&str]) -> bool {
        self.crate_key == crate_key
            && self.segments.len() >= prefix.len()
            && self.segments.iter().zip(prefix).all(|(a, b)| a == b)
    }

    /// Renders `crate_key::seg::seg` for diagnostics.
    pub fn display(&self) -> String {
        let mut s =
            if self.crate_key.is_empty() { "crate".to_string() } else { self.crate_key.clone() };
        for seg in &self.segments {
            s.push_str("::");
            s.push_str(seg);
        }
        s
    }
}

/// Derives `(crate key, path inside the crate)` from a workspace-relative
/// path: `crates/bench/src/engine.rs` → `("bench", "src/engine.rs")`.
fn split_crate(path: &str) -> (String, &str) {
    if let Some(rest) = path.strip_prefix("crates/") {
        if let Some(slash) = rest.find('/') {
            return (rest[..slash].to_string(), &rest[slash + 1..]);
        }
    }
    (String::new(), path)
}

/// Path-derived fallback module path (also the convention the declared
/// resolution reproduces for standard layouts).
fn fallback_segments(in_crate: &str) -> Vec<String> {
    let (namespace, rest) = if let Some(r) = in_crate.strip_prefix("src/bin/") {
        (Some("bin"), r)
    } else if let Some(r) = in_crate.strip_prefix("src/") {
        (None, r)
    } else if let Some(r) = in_crate.strip_prefix("tests/") {
        (Some("tests"), r)
    } else if let Some(r) = in_crate.strip_prefix("examples/") {
        (Some("examples"), r)
    } else if let Some(r) = in_crate.strip_prefix("benches/") {
        (Some("benches"), r)
    } else {
        (None, in_crate)
    };
    let mut segs: Vec<String> = namespace.map(str::to_string).into_iter().collect();
    let trimmed = rest.strip_suffix(".rs").unwrap_or(rest);
    for part in trimmed.split('/') {
        if part.is_empty() || part == "mod" || part == "lib" || part == "main" {
            continue;
        }
        segs.push(part.to_string());
    }
    segs
}

/// The module graph: file path → [`ModulePath`].
#[derive(Debug, Default)]
pub struct ModuleGraph {
    map: BTreeMap<String, ModulePath>,
}

impl ModuleGraph {
    /// Builds the graph over `files` (workspace-relative paths).
    pub fn build(files: &[ParsedFile]) -> ModuleGraph {
        let paths: BTreeSet<&str> = files.iter().map(|f| f.path.as_str()).collect();
        let by_path: BTreeMap<&str, &ParsedFile> =
            files.iter().map(|f| (f.path.as_str(), f)).collect();
        let mut map: BTreeMap<String, ModulePath> = BTreeMap::new();

        // Seed the queue with every target root. Roots are recognized by
        // path shape; their module path is the namespace prefix alone.
        let mut queue: Vec<(String, String, Vec<String>)> = Vec::new(); // (path, crate, segments)
        for f in files {
            let (crate_key, in_crate) = split_crate(&f.path);
            let is_root = in_crate == "src/lib.rs"
                || in_crate == "src/main.rs"
                || in_crate.starts_with("src/bin/")
                || in_crate.starts_with("tests/")
                || in_crate.starts_with("examples/")
                || in_crate.starts_with("benches/");
            if is_root {
                let segments = if in_crate == "src/lib.rs" || in_crate == "src/main.rs" {
                    Vec::new()
                } else {
                    fallback_segments(in_crate)
                };
                queue.push((f.path.clone(), crate_key, segments));
            }
        }

        while let Some((path, crate_key, segments)) = queue.pop() {
            if map.contains_key(&path) {
                continue;
            }
            map.insert(
                path.clone(),
                ModulePath {
                    crate_key: crate_key.clone(),
                    segments: segments.clone(),
                    declared: true,
                },
            );
            let Some(pf) = by_path.get(path.as_str()) else { continue };
            // Directory that child module files live in.
            let dir = path.rsplit_once('/').map(|(d, _)| d).unwrap_or("");
            let stem = path
                .rsplit_once('/')
                .map(|(_, f)| f)
                .unwrap_or(&path)
                .strip_suffix(".rs")
                .unwrap_or_default();
            let base = if matches!(stem, "lib" | "main" | "mod") {
                dir.to_string()
            } else {
                format!("{dir}/{stem}")
            };
            for m in pf.items_of(ItemKind::Mod).filter(|m| m.body.is_none() && !m.in_test) {
                for candidate in
                    [format!("{base}/{}.rs", m.name), format!("{base}/{}/mod.rs", m.name)]
                {
                    if paths.contains(candidate.as_str()) {
                        let mut child_segs = segments.clone();
                        child_segs.push(m.name.clone());
                        queue.push((candidate, crate_key.clone(), child_segs));
                        break;
                    }
                }
            }
        }

        // Fallback for files no declaration reached.
        for f in files {
            if !map.contains_key(&f.path) {
                map.insert(f.path.clone(), Self::fallback(&f.path));
            }
        }
        ModuleGraph { map }
    }

    /// The path-derived module path used when no declaration chain reaches
    /// a file (also what single-file virtual analyses use).
    pub fn fallback(path: &str) -> ModulePath {
        let (crate_key, in_crate) = split_crate(path);
        ModulePath { crate_key, segments: fallback_segments(in_crate), declared: false }
    }

    /// The module path of `path` (falls back to the path-derived form for
    /// unknown files, so lookups are total).
    pub fn module_of(&self, path: &str) -> ModulePath {
        self.map.get(path).cloned().unwrap_or_else(|| Self::fallback(path))
    }
}

/// A function's identity: `(file index, item index)` into the parsed set.
pub type FnId = (usize, usize);

/// The approximate call graph over every `fn` item with a body.
#[derive(Debug)]
pub struct CallGraph {
    /// `fn` name → ids of every function with that name.
    by_name: BTreeMap<String, Vec<FnId>>,
    /// Adjacency: caller id → unique-resolved callee ids (sorted, deduped).
    edges: BTreeMap<FnId, Vec<FnId>>,
}

impl CallGraph {
    /// Builds the graph over `files`. Only calls whose name resolves to
    /// exactly one workspace `fn` produce edges.
    pub fn build(files: &[ParsedFile]) -> CallGraph {
        let mut by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            for (ii, item) in f.items.iter().enumerate() {
                if item.kind == ItemKind::Fn {
                    by_name.entry(item.name.clone()).or_default().push((fi, ii));
                }
            }
        }
        let mut edges: BTreeMap<FnId, Vec<FnId>> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            for (ii, item) in f.items.iter().enumerate() {
                if item.kind != ItemKind::Fn || item.body.is_none() {
                    continue;
                }
                let mut callees = BTreeSet::new();
                for call in f.call_sites(ii) {
                    if let Some(id) = unique(&by_name, &call.name) {
                        if id != (fi, ii) {
                            callees.insert(id);
                        }
                    }
                }
                edges.insert((fi, ii), callees.into_iter().collect());
            }
        }
        CallGraph { by_name, edges }
    }

    /// The single function named `name`, when the name is unambiguous.
    pub fn resolve(&self, name: &str) -> Option<FnId> {
        unique(&self.by_name, name)
    }

    /// Unique-resolved callees of `caller`.
    pub fn callees(&self, caller: FnId) -> &[FnId] {
        self.edges.get(&caller).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Every function reachable from `seeds` through unique-name edges
    /// (includes the seeds themselves).
    pub fn reachable(&self, seeds: impl IntoIterator<Item = FnId>) -> BTreeSet<FnId> {
        let mut seen: BTreeSet<FnId> = BTreeSet::new();
        let mut queue: Vec<FnId> = seeds.into_iter().collect();
        while let Some(id) = queue.pop() {
            if !seen.insert(id) {
                continue;
            }
            for &next in self.callees(id) {
                if !seen.contains(&next) {
                    queue.push(next);
                }
            }
        }
        seen
    }
}

fn unique(by_name: &BTreeMap<String, Vec<FnId>>, name: &str) -> Option<FnId> {
    match by_name.get(name).map(Vec::as_slice) {
        Some([only]) => Some(*only),
        _ => None,
    }
}

/// One call to a named function inside a file, with the token ranges of
/// its argument list and of each argument — the shape the
/// `reduction-order` and `rng-discipline` rules need to separate *shard*
/// code (a worker-pool closure, sequential per item) from *merge* code (the
/// rest of the enclosing function).
#[derive(Debug, Clone)]
pub struct NamedCall {
    /// Token index of the called name.
    pub name_tok: usize,
    /// Token range of the arguments, excluding the outer parens.
    pub args: Range<usize>,
    /// Token range of each argument, split at top-level commas; a closure's
    /// parameter list (`|a, b|`) stays inside its argument.
    pub arg_list: Vec<Range<usize>>,
}

/// Finds every `name(…)` call in `file` and returns argument extents.
/// Matching is token-level; unbalanced parens end at the stream.
pub fn named_calls(file: &ParsedFile, name: &str) -> Vec<NamedCall> {
    let toks = &file.toks;
    let mut out = Vec::new();
    for j in 0..toks.len() {
        if !toks[j].is_ident(name) || !toks.get(j + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let mut depth = 0i32;
        let mut k = j + 1;
        let mut close = toks.len();
        while k < toks.len() {
            if toks[k].is_punct('(') {
                depth += 1;
            } else if toks[k].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    close = k;
                    break;
                }
            }
            k += 1;
        }
        let args = (j + 2)..close;
        let arg_list = split_args(toks, args.clone());
        out.push(NamedCall { name_tok: j, args, arg_list });
    }
    out
}

/// Splits an argument list at the commas outside any bracket and outside
/// a leading closure parameter list; a trailing comma adds no argument.
fn split_args(toks: &[Tok], args: Range<usize>) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut start = args.start;
    let mut depth = 0i32;
    let mut j = args.start;
    while j < args.end {
        let t = &toks[j];
        let at_arg_head = j == start || (j == start + 1 && toks[start].is_ident("move"));
        if at_arg_head && t.is_punct('|') {
            // Skip to the closing `|` of the closure's parameters.
            j += 1;
            while j < args.end && !toks[j].is_punct('|') {
                j += 1;
            }
        } else if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            out.push(start..j);
            start = j + 1;
        }
        j += 1;
    }
    if start < args.end {
        out.push(start..args.end);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::ParsedFile;

    fn file(path: &str, crate_name: &str, src: &str) -> ParsedFile {
        ParsedFile::parse(path, crate_name, src)
    }

    #[test]
    fn module_graph_follows_mod_declarations() {
        let files = vec![
            file("crates/bench/src/lib.rs", "stretch-bench", "mod engine;\nmod perf;\n"),
            file("crates/bench/src/engine.rs", "stretch-bench", "pub fn run_cell() {}\n"),
            file("crates/bench/src/perf.rs", "stretch-bench", "pub fn measure() {}\n"),
        ];
        let g = ModuleGraph::build(&files);
        let engine = g.module_of("crates/bench/src/engine.rs");
        assert_eq!(engine.crate_key, "bench");
        assert_eq!(engine.segments, vec!["engine"]);
        assert!(engine.declared);
        assert_eq!(engine.display(), "bench::engine");
    }

    #[test]
    fn mod_rs_layout_resolves_to_the_same_module() {
        let files = vec![
            file("crates/bench/src/lib.rs", "stretch-bench", "mod engine;\n"),
            file("crates/bench/src/engine/mod.rs", "stretch-bench", "mod memo;\n"),
            file("crates/bench/src/engine/memo.rs", "stretch-bench", "pub fn get() {}\n"),
        ];
        let g = ModuleGraph::build(&files);
        assert_eq!(g.module_of("crates/bench/src/engine/mod.rs").segments, vec!["engine"]);
        let memo = g.module_of("crates/bench/src/engine/memo.rs");
        assert_eq!(memo.segments, vec!["engine", "memo"]);
        assert!(memo.is_within("bench", &["engine"]));
        assert!(!memo.is_within("bench", &["perf"]));
    }

    #[test]
    fn undeclared_files_fall_back_to_path_derivation() {
        let files = vec![file("crates/cpu/src/core.rs", "cpu_sim", "fn f() {}\n")];
        let g = ModuleGraph::build(&files);
        let m = g.module_of("crates/cpu/src/core.rs");
        assert_eq!((m.crate_key.as_str(), m.declared), ("cpu", false));
        assert_eq!(m.segments, vec!["core"]);
        // Bin / test / example targets are namespaced.
        assert_eq!(
            ModuleGraph::fallback("crates/bench/src/bin/perf.rs").segments,
            vec!["bin", "perf"]
        );
        assert_eq!(ModuleGraph::fallback("tests/simlint.rs").segments, vec!["tests", "simlint"]);
        assert_eq!(ModuleGraph::fallback("src/lib.rs").crate_key, "");
    }

    #[test]
    fn call_graph_resolves_unique_names_only() {
        let files = vec![
            file(
                "crates/a/src/lib.rs",
                "a",
                "pub fn alpha() { beta(); run(); }\npub fn run() {}\n",
            ),
            file(
                "crates/b/src/lib.rs",
                "b",
                "pub fn beta() { gamma(); }\npub fn gamma() {}\npub fn run() {}\n",
            ),
        ];
        let g = CallGraph::build(&files);
        let alpha = g.resolve("alpha").expect("alpha is unique");
        // `run` is defined twice → no resolution, no edge.
        assert!(g.resolve("run").is_none());
        let reach = g.reachable([alpha]);
        let names: Vec<&str> =
            reach.iter().map(|&(fi, ii)| files[fi].items[ii].name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta", "gamma"]);
    }

    #[test]
    fn named_calls_report_closure_extents() {
        let f = file(
            "crates/x/src/lib.rs",
            "x",
            "fn m() { let out = parallel_map(items, 4, |x| work(x)); total(&out); }\n",
        );
        let calls = named_calls(&f, "parallel_map");
        assert_eq!(calls.len(), 1);
        let c = &calls[0];
        assert!(f.toks[c.name_tok].is_ident("parallel_map"));
        assert_eq!(c.arg_list.len(), 3);
        let closure = c.arg_list[2].clone();
        assert!(f.toks[closure.start].is_punct('|'));
        // The closure region covers `work` but not `total`.
        let work = f.toks.iter().position(|t| t.is_ident("work")).expect("work in stream");
        let total = f.toks.iter().position(|t| t.is_ident("total")).expect("total in stream");
        assert!(closure.contains(&work));
        assert!(!closure.contains(&total));
    }

    #[test]
    fn arguments_split_at_top_level_commas_only() {
        let f = file(
            "crates/x/src/lib.rs",
            "x",
            "fn m() { parallel_fold(v, 2, (0, [1, 2]), move |(a, b)| a + b, |acc, r| {\n\
             acc.push((r, 1)) },); }\n",
        );
        let calls = named_calls(&f, "parallel_fold");
        let args: Vec<String> = calls[0]
            .arg_list
            .iter()
            .map(|r| f.toks[r.clone()].iter().map(|t| t.text.as_str()).collect())
            .collect();
        assert_eq!(args, ["v", "2", "(0,[1,2])", "move|(a,b)|a+b", "|acc,r|{acc.push((r,1))}"]);
    }
}
