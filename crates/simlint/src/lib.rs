//! `simlint` — the workspace determinism & hygiene analyzer.
//!
//! Workspace architecture — crate map, simulation layers, policy stack,
//! cache keys, where determinism is enforced: `docs/ARCHITECTURE.md` at
//! the repository root.
//!
//! Every result this reproduction reports rests on bit-exact determinism:
//! golden-parity fixtures, the Engine's content-addressed `CanonicalKey`
//! cache cells, and the benchmark's pinned output digests all assume the
//! simulator never consults wall clocks, unseeded entropy, or
//! unordered-iteration collections. `simlint` enforces those invariants
//! statically, at the source line, before they cost a fixture re-pin.
//!
//! The analyzer is self-contained: a hand-rolled, comment/string/char-aware
//! lexer ([`lexer`]) feeds token-level rules ([`rules`], [`manifest`]) — no
//! external parser, because the build environment is offline-vendored. The
//! rule catalog is in [`rules::RULES`]; run `simlint --list-rules` for the
//! same text. Findings can be waived only line-by-line, with a reason:
//!
//! ```text
//! type IdSet = HashSet<u64>; // simlint: allow(nondet-collections, "membership only")
//! ```
//!
//! and every waiver is surfaced in the report. The binary exits 1 on any
//! unsuppressed finding, which is what CI gates on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exemptions;
pub mod flow;
pub mod graph;
pub mod lexer;
pub mod manifest;
pub mod parse;
pub mod report;
pub mod rules;
pub mod sarif;

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use manifest::SourceFile;
use report::{Finding, Report};

/// Workspace-relative path of the committed `CanonicalKey` fingerprint
/// manifest maintained by `simlint --fix-manifest`.
pub const MANIFEST_PATH: &str = "crates/simlint/canon_manifest.json";

/// Fixture corpora under the root `tests/` directory are lint-rule inputs,
/// not workspace sources; the walker skips them.
const FIXTURE_DIR: &str = "tests/simlint_fixtures";

/// Which rules a run enables (`--rule` narrows the default "all").
#[derive(Debug, Clone)]
pub struct RuleFilter {
    enabled: Option<BTreeSet<String>>,
}

impl RuleFilter {
    /// Enables every rule in the catalog.
    pub fn all() -> RuleFilter {
        RuleFilter { enabled: None }
    }

    /// Enables only the named rules; rejects unknown ids.
    pub fn only<S: AsRef<str>>(ids: &[S]) -> Result<RuleFilter, String> {
        let mut set = BTreeSet::new();
        for id in ids {
            let id = id.as_ref();
            if rules::rule_by_id(id).is_none() {
                return Err(format!("unknown rule '{id}'; see simlint --list-rules"));
            }
            set.insert(id.to_string());
        }
        Ok(RuleFilter { enabled: Some(set) })
    }

    /// Is `id` enabled under this filter?
    pub fn enabled(&self, id: &str) -> bool {
        self.enabled.as_ref().is_none_or(|s| s.contains(id))
    }

    /// The enabled rule ids, in catalog order.
    pub fn rule_ids(&self) -> Vec<String> {
        rules::RULES.iter().filter(|r| self.enabled(r.id)).map(|r| r.id.to_string()).collect()
    }
}

/// One first-party crate (the root umbrella package or a `crates/*` member).
#[derive(Debug, Clone)]
struct CrateInfo {
    /// Workspace-relative directory ("" for the root package).
    dir: String,
    /// Package name from `Cargo.toml`.
    name: String,
}

/// A handle on the workspace to analyze.
#[derive(Debug)]
pub struct Workspace {
    root: PathBuf,
}

impl Workspace {
    /// Opens the workspace rooted at `root` (must contain a `Cargo.toml`
    /// with a `[workspace]` table).
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Workspace> {
        let root = root.into();
        let manifest = fs::read_to_string(root.join("Cargo.toml"))?;
        if !manifest.contains("[workspace]") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{} is not a workspace root", root.display()),
            ));
        }
        Ok(Workspace { root })
    }

    /// Finds the workspace root by walking up from the current directory.
    pub fn discover() -> io::Result<Workspace> {
        let mut dir = std::env::current_dir()?;
        loop {
            if let Ok(ws) = Workspace::open(&dir) {
                return Ok(ws);
            }
            if !dir.pop() {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    "no workspace Cargo.toml above the current directory",
                ));
            }
        }
    }

    /// The workspace root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn crates(&self) -> io::Result<Vec<CrateInfo>> {
        let mut out = vec![CrateInfo {
            dir: String::new(),
            name: package_name(&fs::read_to_string(self.root.join("Cargo.toml"))?)
                .unwrap_or_else(|| "root".to_string()),
        }];
        let crates_dir = self.root.join("crates");
        let mut dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.join("Cargo.toml").is_file())
            .collect();
        dirs.sort();
        for dir in dirs {
            let toml = fs::read_to_string(dir.join("Cargo.toml"))?;
            let dir_name = dir
                .file_name()
                .and_then(|n| n.to_str())
                .expect("crates/* entries have UTF-8 directory names")
                .to_string();
            out.push(CrateInfo {
                dir: format!("crates/{dir_name}"),
                name: package_name(&toml).unwrap_or(dir_name),
            });
        }
        Ok(out)
    }

    /// Reads every scannable source file: `src/`, `tests/` (minus the
    /// fixture corpus), `benches/` and `examples/` of the root package and
    /// every `crates/*` member. Vendored shims are out of scope by
    /// construction. Paths are workspace-relative, `/`-separated, sorted.
    fn read_sources(&self, crates: &[CrateInfo]) -> io::Result<Vec<SourceFile>> {
        let mut files = Vec::new();
        for c in crates {
            for sub in ["src", "tests", "benches", "examples"] {
                let rel_base =
                    if c.dir.is_empty() { sub.to_string() } else { format!("{}/{sub}", c.dir) };
                let abs = self.root.join(&rel_base);
                if !abs.is_dir() {
                    continue;
                }
                let mut paths = Vec::new();
                walk_rs(&abs, &mut paths)?;
                for p in paths {
                    let rel = format!(
                        "{rel_base}/{}",
                        p.strip_prefix(&abs)
                            .expect("walk_rs only yields paths under its base")
                            .to_str()
                            .expect("workspace sources have UTF-8 paths")
                            .replace('\\', "/")
                    );
                    if rel.starts_with(FIXTURE_DIR) {
                        continue;
                    }
                    files.push(SourceFile {
                        path: rel,
                        crate_name: c.name.clone(),
                        source: fs::read_to_string(&p)?,
                    });
                }
            }
        }
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(files)
    }

    /// Runs the enabled rules over the workspace and returns the report.
    pub fn analyze(&self, filter: &RuleFilter) -> io::Result<Report> {
        let crates = self.crates()?;
        let files = self.read_sources(&crates)?;
        let mut findings: Vec<Finding> = Vec::new();

        // Parse every file once; the module graph places each file for
        // scoped exemptions and the call graph feeds the flow rules.
        let parsed: Vec<parse::ParsedFile> = files
            .iter()
            .map(|f| parse::ParsedFile::parse(&f.path, &f.crate_name, &f.source))
            .collect();
        let modules = graph::ModuleGraph::build(&parsed);
        let calls = graph::CallGraph::build(&parsed);

        // Per-file rules, then cross-file flow rules, then workspace-level
        // rules, then suppression — suppression must see *all* findings on
        // a line (a canon-manifest waiver sits on the struct definition
        // line) and runs once per file so stale allow directives are
        // flagged even in clean files.
        let mut per_file: std::collections::BTreeMap<&str, Vec<Finding>> = files
            .iter()
            .map(|f| {
                (
                    f.path.as_str(),
                    rules::scan_source_in(&f.path, &modules.module_of(&f.path), &f.source),
                )
            })
            .collect();

        for f in flow::scan(&parsed, &modules, &calls) {
            match per_file.get_mut(f.file.as_str()) {
                Some(list) => list.push(f),
                None => findings.push(f),
            }
        }

        for c in &crates {
            let lib_rel = if c.dir.is_empty() {
                "src/lib.rs".to_string()
            } else {
                format!("{}/src/lib.rs", c.dir)
            };
            let cargo_rel = if c.dir.is_empty() {
                "Cargo.toml".to_string()
            } else {
                format!("{}/Cargo.toml", c.dir)
            };
            let lib_src = files
                .iter()
                .find(|f| f.path == lib_rel)
                .map(|f| f.source.as_str())
                .unwrap_or_default();
            let cargo_src = fs::read_to_string(self.root.join(&cargo_rel))?;
            for f in rules::check_lint_header(&lib_rel, lib_src, &cargo_rel, &cargo_src) {
                match per_file.get_mut(f.file.as_str()) {
                    Some(list) => list.push(f),
                    None => findings.push(f),
                }
            }
        }

        let inv = manifest::collect(&files);
        let manifest_text = fs::read_to_string(self.root.join(MANIFEST_PATH)).ok();
        for f in manifest::diff(&inv, MANIFEST_PATH, manifest_text.as_deref()) {
            match per_file.get_mut(f.file.as_str()) {
                Some(list) => list.push(f),
                None => findings.push(f),
            }
        }

        for f in &files {
            let list = per_file
                .get_mut(f.path.as_str())
                .expect("per_file was seeded with every scanned path");
            rules::apply_suppressions_in(&f.path, &modules.module_of(&f.path), &f.source, list);
        }
        findings.extend(per_file.into_values().flatten());
        findings.retain(|f| filter.enabled(f.rule));

        let mut report = Report {
            root: self.root.display().to_string(),
            files_scanned: files.len(),
            rules: filter.rule_ids(),
            findings,
        };
        report.sort();
        Ok(report)
    }

    /// The workspace-relative paths of every file the analyzer scans —
    /// including `crates/simlint` itself, which is subject to its own rules
    /// (the self-scan test pins that property so the linter can never
    /// silently exempt its own sources).
    pub fn source_paths(&self) -> io::Result<Vec<String>> {
        let crates = self.crates()?;
        Ok(self.read_sources(&crates)?.into_iter().map(|f| f.path).collect())
    }

    /// Re-pins the `CanonicalKey` fingerprint manifest from the current
    /// tree. Returns the number of pinned types.
    pub fn fix_manifest(&self) -> io::Result<usize> {
        let crates = self.crates()?;
        let files = self.read_sources(&crates)?;
        let inv = manifest::collect(&files);
        let text = manifest::render_manifest(&inv);
        fs::write(self.root.join(MANIFEST_PATH), &text)?;
        let pinned =
            manifest::parse_manifest(&text).expect("render_manifest emits schema-1 JSON").len();
        Ok(pinned)
    }
}

/// Runs the full rule pipeline over a single source, as if it lived at
/// `virtual_path` in the workspace: the path controls kind classification
/// and (through the path-derived module placement) the module-scoped
/// exemptions. Single-file shorthand for [`analyze_sources`] — cross-file
/// rules see a one-file workspace.
pub fn analyze_source_as(virtual_path: &str, source: &str) -> Vec<Finding> {
    analyze_sources(&[SourceFile {
        path: virtual_path.to_string(),
        crate_name: "virtual".to_string(),
        source: source.to_string(),
    }])
}

/// Runs the full per-file **and** cross-file pipeline over a set of virtual
/// sources, as if they formed the workspace: per-file rules with
/// module-scoped exemptions, the flow rules over the module/call graphs,
/// then suppression handling. This is the entry point the cross-file
/// fixture tests use; it does not touch the disk (so the workspace-level
/// `lint-header` / `canon-manifest` checks, which need `Cargo.toml`s and
/// the pinned manifest, are out of scope here).
pub fn analyze_sources(files: &[SourceFile]) -> Vec<Finding> {
    let parsed: Vec<parse::ParsedFile> =
        files.iter().map(|f| parse::ParsedFile::parse(&f.path, &f.crate_name, &f.source)).collect();
    let modules = graph::ModuleGraph::build(&parsed);
    let calls = graph::CallGraph::build(&parsed);
    let mut per_file: std::collections::BTreeMap<&str, Vec<Finding>> = files
        .iter()
        .map(|f| {
            (
                f.path.as_str(),
                rules::scan_source_in(&f.path, &modules.module_of(&f.path), &f.source),
            )
        })
        .collect();
    for f in flow::scan(&parsed, &modules, &calls) {
        per_file
            .get_mut(f.file.as_str())
            .expect("flow findings only anchor in scanned files")
            .push(f);
    }
    for f in files {
        let list =
            per_file.get_mut(f.path.as_str()).expect("per_file was seeded with every scanned path");
        rules::apply_suppressions_in(&f.path, &modules.module_of(&f.path), &f.source, list);
    }
    let mut findings: Vec<Finding> = per_file.into_values().flatten().collect();
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.column, a.rule).cmp(&(
            b.file.as_str(),
            b.line,
            b.column,
            b.rule,
        ))
    });
    findings
}

/// Extracts `name = "..."` from a Cargo.toml `[package]` table.
fn package_name(cargo_toml: &str) -> Option<String> {
    let mut in_package = false;
    for line in cargo_toml.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start().strip_prefix('=')?.trim();
                return Some(rest.trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_reads_the_package_table_only() {
        let toml =
            "[workspace]\nmembers = []\n\n[package]\nname = \"simlint\"\nversion = \"0.1.0\"\n";
        assert_eq!(package_name(toml), Some("simlint".to_string()));
        assert_eq!(package_name("[dependencies]\nname = \"nope\"\n"), None);
    }

    #[test]
    fn rule_filter_validates_ids() {
        assert!(RuleFilter::only(&["nondet-time", "float-eq"]).is_ok());
        assert!(RuleFilter::only(&["no-such-rule"]).is_err());
        let f = RuleFilter::only(&["float-eq"]).expect("float-eq is a known rule");
        assert!(f.enabled("float-eq"));
        assert!(!f.enabled("nondet-time"));
        assert_eq!(RuleFilter::all().rule_ids().len(), rules::RULES.len());
    }

    #[test]
    fn analyze_source_as_applies_path_scoping() {
        let src = "fn f() { let t = Instant::now(); }\n";
        let hits = analyze_source_as("crates/cpu/src/core.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].line, hits[0].column), (1, 18));
        // No library module is exempt, not even a timing module in the bench
        // crate (wall clocks are read only outside the workspace); test files are.
        let bench: Vec<_> = analyze_source_as("crates/bench/src/perf.rs", src)
            .iter()
            .map(|f| (f.rule, f.line, f.column))
            .collect();
        assert_eq!(bench, [("nondet-time", 1, 18)]);
        assert!(analyze_source_as("tests/perf.rs", src).is_empty());
    }
}
