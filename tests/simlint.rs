//! Integration tests for the `simlint` workspace analyzer: one test per
//! lint rule against the fixture corpus in `tests/simlint_fixtures/`
//! (asserting exact `file:line:column` spans and that `simlint: allow`
//! suppresses), plus a self-run over the live workspace asserting the tree
//! is clean.

use simlint::manifest::{self, SourceFile};
use simlint::report::Finding;
use simlint::rules;
use simlint::{analyze_source_as, analyze_sources, RuleFilter, Workspace};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/simlint_fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).expect("fixture corpus file exists")
}

fn span(f: &Finding) -> (&'static str, u32, u32, bool) {
    (f.rule, f.line, f.column, f.suppressed.is_some())
}

#[test]
fn nondet_collections_flags_maps_and_allow_suppresses() {
    let findings = analyze_source_as("crates/x/src/lib.rs", &fixture("nondet_collections.rs"));
    let got: Vec<_> = findings.iter().map(span).collect();
    assert_eq!(
        got,
        vec![
            ("nondet-collections", 4, 10, false), // map: HashMap<String, u64>
            ("nondet-collections", 7, 21, true),  // HashSet return type, allowed
            ("nondet-collections", 8, 5, true),   // HashSet::new(), allowed
        ]
    );
    // Suppressions carry the reason through to the report.
    assert_eq!(findings[1].suppressed.as_deref(), Some("fixture: membership only"));
    // The bench Engine allowlist turns the same source clean.
    assert!(analyze_source_as("crates/bench/src/engine.rs", &fixture("nondet_collections.rs"))
        .iter()
        .all(|f| f.rule != "nondet-collections"));
}

#[test]
fn nondet_time_flags_clock_entropy_and_env_reads() {
    let findings = analyze_source_as("crates/x/src/lib.rs", &fixture("nondet_time.rs"));
    let got: Vec<_> = findings.iter().map(span).collect();
    assert_eq!(
        got,
        vec![
            ("nondet-time", 2, 13, false), // Instant::now()
            ("nondet-time", 7, 13, true),  // thread_rng(), allowed
            ("nondet-time", 8, 10, false), // std::env::var
        ]
    );
    assert!(findings[0].message.contains("Instant::now"));
    assert!(findings[2].message.contains("env::var"));
    // No library module is exempt, not even a timing module in the bench
    // crate (wall clocks are read only outside the workspace): the same
    // spans are flagged there.
    let bench = analyze_source_as("crates/bench/src/perf.rs", &fixture("nondet_time.rs"));
    assert_eq!(bench.iter().map(span).collect::<Vec<_>>(), got);
    // Test files are exempt (the fixture's allow directive then becomes
    // stale, which is an allow-hygiene matter, not a nondet-time one).
    assert!(analyze_source_as("tests/anything.rs", &fixture("nondet_time.rs"))
        .iter()
        .all(|f| f.rule != "nondet-time"));
}

#[test]
fn float_eq_flags_literal_comparisons_only() {
    let findings = analyze_source_as("crates/x/src/lib.rs", &fixture("float_eq.rs"));
    let got: Vec<_> = findings.iter().map(span).collect();
    assert_eq!(
        got,
        vec![
            ("float-eq", 2, 7, false), // a == 1.0
            ("float-eq", 6, 7, true),  // a != 0.5, allowed
        ]
    );
    assert!(findings[0].message.contains("=="));
    assert!(findings[1].message.contains("!="));
}

#[test]
fn panic_policy_flags_bare_unwrap_and_empty_expect() {
    let src = fixture("panic_policy.rs");
    let findings = analyze_source_as("crates/x/src/lib.rs", &src);
    let got: Vec<_> = findings.iter().map(span).collect();
    assert_eq!(
        got,
        vec![
            ("panic-policy", 2, 16, false), // .unwrap()
            ("panic-policy", 6, 16, false), // .expect("")
        ]
    );
    // A justified expect (line 10) and the #[cfg(test)] unwrap are clean.
    // An allow directive on the unwrap line suppresses it.
    let allowed =
        src.replacen(".unwrap()", ".unwrap() // simlint: allow(panic-policy, \"fixture\")", 1);
    let findings = analyze_source_as("crates/x/src/lib.rs", &allowed);
    let got: Vec<_> = findings.iter().map(span).collect();
    assert_eq!(got, vec![("panic-policy", 2, 16, true), ("panic-policy", 6, 16, false)]);
    // Bins, examples, benches and tests are exempt from the panic policy.
    for path in ["crates/x/src/main.rs", "examples/demo.rs", "crates/x/benches/b.rs", "tests/t.rs"]
    {
        assert!(analyze_source_as(path, &src).is_empty(), "{path} should be exempt");
    }
}

#[test]
fn allow_hygiene_flags_stale_unknown_and_reasonless_directives() {
    let findings = analyze_source_as("crates/x/src/lib.rs", &fixture("allow_hygiene.rs"));
    // All four findings are unsuppressed: a reasonless directive does not
    // suppress the float-eq finding it sits next to.
    assert!(findings.iter().all(|f| f.suppressed.is_none()));
    let got: Vec<_> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        got,
        vec![
            ("allow-hygiene", 2),  // stale: no float-eq finding on the line
            ("allow-hygiene", 6),  // unknown rule id
            ("float-eq", 11),      // a reasonless directive suppresses nothing...
            ("allow-hygiene", 11), // ...and is flagged itself
        ]
    );
    assert!(findings[0].message.contains("suppresses nothing"));
    assert!(findings[1].message.contains("unknown rule"));
    assert!(findings[3].message.contains("no reason"));
    assert_eq!((findings[0].line, findings[0].column), (2, 15));
    assert_eq!((findings[1].line, findings[1].column), (6, 10));
}

#[test]
fn lint_header_requires_attrs_and_workspace_lints() {
    let bad = rules::check_lint_header(
        "crates/fixture/src/lib.rs",
        &fixture("lint_header_bad_lib.rs"),
        "crates/fixture/Cargo.toml",
        &fixture("lint_header_bad_manifest.toml"),
    );
    let got: Vec<_> = bad.iter().map(|f| (f.rule, f.file.as_str())).collect();
    assert_eq!(
        got,
        vec![
            ("lint-header", "crates/fixture/src/lib.rs"),
            ("lint-header", "crates/fixture/src/lib.rs"),
            ("lint-header", "crates/fixture/Cargo.toml"),
        ]
    );
    assert!(bad[0].message.contains("forbid(unsafe_code)"));
    assert!(bad[1].message.contains("warn(missing_docs)"));

    let good_lib = "//! Docs.\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub fn f() {}\n";
    let good_toml = "[package]\nname = \"ok\"\n\n[lints]\nworkspace = true\n";
    assert!(rules::check_lint_header("l.rs", good_lib, "C.toml", good_toml).is_empty());
}

#[test]
fn canon_manifest_detects_field_drift() {
    let file = |src: &str| {
        vec![SourceFile {
            path: "crates/knob/src/lib.rs".to_string(),
            crate_name: "knob".to_string(),
            source: src.to_string(),
        }]
    };
    let pristine = fixture("canon_manifest.rs");
    let inv = manifest::collect(&file(&pristine));
    assert!(inv.defs.contains_key("knob::Knob"));
    assert!(inv.impls.contains_key("knob::Knob"));

    // Pinning the current fingerprints makes the diff clean.
    let pinned = manifest::render_manifest(&inv);
    assert!(manifest::diff(&inv, "m.json", Some(&pinned)).is_empty());

    // Adding a field without re-pinning is a finding at the definition site.
    let grown = pristine.replace("pub scale: f64,", "pub scale: f64,\n    pub bias: f64,");
    let drifted = manifest::collect(&file(&grown));
    let findings = manifest::diff(&drifted, "m.json", Some(&pinned));
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "canon-manifest");
    assert_eq!((findings[0].file.as_str(), findings[0].line), ("crates/knob/src/lib.rs", 1));
    assert!(findings[0].message.contains("drifted"));

    // Reformatting without changing fields is NOT drift.
    let reflowed =
        pristine.replace("pub width: u32,\n    pub scale: f64,", "pub width: u32, pub scale: f64,");
    let same = manifest::collect(&file(&reflowed));
    assert!(manifest::diff(&same, "m.json", Some(&pinned)).is_empty());
}

#[test]
fn rng_discipline_flags_unseeded_ctors_and_shard_capture() {
    let findings = analyze_source_as("crates/x/src/lib.rs", &fixture("rng_discipline.rs"));
    let got: Vec<_> = findings.iter().map(span).collect();
    assert_eq!(
        got,
        vec![
            ("rng-discipline", 15, 5, false),  // SimRng::new(42), no provenance
            ("rng-discipline", 19, 5, true),   // waived with a reason
            ("rng-discipline", 24, 32, false), // `shared` captured by the shard closure
        ]
    );
    assert!(findings[0].message.contains("seed-derivation"));
    assert!(findings[2].message.contains("captured"));
    // The same constructions in test code are exempt.
    assert!(analyze_source_as("tests/anything.rs", &fixture("rng_discipline.rs"))
        .iter()
        .all(|f| f.rule != "rng-discipline"));
}

#[test]
fn reduction_order_flags_merge_and_reachable_accumulation() {
    let findings = analyze_source_as("crates/x/src/lib.rs", &fixture("reduction_order.rs"));
    let got: Vec<_> = findings.iter().map(span).collect();
    assert_eq!(
        got,
        vec![
            ("reduction-order", 14, 15, false), // total += o in the merge region
            ("reduction-order", 16, 50, false), // float .sum() in the merge region
            ("reduction-order", 22, 15, false), // additive .fold in a merge-reachable fn
            ("reduction-order", 34, 11, true),  // waived with a reason
        ]
    );
    // The shard-closure accumulation (line 9) and the min/max fold (line
    // 17) produced no findings; the helper finding names its reach.
    assert!(findings[2].message.contains("helper_total"));
    assert!(findings[2].message.contains("reachable"));
    assert!(findings.iter().all(|f| f.line != 9 && f.line != 17));
}

#[test]
fn reduction_order_reaches_helpers_across_files() {
    let src = |path: &str, source: &str| SourceFile {
        path: path.to_string(),
        crate_name: "x".to_string(),
        source: source.to_string(),
    };
    let merge = "fn merge(items: Vec<f64>) -> f64 {\n    \
                 let outs = parallel_map(items, 2, |x| x);\n    total_of(&outs)\n}\n";
    let helper = "pub fn total_of(xs: &[f64]) -> f64 {\n    \
                  xs.iter().map(|x| x * 2.0).sum()\n}\n";
    let findings = analyze_sources(&[
        src("crates/bench/src/figures.rs", merge),
        src("crates/stats/src/helpers.rs", helper),
    ]);
    let red: Vec<_> = findings.iter().filter(|f| f.rule == "reduction-order").collect();
    assert_eq!(red.len(), 1);
    assert_eq!(
        (red[0].file.as_str(), red[0].line, red[0].column),
        ("crates/stats/src/helpers.rs", 2, 32)
    );
    // The identical helper placed in stats::reduce — the canonical reducer
    // module — is covered by the module-scoped exemption.
    let findings = analyze_sources(&[
        src("crates/bench/src/figures.rs", merge),
        src("crates/stats/src/reduce.rs", helper),
    ]);
    assert!(findings.iter().all(|f| f.rule != "reduction-order"));
}

#[test]
fn shared_state_flags_static_mut_and_interior_mutability() {
    let findings = analyze_source_as("crates/x/src/lib.rs", &fixture("shared_state.rs"));
    let got: Vec<_> = findings.iter().map(span).collect();
    assert_eq!(
        got,
        vec![
            ("shared-state", 4, 1, false), // static mut TICKS
            ("shared-state", 6, 1, false), // static CACHE: Mutex<…>
            ("shared-state", 10, 1, true), // waived with a reason
        ]
    );
    assert!(findings[0].message.contains("static mut"));
    assert!(findings[1].message.contains("Mutex"));
    // The plain-const static (line 8) and the #[cfg(test)] static (line 14)
    // are clean.
    assert!(findings.iter().all(|f| f.line != 8 && f.line != 14));
}

#[test]
fn scoped_exemptions_cover_modules_and_flag_redundant_waivers() {
    // In bench::engine the module-scoped exemption silences the rule, so
    // the line waiver is redundant — flagged at the directive's own span.
    let findings =
        analyze_source_as("crates/bench/src/engine.rs", &fixture("scoped_exemptions.rs"));
    let got: Vec<_> = findings.iter().map(span).collect();
    assert_eq!(got, vec![("scoped-exemptions", 5, 35, false)]);
    assert!(findings[0].message.contains("duplicates the module-scoped exemption"));
    assert!(findings[0].message.contains("bench::engine"));
    // The exemption follows the module, not the path: the mod.rs layout of
    // the same module behaves identically.
    let moved =
        analyze_source_as("crates/bench/src/engine/mod.rs", &fixture("scoped_exemptions.rs"));
    assert_eq!(moved.iter().map(span).collect::<Vec<_>>(), got);
    // Outside the exempted module the waiver is legitimate: the finding is
    // suppressed with its reason.
    let elsewhere = analyze_source_as("crates/x/src/lib.rs", &fixture("scoped_exemptions.rs"));
    let got: Vec<_> = elsewhere.iter().map(span).collect();
    assert_eq!(got, vec![("nondet-collections", 5, 13, true)]);
}

#[test]
fn self_scan_includes_simlint_sources() {
    let ws = Workspace::open(env!("CARGO_MANIFEST_DIR")).expect("repo root is a workspace");
    let paths = ws.source_paths().expect("source walk succeeds");
    for expected in
        ["crates/simlint/src/lib.rs", "crates/simlint/src/parse.rs", "crates/simlint/src/flow.rs"]
    {
        assert!(
            paths.iter().any(|p| p == expected),
            "{expected} missing from the scan set — the linter must not exempt itself"
        );
    }
    // The fixture corpus stays out of the scan set (deliberate violations).
    assert!(paths.iter().all(|p| !p.starts_with("tests/simlint_fixtures/")));
}

#[test]
fn finding_order_is_canonical_in_every_output() {
    // Two files, interleaved lines: the canonical (file, line, col, rule)
    // order must hold in the findings list, the JSON document, and SARIF —
    // so CI artifact diffs between runs are meaningful.
    let src = |path: &str, source: &str| SourceFile {
        path: path.to_string(),
        crate_name: "x".to_string(),
        source: source.to_string(),
    };
    let findings = analyze_sources(&[
        src("crates/b/src/lib.rs", "static mut B: u64 = 0;\nfn f() { let t = Instant::now(); }\n"),
        src("crates/a/src/lib.rs", "fn g() { let t = Instant::now(); }\nstatic mut A: u64 = 0;\n"),
    ]);
    let got: Vec<_> = findings.iter().map(|f| (f.file.clone(), f.line, f.column, f.rule)).collect();
    let mut sorted = got.clone();
    sorted.sort();
    assert_eq!(got, sorted, "findings must come out in canonical order");
    assert_eq!(got[0].0, "crates/a/src/lib.rs");

    let report = simlint::report::Report {
        root: ".".to_string(),
        files_scanned: 2,
        rules: RuleFilter::all().rule_ids(),
        findings,
    };
    let json = report.to_json();
    let json_spans: Vec<(String, u64)> = json
        .get("findings")
        .and_then(|v| v.as_array())
        .expect("findings array")
        .iter()
        .map(|f| {
            (
                f.get("file").and_then(|v| v.as_str()).expect("file").to_string(),
                f.get("line").and_then(|v| v.as_u64()).expect("line"),
            )
        })
        .collect();
    let mut json_sorted = json_spans.clone();
    json_sorted.sort();
    assert_eq!(json_spans, json_sorted);

    let sarif = simlint::sarif::to_sarif(&report);
    let results = sarif
        .get("runs")
        .and_then(|v| v.as_array())
        .and_then(|runs| runs[0].get("results"))
        .and_then(|v| v.as_array())
        .expect("sarif results");
    let sarif_files: Vec<&str> = results
        .iter()
        .map(|r| {
            r.get("locations")
                .and_then(|v| v.as_array())
                .and_then(|l| l[0].get("physicalLocation"))
                .and_then(|p| p.get("artifactLocation"))
                .and_then(|a| a.get("uri"))
                .and_then(|v| v.as_str())
                .expect("uri")
        })
        .collect();
    let mut sarif_sorted = sarif_files.clone();
    sarif_sorted.sort();
    assert_eq!(sarif_files, sarif_sorted);
    // Human output preserves the same order.
    let human = report.human();
    let a_pos = human.find("crates/a/src/lib.rs").expect("a.rs in human output");
    let b_pos = human.find("crates/b/src/lib.rs").expect("b.rs in human output");
    assert!(a_pos < b_pos);
}

#[test]
fn workspace_self_run_is_clean() {
    let ws = Workspace::open(env!("CARGO_MANIFEST_DIR")).expect("repo root is a workspace");
    let report = ws.analyze(&RuleFilter::all()).expect("analysis over the live tree succeeds");
    assert!(report.files_scanned > 50, "walker found only {} files", report.files_scanned);
    let bad: Vec<String> = report.unsuppressed().map(|f| f.human()).collect();
    assert!(bad.is_empty(), "live tree has unsuppressed findings:\n{}", bad.join("\n"));
    // Every waiver in the tree carries a non-empty reason.
    for f in report.suppressed() {
        let reason = f.suppressed.as_deref().unwrap_or_default();
        assert!(!reason.trim().is_empty(), "reasonless suppression at {}:{}", f.file, f.line);
    }
}
