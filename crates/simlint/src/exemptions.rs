//! Module-scoped rule exemptions.
//!
//! v1 carried its exemptions as hardcoded path comparisons inside the rule
//! scanners (`path != "crates/bench/src/engine.rs"`). That breaks silently
//! the moment a file moves: rename `engine.rs` to `engine/mod.rs` and the
//! exemption evaporates — or worse, a new file reuses the old path and
//! inherits an exemption it never earned. v2 keys exemptions on the
//! **module graph** instead: an exemption names `(crate key, module-path
//! prefix, rule)` and covers every file the graph places at or below that
//! module, however it is laid out on disk.
//!
//! Each exemption carries its justification; `--list-rules` and the rule
//! catalog surface them. The [`crate::rules::SCOPED_EXEMPTIONS`] hygiene
//! rule flags line-level `simlint: allow` directives that waive a rule the
//! enclosing module is already exempt from — a redundant waiver means the
//! author did not know the scope existed, and stale directives accumulate.

use crate::graph::ModulePath;

/// One built-in module-scoped exemption.
#[derive(Debug, Clone, Copy)]
pub struct Exemption {
    /// The rule this exemption disables.
    pub rule: &'static str,
    /// Crate key (the `crates/<key>` directory basename).
    pub crate_key: &'static str,
    /// Module-path prefix inside the crate; the exemption covers the module
    /// and all its descendants.
    pub modules: &'static [&'static str],
    /// Why the rule does not apply there — surfaced in reports.
    pub reason: &'static str,
}

/// The built-in exemption table. Additions require stating a reason and
/// survive code review like any other policy change.
pub const EXEMPTIONS: &[Exemption] = &[
    Exemption {
        rule: crate::rules::NONDET_COLLECTIONS,
        crate_key: "bench",
        modules: &["engine"],
        reason: "the Engine memo is keyed lookup only; iteration order never reaches results",
    },
    Exemption {
        rule: crate::rules::REDUCTION_ORDER,
        crate_key: "stats",
        modules: &["reduce"],
        reason: "sim_stats::reduce defines the canonical reducer the rule points everyone at",
    },
    Exemption {
        rule: crate::rules::THREAD_POOL,
        crate_key: "model",
        modules: &["parallel"],
        reason: "sim_model::parallel is the worker pool the rule points everyone at",
    },
];

/// The exemption covering `rule` at `module`, if any.
pub fn exemption_for(module: &ModulePath, rule: &str) -> Option<&'static Exemption> {
    EXEMPTIONS.iter().find(|e| e.rule == rule && module.is_within(e.crate_key, e.modules))
}

/// The rules `module` is exempt from (used by the directive-hygiene check).
pub fn exempt_rules(module: &ModulePath) -> Vec<&'static Exemption> {
    EXEMPTIONS.iter().filter(|e| module.is_within(e.crate_key, e.modules)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ModuleGraph;

    #[test]
    fn exemptions_track_modules_not_paths() {
        // Conventional layout …
        let engine = ModuleGraph::fallback("crates/bench/src/engine.rs");
        assert!(exemption_for(&engine, crate::rules::NONDET_COLLECTIONS).is_some());
        // … the mod.rs layout of the same module …
        let engine_dir = ModuleGraph::fallback("crates/bench/src/engine/mod.rs");
        assert!(exemption_for(&engine_dir, crate::rules::NONDET_COLLECTIONS).is_some());
        // … and submodules underneath it.
        let memo = ModuleGraph::fallback("crates/bench/src/engine/memo.rs");
        assert!(exemption_for(&memo, crate::rules::NONDET_COLLECTIONS).is_some());
        // Other rules and other modules are not covered.
        assert!(exemption_for(&engine, crate::rules::NONDET_TIME).is_none());
        let figures = ModuleGraph::fallback("crates/bench/src/figures.rs");
        assert!(exemption_for(&figures, crate::rules::NONDET_COLLECTIONS).is_none());
    }

    #[test]
    fn the_pool_module_is_exempt_from_thread_pool_only() {
        let pool = ModuleGraph::fallback("crates/model/src/parallel.rs");
        let rules: Vec<&str> = exempt_rules(&pool).iter().map(|e| e.rule).collect();
        assert_eq!(rules, vec![crate::rules::THREAD_POOL]);
        let rng = ModuleGraph::fallback("crates/model/src/rng.rs");
        assert!(exemption_for(&rng, crate::rules::THREAD_POOL).is_none());
    }

    #[test]
    fn reduce_module_is_exempt_from_reduction_order_only() {
        let reduce = ModuleGraph::fallback("crates/stats/src/reduce.rs");
        let rules: Vec<&str> = exempt_rules(&reduce).iter().map(|e| e.rule).collect();
        assert_eq!(rules, vec![crate::rules::REDUCTION_ORDER]);
    }
}
