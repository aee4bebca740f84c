//! Drives every committed fixture under `crates/lint/fixtures/`
//! through [`consistency_lint::check_source`], the scanner's own
//! per-file path: each rule has at least one positive fixture (the rule
//! must fire) and one negative fixture (text that looks like a
//! violation but is not must stay clean).

use std::path::{Path, PathBuf};

use consistency_lint::diag::Finding;
use consistency_lint::rules::RuleSet;
use consistency_lint::{check_source, xref};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn read(name: &str) -> String {
    let path = fixture_dir().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} must exist: {e}", path.display()))
}

/// Rule set for ordinary (non-crate-root) fixtures.
fn lib_rules() -> RuleSet {
    RuleSet::all()
}

/// The findings of one fixture file under `rules`.
fn check(name: &str, rules: RuleSet) -> Vec<Finding> {
    check_source(name, &read(name), rules, None).findings
}

fn rules_fired(name: &str, rules: RuleSet) -> Vec<&'static str> {
    let findings = check(name, rules);
    let mut fired: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
    fired.sort_unstable();
    fired.dedup();
    fired
}

#[track_caller]
fn assert_fires(name: &str, rules: RuleSet, expected: &[&str]) {
    let fired = rules_fired(name, rules);
    assert_eq!(fired, expected, "{name}: wrong rule set fired");
}

#[track_caller]
fn assert_clean(name: &str, rules: RuleSet) {
    let findings = check(name, rules);
    assert!(
        findings.is_empty(),
        "{name}: expected clean, got {findings:#?}"
    );
}

#[test]
fn det_collections() {
    assert_fires("det_collections_pos.rs", lib_rules(), &["det-collections"]);
    assert_clean("det_collections_neg.rs", lib_rules());
}

#[test]
fn det_wallclock() {
    assert_fires("det_wallclock_pos.rs", lib_rules(), &["det-wallclock"]);
    assert_clean("det_wallclock_neg.rs", lib_rules());
}

#[test]
fn det_entropy() {
    assert_fires("det_entropy_pos.rs", lib_rules(), &["det-entropy"]);
    assert_clean("det_entropy_neg.rs", lib_rules());
}

#[test]
fn det_float_sum() {
    assert_fires("det_float_sum_pos.rs", lib_rules(), &["det-float-sum"]);
    assert_clean("det_float_sum_neg.rs", lib_rules());
}

#[test]
fn det_rawthread() {
    assert_fires("det_rawthread_pos.rs", lib_rules(), &["det-rawthread"]);
    assert_clean("det_rawthread_neg.rs", lib_rules());
}

#[test]
fn panic_unwrap() {
    assert_fires("panic_unwrap_pos.rs", lib_rules(), &["panic-unwrap"]);
    assert_clean("panic_unwrap_neg.rs", lib_rules());
}

#[test]
fn panic_expect() {
    assert_fires("panic_expect_pos.rs", lib_rules(), &["panic-expect"]);
    assert_clean("panic_expect_neg.rs", lib_rules());
}

#[test]
fn panic_macro() {
    assert_fires("panic_macro_pos.rs", lib_rules(), &["panic-macro"]);
    assert_clean("panic_macro_neg.rs", lib_rules());
}

#[test]
fn panic_slice_index() {
    let findings = check("panic_slice_pos.rs", lib_rules());
    // All three bounded forms: `[..n]`, `[1..]`, `[1..=n]`.
    assert_eq!(findings.len(), 3, "{findings:#?}");
    assert!(findings.iter().all(|f| f.rule == "panic-slice-index"));
    assert_clean("panic_slice_neg.rs", lib_rules());
}

#[test]
fn unsafe_forbid() {
    let root_rules = RuleSet {
        forbid_unsafe: true,
        ..RuleSet::all()
    };
    assert_fires("unsafe_forbid_pos.rs", root_rules, &["unsafe-forbid"]);
    assert_clean("unsafe_forbid_neg.rs", root_rules);
}

#[test]
fn waiver_suppresses_trailing_and_own_line() {
    assert_clean("waiver_ok.rs", lib_rules());
}

#[test]
fn waiver_unused_is_an_error() {
    assert_fires("waiver_unused.rs", lib_rules(), &["waiver-unused"]);
}

#[test]
fn waiver_malformed_directives() {
    let findings = check("waiver_bad.rs", lib_rules());
    let fired: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    // The missing-justification waiver and the unknown-rule waiver are
    // both errors, and neither suppresses its `.unwrap()`.
    assert!(fired.contains(&"waiver-syntax"), "{findings:#?}");
    assert!(fired.contains(&"waiver-unknown-rule"), "{findings:#?}");
    assert_eq!(
        fired.iter().filter(|r| **r == "panic-unwrap").count(),
        2,
        "{findings:#?}"
    );
}

#[test]
fn lexer_stress_text_never_fires() {
    assert_clean("lexer_stress.rs", lib_rules());
}

/// Positive fixtures report the violation's line, not just the rule.
#[test]
fn findings_carry_line_numbers() {
    let findings = check("panic_unwrap_pos.rs", lib_rules());
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].line, 3, "{findings:#?}");
}

fn mini_xref_config() -> xref::XrefConfig {
    xref::XrefConfig {
        lib_roots: vec![("fixture_lib".into(), "lib/src/lib.rs".into())],
        mod_ref_exclude: Vec::new(),
    }
}

/// Every X finding over a fixture tree, as the workspace scan finds
/// them: [`xref::check`] for `xref-mod-used`, then
/// [`check_source`] with the tree's reference index on each library
/// file for `xref-item-used` and its waivers.
fn xref_findings(tree: &str) -> Vec<Finding> {
    let root = fixture_dir().join(tree);
    let cfg = mini_xref_config();
    let index = xref::RefIndex::build(&root, &cfg);
    let mut findings = xref::check(&cfg, &index);
    let mut libs: Vec<PathBuf> = std::fs::read_dir(root.join("lib/src"))
        .expect("fixture library tree exists")
        .map(|entry| entry.expect("readable entry").path())
        .collect();
    libs.sort();
    for path in libs {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("UTF-8 name");
        let source = std::fs::read_to_string(&path).expect("readable fixture");
        let rel = format!("lib/src/{name}");
        findings.extend(check_source(&rel, &source, RuleSet::default(), Some(&index)).findings);
    }
    findings
}

#[test]
fn xref_ok_tree_is_clean() {
    // Clean means: a function called from a bin (`grouped::go`), one
    // reached through `use` from another file (`pathed::run`), one
    // called by path (`local::helper`) and one kept by a waiver
    // (`theorem`).
    let findings = xref_findings("xref_ok");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn xref_bad_tree_fires_every_x_rule() {
    let findings = xref_findings("xref_bad");
    let mut fired: Vec<(&str, &str, u32)> = findings
        .iter()
        .map(|f| (f.rule, f.path.as_str(), f.line))
        .collect();
    fired.sort_unstable();
    assert_eq!(
        fired,
        [
            ("waiver-unused", "lib/src/lib.rs", 24),
            // `no_caller`; `cfg_test_caller`, called from test code only;
            // `tests_dir_caller`, called from `tests/` only; `doc_caller`
            // and `string_caller`, named in a doc comment and a string;
            // `ImplOnly`, named in its own `impl` header only.
            ("xref-item-used", "lib/src/lib.rs", 5),
            ("xref-item-used", "lib/src/lib.rs", 8),
            ("xref-item-used", "lib/src/lib.rs", 11),
            ("xref-item-used", "lib/src/lib.rs", 14),
            ("xref-item-used", "lib/src/lib.rs", 17),
            ("xref-item-used", "lib/src/lib.rs", 20),
            ("xref-item-used", "lib/src/test_only.rs", 1),
            ("xref-item-used", "lib/src/unused.rs", 1),
            // `test_only`, named from `#[cfg(test)]` only, and `unused`.
            ("xref-mod-used", "lib/src/lib.rs", 1),
            ("xref-mod-used", "lib/src/lib.rs", 2),
        ],
        "{findings:#?}"
    );
}
