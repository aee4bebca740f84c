#![forbid(unsafe_code)]
//! `consistency_lint` — the in-tree determinism and hygiene lint pass
//! (`detlint`).
//!
//! Every claim this repository makes about the reproduced paper rests
//! on one contract: Monte-Carlo aggregates are **bit-identical** at
//! any pool width and resume point. That contract is
//! enforced *dynamically* by the `determinism` CI job and the scenario
//! fuzzer — which catch violations only after they are seeded. This
//! crate enforces it *statically*: a token-level scan of the workspace
//! rejects determinism- and robustness-hostile source patterns at CI
//! time, before they can grow call sites.
//!
//! In the same in-tree-parser discipline as the `nakamoto_sim::spec`
//! TOML codec, the scanner is a
//! hand-rolled lexer ([`lexer`]) — no external crates, offline-safe —
//! that understands strings, raw strings, char literals vs lifetimes,
//! and nested block comments, so rule matching never confuses text
//! with code.
//!
//! Rule families (full catalogue and rationale in `docs/LINTING.md`):
//!
//! * **D — determinism** ([`rules`]): no `HashMap`/`HashSet`, no wall
//!   clock, no ambient entropy or environment reads, no uncompensated
//!   float `.sum()`/`.product()` in the simulation/estimator crates.
//! * **P — panic hygiene** ([`rules`]): no `unwrap`/`expect`/`panic!`/
//!   `unreachable!`/bounded range indexing in non-test library code of
//!   `crates/sim` and `crates/core`.
//! * **U — unsafe** ([`rules`]): every library crate root asserts
//!   `#![forbid(unsafe_code)]`.
//! * **X — cross-artifact** ([`xref`]): library modules and public
//!   items need a non-test user — an item that computes a numbered
//!   statement of the paper stays only through a waiver naming it.
//!
//! Violations are suppressed per line with a justified waiver
//! ([`waiver`]): `// detlint: allow(<rule>) -- <why>`. Unused waivers
//! are themselves errors, so suppressions cannot outlive their reason.

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod waiver;
pub mod xref;

use std::fs;
use std::path::{Path, PathBuf};

use diag::{Finding, ScanReport};
use rules::RuleSet;
use xref::XrefConfig;

/// Which rule families apply to which crates, plus the library trees
/// the usage rules read. The default ([`Policy::workspace_default`])
/// encodes this workspace's contract; tests build narrower policies
/// around fixture files.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Crates (by `crates/<dir>` name; `"root"` = the umbrella crate)
    /// where `det-collections` applies.
    pub collections_crates: Vec<String>,
    /// Crates where `det-wallclock` applies.
    pub wallclock_crates: Vec<String>,
    /// Crates where `det-entropy` applies.
    pub entropy_crates: Vec<String>,
    /// Crates where `det-float-sum` applies.
    pub float_sum_crates: Vec<String>,
    /// Crates where `det-rawthread` applies (raw `thread::scope`/
    /// `thread::spawn`/`thread::Builder` forbidden in favour of the
    /// shared executor pool).
    pub rawthread_crates: Vec<String>,
    /// Workspace-relative files exempt from `det-rawthread` — the
    /// executor module itself, which owns every raw spawn.
    pub rawthread_exempt: Vec<String>,
    /// Crates where the P (panic-hygiene) rules apply.
    pub panic_crates: Vec<String>,
    /// Workspace-relative crate-root files that must carry
    /// `#![forbid(unsafe_code)]`.
    pub forbid_unsafe_roots: Vec<String>,
    /// Workspace-relative path prefixes excluded from scanning
    /// entirely (fixtures with seeded violations, build output).
    pub exclude_prefixes: Vec<String>,
    /// Library trees the usage rules read; `None` disables the X
    /// family.
    pub xref: Option<XrefConfig>,
}

impl Policy {
    /// The policy this workspace is held to.
    #[must_use]
    pub fn workspace_default() -> Self {
        let sim_core = || vec!["sim".to_string(), "core".to_string()];
        let mut deterministic = sim_core();
        deterministic.push("markov".into());
        let mut sealed = deterministic.clone();
        sealed.push("probability".into());
        Policy {
            collections_crates: deterministic,
            wallclock_crates: sealed.clone(),
            entropy_crates: sealed,
            float_sum_crates: sim_core(),
            rawthread_crates: vec!["sim".into(), "bench".into()],
            rawthread_exempt: vec!["crates/sim/src/executor.rs".into()],
            panic_crates: sim_core(),
            forbid_unsafe_roots: vec![
                "src/lib.rs".into(),
                "crates/probability/src/lib.rs".into(),
                "crates/markov/src/lib.rs".into(),
                "crates/sim/src/lib.rs".into(),
                "crates/core/src/lib.rs".into(),
                "crates/bench/src/lib.rs".into(),
                "crates/lint/src/lib.rs".into(),
            ],
            exclude_prefixes: vec![
                "target".into(),
                ".git".into(),
                "crates/lint/fixtures".into(),
            ],
            xref: Some(XrefConfig::workspace_default()),
        }
    }

    /// The rule subset for one workspace-relative file path, or `None`
    /// when the file is exempt (tests, benches, examples, binaries,
    /// build scripts — panic hygiene and determinism rules are
    /// library-code contracts).
    #[must_use]
    pub fn rules_for(&self, rel: &str) -> Option<RuleSet> {
        if self
            .exclude_prefixes
            .iter()
            .any(|p| rel.starts_with(p.as_str()))
        {
            return None;
        }
        let exempt = ["/tests/", "/benches/", "/examples/", "/src/bin/"]
            .iter()
            .any(|m| rel.contains(m))
            || rel.starts_with("tests/")
            || rel.starts_with("examples/")
            || rel.ends_with("build.rs");
        if exempt {
            return None;
        }
        let krate = crate_of(rel)?;
        let has = |v: &[String]| v.iter().any(|c| c == krate);
        Some(RuleSet {
            collections: has(&self.collections_crates),
            wallclock: has(&self.wallclock_crates),
            entropy: has(&self.entropy_crates),
            float_sum: has(&self.float_sum_crates),
            rawthread: has(&self.rawthread_crates)
                && !self.rawthread_exempt.iter().any(|p| p == rel),
            panic_hygiene: has(&self.panic_crates),
            forbid_unsafe: self.forbid_unsafe_roots.iter().any(|r| r == rel),
        })
    }
}

/// The crate directory a workspace-relative path belongs to:
/// `crates/sim/src/oracle.rs` → `sim`; `src/lib.rs` → `root`.
#[must_use]
pub fn crate_of(rel: &str) -> Option<&str> {
    if let Some(rest) = rel.strip_prefix("crates/") {
        let name = rest.split('/').next()?;
        return Some(name);
    }
    if rel.starts_with("src/") {
        return Some("root");
    }
    None
}

/// What [`check_source`] found in one file.
#[derive(Debug, Default)]
pub struct FileCheck {
    /// Surviving findings, sorted by position.
    pub findings: Vec<Finding>,
    /// Number of waiver rules that suppressed a finding.
    pub waivers_honored: usize,
}

/// Lints one source file: the per-token rules in `rules` and, given
/// the workspace's reference index, `xref-item-used` on the file's
/// public items, all through the file's waivers. This is the one
/// per-file path: [`scan_workspace`] and the fixture tests both run it.
#[must_use]
pub fn check_source(
    rel_path: &str,
    source: &str,
    rules: RuleSet,
    index: Option<&xref::RefIndex>,
) -> FileCheck {
    let file = lexer::lex(source);
    let mut waivers = waiver::collect(rel_path, &file);
    let mut findings = Vec::new();
    rules::check_tokens(rel_path, &file, rules, &mut waivers, &mut findings);
    if let Some(index) = index {
        index.check_items(rel_path, &file, &mut waivers, &mut findings);
    }
    waivers.flush_unused(rel_path);
    let waivers_honored = waivers
        .waivers
        .iter()
        .map(|w| w.used.iter().filter(|&&u| u).count())
        .sum();
    findings.extend(waivers.findings);
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    FileCheck {
        findings,
        waivers_honored,
    }
}

/// Scans the whole workspace under `root` against `policy`.
///
/// # Errors
///
/// Returns an error only when the root itself cannot be read;
/// individual unreadable files become findings, not aborts.
pub fn scan_workspace(root: &Path, policy: &Policy) -> Result<ScanReport, String> {
    if !root.join("Cargo.toml").is_file() {
        return Err(format!(
            "{} does not look like a workspace root (no Cargo.toml)",
            root.display()
        ));
    }
    let mut files = Vec::new();
    collect_rs_files(root, root, &policy.exclude_prefixes, &mut files)?;
    files.sort();
    let index = policy
        .xref
        .as_ref()
        .map(|cfg| xref::RefIndex::build(root, cfg));

    let mut report = ScanReport::default();
    for rel in &files {
        let Some(rules) = policy.rules_for(rel) else {
            continue;
        };
        if index.as_ref().is_some_and(|index| index.is_test_file(rel)) {
            continue;
        }
        report.files_scanned += 1;
        let source = match fs::read_to_string(root.join(rel)) {
            Ok(s) => s,
            Err(e) => {
                report.findings.push(Finding::new(
                    "waiver-syntax",
                    rel,
                    0,
                    0,
                    format!("unreadable: {e}"),
                ));
                continue;
            }
        };
        let file = check_source(rel, &source, rules, index.as_ref());
        report.waivers_honored += file.waivers_honored;
        report.findings.extend(file.findings);
    }
    // Crate roots listed in the policy but missing on disk are
    // themselves findings — a renamed crate cannot silently drop out
    // of the unsafe contract.
    for r in &policy.forbid_unsafe_roots {
        if !root.join(r).is_file() {
            report.findings.push(Finding::new(
                "unsafe-forbid",
                r,
                0,
                0,
                "crate root named by the policy does not exist".into(),
            ));
        }
    }
    if let (Some(cfg), Some(index)) = (&policy.xref, &index) {
        report.findings.extend(xref::check(cfg, index));
    }
    Ok(report)
}

/// Recursively collects workspace-relative paths of `.rs` files,
/// skipping excluded prefixes and hidden directories.
fn collect_rs_files(
    root: &Path,
    dir: &Path,
    exclude: &[String],
    out: &mut Vec<String>,
) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        let rel = rel_str(root, &path);
        if exclude.iter().any(|p| rel.starts_with(p.as_str())) || rel.starts_with('.') {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, exclude, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// `path` relative to `root`, with forward slashes.
fn rel_str(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.to_string_lossy().replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_scopes_match_the_contract() {
        let p = Policy::workspace_default();
        let sim = p.rules_for("crates/sim/src/oracle.rs").unwrap();
        assert!(sim.collections && sim.panic_hygiene && sim.float_sum && sim.rawthread);
        let markov = p.rules_for("crates/markov/src/chain.rs").unwrap();
        assert!(markov.collections && !markov.panic_hygiene && !markov.float_sum);
        assert!(!markov.rawthread, "rawthread scopes to sim and bench only");
        let prob = p.rules_for("crates/probability/src/rng.rs").unwrap();
        assert!(!prob.collections && prob.wallclock && prob.entropy);
        let bench = p.rules_for("crates/bench/src/cli.rs").unwrap();
        assert!(
            bench.rawthread,
            "bench lib must route fan-outs through the executor"
        );
        assert!(
            !bench.collections && !bench.panic_hygiene && !bench.float_sum,
            "bench lib is otherwise harness code: {bench:?}"
        );
        let executor = p.rules_for("crates/sim/src/executor.rs").unwrap();
        assert!(
            !executor.rawthread,
            "the executor module owns the raw spawns"
        );
    }

    #[test]
    fn exempt_paths() {
        let p = Policy::workspace_default();
        assert!(p
            .rules_for("crates/sim/tests/splitting_crosscheck.rs")
            .is_none());
        assert!(p.rules_for("crates/bench/src/bin/experiment.rs").is_none());
        assert!(p.rules_for("crates/bench/benches/bench_sim.rs").is_none());
        assert!(p.rules_for("examples/quickstart.rs").is_none());
        assert!(p.rules_for("tests/consistency_threshold.rs").is_none());
        assert!(p
            .rules_for("crates/lint/fixtures/panic_unwrap_pos.rs")
            .is_none());
    }

    #[test]
    fn crate_root_files_get_the_unsafe_rule() {
        let p = Policy::workspace_default();
        assert!(p.rules_for("crates/sim/src/lib.rs").unwrap().forbid_unsafe);
        assert!(p.rules_for("src/lib.rs").unwrap().forbid_unsafe);
        assert!(
            !p.rules_for("crates/sim/src/oracle.rs")
                .unwrap()
                .forbid_unsafe
        );
    }

    #[test]
    fn crate_of_classification() {
        assert_eq!(crate_of("crates/sim/src/spec.rs"), Some("sim"));
        assert_eq!(crate_of("src/lib.rs"), Some("root"));
        assert_eq!(crate_of("README.md"), None);
    }
}
