//! Seeded mutation fuzzing of detlint's hand-rolled front end. Every
//! `.rs` file of the workspace (fixtures included) is mutated —
//! truncated, spans deleted, and fragments inserted that open or close
//! strings, raw strings, block comments, lifetimes, test regions, brace
//! groups and waivers, or carry non-ASCII text — and each mutant must go
//! through the lexer, the reference index and `check_source` with every
//! rule on without a panic, with every finding on a line of 1 or more.
//! `cargo test` runs 1,000 fixed-seed cases; the CI `fuzz` job adds the
//! ignored 20,000-case run with
//! `cargo test --release -p consistency_lint --test lexer_mutation -- --ignored`.

use std::path::{Path, PathBuf};

use consistency_lint::rules::RuleSet;
use consistency_lint::xref::{RefIndex, XrefConfig};
use consistency_lint::{check_source, lexer};

/// Master seed of the case stream.
const SEED: u64 = 0xDE7_11A7;

/// Text a mutation inserts at a random position.
const FRAGMENTS: &[&str] = &[
    "\"",
    "r#\"",
    "\"#",
    "b'",
    "/*",
    "*/",
    "'a",
    "'",
    "#[cfg(test)]",
    "#[test]",
    "#[",
    "{",
    "}",
    "[",
    "]",
    "(",
    ")",
    ")) ]",
    "<",
    ">",
    "::",
    "// detlint: allow(",
    "// detlint: allow(xref-item-used) --",
    "// detlint: allow(panic-unwrap) -- proof\n",
    "/* detlint: allow(det-collections) -- x */",
    "pub fn ",
    "pub const ",
    "impl ",
    " for ",
    "mod m;",
    "x[1..]",
    ".unwrap()",
    "é",
    "∑ᾱ",
    "'é'",
    "\u{1F600}",
    "\n",
];

/// Minimal SplitMix64, so the lint crate keeps no dependency.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        usize::try_from(self.next() % n.max(1) as u64).expect("index fits usize")
    }
}

/// Every `.rs` file of the workspace as `(relative path, text)`, in a
/// fixed order.
fn corpus() -> Vec<(String, String)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir).expect("readable directory") {
            let path = entry.expect("readable directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with('.') || name == "target" {
                continue;
            }
            if path.is_dir() {
                walk(root, &path, out);
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root).expect("under the root");
                let text = std::fs::read_to_string(&path).expect("readable source");
                out.push((rel.to_string_lossy().replace('\\', "/"), text));
            }
        }
    }
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    walk(&root, &root, &mut files);
    files.sort();
    assert!(files.len() > 100, "the corpus lost files: {}", files.len());
    files
}

/// The largest char boundary of `text` at or below `at`.
fn boundary(text: &str, at: usize) -> usize {
    (0..=at.min(text.len()))
        .rev()
        .find(|&i| text.is_char_boundary(i))
        .unwrap_or(0)
}

/// Applies one random mutation to `text`.
fn mutate(text: &mut String, rng: &mut SplitMix64) {
    let at = boundary(text, rng.below(text.len() + 1));
    match rng.next() % 3 {
        0 => text.truncate(at),
        1 => {
            let end = boundary(text, at + rng.below(400));
            text.replace_range(at..end, "");
        }
        _ => text.insert_str(at, FRAGMENTS[rng.below(FRAGMENTS.len())]),
    }
}

/// Runs the lexer, the index and every per-file rule over one mutant.
fn check(rel: &str, case: u64, source: &str) {
    let _ = lexer::lex(source);
    let mut index = RefIndex::new(&XrefConfig::workspace_default());
    index.add(rel, source);
    let every_rule = RuleSet {
        forbid_unsafe: true,
        ..RuleSet::all()
    };
    for finding in check_source(rel, source, every_rule, Some(&index)).findings {
        assert!(
            finding.line >= 1,
            "case {case} ({rel}): finding without a line: {finding:?}"
        );
    }
}

fn fuzz(cases: u64) {
    let corpus = corpus();
    let mut seeds = SplitMix64(SEED);
    for case in 0..cases {
        let mut rng = SplitMix64(seeds.next());
        let (rel, text) = &corpus[rng.below(corpus.len())];
        let mut text = text.clone();
        for _ in 0..=rng.below(3) {
            mutate(&mut text, &mut rng);
        }
        check(rel, case, &text);
    }
}

#[test]
fn every_workspace_file_lints_without_panic() {
    for (rel, text) in corpus() {
        check(&rel, 0, &text);
    }
}

#[test]
fn mutated_sources_lint_without_panic() {
    fuzz(1_000);
}

#[test]
#[ignore = "20,000 cases; the CI fuzz job runs it in release"]
fn mutated_sources_lint_without_panic_at_scale() {
    fuzz(20_000);
}
