//! Cross-artifact (X) rules: drift between source, tests, CI, and
//! docs becomes a lint failure instead of a silently rotting promise.
//!
//! * `xref-bin-smoke` — every `crates/bench/src/bin/<name>.rs` must
//!   have a `<name>_entry` smoke test in
//!   `crates/bench/tests/bin_smoke.rs`.
//! * `xref-spec-used` — every committed `examples/specs/*.toml` must be
//!   named (by stem) in a test file or a CI workflow, so no golden
//!   spec exists that nothing exercises.
//! * `xref-doc-schema` — every key in the EXPERIMENTS.md spec-schema
//!   TOML block must exist in `crates/sim/src/spec.rs`; doc drift is a
//!   build failure.
//! * `xref-mod-used` — every `pub mod` of a library crate must be named
//!   from a file other than its own, so no module exists that nothing
//!   uses.

use std::fs;
use std::path::{Path, PathBuf};

use crate::diag::Finding;
use crate::lexer::{self, Tok, TokKind};

/// Where the cross-artifact rule inputs live, workspace-relative.
#[derive(Debug, Clone)]
pub struct XrefConfig {
    /// Directory of bench harness binaries.
    pub bin_dir: String,
    /// The smoke-test file that must cover each binary.
    pub bin_smoke: String,
    /// Directory of committed experiment specs.
    pub specs_dir: String,
    /// Directories whose files count as "exercising" a spec (test
    /// trees and CI workflows).
    pub spec_ref_dirs: Vec<String>,
    /// The schema-documenting markdown file.
    pub experiments_md: String,
    /// The heading that precedes the schema TOML block.
    pub schema_heading: String,
    /// The spec codec source the schema keys must exist in.
    pub spec_rs: String,
    /// Library crates whose every `pub mod` must be named from another
    /// file: `(crate name, crate-root file)`.
    pub lib_roots: Vec<(String, String)>,
    /// Path prefixes whose `.rs` files never count as naming a module
    /// (build output, fixtures that hold seeded violations).
    pub mod_ref_exclude: Vec<String>,
}

impl XrefConfig {
    /// The workspace's actual layout.
    #[must_use]
    pub fn workspace_default() -> Self {
        XrefConfig {
            bin_dir: "crates/bench/src/bin".into(),
            bin_smoke: "crates/bench/tests/bin_smoke.rs".into(),
            specs_dir: "examples/specs".into(),
            spec_ref_dirs: vec![
                "crates/bench/tests".into(),
                "crates/sim/tests".into(),
                "crates/core/tests".into(),
                "tests".into(),
                ".github/workflows".into(),
            ],
            experiments_md: "EXPERIMENTS.md".into(),
            schema_heading: "## Spec-driven experiments".into(),
            spec_rs: "crates/sim/src/spec.rs".into(),
            lib_roots: [
                ("blockchain_consistency", "src"),
                ("probability", "crates/probability/src"),
                ("markov", "crates/markov/src"),
                ("nakamoto_sim", "crates/sim/src"),
                ("consistency_core", "crates/core/src"),
                ("consistency_bench", "crates/bench/src"),
                ("consistency_lint", "crates/lint/src"),
            ]
            .map(|(name, src)| (name.into(), format!("{src}/lib.rs")))
            .to_vec(),
            mod_ref_exclude: vec!["target".into(), "crates/lint/fixtures".into()],
        }
    }
}

/// Runs all four X rules rooted at `root`.
#[must_use]
pub fn check(root: &Path, cfg: &XrefConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    check_bin_smoke(root, cfg, &mut out);
    check_specs_used(root, cfg, &mut out);
    check_doc_schema(root, cfg, &mut out);
    check_mods_used(root, cfg, &mut out);
    out
}

fn read(root: &Path, rel: &str) -> Option<String> {
    fs::read_to_string(root.join(rel)).ok()
}

/// Files with one of `exts` directly under `dir` (sorted for
/// deterministic finding order).
fn files_with_ext(dir: &Path, exts: &[&str]) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.extension()
                .and_then(|e| e.to_str())
                .is_some_and(|e| exts.contains(&e))
        })
        .collect();
    v.sort();
    v
}

fn stem(p: &Path) -> String {
    p.file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or_default()
        .to_string()
}

fn check_bin_smoke(root: &Path, cfg: &XrefConfig, out: &mut Vec<Finding>) {
    let Some(smoke) = read(root, &cfg.bin_smoke) else {
        out.push(Finding::new(
            "xref-bin-smoke",
            &cfg.bin_smoke,
            0,
            0,
            "bin_smoke.rs is missing; every bench binary needs a smoke entry".into(),
        ));
        return;
    };
    for bin in files_with_ext(&root.join(&cfg.bin_dir), &["rs"]) {
        let name = stem(&bin);
        let marker = format!("{name}_entry");
        if !smoke.contains(&marker) {
            out.push(Finding::new(
                "xref-bin-smoke",
                &format!("{}/{}.rs", cfg.bin_dir, name),
                0,
                0,
                format!(
                    "bench binary `{name}` has no `{marker}` smoke test in {}",
                    cfg.bin_smoke
                ),
            ));
        }
    }
}

fn check_specs_used(root: &Path, cfg: &XrefConfig, out: &mut Vec<Finding>) {
    // Build the reference corpus: test sources and CI workflows.
    let mut corpus = String::new();
    for dir in &cfg.spec_ref_dirs {
        for f in files_with_ext(&root.join(dir), &["rs", "yml", "yaml"]) {
            if let Ok(s) = fs::read_to_string(&f) {
                corpus.push_str(&s);
                corpus.push('\n');
            }
        }
    }
    for spec in files_with_ext(&root.join(&cfg.specs_dir), &["toml"]) {
        let name = stem(&spec);
        if !corpus.contains(&name) {
            out.push(Finding::new(
                "xref-spec-used",
                &format!("{}/{}.toml", cfg.specs_dir, name),
                0,
                0,
                format!(
                    "committed spec `{name}.toml` is not referenced by any test or CI \
                     workflow; add it to the golden-file smoke or delete it"
                ),
            ));
        }
    }
}

fn check_doc_schema(root: &Path, cfg: &XrefConfig, out: &mut Vec<Finding>) {
    let Some(md) = read(root, &cfg.experiments_md) else {
        return;
    };
    let Some(spec_rs) = read(root, &cfg.spec_rs) else {
        out.push(Finding::new(
            "xref-doc-schema",
            &cfg.spec_rs,
            0,
            0,
            "spec codec source missing; cannot cross-check the documented schema".into(),
        ));
        return;
    };
    let keys = schema_keys(&md, &cfg.schema_heading);
    if keys.is_empty() {
        out.push(Finding::new(
            "xref-doc-schema",
            &cfg.experiments_md,
            0,
            0,
            format!(
                "no TOML schema block found under `{}`; the documented schema \
                 must stay cross-checkable",
                cfg.schema_heading
            ),
        ));
        return;
    }
    for (key, line) in keys {
        if !mentions_word(&spec_rs, &key) {
            out.push(Finding::new(
                "xref-doc-schema",
                &cfg.experiments_md,
                line,
                1,
                format!(
                    "documented spec key `{key}` does not exist in {}; \
                     the schema section has drifted from the codec",
                    cfg.spec_rs
                ),
            ));
        }
    }
}

fn check_mods_used(root: &Path, cfg: &XrefConfig, out: &mut Vec<Finding>) {
    let mut files = Vec::new();
    if crate::collect_rs_files(root, root, &cfg.mod_ref_exclude, &mut files).is_err() {
        return;
    }
    let names: Vec<(String, Vec<(String, String)>)> = files
        .into_iter()
        .filter_map(|rel| {
            let source = fs::read_to_string(root.join(&rel)).ok()?;
            let pairs = qualified_names(&lexer::lex(&source).tokens);
            Some((rel, pairs))
        })
        .collect();
    for (krate, lib_rs) in &cfg.lib_roots {
        let Some(source) = read(root, lib_rs) else {
            continue;
        };
        let src = lib_rs
            .rsplit_once('/')
            .map_or(String::new(), |(dir, _)| format!("{dir}/"));
        for (module, line, col) in file_modules(&lexer::lex(&source).tokens) {
            let (own, own_dir) = (format!("{src}{module}.rs"), format!("{src}{module}/"));
            let named = names.iter().any(|(rel, pairs)| {
                let local = rel.starts_with(&src);
                *rel != own
                    && !rel.starts_with(&own_dir)
                    && pairs.iter().any(|(owner, name)| {
                        *name == module
                            && (owner == krate || (local && (owner == "crate" || owner == "super")))
                    })
            });
            if !named {
                out.push(Finding::new(
                    "xref-mod-used",
                    lib_rs,
                    line,
                    col,
                    format!(
                        "library module `{krate}::{module}` is named from no file but its \
                         own; use it or delete it"
                    ),
                ));
            }
        }
    }
}

/// `(name, line, column)` of every `pub mod name;` declaration.
fn file_modules(toks: &[Tok]) -> Vec<(String, u32, u32)> {
    toks.windows(4)
        .filter(|w| {
            w[0].is_ident("pub")
                && w[1].is_ident("mod")
                && w[2].kind == TokKind::Ident
                && w[3].is_punct(';')
        })
        .map(|w| (w[2].text.clone(), w[2].line, w[2].col))
        .collect()
}

/// Every `(owner, name)` a file names: `owner::name` path segments, and
/// each entry of a `owner::{…}` use group (nested groups name their
/// own owner), so `use a::b::{c, d::e}` yields `(a, b)`, `(b, c)` and
/// `(b, d)`.
fn qualified_names(toks: &[Tok]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (i, owner) in toks.iter().enumerate() {
        let path = toks
            .get(i + 1..i + 3)
            .is_some_and(|w| w.iter().all(|t| t.is_punct(':')));
        if owner.kind != TokKind::Ident || !path {
            continue;
        }
        match toks.get(i + 3) {
            Some(t) if t.kind == TokKind::Ident => out.push((owner.text.clone(), t.text.clone())),
            Some(t) if t.is_punct('{') => {
                let mut depth = 0usize;
                for (j, t) in toks.iter().enumerate().skip(i + 3) {
                    if t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if depth == 1
                        && t.kind == TokKind::Ident
                        && (toks[j - 1].is_punct('{') || toks[j - 1].is_punct(','))
                    {
                        out.push((owner.text.clone(), t.text.clone()));
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Extracts `(key, markdown line)` pairs from the first ```toml fence
/// after `heading`: table-header segments (`[[sweep.axis.cell]]` →
/// `sweep`, `axis`, `cell`) and every `key =` assignment, including
/// ones inside inline tables. TOML comments are stripped first so
/// prose in `# …` trails cannot invent keys.
#[must_use]
pub fn schema_keys(md: &str, heading: &str) -> Vec<(String, u32)> {
    let mut keys: Vec<(String, u32)> = Vec::new();
    let mut seen_heading = false;
    let mut in_fence = false;
    let mut done = false;
    for (idx, raw) in md.lines().enumerate() {
        let line_no = u32::try_from(idx).unwrap_or(u32::MAX).saturating_add(1);
        if done {
            break;
        }
        if !seen_heading {
            seen_heading = raw.trim_start().starts_with(heading);
            continue;
        }
        if !in_fence {
            if raw.trim() == "```toml" {
                in_fence = true;
            }
            continue;
        }
        if raw.trim() == "```" {
            done = true;
            continue;
        }
        let line = raw.split('#').next().unwrap_or("");
        let trimmed = line.trim();
        // Table headers: `[base]` / `[[sweep.axis.cell]]`.
        if let Some(inner) = trimmed
            .strip_prefix("[[")
            .and_then(|s| s.strip_suffix("]]"))
            .or_else(|| trimmed.strip_prefix('[').and_then(|s| s.strip_suffix(']')))
        {
            for seg in inner.split('.') {
                push_key(&mut keys, seg, line_no);
            }
            continue;
        }
        // `key =` assignments anywhere on the line (top-level and
        // inline-table members both match).
        let bytes: Vec<char> = line.chars().collect();
        let mut i = 0usize;
        while i < bytes.len() {
            if bytes[i].is_alphabetic() || bytes[i] == '_' {
                let start = i;
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                let word: String = bytes[start..i].iter().collect();
                let mut j = i;
                while j < bytes.len() && bytes[j] == ' ' {
                    j += 1;
                }
                if bytes.get(j) == Some(&'=') && bytes.get(j + 1) != Some(&'=') {
                    push_key(&mut keys, &word, line_no);
                }
            } else if bytes[i] == '"' {
                // Skip string contents so values can't invent keys.
                i += 1;
                while i < bytes.len() && bytes[i] != '"' {
                    i += 1;
                }
                i += 1;
            } else {
                i += 1;
            }
        }
    }
    keys
}

fn push_key(keys: &mut Vec<(String, u32)>, key: &str, line: u32) {
    let key = key.trim();
    if !key.is_empty() && !keys.iter().any(|(k, _)| k == key) {
        keys.push((key.to_string(), line));
    }
}

/// Word-boundary containment: `key` appears in `text` not embedded in
/// a longer identifier (`c` must not match inside `count`).
#[must_use]
pub fn mentions_word(text: &str, key: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let k: Vec<char> = key.chars().collect();
    if k.is_empty() {
        return false;
    }
    let boundary = |c: Option<&char>| !c.is_some_and(|&c| c.is_alphanumeric() || c == '_');
    let mut i = 0usize;
    while i + k.len() <= t.len() {
        if t[i..i + k.len()] == k[..]
            && boundary(i.checked_sub(1).and_then(|p| t.get(p)))
            && boundary(t.get(i + k.len()))
        {
            return true;
        }
        i += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    const MD: &str = "\
# Doc

## Spec-driven experiments (`experiment`)

intro text

```toml
[experiment]
trials = 8            # budget cap; ignore prose = here
estimator = \"wilson\"

[base]
c = 3.0               # OR hardness = 1e-9

[[sweep.axis.cell]]
label = \"x\"
patch = { \"base.adversary_fraction\" = 0.15 }
```
";

    #[test]
    fn schema_keys_extracts_tables_and_assignments() {
        let keys: Vec<String> = schema_keys(MD, "## Spec-driven experiments")
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        for expected in [
            "experiment",
            "trials",
            "estimator",
            "base",
            "c",
            "sweep",
            "axis",
            "cell",
            "label",
            "patch",
        ] {
            assert!(
                keys.contains(&expected.to_string()),
                "missing {expected}: {keys:?}"
            );
        }
        // Comment prose and string values must not invent keys.
        assert!(!keys.contains(&"prose".to_string()), "{keys:?}");
        assert!(
            !keys.contains(&"hardness".to_string()),
            "comment-only mention: {keys:?}"
        );
    }

    #[test]
    fn qualified_names_cover_paths_and_use_groups() {
        let toks = lexer::lex(
            "use blockchain_consistency::markov::{hitting, mixing::tv};\n\
             fn f() { crate::race::go(); } // probability::poisson",
        )
        .tokens;
        let names = qualified_names(&toks);
        for (owner, name) in [
            ("blockchain_consistency", "markov"),
            ("markov", "hitting"),
            ("markov", "mixing"),
            ("mixing", "tv"),
            ("crate", "race"),
            ("race", "go"),
        ] {
            assert!(
                names.contains(&(owner.into(), name.into())),
                "{owner}::{name}: {names:?}"
            );
        }
        assert!(
            !names.iter().any(|(_, n)| n == "poisson"),
            "comments name nothing"
        );
    }

    #[test]
    fn word_boundary_matching() {
        assert!(mentions_word("let c = 1;", "c"));
        assert!(!mentions_word("let count = 1;", "c"));
        assert!(mentions_word("\"n_miners\"", "n_miners"));
        assert!(mentions_word("c", "c"));
    }
}
