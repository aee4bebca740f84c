//! Cross-artifact (X) rules: library code that nothing uses becomes a
//! lint failure instead of a silently growing surface.
//!
//! * `xref-mod-used` — every `pub mod` of a library crate must be named
//!   from the non-test code of a file other than its own, so no module
//!   exists that nothing uses.
//! * `xref-item-used` — every `pub` function, type, trait, constant
//!   and static of a library source tree must be named in non-test
//!   code other than its own declaration. Matching is by bare name:
//!   an item that shares a name with anything used is never flagged.
//!   Unlike `xref-mod-used` it is checked per file
//!   ([`RefIndex::check_items`]), so a waiver on the declaration line
//!   keeps an item that states a paper result.
//!
//! Both rules read one [`RefIndex`]: every `.rs` file of the
//! workspace lexed once, with `#[cfg(test)]`/`#[test]` regions, files
//! under a `tests/` directory, comments and strings left out.
//!
//! The other artifacts are checked by the tests that already walk
//! them, not by matching names here: the spec codec's unit tests parse
//! EXPERIMENTS.md's schema block, and `consistency_bench`'s `bin_smoke`
//! runs every committed spec against its golden and every harness
//! binary.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use crate::diag::Finding;
use crate::lexer::{self, SourceFile, Tok, TokKind};
use crate::rules::non_test_mask;
use crate::waiver::WaiverSet;

/// Where the usage rules' inputs live, workspace-relative.
#[derive(Debug, Clone)]
pub struct XrefConfig {
    /// Library crates whose every `pub mod` must be named from another
    /// file, and whose source tree (the root file's directory, minus
    /// `bin/`) holds the items `xref-item-used` checks:
    /// `(crate name, crate-root file)`.
    pub lib_roots: Vec<(String, String)>,
    /// Path prefixes whose `.rs` files never count as naming a module
    /// or an item (build output, fixtures that hold seeded violations).
    pub mod_ref_exclude: Vec<String>,
}

impl XrefConfig {
    /// The workspace's actual layout.
    #[must_use]
    pub fn workspace_default() -> Self {
        XrefConfig {
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

/// One file's non-test code, as the usage rules see it.
#[derive(Debug)]
struct FileRefs {
    /// Workspace-relative path.
    rel: String,
    /// Every `(owner, name)` path pair the file names.
    paths: Vec<(String, String)>,
    /// `(name, line, column)` of each `pub mod name;` it declares.
    mods: Vec<(String, u32, u32)>,
    /// Identifiers the file uses: every identifier token but a declared
    /// name and the self type of an `impl` header.
    used: BTreeSet<String>,
}

/// The workspace's non-test code, lexed once: the module paths each
/// file names (for `xref-mod-used`) and the identifiers it uses (for
/// `xref-item-used`).
#[derive(Debug, Default)]
pub struct RefIndex {
    files: Vec<FileRefs>,
    /// Files of out-of-line test modules (`#[cfg(test)] mod walk;`):
    /// test code, like a file under `tests/`.
    test_files: BTreeSet<String>,
    /// Library source trees (`crates/sim/src/`) from `lib_roots`.
    lib_dirs: Vec<String>,
}

impl RefIndex {
    /// An empty index for the library trees of `cfg`.
    #[must_use]
    pub fn new(cfg: &XrefConfig) -> Self {
        RefIndex {
            lib_dirs: cfg.lib_roots.iter().map(|(_, r)| src_dir(r)).collect(),
            ..RefIndex::default()
        }
    }

    /// Lexes every `.rs` file under `root` outside `cfg.mod_ref_exclude`.
    #[must_use]
    pub fn build(root: &Path, cfg: &XrefConfig) -> Self {
        let mut index = RefIndex::new(cfg);
        let mut files = Vec::new();
        if crate::collect_rs_files(root, root, &cfg.mod_ref_exclude, &mut files).is_ok() {
            files.sort();
            for rel in files {
                if let Ok(source) = fs::read_to_string(root.join(&rel)) {
                    index.add(&rel, &source);
                }
            }
        }
        index
    }

    /// Adds one file's non-test code; a file under a `tests/` directory
    /// adds nothing.
    pub fn add(&mut self, rel: &str, source: &str) {
        if is_test_path(rel) {
            return;
        }
        let toks = lexer::lex(source).tokens;
        let mask = non_test_mask(&toks);
        for (i, t) in toks.iter().enumerate() {
            let name = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident);
            if let (false, true, Some(name)) = (mask[i], t.is_ident("mod"), name) {
                if toks.get(i + 2).is_some_and(|t| t.is_punct(';')) {
                    self.test_files.insert(child_module_file(rel, &name.text));
                }
            }
        }
        let code = non_test_code(&toks, &mask);
        let used = code
            .iter()
            .zip(declared_names(&code))
            .filter(|(t, declared)| t.kind == TokKind::Ident && !declared)
            .map(|(t, _)| t.text.clone())
            .collect();
        self.files.push(FileRefs {
            rel: rel.to_string(),
            paths: qualified_names(&code),
            mods: file_modules(&code),
            used,
        });
    }

    /// True for test code: a file under a `tests/` directory or of an
    /// out-of-line `#[cfg(test)]` module.
    #[must_use]
    pub fn is_test_file(&self, rel: &str) -> bool {
        is_test_path(rel) || self.test_files.contains(rel)
    }

    /// The indexed files that are not test code.
    fn code_files(&self) -> impl Iterator<Item = &FileRefs> {
        self.files.iter().filter(|f| !self.is_test_file(&f.rel))
    }

    /// `xref-item-used` on one file: each `pub` item of a library tree
    /// whose name no non-test code uses is a finding, unless a waiver
    /// on its declaration line suppresses it.
    pub fn check_items(
        &self,
        rel: &str,
        file: &SourceFile,
        waivers: &mut WaiverSet,
        out: &mut Vec<Finding>,
    ) {
        let in_lib = self
            .lib_dirs
            .iter()
            .any(|dir| rel.starts_with(dir.as_str()) && !rel.starts_with(&format!("{dir}bin/")));
        if !in_lib || self.is_test_file(rel) {
            return;
        }
        let code = non_test_code(&file.tokens, &non_test_mask(&file.tokens));
        for (kind, name) in pub_items(&code) {
            let used = self.code_files().any(|f| f.used.contains(&name.text));
            if !used && !waivers.try_suppress("xref-item-used", name.line) {
                out.push(Finding::new(
                    "xref-item-used",
                    rel,
                    name.line,
                    name.col,
                    format!(
                        "`pub {kind} {}` is named by no non-test code; delete it, move it \
                         under `#[cfg(test)]`, or waive it with the paper statement it computes",
                        name.text
                    ),
                ));
            }
        }
    }
}

/// The tokens `mask` keeps: those outside `#[cfg(test)]` / `#[test]`
/// regions.
fn non_test_code(toks: &[Tok], mask: &[bool]) -> Vec<Tok> {
    toks.iter()
        .zip(mask)
        .filter(|(_, keep)| **keep)
        .map(|(t, _)| t.clone())
        .collect()
}

/// True for a file under a `tests/` directory: all of it is test code.
fn is_test_path(rel: &str) -> bool {
    rel.split('/').rev().skip(1).any(|dir| dir == "tests")
}

/// The directory of a crate-root file, with a trailing `/`
/// (`crates/sim/src/lib.rs` → `crates/sim/src/`).
fn src_dir(root_file: &str) -> String {
    root_file
        .rsplit_once('/')
        .map_or(String::new(), |(dir, _)| format!("{dir}/"))
}

/// The file `mod name;` in `parent` loads: `name.rs` beside a crate
/// root or `mod.rs`, else in a directory named after `parent`.
fn child_module_file(parent: &str, name: &str) -> String {
    let dir = src_dir(parent);
    match parent.strip_prefix(&dir).unwrap_or(parent) {
        "lib.rs" | "main.rs" | "mod.rs" => format!("{dir}{name}.rs"),
        file => format!("{dir}{}/{name}.rs", file.trim_end_matches(".rs")),
    }
}

/// Index of the name an item declaration at `at` declares: the
/// identifier after `fn`, `struct`, `enum`, `trait`, `type` or `mod`,
/// or after `const` / `static` (and `mut`) when a `:` follows it.
fn declared_name(toks: &[Tok], at: usize) -> Option<usize> {
    let kw = toks.get(at).filter(|t| t.kind == TokKind::Ident)?;
    let ident = |k: usize| {
        toks.get(k)
            .is_some_and(|t| t.kind == TokKind::Ident)
            .then_some(k)
    };
    match kw.text.as_str() {
        "fn" | "struct" | "enum" | "trait" | "type" | "mod" => ident(at + 1),
        "const" | "static" => {
            let k = at + 1 + usize::from(toks.get(at + 1).is_some_and(|t| t.is_ident("mut")));
            ident(k).filter(|_| toks.get(k + 1).is_some_and(|t| t.is_punct(':')))
        }
        _ => None,
    }
}

/// One flag per token: true for a name that is declared rather than
/// used — the name of an item declaration, or the self type of an
/// item-level `impl` header (`impl<T> Foo<T>`, `impl Trait for Foo`).
fn declared_names(toks: &[Tok]) -> Vec<bool> {
    let mut declared = vec![false; toks.len()];
    for i in 0..toks.len() {
        if let Some(name) = declared_name(toks, i) {
            declared[name] = true;
        }
        let item_start = i.checked_sub(1).map_or(true, |p| {
            let p = &toks[p];
            p.is_punct(';')
                || p.is_punct('{')
                || p.is_punct('}')
                || p.is_punct(']')
                || p.is_ident("unsafe")
        });
        if toks[i].is_ident("impl") && item_start {
            if let Some(self_type) = impl_self_type(toks, i) {
                declared[self_type] = true;
            }
        }
    }
    declared
}

/// The last top-level identifier of the self type in the `impl` header
/// at `at`: the path after `for` if there is one, else the path after
/// `impl`, ignoring generic arguments.
fn impl_self_type(toks: &[Tok], at: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut last = None;
    for (j, t) in toks.iter().enumerate().skip(at + 1) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !toks[j - 1].is_punct('-') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 {
            if t.is_punct('{') || t.is_punct(';') || t.is_ident("where") {
                break;
            }
            if t.is_ident("for") {
                last = None;
            } else if t.kind == TokKind::Ident {
                last = Some(j);
            }
        }
    }
    last
}

/// Every `pub` item `xref-item-used` checks, as `(keyword, name
/// token)`: functions (free or inherent methods), structs, enums,
/// traits, type aliases, constants and statics. `pub(crate)` and other
/// restricted visibilities are rustc's `dead_code` lint's business.
fn pub_items(toks: &[Tok]) -> Vec<(&str, &Tok)> {
    let mut items = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("pub") || toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let mut kw = i + 1;
        while toks.get(kw).is_some_and(|q| {
            q.kind == TokKind::Literal
                || matches!(q.text.as_str(), "async" | "unsafe" | "extern")
                || (q.is_ident("const") && toks.get(kw + 1).is_some_and(|n| n.is_ident("fn")))
        }) {
            kw += 1;
        }
        match declared_name(toks, kw) {
            Some(name) if toks[kw].text != "mod" => {
                items.push((toks[kw].text.as_str(), &toks[name]))
            }
            _ => {}
        }
    }
    items
}

/// `xref-mod-used`, the workspace-level X rule: each `pub mod` of a
/// library crate root that no other file's non-test code names.
/// `xref-item-used` runs per file, through [`RefIndex::check_items`].
#[must_use]
pub fn check(cfg: &XrefConfig, index: &RefIndex) -> Vec<Finding> {
    let mut out = Vec::new();
    for (krate, lib_rs) in &cfg.lib_roots {
        let Some(root_file) = index.code_files().find(|f| f.rel == *lib_rs) else {
            continue;
        };
        let src = src_dir(lib_rs);
        for (module, line, col) in &root_file.mods {
            let (own, own_dir) = (format!("{src}{module}.rs"), format!("{src}{module}/"));
            let named = index.code_files().any(|f| {
                let local = f.rel.starts_with(&src);
                f.rel != own
                    && !f.rel.starts_with(&own_dir)
                    && f.paths.iter().any(|(owner, name)| {
                        // `krate::module`, `crate::module` inside the
                        // crate, or `module::item` in the root that
                        // declares it.
                        (name == module
                            && (owner == krate
                                || (local && (owner == "crate" || owner == "super"))))
                            || (f.rel == *lib_rs && owner == module)
                    })
            });
            if !named {
                out.push(Finding::new(
                    "xref-mod-used",
                    lib_rs,
                    *line,
                    *col,
                    format!(
                        "library module `{krate}::{module}` is named from no non-test code \
                         but its own; use it or delete it"
                    ),
                ));
            }
        }
    }
    out
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
