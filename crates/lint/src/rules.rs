//! The token-level rule checks: determinism (D), panic hygiene (P),
//! and the unsafe assertion (U). Cross-artifact (X) rules live in
//! [`crate::xref`] because they read several files at once.
//!
//! Every check walks the token stream produced by [`crate::lexer`],
//! skips tokens inside `#[cfg(test)]` regions, and routes candidate
//! findings through the waiver layer before reporting.

use crate::diag::Finding;
use crate::lexer::{SourceFile, Tok, TokKind};
use crate::waiver::WaiverSet;

/// Every per-line rule id `detlint` knows, in catalogue order. The
/// waiver parser validates against this list; keep `docs/LINTING.md`
/// in sync.
pub const RULE_IDS: &[&str] = &[
    // D — determinism.
    "det-collections",
    "det-wallclock",
    "det-entropy",
    "det-float-sum",
    "det-rawthread",
    // P — panic hygiene.
    "panic-unwrap",
    "panic-expect",
    "panic-macro",
    "panic-slice-index",
    // U — unsafe.
    "unsafe-forbid",
    // X — cross-artifact (only `xref-item-used`, reported at a
    // declaration, is waivable per line).
    "xref-mod-used",
    "xref-item-used",
    // Meta.
    "waiver-syntax",
    "waiver-unknown-rule",
    "waiver-unused",
];

/// The per-file rule subset to run, chosen by the policy layer from
/// the file's crate and role.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleSet {
    /// `det-collections`: no `HashMap`/`HashSet`.
    pub collections: bool,
    /// `det-wallclock`: no `Instant`/`SystemTime`.
    pub wallclock: bool,
    /// `det-entropy`: no `thread_rng`/`from_entropy`/`OsRng`/`env::var*`.
    pub entropy: bool,
    /// `det-float-sum`: no float `.sum()`/`.product()`.
    pub float_sum: bool,
    /// `det-rawthread`: no `thread::scope`/`thread::spawn`/
    /// `thread::Builder` — all worker threads belong to the shared
    /// `nakamoto_sim::executor` pool.
    pub rawthread: bool,
    /// `panic-unwrap` + `panic-expect` + `panic-macro` +
    /// `panic-slice-index`.
    pub panic_hygiene: bool,
    /// `unsafe-forbid`: crate root must carry `#![forbid(unsafe_code)]`.
    pub forbid_unsafe: bool,
}

impl RuleSet {
    /// All rules on — what the fixture tests use.
    #[must_use]
    pub fn all() -> Self {
        RuleSet {
            collections: true,
            wallclock: true,
            entropy: true,
            float_sum: true,
            rawthread: true,
            panic_hygiene: true,
            forbid_unsafe: false,
        }
    }
}

/// Marks tokens inside `#[cfg(test)]` / `#[test]` regions. Returns one
/// bool per token: `true` = the token counts (non-test code).
///
/// Recognised shape: an attribute whose parenthesised arguments
/// contain the ident `test` (and not `not`, so `#[cfg(not(test))]`
/// still counts as library code), followed — possibly after more
/// attributes — by an item whose body is the next `{…}` group (or a
/// `;` for out-of-line `mod tests;`). Everything from the attribute to
/// the region end is masked.
#[must_use]
pub fn non_test_mask(tokens: &[Tok]) -> Vec<bool> {
    let mut mask = vec![true; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        // Find the attribute's closing bracket.
        let Some(attr_end) = matching(tokens, i + 1, '[', ']') else {
            break;
        };
        let body = &tokens[i + 2..attr_end];
        let gates_test =
            body.iter().any(|t| t.is_ident("test")) && !body.iter().any(|t| t.is_ident("not"));
        if !gates_test {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut j = attr_end + 1;
        while j < tokens.len()
            && tokens[j].is_punct('#')
            && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            match matching(tokens, j + 1, '[', ']') {
                Some(e) => j = e + 1,
                None => break,
            }
        }
        // The region ends at the matching `}` of the item's body, or at
        // a `;` hit before any `{` (e.g. `#[cfg(test)] mod tests;`).
        let mut end = tokens.len().saturating_sub(1);
        let mut k = j;
        while k < tokens.len() {
            if tokens[k].is_punct(';') {
                end = k;
                break;
            }
            if tokens[k].is_punct('{') {
                end = matching(tokens, k, '{', '}').unwrap_or(tokens.len() - 1);
                break;
            }
            k += 1;
        }
        for m in mask.iter_mut().take(end + 1).skip(i) {
            *m = false;
        }
        i = end + 1;
    }
    mask
}

/// Index of the delimiter matching `open` at `start` (which must hold
/// `open`), or `None` if unbalanced.
fn matching(tokens: &[Tok], start: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (idx, t) in tokens.iter().enumerate().skip(start) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(idx);
            }
        }
    }
    None
}

/// Runs the per-token rules of `rules` over an already-lexed file,
/// suppressing findings through `waivers`.
pub fn check_tokens(
    path: &str,
    file: &SourceFile,
    rules: RuleSet,
    waivers: &mut WaiverSet,
    out: &mut Vec<Finding>,
) {
    let toks = &file.tokens;
    let mask = non_test_mask(toks);
    let mut emit = |rule: &'static str, line: u32, col: u32, message: String, w: &mut WaiverSet| {
        if !w.try_suppress(rule, line) {
            out.push(Finding::new(rule, path, line, col, message));
        }
    };

    for (i, t) in toks.iter().enumerate() {
        if !mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        let next = toks.get(i + 1);

        if rules.collections && (t.text == "HashMap" || t.text == "HashSet") {
            emit(
                "det-collections",
                t.line,
                t.col,
                format!(
                    "`{}` has seed-dependent iteration order; use `BTree{}` \
                     (or waive with a proof no iteration order escapes)",
                    t.text,
                    &t.text[4..]
                ),
                waivers,
            );
        }
        if rules.wallclock && (t.text == "Instant" || t.text == "SystemTime") {
            emit(
                "det-wallclock",
                t.line,
                t.col,
                format!(
                    "`{}` reads the wall clock inside simulation/estimator code; \
                     results must be a pure function of the seed",
                    t.text
                ),
                waivers,
            );
        }
        if rules.entropy {
            let env_read = t.text == "env"
                && next.is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 3).is_some_and(|n| {
                    n.is_ident("var") || n.is_ident("var_os") || n.is_ident("vars")
                });
            if env_read
                || t.text == "thread_rng"
                || t.text == "from_entropy"
                || t.text == "OsRng"
                || t.text == "getrandom"
            {
                emit(
                    "det-entropy",
                    t.line,
                    t.col,
                    format!(
                        "`{}` injects ambient state (OS entropy / environment) into \
                         simulation/estimator code; thread the seed or config through instead",
                        t.text
                    ),
                    waivers,
                );
            }
        }
        if rules.rawthread {
            let raw_spawn = t.text == "thread"
                && next.is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 3).is_some_and(|n| {
                    n.is_ident("scope") || n.is_ident("spawn") || n.is_ident("Builder")
                });
            if raw_spawn {
                let what = &toks[i + 3].text;
                emit(
                    "det-rawthread",
                    t.line,
                    t.col,
                    format!(
                        "`thread::{what}` creates raw OS threads outside the shared pool; \
                         submit the work to `nakamoto_sim::executor` instead \
                         (one pool per process owns every worker thread)"
                    ),
                    waivers,
                );
            }
        }
        if rules.float_sum
            && (t.text == "sum" || t.text == "product")
            && prev.is_some_and(|p| p.is_punct('.'))
            && next.is_some_and(|n| n.is_punct('(') || n.is_punct(':'))
            && fold_is_float(toks, i)
        {
            emit(
                "det-float-sum",
                t.line,
                t.col,
                format!(
                    "float `.{}()` folds in iterator order with no compensation; \
                     use `probability::summation` (or waive with a proof the order is fixed \
                     and the tally is not a cross-trial aggregate)",
                    t.text
                ),
                waivers,
            );
        }
        if rules.panic_hygiene {
            let dotted_call = |name: &str| {
                t.text == name
                    && prev.is_some_and(|p| p.is_punct('.'))
                    && next.is_some_and(|n| n.is_punct('('))
            };
            if dotted_call("unwrap") {
                emit(
                    "panic-unwrap",
                    t.line,
                    t.col,
                    "`.unwrap()` in non-test library code; propagate the `Result`/`Option` \
                     or waive with a one-line infallibility proof"
                        .into(),
                    waivers,
                );
            }
            if dotted_call("expect") {
                emit(
                    "panic-expect",
                    t.line,
                    t.col,
                    "`.expect()` in non-test library code; propagate the `Result`/`Option` \
                     or waive with a one-line infallibility proof"
                        .into(),
                    waivers,
                );
            }
            if matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            ) && next.is_some_and(|n| n.is_punct('!'))
            {
                emit(
                    "panic-macro",
                    t.line,
                    t.col,
                    format!(
                        "`{}!` in non-test library code; return an error (or waive with \
                         a proof the branch is unreachable by construction)",
                        t.text
                    ),
                    waivers,
                );
            }
        }
    }

    if rules.panic_hygiene {
        check_slice_ranges(path, toks, &mask, waivers, out);
    }
    if rules.forbid_unsafe && !has_forbid_unsafe(toks) && !waivers.try_suppress("unsafe-forbid", 1)
    {
        out.push(Finding::new(
            "unsafe-forbid",
            path,
            1,
            1,
            "library crate root must assert `#![forbid(unsafe_code)]`".into(),
        ));
    }
}

/// `det-float-sum` type heuristic. An explicit turbofish decides
/// outright: `.sum::<f64>()` is a float fold, `.sum::<u64>()` is not —
/// even when the statement later casts (`.sum::<u64>() as f64`).
/// Without a turbofish, the enclosing statement (previous `;`/`{`/`}`
/// to next `;`) mentioning `f64`/`f32` marks the fold float, which
/// catches `let x: f64 = it.sum();`. Un-annotated statements pass (the
/// type is decided elsewhere; documented as a known limit of
/// token-level analysis in LINTING.md).
fn fold_is_float(toks: &[Tok], at: usize) -> bool {
    // `.sum :: < ty >` — tokens at+1.. are `:` `:` `<` ident `>`.
    if toks.get(at + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(at + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(at + 3).is_some_and(|t| t.is_punct('<'))
    {
        return toks
            .get(at + 4)
            .is_some_and(|t| t.is_ident("f64") || t.is_ident("f32"));
    }
    statement_mentions_float(toks, at)
}

/// Statement-window fallback for [`fold_is_float`].
fn statement_mentions_float(toks: &[Tok], at: usize) -> bool {
    let start = toks[..at]
        .iter()
        .rposition(|t| t.is_punct(';') || t.is_punct('{') || t.is_punct('}'))
        .map_or(0, |p| p + 1);
    let end = toks[at..]
        .iter()
        .position(|t| t.is_punct(';') || t.is_punct('{') || t.is_punct('}'))
        .map_or(toks.len(), |p| at + p);
    toks[start..end]
        .iter()
        .any(|t| t.is_ident("f64") || t.is_ident("f32"))
}

/// `panic-slice-index`: a *bounded* range index (`x[a..]`, `x[..b]`,
/// `x[a..=b]`) panics when the bound is out of range. Detected as a
/// bracket group that (a) follows an expression (ident / `)` / `]`),
/// so array literals, attributes, and match patterns don't match, and
/// (b) contains a `..` at group depth 1 with at least one bound
/// (`x[..]` is infallible and passes). Plain `x[i]` indexing is out of
/// scope for a token-level pass — documented in LINTING.md.
fn check_slice_ranges(
    path: &str,
    toks: &[Tok],
    mask: &[bool],
    waivers: &mut WaiverSet,
    out: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        if !mask[i] || !t.is_punct('[') {
            continue;
        }
        let Some(prev) = i.checked_sub(1).map(|p| &toks[p]) else {
            continue;
        };
        let indexing = prev.kind == TokKind::Ident || prev.is_punct(')') || prev.is_punct(']');
        if !indexing {
            continue;
        }
        let Some(close) = matching(toks, i, '[', ']') else {
            continue;
        };
        // Walk the group at depth 1 looking for `..` with a bound.
        let mut depth = 0usize;
        let mut dots_at: Option<usize> = None;
        for (j, g) in toks.iter().enumerate().take(close).skip(i) {
            if g.is_punct('[') || g.is_punct('(') || g.is_punct('{') {
                depth += 1;
            } else if g.is_punct(']') || g.is_punct(')') || g.is_punct('}') {
                depth = depth.saturating_sub(1);
            } else if depth == 1
                && g.is_punct('.')
                && toks.get(j + 1).is_some_and(|n| n.is_punct('.'))
                && !toks.get(j.wrapping_sub(1)).is_some_and(|p| p.is_punct('.'))
            {
                dots_at = Some(j);
                break;
            }
        }
        let Some(d) = dots_at else { continue };
        let lower_bound = d > i + 1;
        let mut upper_start = d + 2;
        if toks.get(upper_start).is_some_and(|t| t.is_punct('=')) {
            upper_start += 1;
        }
        let upper_bound = upper_start < close;
        if lower_bound || upper_bound {
            let line = toks[i].line;
            if !waivers.try_suppress("panic-slice-index", line) {
                out.push(Finding::new(
                    "panic-slice-index",
                    path,
                    line,
                    toks[i].col,
                    "bounded range index can panic out of range in non-test library code; \
                     use `.get(..)` or waive with a bound proof"
                        .into(),
                ));
            }
        }
    }
}

/// True when the token stream carries `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe(toks: &[Tok]) -> bool {
    toks.iter().enumerate().any(|(i, t)| {
        t.is_ident("forbid")
            && toks[..i].iter().rev().take(3).any(|p| p.is_punct('!'))
            && toks
                .get(i + 1..i + 4)
                .is_some_and(|w| w.iter().any(|t| t.is_ident("unsafe_code")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run_all(src: &str) -> Vec<Finding> {
        crate::check_source("t.rs", src, RuleSet::all(), None).findings
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); let m: HashMap<u8, u8> = HashMap::new(); }\n}\n";
        assert!(run_all(src).is_empty(), "{:?}", run_all(src));
    }

    #[test]
    fn unbalanced_closers_inside_an_index_do_not_panic() {
        // Source that does not compile must still lint: closers that
        // outnumber openers inside an index group must not underflow
        // the walk's depth.
        assert!(run_all("fn f() { x[ ) ) ]; }").is_empty());
    }

    #[test]
    fn cfg_not_test_still_counts() {
        let src = "#[cfg(not(test))]\nfn lib() { x.unwrap(); }\n";
        assert_eq!(rules_of(&run_all(src)), vec!["panic-unwrap"]);
    }

    #[test]
    fn unwrap_in_raw_string_and_comment_is_clean() {
        let src = "fn f() -> String { /* x.unwrap() */ r#\"y.unwrap()\"#.to_string() }\n";
        assert!(run_all(src).is_empty());
    }

    #[test]
    fn hashmap_in_nested_block_comment_is_clean() {
        let src = "/* outer /* HashMap::new() */ HashSet too */ fn f() {}\n";
        assert!(run_all(src).is_empty());
    }

    #[test]
    fn float_sum_flags_annotated_and_turbofish() {
        let src = "fn f(v: &[f64]) -> f64 { let s: f64 = v.iter().sum(); s + v.iter().map(|x| x * 2.0).sum::<f64>() }\n";
        assert_eq!(
            rules_of(&run_all(src)),
            vec!["det-float-sum", "det-float-sum"]
        );
    }

    #[test]
    fn integer_sum_is_clean() {
        let src =
            "fn f(v: &[u64]) -> u64 { let s: u64 = v.iter().sum(); s + v.iter().sum::<u64>() }\n";
        assert!(run_all(src).is_empty());
    }

    #[test]
    fn integer_turbofish_cast_to_float_is_clean() {
        let src = "fn f(v: &[u64]) -> f64 { v.iter().sum::<u64>() as f64 / 2.0 }\n";
        assert!(run_all(src).is_empty(), "{:?}", run_all(src));
    }

    #[test]
    fn tail_expression_sum_does_not_leak_into_next_item() {
        let src = "fn a(v: &[u64]) -> u64 {\n    v.iter().sum()\n}\nfn b() -> f64 { 1.0 }\n";
        assert!(run_all(src).is_empty(), "{:?}", run_all(src));
    }

    #[test]
    fn bounded_range_index_flags_but_full_range_passes() {
        let src =
            "fn f(v: &[u8], i: usize) -> &[u8] { let _ = &v[..i]; let _ = &v[i..]; &v[..] }\n";
        assert_eq!(
            rules_of(&run_all(src)),
            vec!["panic-slice-index", "panic-slice-index"]
        );
    }

    #[test]
    fn array_literal_and_attribute_brackets_pass() {
        let src = "#[derive(Clone)]\nstruct S;\nfn f() -> [u8; 3] { [1, 2, 3] }\n";
        assert!(run_all(src).is_empty());
    }

    #[test]
    fn waiver_suppresses_and_is_consumed() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // detlint: allow(panic-unwrap) -- caller checked is_some\n";
        assert!(run_all(src).is_empty());
    }

    #[test]
    fn waiver_on_wrong_rule_leaves_finding_and_unused_error() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // detlint: allow(panic-expect) -- wrong rule\n";
        let rules = rules_of(&run_all(src));
        assert!(rules.contains(&"panic-unwrap"));
        assert!(rules.contains(&"waiver-unused"));
    }

    #[test]
    fn forbid_unsafe_detection() {
        let with = "#![forbid(unsafe_code)]\nfn f() {}\n";
        let file = lex(with);
        assert!(has_forbid_unsafe(&file.tokens));
        let without = "#![deny(unsafe_code)]\nfn f() {}\n";
        assert!(!has_forbid_unsafe(&lex(without).tokens));
    }

    #[test]
    fn env_read_flags_but_bare_env_ident_passes() {
        let src = "fn f() { let _ = std::env::var(\"SEED\"); }\n";
        assert_eq!(rules_of(&run_all(src)), vec!["det-entropy"]);
        let bare = "fn g(env: u8) -> u8 { env }\n";
        assert!(run_all(bare).is_empty());
    }

    #[test]
    fn expect_method_definition_is_not_a_call() {
        let src = "impl C { fn expect(&mut self, c: char) -> bool { true } }\n";
        assert!(run_all(src).is_empty());
    }

    #[test]
    fn panic_macros_flag() {
        let src = "fn f(x: u8) { if x > 3 { panic!(\"no\") } else { unreachable!() } }\n";
        assert_eq!(rules_of(&run_all(src)), vec!["panic-macro", "panic-macro"]);
    }

    #[test]
    fn test_fn_attribute_masks_following_fn_only() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn lib() { y.unwrap(); }\n";
        let f = run_all(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }
}
