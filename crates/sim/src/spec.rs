//! The declarative experiment-spec layer: TOML documents describing a
//! complete experiment — protocol parameters, scenario phases or a
//! stationary strategy, compositions, trial settings, and optional
//! sweep grids — parsed, validated, and serialized with **no external
//! dependencies** (the build environment is offline, so this module
//! carries its own minimal TOML-subset codec).
//!
//! One spec expresses everything the bench harness previously
//! hard-coded per binary:
//!
//! * `[experiment]` — trials, consistency thresholds,
//!   the failure-probability estimator: `estimator = "wilson"`
//!   (default, plain Monte-Carlo with Wilson intervals) or
//!   `"splitting"` (the fixed-effort multilevel-splitting rare-event
//!   estimator of [`crate::splitting`], tuned by `splitting_levels`
//!   and `splitting_effort` and restricted to `[stationary]` specs),
//!   and the backend: `backend = "montecarlo"` (default, sampling) or
//!   `"markov"` (the exact capped-race solve of [`crate::exact`],
//!   restricted to stationary private-chain cells);
//! * `[base]` — the [`SimConfig`] every cell starts from (`c` may be
//!   given instead of `hardness`, mirroring the paper's axis);
//! * either `[[phase]]` tables (a time-varying [`Scenario`]) **or** a
//!   `[stationary]` table (one strategy on the stationary Monte-Carlo
//!   engine — a single-phase special case kept explicit so spec-driven
//!   runs stay bit-identical to the pre-spec harness binaries);
//! * `[[composition]]` — the table [`StrategyKind::Composed`] indexes;
//! * `[sweep]` — an optional grid: ordered axes of labelled cells,
//!   each cell a set of *patches* (dotted paths into the spec) applied
//!   in odometer order, with per-cell master seeds drawn from one
//!   SplitMix64 stream so no two cells share randomness;
//! * `[fuzz]` — optional replay coordinates written by the scenario
//!   fuzzer so a repro document is directly runnable.
//!
//! The schema is written down once, as one table of fields: parsing a
//! document applies each key through the setter a sweep patch uses,
//! [`ExperimentSpec::to_toml`] walks the same table to emit a canonical
//! document that parses back to an equal spec, and every range and
//! backend rule is checked in one place, naming the field it rejects.
//! Parsing is *strict*: unknown keys, duplicate keys, and out-of-range
//! values are rejected with a [`SpecError`] carrying the line of the
//! offending key or table.
//!
//! # Example
//!
//! ```
//! use nakamoto_sim::spec::{Estimate, ExperimentSpec};
//!
//! let spec = ExperimentSpec::parse(
//!     r#"
//!     [experiment]
//!     trials = 4
//!     thresholds = [12]
//!
//!     [base]
//!     n_miners = 100
//!     delta = 4
//!     c = 1.0
//!     adversary_fraction = 0.1
//!     seed = 7
//!
//!     [[phase]]
//!     rounds = 2000
//!     strategy = "honest"
//!     regime = "calm"
//!
//!     [[phase]]
//!     rounds = 2000
//!     strategy = "private-chain"
//!     regime = "eclipse(1)"
//!     adversary_fraction = 0.4
//!     "#,
//! )?;
//! let outcome = spec.plan()?.execute();
//! let Estimate::Wilson(run) = outcome.estimate else {
//!     panic!("the default backend samples Wilson trials")
//! };
//! assert_eq!(run.aggregate.trials, 4);
//! # Ok::<(), nakamoto_sim::spec::SpecError>(())
//! ```
//!
//! Every plan runs through the same entry point —
//! [`ExperimentPlan::execute`] — and the resulting [`CellOutcome`]
//! tags its estimate with the backend that produced it. Selecting the
//! splitting estimator swaps the Wilson estimate for the rare-event
//! one:
//!
//! ```
//! use nakamoto_sim::spec::{Estimate, ExperimentSpec};
//!
//! let spec = ExperimentSpec::parse(
//!     r#"
//!     [experiment]
//!     trials = 2
//!     thresholds = [4]
//!     estimator = "splitting"
//!     splitting_effort = 8
//!
//!     [base]
//!     n_miners = 60
//!     delta = 2
//!     c = 1.0
//!     adversary_fraction = 0.3
//!     seed = 11
//!
//!     [stationary]
//!     strategy = "private-chain"
//!     rounds = 400
//!     "#,
//! )?;
//! let Estimate::Splitting(splitting) = spec.plan()?.execute().estimate else {
//!     panic!("splitting selected")
//! };
//! let estimate = splitting.estimate_at(4).expect("threshold 4 estimated");
//! assert!(estimate.probability >= 0.0 && estimate.probability <= 1.0);
//! # Ok::<(), nakamoto_sim::spec::SpecError>(())
//! ```
//!
//! The `markov` backend answers stationary private-chain cells exactly
//! — no sampling, and a provable truncation-error bound beside every
//! probability:
//!
//! ```
//! use nakamoto_sim::spec::{Estimate, ExperimentSpec};
//!
//! let spec = ExperimentSpec::parse(
//!     r#"
//!     [experiment]
//!     thresholds = [6, 12]
//!     backend = "markov"
//!
//!     [base]
//!     n_miners = 100
//!     delta = 4
//!     c = 3.0
//!     adversary_fraction = 0.15
//!     seed = 7
//!
//!     [stationary]
//!     strategy = "private-chain"
//!     rounds = 30000
//!     "#,
//! )?;
//! let Estimate::Exact(run) = spec.plan()?.execute().estimate else {
//!     panic!("markov backend selected")
//! };
//! let exact = run.estimate_at(12).expect("threshold 12 solved");
//! assert!(exact.probability > 0.0 && exact.probability < 1e-5);
//! assert!(exact.truncation_error < exact.probability);
//! # Ok::<(), nakamoto_sim::spec::SpecError>(())
//! ```

use crate::adversary::{delegate, Strategy};
use crate::compose::{Composition, SubSpec};
use crate::config::SimConfig;
use crate::exact::{ExactPlan, ExactRun};
use crate::montecarlo::{MonteCarloRun, TrialPlan};
use crate::scenario::{PhaseSpec, Regime, Scenario, ScenarioPlan, StrategyKind};
use crate::splitting::{SplittingPlan, SplittingRun};
use probability::rng::{RandomSource, SplitMix64};
use std::fmt;

/// A parse or validation error, positioned at the offending line of the
/// spec document (`line == 0` marks a whole-document condition with no
/// single source line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line of the offending construct; 0 for whole-document
    /// errors.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl SpecError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        SpecError {
            line,
            message: message.into(),
        }
    }

    fn whole(message: impl Into<String>) -> Self {
        SpecError::new(0, message)
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "spec: {}", self.message)
        } else {
            write!(f, "spec line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for SpecError {}

// ---------------------------------------------------------------------
// TOML-subset values
// ---------------------------------------------------------------------

/// A value of the TOML subset: integers (decimal or `0x` hex, `_`
/// separators allowed), floats, booleans, double-quoted strings
/// (`\\ \" \n \t \r` escapes), single-line arrays, and inline tables.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecValue {
    /// An integer (wide enough for any `u64` or `i64`).
    Int(i128),
    /// A finite float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// An array of values.
    Array(Vec<SpecValue>),
    /// A (nested or inline) table.
    Table(SpecTable),
}

impl SpecValue {
    fn type_name(&self) -> &'static str {
        match self {
            SpecValue::Int(_) => "integer",
            SpecValue::Float(_) => "float",
            SpecValue::Bool(_) => "boolean",
            SpecValue::Str(_) => "string",
            SpecValue::Array(_) => "array",
            SpecValue::Table(_) => "table",
        }
    }
}

#[derive(Debug, Clone)]
struct SpecEntry {
    key: String,
    line: usize,
    value: SpecValue,
}

/// An ordered table of key → value entries, each remembering its source
/// line for positioned errors.
#[derive(Debug, Clone, Default)]
pub struct SpecTable {
    /// Line of the header or inline value that opened the table.
    line: usize,
    entries: Vec<SpecEntry>,
}

/// Tables compare by content: where a value sat in its document is not
/// part of it, so a re-emitted patch value equals the parsed one.
impl PartialEq for SpecTable {
    fn eq(&self, other: &Self) -> bool {
        self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|(a, b)| a.key == b.key && a.value == b.value)
    }
}

impl SpecTable {
    fn at(line: usize) -> Self {
        SpecTable {
            line,
            entries: Vec::new(),
        }
    }

    fn insert(&mut self, key: String, line: usize, value: SpecValue) -> Result<(), SpecError> {
        if self.entries.iter().any(|e| e.key == key) {
            return Err(SpecError::new(line, format!("duplicate key `{key}`")));
        }
        self.entries.push(SpecEntry { key, line, value });
        Ok(())
    }

    fn take(&mut self, key: &str) -> Option<(usize, SpecValue)> {
        let at = self.entries.iter().position(|e| e.key == key)?;
        let entry = self.entries.remove(at);
        Some((entry.line, entry.value))
    }

    /// Fails on the first key nobody consumed — the strict-schema check.
    fn expect_empty(&self, context: &str) -> Result<(), SpecError> {
        match self.entries.first() {
            None => Ok(()),
            Some(entry) => Err(SpecError::new(
                entry.line,
                format!("unknown key `{}` in {context}", entry.key),
            )),
        }
    }

    /// Takes the tables under `key`: one `[key]` table, or with
    /// `repeated` the entries of a `[[key]]` array of tables.
    fn take_tables(&mut self, key: &str, repeated: bool) -> Result<Vec<SpecTable>, SpecError> {
        let Some((line, value)) = self.take(key) else {
            return Ok(Vec::new());
        };
        match value {
            SpecValue::Table(table) if !repeated => Ok(vec![table]),
            SpecValue::Array(items) if repeated => items
                .into_iter()
                .map(|item| match item {
                    SpecValue::Table(table) => Ok(table),
                    other => Err(SpecError::new(
                        line,
                        format!(
                            "every `[[{key}]]` entry must be a table, got a {}",
                            other.type_name()
                        ),
                    )),
                })
                .collect(),
            other => Err(SpecError::new(
                line,
                format!(
                    "`{key}` must be {}, got a {}",
                    if repeated {
                        "an array of tables"
                    } else {
                        "a table"
                    },
                    other.type_name()
                ),
            )),
        }
    }

    /// Takes a key every `context` table must give, converted by `read`.
    fn need<T>(
        &mut self,
        key: &str,
        context: &str,
        read: fn(&SpecValue) -> Result<T, String>,
    ) -> Result<T, SpecError> {
        let (line, value) = self
            .take(key)
            .ok_or_else(|| SpecError::new(self.line, format!("{context} needs `{key}`")))?;
        read(&value).map_err(|message| SpecError::new(line, format!("{key}: {message}")))
    }
}

// ---------------------------------------------------------------------
// TOML-subset parser
// ---------------------------------------------------------------------

/// How deep arrays and inline tables may nest. The schema itself never
/// nests deeper than 2 (an array of inline tables); the cap keeps a
/// hostile document from exhausting the stack.
const MAX_NESTING: usize = 8;

/// Strips a trailing `#` comment, respecting string literals.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (at, ch) in line.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                in_string = false;
            }
        } else if ch == '"' {
            in_string = true;
        } else if ch == '#' {
            return &line[..at]; // detlint: allow(panic-slice-index) -- `at` comes from char_indices over this very str
        }
    }
    line
}

/// Whether `ch` may appear in a bare (unquoted) key.
fn is_bare_key_char(ch: char) -> bool {
    ch.is_ascii_alphanumeric() || ch == '_' || ch == '-'
}

struct Cursor<'a> {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    source: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str, line: usize) -> Self {
        Cursor {
            chars: text.chars().collect(),
            pos: 0,
            line,
            source: text,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let ch = self.peek()?;
        self.pos += 1;
        Some(ch)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t')) {
            self.pos += 1;
        }
    }

    fn err(&self, message: impl Into<String>) -> SpecError {
        SpecError::new(self.line, message.into())
    }

    fn expect_char(&mut self, ch: char) -> Result<(), SpecError> {
        self.skip_ws();
        if self.bump() == Some(ch) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{ch}` in `{}`", self.source.trim())))
        }
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos >= self.chars.len()
    }

    fn parse_string(&mut self) -> Result<String, SpecError> {
        self.expect_char('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('\\') => out.push('\\'),
                    Some('"') => out.push('"'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    other => {
                        return Err(self.err(format!(
                            "unsupported string escape `\\{}`",
                            other.map_or(String::new(), |c| c.to_string())
                        )))
                    }
                },
                Some(ch) => out.push(ch),
            }
        }
    }

    /// A key: bare (`[A-Za-z0-9_-]+`) or double-quoted (needed for the
    /// dotted patch paths inside sweep cells).
    fn parse_key(&mut self) -> Result<String, SpecError> {
        self.skip_ws();
        if self.peek() == Some('"') {
            return self.parse_string();
        }
        let start = self.pos;
        while matches!(self.peek(), Some(c) if is_bare_key_char(c)) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err(format!("expected a key in `{}`", self.source.trim())));
        }
        Ok(self.chars[start..self.pos].iter().collect()) // detlint: allow(panic-slice-index) -- pos only advances while peek() is Some, so pos <= len
    }

    /// A value nested inside `depth` enclosing arrays or inline tables.
    fn parse_value(&mut self, depth: usize) -> Result<SpecValue, SpecError> {
        self.skip_ws();
        if matches!(self.peek(), Some('[' | '{')) && depth >= MAX_NESTING {
            return Err(self.err(format!(
                "arrays and inline tables nest deeper than {MAX_NESTING} levels"
            )));
        }
        match self.peek() {
            None => Err(self.err("expected a value")),
            Some('"') => Ok(SpecValue::Str(self.parse_string()?)),
            Some('[') => {
                self.bump();
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.peek() == Some(']') {
                        self.bump();
                        return Ok(SpecValue::Array(items));
                    }
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(',') => {
                            self.bump();
                        }
                        Some(']') => {}
                        _ => return Err(self.err("expected `,` or `]` in array")),
                    }
                }
            }
            Some('{') => {
                self.bump();
                let mut table = SpecTable::at(self.line);
                loop {
                    self.skip_ws();
                    if self.peek() == Some('}') {
                        self.bump();
                        return Ok(SpecValue::Table(table));
                    }
                    let key = self.parse_key()?;
                    self.expect_char('=')?;
                    let value = self.parse_value(depth + 1)?;
                    table.insert(key, self.line, value)?;
                    self.skip_ws();
                    match self.peek() {
                        Some(',') => {
                            self.bump();
                        }
                        Some('}') => {}
                        _ => return Err(self.err("expected `,` or `}` in inline table")),
                    }
                }
            }
            Some(_) => self.parse_scalar(),
        }
    }

    fn parse_scalar(&mut self) -> Result<SpecValue, SpecError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if !matches!(c, ',' | ']' | '}' | ' ' | '\t')) {
            self.pos += 1;
        }
        let token: String = self.chars[start..self.pos].iter().collect(); // detlint: allow(panic-slice-index) -- pos only advances while peek() is Some, so pos <= len
        match token.as_str() {
            "true" => return Ok(SpecValue::Bool(true)),
            "false" => return Ok(SpecValue::Bool(false)),
            _ => {}
        }
        let digits: String = token.chars().filter(|&c| c != '_').collect();
        if let Some(hex) = digits
            .strip_prefix("0x")
            .or_else(|| digits.strip_prefix("0X"))
        {
            let v = u64::from_str_radix(hex, 16)
                .map_err(|_| self.err(format!("invalid hex integer `{token}`")))?;
            return Ok(SpecValue::Int(i128::from(v)));
        }
        if digits.contains(['.', 'e', 'E']) {
            let v: f64 = digits
                .parse()
                .map_err(|_| self.err(format!("invalid number `{token}`")))?;
            if !v.is_finite() {
                return Err(self.err(format!("non-finite float `{token}`")));
            }
            return Ok(SpecValue::Float(v));
        }
        let v: i128 = digits
            .parse()
            .map_err(|_| self.err(format!("invalid value `{token}`")))?;
        Ok(SpecValue::Int(v))
    }

    /// A dotted header path: `sweep.axis.cell` (segments bare or quoted).
    fn parse_path(&mut self) -> Result<Vec<String>, SpecError> {
        let mut path = vec![self.parse_key()?];
        loop {
            self.skip_ws();
            if self.peek() == Some('.') {
                self.bump();
                path.push(self.parse_key()?);
            } else {
                return Ok(path);
            }
        }
    }
}

/// Walks `path` from the root, descending into the *last* element of
/// any array-of-tables on the way (standard TOML super-table
/// semantics), creating missing tables.
fn table_at_mut<'a>(
    root: &'a mut SpecTable,
    path: &[String],
    line: usize,
) -> Result<&'a mut SpecTable, SpecError> {
    let mut current = root;
    for segment in path {
        let idx = match current.entries.iter().position(|e| &e.key == segment) {
            Some(idx) => idx,
            None => {
                current.entries.push(SpecEntry {
                    key: segment.clone(),
                    line,
                    value: SpecValue::Table(SpecTable::at(line)),
                });
                current.entries.len() - 1
            }
        };
        let entry = &mut current.entries[idx];
        current = match &mut entry.value {
            SpecValue::Table(t) => t,
            SpecValue::Array(items) => match items.last_mut() {
                Some(SpecValue::Table(t)) => t,
                _ => {
                    return Err(SpecError::new(
                        line,
                        format!("`{segment}` is not a table of tables"),
                    ))
                }
            },
            other => {
                return Err(SpecError::new(
                    line,
                    format!("`{segment}` is a {}, not a table", other.type_name()),
                ))
            }
        };
    }
    Ok(current)
}

/// Parses a whole document into the root table.
fn parse_document(input: &str) -> Result<SpecTable, SpecError> {
    let mut root = SpecTable::default();
    let mut current_path: Vec<String> = Vec::new();
    for (at, raw) in input.lines().enumerate() {
        let line_no = at + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let header = match line.strip_prefix("[[") {
            Some(inner) => Some((inner.strip_suffix("]]"), "[[", "]]")),
            None => line
                .strip_prefix('[')
                .map(|inner| (inner.strip_suffix(']'), "[", "]")),
        };
        let Some((inner, open, close)) = header else {
            let mut cursor = Cursor::new(line, line_no);
            let key = cursor.parse_key()?;
            cursor.expect_char('=')?;
            let value = cursor.parse_value(0)?;
            if !cursor.at_end() {
                return Err(cursor.err(format!("trailing characters after value for `{key}`")));
            }
            let table = table_at_mut(&mut root, &current_path, line_no)?;
            table.insert(key, line_no, value)?;
            continue;
        };
        let inner = inner.ok_or_else(|| {
            SpecError::new(line_no, format!("`{open}` without closing `{close}`"))
        })?;
        let mut cursor = Cursor::new(inner, line_no);
        let path = cursor.parse_path()?;
        if !cursor.at_end() {
            return Err(cursor.err(format!("trailing characters after `{close}` header")));
        }
        let Some((last, parents)) = path.split_last() else {
            return Err(SpecError::new(line_no, "empty header path"));
        };
        let parent = table_at_mut(&mut root, parents, line_no)?;
        let table = SpecValue::Table(SpecTable::at(line_no));
        let repeated = open == "[[";
        match parent.entries.iter_mut().find(|e| &e.key == last) {
            None => parent.entries.push(SpecEntry {
                key: last.clone(),
                line: line_no,
                value: if repeated {
                    SpecValue::Array(vec![table])
                } else {
                    table
                },
            }),
            Some(SpecEntry {
                value: SpecValue::Array(items),
                ..
            }) if repeated => items.push(table),
            Some(_) => {
                return Err(SpecError::new(
                    line_no,
                    format!("duplicate table `{open}{last}{close}`"),
                ))
            }
        }
        current_path = path;
    }
    Ok(root)
}

// ---------------------------------------------------------------------
// Strategy / regime tokens (the spec's canonical vocabulary)
// ---------------------------------------------------------------------

/// The spec token for a strategy: `"honest"`, `"private-chain"`,
/// `"balance"`, `"selfish"`, or `"composed(i)"`.
#[must_use]
pub fn strategy_token(kind: StrategyKind) -> String {
    match kind {
        StrategyKind::Honest => "honest".into(),
        StrategyKind::PrivateChain => "private-chain".into(),
        StrategyKind::Balance => "balance".into(),
        StrategyKind::Selfish => "selfish".into(),
        StrategyKind::Composed(i) => format!("composed({i})"),
    }
}

/// Parses a strategy token; `None` if the token names no strategy.
#[must_use]
pub fn parse_strategy(token: &str) -> Option<StrategyKind> {
    match token {
        "honest" => Some(StrategyKind::Honest),
        "private-chain" => Some(StrategyKind::PrivateChain),
        "balance" => Some(StrategyKind::Balance),
        "selfish" => Some(StrategyKind::Selfish),
        _ => {
            let index = token.strip_prefix("composed(")?.strip_suffix(')')?;
            index.parse().ok().map(StrategyKind::Composed)
        }
    }
}

/// The spec token for a regime: `"calm"`, `"adversarial"`, or
/// `"eclipse(g)"`.
#[must_use]
pub fn regime_token(regime: Regime) -> String {
    match regime {
        Regime::Calm => "calm".into(),
        Regime::Adversarial => "adversarial".into(),
        Regime::Eclipse { group } => format!("eclipse({group})"),
    }
}

/// Parses a regime token; `None` if the token names no regime.
#[must_use]
pub fn parse_regime(token: &str) -> Option<Regime> {
    match token {
        "calm" => Some(Regime::Calm),
        "adversarial" => Some(Regime::Adversarial),
        _ => {
            let group = token.strip_prefix("eclipse(")?.strip_suffix(')')?;
            group.parse().ok().map(|group| Regime::Eclipse { group })
        }
    }
}

// ---------------------------------------------------------------------
// The experiment model
// ---------------------------------------------------------------------

/// An unrecognised spec token for one of the closed vocabularies
/// ([`EstimatorKind`], [`BackendKind`]) — the shared `FromStr` error,
/// so codec, patch, and CLI paths emit one message shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownToken {
    /// What kind of token was expected (e.g. `"estimator"`).
    pub what: &'static str,
    /// The offending token.
    pub token: String,
    /// The accepted vocabulary, ready for the error message.
    pub expected: &'static str,
}

impl fmt::Display for UnknownToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown {} `{}` (expected {})",
            self.what, self.token, self.expected
        )
    }
}

impl std::error::Error for UnknownToken {}

/// Which failure-probability estimator a spec selects (the sampling
/// backend's two flavours; the `markov` backend computes exact values
/// and takes no estimator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimatorKind {
    /// Plain Monte-Carlo trials with Wilson score intervals (the
    /// default; resolves probabilities down to ≈ `1/trials`).
    #[default]
    Wilson,
    /// Fixed-effort multilevel splitting over the consistency depth
    /// ([`crate::splitting`]); resolves theorem-scale rarities.
    Splitting,
}

impl fmt::Display for EstimatorKind {
    /// The spec token: `"wilson"` or `"splitting"`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EstimatorKind::Wilson => "wilson",
            EstimatorKind::Splitting => "splitting",
        })
    }
}

impl std::str::FromStr for EstimatorKind {
    type Err = UnknownToken;

    fn from_str(token: &str) -> Result<Self, Self::Err> {
        match token {
            "wilson" => Ok(EstimatorKind::Wilson),
            "splitting" => Ok(EstimatorKind::Splitting),
            _ => Err(UnknownToken {
                what: "estimator",
                token: token.into(),
                expected: "\"wilson\" or \"splitting\"",
            }),
        }
    }
}

/// Which computational backend answers a spec's cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The sampling engines (the default): Monte-Carlo trials with the
    /// Wilson or splitting estimator.
    #[default]
    MonteCarlo,
    /// The exact capped-race solve of [`crate::exact`]: no sampling,
    /// a provable truncation-error bound beside every answer.
    /// Stationary private-chain cells only.
    Markov,
}

impl fmt::Display for BackendKind {
    /// The spec token: `"montecarlo"` or `"markov"`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendKind::MonteCarlo => "montecarlo",
            BackendKind::Markov => "markov",
        })
    }
}

impl std::str::FromStr for BackendKind {
    type Err = UnknownToken;

    fn from_str(token: &str) -> Result<Self, Self::Err> {
        match token {
            "montecarlo" => Ok(BackendKind::MonteCarlo),
            "markov" => Ok(BackendKind::Markov),
            _ => Err(UnknownToken {
                what: "backend",
                token: token.into(),
                expected: "\"montecarlo\" or \"markov\"",
            }),
        }
    }
}

/// The splitting estimator's level-schedule knobs (see
/// [`SplittingPlan`] for the semantics of each field).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SplittingSettings {
    /// Intermediate depth levels: `None` (key absent) selects the
    /// automatic unit ladder, `Some(vec![])` (`splitting_levels = []`)
    /// the degenerate single-stage schedule.
    pub levels: Option<Vec<u64>>,
    /// Replicas per level; `0` (the default) reuses `trials`.
    pub effort: u64,
}

/// `[experiment]`: the Monte-Carlo settings every cell shares.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSettings {
    /// Independent trials per cell (≥ 1; default 1).
    pub trials: u64,
    /// Consistency thresholds `T` tallied per trial (default none).
    pub thresholds: Vec<u64>,
    /// Computational backend (default Monte-Carlo sampling).
    pub backend: BackendKind,
    /// Failure-probability estimator (default Wilson; sampling backend
    /// only).
    pub estimator: EstimatorKind,
    /// Level-schedule knobs for the splitting estimator.
    pub splitting: SplittingSettings,
    /// Sequential stopping target: stop a cell at the first wave
    /// boundary where every threshold's Wilson half-width is at most
    /// this value, with `trials` as the budget cap. Stationary specs
    /// only; requires at least one threshold.
    pub stop_half_width: Option<f64>,
}

impl Default for RunSettings {
    fn default() -> Self {
        RunSettings {
            trials: 1,
            thresholds: Vec::new(),
            backend: BackendKind::default(),
            estimator: EstimatorKind::default(),
            splitting: SplittingSettings::default(),
            stop_half_width: None,
        }
    }
}

/// What one cell runs: a time-varying scenario or a stationary
/// strategy on the trial engine.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentMode {
    /// `[[phase]]` tables: a [`Scenario`] over the base config.
    Scenario(Vec<PhaseSpec>),
    /// `[stationary]`: one strategy for `rounds` rounds per trial,
    /// using the *bare* adversary on the stationary engine (how the
    /// pre-spec harness binaries ran, so ported sweeps stay
    /// bit-identical).
    Stationary {
        /// The strategy every trial runs.
        strategy: StrategyKind,
        /// Rounds per trial (≥ 1).
        rounds: u64,
    },
}

/// One sweep cell: a label plus the patches (dotted spec paths →
/// values) distinguishing it from the base spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Cell label, shown in tables and JSON.
    pub label: String,
    /// Patches applied to the base spec, in order.
    pub patches: Vec<(String, SpecValue)>,
}

/// One sweep axis: an ordered list of cells.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// Axis label (e.g. `"ν_attack"`).
    pub label: String,
    /// The axis's cells, in sweep order.
    pub cells: Vec<SweepCell>,
}

/// `[sweep]`: a grid of cells — the cartesian product of the axes,
/// iterated in odometer order (last axis fastest), each cell's master
/// seed drawn from one SplitMix64 stream seeded with `seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Seed of the per-cell master-seed stream.
    pub seed: u64,
    /// The axes, outermost first.
    pub axes: Vec<SweepAxis>,
}

/// `[fuzz]`: replay coordinates stamped on a fuzz repro so the
/// document regenerates its failing case exactly (see
/// `scenario_fuzz --replay`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FuzzHeader {
    /// Master seed the fuzzer ran with.
    pub master_seed: u64,
    /// Failing case index under that seed.
    pub case: u64,
    /// The violated invariant.
    pub invariant: String,
    /// Human-readable mismatch description.
    pub detail: String,
}

/// A complete, validated experiment document.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Monte-Carlo settings.
    pub run: RunSettings,
    /// The base configuration (seed = master seed outside sweeps).
    pub base: SimConfig,
    /// The composition table `composed(i)` strategies index.
    pub compositions: Vec<Composition>,
    /// Scenario phases or a stationary strategy.
    pub mode: ExperimentMode,
    /// Optional sweep grid.
    pub sweep: Option<SweepSpec>,
    /// Optional fuzz replay coordinates.
    pub fuzz: Option<FuzzHeader>,
}

/// One expanded sweep cell: the axis labels plus the concrete
/// (sweep-free) spec to run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentCell {
    /// One label per sweep axis (empty for a sweep-free spec).
    pub labels: Vec<String>,
    /// The concrete spec with patches applied and the cell seed set.
    pub spec: ExperimentSpec,
}

/// A backend-tagged failure-probability estimate: the one result type
/// every experiment cell produces, whichever engine answered it.
#[derive(Debug, Clone)]
pub enum Estimate {
    /// Monte-Carlo trials with Wilson score intervals.
    Wilson(MonteCarloRun),
    /// The multilevel-splitting rare-event estimator.
    Splitting(SplittingRun),
    /// The exact capped-race solve, with per-threshold truncation
    /// bounds.
    Exact(ExactRun),
}

impl Estimate {
    /// The backend that produced this estimate.
    #[must_use]
    pub fn backend(&self) -> BackendKind {
        match self {
            Estimate::Wilson(_) | Estimate::Splitting(_) => BackendKind::MonteCarlo,
            Estimate::Exact(_) => BackendKind::Markov,
        }
    }

    /// Total simulated rounds behind the estimate (0 for the exact
    /// backend, which samples nothing).
    #[must_use]
    pub fn simulated_rounds(&self) -> u64 {
        match self {
            Estimate::Wilson(run) => run.aggregate.total_rounds(),
            Estimate::Splitting(run) => run.total_rounds,
            Estimate::Exact(_) => 0,
        }
    }
}

/// The result of executing one experiment cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The backend-tagged estimate.
    pub estimate: Estimate,
    /// Rounds each trial simulates (the scenario total or the
    /// stationary horizon; bookkeeping only for the exact backend).
    pub rounds_per_trial: u64,
}

/// A runnable plan built from a concrete spec: one variant per
/// estimator, so executing a plan never re-decides what it runs.
#[derive(Debug, Clone)]
pub enum ExperimentPlan {
    /// A scenario Monte-Carlo fan-out.
    Scenario(ScenarioPlan),
    /// A stationary Wilson fan-out: every trial runs a clone of the
    /// fresh state machine `strategy` wraps.
    Stationary {
        /// The trial plan (config, rounds, trials, thresholds).
        plan: TrialPlan,
        /// The fresh strategy each trial clones.
        strategy: Strategy,
    },
    /// A stationary multilevel-splitting run (`estimator =
    /// "splitting"`): every stage-1 replica runs a clone of the fresh
    /// state machine `strategy` wraps.
    Splitting {
        /// The splitting plan (config, horizon, thresholds, levels).
        plan: SplittingPlan,
        /// The fresh strategy each replica clones.
        strategy: Strategy,
    },
    /// An exact capped-race solve (`backend = "markov"`).
    Exact(ExactPlan),
}

impl ExperimentPlan {
    /// Executes the plan on whichever backend the spec selected and
    /// returns the backend-tagged outcome: Wilson Monte-Carlo by
    /// default, the splitting estimator when
    /// `estimator = "splitting"`, the exact race solve when
    /// `backend = "markov"`.
    ///
    /// Stationary trials run the state machine the strategy wraps, not
    /// the [`Strategy`] itself: the engine is then compiled per wrapped
    /// type, without the per-call dispatch that costs a few percent of
    /// the round loop.
    #[must_use]
    pub fn execute(&self) -> CellOutcome {
        let estimate = match self {
            ExperimentPlan::Scenario(plan) => Estimate::Wilson(plan.run()),
            ExperimentPlan::Stationary { plan, strategy } => delegate!(strategy.clone(), a => {
                Estimate::Wilson(plan.run(move |_| a.clone()))
            }),
            ExperimentPlan::Splitting { plan, strategy } => delegate!(strategy.clone(), a => {
                Estimate::Splitting(plan.run(move |_| a.clone()))
            }),
            ExperimentPlan::Exact(plan) => Estimate::Exact(plan.run()),
        };
        CellOutcome {
            estimate,
            rounds_per_trial: self.rounds_per_trial(),
        }
    }

    /// Rounds each trial simulates (the scenario total, or the
    /// stationary `rounds`).
    #[must_use]
    pub fn rounds_per_trial(&self) -> u64 {
        match self {
            ExperimentPlan::Scenario(plan) => plan.scenario.total_rounds(),
            ExperimentPlan::Stationary { plan, .. } => plan.rounds,
            ExperimentPlan::Splitting { plan, .. } => plan.rounds,
            ExperimentPlan::Exact(plan) => plan.rounds,
        }
    }
}

/// A rule violation, addressed by the dotted path of the field it
/// rejects (`experiment.trials`, `phase.1.rounds`, `base`, …), with a
/// message that starts with that path. [`ExperimentSpec::parse`] turns
/// the path into the line it recorded for the field, or for the nearest
/// enclosing table.
struct Fault {
    path: String,
    message: String,
}

impl Fault {
    fn new(path: impl Into<String>, message: impl fmt::Display) -> Self {
        let path = path.into();
        Fault {
            message: format!("{path}: {message}"),
            path,
        }
    }
}

/// Where a parsed document gave a table (empty key) or one of its keys:
/// `(section, table index, key, line)`.
type Given = (Section, usize, &'static str, usize);

/// The line given for `path`, or for its nearest given ancestor.
fn line_of(lines: &[Given], path: &str) -> usize {
    let mut path = path;
    loop {
        let found = lines.iter().find(|&&(section, index, key, _)| {
            let table = section.path(index);
            path == if key.is_empty() {
                table
            } else {
                format!("{table}.{key}")
            }
        });
        if let Some(&(.., line)) = found {
            return line;
        }
        match path.rsplit_once('.') {
            Some((parent, _)) => path = parent,
            None => return 0,
        }
    }
}

impl ExperimentSpec {
    /// Parses and validates a spec document. Every table is applied
    /// through the field-table setters a sweep patch uses, then the
    /// spec is validated and planned once, with each violation
    /// positioned at the line of the field it names.
    ///
    /// # Errors
    ///
    /// Returns a positioned [`SpecError`] on malformed syntax, unknown
    /// or duplicate keys, and out-of-range values.
    pub fn parse(input: &str) -> Result<Self, SpecError> {
        let mut root = parse_document(input)?;
        let mut spec = ExperimentSpec {
            run: RunSettings::default(),
            base: SimConfig {
                n_miners: 0,
                adversary_fraction: 0.0,
                hardness: 0.0,
                delta: 0,
                seed: 0,
            },
            compositions: Vec::new(),
            mode: ExperimentMode::Scenario(Vec::new()),
            sweep: None,
            fuzz: None,
        };
        let mut lines = Vec::with_capacity(64);
        for section in Section::ALL {
            let tables = root.take_tables(section.name(), section.repeated())?;
            if tables.is_empty() && section == Section::Base {
                return Err(SpecError::whole("spec needs a [base] table"));
            }
            for table in tables {
                spec.assign(section, table, &mut lines)?;
            }
        }
        if matches!(&spec.mode, ExperimentMode::Scenario(phases) if phases.is_empty()) {
            return Err(SpecError::whole(
                "spec needs either [[phase]] tables or a [stationary] table",
            ));
        }
        if let Some(table) = root.take_tables("sweep", false)?.pop() {
            spec.sweep = Some(SweepSpec::parse(table)?);
        }
        root.expect_empty("the spec document")?;
        spec.build()
            .map_err(|fault| SpecError::new(line_of(&lines, &fault.path), fault.message))?;
        Ok(spec)
    }

    /// Applies one document table of `section` through the field
    /// setters, recording in `lines` where the table and each key were
    /// given.
    fn assign(
        &mut self,
        section: Section,
        mut table: SpecTable,
        lines: &mut Vec<Given>,
    ) -> Result<(), SpecError> {
        let index = section
            .open(self)
            .map_err(|message| SpecError::new(table.line, message))?;
        lines.push((section, index, "", table.line));
        let given = |lines: &[Given], key: &str| {
            lines
                .iter()
                .any(|&(s, i, k, _)| (s, i, k) == (section, index, key))
        };
        for field in section.fields().iter().filter(|f| f.need != Need::Patch) {
            let Some((line, value)) = table.take(field.key) else {
                continue;
            };
            if let Need::Alias(of) = field.need {
                if given(lines, of) {
                    return Err(SpecError::new(
                        line,
                        format!(
                            "{} takes either `{of}` or `{}`, not both",
                            section.header(),
                            field.key
                        ),
                    ));
                }
            }
            self.set(section, field, index, &value)
                .map_err(|message| SpecError::new(line, message))?;
            lines.push((section, index, field.key, line));
        }
        for field in section.fields() {
            if field.need != Need::Required || given(lines, field.key) {
                continue;
            }
            let alias = section
                .fields()
                .iter()
                .find(|f| f.need == Need::Alias(field.key));
            let missing = match alias {
                None => format!("`{}`", field.key),
                Some(alias) if given(lines, alias.key) => continue,
                Some(alias) => format!("`{}` or `{}`", field.key, alias.key),
            };
            return Err(SpecError::new(
                table.line,
                format!("{} needs {missing}", section.header()),
            ));
        }
        if table.entries.is_empty() {
            return Ok(());
        }
        table.expect_empty(&section.header())
    }

    /// Re-checks every rule of the schema — each field's range and
    /// cross-field rules and the backend capabilities that
    /// [`ExperimentSpec::plan`] checks — for a spec mutated in code or
    /// patched by a sweep ([`ExperimentSpec::parse`] reports the same
    /// conditions with source positions).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] naming the field path of the violated
    /// rule.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.plan().map(drop)
    }

    /// Builds the validated [`Scenario`] of a scenario-mode spec.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for stationary-mode specs or scenario
    /// validation failures.
    pub fn scenario(&self) -> Result<Scenario, SpecError> {
        let ExperimentMode::Scenario(phases) = &self.mode else {
            return Err(SpecError::whole(
                "a stationary spec has no scenario; use ExperimentSpec::plan",
            ));
        };
        Scenario::with_compositions(self.base, phases.clone(), self.compositions.clone())
            .map_err(|e| SpecError::whole(e.to_string()))
    }

    /// Builds the runnable plan for this (concrete) spec.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if validation fails.
    pub fn plan(&self) -> Result<ExperimentPlan, SpecError> {
        self.build()
            .map_err(|fault| SpecError::whole(fault.message))
    }

    /// Runs every field rule, then builds the one plan the spec's
    /// backend and estimator select: the single place that decides
    /// which engine can answer which cell.
    fn build(&self) -> Result<ExperimentPlan, Fault> {
        self.base
            .validate()
            .map_err(|e| Fault::new(Section::Base.name(), e))?;
        for section in Section::ALL {
            for index in 0..section.count(self) {
                for field in section.fields() {
                    if let Some(rule) = field.rule {
                        let path = || format!("{}.{}", section.path(index), field.key);
                        rule(self, index).map_err(|message| Fault::new(path(), message))?;
                    }
                }
            }
        }
        let run = &self.run;
        let Some((strategy, rounds)) = stationary(self) else {
            let refuse = |key: &str, only: &str| {
                let message =
                    format!("needs a [stationary] table; scenario specs only support {only}");
                Err(Fault::new(format!("experiment.{key}"), message))
            };
            if run.backend == BackendKind::Markov {
                return refuse("backend", "`backend = \"montecarlo\"`");
            }
            if run.estimator == EstimatorKind::Splitting {
                return refuse("estimator", "`estimator = \"wilson\"`");
            }
            if run.stop_half_width.is_some() {
                return refuse("stop_half_width", "a fixed trial budget");
            }
            let scenario = self
                .scenario()
                .map_err(|e| Fault::new("phase", e.message))?;
            let plan = ScenarioPlan::new(scenario, run.trials)
                .map_err(|e| Fault::new("experiment.trials", e))?;
            return Ok(ExperimentPlan::Scenario(
                plan.thresholds(run.thresholds.clone()),
            ));
        };
        // Built only for the sampled backends: an exact cell runs no
        // strategy.
        let fresh_strategy = || {
            Strategy::new(strategy, self.base.delta, &self.compositions).ok_or_else(|| {
                Fault::new("stationary.strategy", "indexes past the composition table")
            })
        };
        match (run.backend, run.estimator) {
            (BackendKind::Markov, _) if strategy != StrategyKind::PrivateChain => Err(Fault::new(
                "experiment.backend",
                format!(
                    "`backend = \"markov\"` models the private-chain race; strategy `{}` needs `backend = \"montecarlo\"`",
                    strategy_token(strategy)
                ),
            )),
            (BackendKind::Markov, EstimatorKind::Splitting) => Err(Fault::new(
                "experiment.backend",
                "`backend = \"markov\"` computes exact probabilities; `estimator = \"splitting\"` needs `backend = \"montecarlo\"`",
            )),
            (BackendKind::Markov, EstimatorKind::Wilson) => {
                ExactPlan::new(self.base, run.thresholds.clone(), rounds)
                    .map(ExperimentPlan::Exact)
                    .map_err(|e| Fault::new("experiment.backend", e))
            }
            (BackendKind::MonteCarlo, EstimatorKind::Splitting) => {
                // Effort 0 (the key omitted) reuses the trial budget.
                let effort = match run.splitting.effort {
                    0 => run.trials,
                    effort => effort,
                };
                let plan = SplittingPlan::new(self.base, rounds, effort, run.thresholds.clone())
                    .map_err(|e| Fault::new("experiment.estimator", e))?
                    .with_levels(run.splitting.levels.clone())
                    .map_err(|e| Fault::new("experiment.splitting_levels", e))?;
                Ok(ExperimentPlan::Splitting {
                    plan,
                    strategy: fresh_strategy()?,
                })
            }
            (BackendKind::MonteCarlo, EstimatorKind::Wilson) => {
                let mut plan = TrialPlan::new(self.base, rounds, run.trials)
                    .map_err(|e| Fault::new("stationary", e))?
                    .thresholds(run.thresholds.clone());
                if let Some(half_width) = run.stop_half_width {
                    plan = plan.with_stopping(half_width);
                }
                Ok(ExperimentPlan::Stationary {
                    plan,
                    strategy: fresh_strategy()?,
                })
            }
        }
    }

    /// The sweep grid's shape (cells per axis, outermost first); empty
    /// for a sweep-free spec.
    #[must_use]
    pub fn sweep_shape(&self) -> Vec<usize> {
        self.sweep
            .as_ref()
            .map(|s| s.axes.iter().map(|a| a.cells.len()).collect())
            .unwrap_or_default()
    }

    /// Expands the sweep grid into concrete cells, in odometer order
    /// (last axis fastest). Each cell's spec has its patches applied,
    /// its master seed drawn from the sweep's SplitMix64 stream, and
    /// `sweep`/`fuzz` cleared. A sweep-free spec yields one unlabelled
    /// cell.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if a patch path is unknown or a patched
    /// cell fails validation.
    pub fn expand(&self) -> Result<Vec<ExperimentCell>, SpecError> {
        // Every cell starts from this sweep-free copy, so expansion
        // costs O(cells), not O(cells × sweep size).
        let template = ExperimentSpec {
            run: self.run.clone(),
            base: self.base,
            compositions: self.compositions.clone(),
            mode: self.mode.clone(),
            sweep: None,
            fuzz: None,
        };
        let Some(sweep) = &self.sweep else {
            return Ok(vec![ExperimentCell {
                labels: Vec::new(),
                spec: template,
            }]);
        };
        let shape: Vec<usize> = sweep.axes.iter().map(|a| a.cells.len()).collect();
        let mut seeds = SplitMix64::new(sweep.seed);
        let mut cells = Vec::new();
        let mut idx = vec![0usize; shape.len()];
        loop {
            let mut spec = template.clone();
            let mut labels = Vec::with_capacity(idx.len());
            for (axis, &i) in sweep.axes.iter().zip(&idx) {
                let cell = &axis.cells[i];
                labels.push(cell.label.clone());
                for (path, value) in &cell.patches {
                    spec.apply_patch(path, value).map_err(|e| {
                        SpecError::new(
                            e.line,
                            format!("sweep cell `{}`: {}", cell.label, e.message),
                        )
                    })?;
                }
            }
            spec.base.seed = seeds.next_u64();
            spec.validate().map_err(|e| {
                SpecError::whole(format!("sweep cell `{}`: {}", labels.join("/"), e.message))
            })?;
            cells.push(ExperimentCell { labels, spec });

            // Odometer increment, last axis fastest.
            let mut axis = idx.len();
            loop {
                if axis == 0 {
                    return Ok(cells);
                }
                axis -= 1;
                idx[axis] += 1;
                if idx[axis] < shape[axis] {
                    break;
                }
                idx[axis] = 0;
            }
        }
    }

    /// Applies one dotted-path patch to this spec through the same
    /// setter that parses the key from a document: `table.key` for
    /// `[experiment]`, `[base]` and `[stationary]`, `phase.N.key` and
    /// `composition.N.key` for the N-th `[[phase]]` or
    /// `[[composition]]` (whose patch-only `weights` and `strategies`
    /// keys rewrite one value per sub). `[fuzz]` and `[sweep]` are not
    /// patchable: [`ExperimentSpec::expand`] clears them.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] (line 0) for unknown paths, missing
    /// tables and the values the key's setter rejects.
    pub fn apply_patch(&mut self, path: &str, value: &SpecValue) -> Result<(), SpecError> {
        let unknown = || SpecError::whole(format!("unknown patch path `{path}`"));
        let mut segments = path.split('.');
        let section = segments
            .next()
            .and_then(|name| Section::ALL.into_iter().find(|s| s.name() == name))
            .filter(|&section| section != Section::Fuzz)
            .ok_or_else(unknown)?;
        let index = if section.repeated() {
            segments
                .next()
                .and_then(|index| index.parse().ok())
                .ok_or_else(unknown)?
        } else {
            0
        };
        let key = segments.next().ok_or_else(unknown)?;
        let field = section
            .fields()
            .iter()
            .find(|f| f.key == key)
            .filter(|_| segments.next().is_none())
            .ok_or_else(unknown)?;
        self.set(section, field, index, value)
            .map_err(SpecError::whole)
    }

    /// Writes `value` to `field` of table `index` of `section`: the one
    /// write path of both parsing and patching. Errors start with the
    /// field's canonical path.
    fn set(
        &mut self,
        section: Section,
        field: &Field,
        index: usize,
        value: &SpecValue,
    ) -> Result<(), String> {
        let path = || format!("{}.{}", section.path(index), field.key);
        match (field.locate)(self, index) {
            Some(slot) => slot
                .set(value)
                .map_err(|message| format!("{}: {message}", path())),
            None => Err(format!(
                "{}: the spec has no `{}` table",
                path(),
                section.path(index)
            )),
        }
    }

    /// Serializes the spec into its canonical TOML document by walking
    /// the field table; [`ExperimentSpec::parse`] of the output yields
    /// an equal spec.
    #[must_use]
    pub fn to_toml(&self) -> String {
        // Slots borrow mutably, so emission reads them from a copy.
        let mut spec = self.clone();
        let mut out = String::new();
        for section in Section::ALL {
            for index in 0..section.count(self) {
                if !out.is_empty() {
                    out.push('\n');
                }
                out.push_str(&section.header());
                out.push('\n');
                for field in section.fields() {
                    if let Some(value) = (field.locate)(&mut spec, index).and_then(Slot::get) {
                        out.push_str(&format!("{} = {}\n", field.key, emit_value(&value)));
                    }
                }
            }
        }
        if let Some(sweep) = &self.sweep {
            sweep.emit(&mut out);
        }
        out
    }
}

impl SweepSpec {
    /// Reads a `[sweep]` table: its seed, then each `[[sweep.axis]]`
    /// with its `[[sweep.axis.cell]]` tables. Patches stay raw values
    /// until [`ExperimentSpec::expand`] applies them.
    fn parse(mut table: SpecTable) -> Result<Self, SpecError> {
        let seed = table.need("seed", "[sweep]", int)?;
        let mut axes = Vec::new();
        for mut axis in table.take_tables("axis", true)? {
            let label = axis.need("label", "[[sweep.axis]]", owned_text)?;
            let mut cells = Vec::new();
            for mut cell in axis.take_tables("cell", true)? {
                let label = cell.need("label", "[[sweep.axis.cell]]", owned_text)?;
                let patches = match cell.take("patch") {
                    None => Vec::new(),
                    Some((_, SpecValue::Table(patch))) => patch
                        .entries
                        .into_iter()
                        .map(|e| (e.key, e.value))
                        .collect(),
                    Some((line, other)) => {
                        return Err(SpecError::new(
                            line,
                            format!(
                                "`patch` must be an inline table, got a {}",
                                other.type_name()
                            ),
                        ))
                    }
                };
                cell.expect_empty("[[sweep.axis.cell]]")?;
                cells.push(SweepCell { label, patches });
            }
            if cells.is_empty() {
                return Err(SpecError::new(
                    axis.line,
                    "every sweep axis needs at least one [[sweep.axis.cell]]",
                ));
            }
            axis.expect_empty("[[sweep.axis]]")?;
            axes.push(SweepAxis { label, cells });
        }
        if axes.is_empty() {
            return Err(SpecError::new(
                table.line,
                "[sweep] needs at least one [[sweep.axis]]",
            ));
        }
        table.expect_empty("[sweep]")?;
        Ok(SweepSpec { seed, axes })
    }

    fn emit(&self, out: &mut String) {
        out.push_str(&format!("\n[sweep]\nseed = {}\n", self.seed));
        for axis in &self.axes {
            out.push_str(&format!(
                "\n[[sweep.axis]]\nlabel = {}\n",
                emit_str(&axis.label)
            ));
            for cell in &axis.cells {
                out.push_str(&format!(
                    "\n[[sweep.axis.cell]]\nlabel = {}\n",
                    emit_str(&cell.label)
                ));
                if !cell.patches.is_empty() {
                    let patches = cell.patches.iter().map(|(path, v)| (path.as_str(), v));
                    out.push_str(&format!("patch = {}\n", emit_inline(patches)));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The schema: one field table drives parse, patch, emit and validate
// ---------------------------------------------------------------------

/// The tables of a spec document that hold fields, in canonical
/// document order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Experiment,
    Fuzz,
    Base,
    Stationary,
    Composition,
    Phase,
}

impl Section {
    const ALL: [Section; 6] = [
        Section::Experiment,
        Section::Fuzz,
        Section::Base,
        Section::Stationary,
        Section::Composition,
        Section::Phase,
    ];

    /// The section's name and its fields, in canonical order.
    fn schema(self) -> (&'static str, &'static [Field]) {
        match self {
            Section::Experiment => ("experiment", EXPERIMENT),
            Section::Fuzz => ("fuzz", FUZZ),
            Section::Base => ("base", BASE),
            Section::Stationary => ("stationary", STATIONARY),
            Section::Composition => ("composition", COMPOSITION),
            Section::Phase => ("phase", PHASE),
        }
    }

    fn name(self) -> &'static str {
        self.schema().0
    }

    fn fields(self) -> &'static [Field] {
        self.schema().1
    }

    /// Whether the document repeats the section as `[[name]]` tables,
    /// addressed as `name.N` in paths.
    fn repeated(self) -> bool {
        matches!(self, Section::Composition | Section::Phase)
    }

    fn header(self) -> String {
        if self.repeated() {
            format!("[[{}]]", self.name())
        } else {
            format!("[{}]", self.name())
        }
    }

    /// The dotted path of table `index` (`base`, `phase.1`).
    fn path(self, index: usize) -> String {
        if self.repeated() {
            format!("{}.{index}", self.name())
        } else {
            self.name().to_owned()
        }
    }

    /// How many tables of this section `spec` holds.
    fn count(self, spec: &ExperimentSpec) -> usize {
        match (self, &spec.mode) {
            (Section::Experiment | Section::Base, _) => 1,
            (Section::Fuzz, _) => usize::from(spec.fuzz.is_some()),
            (Section::Stationary, mode) => {
                usize::from(matches!(mode, ExperimentMode::Stationary { .. }))
            }
            (Section::Composition, _) => spec.compositions.len(),
            (Section::Phase, ExperimentMode::Scenario(phases)) => phases.len(),
            (Section::Phase, ExperimentMode::Stationary { .. }) => 0,
        }
    }

    /// Adds the blank table a parsed document fills in, returning its
    /// index; required keys overwrite every placeholder.
    fn open(self, spec: &mut ExperimentSpec) -> Result<usize, String> {
        match (self, &mut spec.mode) {
            (Section::Experiment | Section::Base, _) => {}
            (Section::Fuzz, _) => spec.fuzz = Some(FuzzHeader::default()),
            (Section::Stationary, mode) => {
                *mode = ExperimentMode::Stationary {
                    strategy: StrategyKind::Honest,
                    rounds: 0,
                };
            }
            (Section::Composition, _) => spec.compositions.push(
                Composition::new(vec![SubSpec::new(StrategyKind::Honest, 1)])
                    .map_err(|e| e.to_string())?,
            ),
            (Section::Phase, ExperimentMode::Scenario(phases)) => {
                phases.push(PhaseSpec::new(0, StrategyKind::Honest, Regime::Calm));
            }
            (Section::Phase, ExperimentMode::Stationary { .. }) => {
                return Err(
                    "spec has both [[phase]] tables and a [stationary] table; pick one".into(),
                )
            }
        }
        Ok(self.count(spec) - 1)
    }
}

/// Whether a document table must, may, or cannot give a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Need {
    /// The key may be omitted.
    Optional,
    /// Every table of the section gives the key (or its alias).
    Required,
    /// A write-only spelling of the named required key: a table gives
    /// one of the two, never both.
    Alias(&'static str),
    /// Only a sweep patch sets the key; documents never carry it.
    Patch,
}

/// Where a field's value lives in table `index` (`None` when the spec
/// has no such table).
type Locate = for<'a> fn(&'a mut ExperimentSpec, usize) -> Option<Slot<'a>>;

/// A field's range or cross-field rule over table `index`.
type Rule = fn(&ExperimentSpec, usize) -> Result<(), String>;

/// One key of the schema. Parsing a document and patching a sweep cell
/// both write through [`Slot::set`], so they accept and reject the same
/// values with the same message; `to_toml` emits [`Slot::get`], and
/// validation runs `rule` on every table of the section.
struct Field {
    key: &'static str,
    need: Need,
    locate: Locate,
    rule: Option<Rule>,
}

impl Field {
    const fn new(key: &'static str, need: Need, locate: Locate) -> Self {
        Field {
            key,
            need,
            locate,
            rule: None,
        }
    }

    const fn optional(key: &'static str, locate: Locate) -> Self {
        Field::new(key, Need::Optional, locate)
    }

    const fn required(key: &'static str, locate: Locate) -> Self {
        Field::new(key, Need::Required, locate)
    }

    const fn rule(self, rule: Rule) -> Self {
        Field {
            rule: Some(rule),
            ..self
        }
    }
}

const EXPERIMENT: &[Field] = &[
    Field::optional("trials", |s, _| Some(Slot::Uint(&mut s.run.trials)))
        .rule(|s, _| at_least_one(s.run.trials)),
    Field::optional("thresholds", |s, _| {
        Some(Slot::Uints(&mut s.run.thresholds))
    }),
    Field::optional("backend", |s, _| Some(Slot::Backend(&mut s.run.backend))),
    Field::optional("estimator", |s, _| {
        Some(Slot::Estimator(&mut s.run.estimator))
    }),
    Field::optional("splitting_levels", |s, _| {
        Some(Slot::Levels(&mut s.run.splitting.levels))
    })
    .rule(|s, _| needs_splitting(s, s.run.splitting.levels.is_some())),
    Field::optional("splitting_effort", |s, _| {
        Some(Slot::Effort(&mut s.run.splitting.effort))
    })
    .rule(|s, _| needs_splitting(s, s.run.splitting.effort != 0)),
    Field::optional("stop_half_width", |s, _| {
        Some(Slot::MaybeFloat(&mut s.run.stop_half_width))
    })
    .rule(|s, _| match s.run.stop_half_width {
        Some(half_width) if !(half_width > 0.0 && half_width < 1.0) => {
            Err(format!("must lie in (0, 1), got {half_width}"))
        }
        Some(_) if s.run.thresholds.is_empty() => {
            Err("needs at least one consistency threshold".into())
        }
        _ => Ok(()),
    }),
];

const FUZZ: &[Field] = &[
    Field::required("master_seed", |s, _| {
        Some(Slot::Uint(&mut s.fuzz.as_mut()?.master_seed))
    }),
    Field::required("case", |s, _| Some(Slot::Uint(&mut s.fuzz.as_mut()?.case))),
    Field::optional("invariant", |s, _| {
        Some(Slot::Text(&mut s.fuzz.as_mut()?.invariant))
    }),
    Field::optional("detail", |s, _| {
        Some(Slot::Text(&mut s.fuzz.as_mut()?.detail))
    }),
];

/// `c` follows `n_miners` and `delta` because a table's keys are applied
/// in this order and `c` reads both.
const BASE: &[Field] = &[
    Field::required("n_miners", |s, _| Some(Slot::Uint(&mut s.base.n_miners))),
    Field::required("adversary_fraction", |s, _| {
        Some(Slot::Float(&mut s.base.adversary_fraction))
    }),
    Field::required("hardness", |s, _| Some(Slot::Float(&mut s.base.hardness))),
    Field::required("delta", |s, _| Some(Slot::Uint(&mut s.base.delta))),
    Field::optional("seed", |s, _| Some(Slot::Uint(&mut s.base.seed))),
    Field::new("c", Need::Alias("hardness"), |s, _| {
        Some(Slot::C(&mut s.base))
    }),
];

const STATIONARY: &[Field] = &[
    Field::required("strategy", |s, _| {
        Some(Slot::Strategy(stationary_mut(s)?.0))
    })
    .rule(|s, _| composed_in_table(s, stationary(s).map(|(kind, _)| kind))),
    Field::required("rounds", |s, _| Some(Slot::Uint(stationary_mut(s)?.1)))
        .rule(|s, _| stationary(s).map_or(Ok(()), |(_, rounds)| at_least_one(rounds))),
];

const COMPOSITION: &[Field] = &[
    Field::required("subs", |s, i| Some(Slot::Subs(s.compositions.get_mut(i)?))),
    Field::new("weights", Need::Patch, |s, i| {
        Some(Slot::Weights(s.compositions.get_mut(i)?))
    }),
    Field::new("strategies", Need::Patch, |s, i| {
        Some(Slot::Strategies(s.compositions.get_mut(i)?))
    }),
];

const PHASE: &[Field] = &[
    Field::required("rounds", |s, i| {
        Some(Slot::Uint(&mut phase_mut(s, i)?.rounds))
    })
    .rule(|s, i| phase(s, i).map_or(Ok(()), |p| at_least_one(p.rounds))),
    Field::required("strategy", |s, i| {
        Some(Slot::Strategy(&mut phase_mut(s, i)?.strategy))
    })
    .rule(|s, i| composed_in_table(s, phase(s, i).map(|p| p.strategy))),
    Field::required("regime", |s, i| {
        Some(Slot::Regime(&mut phase_mut(s, i)?.regime))
    })
    .rule(|s, i| match phase(s, i).map(|p| p.regime) {
        Some(Regime::Eclipse { group }) if group >= 2 => {
            Err(format!("`eclipse({group})`: only groups 0 and 1 exist"))
        }
        _ => Ok(()),
    }),
    Field::optional("adversary_fraction", |s, i| {
        Some(Slot::MaybeFloat(&mut phase_mut(s, i)?.adversary_fraction))
    })
    .rule(
        |s, i| match phase(s, i).and_then(|p| p.adversary_fraction) {
            Some(nu) => config_valid(SimConfig {
                adversary_fraction: nu,
                ..s.base
            }),
            None => Ok(()),
        },
    ),
    Field::optional("hardness", |s, i| {
        Some(Slot::MaybeFloat(&mut phase_mut(s, i)?.hardness))
    })
    .rule(|s, i| match phase(s, i).and_then(|p| p.hardness) {
        Some(hardness) => config_valid(SimConfig { hardness, ..s.base }),
        None => Ok(()),
    }),
    Field::optional("detector_delta", |s, i| {
        Some(Slot::MaybeUint(&mut phase_mut(s, i)?.detector_delta))
    })
    .rule(|s, i| match phase(s, i).and_then(|p| p.detector_delta) {
        Some(d) if d == 0 || d > s.base.delta => {
            Err(format!("must lie in [1, Δ = {}], got {d}", s.base.delta))
        }
        _ => Ok(()),
    }),
];

/// A typed place in a spec: how one field converts a document value on
/// the way in and emits its canonical value on the way out.
enum Slot<'a> {
    Uint(&'a mut u64),
    /// Omitted when empty.
    Uints(&'a mut Vec<u64>),
    /// `None` (omitted) selects the automatic ladder; `Some([])` is
    /// emitted as `[]`.
    Levels(&'a mut Option<Vec<u64>>),
    /// 0 stands for the omitted key (reuse `trials`), so no value spells
    /// it.
    Effort(&'a mut u64),
    Float(&'a mut f64),
    MaybeFloat(&'a mut Option<f64>),
    MaybeUint(&'a mut Option<u64>),
    Text(&'a mut String),
    /// Omitted at the default.
    Backend(&'a mut BackendKind),
    /// Omitted at the default.
    Estimator(&'a mut EstimatorKind),
    Strategy(&'a mut StrategyKind),
    Regime(&'a mut Regime),
    /// The paper's axis `c`, stored as hardness p = 1/(c·n·Δ) from the
    /// config's current `n_miners` and `delta`; never emitted.
    C(&'a mut SimConfig),
    /// `[{ strategy = "…", weight = N }, …]`: a whole composition.
    Subs(&'a mut Composition),
    /// One weight per sub of the composition (patch only).
    Weights(&'a mut Composition),
    /// One strategy per sub of the composition (patch only).
    Strategies(&'a mut Composition),
}

impl Slot<'_> {
    fn set(self, value: &SpecValue) -> Result<(), String> {
        match self {
            Slot::Uint(slot) => *slot = int(value)?,
            Slot::Uints(slot) => *slot = ints(value)?,
            Slot::Levels(slot) => *slot = Some(ints(value)?),
            Slot::Effort(slot) => match int(value)? {
                0 => return Err("must be at least 1 (omit the key to reuse `trials`)".into()),
                effort => *slot = effort,
            },
            Slot::Float(slot) => *slot = num(value)?,
            Slot::MaybeFloat(slot) => *slot = Some(num(value)?),
            Slot::MaybeUint(slot) => *slot = Some(int(value)?),
            Slot::Text(slot) => *slot = owned_text(value)?,
            Slot::Backend(slot) => *slot = text(value)?.parse().map_err(token_error)?,
            Slot::Estimator(slot) => *slot = text(value)?.parse().map_err(token_error)?,
            Slot::Strategy(slot) => *slot = strategy(value)?,
            Slot::Regime(slot) => {
                let token = text(value)?;
                *slot = parse_regime(token).ok_or_else(|| format!("unknown regime `{token}`"))?;
            }
            Slot::C(config) => {
                let c = num(value)?;
                if !(c > 0.0) {
                    return Err(format!("must be positive, got {c}"));
                }
                #[allow(clippy::cast_precision_loss)]
                let (n, delta) = (config.n_miners as f64, config.delta as f64);
                config.hardness = 1.0 / (c * n * delta);
            }
            Slot::Subs(slot) => {
                let subs = list(value)?
                    .iter()
                    .map(read_sub)
                    .collect::<Result<_, _>>()?;
                *slot = Composition::new(subs).map_err(|e| e.to_string())?;
            }
            Slot::Weights(slot) => resub(slot, value, |sub, weight| {
                sub.weight = int(weight)?;
                Ok(())
            })?,
            Slot::Strategies(slot) => resub(slot, value, |sub, kind| {
                sub.strategy = strategy(kind)?;
                Ok(())
            })?,
        }
        Ok(())
    }

    /// The canonical value, or `None` to leave the key out.
    fn get(self) -> Option<SpecValue> {
        let text = |s: String| Some(SpecValue::Str(s));
        match self {
            Slot::Uint(slot) => Some(uint(*slot)),
            Slot::Uints(slot) => (!slot.is_empty()).then(|| uints(slot)),
            Slot::Levels(slot) => slot.as_deref().map(uints),
            Slot::Effort(slot) => (*slot != 0).then(|| uint(*slot)),
            Slot::Float(slot) => Some(SpecValue::Float(*slot)),
            Slot::MaybeFloat(slot) => slot.map(SpecValue::Float),
            Slot::MaybeUint(slot) => slot.map(uint),
            Slot::Text(slot) => text(slot.clone()),
            Slot::Backend(slot) => {
                (*slot != BackendKind::default()).then(|| SpecValue::Str(slot.to_string()))
            }
            Slot::Estimator(slot) => {
                (*slot != EstimatorKind::default()).then(|| SpecValue::Str(slot.to_string()))
            }
            Slot::Strategy(slot) => text(strategy_token(*slot)),
            Slot::Regime(slot) => text(regime_token(*slot)),
            Slot::Subs(slot) => Some(SpecValue::Array(
                slot.subs().iter().map(sub_value).collect(),
            )),
            Slot::C(_) | Slot::Weights(_) | Slot::Strategies(_) => None,
        }
    }
}

// ---------------------------------------------------------------------
// Field accessors, value conversions, and rules
// ---------------------------------------------------------------------

fn phase(spec: &ExperimentSpec, index: usize) -> Option<&PhaseSpec> {
    match &spec.mode {
        ExperimentMode::Scenario(phases) => phases.get(index),
        ExperimentMode::Stationary { .. } => None,
    }
}

fn phase_mut(spec: &mut ExperimentSpec, index: usize) -> Option<&mut PhaseSpec> {
    match &mut spec.mode {
        ExperimentMode::Scenario(phases) => phases.get_mut(index),
        ExperimentMode::Stationary { .. } => None,
    }
}

fn stationary(spec: &ExperimentSpec) -> Option<(StrategyKind, u64)> {
    match spec.mode {
        ExperimentMode::Stationary { strategy, rounds } => Some((strategy, rounds)),
        ExperimentMode::Scenario(_) => None,
    }
}

fn stationary_mut(spec: &mut ExperimentSpec) -> Option<(&mut StrategyKind, &mut u64)> {
    match &mut spec.mode {
        ExperimentMode::Stationary { strategy, rounds } => Some((strategy, rounds)),
        ExperimentMode::Scenario(_) => None,
    }
}

/// One `{ strategy = "…", weight = N }` entry of `subs`.
fn read_sub(value: &SpecValue) -> Result<SubSpec, String> {
    let SpecValue::Table(sub) = value else {
        return Err("entries must be inline tables { strategy = \"…\", weight = N }".into());
    };
    let mut sub = sub.clone();
    let kind = sub
        .need("strategy", "every sub", strategy)
        .map_err(|e| e.message)?;
    let weight = sub
        .need("weight", "every sub", int)
        .map_err(|e| e.message)?;
    sub.expect_empty("a composition sub")
        .map_err(|e| e.message)?;
    Ok(SubSpec::new(kind, weight))
}

fn sub_value(sub: &SubSpec) -> SpecValue {
    let entry = |key: &str, value| SpecEntry {
        key: key.into(),
        line: 0,
        value,
    };
    SpecValue::Table(SpecTable {
        line: 0,
        entries: vec![
            entry("strategy", SpecValue::Str(strategy_token(sub.strategy))),
            entry("weight", uint(sub.weight)),
        ],
    })
}

/// Rebuilds `composition` with `update` applied to each sub and the
/// matching entry of the array `value`.
fn resub(
    composition: &mut Composition,
    value: &SpecValue,
    update: fn(&mut SubSpec, &SpecValue) -> Result<(), String>,
) -> Result<(), String> {
    let items = list(value)?;
    let mut subs = composition.subs().to_vec();
    if items.len() != subs.len() {
        return Err(format!("{} entries for {} subs", items.len(), subs.len()));
    }
    for (sub, item) in subs.iter_mut().zip(items) {
        update(sub, item)?;
    }
    *composition = Composition::new(subs).map_err(|e| e.to_string())?;
    Ok(())
}

fn int(value: &SpecValue) -> Result<u64, String> {
    match value {
        SpecValue::Int(i) => {
            u64::try_from(*i).map_err(|_| format!("must fit an unsigned 64-bit integer, got {i}"))
        }
        other => Err(format!("must be an integer, got a {}", other.type_name())),
    }
}

fn num(value: &SpecValue) -> Result<f64, String> {
    match value {
        SpecValue::Float(f) => Ok(*f),
        #[allow(clippy::cast_precision_loss)]
        SpecValue::Int(i) => Ok(*i as f64),
        other => Err(format!("must be a number, got a {}", other.type_name())),
    }
}

fn text(value: &SpecValue) -> Result<&str, String> {
    match value {
        SpecValue::Str(s) => Ok(s),
        other => Err(format!("must be a string, got a {}", other.type_name())),
    }
}

fn owned_text(value: &SpecValue) -> Result<String, String> {
    text(value).map(str::to_owned)
}

fn list(value: &SpecValue) -> Result<&[SpecValue], String> {
    match value {
        SpecValue::Array(items) => Ok(items),
        other => Err(format!("must be an array, got a {}", other.type_name())),
    }
}

fn ints(value: &SpecValue) -> Result<Vec<u64>, String> {
    list(value)?.iter().map(int).collect()
}

fn strategy(value: &SpecValue) -> Result<StrategyKind, String> {
    let token = text(value)?;
    parse_strategy(token).ok_or_else(|| format!("unknown strategy `{token}`"))
}

fn token_error(e: UnknownToken) -> String {
    e.to_string()
}

fn uint(value: u64) -> SpecValue {
    SpecValue::Int(i128::from(value))
}

fn uints(values: &[u64]) -> SpecValue {
    SpecValue::Array(values.iter().copied().map(uint).collect())
}

fn at_least_one(value: u64) -> Result<(), String> {
    if value == 0 {
        return Err("must be at least 1".into());
    }
    Ok(())
}

fn config_valid(config: SimConfig) -> Result<(), String> {
    config.validate().map_err(|e| e.to_string())
}

/// The one check that a `composed(i)` strategy indexes the composition
/// table.
fn composed_in_table(spec: &ExperimentSpec, kind: Option<StrategyKind>) -> Result<(), String> {
    match kind {
        Some(StrategyKind::Composed(i)) if i >= spec.compositions.len() => Err(format!(
            "`composed({i})` indexes past the composition table (len {})",
            spec.compositions.len()
        )),
        _ => Ok(()),
    }
}

/// A splitting-schedule key only means something to the splitting
/// estimator.
fn needs_splitting(spec: &ExperimentSpec, set: bool) -> Result<(), String> {
    if set && spec.run.estimator != EstimatorKind::Splitting {
        return Err("the splitting settings need `estimator = \"splitting\"`".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Canonical emission
// ---------------------------------------------------------------------

fn emit_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            _ => out.push(ch),
        }
    }
    out.push('"');
    out
}

/// Rust's shortest-round-trip float formatting, kept recognisably a
/// float (`0` would re-parse as an integer, breaking the codec's
/// parse∘serialize identity on raw patch values).
fn emit_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// An inline table: bare keys stay bare, others (dotted patch paths)
/// are quoted.
fn emit_inline<'a>(entries: impl Iterator<Item = (&'a str, &'a SpecValue)>) -> String {
    let inner: Vec<String> = entries
        .map(|(key, value)| {
            let bare = !key.is_empty() && key.chars().all(is_bare_key_char);
            let key = if bare { key.to_owned() } else { emit_str(key) };
            format!("{key} = {}", emit_value(value))
        })
        .collect();
    format!("{{ {} }}", inner.join(", "))
}

fn emit_value(value: &SpecValue) -> String {
    match value {
        SpecValue::Int(i) => i.to_string(),
        SpecValue::Float(f) => emit_f64(*f),
        SpecValue::Bool(b) => b.to_string(),
        SpecValue::Str(s) => emit_str(s),
        SpecValue::Array(items) => {
            let inner: Vec<String> = items.iter().map(emit_value).collect();
            format!("[{}]", inner.join(", "))
        }
        SpecValue::Table(table) => {
            emit_inline(table.entries.iter().map(|e| (e.key.as_str(), &e.value)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::PrivateChainAdversary;

    const SCENARIO_SPEC: &str = r#"
        # A three-phase attack-window scenario.
        [experiment]
        trials = 3
        thresholds = [6, 12]

        [base]
        n_miners = 100
        delta = 4
        c = 1.0
        adversary_fraction = 0.1
        seed = 77

        [[composition]]
        subs = [{ strategy = "balance", weight = 1 }, { strategy = "selfish", weight = 1 }]

        [[phase]]
        rounds = 500
        strategy = "honest"
        regime = "calm"

        [[phase]]
        rounds = 500
        strategy = "composed(0)"
        regime = "eclipse(1)"
        adversary_fraction = 0.4
        detector_delta = 2

        [[phase]]
        rounds = 500
        strategy = "honest"
        regime = "calm"
    "#;

    const STATIONARY_SPEC: &str = r#"
        [experiment]
        trials = 2
        thresholds = [12]

        [base]
        n_miners = 100
        delta = 4
        c = 1.0
        adversary_fraction = 0.3
        seed = 9

        [stationary]
        strategy = "private-chain"
        rounds = 1000
    "#;

    const SPLITTING_SPEC: &str = r#"
        [experiment]
        trials = 2
        thresholds = [4, 8]
        estimator = "splitting"
        splitting_levels = [2, 5]
        splitting_effort = 16

        [base]
        n_miners = 100
        delta = 4
        c = 1.0
        adversary_fraction = 0.3
        seed = 9

        [stationary]
        strategy = "private-chain"
        rounds = 1000
    "#;

    #[test]
    fn parses_splitting_estimator_settings() {
        let spec = ExperimentSpec::parse(SPLITTING_SPEC).unwrap();
        assert_eq!(spec.run.estimator, EstimatorKind::Splitting);
        assert_eq!(spec.run.splitting.levels, Some(vec![2, 5]));
        assert_eq!(spec.run.splitting.effort, 16);
        let ExperimentPlan::Splitting { plan, .. } = spec.plan().unwrap() else {
            panic!("splitting estimator selected")
        };
        assert_eq!(plan.effort, 16);
        assert_eq!(plan.thresholds, vec![4, 8]);
        assert_eq!(plan.stage_levels(), vec![2, 5, 9]);
    }

    #[test]
    fn splitting_effort_defaults_to_trials() {
        let source = SPLITTING_SPEC.replace("splitting_effort = 16\n", "");
        let spec = ExperimentSpec::parse(&source).unwrap();
        assert_eq!(spec.run.splitting.effort, 0);
        let ExperimentPlan::Splitting { plan, .. } = spec.plan().unwrap() else {
            panic!("splitting estimator selected")
        };
        assert_eq!(plan.effort, spec.run.trials);
    }

    /// Unwraps the Wilson variant of an executed cell.
    fn wilson(outcome: CellOutcome) -> MonteCarloRun {
        let Estimate::Wilson(run) = outcome.estimate else {
            panic!("expected a Wilson estimate, got {:?}", outcome.estimate)
        };
        run
    }

    #[test]
    fn splitting_spec_executes_the_splitting_estimator() {
        let spec = ExperimentSpec::parse(SPLITTING_SPEC).unwrap();
        let outcome = spec.plan().unwrap().execute();
        assert_eq!(outcome.estimate.backend(), BackendKind::MonteCarlo);
        let Estimate::Splitting(run) = outcome.estimate else {
            panic!("splitting estimator selected")
        };
        let ladder: Vec<u64> = run.levels.iter().map(|s| s.level).collect();
        assert_eq!(ladder, vec![2, 5, 9]);
        assert!(run.estimate_at(4).is_some());
        assert!(run.estimate_at(8).is_some());
    }

    #[test]
    fn wilson_specs_execute_the_wilson_estimator() {
        let spec = ExperimentSpec::parse(STATIONARY_SPEC).unwrap();
        assert_eq!(spec.run.estimator, EstimatorKind::Wilson);
        let run = wilson(spec.plan().unwrap().execute());
        assert_eq!(run.aggregate.trials, 2);
    }

    #[test]
    fn rejects_unknown_estimator() {
        let source = SPLITTING_SPEC.replace("\"splitting\"", "\"bootstrap\"");
        let err = ExperimentSpec::parse(&source).unwrap_err();
        assert!(err.to_string().contains("unknown estimator"), "{err}");
    }

    #[test]
    fn rejects_splitting_for_scenario_specs() {
        let source = SCENARIO_SPEC.replace(
            "thresholds = [6, 12]",
            "thresholds = [6, 12]\n        estimator = \"splitting\"",
        );
        let err = ExperimentSpec::parse(&source).unwrap_err();
        assert!(
            err.to_string().contains("scenario specs only support"),
            "{err}"
        );
    }

    #[test]
    fn rejects_orphan_splitting_keys() {
        let source = SPLITTING_SPEC.replace("estimator = \"splitting\"\n", "");
        let err = ExperimentSpec::parse(&source).unwrap_err();
        assert!(
            err.to_string().contains("need `estimator = \"splitting\"`"),
            "{err}"
        );
    }

    #[test]
    fn rejects_zero_splitting_effort() {
        let source = SPLITTING_SPEC.replace("splitting_effort = 16", "splitting_effort = 0");
        let err = ExperimentSpec::parse(&source).unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
    }

    #[test]
    fn rejects_splitting_levels_past_largest_threshold() {
        let source = SPLITTING_SPEC.replace("splitting_levels = [2, 5]", "splitting_levels = [9]");
        let err = ExperimentSpec::parse(&source).unwrap_err();
        assert!(err.to_string().contains("past the largest"), "{err}");
    }

    #[test]
    fn patches_reach_splitting_settings() {
        let mut spec = ExperimentSpec::parse(STATIONARY_SPEC).unwrap();
        spec.apply_patch("experiment.estimator", &SpecValue::Str("splitting".into()))
            .unwrap();
        spec.apply_patch("experiment.splitting_effort", &SpecValue::Int(32))
            .unwrap();
        spec.apply_patch(
            "experiment.splitting_levels",
            &SpecValue::Array(vec![SpecValue::Int(3), SpecValue::Int(7)]),
        )
        .unwrap();
        assert_eq!(spec.run.estimator, EstimatorKind::Splitting);
        assert_eq!(spec.run.splitting.effort, 32);
        assert_eq!(spec.run.splitting.levels, Some(vec![3, 7]));
        spec.validate().unwrap();

        let err = spec
            .apply_patch("experiment.estimator", &SpecValue::Str("guess".into()))
            .unwrap_err();
        assert!(err.to_string().contains("unknown estimator"), "{err}");
    }

    #[test]
    fn splitting_spec_round_trips_through_toml() {
        let spec = ExperimentSpec::parse(SPLITTING_SPEC).unwrap();
        let reparsed = ExperimentSpec::parse(&spec.to_toml()).unwrap();
        assert_eq!(spec, reparsed);
        // The degenerate empty schedule must survive the round trip too.
        let mut degenerate = spec.clone();
        degenerate.run.splitting.levels = Some(Vec::new());
        let reparsed = ExperimentSpec::parse(&degenerate.to_toml()).unwrap();
        assert_eq!(degenerate, reparsed);
    }

    #[test]
    fn parses_a_scenario_spec() {
        let spec = ExperimentSpec::parse(SCENARIO_SPEC).unwrap();
        assert_eq!(spec.run.trials, 3);
        assert_eq!(spec.run.thresholds, vec![6, 12]);
        assert_eq!(spec.base.n_miners, 100);
        assert!((spec.base.hardness - 1.0 / (100.0 * 4.0)).abs() < 1e-15);
        assert_eq!(spec.compositions.len(), 1);
        let ExperimentMode::Scenario(phases) = &spec.mode else {
            panic!("scenario mode expected")
        };
        assert_eq!(phases.len(), 3);
        assert_eq!(phases[1].strategy, StrategyKind::Composed(0));
        assert_eq!(phases[1].regime, Regime::Eclipse { group: 1 });
        assert_eq!(phases[1].adversary_fraction, Some(0.4));
        assert_eq!(phases[1].detector_delta, Some(2));
        let scenario = spec.scenario().unwrap();
        assert_eq!(scenario.total_rounds(), 1500);
    }

    #[test]
    fn scenario_spec_plan_matches_hand_built_plan() {
        let spec = ExperimentSpec::parse(SCENARIO_SPEC).unwrap();
        let ExperimentPlan::Scenario(plan) = spec.plan().unwrap() else {
            panic!("scenario spec")
        };
        let from_spec = plan.run();
        let scenario = Scenario::with_compositions(
            spec.base,
            vec![
                PhaseSpec::new(500, StrategyKind::Honest, Regime::Calm),
                PhaseSpec::new(500, StrategyKind::Composed(0), Regime::Eclipse { group: 1 })
                    .with_power(0.4)
                    .with_detector_delta(2),
                PhaseSpec::new(500, StrategyKind::Honest, Regime::Calm),
            ],
            spec.compositions.clone(),
        )
        .unwrap();
        let by_hand = ScenarioPlan::new(scenario, 3)
            .unwrap()
            .thresholds(vec![6, 12])
            .run();
        assert_eq!(from_spec.aggregate, by_hand.aggregate);
    }

    #[test]
    fn stationary_spec_runs_the_bare_adversary() {
        let spec = ExperimentSpec::parse(STATIONARY_SPEC).unwrap();
        let run = wilson(spec.plan().unwrap().execute());
        let delta = spec.base.delta;
        let by_hand = TrialPlan::new(spec.base, 1000, 2)
            .unwrap()
            .thresholds(vec![12])
            .run(move |_| PrivateChainAdversary::new(delta));
        assert_eq!(run.aggregate, by_hand.aggregate);
    }

    #[test]
    fn stop_half_width_is_range_checked() {
        for (patch, needle) in [
            ("stop_half_width = 0.0", "stop_half_width"),
            ("stop_half_width = 1.5", "stop_half_width"),
        ] {
            let source = STATIONARY_SPEC.replace("trials = 2", &format!("trials = 2\n{patch}"));
            let err = ExperimentSpec::parse(&source).unwrap_err();
            assert!(err.message.contains(needle), "{patch}: {err}");
            assert!(err.line > 0, "{patch}: range errors carry positions");
        }
        // The stopping rule needs a threshold to watch.
        let source = STATIONARY_SPEC.replace("thresholds = [12]", "stop_half_width = 0.05");
        let err = ExperimentSpec::parse(&source).unwrap_err();
        assert!(err.message.contains("threshold"), "{err}");
    }

    #[test]
    fn stopping_is_stationary_only() {
        let source = SCENARIO_SPEC.replace("trials = 3", "trials = 3\nstop_half_width = 0.05");
        let err = ExperimentSpec::parse(&source).unwrap_err();
        assert!(err.message.contains("stationary"), "{err}");
    }

    #[test]
    fn stopping_spec_round_trips_and_stops_early() {
        let source = STATIONARY_SPEC.replace("trials = 2", "trials = 4096\nstop_half_width = 0.2");
        let spec = ExperimentSpec::parse(&source).unwrap();
        let reparsed = ExperimentSpec::parse(&spec.to_toml()).unwrap();
        assert_eq!(spec, reparsed);
        let run = wilson(spec.plan().unwrap().execute());
        assert!(
            run.aggregate.trials < 4096,
            "a 0.2 half-width is cheap; the rule must stop early (ran {})",
            run.aggregate.trials
        );
        let hw = run.aggregate.half_width(12, crate::montecarlo::STOP_Z);
        assert!(hw.unwrap() <= 0.2, "stopped above the target: {hw:?}");
    }

    #[test]
    fn round_trip_through_toml_is_identity() {
        for source in [SCENARIO_SPEC, STATIONARY_SPEC] {
            let spec = ExperimentSpec::parse(source).unwrap();
            let emitted = spec.to_toml();
            let reparsed = ExperimentSpec::parse(&emitted)
                .unwrap_or_else(|e| panic!("re-parse failed: {e}\n{emitted}"));
            assert_eq!(spec, reparsed, "round trip changed the spec:\n{emitted}");
        }
    }

    /// Randomized codec round-trip over the scenario × composition ×
    /// sweep space (the fuzz generator's job, but for the codec).
    #[test]
    fn randomized_round_trips() {
        let mut rng = SplitMix64::new(0x05EC_5EED);
        for case in 0..60 {
            let spec = random_spec(&mut rng);
            let emitted = spec.to_toml();
            let reparsed = ExperimentSpec::parse(&emitted)
                .unwrap_or_else(|e| panic!("case {case}: re-parse failed: {e}\n{emitted}"));
            assert_eq!(spec, reparsed, "case {case} round trip:\n{emitted}");
        }
    }

    fn random_spec(rng: &mut SplitMix64) -> ExperimentSpec {
        let n_miners = 40 + rng.next_below(200);
        let delta = 1 + rng.next_below(5);
        let nu = 0.05 * rng.next_below(10) as f64;
        let base = SimConfig::from_c(
            n_miners,
            delta,
            [0.5, 1.0, 2.0][rng.next_below(3) as usize],
            nu,
            rng.next_u64(),
        )
        .unwrap();
        let compositions = (0..rng.next_below(3))
            .map(|_| {
                let kinds = [
                    StrategyKind::Honest,
                    StrategyKind::PrivateChain,
                    StrategyKind::Balance,
                    StrategyKind::Selfish,
                ];
                let mut subs: Vec<SubSpec> = (0..1 + rng.next_below(3))
                    .map(|_| SubSpec::new(kinds[rng.next_below(4) as usize], rng.next_below(4)))
                    .collect();
                if subs.iter().all(|s| s.weight == 0) {
                    subs[0].weight = 1;
                }
                Composition::new(subs).unwrap()
            })
            .collect::<Vec<_>>();
        let mode = if rng.next_below(2) == 0 {
            let strategies = [
                StrategyKind::Honest,
                StrategyKind::PrivateChain,
                StrategyKind::Balance,
                StrategyKind::Selfish,
            ];
            ExperimentMode::Stationary {
                strategy: strategies[rng.next_below(4) as usize],
                rounds: 100 + rng.next_below(1_000),
            }
        } else {
            let phases = (0..1 + rng.next_below(3))
                .map(|_| {
                    let strategy = match rng.next_below(4 + compositions.len() as u64) {
                        0 => StrategyKind::Honest,
                        1 => StrategyKind::PrivateChain,
                        2 => StrategyKind::Balance,
                        3 => StrategyKind::Selfish,
                        i => StrategyKind::Composed((i - 4) as usize),
                    };
                    let regime = match rng.next_below(4) {
                        0 | 1 => Regime::Calm,
                        2 => Regime::Adversarial,
                        _ => Regime::Eclipse {
                            group: rng.next_below(2) as usize,
                        },
                    };
                    let mut phase = PhaseSpec::new(100 + rng.next_below(500), strategy, regime);
                    if rng.next_below(2) == 0 {
                        phase = phase.with_power(0.05 * rng.next_below(10) as f64);
                    }
                    if rng.next_below(3) == 0 {
                        phase = phase.with_detector_delta(1 + rng.next_below(delta));
                    }
                    phase
                })
                .collect();
            ExperimentMode::Scenario(phases)
        };
        let sweep = if rng.next_below(2) == 0 {
            Some(SweepSpec {
                seed: rng.next_u64(),
                axes: (0..1 + rng.next_below(2))
                    .map(|a| SweepAxis {
                        label: format!("axis{a}"),
                        cells: (0..1 + rng.next_below(3))
                            .map(|c| SweepCell {
                                label: format!("cell \"{c}\""),
                                patches: vec![(
                                    "base.adversary_fraction".into(),
                                    SpecValue::Float(0.05 * rng.next_below(10) as f64),
                                )],
                            })
                            .collect(),
                    })
                    .collect(),
            })
        } else {
            None
        };
        let fuzz = if rng.next_below(3) == 0 {
            Some(FuzzHeader {
                master_seed: rng.next_u64(),
                case: rng.next_below(10_000),
                invariant: "pool bit-identity".into(),
                detail: "line1\nline \"2\" \\ tab\t".into(),
            })
        } else {
            None
        };
        let thresholds: Vec<u64> = (0..rng.next_below(3)).map(|i| 6 * (i + 1)).collect();
        let stationary = matches!(mode, ExperimentMode::Stationary { .. });
        let (estimator, splitting) =
            if stationary && !thresholds.is_empty() && rng.next_below(3) == 0 {
                let max_t = *thresholds.iter().max().unwrap();
                let levels = match rng.next_below(3) {
                    0 => None,
                    1 => Some(Vec::new()),
                    _ => Some((1..=1 + rng.next_below(max_t)).collect()),
                };
                (
                    EstimatorKind::Splitting,
                    SplittingSettings {
                        levels,
                        effort: rng.next_below(2) * (4 + rng.next_below(60)),
                    },
                )
            } else {
                (EstimatorKind::Wilson, SplittingSettings::default())
            };
        let stop_half_width = if stationary && !thresholds.is_empty() && rng.next_below(3) == 0 {
            Some(0.01 * (1 + rng.next_below(20)) as f64)
        } else {
            None
        };
        let backend = if nu > 0.0
            && !thresholds.is_empty()
            && estimator == EstimatorKind::Wilson
            && matches!(
                mode,
                ExperimentMode::Stationary {
                    strategy: StrategyKind::PrivateChain,
                    ..
                }
            )
            && rng.next_below(3) == 0
        {
            BackendKind::Markov
        } else {
            BackendKind::MonteCarlo
        };
        let spec = ExperimentSpec {
            run: RunSettings {
                trials: 1 + rng.next_below(8),
                thresholds,
                backend,
                estimator,
                splitting,
                stop_half_width,
            },
            base,
            compositions,
            mode,
            sweep,
            fuzz,
        };
        spec.validate().expect("generator produces valid specs");
        spec
    }

    #[test]
    fn rejects_unknown_keys_with_positions() {
        let source = "\n[base]\nn_miners = 100\ndelta = 4\nc = 1.0\nadversary_fraction = 0.1\nseed = 1\ntypo_key = 3\n\n[stationary]\nstrategy = \"honest\"\nrounds = 10\n";
        let err = ExperimentSpec::parse(source).unwrap_err();
        assert_eq!(err.line, 8, "{err}");
        assert!(err.message.contains("typo_key"), "{err}");

        let source = "[experiment]\nbogus = 1\n";
        let err = ExperimentSpec::parse(source).unwrap_err();
        assert_eq!(err.line, 2, "{err}");
        assert!(err.to_string().contains("unknown key `bogus`"), "{err}");

        // Width keys are not part of the schema: the pool width is a
        // process-wide `--jobs` setting, never part of a spec.
        for key in ["threads = 2", "batch_width = 8"] {
            let source = format!("[experiment]\ntrials = 2\n{key}\n");
            let err = ExperimentSpec::parse(&source).unwrap_err();
            assert_eq!(err.line, 3, "{key}: {err}");
            let name = key.split(' ').next().unwrap();
            assert!(
                err.to_string().contains(&format!("unknown key `{name}`")),
                "{key}: {err}"
            );
        }
    }

    #[test]
    fn rejects_out_of_range_values_with_positions() {
        // Majority adversary in [base].
        let source = "[base]\nn_miners = 100\ndelta = 4\nc = 1.0\nadversary_fraction = 0.7\nseed = 1\n\n[stationary]\nstrategy = \"honest\"\nrounds = 10\n";
        let err = ExperimentSpec::parse(source).unwrap_err();
        assert_eq!(err.line, 1, "{err}");
        assert!(err.message.contains("ν"), "{err}");

        // Zero-round phase, positioned at the `rounds` line.
        let source = "[base]\nn_miners = 100\ndelta = 4\nc = 1.0\nadversary_fraction = 0.1\nseed = 1\n\n[[phase]]\nrounds = 0\nstrategy = \"honest\"\nregime = \"calm\"\n";
        let err = ExperimentSpec::parse(source).unwrap_err();
        assert_eq!(err.line, 9, "{err}");

        // Detector delta above Δ.
        let source = "[base]\nn_miners = 100\ndelta = 4\nc = 1.0\nadversary_fraction = 0.1\nseed = 1\n\n[[phase]]\nrounds = 10\nstrategy = \"honest\"\nregime = \"calm\"\ndetector_delta = 9\n";
        let err = ExperimentSpec::parse(source).unwrap_err();
        assert_eq!(err.line, 12, "{err}");

        // Unknown strategy token.
        let source = "[base]\nn_miners = 100\ndelta = 4\nc = 1.0\nadversary_fraction = 0.1\nseed = 1\n\n[[phase]]\nrounds = 10\nstrategy = \"sneaky\"\nregime = \"calm\"\n";
        let err = ExperimentSpec::parse(source).unwrap_err();
        assert_eq!(err.line, 10, "{err}");
        assert!(err.message.contains("sneaky"), "{err}");

        // Composed index past the (empty) table.
        let source = "[base]\nn_miners = 100\ndelta = 4\nc = 1.0\nadversary_fraction = 0.1\nseed = 1\n\n[[phase]]\nrounds = 10\nstrategy = \"composed(0)\"\nregime = \"calm\"\n";
        let err = ExperimentSpec::parse(source).unwrap_err();
        assert_eq!(err.line, 10, "{err}");

        // Phase-override ν out of range, positioned at the override.
        let source = "[base]\nn_miners = 100\ndelta = 4\nc = 1.0\nadversary_fraction = 0.1\nseed = 1\n\n[[phase]]\nrounds = 10\nstrategy = \"honest\"\nregime = \"calm\"\nadversary_fraction = 0.9\n";
        let err = ExperimentSpec::parse(source).unwrap_err();
        assert_eq!(err.line, 12, "{err}");
    }

    #[test]
    fn rejects_structural_mistakes() {
        assert!(ExperimentSpec::parse("")
            .unwrap_err()
            .message
            .contains("[base]"));
        let no_mode =
            "[base]\nn_miners = 100\ndelta = 4\nc = 1.0\nadversary_fraction = 0.1\nseed = 1\n";
        assert!(ExperimentSpec::parse(no_mode)
            .unwrap_err()
            .message
            .contains("either"));
        let both = format!("{no_mode}\n[stationary]\nstrategy = \"honest\"\nrounds = 5\n\n[[phase]]\nrounds = 5\nstrategy = \"honest\"\nregime = \"calm\"\n");
        assert!(ExperimentSpec::parse(&both)
            .unwrap_err()
            .message
            .contains("pick one"));
        let dup = "[base]\nn_miners = 100\nn_miners = 50\n";
        let err = ExperimentSpec::parse(dup).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("duplicate"));
        let both_p = "[base]\nn_miners = 100\ndelta = 4\nc = 1.0\nhardness = 0.001\nadversary_fraction = 0.1\n";
        assert!(ExperimentSpec::parse(both_p)
            .unwrap_err()
            .message
            .contains("not both"));
        let bad_syntax = "[base\nn_miners = 100\n";
        assert_eq!(ExperimentSpec::parse(bad_syntax).unwrap_err().line, 1);
        let trailing = "[base]\nn_miners = 100 100\n";
        assert_eq!(ExperimentSpec::parse(trailing).unwrap_err().line, 2);
    }

    #[test]
    fn deep_nesting_is_a_positioned_error() {
        let depth = 100_000;
        let source = format!(
            "[experiment]\nthresholds = {}{}\n",
            "[".repeat(depth),
            "]".repeat(depth)
        );
        let err = ExperimentSpec::parse(&source).unwrap_err();
        assert_eq!(err.line, 2, "{err}");
        assert!(err.message.contains("nest deeper"), "{err}");
    }

    #[test]
    fn array_table_errors_point_at_their_own_header() {
        // Lines 1-5; line 6 is the blank line each suffix starts with.
        let base = "[base]\nn_miners = 100\ndelta = 4\nc = 1.0\nadversary_fraction = 0.1\n";
        let err = ExperimentSpec::parse(&format!("{base}\n[[phase]]\n")).unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (7, "[[phase]] needs `rounds`")
        );

        // Lines 6-9.
        let stationary = format!("{base}\n[stationary]\nstrategy = \"honest\"\nrounds = 5\n");
        let err = ExperimentSpec::parse(&format!("{stationary}\n[[composition]]\n")).unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (11, "[[composition]] needs `subs`")
        );

        let sweep = "\n[sweep]\nseed = 1\n\n[[sweep.axis]]\n\n[[sweep.axis.cell]]\nlabel = \"a\"\n";
        let err = ExperimentSpec::parse(&format!("{stationary}{sweep}")).unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (14, "[[sweep.axis]] needs `label`")
        );

        let sweep = "\n[sweep]\nseed = 1\n\n[[sweep.axis]]\nlabel = \"x\"\n\n[[sweep.axis.cell]]\n";
        let err = ExperimentSpec::parse(&format!("{stationary}{sweep}")).unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (17, "[[sweep.axis.cell]] needs `label`")
        );
    }

    /// `canonical` with `key = value` in the first table of `section`,
    /// replacing the key (and, for an alias, the key it spells).
    fn with_assignment(
        canonical: &str,
        section: Section,
        field: &Field,
        value: &SpecValue,
    ) -> String {
        let header = section.header();
        let displaced = |line: &str| {
            let key = line.split(" = ").next();
            key == Some(field.key) || matches!(field.need, Need::Alias(of) if key == Some(of))
        };
        let (mut seen, mut inside) = (false, false);
        let mut lines = Vec::new();
        for line in canonical.lines() {
            if line.starts_with('[') {
                inside = line == header && !seen;
                seen |= inside;
            }
            if inside && displaced(line) {
                continue;
            }
            lines.push(line.to_owned());
            if inside && line == header {
                lines.push(format!("{} = {}", field.key, emit_value(value)));
            }
        }
        lines.join("\n")
    }

    /// Parsing a key and patching it share one setter and one set of
    /// rules, so every field accepts and rejects the same values with
    /// the same message either way.
    #[test]
    fn parse_and_patch_agree_on_every_field() {
        let subs = SpecValue::Array(vec![
            sub_value(&SubSpec::new(StrategyKind::Selfish, 2)),
            sub_value(&SubSpec::new(StrategyKind::Balance, 0)),
        ]);
        let values = [
            SpecValue::Int(0),
            SpecValue::Int(2),
            SpecValue::Int(-1),
            SpecValue::Float(0.25),
            SpecValue::Float(7.5),
            SpecValue::Bool(true),
            SpecValue::Str("private-chain".into()),
            SpecValue::Str("composed(3)".into()),
            SpecValue::Str("eclipse(1)".into()),
            SpecValue::Str("eclipse(2)".into()),
            SpecValue::Str("markov".into()),
            SpecValue::Str("splitting".into()),
            SpecValue::Str("bogus".into()),
            SpecValue::Array(Vec::new()),
            SpecValue::Array(vec![SpecValue::Int(2)]),
            subs,
        ];
        let mut checked = 0;
        for section in Section::ALL {
            if section == Section::Fuzz {
                continue;
            }
            let source = if section.repeated() {
                SCENARIO_SPEC
            } else {
                STATIONARY_SPEC
            };
            let base = ExperimentSpec::parse(source).unwrap();
            let canonical = base.to_toml();
            for field in section.fields() {
                let document = |value| with_assignment(&canonical, section, field, value);
                if field.need == Need::Patch {
                    let err = ExperimentSpec::parse(&document(&SpecValue::Int(1))).unwrap_err();
                    assert!(err.message.contains("unknown key"), "{}: {err}", field.key);
                    continue;
                }
                let path = format!("{}.{}", section.path(0), field.key);
                for value in &values {
                    let mut patched = base.clone();
                    let by_patch = patched
                        .apply_patch(&path, value)
                        .and_then(|()| patched.validate())
                        .map(|()| patched.to_toml())
                        .map_err(|e| e.message);
                    let by_parse = ExperimentSpec::parse(&document(value))
                        .map(|spec| spec.to_toml())
                        .map_err(|e| e.message);
                    assert_eq!(by_parse, by_patch, "{path} = {}", emit_value(value));
                    checked += 1;
                }
            }
        }
        assert!(checked > 300, "only {checked} field/value pairs checked");
    }

    #[test]
    fn parser_handles_comments_hex_and_escapes() {
        let source = "[experiment]\ntrials = 2 # two trials\n\n[fuzz]\nmaster_seed = 0xFF # hex\ncase = 1_000\ninvariant = \"a#b\"\ndetail = \"q\\\"uote\\n\"\n\n[base]\nn_miners = 100\ndelta = 4\nc = 1.0\nadversary_fraction = 0.1\nseed = 1\n\n[stationary]\nstrategy = \"honest\"\nrounds = 10\n";
        let spec = ExperimentSpec::parse(source).unwrap();
        let fuzz = spec.fuzz.as_ref().unwrap();
        assert_eq!(fuzz.master_seed, 255);
        assert_eq!(fuzz.case, 1000);
        assert_eq!(fuzz.invariant, "a#b");
        assert_eq!(fuzz.detail, "q\"uote\n");
        assert_eq!(spec.run.trials, 2);
    }

    #[test]
    fn sweep_expands_in_odometer_order_with_disjoint_seeds() {
        let source = "[experiment]\ntrials = 1\n\n[base]\nn_miners = 100\ndelta = 4\nc = 1.0\nadversary_fraction = 0.1\nseed = 0\n\n[stationary]\nstrategy = \"private-chain\"\nrounds = 50\n\n[sweep]\nseed = 99\n\n[[sweep.axis]]\nlabel = \"nu\"\n\n[[sweep.axis.cell]]\nlabel = \"lo\"\npatch = { \"base.adversary_fraction\" = 0.1 }\n\n[[sweep.axis.cell]]\nlabel = \"hi\"\npatch = { \"base.adversary_fraction\" = 0.4 }\n\n[[sweep.axis]]\nlabel = \"strategy\"\n\n[[sweep.axis.cell]]\nlabel = \"private\"\npatch = { \"stationary.strategy\" = \"private-chain\" }\n\n[[sweep.axis.cell]]\nlabel = \"balance\"\npatch = { \"stationary.strategy\" = \"balance\" }\n";
        let spec = ExperimentSpec::parse(source).unwrap();
        assert_eq!(spec.sweep_shape(), vec![2, 2]);
        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].labels, vec!["lo", "private"]);
        assert_eq!(cells[1].labels, vec!["lo", "balance"]);
        assert_eq!(cells[2].labels, vec!["hi", "private"]);
        assert_eq!(cells[3].labels, vec!["hi", "balance"]);
        // The seed stream matches a bare SplitMix64 walk, cell by cell.
        let mut stream = SplitMix64::new(99);
        for cell in &cells {
            assert_eq!(cell.spec.base.seed, stream.next_u64());
            assert!(cell.spec.sweep.is_none());
        }
        assert_eq!(cells[2].spec.base.adversary_fraction, 0.4);
        let ExperimentMode::Stationary { strategy, .. } = cells[1].spec.mode else {
            panic!("stationary expected")
        };
        assert_eq!(strategy, StrategyKind::Balance);
        // Expansion is deterministic.
        assert_eq!(spec.expand().unwrap(), cells);
    }

    #[test]
    fn composition_patches_rebuild_validated_compositions() {
        let mut spec = ExperimentSpec::parse(SCENARIO_SPEC).unwrap();
        spec.apply_patch(
            "composition.0.weights",
            &SpecValue::Array(vec![SpecValue::Int(3), SpecValue::Int(1)]),
        )
        .unwrap();
        assert_eq!(spec.compositions[0].subs()[0].weight, 3);
        spec.apply_patch(
            "composition.0.strategies",
            &SpecValue::Array(vec![
                SpecValue::Str("private-chain".into()),
                SpecValue::Str("selfish".into()),
            ]),
        )
        .unwrap();
        assert_eq!(
            spec.compositions[0].subs()[0].strategy,
            StrategyKind::PrivateChain
        );
        // All-zero weights are rejected by Composition::new.
        let err = spec
            .apply_patch(
                "composition.0.weights",
                &SpecValue::Array(vec![SpecValue::Int(0), SpecValue::Int(0)]),
            )
            .unwrap_err();
        assert!(err.message.contains("composition.0.weights"), "{err}");
        // Unknown paths are named.
        let err = spec
            .apply_patch("base.bogus", &SpecValue::Int(1))
            .unwrap_err();
        assert!(err.message.contains("base.bogus"), "{err}");
    }

    const MARKOV_SPEC: &str = r#"
        [experiment]
        thresholds = [6, 12]
        backend = "markov"

        [base]
        n_miners = 100
        delta = 4
        c = 3.0
        adversary_fraction = 0.15
        seed = 7

        [stationary]
        strategy = "private-chain"
        rounds = 30000
    "#;

    #[test]
    fn markov_spec_executes_the_exact_backend() {
        let spec = ExperimentSpec::parse(MARKOV_SPEC).unwrap();
        assert_eq!(spec.run.backend, BackendKind::Markov);
        let plan = spec.plan().unwrap();
        assert_eq!(plan.rounds_per_trial(), 30000);
        let outcome = plan.execute();
        assert_eq!(outcome.estimate.backend(), BackendKind::Markov);
        assert_eq!(outcome.estimate.simulated_rounds(), 0);
        let Estimate::Exact(run) = outcome.estimate else {
            panic!("markov backend selected")
        };
        assert_eq!(run.cap, 12 + crate::exact::RACE_CAP_MARGIN);
        // The solve matches the race module called directly.
        let direct = markov::race::violation_probability(run.q, 6, run.cap).unwrap();
        let e6 = run.estimate_at(6).unwrap();
        assert_eq!(e6.probability, direct.probability);
        assert_eq!(e6.truncation_error, direct.truncation_error);
        let e12 = run.estimate_at(12).unwrap();
        assert!(e6.probability > e12.probability && e12.probability > 0.0);
        assert!(e12.truncation_error < e12.probability);
    }

    #[test]
    fn markov_spec_round_trips_and_patches() {
        let spec = ExperimentSpec::parse(MARKOV_SPEC).unwrap();
        let reparsed = ExperimentSpec::parse(&spec.to_toml()).unwrap();
        assert_eq!(spec, reparsed);

        // The backend is sweep-patchable in both directions.
        let mut patched = spec.clone();
        patched
            .apply_patch("experiment.backend", &SpecValue::Str("montecarlo".into()))
            .unwrap();
        assert_eq!(patched.run.backend, BackendKind::MonteCarlo);
        patched
            .apply_patch("experiment.backend", &SpecValue::Str("markov".into()))
            .unwrap();
        assert_eq!(patched.run.backend, BackendKind::Markov);
        patched.validate().unwrap();
        let err = patched
            .apply_patch("experiment.backend", &SpecValue::Str("quantum".into()))
            .unwrap_err();
        assert!(err.to_string().contains("unknown backend"), "{err}");
    }

    #[test]
    fn markov_backend_sweeps_against_montecarlo() {
        let source = MARKOV_SPEC.to_owned()
            + "\n[sweep]\nseed = 5\n\n[[sweep.axis]]\nlabel = \"backend\"\n\n[[sweep.axis.cell]]\nlabel = \"exact\"\n\n[[sweep.axis.cell]]\nlabel = \"sampled\"\npatch = { \"experiment.backend\" = \"montecarlo\", \"experiment.trials\" = 2, \"stationary.rounds\" = 200 }\n";
        let spec = ExperimentSpec::parse(&source).unwrap();
        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 2);
        assert!(matches!(
            cells[0].spec.plan().unwrap().execute().estimate,
            Estimate::Exact(_)
        ));
        assert!(matches!(
            cells[1].spec.plan().unwrap().execute().estimate,
            Estimate::Wilson(_)
        ));
    }

    #[test]
    fn rejects_unknown_backend_with_position() {
        let source = MARKOV_SPEC.replace("\"markov\"", "\"quantum\"");
        let err = ExperimentSpec::parse(&source).unwrap_err();
        assert!(err.line > 0, "{err}");
        assert!(
            err.message
                .contains("unknown backend `quantum` (expected \"montecarlo\" or \"markov\")"),
            "{err}"
        );
    }

    #[test]
    fn rejects_markov_for_scenario_specs_with_position() {
        let source = SCENARIO_SPEC.replace(
            "thresholds = [6, 12]",
            "thresholds = [6, 12]\n        backend = \"markov\"",
        );
        let err = ExperimentSpec::parse(&source).unwrap_err();
        assert!(err.line > 0, "scenario rejection carries a position: {err}");
        assert!(err.message.contains("[stationary]"), "{err}");
    }

    #[test]
    fn rejects_markov_for_non_private_chain_strategies() {
        for strategy in ["honest", "balance", "selfish"] {
            let source = MARKOV_SPEC.replace("\"private-chain\"", &format!("\"{strategy}\""));
            let err = ExperimentSpec::parse(&source).unwrap_err();
            assert!(err.line > 0, "{strategy}: {err}");
            assert!(
                err.message.contains("private-chain race"),
                "{strategy}: {err}"
            );
        }
        // Composed strategies too — the race model knows one attack.
        let source = MARKOV_SPEC.replace("\"private-chain\"", "\"composed(0)\"").replace(
            "[stationary]",
            "[[composition]]\nsubs = [{ strategy = \"balance\", weight = 1 }]\n\n        [stationary]",
        );
        let err = ExperimentSpec::parse(&source).unwrap_err();
        assert!(err.message.contains("composed(0)"), "{err}");
    }

    #[test]
    fn rejects_markov_with_the_splitting_estimator() {
        let source = MARKOV_SPEC.replace(
            "backend = \"markov\"",
            "backend = \"markov\"\n        estimator = \"splitting\"",
        );
        let err = ExperimentSpec::parse(&source).unwrap_err();
        assert!(err.message.contains("exact probabilities"), "{err}");
    }

    #[test]
    fn rejects_markov_without_thresholds_or_adversary() {
        let source = MARKOV_SPEC.replace("thresholds = [6, 12]\n", "");
        let err = ExperimentSpec::parse(&source).unwrap_err();
        assert!(err.message.contains("threshold"), "{err}");

        let source = MARKOV_SPEC.replace("adversary_fraction = 0.15", "adversary_fraction = 0.0");
        let err = ExperimentSpec::parse(&source).unwrap_err();
        assert!(err.message.contains("race analysis"), "{err}");

        let source = MARKOV_SPEC.replace("thresholds = [6, 12]", "thresholds = [0]");
        let err = ExperimentSpec::parse(&source).unwrap_err();
        assert!(err.message.contains("thresholds must lie in"), "{err}");
    }

    #[test]
    fn estimator_and_backend_tokens_round_trip() {
        for kind in [EstimatorKind::Wilson, EstimatorKind::Splitting] {
            assert_eq!(kind.to_string().parse(), Ok(kind));
        }
        for kind in [BackendKind::MonteCarlo, BackendKind::Markov] {
            assert_eq!(kind.to_string().parse(), Ok(kind));
        }
        let err = "bootstrap".parse::<EstimatorKind>().unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown estimator `bootstrap` (expected \"wilson\" or \"splitting\")"
        );
        let err = "exact".parse::<BackendKind>().unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown backend `exact` (expected \"montecarlo\" or \"markov\")"
        );
    }

    #[test]
    fn strategy_and_regime_tokens_round_trip() {
        for kind in [
            StrategyKind::Honest,
            StrategyKind::PrivateChain,
            StrategyKind::Balance,
            StrategyKind::Selfish,
            StrategyKind::Composed(3),
        ] {
            assert_eq!(parse_strategy(&strategy_token(kind)), Some(kind));
        }
        for regime in [
            Regime::Calm,
            Regime::Adversarial,
            Regime::Eclipse { group: 1 },
        ] {
            assert_eq!(parse_regime(&regime_token(regime)), Some(regime));
        }
        assert_eq!(parse_strategy("composed(x)"), None);
        assert_eq!(parse_regime("eclipse()"), None);
    }
}
