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
//!   `"markov"` (the exact absorbing-race solver of [`crate::exact`],
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
//! Parsing is *strict*: unknown keys, duplicate keys, and out-of-range
//! values are rejected with a [`SpecError`] carrying the offending
//! line. Serialization ([`ExperimentSpec::to_toml`]) emits a canonical
//! document that parses back to an equal spec (round-trip tested on
//! randomized specs).
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

use crate::adversary::{BalanceAdversary, ImmediateReleaseAdversary, PrivateChainAdversary};
use crate::compose::{ComposedAdversary, Composition, SubSpec};
use crate::config::SimConfig;
use crate::exact::{ExactPlan, ExactRun};
use crate::montecarlo::{MonteCarloRun, TrialPlan};
use crate::scenario::{PhaseSpec, Regime, Scenario, ScenarioPlan, StrategyKind};
use crate::selfish::SelfishMiningAdversary;
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

#[derive(Debug, Clone, PartialEq)]
struct SpecEntry {
    key: String,
    line: usize,
    value: SpecValue,
}

/// An ordered table of key → value entries, each remembering its source
/// line for positioned errors.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpecTable {
    entries: Vec<SpecEntry>,
}

impl SpecTable {
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

    fn take_u64(&mut self, key: &str) -> Result<Option<(usize, u64)>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some((line, SpecValue::Int(i))) => {
                let v = u64::try_from(i).map_err(|_| {
                    SpecError::new(line, format!("`{key}` must fit an unsigned 64-bit integer"))
                })?;
                Ok(Some((line, v)))
            }
            Some((line, other)) => Err(SpecError::new(
                line,
                format!("`{key}` must be an integer, got a {}", other.type_name()),
            )),
        }
    }

    fn take_f64(&mut self, key: &str) -> Result<Option<(usize, f64)>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some((line, value)) => {
                let v = value_as_f64(&value).ok_or_else(|| {
                    SpecError::new(
                        line,
                        format!("`{key}` must be a number, got a {}", value.type_name()),
                    )
                })?;
                Ok(Some((line, v)))
            }
        }
    }

    fn take_str(&mut self, key: &str) -> Result<Option<(usize, String)>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some((line, SpecValue::Str(s))) => Ok(Some((line, s))),
            Some((line, other)) => Err(SpecError::new(
                line,
                format!("`{key}` must be a string, got a {}", other.type_name()),
            )),
        }
    }

    fn take_array(&mut self, key: &str) -> Result<Option<(usize, Vec<SpecValue>)>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some((line, SpecValue::Array(items))) => Ok(Some((line, items))),
            Some((line, other)) => Err(SpecError::new(
                line,
                format!("`{key}` must be an array, got a {}", other.type_name()),
            )),
        }
    }

    fn take_table(&mut self, key: &str) -> Result<Option<(usize, SpecTable)>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some((line, SpecValue::Table(t))) => Ok(Some((line, t))),
            Some((line, other)) => Err(SpecError::new(
                line,
                format!("`{key}` must be a table, got a {}", other.type_name()),
            )),
        }
    }

    fn take_array_of_tables(&mut self, key: &str) -> Result<Vec<(usize, SpecTable)>, SpecError> {
        match self.take(key) {
            None => Ok(Vec::new()),
            Some((_, SpecValue::Array(items))) => items
                .into_iter()
                .map(|item| match item {
                    SpecValue::Table(t) => {
                        let line = t.entries.first().map_or(0, |e| e.line);
                        Ok((line, t))
                    }
                    other => Err(SpecError::whole(format!(
                        "every `[[{key}]]` entry must be a table, got a {}",
                        other.type_name()
                    ))),
                })
                .collect(),
            Some((line, other)) => Err(SpecError::new(
                line,
                format!(
                    "`{key}` must be an array of tables, got a {}",
                    other.type_name()
                ),
            )),
        }
    }
}

fn value_as_f64(value: &SpecValue) -> Option<f64> {
    match value {
        SpecValue::Float(f) => Some(*f),
        #[allow(clippy::cast_precision_loss)]
        SpecValue::Int(i) => Some(*i as f64),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// TOML-subset parser
// ---------------------------------------------------------------------

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
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '-') {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err(format!("expected a key in `{}`", self.source.trim())));
        }
        Ok(self.chars[start..self.pos].iter().collect()) // detlint: allow(panic-slice-index) -- pos only advances while peek() is Some, so pos <= len
    }

    fn parse_value(&mut self) -> Result<SpecValue, SpecError> {
        self.skip_ws();
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
                    items.push(self.parse_value()?);
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
                let mut table = SpecTable::default();
                loop {
                    self.skip_ws();
                    if self.peek() == Some('}') {
                        self.bump();
                        return Ok(SpecValue::Table(table));
                    }
                    let key = self.parse_key()?;
                    self.expect_char('=')?;
                    let value = self.parse_value()?;
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
                    value: SpecValue::Table(SpecTable::default()),
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
        if let Some(inner) = line.strip_prefix("[[") {
            let inner = inner
                .strip_suffix("]]")
                .ok_or_else(|| SpecError::new(line_no, "`[[` without closing `]]`"))?;
            let mut cursor = Cursor::new(inner, line_no);
            let path = cursor.parse_path()?;
            if !cursor.at_end() {
                return Err(cursor.err("trailing characters after `]]` header"));
            }
            let Some((last, parents)) = path.split_last() else {
                return Err(SpecError::new(line_no, "empty `[[...]]` header path"));
            };
            let parent = table_at_mut(&mut root, parents, line_no)?;
            match parent.entries.iter_mut().find(|e| &e.key == last) {
                None => parent.entries.push(SpecEntry {
                    key: last.clone(),
                    line: line_no,
                    value: SpecValue::Array(vec![SpecValue::Table(SpecTable::default())]),
                }),
                Some(entry) => match &mut entry.value {
                    SpecValue::Array(items) => items.push(SpecValue::Table(SpecTable::default())),
                    other => {
                        return Err(SpecError::new(
                            line_no,
                            format!(
                                "`{last}` is already a {}, cannot append a table",
                                other.type_name()
                            ),
                        ))
                    }
                },
            }
            current_path = path;
        } else if let Some(inner) = line.strip_prefix('[') {
            let inner = inner
                .strip_suffix(']')
                .ok_or_else(|| SpecError::new(line_no, "`[` without closing `]`"))?;
            let mut cursor = Cursor::new(inner, line_no);
            let path = cursor.parse_path()?;
            if !cursor.at_end() {
                return Err(cursor.err("trailing characters after `]` header"));
            }
            let Some((last, parents)) = path.split_last() else {
                return Err(SpecError::new(line_no, "empty `[...]` header path"));
            };
            let parent = table_at_mut(&mut root, parents, line_no)?;
            if parent.entries.iter().any(|e| &e.key == last) {
                return Err(SpecError::new(
                    line_no,
                    format!("duplicate table `[{last}]`"),
                ));
            }
            parent.entries.push(SpecEntry {
                key: last.clone(),
                line: line_no,
                value: SpecValue::Table(SpecTable::default()),
            });
            current_path = path;
        } else {
            let mut cursor = Cursor::new(line, line_no);
            let key = cursor.parse_key()?;
            cursor.expect_char('=')?;
            let value = cursor.parse_value()?;
            if !cursor.at_end() {
                return Err(cursor.err(format!("trailing characters after value for `{key}`")));
            }
            let table = table_at_mut(&mut root, &current_path, line_no)?;
            table.insert(key, line_no, value)?;
        }
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
    /// The exact absorbing-race solver of [`crate::exact`]: no
    /// sampling, a provable truncation-error bound beside every
    /// answer. Stationary private-chain cells only.
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
/// [`crate::fuzz::run_case`]).
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// The exact absorbing-race solve, with per-threshold truncation
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

    /// Wall-clock seconds the estimate took to compute.
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        match self {
            Estimate::Wilson(run) => run.elapsed_secs,
            Estimate::Splitting(run) => run.elapsed_secs,
            Estimate::Exact(run) => run.elapsed_secs,
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

/// A runnable plan built from a concrete spec.
#[derive(Debug, Clone)]
pub enum ExperimentPlan {
    /// A scenario Monte-Carlo fan-out.
    Scenario(ScenarioPlan),
    /// A stationary fan-out with the bare adversary for `strategy`.
    Stationary {
        /// The trial plan (config, rounds, trials, thresholds).
        plan: TrialPlan,
        /// Strategy each trial runs.
        strategy: StrategyKind,
        /// Composition table for `composed(i)` strategies.
        compositions: Vec<Composition>,
        /// The splitting plan when the spec selects
        /// `estimator = "splitting"` (replaces the Wilson estimate).
        splitting: Option<SplittingPlan>,
    },
    /// An exact absorbing-race solve (`backend = "markov"`).
    Exact(ExactPlan),
}

impl ExperimentPlan {
    /// Executes the plan on whichever backend the spec selected and
    /// returns the backend-tagged outcome: Wilson Monte-Carlo by
    /// default, the splitting estimator when
    /// `estimator = "splitting"`, the exact race solve when
    /// `backend = "markov"`.
    ///
    /// # Panics
    ///
    /// Panics if a `composed(i)` strategy indexes past the composition
    /// table — [`ExperimentSpec::plan`] validates this at construction.
    #[must_use]
    pub fn execute(&self) -> CellOutcome {
        let estimate = match self {
            ExperimentPlan::Scenario(plan) => Estimate::Wilson(plan.run()),
            ExperimentPlan::Stationary {
                splitting: Some(_), ..
            } => Estimate::Splitting(self.run_splitting()),
            ExperimentPlan::Stationary { .. } => Estimate::Wilson(self.run_montecarlo()),
            ExperimentPlan::Exact(plan) => Estimate::Exact(plan.run()),
        };
        CellOutcome {
            estimate,
            rounds_per_trial: self.rounds_per_trial(),
        }
    }

    /// The Wilson Monte-Carlo half of a sampling plan.
    fn run_montecarlo(&self) -> MonteCarloRun {
        match self {
            ExperimentPlan::Scenario(plan) => plan.run(),
            ExperimentPlan::Stationary {
                plan,
                strategy,
                compositions,
                ..
            } => {
                let delta = plan.config.delta;
                match *strategy {
                    StrategyKind::Honest => plan.run(|_| ImmediateReleaseAdversary::new()),
                    StrategyKind::PrivateChain => {
                        plan.run(move |_| PrivateChainAdversary::new(delta))
                    }
                    StrategyKind::Balance => plan.run(move |_| BalanceAdversary::new(delta)),
                    StrategyKind::Selfish => plan.run(move |_| SelfishMiningAdversary::new(delta)),
                    StrategyKind::Composed(i) => {
                        let composition = compositions[i].clone();
                        plan.run(move |_| ComposedAdversary::new(delta, composition.clone()))
                    }
                }
            }
            ExperimentPlan::Exact(_) => unreachable!("exact plans never sample"), // detlint: allow(panic-macro) -- execute() routes Exact plans to ExactPlan::run, never here
        }
    }

    /// The splitting half of a sampling plan, dispatching the strategy
    /// exactly as [`ExperimentPlan::run_montecarlo`] does.
    fn run_splitting(&self) -> SplittingRun {
        let ExperimentPlan::Stationary {
            strategy,
            compositions,
            splitting: Some(splitting),
            ..
        } = self
        else {
            unreachable!("execute() only routes splitting plans here"); // detlint: allow(panic-macro) -- sole caller matches Stationary with splitting Some first
        };
        let delta = splitting.config.delta;
        match *strategy {
            StrategyKind::Honest => splitting.run(|_| ImmediateReleaseAdversary::new()),
            StrategyKind::PrivateChain => splitting.run(move |_| PrivateChainAdversary::new(delta)),
            StrategyKind::Balance => splitting.run(move |_| BalanceAdversary::new(delta)),
            StrategyKind::Selfish => splitting.run(move |_| SelfishMiningAdversary::new(delta)),
            StrategyKind::Composed(i) => {
                let composition = compositions[i].clone();
                splitting.run(move |_| ComposedAdversary::new(delta, composition.clone()))
            }
        }
    }

    /// Rounds each trial simulates (the scenario total, or the
    /// stationary `rounds`).
    #[must_use]
    pub fn rounds_per_trial(&self) -> u64 {
        match self {
            ExperimentPlan::Scenario(plan) => plan.scenario.total_rounds(),
            ExperimentPlan::Stationary { plan, .. } => plan.rounds,
            ExperimentPlan::Exact(plan) => plan.rounds,
        }
    }
}

impl ScenarioPlan {
    /// Builds the scenario Monte-Carlo plan a spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the spec is stationary-mode or its
    /// scenario fails validation.
    pub fn from_spec(spec: &ExperimentSpec) -> Result<Self, SpecError> {
        let ExperimentMode::Scenario(_) = &spec.mode else {
            return Err(SpecError::whole(
                "ScenarioPlan::from_spec needs [[phase]] tables, found a [stationary] spec",
            ));
        };
        let scenario = spec.scenario()?;
        let plan = ScenarioPlan::new(scenario, spec.run.trials)
            .map_err(|e| SpecError::whole(e.to_string()))?;
        Ok(plan.thresholds(spec.run.thresholds.clone()))
    }
}

impl TrialPlan {
    /// Builds the stationary trial plan a spec describes (the strategy
    /// itself is carried by [`ExperimentPlan`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the spec is scenario-mode or the plan
    /// fails validation.
    pub fn from_spec(spec: &ExperimentSpec) -> Result<Self, SpecError> {
        let ExperimentMode::Stationary { rounds, .. } = spec.mode else {
            return Err(SpecError::whole(
                "TrialPlan::from_spec needs a [stationary] table, found [[phase] ] tables",
            ));
        };
        let plan = TrialPlan::new(spec.base, rounds, spec.run.trials)
            .map_err(|e| SpecError::whole(e.to_string()))?;
        let mut plan = plan.thresholds(spec.run.thresholds.clone());
        if let Some(half_width) = spec.run.stop_half_width {
            plan = plan.with_stopping(half_width, 0);
        }
        Ok(plan)
    }
}

impl SplittingPlan {
    /// Builds the splitting plan a spec describes: the base config and
    /// stationary horizon, the spec's thresholds, the
    /// `splitting_levels` schedule, and `splitting_effort` replicas per
    /// level (defaulting to `trials` when 0 so a bare
    /// `estimator = "splitting"` line is runnable).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for scenario-mode specs (the splitting
    /// level function needs the stationary engine), missing thresholds,
    /// or an invalid level schedule.
    pub fn from_spec(spec: &ExperimentSpec) -> Result<Self, SpecError> {
        let ExperimentMode::Stationary { rounds, .. } = spec.mode else {
            return Err(SpecError::whole(
                "the splitting estimator needs a [stationary] table; scenario specs only support `estimator = \"wilson\"`",
            ));
        };
        let effort = if spec.run.splitting.effort == 0 {
            spec.run.trials
        } else {
            spec.run.splitting.effort
        };
        SplittingPlan::new(spec.base, rounds, effort, spec.run.thresholds.clone())
            .map_err(|e| SpecError::whole(e.to_string()))?
            .with_levels(spec.run.splitting.levels.clone())
            .map_err(|e| SpecError::whole(e.to_string()))
    }
}

impl ExactPlan {
    /// Builds the exact-backend plan a `backend = "markov"` spec
    /// describes: the effective adversarial share from `[base]`, the
    /// spec's thresholds, and a race cap of
    /// `max(thresholds) + RACE_CAP_MARGIN`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for scenario-mode specs, stationary
    /// strategies other than `"private-chain"` (the race chain models
    /// exactly that attack), a selected splitting estimator, missing or
    /// out-of-range thresholds, and configurations outside the race
    /// analysis (`ν = 0` or a convergence-rate underflow).
    ///
    /// [`RACE_CAP_MARGIN`]: crate::exact::RACE_CAP_MARGIN
    pub fn from_spec(spec: &ExperimentSpec) -> Result<Self, SpecError> {
        let ExperimentMode::Stationary { strategy, rounds } = &spec.mode else {
            return Err(SpecError::whole(
                "`backend = \"markov\"` needs a [stationary] table; scenario cells only support `backend = \"montecarlo\"`",
            ));
        };
        if !matches!(strategy, StrategyKind::PrivateChain) {
            return Err(SpecError::whole(format!(
                "`backend = \"markov\"` models the private-chain race; strategy `{}` needs `backend = \"montecarlo\"`",
                strategy_token(*strategy)
            )));
        }
        if spec.run.estimator != EstimatorKind::Wilson {
            return Err(SpecError::whole(
                "`backend = \"markov\"` computes exact probabilities; `estimator = \"splitting\"` needs `backend = \"montecarlo\"`",
            ));
        }
        ExactPlan::new(spec.base, spec.run.thresholds.clone(), *rounds)
            .map_err(|e| SpecError::whole(e.to_string()))
    }
}

impl ExperimentSpec {
    /// Parses and validates a spec document.
    ///
    /// # Errors
    ///
    /// Returns a positioned [`SpecError`] on malformed syntax, unknown
    /// or duplicate keys, and out-of-range values.
    pub fn parse(input: &str) -> Result<Self, SpecError> {
        let mut root = parse_document(input)?;

        // [experiment]
        let mut run = RunSettings::default();
        let mut backend_line = None;
        if let Some((_, mut table)) = root.take_table("experiment")? {
            if let Some((line, trials)) = table.take_u64("trials")? {
                if trials == 0 {
                    return Err(SpecError::new(line, "`trials` must be at least 1"));
                }
                run.trials = trials;
            }
            if let Some((line, items)) = table.take_array("thresholds")? {
                run.thresholds = items
                    .iter()
                    .map(|item| match item {
                        SpecValue::Int(i) => u64::try_from(*i).map_err(|_| {
                            SpecError::new(line, "`thresholds` entries must be unsigned integers")
                        }),
                        other => Err(SpecError::new(
                            line,
                            format!(
                                "`thresholds` entries must be integers, got a {}",
                                other.type_name()
                            ),
                        )),
                    })
                    .collect::<Result<_, _>>()?;
            }
            if let Some((line, token)) = table.take_str("estimator")? {
                run.estimator = token
                    .parse()
                    .map_err(|e: UnknownToken| SpecError::new(line, e.to_string()))?;
            }
            if let Some((line, token)) = table.take_str("backend")? {
                run.backend = token
                    .parse()
                    .map_err(|e: UnknownToken| SpecError::new(line, e.to_string()))?;
                backend_line = Some(line);
            }
            if let Some((line, items)) = table.take_array("splitting_levels")? {
                let levels = items
                    .iter()
                    .map(|item| match item {
                        SpecValue::Int(i) => u64::try_from(*i).map_err(|_| {
                            SpecError::new(
                                line,
                                "`splitting_levels` entries must be unsigned integers",
                            )
                        }),
                        other => Err(SpecError::new(
                            line,
                            format!(
                                "`splitting_levels` entries must be integers, got a {}",
                                other.type_name()
                            ),
                        )),
                    })
                    .collect::<Result<_, _>>()?;
                run.splitting.levels = Some(levels);
            }
            if let Some((line, effort)) = table.take_u64("splitting_effort")? {
                if effort == 0 {
                    return Err(SpecError::new(
                        line,
                        "`splitting_effort` must be at least 1 (omit the key to reuse `trials`)",
                    ));
                }
                run.splitting.effort = effort;
            }
            if let Some((line, half_width)) = table.take_f64("stop_half_width")? {
                if !(half_width > 0.0 && half_width < 1.0) {
                    return Err(SpecError::new(
                        line,
                        format!("`stop_half_width` must lie in (0, 1), got {half_width}"),
                    ));
                }
                run.stop_half_width = Some(half_width);
            }
            table.expect_empty("[experiment]")?;
        }

        // [fuzz]
        let fuzz = match root.take_table("fuzz")? {
            None => None,
            Some((line, mut table)) => {
                let header = FuzzHeader {
                    master_seed: table
                        .take_u64("master_seed")?
                        .ok_or_else(|| SpecError::new(line, "[fuzz] needs `master_seed`"))?
                        .1,
                    case: table
                        .take_u64("case")?
                        .ok_or_else(|| SpecError::new(line, "[fuzz] needs `case`"))?
                        .1,
                    invariant: table
                        .take_str("invariant")?
                        .map_or_else(String::new, |(_, s)| s),
                    detail: table
                        .take_str("detail")?
                        .map_or_else(String::new, |(_, s)| s),
                };
                table.expect_empty("[fuzz]")?;
                Some(header)
            }
        };

        // [base]
        let (base_line, mut base_table) = root
            .take_table("base")?
            .ok_or_else(|| SpecError::whole("spec needs a [base] table"))?;
        let n_miners = base_table
            .take_u64("n_miners")?
            .ok_or_else(|| SpecError::new(base_line, "[base] needs `n_miners`"))?
            .1;
        let delta = base_table
            .take_u64("delta")?
            .ok_or_else(|| SpecError::new(base_line, "[base] needs `delta`"))?
            .1;
        let adversary_fraction = base_table
            .take_f64("adversary_fraction")?
            .ok_or_else(|| SpecError::new(base_line, "[base] needs `adversary_fraction`"))?
            .1;
        let seed = base_table.take_u64("seed")?.map_or(0, |(_, s)| s);
        let hardness = base_table.take_f64("hardness")?;
        let c = base_table.take_f64("c")?;
        base_table.expect_empty("[base]")?;
        let hardness = match (hardness, c) {
            (Some((_, p)), None) => p,
            #[allow(clippy::cast_precision_loss)]
            (None, Some((line, c))) => {
                if !(c > 0.0) || c.is_nan() {
                    return Err(SpecError::new(
                        line,
                        format!("`c` must be positive, got {c}"),
                    ));
                }
                1.0 / (c * n_miners as f64 * delta as f64)
            }
            (Some(_), Some((line, _))) => {
                return Err(SpecError::new(
                    line,
                    "[base] takes either `hardness` or `c`, not both",
                ))
            }
            (None, None) => {
                return Err(SpecError::new(base_line, "[base] needs `hardness` or `c`"))
            }
        };
        let base = SimConfig {
            n_miners,
            adversary_fraction,
            hardness,
            delta,
            seed,
        };
        base.validate()
            .map_err(|e| SpecError::new(base_line, e.to_string()))?;

        // [[composition]]
        let mut compositions = Vec::new();
        for (comp_line, mut table) in root.take_array_of_tables("composition")? {
            let (subs_line, items) = table
                .take_array("subs")?
                .ok_or_else(|| SpecError::new(comp_line, "[[composition]] needs `subs`"))?;
            let mut subs = Vec::with_capacity(items.len());
            for item in items {
                let SpecValue::Table(mut sub) = item else {
                    return Err(SpecError::new(
                        subs_line,
                        "`subs` entries must be inline tables { strategy = \"…\", weight = N }",
                    ));
                };
                let (strategy_line, token) = sub
                    .take_str("strategy")?
                    .ok_or_else(|| SpecError::new(subs_line, "every sub needs a `strategy`"))?;
                let strategy = parse_strategy(&token).ok_or_else(|| {
                    SpecError::new(strategy_line, format!("unknown strategy `{token}`"))
                })?;
                if matches!(strategy, StrategyKind::Composed(_)) {
                    return Err(SpecError::new(
                        strategy_line,
                        "compositions cannot nest `composed(i)` subs",
                    ));
                }
                let weight = sub
                    .take_u64("weight")?
                    .ok_or_else(|| SpecError::new(subs_line, "every sub needs a `weight`"))?
                    .1;
                sub.expect_empty("a composition sub")?;
                subs.push(SubSpec::new(strategy, weight));
            }
            compositions.push(
                Composition::new(subs).map_err(|e| SpecError::new(subs_line, e.to_string()))?,
            );
        }

        // [[phase]]
        let mut phases = Vec::new();
        for (phase_line, mut table) in root.take_array_of_tables("phase")? {
            let (rounds_line, rounds) = table
                .take_u64("rounds")?
                .ok_or_else(|| SpecError::new(phase_line, "[[phase]] needs `rounds`"))?;
            if rounds == 0 {
                return Err(SpecError::new(rounds_line, "`rounds` must be at least 1"));
            }
            let (strategy_line, token) = table
                .take_str("strategy")?
                .ok_or_else(|| SpecError::new(phase_line, "[[phase]] needs `strategy`"))?;
            let strategy = parse_strategy(&token).ok_or_else(|| {
                SpecError::new(strategy_line, format!("unknown strategy `{token}`"))
            })?;
            if let StrategyKind::Composed(i) = strategy {
                if i >= compositions.len() {
                    return Err(SpecError::new(
                        strategy_line,
                        format!(
                            "`composed({i})` indexes past the composition table (len {})",
                            compositions.len()
                        ),
                    ));
                }
            }
            let (regime_line, token) = table
                .take_str("regime")?
                .ok_or_else(|| SpecError::new(phase_line, "[[phase]] needs `regime`"))?;
            let regime = parse_regime(&token)
                .ok_or_else(|| SpecError::new(regime_line, format!("unknown regime `{token}`")))?;
            if let Regime::Eclipse { group } = regime {
                if group >= 2 {
                    return Err(SpecError::new(
                        regime_line,
                        format!("`eclipse({group})`: only groups 0 and 1 exist"),
                    ));
                }
            }
            let mut phase = PhaseSpec::new(rounds, strategy, regime);
            if let Some((line, nu)) = table.take_f64("adversary_fraction")? {
                let mut cfg = base;
                cfg.adversary_fraction = nu;
                cfg.validate()
                    .map_err(|e| SpecError::new(line, e.to_string()))?;
                phase = phase.with_power(nu);
            }
            if let Some((line, p)) = table.take_f64("hardness")? {
                let mut cfg = base;
                cfg.hardness = p;
                cfg.validate()
                    .map_err(|e| SpecError::new(line, e.to_string()))?;
                phase = phase.with_hardness(p);
            }
            if let Some((line, d)) = table.take_u64("detector_delta")? {
                if d == 0 || d > base.delta {
                    return Err(SpecError::new(
                        line,
                        format!("`detector_delta` = {d} must lie in [1, Δ = {}]", base.delta),
                    ));
                }
                phase = phase.with_detector_delta(d);
            }
            table.expect_empty("[[phase]]")?;
            phases.push(phase);
        }

        // [stationary]
        let stationary = match root.take_table("stationary")? {
            None => None,
            Some((line, mut table)) => {
                let (strategy_line, token) = table
                    .take_str("strategy")?
                    .ok_or_else(|| SpecError::new(line, "[stationary] needs `strategy`"))?;
                let strategy = parse_strategy(&token).ok_or_else(|| {
                    SpecError::new(strategy_line, format!("unknown strategy `{token}`"))
                })?;
                if let StrategyKind::Composed(i) = strategy {
                    if i >= compositions.len() {
                        return Err(SpecError::new(
                            strategy_line,
                            format!(
                                "`composed({i})` indexes past the composition table (len {})",
                                compositions.len()
                            ),
                        ));
                    }
                }
                let (rounds_line, rounds) = table
                    .take_u64("rounds")?
                    .ok_or_else(|| SpecError::new(line, "[stationary] needs `rounds`"))?;
                if rounds == 0 {
                    return Err(SpecError::new(rounds_line, "`rounds` must be at least 1"));
                }
                table.expect_empty("[stationary]")?;
                Some((line, ExperimentMode::Stationary { strategy, rounds }))
            }
        };

        let mode = match (phases.is_empty(), stationary) {
            (false, None) => ExperimentMode::Scenario(phases),
            (true, Some((_, mode))) => mode,
            (true, None) => {
                return Err(SpecError::whole(
                    "spec needs either [[phase]] tables or a [stationary] table",
                ))
            }
            (false, Some((line, _))) => {
                return Err(SpecError::new(
                    line,
                    "spec has both [[phase]] tables and a [stationary] table; pick one",
                ))
            }
        };

        // Positioned rejection of the markov backend outside its
        // tractable regime (validate() re-checks the same conditions
        // without positions for patched specs).
        if run.backend == BackendKind::Markov {
            let line = backend_line.unwrap_or(0);
            match &mode {
                ExperimentMode::Scenario(_) => {
                    return Err(SpecError::new(
                        line,
                        "`backend = \"markov\"` needs a [stationary] table; scenario cells only support `backend = \"montecarlo\"`",
                    ))
                }
                ExperimentMode::Stationary { strategy, .. }
                    if !matches!(strategy, StrategyKind::PrivateChain) =>
                {
                    return Err(SpecError::new(
                        line,
                        format!(
                            "`backend = \"markov\"` models the private-chain race; strategy `{}` needs `backend = \"montecarlo\"`",
                            strategy_token(*strategy)
                        ),
                    ))
                }
                ExperimentMode::Stationary { .. } => {}
            }
        }

        // [sweep]
        let sweep = match root.take_table("sweep")? {
            None => None,
            Some((line, mut table)) => {
                let seed = table
                    .take_u64("seed")?
                    .ok_or_else(|| SpecError::new(line, "[sweep] needs `seed`"))?
                    .1;
                let mut axes = Vec::new();
                for (axis_line, mut axis_table) in table.take_array_of_tables("axis")? {
                    let label = axis_table
                        .take_str("label")?
                        .ok_or_else(|| SpecError::new(axis_line, "[[sweep.axis]] needs `label`"))?
                        .1;
                    let mut cells = Vec::new();
                    for (cell_line, mut cell_table) in axis_table.take_array_of_tables("cell")? {
                        let cell_label = cell_table
                            .take_str("label")?
                            .ok_or_else(|| {
                                SpecError::new(cell_line, "[[sweep.axis.cell]] needs `label`")
                            })?
                            .1;
                        let patches = match cell_table.take("patch") {
                            None => Vec::new(),
                            Some((_, SpecValue::Table(patch))) => patch
                                .entries
                                .into_iter()
                                .map(|e| (e.key, e.value))
                                .collect(),
                            Some((patch_line, other)) => {
                                return Err(SpecError::new(
                                    patch_line,
                                    format!(
                                        "`patch` must be an inline table, got a {}",
                                        other.type_name()
                                    ),
                                ))
                            }
                        };
                        cell_table.expect_empty("[[sweep.axis.cell]]")?;
                        cells.push(SweepCell {
                            label: cell_label,
                            patches,
                        });
                    }
                    if cells.is_empty() {
                        return Err(SpecError::new(
                            axis_line,
                            "every sweep axis needs at least one [[sweep.axis.cell]]",
                        ));
                    }
                    axis_table.expect_empty("[[sweep.axis]]")?;
                    axes.push(SweepAxis { label, cells });
                }
                if axes.is_empty() {
                    return Err(SpecError::new(
                        line,
                        "[sweep] needs at least one [[sweep.axis]]",
                    ));
                }
                table.expect_empty("[sweep]")?;
                Some(SweepSpec { seed, axes })
            }
        };

        root.expect_empty("the spec document")?;
        let spec = ExperimentSpec {
            run,
            base,
            compositions,
            mode,
            sweep,
            fuzz,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Re-checks the semantic invariants (used after programmatic
    /// mutation or sweep patching; [`ExperimentSpec::parse`] reports
    /// the same conditions with source positions).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.run.trials == 0 {
            return Err(SpecError::whole("experiment.trials must be at least 1"));
        }
        self.base
            .validate()
            .map_err(|e| SpecError::whole(e.to_string()))?;
        match &self.mode {
            ExperimentMode::Scenario(_) => {
                self.scenario()?;
            }
            ExperimentMode::Stationary { strategy, rounds } => {
                if *rounds == 0 {
                    return Err(SpecError::whole("stationary.rounds must be at least 1"));
                }
                if let StrategyKind::Composed(i) = strategy {
                    if *i >= self.compositions.len() {
                        return Err(SpecError::whole(format!(
                            "stationary strategy `composed({i})` indexes past the composition table (len {})",
                            self.compositions.len()
                        )));
                    }
                }
            }
        }
        if self.run.backend == BackendKind::Markov {
            // Surfaces scenario-mode and strategy conflicts, estimator
            // conflicts, and out-of-range thresholds with the exact
            // plan's own checks.
            ExactPlan::from_spec(self)?;
        }
        if self.run.estimator == EstimatorKind::Splitting {
            // Surfaces scenario-mode conflicts, missing thresholds, and
            // bad level schedules with the splitting plan's own checks.
            SplittingPlan::from_spec(self)?;
        } else if self.run.splitting != SplittingSettings::default() {
            return Err(SpecError::whole(
                "splitting_levels / splitting_effort need `estimator = \"splitting\"`",
            ));
        }
        if let Some(half_width) = self.run.stop_half_width {
            if !(half_width > 0.0 && half_width < 1.0) {
                return Err(SpecError::whole(format!(
                    "experiment.stop_half_width must lie in (0, 1), got {half_width}"
                )));
            }
            if self.run.thresholds.is_empty() {
                return Err(SpecError::whole(
                    "experiment.stop_half_width needs at least one consistency threshold",
                ));
            }
            if !matches!(self.mode, ExperimentMode::Stationary { .. }) {
                return Err(SpecError::whole(
                    "experiment.stop_half_width needs a [stationary] table; scenario cells run their fixed budget",
                ));
            }
        }
        Ok(())
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
                "a stationary spec has no scenario; use TrialPlan::from_spec",
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
        match &self.mode {
            ExperimentMode::Scenario(_) => {
                self.validate()?;
                Ok(ExperimentPlan::Scenario(ScenarioPlan::from_spec(self)?))
            }
            ExperimentMode::Stationary { strategy, .. } => {
                self.validate()?;
                if self.run.backend == BackendKind::Markov {
                    return Ok(ExperimentPlan::Exact(ExactPlan::from_spec(self)?));
                }
                let splitting = match self.run.estimator {
                    EstimatorKind::Wilson => None,
                    EstimatorKind::Splitting => Some(SplittingPlan::from_spec(self)?),
                };
                Ok(ExperimentPlan::Stationary {
                    plan: TrialPlan::from_spec(self)?,
                    strategy: *strategy,
                    compositions: self.compositions.clone(),
                    splitting,
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
        let Some(sweep) = &self.sweep else {
            let mut spec = self.clone();
            spec.fuzz = None;
            return Ok(vec![ExperimentCell {
                labels: Vec::new(),
                spec,
            }]);
        };
        let shape: Vec<usize> = sweep.axes.iter().map(|a| a.cells.len()).collect();
        let mut seeds = SplitMix64::new(sweep.seed);
        let mut cells = Vec::new();
        let mut idx = vec![0usize; shape.len()];
        loop {
            let mut spec = self.clone();
            spec.sweep = None;
            spec.fuzz = None;
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

    /// Applies one dotted-path patch (`base.adversary_fraction`,
    /// `phase.1.strategy`, `composition.0.weights`,
    /// `stationary.strategy`, `experiment.trials`, …) to this spec.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] (line 0) for unknown paths or
    /// type-mismatched values.
    pub fn apply_patch(&mut self, path: &str, value: &SpecValue) -> Result<(), SpecError> {
        let segments: Vec<&str> = path.split('.').collect();
        let bad_path = || SpecError::whole(format!("unknown patch path `{path}`"));
        let bad_value = |want: &str| {
            SpecError::whole(format!(
                "patch `{path}` needs a {want}, got a {}",
                value.type_name()
            ))
        };
        match segments.as_slice() {
            ["base", field] => {
                match *field {
                    "n_miners" => {
                        self.base.n_miners =
                            patch_u64(value).ok_or_else(|| bad_value("non-negative integer"))?
                    }
                    "delta" => {
                        self.base.delta =
                            patch_u64(value).ok_or_else(|| bad_value("non-negative integer"))?
                    }
                    "seed" => {
                        self.base.seed =
                            patch_u64(value).ok_or_else(|| bad_value("non-negative integer"))?
                    }
                    "adversary_fraction" => {
                        self.base.adversary_fraction =
                            value_as_f64(value).ok_or_else(|| bad_value("number"))?;
                    }
                    "hardness" => {
                        self.base.hardness =
                            value_as_f64(value).ok_or_else(|| bad_value("number"))?;
                    }
                    #[allow(clippy::cast_precision_loss)]
                    "c" => {
                        let c = value_as_f64(value).ok_or_else(|| bad_value("number"))?;
                        if !(c > 0.0) || c.is_nan() {
                            return Err(SpecError::whole(format!(
                                "patch `{path}`: c must be positive, got {c}"
                            )));
                        }
                        self.base.hardness =
                            1.0 / (c * self.base.n_miners as f64 * self.base.delta as f64);
                    }
                    _ => return Err(bad_path()),
                }
                Ok(())
            }
            ["experiment", "trials"] => {
                let trials = patch_u64(value).ok_or_else(|| bad_value("non-negative integer"))?;
                self.run.trials = trials;
                Ok(())
            }
            ["experiment", "estimator"] => {
                let SpecValue::Str(token) = value else {
                    return Err(bad_value("estimator string"));
                };
                self.run.estimator = token
                    .parse()
                    .map_err(|e: UnknownToken| SpecError::whole(format!("patch `{path}`: {e}")))?;
                Ok(())
            }
            ["experiment", "backend"] => {
                let SpecValue::Str(token) = value else {
                    return Err(bad_value("backend string"));
                };
                self.run.backend = token
                    .parse()
                    .map_err(|e: UnknownToken| SpecError::whole(format!("patch `{path}`: {e}")))?;
                Ok(())
            }
            ["experiment", "splitting_effort"] => {
                self.run.splitting.effort =
                    patch_u64(value).ok_or_else(|| bad_value("non-negative integer"))?;
                Ok(())
            }
            ["experiment", "stop_half_width"] => {
                self.run.stop_half_width =
                    Some(value_as_f64(value).ok_or_else(|| bad_value("number"))?);
                Ok(())
            }
            ["experiment", "splitting_levels"] => {
                let SpecValue::Array(items) = value else {
                    return Err(bad_value("array of integers"));
                };
                let levels = items
                    .iter()
                    .map(|item| patch_u64(item).ok_or_else(|| bad_value("array of integers")))
                    .collect::<Result<_, _>>()?;
                self.run.splitting.levels = Some(levels);
                Ok(())
            }
            ["stationary", field] => {
                let ExperimentMode::Stationary { strategy, rounds } = &mut self.mode else {
                    return Err(SpecError::whole(format!(
                        "patch `{path}` needs a [stationary] spec"
                    )));
                };
                match *field {
                    "strategy" => {
                        let SpecValue::Str(token) = value else {
                            return Err(bad_value("strategy string"));
                        };
                        *strategy = parse_strategy(token).ok_or_else(|| {
                            SpecError::whole(format!("patch `{path}`: unknown strategy `{token}`"))
                        })?;
                    }
                    "rounds" => {
                        *rounds =
                            patch_u64(value).ok_or_else(|| bad_value("non-negative integer"))?;
                    }
                    _ => return Err(bad_path()),
                }
                Ok(())
            }
            ["phase", index, field] => {
                let i: usize = index.parse().map_err(|_| bad_path())?;
                let ExperimentMode::Scenario(phases) = &mut self.mode else {
                    return Err(SpecError::whole(format!(
                        "patch `{path}` needs [[phase]] tables"
                    )));
                };
                let phase = phases.get_mut(i).ok_or_else(|| {
                    SpecError::whole(format!("patch `{path}`: phase index {i} out of range"))
                })?;
                match *field {
                    "rounds" => {
                        phase.rounds =
                            patch_u64(value).ok_or_else(|| bad_value("non-negative integer"))?;
                    }
                    "strategy" => {
                        let SpecValue::Str(token) = value else {
                            return Err(bad_value("strategy string"));
                        };
                        phase.strategy = parse_strategy(token).ok_or_else(|| {
                            SpecError::whole(format!("patch `{path}`: unknown strategy `{token}`"))
                        })?;
                    }
                    "regime" => {
                        let SpecValue::Str(token) = value else {
                            return Err(bad_value("regime string"));
                        };
                        phase.regime = parse_regime(token).ok_or_else(|| {
                            SpecError::whole(format!("patch `{path}`: unknown regime `{token}`"))
                        })?;
                    }
                    "adversary_fraction" => {
                        phase.adversary_fraction =
                            Some(value_as_f64(value).ok_or_else(|| bad_value("number"))?);
                    }
                    "hardness" => {
                        phase.hardness =
                            Some(value_as_f64(value).ok_or_else(|| bad_value("number"))?);
                    }
                    "detector_delta" => {
                        phase.detector_delta = Some(
                            patch_u64(value).ok_or_else(|| bad_value("non-negative integer"))?,
                        );
                    }
                    _ => return Err(bad_path()),
                }
                Ok(())
            }
            ["composition", index, field] => {
                let i: usize = index.parse().map_err(|_| bad_path())?;
                let composition = self.compositions.get(i).ok_or_else(|| {
                    SpecError::whole(format!(
                        "patch `{path}`: composition index {i} out of range"
                    ))
                })?;
                let mut subs = composition.subs().to_vec();
                let SpecValue::Array(items) = value else {
                    return Err(bad_value("array"));
                };
                if items.len() != subs.len() {
                    return Err(SpecError::whole(format!(
                        "patch `{path}`: {} entries for {} subs",
                        items.len(),
                        subs.len()
                    )));
                }
                match *field {
                    "weights" => {
                        for (sub, item) in subs.iter_mut().zip(items) {
                            sub.weight =
                                patch_u64(item).ok_or_else(|| bad_value("array of integers"))?;
                        }
                    }
                    "strategies" => {
                        for (sub, item) in subs.iter_mut().zip(items) {
                            let SpecValue::Str(token) = item else {
                                return Err(bad_value("array of strategy strings"));
                            };
                            let strategy = parse_strategy(token).ok_or_else(|| {
                                SpecError::whole(format!(
                                    "patch `{path}`: unknown strategy `{token}`"
                                ))
                            })?;
                            if matches!(strategy, StrategyKind::Composed(_)) {
                                return Err(SpecError::whole(format!(
                                    "patch `{path}`: compositions cannot nest `composed(i)`"
                                )));
                            }
                            sub.strategy = strategy;
                        }
                    }
                    _ => return Err(bad_path()),
                }
                self.compositions[i] = Composition::new(subs)
                    .map_err(|e| SpecError::whole(format!("patch `{path}`: {e}")))?;
                Ok(())
            }
            _ => Err(bad_path()),
        }
    }

    /// Serializes the spec into its canonical TOML document;
    /// [`ExperimentSpec::parse`] of the output yields an equal spec.
    #[must_use]
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        out.push_str("[experiment]\n");
        out.push_str(&format!("trials = {}\n", self.run.trials));
        if !self.run.thresholds.is_empty() {
            let list: Vec<String> = self.run.thresholds.iter().map(u64::to_string).collect();
            out.push_str(&format!("thresholds = [{}]\n", list.join(", ")));
        }
        if self.run.backend != BackendKind::MonteCarlo {
            out.push_str(&format!(
                "backend = {}\n",
                emit_str(&self.run.backend.to_string())
            ));
        }
        if self.run.estimator != EstimatorKind::Wilson {
            out.push_str(&format!(
                "estimator = {}\n",
                emit_str(&self.run.estimator.to_string())
            ));
        }
        if let Some(levels) = &self.run.splitting.levels {
            let list: Vec<String> = levels.iter().map(u64::to_string).collect();
            out.push_str(&format!("splitting_levels = [{}]\n", list.join(", ")));
        }
        if self.run.splitting.effort != 0 {
            out.push_str(&format!(
                "splitting_effort = {}\n",
                self.run.splitting.effort
            ));
        }
        if let Some(half_width) = self.run.stop_half_width {
            out.push_str(&format!("stop_half_width = {}\n", emit_f64(half_width)));
        }
        if let Some(fuzz) = &self.fuzz {
            out.push_str("\n[fuzz]\n");
            out.push_str(&format!("master_seed = {}\n", fuzz.master_seed));
            out.push_str(&format!("case = {}\n", fuzz.case));
            out.push_str(&format!("invariant = {}\n", emit_str(&fuzz.invariant)));
            out.push_str(&format!("detail = {}\n", emit_str(&fuzz.detail)));
        }
        out.push_str("\n[base]\n");
        out.push_str(&format!("n_miners = {}\n", self.base.n_miners));
        out.push_str(&format!(
            "adversary_fraction = {}\n",
            emit_f64(self.base.adversary_fraction)
        ));
        out.push_str(&format!("hardness = {}\n", emit_f64(self.base.hardness)));
        out.push_str(&format!("delta = {}\n", self.base.delta));
        out.push_str(&format!("seed = {}\n", self.base.seed));
        match &self.mode {
            ExperimentMode::Stationary { strategy, rounds } => {
                out.push_str("\n[stationary]\n");
                out.push_str(&format!(
                    "strategy = {}\n",
                    emit_str(&strategy_token(*strategy))
                ));
                out.push_str(&format!("rounds = {rounds}\n"));
            }
            ExperimentMode::Scenario(_) => {}
        }
        for composition in &self.compositions {
            out.push_str("\n[[composition]]\nsubs = [");
            for (i, sub) in composition.subs().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{ strategy = {}, weight = {} }}",
                    emit_str(&strategy_token(sub.strategy)),
                    sub.weight
                ));
            }
            out.push_str("]\n");
        }
        if let ExperimentMode::Scenario(phases) = &self.mode {
            for phase in phases {
                out.push_str("\n[[phase]]\n");
                out.push_str(&format!("rounds = {}\n", phase.rounds));
                out.push_str(&format!(
                    "strategy = {}\n",
                    emit_str(&strategy_token(phase.strategy))
                ));
                out.push_str(&format!(
                    "regime = {}\n",
                    emit_str(&regime_token(phase.regime))
                ));
                if let Some(nu) = phase.adversary_fraction {
                    out.push_str(&format!("adversary_fraction = {}\n", emit_f64(nu)));
                }
                if let Some(p) = phase.hardness {
                    out.push_str(&format!("hardness = {}\n", emit_f64(p)));
                }
                if let Some(d) = phase.detector_delta {
                    out.push_str(&format!("detector_delta = {d}\n"));
                }
            }
        }
        if let Some(sweep) = &self.sweep {
            out.push_str("\n[sweep]\n");
            out.push_str(&format!("seed = {}\n", sweep.seed));
            for axis in &sweep.axes {
                out.push_str("\n[[sweep.axis]]\n");
                out.push_str(&format!("label = {}\n", emit_str(&axis.label)));
                for cell in &axis.cells {
                    out.push_str("\n[[sweep.axis.cell]]\n");
                    out.push_str(&format!("label = {}\n", emit_str(&cell.label)));
                    if !cell.patches.is_empty() {
                        out.push_str("patch = { ");
                        for (i, (path, value)) in cell.patches.iter().enumerate() {
                            if i > 0 {
                                out.push_str(", ");
                            }
                            out.push_str(&format!("{} = {}", emit_str(path), emit_value(value)));
                        }
                        out.push_str(" }\n");
                    }
                }
            }
        }
        out
    }
}

fn patch_u64(value: &SpecValue) -> Option<u64> {
    match value {
        SpecValue::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

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
            let inner: Vec<String> = table
                .entries
                .iter()
                .map(|e| format!("{} = {}", emit_str(&e.key), emit_value(&e.value)))
                .collect();
            format!("{{ {} }}", inner.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let plan = SplittingPlan::from_spec(&spec).unwrap();
        assert_eq!(plan.effort, 16);
        assert_eq!(plan.thresholds, vec![4, 8]);
        assert_eq!(plan.stage_levels(), vec![2, 5, 9]);
    }

    #[test]
    fn splitting_effort_defaults_to_trials() {
        let source = SPLITTING_SPEC.replace("splitting_effort = 16\n", "");
        let spec = ExperimentSpec::parse(&source).unwrap();
        assert_eq!(spec.run.splitting.effort, 0);
        let plan = SplittingPlan::from_spec(&spec).unwrap();
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
        let from_spec = ScenarioPlan::from_spec(&spec).unwrap().run();
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
