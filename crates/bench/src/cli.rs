//! Shared command-line parsing for the harness binaries.
//!
//! Every binary used to hand-roll its own `std::env::args` loop
//! (twelve near-copies across `src/bin/`); this module centralises the
//! common vocabulary — positional budgets plus the
//! `--jobs`/`--seed`/`--budget`/`--out` flag family — with one
//! error style and per-binary opt-in, so an unsupported flag fails
//! loudly instead of being silently ignored.
//!
//! ```no_run
//! let args = consistency_bench::cli::Args::parse(
//!     "[rounds-per-trial] [trials]",
//!     2, // at most two positionals
//!     &["--jobs", "--seed"],
//! )?;
//! args.configure_jobs();
//! let rounds = args.pos_u64(0)?.unwrap_or(30_000);
//! let trials = args.pos_u64(1)?.unwrap_or(5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

/// Flags a binary may opt into (`Args::parse`'s `allowed` list).
/// Value-taking: `--jobs N`, `--seed N`, `--budget N`, `--rounds N`,
/// `--trials N`, `--out PATH`, `--replay PATH`, `--write [PATH]`,
/// `--check [PATH]`. Boolean: `--verbose`.
pub const KNOWN_FLAGS: &[&str] = &[
    "--jobs",
    "--seed",
    "--budget",
    "--rounds",
    "--trials",
    "--out",
    "--replay",
    "--write",
    "--check",
    "--verbose",
];

/// Flags whose value may be omitted (a following flag or end-of-args
/// leaves them at their default path).
const OPTIONAL_VALUE_FLAGS: &[&str] = &["--write", "--check"];

/// Parsed command line: positionals in order plus the recognised flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// Non-flag arguments, in order.
    pub positionals: Vec<String>,
    /// `--jobs N`: width of the process-wide executor pool — the only
    /// parallelism knob: `N` threads, the calling thread included
    /// (0 = one per CPU).
    pub jobs: Option<usize>,
    /// `--seed N`: master-seed override.
    pub seed: Option<u64>,
    /// `--budget N`: case/iteration budget.
    pub budget: Option<u64>,
    /// `--rounds N`: rounds-per-trial (or per-phase) override.
    pub rounds: Option<u64>,
    /// `--trials N`: trial-count override.
    pub trials: Option<u64>,
    /// `--out PATH`: machine-readable output path.
    pub out: Option<String>,
    /// `--replay PATH`: a saved repro spec to re-run.
    pub replay: Option<String>,
    /// `--write [PATH]`: write a fresh baseline (with `Some(None)` for
    /// the default path).
    pub write: Option<Option<String>>,
    /// `--check [PATH]`: check against a committed baseline.
    pub check: Option<Option<String>>,
    /// `--verbose`: stream per-cell completions and executor counters
    /// to stderr.
    pub verbose: bool,
}

impl Args {
    /// Parses `std::env::args`, accepting at most `max_positionals`
    /// positional arguments and only the `allowed` flags (each from
    /// [`KNOWN_FLAGS`]).
    ///
    /// # Errors
    ///
    /// Returns a usage-carrying message for unknown flags, excess
    /// positionals, missing flag values, or malformed numbers.
    pub fn parse(usage: &str, max_positionals: usize, allowed: &[&str]) -> Result<Self, String> {
        Self::parse_from(std::env::args().skip(1), usage, max_positionals, allowed)
    }

    /// [`Args::parse`] over an explicit argument iterator (how the
    /// unit tests drive the parser).
    ///
    /// # Errors
    ///
    /// Same contract as [`Args::parse`].
    pub fn parse_from<I>(
        args: I,
        usage: &str,
        max_positionals: usize,
        allowed: &[&str],
    ) -> Result<Self, String>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        debug_assert!(
            allowed.iter().all(|f| KNOWN_FLAGS.contains(f)),
            "allowed flags must come from KNOWN_FLAGS"
        );
        let mut parsed = Args::default();
        let mut iter = args.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            if !arg.starts_with("--") {
                if parsed.positionals.len() == max_positionals {
                    return Err(format!(
                        "unexpected argument `{arg}` (at most {max_positionals} positional argument(s)); usage: {usage}"
                    ));
                }
                parsed.positionals.push(arg);
                continue;
            }
            if !allowed.contains(&arg.as_str()) {
                return Err(format!("unknown argument `{arg}`; usage: {usage}"));
            }
            if arg == "--verbose" {
                parsed.verbose = true;
                continue;
            }
            let value = if OPTIONAL_VALUE_FLAGS.contains(&arg.as_str()) {
                match iter.peek() {
                    Some(next) if !next.starts_with("--") => iter.next(),
                    _ => None,
                }
            } else {
                Some(
                    iter.next()
                        .ok_or_else(|| format!("`{arg}` needs a value; usage: {usage}"))?,
                )
            };
            let number = |value: &Option<String>| -> Result<u64, String> {
                value
                    .as_ref()
                    .expect("value flags always carry a value here")
                    .parse()
                    .map_err(|_| {
                        format!(
                            "`{arg}` needs an unsigned integer, got `{}`",
                            value.as_deref().unwrap_or_default()
                        )
                    })
            };
            match arg.as_str() {
                "--jobs" => {
                    parsed.jobs = Some(usize::try_from(number(&value)?).map_err(|_| {
                        format!("`--jobs` does not fit usize: {}", value.unwrap_or_default())
                    })?);
                }
                "--seed" => parsed.seed = Some(number(&value)?),
                "--budget" => parsed.budget = Some(number(&value)?),
                "--rounds" => parsed.rounds = Some(number(&value)?),
                "--trials" => parsed.trials = Some(number(&value)?),
                "--out" => parsed.out = value,
                "--replay" => parsed.replay = value,
                "--write" => parsed.write = Some(value),
                "--check" => parsed.check = Some(value),
                _ => unreachable!("allowed ⊆ KNOWN_FLAGS"),
            }
        }
        Ok(parsed)
    }

    /// Applies `--jobs N` to the process-wide executor pool. Call it
    /// before the first fan-out: once the pool exists its width is
    /// fixed, and a late call only warns on stderr.
    pub fn configure_jobs(&self) {
        if let Some(jobs) = self.jobs {
            if !nakamoto_sim::executor::configure_global_width(jobs) {
                eprintln!("--jobs: the executor pool already exists; the width is unchanged");
            }
        }
    }

    /// The `i`-th positional as a `u64`, if given.
    ///
    /// # Errors
    ///
    /// Returns a message naming the position for non-numeric input.
    pub fn pos_u64(&self, i: usize) -> Result<Option<u64>, String> {
        self.positionals
            .get(i)
            .map(|s| {
                s.parse().map_err(|_| {
                    format!(
                        "positional argument {} must be an unsigned integer, got `{s}`",
                        i + 1
                    )
                })
            })
            .transpose()
    }

    /// The `i`-th positional as a `usize`, if given.
    ///
    /// # Errors
    ///
    /// Same contract as [`Args::pos_u64`].
    pub fn pos_usize(&self, i: usize) -> Result<Option<usize>, String> {
        Ok(self
            .pos_u64(i)?
            .map(|v| usize::try_from(v).expect("u64 budget fits usize on supported targets")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: &[&str] = KNOWN_FLAGS;

    #[test]
    fn positionals_and_flags_mix() {
        let args = Args::parse_from(
            [
                "5000", "--jobs", "4", "7", "--seed", "99", "--out", "x.json",
            ],
            "usage",
            2,
            ALL,
        )
        .unwrap();
        assert_eq!(args.positionals, vec!["5000", "7"]);
        assert_eq!(args.pos_u64(0).unwrap(), Some(5000));
        assert_eq!(args.pos_u64(1).unwrap(), Some(7));
        assert_eq!(args.pos_u64(2).unwrap(), None);
        assert_eq!(args.jobs, Some(4));
        assert_eq!(args.seed, Some(99));
        assert_eq!(args.out.as_deref(), Some("x.json"));
    }

    #[test]
    fn unsupported_flags_error_with_usage() {
        let err =
            Args::parse_from(["--budget", "3"], "usage: [rounds]", 1, &["--seed"]).unwrap_err();
        assert!(
            err.contains("--budget") && err.contains("usage: [rounds]"),
            "{err}"
        );
        let err = Args::parse_from(["--seed"], "u", 0, &["--seed"]).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
        let err = Args::parse_from(["--seed", "abc"], "u", 0, &["--seed"]).unwrap_err();
        assert!(err.contains("unsigned integer"), "{err}");
    }

    #[test]
    fn excess_positionals_are_rejected() {
        // The bench_sim regression: a stray path (forgotten --check)
        // must error, not be silently ignored.
        let err = Args::parse_from(["BENCH_sim.json"], "bench_sim [--check]", 0, ALL).unwrap_err();
        assert!(
            err.contains("unexpected argument `BENCH_sim.json`") && err.contains("bench_sim"),
            "{err}"
        );
        let err = Args::parse_from(["1", "2", "3"], "u", 2, ALL).unwrap_err();
        assert!(err.contains("unexpected argument `3`"), "{err}");
    }

    #[test]
    fn optional_value_flags_allow_bare_use() {
        let args = Args::parse_from(["--check"], "u", 0, ALL).unwrap();
        assert_eq!(args.check, Some(None));
        let args = Args::parse_from(["--write", "fresh.json"], "u", 0, ALL).unwrap();
        assert_eq!(args.write, Some(Some("fresh.json".into())));
        let args = Args::parse_from(["--check", "--verbose"], "u", 0, ALL).unwrap();
        assert_eq!(args.check, Some(None));
        assert!(args.verbose);
    }

    #[test]
    fn jobs_and_verbose_flags_parse() {
        let args = Args::parse_from(["--jobs", "4", "--verbose"], "u", 0, ALL).unwrap();
        assert_eq!(args.jobs, Some(4));
        assert!(args.verbose);
        let args = Args::parse_from(["--verbose", "7"], "u", 1, ALL).unwrap();
        assert_eq!(args.positionals, ["7"], "--verbose takes no value");
        let err = Args::parse_from(["--jobs"], "u", 0, ALL).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
        let err = Args::parse_from(["--jobs", "many"], "u", 0, ALL).unwrap_err();
        assert!(err.contains("unsigned integer"), "{err}");
    }

    #[test]
    fn bad_positionals_name_their_position() {
        let args = Args::parse_from(["xyz"], "u", 1, ALL).unwrap();
        let err = args.pos_u64(0).unwrap_err();
        assert!(err.contains("argument 1") && err.contains("xyz"), "{err}");
    }
}
