//! Seeded mutation fuzzing of the spec codec. Every committed spec under
//! `examples/specs/` and `perfbench/specs/` is mutated — lines deleted,
//! duplicated, swapped and truncated, bytes flipped, values swapped for
//! extremes — and each mutant must either parse or fail with a
//! positioned error. An accepted mutant must round-trip through its
//! canonical TOML, which must be a fixed point, and must expand and
//! plan without panicking. `cargo test` runs 5,000 fixed-seed cases;
//! the CI `fuzz` job adds the ignored 200,000-case run with
//! `cargo test --release -p nakamoto_sim --test spec_mutation -- --ignored`.

use nakamoto_sim::spec::ExperimentSpec;
use probability::rng::{RandomSource, SplitMix64};
use std::path::Path;

/// Master seed of the case stream; case `i` mutates with its own
/// `SplitMix64` seeded from this stream.
const SEED: u64 = 0x5EC_F022;

/// Sweeps at most this large are expanded and planned.
const MAX_PLANNED_CELLS: usize = 64;

/// The only errors that concern the whole document rather than a line.
const WHOLE_DOCUMENT_ERRORS: [&str; 2] = [
    "spec needs a [base] table",
    "spec needs either [[phase]] tables or a [stationary] table",
];

/// Values a mutation writes over the right-hand side of an assignment.
const EXTREMES: &[&str] = &[
    "0",
    "-1",
    "1",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
    "0x",
    "0xFFFFFFFFFFFFFFFF",
    "1e308",
    "1e-308",
    "-0.0",
    "0.5",
    "nan",
    "inf",
    "true",
    "\"\"",
    "\"composed(4096)\"",
    "\"composed(-1)\"",
    "\"eclipse(9)\"",
    "\"markov\"",
    "\"splitting\"",
    "\"private-chain\"",
    "[]",
    "[0]",
    "[18446744073709551615]",
    "[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]",
    "{}",
    "{ strategy = \"balance\" }",
    "\"unterminated",
];

/// Every committed spec, in a fixed order.
fn corpus() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut specs = Vec::new();
    for dir in ["examples/specs", "perfbench/specs"] {
        let entries = std::fs::read_dir(root.join(dir)).expect("spec directory exists");
        for entry in entries {
            let path = entry.expect("readable directory entry").path();
            if path.extension().is_some_and(|ext| ext == "toml") {
                let text = std::fs::read_to_string(&path).expect("readable spec");
                specs.push((path.display().to_string(), text));
            }
        }
    }
    specs.sort();
    assert!(specs.len() >= 12, "the corpus lost specs: {}", specs.len());
    specs
}

fn pick(rng: &mut SplitMix64, len: usize) -> usize {
    usize::try_from(rng.next_below(len as u64)).expect("index fits usize")
}

/// Applies one random mutation to `lines`.
fn mutate(lines: &mut Vec<String>, rng: &mut SplitMix64) {
    if lines.is_empty() {
        lines.push("[base]".into());
        return;
    }
    let at = pick(rng, lines.len());
    match rng.next_below(6) {
        0 => {
            lines.remove(at);
        }
        1 => {
            let copy = lines[at].clone();
            lines.insert(pick(rng, lines.len() + 1), copy);
        }
        2 => {
            let other = pick(rng, lines.len());
            lines.swap(at, other);
        }
        3 => {
            let line = &mut lines[at];
            let cut = pick(rng, line.len() + 1);
            let cut = (0..=cut)
                .rev()
                .find(|&c| line.is_char_boundary(c))
                .unwrap_or(0);
            line.truncate(cut);
        }
        4 => {
            let mut bytes = lines[at].clone().into_bytes();
            if !bytes.is_empty() {
                let byte = pick(rng, bytes.len());
                bytes[byte] ^= 1 << rng.next_below(8);
            }
            lines[at] = String::from_utf8_lossy(&bytes).into_owned();
        }
        _ => {
            let extreme = EXTREMES[pick(rng, EXTREMES.len())];
            let line = &mut lines[at];
            if let Some(eq) = line.find('=') {
                line.truncate(eq + 1);
                line.push(' ');
                line.push_str(extreme);
            } else {
                *line = format!("x = {extreme}");
            }
        }
    }
}

/// Checks one mutant against the codec's four properties.
fn check(name: &str, case: u64, source: &str) {
    let line_count = source.lines().count();
    let spec = match ExperimentSpec::parse(source) {
        Ok(spec) => spec,
        Err(err) => {
            let whole = WHOLE_DOCUMENT_ERRORS.contains(&err.message.as_str());
            assert!(
                if whole {
                    err.line == 0
                } else {
                    (1..=line_count).contains(&err.line)
                },
                "case {case} ({name}): error outside lines 1..={line_count}: {err}\n{source}"
            );
            return;
        }
    };
    let emitted = spec.to_toml();
    let reparsed = ExperimentSpec::parse(&emitted).unwrap_or_else(|e| {
        panic!("case {case} ({name}): canonical TOML does not parse: {e}\n{emitted}")
    });
    assert_eq!(
        reparsed, spec,
        "case {case} ({name}): round trip changed the spec\n{emitted}"
    );
    assert_eq!(
        reparsed.to_toml(),
        emitted,
        "case {case} ({name}): to_toml is no fixed point"
    );
    if spec.sweep_shape().iter().product::<usize>() <= MAX_PLANNED_CELLS {
        if let Ok(cells) = spec.expand() {
            for cell in cells {
                let _ = cell.spec.plan();
            }
        }
    }
}

fn fuzz(cases: u64) {
    let corpus = corpus();
    let mut seeds = SplitMix64::new(SEED);
    for case in 0..cases {
        let mut rng = SplitMix64::new(seeds.next_u64());
        let (name, text) = &corpus[pick(&mut rng, corpus.len())];
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        for _ in 0..=rng.next_below(3) {
            mutate(&mut lines, &mut rng);
        }
        check(name, case, &lines.join("\n"));
    }
}

#[test]
fn committed_specs_survive_their_own_round_trip() {
    for (name, text) in corpus() {
        ExperimentSpec::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        check(&name, 0, &text);
    }
}

#[test]
fn mutated_specs_fail_with_positions_or_round_trip() {
    fuzz(5_000);
}

#[test]
#[ignore = "200,000 cases; the CI fuzz job runs it in release"]
fn mutated_specs_fail_with_positions_or_round_trip_at_scale() {
    fuzz(200_000);
}
