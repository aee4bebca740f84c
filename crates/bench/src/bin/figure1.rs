//! Regenerates **Figure 1**: ν_max vs c for the paper's bound (magenta),
//! PSS consistency (blue) and the PSS attack (red); n = 1e5, Δ = 1e13.
//!
//! `cargo run -p consistency-bench --bin figure1 [n_points]`

use consistency_bench::{outln, print_stdout};
use consistency_core::{figure1, pss};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = consistency_bench::cli::Args::parse("figure1 [n_points]", 1, &[])?;
    let n_points = args.pos_usize(0)?.unwrap_or(41);
    consistency_bench::section("Figure 1: nu_max vs c (log-spaced grid)");
    let pts = figure1::generate(n_points)?;
    print_stdout(&figure1::to_table(&pts));

    consistency_bench::section("Exact-PSS cross-check (alpha[1-(2D+2)alpha] > beta)");
    outln!("c\texact_pss_numax\tclosed_form_blue");
    for &c in &[2.5, 3.0, 5.0, 10.0, 30.0, 100.0] {
        let exact = pss::exact_consistency_nu_max(figure1::FIGURE1_N, figure1::FIGURE1_DELTA, c)?
            .unwrap_or(0.0);
        let blue = pss::consistency_nu_max(c).unwrap_or(0.0);
        outln!(
            "{c}\t{}\t{}",
            consistency_bench::fmt(exact),
            consistency_bench::fmt(blue)
        );
    }
    Ok(())
}
