//! The **Kiffer-et-al. ablation** (paper §IV "Novelty of our Theorem 1"):
//! how far the reported `1/(µp)`-for-`1/α` slip moves the sufficient
//! condition, versus the corrected rate.
//!
//! `cargo run -p consistency-bench --bin kiffer_ablation`

use consistency_bench::outln;
use consistency_core::kiffer;
use consistency_core::params::ProtocolParams;
use consistency_core::theorem1;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    consistency_bench::section("Interarrival estimates: corrected 1/α vs incorrect 1/(µp)");
    outln!(
        "{:>8} {:>8} {:>14} {:>14} {:>12}",
        "n",
        "c",
        "1/α",
        "1/(µp)",
        "ratio"
    );
    for &n in &[100u64, 1_000, 100_000] {
        for &c in &[1.0, 10.0] {
            let p = ProtocolParams::from_c(n, 8, c, 0.25)?;
            outln!(
                "{:>8} {:>8} {:>14.4e} {:>14.4e} {:>12.1}",
                n,
                c,
                kiffer::interarrival_corrected(&p),
                kiffer::interarrival_incorrect(&p),
                kiffer::interarrival_error_factor(&p)
            );
        }
    }
    outln!("(ratio ≈ n: the slip loses the aggregation over miners entirely)");

    consistency_bench::section("Acceptance regions: corrected vs incorrect sufficient condition");
    outln!(
        "{:>6} {:>6} {:>18} {:>18} {:>14}",
        "ν",
        "c",
        "Thm-1 margin (ln)",
        "incorrect (ln)",
        "verdicts"
    );
    for &nu in &[0.1, 0.25, 0.4] {
        for &c in &[0.3, 0.5, 1.0, 2.0, 5.0] {
            let p = ProtocolParams::from_c(1_000, 8, c, nu)?;
            let correct = theorem1::ln_margin(&p);
            let incorrect = kiffer::ln_incorrect_margin(&p);
            outln!(
                "{:>6} {:>6} {:>18.3} {:>18.3} {:>7}/{:<7}",
                nu,
                c,
                correct,
                incorrect,
                if correct > 0.0 { "accept" } else { "reject" },
                if incorrect > 0.0 { "accept" } else { "reject" },
            );
        }
    }
    outln!("\nRows with reject/accept show parameters the uncorrected analysis");
    outln!("would wrongly certify as consistent.");
    Ok(())
}
