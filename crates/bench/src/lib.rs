#![forbid(unsafe_code)]
//! Shared helpers for the benchmark harness binaries that regenerate
//! every table and figure of the paper (see DESIGN.md §4 for the
//! experiment index and EXPERIMENTS.md for recorded outputs).
//!
//! * [`cli`] — the shared flag/positional parser every binary uses;
//! * [`table`] — Wilson-CI cell formatting shared by the sweeps;
//! * [`experiment`] — the spec-driven experiment runner behind the
//!   unified `experiment` binary and the ported sweep harnesses.

pub mod cli;
pub mod experiment;
pub mod table;

use std::io::Write;

/// Formats a floating-point value in compact scientific-or-fixed form
/// for the harness tables.
#[must_use]
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if (1e-4..1e6).contains(&a) {
        format!("{v:.6}")
    } else {
        format!("{v:.4e}")
    }
}

/// Prints a header followed by an underline of the same width.
pub fn section(title: &str) {
    print_stdout(&format!("\n{title}\n{}\n", "=".repeat(title.len())));
}

/// Writes `text` to stdout. A closed stdout (a pipe whose reader, such
/// as `head`, has exited) ends printing, not the run: the text is
/// dropped. Any other write error panics, as `print!` does.
pub fn print_stdout(text: &str) {
    if let Err(e) = std::io::stdout().write_all(text.as_bytes()) {
        assert!(
            e.kind() == std::io::ErrorKind::BrokenPipe,
            "failed printing to stdout: {e}"
        );
    }
}

/// `print!` through [`print_stdout`]: a closed stdout ends printing, not
/// the run. The harness binaries print with this and [`outln!`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::print_stdout(&format!($($arg)*))
    };
}

/// `println!` through [`print_stdout`]: a closed stdout ends printing,
/// not the run.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::print_stdout("\n")
    };
    ($($arg:tt)*) => {
        $crate::print_stdout(&format!("{}\n", format_args!($($arg)*)))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_modes() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1.5), "1.500000");
        assert!(fmt(1e-9).contains('e'));
        assert!(fmt(1e9).contains('e'));
    }
}
