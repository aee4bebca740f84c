//! Compensated summation.
//!
//! Stationary distributions over `2Δ+1` states and Monte-Carlo averages
//! over millions of rounds accumulate rounding error under naive `+=`;
//! the routines here keep the error O(1) ulps.

/// Neumaier's improved Kahan–Babuška compensated summation.
///
/// ```
/// use probability::summation::NeumaierSum;
/// let mut s = NeumaierSum::new();
/// s.add(1e100);
/// s.add(1.0);
/// s.add(-1e100);
/// assert_eq!(s.value(), 1.0); // naive summation yields 0.0
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NeumaierSum {
    sum: f64,
    compensation: f64,
}

impl NeumaierSum {
    /// Creates an empty (zero) sum.
    #[must_use]
    pub fn new() -> Self {
        NeumaierSum::default()
    }

    /// Adds a term.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.compensation += (self.sum - t) + x;
        } else {
            self.compensation += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// The compensated total.
    #[inline]
    #[must_use]
    pub fn value(&self) -> f64 {
        self.sum + self.compensation
    }
}

impl std::iter::FromIterator<f64> for NeumaierSum {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = NeumaierSum::new();
        for x in iter {
            s.add(x);
        }
        s
    }
}

impl Extend<f64> for NeumaierSum {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.add(x);
        }
    }
}

/// Pairwise (cascade) summation: O(log n) error growth, cache-friendly.
#[must_use]
pub fn pairwise_sum(xs: &[f64]) -> f64 {
    const BASE: usize = 32;
    if xs.len() <= BASE {
        let mut s = 0.0;
        for &x in xs {
            s += x;
        }
        return s;
    }
    let mid = xs.len() / 2;
    pairwise_sum(&xs[..mid]) + pairwise_sum(&xs[mid..])
}

/// Running mean/variance accumulator (Welford's algorithm).
///
/// ```
/// use probability::summation::RunningMoments;
/// let mut m = RunningMoments::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     m.push(x);
/// }
/// assert_eq!(m.mean(), 5.0);
/// assert!((m.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningMoments {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningMoments {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        RunningMoments::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (divides by n − 1).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two observations have been added.
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        assert!(
            self.count > 1,
            "sample variance needs at least 2 observations"
        );
        self.m2 / (self.count - 1) as f64
    }

    /// Standard error of the mean, `√(s²/n)`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two observations have been added.
    #[must_use]
    pub fn standard_error(&self) -> f64 {
        (self.sample_variance() / self.count as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compensated_sum(xs: &[f64]) -> f64 {
        xs.iter().copied().collect::<NeumaierSum>().value()
    }

    #[test]
    fn neumaier_recovers_cancelled_term() {
        let xs = [1e100, 1.0, -1e100];
        assert_eq!(compensated_sum(&xs), 1.0);
        let naive: f64 = xs.iter().sum();
        assert_eq!(naive, 0.0, "sanity: naive summation loses the 1.0");
    }

    #[test]
    fn neumaier_matches_exact_on_harmonic() {
        let xs: Vec<f64> = (1..=10_000).map(|k| 1.0 / k as f64).collect();
        let comp = compensated_sum(&xs);
        // Compare against the reverse-order compensated sum.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        let comp_rev = compensated_sum(&rev);
        assert!((comp - comp_rev).abs() < 1e-13);
    }

    #[test]
    fn pairwise_close_to_compensated() {
        let xs: Vec<f64> = (0..100_000)
            .map(|k| ((k * 37 % 101) as f64 - 50.0) * 1e-3)
            .collect();
        let a = pairwise_sum(&xs);
        let b = compensated_sum(&xs);
        assert!((a - b).abs() < 1e-9, "pairwise {a} vs compensated {b}");
    }

    #[test]
    fn pairwise_empty_and_single() {
        assert_eq!(pairwise_sum(&[]), 0.0);
        assert_eq!(pairwise_sum(&[42.0]), 42.0);
    }

    #[test]
    fn running_moments_known_dataset() {
        let mut m = RunningMoments::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            m.push(x);
        }
        assert_eq!(m.count(), 8);
        assert_eq!(m.mean(), 5.0);
        assert!((m.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert!(m.standard_error() > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 2 observations")]
    fn variance_of_empty_panics() {
        let _ = RunningMoments::new().sample_variance();
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut s: NeumaierSum = [1.0, 2.0, 3.0].into_iter().collect();
        s.extend([4.0, 5.0]);
        assert_eq!(s.value(), 15.0);
    }
}
