//! Order statistics and ratios used by every metric the benchmark
//! prints.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (its default "exclusive" method), so the spread a reader computes
//! from the printed samples matches the one the benchmark prints.

/// Median and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median: the value the metric reports.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values` (order irrelevant). `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let sorted = sorted(values);
        if sorted.is_empty() {
            return None;
        }
        let (q1, q3) = quartiles(&sorted);
        Some(Summary { n: sorted.len(), q1, median: median(&sorted), q3 })
    }

    /// A single exact value (sim-clock ratios, the heap peak).
    pub fn exact(value: f64) -> Summary {
        Summary { n: 1, q1: value, median: value, q3: value }
    }

    /// Interquartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// `values` sorted ascending, NaNs dropped.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an ascending slice (0 when empty).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile of an ascending slice, by the exclusive
/// method of Python's `statistics.quantiles(n=4)`.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let ld = sorted.len();
    if ld < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Percentiles a tail metric may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples needed beyond a reported percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of the ladder with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples strictly beyond its
/// nearest-rank position, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| n.saturating_sub(nearest_rank(n, p)) >= TAIL_MIN_BEYOND)
}

/// 1-based nearest-rank position of percentile `p` among `n` samples,
/// in integer tenths of a percent so `p99` of 1000 is exactly 990.
fn nearest_rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The tail value of `values` by the [`tail_percentile`] rule:
/// `(percentile, value)`.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let p = tail_percentile(s.len())?;
    Some((p, s[nearest_rank(s.len(), p) - 1]))
}

/// A ratio that keeps its base, so every printed ratio says what it
/// is a share of.
#[derive(Debug, Clone, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator: the base.
    pub den: f64,
    /// What the numerator counts.
    pub num_label: &'static str,
    /// What the denominator counts.
    pub den_label: &'static str,
}

impl Ratio {
    /// `num_label ÷ den_label`.
    pub fn new(num: f64, den: f64, num_label: &'static str, den_label: &'static str) -> Ratio {
        Ratio { num, den, num_label, den_label }
    }

    /// The quotient, or `None` when the base is zero or either side
    /// is not finite.
    pub fn value(&self) -> Option<f64> {
        (self.den != 0.0 && self.num.is_finite() && self.den.is_finite())
            .then(|| self.num / self.den)
    }

    /// The quotient, reading 0 when undefined (a layer that did no
    /// work on this workload).
    pub fn or_zero(&self) -> f64 {
        self.value().unwrap_or(0.0)
    }
}

impl std::fmt::Display for Ratio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.value() {
            Some(v) => write!(
                f,
                "{v:.4} = {} {} / {} {}",
                fmt_num(self.num),
                self.num_label,
                fmt_num(self.den),
                self.den_label
            ),
            None => write!(
                f,
                "n/a ({} {} / base {} {})",
                fmt_num(self.num),
                self.num_label,
                fmt_num(self.den),
                self.den_label
            ),
        }
    }
}

/// Compact number formatting for tables: integers stay integers,
/// other values keep six significant digits.
pub fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v != 0.0 && (v.abs() < 1e-3 || v.abs() >= 1e7) {
        format!("{v:.5e}")
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_and_empty_samples() {
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(Summary::of(&[4.0]), Some(Summary::exact(4.0)));
        assert_eq!(Summary::exact(0.0).spread(), 0.0);
    }

    #[test]
    fn tail_reports_highest_percentile_with_ten_beyond() {
        // 1600 responses: p99.9 leaves 1 beyond, p99 leaves 16.
        assert_eq!(tail_percentile(1600), Some(99.0));
        // 999 samples: p99 rank 990 leaves 9 beyond; p95 leaves 49.
        assert_eq!(tail_percentile(999), Some(95.0));
        // 1000 samples: p99 rank 990 leaves exactly 10.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 20 samples: p50 rank 10 leaves 10; p75 leaves 5.
        assert_eq!(tail_percentile(20), Some(50.0));
        // Too few samples for any percentile.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&values), Some((99.0, 990.0)));
        assert_eq!(tail(&values[..5]), None);
    }

    #[test]
    fn ratios_carry_their_base() {
        let r = Ratio::new(1.0, 4.0, "hits", "lookups");
        assert_eq!(r.value(), Some(0.25));
        assert_eq!(r.to_string(), "0.2500 = 1 hits / 4 lookups");
        let zero = Ratio::new(3.0, 0.0, "memoized", "predictions");
        assert_eq!(zero.value(), None);
        assert_eq!(zero.or_zero(), 0.0);
        assert_eq!(zero.to_string(), "n/a (3 memoized / base 0 predictions)");
        assert_eq!(Ratio::new(f64::NAN, 1.0, "a", "b").value(), None);
    }

    #[test]
    fn numbers_format_compactly() {
        assert_eq!(fmt_num(120.0), "120");
        assert_eq!(fmt_num(2.345678), "2.34568");
        assert_eq!(fmt_num(0.000012), "1.20000e-5");
    }
}
