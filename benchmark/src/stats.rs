//! Order statistics over small samples (repetitions of one measurement).

/// Median and quartiles of a sample, plus the sample itself for the record.
#[derive(Debug, Clone)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The values in the order they were measured.
    pub raw: Vec<f64>,
}

impl Summary {
    pub fn of(raw: Vec<f64>) -> Summary {
        let (q1, median, q3) = quartiles(&raw);
        Summary {
            median,
            q1,
            q3,
            raw,
        }
    }

    /// Interquartile distance as a share of the median (0 when the median is 0).
    pub fn iqr_frac(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the "exclusive" method) gives them, so a spread computed here matches the
/// one a Python driver computes from the same values. A single value is its
/// own quartiles; an empty sample reads 0.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut x: Vec<f64> = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (x[0], x[0], x[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // May exceed 4 at the clamped ends: Python extrapolates there too.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([10,20,30,40], n=4) == [12.5, 25.0, 37.5]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0, 40.0]), (12.5, 25.0, 37.5));
        // statistics.quantiles([1,2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn iqr_frac_is_relative_to_the_median() {
        let s = Summary::of(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.iqr_frac(), 1.0);
        assert_eq!(Summary::of(vec![0.0, 0.0]).iqr_frac(), 0.0);
    }
}
