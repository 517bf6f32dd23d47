//! Summary statistics over timing samples.

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile that still has at least `beyond` samples above
/// it: `(value, percentile)`. `None` when there are not more than
/// `beyond` samples.
pub fn tail(xs: &[f64], beyond: usize) -> Option<(f64, u32)> {
    let s = sorted(xs);
    let n = s.len();
    if n <= beyond {
        return None;
    }
    let idx = n - 1 - beyond;
    // the sample at `idx` is the p-th percentile with p = idx / (n - 1)
    let pct = if n == 1 {
        0
    } else {
        (100 * idx / (n - 1)) as u32
    };
    Some((s[idx], pct))
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of no values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
