//! Robust statistics over timing samples: quantiles, and the highest
//! percentile a sample can still support.

/// Linear-interpolated quantile of an ascending slice, `q` in [0, 1].
///
/// # Panics
/// Panics on an empty slice — every caller times at least one op.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The samples in ascending order.
pub fn ascending(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&ascending(samples), 0.5)
}

/// The highest percentile that still has at least ten samples above it:
/// `(percentile, value)`, or `None` when the sample is too small for any.
/// The value is the order statistic with exactly ten samples beyond it,
/// so the percentile is the share of samples at or below that value.
pub fn hi_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    let n = sorted.len();
    (n > BEYOND).then(|| {
        (
            100.0 * (n - BEYOND) as f64 / n as f64,
            sorted[n - BEYOND - 1],
        )
    })
}

/// What the benchmark prints for one timing series.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    /// See [`hi_percentile`].
    pub hi: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = ascending(samples);
        Summary {
            n: s.len(),
            min: s[0],
            p25: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            p75: quantile(&s, 0.75),
            hi: hi_percentile(&s),
        }
    }
}
