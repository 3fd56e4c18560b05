//! Exact order statistics over the benchmark's own samples.

/// One percentile of a sample set, with the counts that qualify it.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the chosen rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (in `0..=1`) of `values`; NaN when there
/// are none, which the caller reports as a failure.
pub fn percentile(values: &[f64], p: f64) -> Percentile {
    if values.is_empty() {
        return Percentile {
            value: f64::NAN,
            samples: 0,
            beyond: 0,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Percentile {
        value: sorted[rank - 1],
        samples: sorted.len(),
        beyond: sorted.len() - rank,
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).value
}
