//! Order statistics over the samples of one run.

/// Order statistics of a sample set, with its size.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Number of samples.
    pub samples: usize,
    /// 10th percentile.
    pub p10: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarizes `values` (order irrelevant). `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            samples: sorted.len(),
            p10: quantile(&sorted, 0.1),
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            p90: quantile(&sorted, 0.9),
            p99: quantile(&sorted, 0.99),
        })
    }
}

/// The `p`-quantile of ascending `sorted`, interpolating linearly
/// between closest ranks.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!(s.samples, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert!((s.p10 - 1.4).abs() < 1e-12);
        assert!((s.p90 - 4.6).abs() < 1e-12);
        assert!((s.p99 - 4.96).abs() < 1e-12);
        assert_eq!(Summary::of(&[2.0, 1.0]).unwrap().median, 1.5);
        assert!(Summary::of(&[]).is_none());
    }
}
