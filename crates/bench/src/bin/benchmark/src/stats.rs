//! Order statistics over latency samples.

/// Samples a reported percentile must have strictly above it; a
/// percentile with fewer is an extrapolation, not a measurement.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank `⌈q·n⌉` of quantile `q` among `n > 0` samples
/// (the small epsilon keeps `0.9 · 100` from rounding up to 91).
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil().max(1.0) as usize).min(n)
}

/// Nearest-rank quantile: the `⌈q·n⌉`-th smallest sample (`q` in
/// `(0, 1]`). `None` for an empty slice.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// How many samples lie strictly beyond the nearest-rank `q` position.
fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The nearest-rank `q` quantile, refused unless at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64, what: &str) -> Result<f64, String> {
    let have = beyond(samples.len(), q);
    if have < MIN_BEYOND {
        return Err(format!(
            "{what}: p{} needs {MIN_BEYOND} samples beyond it; the run has {} samples, {have} beyond",
            q * 100.0,
            samples.len()
        ));
    }
    Ok(nearest_rank(samples, q).expect("samples lie beyond the rank, so there are samples"))
}

/// The median (nearest rank), `0.0` for no samples. For small sets
/// (repeated set-ups, per-call layer timings) where the ten-beyond rule
/// does not apply.
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(samples, 0.5).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_order_statistic() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&ten, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&ten, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&ten, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&ten, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        // The input order does not matter.
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(percentile(&hundred, 0.9, "x"), Ok(90.0));
        // p99 of 100 samples has one sample beyond it: refused.
        assert_eq!(beyond(100, 0.99), 1);
        assert!(percentile(&hundred, 0.99, "x").is_err());
        // 99 samples: p90 sits at rank 90 with only 9 beyond it.
        assert!(percentile(&hundred[..99], 0.9, "x").is_err());
        // The median needs 20 samples.
        assert!(percentile(&hundred[..19], 0.5, "x").is_err());
        assert_eq!(percentile(&hundred[..20], 0.5, "x"), Ok(10.0));
        assert!(percentile(&[], 0.5, "x").is_err());
    }
}
