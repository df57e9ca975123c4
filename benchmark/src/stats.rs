//! Order statistics over latency samples.

/// Fewest samples that must lie beyond a reported percentile. Below this
/// the percentile is one or two outliers, not a property of the system.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for even counts).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// The `p`-th percentile (nearest rank) of `values`, refused when fewer
/// than [`MIN_BEYOND`] samples lie strictly beyond its rank.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    assert!((0.0..1.0).contains(&p), "percentile {p} out of range");
    let n = values.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{:.0} of {n} samples leaves {} beyond it, need {MIN_BEYOND}",
            p * 100.0,
            n.saturating_sub(rank)
        ));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

/// The highest of p90, p75, p50 that [`percentile`] accepts, with its
/// label: p90 on a full-size run, less on the smoke tier's few samples.
pub fn highest_supported_percentile(values: &[f64]) -> Option<(&'static str, f64)> {
    [("p90", 0.90), ("p75", 0.75), ("p50", 0.50)]
        .into_iter()
        .find_map(|(label, p)| percentile(values, p).ok().map(|v| (label, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples: rank 190, exactly 10 beyond.
        assert_eq!(percentile(&v, 0.95), Ok(190.0));
        let err = percentile(&v[..199], 0.95).unwrap_err();
        assert!(err.contains("need 10"), "{err}");
        // The same 199 samples still support p90.
        assert_eq!(percentile(&v[..199], 0.90), Ok(180.0));
        assert!(percentile(&v[..19], 0.50).is_err());
        assert_eq!(percentile(&v[..20], 0.50), Ok(10.0));
    }

    #[test]
    fn fallback_picks_the_highest_supported() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        // p90 → rank 36 (4 beyond), p75 → rank 30 (10 beyond).
        assert_eq!(highest_supported_percentile(&v), Some(("p75", 30.0)));
        assert_eq!(highest_supported_percentile(&v[..5]), None);
    }
}
