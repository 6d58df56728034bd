//! Sample statistics shared by the scenario artefacts: the conventions
//! (empty sample reads 0, no work counts as success) are stated once here.

/// Mean of a sample; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Maximum of a sample; 0 when empty.
pub fn fmax(xs: &[f64]) -> f64 {
    xs.iter().cloned().fold(0.0, f64::max)
}

/// Value at the `q` quantile (`0.0..=1.0`) of an unsorted sample; 0 when
/// empty. Sorts a copy — scenario result vectors, not hot paths.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    sorted[((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)) as usize]
}

/// Success ratio with the empty case counted as success (no work, nothing
/// failed) — the convention every scenario artefact uses.
pub fn rate(num: usize, den: usize) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers_handle_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(fmax(&[]), 0.0);
        assert_eq!(fmax(&[1.0, 5.0, 3.0]), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(rate(0, 0), 1.0);
        assert_eq!(rate(3, 4), 0.75);
    }

    #[test]
    fn quantile_picks_order_statistics() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&xs, 0.5), 50.0);
        // Unsorted input is handled.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(quantile(&rev, 0.99), 99.0);
    }
}
