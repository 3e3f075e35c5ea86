//! Sample summaries.

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method (Python's
/// `statistics.quantiles(values, n=4)`); a single sample is its own
/// quartiles.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        return (data[0], data[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Most host CPU time the hypervisor may steal during a repetition for it
/// to count as run on an uncontended host.
const STEAL_LIMIT: f64 = 0.05;

/// Indices of the repetitions to summarize, given the share of host CPU
/// time stolen during each: those at or under [`STEAL_LIMIT`], or, when
/// that leaves fewer than half of them, the half with the least stolen.
/// On a shared host a neighbour's load shows up as steal time and slows
/// every layer at once; a median over contended repetitions would measure
/// the neighbour.
#[must_use]
pub fn uncontended(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let under = order.iter().filter(|&&i| steal[i] <= STEAL_LIMIT).count();
    order.truncate(under.max(steal.len().div_ceil(2)));
    order.sort_unstable();
    order
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "summary of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn contended_repetitions_are_dropped_down_to_half() {
        assert_eq!(uncontended(&[0.01, 0.2, 0.0, 0.03]), vec![0, 2, 3]);
        assert_eq!(uncontended(&[0.3, 0.2, 0.4, 0.1]), vec![1, 3]);
        assert_eq!(uncontended(&[0.5]), vec![0]);
    }
}
