//! SDC severity: how wrong is a silently-corrupted output?
//!
//! The paper classifies outcomes with a bitwise output comparison, which
//! treats a 1-ulp float wobble and a completely scrambled matrix the same.
//! This extension quantifies the *magnitude* of silent data corruption —
//! relevant to the approximate-computing angle the paper's introduction
//! raises ("changes in the precision/accuracy of register values do not
//! necessarily change the final output of an application").

/// Relative L2 error between a corrupted output and the golden output,
/// interpreting words as `f32`.
///
/// Returns `0.0` for identical outputs, `f64::INFINITY` when the corrupted
/// output contains NaN/Inf the golden output lacks (or when the golden
/// norm is zero but the outputs differ).
#[must_use]
pub fn relative_l2_error(golden: &[u32], corrupted: &[u32]) -> f64 {
    assert_eq!(golden.len(), corrupted.len(), "output length mismatch");
    let mut diff2 = 0.0f64;
    let mut norm2 = 0.0f64;
    for (&g, &c) in golden.iter().zip(corrupted) {
        let (gf, cf) = (f32::from_bits(g), f32::from_bits(c));
        if !cf.is_finite() && gf.is_finite() {
            return f64::INFINITY;
        }
        let d = f64::from(cf) - f64::from(gf);
        diff2 += d * d;
        norm2 += f64::from(gf) * f64::from(gf);
    }
    if diff2 == 0.0 {
        0.0
    } else if norm2 == 0.0 {
        f64::INFINITY
    } else {
        (diff2 / norm2).sqrt()
    }
}

/// Severity buckets for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SeverityBucket {
    /// Relative error below 1e-6 — numerically negligible.
    Negligible,
    /// Below 1e-3 — small precision loss.
    Minor,
    /// Below 1e-1 — visible degradation.
    Moderate,
    /// Below 10 — grossly wrong values.
    Severe,
    /// At least 10x the output norm, or non-finite values.
    Catastrophic,
}

impl SeverityBucket {
    /// Buckets a relative error.
    #[must_use]
    pub fn of(rel_error: f64) -> Self {
        if rel_error < 1e-6 {
            SeverityBucket::Negligible
        } else if rel_error < 1e-3 {
            SeverityBucket::Minor
        } else if rel_error < 1e-1 {
            SeverityBucket::Moderate
        } else if rel_error < 10.0 {
            SeverityBucket::Severe
        } else {
            SeverityBucket::Catastrophic
        }
    }

    /// All buckets in severity order.
    pub const ALL: [SeverityBucket; 5] = [
        SeverityBucket::Negligible,
        SeverityBucket::Minor,
        SeverityBucket::Moderate,
        SeverityBucket::Severe,
        SeverityBucket::Catastrophic,
    ];

    /// Display name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            SeverityBucket::Negligible => "negligible (<1e-6)",
            SeverityBucket::Minor => "minor (<1e-3)",
            SeverityBucket::Moderate => "moderate (<1e-1)",
            SeverityBucket::Severe => "severe (<10)",
            SeverityBucket::Catastrophic => "catastrophic (>=10 or NaN)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn identical_outputs_have_zero_error() {
        let g = bits(&[1.0, 2.0, 3.0]);
        assert_eq!(relative_l2_error(&g, &g), 0.0);
    }

    #[test]
    fn small_perturbation_is_small() {
        let g = bits(&[1.0, 2.0, 3.0]);
        let c = bits(&[1.0, 2.0 + 1e-5, 3.0]);
        let e = relative_l2_error(&g, &c);
        assert!(e > 0.0 && e < 1e-4, "{e}");
        assert_eq!(SeverityBucket::of(e), SeverityBucket::Minor);
    }

    #[test]
    fn nan_is_catastrophic() {
        let g = bits(&[1.0, 2.0]);
        let c = bits(&[1.0, f32::NAN]);
        let e = relative_l2_error(&g, &c);
        assert!(e.is_infinite());
        assert_eq!(SeverityBucket::of(e), SeverityBucket::Catastrophic);
    }

    #[test]
    fn zero_golden_norm_with_difference_is_infinite() {
        let g = bits(&[0.0, 0.0]);
        let c = bits(&[0.0, 1.0]);
        assert!(relative_l2_error(&g, &c).is_infinite());
    }

    #[test]
    fn buckets_are_monotone() {
        let errors = [0.0, 1e-7, 1e-4, 1e-2, 1.0, 100.0];
        let buckets: Vec<_> = errors.iter().map(|&e| SeverityBucket::of(e)).collect();
        let mut sorted = buckets.clone();
        sorted.sort();
        assert_eq!(buckets, sorted);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let _ = relative_l2_error(&[0], &[0, 1]);
    }
}
