//! Error-resilience profiles: the distribution of fault-injection outcomes.

use std::fmt;

/// Fine-grained cause of an *Other* outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutcomeKind {
    /// The application crashed (invalid/misaligned memory access).
    Crash,
    /// The application hung (dynamic-instruction budget exceeded).
    Hang,
}

/// Classification of a single fault-injection run (Section II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The fault did not change the application output.
    Masked,
    /// Silent data corruption: successful termination, wrong output.
    Sdc,
    /// Crash or hang.
    Other(OutcomeKind),
    /// The fault was caught by an in-kernel detector (DMR compare) and the
    /// kernel took the detected-exit: a DUE rather than an SDC.
    Detected,
}

impl Outcome {
    /// Crash shorthand.
    pub const CRASH: Outcome = Outcome::Other(OutcomeKind::Crash);
    /// Hang shorthand.
    pub const HANG: Outcome = Outcome::Other(OutcomeKind::Hang);

    /// Stable single-byte wire/storage code (used by the persistent
    /// outcome store and the service API). Inverse of
    /// [`Outcome::from_code`]; the mapping is frozen — extend, never
    /// renumber.
    #[must_use]
    pub const fn code(self) -> u8 {
        match self {
            Outcome::Masked => 0,
            Outcome::Sdc => 1,
            Outcome::Other(OutcomeKind::Crash) => 2,
            Outcome::Other(OutcomeKind::Hang) => 3,
            Outcome::Detected => 4,
        }
    }

    /// Decodes a wire/storage code; `None` for unknown codes.
    #[must_use]
    pub const fn from_code(code: u8) -> Option<Outcome> {
        match code {
            0 => Some(Outcome::Masked),
            1 => Some(Outcome::Sdc),
            2 => Some(Outcome::CRASH),
            3 => Some(Outcome::HANG),
            4 => Some(Outcome::Detected),
            _ => None,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Masked => write!(f, "masked"),
            Outcome::Sdc => write!(f, "sdc"),
            Outcome::Other(OutcomeKind::Crash) => write!(f, "other(crash)"),
            Outcome::Other(OutcomeKind::Hang) => write!(f, "other(hang)"),
            Outcome::Detected => write!(f, "detected"),
        }
    }
}

/// The error-resilience profile of a kernel: weighted counts of masked, SDC
/// and other outcomes.
///
/// Weights are real-valued because pruned campaigns extrapolate: one
/// injection into a representative thread stands for all the threads in its
/// group, so its outcome is recorded with the group's weight.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResilienceProfile {
    masked: f64,
    sdc: f64,
    other: f64,
    crashes: f64,
    hangs: f64,
    detected: f64,
}

impl ResilienceProfile {
    /// An empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a profile from plain counts.
    #[must_use]
    pub fn from_counts(masked: u64, sdc: u64, other: u64) -> Self {
        ResilienceProfile {
            masked: masked as f64,
            sdc: sdc as f64,
            other: other as f64,
            crashes: 0.0,
            hangs: 0.0,
            detected: 0.0,
        }
    }

    /// Reconstructs a profile from its raw weights, e.g. when decoding the
    /// wire representation used by the campaign service. Inverse of the
    /// accessor sextuple ([`ResilienceProfile::masked`], [`sdc`],
    /// [`other`], [`crashes`], [`hangs`], [`detected`]) — round-tripping
    /// through it is bit-exact.
    ///
    /// [`sdc`]: ResilienceProfile::sdc
    /// [`other`]: ResilienceProfile::other
    /// [`crashes`]: ResilienceProfile::crashes
    /// [`hangs`]: ResilienceProfile::hangs
    /// [`detected`]: ResilienceProfile::detected
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or non-finite.
    #[must_use]
    pub fn from_parts(
        masked: f64,
        sdc: f64,
        other: f64,
        crashes: f64,
        hangs: f64,
        detected: f64,
    ) -> Self {
        for w in [masked, sdc, other, crashes, hangs, detected] {
            assert!(
                w.is_finite() && w >= 0.0,
                "weight must be finite and non-negative, got {w}"
            );
        }
        ResilienceProfile {
            masked,
            sdc,
            other,
            crashes,
            hangs,
            detected,
        }
    }

    /// Records one outcome with weight 1.
    pub fn record(&mut self, outcome: Outcome) {
        self.record_weighted(outcome, 1.0);
    }

    /// Records one outcome with the given extrapolation weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or not finite.
    pub fn record_weighted(&mut self, outcome: Outcome, weight: f64) {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "weight must be finite and non-negative, got {weight}"
        );
        match outcome {
            Outcome::Masked => self.masked += weight,
            Outcome::Sdc => self.sdc += weight,
            Outcome::Other(kind) => {
                self.other += weight;
                match kind {
                    OutcomeKind::Crash => self.crashes += weight,
                    OutcomeKind::Hang => self.hangs += weight,
                }
            }
            Outcome::Detected => self.detected += weight,
        }
    }

    /// Merges another profile into this one.
    pub fn merge(&mut self, other: &ResilienceProfile) {
        self.masked += other.masked;
        self.sdc += other.sdc;
        self.other += other.other;
        self.crashes += other.crashes;
        self.hangs += other.hangs;
        self.detected += other.detected;
    }

    /// Total recorded weight across all four classes (the Eq. 1
    /// exhaustive population when the campaign covered every site).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.masked + self.sdc + self.other + self.detected
    }

    /// Masked weight.
    #[must_use]
    pub fn masked(&self) -> f64 {
        self.masked
    }

    /// SDC weight.
    #[must_use]
    pub fn sdc(&self) -> f64 {
        self.sdc
    }

    /// Other (crash + hang) weight.
    #[must_use]
    pub fn other(&self) -> f64 {
        self.other
    }

    /// Crash weight (subset of [`ResilienceProfile::other`]).
    #[must_use]
    pub fn crashes(&self) -> f64 {
        self.crashes
    }

    /// Hang weight (subset of [`ResilienceProfile::other`]).
    #[must_use]
    pub fn hangs(&self) -> f64 {
        self.hangs
    }

    /// Detected (DUE) weight — faults caught by an in-kernel detector.
    /// Zero for campaigns on unprotected kernels.
    #[must_use]
    pub fn detected(&self) -> f64 {
        self.detected
    }

    fn pct(&self, x: f64) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            100.0 * x / t
        }
    }

    /// Percentage of masked outcomes (0–100).
    #[must_use]
    pub fn pct_masked(&self) -> f64 {
        self.pct(self.masked)
    }

    /// Percentage of SDC outcomes (0–100).
    #[must_use]
    pub fn pct_sdc(&self) -> f64 {
        self.pct(self.sdc)
    }

    /// Percentage of other outcomes (0–100).
    #[must_use]
    pub fn pct_other(&self) -> f64 {
        self.pct(self.other)
    }

    /// Percentage of detected outcomes (0–100).
    #[must_use]
    pub fn pct_detected(&self) -> f64 {
        self.pct(self.detected)
    }

    /// `(masked%, sdc%, other%)` as a tuple.
    #[must_use]
    pub fn percentages(&self) -> (f64, f64, f64) {
        (self.pct_masked(), self.pct_sdc(), self.pct_other())
    }

    /// Largest absolute per-class percentage difference from `other` — the
    /// accuracy metric of Figure 9. Includes the detected class (which
    /// contributes zero on unprotected campaigns).
    #[must_use]
    pub fn max_abs_diff(&self, other: &ResilienceProfile) -> f64 {
        let (m1, s1, o1) = self.percentages();
        let (m2, s2, o2) = other.percentages();
        let d = (self.pct_detected() - other.pct_detected()).abs();
        (m1 - m2)
            .abs()
            .max((s1 - s2).abs())
            .max((o1 - o2).abs())
            .max(d)
    }

    /// Signed per-class percentage differences `(masked, sdc, other)`.
    #[must_use]
    pub fn diff(&self, other: &ResilienceProfile) -> (f64, f64, f64) {
        let (m1, s1, o1) = self.percentages();
        let (m2, s2, o2) = other.percentages();
        (m1 - m2, s1 - s2, o1 - o2)
    }
}

impl fmt::Display for ResilienceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The detected class only appears once a detector is in play;
        // unprotected campaigns keep the familiar three-class line.
        if self.detected == 0.0 {
            write!(
                f,
                "masked {:.2}% / sdc {:.2}% / other {:.2}% (n={:.0})",
                self.pct_masked(),
                self.pct_sdc(),
                self.pct_other(),
                self.total()
            )
        } else {
            write!(
                f,
                "masked {:.2}% / sdc {:.2}% / detected {:.2}% / other {:.2}% (n={:.0})",
                self.pct_masked(),
                self.pct_sdc(),
                self.pct_detected(),
                self.pct_other(),
                self.total()
            )
        }
    }
}

impl FromIterator<Outcome> for ResilienceProfile {
    fn from_iter<I: IntoIterator<Item = Outcome>>(iter: I) -> Self {
        let mut p = ResilienceProfile::new();
        for o in iter {
            p.record(o);
        }
        p
    }
}

/// Five-number summary plus mean, for the box plots of Figures 2–3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNumber {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl FiveNumber {
    /// Computes the summary of a sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "five-number summary of empty sample");
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in sample"));
        let q = |p: f64| -> f64 {
            // Linear interpolation between order statistics (type-7).
            let h = p * (v.len() as f64 - 1.0);
            let lo = h.floor() as usize;
            let hi = h.ceil() as usize;
            v[lo] + (h - lo as f64) * (v[hi] - v[lo])
        };
        FiveNumber {
            min: v[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: v[v.len() - 1],
            mean: v.iter().sum::<f64>() / v.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages() {
        let p = ResilienceProfile::from_counts(50, 30, 20);
        assert!((p.pct_masked() - 50.0).abs() < 1e-12);
        assert!((p.pct_sdc() - 30.0).abs() < 1e-12);
        assert!((p.pct_other() - 20.0).abs() < 1e-12);
        assert_eq!(p.total(), 100.0);
    }

    #[test]
    fn weighted_extrapolation() {
        let mut p = ResilienceProfile::new();
        // One masked injection representing 300 threads, one SDC
        // representing 100.
        p.record_weighted(Outcome::Masked, 300.0);
        p.record_weighted(Outcome::Sdc, 100.0);
        assert!((p.pct_masked() - 75.0).abs() < 1e-12);
    }

    #[test]
    fn other_kinds_tracked() {
        let mut p = ResilienceProfile::new();
        p.record(Outcome::CRASH);
        p.record(Outcome::HANG);
        p.record(Outcome::Masked);
        assert!((p.pct_other() - 66.666).abs() < 0.01);
    }

    #[test]
    fn empty_profile_has_zero_percentages() {
        let p = ResilienceProfile::new();
        assert_eq!(p.percentages(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn distance_metrics() {
        let a = ResilienceProfile::from_counts(60, 30, 10);
        let b = ResilienceProfile::from_counts(55, 33, 12);
        assert!((a.max_abs_diff(&b) - 5.0).abs() < 1e-12);
        let (dm, ds, do_) = a.diff(&b);
        assert!((dm - 5.0).abs() < 1e-12);
        assert!((ds + 3.0).abs() < 1e-12);
        assert!((do_ + 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ResilienceProfile::from_counts(1, 2, 3);
        a.merge(&ResilienceProfile::from_counts(9, 8, 7));
        assert_eq!(a.total(), 30.0);
        assert_eq!(a.masked(), 10.0);
    }

    #[test]
    fn from_iterator() {
        let p: ResilienceProfile = [Outcome::Masked, Outcome::Masked, Outcome::Sdc]
            .into_iter()
            .collect();
        assert_eq!(p.total(), 3.0);
        assert_eq!(p.masked(), 2.0);
    }

    #[test]
    fn five_number_summary() {
        let s = FiveNumber::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn negative_weight_rejected() {
        ResilienceProfile::new().record_weighted(Outcome::Masked, -1.0);
    }

    #[test]
    fn outcome_codes_round_trip() {
        for o in [
            Outcome::Masked,
            Outcome::Sdc,
            Outcome::CRASH,
            Outcome::HANG,
            Outcome::Detected,
        ] {
            assert_eq!(Outcome::from_code(o.code()), Some(o));
        }
        assert_eq!(Outcome::from_code(5), None);
    }

    #[test]
    fn from_parts_round_trips_bit_exactly() {
        let mut p = ResilienceProfile::new();
        p.record_weighted(Outcome::Masked, 0.1 + 0.2); // non-representable sums
        p.record_weighted(Outcome::Sdc, 1.0 / 3.0);
        p.record_weighted(Outcome::CRASH, 2.5);
        p.record_weighted(Outcome::HANG, 1e-9);
        p.record_weighted(Outcome::Detected, 0.7);
        let q = ResilienceProfile::from_parts(
            p.masked(),
            p.sdc(),
            p.other(),
            p.crashes(),
            p.hangs(),
            p.detected(),
        );
        assert_eq!(p, q);
    }

    #[test]
    fn detected_counts_toward_total() {
        let mut p = ResilienceProfile::new();
        p.record(Outcome::Masked);
        p.record(Outcome::Detected);
        p.record(Outcome::Detected);
        p.record(Outcome::Sdc);
        assert_eq!(p.total(), 4.0);
        assert_eq!(p.detected(), 2.0);
        assert!((p.pct_detected() - 50.0).abs() < 1e-12);
        // Four-class weights partition the population exactly.
        assert_eq!(p.masked() + p.sdc() + p.other() + p.detected(), p.total());
        assert!(format!("{p}").contains("detected 50.00%"));
    }
}
