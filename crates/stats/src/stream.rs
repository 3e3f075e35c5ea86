//! Streaming outcome estimation: online multinomial confidence intervals
//! and CI-convergence early stopping for running campaigns.
//!
//! [`required_samples_finite`](crate::required_samples_finite) answers the
//! *a-priori* question — how many injections buy a given (confidence,
//! margin) pair in the worst case (p = 0.5). This module answers the
//! *anytime* question: given the outcomes observed so far, how tight are
//! the per-class estimates right now, and has every class converged to
//! within the requested margin?
//!
//! Three layers:
//!
//! * [`StreamEstimator`] — an online multinomial estimator over the five
//!   outcome classes (masked / sdc / crash / hang / detected, in
//!   [`Outcome::code`] order). It accumulates per-class counts and
//!   extrapolation weights plus the second weight moment, so weighted
//!   (pruned) campaigns get honest [Wilson]/[Agresti–Coull] intervals via
//!   the effective sample size `(Σw)² / Σw²`. Statically settled mass —
//!   fault sites a pruning stage resolved without injection — folds in as
//!   *certain* weight: it shifts the point estimates and shrinks the
//!   interval half-widths by the dynamic weight fraction, making the live
//!   estimate an anytime AVF estimate for the whole site population.
//! * [`StopRule`] — a sequential-sampling-aware convergence test: every
//!   per-class interval half-width must fit the margin at the given
//!   confidence, *and* a minimum-sample floor derived from
//!   [`required_samples_infinite`] must be met. The floor guards against
//!   optional-stopping flukes: the rule is checked after every sample, so
//!   without it a lucky early streak could satisfy the width condition at
//!   tiny n.
//! * [`EarlyStop`] — a deterministic prefix tracker. Campaign workers
//!   resolve sites out of plan order; the tracker feeds the estimator
//!   strictly along the contiguous resolved prefix and records the
//!   *minimum* prefix length at which the rule first holds. That length is
//!   a pure function of the planned outcome sequence — independent of
//!   worker count, chunk scheduling, and arrival order — so early-stopped
//!   campaigns are bit-reproducible.
//!
//! The estimator family is versioned by [`stream_version`] (like
//! `absint_version()` / `batch_version()`): any change to the interval
//! math or the stopping rule must bump the revision so result documents
//! that embed an early-stop block can be told apart.
//!
//! [Wilson]: StreamEstimator::wilson
//! [Agresti–Coull]: StreamEstimator::agresti_coull

use crate::profile::{Outcome, ResilienceProfile};
use crate::quantile::t_quantile;
use crate::sample::required_samples_infinite;

/// Bump on any change to the interval math, the stopping rule, or the
/// class ordering. Folded into [`stream_version`].
const STREAM_REVISION: u64 = 1;

/// Number of outcome classes tracked by the estimator.
pub const CLASSES: usize = 5;

/// Class labels in [`Outcome::code`] order — the canonical rendering used
/// by progress documents, metrics label values, and CLI tables.
pub const CLASS_LABELS: [&str; CLASSES] = ["masked", "sdc", "crash", "hang", "detected"];

/// Index of an outcome in the estimator's class arrays ([`Outcome::code`]
/// order, same as [`CLASS_LABELS`]).
#[must_use]
pub fn class_index(outcome: Outcome) -> usize {
    outcome.code() as usize
}

/// Version fingerprint of the streaming-estimator family (FNV-1a over the
/// revision and the class count). Reported in progress documents and in
/// the early-stop block of result documents; deliberately *not* part of
/// outcome-store keys, because streaming observation never changes any
/// per-site outcome.
#[must_use]
pub fn stream_version() -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for byte in [STREAM_REVISION, CLASSES as u64]
        .iter()
        .flat_map(|v| v.to_le_bytes())
    {
        h ^= u64::from(byte);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Two-sided standard-normal critical value for a confidence level, via
/// the same high-ν t quantile the a-priori sample-size math uses, so the
/// streaming intervals and `required_samples` agree on z exactly.
///
/// # Panics
///
/// Panics unless `0 < confidence < 1`.
#[must_use]
pub fn two_sided_z(confidence: f64) -> f64 {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1), got {confidence}"
    );
    t_quantile(0.5 + confidence / 2.0, 1e9)
}

/// A per-class confidence interval: the point estimate and the interval
/// bounds, all as proportions in `[0, 1]`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassInterval {
    /// Maximum-likelihood point estimate of the class proportion.
    pub estimate: f64,
    /// Lower interval bound (clamped to 0).
    pub lo: f64,
    /// Upper interval bound (clamped to 1).
    pub hi: f64,
}

impl ClassInterval {
    /// Half the interval width — the achieved error margin for this class.
    #[must_use]
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }
}

/// Online multinomial outcome estimator with weighted samples and certain
/// (statically settled) mass. See the [module docs](self) for the model.
///
/// Recording is pure count/weight accumulation, so the online estimator is
/// *exactly* equal to a batch recomputation from the same outcomes in any
/// order — a property the proptests below pin down.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamEstimator {
    counts: [u64; CLASSES],
    weights: [f64; CLASSES],
    sum_w: f64,
    sum_w2: f64,
    certain: [f64; CLASSES],
}

impl StreamEstimator {
    /// An empty estimator with no certain mass.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty estimator seeded with per-class *certain* weight: mass a
    /// pruning stage settled statically (assumed-masked loop iterations,
    /// predicted crashes, predicted detections) that carries no sampling
    /// uncertainty.
    ///
    /// # Panics
    ///
    /// Panics if any certain weight is negative or non-finite.
    #[must_use]
    pub fn with_certain(certain: [f64; CLASSES]) -> Self {
        for w in certain {
            assert!(
                w.is_finite() && w >= 0.0,
                "certain weight must be finite and non-negative, got {w}"
            );
        }
        StreamEstimator {
            certain,
            ..Self::default()
        }
    }

    /// Reconstructs an estimator from persisted moments (per-class counts
    /// and weights, the second weight moment, and the certain mass) — the
    /// exact state a [`record_weighted`](Self::record_weighted) sequence
    /// would have produced. Used by the service to assemble progress
    /// documents from job records without replaying outcomes.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or non-finite.
    #[must_use]
    pub fn from_parts(
        counts: [u64; CLASSES],
        weights: [f64; CLASSES],
        sum_w2: f64,
        certain: [f64; CLASSES],
    ) -> Self {
        for w in weights.iter().chain(certain.iter()).chain([&sum_w2]) {
            assert!(
                w.is_finite() && *w >= 0.0,
                "weight must be finite and non-negative, got {w}"
            );
        }
        StreamEstimator {
            counts,
            weights,
            sum_w: weights.iter().sum(),
            sum_w2,
            certain,
        }
    }

    /// Records one outcome with weight 1.
    pub fn record(&mut self, outcome: Outcome) {
        self.record_weighted(outcome, 1.0);
    }

    /// Records one outcome with its extrapolation weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or not finite.
    pub fn record_weighted(&mut self, outcome: Outcome, weight: f64) {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "weight must be finite and non-negative, got {weight}"
        );
        let k = class_index(outcome);
        self.counts[k] += 1;
        self.weights[k] += weight;
        self.sum_w += weight;
        self.sum_w2 += weight * weight;
    }

    /// Number of outcomes recorded (raw samples, ignoring weights).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// True when no outcome has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-class raw sample counts in [`CLASS_LABELS`] order.
    #[must_use]
    pub fn counts(&self) -> [u64; CLASSES] {
        self.counts
    }

    /// Per-class accumulated weights in [`CLASS_LABELS`] order.
    #[must_use]
    pub fn weights(&self) -> [f64; CLASSES] {
        self.weights
    }

    /// Second moment of the sample weights (`Σw²`).
    #[must_use]
    pub fn sum_w2(&self) -> f64 {
        self.sum_w2
    }

    /// Per-class certain (statically settled) weights.
    #[must_use]
    pub fn certain(&self) -> [f64; CLASSES] {
        self.certain
    }

    /// Kish effective sample size `(Σw)² / Σw²` of the weighted sample;
    /// equals [`len`](Self::len) when all weights are 1.
    #[must_use]
    pub fn effective_n(&self) -> f64 {
        if self.sum_w2 == 0.0 {
            0.0
        } else {
            self.sum_w * self.sum_w / self.sum_w2
        }
    }

    /// Total weight: sampled plus certain mass.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.sum_w + self.certain.iter().sum::<f64>()
    }

    /// Fraction of the total weight that is sampled (carries uncertainty).
    /// Interval half-widths scale by this factor: certain mass narrows
    /// them because its classification is not in question.
    #[must_use]
    pub fn dynamic_fraction(&self) -> f64 {
        let total = self.total_weight();
        if total == 0.0 {
            0.0
        } else {
            self.sum_w / total
        }
    }

    /// Combined point estimate of a class proportion over the full
    /// population: certain mass plus the weighted sample share.
    #[must_use]
    pub fn estimate(&self, class: usize) -> f64 {
        let total = self.total_weight();
        if total == 0.0 {
            return 0.0;
        }
        (self.certain[class] + self.weights[class]) / total
    }

    /// Proportion of the *sampled* weight in a class (no certain mass).
    fn sampled_p(&self, class: usize) -> f64 {
        if self.sum_w == 0.0 {
            0.0
        } else {
            self.weights[class] / self.sum_w
        }
    }

    /// Folds a dynamic-side interval into the combined population scale.
    fn fold(&self, class: usize, center: f64, half: f64) -> ClassInterval {
        let total = self.total_weight();
        if total == 0.0 {
            // Nothing known at all: the trivial interval.
            return ClassInterval {
                estimate: 0.0,
                lo: 0.0,
                hi: 1.0,
            };
        }
        let f_dyn = self.dynamic_fraction();
        let certain = self.certain[class] / total;
        let estimate = self.estimate(class);
        // The interval holds its estimate; with no hit (or no miss) in the
        // class the bound is a difference of two equal terms, and rounding
        // must not push it past the estimate.
        ClassInterval {
            estimate,
            lo: (certain + f_dyn * (center - half)).clamp(0.0, estimate),
            hi: (certain + f_dyn * (center + half)).clamp(estimate, 1.0),
        }
    }

    /// Wilson score interval for one class at the given confidence, using
    /// the effective sample size and folding in certain mass.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < confidence < 1`.
    #[must_use]
    pub fn wilson(&self, class: usize, confidence: f64) -> ClassInterval {
        let z = two_sided_z(confidence);
        let n = self.effective_n();
        if n == 0.0 {
            return self.fold(class, 0.0, 0.0);
        }
        let p = self.sampled_p(class);
        let denom = 1.0 + z * z / n;
        let center = (p + z * z / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z * z / (4.0 * n * n)).sqrt();
        self.fold(class, center, half)
    }

    /// Agresti–Coull interval for one class — the simpler add-`z²/2`
    /// approximation of Wilson; exposed for cross-checking.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < confidence < 1`.
    #[must_use]
    pub fn agresti_coull(&self, class: usize, confidence: f64) -> ClassInterval {
        let z = two_sided_z(confidence);
        let n = self.effective_n();
        if n == 0.0 {
            return self.fold(class, 0.0, 0.0);
        }
        let x = self.sampled_p(class) * n;
        let n_tilde = n + z * z;
        let p_tilde = (x + z * z / 2.0) / n_tilde;
        let half = z * (p_tilde * (1.0 - p_tilde) / n_tilde).sqrt();
        self.fold(class, p_tilde, half)
    }

    /// Wilson intervals for all five classes in [`CLASS_LABELS`] order.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < confidence < 1`.
    #[must_use]
    pub fn intervals(&self, confidence: f64) -> [ClassInterval; CLASSES] {
        std::array::from_fn(|k| self.wilson(k, confidence))
    }

    /// The widest per-class half-width — the achieved error margin of the
    /// whole outcome distribution at this confidence.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < confidence < 1`.
    #[must_use]
    pub fn achieved_margin(&self, confidence: f64) -> f64 {
        self.intervals(confidence)
            .iter()
            .map(ClassInterval::half_width)
            .fold(0.0, f64::max)
    }

    /// True when every per-class interval fits the margin.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < confidence < 1`.
    #[must_use]
    pub fn converged(&self, confidence: f64, margin: f64) -> bool {
        !self.is_empty() && self.achieved_margin(confidence) <= margin
    }

    /// The combined (certain + sampled) outcome distribution as a
    /// resilience profile — the anytime AVF estimate.
    #[must_use]
    pub fn profile(&self) -> ResilienceProfile {
        let w: [f64; CLASSES] = std::array::from_fn(|k| self.certain[k] + self.weights[k]);
        ResilienceProfile::from_parts(w[0], w[1], w[2] + w[3], w[2], w[3], w[4])
    }
}

/// Sequential-sampling-aware stopping rule: stop once every per-class
/// Wilson interval fits `margin` at `confidence`, but never before
/// `min_samples` raw injections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopRule {
    /// Confidence level of the per-class intervals, e.g. `0.998`.
    pub confidence: f64,
    /// Required error margin (maximum interval half-width), e.g. `0.0063`.
    pub margin: f64,
    /// Minimum raw sample count before the rule may fire.
    pub min_samples: u64,
}

impl StopRule {
    /// Builds a rule composed with the a-priori `required_samples` math:
    /// the minimum-sample floor is 1% of the infinite-population bound for
    /// the same (confidence, margin) pair, but at least 50 samples. The
    /// width condition is checked after every sample; the floor keeps a
    /// lucky opening streak (optional stopping) from ending a campaign
    /// that has seen a statistically trivial number of injections.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < confidence < 1` and `0 < margin < 1`.
    #[must_use]
    pub fn new(confidence: f64, margin: f64) -> Self {
        assert!(
            margin > 0.0 && margin < 1.0,
            "margin must be in (0, 1), got {margin}"
        );
        let apriori = required_samples_infinite(confidence, margin);
        StopRule {
            confidence,
            margin,
            min_samples: apriori.div_ceil(100).max(50),
        }
    }

    /// Overrides the minimum-sample floor (tests and aggressive modes).
    #[must_use]
    pub fn with_min_samples(mut self, min_samples: u64) -> Self {
        self.min_samples = min_samples;
        self
    }

    /// True when the estimator satisfies both the floor and the per-class
    /// width condition.
    #[must_use]
    pub fn should_stop(&self, est: &StreamEstimator) -> bool {
        est.len() >= self.min_samples && est.converged(self.confidence, self.margin)
    }

    /// Projected total raw sample count needed for convergence, from the
    /// current estimates: Wilson-inverts the widest class, rescales from
    /// effective to raw samples by the design effect, and respects the
    /// floor. A dashboard estimate, not a guarantee.
    #[must_use]
    pub fn projected_total(&self, est: &StreamEstimator) -> u64 {
        if est.is_empty() {
            return required_samples_infinite(self.confidence, self.margin).max(self.min_samples);
        }
        if self.should_stop(est) {
            return est.len();
        }
        let f_dyn = est.dynamic_fraction();
        if f_dyn == 0.0 {
            // All mass is certain; only the floor can be outstanding.
            return est.len().max(self.min_samples);
        }
        let z = two_sided_z(self.confidence);
        // The combined half-width scales by f_dyn, so the dynamic side
        // must reach margin / f_dyn.
        let e = (self.margin / f_dyn).min(1.0);
        let needed_eff = (0..CLASSES)
            .map(|k| {
                let p = est.sampled_p(k);
                // Wilson width ~ z*sqrt(p(1-p)/n) away from the
                // boundaries, ~ z²/2n at p ∈ {0, 1}.
                (z * z * p * (1.0 - p) / (e * e)).max(z * z / (2.0 * e))
            })
            .fold(0.0, f64::max);
        let design_effect = est.len() as f64 / est.effective_n().max(1e-12);
        let projected = (needed_eff * design_effect).ceil() as u64;
        projected.max(est.len()).max(self.min_samples)
    }
}

/// Deterministic early-stop tracker over a planned campaign.
///
/// Sites resolve out of plan order (chunk scheduling, cache hits, racing
/// workers, fleet delivery). The tracker buffers every resolution in a
/// slot vector and advances a contiguous-prefix cursor, feeding the
/// estimator one site at a time *in plan order* and testing the rule after
/// each — so [`stop_len`](Self::stop_len) is the minimum prefix length at
/// which the rule holds, a pure function of the planned outcome sequence.
/// Workers may overshoot past that prefix before noticing; the final
/// profile must be computed over `[0, stop_len)` only, which is what makes
/// early-stopped runs byte-reproducible across reruns, worker counts and
/// placements.
#[derive(Debug, Clone)]
pub struct EarlyStop {
    rule: StopRule,
    weights: Vec<f64>,
    slots: Vec<Option<Outcome>>,
    prefix: usize,
    est: StreamEstimator,
    fired: Option<usize>,
}

impl EarlyStop {
    /// Builds a tracker for a plan of per-site extrapolation weights, with
    /// the campaign's statically settled mass as certain weight.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or non-finite.
    #[must_use]
    pub fn new(rule: StopRule, weights: Vec<f64>, certain: [f64; CLASSES]) -> Self {
        let slots = vec![None; weights.len()];
        EarlyStop {
            rule,
            weights,
            slots,
            prefix: 0,
            est: StreamEstimator::with_certain(certain),
            fired: None,
        }
    }

    /// Records the outcome of the site at plan index `idx`. Re-resolving
    /// an index is a no-op (the first outcome wins — resolutions are
    /// deterministic, so duplicates agree anyway).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is outside the plan.
    pub fn resolve(&mut self, idx: usize, outcome: Outcome) {
        assert!(idx < self.slots.len(), "site index {idx} outside the plan");
        if self.slots[idx].is_some() {
            return;
        }
        self.slots[idx] = Some(outcome);
        while let Some(Some(o)) = self.slots.get(self.prefix).copied() {
            self.est.record_weighted(o, self.weights[self.prefix]);
            self.prefix += 1;
            if self.fired.is_none() && self.rule.should_stop(&self.est) {
                self.fired = Some(self.prefix);
            }
        }
    }

    /// Length of the contiguous resolved prefix.
    #[must_use]
    pub fn prefix_len(&self) -> usize {
        self.prefix
    }

    /// Number of sites in the plan.
    #[must_use]
    pub fn total(&self) -> usize {
        self.slots.len()
    }

    /// The minimum plan-order prefix length at which the stopping rule
    /// first held, if it has.
    #[must_use]
    pub fn stop_len(&self) -> Option<usize> {
        self.fired
    }

    /// True once the rule has fired — remaining work can be cancelled.
    #[must_use]
    pub fn should_stop(&self) -> bool {
        self.fired.is_some()
    }

    /// The estimator over the resolved prefix.
    #[must_use]
    pub fn estimator(&self) -> &StreamEstimator {
        &self.est
    }

    /// The rule this tracker enforces.
    #[must_use]
    pub fn rule(&self) -> &StopRule {
        &self.rule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const OUTCOMES: [Outcome; CLASSES] = [
        Outcome::Masked,
        Outcome::Sdc,
        Outcome::CRASH,
        Outcome::HANG,
        Outcome::Detected,
    ];

    fn outcome(i: u8) -> Outcome {
        OUTCOMES[i as usize % CLASSES]
    }

    #[test]
    fn version_is_stable_and_nonzero() {
        assert_ne!(stream_version(), 0);
        assert_eq!(stream_version(), stream_version());
    }

    #[test]
    fn class_order_matches_wire_codes() {
        for (k, o) in OUTCOMES.iter().enumerate() {
            assert_eq!(class_index(*o), k);
            assert_eq!(o.code() as usize, k);
        }
    }

    #[test]
    fn intervals_contain_a_zero_estimate_exactly() {
        // With no hit in a class, Wilson's lower bound is centre − half
        // of two equal terms; rounding must not lift it above 0.
        let mut est = StreamEstimator::new();
        for n in 1..=2000 {
            est.record(Outcome::Masked);
            for confidence in [0.9, 0.95, 0.99] {
                let iv = est.wilson(1, confidence);
                assert_eq!(iv.estimate, 0.0);
                assert!(iv.lo <= iv.estimate, "n = {n}: lo = {}", iv.lo);
            }
        }
    }

    #[test]
    fn wilson_matches_textbook_value() {
        // n = 100, x = 50, 95%: the classic Wilson interval.
        let mut est = StreamEstimator::new();
        for i in 0..100 {
            est.record(if i < 50 {
                Outcome::Masked
            } else {
                Outcome::Sdc
            });
        }
        let iv = est.wilson(0, 0.95);
        assert!((iv.estimate - 0.5).abs() < 1e-12);
        assert!((iv.lo - 0.4038).abs() < 1e-3, "lo = {}", iv.lo);
        assert!((iv.hi - 0.5962).abs() < 1e-3, "hi = {}", iv.hi);
        // Agresti–Coull agrees to interval-width resolution here.
        let ac = est.agresti_coull(0, 0.95);
        assert!((ac.half_width() - iv.half_width()).abs() < 1e-3);
    }

    #[test]
    fn unit_weights_have_effective_n_equal_to_n() {
        let mut est = StreamEstimator::new();
        for i in 0..37 {
            est.record(outcome(i));
        }
        assert_eq!(est.len(), 37);
        assert!((est.effective_n() - 37.0).abs() < 1e-9);
    }

    #[test]
    fn certain_mass_narrows_intervals() {
        let mut dynamic = StreamEstimator::new();
        let mut folded = StreamEstimator::with_certain([300.0, 0.0, 0.0, 0.0, 0.0]);
        for i in 0..100 {
            dynamic.record(outcome(i));
            folded.record(outcome(i));
        }
        for k in 0..CLASSES {
            let plain = dynamic.wilson(k, 0.99).half_width();
            let tight = folded.wilson(k, 0.99).half_width();
            assert!(
                tight < plain,
                "class {k}: certain mass must narrow the interval ({tight} !< {plain})"
            );
        }
        // The masked estimate is pulled toward the certain mass.
        assert!(folded.estimate(0) > dynamic.estimate(0));
    }

    #[test]
    fn empty_estimator_is_trivial() {
        let est = StreamEstimator::new();
        assert!(est.is_empty());
        let iv = est.wilson(1, 0.998);
        assert_eq!((iv.lo, iv.hi), (0.0, 1.0));
        assert!(!est.converged(0.998, 0.0063));
    }

    #[test]
    fn from_parts_round_trips() {
        let mut est = StreamEstimator::with_certain([4.0, 0.0, 1.5, 0.0, 0.25]);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            est.record_weighted(
                outcome(rng.gen_range(0u8..CLASSES as u8)),
                rng.gen_range(0.5..8.0),
            );
        }
        let back =
            StreamEstimator::from_parts(est.counts(), est.weights(), est.sum_w2(), est.certain());
        assert!((back.effective_n() - est.effective_n()).abs() < 1e-9);
        // Σw is re-derived from the per-class totals, so agreement is to
        // accumulation-order rounding, not bit-exact.
        for k in 0..CLASSES {
            let (a, b) = (back.wilson(k, 0.99), est.wilson(k, 0.99));
            assert!((a.estimate - b.estimate).abs() < 1e-12);
            assert!((a.lo - b.lo).abs() < 1e-12 && (a.hi - b.hi).abs() < 1e-12);
        }
    }

    #[test]
    fn profile_matches_record_weighted() {
        let mut est = StreamEstimator::new();
        let mut profile = ResilienceProfile::new();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..500 {
            let o = outcome(rng.gen_range(0u8..CLASSES as u8));
            let w = rng.gen_range(0.1..4.0);
            est.record_weighted(o, w);
            profile.record_weighted(o, w);
        }
        assert!(est.profile().max_abs_diff(&profile) < 1e-9);
        assert!((est.profile().total() - profile.total()).abs() < 1e-9);
    }

    #[test]
    fn stop_rule_floor_composes_with_required_samples() {
        let rule = StopRule::new(0.998, 0.0063);
        let apriori = required_samples_infinite(0.998, 0.0063);
        assert_eq!(rule.min_samples, apriori.div_ceil(100));
        // A loose rule still keeps the 50-sample guard.
        assert_eq!(StopRule::new(0.9, 0.2).min_samples, 50);
    }

    #[test]
    fn stop_rule_never_fires_below_floor() {
        let rule = StopRule::new(0.9, 0.3); // wide margin: converges fast
        let mut est = StreamEstimator::new();
        for i in 0..200 {
            assert!(
                est.len() >= rule.min_samples || !rule.should_stop(&est),
                "fired below the floor at n = {}",
                est.len()
            );
            est.record(outcome(i));
        }
        assert!(rule.should_stop(&est), "must fire once floor + width hold");
    }

    #[test]
    fn projected_total_is_sane() {
        let rule = StopRule::new(0.99, 0.05);
        let empty = StreamEstimator::new();
        assert_eq!(
            rule.projected_total(&empty),
            required_samples_infinite(0.99, 0.05).max(rule.min_samples)
        );
        let mut est = StreamEstimator::new();
        for i in 0..100 {
            est.record(outcome(i));
        }
        let projected = rule.projected_total(&est);
        assert!(projected >= est.len());
        // Once converged, the projection is exactly what was spent.
        let mut big = StreamEstimator::new();
        for i in 0..5000u64 {
            big.record(outcome((i % 256) as u8));
        }
        assert!(rule.should_stop(&big));
        assert_eq!(rule.projected_total(&big), 5000);
    }

    #[test]
    fn early_stop_is_arrival_order_invariant() {
        let rule = StopRule::new(0.9, 0.12).with_min_samples(40);
        let n = 400;
        let mut rng = StdRng::seed_from_u64(0xFEED);
        let outcomes: Vec<Outcome> = (0..n)
            .map(|_| outcome(rng.gen_range(0u8..CLASSES as u8)))
            .collect();
        let weights = vec![1.0; n];

        let mut plan_order = EarlyStop::new(rule, weights.clone(), [0.0; CLASSES]);
        for (i, o) in outcomes.iter().enumerate() {
            plan_order.resolve(i, *o);
        }
        for seed in 0..8u64 {
            let mut order: Vec<usize> = (0..n).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..n).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
            let mut shuffled = EarlyStop::new(rule, weights.clone(), [0.0; CLASSES]);
            for &i in &order {
                shuffled.resolve(i, outcomes[i]);
            }
            assert_eq!(shuffled.stop_len(), plan_order.stop_len());
            assert_eq!(shuffled.estimator(), plan_order.estimator());
        }
    }

    #[test]
    fn early_stop_fires_at_minimum_prefix() {
        // Fixed-seed oracle: stop_len is the *first* prefix length whose
        // replayed estimator satisfies the rule, and no shorter prefix
        // does — early stop never fires before the CI condition holds on
        // the contiguous prefix.
        let rule = StopRule::new(0.95, 0.1).with_min_samples(30);
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let n = 600;
        let outcomes: Vec<Outcome> = (0..n)
            .map(|_| outcome(rng.gen_range(0u8..CLASSES as u8)))
            .collect();
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..4.0)).collect();
        let certain = [120.0, 0.0, 6.0, 0.0, 0.0];

        let mut tracker = EarlyStop::new(rule, weights.clone(), certain);
        for (i, o) in outcomes.iter().enumerate() {
            tracker.resolve(i, *o);
        }
        let stop = tracker.stop_len().expect("loose rule must fire on n=600");

        let replay_converges = |len: usize| {
            let mut est = StreamEstimator::with_certain(certain);
            for i in 0..len {
                est.record_weighted(outcomes[i], weights[i]);
            }
            rule.should_stop(&est)
        };
        assert!(replay_converges(stop), "rule must hold at stop_len");
        for len in (0..stop).rev().take(25) {
            assert!(!replay_converges(len), "prefix {len} already converged");
        }
    }

    #[test]
    fn resolve_twice_is_idempotent() {
        let rule = StopRule::new(0.9, 0.3);
        let mut t = EarlyStop::new(rule, vec![1.0; 4], [0.0; CLASSES]);
        t.resolve(1, Outcome::Sdc);
        t.resolve(1, Outcome::Masked); // ignored: first outcome wins
        t.resolve(0, Outcome::Masked);
        assert_eq!(t.prefix_len(), 2);
        assert_eq!(t.estimator().counts(), [1, 1, 0, 0, 0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Online accumulation equals batch recomputation, in any order:
        /// final counts/weights/intervals are permutation-invariant.
        #[test]
        fn online_equals_batch_under_permutation(
            codes in prop::collection::vec(0u8..CLASSES as u8, 1..200),
            seed in 0u64..1000,
        ) {
            let mut online = StreamEstimator::new();
            for &c in &codes {
                online.record_weighted(outcome(c), f64::from(c) + 0.5);
            }
            let mut order: Vec<usize> = (0..codes.len()).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
            let mut batch = StreamEstimator::new();
            for &i in &order {
                batch.record_weighted(outcome(codes[i]), f64::from(codes[i]) + 0.5);
            }
            prop_assert_eq!(online.counts(), batch.counts());
            prop_assert!((online.effective_n() - batch.effective_n()).abs() < 1e-9);
            for k in 0..CLASSES {
                let a = online.wilson(k, 0.99);
                let b = batch.wilson(k, 0.99);
                prop_assert!((a.lo - b.lo).abs() < 1e-12 && (a.hi - b.hi).abs() < 1e-12);
            }
        }

        /// Duplicating a sample narrows every interval: the CI is
        /// monotone in replication — the "in expectation" narrowing
        /// pinned on its deterministic backbone.
        #[test]
        fn replication_narrows_intervals(
            codes in prop::collection::vec(0u8..CLASSES as u8, 2..60),
        ) {
            let mut once = StreamEstimator::new();
            let mut fourfold = StreamEstimator::new();
            for &c in &codes {
                once.record(outcome(c));
            }
            for _ in 0..4 {
                for &c in &codes {
                    fourfold.record(outcome(c));
                }
            }
            for k in 0..CLASSES {
                let wide = once.wilson(k, 0.998).half_width();
                let narrow = fourfold.wilson(k, 0.998).half_width();
                prop_assert!(narrow < wide, "class {}: {} !< {}", k, narrow, wide);
            }
            prop_assert!(fourfold.achieved_margin(0.998) < once.achieved_margin(0.998));
        }

        /// The tracker's estimator state always equals a plan-order replay
        /// of its resolved prefix, whatever the arrival order.
        #[test]
        fn tracker_prefix_equals_replay(
            codes in prop::collection::vec(0u8..CLASSES as u8, 1..120),
            seed in 0u64..1000,
        ) {
            let rule = StopRule::new(0.95, 0.15).with_min_samples(10);
            let n = codes.len();
            let mut order: Vec<usize> = (0..n).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..n).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
            let arrivals = rng.gen_range(0..n + 1);
            let mut tracker = EarlyStop::new(rule, vec![1.0; n], [0.0; CLASSES]);
            for &i in order.iter().take(arrivals) {
                tracker.resolve(i, outcome(codes[i]));
            }
            let mut replay = StreamEstimator::new();
            for &c in codes.iter().take(tracker.prefix_len()) {
                replay.record(outcome(c));
            }
            prop_assert_eq!(tracker.estimator(), &replay);
            if let Some(stop) = tracker.stop_len() {
                prop_assert!(stop <= tracker.prefix_len());
            }
        }
    }
}
