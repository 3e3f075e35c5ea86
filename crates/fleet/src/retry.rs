//! Capped exponential backoff with deterministic jitter.
//!
//! Shared by the worker runtime (transient coordinator errors, lease
//! waits) and the service client's `wait`. The jitter source is a
//! tiny xorshift stream seeded per [`Backoff`], so delay schedules are
//! reproducible for a given seed yet decorrelated across workers.

use std::time::Duration;

/// The [`Backoff::poll`] cap, and the longest wait a coordinator holds a
/// `POST /leases` or `GET /jobs/:id` request open for: a larger `wait_ms`
/// is clamped to it.
pub const MAX_POLL_WAIT: Duration = Duration::from_secs(2);

/// A capped exponential backoff schedule with multiplicative jitter.
///
/// Delays grow `base * 2^attempt`, saturating at `cap`, then each delay is
/// scaled by a jitter factor drawn uniformly from `[0.5, 1.0)` so that
/// independent retriers do not synchronize.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// Creates a schedule from `base` (first delay) to `cap` (largest
    /// pre-jitter delay), jittered from `seed`.
    #[must_use]
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Backoff {
            base,
            cap,
            attempt: 0,
            // Xorshift must not start at 0; fold in a constant.
            rng: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// The schedule used against the coordinator: 50ms doubling to
    /// [`MAX_POLL_WAIT`]. Each delay bounds a server-side wait (`wait_ms`
    /// of `POST /leases` or `GET /jobs/:id`) that ends early as soon as
    /// there is work or the job settles, so the schedule sets the idle
    /// request rate, not the latency; after a transport error it is a
    /// plain sleep.
    #[must_use]
    pub fn poll(seed: u64) -> Self {
        Backoff::new(Duration::from_millis(50), MAX_POLL_WAIT, seed)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Returns the next delay and advances the schedule.
    pub fn next_delay(&mut self) -> Duration {
        let exp = self.attempt.min(16);
        self.attempt = self.attempt.saturating_add(1);
        let raw = self
            .base
            .saturating_mul(1u32 << exp.min(31))
            .min(self.cap)
            .max(Duration::from_millis(1));
        // Jitter factor in [0.5, 1.0): keep at least half the nominal delay
        // so the cap still bounds the worst-case polling rate.
        let jitter = 0.5 + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
        raw.mul_f64(jitter)
    }

    /// Resets the schedule after a success, keeping the jitter stream.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Sleeps for the next delay.
    pub fn sleep(&mut self) {
        std::thread::sleep(self.next_delay());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_and_cap() {
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(500), 42);
        let delays: Vec<Duration> = (0..12).map(|_| b.next_delay()).collect();
        // Every delay respects the jittered envelope [raw/2, raw).
        let mut raw = Duration::from_millis(10);
        for d in &delays {
            let expect = raw.min(Duration::from_millis(500));
            assert!(*d >= expect.div_f64(2.0), "{d:?} below half of {expect:?}");
            assert!(*d <= expect, "{d:?} above {expect:?}");
            raw = raw.saturating_mul(2);
        }
        // Late delays saturate near the cap, not at the base.
        assert!(delays[11] >= Duration::from_millis(250));
    }

    #[test]
    fn reset_restarts_the_envelope() {
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_secs(1), 7);
        for _ in 0..8 {
            b.next_delay();
        }
        b.reset();
        assert!(b.next_delay() <= Duration::from_millis(10));
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = Backoff::poll(3);
        let mut b = Backoff::poll(3);
        let da: Vec<Duration> = (0..6).map(|_| a.next_delay()).collect();
        let db: Vec<Duration> = (0..6).map(|_| b.next_delay()).collect();
        assert_eq!(da, db);
        let mut c = Backoff::poll(4);
        let dc: Vec<Duration> = (0..6).map(|_| c.next_delay()).collect();
        assert_ne!(da, dc, "different seeds decorrelate");
    }
}
