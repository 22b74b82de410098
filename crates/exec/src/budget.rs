//! [`RunBudget`] and [`RetryPolicy`]: the cost envelope of a
//! supervised execution.
//!
//! A budget bounds a run in three dimensions — wall-clock deadline,
//! total attempts across every ladder rung, and total candidate
//! samples — and the retry policy spaces attempts with deterministic,
//! seedable exponential backoff plus jitter. Determinism matters here
//! the same way it does everywhere else in this reproduction: two runs
//! with the same seed must schedule the same backoffs, so chaos-suite
//! failures replay exactly.

use nck_cancel::CancelToken;
use std::fmt;
use std::time::Duration;

/// SplitMix64 finalizer (same mixing as the annealer's per-read seed
/// derivation): jitter for attempt `k` of seed `s` is derived from the
/// `k`-th element of the SplitMix64 stream at `s`.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The cost envelope of one supervised run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunBudget {
    /// Wall-clock deadline for the whole run (all rungs, retries, and
    /// backoffs included). `None` = unbounded.
    pub deadline: Option<Duration>,
    /// Total attempts across every rung of the ladder.
    pub max_attempts: u32,
    /// Total candidate samples across every attempt. `None` =
    /// unbounded. Attempts already in flight complete; the budget
    /// gates *further* attempts.
    pub max_samples: Option<u64>,
}

impl Default for RunBudget {
    fn default() -> Self {
        RunBudget { deadline: None, max_attempts: 12, max_samples: None }
    }
}

impl RunBudget {
    /// A budget bounded only by `deadline`.
    pub fn with_deadline(deadline: Duration) -> Self {
        RunBudget { deadline: Some(deadline), ..RunBudget::default() }
    }

    /// A cancellation token armed with this budget's deadline (a
    /// never-firing token when unbounded).
    pub fn token(&self) -> CancelToken {
        match self.deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::never(),
        }
    }
}

/// A budget dimension that can run out, as named in
/// [`ExecError::BudgetExhausted`](crate::ExecError::BudgetExhausted).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetDim {
    /// [`RunBudget::max_attempts`].
    Attempts,
    /// [`RunBudget::max_samples`].
    Samples,
    /// [`RunBudget::deadline`].
    Deadline,
    /// The classical backend's branch-and-bound node limit.
    Nodes,
}

impl BudgetDim {
    /// Every budget dimension, in declaration order.
    pub const ALL: [BudgetDim; 4] =
        [BudgetDim::Attempts, BudgetDim::Samples, BudgetDim::Deadline, BudgetDim::Nodes];
}

impl fmt::Display for BudgetDim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            BudgetDim::Attempts => "attempts",
            BudgetDim::Samples => "samples",
            BudgetDim::Deadline => "deadline",
            BudgetDim::Nodes => "nodes",
        })
    }
}

/// Deterministic exponential backoff with jitter.
///
/// The delay before retry `k` (0-based) is
/// `min(cap, base · 2^k) · (1 − jitter · u_k)` where `u_k ∈ [0, 1)` is
/// drawn from the SplitMix64 stream at `seed` — fully determined by
/// `(seed, k)`, monotonically bounded by `cap`, and never negative.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Retries per rung after the first attempt (so a rung makes at
    /// most `1 + retries_per_rung` attempts).
    pub retries_per_rung: u32,
    /// Base backoff before the first retry.
    pub base: Duration,
    /// Upper bound on any single backoff delay.
    pub cap: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a
    /// deterministic factor in `[1 − jitter, 1]`.
    pub jitter: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries_per_rung: 2,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(200),
            jitter: 0.5,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff delay before retry `attempt` (0-based): capped
    /// exponential with deterministic jitter.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self.base.as_secs_f64() * 2f64.powi(attempt.min(63) as i32);
        let capped = exp.min(self.cap.as_secs_f64());
        let u = splitmix64(self.seed ^ u64::from(attempt).wrapping_mul(0x9e3779b97f4a7c15)) as f64
            / u64::MAX as f64;
        let jitter = self.jitter.clamp(0.0, 1.0);
        Duration::from_secs_f64(capped * (1.0 - jitter * u))
    }

    /// The full backoff schedule for one rung, clamped so that the
    /// *cumulative* scheduled backoff never exceeds `budget`'s
    /// deadline: once the running total reaches the deadline the
    /// remaining delays are truncated to zero (the run would be
    /// cancelled before sleeping them anyway).
    pub fn schedule(&self, budget: &RunBudget) -> Vec<Duration> {
        let mut total = Duration::ZERO;
        (0..self.retries_per_rung)
            .map(|k| {
                let mut d = self.delay(k);
                if let Some(deadline) = budget.deadline {
                    d = d.min(deadline.saturating_sub(total));
                }
                total += d;
                d
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unbounded_in_time() {
        let b = RunBudget::default();
        assert!(b.deadline.is_none());
        assert!(!b.token().is_cancelled());
    }

    #[test]
    fn deadline_budget_arms_the_token() {
        let b = RunBudget::with_deadline(Duration::ZERO);
        assert!(b.token().is_cancelled());
    }

    #[test]
    fn delay_is_deterministic_and_capped() {
        let p = RetryPolicy { seed: 42, ..RetryPolicy::default() };
        for k in 0..10 {
            assert_eq!(p.delay(k), p.delay(k));
            assert!(p.delay(k) <= p.cap);
        }
        let q = RetryPolicy { seed: 43, ..p };
        assert_ne!(p.delay(0), q.delay(0), "different seeds must jitter differently");
    }

    #[test]
    fn schedule_respects_deadline() {
        let p = RetryPolicy {
            retries_per_rung: 8,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(1),
            jitter: 0.0,
            seed: 1,
        };
        let b = RunBudget::with_deadline(Duration::from_millis(120));
        let schedule = p.schedule(&b);
        let total: Duration = schedule.iter().sum();
        assert!(total <= Duration::from_millis(120), "total backoff {total:?} exceeds deadline");
    }
}
