//! Aggregation of per-input timings: best-of-rounds, nearest-rank
//! percentiles, and the tail rule.

/// Inputs that must lie strictly beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Per-input best time over rounds: `rounds[r][i]` is input `i`'s time
/// in round `r`; the result has one entry per input.
pub fn best_of_rounds(rounds: &[Vec<f64>]) -> Vec<f64> {
    let inputs = rounds.first().map_or(0, Vec::len);
    (0..inputs).map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min)).collect()
}

/// The 1-based nearest rank of percentile `p` (0 < p ≤ 100) in `n`
/// sorted values.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    // The guard keeps a rank that is whole on paper (p75 of 40 is 30)
    // from rounding up past it.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// The highest percentile of `n` values with at least
/// [`TAIL_BEYOND`] values beyond it, or `None` when `n` is too small.
pub fn tail_percentile(n: usize) -> Option<f64> {
    (n > TAIL_BEYOND).then(|| 100.0 * (n - TAIL_BEYOND) as f64 / n as f64)
}

/// Inputs per second of summed per-input time (`ms`).
pub fn solves_per_s(best_ms: &[f64]) -> f64 {
    best_ms.len() as f64 / (best_ms.iter().sum::<f64>() / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_inputs_beyond() {
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(50), Some(80.0));
        assert_eq!(tail_percentile(10), None);
        for n in 11..200 {
            let p = tail_percentile(n).unwrap();
            let rank = nearest_rank(p, n);
            assert!(n - rank >= TAIL_BEYOND, "n={n}: only {} beyond", n - rank);
            // The next rank up would leave fewer than ten beyond.
            assert!(n - (rank + 1) < TAIL_BEYOND, "n={n}: p{p} is not the highest");
        }
    }

    #[test]
    fn tail_picks_the_thirtieth_of_forty() {
        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, tail_percentile(40).unwrap()), 30.0);
        assert_eq!(percentile(&xs, 50.0), 20.0);
    }

    #[test]
    fn best_of_rounds_takes_each_inputs_minimum() {
        let rounds = vec![vec![5.0, 1.0, 9.0], vec![4.0, 3.0, 9.5], vec![6.0, 2.0, 8.0]];
        assert_eq!(best_of_rounds(&rounds), vec![4.0, 1.0, 8.0]);
    }

    #[test]
    fn solves_per_s_divides_inputs_by_summed_best_time() {
        let best = best_of_rounds(&[vec![100.0, 400.0], vec![250.0, 500.0]]);
        assert_eq!(best, vec![100.0, 400.0]);
        assert!((solves_per_s(&best) - 4.0).abs() < 1e-12);
    }
}
