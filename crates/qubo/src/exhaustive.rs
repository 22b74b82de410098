//! Exhaustive (brute-force) QUBO solving.
//!
//! The test suite and the optimality classifier both need ground truth
//! for small problems. The `2ⁿ` assignments are split into chunks and
//! reduced through rayon's parallel-iterator API; the vendored `rayon`
//! stand-in runs the chunks sequentially on the calling thread.

use crate::qubo::Qubo;
use rayon::prelude::*;

/// Result of an exhaustive minimization.
#[derive(Clone, Debug, PartialEq)]
pub struct ExhaustiveResult {
    /// The minimum energy found.
    pub min_energy: f64,
    /// Every assignment (bit `i` = variable `i`) attaining the minimum,
    /// in increasing numeric order.
    pub minimizers: Vec<u64>,
}

impl ExhaustiveResult {
    /// Decode minimizer `idx` into a boolean vector of length `n`.
    pub fn decode(&self, idx: usize, n: usize) -> Vec<bool> {
        let bits = self.minimizers[idx];
        (0..n).map(|i| bits >> i & 1 == 1).collect()
    }
}

/// Absolute tolerance when comparing energies of floating-point QUBOs.
pub const ENERGY_EPS: f64 = 1e-9;

/// Exhaustively minimize `q` over all `2^num_vars` assignments.
///
/// Panics if `num_vars > 30` — beyond that the enumeration is too large
/// to be useful as ground truth.
pub fn solve_exhaustive(q: &Qubo) -> ExhaustiveResult {
    let n = q.num_vars();
    assert!(n <= 30, "exhaustive solve limited to 30 variables, got {n}");
    let total = 1u64 << n;
    // Each worker scans a contiguous chunk and reports its local optimum
    // with all local argmins; a sequential reduce merges them.
    let chunk = (total / (rayon::current_num_threads() as u64 * 8)).max(1024);
    let num_chunks = total.div_ceil(chunk);
    let locals: Vec<(f64, Vec<u64>)> = (0..num_chunks)
        .into_par_iter()
        .map(|c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(total);
            let mut best = f64::INFINITY;
            let mut mins = Vec::new();
            for bits in lo..hi {
                let e = q.energy_bits(bits);
                if e < best - ENERGY_EPS {
                    best = e;
                    mins.clear();
                    mins.push(bits);
                } else if e <= best + ENERGY_EPS {
                    best = best.min(e);
                    mins.push(bits);
                }
            }
            (best, mins)
        })
        .collect();
    let mut best = f64::INFINITY;
    for (e, _) in &locals {
        best = best.min(*e);
    }
    let mut minimizers: Vec<u64> =
        locals.into_iter().filter(|(e, _)| *e <= best + ENERGY_EPS).flat_map(|(_, m)| m).collect();
    // Chunk-local tolerance can admit points slightly above the global
    // minimum; re-filter against the global value.
    minimizers.retain(|&bits| q.energy_bits(bits) <= best + ENERGY_EPS);
    minimizers.sort_unstable();
    ExhaustiveResult { min_energy: best, minimizers }
}

/// Exhaustively *maximize* `q` (used for computing the worst-case soft
/// penalty when weighting hard constraints).
pub fn max_energy(q: &Qubo) -> f64 {
    let n = q.num_vars();
    assert!(n <= 30, "exhaustive max limited to 30 variables, got {n}");
    (0u64..1 << n)
        .into_par_iter()
        .map(|bits| q.energy_bits(bits))
        .reduce(|| f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_unique_minimum() {
        // f = x0 + x1 - 3 x0 x1: min at (1,1) with energy -1
        let mut q = Qubo::new(2);
        q.add_linear(0, 1.0);
        q.add_linear(1, 1.0);
        q.add_quadratic(0, 1, -3.0);
        let r = solve_exhaustive(&q);
        assert_eq!(r.min_energy, -1.0);
        assert_eq!(r.minimizers, vec![0b11]);
        assert_eq!(r.decode(0, 2), vec![true, true]);
    }

    #[test]
    fn finds_all_degenerate_minima() {
        // f = ab - a - b: minima {01, 10, 11} at energy -1
        let mut q = Qubo::new(2);
        q.add_quadratic(0, 1, 1.0);
        q.add_linear(0, -1.0);
        q.add_linear(1, -1.0);
        let r = solve_exhaustive(&q);
        assert_eq!(r.min_energy, -1.0);
        assert_eq!(r.minimizers, vec![0b01, 0b10, 0b11]);
    }

    #[test]
    fn zero_qubo_all_assignments_minimize() {
        let q = Qubo::new(3);
        let r = solve_exhaustive(&q);
        assert_eq!(r.min_energy, 0.0);
        assert_eq!(r.minimizers.len(), 8);
    }

    #[test]
    fn parallel_matches_sequential_on_larger_instance() {
        // A pseudo-random 16-variable QUBO; compare the parallel result
        // against a straightforward sequential scan.
        let mut q = Qubo::new(16);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 17) as f64 - 8.0
        };
        for i in 0..16 {
            q.add_linear(i, next());
            for j in i + 1..16 {
                if next() > 4.0 {
                    q.add_quadratic(i, j, next());
                }
            }
        }
        let r = solve_exhaustive(&q);
        let mut best = f64::INFINITY;
        let mut mins = Vec::new();
        for bits in 0..1u64 << 16 {
            let e = q.energy_bits(bits);
            if e < best - ENERGY_EPS {
                best = e;
                mins.clear();
                mins.push(bits);
            } else if e <= best + ENERGY_EPS {
                mins.push(bits);
            }
        }
        assert_eq!(r.min_energy, best);
        assert_eq!(r.minimizers, mins);
    }

    #[test]
    fn max_energy_is_negated_min_of_negation() {
        let mut q = Qubo::new(4);
        q.add_linear(0, 2.0);
        q.add_linear(3, -1.0);
        q.add_quadratic(1, 2, 5.0);
        let max = max_energy(&q);
        let mut neg = q.clone();
        neg.scale(-1.0);
        let r = solve_exhaustive(&neg);
        assert_eq!(max, -r.min_energy);
    }

    #[test]
    #[should_panic(expected = "limited to 30 variables")]
    fn too_many_variables_panics() {
        let q = Qubo::new(31);
        let _ = solve_exhaustive(&q);
    }
}
