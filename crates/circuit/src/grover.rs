//! Grover search over NchooseK-style predicates.
//!
//! The original NchooseK abstraction was "first used for a Grover
//! search by Khemtawat et al." (§I of the paper) before the QAOA/QUBO
//! pipeline took over. This module restores that lineage: amplitude
//! amplification of the assignments satisfying a Boolean predicate,
//! with the textbook ⌈π/4·√(N/M)⌉ iteration schedule.
//!
//! The oracle is applied as a diagonal phase flip read from a table of
//! the predicate's value on every basis state — standard practice for
//! simulators, where building the reversible oracle circuit would only
//! change constant factors, not the measured amplification behavior.

use crate::complex::Complex;
use crate::gates::Gate;
use crate::state::StateVector;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Largest register the Grover simulation accepts.
const MAX_QUBITS: usize = 24;

/// Result of a Grover run.
#[derive(Clone, Debug)]
pub struct GroverResult {
    /// The measured assignment (bit per variable).
    pub assignment: Vec<bool>,
    /// Whether it satisfies the predicate.
    pub satisfying: bool,
    /// Grover iterations applied.
    pub iterations: usize,
    /// Probability mass on satisfying states just before measurement.
    pub success_probability: f64,
}

/// Number of Grover iterations for `marked` solutions among `total`
/// states: ⌈(π/4)·√(total/marked)⌉ (0 when everything is marked).
pub fn optimal_iterations(total: u64, marked: u64) -> usize {
    assert!(marked > 0, "Grover needs at least one marked state");
    if marked >= total {
        return 0;
    }
    let angle = ((marked as f64 / total as f64).sqrt()).asin();
    ((std::f64::consts::FRAC_PI_4 / angle) - 0.5).round().max(0.0) as usize
}

/// The oracle table [`grover_search`] reads: entry `i` is
/// `predicate(i)`, one entry per basis state of `num_qubits` variables.
pub fn marked_states(num_qubits: usize, predicate: impl FnMut(u64) -> bool) -> Vec<bool> {
    assert!(num_qubits <= MAX_QUBITS, "Grover simulation limited to {MAX_QUBITS} qubits");
    (0..1u64 << num_qubits).map(predicate).collect()
}

/// Run Grover search over `num_qubits` variables for the basis states
/// flagged in `marked` (one entry per basis state; see
/// [`marked_states`]), with `iterations` rounds (pick via
/// [`optimal_iterations`] when the solution count is known).
pub fn grover_search(
    num_qubits: usize,
    marked: &[bool],
    iterations: usize,
    seed: u64,
) -> GroverResult {
    assert!(num_qubits <= MAX_QUBITS, "Grover simulation limited to {MAX_QUBITS} qubits");
    assert_eq!(marked.len(), 1 << num_qubits, "one marked flag per basis state");
    let mut s = StateVector::zero(num_qubits);
    for q in 0..num_qubits {
        s.apply(Gate::H(q));
    }
    for _ in 0..iterations {
        // Oracle: phase-flip marked states.
        s.map_amplitudes(|i, a| if marked[i] { -a } else { a });
        // Diffusion: reflect about the uniform state, 2|ψ₀⟩⟨ψ₀| − I.
        s.reflect_about_mean();
    }
    let success_probability: f64 =
        (0..marked.len()).filter(|&i| marked[i]).map(|i| s.prob(i)).sum();
    let mut rng = StdRng::seed_from_u64(seed);
    let bits = s.sample(&mut rng);
    GroverResult {
        assignment: (0..num_qubits).map(|q| bits >> q & 1 == 1).collect(),
        satisfying: marked[bits as usize],
        iterations,
        success_probability,
    }
}

impl StateVector {
    /// Apply a diagonal amplitude map (used by the Grover oracle).
    pub fn map_amplitudes(&mut self, f: impl Fn(usize, Complex) -> Complex) {
        for i in 0..1usize << self.num_qubits() {
            let a = self.amp(i);
            self.set_amp(i, f(i, a));
        }
    }

    /// Grover diffusion: `a_i ← 2·mean − a_i`.
    pub fn reflect_about_mean(&mut self) {
        let n = 1usize << self.num_qubits();
        let mut mean = Complex::ZERO;
        for i in 0..n {
            mean += self.amp(i);
        }
        mean = mean.scale(1.0 / n as f64);
        for i in 0..n {
            let a = self.amp(i);
            self.set_amp(i, mean.scale(2.0) - a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_marked_state_amplifies() {
        // 8 qubits, one marked state: optimal schedule must exceed 99%.
        let target = 0b1011_0110u64;
        let iters = optimal_iterations(256, 1);
        assert_eq!(iters, 12); // ⌊π/4·16⌋ rounded
        let r = grover_search(8, &marked_states(8, |x| x == target), iters, 5);
        assert!(r.success_probability > 0.99, "p = {}", r.success_probability);
        assert!(r.satisfying);
    }

    #[test]
    fn iteration_schedule_quadratic() {
        // Doubling the search space grows iterations by √2.
        let a = optimal_iterations(1 << 10, 1);
        let b = optimal_iterations(1 << 12, 1);
        assert!((b as f64 / a as f64 - 2.0).abs() < 0.1, "{a} vs {b}");
    }

    #[test]
    fn multiple_solutions_need_fewer_iterations() {
        let iters = optimal_iterations(256, 16);
        assert!(iters < optimal_iterations(256, 1));
        let r = grover_search(8, &marked_states(8, |x| x % 16 == 3), iters, 7);
        assert!(r.success_probability > 0.95, "p = {}", r.success_probability);
    }

    #[test]
    fn all_marked_needs_zero_iterations() {
        assert_eq!(optimal_iterations(64, 64), 0);
        let r = grover_search(6, &marked_states(6, |_| true), 0, 1);
        assert!(r.satisfying);
        assert!((r.success_probability - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overshooting_degrades() {
        // Grover success is periodic: running ~2× the optimal count
        // rotates past the target.
        let opt = optimal_iterations(256, 1);
        let marked = marked_states(8, |x| x == 99);
        let good = grover_search(8, &marked, opt, 3);
        let over = grover_search(8, &marked, 2 * opt + 1, 3);
        assert!(good.success_probability > 0.99);
        assert!(over.success_probability < 0.5, "p = {}", over.success_probability);
    }

    #[test]
    fn nchoosek_predicate_search() {
        // Search for assignments satisfying nck({a,b},{0,1}) ∧
        // nck({b,c},{1}) — the paper's intro example (3 solutions in 8).
        let pred = |x: u64| {
            let (a, b, c) = (x & 1, x >> 1 & 1, x >> 2 & 1);
            (a + b <= 1) && (b + c == 1)
        };
        let iters = optimal_iterations(8, 3);
        let r = grover_search(3, &marked_states(3, pred), iters, 11);
        // Tiny space: one rotation lands at sin²(3θ) ≈ 0.84, the best
        // achievable — clearly above the 3/8 uniform baseline.
        assert!(r.success_probability > 0.8, "p = {}", r.success_probability);
        assert!(r.satisfying);
    }
}
