//! Simulated annealing sampler over arbitrary Ising problems.
//!
//! The physical anneal of the D-Wave device is replaced by classical
//! simulated annealing over the *embedded* problem, with an ICE-style
//! noise model: per-read Gaussian perturbation of fields and couplings
//! plus readout flips. Reads are independent (each seeds its own RNG)
//! and go through rayon's parallel-iterator API, but the vendored
//! `rayon` stand-in runs them one after another on the calling thread.

use nck_cancel::CancelToken;
use nck_qubo::Ising;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Simulated-annealing schedule parameters.
#[derive(Clone, Copy, Debug)]
pub struct SaParams {
    /// Metropolis sweeps per read.
    pub num_sweeps: usize,
    /// Initial inverse temperature.
    pub beta_min: f64,
    /// Final inverse temperature.
    pub beta_max: f64,
}

impl Default for SaParams {
    fn default() -> Self {
        SaParams { num_sweeps: 64, beta_min: 0.1, beta_max: 10.0 }
    }
}

/// Analog-control error model (D-Wave "ICE"): coefficients seen by the
/// hardware differ slightly from the programmed ones, and readout
/// occasionally flips.
#[derive(Clone, Copy, Debug)]
pub struct NoiseModel {
    /// Gaussian σ added to each field, per read.
    pub h_sigma: f64,
    /// Gaussian σ added to each coupling, per read.
    pub j_sigma: f64,
    /// Probability of flipping each qubit at readout.
    pub readout_flip: f64,
}

impl NoiseModel {
    /// No noise at all (for deterministic tests).
    pub fn ideal() -> Self {
        NoiseModel { h_sigma: 0.0, j_sigma: 0.0, readout_flip: 0.0 }
    }

    /// Default calibration roughly matching published ICE magnitudes
    /// for problems autoscaled to `[−1, 1]`.
    pub fn dwave_default() -> Self {
        NoiseModel { h_sigma: 0.03, j_sigma: 0.02, readout_flip: 0.001 }
    }
}

/// Compact per-qubit problem view touching only active qubits.
struct Compact {
    /// Active qubit ids (those with a field or coupling).
    qubits: Vec<usize>,
    h: Vec<f64>,
    /// Per active qubit: (compact neighbor index, J).
    adj: Vec<Vec<(usize, f64)>>,
}

fn compact_view(ising: &Ising) -> Compact {
    let mut active = vec![false; ising.num_spins()];
    for (i, _) in ising.fields() {
        active[i] = true;
    }
    for ((i, j), _) in ising.couplings() {
        active[i] = true;
        active[j] = true;
    }
    let qubits: Vec<usize> = (0..ising.num_spins()).filter(|&q| active[q]).collect();
    let mut index = vec![usize::MAX; ising.num_spins()];
    for (ci, &q) in qubits.iter().enumerate() {
        index[q] = ci;
    }
    let mut h = vec![0.0; qubits.len()];
    for (i, f) in ising.fields() {
        h[index[i]] = f;
    }
    let mut adj = vec![Vec::new(); qubits.len()];
    for ((i, j), c) in ising.couplings() {
        adj[index[i]].push((index[j], c));
        adj[index[j]].push((index[i], c));
    }
    Compact { qubits, h, adj }
}

/// SplitMix64 finalizer: the statistically-mixed output function of
/// the SplitMix64 generator (Steele, Lea & Flood). Used to derive
/// per-read RNG seeds: read `r` of job seed `s` takes the `r`-th
/// element of the SplitMix64 stream seeded at `s`. The previous
/// `seed ^ read·φ` scheme left read 0 equal to the raw job seed and
/// made `(seed, read)` pairs collide trivially across seed sweeps
/// (e.g. `(s ^ φ, 0)` and `(s, 1)` produced identical reads).
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Box–Muller standard normal.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-300);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draw `num_reads` samples from `ising` (full-length spin vectors,
/// `true` = +1). Deterministic in `seed`.
pub fn sample_ising(
    ising: &Ising,
    params: &SaParams,
    noise: &NoiseModel,
    num_reads: usize,
    seed: u64,
) -> Vec<Vec<bool>> {
    sample_ising_clustered(ising, params, noise, num_reads, seed, &[])
}

/// [`sample_ising`] with *cluster moves*: each sweep additionally
/// proposes flipping every listed qubit group (an embedding's chains)
/// as a single Metropolis move. Single-spin dynamics freeze on chained
/// problems — flipping a logical variable means crossing a barrier of
/// broken-chain states — whereas the physical annealer's quantum
/// dynamics reorient chains collectively; cluster moves are the
/// standard classical stand-in (see DESIGN.md).
pub fn sample_ising_clustered(
    ising: &Ising,
    params: &SaParams,
    noise: &NoiseModel,
    num_reads: usize,
    seed: u64,
    clusters: &[Vec<usize>],
) -> Vec<Vec<bool>> {
    sample_ising_clustered_cancellable(
        ising,
        params,
        noise,
        num_reads,
        seed,
        clusters,
        &CancelToken::never(),
    )
}

/// [`sample_ising_clustered`] under cooperative cancellation: the
/// sweep loop polls `cancel` once per sweep. Reads not yet started
/// when the token fires are dropped entirely; reads in flight stop
/// annealing and read out their current (partially annealed) spins, so
/// a deadline yields whatever the job completed rather than nothing.
/// With a never-firing token this is byte-identical to the plain
/// sampler.
#[allow(clippy::too_many_arguments)]
pub fn sample_ising_clustered_cancellable(
    ising: &Ising,
    params: &SaParams,
    noise: &NoiseModel,
    num_reads: usize,
    seed: u64,
    clusters: &[Vec<usize>],
    cancel: &CancelToken,
) -> Vec<Vec<bool>> {
    sample_ising_clustered_range(ising, params, noise, 0..num_reads, seed, clusters, cancel)
}

/// [`sample_ising_clustered_cancellable`] restricted to a read-index
/// range. Each read's RNG stream depends only on `(seed, read index)`,
/// so computing reads `[skip..n)` after a restart is bit-identical to
/// the tail of a single `[0..n)` run — the foundation of mid-solve
/// checkpoint/resume for the annealer.
#[allow(clippy::too_many_arguments)]
pub fn sample_ising_clustered_range(
    ising: &Ising,
    params: &SaParams,
    noise: &NoiseModel,
    reads: std::ops::Range<usize>,
    seed: u64,
    clusters: &[Vec<usize>],
    cancel: &CancelToken,
) -> Vec<Vec<bool>> {
    let compact = compact_view(ising);
    let n = compact.qubits.len();
    // Map cluster qubit ids into compact indices, dropping inactive
    // qubits (no field/coupling) and trivial singleton clusters.
    let mut index = vec![usize::MAX; ising.num_spins()];
    for (ci, &q) in compact.qubits.iter().enumerate() {
        index[q] = ci;
    }
    let compact_clusters: Vec<Vec<usize>> = clusters
        .iter()
        .map(|c| {
            c.iter().filter(|&&q| index[q] != usize::MAX).map(|&q| index[q]).collect::<Vec<usize>>()
        })
        .filter(|c: &Vec<usize>| c.len() >= 2)
        .collect();
    let betas: Vec<f64> = (0..params.num_sweeps)
        .map(|s| {
            if params.num_sweeps <= 1 {
                params.beta_max
            } else {
                let f = s as f64 / (params.num_sweeps - 1) as f64;
                params.beta_min * (params.beta_max / params.beta_min).powf(f)
            }
        })
        .collect();
    reads
        .into_par_iter()
        .filter_map(|read| {
            // A read not yet started when the token fires is dropped;
            // the job returns only what it completed.
            if cancel.is_cancelled() {
                return None;
            }
            // Finalize the job seed before mixing in the read index:
            // combining the raw inputs linearly (the old
            // `seed ^ read·φ`) makes stream (seed, read) collide with
            // (seed ^ k·φ, read ± k) for every k.
            let mut rng = StdRng::seed_from_u64(splitmix64(
                splitmix64(seed) ^ (read as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15),
            ));
            // Per-read ICE perturbation.
            let h: Vec<f64> =
                compact.h.iter().map(|&v| v + noise.h_sigma * gaussian(&mut rng)).collect();
            let adj: Vec<Vec<(usize, f64)>> = if noise.j_sigma == 0.0 {
                compact.adj.clone()
            } else {
                // Perturb couplings consistently for both endpoints.
                let mut adj = compact.adj.clone();
                for i in 0..n {
                    for e in 0..adj[i].len() {
                        let (j, c) = adj[i][e];
                        if j > i {
                            let noisy = c + noise.j_sigma * gaussian(&mut rng);
                            adj[i][e].1 = noisy;
                            let back = adj[j].iter().position(|&(k, _)| k == i).unwrap();
                            adj[j][back].1 = noisy;
                        }
                    }
                }
                adj
            };
            // Random initial spins.
            let mut spin: Vec<f64> =
                (0..n).map(|_| if rng.random::<bool>() { 1.0 } else { -1.0 }).collect();
            let mut in_cluster = vec![false; n];
            for &beta in &betas {
                // Cooperative cancellation poll, once per sweep: a read
                // in flight stops annealing and reads out as-is.
                if cancel.is_cancelled() {
                    break;
                }
                for i in 0..n {
                    // ΔE of flipping spin i: −2·s_i·(h_i + Σ J_ij s_j)
                    let mut local = h[i];
                    for &(j, c) in &adj[i] {
                        local += c * spin[j];
                    }
                    let delta = -2.0 * spin[i] * local;
                    if delta >= 0.0 && (-(beta * delta)).exp() < rng.random::<f64>() {
                        continue;
                    }
                    spin[i] = -spin[i];
                }
                // Cluster pass: flip whole chains at once. Internal
                // couplings cancel; only fields and boundary couplings
                // contribute to ΔE.
                for cluster in &compact_clusters {
                    for &i in cluster {
                        in_cluster[i] = true;
                    }
                    let mut delta = 0.0;
                    for &i in cluster {
                        let mut local = h[i];
                        for &(j, c) in &adj[i] {
                            if !in_cluster[j] {
                                local += c * spin[j];
                            }
                        }
                        delta += -2.0 * spin[i] * local;
                    }
                    if delta < 0.0 || (-(beta * delta)).exp() >= rng.random::<f64>() {
                        for &i in cluster {
                            spin[i] = -spin[i];
                        }
                    }
                    for &i in cluster {
                        in_cluster[i] = false;
                    }
                }
            }
            // Readout with occasional flips; inactive qubits read +1.
            let mut out = vec![true; ising.num_spins()];
            for (ci, &q) in compact.qubits.iter().enumerate() {
                let mut v = spin[ci] > 0.0;
                if noise.readout_flip > 0.0 && rng.random::<f64>() < noise.readout_flip {
                    v = !v;
                }
                out[q] = v;
            }
            Some(out)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frustrated-free ferromagnetic chain: ground states all-up /
    /// all-down.
    fn fm_chain(n: usize) -> Ising {
        let mut ising = Ising::new(n);
        for i in 0..n - 1 {
            ising.add_coupling(i, i + 1, -1.0);
        }
        ising
    }

    #[test]
    fn finds_ferromagnetic_ground_state() {
        let ising = fm_chain(12);
        let samples = sample_ising(&ising, &SaParams::default(), &NoiseModel::ideal(), 20, 42);
        let ground = -(11.0);
        let hits = samples.iter().filter(|s| (ising.energy(s) - ground).abs() < 1e-9).count();
        assert!(hits >= 15, "only {hits}/20 reads reached the ground state");
    }

    #[test]
    fn field_bias_respected() {
        let mut ising = Ising::new(4);
        for i in 0..4 {
            ising.add_field(i, -1.0); // minimized at s = +1
        }
        let samples = sample_ising(&ising, &SaParams::default(), &NoiseModel::ideal(), 10, 7);
        for s in &samples {
            assert_eq!(&s[..4], &[true; 4]);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let ising = fm_chain(8);
        let a = sample_ising(&ising, &SaParams::default(), &NoiseModel::dwave_default(), 5, 3);
        let b = sample_ising(&ising, &SaParams::default(), &NoiseModel::dwave_default(), 5, 3);
        assert_eq!(a, b);
        let c = sample_ising(&ising, &SaParams::default(), &NoiseModel::dwave_default(), 5, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn inactive_qubits_untouched() {
        // Problem on qubits 2 and 5 of a 10-spin register.
        let mut ising = Ising::new(10);
        ising.add_coupling(2, 5, -1.0);
        let samples = sample_ising(&ising, &SaParams::default(), &NoiseModel::ideal(), 5, 1);
        for s in &samples {
            assert_eq!(s.len(), 10);
            assert_eq!(s[2], s[5], "FM pair should align");
        }
    }

    #[test]
    fn readout_noise_flips_some_bits() {
        let mut ising = Ising::new(64);
        for i in 0..64 {
            ising.add_field(i, -1.0);
        }
        let noisy = NoiseModel { h_sigma: 0.0, j_sigma: 0.0, readout_flip: 0.2 };
        let samples = sample_ising(&ising, &SaParams::default(), &noisy, 10, 11);
        let flips: usize = samples.iter().map(|s| s.iter().filter(|&&b| !b).count()).sum();
        assert!(flips > 0, "readout noise should flip something across 640 readouts");
    }

    #[test]
    fn fewer_sweeps_degrade_quality() {
        // A larger frustrated ring: quick anneals should fail more.
        let mut ising = Ising::new(40);
        for i in 0..40 {
            ising.add_coupling(i, (i + 1) % 40, -1.0);
            ising.add_field(i, if i % 2 == 0 { 0.1 } else { -0.1 });
        }
        let good = sample_ising(
            &ising,
            &SaParams { num_sweeps: 256, ..SaParams::default() },
            &NoiseModel::ideal(),
            30,
            5,
        );
        let bad = sample_ising(
            &ising,
            &SaParams { num_sweeps: 2, beta_min: 0.1, beta_max: 0.2 },
            &NoiseModel::ideal(),
            30,
            5,
        );
        let best =
            |ss: &[Vec<bool>]| ss.iter().map(|s| ising.energy(s)).fold(f64::INFINITY, f64::min);
        assert!(best(&good) < best(&bad), "longer anneal should find lower energy");
    }

    #[test]
    fn never_token_matches_plain_sampler() {
        let ising = fm_chain(8);
        let plain = sample_ising(&ising, &SaParams::default(), &NoiseModel::dwave_default(), 5, 3);
        let cancellable = sample_ising_clustered_cancellable(
            &ising,
            &SaParams::default(),
            &NoiseModel::dwave_default(),
            5,
            3,
            &[],
            &CancelToken::never(),
        );
        assert_eq!(plain, cancellable);
    }

    #[test]
    fn fired_token_drops_unstarted_reads() {
        let ising = fm_chain(8);
        let token = CancelToken::never();
        token.cancel();
        let samples = sample_ising_clustered_cancellable(
            &ising,
            &SaParams::default(),
            &NoiseModel::ideal(),
            10,
            3,
            &[],
            &token,
        );
        assert!(samples.is_empty(), "no read should start after cancellation");
    }
}
