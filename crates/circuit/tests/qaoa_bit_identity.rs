//! Bit-identity checks for the QAOA cost diagonal: the ⟨H⟩ read from a
//! precomputed diagonal must equal, bit for bit, the ⟨H⟩ that evaluates
//! `Ising::energy` per basis state, and full `QaoaRun`s must reproduce
//! pinned goldens on both the exact state-vector path and the
//! >20-qubit Metropolis sampling path.

use nck_circuit::{
    cost_diagonal, qaoa_circuit, qaoa_expectation_diagonal, qaoa_expectation_sim, GateModelDevice,
    StateVector,
};
use nck_qubo::{Ising, Qubo};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded random QUBO over `n` variables: about half the linear terms
/// zero, integer coefficients in [−3, 3], pair density `density`, and a
/// nonzero offset.
fn random_qubo(n: usize, density: f64, seed: u64) -> Qubo {
    let mut rng = StdRng::seed_from_u64(seed);
    let coeff = |rng: &mut StdRng| (rng.random::<u64>() % 7) as f64 - 3.0;
    let mut q = Qubo::new(n);
    q.add_offset(1.5);
    for i in 0..n {
        if rng.random::<f64>() < 0.5 {
            let c = coeff(&mut rng);
            q.add_linear(i, c);
        }
    }
    for i in 0..n {
        for j in i + 1..n {
            if rng.random::<f64>() < density {
                let c = coeff(&mut rng);
                q.add_quadratic(i, j, c);
            }
        }
    }
    q
}

/// ⟨H⟩ computed the direct way: unpack each basis state into spins and
/// evaluate `Ising::energy` on it.
fn reference_expectation(ising: &Ising, betas: &[f64], gammas: &[f64]) -> f64 {
    let mut s = StateVector::zero(ising.num_spins());
    s.run(&qaoa_circuit(ising, betas, gammas));
    s.expectation_diagonal(|bits| {
        let spins: Vec<bool> = (0..ising.num_spins()).map(|q| bits >> q & 1 == 1).collect();
        ising.energy(&spins)
    })
}

#[test]
fn diagonal_expectation_is_bit_identical_to_direct_energies() {
    let mut zero_fields = 0;
    for seed in 0..8u64 {
        let n = 3 + seed as usize;
        let mut ising = random_qubo(n, 0.4, 100 + seed).to_ising();
        ising.add_offset(0.25 * seed as f64 - 0.8);
        assert_ne!(ising.offset(), 0.0);
        zero_fields += (0..n).filter(|&i| ising.field(i) == 0.0).count();
        let diagonal = cost_diagonal(&ising);
        assert_eq!(diagonal.len(), 1 << n);
        for (bits, &e) in diagonal.iter().enumerate() {
            let spins: Vec<bool> = (0..n).map(|q| bits >> q & 1 == 1).collect();
            assert_eq!(e.to_bits(), ising.energy(&spins).to_bits(), "seed {seed} state {bits}");
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for layers in 1..=2 {
            let betas: Vec<f64> = (0..layers).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect();
            let gammas: Vec<f64> = (0..layers).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect();
            let want = reference_expectation(&ising, &betas, &gammas).to_bits();
            let diag = qaoa_expectation_diagonal(&ising, &diagonal, &betas, &gammas);
            assert_eq!(diag.to_bits(), want, "seed {seed} p {layers}");
            let sim = qaoa_expectation_sim(&ising, &betas, &gammas);
            assert_eq!(sim.to_bits(), want, "seed {seed} p {layers}");
        }
    }
    assert!(zero_fields > 0, "the instances must include zero fields");
}

/// A `QaoaRun` pinned bit for bit: the sampled assignment (bit `q` is
/// character `q`), the `to_bits` of its energy, of ⟨H⟩ and of every
/// optimized angle, and the job count. The values were recorded from
/// the implementation that evaluated `Ising::energy` per basis state on
/// every optimizer evaluation.
struct Golden {
    name: &'static str,
    assignment: &'static str,
    best_energy: u64,
    expectation: u64,
    betas: &'static [u64],
    gammas: &'static [u64],
    num_jobs: usize,
}

fn check(golden: &Golden, qubo: &Qubo, device: GateModelDevice, run: (usize, usize, usize, u64)) {
    let (layers, shots, max_iter, seed) = run;
    let r = device.run_qaoa(qubo, layers, shots, max_iter, seed).unwrap();
    let name = golden.name;
    let bits: String = r.best_assignment.iter().map(|&b| if b { '1' } else { '0' }).collect();
    assert_eq!(bits, golden.assignment, "{name}");
    assert_eq!(r.best_energy.to_bits(), golden.best_energy, "{name}");
    assert_eq!(r.expectation.to_bits(), golden.expectation, "{name}");
    let betas: Vec<u64> = r.betas.iter().map(|b| b.to_bits()).collect();
    let gammas: Vec<u64> = r.gammas.iter().map(|g| g.to_bits()).collect();
    assert_eq!(betas, golden.betas, "{name}");
    assert_eq!(gammas, golden.gammas, "{name}");
    assert_eq!(r.num_jobs, golden.num_jobs, "{name}");
}

#[test]
fn exact_path_runs_match_goldens() {
    let mut edge = Qubo::new(2);
    edge.add_quadratic(0, 1, 1.0);
    edge.add_linear(0, -1.0);
    edge.add_linear(1, -1.0);
    check(
        &Golden {
            name: "edge",
            assignment: "10",
            best_energy: 0xbff0000000000000,
            expectation: 0xbfeffffff02f6c4f,
            betas: &[0x3fdcf082ffb9999a],
            gammas: &[0xbff5536d04e8cccc],
            num_jobs: 32,
        },
        &edge,
        GateModelDevice::ideal(4),
        (1, 512, 60, 7),
    );
    check(
        &Golden {
            name: "rand6_p2_ideal",
            assignment: "111110",
            best_energy: 0xc02b000000000000,
            expectation: 0xc00c92139ee3ae6c,
            betas: &[0x3fe9ad5efc5e1bee, 0x3fda330ece246ae0],
            gammas: &[0xbfde08c7607daae6, 0xbfe7e743a1a382e4],
            num_jobs: 41,
        },
        &random_qubo(6, 0.5, 1),
        GateModelDevice::ideal(6),
        (2, 256, 40, 3),
    );
    check(
        &Golden {
            name: "rand10_p1",
            assignment: "0111000111",
            best_energy: 0xc021000000000000,
            expectation: 0xbfd9d3c53e8686e0,
            betas: &[0x3fdfef9bdf8ccccb],
            gammas: &[0xbff4c16a9977fffa],
            num_jobs: 31,
        },
        &random_qubo(10, 0.3, 2),
        GateModelDevice::ibmq_brooklyn(),
        (1, 4000, 30, 11),
    );
    check(
        &Golden {
            name: "rand12_p2",
            assignment: "110010110111",
            best_energy: 0xc016000000000000,
            expectation: 0x3fa220672f18a44c,
            betas: &[0x3fe3d4dffffffffb, 0x3fd5df7ffffffff6],
            gammas: &[0xbfead75333333333, 0xbffc019666666668],
            num_jobs: 21,
        },
        &random_qubo(12, 0.25, 3),
        GateModelDevice::ibmq_brooklyn(),
        (2, 1000, 20, 5),
    );
}

#[test]
fn metropolis_path_runs_match_goldens() {
    check(
        &Golden {
            name: "rand22_metropolis",
            assignment: "1110110001111101011101",
            best_energy: 0xc038800000000000,
            expectation: 0xbfedcc94ff25802c,
            betas: &[0x3fe3b7799999999a],
            gammas: &[0xbfec731ccccccccd],
            num_jobs: 13,
        },
        &random_qubo(22, 0.12, 4),
        GateModelDevice::ibmq_brooklyn(),
        (1, 300, 12, 9),
    );
    check(
        &Golden {
            name: "rand26_metropolis",
            assignment: "10010011000110111111111110",
            best_energy: 0xc03d800000000000,
            expectation: 0xbfefea0882bb02c0,
            betas: &[0x3fe4000000000000],
            gammas: &[0xbff4cccccccccccc],
            num_jobs: 11,
        },
        &random_qubo(26, 0.1, 5),
        GateModelDevice::ibmq_brooklyn(),
        (1, 200, 10, 2),
    );
}
