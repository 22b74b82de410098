//! Integration tests for the weighted-soft-constraint extension across
//! the whole pipeline: DSL → compiler → QUBO ground states → solvers →
//! annealer.

use nchoosek::prelude::*;
use nck_anneal::{NoiseModel, SaParams};
use nck_classical::{max_soft_satisfiable, solve_brute};
use nck_problems::{Graph, MaxCut};
use nck_qubo::solve_exhaustive;
use std::collections::HashSet;

/// Weighted preferences on a single variable: the heavier side wins.
#[test]
fn heavier_preference_wins() {
    let mut p = Program::new();
    let a = p.new_var("a").unwrap();
    p.nck_soft_weighted(vec![a], [0], 1).unwrap();
    p.nck_soft_weighted(vec![a], [1], 3).unwrap();
    assert_eq!(max_soft_satisfiable(&p), Some(3));
    let brute = solve_brute(&p).unwrap();
    assert_eq!(brute.optima, vec![0b1], "a = TRUE satisfies the weight-3 side");
}

/// A weight-w constraint behaves exactly like w copies of the unit one.
#[test]
fn weight_equals_duplication() {
    let build = |duplicated: bool| {
        let mut p = Program::new();
        let vs = p.new_vars("v", 4).unwrap();
        p.nck(vec![vs[0], vs[1], vs[2], vs[3]], [2]).unwrap();
        if duplicated {
            for _ in 0..3 {
                p.nck_soft(vec![vs[0]], [1]).unwrap();
            }
        } else {
            p.nck_soft_weighted(vec![vs[0]], [1], 3).unwrap();
        }
        p.nck_soft(vec![vs[3]], [1]).unwrap();
        p
    };
    let weighted = build(false);
    let duplicated = build(true);
    assert_eq!(max_soft_satisfiable(&weighted), max_soft_satisfiable(&duplicated));
    let a = solve_brute(&weighted).unwrap();
    let b = solve_brute(&duplicated).unwrap();
    assert_eq!(a.optima, b.optima, "same optimal assignments");
    // And the compiled QUBOs have identical ground states.
    let ca = compile(&weighted, &CompilerOptions::default()).unwrap();
    let cb = compile(&duplicated, &CompilerOptions::default()).unwrap();
    let ga: HashSet<u64> = solve_exhaustive(&ca.qubo).minimizers.into_iter().collect();
    let gb: HashSet<u64> = solve_exhaustive(&cb.qubo).minimizers.into_iter().collect();
    assert_eq!(ga, gb);
}

/// The compiled QUBO's ground states are exactly the weight-optimal
/// assignments, and the hard weight still dominates.
#[test]
fn weighted_ground_states_and_hard_dominance() {
    let mut p = Program::new();
    let vs = p.new_vars("v", 4).unwrap();
    p.nck(vec![vs[0], vs[1]], [1]).unwrap(); // exactly one of v0, v1
    p.nck_soft_weighted(vec![vs[0]], [1], 5).unwrap(); // strongly prefer v0
    p.nck_soft_weighted(vec![vs[1]], [1], 2).unwrap();
    p.nck_soft_weighted(vec![vs[2]], [0], 7).unwrap();
    p.nck_soft(vec![vs[3]], [1]).unwrap();
    let compiled = compile(&p, &CompilerOptions::default()).unwrap();
    // W must exceed the total soft weight (5 + 2 + 7 + 1 = 15).
    assert!(compiled.hard_weight > 15.0);
    let brute = solve_brute(&p).unwrap();
    let r = solve_exhaustive(&compiled.qubo);
    let mask = (1u64 << 4) - 1;
    let projected: HashSet<u64> = r.minimizers.iter().map(|&b| b & mask).collect();
    let expected: HashSet<u64> = brute.optima.iter().copied().collect();
    assert_eq!(projected, expected);
    // The unique optimum: v0 = 1 (w5 beats w2), v2 = 0, v3 = 1.
    assert_eq!(expected, HashSet::from([0b1001]));
}

/// Weighted max cut end-to-end on the simulated annealer.
#[test]
fn weighted_max_cut_on_annealer() {
    // A square with one heavy diagonal: the optimum must cut it.
    let g = Graph::new(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]);
    // edges() sorted: (0,1), (0,2), (0,3), (1,2), (2,3); (0,2) heavy.
    let mc = MaxCut::with_weights(g, vec![1, 20, 1, 1, 1]);
    let program = mc.program();
    let mut device = AnnealerDevice::advantage_4_1();
    device.noise = NoiseModel::ideal();
    device.sa = SaParams { num_sweeps: 256, ..SaParams::default() };
    let out = ExecutionPlan::new(&program).run(&AnnealerBackend::new(device, 100), 8).unwrap();
    assert_eq!(out.quality, SolutionQuality::Optimal);
    assert_ne!(out.assignment[0], out.assignment[2], "the weight-20 diagonal must be cut");
    assert_eq!(mc.cut_weight(&out.assignment), out.max_soft);
}
