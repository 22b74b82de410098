//! End-to-end backend integration: every paper problem runs through
//! the full pipeline on both simulated devices, and ideal devices
//! return optimal results on small instances.

use nchoosek::prelude::*;
use nck_anneal::{NoiseModel, SaParams};
use nck_problems::{
    CliqueCover, ExactCover, Graph, KSat, MapColoring, MaxCut, MinSetCover, MinVertexCover,
};

/// A quiet, well-converged annealer for small instances: optimality is
/// then deterministic enough to assert.
fn good_annealer() -> AnnealerDevice {
    let mut d = AnnealerDevice::advantage_4_1();
    d.noise = NoiseModel::ideal();
    d.sa = SaParams { num_sweeps: 512, ..SaParams::default() };
    d
}

#[test]
fn vertex_cover_on_annealer() {
    let problem = MinVertexCover::new(Graph::new(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]));
    let out = ExecutionPlan::new(&problem.program())
        .run(&AnnealerBackend::new(good_annealer(), 100), 1)
        .unwrap();
    assert_eq!(out.quality, SolutionQuality::Optimal);
    assert!(problem.is_cover(&out.assignment));
    assert_eq!(problem.cover_size(&out.assignment), 3);
}

#[test]
fn max_cut_on_annealer() {
    let problem = MaxCut::new(Graph::cycle(8));
    let out = ExecutionPlan::new(&problem.program())
        .run(&AnnealerBackend::new(good_annealer(), 100), 2)
        .unwrap();
    assert_eq!(out.quality, SolutionQuality::Optimal);
    assert_eq!(problem.cut_size(&out.assignment), 8);
}

#[test]
fn exact_cover_on_annealer() {
    let problem = ExactCover::random(8, 4, 11);
    let out = ExecutionPlan::new(&problem.program())
        .run(&AnnealerBackend::new(good_annealer(), 100), 3)
        .unwrap();
    assert_eq!(out.quality, SolutionQuality::Optimal);
    assert!(problem.is_exact_cover(&out.assignment));
}

#[test]
fn min_set_cover_on_annealer() {
    let problem =
        MinSetCover::new(5, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![0, 4]]);
    let out = ExecutionPlan::new(&problem.program())
        .run(&AnnealerBackend::new(good_annealer(), 100), 4)
        .unwrap();
    assert_eq!(out.quality, SolutionQuality::Optimal);
    assert!(problem.is_cover(&out.assignment));
}

#[test]
fn map_coloring_on_annealer() {
    let problem = MapColoring::new(Graph::cycle(5), 3);
    let out = ExecutionPlan::new(&problem.program())
        .run(&AnnealerBackend::new(good_annealer(), 100), 5)
        .unwrap();
    assert_eq!(out.quality, SolutionQuality::Optimal);
    assert!(problem.is_valid_coloring(&out.assignment));
}

#[test]
fn clique_cover_on_annealer() {
    let g = Graph::new(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]);
    let problem = CliqueCover::new(g, 2);
    let out = ExecutionPlan::new(&problem.program())
        .run(&AnnealerBackend::new(good_annealer(), 100), 6)
        .unwrap();
    assert_eq!(out.quality, SolutionQuality::Optimal);
    assert!(problem.is_valid_cover(&out.assignment));
}

#[test]
fn three_sat_on_annealer() {
    let sat = KSat::random_3sat(7, 10, 7);
    let out = ExecutionPlan::new(&sat.program_repeated())
        .run(&AnnealerBackend::new(good_annealer(), 100), 7)
        .unwrap();
    assert_eq!(out.quality, SolutionQuality::Optimal);
    assert!(sat.is_satisfying(&out.assignment[..7]));
}

#[test]
fn vertex_cover_on_gate_model() {
    let problem = MinVertexCover::new(Graph::new(4, [(0, 1), (1, 2), (2, 3)]));
    let gate = GateModelBackend::new(GateModelDevice::ideal(8), 1, 2048, 60);
    let out = ExecutionPlan::new(&problem.program()).run(&gate, 8).unwrap();
    assert!(out.quality.is_correct(), "got {}", out.quality);
    assert!(problem.is_cover(&out.assignment));
}

#[test]
fn max_cut_on_gate_model() {
    let problem = MaxCut::new(Graph::cycle(6));
    let gate = GateModelBackend::new(GateModelDevice::ideal(6), 1, 2048, 60);
    let out = ExecutionPlan::new(&problem.program()).run(&gate, 9).unwrap();
    // p=1 QAOA with enough shots on an even cycle finds the bipartition.
    assert_eq!(out.quality, SolutionQuality::Optimal);
    assert_eq!(problem.cut_size(&out.assignment), 6);
}

/// The mixed-problem effect the paper highlights: the hard weight is
/// strictly larger than the total possible soft penalty, so any
/// correct (all-hard) sample beats any incorrect one on energy.
#[test]
fn hard_violations_always_cost_more_than_soft() {
    let problem = MinVertexCover::new(Graph::cycle(5));
    let program = problem.program();
    let compiled = compile(&program, &CompilerOptions::default()).unwrap();
    let q = &compiled.qubo;
    let n = program.num_vars();
    let mut worst_correct = f64::NEG_INFINITY;
    let mut best_incorrect = f64::INFINITY;
    for bits in 0..1u64 << n {
        let x: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        let e = q.energy(&x);
        if program.all_hard_satisfied(&x) {
            worst_correct = worst_correct.max(e);
        } else {
            best_incorrect = best_incorrect.min(e);
        }
    }
    assert!(
        best_incorrect > worst_correct,
        "a hard violation ({best_incorrect}) must cost more than any all-hard assignment ({worst_correct})"
    );
}

/// The paper's intro example (§II): hard-only, so every backend —
/// including Grover — can run it.
fn intro_program() -> Program {
    let mut p = Program::new();
    let a = p.new_var("a").unwrap();
    let b = p.new_var("b").unwrap();
    let c = p.new_var("c").unwrap();
    p.nck(vec![a, b], [0, 1]).unwrap();
    p.nck(vec![b, c], [1]).unwrap();
    p
}

/// All four solver paths are reachable through the one `Backend`
/// trait, and a multi-backend fan-out compiles exactly once.
#[test]
fn all_four_backends_through_the_trait() {
    let p = intro_program();
    let plan = ExecutionPlan::new(&p);
    let annealer = AnnealerBackend::new(AnnealerDevice::ideal(8), 50);
    let gate = GateModelBackend::new(GateModelDevice::ideal(4), 1, 1024, 30);
    let grover = GroverBackend::default();
    let classical = ClassicalBackend::default();
    let backends: [&dyn Backend; 4] = [&annealer, &gate, &grover, &classical];
    for (backend, result) in backends.iter().zip(plan.run_each(&backends, 17)) {
        let report = result.unwrap();
        assert_eq!(report.backend, backend.name());
        assert_eq!(report.quality, SolutionQuality::Optimal, "{}", backend.name());
        assert!(p.all_hard_satisfied(&report.assignment), "{}", backend.name());
    }
    let stats = plan.stats();
    assert_eq!(stats.compiles, 1, "one compile serves all four backends");
    assert_eq!(stats.compile_cache_hits, 3);
}

/// A multi-seed annealer sweep compiles exactly once and re-embeds
/// only on the first seed.
#[test]
fn multi_seed_sweep_hits_the_compile_cache() {
    let problem = MinVertexCover::new(Graph::cycle(5));
    let program = problem.program();
    let plan = ExecutionPlan::new(&program);
    let backend = AnnealerBackend::new(good_annealer(), 50);
    let reports = plan.run_seeds(&backend, &[1, 2, 3, 4]).unwrap();
    assert_eq!(reports.len(), 4);
    assert!(!reports[0].timings.compile_cache_hit);
    for r in &reports[1..] {
        assert!(r.timings.compile_cache_hit, "later seeds must reuse the compile");
        assert!(r.timings.embed_cache_hit, "later seeds must reuse the embedding");
    }
    let stats = plan.stats();
    assert_eq!(stats.compiles, 1, "the sweep must compile exactly once");
    assert_eq!(stats.compile_cache_hits, 3);
    assert_eq!(stats.oracle_builds, 1, "one classical solve classifies every seed");
}

/// Grover is hard-only: soft constraints are a typed error, not a
/// panic.
#[test]
fn grover_rejects_soft_constraints() {
    let problem = MinVertexCover::new(Graph::cycle(5));
    let program = problem.program();
    let plan = ExecutionPlan::new(&program);
    match plan.run(&GroverBackend::default(), 1) {
        Err(ExecError::SoftUnsupported { num_soft }) => assert_eq!(num_soft, 5),
        other => panic!("expected SoftUnsupported, got {other:?}"),
    }
}

/// Programs beyond the state-vector oracle are a typed error, not a
/// panic.
#[test]
fn grover_rejects_oversized_programs() {
    let mut p = Program::new();
    let vs = p.new_vars("x", 21).unwrap();
    p.nck(vec![vs[0], vs[1]], [1]).unwrap();
    let plan = ExecutionPlan::new(&p);
    match plan.run(&GroverBackend::default(), 1) {
        Err(ExecError::TooLarge { vars, limit }) => {
            assert_eq!(vars, 21);
            assert_eq!(limit, 20);
        }
        other => panic!("expected TooLarge, got {other:?}"),
    }
}

/// A completed classical run proves the optimum, so the plan never
/// needs a second classical solve to classify later runs.
#[test]
fn classical_run_seeds_the_oracle() {
    let problem = MinVertexCover::new(Graph::cycle(5));
    let program = problem.program();
    let plan = ExecutionPlan::new(&program);
    let report = plan.run(&ClassicalBackend::default(), 0).unwrap();
    assert_eq!(report.quality, SolutionQuality::Optimal);
    assert_eq!(plan.stats().oracle_builds, 0, "the proven optimum seeds the oracle");
    let backend = AnnealerBackend::new(good_annealer(), 50);
    let quantum = plan.run(&backend, 1).unwrap();
    assert_eq!(quantum.quality, SolutionQuality::Optimal);
    assert_eq!(plan.stats().oracle_builds, 0);
}

/// A p>1 request beyond the exact simulator falls back to the analytic
/// p=1 evaluator (recorded in the stage counters); with the fallback
/// disabled the same request is a typed error.
#[test]
fn gate_model_falls_back_to_analytic_p1() {
    // 21 QUBO variables exceed the 20-qubit exact state vector. The
    // max cut of a k-clique chain is 4k−2 (2 per triangle, 2 per
    // junction), so the oracle is seeded without a classical solve.
    let problem = MaxCut::new(Graph::clique_chain(7));
    let program = problem.program();
    let plan = ExecutionPlan::new(&program).with_oracle(OptimalityOracle { max_soft: Some(26) });
    let mut backend = GateModelBackend::new(GateModelDevice::ibmq_brooklyn(), 2, 256, 5);
    let report = plan.run(&backend, 3).unwrap();
    assert!(report.timings.fallbacks >= 1, "p=2 must fall back to analytic p=1");
    backend.analytic_fallback = false;
    assert!(matches!(plan.run(&backend, 3), Err(ExecError::Qaoa(_))));
}

/// Chain overhead appears on the Advantage-scale device for densely
/// coupled programs: physical qubits exceed logical variables.
#[test]
fn physical_qubits_exceed_variables_on_dense_problem() {
    let problem = MapColoring::new(Graph::complete(5), 3);
    let program = problem.program();
    let compiled = compile(&program, &CompilerOptions::default()).unwrap();
    let device = AnnealerDevice::advantage_4_1();
    let result = device.sample_qubo(&compiled.qubo, 10, 10).unwrap();
    assert!(
        result.physical_qubits > compiled.num_qubo_vars(),
        "expected chains: {} physical for {} logical",
        result.physical_qubits,
        compiled.num_qubo_vars()
    );
}
