//! Maximum Cut — the paper's simplest soft-only problem (§VI-A-g): one
//! soft `nck({u,v},{1})` per edge, nothing else.
//!
//! Demonstrates the all-soft path of the compiler (no hard/soft
//! weighting needed) and compares both quantum backends on the same
//! instance.
//!
//! Run with: `cargo run --release --example max_cut`

use nchoosek::prelude::*;
use nck_problems::{Graph, MaxCut};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 3-regular-ish random graph.
    let graph = Graph::random_gnm(10, 15, 2026);
    let problem = MaxCut::new(graph);
    let program = problem.program();
    println!(
        "max cut: {} vertices, {} edges → {} soft constraints, {} non-symmetric shape(s)",
        problem.graph().num_vertices(),
        problem.graph().num_edges(),
        program.num_soft(),
        program.num_nonsymmetric(),
    );

    // Classical optimum (the oracle).
    let plan = ExecutionPlan::new(&program);
    let best_cut = plan.run(&ClassicalBackend::default(), 0)?.soft_satisfied;
    println!("classical optimum cuts {best_cut} edges");

    // Simulated D-Wave.
    let annealer = AnnealerBackend::new(AnnealerDevice::advantage_4_1(), 100);
    let out = plan.run(&annealer, 5)?;
    println!(
        "annealer:   {} — cut {} of {} edges",
        out.quality,
        problem.cut_size(&out.assignment),
        problem.graph().num_edges()
    );

    // Simulated IBM Q via QAOA.
    let gate = GateModelBackend::new(GateModelDevice::ibmq_brooklyn(), 1, 4000, 40);
    let out = plan.run(&gate, 5)?;
    println!(
        "gate model: {} — cut {} of {} edges",
        out.quality,
        problem.cut_size(&out.assignment),
        problem.graph().num_edges()
    );
    Ok(())
}
