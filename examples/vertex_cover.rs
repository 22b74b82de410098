//! Minimum Vertex Cover — the paper's §IV motivating example for soft
//! constraints, run end-to-end on the simulated annealer.
//!
//! Hard constraints cover every edge; soft constraints shrink the
//! cover. The backend must satisfy all hard constraints and as many
//! soft constraints as possible; the classical oracle judges the result
//! optimal / suboptimal / incorrect (Definition 8).
//!
//! Run with: `cargo run --release --example vertex_cover`

use nchoosek::prelude::*;
use nck_problems::{Graph, MinVertexCover};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's Fig. 2 graph: a triangle a-b-c with a tail c-d-e.
    let graph = Graph::new(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]);
    let problem = MinVertexCover::new(graph);
    let program = problem.program();
    println!(
        "minimum vertex cover: {} vertices, {} edges → {} hard + {} soft constraints ({} non-symmetric shapes)",
        problem.graph().num_vertices(),
        problem.graph().num_edges(),
        program.num_hard(),
        program.num_soft(),
        program.num_nonsymmetric(),
    );

    let annealer = AnnealerBackend::new(AnnealerDevice::advantage_4_1(), 100);
    let out = ExecutionPlan::new(&program).run(&annealer, 7)?;
    let cover: Vec<usize> =
        out.assignment.iter().enumerate().filter(|(_, &b)| b).map(|(v, _)| v).collect();
    let names = ["a", "b", "c", "d", "e"];
    println!(
        "result: {} — cover {{{}}} (size {}, optimum satisfies {}/{} soft constraints)",
        out.quality,
        cover.iter().map(|&v| names[v]).collect::<Vec<_>>().join(", "),
        cover.len(),
        out.max_soft,
        program.num_soft(),
    );
    assert!(problem.is_cover(&out.assignment), "backend returned a non-cover");

    // Compare against the handcrafted QUBO of §VI-A-c: same ground
    // states, built by hand instead of by the compiler.
    let hand = problem.handcrafted_qubo();
    let generated = &out.compiled.qubo;
    println!(
        "QUBO terms: handcrafted {} vs compiler-generated {}",
        hand.num_terms(),
        generated.num_terms()
    );
    Ok(())
}
