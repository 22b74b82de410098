//! Map Coloring — a hard-constraint-only NP-complete problem (§VI-A-d)
//! using the one-hot encoding, solved on the simulated annealer.
//!
//! This is the class of problem the *original* NchooseK could already
//! express (before soft constraints); it also shows the compiler
//! handling the two constraint shapes of the one-hot scheme.
//!
//! Run with: `cargo run --release --example map_coloring`

use nchoosek::prelude::*;
use nck_problems::{Graph, MapColoring};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Australia's mainland states — the classic map-coloring demo:
    // WA, NT, SA, Q, NSW, V (Tasmania is disconnected and omitted).
    let names = ["WA", "NT", "SA", "Q", "NSW", "V"];
    let edges = [
        (0, 1), // WA–NT
        (0, 2), // WA–SA
        (1, 2), // NT–SA
        (1, 3), // NT–Q
        (2, 3), // SA–Q
        (2, 4), // SA–NSW
        (2, 5), // SA–V
        (3, 4), // Q–NSW
        (4, 5), // NSW–V
    ];
    let graph = Graph::new(6, edges);
    let colors = 3;
    let problem = MapColoring::new(graph, colors);
    let program = problem.program();
    println!(
        "map coloring: {} regions, {} borders, {} colors → {} constraints over {} variables",
        names.len(),
        problem.graph().num_edges(),
        colors,
        program.constraints().len(),
        program.num_vars(),
    );

    let annealer = AnnealerBackend::new(AnnealerDevice::advantage_4_1(), 100);
    let out = ExecutionPlan::new(&program).run(&annealer, 13)?;
    println!("result quality: {}", out.quality);
    match problem.decode(&out.assignment) {
        Some(coloring) => {
            let palette = ["red", "green", "blue"];
            for (region, &color) in names.iter().zip(&coloring) {
                println!("  {region}: {}", palette[color]);
            }
            assert!(problem.is_valid_coloring(&out.assignment), "adjacent regions share a color");
        }
        None => println!("  (sample was not a valid one-hot coloring)"),
    }

    // Two colors are provably insufficient (SA borders a triangle):
    // the classical solver reports unsatisfiability.
    let two = MapColoring::new(problem.graph().clone(), 2);
    let two = two.program();
    match ExecutionPlan::new(&two).run(&ClassicalBackend::default(), 0) {
        Err(ExecError::Unsatisfiable) => println!("2 colors: unsatisfiable, as expected"),
        other => println!("2 colors: unexpected outcome {:?}", other.map(|r| r.assignment)),
    }
    Ok(())
}
