//! Quickstart: express a constraint problem, compile it, and run it on
//! both simulated quantum backends and the classical solver.
//!
//! The problem is the paper's introductory example:
//!
//! ```text
//! nck({a, b}, {0, 1}) ∧ nck({b, c}, {1})
//! ```
//!
//! "Neither or exactly one of a and b must be TRUE, and, simultaneously,
//! exactly one of b and c must be TRUE."
//!
//! Run with: `cargo run --release --example quickstart`

use nchoosek::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the program.
    let mut p = Program::new();
    let a = p.new_var("a")?;
    let b = p.new_var("b")?;
    let c = p.new_var("c")?;
    p.nck(vec![a, b], [0, 1])?;
    p.nck(vec![b, c], [1])?;
    println!("program: {p}");

    // 2. Compile to a QUBO (what both quantum backends execute).
    let compiled = compile(&p, &CompilerOptions::default())?;
    println!(
        "compiled: {} QUBO variables ({} ancillas), {} terms, hard weight {}",
        compiled.num_qubo_vars(),
        compiled.num_ancillas,
        compiled.qubo.num_terms(),
        compiled.hard_weight
    );
    println!("qubo: {}", compiled.qubo);

    // 3. Run on the simulated D-Wave Advantage 4.1 (100 samples, as in
    //    the paper).
    let plan = ExecutionPlan::new(&p);
    let annealer = AnnealerBackend::new(AnnealerDevice::advantage_4_1(), 100);
    let out = plan.run(&annealer, 42)?;
    println!(
        "annealer: {} → a={} b={} c={}",
        out.quality,
        out.assignment[a.index()],
        out.assignment[b.index()],
        out.assignment[c.index()]
    );

    // 4. Run on the simulated 65-qubit IBM device via QAOA.
    let gate = GateModelBackend::new(GateModelDevice::ibmq_brooklyn(), 1, 4000, 40);
    let out = plan.run(&gate, 42)?;
    println!(
        "gate model: {} → a={} b={} c={}",
        out.quality,
        out.assignment[a.index()],
        out.assignment[b.index()],
        out.assignment[c.index()]
    );

    // 5. And classically (exact).
    let x = plan.run(&ClassicalBackend::default(), 0)?.assignment;
    println!("classical:  a={} b={} c={}", x[a.index()], x[b.index()], x[c.index()]);
    assert!(p.all_hard_satisfied(&x));
    Ok(())
}
