//! 3-SAT — comparing the paper's two NchooseK encodings (§VI-A-f).
//!
//! The dual-rail encoding adds a negated twin per variable (`n + m`
//! constraints, 2 shapes); the repeated-variable encoding weights
//! negated literals by repetition (`m` constraints, but larger
//! collections that may need ancillas when compiled). Both are run on
//! the simulated annealer and cross-checked.
//!
//! Run with: `cargo run --release --example three_sat`

use nchoosek::prelude::*;
use nck_problems::KSat;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sat = KSat::random_3sat(9, 18, 99);
    println!(
        "3-SAT: {} variables, {} clauses (planted satisfiable)",
        sat.num_vars(),
        sat.clauses().len()
    );

    let annealer = AnnealerBackend::new(AnnealerDevice::advantage_4_1(), 100);
    for (name, program) in
        [("dual-rail", sat.program_dual_rail()), ("repeated-variable", sat.program_repeated())]
    {
        let compiled = compile(&program, &CompilerOptions::default())?;
        let out = ExecutionPlan::new(&program).run(&annealer, 31)?;
        // Either encoding projects a solution onto the first n bits.
        let solution: Vec<bool> = out.assignment[..sat.num_vars()].to_vec();
        println!(
            "{name:>18}: {} constraints ({} shapes), {} QUBO vars ({} ancillas) → {} — satisfies formula: {}",
            program.constraints().len(),
            program.num_nonsymmetric(),
            compiled.num_qubo_vars(),
            compiled.num_ancillas,
            out.quality,
            sat.is_satisfying(&solution),
        );
    }
    Ok(())
}
