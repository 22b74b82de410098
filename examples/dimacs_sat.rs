//! Solve a DIMACS CNF formula on the simulated quantum backends.
//!
//! Reads standard SAT-competition input from a file argument (or runs a
//! built-in pigeonhole-style instance when none is given), encodes it
//! with the repeated-variable NchooseK encoding, and solves it on the
//! simulated annealer, cross-checking classically.
//!
//! Run with: `cargo run --release --example dimacs_sat [-- file.cnf]`

use nchoosek::prelude::*;
use nck_problems::KSat;

const BUILTIN: &str = "\
c 8-variable satisfiable instance
p cnf 8 12
1 2 -3 0
-1 4 5 0
3 -4 6 0
-2 -5 7 0
-6 -7 8 0
1 -8 2 0
-3 5 -7 0
4 -6 8 0
2 3 -5 0
-1 -4 7 0
5 6 -8 0
-2 4 -7 0
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let text = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(path)?,
        None => BUILTIN.to_string(),
    };
    let sat = KSat::from_dimacs(&text).map_err(std::io::Error::other)?;
    println!("parsed {} variables, {} clauses", sat.num_vars(), sat.clauses().len());

    let program = sat.program_repeated();
    let compiled = compile(&program, &CompilerOptions::default())?;
    println!(
        "encoded: {} constraints ({} shapes) → {} QUBO variables ({} ancillas), {} terms",
        program.constraints().len(),
        program.num_nonsymmetric(),
        compiled.num_qubo_vars(),
        compiled.num_ancillas,
        compiled.qubo.num_terms(),
    );

    // Classical reference first: is it satisfiable at all?
    let plan = ExecutionPlan::new(&program);
    match plan.run(&ClassicalBackend::default(), 0) {
        Ok(out) => {
            assert!(sat.is_satisfying(&out.assignment[..sat.num_vars()]));
            println!("classical: SATISFIABLE");
        }
        Err(ExecError::Unsatisfiable) => {
            println!("classical: UNSATISFIABLE — skipping quantum runs");
            return Ok(());
        }
        Err(e) => return Err(e.into()),
    }

    let annealer = AnnealerBackend::new(AnnealerDevice::advantage_4_1(), 100);
    let out = plan.run(&annealer, 17)?;
    let solution = &out.assignment[..sat.num_vars()];
    println!("annealer: {} — formula satisfied: {}", out.quality, sat.is_satisfying(solution));
    let bits: String = solution.iter().map(|&b| if b { '1' } else { '0' }).collect();
    println!("assignment (x1..xn): {bits}");
    Ok(())
}
