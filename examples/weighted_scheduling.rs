//! Weighted soft constraints: shift scheduling with preferences.
//!
//! Four workers, three shifts. Hard constraints: every shift staffed by
//! exactly one worker; nobody works more than one shift. Soft
//! constraints: each worker's shift preferences, with *weights* —
//! seniority makes some preferences count more (the paper's §V remark
//! that soft scaling factors "could be chosen differently" realized as
//! integer importance weights).
//!
//! Run with: `cargo run --release --example weighted_scheduling`

use nchoosek::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workers = ["Ada", "Bea", "Cal", "Dan"];
    let shifts = ["morning", "evening", "night"];
    let mut p = Program::new();
    // x[w][s] = worker w takes shift s.
    let mut x = Vec::new();
    for w in workers {
        let mut row = Vec::new();
        for s in shifts {
            row.push(p.new_var(format!("{w}_{s}"))?);
        }
        x.push(row);
    }
    // Every shift staffed by exactly one worker.
    for s in 0..shifts.len() {
        let col: Vec<Var> = x.iter().map(|row| row[s]).collect();
        p.nck(col, [1])?;
    }
    // No worker takes two shifts.
    for row in &x {
        p.nck(row.clone(), [0, 1])?;
    }
    // Preferences, weighted by seniority: (worker, shift, weight).
    // Ada (most senior) hates nights; Bea wants mornings; Cal wants
    // nights; Dan mildly prefers evenings.
    let preferences = [
        (0usize, 2usize, 6u32, false), // Ada: NOT night (weight 6)
        (1, 0, 4, true),               // Bea: morning (weight 4)
        (2, 2, 3, true),               // Cal: night (weight 3)
        (3, 1, 1, true),               // Dan: evening (weight 1)
    ];
    for &(w, s, weight, want) in &preferences {
        p.nck_soft_weighted(vec![x[w][s]], [u32::from(want)], weight)?;
    }
    println!(
        "schedule program: {} variables, {} hard + {} soft constraints (total soft weight {})",
        p.num_vars(),
        p.num_hard(),
        p.num_soft(),
        p.total_soft_weight()
    );

    let annealer = AnnealerBackend::new(AnnealerDevice::advantage_4_1(), 100);
    let out = ExecutionPlan::new(&p).run(&annealer, 33)?;
    println!(
        "annealer result: {} (satisfied weight {}/{})",
        out.quality,
        out.max_soft,
        p.total_soft_weight()
    );
    for (w, worker) in workers.iter().enumerate() {
        for (s, shift) in shifts.iter().enumerate() {
            if out.assignment[x[w][s].index()] {
                println!("  {worker}: {shift}");
            }
        }
    }
    // Sanity: Ada must not be on nights (her weight-6 preference can
    // always be honored here).
    assert!(!out.assignment[x[0][2].index()] || out.quality != SolutionQuality::Optimal);
    Ok(())
}
