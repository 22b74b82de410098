//! Figures 8, 9 and 10: the gate-model study on the (simulated)
//! ibmq_brooklyn, run once and printed as three tables.
//!
//! Each instance runs QAOA (p = 1, 4000 shots) once and returns a
//! single result, per the paper's protocol.
//!
//! * **Fig. 8** — qubits used per problem, with optimal / suboptimal /
//!   incorrect markers. Instances needing more than the device's qubits
//!   are reported as unmappable. Expect the paper's shape: optimal at
//!   small scale, then suboptimal, then incorrect — "there seems to be a
//!   discrete barrier to optimal solutions" — with everything failing
//!   earlier than on the annealer.
//! * **Fig. 9** — transpiled circuit depth per problem. Depth is "the
//!   number of gates in the longest path of a single QAOA circuit"
//!   (§VIII-B) after layout, SWAP routing, and basis decomposition —
//!   each QAOA execution runs ~30 structurally identical circuits
//!   differing only in gate parameters, so one transpilation represents
//!   them all. Deeper circuits accumulate more depolarizing error and
//!   decoherence exposure, driving the correctness trend; the paper also
//!   notes the relation is not strict (a deeper circuit occasionally
//!   succeeds where a shallower one failed).
//! * **Fig. 10** — number of NchooseK constraints versus transpiled
//!   depth, per problem type. §VIII-B: "The general trend shows
//!   increasing depth as more variables and constraints are added
//!   during problem scaling, albeit at different rates per problem,
//!   i.e., in a problem-specific manner." The (constraints, depth)
//!   series is printed per problem, with a per-problem correlation.
//!
//! Run with: `cargo run --release -p nck-bench --bin fig8_10`

use nck_bench::{fmt_f, print_table, run_gate_study, GateOutcome};
use std::collections::BTreeMap;

fn main() {
    let outcomes = run_gate_study(4000, 30);
    fig8(&outcomes);
    println!();
    fig9(&outcomes);
    println!();
    fig10(&outcomes);
}

fn fig8(outcomes: &[GateOutcome]) {
    println!("Figure 8 — simulated ibmq_brooklyn (65 qubits), QAOA p=1, 4000 shots");
    println!("qubits used per problem, with result-quality markers\n");
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| vec![o.problem.clone(), o.label.clone(), o.qubits.to_string(), o.quality.clone()])
        .collect();
    print_table(&["problem", "instance", "qubits", "result"], &rows);
}

fn fig9(outcomes: &[GateOutcome]) {
    println!("Figure 9 — simulated ibmq_brooklyn, QAOA p=1, 4000 shots");
    println!("transpiled circuit depth per problem, with result-quality markers\n");
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .filter(|o| o.quality != "unmappable")
        .map(|o| {
            vec![
                o.problem.clone(),
                o.label.clone(),
                o.depth.to_string(),
                o.num_swaps.to_string(),
                fmt_f(o.fidelity, 4),
                o.quality.clone(),
            ]
        })
        .collect();
    print_table(&["problem", "instance", "depth", "swaps", "fidelity", "result"], &rows);
}

/// Pearson correlation of (x, y) pairs (0 when degenerate).
fn pearson(pts: &[(f64, f64)]) -> f64 {
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return 0.0;
    }
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let vx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let vy: f64 = pts.iter().map(|p| (p.1 - my).powi(2)).sum();
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx * vy).sqrt()
    }
}

fn fig10(outcomes: &[GateOutcome]) {
    println!("Figure 10 — constraints vs transpiled circuit depth, per problem\n");
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .filter(|o| o.quality != "unmappable")
        .map(|o| {
            vec![
                o.problem.clone(),
                o.label.clone(),
                o.constraints.to_string(),
                o.depth.to_string(),
                o.quality.clone(),
            ]
        })
        .collect();
    print_table(&["problem", "instance", "constraints", "depth", "result"], &rows);

    // Per-problem constraint↔depth correlation (the paper's "general
    // trend ... albeit at different rates per problem").
    let mut series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for o in outcomes.iter().filter(|o| o.quality != "unmappable") {
        series.entry(o.problem.clone()).or_default().push((o.constraints as f64, o.depth as f64));
    }
    println!("\nper-problem Pearson correlation (constraints vs depth):");
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|(name, pts)| {
            let slope = if pts.len() >= 2 {
                let dx = pts.last().unwrap().0 - pts[0].0;
                let dy = pts.last().unwrap().1 - pts[0].1;
                if dx != 0.0 {
                    dy / dx
                } else {
                    0.0
                }
            } else {
                0.0
            };
            vec![name.clone(), pts.len().to_string(), fmt_f(pearson(pts), 3), fmt_f(slope, 2)]
        })
        .collect();
    print_table(&["problem", "points", "correlation", "depth/constraint"], &rows);
}
