//! Independent answer checks: every optimum is established without the
//! branch and bound the pipeline's oracle and classical backend use.

use crate::inputs::{Instance, Reference};
use crate::runner::Answer;
use nck_bench::{clique_chain_max_cut, clique_chain_min_vertex_cover};
use nck_classical::solve_brute;
use nck_core::SolutionQuality;

/// Largest program exhaustive enumeration is used on.
pub const BRUTE_LIMIT: usize = 24;

/// The instance's maximum satisfiable soft weight, or an error when
/// the instance has no independent reference.
pub fn optimum(inst: &Instance) -> Result<u64, String> {
    match inst.reference {
        Reference::Brute => {
            let n = inst.program.num_vars();
            if n > BRUTE_LIMIT {
                return Err(format!("{}: {n} variables exceed the brute-force limit", inst.label));
            }
            solve_brute(&inst.program)
                .map(|r| r.max_soft)
                .ok_or_else(|| format!("{}: unsatisfiable", inst.label))
        }
        Reference::CirculantCover { n } => Ok((n / 3) as u64),
        Reference::ChainCover { k } => Ok((3 * k - clique_chain_min_vertex_cover(k)) as u64),
        Reference::ChainCut { k } => Ok(clique_chain_max_cut(k) as u64),
    }
}

/// Check one answer against the reference optimum: the oracle's
/// optimum must match it, and the reported quality must be what the
/// assignment earns against it.
pub fn check(inst: &Instance, reference: u64, answer: &Answer) -> Result<(), String> {
    if answer.max_soft != reference {
        return Err(format!(
            "{}: oracle optimum {} != reference {reference}",
            inst.label, answer.max_soft
        ));
    }
    let ev = inst.program.evaluate(&answer.assignment);
    let earned = if !inst.program.all_hard_satisfied(&answer.assignment) {
        SolutionQuality::Incorrect
    } else if ev.soft_weight_satisfied == reference {
        SolutionQuality::Optimal
    } else if ev.soft_weight_satisfied < reference {
        SolutionQuality::Suboptimal
    } else {
        return Err(format!(
            "{}: assignment satisfies soft weight {} above the reference {reference}",
            inst.label, ev.soft_weight_satisfied
        ));
    };
    if earned != answer.quality {
        return Err(format!(
            "{}: reported {:?}, the assignment earns {earned:?}",
            inst.label, answer.quality
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_problems::{Graph, MinVertexCover};

    #[test]
    fn circulant_cover_formula_matches_brute_force() {
        for n in 7..=20 {
            let p = MinVertexCover::new(Graph::circulant(n, 4)).program();
            let brute = solve_brute(&p).unwrap().max_soft;
            assert_eq!(brute, (n / 3) as u64, "circulant({n},4)");
        }
    }
}
