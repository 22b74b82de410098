//! The classical exact solver (the Z3-role baseline) behind the
//! [`Backend`] trait.

use crate::backend::{Backend, BackendId, BackendMetrics, Candidates, Prepared};
use crate::budget::BudgetDim;
use crate::durable::{decode, encode};
use crate::error::ExecError;
use crate::fault::FaultInjection;
use crate::journal::{JournalKind, RunCtx};
use crate::stage::Stage;
use nck_classical::{solve_cancellable, solve_resumable, Incumbent, SolveOutcome, SolverOptions};
use std::sync::Arc;
use std::time::Instant;

/// Exact branch and bound over the NchooseK constraints directly.
///
/// When the search completes (not truncated by the node limit or a
/// deadline) the result is proven soft-optimal, so the plan's
/// optimality oracle is seeded for free — a classical run also
/// establishes the yardstick every quantum backend is judged against.
#[derive(Clone, Debug, Default)]
pub struct ClassicalBackend {
    /// Solver options (node limit).
    pub options: SolverOptions,
    /// Deterministic fault injection for exercising the supervisor's
    /// retry policy in tests.
    pub faults: FaultInjection,
}

impl ClassicalBackend {
    /// The same backend with deterministic fault injection enabled.
    pub fn with_faults(mut self, faults: FaultInjection) -> Self {
        self.faults = faults;
        self
    }
}

impl Backend for ClassicalBackend {
    fn name(&self) -> BackendId {
        BackendId::Classical
    }

    fn run(
        &self,
        prepared: &Prepared<'_>,
        _seed: u64,
        ctx: &mut RunCtx,
    ) -> Result<(Candidates, BackendMetrics), ExecError> {
        ctx.enter_stage(Stage::Sample);
        self.faults.apply_sample_faults(ctx)?;
        let t = Instant::now();
        let (outcome, stats) = if ctx.ckpt.interval() == 0 {
            solve_cancellable(prepared.program, &self.options, &ctx.cancel)
        } else {
            // Durable run: seed the search with the persisted incumbent
            // (the branch-and-bound prunes against it immediately) and
            // checkpoint every improvement.
            let restored = ctx.ckpt.load("classical").and_then(|buf| decode(&buf));
            let sink = Arc::clone(&ctx.ckpt);
            solve_resumable(
                prepared.program,
                &self.options,
                &ctx.cancel,
                restored,
                &mut |inc: &Incumbent| sink.save("classical", &encode(inc)),
            )
        };
        ctx.stages.sample = t.elapsed();
        let metrics = BackendMetrics::Classical {
            nodes: stats.nodes,
            propagations: stats.propagations,
            truncated: stats.truncated,
        };
        match outcome {
            SolveOutcome::Solved { assignment, soft_weight, .. } => {
                let candidates = if stats.truncated {
                    // A truncated search yields an incumbent, not a
                    // proven optimum — don't seed the oracle with it.
                    if ctx.cancel.is_cancelled() {
                        ctx.note(JournalKind::PartialResult { candidates: 1 });
                    }
                    Candidates::Program(vec![assignment])
                } else {
                    Candidates::Exact { assignment, soft_weight }
                };
                Ok((candidates, metrics))
            }
            // A truncated search that found no incumbent proves
            // nothing: claiming unsatisfiability here would be wrong
            // (the pre-supervisor code did exactly that).
            SolveOutcome::Unsatisfiable if stats.truncated => {
                if ctx.cancel.is_cancelled() {
                    Err(ExecError::Cancelled { backend: ctx.backend, stage: ctx.stage })
                } else {
                    Err(ExecError::BudgetExhausted { what: BudgetDim::Nodes })
                }
            }
            SolveOutcome::Unsatisfiable => Err(ExecError::Unsatisfiable),
        }
    }
}
