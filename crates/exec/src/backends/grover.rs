//! Grover search behind the [`Backend`] trait — the lineage of the
//! original NchooseK abstraction (§I cites its first use in a Grover
//! search).
//!
//! Limited to hard-only programs (Grover amplifies *satisfying*
//! assignments; it has no notion of soft-count optimality) and to
//! registers the state-vector oracle can hold. Both limits are typed
//! [`ExecError`] values, not panics.

use crate::backend::{Backend, BackendId, BackendMetrics, Candidates, Prepared};
use crate::durable::{decode, encode, GroverProgress};
use crate::error::ExecError;
use crate::fault::FaultInjection;
use crate::journal::RunCtx;
use crate::stage::Stage;
use nck_circuit::{grover_search, marked_states};
use std::time::Instant;

/// BBHT growth factor for the unknown-solution-count schedule: the
/// iteration guess is m = ⌈BBHT_GROWTH^j⌉ for j = 0, 1, …. Boyer,
/// Brassard, Høyer & Tapp prove any factor in (1, 4/3) keeps the
/// expected total oracle cost at O(√(N/M)).
pub const BBHT_GROWTH: f64 = 1.3;

/// Grover search over the program's hard constraints, using the BBHT
/// schedule for an unknown solution count: exponentially growing
/// iteration guesses, each measured once and checked classically.
#[derive(Clone, Debug)]
pub struct GroverBackend {
    /// Largest program (in variables) the state-vector oracle accepts.
    pub max_vars: usize,
    /// Maximum BBHT iteration guesses before reporting unsatisfiable.
    pub max_guesses: u64,
    /// Deterministic fault injection for exercising the supervisor's
    /// retry policy in tests.
    pub faults: FaultInjection,
}

impl Default for GroverBackend {
    fn default() -> Self {
        GroverBackend { max_vars: 20, max_guesses: 64, faults: FaultInjection::default() }
    }
}

impl GroverBackend {
    /// The same backend with deterministic fault injection enabled.
    pub fn with_faults(mut self, faults: FaultInjection) -> Self {
        self.faults = faults;
        self
    }
}

impl Backend for GroverBackend {
    fn name(&self) -> BackendId {
        BackendId::Grover
    }

    fn run(
        &self,
        prepared: &Prepared<'_>,
        seed: u64,
        ctx: &mut RunCtx,
    ) -> Result<(Candidates, BackendMetrics), ExecError> {
        let program = prepared.program;
        ctx.enter_stage(Stage::Sample);
        if program.num_soft() > 0 {
            return Err(ExecError::SoftUnsupported { num_soft: program.num_soft() });
        }
        let n = program.num_vars();
        if n > self.max_vars {
            return Err(ExecError::TooLarge { vars: n, limit: self.max_vars });
        }
        self.faults.apply_sample_faults(ctx)?;
        let t = Instant::now();
        // The oracle: every basis state checked against the hard
        // constraints once per run, then read by every Grover iteration
        // of every guess.
        let mut x = vec![false; n];
        let marked = marked_states(n, |bits| {
            for (q, v) in x.iter_mut().enumerate() {
                *v = bits >> q & 1 == 1;
            }
            program.all_hard_satisfied(&x)
        });
        // BBHT: try m = ⌈BBHT_GROWTH^j⌉ iterations, j = 0, 1, …;
        // measure once per guess. Expected O(√(N/M)) total oracle calls.
        // Durable runs checkpoint the schedule position after each
        // guess, so a resumed attempt re-enters the loop at the guess
        // the crash interrupted (each guess is seeded by `seed ^ j`,
        // so the continuation is the same search the crashed run was
        // in the middle of).
        let interval = ctx.ckpt.interval();
        let restored = if interval == 0 {
            None
        } else {
            ctx.ckpt.load("grover").and_then(|buf| decode::<GroverProgress>(&buf))
        };
        let restored = restored.filter(|p| p.next_guess <= self.max_guesses);
        let start_guess = restored.as_ref().map_or(0, |p| p.next_guess);
        let mut m = restored.as_ref().map_or(1.0f64, |p| p.m);
        let mut found: Option<Vec<bool>> = None;
        let mut measurements = restored.as_ref().map_or(0usize, |p| p.measurements as usize);
        let mut total_iterations =
            restored.as_ref().map_or(0usize, |p| p.total_iterations as usize);
        let mut success_probability = restored.as_ref().map_or(0.0, |p| p.success_probability);
        for j in start_guess..self.max_guesses {
            // A measured-but-unsatisfying guess carries no partial
            // information worth salvaging, so cancellation simply stops
            // the schedule.
            if ctx.cancel.is_cancelled() {
                ctx.stages.sample = t.elapsed();
                return Err(ExecError::Cancelled { backend: ctx.backend, stage: ctx.stage });
            }
            let iters = m.ceil() as usize;
            let r = grover_search(n, &marked, iters, seed ^ j);
            measurements += 1;
            total_iterations += r.iterations;
            success_probability = r.success_probability;
            if r.satisfying {
                found = Some(r.assignment);
                break;
            }
            m = (m * BBHT_GROWTH).min((1u64 << n) as f64);
            if interval != 0 {
                ctx.ckpt.save(
                    "grover",
                    &encode(&GroverProgress {
                        next_guess: j + 1,
                        measurements: measurements as u64,
                        total_iterations: total_iterations as u64,
                        m,
                        success_probability,
                    }),
                );
            }
        }
        ctx.stages.sample = t.elapsed();
        let assignment = found.ok_or(ExecError::Unsatisfiable)?;
        let metrics =
            BackendMetrics::Grover { measurements, total_iterations, success_probability };
        Ok((Candidates::Program(vec![assignment]), metrics))
    }
}
