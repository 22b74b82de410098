//! The [`Backend`] trait: one interface over the annealer, the
//! gate-model/QAOA device, Grover search, and the classical exact
//! solver — the paper's claim that a single NchooseK program runs
//! unchanged on D-Wave, IBM Q, and Z3, expressed as a trait.
//!
//! A backend receives the prepared (compiled-once) program from an
//! [`ExecutionPlan`](crate::ExecutionPlan) and returns raw candidate
//! assignments plus backend-specific metrics; the plan owns the shared
//! decode and classify stages.

use crate::error::ExecError;
use crate::journal::RunCtx;
use nck_compile::CompiledProgram;
use nck_core::Program;
use std::fmt;
use std::time::Duration;

/// Which backend a run, a journal event, or an error belongs to. The
/// supervisor names itself for failures no backend owns (store death,
/// an empty ladder).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendId {
    /// The simulated D-Wave annealer.
    Annealer,
    /// The simulated IBM Q device via QAOA.
    Gate,
    /// Grover search on the simulated gate model.
    Grover,
    /// The exact classical branch and bound.
    Classical,
    /// The supervisor itself.
    Supervisor,
}

impl BackendId {
    /// Every backend identity, in declaration order.
    pub const ALL: [BackendId; 5] = [
        BackendId::Annealer,
        BackendId::Gate,
        BackendId::Grover,
        BackendId::Classical,
        BackendId::Supervisor,
    ];
}

impl fmt::Display for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            BackendId::Annealer => "annealer",
            BackendId::Gate => "gate",
            BackendId::Grover => "grover",
            BackendId::Classical => "classical",
            BackendId::Supervisor => "supervisor",
        })
    }
}

/// The compiled-once inputs handed to every backend by a plan.
#[derive(Clone, Copy, Debug)]
pub struct Prepared<'a> {
    /// The source program.
    pub program: &'a Program,
    /// Its compiled QUBO form (shared across seeds and backends).
    pub compiled: &'a CompiledProgram,
}

/// Raw candidate assignments returned by a backend, in the space the
/// backend naturally produces them in.
#[derive(Clone, Debug)]
pub enum Candidates {
    /// Assignments over all QUBO variables (program variables followed
    /// by compiler ancillas); the plan projects them down.
    Qubo(Vec<Vec<bool>>),
    /// Assignments already over the program variables only.
    Program(Vec<Vec<bool>>),
    /// A single program-variable assignment *proven* soft-optimal by an
    /// exact solver. Lets the plan seed its optimality oracle without a
    /// second classical solve.
    Exact {
        /// The proven-optimal assignment.
        assignment: Vec<bool>,
        /// Its satisfied soft weight — by proof, the program maximum.
        soft_weight: u64,
    },
}

/// Backend-specific result metrics, alongside the shared
/// quality/timing reporting.
#[derive(Clone, Debug)]
pub enum BackendMetrics {
    /// Annealer job metrics (the Fig. 7 axes).
    Annealer {
        /// Physical qubits used by the embedding.
        physical_qubits: usize,
        /// Longest chain length.
        max_chain_length: usize,
        /// Fraction of (read × chain) events that broke.
        chain_break_fraction: f64,
        /// Modeled QPU access time for the job.
        qpu_access_time: Duration,
    },
    /// Gate-model QAOA metrics (the Fig. 8–11 axes).
    GateModel {
        /// Qubits used on the device.
        qubits_used: usize,
        /// Transpiled circuit depth.
        depth: usize,
        /// SWAPs inserted by routing.
        num_swaps: usize,
        /// Depolarizing fidelity of the transpiled circuit.
        fidelity: f64,
        /// Jobs submitted (optimizer iterations + final sampling).
        num_jobs: usize,
        /// Modeled total device + classical-optimizer time.
        estimated_time: Duration,
        /// The optimized noisy expectation ⟨H⟩.
        expectation: f64,
    },
    /// Grover search metrics.
    Grover {
        /// Measurements taken (one per BBHT iteration guess).
        measurements: usize,
        /// Total Grover iterations applied across guesses.
        total_iterations: usize,
        /// Success probability just before the final measurement.
        success_probability: f64,
    },
    /// Classical exact-solver metrics.
    Classical {
        /// Decision nodes explored.
        nodes: u64,
        /// Assignments forced by propagation.
        propagations: u64,
        /// True if the node limit truncated the search.
        truncated: bool,
    },
}

/// A solver capable of executing a prepared NchooseK program.
///
/// Implementations time their own stages into `ctx.stages` (`embed`
/// and `sample`; `compile`, `decode`, and `classify` belong to the
/// plan), journal noteworthy events (suppressed errors, fallbacks)
/// into `ctx.journal`, poll `ctx.cancel` inside long-running loops,
/// and report failures as [`ExecError`] values, never panics.
pub trait Backend {
    /// Which backend this is.
    fn name(&self) -> BackendId;

    /// Execute the prepared program once with the given seed.
    fn run(
        &self,
        prepared: &Prepared<'_>,
        seed: u64,
        ctx: &mut RunCtx,
    ) -> Result<(Candidates, BackendMetrics), ExecError>;
}
