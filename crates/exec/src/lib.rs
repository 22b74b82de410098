//! # nck-exec
//!
//! The unified multi-backend execution layer — the paper's claim that
//! *one* NchooseK program runs unchanged on D-Wave, IBM Q, and Z3,
//! expressed as one [`Backend`] trait with four implementations:
//!
//! * [`AnnealerBackend`] — the simulated D-Wave annealer, with an
//!   embedding cache and rip-up-reseed retry + clique-fallback policy;
//! * [`GateModelBackend`] — the simulated IBM Q device via QAOA, with
//!   analytic p=1 fallback when the state vector overflows;
//! * [`GroverBackend`] — BBHT-scheduled Grover search for hard-only
//!   programs, with typed capacity errors instead of panics;
//! * [`ClassicalBackend`] — the exact branch-and-bound baseline, whose
//!   proven optimum seeds the optimality oracle for free.
//!
//! An [`ExecutionPlan`] compiles a program once and fans out to any
//! backend or seed sweep, serving the compiled QUBO and the classical
//! optimality oracle from caches; every run returns an [`ExecReport`]
//! with per-stage wall-times ([`StageTimings`]) aligned with the
//! paper's §VIII-C timing experiment.
//!
//! ```
//! use nck_core::{Program, SolutionQuality};
//! use nck_exec::{AnnealerBackend, Backend, ClassicalBackend, ExecutionPlan};
//! use nck_anneal::AnnealerDevice;
//!
//! // Minimum vertex cover of the paper's Fig. 2 graph.
//! let mut p = Program::new();
//! let vs = p.new_vars("v", 5).unwrap();
//! for (u, w) in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)] {
//!     p.nck(vec![vs[u], vs[w]], [1, 2]).unwrap();
//! }
//! for &v in &vs {
//!     p.nck_soft(vec![v], [0]).unwrap();
//! }
//!
//! let plan = ExecutionPlan::new(&p);
//! let annealer = AnnealerBackend::new(AnnealerDevice::ideal(16), 100);
//! let classical = ClassicalBackend::default();
//! // One compile serves both backends and every seed.
//! for backend in [&annealer as &dyn Backend, &classical] {
//!     let report = plan.run(backend, 42).unwrap();
//!     assert_eq!(report.quality, SolutionQuality::Optimal);
//! }
//! assert_eq!(plan.stats().compiles, 1);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod backends;
pub mod breaker;
pub mod budget;
pub mod durable;
pub mod error;
pub mod fault;
pub mod journal;
pub mod plan;
pub mod stage;
pub mod supervisor;

pub use backend::{Backend, BackendId, BackendMetrics, Candidates, Prepared};
pub use backends::{
    AnnealerBackend, ClassicalBackend, GateModelBackend, GroverBackend, BBHT_GROWTH,
    PACKED_SAMPLER_LIMIT,
};
pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
pub use budget::{BudgetDim, RetryPolicy, RunBudget};
pub use durable::{DurableRun, Record, RecoveredRun, DEFAULT_CHECKPOINT_INTERVAL};
pub use error::{ExecError, FailedAttempt, FaultKind};
pub use fault::FaultInjection;
pub use journal::{Fallback, JournalEvent, JournalKind, RunCtx, RunJournal};
pub use nck_cancel::{CancelToken, Checkpointer, NoopCheckpointer};
pub use nck_store::{KillPoint, KillSpec, Recovered, RunStore, StoreError, StoreOp};
pub use plan::{ExecReport, ExecutionPlan, PlanStats, Tally};
pub use stage::{Stage, StageOutcome, StageTimings};
pub use supervisor::{SupervisedFailure, Supervisor};
