//! Typed end-to-end execution failures.
//!
//! Every backend reports problems through [`ExecError`] instead of
//! panicking, so library callers can match on the failure mode and
//! apply their own policy (retry, fall back, skip the instance). The
//! supervisor layer additionally needs two refinements, both here:
//!
//! * a **transient / permanent** split
//!   ([`ExecError::transient`]) — transient failures are worth a
//!   retry with backoff, permanent ones go straight to the next rung
//!   of the degradation ladder;
//! * **provenance** ([`FailedAttempt`]) — which backend, which
//!   pipeline stage, which attempt index produced the error, kept even
//!   for errors a fallback later suppressed.

use crate::backend::BackendId;
use crate::budget::BudgetDim;
use crate::stage::Stage;
use nck_anneal::AnnealError;
use nck_circuit::QaoaError;
use nck_compile::CompileError;
use nck_qubo::QuboIoError;
use nck_store::StoreError;
use std::fmt;

/// The kind of substrate fault behind an
/// [`ExecError::Transient`] failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A scripted transient failure from the fault plane (stands in
    /// for queue rejections, dropped network calls, device resets).
    Injected,
    /// The annealer job's chain-break fraction exceeded the backend's
    /// acceptance threshold — a storm, not a usable sample set.
    ChainBreakStorm,
}

impl FaultKind {
    /// Every fault kind, in declaration order.
    pub const ALL: [FaultKind; 2] = [FaultKind::Injected, FaultKind::ChainBreakStorm];
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Injected => write!(f, "injected transient fault"),
            FaultKind::ChainBreakStorm => write!(f, "chain-break storm"),
        }
    }
}

/// Errors from end-to-end execution.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// Compilation to QUBO failed.
    Compile(CompileError),
    /// The annealing backend failed.
    Anneal(AnnealError),
    /// The gate-model backend failed.
    Qaoa(QaoaError),
    /// The program's hard constraints are unsatisfiable.
    Unsatisfiable,
    /// The backend cannot express soft constraints (Grover amplifies
    /// *satisfying* assignments; it has no notion of soft-count
    /// optimality).
    SoftUnsupported {
        /// Soft constraints present in the program.
        num_soft: usize,
    },
    /// The instance exceeds a hard backend capacity limit.
    TooLarge {
        /// Variables the instance requires.
        vars: usize,
        /// The backend's limit.
        limit: usize,
    },
    /// The backend returned no candidate assignments to classify.
    NoCandidates,
    /// The run was cancelled cooperatively (wall-clock deadline or an
    /// explicit cancel) before the backend produced anything usable.
    Cancelled {
        /// Backend that observed the cancellation.
        backend: BackendId,
        /// Pipeline stage that was executing.
        stage: Stage,
    },
    /// A transient substrate fault: worth retrying with backoff.
    Transient {
        /// Backend that faulted.
        backend: BackendId,
        /// Pipeline stage that faulted.
        stage: Stage,
        /// What kind of fault.
        kind: FaultKind,
        /// Attempt index the fault hit (0-based).
        attempt: u32,
    },
    /// The backend's circuit breaker is open: the call was rejected
    /// without invoking the backend, to stop burning budget on a rung
    /// that keeps failing.
    BreakerOpen {
        /// Backend whose breaker rejected the call.
        backend: BackendId,
    },
    /// A [`RunBudget`](crate::RunBudget) dimension ran out before any
    /// rung produced a report.
    BudgetExhausted {
        /// Which budget dimension.
        what: BudgetDim,
    },
    /// The durable run store failed (I/O error, corrupt file, or a
    /// simulated crash from the kill-point harness).
    Store(StoreError),
    /// A `.qubo` input document failed to parse.
    QuboIo(QuboIoError),
    /// A resume pointed at a run directory whose journal already ends
    /// in a terminal event; there is nothing left to execute.
    AlreadyFinished {
        /// The run directory.
        dir: String,
    },
}

impl ExecError {
    /// Is this failure *transient* — caused by a passing substrate
    /// condition that a retry with backoff may outlive? Everything
    /// else is [`permanent`](ExecError::permanent): retrying the same
    /// backend with the same inputs cannot help, so the supervisor
    /// moves to the next rung of the ladder instead.
    pub fn transient(&self) -> bool {
        matches!(self, ExecError::Transient { .. })
    }

    /// Is this failure *permanent* for the backend that produced it?
    /// The complement of [`transient`](ExecError::transient).
    pub fn permanent(&self) -> bool {
        !self.transient()
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Compile(e) => write!(f, "compile error: {e}"),
            ExecError::Anneal(e) => write!(f, "annealer error: {e}"),
            ExecError::Qaoa(e) => write!(f, "gate-model error: {e}"),
            ExecError::Unsatisfiable => write!(f, "hard constraints are unsatisfiable"),
            ExecError::SoftUnsupported { num_soft } => write!(
                f,
                "backend supports hard-only programs ({num_soft} soft constraint(s) present)"
            ),
            ExecError::TooLarge { vars, limit } => {
                write!(f, "instance needs {vars} variables, backend limit is {limit}")
            }
            ExecError::NoCandidates => write!(f, "backend returned no candidate assignments"),
            ExecError::Cancelled { backend, stage } => {
                write!(f, "cancelled during {backend}/{stage} (deadline or explicit cancel)")
            }
            ExecError::Transient { backend, stage, kind, attempt } => {
                write!(f, "transient fault in {backend}/{stage} on attempt {attempt}: {kind}")
            }
            ExecError::BreakerOpen { backend } => {
                write!(f, "circuit breaker for {backend} is open")
            }
            ExecError::BudgetExhausted { what } => {
                write!(f, "run budget exhausted: {what}")
            }
            ExecError::Store(e) => write!(f, "durable store error: {e}"),
            ExecError::QuboIo(e) => write!(f, "qubo input error: {e}"),
            ExecError::AlreadyFinished { dir } => {
                write!(f, "run in {dir} already finished; nothing to resume")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<CompileError> for ExecError {
    fn from(e: CompileError) -> Self {
        ExecError::Compile(e)
    }
}
impl From<AnnealError> for ExecError {
    fn from(e: AnnealError) -> Self {
        ExecError::Anneal(e)
    }
}
impl From<QaoaError> for ExecError {
    fn from(e: QaoaError) -> Self {
        ExecError::Qaoa(e)
    }
}
impl From<StoreError> for ExecError {
    fn from(e: StoreError) -> Self {
        ExecError::Store(e)
    }
}
impl From<QuboIoError> for ExecError {
    fn from(e: QuboIoError) -> Self {
        ExecError::QuboIo(e)
    }
}

/// A failed attempt with full provenance: backend, pipeline stage, and
/// attempt index — attached to every error the execution layer
/// reports, and to every suppressed error in the
/// [`RunJournal`](crate::RunJournal).
#[derive(Clone, Debug, PartialEq)]
pub struct FailedAttempt {
    /// Backend that failed.
    pub backend: BackendId,
    /// Pipeline stage that was executing when the error surfaced.
    pub stage: Stage,
    /// Attempt index on that backend (0-based).
    pub attempt: u32,
    /// The typed error.
    pub error: ExecError,
}

impl fmt::Display for FailedAttempt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} attempt {}: {}", self.backend, self.stage, self.attempt, self.error)
    }
}

impl std::error::Error for FailedAttempt {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_classification() {
        let t = ExecError::Transient {
            backend: BackendId::Annealer,
            stage: Stage::Sample,
            kind: FaultKind::Injected,
            attempt: 0,
        };
        assert!(t.transient());
        assert!(!t.permanent());
        for e in [
            ExecError::Unsatisfiable,
            ExecError::NoCandidates,
            ExecError::SoftUnsupported { num_soft: 1 },
            ExecError::TooLarge { vars: 30, limit: 20 },
            ExecError::Cancelled { backend: BackendId::Gate, stage: Stage::Sample },
            ExecError::BreakerOpen { backend: BackendId::Gate },
            ExecError::BudgetExhausted { what: BudgetDim::Attempts },
        ] {
            assert!(e.permanent(), "{e} must be permanent");
        }
    }

    #[test]
    fn failed_attempt_carries_provenance() {
        let fa = FailedAttempt {
            backend: BackendId::Annealer,
            stage: Stage::Embed,
            attempt: 2,
            error: ExecError::NoCandidates,
        };
        let s = fa.to_string();
        assert!(s.contains("annealer/embed"), "{s}");
        assert!(s.contains("attempt 2"), "{s}");
    }
}
