//! The resilient execution supervisor: deadlines, retries with
//! backoff, circuit breakers, and degradation ladders over any
//! [`Backend`] sequence.
//!
//! A [`Supervisor`] wraps [`ExecutionPlan::run`] in the policy loop
//! real substrates need:
//!
//! 1. a [`RunBudget`] bounds the whole run — wall-clock deadline,
//!    total attempts, total samples;
//! 2. a [`RetryPolicy`] retries *transient* failures
//!    ([`ExecError::transient`]) on the same rung with deterministic
//!    seeded backoff;
//! 3. the plan's per-backend [`CircuitBreaker`]s
//!    ([`ExecutionPlan::breaker`]) short-circuit rungs that keep
//!    failing;
//! 4. a **degradation ladder** — an ordered backend sequence such as
//!    `gate → annealer → classical` — moves to the next rung on a
//!    permanent error, an opened breaker, or rung-budget exhaustion.
//!
//! The wall-clock deadline is divided across the remaining rungs: rung
//! `i` of `k` remaining receives `remaining / (k − i)` as its
//! cancellation deadline, so a wedged rung (an injected sampler stall,
//! a runaway optimizer) cannot starve the rungs below it, and time a
//! rung does not use rolls over to the next. Every attempt, fault,
//! fallback, breaker transition, and ladder step is recorded in a
//! [`RunJournal`] with one shared timebase; the journal rides on the
//! [`ExecReport`] on success and on the [`SupervisedFailure`]
//! otherwise, so *why* a run took the path it took is never lost.
//!
//! **Durability.** The `*_durable` entry points persist the whole run
//! into a crash-safe [`RunStore`] as it executes: every journal event,
//! every budget step, every rung completion, and periodic mid-solve
//! checkpoints from the backend hot loops. A killed run is resumed
//! with [`resume_durable`](Supervisor::resume_durable): completed
//! rungs are never re-entered, the journal continues from its exact
//! persisted prefix on the same monotonic timebase, and the
//! interrupted attempt replays deterministically from its last
//! checkpoint (same derived seed, same read/iterate position).
//! Deadline budgets restart on resume — wall-clock spent before a
//! crash is not charged to the resumed process.
//!
//! [`CircuitBreaker`]: crate::CircuitBreaker

use crate::backend::{Backend, BackendId};
use crate::breaker::Admission;
use crate::budget::{BudgetDim, RetryPolicy, RunBudget};
use crate::durable::{DurableRun, Record, RecoveredRun, DEFAULT_CHECKPOINT_INTERVAL};
use crate::error::{ExecError, FailedAttempt};
use crate::journal::{JournalEvent, JournalKind, RunCtx, RunJournal};
use crate::plan::{ExecReport, ExecutionPlan};
use crate::stage::{Stage, StageOutcome};
use nck_cancel::{CancelToken, Checkpointer};
use nck_store::{Recovered, RunStore};
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A supervised run that exhausted every rung of its ladder: the final
/// typed error with full provenance, plus the complete journal of
/// everything that was tried.
#[derive(Clone, Debug)]
pub struct SupervisedFailure {
    /// The last attempt's failure (backend, stage, attempt, error).
    pub error: FailedAttempt,
    /// The complete journal; its final event is always
    /// [`JournalKind::Failed`].
    pub journal: RunJournal,
}

impl fmt::Display for SupervisedFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "supervised run failed: {}", self.error)
    }
}

impl std::error::Error for SupervisedFailure {}

/// The policy bundle wrapping every supervised execution.
#[derive(Clone, Copy, Debug)]
pub struct Supervisor {
    /// The cost envelope: deadline, attempts, samples.
    pub budget: RunBudget,
    /// Backoff spacing for transient-failure retries.
    pub retry: RetryPolicy,
    /// Solver work units (annealer reads, optimizer iterations, Grover
    /// guesses) between mid-solve checkpoints in durable runs. `0`
    /// keeps journal and rung durability but disables mid-solve
    /// checkpoints. Ignored by non-durable runs.
    pub checkpoint_interval: u64,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor {
            budget: RunBudget::default(),
            retry: RetryPolicy::default(),
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
        }
    }
}

/// Where a (possibly resumed) supervised run starts from. The default
/// is a fresh run: rung 0, attempt 0, empty journal, zero elapsed.
#[derive(Debug, Default)]
struct ResumeInit {
    start_rung: usize,
    rung_attempt: u32,
    global_attempt: u32,
    samples_used: u64,
    journal: RunJournal,
    elapsed: Duration,
}

/// Journal an event and, when the run is durable, persist it in the
/// same breath — the journal on disk is always an exact prefix of the
/// journal in memory.
fn jot(
    journal: &mut RunJournal,
    sink: Option<&Arc<DurableRun>>,
    at: Duration,
    backend: BackendId,
    attempt: u32,
    kind: JournalKind,
) {
    let ev = JournalEvent { at, backend, attempt, kind };
    if let Some(s) = sink {
        s.record(&Record::Journal(ev.clone()));
    }
    journal.events.push(ev);
}

/// Move an attempt context's journal events into the run journal,
/// persisting each on the way.
fn drain(journal: &mut RunJournal, sink: Option<&Arc<DurableRun>>, events: &mut Vec<JournalEvent>) {
    if let Some(s) = sink {
        for ev in events.iter() {
            s.record(&Record::Journal(ev.clone()));
        }
    }
    journal.events.append(events);
}

impl Supervisor {
    /// A supervisor with the given budget and retry policy.
    pub fn new(budget: RunBudget, retry: RetryPolicy) -> Self {
        Supervisor { budget, retry, ..Supervisor::default() }
    }

    /// Derive the seed for attempt `k` of a rung: attempt 0 uses the
    /// caller's seed unchanged (a fault-free supervised run reproduces
    /// the plain run bit-for-bit), retries decorrelate.
    fn attempt_seed(seed: u64, global_attempt: u32) -> u64 {
        seed ^ u64::from(global_attempt).wrapping_mul(0x9e3779b97f4a7c15)
    }

    /// Execute `plan` down the `ladder` under this supervisor's
    /// policies. Returns the first rung's successful report, or — when
    /// every rung fails or the budget runs out — a
    /// [`SupervisedFailure`] whose journal explains the whole run.
    pub fn run(
        &self,
        plan: &ExecutionPlan<'_>,
        ladder: &[&dyn Backend],
        seed: u64,
    ) -> Result<ExecReport, Box<SupervisedFailure>> {
        self.run_inner(plan, ladder, seed, ResumeInit::default(), None)
    }

    /// Like [`run`](Supervisor::run), but persisted: open a fresh
    /// durable store in `dir` (rejecting a directory that already
    /// holds a run) and journal every step into it, so a crash at any
    /// point can be resumed with
    /// [`resume_durable`](Supervisor::resume_durable).
    pub fn run_durable(
        &self,
        plan: &ExecutionPlan<'_>,
        ladder: &[&dyn Backend],
        seed: u64,
        dir: &Path,
    ) -> Result<ExecReport, Box<SupervisedFailure>> {
        match RunStore::open_fresh(dir) {
            Ok(store) => self.run_with_store(plan, ladder, seed, store),
            Err(e) => Err(Self::store_failure(ExecError::Store(e))),
        }
    }

    /// [`run_durable`](Supervisor::run_durable) over a caller-supplied
    /// store — the entry point the kill-point harness uses to arm
    /// deterministic crashes before handing the store over.
    pub fn run_with_store(
        &self,
        plan: &ExecutionPlan<'_>,
        ladder: &[&dyn Backend],
        seed: u64,
        store: RunStore,
    ) -> Result<ExecReport, Box<SupervisedFailure>> {
        let sink = Arc::new(DurableRun::new(store).with_interval(self.checkpoint_interval));
        let result = self.run_inner(plan, ladder, seed, ResumeInit::default(), Some(&sink));
        Self::surface_store_death(result, &sink)
    }

    /// Resume a durable run from `dir`: recover the persisted journal,
    /// ladder position, budget counters, and mid-solve checkpoints,
    /// then continue execution. Completed rungs are never re-entered;
    /// the interrupted attempt replays deterministically from its last
    /// checkpoint. A run whose journal already ended in a terminal
    /// event yields [`ExecError::AlreadyFinished`].
    pub fn resume_durable(
        &self,
        plan: &ExecutionPlan<'_>,
        ladder: &[&dyn Backend],
        seed: u64,
        dir: &Path,
    ) -> Result<ExecReport, Box<SupervisedFailure>> {
        match RunStore::open_resume(dir) {
            Ok((store, recovered)) => self.resume_with_store(plan, ladder, seed, store, &recovered),
            Err(e) => Err(Self::store_failure(ExecError::Store(e))),
        }
    }

    /// [`resume_durable`](Supervisor::resume_durable) over a
    /// caller-supplied store and its recovery result — the kill-point
    /// harness entry point.
    pub fn resume_with_store(
        &self,
        plan: &ExecutionPlan<'_>,
        ladder: &[&dyn Backend],
        seed: u64,
        store: RunStore,
        recovered: &Recovered,
    ) -> Result<ExecReport, Box<SupervisedFailure>> {
        let mut run = match RecoveredRun::recover(recovered) {
            Ok(run) => run,
            Err(e) => return Err(Self::store_failure(ExecError::Store(e))),
        };
        if run.finished.is_some() {
            let dir = store.dir().display().to_string();
            return Err(Self::store_failure(ExecError::AlreadyFinished { dir }));
        }
        let init = ResumeInit {
            start_rung: run.completed_rungs as usize,
            rung_attempt: run.rung_attempt,
            global_attempt: run.global_attempt,
            samples_used: run.samples_used,
            journal: std::mem::take(&mut run.journal),
            elapsed: run.elapsed,
        };
        let sink = Arc::new(
            DurableRun::with_restored(store, std::mem::take(&mut run.checkpoints))
                .with_interval(self.checkpoint_interval),
        );
        let result = self.run_inner(plan, ladder, seed, init, Some(&sink));
        Self::surface_store_death(result, &sink)
    }

    /// A store failure wrapped in the supervised-failure shape, so the
    /// durable entry points keep one error channel.
    fn store_failure(error: ExecError) -> Box<SupervisedFailure> {
        let error = FailedAttempt {
            backend: BackendId::Supervisor,
            stage: Stage::Store,
            attempt: 0,
            error,
        };
        let mut journal = RunJournal::default();
        journal.push(
            Duration::ZERO,
            BackendId::Supervisor,
            0,
            JournalKind::Failed { error: error.error.clone() },
        );
        Box::new(SupervisedFailure { error, journal })
    }

    /// If the store died mid-run (a kill-point or real I/O failure),
    /// the run's outcome is the *crash*, not whatever the in-memory
    /// run wound down to — mirror what a real process death leaves
    /// behind, and surface the typed store error. The in-memory
    /// journal is kept either way: it is the superset the persisted
    /// prefix is checked against.
    fn surface_store_death(
        result: Result<ExecReport, Box<SupervisedFailure>>,
        sink: &Arc<DurableRun>,
    ) -> Result<ExecReport, Box<SupervisedFailure>> {
        match sink.death() {
            None => result,
            Some(e) => {
                let error = FailedAttempt {
                    backend: BackendId::Supervisor,
                    stage: Stage::Store,
                    attempt: 0,
                    error: ExecError::Store(e),
                };
                Err(match result {
                    Err(mut failure) => {
                        failure.error = error;
                        failure
                    }
                    Ok(report) => Box::new(SupervisedFailure { error, journal: report.journal }),
                })
            }
        }
    }

    fn run_inner(
        &self,
        plan: &ExecutionPlan<'_>,
        ladder: &[&dyn Backend],
        seed: u64,
        init: ResumeInit,
        sink: Option<&Arc<DurableRun>>,
    ) -> Result<ExecReport, Box<SupervisedFailure>> {
        // Resumed runs restore the journal's monotonic timebase: the
        // clock starts `elapsed` in the past, so offsets continue
        // exactly where the crashed run's persisted prefix stopped.
        let now = Instant::now();
        let started = now.checked_sub(init.elapsed).unwrap_or(now);
        let global = self.budget.token();
        if let Some(s) = sink {
            s.bind_cancel(global.clone());
        }
        let mut journal = init.journal;
        let mut global_attempt: u32 = init.global_attempt;
        let mut samples_used: u64 = init.samples_used;
        let mut last_error = FailedAttempt {
            backend: BackendId::Supervisor,
            stage: Stage::Ladder,
            attempt: 0,
            error: ExecError::NoCandidates,
        };

        'rungs: for (ri, backend) in ladder.iter().enumerate().skip(init.start_rung) {
            let name = backend.name();
            // Slice the remaining global deadline across the remaining
            // rungs; the last rung inherits everything left.
            // With no deadline the rung shares the global token (an
            // Arc bump, and explicit cancellation still propagates);
            // with one, the rung gets its own sliced deadline.
            let rung_token = match global.remaining() {
                None => global.clone(),
                Some(rem) => {
                    if global.is_cancelled() {
                        last_error = FailedAttempt {
                            backend: name,
                            stage: Stage::Budget,
                            attempt: global_attempt,
                            error: ExecError::BudgetExhausted { what: BudgetDim::Deadline },
                        };
                        break 'rungs;
                    }
                    CancelToken::with_deadline(rem / (ladder.len() - ri) as u32)
                }
            };
            let mut rung_attempt: u32 = if ri == init.start_rung { init.rung_attempt } else { 0 };
            loop {
                if global_attempt >= self.budget.max_attempts {
                    last_error = FailedAttempt {
                        backend: name,
                        stage: Stage::Budget,
                        attempt: global_attempt,
                        error: ExecError::BudgetExhausted { what: BudgetDim::Attempts },
                    };
                    jot(
                        &mut journal,
                        sink,
                        started.elapsed(),
                        name,
                        rung_attempt,
                        JournalKind::RungExhausted { reason: "attempt budget spent".into() },
                    );
                    break 'rungs;
                }
                if let Some(max) = self.budget.max_samples {
                    if samples_used >= max {
                        last_error = FailedAttempt {
                            backend: name,
                            stage: Stage::Budget,
                            attempt: global_attempt,
                            error: ExecError::BudgetExhausted { what: BudgetDim::Samples },
                        };
                        jot(
                            &mut journal,
                            sink,
                            started.elapsed(),
                            name,
                            rung_attempt,
                            JournalKind::RungExhausted { reason: "sample budget spent".into() },
                        );
                        break 'rungs;
                    }
                }
                // Breaker gate: an open breaker rejects the rung
                // without invoking the backend at all.
                match plan.breaker(name, |b| b.admit()) {
                    Admission::Rejected => {
                        jot(
                            &mut journal,
                            sink,
                            started.elapsed(),
                            name,
                            rung_attempt,
                            JournalKind::BreakerShortCircuit,
                        );
                        last_error = FailedAttempt {
                            backend: name,
                            stage: Stage::Breaker,
                            attempt: rung_attempt,
                            error: ExecError::BreakerOpen { backend: name },
                        };
                        jot(
                            &mut journal,
                            sink,
                            started.elapsed(),
                            name,
                            rung_attempt,
                            JournalKind::RungExhausted { reason: "circuit breaker open".into() },
                        );
                        break;
                    }
                    Admission::Probe => {
                        jot(
                            &mut journal,
                            sink,
                            started.elapsed(),
                            name,
                            rung_attempt,
                            JournalKind::BreakerProbe,
                        );
                    }
                    Admission::Admitted => {}
                }

                // Persist the budget position *before* the attempt: a
                // crash mid-attempt resumes with the same counters,
                // hence the same derived seed, which is what makes the
                // attempt's mid-solve checkpoints replayable.
                if let Some(s) = sink {
                    s.record(&Record::Progress {
                        rung: ri as u32,
                        rung_attempt,
                        global_attempt,
                        samples_used,
                    });
                }
                jot(
                    &mut journal,
                    sink,
                    started.elapsed(),
                    name,
                    rung_attempt,
                    JournalKind::AttemptStarted,
                );
                let mut ctx = RunCtx::new(name, rung_token.clone(), rung_attempt, started);
                if let Some(s) = sink {
                    let ckpt: Arc<dyn Checkpointer> = Arc::clone(s) as Arc<dyn Checkpointer>;
                    ctx = ctx.with_checkpointer(ckpt);
                }
                let attempt_seed = Self::attempt_seed(seed, global_attempt);
                global_attempt += 1;
                match plan.run_attempt(*backend, attempt_seed, &mut ctx) {
                    Ok(mut report) => {
                        plan.breaker(name, |b| b.record_success());
                        drain(&mut journal, sink, &mut report.journal.events);
                        jot(
                            &mut journal,
                            sink,
                            started.elapsed(),
                            name,
                            rung_attempt,
                            JournalKind::Succeeded,
                        );
                        if ri > 0 {
                            report.timings.outcome = StageOutcome::FellBack;
                        }
                        if let Some(s) = sink {
                            s.record(&Record::Finished { success: true });
                            let snap = RecoveredRun {
                                journal: journal.clone(),
                                elapsed: started.elapsed(),
                                completed_rungs: ri as u32,
                                global_attempt,
                                samples_used,
                                finished: Some(true),
                                ..RecoveredRun::default()
                            };
                            s.snapshot(&snap.encode());
                        }
                        report.journal = journal;
                        return Ok(report);
                    }
                    Err(failed) => {
                        samples_used += ctx.stages.candidates as u64;
                        drain(&mut journal, sink, &mut ctx.journal.events);
                        jot(
                            &mut journal,
                            sink,
                            started.elapsed(),
                            name,
                            rung_attempt,
                            JournalKind::StageFailed {
                                stage: failed.stage,
                                error: failed.error.clone(),
                                suppressed: false,
                            },
                        );
                        let opened = plan.breaker(name, |b| b.record_failure());
                        if opened {
                            jot(
                                &mut journal,
                                sink,
                                started.elapsed(),
                                name,
                                rung_attempt,
                                JournalKind::BreakerOpened,
                            );
                        }
                        let retryable = failed.error.transient()
                            && rung_attempt < self.retry.retries_per_rung
                            && !opened
                            && !rung_token.is_cancelled();
                        last_error = failed;
                        if retryable {
                            let mut backoff = self.retry.delay(rung_attempt);
                            if let Some(rem) = rung_token.remaining() {
                                backoff = backoff.min(rem);
                            }
                            jot(
                                &mut journal,
                                sink,
                                started.elapsed(),
                                name,
                                rung_attempt,
                                JournalKind::Retry { backoff },
                            );
                            if !rung_token.sleep(backoff) {
                                jot(
                                    &mut journal,
                                    sink,
                                    started.elapsed(),
                                    name,
                                    rung_attempt,
                                    JournalKind::RungExhausted {
                                        reason: "deadline fired during backoff".into(),
                                    },
                                );
                                break;
                            }
                            rung_attempt += 1;
                            continue;
                        }
                        let reason = if last_error.error.transient() {
                            if opened {
                                "circuit breaker opened".to_string()
                            } else if rung_token.is_cancelled() {
                                "rung deadline reached".to_string()
                            } else {
                                format!("retries exhausted ({} attempts)", rung_attempt + 1)
                            }
                        } else {
                            format!("permanent error: {}", last_error.error)
                        };
                        jot(
                            &mut journal,
                            sink,
                            started.elapsed(),
                            name,
                            rung_attempt,
                            JournalKind::RungExhausted { reason },
                        );
                        break;
                    }
                }
            }
            if let Some(next) = ladder.get(ri + 1) {
                jot(
                    &mut journal,
                    sink,
                    started.elapsed(),
                    name,
                    rung_attempt,
                    JournalKind::LadderStep { from: name, to: next.name() },
                );
                // The rung is closed: record it (resume never re-enters
                // completed rungs) and collapse the WAL into a
                // snapshot — the rung's mid-solve checkpoints are dead
                // weight from here on.
                if let Some(s) = sink {
                    s.record(&Record::RungCompleted { rung: ri as u32 });
                    let snap = RecoveredRun {
                        journal: journal.clone(),
                        elapsed: started.elapsed(),
                        completed_rungs: (ri + 1) as u32,
                        global_attempt,
                        samples_used,
                        ..RecoveredRun::default()
                    };
                    s.snapshot(&snap.encode());
                }
            }
        }

        jot(
            &mut journal,
            sink,
            started.elapsed(),
            last_error.backend,
            last_error.attempt,
            JournalKind::Failed { error: last_error.error.clone() },
        );
        if let Some(s) = sink {
            s.record(&Record::Finished { success: false });
        }
        Err(Box::new(SupervisedFailure { error: last_error, journal }))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::backends::{ClassicalBackend, GroverBackend};
    use crate::breaker::BreakerConfig;
    use crate::fault::FaultInjection;
    use crate::stage::StageOutcome;
    use nck_core::{Program, SolutionQuality};
    use nck_store::{KillPoint, KillSpec, StoreError};
    use std::path::PathBuf;
    use std::time::Duration;

    /// A unique scratch directory for one durable-run test, removed on
    /// drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "nck-sup-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Minimum vertex cover of the paper's Fig. 2 graph: hard edge
    /// covers plus soft "leave v out" preferences.
    fn vertex_cover() -> Program {
        let mut p = Program::new();
        let vs = p.new_vars("v", 5).unwrap();
        for (u, w) in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)] {
            p.nck(vec![vs[u], vs[w]], [1, 2]).unwrap();
        }
        for &v in &vs {
            p.nck_soft(vec![v], [0]).unwrap();
        }
        p
    }

    /// A fast retry policy so the retry tests don't sleep for real.
    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_micros(100),
            cap: Duration::from_millis(1),
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn fault_free_supervised_run_matches_plain_run() {
        let p = vertex_cover();
        let plan = ExecutionPlan::new(&p);
        let backend = ClassicalBackend::default();
        let plain = plan.run(&backend, 7).unwrap();
        let sup = Supervisor::default().run(&plan, &[&backend], 7).unwrap();
        assert_eq!(sup.assignment, plain.assignment);
        assert_eq!(sup.quality, plain.quality);
        assert_eq!(sup.timings.outcome, StageOutcome::Ok);
        assert_eq!(sup.journal.attempts(), 1);
        assert!(sup.journal.is_complete(), "{}", sup.journal.render());
    }

    #[test]
    fn transient_faults_are_retried_and_recovered() {
        let p = vertex_cover();
        let plan = ExecutionPlan::new(&p);
        let backend =
            ClassicalBackend::default().with_faults(FaultInjection::transient_failures(2));
        let sup = Supervisor { retry: fast_retry(), ..Supervisor::default() };
        let report = sup.run(&plan, &[&backend], 7).unwrap();
        assert_eq!(report.quality, SolutionQuality::Optimal);
        assert_eq!(report.timings.attempt, 2, "recovered on the third attempt");
        assert_eq!(report.timings.effective_outcome(), StageOutcome::Retried);
        assert_eq!(report.journal.attempts(), 3);
        let retries = report
            .journal
            .events
            .iter()
            .filter(|e| matches!(e.kind, JournalKind::Retry { .. }))
            .count();
        assert_eq!(retries, 2, "{}", report.journal.render());
    }

    #[test]
    fn permanent_error_degrades_down_the_ladder() {
        let p = vertex_cover(); // has soft constraints: Grover refuses
        let plan = ExecutionPlan::new(&p);
        let grover = GroverBackend::default();
        let classical = ClassicalBackend::default();
        let sup = Supervisor { retry: fast_retry(), ..Supervisor::default() };
        let report = sup.run(&plan, &[&grover, &classical], 7).unwrap();
        assert_eq!(report.quality, SolutionQuality::Optimal);
        assert_eq!(report.timings.outcome, StageOutcome::FellBack);
        let stepped = report.journal.events.iter().any(|e| {
            matches!(
                e.kind,
                JournalKind::LadderStep { from: BackendId::Grover, to: BackendId::Classical }
            )
        });
        assert!(stepped, "{}", report.journal.render());
        // Permanent errors are not retried: one attempt per rung.
        assert_eq!(report.journal.attempts(), 2);
    }

    #[test]
    fn exhausted_ladder_returns_typed_failure_with_complete_journal() {
        let p = vertex_cover();
        let plan = ExecutionPlan::new(&p);
        let grover = GroverBackend::default();
        let failure = Supervisor::default().run(&plan, &[&grover], 7).unwrap_err();
        assert!(
            matches!(failure.error.error, ExecError::SoftUnsupported { .. }),
            "{}",
            failure.error
        );
        assert_eq!(failure.error.backend, BackendId::Grover);
        assert_eq!(failure.error.stage, Stage::Sample);
        assert!(failure.journal.is_complete(), "{}", failure.journal.render());
    }

    #[test]
    fn opened_breaker_stops_the_rung_and_short_circuits_the_next_run() {
        let p = vertex_cover();
        let plan = ExecutionPlan::new(&p).with_breaker_config(BreakerConfig {
            window: 4,
            failure_rate: 0.5,
            min_calls: 1,
            cooldown: Duration::from_secs(60),
        });
        let faulty =
            ClassicalBackend::default().with_faults(FaultInjection::transient_failures(100));
        let sup = Supervisor { retry: fast_retry(), ..Supervisor::default() };

        // First run: the very first failure opens the breaker, so the
        // rung stops after one attempt despite the retry budget.
        let failure = sup.run(&plan, &[&faulty], 7).unwrap_err();
        assert_eq!(failure.journal.attempts(), 1, "{}", failure.journal.render());
        let opened =
            failure.journal.events.iter().any(|e| matches!(e.kind, JournalKind::BreakerOpened));
        assert!(opened, "{}", failure.journal.render());

        // Second run on the same plan: the open breaker rejects the
        // rung without invoking the backend at all.
        let failure = sup.run(&plan, &[&faulty], 8).unwrap_err();
        assert_eq!(failure.journal.attempts(), 0, "{}", failure.journal.render());
        assert!(matches!(
            failure.error.error,
            ExecError::BreakerOpen { backend: BackendId::Classical }
        ));
        let short = failure
            .journal
            .events
            .iter()
            .any(|e| matches!(e.kind, JournalKind::BreakerShortCircuit));
        assert!(short, "{}", failure.journal.render());
    }

    #[test]
    fn attempt_budget_bounds_the_whole_ladder() {
        let p = vertex_cover();
        // A breaker lenient enough that the attempt budget, not the
        // breaker, is what stops the run.
        let plan = ExecutionPlan::new(&p)
            .with_breaker_config(BreakerConfig { min_calls: 100, ..BreakerConfig::default() });
        let faulty =
            ClassicalBackend::default().with_faults(FaultInjection::transient_failures(100));
        let sup = Supervisor {
            budget: RunBudget { max_attempts: 3, ..RunBudget::default() },
            retry: RetryPolicy { retries_per_rung: 10, ..fast_retry() },
            ..Supervisor::default()
        };
        let failure = sup.run(&plan, &[&faulty], 7).unwrap_err();
        assert_eq!(failure.journal.attempts(), 3, "{}", failure.journal.render());
        assert!(matches!(
            failure.error.error,
            ExecError::BudgetExhausted { what: BudgetDim::Attempts }
        ));
    }

    #[test]
    fn stalled_rung_is_rescued_by_the_next_rung_within_the_deadline() {
        let p = vertex_cover();
        let plan = ExecutionPlan::new(&p);
        // A rung that stalls far past the whole deadline...
        let stalled =
            ClassicalBackend::default().with_faults(FaultInjection::stall(Duration::from_secs(30)));
        // ...must not starve the healthy rung below it.
        let healthy = ClassicalBackend::default();
        let sup = Supervisor {
            budget: RunBudget::with_deadline(Duration::from_millis(400)),
            retry: fast_retry(),
            ..Supervisor::default()
        };
        let t = Instant::now();
        let report = sup.run(&plan, &[&stalled, &healthy], 7).unwrap();
        assert!(
            t.elapsed() < Duration::from_secs(2),
            "supervised run overran its deadline: {:?}",
            t.elapsed()
        );
        assert_eq!(report.quality, SolutionQuality::Optimal);
        assert_eq!(report.timings.outcome, StageOutcome::FellBack);
    }

    #[test]
    fn zero_deadline_fails_immediately_with_budget_error() {
        let p = vertex_cover();
        let plan = ExecutionPlan::new(&p);
        let backend = ClassicalBackend::default();
        let sup = Supervisor {
            budget: RunBudget::with_deadline(Duration::ZERO),
            retry: fast_retry(),
            ..Supervisor::default()
        };
        let failure = sup.run(&plan, &[&backend], 7).unwrap_err();
        assert!(
            matches!(
                failure.error.error,
                ExecError::BudgetExhausted { what: BudgetDim::Deadline }
                    | ExecError::Cancelled { .. }
            ),
            "{}",
            failure.error
        );
        assert!(failure.journal.is_complete());
    }

    #[test]
    fn retry_seeds_decorrelate_but_first_attempt_seed_is_the_callers() {
        assert_eq!(Supervisor::attempt_seed(42, 0), 42);
        assert_ne!(Supervisor::attempt_seed(42, 1), 42);
        assert_ne!(Supervisor::attempt_seed(42, 1), Supervisor::attempt_seed(42, 2));
    }

    #[test]
    fn durable_run_matches_plain_run_and_persists_the_journal() {
        let p = vertex_cover();
        let plan = ExecutionPlan::new(&p);
        let backend = ClassicalBackend::default();
        let sup = Supervisor::default();
        let tmp = TempDir::new("plainmatch");

        let plain = sup.run(&plan, &[&backend], 7).unwrap();
        let durable = sup.run_durable(&plan, &[&backend], 7, &tmp.0).unwrap();
        assert_eq!(durable.assignment, plain.assignment);
        assert_eq!(durable.quality, plain.quality);
        assert_eq!(durable.soft_satisfied, plain.soft_satisfied);

        // The store holds the whole run: a snapshot marked finished
        // whose journal equals the in-memory one event-for-event
        // (timebase offsets round-trip bit-exactly).
        let (_store, recovered) = RunStore::open_resume(&tmp.0).unwrap();
        let run = RecoveredRun::recover(&recovered).unwrap();
        assert_eq!(run.finished, Some(true));
        assert_eq!(run.journal, durable.journal);
    }

    #[test]
    fn resuming_a_finished_run_is_a_typed_error() {
        let p = vertex_cover();
        let plan = ExecutionPlan::new(&p);
        let backend = ClassicalBackend::default();
        let sup = Supervisor::default();
        let tmp = TempDir::new("finished");
        sup.run_durable(&plan, &[&backend], 7, &tmp.0).unwrap();
        let failure = sup.resume_durable(&plan, &[&backend], 7, &tmp.0).unwrap_err();
        assert!(
            matches!(failure.error.error, ExecError::AlreadyFinished { .. }),
            "{}",
            failure.error
        );
    }

    #[test]
    fn durable_rejects_a_dir_that_already_holds_a_run_and_resume_rejects_an_empty_one() {
        let p = vertex_cover();
        let plan = ExecutionPlan::new(&p);
        let backend = ClassicalBackend::default();
        let sup = Supervisor::default();

        let tmp = TempDir::new("fresh");
        let failure = sup.resume_durable(&plan, &[&backend], 7, &tmp.0).unwrap_err();
        assert!(
            matches!(failure.error.error, ExecError::Store(StoreError::NoRun { .. })),
            "{}",
            failure.error
        );
        sup.run_durable(&plan, &[&backend], 7, &tmp.0).unwrap();
        let failure = sup.run_durable(&plan, &[&backend], 7, &tmp.0).unwrap_err();
        assert!(
            matches!(failure.error.error, ExecError::Store(StoreError::NotEmpty { .. })),
            "{}",
            failure.error
        );
    }

    #[test]
    fn killed_run_surfaces_the_kill_and_resume_converges_to_the_plain_report() {
        let p = vertex_cover();
        let plan = ExecutionPlan::new(&p);
        let backend = ClassicalBackend::default();
        let sup = Supervisor::default();
        let baseline = sup.run(&plan, &[&backend], 7).unwrap();

        let tmp = TempDir::new("killresume");
        let mut store = RunStore::open_fresh(&tmp.0).unwrap();
        store.arm_kill(KillSpec { point: KillPoint::CrashBeforeFsync, at_op: 2 });
        let failure = sup.run_with_store(&plan, &[&backend], 7, store).unwrap_err();
        assert!(
            matches!(
                failure.error.error,
                ExecError::Store(StoreError::Killed { point: KillPoint::CrashBeforeFsync })
            ),
            "{}",
            failure.error
        );

        let report = sup.resume_durable(&plan, &[&backend], 7, &tmp.0).unwrap();
        assert_eq!(report.assignment, baseline.assignment);
        assert_eq!(report.quality, baseline.quality);
        assert_eq!(report.soft_satisfied, baseline.soft_satisfied);
        // The resumed run's journal never repeats a completed attempt:
        // the persisted prefix plus the continuation, still complete.
        assert!(report.journal.is_complete(), "{}", report.journal.render());
    }
}
