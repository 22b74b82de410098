//! The crash-recovery chaos suite: deterministic kill-point sweeps
//! through durable supervised runs.
//!
//! Where [`chaos`](crate::chaos) injects *substrate* faults (latency,
//! stalls, transient failures), this module injects *process death*:
//! every run executes against a [`RunStore`] armed to crash at the
//! `k`-th store operation, for every reachable `k` and every
//! [`KillPoint`] — before the WAL fsync, mid-frame (a torn write), and
//! between a snapshot and the WAL truncate. After each simulated
//! crash the run is resumed from disk and the durability contract is
//! asserted, not golden outputs:
//!
//! * **typed death** — a killed run surfaces
//!   [`StoreError::Killed`] with the kill point's name, never a panic
//!   and never a silent success;
//! * **journal prefix** — the journal recovered from disk is an exact
//!   prefix of the killed run's in-memory journal: no journaled
//!   attempt is ever lost, no phantom event is ever invented;
//! * **no rung repetition** — a ladder rung completed before the
//!   crash is never re-entered after resume;
//! * **convergence** — the resumed run ends in the same solution
//!   (assignment, quality, soft counts, tally) as an uninterrupted
//!   run of the same seed.

use crate::gen::Family;
use crate::Discrepancy;
use nck_anneal::AnnealerDevice;
use nck_exec::{
    AnnealerBackend, Backend, BackendId, ClassicalBackend, ExecError, ExecReport, ExecutionPlan,
    GroverBackend, JournalKind, KillPoint, KillSpec, RecoveredRun, RetryPolicy, RunStore,
    StoreError, Supervisor,
};
use std::collections::HashSet;
use std::path::Path;
use std::time::Duration;

/// Knobs bounding a crash-recovery sweep.
#[derive(Clone, Copy, Debug)]
pub struct CrashConfig {
    /// Annealer reads per job (small, so kill positions land inside
    /// the sampling loop's checkpoint cadence).
    pub reads: usize,
    /// Solver work units between mid-solve checkpoints.
    pub checkpoint_interval: u64,
    /// Upper bound on the kill-position sweep; the sweep stops at the
    /// first position the run outlives, so this is a safety net, not a
    /// tuning knob.
    pub max_kill_ops: u64,
}

impl Default for CrashConfig {
    fn default() -> Self {
        CrashConfig { reads: 16, checkpoint_interval: 4, max_kill_ops: 200 }
    }
}

/// The ladder shapes the sweep exercises: a rung that checkpoints
/// mid-solve (annealer reads), and a rung that *completes* before the
/// run ends (Grover rejects soft constraints permanently), so both
/// mid-attempt resume and completed-rung skipping are hit.
pub const CRASH_LADDERS: [&[&str]; 2] = [&["annealer", "classical"], &["grover", "classical"]];

/// Aggregate result of a crash-recovery sweep.
#[derive(Clone, Debug, Default)]
pub struct CrashOutcome {
    /// Durable runs executed (baselines + armed runs + resumes).
    pub runs: usize,
    /// Runs the armed kill actually crashed.
    pub kills: usize,
    /// Crashed runs successfully resumed to completion.
    pub resumes: usize,
    /// Every violated invariant.
    pub discrepancies: Vec<Discrepancy>,
}

impl CrashOutcome {
    /// Render all discrepancies, one per line (for assertion messages).
    pub fn report(&self) -> String {
        self.discrepancies.iter().map(|d| format!("{d}\n")).collect()
    }
}

/// Build one rung by name.
fn build_rung(name: &str, qubo_vars: usize, cfg: &CrashConfig) -> Box<dyn Backend> {
    let n = qubo_vars.max(2);
    match name {
        "annealer" => Box::new(AnnealerBackend::new(AnnealerDevice::ideal(n), cfg.reads)),
        "grover" => Box::new(GroverBackend::default()),
        "classical" => Box::new(ClassicalBackend::default()),
        other => panic!("unknown ladder rung {other:?}"),
    }
}

/// Compare two reports on the solution fields a resumed run must
/// reproduce. Timings and journals legitimately differ across
/// processes; the *answer* must not.
fn check_same_solution(
    tag: &str,
    what: &'static str,
    got: &ExecReport,
    want: &ExecReport,
    discrepancies: &mut Vec<Discrepancy>,
) {
    if got.assignment != want.assignment
        || got.quality != want.quality
        || got.soft_satisfied != want.soft_satisfied
        || got.soft_weight != want.soft_weight
        || got.max_soft != want.max_soft
    {
        discrepancies.push(Discrepancy::new(
            tag,
            what,
            format!(
                "solution diverged: got {:?}/{}/{} want {:?}/{}/{}",
                got.quality,
                got.soft_satisfied,
                got.soft_weight,
                want.quality,
                want.soft_satisfied,
                want.soft_weight
            ),
        ));
    }
}

/// Check every durability invariant for one killed-then-resumed run.
/// The resume runs on a *fresh* [`ExecutionPlan`] — a resumed process
/// starts with cold caches and closed breakers, exactly like the real
/// restart it models.
#[allow(clippy::too_many_arguments)]
fn check_killed_run(
    tag: &str,
    sup: &Supervisor,
    program: &nck_core::Program,
    ladder: &[&dyn Backend],
    seed: u64,
    dir: &Path,
    point: KillPoint,
    killed: &nck_exec::SupervisedFailure,
    baseline: &ExecReport,
    outcome: &mut CrashOutcome,
) {
    let plan = ExecutionPlan::new(program);
    // Typed death: the surfaced error names the kill point.
    let typed = matches!(
        &killed.error.error,
        ExecError::Store(StoreError::Killed { point: p }) if *p == point
    );
    if !typed {
        outcome.discrepancies.push(Discrepancy::new(
            tag,
            "typed-kill",
            format!("killed run surfaced {} instead of Killed({})", killed.error, point.name()),
        ));
    }

    // Recovery must never panic and never reject what the WAL holds.
    let (store, recovered) = match RunStore::open_resume(dir) {
        Ok(pair) => pair,
        Err(e) => {
            outcome.discrepancies.push(Discrepancy::new(
                tag,
                "recover",
                format!("store left by a crash failed to open: {e}"),
            ));
            return;
        }
    };
    let rec = match RecoveredRun::recover(&recovered) {
        Ok(rec) => rec,
        Err(e) => {
            outcome.discrepancies.push(Discrepancy::new(
                tag,
                "recover",
                format!("recovered records failed to decode: {e}"),
            ));
            return;
        }
    };

    // Journal prefix: everything on disk is exactly what the killed
    // run journaled, in order — no lost attempt, no phantom event.
    let n = rec.journal.events.len();
    if killed.journal.events.len() < n || killed.journal.events[..n] != rec.journal.events[..] {
        outcome.discrepancies.push(Discrepancy::new(
            tag,
            "journal-prefix",
            format!(
                "recovered journal ({n} events) is not a prefix of the killed run's \
                 ({} events)",
                killed.journal.events.len()
            ),
        ));
    }

    // A kill between the *final* snapshot and the WAL truncate lands
    // after the run's result is already durable: the store is
    // complete, and resume's job is to say so (typed, not silently
    // re-running). The recovered journal must then be the killed
    // run's entire journal, terminal event included.
    if rec.finished.is_some() {
        outcome.runs += 1;
        match sup.resume_with_store(&plan, ladder, seed, store, &recovered) {
            Err(failure) if matches!(failure.error.error, ExecError::AlreadyFinished { .. }) => {
                outcome.resumes += 1;
                if !rec.journal.is_complete() || rec.journal != killed.journal {
                    outcome.discrepancies.push(Discrepancy::new(
                        tag,
                        "finished-journal",
                        "durably-finished store does not hold the complete journal".to_string(),
                    ));
                }
            }
            Ok(_) => outcome.discrepancies.push(Discrepancy::new(
                tag,
                "finished-rerun",
                "resume silently re-ran a durably-finished run".to_string(),
            )),
            Err(failure) => outcome.discrepancies.push(Discrepancy::new(
                tag,
                "finished-typed",
                format!("resume of a finished store surfaced {}", failure.error),
            )),
        }
        return;
    }

    // Rungs whose completion is *durable* (a persisted RungCompleted
    // record) must not run again. A crash after the LadderStep journal
    // event but before the RungCompleted record legitimately re-runs
    // the rung — the completion never reached disk.
    let completed: HashSet<BackendId> =
        ladder.iter().take(rec.completed_rungs as usize).map(|b| b.name()).collect();

    outcome.runs += 1;
    match sup.resume_with_store(&plan, ladder, seed, store, &recovered) {
        Ok(report) => {
            outcome.resumes += 1;
            check_same_solution(
                tag,
                "resume-convergence",
                &report,
                baseline,
                &mut outcome.discrepancies,
            );
            if !report.journal.is_complete() {
                outcome.discrepancies.push(Discrepancy::new(
                    tag,
                    "journal-complete",
                    "resumed run's journal lacks a terminal event".to_string(),
                ));
            }
            if report.journal.events[..n] != rec.journal.events[..] {
                outcome.discrepancies.push(Discrepancy::new(
                    tag,
                    "journal-continuation",
                    "resumed journal does not continue from the recovered prefix".to_string(),
                ));
            }
            for ev in &report.journal.events[n..] {
                if matches!(ev.kind, JournalKind::AttemptStarted) && completed.contains(&ev.backend)
                {
                    outcome.discrepancies.push(Discrepancy::new(
                        tag,
                        "rung-repeat",
                        format!("resume re-entered completed rung {}", ev.backend),
                    ));
                }
            }
        }
        Err(failure) => {
            outcome.discrepancies.push(Discrepancy::new(
                tag,
                "resume",
                format!(
                    "resume of a killed run failed: {}\n{}",
                    failure.error,
                    failure.journal.render()
                ),
            ));
        }
    }
}

/// Run the full crash-recovery sweep: for every seed × ladder × kill
/// point, kill the run at every reachable store operation, resume it,
/// and assert the durability contract. `scratch` is a directory the
/// sweep may fill with run stores (each is removed after its check).
pub fn run_crash_recovery(seeds: &[u64], cfg: &CrashConfig, scratch: &Path) -> CrashOutcome {
    let mut outcome = CrashOutcome::default();
    for &seed in seeds {
        let gp = Family::VertexCover.generate(seed);
        let qubo_vars = ExecutionPlan::new(&gp.program)
            .compiled()
            .expect("crash instances compile")
            .qubo
            .num_vars();
        for ladder_names in CRASH_LADDERS {
            let rungs: Vec<Box<dyn Backend>> =
                ladder_names.iter().map(|name| build_rung(name, qubo_vars, cfg)).collect();
            let ladder: Vec<&dyn Backend> = rungs.iter().map(|b| b.as_ref()).collect();
            // Crash-equality demands a deadline-free budget: wall-clock
            // deadlines make the pre- and post-crash processes race the
            // clock differently.
            let sup = Supervisor {
                retry: RetryPolicy {
                    base: Duration::from_millis(1),
                    cap: Duration::from_millis(5),
                    seed,
                    ..RetryPolicy::default()
                },
                checkpoint_interval: cfg.checkpoint_interval,
                ..Supervisor::default()
            };

            let slug = format!("s{seed}-{}", ladder_names.join("-"));
            let base_dir = scratch.join(format!("base-{slug}"));
            outcome.runs += 1;
            // Every run (baseline, armed, resume) gets its own plan:
            // breaker state and caches are per-process in reality, and
            // shared breakers with wall-clock cooldowns would make the
            // sweep's operation counts nondeterministic.
            let base_plan = ExecutionPlan::new(&gp.program);
            let baseline = match sup.run_durable(&base_plan, &ladder, seed, &base_dir) {
                Ok(report) => report,
                Err(failure) => {
                    outcome.discrepancies.push(Discrepancy::new(
                        format!("crash/{slug}"),
                        "baseline",
                        format!("fault-free durable run failed: {}", failure.error),
                    ));
                    let _ = std::fs::remove_dir_all(&base_dir);
                    continue;
                }
            };
            let _ = std::fs::remove_dir_all(&base_dir);

            for point in KillPoint::all() {
                let mut outlived = false;
                for at_op in 1..=cfg.max_kill_ops {
                    let tag = format!("crash/{slug}/{}@{at_op}", point.name());
                    let dir = scratch.join(format!("kill-{slug}-{}-{at_op}", point.name()));
                    let mut store = match RunStore::open_fresh(&dir) {
                        Ok(store) => store,
                        Err(e) => {
                            outcome.discrepancies.push(Discrepancy::new(
                                &tag,
                                "open-fresh",
                                format!("{e}"),
                            ));
                            break;
                        }
                    };
                    store.arm_kill(KillSpec { point, at_op });
                    outcome.runs += 1;
                    let plan = ExecutionPlan::new(&gp.program);
                    match sup.run_with_store(&plan, &ladder, seed, store) {
                        Ok(report) => {
                            // The kill position is beyond the run's
                            // total operations: the sweep has covered
                            // every reachable crash site.
                            check_same_solution(
                                &tag,
                                "unkilled-run",
                                &report,
                                &baseline,
                                &mut outcome.discrepancies,
                            );
                            let _ = std::fs::remove_dir_all(&dir);
                            outlived = true;
                            break;
                        }
                        Err(failure) => {
                            outcome.kills += 1;
                            check_killed_run(
                                &tag,
                                &sup,
                                &gp.program,
                                &ladder,
                                seed,
                                &dir,
                                point,
                                &failure,
                                &baseline,
                                &mut outcome,
                            );
                            let _ = std::fs::remove_dir_all(&dir);
                        }
                    }
                }
                if !outlived {
                    outcome.discrepancies.push(Discrepancy::new(
                        format!("crash/{slug}/{}", point.name()),
                        "sweep-bound",
                        format!("run never outlived a kill within {} operations", cfg.max_kill_ops),
                    ));
                }
            }
        }
    }
    outcome
}
