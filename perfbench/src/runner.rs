//! Workload set-up and the one solve each workload times, driven only
//! through the pipeline's public entry points (`ExecutionPlan::run`,
//! `Supervisor::run_durable`).

use crate::inputs::{suite, Job, Suite, Workload};
use nck_anneal::AnnealerDevice;
use nck_circuit::GateModelDevice;
use nck_core::SolutionQuality;
use nck_exec::{
    AnnealerBackend, Backend, ClassicalBackend, ExecReport, ExecutionPlan, GateModelBackend,
    Supervisor, Tally,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Annealer reads per cold job.
pub const COLD_READS: usize = 100;
/// Annealer reads per sweep job.
pub const SWEEP_READS: usize = 1000;
/// Reads between mid-solve checkpoints in a sweep job (4 per job).
pub const SWEEP_CHECKPOINT_READS: u64 = 250;
/// QAOA layers, final shots, and optimizer iteration cap.
pub const QAOA_LAYERS: usize = 1;
/// Shots in the final QAOA sampling job.
pub const QAOA_SHOTS: usize = 4000;
/// Nelder–Mead iteration cap per QAOA solve.
pub const QAOA_MAX_ITER: usize = 30;

/// What one solve returned, as compared across rounds and replays.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Best assignment over the program variables.
    pub assignment: Vec<bool>,
    /// Its Definition 8 quality.
    pub quality: SolutionQuality,
    /// Quality tally over every candidate.
    pub tally: Tally,
    /// The oracle's soft optimum.
    pub max_soft: u64,
}

impl Answer {
    /// The comparable part of a report.
    pub fn of(r: &ExecReport) -> Answer {
        Answer {
            assignment: r.assignment.clone(),
            quality: r.quality,
            tally: r.tally,
            max_soft: r.max_soft,
        }
    }
}

/// Inputs and devices: everything a workload builds before any plan.
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    /// Its seeded inputs.
    pub suite: Suite,
    /// The annealer preset (annealer workloads).
    pub annealer: Option<AnnealerDevice>,
    /// The gate-model preset (`qaoa_gate`).
    pub gate: Option<GateModelDevice>,
    /// Where durable runs put their run directories.
    pub run_root: PathBuf,
    dirs: AtomicU64,
}

/// Plans reused across solves (`anneal_sweep` only): one compiled,
/// oracle-built plan and one embedding-warmed backend per program.
pub struct Warm<'s> {
    /// One plan per instance.
    pub plans: Vec<ExecutionPlan<'s>>,
    /// One backend per instance, its embedding cached.
    pub backends: Vec<AnnealerBackend>,
    /// Seed whose rip-up search found each cached embedding.
    pub embed_seeds: Vec<u64>,
}

impl Setup {
    /// Generate inputs and construct devices.
    pub fn new(workload: Workload, seed: u64, run_root: &Path) -> Setup {
        let suite = suite(workload, seed);
        let annealer = matches!(workload, Workload::AnnealCold | Workload::AnnealSweep)
            .then(AnnealerDevice::advantage_4_1);
        let gate = (workload == Workload::QaoaGate).then(GateModelDevice::ibmq_brooklyn);
        Setup {
            workload,
            suite,
            annealer,
            gate,
            run_root: run_root.to_path_buf(),
            dirs: AtomicU64::new(0),
        }
    }

    /// Warm the reused plans: compile, oracle, and embedding for every
    /// sweep program (the embedding through a one-read job). Other
    /// workloads build a fresh plan per solve and warm nothing.
    pub fn warm(&self) -> Result<Warm<'_>, String> {
        let mut warm = Warm { plans: Vec::new(), backends: Vec::new(), embed_seeds: Vec::new() };
        if self.workload != Workload::AnnealSweep {
            return Ok(warm);
        }
        for (i, inst) in self.suite.instances.iter().enumerate() {
            let plan = ExecutionPlan::new(&inst.program);
            let mut backend = AnnealerBackend::new(self.annealer_device(), 1);
            let embed_seed = i as u64 + 1;
            plan.run(&backend, embed_seed)
                .map_err(|e| format!("warm-up of {}: {e}", inst.label))?;
            backend.num_reads = SWEEP_READS;
            warm.plans.push(plan);
            warm.backends.push(backend);
            warm.embed_seeds.push(embed_seed);
        }
        Ok(warm)
    }

    /// A fresh, not yet existing run directory.
    pub fn fresh_dir(&self) -> PathBuf {
        let n = self.dirs.fetch_add(1, Ordering::Relaxed);
        self.run_root.join(format!("run{n}"))
    }

    /// The workload's solve of `job` through its public entry point.
    /// Durable runs write into `dir`, which the caller removes.
    pub fn solve(&self, warm: &Warm<'_>, job: Job, dir: &Path) -> Result<ExecReport, String> {
        if self.workload == Workload::AnnealSweep {
            return sweep_supervisor()
                .run_durable(
                    &warm.plans[job.instance],
                    &[&warm.backends[job.instance]],
                    job.seed,
                    dir,
                )
                .map_err(|f| f.to_string());
        }
        let program = &self.suite.instances[job.instance].program;
        ExecutionPlan::new(program)
            .run(self.backend().as_ref(), job.seed)
            .map_err(|e| e.to_string())
    }

    /// The backend a fresh-plan workload builds for each solve.
    /// `anneal_sweep` solves on its warmed backends instead.
    pub fn backend(&self) -> Box<dyn Backend> {
        match self.workload {
            Workload::AnnealCold => {
                Box::new(AnnealerBackend::new(self.annealer_device(), COLD_READS))
            }
            Workload::ExactClassical => Box::new(ClassicalBackend::default()),
            Workload::QaoaGate => {
                let device = self.gate.clone().expect("gate device is built for qaoa_gate");
                Box::new(GateModelBackend::new(device, QAOA_LAYERS, QAOA_SHOTS, QAOA_MAX_ITER))
            }
            Workload::AnnealSweep => unreachable!("anneal_sweep solves on its warmed backends"),
        }
    }

    /// A copy of the annealer preset for a fresh backend.
    pub fn annealer_device(&self) -> AnnealerDevice {
        self.annealer.clone().expect("annealer device is built for annealer workloads")
    }
}

/// The sweep's supervisor: default budget, 4 checkpoints per job.
pub fn sweep_supervisor() -> Supervisor {
    Supervisor { checkpoint_interval: SWEEP_CHECKPOINT_READS, ..Supervisor::default() }
}

/// Remove a run directory; one that was never created is fine.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
