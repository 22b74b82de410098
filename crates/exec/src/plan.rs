//! [`ExecutionPlan`]: compile once, fan out to any backend or seed
//! sweep.
//!
//! The plan owns the two expensive program-level artifacts — the
//! compiled QUBO and the classical optimality oracle — behind caches,
//! so a multi-seed or multi-backend study (the shape of the Fig. 7/8
//! sweeps) pays for each exactly once instead of per run. The paper
//! itself warns what the alternative costs: its prototype's redundant
//! recompilation made compilation 40–50× slower than a direct
//! classical solve (§VIII-C).

use crate::backend::{Backend, BackendId, BackendMetrics, Candidates, Prepared};
use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::error::{ExecError, FailedAttempt};
use crate::journal::{RunCtx, RunJournal};
use crate::stage::{Stage, StageTimings};
use nck_classical::OptimalityOracle;
use nck_compile::{compile, CompiledProgram, CompilerOptions};
use nck_core::{Program, SolutionQuality};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Classification tally over one run's candidate assignments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Candidates classified optimal.
    pub optimal: usize,
    /// Candidates classified suboptimal.
    pub suboptimal: usize,
    /// Candidates classified incorrect.
    pub incorrect: usize,
}

impl Tally {
    fn add(&mut self, q: SolutionQuality) {
        match q {
            SolutionQuality::Optimal => self.optimal += 1,
            SolutionQuality::Suboptimal => self.suboptimal += 1,
            SolutionQuality::Incorrect => self.incorrect += 1,
        }
    }

    /// Total candidates tallied.
    pub fn total(&self) -> usize {
        self.optimal + self.suboptimal + self.incorrect
    }
}

/// Cache counters for one plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Actual compilations performed (1 after any number of runs).
    pub compiles: u64,
    /// Runs served the compiled program from the cache.
    pub compile_cache_hits: u64,
    /// Optimality-oracle classical solves performed.
    pub oracle_builds: u64,
    /// Runs served the oracle from the cache (or from a classical
    /// backend's proven optimum).
    pub oracle_cache_hits: u64,
}

/// The full result of one backend execution through a plan.
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Which backend produced this result.
    pub backend: BackendId,
    /// Best assignment over the program variables.
    pub assignment: Vec<bool>,
    /// Its quality per Definition 8, judged against the classical
    /// optimum.
    pub quality: SolutionQuality,
    /// Soft constraints satisfied by `assignment` (count).
    pub soft_satisfied: usize,
    /// Soft *weight* satisfied by `assignment`.
    pub soft_weight: u64,
    /// The classical soft optimum, as a satisfied weight (equal to a
    /// count when all weights are 1).
    pub max_soft: u64,
    /// Classification tally over every candidate the backend returned.
    pub tally: Tally,
    /// Per-stage wall-times and counters.
    pub timings: StageTimings,
    /// Backend-specific metrics.
    pub metrics: BackendMetrics,
    /// The compiled program, shared with the plan's cache.
    pub compiled: Arc<CompiledProgram>,
    /// The structured journal of the run: every attempt, fault,
    /// fallback, breaker transition, and ladder step. Empty for plain
    /// fault-free runs.
    pub journal: RunJournal,
}

/// A program prepared for execution: compiles once, fans out to any
/// backend or seed sweep.
#[derive(Debug)]
pub struct ExecutionPlan<'p> {
    program: &'p Program,
    options: CompilerOptions,
    compiled: Mutex<Option<Arc<CompiledProgram>>>,
    oracle: Mutex<Option<Arc<OptimalityOracle>>>,
    compiles: AtomicU64,
    compile_hits: AtomicU64,
    oracle_builds: AtomicU64,
    oracle_hits: AtomicU64,
    breaker_config: BreakerConfig,
    breakers: Mutex<HashMap<BackendId, CircuitBreaker>>,
}

impl<'p> ExecutionPlan<'p> {
    /// A plan over `program` with default compiler options.
    pub fn new(program: &'p Program) -> Self {
        Self::with_options(program, CompilerOptions::default())
    }

    /// A plan over `program` with explicit compiler options.
    pub fn with_options(program: &'p Program, options: CompilerOptions) -> Self {
        ExecutionPlan {
            program,
            options,
            compiled: Mutex::new(None),
            oracle: Mutex::new(None),
            compiles: AtomicU64::new(0),
            compile_hits: AtomicU64::new(0),
            oracle_builds: AtomicU64::new(0),
            oracle_hits: AtomicU64::new(0),
            breaker_config: BreakerConfig::default(),
            breakers: Mutex::new(HashMap::new()),
        }
    }

    /// Override the circuit-breaker tuning used for every backend
    /// executed through this plan.
    pub fn with_breaker_config(mut self, config: BreakerConfig) -> Self {
        self.breaker_config = config;
        self
    }

    /// Pre-seed the optimality oracle (e.g. from a closed-form or
    /// dynamic-programming optimum, as the scaling studies do for
    /// instances too large to branch-and-bound).
    pub fn with_oracle(self, oracle: OptimalityOracle) -> Self {
        *self.oracle.lock() = Some(Arc::new(oracle));
        self
    }

    /// The program this plan executes.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The compiled program, compiling on first use and serving the
    /// cache thereafter.
    pub fn compiled(&self) -> Result<Arc<CompiledProgram>, ExecError> {
        self.compiled_cached().map(|(c, _)| c)
    }

    fn compiled_cached(&self) -> Result<(Arc<CompiledProgram>, bool), ExecError> {
        let mut guard = self.compiled.lock();
        if let Some(c) = &*guard {
            self.compile_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(c), true));
        }
        let compiled = Arc::new(compile(self.program, &self.options)?);
        self.compiles.fetch_add(1, Ordering::Relaxed);
        *guard = Some(Arc::clone(&compiled));
        Ok((compiled, false))
    }

    /// The optimality oracle, built by a classical solve on first use
    /// and served from the cache thereafter.
    pub fn oracle(&self) -> Arc<OptimalityOracle> {
        let mut guard = self.oracle.lock();
        if let Some(o) = &*guard {
            self.oracle_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(o);
        }
        let oracle = Arc::new(OptimalityOracle::build(self.program));
        self.oracle_builds.fetch_add(1, Ordering::Relaxed);
        *guard = Some(Arc::clone(&oracle));
        oracle
    }

    /// Seed the oracle from a proven optimum if it isn't built yet.
    fn seed_oracle(&self, soft_weight: u64) {
        let mut guard = self.oracle.lock();
        if guard.is_none() {
            *guard = Some(Arc::new(OptimalityOracle { max_soft: Some(soft_weight) }));
        }
    }

    /// Cache counters so far.
    pub fn stats(&self) -> PlanStats {
        PlanStats {
            compiles: self.compiles.load(Ordering::Relaxed),
            compile_cache_hits: self.compile_hits.load(Ordering::Relaxed),
            oracle_builds: self.oracle_builds.load(Ordering::Relaxed),
            oracle_cache_hits: self.oracle_hits.load(Ordering::Relaxed),
        }
    }

    /// Run a closure against the (lazily created) circuit breaker for
    /// `backend`. Breakers are per-plan, per-backend-name, shared
    /// across every supervised run through this plan.
    pub fn breaker<R>(&self, backend: BackendId, f: impl FnOnce(&mut CircuitBreaker) -> R) -> R {
        let mut guard = self.breakers.lock();
        let b = guard.entry(backend).or_insert_with(|| CircuitBreaker::new(self.breaker_config));
        f(b)
    }

    /// Execute once on `backend` with `seed`, sharing the plan's
    /// compiled program and oracle. A plain, unsupervised run: never
    /// cancelled, attempt 0, no retries — exactly the pre-supervisor
    /// behaviour.
    pub fn run(&self, backend: &dyn Backend, seed: u64) -> Result<ExecReport, ExecError> {
        let mut ctx = RunCtx::plain(backend.name());
        self.run_with_ctx(backend, seed, &mut ctx)
    }

    /// Execute once on `backend` under an explicit [`RunCtx`] (the
    /// supervisor's entry point: the context carries the shared
    /// cancellation token, the attempt index, and the journal
    /// timebase). On success the context's journal and stage timings
    /// move into the report.
    pub fn run_with_ctx(
        &self,
        backend: &dyn Backend,
        seed: u64,
        ctx: &mut RunCtx,
    ) -> Result<ExecReport, ExecError> {
        ctx.enter_stage(Stage::Compile);
        let t = Instant::now();
        let (compiled, compile_hit) = self.compiled_cached()?;
        // A cache hit costs only the lock; a miss is the real compile,
        // whose wall-time the compiler already recorded.
        ctx.stages.compile = if compile_hit { t.elapsed() } else { compiled.elapsed };
        ctx.stages.compile_cache_hit = compile_hit;
        let prepared = Prepared { program: self.program, compiled: &compiled };
        let (candidates, metrics) = backend.run(&prepared, seed, ctx)?;

        ctx.enter_stage(Stage::Decode);
        let t = Instant::now();
        let assignments: Vec<Vec<bool>> = match candidates {
            Candidates::Qubo(raw) => {
                raw.iter().map(|a| compiled.program_assignment(a).to_vec()).collect()
            }
            Candidates::Program(raw) => raw,
            Candidates::Exact { assignment, soft_weight } => {
                self.seed_oracle(soft_weight);
                vec![assignment]
            }
        };
        ctx.stages.decode = t.elapsed();
        ctx.stages.candidates = assignments.len();

        ctx.enter_stage(Stage::Classify);
        let t = Instant::now();
        let oracle = self.oracle();
        let max_soft = oracle.max_soft.ok_or(ExecError::Unsatisfiable)?;
        let mut tally = Tally::default();
        let mut best: Option<(SolutionQuality, u64, usize, Vec<bool>)> = None;
        for a in assignments {
            let quality = oracle.classify(self.program, &a);
            tally.add(quality);
            let ev = self.program.evaluate(&a);
            if best
                .as_ref()
                .is_none_or(|(q, w, _, _)| (quality, ev.soft_weight_satisfied) > (*q, *w))
            {
                best = Some((quality, ev.soft_weight_satisfied, ev.soft_satisfied, a));
            }
        }
        ctx.stages.classify = t.elapsed();
        let (quality, soft_weight, soft_satisfied, assignment) =
            best.ok_or(ExecError::NoCandidates)?;
        Ok(ExecReport {
            backend: backend.name(),
            assignment,
            quality,
            soft_satisfied,
            soft_weight,
            max_soft,
            tally,
            timings: std::mem::take(&mut ctx.stages),
            metrics,
            compiled,
            journal: std::mem::take(&mut ctx.journal),
        })
    }

    /// Like [`run_with_ctx`](ExecutionPlan::run_with_ctx), but failures
    /// come back as a [`FailedAttempt`] carrying the backend name, the
    /// pipeline stage that was executing, and the attempt index — the
    /// provenance the supervisor journals and reports.
    pub fn run_attempt(
        &self,
        backend: &dyn Backend,
        seed: u64,
        ctx: &mut RunCtx,
    ) -> Result<ExecReport, FailedAttempt> {
        self.run_with_ctx(backend, seed, ctx).map_err(|error| FailedAttempt {
            backend: ctx.backend,
            stage: ctx.stage,
            attempt: ctx.attempt,
            error,
        })
    }

    /// Execute the same backend across a seed sweep — the Fig. 7/8
    /// shape. The program compiles exactly once for the whole sweep.
    pub fn run_seeds(
        &self,
        backend: &dyn Backend,
        seeds: &[u64],
    ) -> Result<Vec<ExecReport>, ExecError> {
        seeds.iter().map(|&s| self.run(backend, s)).collect()
    }

    /// Fan the same compiled program out to several backends.
    pub fn run_each(
        &self,
        backends: &[&dyn Backend],
        seed: u64,
    ) -> Vec<Result<ExecReport, ExecError>> {
        backends.iter().map(|b| self.run(*b, seed)).collect()
    }
}
