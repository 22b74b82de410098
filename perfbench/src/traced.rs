//! The traced run: the same jobs replayed by calling each layer's
//! public function in turn, with spans recorded here, around the calls.
//!
//! Per job it makes three calls, in order:
//! 1. the workload's untraced entry point (its solve time),
//! 2. the layer-by-layer replay under a `solve` span, whose answer must
//!    equal the entry point's,
//! 3. the other entry point on the same seed (`run_durable` where the
//!    workload runs `plan.run`, and the reverse on `anneal_sweep`), so
//!    `store.overhead_ms` is durable minus plain time.
//!
//! The replay walks the whole pipeline for every job; a layer the
//! workload's backend does not use still gets its (empty) span, so its
//! time is the cost of passing it by.

use crate::inputs::{Job, Workload};
use crate::reference;
use crate::report::{Metric, RunResult};
use crate::runner::{
    remove_dir, Answer, Setup, Warm, COLD_READS, QAOA_LAYERS, QAOA_MAX_ITER, QAOA_SHOTS,
    SWEEP_READS,
};
use nck_anneal::{find_embedding, AnnealerDevice, Embedding, Topology};
use nck_classical::{solve, OptimalityOracle, SolveOutcome, SolverOptions};
use nck_compile::{compile, CompiledProgram, CompilerOptions};
use nck_core::{Program, SolutionQuality};
use nck_exec::{AnnealerBackend, ExecReport, ExecutionPlan, Supervisor, Tally};
use nck_qubo::Qubo;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replay layers, in pipeline order.
pub const LAYERS: [&str; 8] = [
    "compile",
    "anneal.embed",
    "anneal.sample",
    "circuit.qaoa",
    "classical.bb",
    "classical.oracle",
    "exec.decode",
    "exec.classify",
];

/// The layer each workload's time must be dominated by.
pub fn dominant_layer(w: Workload) -> &'static str {
    match w {
        Workload::AnnealCold => "anneal.embed",
        Workload::AnnealSweep => "anneal.sample",
        Workload::ExactClassical => "classical.bb",
        Workload::QaoaGate => "circuit.qaoa",
    }
}

/// Solve id of spans recorded during set-up.
const SETUP: usize = usize::MAX;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer or entry-point name.
    pub name: &'static str,
    /// Offset from the tracer's origin.
    pub start: Duration,
    /// Offset from the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Job index, or [`SETUP`].
    pub solve: usize,
}

/// Spans kept in memory and written out at the end.
pub struct Tracer {
    origin: Instant,
    /// Every span, in opening order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer starting its clock now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    /// Open a span; close it with [`close`](Tracer::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, solve: usize) -> usize {
        let at = self.origin.elapsed();
        self.spans.push(Span { name, start: at, end: at, parent, solve });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        solve: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, solve);
        let r = f();
        self.close(id);
        r
    }

    /// Per span: its duration minus the time its children cover.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut out: Vec<Duration> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.end - s.start);
            }
        }
        out
    }

    /// Summed self time per span name over job spans (set-up excluded).
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            if s.solve != SETUP {
                *out.entry(s.name).or_insert(0.0) += t.as_secs_f64() * 1e3;
            }
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let solve =
                if s.solve == SETUP { "\"setup\"".to_string() } else { s.solve.to_string() };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {parent}, \"solve\": {solve}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Counts summed over jobs, from the structs each layer returns, and
/// the entry-point times the shares divide by.
#[derive(Debug, Default)]
pub struct Counts {
    smt_searches: f64,
    qubo_vars: f64,
    physical_qubits: f64,
    max_chain: f64,
    embed_retries: f64,
    spin_updates: f64,
    chain_break_frac: f64,
    qaoa_evals: f64,
    qaoa_depth: f64,
    qaoa_swaps: f64,
    bb_nodes: f64,
    snapshot_bytes: f64,
    journal_events: f64,
    store_overhead_ms: f64,
    solve_ms: f64,
    plain_ms: f64,
}

/// Find an embedding exactly as `AnnealerBackend` does: rip-up seeds
/// `seed ^ attempt·φ`, then the device's clique fallback. Returns the
/// embedding and the number of failed attempts before it.
pub fn embed_like_backend(
    device: &AnnealerDevice,
    qubo: &Qubo,
    seed: u64,
) -> Option<(Embedding, u32)> {
    let adj = qubo.adjacency();
    let tries = AnnealerBackend::new(device.clone(), 1).embed_reseed_tries;
    for attempt in 0..=tries {
        let rip_up = seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        if let Some(e) = find_embedding(&adj, &device.topology, rip_up, device.embed_tries) {
            return Some((e, attempt));
        }
    }
    device
        .clique_fallback
        .and_then(|m| Topology::pegasus_like_clique_embedding(m, qubo.num_vars()))
        .map(|e| (e, tries + 1))
}

/// Pick the best candidate exactly as the plan does: highest
/// (quality, satisfied soft weight), first one wins ties.
fn classify(
    program: &Program,
    oracle: &OptimalityOracle,
    candidates: Vec<Vec<bool>>,
) -> Option<Answer> {
    let max_soft = oracle.max_soft?;
    let mut tally = Tally::default();
    let mut best: Option<(SolutionQuality, u64, Vec<bool>)> = None;
    for a in candidates {
        let quality = oracle.classify(program, &a);
        match quality {
            SolutionQuality::Optimal => tally.optimal += 1,
            SolutionQuality::Suboptimal => tally.suboptimal += 1,
            SolutionQuality::Incorrect => tally.incorrect += 1,
        }
        let w = program.evaluate(&a).soft_weight_satisfied;
        if best.as_ref().is_none_or(|(q, bw, _)| (quality, w) > (*q, *bw)) {
            best = Some((quality, w, a));
        }
    }
    let (quality, _, assignment) = best?;
    Some(Answer { assignment, quality, tally, max_soft })
}

/// What the replay's backend layer produced.
enum Raw {
    /// Full QUBO assignments to project.
    Qubo(Vec<Vec<bool>>),
    /// A proven-optimal program assignment and its soft weight.
    Exact(Vec<bool>, u64),
}

struct Replay<'a> {
    setup: &'a Setup,
    warm: &'a Warm<'a>,
    /// Sweep embeddings, found once in set-up like the warmed backends.
    embeddings: Vec<Option<Embedding>>,
    tracer: Tracer,
    counts: Counts,
}

impl Replay<'_> {
    fn job(&mut self, i: usize, job: Job) -> Result<Answer, String> {
        let w = self.setup.workload;
        let inst = &self.setup.suite.instances[job.instance];
        let program = &inst.program;
        let annealer = self.setup.annealer.as_ref();
        let tr = &mut self.tracer;
        let root_id = tr.open("solve", None, i);
        let root = Some(root_id);

        let compiled: Arc<CompiledProgram> = tr.time("compile", root, i, || {
            if w == Workload::AnnealSweep {
                self.warm.plans[job.instance].compiled().map_err(|e| e.to_string())
            } else {
                compile(program, &CompilerOptions::default())
                    .map(Arc::new)
                    .map_err(|e| e.to_string())
            }
        })?;
        if w != Workload::AnnealSweep {
            self.counts.smt_searches += compiled.stats.smt_searches as f64;
        }
        self.counts.qubo_vars += compiled.num_qubo_vars() as f64;
        let qubo = &compiled.qubo;

        let embedding: Option<Embedding> = tr.time("anneal.embed", root, i, || match w {
            Workload::AnnealCold => {
                let (e, retries) = embed_like_backend(annealer?, qubo, job.seed)?;
                self.counts.embed_retries += f64::from(retries);
                Some(e)
            }
            Workload::AnnealSweep => self.embeddings[job.instance].clone(),
            _ => None,
        });
        if annealer.is_some() && embedding.is_none() {
            return Err(format!("{}: replay found no embedding", inst.label));
        }
        let reads = if w == Workload::AnnealSweep { SWEEP_READS } else { COLD_READS };
        let sampled = tr.time("anneal.sample", root, i, || {
            let (device, e) = annealer.zip(embedding.as_ref())?;
            Some((device, e, device.sample_qubo_embedded(qubo, e, reads, job.seed)))
        });
        let mut raw = None;
        if let Some((annealer, e, result)) = sampled {
            let result = result.map_err(|e| e.to_string())?;
            self.counts.physical_qubits += e.num_physical() as f64;
            self.counts.max_chain += e.max_chain_length() as f64;
            self.counts.chain_break_frac += result.chain_break_fraction;
            self.counts.spin_updates += (reads * annealer.sa.num_sweeps * e.num_physical()) as f64;
            raw = Some(Raw::Qubo(result.samples.into_iter().map(|s| s.assignment).collect()));
        }

        let gate = self.setup.gate.as_ref();
        let qaoa = tr.time("circuit.qaoa", root, i, || {
            gate.map(|d| d.run_qaoa(qubo, QAOA_LAYERS, QAOA_SHOTS, QAOA_MAX_ITER, job.seed))
        });
        if let Some(run) = qaoa {
            let run = run.map_err(|e| e.to_string())?;
            self.counts.qaoa_evals += run.num_jobs as f64;
            self.counts.qaoa_depth += run.depth as f64;
            self.counts.qaoa_swaps += run.num_swaps as f64;
            raw = Some(Raw::Qubo(vec![run.best_assignment]));
        }

        let bb = tr.time("classical.bb", root, i, || {
            (w == Workload::ExactClassical).then(|| solve(program, &SolverOptions::default()))
        });
        if let Some((outcome, stats)) = bb {
            self.counts.bb_nodes += stats.nodes as f64;
            match outcome {
                SolveOutcome::Solved { assignment, soft_weight, .. } if !stats.truncated => {
                    raw = Some(Raw::Exact(assignment, soft_weight));
                }
                other => return Err(format!("{}: branch and bound gave {other:?}", inst.label)),
            }
        }

        let oracle = tr.time("classical.oracle", root, i, || match (&raw, w) {
            (Some(Raw::Exact(_, weight)), _) => OptimalityOracle { max_soft: Some(*weight) },
            (_, Workload::AnnealSweep) => (*self.warm.plans[job.instance].oracle()).clone(),
            _ => OptimalityOracle::build(program),
        });

        let candidates = tr.time("exec.decode", root, i, || match raw {
            Some(Raw::Qubo(full)) => {
                Ok(full.iter().map(|a| compiled.program_assignment(a).to_vec()).collect())
            }
            Some(Raw::Exact(a, _)) => Ok(vec![a]),
            None => Err(format!("{}: no backend layer produced candidates", inst.label)),
        })?;
        let answer = tr
            .time("exec.classify", root, i, || classify(program, &oracle, candidates))
            .ok_or_else(|| format!("{}: no optimum or no candidates", inst.label));
        tr.close(root_id);
        answer
    }
}

/// The durable (for plain workloads) or plain (for `anneal_sweep`)
/// counterpart of a job on the same seed.
fn counterpart(setup: &Setup, warm: &Warm<'_>, job: Job, dir: &Path) -> Result<ExecReport, String> {
    if setup.workload == Workload::AnnealSweep {
        return warm.plans[job.instance]
            .run(&warm.backends[job.instance], job.seed)
            .map_err(|e| e.to_string());
    }
    let program = &setup.suite.instances[job.instance].program;
    Supervisor::default()
        .run_durable(&ExecutionPlan::new(program), &[setup.backend().as_ref()], job.seed, dir)
        .map_err(|f| f.to_string())
}

/// Replay every job once with spans; report the per-layer metrics.
pub fn run(workload: Workload, seed: u64, run_root: &Path, trace_out: &Path) -> RunResult {
    let setup = Setup::new(workload, seed, run_root);
    let warm = match setup.warm() {
        Ok(w) => w,
        Err(e) => return RunResult::broken(e),
    };
    let mut replay = Replay {
        setup: &setup,
        warm: &warm,
        embeddings: Vec::new(),
        tracer: Tracer::new(),
        counts: Counts::default(),
    };
    if let (Workload::AnnealSweep, Some(annealer)) = (workload, &setup.annealer) {
        for (plan, &s) in warm.plans.iter().zip(&warm.embed_seeds) {
            let e = replay.tracer.time("anneal.embed", None, SETUP, || {
                let compiled = plan.compiled().ok()?;
                embed_like_backend(annealer, &compiled.qubo, s).map(|(e, _)| e)
            });
            replay.embeddings.push(e);
        }
    }

    let jobs = setup.suite.jobs.clone();
    let n = jobs.len();
    let mut errors = Vec::new();
    let mut failed = 0u64;
    for (i, &job) in jobs.iter().enumerate() {
        let label = &setup.suite.instances[job.instance].label;
        let dir = setup.fresh_dir();
        let t = Instant::now();
        let entry = setup.solve(&warm, job, &dir);
        let entry_ms = t.elapsed().as_secs_f64() * 1e3;
        let entry = entry.map(|r| (Answer::of(&r), r.journal.events.len()));
        let snapshot = std::fs::metadata(dir.join(nck_store::SNAP_FILE)).map_or(0, |m| m.len());
        remove_dir(&dir);

        let replayed = replay.job(i, job);

        let dir = setup.fresh_dir();
        let t = Instant::now();
        let other = counterpart(&setup, &warm, job, &dir);
        let other_ms = t.elapsed().as_secs_f64() * 1e3;
        let other_snapshot =
            std::fs::metadata(dir.join(nck_store::SNAP_FILE)).map_or(0, |m| m.len());
        remove_dir(&dir);

        let c = &mut replay.counts;
        c.solve_ms += entry_ms;
        let (durable_ms, plain_ms) = if workload == Workload::AnnealSweep {
            (entry_ms, other_ms)
        } else {
            (other_ms, entry_ms)
        };
        c.plain_ms += plain_ms;
        c.store_overhead_ms += durable_ms - plain_ms;
        match (&entry, &other) {
            (Ok((answer, events)), Ok(o)) => {
                let (journal, snap) = if workload == Workload::AnnealSweep {
                    (*events, snapshot)
                } else {
                    (o.journal.events.len(), other_snapshot)
                };
                c.journal_events += journal as f64;
                c.snapshot_bytes += snap as f64;
                if Answer::of(o) != *answer {
                    errors.push(format!("job {i} ({label}): durable and plain answers differ"));
                }
                match &replayed {
                    Ok(r) if r == answer => {}
                    Ok(r) => errors.push(format!(
                        "job {i} ({label}): replay gave {:?} weight-tally {:?}, entry point {:?} {:?}",
                        r.quality, r.tally, answer.quality, answer.tally
                    )),
                    Err(e) => errors.push(format!("job {i} ({label}): replay failed: {e}")),
                }
                let inst = &setup.suite.instances[job.instance];
                if let Err(e) =
                    reference::optimum(inst).and_then(|opt| reference::check(inst, opt, answer))
                {
                    errors.push(e);
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                failed += 1;
                errors.push(format!("job {i} ({label}): {e}"));
            }
        }
    }

    if let Err(e) = replay.tracer.write_jsonl(trace_out) {
        errors.push(format!("writing {}: {e}", trace_out.display()));
    }
    let metrics = layer_metrics(&replay.tracer, &replay.counts, n);
    let dominant = dominant_layer(workload);
    let share = |name: &str| {
        metrics.iter().find(|m| m.name == format!("{name}.share")).map_or(0.0, |m| m.value)
    };
    let top =
        LAYERS.iter().chain(["store"].iter()).copied().max_by(|a, b| share(a).total_cmp(&share(b)));
    if top != Some(dominant) {
        errors.push(format!("dominant layer is {top:?}, expected {dominant}"));
    }
    RunResult { attempted: n as u64, failed, metrics, errors }
}

/// The per-layer metrics of `n` replayed jobs.
pub fn layer_metrics(tracer: &Tracer, c: &Counts, n: usize) -> Vec<Metric> {
    let by_name = tracer.self_ms_by_name();
    let ms = |layer: &str| by_name.get(layer).copied().unwrap_or(0.0);
    let per = |x: f64| x / n as f64;
    let share = |x: f64| x / c.solve_ms;
    let mut out = Vec::new();
    for name in LAYERS {
        out.push(Metric::new(format!("{name}.ms"), per(ms(name)), "ms"));
        out.push(Metric::new(format!("{name}.share"), share(ms(name)), "ratio"));
    }
    out.push(Metric::new("store.overhead_ms", per(c.store_overhead_ms), "ms"));
    out.push(Metric::new("store.share", share(c.store_overhead_ms), "ratio"));
    let replayed: f64 = tracer
        .spans
        .iter()
        .filter(|s| s.name == "solve")
        .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
        .sum();
    out.extend([
        Metric::new("compile.smt_searches", per(c.smt_searches), "count"),
        Metric::new("compile.qubo_vars", per(c.qubo_vars), "count"),
        Metric::new("anneal.embed.physical_qubits", per(c.physical_qubits), "count"),
        Metric::new("anneal.embed.max_chain", per(c.max_chain), "count"),
        Metric::new("anneal.embed.retries", per(c.embed_retries), "count"),
        Metric::new(
            "anneal.sample.ns_per_spin_update",
            ms("anneal.sample") * 1e6 / c.spin_updates.max(1.0),
            "ns",
        ),
        Metric::new("anneal.sample.chain_break_frac", per(c.chain_break_frac), "ratio"),
        Metric::new("circuit.qaoa.evals", per(c.qaoa_evals), "count"),
        Metric::new("circuit.qaoa.ms_per_eval", ms("circuit.qaoa") / c.qaoa_evals.max(1.0), "ms"),
        Metric::new("circuit.qaoa.depth", per(c.qaoa_depth), "count"),
        Metric::new("circuit.qaoa.swaps", per(c.qaoa_swaps), "count"),
        Metric::new("classical.bb.nodes", per(c.bb_nodes), "count"),
        Metric::new(
            "classical.bb.nodes_per_s",
            c.bb_nodes / (ms("classical.bb") / 1e3).max(1e-9),
            "1/s",
        ),
        Metric::new("store.snapshot_bytes", per(c.snapshot_bytes), "bytes"),
        Metric::new("store.journal_events", per(c.journal_events), "count"),
        Metric::new("trace.overhead_frac", replayed / c.plain_ms - 1.0, "ratio"),
    ]);
    out
}
