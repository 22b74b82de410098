//! The untraced run: a fixed number of identical closed-loop rounds
//! over the workload's jobs, each after a set-up of its own, then the
//! answer checks.

use crate::inputs::Workload;
use crate::reference;
use crate::report::{peak_rss_mb, Metric, RunResult};
use crate::runner::{remove_dir, Answer, Setup, Warm};
use crate::stats::{best_of_rounds, percentile, solves_per_s, tail_percentile};
use nck_core::SolutionQuality;
use std::path::Path;
use std::time::Instant;

/// Fewest rounds a run makes.
pub const MIN_ROUNDS: usize = 2;

/// Rounds a run of `seconds` makes. The count depends on the argument
/// only, never on measured speed.
pub fn rounds_for(workload: Workload, seconds: u64) -> usize {
    ((seconds * 1000 / workload.round_ms()) as usize).max(MIN_ROUNDS)
}

/// Per-round timings and the answers they are checked against.
struct Rounds {
    /// `times[r][i]`: job `i`'s solve time in round `r` (ms).
    times: Vec<Vec<f64>>,
    /// Round 0's answers; later rounds must repeat them.
    first: Vec<Result<Answer, String>>,
    errors: Vec<String>,
    failed: u64,
}

impl Rounds {
    /// Time every job of the suite once, in closed-loop order.
    fn time(&mut self, r: usize, setup: &Setup, warm: &Warm<'_>) {
        let mut round_times = Vec::with_capacity(setup.suite.jobs.len());
        for (i, &job) in setup.suite.jobs.iter().enumerate() {
            let dir = setup.fresh_dir();
            let t = Instant::now();
            let result = setup.solve(warm, job, &dir);
            round_times.push(t.elapsed().as_secs_f64() * 1e3);
            remove_dir(&dir);
            let answer = result.map(|rep| Answer::of(&rep));
            self.failed += u64::from(answer.is_err());
            if r == 0 {
                self.first.push(answer);
            } else if answer != self.first[i] {
                self.errors.push(format!(
                    "round {r} job {i} ({}): answer differs from round 0",
                    setup.suite.instances[job.instance].label
                ));
            }
        }
        eprintln!("round {r}: {:.1} ms total", round_times.iter().sum::<f64>());
        self.times.push(round_times);
    }
}

/// Time the rounds, each after a set-up of its own, then check the
/// answers.
///
/// `setup_s` is the least of the rounds' set-up times: host contention
/// only ever adds time, and set-ups spread over the whole run see past
/// a burst that back-to-back ones would all fall in (the same reason
/// solve times are best-of-rounds).
pub fn run(workload: Workload, seed: u64, seconds: u64, run_root: &Path) -> RunResult {
    let mut setup_s = f64::INFINITY;
    let mut rounds = Rounds { times: Vec::new(), first: Vec::new(), errors: Vec::new(), failed: 0 };
    let mut setup = None;
    for r in 0..rounds_for(workload, seconds) {
        let t = Instant::now();
        let s = Setup::new(workload, seed, run_root);
        {
            let warm = match s.warm() {
                Ok(w) => w,
                Err(e) => return RunResult::broken(e),
            };
            // One untimed warm-up solve, of the first slot's program so
            // its cost does not depend on the seeded job order. Its
            // answer is checked with the timed ones, so a failure here
            // shows there.
            let dir = s.fresh_dir();
            let first_slot = s.suite.jobs.iter().find(|j| j.instance == 0);
            let _ = s.solve(&warm, *first_slot.expect("slot 0 has a job"), &dir);
            remove_dir(&dir);
            setup_s = setup_s.min(t.elapsed().as_secs_f64());
            rounds.time(r, &s, &warm);
        }
        setup = Some(s);
    }
    let setup = setup.expect("a run makes at least one round");
    let Rounds { times, first, mut errors, failed } = rounds;
    let jobs = &setup.suite.jobs;
    let n = jobs.len();
    // Read before the reference optima, whose brute force would
    // otherwise set the peak.
    let peak_rss = peak_rss_mb();

    // Reference optima are computed after timing, outside set-up.
    let optima: Vec<Result<u64, String>> =
        setup.suite.instances.iter().map(reference::optimum).collect();
    for (job, answer) in jobs.iter().zip(&first) {
        let inst = &setup.suite.instances[job.instance];
        let checked = match (answer, &optima[job.instance]) {
            (Ok(a), Ok(opt)) => reference::check(inst, *opt, a),
            (Err(e), _) => Err(format!("{}: solve failed: {e}", inst.label)),
            (_, Err(e)) => Err(e.clone()),
        };
        if let Err(e) = checked {
            errors.push(e);
        }
    }

    let best = best_of_rounds(&times);
    let ok: Vec<&Answer> = first.iter().filter_map(|a| a.as_ref().ok()).collect();
    let metrics = end_to_end(setup_s, &best, &ok, n, peak_rss);
    let tail = tail_percentile(n).expect("every workload has more than ten jobs");
    eprintln!("{n} jobs x {} rounds; tail = p{tail}", times.len());
    RunResult { attempted: (n * times.len()) as u64, failed, metrics, errors }
}

/// The end-to-end metrics from per-job best times (`ms`), the answers
/// of the `n` jobs that did not fail, and the peak RSS of the timed
/// part (`MB`).
pub fn end_to_end(
    setup_s: f64,
    best: &[f64],
    ok: &[&Answer],
    n: usize,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let tail = tail_percentile(best.len()).expect("every workload has more than ten jobs");
    let optimal = ok.iter().filter(|a| a.quality == SolutionQuality::Optimal).count();
    let (opt_samples, all_samples) =
        ok.iter().fold((0, 0), |(o, t), a| (o + a.tally.optimal, t + a.tally.total()));
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("solve_ms.p50", percentile(best, 50.0), "ms"),
        Metric::new("solve_ms.tail", percentile(best, tail), "ms"),
        Metric::new("solves_per_s", solves_per_s(best), "1/s"),
        Metric::new("optimal_frac", optimal as f64 / n as f64, "ratio"),
        Metric::new("sample_optimal_frac", opt_samples as f64 / all_samples.max(1) as f64, "ratio"),
        Metric::new("success_frac", ok.len() as f64 / n as f64, "ratio"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}
