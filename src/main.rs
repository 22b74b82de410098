//! `nchoosek` command-line driver: solve a `.nck` program on a chosen
//! backend (selected uniformly through the [`Backend`] trait) or on a
//! supervised degradation ladder with deadlines, retries, and circuit
//! breakers.
//!
//! ```text
//! nchoosek <file.nck> [--backend annealer|gate|classical|grover]
//!                     [--seed N] [--reads N] [--qubo] [--stages]
//!                     [--ladder a,b,c] [--deadline-ms N]
//!                     [--max-attempts N] [--journal]
//!                     [--run-dir DIR] [--resume]
//! ```
//!
//! `--ladder`, `--deadline-ms`, or `--max-attempts` switch the run to
//! the resilience [`Supervisor`]: the program executes down the ladder
//! (default: just `--backend`) under the given budget, and `--journal`
//! prints the structured run journal — every attempt, fault, retry,
//! breaker transition, and ladder step.
//!
//! `--run-dir DIR` makes the supervised run *durable*: every journal
//! event, budget step, and periodic mid-solve checkpoint is persisted
//! into a crash-safe write-ahead log under `DIR`. After a crash (or a
//! `kill -9`), `--resume --run-dir DIR` picks the run back up —
//! completed ladder rungs are never re-run, and the interrupted solve
//! continues from its last checkpoint.

use nchoosek::cli::{format_assignment, parse_program};
use nchoosek::prelude::*;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: nchoosek <file.nck> [--backend annealer|gate|classical|grover] \
         [--seed N] [--reads N] [--qubo] [--stages] \
         [--ladder a,b,c] [--deadline-ms N] [--max-attempts N] [--journal] \
         [--run-dir DIR] [--resume]"
    );
    ExitCode::from(2)
}

/// Build the named backend with its paper-default device preset.
fn make_backend(name: &str, reads: usize) -> Option<Box<dyn Backend>> {
    match name {
        "annealer" => Some(Box::new(AnnealerBackend::new(AnnealerDevice::advantage_4_1(), reads))),
        "gate" => {
            Some(Box::new(GateModelBackend::new(GateModelDevice::ibmq_brooklyn(), 1, 4000, 30)))
        }
        "grover" => Some(Box::new(GroverBackend::default())),
        "classical" => Some(Box::new(ClassicalBackend::default())),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file = None;
    let mut backend = "annealer".to_string();
    let mut seed = 42u64;
    let mut reads = 100usize;
    let mut dump_qubo = false;
    let mut show_stages = false;
    let mut ladder_arg: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut max_attempts: Option<u32> = None;
    let mut show_journal = false;
    let mut run_dir: Option<String> = None;
    let mut resume = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--run-dir" => match it.next() {
                Some(d) => run_dir = Some(d),
                None => return usage(),
            },
            "--resume" => resume = true,
            "--backend" => match it.next() {
                Some(b) => backend = b,
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => return usage(),
            },
            "--reads" => match it.next().and_then(|s| s.parse().ok()) {
                Some(r) => reads = r,
                None => return usage(),
            },
            "--ladder" => match it.next() {
                Some(l) => ladder_arg = Some(l),
                None => return usage(),
            },
            "--deadline-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(d) => deadline_ms = Some(d),
                None => return usage(),
            },
            "--max-attempts" => match it.next().and_then(|s| s.parse().ok()) {
                Some(a) => max_attempts = Some(a),
                None => return usage(),
            },
            "--journal" => show_journal = true,
            "--qubo" => dump_qubo = true,
            "--stages" => show_stages = true,
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ if file.is_none() && !arg.starts_with('-') => file = Some(arg),
            _ => return usage(),
        }
    }
    let Some(file) = file else { return usage() };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let program = match parse_program(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{file}: {} variables, {} hard + {} soft constraints",
        program.num_vars(),
        program.num_hard(),
        program.num_soft()
    );
    if dump_qubo {
        match compile(&program, &CompilerOptions::default()) {
            Ok(c) => {
                println!(
                    "compiled QUBO ({} vars, {} ancillas, W = {}):",
                    c.num_qubo_vars(),
                    c.num_ancillas,
                    c.hard_weight
                );
                print!("{}", nck_qubo::to_qubo_file(&c.qubo));
            }
            Err(e) => {
                eprintln!("error: compile failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }
    if resume && run_dir.is_none() {
        eprintln!("error: --resume requires --run-dir");
        return usage();
    }
    // Any supervision flag switches the run to the resilience
    // supervisor; `--ladder` defaults to just the selected backend.
    let supervised = ladder_arg.is_some()
        || deadline_ms.is_some()
        || max_attempts.is_some()
        || run_dir.is_some();
    let rung_names: Vec<String> = ladder_arg
        .map(|l| l.split(',').map(str::to_string).collect())
        .unwrap_or_else(|| vec![backend.clone()]);
    let mut rungs = Vec::with_capacity(rung_names.len());
    for name in &rung_names {
        let Some(solver) = make_backend(name, reads) else {
            eprintln!("error: unknown backend {name:?}");
            return usage();
        };
        rungs.push(solver);
    }
    let plan = ExecutionPlan::new(&program);
    let result = if supervised {
        let mut budget = RunBudget::default();
        if let Some(ms) = deadline_ms {
            budget.deadline = Some(Duration::from_millis(ms));
        }
        if let Some(a) = max_attempts {
            budget.max_attempts = a;
        }
        let sup = Supervisor {
            budget,
            retry: RetryPolicy { seed, ..RetryPolicy::default() },
            ..Supervisor::default()
        };
        let ladder: Vec<&dyn Backend> = rungs.iter().map(|b| b.as_ref()).collect();
        let run = match &run_dir {
            Some(dir) => {
                let dir = std::path::Path::new(dir);
                if resume {
                    sup.resume_durable(&plan, &ladder, seed, dir)
                } else {
                    sup.run_durable(&plan, &ladder, seed, dir)
                }
            }
            None => sup.run(&plan, &ladder, seed),
        };
        run.map_err(|failure| {
            if show_journal {
                eprint!("{}", failure.journal.render());
            }
            failure.error.to_string()
        })
    } else {
        plan.run(rungs[0].as_ref(), seed).map_err(|e| e.to_string())
    };
    match result {
        Ok(report) => {
            println!(
                "{} result: {} ({} of {} soft constraints; weight {} of optimum {})",
                report.backend,
                report.quality,
                report.soft_satisfied,
                program.num_soft(),
                report.soft_weight,
                report.max_soft
            );
            println!("{}", format_assignment(&program, &report.assignment));
            if show_journal {
                print!("{}", report.journal.render());
            }
            if show_stages {
                print!(
                    "{}\n{}",
                    StageTimings::CSV_HEADER,
                    report.timings.csv_rows(&report.backend.to_string())
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
