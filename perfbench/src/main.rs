//! The NchooseK pipeline benchmark.
//!
//! ```text
//! perfbench --workload <anneal_cold|anneal_sweep|exact_classical|qaoa_gate>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload's jobs in identical closed-loop
//! rounds and prints the end-to-end metrics; `--trace 1` replays the
//! same jobs layer by layer and prints the per-layer metrics. Both
//! check every answer and exit 1 when a check fails; the last line of
//! standard output is the JSON result. See `README.md`.

mod inputs;
mod reference;
mod report;
mod runner;
mod stats;
mod timed;
mod traced;

use inputs::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <anneal_cold|anneal_sweep|exact_classical|qaoa_gate> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { workload: Workload::AnnealCold, seed: 1, seconds: 20, trace: false };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Durable run directories and the span file live inside the
    // benchmark's own directory.
    let work = PathBuf::from("perfbench").join(".work");
    let run_root = work.join(format!("runs-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_root) {
        eprintln!("cannot create {}: {e}", run_root.display());
        return ExitCode::from(1);
    }
    let name = args.workload.name();
    let result = if args.trace {
        let trace_out = work.join(format!("trace-{name}-{}.jsonl", args.seed));
        traced::run(args.workload, args.seed, &run_root, &trace_out)
    } else {
        timed::run(args.workload, args.seed, args.seconds, &run_root)
    };
    runner::remove_dir(&run_root);

    for e in &result.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    for m in &result.metrics {
        println!("{name} {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result.to_json());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::suite;
    use crate::report::valid_name;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args("--workload qaoa_gate --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(a, Args { workload: Workload::QaoaGate, seed: 7, seconds: 20, trace: true });
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed 3")).is_err());
        assert!(parse_args(&args("--workload anneal_cold --trace 2")).is_err());
    }

    #[test]
    fn same_seed_same_inputs_other_seed_different_inputs() {
        for w in Workload::ALL {
            let a = suite(w, 11);
            let b = suite(w, 11);
            let c = suite(w, 12);
            let render = |s: &inputs::Suite| {
                let programs: Vec<_> =
                    s.instances.iter().map(|i| i.program.constraints()).collect();
                format!("{:?} {programs:?}", s.jobs)
            };
            assert_eq!(render(&a), render(&b), "{}: same seed must give same inputs", w.name());
            assert_ne!(render(&a), render(&c), "{}: another seed must give other inputs", w.name());
            assert_eq!(a.jobs.len(), 40, "{}: forty jobs, so the tail is p75", w.name());
        }
    }

    #[test]
    fn every_instance_has_a_valid_reference() {
        for w in Workload::ALL {
            for seed in [1, 2] {
                for inst in suite(w, seed).instances {
                    let opt = reference::optimum(&inst)
                        .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name()));
                    assert!(opt <= inst.program.total_soft_weight(), "{}", inst.label);
                }
            }
        }
    }

    /// Every metric the two modes print, in print order.
    fn printed_metric_names(trace: bool) -> Vec<String> {
        let metrics = if trace {
            traced::layer_metrics(&traced::Tracer::new(), &Default::default(), 1)
        } else {
            timed::end_to_end(0.0, &[1.0; 40], &[], 40, 1.0)
        };
        metrics.into_iter().map(|m| m.name).collect()
    }

    #[test]
    fn metric_names_are_well_formed() {
        for name in printed_metric_names(false).iter().chain(&printed_metric_names(true)) {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').map_or(json.len(), |e| start + e);
            json[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("closing quote")].to_string())
                .collect()
        };
        assert_eq!(section("end_to_end"), printed_metric_names(false));
        assert_eq!(section("per_layer").len(), printed_metric_names(true).len());
        let mut listed = section("per_layer");
        let mut printed = printed_metric_names(true);
        listed.sort();
        printed.sort();
        assert_eq!(listed, printed);
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(section("workloads"), workloads);
    }
}
