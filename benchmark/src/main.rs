//! The repo benchmark for the Desis reproduction. See `README.md`.

mod compare;
mod gate;
mod json;
mod measure;
mod metrics;
mod replay;
mod run;
mod span;
mod stats;
mod sys;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use run::Options;

const USAGE: &str = "\
desis-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
desis-benchmark --smoke [--workload <name>] [--seed N] [--out DIR]
desis-benchmark compare <dirA> <dirB>

workloads: ingest_dense, slide_wide, mixed_unfixed, many_queries
  --trace 0   six end-to-end metrics, tracing off (default)
  --trace 1   per-layer metrics from the span-traced chain replay
  --smoke     tiny counts, same code paths; without --workload: all four
              workloads, both modes
  compare     medians, ratio, bound and PASS / FAIL / UNRESOLVED per
              (workload, metric) over the run records in two directories
The last line of standard output is one JSON object:
  {\"correct\", \"attempted\", \"failed\", \"metrics\"}";

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: run::DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value("a workload name")?,
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                opts.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--out" => opts.out = PathBuf::from(value("a directory")?),
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let all_workloads = opts.smoke && opts.workload.is_empty();
    if opts.workload.is_empty() && !opts.smoke {
        return Err("--workload is required".into());
    }
    Ok((opts, all_workloads))
}

fn run_one(opts: &Options) -> bool {
    match run::run(opts) {
        Ok(outcome) => {
            for finding in &outcome.findings {
                eprintln!("finding: {finding}");
            }
            println!("{}", outcome.result_line());
            outcome.correct
        }
        Err(error) => {
            eprintln!("error: {error}");
            false
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::compare(a.as_ref(), b.as_ref()) {
            Ok((report, failed)) => {
                print!("{report}");
                ExitCode::from(u8::from(failed))
            }
            Err(error) => {
                eprintln!("error: {error}");
                ExitCode::from(2)
            }
        };
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (opts, all_workloads) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("error: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if all_workloads {
        let mut ok = true;
        for name in workload::NAMES {
            for trace in [false, true] {
                let one = Options {
                    workload: name.to_string(),
                    trace,
                    ..opts.clone()
                };
                eprintln!("smoke: {name} --trace {}", u8::from(trace));
                ok &= run_one(&one);
            }
        }
        ok
    } else {
        run_one(&opts)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
