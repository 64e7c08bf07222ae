//! Reproduces the Desis paper's evaluation figures.
//!
//! ```text
//! experiments [--scale quick|full] [--csv <dir>] [--metrics-out <path>]
//!             [--trace-out <path>] [--trace-sample <N>]
//!             [--faults <plan.json>] [--fault-seed <N>] [--profile]
//!             <figure-id>... | all | list | profile
//! ```
//!
//! Each figure prints the series the paper plots (one row per x-value,
//! one column per system). With `--csv <dir>`, a `<figure-id>.csv` file is
//! written per figure. With `--metrics-out <path>`, a JSON report is
//! written after all selected figures ran: per-figure metric deltas
//! (counter deltas and per-second rates over that figure's wall time)
//! plus the process snapshot (per-node bytes, message counts,
//! latency histograms with p50/p95/p99). With `--trace-out <path>`,
//! causal slice tracing is enabled (sampling every `--trace-sample`-th
//! slice, default 1) and the stitched cross-node timeline is written as
//! Chrome trace-event JSON loadable in Perfetto or `chrome://tracing`.
//! With `--faults <plan.json>`, the fault plan (see EXPERIMENTS.md "Chaos
//! runs") is injected into every cluster the figures start;
//! `--fault-seed <N>` overrides the plan's RNG seed so the same plan can
//! be replayed with different probabilistic placements.
//!
//! With `--profile`, the harness registry is a profiled one: every
//! engine, node loop and pump the selected figures start attributes wall
//! time per stage per lane into it (`prof.*` counters), a background
//! flight recorder samples it, and the `--metrics-out` report gains the
//! per-lane stage table (`"profile"`) and the flight timeline
//! (`"flight"`). The pseudo-command `profile` prints the stage table
//! as a human-readable table instead (defaulting to `fig6a` if no figure
//! is named).

use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use desis_bench::experiments::all_figures;
use desis_bench::measure::{metrics_report, Scale};
use desis_bench::Harness;
use desis_core::obs::prof::{
    self, FlightRecorder, FlightSampler, ProfClock, ProfHandle, ProfileReport, Stage,
};
use desis_core::obs::trace::{TraceCollector, DEFAULT_RING_CAPACITY};
use desis_core::obs::{MetricsDiff, MetricsRegistry};
use desis_net::fault::FaultPlan;

/// Per-stage allocation accounting (`--profile` reports allocs and
/// bytes per pipeline stage) when the binary is built with
/// `--features prof-alloc`; libraries never install a global allocator.
#[cfg(feature = "prof-alloc")]
#[global_allocator]
static COUNTING_ALLOC: desis_core::obs::prof::alloc::CountingAlloc =
    desis_core::obs::prof::alloc::CountingAlloc;

/// Prints Table 1 (function -> operator lowering) straight from the code.
fn print_table1() {
    use desis_core::aggregate::AggFunction;
    println!("== table1: Relationship between aggregation functions and operators ==");
    println!("{:<16} operators", "function");
    for func in [
        AggFunction::Sum,
        AggFunction::Count,
        AggFunction::Average,
        AggFunction::Product,
        AggFunction::GeometricMean,
        AggFunction::Max,
        AggFunction::Min,
        AggFunction::Median,
        AggFunction::Quantile(0.9),
        AggFunction::Variance,
        AggFunction::StdDev,
    ] {
        let ops: Vec<String> = func.operators().iter().map(|k| format!("{k:?}")).collect();
        println!("{:<16} {}", func.to_string(), ops.join(", "));
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut csv_dir: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut trace_sample = 1u64;
    let mut faults_path: Option<String> = None;
    let mut fault_seed: Option<u64> = None;
    let mut profile = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let value = it.next().unwrap_or_default();
                scale = Scale::parse(&value).unwrap_or_else(|| {
                    eprintln!("unknown scale {value:?} (expected quick|full)");
                    std::process::exit(2);
                });
            }
            "--csv" => {
                csv_dir = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--csv requires a directory");
                    std::process::exit(2);
                }));
            }
            "--metrics-out" => {
                metrics_out = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--metrics-out requires a file path");
                    std::process::exit(2);
                }));
            }
            "--trace-out" => {
                trace_out = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--trace-out requires a file path");
                    std::process::exit(2);
                }));
            }
            "--trace-sample" => {
                let value = it.next().unwrap_or_default();
                trace_sample = value.parse().unwrap_or_else(|_| {
                    eprintln!("--trace-sample requires a positive integer, got {value:?}");
                    std::process::exit(2);
                });
            }
            "--faults" => {
                faults_path = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--faults requires a plan JSON file");
                    std::process::exit(2);
                }));
            }
            "--fault-seed" => {
                let value = it.next().unwrap_or_default();
                fault_seed = Some(value.parse().unwrap_or_else(|_| {
                    eprintln!("--fault-seed requires an integer, got {value:?}");
                    std::process::exit(2);
                }));
            }
            "--profile" => profile = true,
            "--help" | "-h" => {
                print_usage();
                return;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag:?}; try `experiments --help`");
                std::process::exit(2);
            }
            other => wanted.push(other.to_string()),
        }
    }
    let faults = if let Some(path) = &faults_path {
        let text = std::fs::read_to_string(path).unwrap_or_else(|err| {
            eprintln!("cannot read fault plan {path}: {err}");
            std::process::exit(2);
        });
        let mut plan = FaultPlan::from_json(&text).unwrap_or_else(|err| {
            eprintln!("invalid fault plan {path}: {err}");
            std::process::exit(2);
        });
        if let Some(seed) = fault_seed {
            plan.seed = seed;
        }
        eprintln!(
            "fault plan {path}: seed {}, {} link fault(s), {} node fault(s)",
            plan.seed,
            plan.links.len(),
            plan.nodes.len()
        );
        Some(plan)
    } else if fault_seed.is_some() {
        eprintln!("--fault-seed requires --faults");
        std::process::exit(2);
    } else {
        None
    };
    let profile_summary = wanted.iter().any(|w| w == "profile");
    wanted.retain(|w| w != "profile");
    if profile && metrics_out.is_none() {
        eprintln!("--profile writes into the --metrics-out report; name one");
        std::process::exit(2);
    }
    let clock = (profile || profile_summary).then(ProfClock::wall);
    // One harness carries the flags into every cluster and measurement
    // the figures start.
    let harness = Harness {
        scale,
        registry: Arc::new(
            clock
                .clone()
                .map_or_else(MetricsRegistry::new, MetricsRegistry::profiled),
        ),
        trace: trace_out
            .as_ref()
            .map(|_| TraceCollector::new(trace_sample, DEFAULT_RING_CAPACITY)),
        faults,
    };

    let registry = all_figures();
    if wanted.iter().any(|w| w == "list") {
        println!("table1");
        println!("profile");
        for (id, _) in &registry {
            println!("{id}");
        }
        return;
    }
    // Checked before anything runs, `all` or not: a typo is never
    // silently skipped.
    for w in &wanted {
        if w != "all" && w != "table1" && !registry.iter().any(|(id, _)| id == w) {
            eprintln!("unknown figure {w:?}; try `experiments list`");
            std::process::exit(2);
        }
    }
    if profile_summary && wanted.is_empty() {
        wanted.push("fig6a".to_string());
    }
    let prof_session = clock.map(|clock| ProfSession {
        sampler: FlightSampler::spawn(
            Arc::clone(&harness.registry),
            clock.clone(),
            Duration::from_millis(25),
            4_096,
        ),
        start_ns: clock.now_ns(),
        clock,
        summary: profile_summary,
    });
    // The main lane covers the driver thread: with every figure run
    // inside a scope, the busiest lane accounts for (nearly) the
    // whole measured wall span, which is what the coverage acceptance
    // metric checks.
    let mut main_lane = harness.registry.lane("main");
    if wanted.iter().any(|w| w == "table1" || w == "all") {
        print_table1();
        wanted.retain(|w| w != "table1");
        if wanted.is_empty() {
            wrap_up(
                &harness,
                prof_session,
                main_lane,
                metrics_out.as_deref(),
                trace_out.as_deref(),
                &[],
            );
            return;
        }
    }
    if wanted.is_empty() {
        print_usage();
        std::process::exit(2);
    }
    let run_all = wanted.iter().any(|w| w == "all");
    let selected: Vec<_> = registry
        .iter()
        .filter(|(id, _)| run_all || wanted.iter().any(|w| w == id))
        .collect();

    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
    }
    let mut figure_diffs: Vec<(String, f64, MetricsDiff)> = Vec::new();
    for (id, generator) in selected {
        let before = harness.registry.snapshot();
        let started = Instant::now();
        let figure = {
            let _s = prof::scope(&mut main_lane, Stage::Handler);
            generator(&harness)
        };
        let elapsed = started.elapsed().as_secs_f64();
        figure_diffs.push((
            id.to_string(),
            elapsed,
            harness.registry.snapshot().diff(&before),
        ));
        print!("{}", figure.render());
        println!("   [{elapsed:.1}s]\n");
        if let Some(dir) = &csv_dir {
            let path = format!("{dir}/{id}.csv");
            let mut file = std::fs::File::create(&path).expect("create csv");
            file.write_all(figure.to_csv().as_bytes())
                .expect("write csv");
            eprintln!("wrote {path}");
        }
    }
    wrap_up(
        &harness,
        prof_session,
        main_lane,
        metrics_out.as_deref(),
        trace_out.as_deref(),
        &figure_diffs,
    );
}

/// One profiling session of the experiments process: the background
/// flight sampler over the (profiled) harness registry and the clock
/// reading the measured span started at.
struct ProfSession {
    sampler: FlightSampler,
    clock: ProfClock,
    start_ns: u64,
    /// The `profile` command: print the stage table.
    summary: bool,
}

impl ProfSession {
    /// Ends the measured span: returns its wall nanoseconds and the
    /// flight timeline, and prints the stage table if asked to.
    fn finish(self, registry: &MetricsRegistry) -> (u64, FlightRecorder) {
        let wall_ns = self.clock.now_ns() - self.start_ns;
        let flight = self.sampler.finish();
        if self.summary {
            let report = ProfileReport::from_snapshot(&registry.snapshot(), wall_ns);
            print!("{}", report.to_table());
        }
        (wall_ns, flight)
    }
}

/// Flushes the driver-lane handle, closes the profiling session (if
/// any), drains the harness's trace timeline (publishing per-stage
/// latency histograms into its registry first, so the report includes
/// them) and writes the requested output files: the report, and the
/// Chrome trace. When a flight timeline was recorded, its counter
/// trajectories ride along in the Chrome trace as Perfetto counter
/// tracks.
fn wrap_up(
    harness: &Harness,
    prof_session: Option<ProfSession>,
    main_lane: Option<ProfHandle>,
    metrics_out: Option<&str>,
    trace_out: Option<&str>,
    figures: &[(String, f64, MetricsDiff)],
) {
    // The handle flushes its tallies on drop; it must go before anything
    // reads the stage table.
    drop(main_lane);
    let profile = prof_session.map(|s| s.finish(&harness.registry));
    if let (Some(path), Some(collector)) = (trace_out, &harness.trace) {
        let timeline = collector.drain_timeline();
        timeline.publish(&harness.registry);
        let tracks = profile
            .as_ref()
            .map(|(_, f)| f.counter_tracks(&["engine.", "net.", "prof.", "trace.", "cluster."]))
            .unwrap_or_default();
        if let Err(err) = std::fs::write(path, timeline.to_chrome_json(&tracks)) {
            eprintln!("cannot write trace to {path}: {err}");
            std::process::exit(2);
        }
        eprintln!(
            "wrote {path} ({} chains, {} complete, {} events dropped)",
            timeline.chains.len(),
            timeline.complete_chains(),
            timeline.dropped
        );
    }
    if let Some(path) = metrics_out {
        let profile = profile.as_ref().map(|(wall_ns, flight)| (*wall_ns, flight));
        let report = metrics_report(&harness.registry, figures, profile);
        if let Err(err) = std::fs::write(path, report) {
            eprintln!("cannot write metrics to {path}: {err}");
            std::process::exit(2);
        }
        eprintln!("wrote {path}");
    }
}

fn print_usage() {
    println!(
        "usage: experiments [--scale quick|full] [--csv <dir>] [--metrics-out <path>]\n\
         \x20                  [--trace-out <path>] [--trace-sample <N>]\n\
         \x20                  [--faults <plan.json>] [--fault-seed <N>] [--profile]\n\
         \x20                  <figure-id>... | all | list | profile\n\
         reproduces the Desis (EDBT 2023) evaluation figures; see EXPERIMENTS.md\n\
         --metrics-out writes per-figure metric deltas plus the process\n\
         snapshot (bytes, message counts, latency histograms) as JSON\n\
         --trace-out enables causal slice tracing (every --trace-sample'th\n\
         slice, default 1) and writes Chrome trace-event JSON for Perfetto\n\
         --faults injects a deterministic fault plan (EXPERIMENTS.md \"Chaos\n\
         runs\") into every cluster; --fault-seed overrides the plan's seed\n\
         --profile times every stage of every run per lane and adds the\n\
         stage table + flight-recorder timeline to the --metrics-out report\n\
         `profile [figure-id...]` prints the stage table (default fig6a)"
    );
}
