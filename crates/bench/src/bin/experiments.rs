//! Reproduces the Desis paper's evaluation figures.
//!
//! ```text
//! experiments [--scale quick|full] [--csv <dir>] [--metrics-out <path>]
//!             [--trace-out <path>] [--trace-sample <N>]
//!             [--faults <plan.json>] [--fault-seed <N>]
//!             [--shards <N>] [--profile-out <path>]
//!             <figure-id>... | all | list | profile | prof-overhead
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
//! With `--profile-out <path>`, a process-global pipeline profiler is
//! installed: every engine the selected figures start attributes wall
//! time per stage per lane, a background flight recorder samples the
//! harness registry, and the per-stage self-time table plus the flight
//! timeline are written as JSON. The pseudo-command `profile` prints
//! the same report as a human-readable table instead (defaulting to
//! `fig6a` if no figure is named). `prof-overhead` runs the CI gate's
//! A/B probe: the `end_to_end` workload min-of-5, without a profiler
//! and with an installed-but-disabled one.

use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use desis_bench::experiments::all_figures;
use desis_bench::measure::{write_metrics_report, Scale};
use desis_bench::Harness;
use desis_core::obs::prof::{
    self, FlightRecorder, FlightSampler, ProfClock, ProfHandle, Profiler, Stage,
};
use desis_core::obs::trace::{TraceCollector, DEFAULT_RING_CAPACITY};
use desis_core::obs::{MetricsDiff, MetricsRegistry};
use desis_net::fault::FaultPlan;

/// Per-stage allocation accounting (`--profile-out` reports allocs and
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
    let mut shards: Option<usize> = None;
    let mut profile_out: Option<String> = None;
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
            "--shards" => {
                let value = it.next().unwrap_or_default();
                let n: usize = value.parse().unwrap_or_else(|_| {
                    eprintln!("--shards requires a positive integer, got {value:?}");
                    std::process::exit(2);
                });
                shards = Some(n.max(1));
            }
            "--profile-out" => {
                profile_out = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--profile-out requires a file path");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                print_usage();
                return;
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
    if let Some(n) = shards {
        eprintln!("local nodes run {n} engine shard(s)");
    }
    // One harness carries the flags into every cluster and measurement
    // the figures start.
    let harness = Harness {
        scale,
        trace: trace_out
            .as_ref()
            .map(|_| TraceCollector::new(trace_sample, DEFAULT_RING_CAPACITY)),
        faults,
        shards: shards.unwrap_or(1),
        ..Harness::quick()
    };

    let registry = all_figures();
    if wanted.iter().any(|w| w == "list") {
        println!("table1");
        println!("profile");
        println!("prof-overhead");
        for (id, _) in &registry {
            println!("{id}");
        }
        return;
    }
    // The overhead probe measures a profiler-free process first, so it
    // must run before any profiler is installed — and alone.
    if wanted.iter().any(|w| w == "prof-overhead") {
        run_prof_overhead(profile_out.as_deref());
        return;
    }
    let profile_summary = wanted.iter().any(|w| w == "profile");
    wanted.retain(|w| w != "profile");
    if profile_summary && wanted.is_empty() {
        wanted.push("fig6a".to_string());
    }
    let prof_session = if profile_out.is_some() || profile_summary {
        let profiler = Profiler::new(ProfClock::wall()).install_global();
        profiler.begin();
        let sampler = FlightSampler::spawn(
            Arc::clone(&harness.registry),
            profiler.clock().clone(),
            Duration::from_millis(25),
            4_096,
        );
        Some(ProfSession {
            profiler,
            sampler,
            out: profile_out.clone(),
            summary: profile_summary,
        })
    } else {
        None
    };
    // The main lane covers the driver thread: with every figure run
    // inside a scope, the busiest lane accounts for (nearly) the
    // whole measured wall span, which is what the coverage acceptance
    // metric checks.
    let mut main_lane = Profiler::global().map(|p| p.handle("main"));
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
    if !run_all {
        for w in &wanted {
            if !registry.iter().any(|(id, _)| id == w) {
                eprintln!("unknown figure {w:?}; try `experiments list`");
                std::process::exit(2);
            }
        }
    }

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

/// One profiling session of the experiments process: the installed
/// global profiler plus the background flight sampler over the harness
/// registry, and where the report goes.
struct ProfSession {
    profiler: &'static Profiler,
    sampler: FlightSampler,
    out: Option<String>,
    summary: bool,
}

impl ProfSession {
    /// Ends the measured span, publishes `prof.*` instruments into
    /// `registry` (so `--metrics-out` carries them), writes/prints the
    /// report, and returns the flight timeline for the Perfetto counter
    /// tracks.
    fn finish(self, registry: &MetricsRegistry) -> FlightRecorder {
        self.profiler.end();
        let flight = self.sampler.finish();
        self.profiler.publish(registry);
        let report = self.profiler.report();
        if let Some(path) = &self.out {
            if let Err(err) = std::fs::write(path, report.to_json(Some(&flight))) {
                eprintln!("cannot write profile to {path}: {err}");
                std::process::exit(2);
            }
            eprintln!(
                "wrote {path} (coverage {:.1}%, {} lanes, {} flight frames)",
                report.coverage() * 100.0,
                report.lanes.len(),
                flight.frames().len()
            );
        }
        if self.summary {
            print!("{}", report.to_table());
        }
        flight
    }
}

/// Flushes the driver-lane handle, closes the profiling session (if
/// any), drains the harness's trace timeline (publishing per-stage
/// latency histograms into its registry first, so the metrics report
/// includes them) and writes the requested output files. When a flight
/// timeline was recorded, its counter trajectories ride along in the
/// Chrome trace as Perfetto counter tracks.
fn wrap_up(
    harness: &Harness,
    prof_session: Option<ProfSession>,
    main_lane: Option<ProfHandle>,
    metrics_out: Option<&str>,
    trace_out: Option<&str>,
    figures: &[(String, f64, MetricsDiff)],
) {
    // The handle flushes its tallies on drop; it must go before
    // `ProfSession::finish` reads the report.
    drop(main_lane);
    let flight = prof_session.map(|s| s.finish(&harness.registry));
    if let (Some(path), Some(collector)) = (trace_out, &harness.trace) {
        let timeline = collector.drain_timeline();
        timeline.publish(&harness.registry);
        let tracks = flight
            .as_ref()
            .map(|f| f.counter_tracks(&["engine.", "net.", "prof.", "trace.", "cluster."]))
            .unwrap_or_default();
        if let Err(err) = std::fs::write(path, timeline.to_chrome_json_with(&tracks)) {
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
        if let Err(err) =
            write_metrics_report(std::path::Path::new(path), &harness.registry, figures)
        {
            eprintln!("cannot write metrics to {path}: {err}");
            std::process::exit(2);
        }
        eprintln!("wrote {path}");
    }
}

/// The CI overhead gate's A/B probe: the `end_to_end` workload
/// (tumbling max + sliding quantile + session median, the Figure 4
/// shape), min-of-N wall time — first in a
/// profiler-free process, then with an installed-but-disabled global
/// profiler, the configuration every unprofiled run pays for. Prints
/// the overhead and writes it as JSON when `--profile-out` is given;
/// CI fails the gate at ≥3%.
fn run_prof_overhead(out: Option<&str>) {
    use desis_core::aggregate::AggFunction;
    use desis_core::engine::AggregationEngine;
    use desis_core::event::Event;
    use desis_core::query::Query;
    use desis_core::window::WindowSpec;
    const N: u64 = 1_000_000;
    const REPS: usize = 9;
    let queries = vec![
        Query::new(
            1,
            WindowSpec::tumbling_time(1_000).unwrap(),
            AggFunction::Max,
        ),
        Query::new(
            2,
            WindowSpec::sliding_time(2_000, 500).unwrap(),
            AggFunction::Quantile(0.9),
        ),
        Query::new(3, WindowSpec::session(400).unwrap(), AggFunction::Median),
    ];
    let events: Vec<Event> = (0..N)
        .map(|i| Event::new(i / 10, (i % 10) as u32, (i % 97) as f64))
        .collect();
    let run_once = || -> f64 {
        let start = Instant::now();
        let mut engine = AggregationEngine::new(queries.clone()).expect("probe workload is valid");
        for ev in &events {
            engine.on_event(ev);
        }
        engine.on_watermark(20_000);
        assert!(!engine.drain_results().is_empty());
        start.elapsed().as_secs_f64()
    };
    let min_of_reps = || (0..REPS).map(|_| run_once()).fold(f64::INFINITY, f64::min);
    run_once(); // warm caches so the A side is not the cold one
    let baseline = min_of_reps();
    // Installed but disabled: handles exist on every engine, each scope
    // is one relaxed load.
    Profiler::disabled(ProfClock::wall()).install_global();
    run_once();
    let disabled = min_of_reps();
    let overhead = disabled / baseline.max(1e-12) - 1.0;
    println!(
        "prof-overhead end_to_end min-of-{REPS}: baseline {baseline:.4}s, \
         disabled-profiler {disabled:.4}s, overhead {:+.2}%",
        overhead * 100.0
    );
    let json = format!(
        "{{\"bench\": \"prof_overhead\", \"workload\": \"end_to_end\", \"reps\": {REPS}, \
         \"events\": {N}, \"baseline_s\": {baseline:.6}, \"disabled_s\": {disabled:.6}, \
         \"overhead\": {overhead:.6}}}\n"
    );
    if let Some(path) = out {
        std::fs::write(path, json).unwrap_or_else(|err| {
            eprintln!("cannot write {path}: {err}");
            std::process::exit(2);
        });
        eprintln!("wrote {path}");
    }
}

fn print_usage() {
    println!(
        "usage: experiments [--scale quick|full] [--csv <dir>] [--metrics-out <path>]\n\
         \x20                  [--trace-out <path>] [--trace-sample <N>]\n\
         \x20                  [--faults <plan.json>] [--fault-seed <N>]\n\
         \x20                  [--shards <N>] [--profile-out <path>]\n\
         \x20                  <figure-id>... | all | list | profile | prof-overhead\n\
         reproduces the Desis (EDBT 2023) evaluation figures; see EXPERIMENTS.md\n\
         --metrics-out writes per-figure metric deltas plus the process\n\
         snapshot (bytes, message counts, latency histograms) as JSON\n\
         --trace-out enables causal slice tracing (every --trace-sample'th\n\
         slice, default 1) and writes Chrome trace-event JSON for Perfetto\n\
         --faults injects a deterministic fault plan (EXPERIMENTS.md \"Chaos\n\
         runs\") into every cluster; --fault-seed overrides the plan's seed\n\
         --shards N runs every cluster's local nodes with N engine shards\n\
         --profile-out installs the pipeline profiler and writes the\n\
         per-lane stage table + flight-recorder timeline as JSON\n\
         `profile [figure-id...]` prints the stage table (default fig6a)\n\
         `prof-overhead` runs the <3% disabled-profiler A/B gate probe"
    );
}
