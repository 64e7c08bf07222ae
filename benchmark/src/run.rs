//! One benchmark run: one workload, one seed, either the six end-to-end
//! metrics (tracing off) or the per-layer metrics (traced chain replay).

use std::path::PathBuf;
use std::time::Instant;

use desis_core::query::QueryResult;
use desis_net::topology::Topology;

use crate::gate::{self, Gate};
use crate::json::Json;
use crate::measure::{
    run_desis_cluster, run_seq, run_setup, run_sharded, ClusterCounts, EngineCounts, Tail,
};
use crate::metrics::{self, PER_LAYER};
use crate::replay;
use crate::span::{layer_time, Lane, LayerTime, Spans};
use crate::stats::{median, Better, Summary};
use crate::sys::Placement;
use crate::workload::{Workload, LOCALS};

/// Default measurement budget; `BENCHMARK.json` passes the same value.
pub const DEFAULT_SECONDS: f64 = 25.0;

/// Nominal wall time of one measurement round — one sample of every
/// throughput/CPU metric, two set-up repeats and 0.4 paced runs;
/// `--seconds` buys whole rounds. The workloads' frozen sizes were chosen
/// so that a round takes about this long at the commit that introduced
/// the benchmark.
pub const ROUND_S: f64 = 0.625;

/// Command-line options of a run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced per-layer replay instead of the end-to-end metrics.
    pub trace: bool,
    /// Tiny counts, same code paths.
    pub smoke: bool,
    /// Directory for `results.json` and the Chrome trace.
    pub out: PathBuf,
}

/// How many samples of what a run takes.
///
/// Interference on this box comes in spells of 0.5 s to tens of seconds,
/// so consecutive samples of one metric tell the same story: a round
/// takes *one* sample of each metric, and many short rounds spread every
/// metric's samples evenly over the whole run.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Leading rounds whose samples are discarded (first-touch costs:
    /// page faults, allocator growth, cold caches).
    warmup_rounds: usize,
    /// Recorded rounds.
    rounds: usize,
    /// Set-up repeats per round.
    setup_per_round: usize,
    /// Paced latency runs, spread over the recorded rounds.
    latency_runs: usize,
}

impl Plan {
    fn new(seconds: f64, smoke: bool) -> Self {
        if smoke {
            return Self {
                warmup_rounds: 0,
                rounds: 1,
                setup_per_round: 3,
                latency_runs: 1,
            };
        }
        let rounds = ((seconds / ROUND_S).round() as usize).max(1);
        Self {
            warmup_rounds: 1,
            rounds,
            setup_per_round: 2,
            // 16 runs over the default 40 rounds.
            latency_runs: (rounds * 2).div_ceil(5),
        }
    }

    /// Paced runs due in recorded round `round`, spreading
    /// `latency_runs` evenly.
    fn latency_due(&self, round: usize) -> usize {
        (round + 1) * self.latency_runs / self.rounds - round * self.latency_runs / self.rounds
    }
}

/// What a run reports on its last line.
#[derive(Debug)]
pub struct Outcome {
    /// No operation failed and every check held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)` of every reported metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Why `correct` is false.
    pub findings: Vec<String>,
}

impl Outcome {
    /// The one-line JSON object the driver reads.
    pub fn result_line(&self) -> String {
        Json::object([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::object(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        *name,
                        Json::object([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                    )
                })),
            ),
        ])
        .to_line()
    }
}

/// Running totals of operations and the checks that failed.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    findings: Vec<String>,
}

impl Tally {
    fn absorb_gate(&mut self, gate: &Gate) {
        self.attempted += gate.attempted;
        self.failed += gate.failed;
        self.findings.extend(gate.findings.iter().cloned());
    }

    fn fail(&mut self, operations: u64, finding: String) {
        self.failed += operations;
        self.findings.push(finding);
    }

    /// Counts must be identical in every sample on the same input.
    fn expect_same<T: PartialEq + std::fmt::Debug + Copy>(
        &mut self,
        what: &str,
        first: &mut Option<T>,
        got: T,
    ) {
        match first {
            None => *first = Some(got),
            Some(want) if *want == got => {}
            Some(want) => self.fail(
                1,
                format!("{what}: counts differ between samples: {want:?} vs {got:?}"),
            ),
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The run record's environment block.
fn environment(placement: &Placement) -> Json {
    let commit = std::env::var("DESIS_BENCH_COMMIT").ok().or_else(|| {
        command_line(
            "git",
            &[
                "-C",
                env!("CARGO_MANIFEST_DIR"),
                "rev-parse",
                "--short",
                "HEAD",
            ],
        )
    });
    let profile = if cfg!(debug_assertions) {
        "debug (numbers are meaningless)"
    } else {
        "release: opt-level=3 codegen-units=1 debug=line-tables-only lto=off"
    };
    Json::object([
        ("cpus", Json::Num(placement.cpus() as f64)),
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "commit",
            Json::str(commit.unwrap_or_else(|| "unknown".into())),
        ),
        ("profile", Json::str(profile)),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}

fn write_file(path: &std::path::Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

/// Wall time a paced local takes to feed the in-order `feed`: its span
/// of event time, sped up.
fn scheduled_feed_s(feed: &[desis_core::event::Event], pace_speedup: f64) -> f64 {
    let span_ms = feed.last().map_or(0, |ev| ev.ts) - feed.first().map_or(0, |ev| ev.ts);
    span_ms as f64 / 1e3 / pace_speedup
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Runs the benchmark as `opts` says and writes the run record.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let total = Instant::now();
    let placement = Placement::pin_feeder();
    let gen = Instant::now();
    let w = Workload::build(&opts.workload, opts.seed, opts.smoke)
        .ok_or_else(|| format!("unknown workload `{}`", opts.workload))?;
    let mut record = vec![
        ("benchmark", Json::str("desis-benchmark")),
        (
            "mode",
            Json::str(if opts.trace { "trace" } else { "end_to_end" }),
        ),
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        ("env", environment(&placement)),
    ];
    let (outcome, body) = if opts.trace {
        traced(opts, &w, &placement, gen)?
    } else {
        end_to_end(opts, &w, &placement, gen)?
    };
    record.push(("correct", Json::Bool(outcome.correct)));
    record.push(("attempted", Json::Num(outcome.attempted as f64)));
    record.push(("failed", Json::Num(outcome.failed as f64)));
    record.push((
        "findings",
        Json::Arr(outcome.findings.iter().map(Json::str).collect()),
    ));
    record.extend(body);
    record.push(("total_s", Json::Num(total.elapsed().as_secs_f64())));
    let suffix = if opts.trace { "-trace" } else { "" };
    let path = opts
        .out
        .join(format!("{}-seed{}{suffix}.results.json", w.name, opts.seed));
    write_file(&path, &Json::object(record).to_pretty())?;
    eprintln!("run record: {}", path.display());
    Ok(outcome)
}

type Body = Vec<(&'static str, Json)>;

// ---------------------------------------------------------------------
// End-to-end metrics (tracing off).
// ---------------------------------------------------------------------

fn end_to_end(
    opts: &Options,
    w: &Workload,
    placement: &Placement,
    gen: Instant,
) -> Result<(Outcome, Body), String> {
    let plan = Plan::new(opts.seconds, opts.smoke);
    let sizes = w.sizes;
    let seq_events = w.whole_laps(sizes.seq_events);
    let sharded_events = w.whole_laps(sizes.sharded_events);
    // Inputs of the cluster runs, generated once; each run gets a clone
    // made outside its timed region.
    let cluster_events = w.whole_laps(sizes.cluster_events);
    let cluster_feeds = Workload::feeds(&w.ordered_prefix(cluster_events));
    let latency_events = w.whole_laps(sizes.latency_events);
    let latency_feed = vec![w.ordered_prefix(latency_events)];
    let scheduled_s = scheduled_feed_s(&latency_feed[0], sizes.pace_speedup);
    let input_gen_s = gen.elapsed().as_secs_f64();

    let mut tally = Tally::default();
    let gate_start = Instant::now();
    let gate = gate::check(w, placement)?;
    let gate_s = gate_start.elapsed().as_secs_f64();
    tally.absorb_gate(&gate);

    let summary = |name: &'static str| {
        let m = metrics::end_to_end(name).expect("listed metric");
        Summary {
            name: m.name,
            unit: m.unit,
            better: m.better,
            bound: Some(m.bound),
            samples: Vec::new(),
        }
    };
    let mut setup = summary("setup_s");
    let mut seq = summary("seq_events_per_s");
    let mut sharded = summary("sharded_events_per_s");
    let mut cluster_cpu = summary("cluster_cpu_ns_per_event");
    let mut latency = summary("cluster_latency_p50_ms");
    let mut wire = summary("wire_bytes_per_event");
    let mut saturated = Summary {
        name: "cluster.saturated_events_per_s",
        unit: "events/s",
        better: Better::Higher,
        bound: None,
        samples: Vec::new(),
    };
    let mut overrun = Summary {
        name: "cluster.pace_overrun_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: None,
        samples: Vec::new(),
    };
    let mut seq_counts: Option<EngineCounts> = None;
    let mut sharded_counts: Option<EngineCounts> = None;
    let mut cluster_counts: Option<ClusterCounts> = None;
    let mut latency_counts: Option<ClusterCounts> = None;

    let measure_start = Instant::now();
    // A stop-loss, not a sizing rule: the planned rounds normally finish
    // well inside it.
    let hard_stop_s = opts.seconds * 1.6 + 5.0;
    let mut rounds_done = 0;
    for step in 0..plan.warmup_rounds + plan.rounds {
        let recorded = step >= plan.warmup_rounds;
        let round = step.saturating_sub(plan.warmup_rounds);
        if recorded && round > 0 && measure_start.elapsed().as_secs_f64() > hard_stop_s {
            tally.findings.push(format!(
                "stopped after {round} of {} rounds: the run is far over its time budget",
                plan.rounds
            ));
            break;
        }
        // setup_s
        for _ in 0..plan.setup_per_round {
            let secs = run_setup(w, placement)?;
            if recorded {
                setup.samples.push(secs);
            }
        }
        // seq_events_per_s
        let (secs, counts) = run_seq(w, seq_events, Tail::Cut, None)?;
        tally.attempted += counts.events;
        tally.expect_same("sequential engine", &mut seq_counts, counts);
        if recorded {
            seq.samples.push(counts.events as f64 / secs);
        }
        // sharded_events_per_s
        let (secs, counts) = run_sharded(w, sharded_events, Tail::Cut, placement, None)?;
        tally.attempted += counts.events;
        tally.expect_same("sharded engine", &mut sharded_counts, counts);
        if recorded {
            sharded.samples.push(counts.events as f64 / secs);
        }
        // cluster_cpu_ns_per_event and wire_bytes_per_event: saturated star(2).
        let run = run_desis_cluster(
            w,
            Topology::star(LOCALS),
            cluster_feeds.clone(),
            None,
            placement,
        )?;
        tally.attempted += cluster_events;
        tally.expect_same("star(2) cluster", &mut cluster_counts, run.counts());
        if !run.report.lost_children.is_empty() || run.nacks > 0 {
            tally.fail(
                cluster_events,
                format!(
                    "star(2) cluster: lost children {:?}, {} NACKs without faults",
                    run.report.lost_children, run.nacks
                ),
            );
        }
        if recorded {
            let events = cluster_events as f64;
            cluster_cpu.samples.push(run.cpu_ns as f64 / events);
            wire.samples.push(run.report.total_bytes() as f64 / events);
            saturated.samples.push(events / run.wall_s);
        }
        // cluster_latency_p50_ms: paced three_tier(1, 1), open loop.
        let due = if recorded { plan.latency_due(round) } else { 1 };
        for _ in 0..due {
            let run = run_desis_cluster(
                w,
                Topology::three_tier(1, 1),
                latency_feed.clone(),
                Some(sizes.pace_speedup),
                placement,
            )?;
            tally.attempted += latency_events;
            tally.expect_same(
                "paced three_tier(1,1) cluster",
                &mut latency_counts,
                run.counts(),
            );
            if !recorded {
                continue;
            }
            let over = ratio(run.wall_s, scheduled_s);
            overrun.samples.push(over);
            match run.report.latency_percentile_ms(0.5) {
                Some(p50) => latency.samples.push(p50),
                None => tally.fail(1, "paced run produced no latency samples".into()),
            }
        }
        if recorded {
            rounds_done = round + 1;
        }
    }
    let measure_s = measure_start.elapsed().as_secs_f64();

    for counts in [seq_counts, sharded_counts].into_iter().flatten() {
        if counts.late_dropped > 0 {
            tally.fail(
                counts.late_dropped,
                format!(
                    "{} events dropped inside the lateness bound",
                    counts.late_dropped
                ),
            );
        }
    }
    if let (Some(a), Some(b)) = (seq_counts, sharded_counts) {
        if seq_events == sharded_events && a.results != b.results {
            tally.fail(
                a.results.abs_diff(b.results),
                format!(
                    "sequential drained {} results, sharded {}",
                    a.results, b.results
                ),
            );
        }
    }
    if wire.samples.windows(2).any(|p| p[0] != p[1]) {
        tally.fail(
            1,
            "wire_bytes_per_event differs between runs on the same input".into(),
        );
    }

    let summaries = [&setup, &seq, &sharded, &cluster_cpu, &latency, &wire];
    let metrics: Vec<(&'static str, f64, &'static str)> = summaries
        .iter()
        .map(|s| (s.name, s.value(), s.unit))
        .collect();
    for (name, value, _) in &metrics {
        if !value.is_finite() || *value <= 0.0 {
            tally.fail(1, format!("{name} has no valid samples"));
        }
    }
    let body: Body = vec![
        (
            "harness",
            Json::object([
                ("input_gen_s", Json::Num(input_gen_s)),
                ("gate_s", Json::Num(gate_s)),
                ("measure_s", Json::Num(measure_s)),
                ("rounds_planned", Json::Num(plan.rounds as f64)),
                ("rounds_done", Json::Num(rounds_done as f64)),
                ("warmup_rounds", Json::Num(plan.warmup_rounds as f64)),
                ("pace_speedup", Json::Num(sizes.pace_speedup)),
                ("scheduled_paced_run_s", Json::Num(scheduled_s)),
            ]),
        ),
        (
            "counts",
            Json::object([
                (
                    "gate_events",
                    Json::Num(w.whole_laps(sizes.gate_events) as f64),
                ),
                (
                    "gate_reference_results",
                    Json::Num(gate.reference.len() as f64),
                ),
                ("seq", engine_counts_json(seq_counts)),
                ("sharded", engine_counts_json(sharded_counts)),
                ("cluster", cluster_counts_json(cluster_counts)),
                ("paced_cluster", cluster_counts_json(latency_counts)),
            ]),
        ),
        (
            "end_to_end",
            Json::object(summaries.iter().map(|s| (s.name, s.to_json()))),
        ),
        (
            "explain",
            Json::object(
                [saturated.name, overrun.name]
                    .into_iter()
                    .zip([saturated.to_json(), overrun.to_json()]),
            ),
        ),
    ];
    Ok((
        Outcome {
            correct: tally.failed == 0 && tally.findings.is_empty(),
            attempted: tally.attempted.max(1),
            failed: tally.failed,
            metrics,
            findings: tally.findings,
        },
        body,
    ))
}

fn engine_counts_json(counts: Option<EngineCounts>) -> Json {
    counts.map_or(Json::Null, |c| {
        Json::object([
            ("events", Json::Num(c.events as f64)),
            ("results", Json::Num(c.results as f64)),
            ("late_dropped", Json::Num(c.late_dropped as f64)),
        ])
    })
}

fn cluster_counts_json(counts: Option<ClusterCounts>) -> Json {
    counts.map_or(Json::Null, |c| {
        Json::object([
            ("events", Json::Num(c.events as f64)),
            ("results", Json::Num(c.results as f64)),
            ("bytes", Json::Num(c.bytes as f64)),
            ("frames", Json::Num(c.frames as f64)),
            ("root_raw_events", Json::Num(c.root_raw_events as f64)),
        ])
    })
}

// ---------------------------------------------------------------------
// Traced run: per-layer metrics.
// ---------------------------------------------------------------------

/// Results of one pass over the four chains.
struct Pass {
    seq: replay::SeqChain,
    sharded: replay::ShardedChain,
    shard_merge: replay::ShardMergeChain,
    cluster: replay::ClusterChain,
    nodes: replay::NodesChain,
}

impl Pass {
    fn wall_ns(&self) -> u64 {
        self.seq.wall_ns
            + self.sharded.wall_ns
            + self.shard_merge.wall_ns
            + self.cluster.wall_ns
            + self.nodes.wall_ns
    }
}

fn chains(
    w: &Workload,
    events: u64,
    feeds: &[Vec<desis_core::event::Event>],
    spans: &mut Spans,
    placement: &Placement,
) -> Result<Pass, String> {
    Ok(Pass {
        seq: replay::seq_chain(w, events, spans)?,
        sharded: replay::sharded_chain(w, events, spans, placement)?,
        shard_merge: replay::shard_merge_chain(w, events, spans)?,
        cluster: replay::cluster_chain(w, feeds, spans)?,
        nodes: replay::nodes_chain(w, feeds, spans)?,
    })
}

/// Repeats of the saturated and of the paced cluster run in a traced run.
const TRACE_CLUSTER_RUNS: usize = 3;

fn traced(
    opts: &Options,
    w: &Workload,
    placement: &Placement,
    gen: Instant,
) -> Result<(Outcome, Body), String> {
    let sizes = w.sizes;
    let events = w.whole_laps(sizes.trace_events);
    let ordered = w.ordered_prefix(events);
    let feeds = Workload::feeds(&ordered);
    let latency_events = w.whole_laps(sizes.latency_events);
    let latency_feed = vec![w.ordered_prefix(latency_events)];
    let input_gen_s = gen.elapsed().as_secs_f64();
    let mut tally = Tally::default();

    // The same replay with spans off, on, and off again: the traced pass
    // against the faster plain pass is what recording costs.
    let mut off = Spans::new(false);
    let plain = chains(w, events, &feeds, &mut off, placement)?;
    let mut spans = Spans::new(true);
    let groups = replay::analyzer_probe(w, 5, &mut spans)?;
    let pass = chains(w, events, &feeds, &mut spans, placement)?;
    let plain_again = chains(w, events, &feeds, &mut off, placement)?;
    let plain = if plain_again.wall_ns() < plain.wall_ns() {
        plain_again
    } else {
        plain
    };
    let micro_values = &ordered[..ordered.len().min(1 << 16)];
    let aggregate = replay::aggregate_micro(&pass.seq, micro_values, &mut spans);

    // The real cluster on the same input: the chain must agree with it.
    let mut saturated = Vec::new();
    let mut cluster_run = None;
    for _ in 0..TRACE_CLUSTER_RUNS {
        let run = run_desis_cluster(w, Topology::star(LOCALS), feeds.clone(), None, placement)?;
        saturated.push(events as f64 / run.wall_s);
        cluster_run = Some(run);
    }
    let cluster_run = cluster_run.expect("at least one cluster run");
    let mut p99s = Vec::new();
    let mut overruns = Vec::new();
    for _ in 0..if opts.smoke { 1 } else { TRACE_CLUSTER_RUNS } {
        let run = run_desis_cluster(
            w,
            Topology::three_tier(1, 1),
            latency_feed.clone(),
            Some(sizes.pace_speedup),
            placement,
        )?;
        let scheduled_s = scheduled_feed_s(&latency_feed[0], sizes.pace_speedup);
        overruns.push(ratio(run.wall_s, scheduled_s));
        p99s.extend(run.report.latency_percentile_ms(0.99));
    }

    // Checks: every chain against the real cluster's results, the
    // cluster chain's wire against the real wire, and the two passes
    // against each other.
    let want: &[QueryResult] = &cluster_run.report.results;
    let mut judge = |what: &str, got: &[QueryResult], want: &[QueryResult]| {
        tally.attempted += events + want.len() as u64;
        let wrong = gate::mismatches(got, want);
        if wrong > 0 {
            tally.fail(
                wrong,
                format!(
                    "{what}: {wrong} results differ ({} vs {})",
                    got.len(),
                    want.len()
                ),
            );
        }
    };
    judge("sequential chain vs run_cluster", &pass.seq.results, want);
    judge("sharded chain vs run_cluster", &pass.sharded.results, want);
    judge("cluster chain vs run_cluster", &pass.cluster.results, want);
    judge("worker replay vs run_cluster", &pass.nodes.results, want);
    judge(
        "untraced sequential chain",
        &plain.seq.results,
        &pass.seq.results,
    );
    judge(
        "untraced cluster chain",
        &plain.cluster.results,
        &pass.cluster.results,
    );
    let unfixed_want: Vec<QueryResult> = {
        let ids: Vec<u64> = pass.shard_merge.results.iter().map(|r| r.query).collect();
        want.iter()
            .filter(|r| ids.contains(&r.query))
            .cloned()
            .collect()
    };
    if pass.shard_merge.slices > 0 {
        judge(
            "shard-merge chain vs run_cluster",
            &pass.shard_merge.results,
            &unfixed_want,
        );
    }
    let real = cluster_run.counts();
    if (pass.cluster.bytes, pass.cluster.frames) != (real.bytes, real.frames) {
        tally.fail(
            1,
            format!(
                "cluster chain put {} bytes in {} frames on the wire, run_cluster {} in {}",
                pass.cluster.bytes, pass.cluster.frames, real.bytes, real.frames
            ),
        );
    }
    let dropped = pass.seq.late_dropped + pass.sharded.late_dropped;
    if dropped > 0 {
        tally.fail(
            dropped,
            format!("{dropped} events dropped inside the lateness bound"),
        );
    }
    if cluster_run.nacks > 0 || !cluster_run.report.lost_children.is_empty() {
        tally.fail(
            events,
            "run_cluster lost children or sent NACKs without faults".into(),
        );
    }

    let times = spans.self_times();
    let values = per_layer_values(
        w,
        groups,
        &pass,
        &plain,
        &aggregate,
        &times,
        &spans,
        &PerLayerCluster {
            frames: real.frames,
            events,
            root_raw_events: real.root_raw_events,
            saturated_events_per_s: median(&saturated),
            latency_p99_ms: median(&p99s),
            pace_overrun_ratio: median(&overruns),
            nacks: cluster_run.nacks,
        },
    );
    let metrics: Vec<(&'static str, f64, &'static str)> = PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            (*name, value, *unit)
        })
        .collect();
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            tally.fail(1, format!("per-layer metric {name} was not measured"));
        }
    }

    let trace_path = opts
        .out
        .join(format!("{}-seed{}.trace.json", w.name, opts.seed));
    write_file(&trace_path, &spans.to_chrome_json().to_line())?;
    eprintln!("chrome trace: {}", trace_path.display());

    let lane_wall = |lane: Lane| match lane {
        Lane::Seq => pass.seq.wall_ns,
        Lane::Sharded => pass.sharded.wall_ns,
        Lane::ShardMerge => pass.shard_merge.wall_ns,
        Lane::Cluster => pass.cluster.wall_ns,
        Lane::Nodes => pass.nodes.wall_ns,
        Lane::Setup | Lane::Aggregate => 0,
    };
    let layers: Vec<Json> = times
        .iter()
        .map(|t| {
            Json::object([
                ("lane", Json::str(format!("{:?}", t.lane))),
                ("layer", Json::str(t.layer)),
                ("calls", Json::Num(t.calls as f64)),
                ("self_ns", Json::Num(t.self_ns as f64)),
                ("total_ns", Json::Num(t.total_ns as f64)),
                (
                    "share_of_lane_wall",
                    Json::Num(ratio(t.self_ns as f64, lane_wall(t.lane) as f64)),
                ),
            ])
        })
        .collect();
    let body: Body = vec![
        (
            "harness",
            Json::object([
                ("input_gen_s", Json::Num(input_gen_s)),
                ("trace_events", Json::Num(events as f64)),
                ("traced_replay_s", Json::Num(pass.wall_ns() as f64 / 1e9)),
                ("plain_replay_s", Json::Num(plain.wall_ns() as f64 / 1e9)),
                ("spans_dropped", Json::Num(spans.dropped as f64)),
            ]),
        ),
        (
            "per_layer",
            Json::object(metrics.iter().map(|(name, value, unit)| {
                (
                    *name,
                    Json::object([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                )
            })),
        ),
        ("layers", Json::Arr(layers)),
    ];
    Ok((
        Outcome {
            correct: tally.failed == 0 && tally.findings.is_empty(),
            attempted: tally.attempted.max(1),
            failed: tally.failed,
            metrics,
            findings: tally.findings,
        },
        body,
    ))
}

/// Cluster-run figures that feed the `cluster.*` per-layer metrics.
struct PerLayerCluster {
    frames: u64,
    events: u64,
    root_raw_events: u64,
    saturated_events_per_s: f64,
    latency_p99_ms: f64,
    pace_overrun_ratio: f64,
    nacks: u64,
}

/// Every per-layer metric: a layer's self time in the traced pass divided
/// by the matching count, or a count read from a public accessor.
#[allow(clippy::too_many_arguments)]
fn per_layer_values(
    w: &Workload,
    groups: usize,
    pass: &Pass,
    plain: &Pass,
    aggregate: &replay::AggregateCounts,
    times: &[LayerTime],
    spans: &Spans,
    cluster: &PerLayerCluster,
) -> Vec<(&'static str, f64)> {
    let self_ns = |lane, layer| layer_time(times, lane, layer).self_ns as f64;
    let total_ns = |lane, layer| layer_time(times, lane, layer).total_ns as f64;
    let per = |ns: f64, count: u64| ratio(ns, count as f64);
    let analyzer = layer_time(times, Lane::Setup, "analyzer");
    let seq = &pass.seq;
    let sharded = &pass.sharded;
    let chain = &pass.cluster;
    let nodes = &pass.nodes;
    let assembler_ns = self_ns(Lane::Seq, "assembler");
    let time_assembler_ns = self_ns(Lane::Cluster, "merge.time_assembler");
    let chain_lanes = [
        Lane::Seq,
        Lane::Sharded,
        Lane::ShardMerge,
        Lane::Cluster,
        Lane::Nodes,
    ];
    let covered: u64 = times
        .iter()
        .filter(|t| chain_lanes.contains(&t.lane))
        .map(|t| t.self_ns)
        .sum();
    vec![
        (
            "analyzer.us_per_query",
            per(
                analyzer.self_ns as f64 / 1e3,
                analyzer.calls * w.queries.len() as u64,
            ),
        ),
        ("analyzer.groups", groups as f64),
        (
            "reorder.ns_per_event",
            per(self_ns(Lane::Seq, "reorder"), seq.events),
        ),
        ("reorder.buffered_max", seq.buffered_max as f64),
        ("reorder.late_dropped", seq.late_dropped as f64),
        (
            "slicer.ns_per_event",
            per(self_ns(Lane::Seq, "slicer"), seq.events),
        ),
        (
            "slicer.calculations_per_event",
            per(seq.calculations as f64, seq.events),
        ),
        (
            "slicer.events_per_slice",
            per(seq.group_ingests as f64, seq.slices),
        ),
        ("slicer.slices", seq.slices as f64),
        (
            "aggregate.update_ns_per_value",
            per(
                self_ns(Lane::Aggregate, "aggregate.update"),
                aggregate.updates,
            ),
        ),
        (
            "aggregate.seal_ns_per_bundle",
            per(self_ns(Lane::Aggregate, "aggregate.seal"), aggregate.seals),
        ),
        (
            "aggregate.merge_ns_per_bundle",
            per(
                self_ns(Lane::Aggregate, "aggregate.merge"),
                aggregate.merges,
            ),
        ),
        (
            "aggregate.finalize_ns_per_result",
            per(
                self_ns(Lane::Aggregate, "aggregate.finalize"),
                aggregate.finalizes,
            ),
        ),
        ("assembler.ns_per_slice", per(assembler_ns, seq.slices)),
        ("assembler.ns_per_result", per(assembler_ns, seq.assembled)),
        (
            "assembler.merges_per_result",
            per(seq.merges as f64, seq.assembled),
        ),
        ("assembler.retained_slices_max", seq.retained_max as f64),
        (
            "parallel.inlet_ns_per_event",
            per(self_ns(Lane::Sharded, "parallel.inlet"), sharded.events),
        ),
        (
            "parallel.barrier_us_per_watermark",
            per(
                self_ns(Lane::Sharded, "parallel.barrier") / 1e3,
                sharded.watermarks,
            ),
        ),
        (
            "parallel.fixed_assembler_ns_per_slice",
            per(
                self_ns(Lane::Sharded, "parallel.fixed_assembler"),
                sharded.fixed_slices,
            ),
        ),
        (
            "parallel.fixed_merges_per_result",
            per(sharded.fixed_merges as f64, sharded.fixed_results),
        ),
        (
            "parallel.unfixed_merge_ns_per_slice",
            per(
                self_ns(Lane::ShardMerge, "parallel.unfixed_merge"),
                pass.shard_merge.slices,
            ),
        ),
        (
            "parallel.shard_imbalance_permille",
            sharded.imbalance_permille as f64,
        ),
        (
            "codec.encode_ns_per_frame",
            per(self_ns(Lane::Cluster, "codec.encode"), chain.frames),
        ),
        (
            "codec.decode_ns_per_frame",
            per(self_ns(Lane::Cluster, "codec.decode"), chain.frames),
        ),
        (
            "codec.bytes_per_frame",
            per(chain.bytes as f64, chain.frames),
        ),
        // Inclusive: `send` encodes and `recv` decodes inside the link,
        // where no harness span can reach.
        (
            "link.send_recv_ns_per_frame",
            per(total_ns(Lane::Cluster, "link"), chain.frames),
        ),
        (
            "merge.aligned_ns_per_slice",
            per(
                self_ns(Lane::Cluster, "merge.aligned"),
                chain.root.aligned_slices,
            ),
        ),
        (
            "merge.time_assembler_ns_per_slice",
            per(time_assembler_ns, chain.root.time_assembler_slices),
        ),
        (
            "merge.time_assembler_ns_per_result",
            per(time_assembler_ns, chain.root.time_assembler_results),
        ),
        (
            "merge.time_assembler_retained_max",
            chain.root.time_assembler_retained_max as f64,
        ),
        (
            "merge.unfixed_ns_per_slice",
            per(
                self_ns(Lane::Cluster, "merge.unfixed"),
                chain.root.unfixed_slices,
            ),
        ),
        (
            "merge.event_merger_ns_per_event",
            per(
                self_ns(Lane::Cluster, "merge.event_merger"),
                chain.root.raw_events,
            ),
        ),
        (
            "node.local_ns_per_event",
            per(total_ns(Lane::Nodes, "node.local"), nodes.events),
        ),
        (
            "node.intermediate_ns_per_message",
            per(
                total_ns(Lane::Nodes, "node.intermediate"),
                nodes.intermediate_messages,
            ),
        ),
        (
            "node.root_ns_per_message",
            per(total_ns(Lane::Nodes, "node.root"), nodes.root_messages),
        ),
        (
            "cluster.frames_per_kevent",
            per(cluster.frames as f64 * 1e3, cluster.events),
        ),
        (
            "cluster.root_raw_event_share",
            per(cluster.root_raw_events as f64, cluster.events),
        ),
        (
            "cluster.saturated_events_per_s",
            cluster.saturated_events_per_s,
        ),
        ("cluster.latency_p99_ms", cluster.latency_p99_ms),
        ("cluster.pace_overrun_ratio", cluster.pace_overrun_ratio),
        ("recovery.nacks", cluster.nacks as f64),
        (
            "trace.overhead_ratio",
            ratio(pass.wall_ns() as f64, plain.wall_ns() as f64),
        ),
        (
            "trace.layer_coverage",
            ratio(covered as f64, pass.wall_ns() as f64),
        ),
        ("trace.spans", spans.spans().len() as f64),
    ]
}
