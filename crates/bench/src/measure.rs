//! Measurement helpers: single-node throughput, result-production
//! latency, and workload scaling.

use std::sync::Arc;
use std::time::Instant;

use desis_baselines::SystemKind;
use desis_core::event::Event;
use desis_core::metrics::EngineMetrics;
use desis_core::obs::prof::{FlightRecorder, ProfileReport};
use desis_core::obs::{MetricsDiff, MetricsRegistry};
use desis_core::query::Query;
use desis_core::time::Timestamp;

/// Workload scale. The paper runs 100M-event streams on a 36-core server;
/// `Quick` shrinks event counts so the whole suite finishes in minutes on
/// a laptop, `Full` runs closer to paper scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Laptop scale (default).
    #[default]
    Quick,
    /// Larger runs, closer to the paper's workloads.
    Full,
}

impl Scale {
    /// Scales a baseline event count.
    pub fn events(self, quick: u64) -> u64 {
        match self {
            Scale::Quick => quick,
            Scale::Full => quick.saturating_mul(10),
        }
    }

    /// Scales a query count sweep: returns the sweep points.
    pub fn query_sweep(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![1, 10, 100, 1_000],
            Scale::Full => vec![1, 10, 100, 1_000, 10_000],
        }
    }

    /// Parses `"quick"` / `"full"`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// Result of one single-node measurement run.
#[derive(Debug, Clone)]
pub struct SingleNodeRun {
    /// Sustained events per second.
    pub throughput: f64,
    /// Engine metrics after the run.
    pub metrics: EngineMetrics,
    /// Results produced.
    pub results: usize,
}

/// The registry of one single-node run: fresh, and profiled on the
/// harness registry's clock iff that one is.
fn run_registry(harness: &MetricsRegistry) -> Arc<MetricsRegistry> {
    let clock = harness.prof_clock().cloned();
    Arc::new(clock.map_or_else(MetricsRegistry::new, MetricsRegistry::profiled))
}

/// Merges a finished run's registry into the harness's under
/// `single.<System>.`, as cluster reports merge under
/// `cluster.<System>.` (counters of repeated runs add up).
fn merge_run(harness: &MetricsRegistry, system: SystemKind, run: &MetricsRegistry) {
    harness.merge_snapshot(&format!("single.{}.", system.label()), &run.snapshot());
}

/// Runs `system` over `events` and measures wall-clock throughput.
///
/// Results are drained as produced (so memory stays bounded) and a final
/// watermark fires pending windows; the clock covers event processing
/// only, matching the paper's sustainable-throughput methodology. The
/// system runs in a registry of its own, which ends up in `registry`
/// under `single.<System>.` — its `engine.*` metrics and, when `registry`
/// is profiled, the `seq` lane's stage time — so
/// `experiments --metrics-out` covers single-node runs too.
pub fn measure_throughput(
    registry: &MetricsRegistry,
    system: SystemKind,
    queries: Vec<Query>,
    events: &[Event],
    final_wm: Timestamp,
) -> SingleNodeRun {
    let run_registry = run_registry(registry);
    let mut p = system
        .build_in(queries, &run_registry)
        .expect("valid queries");
    let mut results = 0usize;
    let start = Instant::now();
    for (i, ev) in events.iter().enumerate() {
        p.on_event(ev);
        if i % 8192 == 0 {
            results += p.drain_results().len();
        }
    }
    p.on_watermark(final_wm);
    results += p.drain_results().len();
    let elapsed = start.elapsed();
    let metrics = p.metrics();
    // The naive systems publish nothing themselves; dropping the system
    // flushes an engine's lane.
    drop(p);
    metrics.publish(&run_registry, "engine");
    merge_run(registry, system, &run_registry);
    SingleNodeRun {
        throughput: events.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        metrics,
        results,
    }
}

/// Measures result-production latency: the duration of each ingest call
/// that produced at least one result (for incremental systems this is the
/// cost of merging slice partials; for CeBuffer it includes the full
/// buffer scan). Returns latencies in milliseconds and records them as
/// `result_latency_us` in the run's own registry, which ends up in
/// `registry` under `single.<System>.` like [`measure_throughput`]'s.
pub fn measure_result_latency(
    registry: &MetricsRegistry,
    system: SystemKind,
    queries: Vec<Query>,
    events: &[Event],
    final_wm: Timestamp,
) -> Vec<f64> {
    let run_registry = run_registry(registry);
    let hist = run_registry.histogram("result_latency_us");
    let mut p = system
        .build_in(queries, &run_registry)
        .expect("valid queries");
    let mut latencies = Vec::new();
    for ev in events {
        let t0 = Instant::now();
        p.on_event(ev);
        let dt = t0.elapsed();
        if !p.drain_results().is_empty() {
            hist.record_secs(dt.as_secs_f64());
            latencies.push(dt.as_secs_f64() * 1e3);
        }
    }
    let t0 = Instant::now();
    p.on_watermark(final_wm);
    let dt = t0.elapsed();
    if !p.drain_results().is_empty() {
        hist.record_secs(dt.as_secs_f64());
        latencies.push(dt.as_secs_f64() * 1e3);
    }
    drop(p);
    merge_run(registry, system, &run_registry);
    latencies
}

/// Schema version of [`metrics_report`]'s JSON.
pub const REPORT_VERSION: u32 = 1;

/// The one report of an `experiments` process, as JSON:
/// `{"version":1,"figures":{id:<MetricsDiff>},"process":<MetricsSnapshot>}`
/// plus, for a profiled process (`profile` = its wall span in
/// nanoseconds and its flight timeline), `"profile":<ProfileReport>` and
/// `"flight":[<frame>…]`. Each figure entry carries the
/// counters/histograms that moved while that figure ran (with per-second
/// rates over its wall time), so a figure's numbers are separable from
/// the process totals; `process` is `registry`'s snapshot, everything the
/// process ran, and `profile` the stage table read from that same
/// snapshot.
pub fn metrics_report(
    registry: &MetricsRegistry,
    figures: &[(String, f64, MetricsDiff)],
    profile: Option<(u64, &FlightRecorder)>,
) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{{\"version\":{REPORT_VERSION},\"figures\":{{");
    for (i, (id, elapsed_secs, diff)) in figures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{id}\":{}", diff.to_json(*elapsed_secs));
    }
    let snapshot = registry.snapshot();
    out.push_str("},\"process\":");
    out.push_str(&snapshot.to_json());
    if let Some((wall_ns, flight)) = profile {
        let report = ProfileReport::from_snapshot(&snapshot, wall_ns);
        let _ = write!(out, ",\"profile\":{},\"flight\":", report.to_json());
        flight.write_json(&mut out);
    }
    out.push('}');
    out
}

/// Mean of a sample set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Percentile (`q` in `0..=1`) of a sample set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Harness;
    use desis_core::aggregate::AggFunction;
    use desis_core::window::WindowSpec;

    #[test]
    fn throughput_measurement_runs() {
        let queries = vec![Query::new(
            1,
            WindowSpec::tumbling_time(100).unwrap(),
            AggFunction::Average,
        )];
        let events: Vec<Event> = (0..10_000).map(|i| Event::new(i, 0, 1.0)).collect();
        let registry = MetricsRegistry::new();
        let run = measure_throughput(&registry, SystemKind::Desis, queries, &events, 20_000);
        assert!(run.throughput > 0.0);
        assert_eq!(run.metrics.events, 10_000);
        assert_eq!(run.results, 100);
    }

    #[test]
    fn throughput_run_publishes_into_the_given_registry() {
        let queries = vec![Query::new(
            1,
            WindowSpec::tumbling_time(100).unwrap(),
            AggFunction::Sum,
        )];
        let events: Vec<Event> = (0..1_000).map(|i| Event::new(i, 0, 1.0)).collect();
        let harness = Harness::quick();
        measure_throughput(
            &harness.registry,
            SystemKind::Desis,
            queries,
            &events,
            2_000,
        );
        let snap = harness.registry.snapshot();
        assert_eq!(snap.counters["single.Desis.engine.events"], 1_000);
    }

    #[test]
    fn latency_measurement_collects_samples() {
        let queries = vec![Query::new(
            1,
            WindowSpec::tumbling_time(100).unwrap(),
            AggFunction::Average,
        )];
        let events: Vec<Event> = (0..5_000).map(|i| Event::new(i, 0, 1.0)).collect();
        let registry = MetricsRegistry::new();
        let lats =
            measure_result_latency(&registry, SystemKind::CeBuffer, queries, &events, 10_000);
        assert!(lats.len() >= 40);
        assert!(lats.iter().all(|l| *l >= 0.0));
    }

    #[test]
    fn profiled_harness_profiles_single_node_runs() {
        use desis_core::obs::prof::ProfClock;
        let queries = vec![Query::new(
            1,
            WindowSpec::tumbling_time(100).unwrap(),
            AggFunction::Sum,
        )];
        let events: Vec<Event> = (0..1_000).map(|i| Event::new(i, 0, 1.0)).collect();
        let registry = MetricsRegistry::profiled(ProfClock::wall());
        measure_throughput(
            &registry,
            SystemKind::Scotty,
            queries.clone(),
            &events,
            2_000,
        );
        measure_result_latency(&registry, SystemKind::Scotty, queries, &events, 2_000);
        let snap = registry.snapshot();
        // 1 000 events and one watermark, twice.
        assert_eq!(snap.counters["single.Scotty.prof.seq.slicer_calls"], 2_002);
        assert_eq!(snap.histograms["single.Scotty.result_latency_us"].count, 10);
        let report = ProfileReport::from_snapshot(&snap, 1);
        assert_eq!(report.lanes.len(), 1);
        assert_eq!(report.lanes[0].lane, "seq");
    }

    /// The report's schema, byte for byte: a fixed span script on a manual
    /// clock, one flight frame.
    #[cfg(not(feature = "prof-alloc"))]
    #[test]
    fn report_schema_is_pinned() {
        use desis_core::obs::prof::{self, ProfClock, Stage};
        use std::sync::atomic::Ordering;
        let (clock, tick) = ProfClock::manual();
        let registry = Arc::new(MetricsRegistry::profiled(clock.clone()));
        let mut flight = FlightRecorder::new(clock, 8);
        flight.tick(&registry);
        let mut main = registry.lane("main");
        let mut seq = registry.lane("seq");
        {
            let _figure = prof::scope(&mut main, Stage::Handler);
            for ns in [300, 200] {
                let _slice = prof::scope(&mut seq, Stage::Slicer);
                tick.fetch_add(ns, Ordering::Relaxed);
            }
            let t0 = prof::stamp(&seq);
            tick.fetch_add(400, Ordering::Relaxed);
            prof::record(&mut seq, Stage::Assemble, t0);
            tick.fetch_add(100, Ordering::Relaxed);
        }
        drop((main, seq));
        registry.counter("single.Desis.engine.events").add(7);
        registry.gauge("depth").set(3);
        flight.tick(&registry);
        let report = metrics_report(&registry, &[], Some((1_000, &flight)));
        let prof_counters = "\"prof.main.handler_calls\":1,\"prof.main.handler_ns\":1000,\
            \"prof.seq.assemble_calls\":1,\"prof.seq.assemble_ns\":400,\
            \"prof.seq.slicer_calls\":2,\"prof.seq.slicer_ns\":500,\
            \"single.Desis.engine.events\":7";
        let want = format!(
            "{{\"version\":1,\"figures\":{{}},\
             \"process\":{{\"counters\":{{{prof_counters}}},\"gauges\":{{\"depth\":3}},\
             \"histograms\":{{}}}},\
             \"profile\":{{\"wall_ns\":1000,\"coverage\":1.0000,\"lanes\":{{\
             \"main\":{{\"total_ns\":1000,\"stages\":{{\
             \"handler\":{{\"ns\":1000,\"calls\":1}}}}}},\
             \"seq\":{{\"total_ns\":900,\"stages\":{{\
             \"slicer\":{{\"ns\":500,\"calls\":2}},\
             \"assemble\":{{\"ns\":400,\"calls\":1}}}}}}}}}},\
             \"flight\":[{{\"at_ms\":0.001,\"counters\":{{{prof_counters}}},\
             \"gauges\":{{\"depth\":3}}}}]}}"
        );
        assert_eq!(report, want);
    }

    #[test]
    fn stats_helpers() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn scale_parsing_and_scaling() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("bogus"), None);
        assert_eq!(Scale::Quick.events(100), 100);
        assert_eq!(Scale::Full.events(100), 1_000);
    }
}
