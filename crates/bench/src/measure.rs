//! Measurement helpers: single-node throughput, result-production
//! latency, and workload scaling.

use std::time::Instant;

use desis_baselines::SystemKind;
use desis_core::event::Event;
use desis_core::metrics::EngineMetrics;
use desis_core::obs::MetricsRegistry;
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

/// Runs `system` over `events` and measures wall-clock throughput.
///
/// Results are drained as produced (so memory stays bounded) and a final
/// watermark fires pending windows; the clock covers event processing
/// only, matching the paper's sustainable-throughput methodology. The
/// run's engine metrics accumulate into `registry` under
/// `single.<System>.engine.` (counters of repeated runs add up), so
/// `experiments --metrics-out` covers single-node runs too.
pub fn measure_throughput(
    registry: &MetricsRegistry,
    system: SystemKind,
    queries: Vec<Query>,
    events: &[Event],
    final_wm: Timestamp,
) -> SingleNodeRun {
    let mut p = system.build(queries).expect("valid queries");
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
    let run_registry = MetricsRegistry::new();
    metrics.publish(&run_registry, "engine");
    registry.merge_snapshot(
        &format!("single.{}.", system.label()),
        &run_registry.snapshot(),
    );
    SingleNodeRun {
        throughput: events.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        metrics,
        results,
    }
}

/// Measures result-production latency: the duration of each ingest call
/// that produced at least one result (for incremental systems this is the
/// cost of merging slice partials; for CeBuffer it includes the full
/// buffer scan). Returns latencies in milliseconds and records them into
/// `registry` as `single.<System>.result_latency_us`.
pub fn measure_result_latency(
    registry: &MetricsRegistry,
    system: SystemKind,
    queries: Vec<Query>,
    events: &[Event],
    final_wm: Timestamp,
) -> Vec<f64> {
    let hist = registry.histogram(&format!("single.{}.result_latency_us", system.label()));
    let mut p = system.build(queries).expect("valid queries");
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
    latencies
}

/// Writes per-figure metric deltas plus `registry`'s snapshot (everything
/// the process ran) as JSON:
/// `{"figures":{id:<MetricsDiff>},"process":<MetricsSnapshot>}`.
/// Each figure entry carries the counters/histograms that moved while
/// that figure ran (with per-second rates over its wall time), so a
/// figure's numbers are separable from the process totals.
pub fn write_metrics_report(
    path: &std::path::Path,
    registry: &MetricsRegistry,
    figures: &[(String, f64, desis_core::obs::MetricsDiff)],
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::from("{\"figures\":{");
    for (i, (id, elapsed_secs, diff)) in figures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{id}\":{}", diff.to_json(*elapsed_secs));
    }
    out.push_str("},\"process\":");
    out.push_str(&registry.snapshot().to_json());
    out.push('}');
    std::fs::write(path, out)
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
