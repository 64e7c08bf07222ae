//! Figure 8: multiple queries with different window types (paper Section
//! 6.3.1).
//!
//! Single-node comparison of Desis, DeSW, DeBucket, and CeBuffer over
//! concurrent tumbling windows (8a/8b) and a 50% user-defined window mix
//! (8c/8d), measuring throughput and the number of slices produced per
//! minute of event time.

use desis_baselines::SystemKind;
use desis_core::aggregate::AggFunction;
use desis_core::query::Query;
use desis_core::time::MINUTE;
use desis_core::window::WindowSpec;
use desis_gen::{spread_tumbling_queries, DataGenConfig, DataGenerator, MarkerConfig};

use super::adaptive_events;
use crate::figure::{Figure, Series};
use crate::harness::Harness;
use crate::measure::measure_throughput;

/// The four optimization-experiment systems (Section 6.3).
pub(crate) fn optimization_systems() -> [SystemKind; 4] {
    [
        SystemKind::Desis,
        SystemKind::DeSw,
        SystemKind::DeBucket,
        SystemKind::CeBuffer,
    ]
}

/// Queries: tumbling 1–10 s, optionally half user-defined (channel 0).
pub(crate) fn window_mix(n: usize, half_user_defined: bool) -> Vec<Query> {
    let mut queries = spread_tumbling_queries(n, 10, AggFunction::Average);
    if half_user_defined {
        for q in queries.iter_mut().skip(1).step_by(2) {
            q.window = WindowSpec::user_defined(0);
        }
    }
    queries
}

/// The event stream for Figure 8: 10 keys and (for the user-defined mix)
/// one marker per second. `events_per_second` is chosen by the caller:
/// high density for throughput figures, a fixed 60 s span for slice-rate
/// figures.
pub(crate) fn fig8_stream_at(
    n: u64,
    events_per_second: u64,
    with_markers: bool,
) -> Vec<desis_core::event::Event> {
    DataGenerator::new(DataGenConfig {
        keys: 10,
        events_per_second,
        markers: with_markers.then_some(MarkerConfig {
            channel: 0,
            window_ms: 500,
            pause_ms: 500,
        }),
        seed: 42,
        ..Default::default()
    })
    .take(n as usize)
    .collect()
}

/// High-density stream for throughput figures.
pub(crate) fn fig8_stream(n: u64, with_markers: bool) -> Vec<desis_core::event::Event> {
    fig8_stream_at(n, 1_000_000, with_markers)
}

fn throughput_fig(id: &str, title: &str, h: &Harness, half_user_defined: bool) -> Figure {
    let base = h.scale.events(1_000_000);
    let mut fig = Figure::new(id, title, "windows", "events/s");
    for system in optimization_systems() {
        let shares = matches!(system, SystemKind::Desis | SystemKind::DeSw);
        let mut series = Series::new(system.label());
        for n_windows in [1usize, 10, 100, 1_000] {
            let n = adaptive_events(base, n_windows, shares);
            let queries = window_mix(n_windows, half_user_defined);
            let events = fig8_stream(n, half_user_defined);
            let final_wm = events.last().map_or(0, |e| e.ts) + 11_000;
            let run = measure_throughput(&h.registry, system, queries, &events, final_wm);
            series.push(n_windows as f64, run.throughput);
        }
        fig.series.push(series);
    }
    fig
}

fn slices_fig(id: &str, title: &str, h: &Harness, half_user_defined: bool) -> Figure {
    let base = h.scale.events(300_000);
    let mut fig = Figure::new(id, title, "windows", "slices/minute");
    for system in optimization_systems() {
        let shares = matches!(system, SystemKind::Desis | SystemKind::DeSw);
        let mut series = Series::new(system.label());
        for n_windows in [1usize, 10, 100, 1_000] {
            let n = adaptive_events(base, n_windows, shares);
            let queries = window_mix(n_windows, half_user_defined);
            // Spread the stream over ~60 s of event time so slices/minute
            // is measured, not extrapolated.
            let events = fig8_stream_at(n, n / 60, half_user_defined);
            let event_time_min = (events.last().map_or(1, |e| e.ts).max(1)) as f64 / MINUTE as f64;
            let final_wm = events.last().map_or(0, |e| e.ts) + 11_000;
            let run = measure_throughput(&h.registry, system, queries, &events, final_wm);
            series.push(
                n_windows as f64,
                run.metrics.slices as f64 / event_time_min.max(1e-9),
            );
        }
        fig.series.push(series);
    }
    fig
}

/// Figure 8a: throughput, concurrent tumbling windows.
pub fn fig8a(h: &Harness) -> Figure {
    throughput_fig(
        "fig8a",
        "Throughput of concurrent tumbling windows (average)",
        h,
        false,
    )
}

/// Figure 8b: slices per minute, concurrent tumbling windows.
pub fn fig8b(h: &Harness) -> Figure {
    slices_fig(
        "fig8b",
        "Slices per minute, concurrent tumbling windows",
        h,
        false,
    )
}

/// Figure 8c: throughput, half user-defined windows.
pub fn fig8c(h: &Harness) -> Figure {
    throughput_fig("fig8c", "Throughput with 50% user-defined windows", h, true)
}

/// Figure 8d: slices per minute, half user-defined windows.
pub fn fig8d(h: &Harness) -> Figure {
    slices_fig(
        "fig8d",
        "Slices per minute with 50% user-defined windows",
        h,
        true,
    )
}
