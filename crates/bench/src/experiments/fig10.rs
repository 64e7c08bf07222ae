//! Figure 10: throughput and latency under varying slice counts and slice
//! sizes (paper Section 6.3.3).
//!
//! Count-measured workloads: a short count window forces slice boundaries
//! every `slice_size` events, and a long count window of
//! `slices_per_window * slice_size` events is assembled from those slices.
//! DeBucket/CeBuffer do not slice: their long window simply grows.

use desis_core::aggregate::AggFunction;
use desis_core::query::Query;
use desis_core::window::WindowSpec;

use super::fig8::optimization_systems;
use super::uniform_stream;
use crate::figure::{Figure, Series};
use crate::harness::Harness;
use crate::measure::{mean, measure_result_latency, measure_throughput, Scale};

fn sliced_window_queries(slice_size: u64, slices_per_window: u64) -> Vec<Query> {
    vec![
        Query::new(
            1,
            WindowSpec::tumbling_count(slice_size).expect("valid"),
            AggFunction::Sum,
        ),
        Query::new(
            2,
            WindowSpec::tumbling_count(slice_size * slices_per_window).expect("valid"),
            AggFunction::Sum,
        ),
    ]
}

/// Events covering at least two long windows, padded to a constant total
/// so all sweep points measure over comparable run lengths.
fn events_for(
    slice_size: u64,
    slices_per_window: u64,
    target: u64,
) -> Vec<desis_core::event::Event> {
    let window = slice_size * slices_per_window;
    let windows = (target / window).max(2);
    uniform_stream(window * windows, 10, 1_000_000, 42)
}

fn sweep_slices(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Quick => vec![10, 100, 1_000],
        Scale::Full => vec![10, 100, 1_000, 10_000],
    }
}

/// Figure 10a: throughput versus the number of slices per window
/// (10k-event slices in the paper; 1k-event slices at quick scale).
pub fn fig10a(h: &Harness) -> Figure {
    let scale = h.scale;
    let slice_size = match scale {
        Scale::Quick => 1_000,
        Scale::Full => 10_000,
    };
    let mut fig = Figure::new(
        "fig10a",
        "Throughput vs slices per window (fixed slice size)",
        "slices/window",
        "events/s",
    );
    for system in optimization_systems() {
        let mut series = Series::new(system.label());
        for &slices in &sweep_slices(scale) {
            let events = events_for(slice_size, slices, scale.events(2_000_000));
            let run = measure_throughput(
                &h.registry,
                system,
                sliced_window_queries(slice_size, slices),
                &events,
                0,
            );
            series.push(slices as f64, run.throughput);
        }
        fig.series.push(series);
    }
    fig
}

/// Figure 10b: latency versus the number of slices per window.
pub fn fig10b(h: &Harness) -> Figure {
    let scale = h.scale;
    let slice_size = match scale {
        Scale::Quick => 1_000,
        Scale::Full => 10_000,
    };
    let mut fig = Figure::new(
        "fig10b",
        "Latency vs slices per window (fixed slice size)",
        "slices/window",
        "result latency ms (mean)",
    );
    for system in optimization_systems() {
        let mut series = Series::new(system.label());
        for &slices in &sweep_slices(scale) {
            let events = events_for(slice_size, slices, scale.events(2_000_000));
            let lats = measure_result_latency(
                &h.registry,
                system,
                sliced_window_queries(slice_size, slices),
                &events,
                0,
            );
            series.push(slices as f64, mean(&lats));
        }
        fig.series.push(series);
    }
    fig
}

fn sweep_sizes(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Quick => vec![10, 100, 1_000],
        Scale::Full => vec![10, 100, 1_000, 10_000],
    }
}

/// Figure 10c: throughput versus slice size (fixed slices per window).
pub fn fig10c(h: &Harness) -> Figure {
    let scale = h.scale;
    let slices_per_window = match scale {
        Scale::Quick => 100,
        Scale::Full => 1_000,
    };
    let mut fig = Figure::new(
        "fig10c",
        "Throughput vs slice size (fixed slices per window)",
        "events/slice",
        "events/s",
    );
    for system in optimization_systems() {
        let mut series = Series::new(system.label());
        for &size in &sweep_sizes(scale) {
            let events = events_for(size, slices_per_window, scale.events(2_000_000));
            let run = measure_throughput(
                &h.registry,
                system,
                sliced_window_queries(size, slices_per_window),
                &events,
                0,
            );
            series.push(size as f64, run.throughput);
        }
        fig.series.push(series);
    }
    fig
}

/// Figure 10d: latency versus slice size (fixed slices per window).
pub fn fig10d(h: &Harness) -> Figure {
    let scale = h.scale;
    let slices_per_window = match scale {
        Scale::Quick => 100,
        Scale::Full => 1_000,
    };
    let mut fig = Figure::new(
        "fig10d",
        "Latency vs slice size (fixed slices per window)",
        "events/slice",
        "result latency ms (mean)",
    );
    for system in optimization_systems() {
        let mut series = Series::new(system.label());
        for &size in &sweep_sizes(scale) {
            let events = events_for(size, slices_per_window, scale.events(2_000_000));
            let lats = measure_result_latency(
                &h.registry,
                system,
                sliced_window_queries(size, slices_per_window),
                &events,
                0,
            );
            series.push(size as f64, mean(&lats));
        }
        fig.series.push(series);
    }
    fig
}
