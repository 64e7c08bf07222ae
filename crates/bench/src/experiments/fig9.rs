//! Figure 9: multiple queries with different aggregation functions and
//! window measures (paper Section 6.3.2).
//!
//! Throughput and the number of executed operator calculations for query
//! mixes over average/sum, distinct quantiles, two-function windows,
//! quantile+max sharing, and mixed count/time measures.

use desis_baselines::SystemKind;
use desis_core::aggregate::AggFunction;
use desis_core::query::Query;
use desis_core::time::SECOND;
use desis_core::window::WindowSpec;
use desis_gen::spread_quantile_queries;

use super::adaptive_events;
use super::fig8::{fig8_stream, optimization_systems};
use crate::figure::{Figure, Series};
use crate::harness::Harness;
use crate::measure::measure_throughput;

/// Tumbling 1 s queries alternating between the functions in `pool`.
fn function_mix(n: usize, pool: &[Vec<AggFunction>]) -> Vec<Query> {
    (0..n)
        .map(|i| {
            Query::with_functions(
                i as u64 + 1,
                WindowSpec::tumbling_time(SECOND).expect("valid"),
                pool[i % pool.len()].clone(),
            )
        })
        .collect()
}

fn throughput_sweep(
    id: &str,
    title: &str,
    h: &Harness,
    base_events: u64,
    queries_for: &dyn Fn(usize) -> Vec<Query>,
) -> Figure {
    let base = h.scale.events(base_events);
    let mut fig = Figure::new(id, title, "windows", "events/s");
    for system in optimization_systems() {
        let shares = matches!(system, SystemKind::Desis | SystemKind::DeSw);
        let mut series = Series::new(system.label());
        for n_windows in [1usize, 10, 100, 1_000] {
            let n = adaptive_events(base, n_windows, shares);
            let events = fig8_stream(n, false);
            let final_wm = events.last().map_or(0, |e| e.ts) + 2_000;
            let run = measure_throughput(
                &h.registry,
                system,
                queries_for(n_windows),
                &events,
                final_wm,
            );
            series.push(n_windows as f64, run.throughput);
        }
        fig.series.push(series);
    }
    fig
}

fn calculations_sweep(
    id: &str,
    title: &str,
    h: &Harness,
    queries_for: &dyn Fn(usize) -> Vec<Query>,
) -> Figure {
    // The paper sends 10M events and counts executed calculations; the
    // count is proportional to events, so we report calculations *per
    // event* times the paper's 10M for comparability.
    let n = h.scale.events(100_000);
    let mut fig = Figure::new(id, title, "windows", "calculations per 10M events");
    for system in optimization_systems() {
        let shares = matches!(system, SystemKind::Desis | SystemKind::DeSw);
        let mut series = Series::new(system.label());
        for n_windows in [1usize, 10, 100, 1_000] {
            let events_n = adaptive_events(n, n_windows, shares);
            let events = fig8_stream(events_n, false);
            let final_wm = events.last().map_or(0, |e| e.ts) + 2_000;
            let run = measure_throughput(
                &h.registry,
                system,
                queries_for(n_windows),
                &events,
                final_wm,
            );
            let per_event = run.metrics.calculations as f64 / events_n as f64;
            series.push(n_windows as f64, per_event * 10_000_000.0);
        }
        fig.series.push(series);
    }
    fig
}

fn avg_sum_mix(n: usize) -> Vec<Query> {
    function_mix(n, &[vec![AggFunction::Average], vec![AggFunction::Sum]])
}

fn quantile_mix(n: usize) -> Vec<Query> {
    spread_quantile_queries(n, SECOND)
}

fn two_function_mix(n: usize) -> Vec<Query> {
    function_mix(
        n,
        &[
            vec![AggFunction::Average, AggFunction::Max],
            vec![AggFunction::Sum, AggFunction::Min],
        ],
    )
}

fn quantile_max_mix(n: usize) -> Vec<Query> {
    function_mix(n, &[vec![AggFunction::Quantile(0.9), AggFunction::Max]])
}

fn mixed_measure_mix(n: usize) -> Vec<Query> {
    (0..n)
        .map(|i| {
            let window = if i % 2 == 0 {
                WindowSpec::tumbling_time(SECOND).expect("valid")
            } else {
                WindowSpec::tumbling_count(100_000).expect("valid")
            };
            Query::new(i as u64 + 1, window, AggFunction::Average)
        })
        .collect()
}

/// Figure 9a: throughput, average+sum mix.
pub fn fig9a(h: &Harness) -> Figure {
    throughput_sweep(
        "fig9a",
        "Throughput: average + sum functions",
        h,
        1_000_000,
        &avg_sum_mix,
    )
}

/// Figure 9b: calculations, average+sum mix.
pub fn fig9b(h: &Harness) -> Figure {
    calculations_sweep(
        "fig9b",
        "Calculations: average + sum functions",
        h,
        &avg_sum_mix,
    )
}

/// Figure 9c: throughput, distinct quantile levels.
pub fn fig9c(h: &Harness) -> Figure {
    throughput_sweep(
        "fig9c",
        "Throughput: distinct quantile functions",
        h,
        300_000,
        &quantile_mix,
    )
}

/// Figure 9d: calculations, distinct quantile levels.
pub fn fig9d(h: &Harness) -> Figure {
    calculations_sweep(
        "fig9d",
        "Calculations: distinct quantile functions",
        h,
        &quantile_mix,
    )
}

/// Figure 9e: throughput, two functions per window.
pub fn fig9e(h: &Harness) -> Figure {
    throughput_sweep(
        "fig9e",
        "Throughput: two functions per window",
        h,
        1_000_000,
        &two_function_mix,
    )
}

/// Figure 9f: calculations, two functions per window.
pub fn fig9f(h: &Harness) -> Figure {
    calculations_sweep(
        "fig9f",
        "Calculations: two functions per window",
        h,
        &two_function_mix,
    )
}

/// Figure 9g: throughput, quantile+max sharing one sort operator.
pub fn fig9g(h: &Harness) -> Figure {
    throughput_sweep(
        "fig9g",
        "Throughput: quantile + max (shared sort)",
        h,
        300_000,
        &quantile_max_mix,
    )
}

/// Figure 9h: throughput, mixed count/time window measures.
pub fn fig9h(h: &Harness) -> Figure {
    throughput_sweep(
        "fig9h",
        "Throughput: mixed time- and count-measured windows",
        h,
        1_000_000,
        &mixed_measure_mix,
    )
}
