//! # desis-baselines
//!
//! Re-implementations of the baseline systems from the Desis paper's
//! evaluation (Section 6.1.1), all behind the [`Processor`] trait:
//!
//! | System    | Sharing capability                                        |
//! |-----------|-----------------------------------------------------------|
//! | `CeBuffer`| none; per-window event buffers, full recomputation        |
//! | `DeBucket`| none; per-window incremental buckets                      |
//! | `DeSW`    | slicing shared within same (functions, measure)           |
//! | `Scotty`  | general stream slicing shared within same functions       |
//! | `Desis`   | shared across types, measures, *and* functions (operators)|
//!
//! `DeSW`, `Scotty`, and `Desis` are the same engine with different
//! [`SharingPolicy`](desis_core::engine::SharingPolicy) settings — exactly
//! how the paper builds DeSW "based on Desis" for a fair comparison. The
//! decentralized `Disco` baseline lives in `desis-net`, since it differs
//! in distribution strategy rather than single-node processing.

mod accum;
mod engine_backed;
mod naive;
mod processor;

pub use accum::{compute_from_values, FnAccum};
pub use engine_backed::EngineBacked;
pub use naive::{BucketState, BufferState, CeBuffer, DeBucket, NaiveProcessor, WindowState};
pub use processor::Processor;

use std::sync::Arc;

use desis_core::error::DesisError;
use desis_core::obs::MetricsRegistry;
use desis_core::query::Query;

/// All single-node systems of the paper's evaluation, by figure label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Full Desis sharing.
    Desis,
    /// Per-(functions, measure) sharing.
    DeSw,
    /// Per-functions sharing (Scotty-style general stream slicing).
    Scotty,
    /// Per-window incremental buckets, no sharing.
    DeBucket,
    /// Per-window buffers, no incremental aggregation.
    CeBuffer,
}

impl SystemKind {
    /// Every system, in the order the paper's legends list them.
    pub const ALL: [SystemKind; 5] = [
        SystemKind::Desis,
        SystemKind::DeSw,
        SystemKind::Scotty,
        SystemKind::DeBucket,
        SystemKind::CeBuffer,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Desis => "Desis",
            SystemKind::DeSw => "DeSW",
            SystemKind::Scotty => "Scotty",
            SystemKind::DeBucket => "DeBucket",
            SystemKind::CeBuffer => "CeBuffer",
        }
    }

    /// Instantiates the system over `queries`.
    pub fn build(self, queries: Vec<Query>) -> Result<Box<dyn Processor>, DesisError> {
        self.build_in(queries, &Arc::default())
    }

    /// Instantiates the system over `queries` in the context of
    /// `registry`: the engine-backed systems publish their `engine.*`
    /// counters there and, if it is profiled, time their stages on its
    /// `seq` lane. The naive systems have no instruments of their own.
    pub fn build_in(
        self,
        queries: Vec<Query>,
        registry: &Arc<MetricsRegistry>,
    ) -> Result<Box<dyn Processor>, DesisError> {
        let registry = Arc::clone(registry);
        Ok(match self {
            SystemKind::Desis => Box::new(EngineBacked::desis(queries, registry)?),
            SystemKind::DeSw => Box::new(EngineBacked::desw(queries, registry)?),
            SystemKind::Scotty => Box::new(EngineBacked::scotty(queries, registry)?),
            SystemKind::DeBucket => Box::new(DeBucket::debucket(queries)),
            SystemKind::CeBuffer => Box::new(CeBuffer::cebuffer(queries)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desis_core::aggregate::AggFunction;
    use desis_core::event::Event;
    use desis_core::window::WindowSpec;

    /// Cross-system differential test: every system must produce identical
    /// results for a mixed workload (they differ in cost, never in
    /// output).
    #[test]
    fn all_systems_agree() {
        let queries = || {
            vec![
                Query::new(
                    1,
                    WindowSpec::tumbling_time(100).unwrap(),
                    AggFunction::Average,
                ),
                Query::new(
                    2,
                    WindowSpec::sliding_time(200, 100).unwrap(),
                    AggFunction::Max,
                ),
                Query::new(3, WindowSpec::session(60).unwrap(), AggFunction::Median),
                Query::new(4, WindowSpec::tumbling_count(7).unwrap(), AggFunction::Sum),
            ]
        };
        let mut reference: Option<Vec<desis_core::query::QueryResult>> = None;
        for kind in SystemKind::ALL {
            let mut sys = kind.build(queries()).unwrap();
            let mut ts = 0u64;
            for i in 0..500u64 {
                // Irregular spacing with occasional gaps for the session.
                ts += if i % 37 == 0 { 80 } else { 3 };
                sys.on_event(&Event::new(ts, (i % 3) as u32, (i % 23) as f64));
            }
            sys.on_watermark(ts + 10_000);
            let mut results = sys.drain_results();
            results.sort_by(|a, b| {
                (a.query, a.window_start, a.window_end, a.key).cmp(&(
                    b.query,
                    b.window_start,
                    b.window_end,
                    b.key,
                ))
            });
            match &reference {
                None => reference = Some(results),
                Some(expected) => {
                    assert_eq!(expected.len(), results.len(), "{}", kind.label());
                    for (e, r) in expected.iter().zip(&results) {
                        assert_eq!(e.query, r.query, "{}", kind.label());
                        assert_eq!(e.key, r.key, "{}", kind.label());
                        assert_eq!(e.window_start, r.window_start, "{}", kind.label());
                        assert_eq!(e.window_end, r.window_end, "{}", kind.label());
                        for (a, b) in e.values.iter().zip(&r.values) {
                            match (a, b) {
                                (Some(x), Some(y)) => {
                                    assert!((x - y).abs() < 1e-9, "{}", kind.label())
                                }
                                (x, y) => assert_eq!(x, y, "{}", kind.label()),
                            }
                        }
                    }
                }
            }
        }
    }
}
