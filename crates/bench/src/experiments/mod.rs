//! One generator per table/figure of the paper's evaluation (Section 6).
//!
//! Every function takes the process's [`Harness`] and returns a [`Figure`]
//! with the same series the paper plots. The registry in [`all_figures`] backs the
//! `experiments` binary.

mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig6;
mod fig7;
mod fig8;
mod fig9;

pub use fig10::{fig10a, fig10b, fig10c, fig10d};
pub use fig11::{fig11a, fig11b, fig11c, fig11d};
pub use fig12::{fig12a, fig12b};
pub use fig13::{fig13a, fig13b, fig13c, fig13d};
pub use fig6::{fig6a, fig6b};
pub use fig7::{fig7a, fig7b, fig7c, fig7d, fig7e, fig7f};
pub use fig8::{fig8a, fig8b, fig8c, fig8d};
pub use fig9::{fig9a, fig9b, fig9c, fig9d, fig9e, fig9f, fig9g, fig9h};

use desis_core::event::Event;
use desis_gen::{DataGenConfig, DataGenerator};

use crate::figure::Figure;
use crate::harness::Harness;

/// A figure generator.
pub type FigureFn = fn(&Harness) -> Figure;

/// The full registry: `(figure id, generator)`, in paper order.
pub fn all_figures() -> Vec<(&'static str, FigureFn)> {
    vec![
        ("fig6a", fig6a as FigureFn),
        ("fig6b", fig6b),
        ("fig7a", fig7a),
        ("fig7b", fig7b),
        ("fig7c", fig7c),
        ("fig7d", fig7d),
        ("fig7e", fig7e),
        ("fig7f", fig7f),
        ("fig8a", fig8a),
        ("fig8b", fig8b),
        ("fig8c", fig8c),
        ("fig8d", fig8d),
        ("fig9a", fig9a),
        ("fig9b", fig9b),
        ("fig9c", fig9c),
        ("fig9d", fig9d),
        ("fig9e", fig9e),
        ("fig9f", fig9f),
        ("fig9g", fig9g),
        ("fig9h", fig9h),
        ("fig10a", fig10a),
        ("fig10b", fig10b),
        ("fig10c", fig10c),
        ("fig10d", fig10d),
        ("fig11a", fig11a),
        ("fig11b", fig11b),
        ("fig11c", fig11c),
        ("fig11d", fig11d),
        ("fig12a", fig12a),
        ("fig12b", fig12b),
        ("fig13a", fig13a),
        ("fig13b", fig13b),
        ("fig13c", fig13c),
        ("fig13d", fig13d),
    ]
}

/// A uniform synthetic stream: `n` events, `keys` distinct keys,
/// `events_per_second` event-time density.
pub(crate) fn uniform_stream(n: u64, keys: u32, events_per_second: u64, seed: u64) -> Vec<Event> {
    DataGenerator::new(DataGenConfig {
        keys,
        events_per_second,
        seed,
        ..Default::default()
    })
    .take(n as usize)
    .collect()
}

/// Non-sharing systems process every window individually; to keep runtime
/// bounded at high query counts we shrink their event count (throughput is
/// a rate, so fewer events only shorten the measurement).
pub(crate) fn adaptive_events(base: u64, n_queries: usize, shares_windows: bool) -> u64 {
    if shares_windows {
        base
    } else {
        let divisor = (n_queries as u64).clamp(1, 100);
        (base / divisor).max(base / 100).max(10_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let figs = all_figures();
        assert_eq!(figs.len(), 34);
        let mut ids: Vec<&str> = figs.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 34, "duplicate figure ids");
    }

    #[test]
    fn adaptive_events_bounds() {
        assert_eq!(adaptive_events(1_000_000, 1, true), 1_000_000);
        assert_eq!(adaptive_events(1_000_000, 1, false), 1_000_000);
        assert_eq!(adaptive_events(1_000_000, 1_000, false), 10_000);
        assert!(adaptive_events(1_000_000, 50, false) >= 10_000);
    }

    /// Smoke: the cheapest figure generator runs and produces the
    /// expected series shape.
    #[test]
    fn fig7f_smoke() {
        let fig = fig7f(&Harness::quick());
        assert_eq!(fig.id, "fig7f");
        let series = &fig.series[0];
        assert_eq!(series.points.len(), 4);
        assert!(series.points.iter().all(|(_, y)| *y > 0.0));
    }

    #[test]
    fn uniform_stream_properties() {
        let evs = uniform_stream(1_000, 4, 1_000, 1);
        assert_eq!(evs.len(), 1_000);
        assert!(evs.iter().all(|e| e.key < 4));
    }
}
