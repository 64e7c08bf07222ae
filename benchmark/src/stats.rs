//! Quiet-sample statistics (protocol step 3).
//!
//! Interference on this kind of box only ever subtracts speed, so the
//! best tail of a metric's samples is the program and the rest is the
//! neighbours: the reported value is the median of the five best
//! samples. Everything else a reader needs to judge a disturbed run —
//! raw samples, plain median, quartiles, share of slow samples — rides
//! along in `results.json`.

use crate::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Rates: events/s.
    Higher,
    /// Costs and latencies: seconds, ns/event, ms, bytes/event.
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json` and `results.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// `a` relative to `b` as a worsening: positive when `a` is worse.
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        match self {
            Better::Higher => (b - a) / b,
            Better::Lower => (a - b) / b,
        }
    }
}

/// Samples the quiet estimate is taken over.
pub const QUIET_SAMPLES: usize = 5;

/// A sample counts as slow when it is this much worse than the estimate.
pub const SLOW_MARGIN: f64 = 0.10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for even counts. `NaN` for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the driver's spread rule) gives
/// them. Needs two values; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return [f64::NAN; 3];
    }
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median: the spread the driver
/// holds against each metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// The median of the [`QUIET_SAMPLES`] best samples (all of them when
/// there are fewer).
pub fn quiet_estimate(values: &[f64], better: Better) -> f64 {
    let mut v = sorted(values);
    if better == Better::Higher {
        v.reverse();
    }
    v.truncate(QUIET_SAMPLES);
    median(&v)
}

/// Share of samples more than [`SLOW_MARGIN`] worse than `estimate`.
pub fn slow_sample_share(values: &[f64], estimate: f64, better: Better) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let slow = values
        .iter()
        .filter(|v| better.worsening(**v, estimate) > SLOW_MARGIN)
        .count();
    slow as f64 / values.len() as f64
}

/// One metric's samples and everything derived from them.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Relative worsening that counts as a regression, where one is set.
    pub bound: Option<f64>,
    /// Every sample, in the order taken.
    pub samples: Vec<f64>,
}

impl Summary {
    /// The reported value.
    pub fn value(&self) -> f64 {
        quiet_estimate(&self.samples, self.better)
    }

    /// The `results.json` record of this metric.
    pub fn to_json(&self) -> Json {
        let value = self.value();
        let [q1, _, q3] = quartiles(&self.samples);
        Json::object([
            ("value", Json::Num(value)),
            ("unit", Json::str(self.unit)),
            ("better", Json::str(self.better.label())),
            ("bound", self.bound.map_or(Json::Null, Json::Num)),
            ("n", Json::Num(self.samples.len() as f64)),
            ("median", Json::Num(median(&self.samples))),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            (
                "slow_sample_share",
                Json::Num(slow_sample_share(&self.samples, value, self.better)),
            ),
            (
                "samples",
                Json::Arr(self.samples.iter().map(|s| Json::Num(*s)).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quiet_estimate_takes_the_best_tail() {
        // A run where more than half of the samples hit the slow mode:
        // the plain median flips, the quiet estimate does not.
        let mut rates = vec![50.0, 51.0, 52.0, 50.5, 51.5];
        rates.extend([33.0; 7]);
        assert_eq!(median(&rates), 33.0);
        assert_eq!(quiet_estimate(&rates, Better::Higher), 51.0);
        let costs = [7.0, 2.0, 9.0, 1.0, 3.0, 8.0, 2.5];
        assert_eq!(quiet_estimate(&costs, Better::Lower), 2.5);
        // Fewer than five samples: all of them.
        assert_eq!(quiet_estimate(&[4.0, 2.0], Better::Lower), 3.0);
    }

    #[test]
    fn slow_share_counts_samples_past_the_margin() {
        let rates = [100.0, 99.0, 95.0, 89.0, 60.0];
        assert_eq!(slow_sample_share(&rates, 100.0, Better::Higher), 0.4);
        let costs = [10.0, 10.5, 11.5, 20.0];
        assert_eq!(slow_sample_share(&costs, 10.0, Better::Lower), 0.5);
        assert_eq!(slow_sample_share(&[], 1.0, Better::Lower), 0.0);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((Better::Higher.worsening(90.0, 100.0) - 0.1).abs() < 1e-12);
        assert!((Better::Lower.worsening(110.0, 100.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(110.0, 100.0) < 0.0);
    }
}
