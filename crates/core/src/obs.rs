//! Unified observability: a lock-cheap metrics registry shared by the
//! single-node engine, the decentralized substrate, and the benchmark
//! harness.
//!
//! Three instrument kinds cover everything the paper's evaluation
//! measures:
//!
//! * [`Counter`] — monotonically increasing `u64` (events, bytes,
//!   messages, calculations).
//! * [`Gauge`] — a signed level that can move both ways (queue depths,
//!   pending merge buffers).
//! * [`LogHistogram`] — a fixed-bucket base-2 log-scale histogram for
//!   latency-like values, reporting count/sum/max and estimated
//!   p50/p95/p99 without unbounded sample storage.
//!
//! Handles are `Arc`s over atomics: after registration (the only place a
//! lock is taken) updates are single relaxed atomic operations, so
//! instruments are safe to hit from the hot path and from many threads.
//! [`MetricsRegistry::snapshot`] freezes everything into a plain
//! [`MetricsSnapshot`] that serializes to JSON with no external
//! dependencies.

pub mod names;
pub mod prof;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use crate::sync::Mutex;
use prof::{ProfClock, ProfHandle};

/// Number of histogram buckets: one per power of two of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the counter to at least `v` (for republishing cumulative
    /// totals: calling twice with the same total is idempotent).
    pub fn raise_to(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed level (queue depth, buffered element count).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta`.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the level to at least `v` (high-water marks).
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket base-2 log-scale histogram over `u64` values
/// (typically microseconds).
///
/// Bucket `i` counts values `v` with `bucket_index(v) == i`, where bucket
/// 0 holds `{0, 1}` and bucket `i` holds `[2^i, 2^(i+1))`. Quantiles are
/// estimated as the upper edge of the bucket containing the rank, clamped
/// to the observed maximum — a one-sided error of at most 2x, which is
/// plenty for latency reporting across the orders of magnitude the paper
/// spans.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            buckets: [(); HISTOGRAM_BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    fn bucket_index(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            (u64::BITS - 1 - v.leading_zeros()) as usize
        }
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration given in seconds, as integer microseconds.
    pub fn record_secs(&self, secs: f64) {
        self.record((secs * 1e6).max(0.0) as u64);
    }

    /// Merges a snapshot (e.g. from another registry) into this
    /// histogram.
    pub fn merge(&self, snap: &HistogramSnapshot) {
        for (i, c) in snap.buckets.iter().enumerate().take(HISTOGRAM_BUCKETS) {
            if *c > 0 {
                self.buckets[i].fetch_add(*c, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.max.fetch_max(snap.max, Ordering::Relaxed);
    }

    /// Freezes the histogram into plain data.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Frozen histogram data with quantile estimation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Per-bucket counts ([`HISTOGRAM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated quantile (`q` in `0..=1`): the upper edge of the bucket
    /// holding the rank, clamped to the observed maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let upper = if i + 1 >= 64 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Estimated median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Estimated 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{:.3},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":{{",
            self.count,
            self.sum,
            self.max,
            self.mean(),
            self.p50(),
            self.p95(),
            self.p99(),
        );
        let mut first = true;
        for (i, c) in self.buckets.iter().enumerate() {
            if *c > 0 {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\"{i}\":{c}");
            }
        }
        out.push_str("}}");
    }
}

/// A frozen view of a whole registry, serializable to JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Difference against an `earlier` snapshot of the same registry:
    /// counters and histogram counts/sums become deltas (saturating, so
    /// instruments that only exist in `self` diff against zero), gauges
    /// keep their later level. Drives per-figure (rather than
    /// process-lifetime) reporting in the experiments harness.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsDiff {
        let counters = self
            .counters
            .iter()
            .map(|(name, v)| {
                let before = earlier.counters.get(name).copied().unwrap_or(0);
                (name.clone(), v.saturating_sub(before))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| {
                let mut d = h.clone();
                if let Some(before) = earlier.histograms.get(name) {
                    d.count = d.count.saturating_sub(before.count);
                    d.sum = d.sum.saturating_sub(before.sum);
                    for (i, c) in before.buckets.iter().enumerate() {
                        if let Some(b) = d.buckets.get_mut(i) {
                            *b = b.saturating_sub(*c);
                        }
                    }
                }
                (name.clone(), d)
            })
            .collect();
        MetricsDiff {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Serializes the snapshot as a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name:
    /// {count, sum, max, mean, p50, p95, p99, buckets}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        write_members(&mut out, &self.counters, write_display);
        out.push_str("},");
        write_levels(&mut out, &self.gauges, &self.histograms);
        out
    }
}

/// Appends `"name":value` members to a JSON object under construction,
/// comma-separated; `value` writes one member's value.
pub(crate) fn write_members<N: AsRef<str>, V>(
    out: &mut String,
    members: impl IntoIterator<Item = (N, V)>,
    mut value: impl FnMut(&mut String, V),
) {
    for (i, (name, v)) in members.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", json_escape(name.as_ref()));
        value(out, v);
    }
}

/// [`write_members`]' `value` for plain numbers.
pub(crate) fn write_display(out: &mut String, v: impl std::fmt::Display) {
    let _ = write!(out, "{v}");
}

/// `"gauges":{…},"histograms":{…}}` — the tail a snapshot's and a diff's
/// JSON share.
fn write_levels(
    out: &mut String,
    gauges: &BTreeMap<String, i64>,
    histograms: &BTreeMap<String, HistogramSnapshot>,
) {
    out.push_str("\"gauges\":{");
    write_members(out, gauges, write_display);
    out.push_str("},\"histograms\":{");
    write_members(out, histograms, |out, h| h.write_json(out));
    out.push_str("}}");
}

/// The change between two [`MetricsSnapshot`]s of the same registry:
/// counter deltas (plus derived rates), latest gauge levels, and
/// histogram deltas.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsDiff {
    /// Per-counter increase since the earlier snapshot.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels at the later snapshot.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram activity since the earlier snapshot (count/sum/bucket
    /// deltas; `max` stays the later lifetime maximum).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsDiff {
    /// The delta of one counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A counter's rate in events per second over `elapsed_secs`.
    pub fn rate(&self, name: &str, elapsed_secs: f64) -> f64 {
        if elapsed_secs <= 0.0 {
            return 0.0;
        }
        self.counter(name) as f64 / elapsed_secs
    }

    /// Serializes as JSON. Each counter reports both its delta and its
    /// rate over `elapsed_secs`:
    /// `{"elapsed_secs":s,"counters":{name:{"delta":n,"per_sec":r}},
    /// "gauges":{...},"histograms":{...}}`.
    pub fn to_json(&self, elapsed_secs: f64) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(out, "{{\"elapsed_secs\":{elapsed_secs:.3},\"counters\":{{");
        let rated = self
            .counters
            .iter()
            .map(|(name, v)| (name, (v, self.rate(name, elapsed_secs))));
        write_members(&mut out, rated, |out, (delta, per_sec)| {
            let _ = write!(out, "{{\"delta\":{delta},\"per_sec\":{per_sec:.3}}}");
        });
        out.push_str("},");
        write_levels(&mut out, &self.gauges, &self.histograms);
        out
    }
}

/// Escapes a string for use inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A named collection of instruments.
///
/// `counter`/`gauge`/`histogram` get-or-create by name under a short
/// lock; the returned `Arc` handles are lock-free to update. Names use
/// dotted paths, e.g. `net.node3.egress_bytes`.
///
/// A registry is also the profiling context of whatever runs against
/// it: one built by [`MetricsRegistry::profiled`] hands out stage-time
/// lanes ([`MetricsRegistry::lane`]), one built by
/// [`MetricsRegistry::new`] hands out none.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<LogHistogram>>>,
    prof_clock: Option<ProfClock>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty registry whose lanes time their stages against
    /// `clock` (see [`prof`]).
    pub fn profiled(clock: ProfClock) -> Self {
        Self {
            prof_clock: Some(clock),
            ..Self::default()
        }
    }

    /// The profiling clock; `None` for an unprofiled registry. A harness
    /// hands it to the registries of the runs it starts.
    pub fn prof_clock(&self) -> Option<&ProfClock> {
        self.prof_clock.as_ref()
    }

    /// A handle attributing stage time to `lane` (e.g. `"seq"`,
    /// `"shard0"`, `"node1"`, `"root"`; no dots) as
    /// `prof.<lane>.<stage>_{ns,calls}` counters of this registry, or
    /// `None` when the registry is unprofiled. Handles on the same lane
    /// add up.
    pub fn lane(self: &Arc<Self>, lane: &str) -> Option<ProfHandle> {
        let clock = self.prof_clock.clone()?;
        Some(ProfHandle::new(Arc::clone(self), clock, lane))
    }

    fn lock<T>(m: &Mutex<T>) -> crate::sync::MutexGuard<'_, T> {
        // A panic while holding the registration lock cannot corrupt a
        // BTreeMap of Arcs; keep serving metrics rather than poisoning.
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn get_or_create<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
        let mut map = Self::lock(map);
        if let Some(instrument) = map.get(name) {
            return Arc::clone(instrument);
        }
        let instrument = Arc::new(T::default());
        map.insert(name.to_string(), Arc::clone(&instrument));
        instrument
    }

    /// Returns the counter with `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Self::get_or_create(&self.counters, name)
    }

    /// Returns the gauge with `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Self::get_or_create(&self.gauges, name)
    }

    /// Returns the histogram with `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<LogHistogram> {
        Self::get_or_create(&self.histograms, name)
    }

    /// Freezes every instrument into a [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        fn freeze<T, V>(
            map: &Mutex<BTreeMap<String, Arc<T>>>,
            read: impl Fn(&T) -> V,
        ) -> BTreeMap<String, V> {
            let map = MetricsRegistry::lock(map);
            map.iter().map(|(k, v)| (k.clone(), read(v))).collect()
        }
        MetricsSnapshot {
            counters: freeze(&self.counters, Counter::get),
            gauges: freeze(&self.gauges, Gauge::get),
            histograms: freeze(&self.histograms, LogHistogram::snapshot),
        }
    }

    /// Merges a snapshot into this registry under a name prefix:
    /// counters add, gauges keep their maximum, histograms merge
    /// bucket-wise. A harness that drives several runs publishes each
    /// run's registry into one of its own this way.
    pub fn merge_snapshot(&self, prefix: &str, snap: &MetricsSnapshot) {
        for (name, v) in &snap.counters {
            self.counter(&format!("{prefix}{name}")).add(*v);
        }
        for (name, v) in &snap.gauges {
            self.gauge(&format!("{prefix}{name}")).set_max(*v);
        }
        for (name, h) in &snap.histograms {
            self.histogram(&format!("{prefix}{name}")).merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.b");
        c.inc();
        c.add(4);
        c.raise_to(3); // below current: no-op
        assert_eq!(c.get(), 5);
        c.raise_to(10);
        assert_eq!(c.get(), 10);
        // Same name returns the same instrument.
        assert_eq!(reg.counter("a.b").get(), 10);

        let g = reg.gauge("depth");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LogHistogram::default();
        assert_eq!(h.snapshot().quantile(0.5), 0, "empty histogram");
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5_050);
        assert_eq!(s.max, 100);
        assert_eq!(s.mean(), 50.5);
        // p50 of 1..=100 is in bucket [32,64): estimate = 63.
        assert!(s.p50() >= 50 && s.p50() <= 64, "p50 = {}", s.p50());
        // p99 and p100 clamp to the observed max.
        assert!(s.p99() >= 99 && s.p99() <= 100, "p99 = {}", s.p99());
        assert_eq!(s.quantile(1.0), 100);
        // Quantiles are monotone in q.
        assert!(s.p50() <= s.p95() && s.p95() <= s.p99());
    }

    #[test]
    fn histogram_bucket_index_edges() {
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(1), 0);
        assert_eq!(LogHistogram::bucket_index(2), 1);
        assert_eq!(LogHistogram::bucket_index(3), 1);
        assert_eq!(LogHistogram::bucket_index(4), 2);
        assert_eq!(LogHistogram::bucket_index(u64::MAX), 63);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let reg = MetricsRegistry::new();
        reg.counter("events").add(42);
        reg.gauge("queue").set(-3);
        reg.histogram("lat_us").record(1_000);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"events\":42"), "{json}");
        assert!(json.contains("\"queue\":-3"), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
        assert!(json.contains("\"p99\":"), "{json}");
    }

    #[test]
    fn merge_snapshot_prefixes_and_accumulates() {
        let run = MetricsRegistry::new();
        run.counter("bytes").add(10);
        run.histogram("lat").record(8);
        let harness = MetricsRegistry::new();
        harness.merge_snapshot("run1.", &run.snapshot());
        harness.merge_snapshot("run1.", &run.snapshot());
        let snap = harness.snapshot();
        assert_eq!(snap.counters["run1.bytes"], 20);
        assert_eq!(snap.histograms["run1.lat"].count, 2);
        assert_eq!(snap.histograms["run1.lat"].max, 8);
    }

    #[test]
    fn snapshot_diff_reports_deltas_and_rates() {
        let reg = MetricsRegistry::new();
        reg.counter("events").add(100);
        reg.gauge("depth").set(4);
        reg.histogram("lat").record(10);
        let earlier = reg.snapshot();
        reg.counter("events").add(50);
        reg.counter("fresh").add(7);
        reg.gauge("depth").set(9);
        reg.histogram("lat").record(20);
        reg.histogram("lat").record(30);
        let diff = reg.snapshot().diff(&earlier);
        assert_eq!(diff.counter("events"), 50);
        assert_eq!(diff.counter("fresh"), 7, "new counters diff against 0");
        assert_eq!(diff.counter("missing"), 0);
        assert_eq!(diff.gauges["depth"], 9, "gauges keep the later level");
        assert_eq!(diff.histograms["lat"].count, 2);
        assert_eq!(diff.histograms["lat"].sum, 50);
        assert!((diff.rate("events", 2.0) - 25.0).abs() < 1e-9);
        assert_eq!(diff.rate("events", 0.0), 0.0);
        let json = diff.to_json(2.0);
        assert!(
            json.contains("\"events\":{\"delta\":50,\"per_sec\":25.000"),
            "{json}"
        );
        assert!(json.contains("\"elapsed_secs\":2.000"), "{json}");
    }

    /// Exact quantile of a sorted sample at the same rank the histogram
    /// estimator targets (ceil(q*n), 1-based).
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Asserts the histogram estimate obeys the documented one-sided
    /// bound for p50/p95/p99: `exact <= estimate <= 2 * exact` (the
    /// estimate is a bucket upper edge clamped to the observed max).
    fn assert_quantile_bounds(values: &[u64], label: &str) {
        let h = LogHistogram::default();
        for v in values {
            h.record(*v);
        }
        let snap = h.snapshot();
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        for q in [0.50, 0.95, 0.99] {
            let exact = exact_quantile(&sorted, q);
            let est = snap.quantile(q);
            assert!(
                est >= exact,
                "{label} p{}: estimate {est} below exact {exact}",
                (q * 100.0) as u32
            );
            assert!(
                est <= exact.saturating_mul(2).max(1),
                "{label} p{}: estimate {est} above 2x exact {exact}",
                (q * 100.0) as u32
            );
        }
    }

    #[test]
    fn quantile_bounds_on_uniform_distribution() {
        let values: Vec<u64> = (1..=10_000).collect();
        assert_quantile_bounds(&values, "uniform");
    }

    #[test]
    fn quantile_bounds_on_exponential_distribution() {
        // Deterministic exponential-ish sample: inverse-CDF over an
        // evenly spaced grid, scaled to ~1ms mean in microseconds.
        let n = 8_192u64;
        let values: Vec<u64> = (1..n)
            .map(|i| {
                let u = i as f64 / n as f64;
                (-(1.0 - u).ln() * 1_000.0) as u64
            })
            .collect();
        assert_quantile_bounds(&values, "exponential");
    }

    #[test]
    fn quantile_bounds_on_single_bucket_distribution() {
        // All values land in one bucket: estimates clamp to the max.
        let values = vec![7u64; 1_000];
        assert_quantile_bounds(&values, "single-bucket");
        let h = LogHistogram::default();
        for v in &values {
            h.record(*v);
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 7);
        assert_eq!(s.p95(), 7);
        assert_eq!(s.p99(), 7);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(json_escape("plain.name"), "plain.name");
    }

    #[test]
    fn instruments_are_thread_safe() {
        let reg = Arc::new(MetricsRegistry::new());
        let c = reg.counter("shared");
        let h = reg.histogram("shared_lat");
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000u64 {
                    c.inc();
                    h.record(i);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4_000);
        assert_eq!(h.snapshot().count, 4_000);
    }
}
