//! The unified metrics registry: named counters, gauges, and log-bucketed
//! duration histograms, with two expositions — a canonical single-line
//! JSON object (machine-diffable, key-sorted) and a Prometheus-style text
//! format (scrapeable).
//!
//! # Naming scheme
//!
//! Metric names are `snake_case`, prefixed by the owning layer
//! (`serve_`, `sched_`, `engine_`, `store_`, `sfg_`, `core_`), suffixed
//! by unit or kind: `_total` for monotone counters, `_ns` for duration
//! histograms, bare for gauges. A single label may be appended in braces,
//! `name{key=value}` — e.g. `serve_latency_ns{verb=evaluate}`. The label
//! is part of the registry key; the Prometheus exposition re-renders it
//! as a proper label pair.
//!
//! # Histogram buckets and quantiles
//!
//! Buckets are log-spaced in **nanoseconds**: bucket `i` counts
//! observations in `[2^i, 2^(i+1))` ns (bucket 0 also absorbs 0–1 ns, the
//! last bucket absorbs everything from ~39 h up). 48 buckets cover the
//! whole range this stack sees, from sub-µs per-verb latencies to multi-second
//! preprocessing builds. Each histogram also keeps its exact observed
//! `min_ns` and `max_ns`. Derived quantiles use **sub-bucket
//! interpolation**: the `ceil(q·count)`-th observation is placed linearly
//! inside the bucket that holds it, and the result is clamped to the
//! observed `[min_ns, max_ns]`, so a rendered percentile never lies
//! outside what was measured.
//!
//! All cells are relaxed atomics: writers are hot paths, readers are
//! `stats`/`metrics` verbs, and eventual consistency is all either needs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::json::JsonWriter;

/// Number of log-spaced histogram buckets (`2^47` ns ≈ 39 h top bucket).
pub const NUM_BUCKETS: usize = 48;

/// A monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (pool occupancy, cache
/// entries, active connections).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge to an absolute value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log-bucketed duration histogram (see the module docs for the bucket
/// and quantile conventions).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    total_ns: AtomicU64,
    // Exact extremes: bucket upper bounds overstate the tails by up to 2x
    // at low counts, so the true min/max are tracked in their own cells
    // (`u64::MAX`/`0` sentinels while empty, normalized on snapshot).
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// An owned point-in-time copy of a [`Histogram`], for quantile math and
/// rendering without holding the live cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts.
    pub buckets: [u64; NUM_BUCKETS],
    /// Total observation count.
    pub count: u64,
    /// Sum of all observed durations, in nanoseconds (saturating).
    pub total_ns: u64,
    /// Exact smallest observation in nanoseconds (0 when empty).
    pub min_ns: u64,
    /// Exact largest observation in nanoseconds (0 when empty).
    pub max_ns: u64,
}

/// Maps a nanosecond value to its bucket index.
fn bucket_index(ns: u64) -> usize {
    (ns.max(1).ilog2() as usize).min(NUM_BUCKETS - 1)
}

impl Histogram {
    /// Records one duration.
    pub fn record(&self, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.record_ns(ns);
    }

    /// Records one observation given directly in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Takes an owned snapshot of the current cells.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        // Normalize the empty-histogram sentinel (and the transient
        // between a writer's bucket update and its min update) to 0.
        let min_raw = self.min_ns.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            min_ns: if min_raw == u64::MAX { 0 } else { min_raw },
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

impl HistogramSnapshot {
    /// The `q`-quantile (0 ≤ q ≤ 1) in nanoseconds with **linear
    /// sub-bucket interpolation**: the rank is placed inside its bucket by
    /// the midpoint convention (`rank - 0.5` of the bucket's occupants),
    /// so repeated measurements resolve below the 2x bucket granularity
    /// instead of snapping to a power of two. Upper-bounded by the
    /// bucket's upper bound, lower-bounded by its lower bound, and
    /// clamped to the observed `[min_ns, max_ns]`, so a percentile never
    /// lies outside what was measured. `None` for an empty histogram.
    pub fn quantile_interp_ns(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 && seen + n >= rank {
                let lower = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
                let width = upper_bound_ns(i) as f64 - lower;
                let within = (rank - seen) as f64 - 0.5;
                let interp = lower + width * (within / n as f64).clamp(0.0, 1.0);
                // Not `f64::clamp`: a snapshot racing a writer may see
                // `min_ns > max_ns` for a moment, which must not panic.
                return Some(interp.min(self.max_ns as f64).max(self.min_ns as f64));
            }
            seen += n;
        }
        Some(self.max_ns as f64)
    }

    /// Renders the histogram body fields (`count`, `total_ns`, `min_ns`,
    /// `max_ns`, `p50_ns`, `p95_ns`, `p99_ns`, `buckets`) into an
    /// existing writer. `min_ns`/`max_ns` are the exact observed
    /// extremes; the derived percentiles use
    /// [`HistogramSnapshot::quantile_interp_ns`] (sub-bucket resolution);
    /// the raw bucket array is always present, so consumers needing the
    /// conservative bucket-upper-bound values can recompute them.
    pub fn write_fields(&self, w: &mut JsonWriter) {
        w.field_u64("count", self.count);
        w.field_u64("total_ns", self.total_ns);
        w.field_u64("min_ns", self.min_ns);
        w.field_u64("max_ns", self.max_ns);
        w.field_f64("p50_ns", self.quantile_interp_ns(0.50).unwrap_or(0.0));
        w.field_f64("p95_ns", self.quantile_interp_ns(0.95).unwrap_or(0.0));
        w.field_f64("p99_ns", self.quantile_interp_ns(0.99).unwrap_or(0.0));
        let cells: Vec<String> = self.buckets.iter().map(u64::to_string).collect();
        w.field_raw("buckets", &format!("[{}]", cells.join(",")));
    }

    /// The histogram as a standalone one-line JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_fields(&mut w);
        w.finish()
    }
}

/// The exclusive upper bound of bucket `i`, in nanoseconds (saturating
/// for the open-ended last bucket).
pub fn upper_bound_ns(i: usize) -> u64 {
    if i + 1 >= 64 {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

/// One registered metric.
#[derive(Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics. Handles are `Arc`s: look a metric up
/// once, keep the handle on the hot path, and let readers render
/// snapshots concurrently.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.metrics.lock().expect("metrics lock");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.metrics.lock().expect("metrics lock");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric `{name}` is not a gauge"),
        }
    }

    /// The histogram named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.metrics.lock().expect("metrics lock");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    /// The canonical JSON exposition: one object, keys sorted (the
    /// registry map is a `BTreeMap`, so iteration order is the schema).
    /// Counters and gauges render as numbers; histograms as objects with
    /// `count`/`total_ns`/`min_ns`/`max_ns`/`p50_ns`/`p95_ns`/`p99_ns`/
    /// `buckets`.
    pub fn to_json_line(&self) -> String {
        let map = self.metrics.lock().expect("metrics lock");
        let mut w = JsonWriter::new();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => w.field_u64(name, c.get()),
                Metric::Gauge(g) => w.field_i64(name, g.get()),
                Metric::Histogram(h) => w.field_raw(name, &h.snapshot().to_json()),
            }
        }
        w.finish()
    }

    /// The Prometheus-style text exposition. `name{key=value}` registry
    /// keys become `name{key="value"}` sample labels; histograms render
    /// cumulative `_bucket{le="..."}` series plus `_sum` (seconds) and
    /// `_count`, per the Prometheus histogram convention.
    pub fn to_prometheus(&self) -> String {
        let map = self.metrics.lock().expect("metrics lock");
        let mut out = String::new();
        for (name, metric) in map.iter() {
            let (base, label) = split_label(name);
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&sample(base, label, None, &c.get().to_string()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&sample(base, label, None, &g.get().to_string()));
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cum = 0u64;
                    for (i, &n) in snap.buckets.iter().enumerate() {
                        cum += n;
                        // Skip interior empty prefixes/suffixes? No: a
                        // fixed 48-series exposition per histogram is
                        // noisy. Emit only buckets up to the last
                        // non-empty one, then `+Inf`.
                        if n == 0 && snap.buckets[i..].iter().all(|&m| m == 0) {
                            break;
                        }
                        let le = upper_bound_ns(i).to_string();
                        out.push_str(&sample(
                            &format!("{base}_bucket"),
                            label,
                            Some(("le", &le)),
                            &cum.to_string(),
                        ));
                    }
                    out.push_str(&sample(
                        &format!("{base}_bucket"),
                        label,
                        Some(("le", "+Inf")),
                        &snap.count.to_string(),
                    ));
                    out.push_str(&sample(
                        &format!("{base}_sum"),
                        label,
                        None,
                        &format!("{:e}", snap.total_ns as f64 / 1e9),
                    ));
                    out.push_str(&sample(
                        &format!("{base}_count"),
                        label,
                        None,
                        &snap.count.to_string(),
                    ));
                }
            }
        }
        out
    }
}

/// Splits a registry key `name{key=value}` into `(name, Some((key, value)))`.
fn split_label(name: &str) -> (&str, Option<(&str, &str)>) {
    let Some(open) = name.find('{') else { return (name, None) };
    let Some(inner) = name[open + 1..].strip_suffix('}') else { return (name, None) };
    let Some((k, v)) = inner.split_once('=') else { return (name, None) };
    (&name[..open], Some((k, v)))
}

/// Escapes a Prometheus label value: `\`, `"`, and newline must be
/// backslash-escaped per the text exposition format, so a hostile
/// scenario name (registry keys embed caller-chosen names) cannot break
/// out of the quoted value and corrupt the scrape.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// One Prometheus text-format sample line. `extra` is an additional label
/// pair (used for histogram `le`). Label values are escaped.
fn sample(
    name: &str,
    label: Option<(&str, &str)>,
    extra: Option<(&str, &str)>,
    value: &str,
) -> String {
    let mut pairs = Vec::new();
    if let Some((k, v)) = label {
        pairs.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if pairs.is_empty() {
        format!("{name} {value}\n")
    } else {
        format!("{name}{{{}}} {value}\n", pairs.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn buckets_are_log_spaced_in_ns() {
        let h = Histogram::default();
        h.record(Duration::from_nanos(0)); // -> bucket 0
        h.record(Duration::from_nanos(1)); // -> bucket 0
        h.record(Duration::from_nanos(3)); // -> bucket 1
        h.record(Duration::from_micros(1)); // [512, 1024) ns -> bucket 9
        h.record(Duration::from_secs(200_000)); // overflow -> last bucket
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[9], 1);
        assert_eq!(s.buckets[NUM_BUCKETS - 1], 1);
        // Exact extremes, not bucket bounds.
        assert_eq!(s.min_ns, 0);
        assert_eq!(s.max_ns, 200_000_000_000_000);
    }

    #[test]
    fn quantile_edge_cases_are_total() {
        let empty = Histogram::default().snapshot();
        assert_eq!(empty.quantile_interp_ns(0.5), None);
        assert_eq!((empty.min_ns, empty.max_ns), (0, 0), "empty extremes normalize to 0");

        // A single sample: q=0 and q=1 clamp to rank 1 instead of
        // panicking or returning nonsense.
        let h = Histogram::default();
        h.record_ns(100); // bucket 6: [64, 128)
        let s = h.snapshot();
        for q in [0.0, 0.5, 1.0] {
            // The bucket midpoint (96) lies below the only observation;
            // the [min, max] clamp pins every quantile to the sample.
            assert_eq!(s.quantile_interp_ns(q), Some(100.0), "q={q}");
        }
    }

    #[test]
    fn interpolated_quantiles_stay_within_observed_extremes() {
        // The committed `fleet_batch_1` bench case: five samples between
        // 86,582,578 and 88,040,359 ns, all in bucket 26 ([2^26, 2^27)).
        // Bucket interpolation alone reports p50 = 100,663,296 ns — above
        // every sample — and p95 = 127,506,842 ns.
        let h = Histogram::default();
        for ns in [86_582_578, 87_900_000, 87_990_000, 88_033_973, 88_040_359] {
            h.record_ns(ns);
        }
        let s = h.snapshot();
        assert_eq!((s.min_ns, s.max_ns), (86_582_578, 88_040_359));
        for q in [0.0, 0.05, 0.5, 0.95, 0.99, 1.0] {
            let v = s.quantile_interp_ns(q).unwrap();
            assert!(
                (s.min_ns as f64..=s.max_ns as f64).contains(&v),
                "q={q}: {v} outside [{}, {}]",
                s.min_ns,
                s.max_ns
            );
        }
        assert_ne!(s.quantile_interp_ns(0.5), Some(100_663_296.0));
        // The same holds for the rendered fields the bench and `stats` read.
        let v = json::parse(&s.to_json()).unwrap();
        for field in ["p50_ns", "p95_ns", "p99_ns"] {
            let p = v.get(field).unwrap().as_f64().unwrap();
            assert!(p <= s.max_ns as f64 && p >= s.min_ns as f64, "{field} = {p}");
        }
    }

    #[test]
    fn interpolated_quantiles_resolve_below_bucket_granularity() {
        // 20 observations in one bucket (the bench-harness shape): the
        // interpolated quantile spreads ranks across the observed range
        // instead of collapsing every one onto the bucket bound 131072.
        let h = Histogram::default();
        for i in 0..20 {
            h.record_ns(66_000 + i * 3_000); // bucket 16: [65536, 131072)
        }
        let s = h.snapshot();
        let p50 = s.quantile_interp_ns(0.50).unwrap();
        let p95 = s.quantile_interp_ns(0.95).unwrap();
        assert!(p50 > 65_536.0 && p50 < 131_072.0, "{p50}");
        assert!(p95 > p50 && p95 < 131_072.0, "{p95}");
        // rank 10 of 20 -> lower + (9.5/20) * width.
        assert!((p50 - (65_536.0 + 65_536.0 * 9.5 / 20.0)).abs() < 1e-6, "{p50}");
        // rank 19 interpolates past the largest sample; the clamp holds
        // it at the observed maximum.
        assert_eq!(p95, 123_000.0);
        // Interpolation respects bucket 0's zero lower bound.
        let h0 = Histogram::default();
        h0.record_ns(0);
        assert!(h0.snapshot().quantile_interp_ns(0.5).unwrap() >= 0.0);
    }

    #[test]
    fn registry_json_is_key_sorted_and_typed() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total").add(3);
        reg.gauge("a_gauge").set(-2);
        reg.histogram("c_ns").record(Duration::from_micros(40));
        let line = reg.to_json_line();
        assert!(line.find("\"a_gauge\"").unwrap() < line.find("\"b_total\"").unwrap());
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("a_gauge").unwrap().as_i64(), Some(-2));
        assert_eq!(v.get("b_total").unwrap().as_u64(), Some(3));
        let h = v.get("c_ns").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(h.get("min_ns").unwrap().as_u64(), Some(40_000));
        assert_eq!(h.get("max_ns").unwrap().as_u64(), Some(40_000));
        assert_eq!(h.get("buckets").unwrap().as_array().unwrap().len(), NUM_BUCKETS);
        // 40 µs = 40000 ns -> bucket 15 ([32768, 65536)); the bucket
        // midpoint (49152) is clamped to the one observation.
        assert_eq!(h.get("p50_ns").unwrap().as_f64(), Some(40_000.0));
    }

    #[test]
    fn handles_are_shared() {
        let reg = MetricsRegistry::new();
        reg.counter("x_total").inc();
        reg.counter("x_total").inc();
        assert_eq!(reg.counter("x_total").get(), 2);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x").inc();
        reg.gauge("x");
    }

    #[test]
    fn prometheus_exposition_renders_labels_and_le_series() {
        let reg = MetricsRegistry::new();
        reg.counter("serve_jobs_total{verb=evaluate}").add(5);
        reg.gauge("engine_cache_entries").set(2);
        reg.histogram("serve_latency_ns{verb=evaluate}").record_ns(100);
        let text = reg.to_prometheus();
        assert!(text.contains("serve_jobs_total{verb=\"evaluate\"} 5\n"), "{text}");
        assert!(text.contains("engine_cache_entries 2\n"));
        assert!(
            text.contains("serve_latency_ns_bucket{verb=\"evaluate\",le=\"128\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("serve_latency_ns_bucket{verb=\"evaluate\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("serve_latency_ns_count{verb=\"evaluate\"} 1\n"));
        assert!(text.contains("serve_latency_ns_sum{verb=\"evaluate\"} 1e-7\n"), "{text}");
    }

    #[test]
    fn prometheus_exposition_escapes_hostile_label_values() {
        let reg = MetricsRegistry::new();
        // A scenario name with a quote, a backslash, and a newline must not
        // break out of the quoted label value.
        reg.counter("engine_cache_hits_total{scenario=evil\"} 999\ninjected\\}").add(1);
        let text = reg.to_prometheus();
        assert!(
            text.contains("engine_cache_hits_total{scenario=\"evil\\\"} 999\\ninjected\\\\\"} 1\n"),
            "{text}"
        );
        // The raw quote, newline, and lone backslash never appear bare:
        // the exposition stays one sample per line.
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(!text.contains("evil\"}"), "unescaped quote leaked: {text}");
    }

    #[test]
    fn concurrent_writers_lose_no_increments() {
        let reg = Arc::new(MetricsRegistry::new());
        const THREADS: usize = 8;
        const PER_THREAD: usize = 10_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let c = reg.counter("hammer_total");
                    let h = reg.histogram("hammer_ns");
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.record_ns(i as u64);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(reg.counter("hammer_total").get(), (THREADS * PER_THREAD) as u64);
        let s = reg.histogram("hammer_ns").snapshot();
        assert_eq!(s.count, (THREADS * PER_THREAD) as u64);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count, "every observation landed in a bucket");
    }
}
