//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code around each public
//! call it makes into a workspace crate: name, start, end, parent span and
//! unit id. They stay in memory until the run ends and are then written
//! out as JSON lines. A span's self time is its duration minus the part of
//! its interval that its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Work-unit id (submission order) for per-unit calls.
    pub unit: Option<u64>,
    /// `layer.call`, e.g. `engine.run_job`.
    pub name: &'static str,
    /// Input class the call ran on (e.g. `bank`, `random_sfg_n64`), or "".
    pub tag: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Thread-safe in-memory span recorder.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Runs `f` inside a new span; `f` receives the span id so the calls it
    /// makes can parent under it.
    pub fn span<R>(
        &self,
        name: &'static str,
        tag: &'static str,
        parent: Option<u64>,
        unit: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let span = Span { id, parent, unit, name, tag, start_ns, end_ns };
        self.spans.lock().expect("span list lock poisoned by a panicking probe").push(span);
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned by a panicking probe").clone()
    }

    /// Durations in microseconds of the spans called `name` (with `tag`,
    /// when given).
    pub fn durations_us(&self, name: &str, tag: Option<&str>) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (children of a pool span overlap in time).
pub fn self_times_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Per-call totals `(calls, total ns, self ns)` keyed by span name,
/// heaviest self time first.
pub fn self_time_table(spans: &[Span]) -> Vec<(&'static str, usize, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut by_name: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += selfs[&s.id];
    }
    let mut rows: Vec<_> = by_name.into_iter().map(|(n, (c, t, s))| (n, c, t, s)).collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.3));
    rows
}

/// Writes the context line, then every phase's spans as JSON lines, to
/// `path`, creating its directory. Span ids are unique within a phase.
///
/// # Errors
///
/// I/O errors creating or writing the file.
pub fn write_jsonl(
    path: &Path,
    context: &str,
    phases: &[(&str, Vec<Span>)],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{context}")?;
    for (phase, s) in phases.iter().flat_map(|(p, spans)| spans.iter().map(move |s| (p, s))) {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            out,
            r#"{{"phase":"{phase}","id":{},"parent":{},"unit":{},"name":"{}","tag":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id,
            opt(s.parent),
            opt(s.unit),
            s.name,
            s.tag,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, unit: None, name: "x", tag: "", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent [0, 100); children [10, 40) and [30, 60) overlap, [90, 120)
        // sticks out of the parent: covered = [10, 60) + [90, 100) = 60.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(1), 90, 120),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[&1], 40);
        assert_eq!(selfs[&2], 30);
    }

    #[test]
    fn recorder_nests_and_counts() {
        let rec = Recorder::default();
        let v = rec
            .span("outer", "", None, None, |id| rec.span("inner", "t", Some(id), Some(3), |_| 7));
        assert_eq!(v, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.unit, Some(3));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(rec.durations_us("inner", Some("t")).len(), 1);
        assert!(rec.durations_us("inner", Some("u")).is_empty());
    }
}
