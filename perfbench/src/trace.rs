//! Spans and samples of the traced run, kept in memory and written out when
//! the run ends, plus the order statistics every metric is built from.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Nearest-rank percentile `p` (0..=100) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest of p99.9, p99 and p90 that leaves at least ten samples
/// beyond it, or `None` when even p90 does not.
pub fn tail_pct(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0].into_iter().find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
}

/// One timed call: `rid` ties the spans of one request together; the span
/// whose name starts with `gen.` is the request's root (the generator's
/// call), every other span with the same `rid` is its child.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    rid: String,
    /// Units of work the call handled (answers parsed, for example).
    work: u64,
}

pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    samples: Mutex<BTreeMap<&'static str, Vec<f64>>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { t0: Instant::now(), spans: Mutex::default(), samples: Mutex::default() }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    pub fn span(&self, name: &'static str, start: Instant, end: Instant, rid: &str, work: u64) {
        let span =
            Span { name, start: self.ns(start), end: self.ns(end), rid: rid.to_string(), work };
        self.spans.lock().expect("span list lock").push(span);
    }

    /// Time `f` as a span.
    pub fn time<T>(&self, name: &'static str, rid: &str, work: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.span(name, start, Instant::now(), rid, work);
        out
    }

    /// A value that is not a span (a count, or a time the program reports).
    pub fn sample(&self, name: &'static str, value: f64) {
        self.samples.lock().expect("sample lock").entry(name).or_default().push(value);
    }

    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.samples.lock().expect("sample lock").get(name).cloned().unwrap_or_default()
    }

    /// Durations in microseconds of the spans called `name`; with `root`,
    /// only those whose request root is called `root`.
    pub fn durations_us(&self, name: &str, root: Option<&str>) -> Vec<f64> {
        let spans = self.spans.lock().expect("span list lock");
        let roots: HashMap<&str, &str> = spans
            .iter()
            .filter(|s| s.name.starts_with("gen."))
            .map(|s| (&*s.rid, s.name))
            .collect();
        spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| root.is_none_or(|r| roots.get(&*s.rid) == Some(&r)))
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect()
    }

    /// Per request rooted at `root`: the root's duration minus its child
    /// `child`'s, in microseconds (the client round trip outside the
    /// handler).
    pub fn outside_us(&self, root: &str, child: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span list lock");
        let inner: HashMap<&str, u64> =
            spans.iter().filter(|s| s.name == child).map(|s| (&*s.rid, s.end - s.start)).collect();
        spans
            .iter()
            .filter(|s| s.name == root)
            .filter_map(|s| inner.get(&*s.rid).map(|c| (s.end - s.start).saturating_sub(*c)))
            .map(|ns| ns as f64 / 1e3)
            .collect()
    }

    /// Median nanoseconds per unit of work of the spans called `name`.
    pub fn ns_per_work(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span list lock");
        let per: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name && s.work > 0)
            .map(|s| (s.end - s.start) as f64 / s.work as f64)
            .collect();
        median(&per)
    }

    /// Write every span as one JSON line: name, start/end (ns since the
    /// tracer started), parent (line index of the request's root, or
    /// null), request id, work and self time (duration minus children).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("span list lock");
        let mut root_of: HashMap<&str, usize> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.name.starts_with("gen.") {
                root_of.insert(&s.rid, i);
            }
        }
        let mut child_ns = vec![0u64; spans.len()];
        let parents: Vec<Option<usize>> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| root_of.get(&*s.rid).copied().filter(|&r| r != i))
            .collect();
        for (i, p) in parents.iter().enumerate() {
            if let Some(p) = p {
                child_ns[*p] += spans[i].end - spans[i].start;
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = parents[i].map_or("null".to_string(), |p| p.to_string());
            let self_ns = (s.end - s.start).saturating_sub(child_ns[i]);
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request_id\":\"{}\",\"work\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start, s.end, s.rid, s.work
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}
