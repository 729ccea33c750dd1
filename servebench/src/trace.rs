//! In-memory spans recorded from the benchmark's own calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! request it belongs to. Spans stay in memory until the run ends, when
//! [`Tracer::render`] writes them out with a per-name summary. A span's
//! self time is its duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use aasd_json as json;

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    /// 0 while the span is open.
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: Option<usize>,
}

pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Self {
        Self {
            t0,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            req: None,
        });
        spans.len() - 1
    }

    pub fn end(&self, id: usize) {
        let end_ns = self.ns(Instant::now());
        self.spans.lock().expect("tracer lock poisoned")[id].end_ns = end_ns;
    }

    /// Record a span that has already finished.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: Option<usize>,
    ) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
            parent,
            req,
        };
        self.spans.lock().expect("tracer lock poisoned").push(span);
    }

    /// Share of `[0, wall_ns]` covered by the union of top-level spans.
    pub fn top_level_coverage(&self, wall_ns: u64) -> f64 {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let top: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        union_len(top, 0, wall_ns) as f64 / wall_ns.max(1) as f64
    }

    /// The trace as JSON: a per-name summary (count, total and self time)
    /// and every span as `[name, start_us, end_us, parent, request]`.
    pub fn render(&self, wall_ns: u64, provenance: &str) -> String {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        // name -> (count, total ns, self ns)
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = union_len(std::mem::take(&mut children[i]), s.start_ns, s.end_ns);
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur - covered.min(dur);
        }
        let summary: Vec<String> = by_name
            .iter()
            .map(|(name, (n, total, own))| {
                json::object(&[
                    json::field("name", &json::string(name)),
                    json::field("count", &n.to_string()),
                    json::field("total_ms", &format!("{}", *total as f64 / 1e6)),
                    json::field("self_ms", &format!("{}", *own as f64 / 1e6)),
                ])
            })
            .collect();
        let opt = |x: Option<usize>| x.map_or("null".to_string(), |v| v.to_string());
        let rows: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "[{}, {}, {}, {}, {}]",
                    json::string(s.name),
                    s.start_ns / 1000,
                    s.end_ns / 1000,
                    opt(s.parent),
                    opt(s.req)
                )
            })
            .collect();
        drop(spans);
        json::object(&[
            json::field("provenance", provenance),
            json::field("wall_s", &format!("{}", wall_ns as f64 / 1e9)),
            json::field(
                "top_level_coverage",
                &format!("{}", self.top_level_coverage(wall_ns)),
            ),
            json::field("by_name", &json::array(&summary)),
            json::field(
                "span_columns",
                "[\"name\", \"start_us\", \"end_us\", \"parent\", \"request\"]",
            ),
            json::field("spans", &format!("[\n{}\n]", rows.join(",\n"))),
        ])
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur_end) = (0u64, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cur_end), e.min(hi));
        if e > s {
            total += e - s;
            cur_end = e;
        }
    }
    total
}

/// Time `f` as a span when tracing.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<usize>,
    f: impl FnOnce(Option<usize>) -> T,
) -> T {
    match tracer {
        Some(tr) => {
            let id = tr.begin(name, parent);
            let out = f(Some(id));
            tr.end(id);
            out
        }
        None => f(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_len(vec![(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(union_len(vec![], 0, 10), 0);
    }
}
