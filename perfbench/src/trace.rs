//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began. Spans stay in memory while the benchmark runs; [`Tracer::to_json`]
//! writes them out at the end, as Chrome trace-event JSON that Perfetto
//! and `chrome://tracing` open.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call, in seconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records nested spans. A disabled tracer runs the closures and records
/// nothing, so the same chunk code serves the timed and the traced runs.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.t0.elapsed().as_secs_f64(),
            end: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.t0.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as Chrome trace-event JSON (complete events, times in
    /// microseconds); `meta` lands in the top-level `metadata` object.
    pub fn to_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}}}}}",
                if i > 0 { ",\n" } else { "" },
                s.name,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
            );
        }
        out.push_str("\n], \"metadata\": {");
        for (i, (k, v)) in meta.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\": \"{v}\"", if i > 0 { ", " } else { "" });
        }
        out.push_str("}}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (overlapping children count once, and a child
/// is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Per-name totals: (calls, total seconds, self seconds), by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end - s.start;
        e.2 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("chunk", 0.0, 10.0, None),
            span("run", 1.0, 3.0, Some(0)),
            // Overlaps the first child: [1, 5] is covered once.
            span("save", 2.0, 5.0, Some(0)),
            // Runs past its parent: only [8, 10] counts.
            span("diagnostics", 8.0, 12.0, Some(0)),
            // A grandchild does not reduce the chunk's self time twice.
            span("inner", 1.5, 2.5, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 10.0 - 4.0 - 2.0);
        assert_eq!(own[1], 2.0 - 1.0);
        assert_eq!(own[2], 3.0);
        assert_eq!(own[3], 4.0);
        assert_eq!(own[4], 1.0);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = [
            span("chunk", 0.0, 4.0, None),
            span("run", 0.0, 3.0, Some(0)),
            span("chunk", 4.0, 6.0, None),
            span("run", 4.0, 5.0, Some(2)),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["chunk"], (2, 6.0, 2.0));
        assert_eq!(t["run"], (2, 4.0, 4.0));
    }

    #[test]
    fn tracer_records_nesting_only_when_enabled() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(t.to_json(&[("seed", "3".into())]).contains("\"parent\": 0"));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }
}
