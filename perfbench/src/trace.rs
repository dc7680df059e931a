//! In-memory spans recorded around the harness's calls into each layer.
//!
//! The crates themselves carry no instrumentation; a span here brackets
//! one public call (`run_static_observed`, `explore`, ...) from the
//! harness side. Spans are kept in memory and written out when the run
//! ends. A disabled tracer records nothing and only calls through, which
//! is what the untraced (end-to-end) iterations use.

use quorum_obs::JsonValue;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Metric-style name, e.g. `replica.simulate_s.c16`.
    pub name: String,
    /// The crate the bracketed call belongs to (`quorum-replica`, ...),
    /// or `harness` for the harness's own grouping spans.
    pub layer: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall-clock length of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Single-threaded: every workload runs at one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn on() -> Self {
        Self {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::on()
        }
    }

    /// Runs `f` inside a span named `name`; nested calls made through
    /// the tracer `f` receives become child spans.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Number of spans recorded so far; pass it to [`Self::self_secs`]
    /// to look only at the spans of one iteration.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Summed self time, in seconds, of every span called `name`
    /// recorded since `mark`.
    pub fn self_secs(&self, mark: usize, name: &str) -> f64 {
        let nanos: u64 = (mark..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_time_ns(&self.spans, i))
            .sum();
        nanos as f64 / 1e9
    }

    /// Median self time, in seconds, over every span called `name`
    /// (0 if there is none) — for calls made once per set-up sample.
    pub fn median_self_secs(&self, name: &str) -> f64 {
        let mut nanos: Vec<u64> = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_time_ns(&self.spans, i))
            .collect();
        if nanos.is_empty() {
            return 0.0;
        }
        nanos.sort_unstable();
        nanos[nanos.len() / 2] as f64 / 1e9
    }

    /// Every span, with its self time, as JSON for the trace file.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let mut o = JsonValue::object();
                    o.insert("name", JsonValue::Str(s.name.clone()));
                    o.insert("layer", JsonValue::Str(s.layer.to_string()));
                    o.insert("start_ns", JsonValue::Int(s.start_ns));
                    o.insert("end_ns", JsonValue::Int(s.end_ns));
                    o.insert(
                        "parent",
                        s.parent
                            .map_or(JsonValue::Null, |p| JsonValue::Int(p as u64)),
                    );
                    o.insert("self_ns", JsonValue::Int(self_time_ns(&self.spans, i)));
                    o
                })
                .collect(),
        )
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A span's duration minus the part of its interval that its direct
/// children cover (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let span = &spans[index];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(index))
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    span.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            layer: "harness",
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)), // overlaps a: 10..50 covered
            span("grandchild", 21, 49, Some(2)),
            span("c", 80, 90, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_time_ns(&spans, 1), 20);
        assert_eq!(self_time_ns(&spans, 2), 30 - 28);
        assert_eq!(self_time_ns(&spans, 3), 28);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span("root", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_time_ns(&spans, 0), 5);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::on();
        let v = t.span("harness", "outer", |t| {
            t.span("quorum-core", "inner", |_| 7)
        });
        assert_eq!(v, 7);
        assert_eq!(t.mark(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        let mark = t.mark();
        t.span("harness", "outer", |_| ());
        assert_eq!(t.self_secs(mark, "inner"), 0.0);
        assert_eq!(
            t.self_secs(0, "inner"),
            t.spans[1].duration_ns() as f64 / 1e9
        );

        let mut off = Tracer::off();
        off.span("harness", "outer", |t| t.span("harness", "inner", |_| ()));
        assert_eq!(off.mark(), 0);
    }
}
