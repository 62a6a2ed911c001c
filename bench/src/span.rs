//! In-memory spans of the traced layers pass.
//!
//! A span is recorded from the benchmark's own files around each call
//! into a layer (spans inside the program are a later change): name,
//! start, end, the span that caused it, and the workload it belongs to.
//! They stay in memory and are written as one Chrome trace when the pass
//! ends. A span's *self time* is its duration minus its children's.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Work done inside the span (calls, tasks, messages); 0 = not counted.
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder of one workload's layers pass. Single-threaded: all
/// spans are opened and closed by the pass's own thread, so the open
/// stack gives each span its parent.
pub struct Spans {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &str) -> Spans {
        Spans {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` returns its result and
    /// the amount of work it did.
    pub fn record<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> (R, u64)) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            count: 0,
        });
        self.open.push(idx);
        let (result, count) = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].count = count;
        result
    }

    /// A span without a work count.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        self.record(name, |s| (f(s), 0))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Chrome trace format (`chrome://tracing`, Perfetto): one complete
    /// event per span, parent and workload in `args`.
    pub fn to_chrome_json(&self) -> Json {
        let selfs = self.self_times_ns();
        let events = self
            .spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(i, (s, self_ns))| {
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("cat", Json::str(s.name.split('.').next().unwrap_or(""))),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::from(i)),
                            ("parent", s.parent.map_or(Json::Null, Json::from)),
                            ("workload", Json::str(&self.workload)),
                            ("count", Json::from(s.count)),
                            ("self_us", Json::Num(self_ns as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

/// Duration minus the part of it the direct children cover. Children of
/// one parent never overlap here (one thread, stack discipline), so the
/// covered part is the plain sum.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.dur_ns());
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: String::new(),
            start_ns,
            end_ns,
            parent,
            count: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root 0..100; children 10..30 and 40..90; grandchild 50..60.
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(40, 90, Some(0)),
            span(50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut s = Spans::new("w");
        s.scope("root", |s| {
            s.record("a", |_| ((), 3));
            s.scope("b", |s| s.scope("b.inner", |_| ()));
        });
        let names: Vec<&str> = s.spans().iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, ["root", "a", "b", "b.inner"]);
        let parents: Vec<Option<usize>> = s.spans().iter().map(|x| x.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert_eq!(s.spans()[1].count, 3);
        // Self times partition the root's duration.
        let total: u64 = s.self_times_ns().iter().sum();
        assert_eq!(total, s.spans()[0].dur_ns());
        assert!(Json::parse(&s.to_chrome_json().to_string()).is_ok());
    }
}
