//! Phase/task trace recording — the data behind Figures 1–3.
//!
//! The paper analyzes Extrae/Paraver timelines of the MPI-only and
//! TAMPI+OSS executions (Figs. 1–3): which task kinds execute when, how
//! phases overlap, and how large the gaps without useful work are. This
//! module records the equivalent information: `(worker, kind, start,
//! end)` intervals per rank, plus summary statistics (per-kind totals,
//! concurrency-weighted overlap, largest idle gap).

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Kind of traced work, mirroring the task palette of Fig. 1/3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// Stencil sweep over one block.
    Stencil,
    /// Face pack into a send buffer.
    Pack,
    /// Face unpack from a receive buffer.
    Unpack,
    /// Send operation (issue + in-flight binding).
    Send,
    /// Receive operation.
    Recv,
    /// Intra-process neighbor copy.
    LocalCopy,
    /// Local checksum reduction.
    ChecksumLocal,
    /// Global checksum reduction + validation.
    ChecksumRemote,
    /// Refinement: split/coarsen data copies.
    RefineCopy,
    /// Refinement: block exchange (pack/send/recv/unpack of whole
    /// blocks).
    RefineExchange,
    /// Waitany/waitall progress loops (MPI-only; the green regions of
    /// Fig. 2).
    Wait,
}

impl Kind {
    /// Short stable name, used by the structured-event exporters.
    pub fn name(&self) -> &'static str {
        match self {
            Kind::Stencil => "stencil",
            Kind::Pack => "pack",
            Kind::Unpack => "unpack",
            Kind::Send => "send",
            Kind::Recv => "recv",
            Kind::LocalCopy => "local_copy",
            Kind::ChecksumLocal => "checksum_local",
            Kind::ChecksumRemote => "checksum_remote",
            Kind::RefineCopy => "refine_copy",
            Kind::RefineExchange => "refine_exchange",
            Kind::Wait => "wait",
        }
    }

    /// Every kind, for iteration in reports.
    pub const ALL: [Kind; 11] = [
        Kind::Stencil,
        Kind::Pack,
        Kind::Unpack,
        Kind::Send,
        Kind::Recv,
        Kind::LocalCopy,
        Kind::ChecksumLocal,
        Kind::ChecksumRemote,
        Kind::RefineCopy,
        Kind::RefineExchange,
        Kind::Wait,
    ];
}

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Work kind.
    pub kind: Kind,
    /// Start offset from trace epoch.
    pub start: Duration,
    /// End offset from trace epoch.
    pub end: Duration,
}

/// A per-rank trace recorder. Cheap when disabled (an `Option` in the
/// caller); all methods are thread-safe so task bodies can record from
/// any worker.
#[derive(Debug, Clone)]
pub struct Trace {
    epoch: Instant,
    events: Arc<Mutex<Vec<Event>>>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

/// Runs `f`, recorded as one interval of `kind` when a trace is being
/// taken: the one place that branches on whether tracing is on.
pub fn record<R>(trace: Option<&Trace>, kind: Kind, f: impl FnOnce() -> R) -> R {
    match trace {
        Some(t) => t.record(kind, f),
        None => f(),
    }
}

impl Trace {
    /// Creates an empty trace whose epoch is now.
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            events: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Records the execution of `f` as one interval of `kind`. When the
    /// observability bus is enabled the interval is also emitted as a
    /// [`obs::EventData::Span`], stamped in *bus* time so it merges with
    /// the runtime/transport events in the Chrome export.
    pub fn record<R>(&self, kind: Kind, f: impl FnOnce() -> R) -> R {
        if let Some(bus) = obs::bus() {
            // Single clock for both views: the recorder stores the same
            // µs readings the bus event carries, so the analyzer's
            // span-based numbers and the recorder's agree exactly
            // (not just statistically) on drop-free runs.
            let start_us = bus.now_us();
            let out = f();
            let end_us = bus.now_us();
            self.events.lock().push(Event {
                kind,
                start: Duration::from_micros(start_us),
                end: Duration::from_micros(end_us),
            });
            bus.emit(obs::EventData::Span {
                kind: kind.name(),
                start_us,
                end_us,
            });
            return out;
        }
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.events.lock().push(Event { kind, start, end });
        out
    }

    /// Records an interval measured externally, as offsets from the trace
    /// epoch. Useful when the interval's endpoints come from another
    /// clock source (and for deterministic tests); `end` is clamped to
    /// `start` if it precedes it.
    pub fn record_interval(&self, kind: Kind, start: Duration, end: Duration) {
        self.events.lock().push(Event {
            kind,
            start,
            end: end.max(start),
        });
    }

    /// Copies out the recorded events, sorted by start time.
    pub fn events(&self) -> Vec<Event> {
        let mut ev = self.events.lock().clone();
        ev.sort_by_key(|e| e.start);
        ev
    }

    /// Total recorded busy time per kind.
    pub fn totals(&self) -> Vec<(Kind, Duration)> {
        let mut totals: std::collections::BTreeMap<Kind, Duration> = Default::default();
        for e in self.events.lock().iter() {
            *totals.entry(e.kind).or_default() += e.end.saturating_sub(e.start);
        }
        totals.into_iter().collect()
    }

    /// Fraction of the busy span during which at least two intervals of
    /// *different kinds* were active simultaneously — the "phases
    /// overlap" measure of Fig. 3. Returns 0 for traces with fewer than
    /// two events.
    ///
    /// Deprecation note: the sweep line itself now lives in
    /// [`obs::span::overlap_fraction`], where the causal analyzer applies
    /// it to bus-sourced spans; this method is kept as a thin wrapper so
    /// existing callers (and the CLI's per-rank summary line) keep
    /// working. New code that already has bus events should go through
    /// `obs::span::SpanGraph` instead.
    pub fn overlap_fraction(&self) -> f64 {
        // Micro-second quantization on purpose: the bus `Span` mirror is
        // stamped in µs, so sweeping the recorder at the same resolution
        // keeps the two numbers comparable (sub-µs intervals vanish on
        // both sides instead of one).
        let spans: Vec<(u32, u64, u64)> = self
            .events()
            .iter()
            .map(|e| {
                (
                    e.kind as u32,
                    e.start.as_micros() as u64,
                    e.end.as_micros() as u64,
                )
            })
            .collect();
        obs::span::overlap_fraction(&spans)
    }

    /// Largest gap with no recorded activity within the busy span (the
    /// "blank spaces" of Fig. 3, which the paper bounds at ~3 ms).
    pub fn largest_gap(&self) -> Duration {
        let events = self.events();
        let mut largest = Duration::ZERO;
        let mut horizon = Duration::ZERO;
        for e in &events {
            if e.start > horizon && !horizon.is_zero() {
                largest = largest.max(e.start - horizon);
            }
            horizon = horizon.max(e.end);
        }
        largest
    }

    /// Renders a Paraver-style ASCII timeline: one lane per kind, a
    /// glyph per time bucket in which at least one interval of that kind
    /// was active. The textual counterpart of the paper's Figs. 1-3.
    pub fn render_ascii(&self, width: usize) -> String {
        let events = self.events();
        let Some(end) = events.iter().map(|e| e.end).max() else {
            return String::from("(empty trace)\n");
        };
        if end.is_zero() || width == 0 {
            return String::from("(empty trace)\n");
        }
        let glyph = |k: Kind| -> char {
            match k {
                Kind::Stencil => 'S',
                Kind::Pack => 'p',
                Kind::Unpack => 'u',
                Kind::Send => '>',
                Kind::Recv => '<',
                Kind::LocalCopy => 'c',
                Kind::ChecksumLocal => 'k',
                Kind::ChecksumRemote => 'K',
                Kind::RefineCopy => 'r',
                Kind::RefineExchange => 'x',
                Kind::Wait => 'w',
            }
        };
        // Integer bucket math: bucket b covers the half-open time range
        // [b*total/width, (b+1)*total/width). An interval ending exactly
        // on a bucket boundary does not spill into the next bucket, an
        // interval starting at or past `end` draws nothing (the old float
        // math clamped such events into the last column), and a
        // zero-length interval inside the range still gets one glyph.
        let total_ns = end.as_nanos();
        let mut out = String::new();
        for kind in Kind::ALL {
            let mut lane = vec![' '; width];
            let mut any = false;
            for e in events.iter().filter(|e| e.kind == kind) {
                let lo = (e.start.as_nanos() * width as u128 / total_ns) as usize;
                if lo >= width {
                    continue;
                }
                let hi = ((e.end.as_nanos() * width as u128).div_ceil(total_ns) as usize)
                    .clamp(lo + 1, width);
                for slot in lane.iter_mut().take(hi).skip(lo) {
                    *slot = glyph(kind);
                    any = true;
                }
            }
            if any {
                out.push_str(&format!("{:>14} |", format!("{kind:?}")));
                out.extend(lane);
                out.push_str("|\n");
            }
        }
        out.push_str(&format!(
            "{:>14} |{}|\n",
            "",
            (0..width)
                .map(|i| if i % 10 == 0 { '+' } else { '-' })
                .collect::<String>()
        ));
        out
    }

    /// Renders a TSV dump (`kind\tstart_us\tend_us`) for external
    /// plotting.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("kind\tstart_us\tend_us\n");
        for e in self.events() {
            out.push_str(&format!(
                "{:?}\t{}\t{}\n",
                e.kind,
                e.start.as_micros(),
                e.end.as_micros()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_intervals_and_totals() {
        let t = Trace::new();
        t.record(Kind::Stencil, || {
            std::thread::sleep(Duration::from_millis(5))
        });
        t.record(Kind::Pack, || std::thread::sleep(Duration::from_millis(2)));
        let totals = t.totals();
        assert_eq!(totals.len(), 2);
        let stencil = totals.iter().find(|(k, _)| *k == Kind::Stencil).unwrap().1;
        assert!(stencil >= Duration::from_millis(4));
    }

    #[test]
    fn overlap_detected_for_concurrent_kinds() {
        let t = Trace::new();
        std::thread::scope(|s| {
            let t1 = t.clone();
            s.spawn(move || {
                t1.record(Kind::Stencil, || {
                    std::thread::sleep(Duration::from_millis(20))
                })
            });
            let t2 = t.clone();
            s.spawn(move || {
                t2.record(Kind::Unpack, || {
                    std::thread::sleep(Duration::from_millis(20))
                })
            });
        });
        assert!(
            t.overlap_fraction() > 0.5,
            "overlap {:.2}",
            t.overlap_fraction()
        );
    }

    #[test]
    fn serial_trace_has_no_overlap() {
        let t = Trace::new();
        t.record(Kind::Stencil, || {
            std::thread::sleep(Duration::from_millis(3))
        });
        t.record(Kind::Pack, || std::thread::sleep(Duration::from_millis(3)));
        assert_eq!(t.overlap_fraction(), 0.0);
    }

    #[test]
    fn gap_measurement() {
        let t = Trace::new();
        t.record(Kind::Stencil, || {});
        std::thread::sleep(Duration::from_millis(10));
        t.record(Kind::Pack, || {});
        assert!(t.largest_gap() >= Duration::from_millis(8));
    }

    #[test]
    fn ascii_timeline_shows_active_kinds() {
        let t = Trace::new();
        t.record(Kind::Stencil, || {
            std::thread::sleep(Duration::from_millis(4))
        });
        t.record(Kind::Pack, || std::thread::sleep(Duration::from_millis(4)));
        let art = t.render_ascii(40);
        assert!(art.contains("Stencil"), "{art}");
        assert!(art.contains("Pack"));
        assert!(art.contains('S') && art.contains('p'));
        // Unused kinds do not produce lanes.
        assert!(!art.contains("RefineCopy"));
    }

    #[test]
    fn ascii_timeline_empty_trace() {
        let t = Trace::new();
        assert!(t.render_ascii(40).contains("empty"));
    }

    #[test]
    fn zero_length_events_do_not_count_as_overlap() {
        let t = Trace::new();
        let at = Duration::from_millis(5);
        // Two instantaneous events at the same timestamp: no busy span,
        // no overlap, and no division by zero.
        t.record_interval(Kind::Stencil, at, at);
        t.record_interval(Kind::Pack, at, at);
        assert_eq!(t.overlap_fraction(), 0.0);
        assert_eq!(t.largest_gap(), Duration::ZERO);
    }

    #[test]
    fn identical_timestamps_overlap_fully() {
        let t = Trace::new();
        let (a, b) = (Duration::from_millis(1), Duration::from_millis(9));
        t.record_interval(Kind::Stencil, a, b);
        t.record_interval(Kind::Unpack, a, b);
        assert!((t.overlap_fraction() - 1.0).abs() < 1e-9);
        assert_eq!(t.largest_gap(), Duration::ZERO);
    }

    #[test]
    fn out_of_order_recording_is_sorted_and_gap_correct() {
        let t = Trace::new();
        // Recorded in reverse order, as concurrent workers may do.
        t.record_interval(
            Kind::Pack,
            Duration::from_millis(20),
            Duration::from_millis(22),
        );
        t.record_interval(
            Kind::Stencil,
            Duration::from_millis(1),
            Duration::from_millis(4),
        );
        let ev = t.events();
        assert!(ev.windows(2).all(|w| w[0].start <= w[1].start));
        assert_eq!(t.largest_gap(), Duration::from_millis(16));
        assert_eq!(t.overlap_fraction(), 0.0);
    }

    #[test]
    fn gap_ignores_leading_idle_and_contained_intervals() {
        let t = Trace::new();
        // Idle before the first event is not a gap; an interval fully
        // contained in another does not shrink the horizon.
        t.record_interval(
            Kind::Stencil,
            Duration::from_millis(10),
            Duration::from_millis(30),
        );
        t.record_interval(
            Kind::Pack,
            Duration::from_millis(12),
            Duration::from_millis(14),
        );
        t.record_interval(
            Kind::Unpack,
            Duration::from_millis(35),
            Duration::from_millis(36),
        );
        assert_eq!(t.largest_gap(), Duration::from_millis(5));
    }

    #[test]
    fn ascii_buckets_stay_in_range() {
        let t = Trace::new();
        let w = 10;
        // An event covering exactly the last tenth must fill only the
        // final column; one ending on a bucket boundary must not spill
        // into the next bucket.
        t.record_interval(
            Kind::Stencil,
            Duration::from_millis(9),
            Duration::from_millis(10),
        );
        t.record_interval(
            Kind::Pack,
            Duration::from_millis(0),
            Duration::from_millis(1),
        );
        // Zero-length event inside the range still draws one glyph.
        t.record_interval(
            Kind::Send,
            Duration::from_millis(5),
            Duration::from_millis(5),
        );
        let art = t.render_ascii(w);
        let lane = |name: &str| {
            art.lines()
                .find(|l| l.contains(name))
                .map(|l| l.split('|').nth(1).unwrap().to_string())
                .unwrap()
        };
        assert_eq!(lane("Stencil"), "         S");
        assert_eq!(lane("Pack"), "p         ");
        assert_eq!(lane("Send"), "     >    ");
    }

    #[test]
    fn overlap_parity_with_obs_span_graph() {
        // The recorder's wrapper and the analyzer's bus-sourced graph
        // must agree on the same intervals (CI enforces <= 0.02 on real
        // runs; deterministic inputs agree to rounding).
        let t = Trace::new();
        t.record_interval(
            Kind::Stencil,
            Duration::from_micros(0),
            Duration::from_micros(100),
        );
        t.record_interval(
            Kind::Unpack,
            Duration::from_micros(50),
            Duration::from_micros(150),
        );
        t.record_interval(
            Kind::Pack,
            Duration::from_micros(160),
            Duration::from_micros(200),
        );
        let old = t.overlap_fraction();
        assert!((old - 50.0 / 190.0).abs() < 1e-9, "{old}");
        let events: Vec<obs::Event> = t
            .events()
            .iter()
            .enumerate()
            .map(|(i, e)| obs::Event {
                seq: i as u64,
                t_us: e.end.as_micros() as u64,
                rank: 0,
                worker: 0,
                data: obs::EventData::Span {
                    kind: e.kind.name(),
                    start_us: e.start.as_micros() as u64,
                    end_us: e.end.as_micros() as u64,
                },
            })
            .collect();
        let g = obs::span::SpanGraph::build(&events);
        let new = g.rank_overlap(0);
        assert!((new - old).abs() <= 0.02, "old {old} vs new {new}");
    }

    #[test]
    fn tsv_has_header_and_rows() {
        let t = Trace::new();
        t.record(Kind::Send, || {});
        let tsv = t.to_tsv();
        assert!(tsv.starts_with("kind\tstart_us\tend_us\n"));
        assert!(tsv.contains("Send"));
    }
}
