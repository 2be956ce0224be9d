//! In-memory spans for the traced run.
//!
//! A span is a named interval of host time with a link to the span that
//! caused it. Spans are recorded only from the benchmark's own code, around
//! its calls into the workspace crates; they stay in memory and are written
//! out once, when the run ends. The text before the first `.` of a span's
//! name is its layer, and a layer's self time is the part of its spans'
//! durations that no child span covers.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The benchmark's one host clock. The benchmark measures host time by
/// design; no reading reaches a simulated output.
pub fn now() -> Instant {
    // pcm-audit: allow(wallclock) — the benchmark's host clock: it times the simulator and never feeds its outputs
    Instant::now()
}

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`, e.g. `campaign.run`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; never before `start_ns`.
    pub end_ns: u64,
}

impl Span {
    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. When off, every method is a no-op returning `None`, so
/// the untraced run pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (the traced run measures a stretch with
    /// it off, to report the tracing overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Records a span over `[start, end]`, measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = now();
        self.record(name, parent, now, now)
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.origin.elapsed().as_nanos() as u64;
            let span = &mut self.spans[id];
            span.end_ns = end.max(span.start_ns);
        }
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Writes every span as tab-separated text: id, parent (`-` for a
    /// root), name, start and end in nanoseconds.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the union of its children's
/// intervals, clipped to its own. Children may nest or overlap (parallel
/// work), so the union is taken, not the sum.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(lo, hi) in kids.iter() {
                match cur {
                    Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
                    _ => {
                        if let Some((clo, chi)) = cur {
                            covered += chi - clo;
                        }
                        cur = Some((lo, hi));
                    }
                }
            }
            if let Some((clo, chi)) = cur {
                covered += chi - clo;
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time summed per layer, in nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer()).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) > mid [10,60) > leaf [20,30); second child [70,80).
        let spans = vec![
            span("a.root", None, 0, 100),
            span("b.mid", Some(0), 10, 60),
            span("c.leaf", Some(1), 20, 30),
            span("b.other", Some(0), 70, 80),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 40, 10, 10]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["a"], 40);
        assert_eq!(layers["b"], 50);
        assert_eq!(layers["c"], 10);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two parallel children overlapping on [30,50), one child spilling
        // past the parent's end: only [20,100) is covered.
        let spans = vec![
            span("p.root", None, 0, 100),
            span("w.one", Some(0), 20, 50),
            span("w.two", Some(0), 30, 60),
            span("w.three", Some(0), 55, 130),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn child_outside_its_parent_covers_nothing() {
        let spans = vec![
            span("p.root", None, 100, 200),
            span("c.late", Some(0), 300, 400),
        ];
        assert_eq!(self_times_ns(&spans), vec![100, 100]);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x.y", None);
        t.close(id);
        assert!(id.is_none() && t.spans().is_empty());
        t.set_on(true);
        let root = t.open("x.root", None);
        let now = now();
        let child = t.record("x.child", root, now, now);
        t.close(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[child.expect("on")].parent, root);
        assert!(t.spans()[0].end_ns >= t.spans()[0].start_ns);
        assert_eq!(t.spans()[0].layer(), "x");
    }
}
