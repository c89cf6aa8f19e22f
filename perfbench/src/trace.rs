//! In-memory span recording around calls into the repository's layers.
//!
//! A span is named `<layer>.<what>` (for example `cells.search`); its
//! layer is the name up to the first dot. Spans nest through a stack, so
//! each records the span that caused it. A disabled tracer records nothing,
//! which is how the untraced runs measure end-to-end time.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: Cow<'static, str>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }

    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans while enabled.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// Creates a tracer, recording or not.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off (between spans only).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.enabled = enabled;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Everything recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines tagged with `workload`.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"workload\":\"{workload}\"}}",
                s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}

/// Self time of each span: its duration minus the time its children cover.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.secs();
        }
    }
    own
}

/// Which spans lie inside a top-level span named `root` (the rounds a
/// workload times, not its set-up).
pub fn under(spans: &[Span], root: &str) -> Vec<bool> {
    // Parents precede their children, so one pass resolves every root.
    let mut roots: Vec<usize> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        let r = s.parent.map_or(i, |p| roots[p]);
        roots.push(r);
    }
    roots.into_iter().map(|r| spans[r].name == root).collect()
}

/// How many spans lie inside top-level spans named `root`.
pub fn count_under(spans: &[Span], root: &str) -> usize {
    under(spans, root)
        .into_iter()
        .filter(|&inside| inside)
        .count()
}

/// Self time summed per layer, over the spans inside top-level spans named
/// `root`.
pub fn layer_self_times(spans: &[Span], root: &str) -> BTreeMap<String, f64> {
    let mut by_layer = BTreeMap::new();
    for ((s, own), inside) in spans.iter().zip(self_times(spans)).zip(under(spans, root)) {
        if inside {
            *by_layer.entry(s.layer().to_string()).or_insert(0.0) += own;
        }
    }
    by_layer
}

/// Total duration of the spans with exactly this name.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let spans = vec![
            span("core.suite", 0, 1_000, None),
            span("core.experiment.fig2", 100, 400, Some(0)),
            span("array.calibrate", 150, 350, Some(1)),
            span("core.experiment.fig3", 500, 900, Some(0)),
        ];
        let own = self_times(&spans);
        let expect = [300e-9, 100e-9, 200e-9, 400e-9];
        for (got, want) in own.iter().zip(expect) {
            assert!((got - want).abs() < 1e-15, "{got} vs {want}");
        }
        let layers = layer_self_times(&spans, "core.suite");
        assert!((layers["core"] - 800e-9).abs() < 1e-15);
        assert!((layers["array"] - 200e-9).abs() < 1e-15);
        assert!(layer_self_times(&spans, "cells.round").is_empty());
        assert_eq!(under(&spans, "core.suite"), vec![true; 4]);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nesting_sets_parents() {
        let mut off = Tracer::new(false);
        assert_eq!(off.span("cells.search", |_| 7), 7);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        on.span("engine.round", |t| {
            t.span("engine.scan", |_| ());
            t.span("engine.meter", |_| ());
        });
        let parents: Vec<Option<usize>> = on.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        assert!(on.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
