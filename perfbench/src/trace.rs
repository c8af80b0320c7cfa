//! The benchmark's own span recorder for the traced run.
//!
//! Spans are opened and closed from the benchmark's code around each call
//! into a layer's public function; the program itself is not instrumented.
//! All traced work runs on one thread, so spans nest strictly and a span's
//! self time is its duration minus the durations of its direct children.
//! Spans stay in memory until [`Tracer::write_chrome`] writes them out.

use std::collections::BTreeMap;
use std::time::Instant;

struct SpanRec {
    name: &'static str,
    parent: Option<usize>,
    start_us: f64,
    dur_us: f64,
}

/// A single-threaded span tree.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let start_us = self.now_us();
        self.spans.push(SpanRec {
            name,
            parent: self.stack.last().copied(),
            start_us,
            dur_us: 0.0,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in ms.
    pub fn exit(&mut self) -> f64 {
        let id = self.stack.pop().expect("exit without a matching enter");
        let end = self.now_us();
        let span = &mut self.spans[id];
        span.dur_us = end - span.start_us;
        span.dur_us / 1e3
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Total duration and total self time (both ms) per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += s.dur_us / 1e3;
            e.1 += (s.dur_us - child_us[i]) / 1e3;
        }
        out
    }

    /// Appends another tracer's spans (ids are re-based; times stay
    /// relative to each tracer's own origin).
    pub fn absorb(&mut self, other: &Tracer) {
        let base = self.spans.len();
        for s in &other.spans {
            self.spans.push(SpanRec {
                name: s.name,
                parent: s.parent.map(|p| p + base),
                start_us: s.start_us,
                dur_us: s.dur_us,
            });
        }
    }

    /// Writes every span as Chrome trace-event JSON (complete events).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}{sep}",
                s.name, s.start_us, s.dur_us
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        t.enter("root");
        t.leaf("child", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        let root_ms = t.exit();
        let totals = t.totals();
        let (child_total, child_self) = totals["child"];
        let (root_total, root_self) = totals["root"];
        assert_eq!(child_total, child_self);
        assert!((root_total - root_ms).abs() < 1e-9);
        assert!((root_self - (root_total - child_total)).abs() < 1e-9);
        assert!(root_self >= 10.0 && child_total >= 20.0);
    }
}
