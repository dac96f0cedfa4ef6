//! In-memory span recorder for the traced run.
//!
//! Spans are taken by the benchmark around its calls into each crate's
//! public functions; nothing inside the program is instrumented. Each
//! span has a layer, a start and end, the span that caused it (its
//! parent) and the request it belongs to. A layer's self time is its
//! span's duration minus the time its child spans cover; the recorder
//! keeps that per layer exactly, for every span, and keeps the first
//! [`SPAN_CAP`] spans themselves for [`Tracer::write_tsv`].

use std::io::Write;
use std::time::Instant;

/// Spans kept for the written trace per recorder (40 bytes each);
/// later spans still count in the per-layer totals.
pub const SPAN_CAP: usize = 1 << 16;

/// A layer boundary the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Bringing one session up: parse, image, `Session::new`, data.
    Setup,
    /// `tcc_front::compile_unit`.
    ParseSema,
    /// `tcc_mir::build_image_scheduled`.
    BuildImage,
    /// `Session::new`.
    SessionNew,
    /// One request: a compile-path call and/or an execution.
    Request,
    /// `Session::call` on a `C generator (closure building + compile).
    CompileCall,
    /// `Session::call_addr` (or the static function a program runs it through).
    ExecCall,
    /// `Session::flush_persist`.
    Flush,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::Setup,
        Layer::ParseSema,
        Layer::BuildImage,
        Layer::SessionNew,
        Layer::Request,
        Layer::CompileCall,
        Layer::ExecCall,
        Layer::Flush,
    ];

    /// Span name in reports and the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Setup => "setup",
            Layer::ParseSema => "parse_sema",
            Layer::BuildImage => "build_image",
            Layer::SessionNew => "session_new",
            Layer::Request => "request",
            Layer::CompileCall => "compile_call",
            Layer::ExecCall => "exec_call",
            Layer::Flush => "flush",
        }
    }
}

/// Per-layer totals over every span recorded.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    /// Spans closed.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans).
    pub self_ns: u64,
}

impl LayerTotals {
    /// Mean span duration in microseconds (0 with no spans).
    pub fn mean_us(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64 / 1e3, self.count as f64)
    }
}

/// One kept span.
#[derive(Clone, Copy, Debug)]
struct Span {
    worker: u8,
    id: u32,
    layer: Layer,
    parent: u32,
    request: u32,
    start_ns: u64,
    end_ns: u64,
}

/// A span still open on the recorder's stack.
struct Open {
    layer: Layer,
    id: u32,
    start: Instant,
    child_ns: u64,
}

/// Span id meaning "no parent".
const NO_PARENT: u32 = u32::MAX;

/// Single-thread span recorder; each worker thread owns one.
pub struct Tracer {
    worker: u8,
    epoch: Instant,
    stack: Vec<Open>,
    spans: Vec<Span>,
    next_id: u32,
    request: u32,
    totals: [LayerTotals; Layer::ALL.len()],
}

impl Tracer {
    /// A recorder for worker thread `worker` whose span times count
    /// from `epoch`.
    pub fn new(worker: u8, epoch: Instant) -> Tracer {
        Tracer {
            worker,
            epoch,
            stack: Vec::new(),
            spans: Vec::new(),
            next_id: 0,
            request: 0,
            totals: [LayerTotals::default(); Layer::ALL.len()],
        }
    }

    /// Opens a span of `layer` as a child of the innermost open span.
    /// A [`Layer::Request`] span starts a new request id.
    pub fn begin(&mut self, layer: Layer) {
        if layer == Layer::Request {
            self.request += 1;
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.stack.push(Open {
            layer,
            id,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Closes the innermost open span, which must be of `layer`.
    pub fn end(&mut self, layer: Layer) {
        let end = Instant::now();
        let open = self.stack.pop().expect("end without begin");
        assert_eq!(open.layer, layer, "spans closed out of order");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let t = &mut self.totals[layer as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => NO_PARENT,
        };
        if self.spans.len() < SPAN_CAP {
            let start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                worker: self.worker,
                id: open.id,
                layer,
                parent,
                request: if self.in_request(layer) {
                    self.request
                } else {
                    0
                },
                start_ns,
                end_ns: start_ns + dur,
            });
        }
    }

    fn in_request(&self, layer: Layer) -> bool {
        layer == Layer::Request || self.stack.iter().any(|o| o.layer == Layer::Request)
    }

    /// Opens a span of `layer` when tracing.
    pub fn open(tr: &mut Option<Tracer>, layer: Layer) {
        if let Some(t) = tr {
            t.begin(layer);
        }
    }

    /// Closes the innermost span, of `layer`, when tracing.
    pub fn close(tr: &mut Option<Tracer>, layer: Layer) {
        if let Some(t) = tr {
            t.end(layer);
        }
    }

    /// Runs `f` inside a span of `layer` when tracing, bare otherwise.
    pub fn span<T>(tr: &mut Option<Tracer>, layer: Layer, f: impl FnOnce() -> T) -> T {
        match tr {
            Some(t) => {
                t.begin(layer);
                let out = f();
                t.end(layer);
                out
            }
            None => f(),
        }
    }

    /// Totals for one layer.
    pub fn totals(&self, layer: Layer) -> LayerTotals {
        self.totals[layer as usize]
    }

    /// Folds another recorder's totals into this one (its kept spans
    /// are appended up to the cap).
    pub fn merge(&mut self, other: Tracer) {
        for (a, b) in self.totals.iter_mut().zip(other.totals) {
            a.count += b.count;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
        }
        let room = SPAN_CAP.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.into_iter().take(room));
    }

    /// Writes the kept spans as tab-separated lines: worker, span id,
    /// layer, request id (0 outside requests), parent span id (or -),
    /// start and end in ns since the epoch.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "worker\tid\tlayer\trequest\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.worker,
                s.id,
                s.layer.name(),
                s.request,
                parent,
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(0, Instant::now());
        t.begin(Layer::Request);
        t.begin(Layer::CompileCall);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(Layer::CompileCall);
        t.end(Layer::Request);
        let req = t.totals(Layer::Request);
        let cc = t.totals(Layer::CompileCall);
        assert_eq!((req.count, cc.count), (1, 1));
        assert!(req.total_ns >= cc.total_ns);
        assert_eq!(req.self_ns, req.total_ns - cc.total_ns);
        assert_eq!(cc.self_ns, cc.total_ns);
    }
}
