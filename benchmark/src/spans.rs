//! In-memory spans and batch timers for the traced run.
//!
//! A traced run brackets the calls it makes into each layer's public
//! functions in one of two ways. *Spanned*: one clock pair per call, one
//! [`Span`] record per call — the attribution structure (who caused what,
//! self time, the request a call belongs to). *Batched*: one clock pair per
//! [`BATCH`] consecutive calls of the same operation — the per-call cost
//! without the clock's own price in it, which is the only honest way to
//! time a 30 ns call with a 25 ns clock. The per-layer metrics come from
//! the batches; the trace file and the overhead figure come from the spans.
//!
//! Spans live in a preallocated vector and are written out once, at exit.

use std::io::Write;

use crate::clock::now_ns;
use crate::stats;

/// Calls timed by one clock pair in batched mode.
pub const BATCH: usize = 256;

/// Spans kept (and written) per traced run: about 8 MB of JSON lines. Calls
/// beyond it still count in the per-operation statistics.
pub const CAPACITY: usize = 64_000;

/// Parent id of a root span.
pub const ROOT: u32 = 0;

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    id: u32,
    parent: u32,
    op: u16,
    req: u32,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
struct OpStats {
    /// ns per call, one sample per batch.
    batch_ns_per_call: Vec<f64>,
    /// Span durations, ns.
    span_ns: Vec<f64>,
}

/// Collects spans and batch timings per operation.
pub struct Tracer {
    workload: String,
    ops: Vec<&'static str>,
    stats: Vec<OpStats>,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer holding at most [`CAPACITY`] spans (allocated up front, so
    /// recording a span never grows the buffer inside a timed region).
    pub fn new(workload: &str) -> Self {
        Tracer {
            workload: workload.to_string(),
            ops: Vec::new(),
            stats: Vec::new(),
            spans: Vec::with_capacity(CAPACITY),
            dropped: 0,
        }
    }

    /// Registers (or finds) an operation name, `layer.call`.
    pub fn op(&mut self, name: &'static str) -> u16 {
        if let Some(index) = self.ops.iter().position(|known| *known == name) {
            return index as u16;
        }
        self.ops.push(name);
        self.stats.push(OpStats::default());
        (self.ops.len() - 1) as u16
    }

    /// Records a finished span and returns its id (for use as a parent);
    /// [`ROOT`] when the buffer is full.
    pub fn span(&mut self, op: u16, parent: u32, req: u32, start_ns: u64, end_ns: u64) -> u32 {
        self.stats[op as usize]
            .span_ns
            .push(end_ns.saturating_sub(start_ns) as f64);
        if self.spans.len() >= CAPACITY {
            self.dropped += 1;
            return ROOT;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            req,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span whose end is not known yet (a stage or a round); finish
    /// it with [`Tracer::close`]. Returns [`ROOT`] when the buffer is full.
    pub fn open(&mut self, op: u16, parent: u32, req: u32) -> u32 {
        if self.spans.len() >= CAPACITY {
            self.dropped += 1;
            return ROOT;
        }
        let now = now_ns();
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            req,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Stamps the end of a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: u32) {
        let now = now_ns();
        if id == ROOT {
            return;
        }
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        self.stats[span.op as usize]
            .span_ns
            .push(now.saturating_sub(span.start_ns) as f64);
    }

    /// Records one batch: `calls` consecutive calls took `total_ns`.
    pub fn batch(&mut self, op: u16, calls: usize, total_ns: u64) {
        if calls == 0 {
            return;
        }
        let stats = &mut self.stats[op as usize];
        stats.batch_ns_per_call.push(total_ns as f64 / calls as f64);
    }

    /// Runs `call` once per item. Spanned: each call gets its own span
    /// under `parent`, tagged with the request id `req_base + item`.
    /// Batched: each run of [`BATCH`] calls shares one clock pair.
    pub fn calls<F: FnMut(usize)>(
        &mut self,
        op: u16,
        spanned: bool,
        parent: u32,
        req_base: u32,
        items: &[usize],
        mut call: F,
    ) {
        if spanned {
            for &item in items {
                let start = now_ns();
                call(item);
                let end = now_ns();
                self.span(op, parent, req_base + item as u32, start, end);
            }
        } else {
            for chunk in items.chunks(BATCH) {
                let start = now_ns();
                for &item in chunk {
                    call(item);
                }
                let end = now_ns();
                self.batch(op, chunk.len(), end - start);
            }
        }
    }

    /// Median ns per call over the batches of `name`; 0 when the operation
    /// never ran batched (the layer did no work in this workload).
    pub fn batch_ns(&self, name: &str) -> f64 {
        self.find(name)
            .filter(|stats| !stats.batch_ns_per_call.is_empty())
            .map_or(0.0, |stats| stats::median_of(&stats.batch_ns_per_call))
    }

    fn find(&self, name: &str) -> Option<&OpStats> {
        self.ops
            .iter()
            .position(|known| *known == name)
            .map(|index| &self.stats[index])
    }

    /// Self time per operation: each span's duration minus the part of it
    /// its direct children cover, summed per operation, in ns. Returned in
    /// registration order as `(name, spans, total_ns, self_ns)`.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for span in &self.spans {
            if span.parent != ROOT {
                if let Some(slot) = child_ns.get_mut(span.parent as usize) {
                    *slot += span.end_ns.saturating_sub(span.start_ns);
                }
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> =
            self.ops.iter().map(|name| (*name, 0, 0, 0)).collect();
        for span in &self.spans {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            let row = &mut rows[span.op as usize];
            row.1 += 1;
            row.2 += duration;
            row.3 += duration.saturating_sub(child_ns[span.id as usize]);
        }
        rows.retain(|row| row.1 > 0);
        rows
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":\"{}\",\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                span.id,
                span.parent,
                self.ops[span.op as usize],
                self.workload,
                span.req,
                span.start_ns,
                span.end_ns
            )?;
        }
        out.flush()
    }

    /// Spans recorded, and spans that did not fit the preallocated buffer.
    pub fn span_totals(&self) -> (usize, u64) {
        (self.spans.len(), self.dropped)
    }
}
