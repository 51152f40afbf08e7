//! Spans recorded by the benchmark's own code around its calls into each
//! layer. Nothing inside the crates is instrumented (that is a later
//! issue); a span here is "the benchmark called `rt.run` at t0 and it
//! returned at t1", and a `body:*` span is one invocation of the closure
//! the benchmark handed to the runtime, i.e. one attempt.
//!
//! Workers run generic over [`Tracing`]: the untraced pass is monomorphised
//! with [`Off`], whose methods are empty, so end-to-end numbers carry no
//! tracing code at all. [`Spans`] writes into a pre-sized per-thread `Vec`
//! and is drained after the run.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `id` is unique in the run, `parent` is the
/// enclosing span's id (0 for a root), `op` is the operation/request id all
/// spans of one operation share.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub thread: u16,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What a worker calls at each layer boundary.
pub trait Tracing: Send {
    /// Opens the root span of operation `op`, if sampling records it.
    fn begin_op(&mut self, op: u64, name: &'static str);
    /// Like [`begin_op`](Self::begin_op) but the root starts at `start_ns`
    /// (an open-loop request's root starts at its due time, not at the
    /// moment a worker got to it).
    fn begin_op_at(&mut self, op: u64, name: &'static str, start_ns: u64);
    /// Opens a child of the innermost open span.
    fn begin(&mut self, name: &'static str);
    /// Closes the innermost open span (child or root).
    fn end(&mut self);
    /// Adds to the transactional-read tally of recorded operations.
    fn add_reads(&mut self, reads: usize);
}

/// Tracing off: every call compiles to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct Off;

impl Tracing for Off {
    #[inline(always)]
    fn begin_op(&mut self, _: u64, _: &'static str) {}
    #[inline(always)]
    fn begin_op_at(&mut self, _: u64, _: &'static str, _: u64) {}
    #[inline(always)]
    fn begin(&mut self, _: &'static str) {}
    #[inline(always)]
    fn end(&mut self) {}
    #[inline(always)]
    fn add_reads(&mut self, _: usize) {}
}

/// Tracing on: records every `every`-th operation in full.
#[derive(Debug)]
pub struct Spans {
    base: Instant,
    thread: u16,
    every: u64,
    active: bool,
    op: u64,
    next_seq: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Spans not recorded because the pre-sized buffer was full.
    pub dropped: u64,
    /// Transactional reads tallied over recorded operations.
    pub reads: u64,
}

impl Spans {
    /// `base` is the run-wide time origin shared by every thread's tracer;
    /// `capacity` spans are allocated up front and never exceeded.
    pub fn new(base: Instant, thread: u16, every: u64, capacity: usize) -> Self {
        Spans {
            base,
            thread,
            every: every.max(1),
            active: false,
            op: 0,
            next_seq: 1,
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
            dropped: 0,
            reads: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a root span. Spans still open belong to an operation that
    /// unwound out of its caller (a caught panic); they are abandoned.
    fn open_root(&mut self, op: u64, name: &'static str, start_ns: u64) {
        self.stack.clear();
        self.op = op;
        self.open(name, start_ns);
    }

    fn open(&mut self, name: &'static str, start_ns: u64) {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            // Keep begin/end balanced: a dropped span is "open" as a hole.
            self.stack.push(usize::MAX);
            return;
        }
        let parent = self
            .stack
            .iter()
            .rev()
            .find(|&&i| i != usize::MAX)
            .map_or(0, |&i| self.spans[i].id);
        let id = (u64::from(self.thread) << 40) | self.next_seq;
        self.next_seq += 1;
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            name,
            thread: self.thread,
            start_ns,
            end_ns: 0,
        });
    }

    /// The recorded spans (closed ones have `end_ns >= start_ns`).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

impl Tracing for Spans {
    #[inline]
    fn begin_op(&mut self, op: u64, name: &'static str) {
        let now = self.now_ns();
        self.begin_op_at(op, name, now);
    }

    #[inline]
    fn begin_op_at(&mut self, op: u64, name: &'static str, start_ns: u64) {
        self.active = op % self.every == 0;
        if self.active {
            self.open_root(op, name, start_ns);
        }
    }

    #[inline]
    fn begin(&mut self, name: &'static str) {
        if self.active {
            let now = self.now_ns();
            self.open(name, now);
        }
    }

    #[inline]
    fn end(&mut self) {
        if self.active {
            let now = self.now_ns();
            if let Some(i) = self.stack.pop() {
                if i != usize::MAX {
                    self.spans[i].end_ns = now;
                }
            }
        }
    }

    #[inline]
    fn add_reads(&mut self, reads: usize) {
        if self.active {
            self.reads += reads as u64;
        }
    }
}

/// The closed spans the tracers recorded from `from_ns` on (earlier ones are
/// warm-up).
pub fn measured_spans(tracers: Vec<Spans>, from_ns: u64) -> Vec<Span> {
    tracers
        .into_iter()
        .flat_map(Spans::into_spans)
        .filter(|s| s.start_ns >= from_ns && s.end_ns >= s.start_ns)
        .collect()
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (children clipped to the parent, and
/// overlapping children counted once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Writes spans as JSON lines:
/// `{"id":…,"parent":…,"op":…,"name":"…","thread":…,"start_ns":…,"end_ns":…,"arm":"…"}`.
pub fn write_jsonl(path: &Path, arms: &[(&str, &[Span])]) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    let mut line = String::with_capacity(160);
    for (arm, spans) in arms {
        for s in spans.iter() {
            line.clear();
            let _ = write!(
                line,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"arm\":\"{}\"}}",
                s.id, s.parent, s.op, s.name, s.thread, s.start_ns, s.end_ns, arm
            );
            line.push('\n');
            out.write_all(line.as_bytes())?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "t",
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100] ⊃ call [10,90] ⊃ body [20,40], body [50,80]
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 90),
            span(3, 2, 20, 40),
            span(4, 2, 50, 80),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 20, "root minus its one child");
        assert_eq!(st[&2], 30, "call minus the two bodies");
        assert_eq!(st[&3], 20);
        assert_eq!(st[&4], 30);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // parent [100,200]; children [90,130] (starts early: clipped),
        // [120,150] (overlaps the first), [180,260] (runs over: clipped),
        // [140,145] (nested inside the second).
        let spans = [
            span(1, 0, 100, 200),
            span(2, 1, 90, 130),
            span(3, 1, 120, 150),
            span(4, 1, 180, 260),
            span(5, 1, 140, 145),
        ];
        let st = self_times(&spans);
        // Covered: [100,150] ∪ [180,200] = 50 + 20.
        assert_eq!(st[&1], 30);
        // A child that covers the whole parent leaves zero, never negative.
        let full = [span(1, 0, 10, 20), span(2, 1, 0, 30)];
        assert_eq!(self_times(&full)[&1], 0);
    }

    #[test]
    fn recorder_links_parents_samples_ops_and_never_grows() {
        let mut t = Spans::new(Instant::now(), 3, 2, 4);
        for op in 0..4u64 {
            t.begin_op(op, "op");
            t.begin("call");
            t.begin("body");
            t.add_reads(5);
            t.end();
            t.end();
            t.end();
        }
        assert_eq!(t.reads, 10, "reads tally only recorded ops");
        assert_eq!(t.dropped, 2, "op 2 overflowed the 4-span buffer by 2");
        let spans = t.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[1].id);
        assert_eq!(spans[3].op, 2);
        assert!(spans
            .iter()
            .all(|s| s.thread == 3 && s.end_ns >= s.start_ns));
        assert_eq!(spans[0].id >> 40, 3, "thread is in the id's high bits");
    }
}
