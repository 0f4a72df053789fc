//! In-memory span tracing from outside the layers.
//!
//! Each load thread owns a preallocated [`Tracer`]. A unit opens a root
//! span; every call the harness makes into a public function for that
//! unit is a child carrying the unit's request id. Spans stay in memory
//! and are written out once, when the workload ends. A span's *self
//! time* is its duration minus the part of it its children cover.

use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Spans one thread may record before further ones are dropped (and
/// counted): 32 bytes each, preallocated.
pub const SPAN_CAPACITY: usize = 400_000;

const NO_PARENT: u32 = u32::MAX;

/// Nanoseconds since the first call in this process; one clock for
/// every thread, so spans of different threads line up.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Span names. A name that is also a per-layer metric (`ode.commit_us`)
/// reports the p50 of that span's self time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u16)]
pub enum Name {
    Unit,
    Begin,
    NewVersion,
    Put,
    Commit,
    Snapshot,
    Deref,
    DerefV,
    Walk,
    HistoryBetween,
    VersionAsOf,
    Send,
    Wait,
    Recv,
    CurrentVersion,
    Fork,
    Edit,
    MergeCall,
    Readback,
}

impl Name {
    pub const ALL: [Name; 19] = [
        Name::Unit,
        Name::Begin,
        Name::NewVersion,
        Name::Put,
        Name::Commit,
        Name::Snapshot,
        Name::Deref,
        Name::DerefV,
        Name::Walk,
        Name::HistoryBetween,
        Name::VersionAsOf,
        Name::Send,
        Name::Wait,
        Name::Recv,
        Name::CurrentVersion,
        Name::Fork,
        Name::Edit,
        Name::MergeCall,
        Name::Readback,
    ];

    /// The span's name in the trace file and, except for `unit`, the
    /// per-layer metric it feeds.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Unit => "unit",
            Name::Begin => "ode.begin_us",
            Name::NewVersion => "ode.newversion_us",
            Name::Put => "ode.put_us",
            Name::Commit => "ode.commit_us",
            Name::Snapshot => "ode.snapshot_us",
            Name::Deref => "ode.deref_us",
            Name::DerefV => "ode.deref_v_us",
            Name::Walk => "ode.walk_us",
            Name::HistoryBetween => "ode.history_between_us",
            Name::VersionAsOf => "ode.version_as_of_us",
            Name::Send => "net.send_us_per_batch",
            Name::Wait => "net.wait_us_per_batch",
            Name::Recv => "net.recv_us_per_batch",
            Name::CurrentVersion => "net.current_version_us",
            Name::Fork => "net.fork_us",
            Name::Edit => "net.edit_us",
            Name::MergeCall => "net.merge_call_us",
            Name::Readback => "net.readback_us",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: u32,
    /// The unit this span was recorded for.
    pub request: u32,
}

/// One thread's span buffer.
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_on`]; the
    /// buffer is allocated only for traced runs.
    pub fn new(traced_run: bool) -> Tracer {
        Tracer {
            on: false,
            spans: Vec::with_capacity(if traced_run { SPAN_CAPACITY } else { 0 }),
            open: Vec::with_capacity(8),
            request: 0,
            dropped: 0,
        }
    }

    /// Switch recording on or off; only between units.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "tracing toggled inside a unit");
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span under the innermost open one. Pair with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: Name) {
        if !self.on {
            return;
        }
        if self.spans.len() == self.spans.capacity() {
            // The buffer never shrinks, so every span under a dropped
            // one is dropped too; the marker keeps the stack balanced.
            self.dropped += 1;
            self.open.push(NO_PARENT);
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            request: self.request,
        });
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end = now_ns();
        match self.open.pop() {
            Some(NO_PARENT) | None => {}
            Some(idx) => self.spans[idx as usize].end_ns = end,
        }
    }

    /// Open the root span of the next unit.
    pub fn begin_unit(&mut self) {
        self.request = self.request.wrapping_add(1);
        self.open(Name::Unit);
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Self time of every span in one thread's buffer: duration minus the
/// union of its children's intervals, clipped to the span itself.
/// Spans are stored in start order, so each parent's children arrive
/// in start order and one running "covered until" mark per parent
/// handles overlapping children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    let mut covered_until: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    for span in spans {
        let p = span.parent as usize;
        if span.parent == NO_PARENT {
            continue;
        }
        let parent = &spans[p];
        let from = span.start_ns.max(covered_until[p]);
        let to = span.end_ns.min(parent.end_ns);
        if to > from {
            covered[p] += to - from;
            covered_until[p] = to;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.end_ns.saturating_sub(s.start_ns).saturating_sub(c))
        .collect()
}

/// Self times in nanoseconds grouped by span name, over every thread.
pub fn self_times_by_name(tracers: &[Tracer]) -> Vec<(Name, Vec<u64>)> {
    let mut by_name: Vec<(Name, Vec<u64>)> = Name::ALL.iter().map(|&n| (n, Vec::new())).collect();
    for tracer in tracers {
        for (span, own) in tracer.spans().iter().zip(self_times(tracer.spans())) {
            by_name[span.name as usize].1.push(own);
        }
    }
    by_name
}

/// Write every span to `path`. See the README for the layout.
pub fn write_file(path: &Path, workload: &str, tracers: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let names: Vec<String> = Name::ALL
        .iter()
        .map(|n| format!("\"{}\"", n.as_str()))
        .collect();
    writeln!(w, "{{\"workload\": \"{workload}\",")?;
    writeln!(w, " \"names\": [{}],", names.join(", "))?;
    writeln!(
        w,
        " \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"request\"],"
    )?;
    writeln!(w, " \"threads\": [")?;
    for (t, tracer) in tracers.iter().enumerate() {
        writeln!(
            w,
            "  {{\"thread\": {t}, \"dropped\": {}, \"spans\": [",
            tracer.dropped()
        )?;
        let last = tracer.spans().len().saturating_sub(1);
        for (i, s) in tracer.spans().iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let comma = if i == last { "" } else { "," };
            writeln!(
                w,
                "   [{}, {}, {}, {parent}, {}]{comma}",
                s.name as u16, s.start_ns, s.end_ns, s.request
            )?;
        }
        let comma = if t + 1 == tracers.len() { "" } else { "," };
        writeln!(w, "  ]}}{comma}")?;
    }
    writeln!(w, " ]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name: Name::Unit,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..60 with its own child 20..30; child 70..90.
        let spans = [
            span(0, 100, NO_PARENT),
            span(10, 60, 0),
            span(20, 30, 1),
            span(70, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn self_time_counts_overlapping_children_as_their_union() {
        // children 10..50 and 30..70 overlap by 20; a third, 40..45, is
        // wholly covered; a fourth, 90..120, is clipped to the parent.
        let spans = [
            span(0, 100, NO_PARENT),
            span(10, 50, 0),
            span(30, 70, 0),
            span(40, 45, 0),
            span(90, 120, 0),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_records_parents_and_request_ids() {
        let mut t = Tracer::new(true);
        t.begin_unit();
        t.close(); // off: nothing recorded
        assert!(t.spans().is_empty());
        t.set_on(true);
        t.begin_unit();
        t.time(Name::Commit, || ());
        t.close();
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), (Name::Unit, NO_PARENT));
        assert_eq!((s[1].name, s[1].parent), (Name::Commit, 0));
        assert_eq!(s[0].request, s[1].request);
        assert!(s[0].end_ns >= s[1].end_ns && s[1].end_ns >= s[1].start_ns);
    }
}
