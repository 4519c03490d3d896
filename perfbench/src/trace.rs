//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public API.
//!
//! Every request gets a root span (`request`) with an id; the calls made
//! on its behalf become child spans naming the layer entered
//! (`core.post_send`, `verbs.cq_wait`, `socket.write`, ...). Aggregates
//! (a duration histogram per name, and per-name self time: duration minus
//! the time its children cover) are kept for every span in constant
//! memory; the raw spans are kept up to [`STORED_SPANS`] and written out
//! when the run ends.

use crate::util::Hist;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Raw spans kept for the span file per thread (aggregates cover all).
const STORED_SPANS: usize = 150_000;

/// Name of every root span.
pub const REQUEST: &str = "request";

/// A parent reference: the span id and its name.
pub type Parent = (u64, &'static str);

#[derive(Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// One thread's span recorder. `on` switches recording; when off every
/// call is a plain pass-through.
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    next_id: u64,
    thread: u64,
    hists: BTreeMap<&'static str, Hist>,
    total_ns: BTreeMap<&'static str, u128>,
    /// Child time covered inside spans of each parent name.
    child_ns: BTreeMap<&'static str, u128>,
    stored: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// `thread` keeps ids unique when several threads' spans are merged.
    pub fn new(epoch: Instant, thread: u64) -> Self {
        Self {
            on: false,
            epoch,
            next_id: 1,
            thread,
            hists: BTreeMap::new(),
            total_ns: BTreeMap::new(),
            child_ns: BTreeMap::new(),
            stored: Vec::new(),
            dropped: 0,
        }
    }

    /// The instant span times are measured from; give it to the
    /// recorders of other threads whose spans are merged into this one.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// A fresh span id (0 when tracing is off: "no span").
    pub fn new_id(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let id = (self.thread << 48) | self.next_id;
        self.next_id += 1;
        id
    }

    /// Record a finished span. `parent` of `None` makes a root.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<Parent>,
        start: Instant,
        end: Instant,
    ) {
        if !self.on || id == 0 && parent.is_none() {
            return;
        }
        let dur = end.saturating_duration_since(start).as_nanos() as u64;
        self.hists.entry(name).or_default().record(dur);
        *self.total_ns.entry(name).or_default() += u128::from(dur);
        if let Some((_, pname)) = parent {
            *self.child_ns.entry(pname).or_default() += u128::from(dur);
        }
        if self.stored.len() < STORED_SPANS {
            let id = if id == 0 { self.new_id() } else { id };
            self.stored.push(Span {
                id,
                parent: parent.map_or(0, |p| p.0),
                name,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Time `f` as a child span `name` of `parent` (a pass-through when
    /// tracing is off or there is no parent).
    pub fn child<T>(
        &mut self,
        name: &'static str,
        parent: Option<Parent>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on || parent.is_none() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(0, name, parent, start, Instant::now());
        out
    }

    /// Fold another thread's recorder into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (k, h) in other.hists {
            self.hists.entry(k).or_default().merge(&h);
        }
        for (k, v) in other.total_ns {
            *self.total_ns.entry(k).or_default() += v;
        }
        for (k, v) in other.child_ns {
            *self.child_ns.entry(k).or_default() += v;
        }
        let room = STORED_SPANS.saturating_sub(self.stored.len());
        self.dropped += other.dropped + other.stored.len().saturating_sub(room) as u64;
        self.stored.extend(other.stored.into_iter().take(room));
    }

    /// Duration histogram of one span name (empty if never recorded).
    pub fn hist(&self, name: &str) -> Hist {
        self.hists.get(name).cloned().unwrap_or_default()
    }

    /// Per-name `(count, total ns, self ns)`.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u128, u128)> {
        self.total_ns
            .iter()
            .map(|(&name, &total)| {
                let child = self.child_ns.get(name).copied().unwrap_or(0);
                let n = self.hists.get(name).map_or(0, Hist::count);
                (name, n, total, total.saturating_sub(child))
            })
            .collect()
    }

    /// Write the stored spans as tab-separated
    /// `id parent name start_ns end_ns` lines.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# id\tparent\tname\tstart_ns\tend_ns (dropped after cap: {})",
            self.dropped
        )?;
        for s in &self.stored {
            writeln!(
                out,
                "{:x}\t{:x}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
