//! In-memory span recorder for the traced replay.
//!
//! A span holds a name, start, end, parent, and (on the placement path)
//! the id of the request it served. Spans stay in memory and are written
//! out once, when the replay ends. A span's self time is its duration
//! minus the part of its interval that its children cover.

use std::time::Instant;

use decarb_json::Value;

/// One recorded span; times are nanoseconds since the trace began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.plan`.
    pub name: String,
    /// Start, ns since the trace origin.
    pub start_ns: u64,
    /// End, ns since the trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id shared by the spans of one placement request.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// Starts an empty trace whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.ns(Instant::now());
        self.push(name, parent, now, now, None)
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a finished span from explicit instants (used for calls
    /// timed on worker threads); returns its index.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        request: Option<u64>,
    ) -> usize {
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(name, parent, s, e, request)
    }

    fn push(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
        request: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<R>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// All spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id`, seconds.
    pub fn seconds(&self, id: usize) -> f64 {
        self.spans[id].duration_ns() as f64 / 1e9
    }

    /// Summed duration of every span named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }

    /// Indices of the direct children of `id`.
    fn children(&self, id: usize) -> Vec<usize> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(id))
            .map(|(i, _)| i)
            .collect()
    }

    /// Nanoseconds of span `id`'s interval covered by at least one of
    /// its children (overlapping children, e.g. parallel workers, count
    /// once).
    pub fn covered_ns(&self, id: usize) -> u64 {
        self.covered_by(id, &self.children(id))
    }

    fn covered_by(&self, id: usize, children: &[usize]) -> u64 {
        let (lo, hi) = (self.spans[id].start_ns, self.spans[id].end_ns);
        let mut parts: Vec<(u64, u64)> = children
            .iter()
            .map(|&c| {
                let s = &self.spans[c];
                (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi))
            })
            .filter(|(s, e)| e > s)
            .collect();
        parts.sort_unstable();
        let mut covered = 0;
        let mut reach = lo;
        for (s, e) in parts {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        covered
    }

    /// Self time of every span, in nanoseconds: its duration minus what
    /// its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| s.duration_ns() - self.covered_by(i, &children[i]))
            .collect()
    }

    /// The spans as a JSON array (`name`, `start_ns`, `end_ns`,
    /// `parent`, `request`, `self_ns`).
    pub fn to_json(&self) -> Value {
        let self_ns = self.self_ns();
        Value::array(self.spans.iter().enumerate().map(|(i, s)| {
            Value::object([
                ("id", Value::from(i as f64)),
                ("name", Value::from(s.name.as_str())),
                ("start_ns", Value::from(s.start_ns as f64)),
                ("end_ns", Value::from(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::from(p as f64)),
                ),
                (
                    "request",
                    s.request.map_or(Value::Null, |r| Value::from(r as f64)),
                ),
                ("self_ns", Value::from(self_ns[i] as f64)),
            ])
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: &mut Trace, parent: Option<usize>, start: u64, end: u64) -> usize {
        trace.push("s", parent, start, end, None)
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Trace::new();
        let root = span(&mut t, None, 0, 100);
        let a = span(&mut t, Some(root), 10, 40);
        // Overlaps `a` (a parallel worker): the union counts once.
        span(&mut t, Some(root), 30, 50);
        // Sticks out past the root: only the inside part counts.
        span(&mut t, Some(root), 90, 120);
        // A grandchild is `a`'s, not the root's.
        span(&mut t, Some(a), 15, 25);
        assert_eq!(t.covered_ns(root), 40 + 10);
        let self_ns = t.self_ns();
        assert_eq!(self_ns[root], 50);
        assert_eq!(self_ns[a], 20);
        assert_eq!(self_ns[a + 1], 20);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let mut t = Trace::new();
        let leaf = span(&mut t, None, 5, 9);
        assert_eq!(t.self_ns()[leaf], 4);
        let timed = t.time("work", None, || 7);
        assert_eq!(timed, 7);
        assert_eq!(t.spans().len(), 2);
    }
}
