//! Harness-side tracing: one in-memory span per layer boundary, recorded
//! around the public calls into each layer (spans inside `crates/` are a
//! later issue), written to `trace.json` when the run ends.

use pegwire::{obj, Json};
use std::time::Instant;

pub type SpanId = usize;

/// One recorded span. `request` is the index of the request it belongs
/// to — the identifier every span of one request shares.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub request: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work counts and attached measurements taken at this boundary.
    pub tags: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans. Ids are indices into the recorder, so a parent always
/// precedes its children.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new() }
    }

    /// An empty recorder on the same clock, for another thread;
    /// [`Recorder::absorb`] merges it back.
    pub fn sibling(&self) -> Recorder {
        Recorder { origin: self.origin, spans: Vec::new() }
    }

    /// Appends `other`'s spans, keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; it stays zero-length until [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: usize) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns: now,
            end_ns: now,
            tags: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Closes `id` now and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_ns()
    }

    pub fn tag(&mut self, id: SpanId, key: &'static str, value: f64) {
        self.spans[id].tags.push((key, value));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
    }

    /// Share of the `root`-named spans' time that none of their children
    /// cover: `1 − Σ children ÷ Σ roots`.
    pub fn residual_share(&self, root: &str) -> f64 {
        let total: u64 = self.spans.iter().filter(|s| s.name == root).map(Span::duration_ns).sum();
        let own: u64 = (0..self.spans.len())
            .filter(|&id| self.spans[id].name == root)
            .map(|id| self_time_ns(&self.spans, id))
            .sum();
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }

    /// The spans as a JSON array; each carries its self time.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let tags = s.tags.iter().fold(obj(), |o, (k, v)| o.field(k, *v)).build();
                    obj()
                        .field("id", id)
                        .field_opt("parent", s.parent)
                        .field("name", s.name)
                        .field("request", s.request)
                        .field("start_ns", s.start_ns)
                        .field("end_ns", s.end_ns)
                        .field("self_ns", self_time_ns(&self.spans, id))
                        .field("tags", tags)
                        .build()
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part of its interval its
/// direct children cover (overlapping children are not counted twice,
/// and a child is clipped to its parent).
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let parent = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    parent.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "s", parent, request: 0, start_ns, end_ns, tags: Vec::new() }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span(None, 100, 200),    // 0: root
            span(Some(0), 110, 130), // disjoint child
            span(Some(0), 150, 180), // overlapping pair...
            span(Some(0), 170, 190), // ...covers 150..190 together
            span(Some(2), 155, 160), // grandchild: not the root's business
            span(Some(0), 195, 250), // sticks out: clipped to 195..200
        ];
        // Covered: 20 + 40 + 5 = 65 of 100.
        assert_eq!(self_time_ns(&spans, 0), 35);
        assert_eq!(self_time_ns(&spans, 2), 25);
        assert_eq!(self_time_ns(&spans, 1), 20);
    }

    #[test]
    fn residual_share_is_uncovered_root_time() {
        let mut rec = Recorder::new();
        rec.spans = vec![
            Span { name: "root", ..span(None, 0, 100) },
            Span { name: "child", ..span(Some(0), 10, 90) },
            Span { name: "root", ..span(None, 100, 200) },
            Span { name: "child", ..span(Some(2), 100, 200) },
        ];
        assert!((rec.residual_share("root") - 0.1).abs() < 1e-12);
        assert_eq!(rec.durations("child"), vec![80.0, 100.0]);
        assert_eq!(rec.residual_share("absent"), 0.0);
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let mut rec = Recorder::new();
        let root = rec.open("client.request", None, 3);
        let child = rec.open("client.encode", Some(root), 3);
        rec.close(child);
        rec.tag(root, "elapsed_us", 12.0);
        rec.close(root);
        let json = rec.to_json();
        let spans = json.as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(Json::as_usize), Some(0));
        assert_eq!(spans[0].get("request").and_then(Json::as_usize), Some(3));
        assert_eq!(
            spans[0].get("tags").and_then(|t| t.get("elapsed_us")).and_then(Json::as_f64),
            Some(12.0)
        );
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
    }
}
