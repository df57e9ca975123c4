//! The span tracer: RAII guards building a per-request span tree.
//!
//! A [`Tracer`] is a cheap `Arc` handle over one request's arena of
//! spans. Guards ([`Span`]) stamp their start on creation and their
//! elapsed time on drop; children hang off the guard they were created
//! from, so the tree mirrors the call structure. When the request is
//! done, [`Tracer::take`] assembles the owned [`SpanNode`] tree — the
//! shape that crosses the wire (worker → coordinator) and renders into
//! `explain` replies.
//!
//! A *stage* ([`Tracer::stage`], [`Span::stage`]) is a span whose
//! duration the caller also wants as a number: it reads the clock at open
//! even on a disabled tracer, and [`Span::finish`] returns exactly the
//! duration it stamps on the node — one clock read feeds the statistics
//! and the tree.
//!
//! Parallel stages must not attach spans from pool threads (arrival
//! order would be racy): they measure locally and the coordinator calls
//! [`Span::child_done`] / [`Span::adopt`] in deterministic index order
//! after the join.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A typed tag value on a span.
#[derive(Clone, Debug, PartialEq)]
pub enum TagValue {
    /// Unsigned count (candidate counts, shard ids, versions).
    U64(u64),
    /// Probability or ratio.
    F64(f64),
    /// Short label (`"hit"`, a pattern's canonical form).
    Str(String),
    /// Flag (`from_cache`, `rebuilt`).
    Bool(bool),
}

impl From<u64> for TagValue {
    fn from(v: u64) -> Self {
        TagValue::U64(v)
    }
}

impl From<usize> for TagValue {
    fn from(v: usize) -> Self {
        TagValue::U64(v as u64)
    }
}

impl From<f64> for TagValue {
    fn from(v: f64) -> Self {
        TagValue::F64(v)
    }
}

impl From<&str> for TagValue {
    fn from(v: &str) -> Self {
        TagValue::Str(v.to_string())
    }
}

impl From<String> for TagValue {
    fn from(v: String) -> Self {
        TagValue::Str(v)
    }
}

impl From<bool> for TagValue {
    fn from(v: bool) -> Self {
        TagValue::Bool(v)
    }
}

/// One finished span in owned tree form: what [`Tracer::take`] returns,
/// what grafts onto another tree with [`Span::adopt`], and what the wire
/// codecs encode.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanNode {
    /// Stage name (`"retrieve"`, `"scatter"`, `"shard"`, ...).
    pub name: String,
    /// Wall time of the stage, in microseconds. The one field (besides
    /// the trace id) that varies between identical runs.
    pub elapsed_us: u64,
    /// Typed tags, in the order they were set.
    pub tags: Vec<(String, TagValue)>,
    /// Child spans, in deterministic creation/attach order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Total spans in this subtree (self included).
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(SpanNode::span_count).sum::<usize>()
    }

    /// Depth-first search for the first descendant (self included) with
    /// this name.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// The value of a tag on this span, if set.
    pub fn tag(&self, key: &str) -> Option<&TagValue> {
        self.tags.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A slot's child, in attach order: either another arena slot (a guard)
/// or a pre-built subtree ([`Span::adopt`]).
enum Child {
    Slot(usize),
    Done(SpanNode),
}

/// Arena slot: a span being built. Indices are stable for the arena's
/// lifetime; `elapsed_us` is `None` until the guard drops.
struct Slot {
    name: String,
    elapsed_us: Option<u64>,
    tags: Vec<(String, TagValue)>,
    children: Vec<Child>,
}

#[derive(Default)]
struct Arena {
    slots: Vec<Slot>,
    roots: Vec<usize>,
}

impl Arena {
    fn new_slot(&mut self, name: &str, parent: Option<usize>) -> usize {
        let idx = self.slots.len();
        self.slots.push(Slot {
            name: name.to_string(),
            elapsed_us: None,
            tags: Vec::new(),
            children: Vec::new(),
        });
        match parent {
            Some(p) => self.slots[p].children.push(Child::Slot(idx)),
            None => self.roots.push(idx),
        }
        idx
    }

    fn assemble(&mut self, idx: usize) -> SpanNode {
        let slot = &mut self.slots[idx];
        let name = std::mem::take(&mut slot.name);
        let elapsed_us = slot.elapsed_us.unwrap_or(0);
        let tags = std::mem::take(&mut slot.tags);
        let children = std::mem::take(&mut slot.children);
        let out: Vec<SpanNode> = children
            .into_iter()
            .map(|c| match c {
                Child::Slot(i) => self.assemble(i),
                Child::Done(node) => node,
            })
            .collect();
        SpanNode { name, elapsed_us, tags, children: out }
    }
}

struct Inner {
    trace_id: u64,
    arena: Mutex<Arena>,
}

/// A handle on one request's trace. Cloning shares the same span arena;
/// [`Tracer::disabled`] produces the no-op handle every hot path can
/// hold unconditionally. A handle opens its spans either at the root of
/// the trace or — when it came from [`Span::tracer`] — under that span.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
    /// Arena slot new spans hang under (`None` = root level).
    parent: Option<usize>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => write!(f, "Tracer(trace_id={})", inner.trace_id),
            None => write!(f, "Tracer(disabled)"),
        }
    }
}

impl Tracer {
    /// The no-op tracer: every [`Tracer::span`] it hands out is inert (no
    /// allocation, no lock, no clock read).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A recording tracer for one request, carrying the request's trace
    /// id (propagated to workers so distributed traces stitch).
    pub fn enabled(trace_id: u64) -> Tracer {
        let inner = Inner { trace_id, arena: Mutex::new(Arena::default()) };
        Tracer { inner: Some(Arc::new(inner)), parent: None }
    }

    /// Whether spans record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace id, when recording.
    pub fn trace_id(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.trace_id)
    }

    /// Opens a span at this handle's position (root level, or under the
    /// span the handle came from). Inert on a disabled tracer.
    pub fn span(&self, name: &str) -> Span {
        match self.inner {
            Some(_) => self.stage(name),
            None => Span::disabled(),
        }
    }

    /// Opens a span that carries its start time even when the tracer is
    /// disabled (one clock read; still no allocation and no lock), so
    /// [`Span::finish`] times the stage whether or not a tree is being
    /// recorded.
    pub fn stage(&self, name: &str) -> Span {
        let active = self.inner.as_ref().map(|inner| Active::open(inner, self.parent, name));
        Span { start: Some(Instant::now()), active }
    }

    /// Assembles and drains the recorded tree: the root-level spans in
    /// creation order. Call after the guards have dropped (a span still
    /// open reads as zero elapsed). Disabled tracers return nothing.
    pub fn take(&self) -> Vec<SpanNode> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut arena = inner.arena.lock().unwrap();
        let roots = std::mem::take(&mut arena.roots);
        let out = roots.into_iter().map(|r| arena.assemble(r)).collect();
        arena.slots.clear();
        out
    }
}

struct Active {
    inner: Arc<Inner>,
    idx: usize,
}

impl Active {
    fn open(inner: &Arc<Inner>, parent: Option<usize>, name: &str) -> Active {
        let idx = inner.arena.lock().unwrap().new_slot(name, parent);
        Active { inner: inner.clone(), idx }
    }
}

/// An open span: an RAII guard whose drop stamps the elapsed time. All
/// methods but [`Span::finish`] on a stage are no-ops on a disabled
/// tracer's spans.
pub struct Span {
    /// The open-time clock read. `None` on inert spans, on pre-finished
    /// ones ([`Span::child_done`] — their elapsed is already stamped),
    /// and once closed.
    start: Option<Instant>,
    active: Option<Active>,
}

impl Span {
    /// An inert span, for call paths that must pass a span but have no
    /// recording tracer behind it (untraced retrievals, tests).
    pub fn disabled() -> Span {
        Span { start: None, active: None }
    }

    /// Whether this span records anything (it came from an enabled
    /// tracer). Lets wire layers skip encoding trace fields entirely.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }

    /// The trace id of the tracer this span records into.
    pub fn trace_id(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.inner.trace_id)
    }

    /// A tracer handle positioned under this span: spans it opens become
    /// this span's children. Disabled when this span does not record.
    pub fn tracer(&self) -> Tracer {
        match &self.active {
            None => Tracer::disabled(),
            Some(a) => Tracer { inner: Some(a.inner.clone()), parent: Some(a.idx) },
        }
    }

    /// Opens a child span under this one (inert when this span does not
    /// record).
    pub fn child(&self, name: &str) -> Span {
        if self.is_recording() {
            self.stage(name)
        } else {
            Span::disabled()
        }
    }

    /// Opens a child stage under this one — see [`Tracer::stage`].
    pub fn stage(&self, name: &str) -> Span {
        let active = self.active.as_ref().map(|a| Active::open(&a.inner, Some(a.idx), name));
        Span { start: Some(Instant::now()), active }
    }

    /// Attaches an already-measured child (a parallel unit's local
    /// measurement, attached post-join in deterministic order). The
    /// returned guard can still take tags; its drop won't re-stamp the
    /// elapsed time.
    pub fn child_done(&self, name: &str, elapsed: Duration) -> Span {
        let active = self.active.as_ref().map(|a| {
            let mut arena = a.inner.arena.lock().unwrap();
            let idx = arena.new_slot(name, Some(a.idx));
            arena.slots[idx].elapsed_us = Some(elapsed.as_micros() as u64);
            Active { inner: a.inner.clone(), idx }
        });
        Span { start: None, active }
    }

    /// Grafts a pre-built subtree (e.g. a worker-side trace decoded off
    /// the wire) as a child of this span, at the current attach
    /// position.
    pub fn adopt(&self, node: SpanNode) {
        if let Some(a) = &self.active {
            let mut arena = a.inner.arena.lock().unwrap();
            arena.slots[a.idx].children.push(Child::Done(node));
        }
    }

    /// Sets a typed tag.
    pub fn tag(&self, key: &str, value: impl Into<TagValue>) {
        if let Some(a) = &self.active {
            let mut arena = a.inner.arena.lock().unwrap();
            arena.slots[a.idx].tags.push((key.to_string(), value.into()));
        }
    }

    /// Closes the span now and returns its elapsed time — the very value
    /// stamped on the node, from one clock read (zero for inert or
    /// pre-finished spans).
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let Some(t0) = self.start.take() else {
            return Duration::ZERO;
        };
        let elapsed = t0.elapsed();
        if let Some(a) = &self.active {
            let mut arena = a.inner.arena.lock().unwrap();
            if let Some(slot) = arena.slots.get_mut(a.idx) {
                slot.elapsed_us = Some(elapsed.as_micros() as u64);
            }
        }
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.active.is_some() {
            self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker-side subtree as it comes off the wire.
    fn worker_node(elapsed_us: u64, shard: Option<u64>) -> SpanNode {
        let tags = shard.map(|s| ("shard".to_string(), TagValue::U64(s))).into_iter().collect();
        SpanNode { name: "worker".into(), elapsed_us, tags, children: Vec::new() }
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.trace_id(), None);
        let root = t.span("request");
        let child = root.child("stage");
        child.tag("n", 3u64);
        child.adopt(worker_node(5, None));
        drop(child);
        drop(root);
        assert!(t.take().is_empty());
    }

    #[test]
    fn guards_build_a_nested_tree_in_creation_order() {
        let t = Tracer::enabled(42);
        assert_eq!(t.trace_id(), Some(42));
        {
            let root = t.span("request");
            root.tag("op", "query");
            {
                let a = root.child("prepare");
                a.tag("plan_from_cache", false);
            }
            {
                let b = root.child("retrieve");
                b.tag("candidates", 17usize);
                let _ = b.child("path");
            }
        }
        let tree = t.take();
        assert_eq!(tree.len(), 1);
        let root = &tree[0];
        assert_eq!(root.name, "request");
        assert_eq!(root.tag("op"), Some(&TagValue::Str("query".into())));
        assert_eq!(
            root.children.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
            ["prepare", "retrieve"]
        );
        assert_eq!(root.children[1].tag("candidates"), Some(&TagValue::U64(17)));
        assert_eq!(root.children[1].children[0].name, "path");
        assert_eq!(root.span_count(), 4);
        // The arena drains: a second take is empty.
        assert!(t.take().is_empty());
    }

    #[test]
    fn child_done_and_adopt_interleave_in_attach_order() {
        let t = Tracer::enabled(1);
        {
            let root = t.span("scatter");
            let s0 = root.child_done("unit", Duration::from_micros(10));
            s0.tag("shard", 0usize);
            drop(s0);
            root.adopt(worker_node(7, Some(1)));
            let s2 = root.child_done("unit", Duration::from_micros(20));
            s2.tag("shard", 2usize);
        }
        let tree = t.take();
        let names: Vec<_> = tree[0].children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["unit", "worker", "unit"]);
        assert_eq!(tree[0].children[0].elapsed_us, 10);
        assert_eq!(tree[0].children[1].tag("shard"), Some(&TagValue::U64(1)));
        assert_eq!(tree[0].children[2].tag("shard"), Some(&TagValue::U64(2)));
    }

    #[test]
    fn finish_stamps_the_duration_it_returns() {
        let t = Tracer::enabled(9);
        let root = t.span("request");
        let stage = root.stage("reduce");
        std::thread::sleep(Duration::from_millis(2));
        let d = stage.finish();
        assert!(d >= Duration::from_millis(2));
        // A handle taken off a span opens that span's children.
        drop(root.tracer().span("generate"));
        drop(root);
        let tree = t.take();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].find("reduce").unwrap().elapsed_us, d.as_micros() as u64);
        assert_eq!(tree[0].children[1].name, "generate");
        assert!(tree[0].find("nope").is_none());
    }

    #[test]
    fn a_stage_on_a_disabled_tracer_still_times() {
        let t = Tracer::disabled();
        let stage = t.stage("join");
        assert!(!stage.is_recording());
        let nested = stage.stage("pair");
        std::thread::sleep(Duration::from_millis(1));
        assert!(nested.finish() >= Duration::from_millis(1));
        assert!(stage.finish() >= Duration::from_millis(1));
        // Plain spans and children stay inert: no clock behind them.
        assert_eq!(t.span("join").finish(), Duration::ZERO);
        assert_eq!(t.stage("join").child("pair").finish(), Duration::ZERO);
        assert!(t.take().is_empty());
    }
}
