//! Hierarchical timing spans.
//!
//! A [`SpanProfiler`] records wall time per *span path*: nested
//! [`SpanProfiler::enter`] calls build `/`-joined paths such as
//! `simulate/sample/automaton-step`, and every exit folds the elapsed
//! wall into an aggregate for that path.  Snapshots come out as
//! [`SpanStats`] — plain data (count + wall per path) that merges
//! associatively, so it can flow `RunReport` → `CampaignReport` →
//! `DetectionMatrix` exactly like monitoring counters — and, like them,
//! it stays outside every fingerprint.
//!
//! Internally the profiler is a tree, not a string table: each distinct
//! call path is resolved once to a node, and entering a span is a
//! pointer-compare scan over the current node's children.  The hot path
//! never allocates and never joins strings.  Very high-frequency spans
//! (every checker sample, every automaton step) are ticked locally by
//! their caller and folded in through [`SpanProfiler::resolve`] and
//! [`SpanProfiler::add_counts`]: counts stay exact, but only one in
//! [`SAMPLE_RATE`] entries takes timestamps, and the snapshot scales the
//! measured wall by `count / timed`.  That keeps the per-sample cost to
//! a counter bump on the other entries.
//!
//! The profiler is shared as `Rc<RefCell<SpanProfiler>>` because the
//! simulation flows are single-threaded (`!Send`); each worker thread of
//! a sharded campaign owns its own profiler and the shard reports merge.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Deterministic timing rate of the sampled hot spans: one in this many
/// entries is timed (the 1st, the 65th, ...). Counts stay exact; walls
/// are scaled back up at snapshot time.
pub const SAMPLE_RATE: u64 = 64;

/// Aggregate for one span path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanEntry {
    /// Number of times the span was entered and exited.
    pub count: u64,
    /// Total wall time spent inside the span (including children). For
    /// sampled spans this is the measured wall scaled by `count /
    /// timed-entries` — statistically representative, not exact.
    pub wall: Duration,
}

/// Per-phase wall/count aggregates keyed by hierarchical span path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    entries: BTreeMap<String, SpanEntry>,
}

impl SpanStats {
    /// Creates an empty stats table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no span was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct span paths.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Folds one completed span occurrence into the table.
    pub fn record(&mut self, path: &str, wall: Duration) {
        self.add(path, 1, wall);
    }

    /// Folds an already-aggregated (count, wall) pair into the table.
    pub fn add(&mut self, path: &str, count: u64, wall: Duration) {
        let entry = self.entries.entry(path.to_owned()).or_default();
        entry.count += count;
        entry.wall += wall;
    }

    /// Looks up the aggregate for an exact span path.
    pub fn get(&self, path: &str) -> Option<SpanEntry> {
        self.entries.get(path).copied()
    }

    /// Iterates `(path, entry)` in sorted path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, SpanEntry)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another table into this one (counts and walls add).
    pub fn merge(&mut self, other: &SpanStats) {
        for (path, entry) in &other.entries {
            self.add(path, entry.count, entry.wall);
        }
    }
}

impl fmt::Display for SpanStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return writeln!(f, "(no spans recorded)");
        }
        writeln!(
            f,
            "{:<40} {:>10} {:>12} {:>12}",
            "span", "count", "wall", "mean"
        )?;
        for (path, entry) in &self.entries {
            let mean = if entry.count == 0 {
                Duration::ZERO
            } else {
                entry.wall / entry.count as u32
            };
            writeln!(
                f,
                "{:<40} {:>10} {:>12} {:>12}",
                path,
                entry.count,
                format!("{:.3?}", entry.wall),
                format!("{:.3?}", mean),
            )?;
        }
        Ok(())
    }
}

/// One call-path node of the profiler tree.
#[derive(Debug)]
struct Node {
    name: &'static str,
    parent: usize,
    children: Vec<usize>,
    count: u64,
    timed: u64,
    wall: Duration,
}

/// Records hierarchical spans into a call-path tree; see the module docs
/// for the hot-path design.
#[derive(Debug)]
pub struct SpanProfiler {
    nodes: Vec<Node>,
    current: usize,
}

impl Default for SpanProfiler {
    fn default() -> Self {
        SpanProfiler {
            nodes: vec![Node {
                name: "",
                parent: 0,
                children: Vec::new(),
                count: 0,
                timed: 0,
                wall: Duration::ZERO,
            }],
            current: 0,
        }
    }
}

/// Shared handle threaded through the single-threaded flow objects.
pub type SharedProfiler = Rc<RefCell<SpanProfiler>>;

impl SpanProfiler {
    /// Creates a fresh shared profiler.
    pub fn shared() -> SharedProfiler {
        Rc::new(RefCell::new(SpanProfiler::default()))
    }

    /// Resolves `name` as a child of `parent`, creating the node on
    /// first sight. The lookup pointer-compares the `&'static str` so
    /// the hot path never hashes or allocates.
    fn child(&mut self, parent: usize, name: &'static str) -> usize {
        let found = self.nodes[parent].children.iter().copied().find(|&c| {
            let n = self.nodes[c].name;
            n.as_ptr() == name.as_ptr() && n.len() == name.len()
        });
        match found {
            Some(idx) => idx,
            None => {
                let idx = self.nodes.len();
                self.nodes.push(Node {
                    name,
                    parent,
                    children: Vec::new(),
                    count: 0,
                    timed: 0,
                    wall: Duration::ZERO,
                });
                self.nodes[parent].children.push(idx);
                idx
            }
        }
    }

    /// Resolves a child chain under the current node **without entering
    /// it**, returning the leaf's node id for [`SpanProfiler::add_counts`].
    /// Lets a caller that ticks a very hot span locally (plain integer
    /// bumps, no guard) capture the hierarchy once and fold aggregates
    /// in later.
    pub fn resolve(&mut self, path: &[&'static str]) -> usize {
        let mut cur = self.current;
        for name in path {
            cur = self.child(cur, name);
        }
        cur
    }

    /// Folds a locally-accumulated aggregate into a node from
    /// [`SpanProfiler::resolve`]: `count` occurrences of which `timed`
    /// contributed `wall`.
    pub fn add_counts(&mut self, node: usize, count: u64, timed: u64, wall: Duration) {
        let node = &mut self.nodes[node];
        node.count += count;
        node.timed += timed;
        node.wall += wall;
    }

    /// Makes `name`'s node current and counts the entry.
    fn enter_impl(&mut self, name: &'static str) -> usize {
        let idx = self.child(self.current, name);
        self.current = idx;
        self.nodes[idx].count += 1;
        idx
    }

    fn exit_impl(&mut self, idx: usize, wall: Duration) {
        let node = &mut self.nodes[idx];
        node.timed += 1;
        node.wall += wall;
        self.current = node.parent;
    }

    /// Enters a named span; the returned guard closes it on drop. Every
    /// entry is timed — use this for per-phase spans (`simulate`,
    /// `synthesis`), not per-sample ones.
    pub fn enter(profiler: &SharedProfiler, name: &'static str) -> SpanGuard {
        let node = profiler.borrow_mut().enter_impl(name);
        SpanGuard {
            profiler: Rc::clone(profiler),
            node,
            start: Instant::now(),
        }
    }

    /// Enters a span only when a profiler is attached; a disabled call
    /// is a single `Option` branch.
    pub fn maybe_enter(profiler: &Option<SharedProfiler>, name: &'static str) -> Option<SpanGuard> {
        profiler.as_ref().map(|p| SpanProfiler::enter(p, name))
    }

    /// The aggregated stats so far: walks the call tree, joins paths,
    /// and scales sampled walls by `count / timed`.
    pub fn stats(&self) -> SpanStats {
        fn walk(nodes: &[Node], idx: usize, prefix: &str, stats: &mut SpanStats) {
            let node = &nodes[idx];
            let path = if prefix.is_empty() {
                node.name.to_owned()
            } else {
                format!("{prefix}/{}", node.name)
            };
            if node.count > 0 {
                let wall = if node.timed == 0 {
                    Duration::ZERO
                } else if node.timed == node.count {
                    node.wall
                } else {
                    node.wall.mul_f64(node.count as f64 / node.timed as f64)
                };
                stats.add(&path, node.count, wall);
            }
            for &child in &node.children {
                walk(nodes, child, &path, stats);
            }
        }
        let mut stats = SpanStats::new();
        for &child in &self.nodes[0].children {
            walk(&self.nodes, child, "", &mut stats);
        }
        stats
    }

    /// Clones the aggregated stats out of a shared handle.
    pub fn snapshot(profiler: &SharedProfiler) -> SpanStats {
        profiler.borrow().stats()
    }
}

/// RAII guard returned by the `enter` family; closes the span on drop.
#[derive(Debug)]
pub struct SpanGuard {
    profiler: SharedProfiler,
    node: usize,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        self.profiler.borrow_mut().exit_impl(self.node, elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_build_hierarchical_paths() {
        let profiler = SpanProfiler::shared();
        {
            let _outer = SpanProfiler::enter(&profiler, "simulate");
            for _ in 0..3 {
                let _inner = SpanProfiler::enter(&profiler, "sample");
                let _leaf = SpanProfiler::enter(&profiler, "automaton-step");
            }
        }
        let stats = SpanProfiler::snapshot(&profiler);
        assert_eq!(stats.get("simulate").unwrap().count, 1);
        assert_eq!(stats.get("simulate/sample").unwrap().count, 3);
        assert_eq!(
            stats.get("simulate/sample/automaton-step").unwrap().count,
            3
        );
        assert!(stats.get("sample").is_none());
    }

    #[test]
    fn same_name_under_different_parents_stays_separate() {
        let profiler = SpanProfiler::shared();
        {
            let _a = SpanProfiler::enter(&profiler, "a");
            let _s = SpanProfiler::enter(&profiler, "step");
        }
        {
            let _b = SpanProfiler::enter(&profiler, "b");
            let _s = SpanProfiler::enter(&profiler, "step");
        }
        let stats = SpanProfiler::snapshot(&profiler);
        assert_eq!(stats.get("a/step").unwrap().count, 1);
        assert_eq!(stats.get("b/step").unwrap().count, 1);
        assert!(stats.get("step").is_none());
    }

    #[test]
    fn sampled_spans_keep_exact_counts_and_scale_walls() {
        let profiler = SpanProfiler::shared();
        // A hot span ticked locally, as the checker does: entries 1, 65,
        // 129 and 193 of 199 were timed, at 4 µs each.
        let count = 3 * SAMPLE_RATE + 7;
        let timed = count.div_ceil(SAMPLE_RATE);
        let node = profiler.borrow_mut().resolve(&["sample", "automaton-step"]);
        profiler
            .borrow_mut()
            .add_counts(node, count, timed, Duration::from_micros(4 * timed));
        let stats = SpanProfiler::snapshot(&profiler);
        let entry = stats.get("sample/automaton-step").unwrap();
        assert_eq!(entry.count, count);
        // The wall is scaled by count / timed: 199 entries at 4 µs.
        let expected = Duration::from_micros(4 * count);
        assert!(
            entry.wall.abs_diff(expected) <= Duration::from_nanos(1),
            "wall {:?}",
            entry.wall
        );
        // `resolve` does not enter the chain it walks.
        assert!(stats.get("sample").is_none());
    }

    #[test]
    fn merge_adds_counts_and_walls() {
        let mut a = SpanStats::new();
        a.record("x", Duration::from_millis(2));
        a.record("x", Duration::from_millis(3));
        let mut b = SpanStats::new();
        b.record("x", Duration::from_millis(5));
        b.record("y", Duration::from_millis(1));
        a.merge(&b);
        assert_eq!(
            a.get("x").unwrap(),
            SpanEntry {
                count: 3,
                wall: Duration::from_millis(10)
            }
        );
        assert_eq!(a.get("y").unwrap().count, 1);
    }

    #[test]
    fn display_renders_a_table() {
        let mut stats = SpanStats::new();
        stats.record("simulate/sample", Duration::from_micros(250));
        let text = stats.to_string();
        assert!(text.contains("simulate/sample"));
        assert!(text.contains("count"));
    }

    #[test]
    fn maybe_enter_is_inert_without_a_profiler() {
        let none: Option<SharedProfiler> = None;
        assert!(SpanProfiler::maybe_enter(&none, "simulate").is_none());
    }
}
