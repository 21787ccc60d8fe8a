//! In-memory span trees recorded around calls into each layer.
//!
//! A span has a name, a request id, a parent, and start/end times in
//! nanoseconds since a shared epoch. Spans are kept in memory during
//! the run and written out once at the end. A span's self time is its
//! duration minus the part of its interval that its children cover, so
//! the self times of a tree sum to its root's duration exactly when
//! the children nest inside their parents without overlapping — which
//! [`check_trees`] verifies for every tree.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `calibro.codegen`.
    pub name: &'static str,
    /// Request the span belongs to; every span of one tree shares it.
    pub request: u64,
    /// Index of the parent span; `None` for a root.
    pub parent: Option<usize>,
    /// Start, in ns since the recorder's epoch.
    pub start: u64,
    /// End, in ns since the recorder's epoch.
    pub end: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans; one per thread, merged with [`Recorder::absorb`].
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder timing from `epoch` (share one epoch across threads).
    #[must_use]
    pub fn new(epoch: Instant) -> Recorder {
        Recorder { epoch, spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span { name, request, parent, start, end: start });
        self.spans.len() - 1
    }

    /// Closes the span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn wrap<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, request, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another recorder's spans (same epoch), re-basing their
    /// parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Opens a span when tracing (`rec` is `Some`).
pub fn open(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    request: u64,
    parent: Option<usize>,
) -> Option<usize> {
    rec.as_mut().map(|r| r.open(name, request, parent))
}

/// Closes a span [`open`] returned.
pub fn close(rec: &mut Option<&mut Recorder>, id: Option<usize>) {
    if let (Some(r), Some(id)) = (rec.as_mut(), id) {
        r.close(id);
    }
}

fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(i);
        }
    }
    kids
}

/// Self time of every span, in ns: duration minus the union of its
/// children's intervals clipped to its own.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let kids = children(spans);
    spans
        .iter()
        .zip(&kids)
        .map(|(s, ks)| {
            let mut intervals: Vec<(u64, u64)> = ks
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Checks every tree: each child lies inside its parent and belongs to
/// the same request, and the self times of the tree (the root's own
/// self time being its `other`) sum exactly to the root's duration.
/// Returns the number of trees checked.
///
/// # Errors
///
/// A description of the first tree that does not add up.
pub fn check_trees(spans: &[Span], self_ns: &[u64]) -> Result<usize, String> {
    let kids = children(spans);
    let mut roots = 0;
    for (r, root) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
        roots += 1;
        let mut sum = 0u64;
        let mut stack = vec![r];
        while let Some(i) = stack.pop() {
            sum += self_ns[i];
            for &k in &kids[i] {
                let (c, p) = (&spans[k], &spans[i]);
                if c.start < p.start || c.end > p.end || c.request != p.request {
                    return Err(format!(
                        "request {}: span {} escapes its parent {}",
                        root.request, c.name, p.name
                    ));
                }
                stack.push(k);
            }
        }
        if sum != root.duration() {
            return Err(format!(
                "request {}: layers of {} sum to {sum} ns, root lasted {} ns",
                root.request,
                root.name,
                root.duration()
            ));
        }
    }
    Ok(roots)
}

/// Name under which a root's own self time is reported.
pub const OTHER: &str = "other";

/// Per-layer view of every tree rooted at `root`: for each layer, the
/// median over trees of its self time (ms), with the root's own self
/// time under [`OTHER`]; plus the median root duration (ms) and the
/// number of trees.
#[must_use]
pub fn breakdown(
    spans: &[Span],
    self_ns: &[u64],
    root: &str,
) -> (BTreeMap<&'static str, f64>, f64, usize) {
    let kids = children(spans);
    let mut per_layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut totals = Vec::new();
    for (r, span) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none() && s.name == root)
    {
        let tree = totals.len();
        totals.push(ms(span.duration()));
        let mut stack: Vec<(usize, &'static str)> =
            kids[r].iter().map(|&k| (k, spans[k].name)).collect();
        let mut layers: BTreeMap<&'static str, u64> = BTreeMap::from([(OTHER, self_ns[r])]);
        while let Some((i, name)) = stack.pop() {
            *layers.entry(name).or_default() += self_ns[i];
            stack.extend(kids[i].iter().map(|&k| (k, spans[k].name)));
        }
        for (name, ns) in layers {
            let samples = per_layer.entry(name).or_default();
            // A layer absent from earlier trees counts zero there.
            samples.resize(tree, 0.0);
            samples.push(ms(ns));
        }
    }
    let trees = totals.len();
    let medians = per_layer
        .into_iter()
        .map(|(name, mut samples)| {
            samples.resize(trees, 0.0);
            (name, median(&samples))
        })
        .collect();
    (medians, median(&totals), trees)
}

/// Milliseconds from nanoseconds.
#[must_use]
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Writes one JSON object per span.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_jsonl(path: &Path, spans: &[Span], self_ns: &[u64]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, own)) in spans.iter().zip(self_ns).enumerate() {
        let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
            s.name, s.request, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span { name, request: 7, parent, start, end }
    }

    #[test]
    fn layers_sum_to_root() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 40, 90),
            span("b.inner", Some(2), 50, 60),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![20, 30, 40, 10]);
        assert_eq!(check_trees(&spans, &own), Ok(1));
        let (layers, total, trees) = breakdown(&spans, &own, "root");
        assert_eq!((total, trees), (ms(100), 1));
        assert_eq!(layers[OTHER], ms(20));
        assert_eq!(layers["b"], ms(40));
    }

    #[test]
    fn overlapping_or_escaping_children_are_rejected() {
        let overlap =
            vec![span("root", None, 0, 100), span("a", Some(0), 0, 60), span("b", Some(0), 50, 90)];
        assert!(check_trees(&overlap, &self_times(&overlap)).is_err());
        let escape = vec![span("root", None, 0, 100), span("a", Some(0), 90, 120)];
        assert!(check_trees(&escape, &self_times(&escape)).is_err());
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        let root = a.open("root", 1, None);
        a.close(root);
        let mut b = Recorder::new(epoch);
        let r = b.open("root", 2, None);
        b.wrap("child", 2, Some(r), || ());
        b.close(r);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(check_trees(a.spans(), &self_times(a.spans())), Ok(2));
    }
}
