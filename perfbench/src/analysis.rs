//! Turns the traced run's spans into per-layer numbers.
//!
//! A span's *self time* is its duration minus the part of that interval
//! its children cover. When children overlap — a query fanned out to two
//! shards runs two `core.filter` spans at once — their union is what the
//! parent loses, and each child's subtree is scaled by
//! `union / Σ child durations` when layer times are summed, so parallel
//! work is not counted twice. With every span inside its parent, the layer
//! times of an op then add up exactly to its `client.op` duration; what
//! does not (a span outside its parent, a worker's filter span that
//! matches no query) is reported as unattributed.

use std::collections::HashMap;

use crate::client::OpKind;
use crate::stats::{mean, median, Tally};
use crate::trace::{FileKind, Name, Span};

/// Layers the time of an op is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Client,
    Service,
    Core,
    Pagestore,
    Oodb,
    Drops,
}

const LAYERS: usize = 6;

impl Layer {
    fn of(name: Name) -> Layer {
        match name {
            Name::ClientOp => Layer::Client,
            Name::ServiceQuery | Name::ServiceUpdate => Layer::Service,
            Name::CoreFilter | Name::CoreUpdate => Layer::Core,
            Name::PageRead | Name::PageWrite => Layer::Pagestore,
            Name::OodbFetch => Layer::Oodb,
            Name::DropsResolve => Layer::Drops,
        }
    }
}

/// What the analysis needs to know about an op besides its spans.
#[derive(Debug, Clone, Copy)]
pub struct OpInfo {
    pub kind: OpKind,
    /// ⊇ (true) or ⊆ query.
    pub superset: bool,
    pub d_q: u32,
}

/// Length of the union of `intervals`.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the union of its children's
/// intervals clipped to it.
pub fn self_time(span: &Span, children: &[Span]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start.clamp(span.start, span.end),
                c.end.clamp(span.start, span.end),
            )
        })
        .collect();
    span.dur() - union_len(&mut clipped)
}

/// The span forest, with worker-side filter spans linked to the query
/// that caused them.
struct Forest<'a> {
    spans: &'a [Span],
    children: HashMap<u64, Vec<usize>>,
    unmatched_ns: u64,
    unmatched: u64,
}

impl<'a> Forest<'a> {
    fn new(spans: &'a [Span]) -> Forest<'a> {
        // Filters start after their query was submitted and before it
        // returned; of the queries with the same fingerprint, the latest
        // one submitted before the filter started is its cause.
        let mut by_key: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.name == Name::ServiceQuery {
                by_key.entry(s.key).or_default().push(i);
            }
        }
        for list in by_key.values_mut() {
            list.sort_by_key(|&i| spans[i].start);
        }
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        let (mut unmatched, mut unmatched_ns) = (0, 0);
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.name == Name::CoreFilter && s.parent == 0 {
                let cause = by_key.get(&s.key).and_then(|list| {
                    list.iter()
                        .rev()
                        .find(|&&q| spans[q].start <= s.start && s.start <= spans[q].end)
                });
                match cause {
                    Some(&q) => spans[q].id,
                    None => {
                        unmatched += 1;
                        unmatched_ns += s.dur();
                        continue;
                    }
                }
            } else {
                s.parent
            };
            if parent != 0 {
                children.entry(parent).or_default().push(i);
            }
        }
        Forest {
            spans,
            children,
            unmatched_ns,
            unmatched,
        }
    }

    fn kids(&self, span: &Span) -> Vec<Span> {
        self.children
            .get(&span.id)
            .map(|v| v.iter().map(|&i| self.spans[i]).collect())
            .unwrap_or_default()
    }
}

/// Per-op tallies gathered by one walk of its span tree.
#[derive(Default)]
struct OpWalk {
    /// Scaled self time per layer.
    layer_ns: [f64; LAYERS],
    /// Page reads by kind, `[slice, oid, object, other]`.
    reads: [u64; 4],
    filter_slice_reads: u64,
    filter_oid_reads: u64,
    read_ns: u64,
    writes: u64,
    fetches: u64,
    fetch_ns: u64,
    /// Inclusive time in drop resolution (fetches and their reads too).
    drops_ns: u64,
}

fn kind_slot(kind: Option<FileKind>) -> usize {
    match kind {
        Some(FileKind::Slice) => 0,
        Some(FileKind::Oid) => 1,
        Some(FileKind::Object) => 2,
        _ => 3,
    }
}

/// All per-layer samples of a traced run.
#[derive(Default)]
struct Samples {
    service_self: Vec<f64>,
    queue_wait: Vec<f64>,
    merge: Vec<f64>,
    update_wait: Vec<f64>,
    filter: Vec<f64>,
    filter_self: Vec<f64>,
    update_self: Vec<f64>,
    read_ns: Tally,
    write_ns: Tally,
    fetch_ns: Tally,
    drops_self: Vec<f64>,
}

/// The per-layer report of a traced run.
#[derive(Debug, Clone)]
pub struct LayerReport {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// `|Σ layer times − client.op|` plus unmatched filter time, over the
    /// summed `client.op` durations.
    pub unattributed_share: f64,
    pub ops: u64,
    pub unmatched_filters: u64,
    /// Per-update page reads + writes, by kind of update.
    pub pages_per_insert: f64,
    pub pages_per_delete: f64,
    /// Shares behind the predicted splits, by query class:
    /// service on ⊇ with `D_q ≥ 2`, core + pagestore on ⊆, drop
    /// resolution on ⊇ with `D_q = 1`. `None` when the class is absent.
    pub predicted: [Option<f64>; 3],
    /// Fetch times, which are absent where nothing is fetched.
    pub fetch_times: [(&'static str, f64); 2],
    /// Median `client.op` duration of the traced queries.
    pub traced_query_p50_us: f64,
}

impl<'a> Forest<'a> {
    /// Walks `span`'s subtree with `scale` (the product of the overlap
    /// scales above it). Returns the attributed time of the subtree.
    fn walk(
        &self,
        span: &Span,
        scale: f64,
        in_filter: bool,
        w: &mut OpWalk,
        s: &mut Samples,
    ) -> f64 {
        let kids = self.kids(span);
        let own = self_time(span, &kids) as f64;
        w.layer_ns[Layer::of(span.name) as usize] += own * scale;
        match span.name {
            Name::PageRead => {
                let slot = kind_slot(span.file);
                w.reads[slot] += 1;
                w.read_ns += span.dur();
                s.read_ns.add(span.dur());
                if in_filter && slot == 0 {
                    w.filter_slice_reads += 1;
                } else if in_filter && slot == 1 {
                    w.filter_oid_reads += 1;
                }
            }
            Name::PageWrite => {
                w.writes += 1;
                s.write_ns.add(span.dur());
            }
            Name::OodbFetch => {
                w.fetches += 1;
                w.fetch_ns += span.dur();
                s.fetch_ns.add(span.dur());
            }
            Name::CoreFilter => {
                s.filter.push(span.dur() as f64 / 1e3);
                s.filter_self.push(own / 1e3);
            }
            Name::CoreUpdate => s.update_self.push(own / 1e3),
            Name::DropsResolve => {
                w.drops_ns += span.dur();
                s.drops_self.push(own / 1e3);
            }
            Name::ServiceQuery => {
                s.service_self.push(own / 1e3);
                let filters = kids.iter().filter(|k| k.name == Name::CoreFilter);
                if let Some(first) = filters.clone().map(|k| k.start).min() {
                    s.queue_wait
                        .push(first.saturating_sub(span.start) as f64 / 1e3);
                }
                if let Some(last) = filters.map(|k| k.end).max() {
                    s.merge.push(span.end.saturating_sub(last) as f64 / 1e3);
                }
            }
            Name::ServiceUpdate => {
                let facility: u64 = kids
                    .iter()
                    .filter(|k| k.name == Name::CoreUpdate)
                    .map(Span::dur)
                    .sum();
                s.update_wait
                    .push(span.dur().saturating_sub(facility) as f64 / 1e3);
            }
            Name::ClientOp => {}
        }
        let mut clipped: Vec<(u64, u64)> = kids
            .iter()
            .map(|c| {
                (
                    c.start.clamp(span.start, span.end),
                    c.end.clamp(span.start, span.end),
                )
            })
            .collect();
        let summed: u64 = clipped.iter().map(|&(a, b)| b - a).sum();
        let covered = union_len(&mut clipped);
        let child_scale = if summed == 0 {
            1.0
        } else {
            covered as f64 / summed as f64
        };
        let in_filter = in_filter || span.name == Name::CoreFilter;
        let mut attributed = own;
        for k in &kids {
            attributed += child_scale * self.walk(k, scale * child_scale, in_filter, w, s);
        }
        attributed
    }
}

/// Accumulates the per-layer numbers of a traced run, one batch of spans
/// at a time (a batch per segment keeps the spans in memory bounded).
#[derive(Default)]
pub struct Analysis {
    samples: Samples,
    per_query: Vec<OpWalk>,
    per_update: Vec<(OpKind, u64)>,
    /// Durations (µs) of the traced queries' `client.op` spans.
    query_us: Vec<f64>,
    /// Split numerators and denominators: (D_q ≥ 2 ⊇, ⊆, D_q = 1 ⊇).
    split: [(f64, f64); 3],
    /// Over all queries: (service, core + pagestore, drop resolution).
    overall: [f64; 3],
    query_ns: f64,
    total_ns: f64,
    deviation_ns: f64,
    ops: u64,
    unmatched: u64,
}

impl Analysis {
    /// Adds the traced ops among `ops` (keyed by op id) found in `spans`.
    pub fn add(&mut self, spans: &[Span], ops: &HashMap<u64, OpInfo>) {
        let forest = Forest::new(spans);
        self.deviation_ns += forest.unmatched_ns as f64;
        self.unmatched += forest.unmatched;
        for root in spans
            .iter()
            .filter(|s| s.name == Name::ClientOp && s.parent == 0)
        {
            let Some(info) = ops.get(&root.op) else {
                continue;
            };
            let mut w = OpWalk::default();
            let attributed = forest.walk(root, 1.0, false, &mut w, &mut self.samples);
            let dur = root.dur() as f64;
            self.total_ns += dur;
            self.deviation_ns += (attributed - dur).abs();
            self.ops += 1;
            let l = |layer: Layer| w.layer_ns[layer as usize];
            match info.kind {
                OpKind::Query => {
                    let (slot, part) = match (info.superset, info.d_q) {
                        (true, d) if d >= 2 => (0, l(Layer::Service)),
                        (false, _) => (1, l(Layer::Core) + l(Layer::Pagestore)),
                        (true, _) => (2, w.drops_ns as f64),
                    };
                    self.split[slot].0 += part;
                    self.split[slot].1 += dur;
                    self.overall[0] += l(Layer::Service);
                    self.overall[1] += l(Layer::Core) + l(Layer::Pagestore);
                    self.overall[2] += w.drops_ns as f64;
                    self.query_ns += dur;
                    self.query_us.push(dur / 1e3);
                    self.per_query.push(w);
                }
                kind => self
                    .per_update
                    .push((kind, w.reads.iter().sum::<u64>() + w.writes)),
            }
        }
    }

    /// The per-layer report over everything added.
    pub fn report(&self) -> LayerReport {
        let samples = &self.samples;
        let q =
            |f: &dyn Fn(&OpWalk) -> f64| mean(&self.per_query.iter().map(f).collect::<Vec<_>>());
        let pages_of = |kind: OpKind| {
            mean(
                &self
                    .per_update
                    .iter()
                    .filter(|(k, _)| *k == kind)
                    .map(|&(_, p)| p as f64)
                    .collect::<Vec<_>>(),
            )
        };
        let share = |part: f64, total: f64| if total > 0.0 { part / total } else { 0.0 };
        let updates = self.per_update.len().max(1) as f64;
        let query_ns = self.query_ns;
        let metrics = vec![
            ("service.self_us_p50", median(&samples.service_self), "us"),
            (
                "service.queue_wait_us_p50",
                median(&samples.queue_wait),
                "us",
            ),
            ("service.merge_us_p50", median(&samples.merge), "us"),
            (
                "service.update_wait_us_p50",
                median(&samples.update_wait),
                "us",
            ),
            ("core.filter_us_p50", median(&samples.filter), "us"),
            (
                "core.filter_self_us_p50",
                median(&samples.filter_self),
                "us",
            ),
            (
                "core.slice_pages_per_query",
                q(&|w| w.filter_slice_reads as f64),
                "pages",
            ),
            (
                "core.oid_pages_per_query",
                q(&|w| w.filter_oid_reads as f64),
                "pages",
            ),
            (
                "core.update_self_us_p50",
                median(&samples.update_self),
                "us",
            ),
            (
                "pagestore.reads_per_query",
                q(&|w| w.reads.iter().sum::<u64>() as f64),
                "pages",
            ),
            (
                "pagestore.slice_reads_per_query",
                q(&|w| w.reads[0] as f64),
                "pages",
            ),
            (
                "pagestore.oid_reads_per_query",
                q(&|w| w.reads[1] as f64),
                "pages",
            ),
            (
                "pagestore.object_reads_per_query",
                q(&|w| w.reads[2] as f64),
                "pages",
            ),
            ("pagestore.read_ns_p50", samples.read_ns.median(), "ns"),
            (
                "pagestore.read_us_per_query",
                q(&|w| w.read_ns as f64 / 1e3),
                "us",
            ),
            (
                "pagestore.writes_per_update",
                samples.write_ns.len() as f64 / updates,
                "pages",
            ),
            ("pagestore.write_ns_p50", samples.write_ns.median(), "ns"),
            ("oodb.fetches_per_query", q(&|w| w.fetches as f64), "count"),
            (
                "drops.resolve_us_per_query",
                q(&|w| w.drops_ns as f64 / 1e3),
                "us",
            ),
            ("drops.verify_us_per_query", mean(&samples.drops_self), "us"),
            (
                "split.service_share",
                share(self.overall[0], query_ns),
                "ratio",
            ),
            (
                "split.core_pagestore_share",
                share(self.overall[1], query_ns),
                "ratio",
            ),
            (
                "split.drops_share",
                share(self.overall[2], query_ns),
                "ratio",
            ),
        ];
        // A workload with no fetches (⊆ queries return ~0 candidates) has no
        // fetch time to report: these go to the report, not the metrics.
        let fetch_times = [
            ("oodb.fetch_us_per_query", q(&|w| w.fetch_ns as f64 / 1e3)),
            ("oodb.fetch_ns_p50", samples.fetch_ns.median()),
        ];
        LayerReport {
            metrics,
            unattributed_share: share(self.deviation_ns, self.total_ns),
            ops: self.ops,
            unmatched_filters: self.unmatched,
            pages_per_insert: pages_of(OpKind::Insert),
            pages_per_delete: pages_of(OpKind::Delete),
            predicted: self
                .split
                .map(|(part, total)| (total > 0.0).then(|| share(part, total))),
            fetch_times,
            traced_query_p50_us: median(&self.query_us),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: Name, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            op: 1,
            key: 7,
            file: None,
            start,
            end,
        }
    }

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(0, 10), (5, 15)]), 15);
        assert_eq!(union_len(&mut [(20, 30), (0, 10)]), 20);
        assert_eq!(union_len(&mut [(0, 10), (2, 3), (10, 12)]), 12);
    }

    #[test]
    fn self_time_with_overlapping_children() {
        // A 2-shard fan-out: filters [10, 60) and [20, 80) overlap.
        let parent = sp(1, 0, Name::ServiceQuery, 0, 100);
        let a = sp(2, 1, Name::CoreFilter, 10, 60);
        let b = sp(3, 1, Name::CoreFilter, 20, 80);
        assert_eq!(self_time(&parent, &[a, b]), 100 - 70);
        // Summing the children's durations would give 100 - 110 < 0.
        let c = sp(4, 1, Name::CoreFilter, 90, 120);
        assert_eq!(
            self_time(&parent, &[a, b, c]),
            100 - 80,
            "clipped to the parent"
        );
        assert_eq!(self_time(&parent, &[]), 100);
    }

    #[test]
    fn fan_out_reconciles_and_links_worker_filters() {
        // client.op [0, 200) ⊃ service.query [10, 150) on the client
        // thread; two worker filters with no parent, overlapping; drops
        // [150, 190).
        let spans = vec![
            sp(1, 0, Name::ClientOp, 0, 200),
            sp(2, 1, Name::ServiceQuery, 10, 150),
            Span {
                op: 0,
                ..sp(10, 0, Name::CoreFilter, 20, 120)
            },
            Span {
                op: 0,
                ..sp(20, 0, Name::CoreFilter, 30, 140)
            },
            Span {
                op: 0,
                file: Some(FileKind::Slice),
                ..sp(11, 10, Name::PageRead, 30, 40)
            },
            sp(3, 1, Name::DropsResolve, 150, 190),
        ];
        let ops = HashMap::from([(
            1,
            OpInfo {
                kind: OpKind::Query,
                superset: true,
                d_q: 2,
            },
        )]);
        let analyse = |spans: &[Span]| {
            let mut a = Analysis::default();
            a.add(spans, &ops);
            a.report()
        };
        let r = analyse(&spans);
        assert_eq!(r.unmatched_filters, 0);
        assert!(r.unattributed_share < 1e-9, "{}", r.unattributed_share);
        let get = |n: &str| r.metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert_eq!(get("service.queue_wait_us_p50"), 0.010);
        assert_eq!(get("service.merge_us_p50"), 0.010);
        assert_eq!(get("service.self_us_p50"), 0.020);
        assert_eq!(get("pagestore.slice_reads_per_query"), 1.0);
        assert_eq!(get("core.slice_pages_per_query"), 1.0);
        // The service owns 20 of 200 ns.
        assert!((get("split.service_share") - 0.1).abs() < 1e-9);
        assert_eq!(r.predicted[0], Some(get("split.service_share")));
        assert_eq!(r.predicted[1], None);

        // A filter with no matching query is unattributed time.
        let mut orphan = spans.clone();
        orphan.push(Span {
            key: 99,
            op: 0,
            ..sp(30, 0, Name::CoreFilter, 40, 90)
        });
        let r = analyse(&orphan);
        assert_eq!(r.unmatched_filters, 1);
        assert!((r.unattributed_share - 50.0 / 200.0).abs() < 1e-9);
    }
}
