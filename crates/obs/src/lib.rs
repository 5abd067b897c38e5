//! # setsig-obs — per-query tracing and metrics
//!
//! A small observability layer for the set access facilities: the paper's
//! whole argument rests on page-access counts, so every measured number
//! should be attributable to one query and cross-checkable against the
//! analytic cost model. This crate provides the three pieces the rest of
//! the workspace threads through:
//!
//! * [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s and log2-bucket
//!   [`Histogram`]s, lock-free on the update path,
//! * [`QueryTrace`] — one structured event per `candidates*` call (query
//!   shape, pages, slices, early exit, cache traffic, latency), emitted
//!   through pluggable [`TraceSink`]s ([`RingSink`], [`JsonlSink`]),
//! * [`Recorder`] — the shared bundle of registry and sinks, and
//!   [`FacilityRecorder`] — one facility's handles on it. A facility builds
//!   its [`FacilityRecorder`] once, when a recorder is attached, so each
//!   query's record is atomic adds plus the sink fan-out: no name lookup,
//!   no allocation, no registry lock. With no recorder attached the
//!   facilities skip all clock reads and event construction, so disabled
//!   observability costs nothing.
//!
//! The crate sits at the bottom of the workspace DAG (it may not see the
//! facilities or the harness) and uses no external dependencies beyond the
//! vendored `parking_lot` stand-in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, MetricsRegistry, MetricsSnapshot,
};
pub use trace::{JsonlSink, QueryTrace, RingSink, TraceSink};

use std::sync::{Arc, OnceLock};

/// The observability bundle facilities share: a metrics registry plus
/// zero or more trace sinks. A facility attaches it through
/// `set_recorder(Option<Arc<Recorder>>)`, which wraps it in that
/// facility's [`FacilityRecorder`]; `None` (the default) means no clocks
/// are read and no events are built.
pub struct Recorder {
    registry: MetricsRegistry,
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl Recorder {
    /// A recorder with a fresh registry and no sinks.
    pub fn new() -> Self {
        Recorder {
            registry: MetricsRegistry::new(),
            sinks: Vec::new(),
        }
    }

    /// Adds a trace sink (builder style).
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// The metrics registry the [`FacilityRecorder`]s built on this
    /// recorder feed.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Recorder {{ sinks: {} }}", self.sinks.len())
    }
}

/// One facility's view of a [`Recorder`]: the shared recorder plus the
/// facility's nine standard metric handles (`{facility}.queries`,
/// `.latency_ns`, `.logical_pages`, `.candidates`, `.false_drops`,
/// `.cache_hits`, `.cache_misses`, `.cache_pinned_hits`, `.early_exits`
/// — DESIGN.md §7).
///
/// A facility builds one when a recorder is attached and keeps it for
/// every query, so recording a query resolves no names, allocates
/// nothing and takes no registry lock. Each handle is registered on the
/// first event that touches it, so a metric appears in the registry only
/// once it has a value to report (a facility that never reports false
/// drops has no `{facility}.false_drops` line).
pub struct FacilityRecorder {
    rec: Arc<Recorder>,
    facility: &'static str,
    queries: OnceLock<Arc<Counter>>,
    latency_ns: OnceLock<Arc<Histogram>>,
    logical_pages: OnceLock<Arc<Histogram>>,
    candidates: OnceLock<Arc<Counter>>,
    false_drops: OnceLock<Arc<Counter>>,
    cache_hits: OnceLock<Arc<Counter>>,
    cache_misses: OnceLock<Arc<Counter>>,
    cache_pinned_hits: OnceLock<Arc<Counter>>,
    early_exits: OnceLock<Arc<Counter>>,
}

impl FacilityRecorder {
    /// The handle bundle of `facility` (lowercase short name, the metric
    /// prefix and the trace's `facility` field) on `rec`. Registers
    /// nothing yet.
    pub fn new(rec: Arc<Recorder>, facility: &'static str) -> Self {
        FacilityRecorder {
            rec,
            facility,
            queries: OnceLock::new(),
            latency_ns: OnceLock::new(),
            logical_pages: OnceLock::new(),
            candidates: OnceLock::new(),
            false_drops: OnceLock::new(),
            cache_hits: OnceLock::new(),
            cache_misses: OnceLock::new(),
            cache_pinned_hits: OnceLock::new(),
            early_exits: OnceLock::new(),
        }
    }

    /// The facility short name this bundle records for.
    pub fn facility(&self) -> &'static str {
        self.facility
    }

    /// Records one completed query: updates the facility's standard
    /// metrics and forwards the event to every sink of the recorder.
    pub fn record(&self, ev: &QueryTrace) {
        self.register(ev);
        self.update(ev);
        for sink in &self.rec.sinks {
            sink.record(ev);
        }
    }

    /// Registers every not-yet-registered metric `ev` touches. Runs the
    /// registry's get-or-create (lock, name allocation) once per handle;
    /// afterwards each check is one atomic load.
    fn register(&self, ev: &QueryTrace) {
        let reg = &self.rec.registry;
        let name = |metric: &str| format!("{}.{metric}", self.facility);
        let counters = [
            (&self.queries, true, "queries"),
            (&self.candidates, true, "candidates"),
            (&self.false_drops, ev.false_drops.is_some(), "false_drops"),
            (&self.cache_hits, ev.cache_hits.is_some(), "cache_hits"),
            (
                &self.cache_misses,
                ev.cache_misses.is_some(),
                "cache_misses",
            ),
            (
                &self.cache_pinned_hits,
                ev.cache_pinned_hits.is_some(),
                "cache_pinned_hits",
            ),
            (&self.early_exits, ev.early_exit, "early_exits"),
        ];
        for (cell, wanted, metric) in counters {
            if wanted {
                cell.get_or_init(|| reg.counter(&name(metric)));
            }
        }
        let histograms = [
            (&self.latency_ns, true, "latency_ns"),
            (
                &self.logical_pages,
                ev.logical_pages.is_some(),
                "logical_pages",
            ),
        ];
        for (cell, wanted, metric) in histograms {
            if wanted {
                cell.get_or_init(|| reg.histogram(&name(metric)));
            }
        }
    }

    /// Folds one event into the registered handles: atomic adds only.
    // HOT-PATH: obs.record
    fn update(&self, ev: &QueryTrace) {
        add(&self.queries, 1);
        observe(&self.latency_ns, ev.latency_ns);
        if let Some(p) = ev.logical_pages {
            observe(&self.logical_pages, p);
        }
        add(&self.candidates, ev.candidates);
        if let Some(d) = ev.false_drops {
            add(&self.false_drops, d);
        }
        if let Some(h) = ev.cache_hits {
            add(&self.cache_hits, h);
        }
        if let Some(m) = ev.cache_misses {
            add(&self.cache_misses, m);
        }
        if let Some(p) = ev.cache_pinned_hits {
            add(&self.cache_pinned_hits, p);
        }
        if ev.early_exit {
            add(&self.early_exits, 1);
        }
    }
}

/// Adds `n` to a registered counter handle.
fn add(cell: &OnceLock<Arc<Counter>>, n: u64) {
    if let Some(c) = cell.get() {
        c.add(n);
    }
}

/// Records `v` into a registered histogram handle.
fn observe(cell: &OnceLock<Arc<Histogram>>, v: u64) {
    if let Some(h) = cell.get() {
        // Path form: the call graph resolves `h.record(…)` by name alone,
        // which would also reach the sinks' and this bundle's `record`.
        Histogram::record(h, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(facility: &'static str, latency: u64) -> QueryTrace {
        QueryTrace {
            facility,
            predicate: "HasSubset",
            d_q: 2,
            f_bits: Some(500),
            m_weight: Some(2),
            slices_touched: Some(4),
            early_exit: false,
            logical_pages: Some(5),
            candidates: 3,
            exact: false,
            false_drops: Some(1),
            cache_hits: Some(2),
            cache_misses: Some(3),
            cache_pinned_hits: Some(5),
            latency_ns: latency,
        }
    }

    #[test]
    fn recorder_updates_standard_metrics() {
        let rec = Arc::new(Recorder::new());
        let bssf = FacilityRecorder::new(Arc::clone(&rec), "bssf");
        bssf.record(&trace("bssf", 1000));
        bssf.record(&trace("bssf", 3000));
        let snap = rec.registry().snapshot();
        assert_eq!(snap.get_counter("bssf.queries"), Some(2));
        assert_eq!(snap.get_counter("bssf.candidates"), Some(6));
        assert_eq!(snap.get_counter("bssf.false_drops"), Some(2));
        assert_eq!(snap.get_counter("bssf.cache_hits"), Some(4));
        assert_eq!(snap.get_counter("bssf.cache_pinned_hits"), Some(10));
        let h = snap.get_histogram("bssf.latency_ns").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 4000);
    }

    #[test]
    fn recorder_forwards_to_sinks() {
        let ring = Arc::new(RingSink::new(8));
        let rec = Arc::new(Recorder::new().with_sink(Arc::clone(&ring) as Arc<dyn TraceSink>));
        FacilityRecorder::new(Arc::clone(&rec), "ssf").record(&trace("ssf", 10));
        FacilityRecorder::new(rec, "nix").record(&trace("nix", 20));
        let events = ring.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].facility, "ssf");
        assert_eq!(events[1].facility, "nix");
    }

    #[test]
    fn handles_register_only_the_metrics_an_event_touches() {
        let rec = Arc::new(Recorder::new());
        let bssf = FacilityRecorder::new(Arc::clone(&rec), "bssf");
        assert!(
            rec.registry().snapshot().is_empty(),
            "building registers nothing"
        );
        let mut first = trace("bssf", 1000);
        first.logical_pages = Some(5);
        first.false_drops = None;
        first.cache_hits = None;
        first.cache_misses = None;
        first.cache_pinned_hits = None;
        let mut second = first;
        second.latency_ns = 3000;
        second.logical_pages = Some(7);
        second.candidates = 0;
        second.early_exit = true;
        bssf.record(&first);
        bssf.record(&second);
        let mut third = first;
        third.facility = "nix";
        third.logical_pages = None;
        third.candidates = 2;
        third.latency_ns = 500;
        FacilityRecorder::new(Arc::clone(&rec), "nix").record(&third);
        assert_eq!(
            rec.registry().snapshot().render_text(),
            "bssf.candidates 3\n\
             bssf.early_exits 1\n\
             bssf.latency_ns count=2 sum=4000 mean=2000.0 p99<=4096\n\
             bssf.logical_pages count=2 sum=12 mean=6.0 p99<=8\n\
             bssf.queries 2\n\
             nix.candidates 2\n\
             nix.latency_ns count=1 sum=500 mean=500.0 p99<=512\n\
             nix.queries 1\n"
        );
    }
}
