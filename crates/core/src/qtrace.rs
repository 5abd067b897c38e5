//! Glue between the facilities and the `setsig-obs` recorder.
//!
//! A facility holds an `Option<FacilityRecorder>` (default `None`), built
//! once when a recorder is attached. At each `candidates*` entry it calls
//! [`QueryObs::start`]; with no recorder attached that returns `None`
//! without reading the clock or the cache counters, so disabled
//! observability adds nothing to the query path. Attached, the armed
//! context borrows the facility's handle bundle, and the finished event is
//! plain `Copy` data: recording a query allocates nothing.

use crate::facility::{CandidateSet, ScanCounters};
use crate::query::SetQuery;
use setsig_obs::{FacilityRecorder, QueryTrace};
use setsig_pagestore::CacheStats;
use std::time::Instant;

/// Everything the trace event needs that only the facility knows.
pub(crate) struct QueryOutcome<'a> {
    /// The query ran a smart (reduced-scan) strategy; its predicate field
    /// carries the `:smart` suffix.
    pub smart: bool,
    /// Signature geometry `(F, m)`, for facilities that have one.
    pub geometry: Option<(u32, u32)>,
    /// The query's own counters; `None` when the facility tracks no page
    /// accounting (NIX).
    pub ctr: Option<&'a ScanCounters>,
    /// Whether the slices/frames-touched counter is meaningful for this
    /// facility (BSSF slices, FSSF frames; false for SSF row scans).
    pub track_slices: bool,
    /// The drops the filter returned.
    pub set: &'a CandidateSet,
    /// Buffer-pool counters after the query, when a pool is attached.
    pub cache_after: Option<CacheStats>,
}

/// Armed observability context for one query: borrows the facility's
/// recorder handles and holds the entry timestamp and cache counters.
pub(crate) struct QueryObs<'r> {
    rec: &'r FacilityRecorder,
    start: Instant,
    cache_before: Option<CacheStats>,
}

impl<'r> QueryObs<'r> {
    /// Arms observability for one query, or returns `None` (doing no work
    /// at all) when no recorder is attached. `cache` is only invoked when
    /// a recorder is present.
    pub(crate) fn start(
        rec: &'r Option<FacilityRecorder>,
        cache: impl FnOnce() -> Option<CacheStats>,
    ) -> Option<QueryObs<'r>> {
        rec.as_ref().map(|rec| QueryObs {
            rec,
            start: Instant::now(),
            cache_before: cache(),
        })
    }

    /// Builds the [`QueryTrace`] for a completed query and hands it to the
    /// recorder (metrics + sinks).
    pub(crate) fn finish(self, query: &SetQuery, out: QueryOutcome<'_>) {
        let stats = out.ctr.map(ScanCounters::stats);
        let (slices, early_exit) = out.ctr.map(ScanCounters::probe).unwrap_or((0, false));
        let (cache_hits, cache_misses, cache_pinned_hits) =
            match (self.cache_before, out.cache_after) {
                (Some(before), Some(after)) => (
                    Some(after.hits.saturating_sub(before.hits)),
                    Some(after.misses.saturating_sub(before.misses)),
                    Some(after.pinned_hits.saturating_sub(before.pinned_hits)),
                ),
                _ => (None, None, None),
            };
        self.rec.record(&QueryTrace {
            facility: self.rec.facility(),
            predicate: query.predicate.trace_label(out.smart),
            d_q: query.elements.len() as u64,
            f_bits: out.geometry.map(|(f, _)| f),
            m_weight: out.geometry.map(|(_, m)| m),
            slices_touched: out.track_slices.then_some(slices),
            early_exit,
            logical_pages: stats.map(|s| s.logical_pages),
            candidates: out.set.len() as u64,
            exact: out.set.exact,
            false_drops: None,
            cache_hits,
            cache_misses,
            cache_pinned_hits,
            latency_ns: self.start.elapsed().as_nanos() as u64,
        });
    }
}
