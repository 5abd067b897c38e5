//! `perfbench`: BSSF set queries and updates, end to end through
//! `QueryService` and drop resolution against the object store, driven by
//! closed-loop clients. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <superset_mix|subset_scan|update_mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Any failed
//! operation, wrong answer or failed reconciliation exits nonzero.

mod analysis;
mod check;
mod client;
mod instance;
mod meta;
mod stats;
mod trace;
mod workload;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use setsig_core::{SetAccessFacility, SetPredicate};
use setsig_costmodel::{BssfModel, Params};

use crate::analysis::OpInfo;
use crate::check::{check, Answers, CheckReport, Oracle};
use crate::client::{OpKind, OpRecord, Outcome};
use crate::stats::{mean, percentile, sorted, supported_tail};
use crate::workload::{Inputs, Workload, D_T, F, M};

/// Length of one timed segment. Each segment runs on a freshly built
/// instance with fresh client and service threads. On the shared 2-core
/// host this was sized on, a placement of the four busy threads on the two
/// cores persists for seconds and moves throughput by up to 1.8×, and the
/// hypervisor's CPU steal comes and goes (a segment with 10 % steal had a
/// 4× p99); fresh threads per segment sample many placements, and the run
/// reports over its quieter segments ([`quiet_quartile`]). Each segment's
/// set-up is timed, so `setup_s` is a median over many set-ups.
const SEGMENT_SECONDS: f64 = 1.0;
/// Largest tolerated `trace.unattributed_share`.
const UNATTRIBUTED_TOLERANCE: f64 = 0.05;
/// The run is abandoned (exit 3) if it has not finished by then: a lost
/// ticket must not hang the caller.
const WATCHDOG: Duration = Duration::from_secs(170);
/// Spans of the first this-many nanoseconds of the first traced segment
/// are written out in full.
const SPAN_DUMP_NS: u64 = 20_000_000;

/// End-to-end metrics, reported by untraced runs.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("query_p90_us", "us"),
    ("insert_p50_us", "us"),
    ("delete_p50_us", "us"),
    ("ops_per_s", "1/s"),
    ("pages_per_query", "pages"),
    ("index_pages", "pages"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by traced runs, in output order.
const PER_LAYER: [&str; 34] = [
    "service.self_us_p50",
    "service.queue_wait_us_p50",
    "service.merge_us_p50",
    "service.update_wait_us_p50",
    "core.filter_us_p50",
    "core.filter_self_us_p50",
    "core.slice_pages_per_query",
    "core.oid_pages_per_query",
    "core.update_self_us_p50",
    "pagestore.reads_per_query",
    "pagestore.slice_reads_per_query",
    "pagestore.oid_reads_per_query",
    "pagestore.object_reads_per_query",
    "pagestore.read_ns_p50",
    "pagestore.read_us_per_query",
    "pagestore.writes_per_update",
    "pagestore.write_ns_p50",
    "oodb.fetches_per_query",
    "drops.resolve_us_per_query",
    "drops.verify_us_per_query",
    "split.service_share",
    "split.core_pagestore_share",
    "split.drops_share",
    "core.candidates_per_query",
    "core.false_drop_ratio",
    "update.insert_p50_us",
    "update.delete_p50_us",
    "update.pages_per_insert",
    "update.pages_per_delete",
    "costmodel.pages_ratio",
    "costmodel.uc_insert_ratio",
    "costmodel.uc_delete_ratio",
    "trace.unattributed_share",
    "trace.overhead_ratio",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv: HashMap<&str, &str> = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| ["workload", "seed", "seconds", "trace", "out"].contains(n))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(name, value);
    }
    let need = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let workload = Workload::parse(need("workload")?).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("--workload must be one of {}", names.join(", "))
    })?;
    let seed = need("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    let trace = match need("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out: kv.get("out").map(PathBuf::from),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let vars = meta::setsig_vars();
    if !vars.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: the benchmark fixes every engine setting itself",
            vars.join(", ")
        );
        std::process::exit(2);
    }
    let (done, finished) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if finished.recv_timeout(WATCHDOG).is_err() {
            eprintln!("perfbench: run exceeded {WATCHDOG:?}; abandoning it");
            std::process::exit(3);
        }
    });
    let code = match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    // The watchdog exits on the message; a send error means it already
    // fired, which ends the process before this line is reached.
    let _ = done.send(());
    if watchdog.join().is_err() {
        eprintln!("perfbench: watchdog thread panicked");
    }
    std::process::exit(code);
}

/// What every run reports besides its metrics.
#[derive(Default)]
struct Outcomes {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
    /// `name = value` lines of the human-readable report.
    report: Vec<String>,
    meta: Vec<(String, String)>,
}

impl Outcomes {
    fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    fn line(&mut self, text: String) {
        self.report.push(text);
    }

    fn count(&mut self, what: &str, check: &CheckReport, ops: usize) {
        self.attempted += ops as u64;
        self.failed += check.failed;
        for e in &check.examples {
            eprintln!("perfbench: {what}: {e}");
        }
    }
}

fn model() -> BssfModel {
    BssfModel::new(Params::paper(), F, M, D_T)
}

fn query_spec<'a>(inputs: &'a Inputs, r: &OpRecord) -> &'a workload::QuerySpec {
    &inputs.clients[r.client].queries[r.index]
}

fn check_run(
    oracle: &Oracle,
    answers: &mut Answers,
    inputs: &Inputs,
    records: &[OpRecord],
) -> CheckReport {
    check(
        oracle,
        answers,
        records,
        |r| query_spec(inputs, r).query.clone(),
        |r| inputs.clients[r.client].updates[r.index],
    )
}

/// Latencies (µs, sorted) of the successful ops of `kind`.
fn latencies(records: &[OpRecord], kind: OpKind) -> Vec<f64> {
    sorted(
        records
            .iter()
            .filter(|r| r.kind == kind && !r.failed())
            .map(OpRecord::latency_us)
            .collect(),
    )
}

/// Per-query `(filter pages, fetches, candidates, false drops)`.
fn query_facts(records: &[OpRecord]) -> impl Iterator<Item = (&OpRecord, u64, u64, u64, u64)> {
    records.iter().filter_map(|r| match r.outcome {
        Outcome::Query {
            filter_pages,
            fetches,
            candidates,
            false_drops,
            ..
        } => Some((r, filter_pages, fetches, candidates, false_drops)),
        _ => None,
    })
}

/// Measured pages of the queries in `records` and the model's RC at each
/// query's `D_q`, summed.
fn pages_vs_model(inputs: &Inputs, records: &[OpRecord]) -> (f64, f64) {
    let model = model();
    let (mut measured, mut predicted) = (0.0, 0.0);
    for (r, pages, fetches, _, _) in query_facts(records) {
        let q = query_spec(inputs, r);
        measured += (pages + fetches) as f64;
        predicted += match q.query.predicate {
            SetPredicate::InSubset => model.rc_subset(q.d_q),
            _ => model.rc_superset(q.d_q),
        };
    }
    (measured, predicted)
}

/// The latency lines of the report, with sample counts and the highest
/// percentile the sample supports.
fn latency_lines(out: &mut Outcomes, prefix: &str, lat: &[f64]) {
    let p50 = percentile(lat, 50.0).unwrap_or(0.0);
    let p99 = percentile(lat, 99.0).unwrap_or(0.0);
    out.line(format!("{prefix}_p50_us = {p50:.3}"));
    if lat.len() >= 1_000 {
        out.line(format!("{prefix}_p99_us = {p99:.3}"));
    }
    if let Some((p, v)) = supported_tail(lat) {
        out.line(format!(
            "{prefix}_tail_us = {v:.3}  (p{p}, highest percentile with >= 10 samples beyond)"
        ));
    }
    out.meta
        .push((format!("samples.{prefix}"), lat.len().to_string()));
}

/// One timed segment's operations.
struct Segment {
    records: Vec<OpRecord>,
    /// The write-path probe of the read-only workloads.
    probe: Vec<OpRecord>,
    setup_s: f64,
    elapsed_s: f64,
    /// Share of the machine's CPU time stolen during the timed part and
    /// the probe.
    steal: f64,
    index_pages: u64,
}

/// Builds an instance, runs the clients on it for `seconds`, probes the
/// write path where the workload has no timed updates, and drops it (which
/// joins the service's workers).
fn run_segment<Fac: SetAccessFacility + Send + Sync + 'static>(
    w: Workload,
    inputs: &Inputs,
    segment: u64,
    seconds: f64,
    build: impl Fn() -> setsig_core::Result<instance::Instance<Fac>>,
) -> Result<Segment, String> {
    let t0 = Instant::now();
    let inst = build().map_err(|e| format!("set-up: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    let ticks = meta::cpu_steal_ticks();
    let (records, elapsed_s) =
        client::run_clients(&inst, inputs, segment, seconds, w.timed_updates());
    let probe = if w.timed_updates() {
        Vec::new()
    } else {
        client::run_update_probe(&inst, inputs, segment)
    };
    let steal = match (ticks, meta::cpu_steal_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    let index_pages = inst.service.storage_pages().map_err(|e| e.to_string())?;
    Ok(Segment {
        records,
        probe,
        setup_s,
        elapsed_s,
        steal,
        index_pages,
    })
}

/// What one segment measured, for the statistics over segments.
struct Figures {
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    steal: f64,
    query_p50: f64,
    query_p90: f64,
    ops_per_s: f64,
}

enum Better {
    Lower,
    Higher,
}

/// The better quartile (p25 where lower is better, p75 where higher is)
/// of `value` over the half of the segments with the least CPU steal.
/// Interference from outside the benchmark — steal, other tenants — only
/// ever slows a segment down, so this follows the system measured rather
/// than its neighbours, while still moving with any change that affects
/// every segment. Without steal figures the order is the segments' own.
fn quiet_quartile(per_segment: &[Figures], value: fn(&Figures) -> f64, better: Better) -> f64 {
    let mut by_steal: Vec<&Figures> = per_segment.iter().collect();
    by_steal.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let quiet: Vec<f64> = by_steal[..per_segment.len().div_ceil(2)]
        .iter()
        .map(|f| value(f))
        .collect();
    let p = match better {
        Better::Lower => 25.0,
        Better::Higher => 75.0,
    };
    percentile(&sorted(quiet), p).unwrap_or(0.0)
}

/// Segments in a phase of `seconds`.
fn segments(seconds: f64) -> u64 {
    (seconds / SEGMENT_SECONDS).round().max(1.0) as u64
}

/// Per-segment and pooled figures of a phase.
#[derive(Default)]
struct Phase {
    answers: Answers,
    per_segment: Vec<Figures>,
    setup_s: Vec<f64>,
    /// Pooled latencies (µs).
    queries: Vec<f64>,
    inserts: Vec<f64>,
    deletes: Vec<f64>,
    pages: Vec<f64>,
    index_pages: u64,
    elapsed_s: f64,
}

impl Phase {
    /// Checks a segment's answers and folds its figures in.
    fn add(&mut self, seg: &Segment, oracle: &Oracle, inputs: &Inputs, out: &mut Outcomes) {
        for (what, recs) in [("timed", &seg.records), ("probe", &seg.probe)] {
            out.count(
                what,
                &check_run(oracle, &mut self.answers, inputs, recs),
                recs.len(),
            );
        }
        let q = latencies(&seg.records, OpKind::Query);
        let updates = if seg.probe.is_empty() {
            &seg.records
        } else {
            &seg.probe
        };
        let completed = seg.records.iter().filter(|r| !r.failed()).count();
        self.per_segment.push(Figures {
            steal: seg.steal,
            query_p50: percentile(&q, 50.0).unwrap_or(0.0),
            query_p90: percentile(&q, 90.0).unwrap_or(0.0),
            ops_per_s: completed as f64 / seg.elapsed_s,
        });
        self.setup_s.push(seg.setup_s);
        self.queries.extend(q);
        self.inserts.extend(latencies(updates, OpKind::Insert));
        self.deletes.extend(latencies(updates, OpKind::Delete));
        self.pages
            .extend(query_facts(&seg.records).map(|(_, p, f, _, _)| (p + f) as f64));
        self.index_pages = seg.index_pages;
        self.elapsed_s += seg.elapsed_s;
    }

    fn finish(&mut self) {
        for v in [&mut self.queries, &mut self.inserts, &mut self.deletes] {
            v.sort_by(f64::total_cmp);
        }
    }
}

fn run(args: &Args) -> Result<i32, String> {
    let w = args.workload;
    let inputs = Inputs::generate(w, args.seed);
    let oracle = Oracle::new(&inputs);
    let mut out = Outcomes::default();
    let dump = if args.trace {
        run_traced(args, &inputs, &oracle, &mut out)?
    } else {
        run_untraced(args, &inputs, &oracle, &mut out)?;
        Vec::new()
    };

    out.meta.extend([
        ("workload".into(), w.name().into()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), (args.trace as u8).to_string()),
        ("nproc".into(), meta::nproc().to_string()),
        ("rustc".into(), meta::rustc_version()),
        ("commit".into(), meta::commit()),
        ("clients".into(), workload::CLIENTS.to_string()),
        ("shards".into(), w.shards().to_string()),
        ("workers".into(), workload::WORKERS.to_string()),
    ]);
    // Run from the repository root, where `crates/` is.
    for (krate, lines) in meta::crate_lines(std::path::Path::new(".")) {
        out.meta.push((format!("lines.{krate}"), lines.to_string()));
    }
    emit(args, &out, &dump)?;
    Ok(if out.failed == 0 { 0 } else { 1 })
}

/// The end-to-end run: every segment untraced.
fn run_untraced(
    args: &Args,
    inputs: &Inputs,
    oracle: &Oracle,
    out: &mut Outcomes,
) -> Result<(), String> {
    let w = args.workload;
    let plain = || instance::build_plain(w, inputs);
    let query_prefix = if w == Workload::SubsetScan {
        "subset"
    } else {
        "superset"
    };
    let mut phase = Phase::default();
    for seg in 0..segments(args.seconds) {
        let s = run_segment(
            w,
            inputs,
            seg,
            args.seconds / segments(args.seconds) as f64,
            plain,
        )?;
        phase.add(&s, oracle, inputs, out);
    }
    phase.finish();
    let median = stats::median;
    let values = [
        median(&phase.setup_s),
        quiet_quartile(&phase.per_segment, |f| f.query_p50, Better::Lower),
        quiet_quartile(&phase.per_segment, |f| f.query_p90, Better::Lower),
        // Pooled: the serial probe's segments fall into a fast and a
        // slow mode, and a quartile over segments picks between them.
        percentile(&phase.inserts, 50.0).unwrap_or(0.0),
        percentile(&phase.deletes, 50.0).unwrap_or(0.0),
        quiet_quartile(&phase.per_segment, |f| f.ops_per_s, Better::Higher),
        mean(&phase.pages),
        phase.index_pages as f64,
        meta::peak_rss_mib().unwrap_or(0.0),
    ];
    for ((name, unit), v) in END_TO_END.iter().zip(values) {
        out.metric(name, v, unit);
    }
    latency_lines(out, query_prefix, &phase.queries);
    latency_lines(out, "insert", &phase.inserts);
    latency_lines(out, "delete", &phase.deletes);
    let where_updates = if w.timed_updates() {
        "timed closed loop"
    } else {
        "serial probe after each segment"
    };
    out.line(format!("updates measured in: {where_updates}"));
    let column = |f: fn(&Figures) -> f64| phase.per_segment.iter().map(f).collect::<Vec<_>>();
    out.line(format!("per-segment steal = {:.3?}", column(|f| f.steal)));
    out.line(format!(
        "per-segment ops_per_s = {:.0?}",
        column(|f| f.ops_per_s)
    ));
    out.line(format!(
        "per-segment {query_prefix}_p50_us = {:.1?}",
        column(|f| f.query_p50)
    ));
    out.line(format!(
        "per-segment {query_prefix}_p90_us = {:.1?}",
        column(|f| f.query_p90)
    ));
    out.meta
        .push(("steal_share".into(), mean(&column(|f| f.steal)).to_string()));
    out.line(format!("per-segment setup_s = {:.4?}", phase.setup_s));
    out.line(format!(
        "error_rate = {}",
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    out.meta
        .push(("samples.segments".into(), phase.setup_s.len().to_string()));
    out.meta.push((
        "samples.pages_per_query".into(),
        phase.pages.len().to_string(),
    ));
    out.meta
        .push(("elapsed_s".into(), phase.elapsed_s.to_string()));
    Ok(())
}

/// The per-layer run: half the segments untraced (the overhead baseline),
/// half traced. Returns the spans to write out.
fn run_traced(
    args: &Args,
    inputs: &Inputs,
    oracle: &Oracle,
    out: &mut Outcomes,
) -> Result<Vec<trace::Span>, String> {
    let w = args.workload;
    let plain = || instance::build_plain(w, inputs);
    let mut dump = Vec::new();
    // Untraced half first: the baseline of the tracing overhead.
    let half = args.seconds / 2.0;
    let n = segments(half);
    let mut base = Phase::default();
    for seg in 0..n {
        let s = run_segment(w, inputs, seg, half / n as f64, plain)?;
        base.add(&s, oracle, inputs, out);
    }

    let mut traced = Phase::default();
    let mut analysis = analysis::Analysis::default();
    let (mut candidates, mut false_drops, mut queries) = (0u64, 0u64, 0u64);
    let (mut measured, mut predicted) = (0.0, 0.0);
    for seg in n..2 * n {
        trace::set_enabled(true);
        let s = run_segment(w, inputs, seg, half / n as f64, || {
            instance::build_traced(w, inputs)
        })?;
        trace::set_enabled(false);
        // The segment's workers and clients have exited, so their
        // spans are collected; the probe's are on this thread.
        trace::flush_current_thread();
        let spans = trace::take_collected();
        traced.add(&s, oracle, inputs, out);
        let ops: HashMap<u64, OpInfo> = s
            .records
            .iter()
            .chain(&s.probe)
            .filter(|r| !r.failed())
            .map(|r| {
                let (superset, d_q) = match r.kind {
                    OpKind::Query => {
                        let q = query_spec(inputs, r);
                        (q.query.predicate != SetPredicate::InSubset, q.d_q)
                    }
                    _ => (false, 0),
                };
                (
                    r.op,
                    OpInfo {
                        kind: r.kind,
                        superset,
                        d_q,
                    },
                )
            })
            .collect();
        analysis.add(&spans, &ops);
        for (_, _, _, c, f) in query_facts(&s.records) {
            candidates += c;
            false_drops += f;
            queries += 1;
        }
        let (m, p) = pages_vs_model(inputs, &s.records);
        measured += m;
        predicted += p;
        if seg == n {
            let first = spans.iter().map(|sp| sp.start).min().unwrap_or(0);
            dump = spans
                .into_iter()
                .filter(|sp| sp.start < first + SPAN_DUMP_NS)
                .collect();
        }
    }
    traced.finish();
    let layers = analysis.report();
    for (name, v, unit) in &layers.metrics {
        out.metric(name, *v, unit);
    }
    let base_p50 = stats::median(
        &base
            .per_segment
            .iter()
            .map(|f| f.query_p50)
            .collect::<Vec<_>>(),
    );
    let model = model();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let extra = [
        (
            "core.candidates_per_query",
            ratio(candidates as f64, queries as f64),
            "count",
        ),
        (
            "core.false_drop_ratio",
            ratio(false_drops as f64, candidates as f64),
            "ratio",
        ),
        (
            "update.insert_p50_us",
            percentile(&traced.inserts, 50.0).unwrap_or(0.0),
            "us",
        ),
        (
            "update.delete_p50_us",
            percentile(&traced.deletes, 50.0).unwrap_or(0.0),
            "us",
        ),
        ("update.pages_per_insert", layers.pages_per_insert, "pages"),
        ("update.pages_per_delete", layers.pages_per_delete, "pages"),
        ("costmodel.pages_ratio", ratio(measured, predicted), "ratio"),
        (
            "costmodel.uc_insert_ratio",
            ratio(layers.pages_per_insert, model.uc_insert()),
            "ratio",
        ),
        (
            "costmodel.uc_delete_ratio",
            ratio(layers.pages_per_delete, model.uc_delete()),
            "ratio",
        ),
        (
            "trace.unattributed_share",
            layers.unattributed_share,
            "ratio",
        ),
        (
            "trace.overhead_ratio",
            ratio(layers.traced_query_p50_us, base_p50),
            "ratio",
        ),
    ];
    for (name, v, unit) in extra {
        out.metric(name, v, unit);
    }
    if !out.metrics.iter().map(|m| m.0.as_str()).eq(PER_LAYER) {
        return Err("the per-layer metrics emitted differ from PER_LAYER".into());
    }
    out.line(format!(
        "model: uc_insert = {} pages, uc_delete = {} pages, rc_superset(1..3) = {:.1}/{:.1}/{:.1}, rc_subset(75) = {:.1}",
        model.uc_insert(),
        model.uc_delete(),
        model.rc_superset(1),
        model.rc_superset(2),
        model.rc_superset(3),
        model.rc_subset(75)
    ));
    out.line(format!(
        "reconciliation: {} traced ops (1 in {}), unattributed share {:.5} (tolerance {UNATTRIBUTED_TOLERANCE}), {} unmatched filter spans",
        layers.ops,
        client::TRACE_EVERY,
        layers.unattributed_share,
        layers.unmatched_filters
    ));
    for (name, v) in layers.fetch_times {
        out.line(format!("{name} = {v:.3}"));
    }
    // (what, threshold, whether reaching it is enough)
    let predictions = [
        ("service self share of ⊇ D_q >= 2 latency", 0.5, false),
        ("core + pagestore share of ⊆ latency", 0.9, true),
        ("drop resolution share of ⊇ D_q = 1 latency", 0.5, false),
    ];
    for ((what, threshold, inclusive), got) in predictions.into_iter().zip(layers.predicted) {
        if let Some(v) = got {
            let met = v > threshold || (inclusive && v == threshold);
            let op = if inclusive { ">=" } else { ">" };
            out.line(format!(
                "split: {what} = {v:.3} (predicted {op} {threshold}: {})",
                if met { "met" } else { "NOT met" }
            ));
        }
    }
    if layers.unattributed_share > UNATTRIBUTED_TOLERANCE || layers.ops == 0 {
        eprintln!("perfbench: reconciliation failed: layer times do not add up to client.op");
        out.failed += 1;
    }
    out.meta
        .push(("samples.traced_ops".into(), layers.ops.to_string()));
    out.meta
        .push(("samples.inserts".into(), traced.inserts.len().to_string()));
    out.meta
        .push(("samples.deletes".into(), traced.deletes.len().to_string()));
    Ok(dump)
}

fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Prints the report, the metadata line and the result line; writes the
/// metadata and span dump under `--out` when given.
fn emit(args: &Args, out: &Outcomes, spans: &[trace::Span]) -> Result<(), String> {
    for l in &out.report {
        println!("{l}");
    }
    let meta_json = format!(
        "{{{}}}",
        out.meta
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("meta {meta_json}");
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let stem = format!(
            "{}-seed{}-trace{}",
            args.workload.name(),
            args.seed,
            args.trace as u8
        );
        let meta_path = dir.join(format!("{stem}.meta.json"));
        std::fs::write(&meta_path, &meta_json)
            .map_err(|e| format!("{}: {e}", meta_path.display()))?;
        if !spans.is_empty() {
            let mut text = String::new();
            for s in spans {
                let _ = writeln!(
                    text,
                    "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"op\": {}, \"key\": {}, \"file\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    s.id,
                    s.parent,
                    s.name.as_str(),
                    s.op,
                    s.key,
                    s.file.map_or("null".to_string(), |f| json_str(&format!("{f:?}").to_lowercase())),
                    s.start,
                    s.end
                );
            }
            let path = dir.join(format!("{stem}.spans.jsonl"));
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    let metrics = out
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names listed under `section` in the repository's
    /// `BENCHMARK.json`, in order.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quoted name")].to_string())
            .collect()
    }

    #[test]
    fn quiet_quartile_uses_the_segments_with_least_steal() {
        let seg = |steal, v| Figures {
            steal,
            query_p50: v,
            query_p90: v,
            ops_per_s: v,
        };
        // The two quiet segments hold 10 and 20; the stolen ones 1 and 99.
        let segs = [
            seg(0.2, 1.0),
            seg(0.0, 20.0),
            seg(0.3, 99.0),
            seg(0.01, 10.0),
        ];
        assert_eq!(quiet_quartile(&segs, |f| f.query_p50, Better::Lower), 10.0);
        assert_eq!(quiet_quartile(&segs, |f| f.ops_per_s, Better::Higher), 20.0);
        assert_eq!(
            quiet_quartile(&segs[..1], |f| f.query_p50, Better::Lower),
            1.0
        );
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(declared("end_to_end"), e2e);
        assert_eq!(declared("per_layer"), PER_LAYER);
    }
}
