//! The closed-loop clients: each waits for an answer before it issues its
//! next request, with no think time.

use std::panic::{catch_unwind, AssertUnwindSafe};

use setsig_core::{resolve_drops, ElementKey, Oid, SetAccessFacility};

use crate::instance::{Instance, StoreSource};
use crate::trace::{self, Name, TracedSource};
use crate::workload::{keys, ClientStream, Inputs, QuerySpec, Update, CLIENTS};

/// What an operation was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Query,
    Insert,
    Delete,
}

/// The outcome of one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Query {
        /// The verified answer: candidates that passed drop resolution.
        actual: Vec<Oid>,
        /// Logical filter pages from `ScanStats` (slices + OID file).
        filter_pages: u64,
        /// Objects fetched in drop resolution, one page each.
        fetches: u64,
        candidates: u64,
        false_drops: u64,
    },
    Update,
    Failed(String),
}

/// One completed (or failed) operation. Times are `trace::now_ns`.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Unique per run; the id spans of this op carry.
    pub op: u64,
    pub client: usize,
    pub kind: OpKind,
    /// Index into the client's query stream or update list.
    pub index: usize,
    pub start: u64,
    pub end: u64,
    pub outcome: Outcome,
}

impl OpRecord {
    pub fn latency_us(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 / 1_000.0
    }

    pub fn failed(&self) -> bool {
        matches!(self.outcome, Outcome::Failed(_))
    }
}

/// In a traced run, every this-many-th op of a client is traced, to keep
/// the spans of a ⊆ query (~370 page reads each) in bounded memory.
pub const TRACE_EVERY: u64 = 4;

/// Op ids: segment above bit 48, client number (1-based) above bit 40,
/// sequence number below.
fn op_id(segment: u64, client: usize, seq: u64) -> u64 {
    (segment << 48) | ((client as u64 + 1) << 40) | seq
}

/// Runs one query through the service and drop resolution.
fn run_query<Fac: SetAccessFacility + Send + Sync + 'static>(
    inst: &Instance<Fac>,
    client: usize,
    q: &QuerySpec,
) -> (u64, u64, Outcome) {
    let _op = trace::span(Name::ClientOp);
    let key = if trace::active() {
        trace::fingerprint(&q.query)
    } else {
        0
    };
    let start = trace::now_ns();
    let answer = {
        let _p = trace::publish(client, key);
        let _s = trace::span_with(Name::ServiceQuery, key, None);
        inst.service.submit(&q.query).wait()
    };
    let outcome = match answer {
        Err(e) => Outcome::Failed(format!("query: {e}")),
        Ok((candidates, stats)) => {
            let source = TracedSource(StoreSource::new(&inst.store));
            let report = {
                let _s = trace::span(Name::DropsResolve);
                resolve_drops(&q.query, &candidates, &source)
            };
            match (report, stats) {
                (Err(e), _) => Outcome::Failed(format!("drop resolution: {e}")),
                (Ok(_), None) => Outcome::Failed("facility reported no scan stats".into()),
                (Ok(r), Some(stats)) => Outcome::Query {
                    actual: r.actual,
                    filter_pages: stats.logical_pages,
                    fetches: source.0.fetches.get(),
                    candidates: r.candidates,
                    false_drops: r.false_drops,
                },
            }
        }
    };
    (start, trace::now_ns(), outcome)
}

/// Applies one update through the service.
fn run_update<Fac: SetAccessFacility + Send + Sync + 'static>(
    inst: &Instance<Fac>,
    update: Update,
    set: &[ElementKey],
) -> (u64, u64, Outcome) {
    let _op = trace::span(Name::ClientOp);
    let start = trace::now_ns();
    let result = {
        let _s = trace::span(Name::ServiceUpdate);
        match update {
            Update::Insert(oid) => inst.service.insert(oid, set),
            Update::Delete(oid) => inst.service.delete(oid, set),
        }
    };
    let outcome = match result {
        Ok(()) => Outcome::Update,
        Err(e) => Outcome::Failed(format!("{update:?}: {e}")),
    };
    (start, trace::now_ns(), outcome)
}

fn update_kind(u: Update) -> OpKind {
    match u {
        Update::Insert(_) => OpKind::Insert,
        Update::Delete(_) => OpKind::Delete,
    }
}

/// A panic inside an operation becomes a failed operation, not a dead
/// client.
fn guarded(f: impl FnOnce() -> (u64, u64, Outcome)) -> (u64, u64, Outcome) {
    let start = trace::now_ns();
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        (
            start,
            trace::now_ns(),
            Outcome::Failed(format!("panic: {msg}")),
        )
    })
}

/// One client's closed loop until `deadline`. With `timed_updates`, the
/// client's update list is spread evenly over `[start, deadline)`: when an
/// update is due, it is the next request; otherwise the next query of the
/// (cycled) stream is.
fn client_loop<Fac: SetAccessFacility + Send + Sync + 'static>(
    inst: &Instance<Fac>,
    inputs: &Inputs,
    (segment, client): (u64, usize),
    stream: &ClientStream,
    (start, deadline): (u64, u64),
    timed_updates: bool,
) -> Vec<OpRecord> {
    let updates: &[Update] = if timed_updates { &stream.updates } else { &[] };
    let update_keys: Vec<Vec<ElementKey>> = updates
        .iter()
        .map(|u| keys(&inputs.sets[u.oid().raw() as usize]))
        .collect();
    let due = |k: usize| {
        start + ((k as f64 + 0.5) * (deadline - start) as f64 / updates.len() as f64) as u64
    };
    let mut records = Vec::with_capacity(1 << 16);
    let (mut qi, mut ui, mut seq) = (0usize, 0usize, 0u64);
    loop {
        let now = trace::now_ns();
        if now >= deadline {
            break;
        }
        let op = op_id(segment, client, seq);
        trace::begin_op(op, trace::enabled() && seq.is_multiple_of(TRACE_EVERY));
        seq += 1;
        let (kind, index, (s, e, outcome)) = if ui < updates.len() && now >= due(ui) {
            let index = ui;
            ui += 1;
            let u = updates[index];
            let set = &update_keys[index];
            (update_kind(u), index, guarded(|| run_update(inst, u, set)))
        } else {
            let index = qi;
            qi = (qi + 1) % stream.queries.len();
            let q = &stream.queries[index];
            (OpKind::Query, index, guarded(|| run_query(inst, client, q)))
        };
        records.push(OpRecord {
            op,
            client,
            kind,
            index,
            start: s,
            end: e,
            outcome,
        });
    }
    trace::begin_op(0, false);
    records
}

/// Runs all clients concurrently for `seconds` and returns every op, with
/// the elapsed time. `segment` numbers the op ids.
pub fn run_clients<Fac: SetAccessFacility + Send + Sync + 'static>(
    inst: &Instance<Fac>,
    inputs: &Inputs,
    segment: u64,
    seconds: f64,
    timed_updates: bool,
) -> (Vec<OpRecord>, f64) {
    let start = trace::now_ns();
    let deadline = start + (seconds * 1e9) as u64;
    let mut all = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let stream = &inputs.clients[c];
                s.spawn(move || {
                    client_loop(
                        inst,
                        inputs,
                        (segment, c),
                        stream,
                        (start, deadline),
                        timed_updates,
                    )
                })
            })
            .collect();
        for (c, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(mut recs) => all.append(&mut recs),
                Err(_) => all.push(OpRecord {
                    op: op_id(segment, c, (1 << 40) - 1),
                    client: c,
                    kind: OpKind::Query,
                    index: 0,
                    start,
                    end: trace::now_ns(),
                    outcome: Outcome::Failed(format!("client {c} panicked")),
                }),
            }
        }
    });
    let elapsed = (trace::now_ns() - start) as f64 / 1e9;
    (all, elapsed)
}

/// Applies every client's update list serially from the calling thread:
/// the write-path probe of the read-only workloads.
pub fn run_update_probe<Fac: SetAccessFacility + Send + Sync + 'static>(
    inst: &Instance<Fac>,
    inputs: &Inputs,
    segment: u64,
) -> Vec<OpRecord> {
    let mut records = Vec::new();
    let longest = inputs
        .clients
        .iter()
        .map(|s| s.updates.len())
        .max()
        .unwrap_or(0);
    for i in 0..longest {
        for (c, stream) in inputs.clients.iter().enumerate() {
            let Some(&u) = stream.updates.get(i) else {
                continue;
            };
            let set = keys(&inputs.sets[u.oid().raw() as usize]);
            let op = op_id(segment, CLIENTS + c, i as u64);
            // By pair, so inserts and deletes are both sampled.
            trace::begin_op(
                op,
                trace::enabled() && (i as u64 / 2).is_multiple_of(TRACE_EVERY),
            );
            let (start, end, outcome) = guarded(|| run_update(inst, u, &set));
            records.push(OpRecord {
                op,
                client: c,
                kind: update_kind(u),
                index: i,
                start,
                end,
                outcome,
            });
        }
    }
    trace::begin_op(0, false);
    records
}
