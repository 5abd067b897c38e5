//! Answer checking: every query's verified answer against the exact answer
//! over the benchmark's own copy of the live sets.

use std::collections::{BTreeSet, HashMap};

use setsig_core::{verify_predicate, ElementSet, Oid, SetPredicate, SetQuery};

use crate::client::{OpKind, OpRecord, Outcome};
use crate::workload::{keys, Inputs, Update};

/// The benchmark's copy of every stored set plus an element → objects
/// index, used only to skip objects that share no element with a query.
pub struct Oracle {
    sets: Vec<ElementSet>,
    postings: HashMap<u64, Vec<u32>>,
    initial: usize,
}

impl Oracle {
    pub fn new(inputs: &Inputs) -> Oracle {
        let mut postings: HashMap<u64, Vec<u32>> = HashMap::new();
        for (oid, set) in inputs.sets.iter().enumerate() {
            for &e in set {
                postings.entry(e).or_default().push(oid as u32);
            }
        }
        Oracle {
            sets: inputs
                .sets
                .iter()
                .map(|s| keys(s).into_iter().collect())
                .collect(),
            postings,
            initial: inputs.initial(),
        }
    }

    /// Every object (live or not) satisfying `query`, by `verify_predicate`.
    /// Only objects that can satisfy it are verified: for `T ⊇ Q` an
    /// object must appear in the postings of all `|Q|` query elements, for
    /// `T ⊆ Q` in the postings of `|T|` of them (sets are non-empty and
    /// duplicate-free), so counting postings hits skips no answer.
    pub fn satisfying(&self, query: &SetQuery) -> BTreeSet<Oid> {
        let mut hits: HashMap<u32, usize> = HashMap::new();
        for e in &query.elements {
            for &o in self.postings.get(&e.digest8()).into_iter().flatten() {
                *hits.entry(o).or_default() += 1;
            }
        }
        hits.into_iter()
            .filter(|&(o, n)| match query.predicate {
                SetPredicate::InSubset => n == self.sets[o as usize].len(),
                _ => n == query.elements.len(),
            })
            .map(|(o, _)| o)
            .filter(|&o| verify_predicate(query.predicate, &self.sets[o as usize], &query.elements))
            .map(|o| Oid::new(u64::from(o)))
            .collect()
    }

    /// [`Oracle::satisfying`] by scanning every object: the reference the
    /// index is tested against.
    #[cfg(test)]
    pub fn satisfying_brute_force(&self, query: &SetQuery) -> BTreeSet<Oid> {
        (0..self.sets.len())
            .filter(|&o| verify_predicate(query.predicate, &self.sets[o], &query.elements))
            .map(|o| Oid::new(o as u64))
            .collect()
    }
}

/// When an OID's liveness changed, from the run's completed updates.
#[derive(Default)]
struct History {
    /// `(start, end)` of each update of the OID, in program order.
    intervals: Vec<(u64, u64)>,
    inserted_by: Option<u64>,
    deleted_by: Option<u64>,
    /// An update of this OID failed: its liveness is unknown.
    unknown: bool,
}

/// The result of checking one run.
#[derive(Debug, Default)]
pub struct CheckReport {
    pub queries_checked: u64,
    /// Failed operations: errors, panics and wrong answers.
    pub failed: u64,
    /// The first few failures, for the log.
    pub examples: Vec<String>,
}

/// Exact answers by `(client, query index)`: clients cycle through their
/// streams, so each is computed once per run.
pub type Answers = HashMap<(usize, usize), BTreeSet<Oid>>;

/// Checks every op of a run. `query_of` names the query an op replayed,
/// `update_of` the update.
pub fn check(
    oracle: &Oracle,
    answers: &mut Answers,
    records: &[OpRecord],
    query_of: impl Fn(&OpRecord) -> SetQuery,
    update_of: impl Fn(&OpRecord) -> Update,
) -> CheckReport {
    let mut history: HashMap<Oid, History> = HashMap::new();
    for r in records.iter().filter(|r| r.kind != OpKind::Query) {
        let u = update_of(r);
        let h = history.entry(u.oid()).or_default();
        h.intervals.push((r.start, r.end));
        if r.failed() {
            h.unknown = true;
        }
        match u {
            Update::Insert(_) => h.inserted_by = Some(r.end),
            Update::Delete(_) => h.deleted_by = Some(r.end),
        }
    }
    // Liveness of `oid` throughout `[s, e]`, or `None` when it changed
    // (or may have) during that interval: such objects are exempt.
    let live_during = |oid: Oid, s: u64, e: u64| -> Option<bool> {
        let initially = (oid.raw() as usize) < oracle.initial;
        let Some(h) = history.get(&oid) else {
            return Some(initially);
        };
        if h.unknown || h.intervals.iter().any(|&(us, ue)| us <= e && ue >= s) {
            return None;
        }
        let inserted = initially || h.inserted_by.is_some_and(|t| t < s);
        let deleted = h.deleted_by.is_some_and(|t| t < s);
        Some(inserted && !deleted)
    };

    let mut report = CheckReport::default();
    let fail = |report: &mut CheckReport, msg: String| {
        report.failed += 1;
        if report.examples.len() < 5 {
            report.examples.push(msg);
        }
    };
    for r in records {
        match &r.outcome {
            Outcome::Failed(msg) => fail(&mut report, format!("op {:#x}: {msg}", r.op)),
            Outcome::Update => {}
            Outcome::Query { actual, .. } => {
                report.queries_checked += 1;
                let expected: BTreeSet<Oid> = answers
                    .entry((r.client, r.index))
                    .or_insert_with(|| oracle.satisfying(&query_of(r)))
                    .iter()
                    .copied()
                    .filter(|&o| live_during(o, r.start, r.end) == Some(true))
                    .collect();
                let got: BTreeSet<Oid> = actual
                    .iter()
                    .copied()
                    .filter(|&o| live_during(o, r.start, r.end).is_some())
                    .collect();
                if got != expected {
                    let query = query_of(r);
                    let missing = expected.difference(&got).count();
                    let extra = got.difference(&expected).count();
                    fail(
                        &mut report,
                        format!(
                            "op {:#x}: {} {:?}… answer has {extra} wrong and {missing} missing objects",
                            r.op,
                            query.predicate,
                            query.elements.first()
                        ),
                    );
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn query_record(op: u64, actual: Vec<Oid>, start: u64, end: u64) -> OpRecord {
        OpRecord {
            op,
            client: 0,
            kind: OpKind::Query,
            index: 0,
            start,
            end,
            outcome: Outcome::Query {
                actual,
                filter_pages: 0,
                fetches: 0,
                candidates: 0,
                false_drops: 0,
            },
        }
    }

    fn small() -> Inputs {
        Inputs::generate_sized(Workload::SupersetMix, 3, 3_000, 50)
    }

    #[test]
    fn indexed_oracle_equals_brute_force() {
        let inputs = small();
        let oracle = Oracle::new(&inputs);
        for s in inputs.clients[0].queries.iter().take(50) {
            assert_eq!(
                oracle.satisfying(&s.query),
                oracle.satisfying_brute_force(&s.query)
            );
        }
        // Queries built from stored sets, so answers are non-empty, for
        // both predicates.
        for i in [0usize, 17, 2_999] {
            let set = &inputs.sets[i];
            let sup = SetQuery::new(SetPredicate::HasSubset, keys(&set[..2]));
            let mut padded = set.clone();
            padded.extend([20_000, 20_001]);
            let sub = SetQuery::new(SetPredicate::InSubset, keys(&padded));
            for q in [sup, sub] {
                let ans = oracle.satisfying(&q);
                assert!(ans.contains(&Oid::new(i as u64)));
                assert_eq!(ans, oracle.satisfying_brute_force(&q));
            }
        }
    }

    #[test]
    fn injected_wrong_answer_counts_as_a_failure() {
        let inputs = small();
        let oracle = Oracle::new(&inputs);
        let q = SetQuery::new(SetPredicate::HasSubset, keys(&inputs.sets[5][..1]));
        // Insert-pool objects are stored but not live.
        let right: Vec<Oid> = oracle
            .satisfying(&q)
            .into_iter()
            .filter(|o| (o.raw() as usize) < inputs.initial())
            .collect();
        assert!(!right.is_empty());
        let mut missing_one = right.clone();
        missing_one.pop();
        let mut one_extra = right.clone();
        one_extra.push(Oid::new(2_999_999));
        let records = vec![
            query_record(1, right, 10, 20),
            query_record(2, missing_one, 10, 20),
            query_record(3, one_extra, 10, 20),
            OpRecord {
                outcome: Outcome::Failed("injected error".into()),
                ..query_record(4, vec![], 10, 20)
            },
        ];
        let report = check(
            &oracle,
            &mut Answers::new(),
            &records,
            |_| q.clone(),
            |_| unreachable!(),
        );
        assert_eq!(report.queries_checked, 3);
        assert_eq!(report.failed, 3, "{:?}", report.examples);
    }

    #[test]
    fn liveness_changes_during_a_query_are_exempt() {
        let inputs = small();
        let oracle = Oracle::new(&inputs);
        let target = Oid::new(7);
        let q = SetQuery::new(SetPredicate::HasSubset, keys(&inputs.sets[7]));
        assert_eq!(oracle.satisfying(&q), BTreeSet::from([target]));
        let delete = OpRecord {
            kind: OpKind::Delete,
            outcome: Outcome::Update,
            ..query_record(9, vec![], 100, 110)
        };
        let update_of = |_: &OpRecord| Update::Delete(target);
        let run = |actual: Vec<Oid>, s, e| {
            check(
                &oracle,
                &mut Answers::new(),
                &[delete.clone(), query_record(1, actual, s, e)],
                |_| q.clone(),
                update_of,
            )
            .failed
        };
        // Before the delete the object must be in the answer …
        assert_eq!(run(vec![target], 10, 20), 0);
        assert_eq!(run(vec![], 10, 20), 1);
        // … overlapping it, either answer is right …
        assert_eq!(run(vec![target], 105, 120), 0);
        assert_eq!(run(vec![], 90, 105), 0);
        // … and after it, the object must be gone.
        assert_eq!(run(vec![], 200, 210), 0);
        assert_eq!(run(vec![target], 200, 210), 1);
    }
}
