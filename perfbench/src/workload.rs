//! The three workloads and the inputs each run replays, all generated from
//! the run's seed before any timing starts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use setsig_core::{ElementKey, Oid, SetPredicate, SetQuery};
use setsig_workload::{QueryGen, SetGenerator, WorkloadConfig};

/// Objects in the store at set-up: the paper's `N`.
pub const N: usize = 32_000;
/// Element domain `V`.
pub const V: u64 = 13_000;
/// Target set cardinality `D_t`.
pub const D_T: u32 = 10;
/// Signature width `F` (one slice file per bit).
pub const F: u32 = 500;
/// Element signature weight `m`.
pub const M: u32 = 2;
/// Closed-loop clients. The box this was sized on has `nproc` = 2.
pub const CLIENTS: usize = 2;
/// Service workers on every workload, so both clients' queries can run at
/// once.
pub const WORKERS: usize = 2;
/// Inserts (and, separately, deletes) each client performs per run.
/// `N + CLIENTS · 380 = 32,760 < 32,768 = P·b`: every slice file stays
/// one page, so the index never leaves the paper's regime and grows by
/// the same amount in every run.
pub const UPDATES_PER_CLIENT: usize = 380;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ⊇ queries, `D_q` uniform in {1, 2, 3}, random query sets.
    SupersetMix,
    /// ⊆ queries, `D_q` uniform in [50, 100].
    SubsetScan,
    /// The `SupersetMix` stream with inserts and deletes on a schedule,
    /// over two shards.
    UpdateMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SupersetMix,
        Workload::SubsetScan,
        Workload::UpdateMix,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SupersetMix => "superset_mix",
            Workload::SubsetScan => "subset_scan",
            Workload::UpdateMix => "update_mix",
        }
    }

    /// Shards of the `QueryService`. One shard keeps page counts equal to
    /// the paper's model; `update_mix` uses two because a writer holds
    /// only its own shard's write lock, which is what sharding is for.
    pub fn shards(self) -> usize {
        match self {
            Workload::UpdateMix => 2,
            _ => 1,
        }
    }

    /// Whether updates run inside the timed closed loop. The read-only
    /// workloads run the same update lists afterwards, serially, as an
    /// uncontended probe of the write path.
    pub fn timed_updates(self) -> bool {
        self == Workload::UpdateMix
    }

    /// Queries generated per client; a client cycles through its stream.
    /// ⊆ query sets are 50–100 elements, so their stream is kept short.
    fn queries_per_client(self) -> usize {
        match self {
            Workload::SubsetScan => 1 << 11,
            _ => 1 << 15,
        }
    }

    fn query_shape(self) -> (SetPredicate, u32, u32) {
        match self {
            Workload::SubsetScan => (SetPredicate::InSubset, 50, 100),
            _ => (SetPredicate::HasSubset, 1, 3),
        }
    }
}

/// A generated query with its cardinality `D_q`.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub query: SetQuery,
    pub d_q: u32,
}

/// An update on the index. The object itself is in the store from set-up
/// on; only the facility's view of it changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update {
    /// Index a fresh OID from the insert pool.
    Insert(Oid),
    /// Remove a live OID this client owns.
    Delete(Oid),
}

impl Update {
    pub fn oid(self) -> Oid {
        match self {
            Update::Insert(o) | Update::Delete(o) => o,
        }
    }
}

/// What one client replays.
#[derive(Debug, Clone)]
pub struct ClientStream {
    pub queries: Vec<QuerySpec>,
    /// Alternating insert, delete, insert, … (`2 · UPDATES_PER_CLIENT`).
    pub updates: Vec<Update>,
}

/// Everything a run needs, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// `sets[oid]`: objects `0..N` are indexed at set-up, `N..` form the
    /// insert pool (stored, not indexed).
    pub sets: Vec<Vec<u64>>,
    pub clients: Vec<ClientStream>,
}

/// Keys of one generated set, in ascending element order.
pub fn keys(set: &[u64]) -> Vec<ElementKey> {
    set.iter().map(|&e| ElementKey::from(e)).collect()
}

/// SplitMix64 step: derives independent sub-seeds from the run seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Inputs {
    /// Generates the instance and both clients' streams for `workload`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        Self::generate_sized(workload, seed, N, workload.queries_per_client())
    }

    /// As [`Inputs::generate`] with `n` stored objects and `queries`
    /// queries per client (tests use small sizes).
    pub fn generate_sized(workload: Workload, seed: u64, n: usize, queries: usize) -> Inputs {
        let pool = CLIENTS * UPDATES_PER_CLIENT;
        let mut cfg = WorkloadConfig::paper(D_T);
        cfg.n_objects = n as u64;
        cfg.seed = mix(seed, 0);
        let mut gen = SetGenerator::new(cfg);
        let sets: Vec<Vec<u64>> = (0..n + pool).map(|_| gen.next_set()).collect();

        let (predicate, lo, hi) = workload.query_shape();
        let clients = (0..CLIENTS)
            .map(|c| {
                let mut rng = StdRng::seed_from_u64(mix(seed, 1 + c as u64));
                let mut qgen = QueryGen::new(V, mix(seed, 100 + c as u64));
                let queries = (0..queries)
                    .map(|_| {
                        let d_q = rng.gen_range(lo..=hi);
                        let elems = keys(&qgen.random(d_q));
                        QuerySpec {
                            query: SetQuery::new(predicate, elems),
                            d_q,
                        }
                    })
                    .collect();
                // Deletes draw without replacement from the initial
                // objects this client owns (`oid % CLIENTS == c`), so
                // each OID changes liveness at most once, in this
                // client's program order.
                let mut owned: Vec<u64> = (c as u64..n as u64).step_by(CLIENTS).collect();
                let deletes = UPDATES_PER_CLIENT.min(owned.len());
                for i in 0..deletes {
                    let j = rng.gen_range(i..owned.len());
                    owned.swap(i, j);
                }
                let first_fresh = (n + c * UPDATES_PER_CLIENT) as u64;
                let updates = (0..UPDATES_PER_CLIENT)
                    .flat_map(|i| {
                        let ins = Update::Insert(Oid::new(first_fresh + i as u64));
                        let del = owned.get(i).map(|&o| Update::Delete(Oid::new(o)));
                        std::iter::once(ins).chain(del)
                    })
                    .collect();
                ClientStream { queries, updates }
            })
            .collect();
        Inputs { sets, clients }
    }

    /// Objects indexed at set-up.
    pub fn initial(&self) -> usize {
        self.sets.len() - CLIENTS * UPDATES_PER_CLIENT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_op_streams() {
        for w in Workload::ALL {
            let a = Inputs::generate_sized(w, 7, 2_000, 500);
            let b = Inputs::generate_sized(w, 7, 2_000, 500);
            assert_eq!(a.sets, b.sets);
            for (ca, cb) in a.clients.iter().zip(&b.clients) {
                assert_eq!(ca.updates, cb.updates);
                assert_eq!(ca.queries.len(), cb.queries.len());
                for (qa, qb) in ca.queries.iter().zip(&cb.queries) {
                    assert_eq!(qa.query, qb.query);
                    assert_eq!(qa.d_q, qb.d_q);
                }
            }
            let c = Inputs::generate_sized(w, 8, 2_000, 500);
            assert_ne!(a.sets, c.sets, "another seed gives other inputs");
        }
    }

    #[test]
    fn streams_have_the_declared_shape() {
        let inp = Inputs::generate_sized(Workload::SubsetScan, 1, 2_000, 300);
        assert_eq!(inp.initial(), 2_000);
        for (c, s) in inp.clients.iter().enumerate() {
            assert!(s
                .queries
                .iter()
                .all(|q| (50..=100).contains(&q.d_q) && q.query.d_q() == q.d_q as usize));
            assert_eq!(s.updates.len(), 2 * UPDATES_PER_CLIENT);
            for u in &s.updates {
                match *u {
                    Update::Insert(o) => assert!(o.raw() >= 2_000),
                    Update::Delete(o) => {
                        assert!(o.raw() < 2_000 && o.raw() % CLIENTS as u64 == c as u64)
                    }
                }
            }
        }
        // Clients never touch the same OID, and no OID is deleted twice.
        let mut all: Vec<Oid> = inp
            .clients
            .iter()
            .flat_map(|s| s.updates.iter().map(|u| u.oid()))
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
