//! Set-up: the object store, the BSSF shards and the `QueryService`.

use std::cell::Cell;
use std::sync::Arc;

use setsig_core::{
    Bssf, ElementSet, Error, Oid, Result, SetAccessFacility, SignatureConfig, TargetSetSource,
};
use setsig_obs::{Recorder, RingSink, TraceSink};
use setsig_oodb::{AttrType, ClassDef, Database, Object, ObjectStore, Value};
use setsig_pagestore::{Disk, PageIo};
use setsig_service::{shard_of, QueryService, ServiceConfig};

use crate::trace::{TracedFacility, TracedIo};
use crate::workload::{keys, Inputs, Workload, F, M, WORKERS};

/// Name of the object file on the disk.
pub const STORE_FILE: &str = "objects";
/// Trace events the recorder's ring keeps: bounded, so leaving the
/// recorder on costs no growing memory.
const RING_CAP: usize = 1024;

/// A built instance, ready for clients.
pub struct Instance<Fac: SetAccessFacility + Send + Sync + 'static> {
    pub service: QueryService<Fac>,
    pub store: ObjectStore,
}

/// Builds the untraced instance: facilities and store straight on the
/// `Disk`.
pub fn build_plain(workload: Workload, inputs: &Inputs) -> Result<Instance<Bssf>> {
    let disk = Arc::new(Disk::new());
    build(workload, inputs, disk as Arc<dyn PageIo>, |b| b)
}

/// Builds the traced instance: every page operation goes through
/// [`TracedIo`], every facility through [`TracedFacility`].
pub fn build_traced(workload: Workload, inputs: &Inputs) -> Result<Instance<TracedFacility<Bssf>>> {
    let io = Arc::new(TracedIo::new(Arc::new(Disk::new())));
    build(workload, inputs, io as Arc<dyn PageIo>, TracedFacility)
}

/// Stores every object (the insert pool too, so updates need no lock of
/// the benchmark's around the store), bulk-loads each shard with the
/// initial objects it owns, and starts the service. Engine settings are
/// explicit: serial scans, no buffer pool, no pinned tier, recorder on.
fn build<Fac: SetAccessFacility + Send + Sync + 'static>(
    workload: Workload,
    inputs: &Inputs,
    io: Arc<dyn PageIo>,
    wrap: impl Fn(Bssf) -> Fac,
) -> Result<Instance<Fac>> {
    let ring = Arc::new(RingSink::new(RING_CAP));
    let recorder = Arc::new(Recorder::new().with_sink(ring as Arc<dyn TraceSink>));

    let class = Database::in_memory()
        .define_class(ClassDef::new(
            "Synthetic",
            vec![("elems", AttrType::set_of(AttrType::Int))],
        ))
        .map_err(|e| Error::BadConfig(format!("class definition: {e}")))?;
    let mut store = ObjectStore::create(Arc::clone(&io), STORE_FILE);
    for (i, set) in inputs.sets.iter().enumerate() {
        let object = Object {
            oid: Oid::new(i as u64),
            class,
            values: vec![Value::Set(
                set.iter().map(|&e| Value::Int(e as i64)).collect(),
            )],
        };
        store
            .put(&object)
            .map_err(|e| Error::BadConfig(format!("store object {i}: {e}")))?;
    }

    let shards = workload.shards();
    let cfg = SignatureConfig::new(F, M)?;
    let mut facilities = Vec::with_capacity(shards);
    for s in 0..shards {
        let mut bssf = Bssf::create(Arc::clone(&io), &format!("bssf{s}"), cfg)?;
        bssf.set_parallelism(1);
        bssf.set_recorder(Some(Arc::clone(&recorder)));
        let items: Vec<_> = (0..inputs.initial())
            .map(|i| Oid::new(i as u64))
            .filter(|&oid| shard_of(oid, shards) == s)
            .map(|oid| (oid, keys(&inputs.sets[oid.raw() as usize])))
            .collect();
        bssf.bulk_load(&items)?;
        facilities.push(wrap(bssf));
    }
    let config = ServiceConfig::new(shards).with_workers(WORKERS);
    let service = QueryService::with_recorder(facilities, config, Some(recorder))?;
    Ok(Instance { service, store })
}

/// The object store as a [`TargetSetSource`], counting its fetches. One
/// per query, so the count belongs to that query alone.
pub struct StoreSource<'a> {
    store: &'a ObjectStore,
    pub fetches: Cell<u64>,
}

impl<'a> StoreSource<'a> {
    pub fn new(store: &'a ObjectStore) -> Self {
        StoreSource {
            store,
            fetches: Cell::new(0),
        }
    }
}

impl TargetSetSource for StoreSource<'_> {
    fn fetch_set(&self, oid: Oid) -> Result<ElementSet> {
        self.fetches.set(self.fetches.get() + 1);
        let object = self
            .store
            .get(oid)
            .map_err(|e| Error::BadQuery(format!("fetch {oid}: {e}")))?;
        object
            .value(0)
            .and_then(Value::as_element_set)
            .map(|set| set.into_iter().collect())
            .ok_or_else(|| Error::Corrupted(format!("{oid} has no element set")))
    }
}
