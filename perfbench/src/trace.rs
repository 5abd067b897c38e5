//! Span recording for the traced run, and the wrappers that record spans
//! around the public seams of each layer.
//!
//! Tracing samples whole operations: a client decides per op whether to
//! trace it ([`begin_op`]), and only then do its spans get recorded — on
//! its own thread, and on the service worker that scans for it, which
//! adopts the decision by finding the query's fingerprint among the
//! in-flight sampled queries ([`publish`], [`adopt`]).
//!
//! Spans go into a per-thread buffer (no shared lock per span) and move to
//! one global list when their thread exits, or on [`flush_current_thread`].
//! A span's parent is the innermost open span on the same thread. The one
//! cross-thread edge — a service worker's `core.filter` under the client's
//! `service.query` — is linked afterwards by query fingerprint and time
//! containment (see `analysis`).

use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use setsig_core::{
    CandidateSet, ElementKey, ElementSet, Oid, Result, ScanStats, SetAccessFacility, SetQuery,
    TargetSetSource,
};
use setsig_pagestore::{CacheStats, Disk, FileId, IoSnapshot, Page, PageIo};

/// What a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Name {
    ClientOp,
    ServiceQuery,
    ServiceUpdate,
    CoreFilter,
    CoreUpdate,
    DropsResolve,
    OodbFetch,
    PageRead,
    PageWrite,
}

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::ClientOp => "client.op",
            Name::ServiceQuery => "service.query",
            Name::ServiceUpdate => "service.update",
            Name::CoreFilter => "core.filter",
            Name::CoreUpdate => "core.update",
            Name::DropsResolve => "drops.resolve",
            Name::OodbFetch => "oodb.fetch",
            Name::PageRead => "pagestore.read",
            Name::PageWrite => "pagestore.write",
        }
    }
}

/// The kind of file a page operation touched, from its `Disk` name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileKind {
    Slice,
    Oid,
    Object,
    Other,
}

impl FileKind {
    /// Classifies a file by the names `Bssf::create` and the benchmark's
    /// store give their files: `<name>.s<j>`, `<name>.oid`, `objects`.
    pub fn of_name(name: &str) -> FileKind {
        if name == crate::instance::STORE_FILE {
            FileKind::Object
        } else if name.ends_with(".oid") {
            FileKind::Oid
        } else if name
            .rsplit_once(".s")
            .is_some_and(|(_, j)| !j.is_empty() && j.bytes().all(|b| b.is_ascii_digit()))
        {
            FileKind::Slice
        } else {
            FileKind::Other
        }
    }

    fn code(self) -> u8 {
        match self {
            FileKind::Slice => 1,
            FileKind::Oid => 2,
            FileKind::Object => 3,
            FileKind::Other => 4,
        }
    }

    fn from_code(c: u8) -> FileKind {
        match c {
            1 => FileKind::Slice,
            2 => FileKind::Oid,
            3 => FileKind::Object,
            _ => FileKind::Other,
        }
    }
}

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Unique id: thread number in the high 32 bits, the span's 1-based
    /// number on that thread below.
    pub id: u64,
    /// Parent span id; 0 for none.
    pub parent: u64,
    pub name: Name,
    /// Client op id, or 0 on threads that run no client op.
    pub op: u64,
    /// Query fingerprint on `service.query` / `core.filter`, else 0.
    pub key: u64,
    /// File kind for page spans.
    pub file: Option<FileKind>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Fingerprints of the sampled queries in flight, one slot per client;
/// 0 = empty.
static IN_FLIGHT: [AtomicU64; 8] = [const { AtomicU64::new(0) }; 8];
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static COLLECTED: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the run's epoch (the first call).
pub fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns op sampling on or off for every client.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct ThreadBuf {
    thread: u64,
    /// Spans already flushed from this thread: ids continue after them.
    flushed: u64,
    spans: Vec<Span>,
    /// Indices into `spans` of the open spans, innermost last.
    stack: Vec<usize>,
    op: u64,
}

impl ThreadBuf {
    fn flush(&mut self) {
        if !self.spans.is_empty() {
            self.flushed += self.spans.len() as u64;
            COLLECTED
                .lock()
                .expect("span collector poisoned by a panicking thread")
                .append(&mut self.spans);
        }
        self.stack.clear();
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        if let Ok(mut all) = COLLECTED.lock() {
            all.append(&mut self.spans);
        }
    }
}

thread_local! {
    /// Whether spans opened on this thread are recorded.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        flushed: 0,
        spans: Vec::new(),
        stack: Vec::new(),
        op: 0,
    });
}

/// Moves this thread's finished spans to the global list. Threads that
/// exit do this on their own.
pub fn flush_current_thread() {
    BUF.with(|b| b.borrow_mut().flush());
}

/// Takes every collected span, sorted by start time.
pub fn take_collected() -> Vec<Span> {
    let mut all = std::mem::take(
        &mut *COLLECTED
            .lock()
            .expect("span collector poisoned by a panicking thread"),
    );
    all.sort_by_key(|s| (s.start, s.id));
    all
}

/// Starts op `op` on this thread, recording its spans if `sampled`.
pub fn begin_op(op: u64, sampled: bool) {
    ACTIVE.with(|a| a.set(sampled));
    if sampled {
        BUF.with(|b| b.borrow_mut().op = op);
    }
}

/// Whether this thread is recording spans.
pub fn active() -> bool {
    ACTIVE.with(Cell::get)
}

/// Clears a published fingerprint when dropped.
pub struct Published(Option<usize>);

impl Drop for Published {
    fn drop(&mut self) {
        if let Some(slot) = self.0 {
            IN_FLIGHT[slot].store(0, Ordering::SeqCst);
        }
    }
}

/// Announces, while the guard lives, that client `slot`'s query with
/// fingerprint `key` is sampled, so the worker scanning for it records
/// its spans too. Does nothing when this thread is not recording.
pub fn publish(slot: usize, key: u64) -> Published {
    if !active() || slot >= IN_FLIGHT.len() {
        return Published(None);
    }
    IN_FLIGHT[slot].store(key, Ordering::SeqCst);
    Published(Some(slot))
}

/// Restores the worker's recording state when dropped.
pub struct Adopted(bool);

impl Drop for Adopted {
    fn drop(&mut self) {
        ACTIVE.with(|a| a.set(self.0));
    }
}

/// On a service worker: records spans, while the guard lives, if the
/// query with fingerprint `key` was published as sampled.
pub fn adopt(key: u64) -> Adopted {
    let before = active();
    let sampled = IN_FLIGHT.iter().any(|s| s.load(Ordering::SeqCst) == key);
    ACTIVE.with(|a| a.set(sampled));
    Adopted(before)
}

/// An open span; records its end when dropped. Inert when tracing is off.
pub struct Guard {
    index: Option<usize>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            let end = now_ns();
            BUF.with(|b| {
                let mut b = b.borrow_mut();
                b.spans[i].end = end;
                if b.stack.last() == Some(&i) {
                    b.stack.pop();
                }
            });
        }
    }
}

/// Opens a span named `name` under this thread's innermost open span.
pub fn span(name: Name) -> Guard {
    span_with(name, 0, None)
}

/// As [`span`], carrying a query fingerprint and/or a file kind.
pub fn span_with(name: Name, key: u64, file: Option<FileKind>) -> Guard {
    if !active() {
        return Guard { index: None };
    }
    let start = now_ns();
    let index = BUF.with(|b| {
        let mut b = b.borrow_mut();
        let i = b.spans.len();
        let parent = b.stack.last().map_or(0, |&p| b.spans[p].id);
        let op = match b.stack.last() {
            Some(&p) => b.spans[p].op,
            None => b.op,
        };
        let id = (b.thread << 32) | (b.flushed + i as u64 + 1);
        b.spans.push(Span {
            id,
            parent,
            name,
            op,
            key,
            file,
            start,
            end: start,
        });
        b.stack.push(i);
        i
    });
    Guard { index: Some(index) }
}

/// A fingerprint of a query, equal on the client and on the worker that
/// scans for it.
pub fn fingerprint(query: &SetQuery) -> u64 {
    let mut h = DefaultHasher::new();
    query.predicate.notation().hash(&mut h);
    query.elements.hash(&mut h);
    h.finish()
}

/// `PageIo` over the shared `Disk` that records `pagestore.read` and
/// `pagestore.write` spans tagged with the file's kind.
pub struct TracedIo {
    disk: Arc<Disk>,
    /// File kind by `FileId`, resolved from `Disk::file_info` on first
    /// sight; 0 = not yet known.
    kinds: Vec<AtomicU8>,
}

impl TracedIo {
    pub fn new(disk: Arc<Disk>) -> TracedIo {
        TracedIo {
            disk,
            kinds: (0..8192).map(|_| AtomicU8::new(0)).collect(),
        }
    }

    fn kind(&self, id: FileId) -> FileKind {
        let Some(slot) = self.kinds.get(id.raw() as usize) else {
            return FileKind::Other;
        };
        let code = slot.load(Ordering::Relaxed);
        if code != 0 {
            return FileKind::from_code(code);
        }
        let kind = self
            .disk
            .file_info(id)
            .map_or(FileKind::Other, |info| FileKind::of_name(&info.name));
        slot.store(kind.code(), Ordering::Relaxed);
        kind
    }

    fn write_span(&self, id: FileId) -> Guard {
        span_with(Name::PageWrite, 0, Some(self.kind(id)))
    }
}

impl PageIo for TracedIo {
    fn read_page(&self, id: FileId, n: u32) -> setsig_pagestore::Result<Page> {
        let _s = span_with(Name::PageRead, 0, Some(self.kind(id)));
        self.disk.read_page(id, n)
    }
    fn write_page(&self, id: FileId, n: u32, page: &Page) -> setsig_pagestore::Result<()> {
        let _s = self.write_span(id);
        self.disk.write_page(id, n, page)
    }
    fn update_page(
        &self,
        id: FileId,
        n: u32,
        f: &mut dyn FnMut(&mut Page),
    ) -> setsig_pagestore::Result<()> {
        let _s = self.write_span(id);
        self.disk.update_page(id, n, &mut |p| f(p))
    }
    fn append_page(&self, id: FileId, page: &Page) -> setsig_pagestore::Result<u32> {
        let _s = self.write_span(id);
        self.disk.append_page(id, page)
    }
    fn page_count(&self, id: FileId) -> setsig_pagestore::Result<u32> {
        self.disk.page_count(id)
    }
    fn create_file(&self, name: &str) -> FileId {
        self.disk.create_file(name)
    }
    fn extend_to(&self, id: FileId, pages: u32) -> setsig_pagestore::Result<()> {
        let _s = self.write_span(id);
        self.disk.extend_to(id, pages)
    }
    fn snapshot(&self) -> IoSnapshot {
        self.disk.snapshot()
    }
}

/// A facility that records `core.filter` and `core.update` spans around
/// the one it wraps.
pub struct TracedFacility<F>(pub F);

impl<F: SetAccessFacility> SetAccessFacility for TracedFacility<F> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn insert(&mut self, oid: Oid, set: &[ElementKey]) -> Result<()> {
        let _s = span(Name::CoreUpdate);
        self.0.insert(oid, set)
    }
    fn delete(&mut self, oid: Oid, set: &[ElementKey]) -> Result<()> {
        let _s = span(Name::CoreUpdate);
        self.0.delete(oid, set)
    }
    fn candidates_with_stats(&self, query: &SetQuery) -> Result<(CandidateSet, Option<ScanStats>)> {
        let key = fingerprint(query);
        let _a = adopt(key);
        let _s = span_with(Name::CoreFilter, key, None);
        self.0.candidates_with_stats(query)
    }
    fn indexed_count(&self) -> u64 {
        self.0.indexed_count()
    }
    fn storage_pages(&self) -> Result<u64> {
        self.0.storage_pages()
    }
    fn cache_stats(&self) -> Option<CacheStats> {
        self.0.cache_stats()
    }
}

/// A target-set source that records an `oodb.fetch` span per fetch.
pub struct TracedSource<S>(pub S);

impl<S: TargetSetSource> TargetSetSource for TracedSource<S> {
    fn fetch_set(&self, oid: Oid) -> Result<ElementSet> {
        let _s = span(Name::OodbFetch);
        self.0.fetch_set(oid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_kinds_follow_facility_names() {
        assert_eq!(FileKind::of_name("bssf0.s0"), FileKind::Slice);
        assert_eq!(FileKind::of_name("bssf1.s499"), FileKind::Slice);
        assert_eq!(FileKind::of_name("bssf0.oid"), FileKind::Oid);
        assert_eq!(
            FileKind::of_name(crate::instance::STORE_FILE),
            FileKind::Object
        );
        assert_eq!(FileKind::of_name("bssf0.meta"), FileKind::Other);
        assert_eq!(FileKind::of_name("x.s"), FileKind::Other);
    }
}
