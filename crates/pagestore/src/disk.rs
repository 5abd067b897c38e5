//! The simulated disk: named paged files plus access accounting.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::page::Page;
use crate::stats::{FileStats, IoSnapshot};

/// Identifies a file on a [`Disk`]. Handles are never reused, so a stale
/// handle to a deleted file fails cleanly instead of aliasing a new file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub(crate) u32);

impl FileId {
    /// The raw index backing this handle (stable for the disk's lifetime).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Reconstructs a handle from a raw index — for catalogs that persist
    /// file bindings across a [`Disk::save_to`]/[`Disk::load_from`] cycle
    /// (slots are preserved by the image format).
    pub fn from_raw(raw: u32) -> Self {
        FileId(raw)
    }
}

/// Metadata about one file, as returned by [`Disk::file_info`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileInfo {
    /// Handle of the file.
    pub id: FileId,
    /// Name given at creation.
    pub name: String,
    /// Length in pages.
    pub pages: u32,
    /// Cumulative access counters.
    pub stats: FileStats,
}

/// `FileData::last_access` before the file's first access.
const NO_ACCESS: u64 = u64::MAX;

/// `Disk::fail_after` when no fault is armed.
const NO_FAULT: u64 = u64::MAX;

struct FileData {
    name: String,
    pages: Vec<Page>,
    // Read-side counters are bumped under the shared guard, so they are
    // atomic; write-side counters change only under the exclusive guard
    // and stay plain integers. The atomics are statistics that publish no
    // other data, so `Relaxed` suffices; the guard orders them against
    // writers and resets.
    reads: AtomicU64,
    seq_reads: AtomicU64,
    writes: u64,
    seq_writes: u64,
    /// Page number of the most recent access ([`NO_ACCESS`] before the
    /// first), for sequential detection.
    last_access: AtomicU64,
}

impl FileData {
    fn new(name: String, pages: Vec<Page>) -> Self {
        FileData {
            name,
            pages,
            reads: AtomicU64::new(0),
            seq_reads: AtomicU64::new(0),
            writes: 0,
            seq_writes: 0,
            last_access: AtomicU64::new(NO_ACCESS),
        }
    }

    fn stats(&self) -> FileStats {
        FileStats {
            reads: self.reads.load(Relaxed),
            writes: self.writes,
            seq_reads: self.seq_reads.load(Relaxed),
            seq_writes: self.seq_writes,
        }
    }

    fn reset_stats(&mut self) {
        *self.reads.get_mut() = 0;
        *self.seq_reads.get_mut() = 0;
        self.writes = 0;
        self.seq_writes = 0;
        *self.last_access.get_mut() = NO_ACCESS;
    }

    fn note_read(&self, n: u32) {
        self.reads.fetch_add(1, Relaxed);
        if is_sequential(self.last_access.swap(u64::from(n), Relaxed), n) {
            self.seq_reads.fetch_add(1, Relaxed);
        }
    }

    fn note_write(&mut self, n: u32) {
        self.writes += 1;
        let last = self.last_access.get_mut();
        if is_sequential(*last, n) {
            self.seq_writes += 1;
        }
        *last = u64::from(n);
    }
}

/// True when page `n` directly follows the previous access `last`.
fn is_sequential(last: u64, n: u32) -> bool {
    n > 0 && last == u64::from(n) - 1
}

struct DiskInner {
    /// `None` marks a deleted file; slots are never reused.
    files: Vec<Option<FileData>>,
    reads: AtomicU64,
    writes: u64,
}

impl DiskInner {
    fn file(&self, id: FileId) -> Result<&FileData> {
        self.files
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(Error::FileNotFound(id))
    }
}

/// An in-memory simulated disk.
///
/// A `Disk` holds a set of named paged files and counts every page read and
/// write, globally and per file. It is the single shared resource of the
/// reproduction: signature files, bit slices, OID files, object stores and
/// B-tree indexes all allocate their files here, so an experiment can bracket
/// any operation with [`Disk::snapshot`] and read off its exact page-access
/// cost.
///
/// `Disk` is internally synchronized; share it as `Arc<Disk>`. Page reads
/// share the file table; writes and file creation take it exclusively.
pub struct Disk {
    // This is the LEAF lock of the whole system: no method calls out of
    // the crate (or into BufferPool) while holding it, so it can be taken
    // from under any other lock without deadlock risk. Readers run the
    // caller's closure (`with_page`, `PageIo::read_with`) and writers run
    // `update_page`'s closure under the guard, so such a closure must not
    // call back into `PageIo` or this disk: a nested acquisition can
    // deadlock behind a queued writer.
    // LOCK-ORDER: pagestore.disk leaf
    inner: RwLock<DiskInner>,
    /// Fault injection: fails every page access once this many more have
    /// succeeded; [`NO_FAULT`] when disarmed. `Relaxed`: a budget that
    /// publishes no data; each access is one read-modify-write on it.
    fail_after: AtomicU64,
}

impl Disk {
    /// Creates an empty disk.
    pub fn new() -> Self {
        Disk {
            inner: RwLock::new(DiskInner {
                files: Vec::new(),
                reads: AtomicU64::new(0),
                writes: 0,
            }),
            fail_after: AtomicU64::new(NO_FAULT),
        }
    }

    /// Creates a new empty file and returns its handle.
    pub fn create_file(&self, name: &str) -> FileId {
        let mut g = self.inner.write();
        let id = FileId(g.files.len() as u32);
        g.files
            .push(Some(FileData::new(name.to_owned(), Vec::new())));
        id
    }

    /// Deletes a file, freeing its pages. Subsequent access through the
    /// handle yields [`Error::FileNotFound`].
    pub fn delete_file(&self, id: FileId) -> Result<()> {
        let mut g = self.inner.write();
        let slot = g
            .files
            .get_mut(id.0 as usize)
            .ok_or(Error::FileNotFound(id))?;
        if slot.is_none() {
            return Err(Error::FileNotFound(id));
        }
        *slot = None;
        Ok(())
    }

    /// Spends one access of an armed fault budget, failing once it is
    /// used up. One atomic read-modify-write, so exactly the budgeted
    /// number of accesses succeed however many threads race for them.
    fn charge_fault(&self) -> Result<()> {
        let left = self
            .fail_after
            .fetch_update(Relaxed, Relaxed, |left| match left {
                NO_FAULT | 0 => None,
                left => Some(left - 1),
            });
        match left {
            Err(0) => Err(Error::Io("injected fault".into())),
            _ => Ok(()),
        }
    }

    /// Runs `f` on file `id` under the shared guard, after charging the
    /// fault budget.
    fn read_file<R>(
        &self,
        id: FileId,
        f: impl FnOnce(&FileData, &AtomicU64) -> Result<R>,
    ) -> Result<R> {
        self.charge_fault()?;
        let g = self.inner.read();
        f(g.file(id)?, &g.reads)
    }

    /// Runs `f` on file `id` under the exclusive guard, after charging the
    /// fault budget. `f` also gets the disk-wide write counter.
    fn write_file<R>(
        &self,
        id: FileId,
        f: impl FnOnce(&mut FileData, &mut u64) -> Result<R>,
    ) -> Result<R> {
        self.charge_fault()?;
        let mut g = self.inner.write();
        let inner = &mut *g;
        let data = inner
            .files
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(Error::FileNotFound(id))?;
        f(data, &mut inner.writes)
    }

    /// Fault injection for failure testing: after `ops` more page
    /// accesses, every subsequent access fails with an I/O error until
    /// [`Disk::clear_fault`] is called. Exact under concurrency: `ops`
    /// accesses succeed in total across all threads. File listing and
    /// counter snapshots are unaffected.
    pub fn inject_fault_after(&self, ops: u64) {
        self.fail_after.store(ops.min(NO_FAULT - 1), Relaxed);
    }

    /// Removes an injected fault.
    pub fn clear_fault(&self) {
        self.fail_after.store(NO_FAULT, Relaxed);
    }

    /// Reads page `n` of `id`, charging one page read.
    pub fn read_page(&self, id: FileId, n: u32) -> Result<Page> {
        self.with_page(id, n, |p| p.clone())
    }

    /// Runs `f` against page `n` of `id` without copying it out, charging
    /// one page read. `f` runs under the shared guard: it must not call
    /// back into this disk.
    pub fn with_page<R>(&self, id: FileId, n: u32, f: impl FnOnce(&Page) -> R) -> Result<R> {
        self.read_file(id, |data, reads| {
            let len = data.pages.len() as u32;
            let page = data.pages.get(n as usize).ok_or(Error::PageOutOfBounds {
                file: id,
                page: n,
                len,
            })?;
            data.note_read(n);
            reads.fetch_add(1, Relaxed);
            Ok(f(page))
        })
    }

    /// Overwrites page `n` of `id`, charging one page write.
    pub fn write_page(&self, id: FileId, n: u32, page: &Page) -> Result<()> {
        self.update_page(id, n, |p| *p = page.clone())
    }

    /// Mutates page `n` of `id` in place, charging one page write.
    ///
    /// The paper's read-modify-write sequences (e.g. setting a BSSF slice
    /// bit) are expressed as `with_page` + `update_page`, charging one read
    /// and one write, or as a single `update_page` when the old contents are
    /// irrelevant.
    pub fn update_page(&self, id: FileId, n: u32, f: impl FnOnce(&mut Page)) -> Result<()> {
        self.write_file(id, |data, writes| {
            let len = data.pages.len() as u32;
            let page = data
                .pages
                .get_mut(n as usize)
                .ok_or(Error::PageOutOfBounds {
                    file: id,
                    page: n,
                    len,
                })?;
            f(page);
            data.note_write(n);
            *writes += 1;
            Ok(())
        })
    }

    /// Appends a page to `id`, charging one page write; returns the new
    /// page's number.
    pub fn append_page(&self, id: FileId, page: &Page) -> Result<u32> {
        self.write_file(id, |data, writes| {
            let n = data.pages.len() as u32;
            data.pages.push(page.clone());
            data.note_write(n);
            *writes += 1;
            Ok(n)
        })
    }

    /// Extends `id` with zeroed pages until it is at least `pages` long,
    /// charging one write per page actually added.
    pub fn extend_to(&self, id: FileId, pages: u32) -> Result<()> {
        self.write_file(id, |data, writes| {
            while (data.pages.len() as u32) < pages {
                data.pages.push(Page::zeroed());
                data.writes += 1;
                *writes += 1;
            }
            Ok(())
        })
    }

    /// Length of `id` in pages. Free: catalog metadata, not a page access.
    pub fn page_count(&self, id: FileId) -> Result<u32> {
        self.read_file(id, |data, _| Ok(data.pages.len() as u32))
    }

    /// Disk-wide cumulative counters.
    pub fn snapshot(&self) -> IoSnapshot {
        let g = self.inner.read();
        IoSnapshot {
            reads: g.reads.load(Relaxed),
            writes: g.writes,
        }
    }

    /// Cumulative counters for one file.
    pub fn file_stats(&self, id: FileId) -> Result<FileStats> {
        self.read_file(id, |data, _| Ok(data.stats()))
    }

    /// Metadata for one file.
    pub fn file_info(&self, id: FileId) -> Result<FileInfo> {
        self.read_file(id, |data, _| {
            Ok(FileInfo {
                id,
                name: data.name.clone(),
                pages: data.pages.len() as u32,
                stats: data.stats(),
            })
        })
    }

    /// Metadata for every live file, in creation order.
    pub fn list_files(&self) -> Vec<FileInfo> {
        let g = self.inner.read();
        g.files
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                slot.as_ref().map(|data| FileInfo {
                    id: FileId(i as u32),
                    name: data.name.clone(),
                    pages: data.pages.len() as u32,
                    stats: data.stats(),
                })
            })
            .collect()
    }

    /// Resets all counters (global and per-file) to zero. File contents are
    /// untouched. Used to separate build cost from query cost in experiments.
    pub fn reset_stats(&self) {
        let mut g = self.inner.write();
        *g.reads.get_mut() = 0;
        g.writes = 0;
        for slot in g.files.iter_mut().flatten() {
            slot.reset_stats();
        }
    }

    /// Total pages currently allocated across all live files — the
    /// measured counterpart of the paper's storage cost `SC`.
    pub fn total_pages(&self) -> u64 {
        let g = self.inner.read();
        g.files.iter().flatten().map(|d| d.pages.len() as u64).sum()
    }

    pub(crate) fn dump_files(&self) -> Vec<(u32, String, Vec<Page>)> {
        let g = self.inner.read();
        g.files
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                slot.as_ref()
                    .map(|d| (i as u32, d.name.clone(), d.pages.clone()))
            })
            .collect()
    }

    pub(crate) fn restore_files(&self, files: Vec<(u32, String, Vec<Page>)>) {
        let mut g = self.inner.write();
        g.files.clear();
        *g.reads.get_mut() = 0;
        g.writes = 0;
        for (idx, name, pages) in files {
            while g.files.len() < idx as usize {
                g.files.push(None);
            }
            g.files.push(Some(FileData::new(name, pages)));
        }
    }
}

impl Default for Disk {
    fn default() -> Self {
        Disk::new()
    }
}

impl std::fmt::Debug for Disk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.read();
        let live = g.files.iter().flatten().count();
        write!(
            f,
            "Disk {{ files: {live}, reads: {}, writes: {} }}",
            g.reads.load(Relaxed),
            g.writes
        )
    }
}

/// Object-safe page I/O, implemented by [`Disk`] (uncached, the paper's
/// model) and [`BufferPool`](crate::BufferPool) (cached, for ablations).
///
/// Access facilities hold an `Arc<dyn PageIo>` so experiments can swap the
/// caching policy without touching the data structures.
pub trait PageIo: Send + Sync {
    /// Reads page `n` of `id`.
    fn read_page(&self, id: FileId, n: u32) -> Result<Page>;
    /// Runs `f` on page `n` of `id`, charged exactly like
    /// [`read_page`](PageIo::read_page). The default reads a copy;
    /// [`Disk`] lends its stored page instead. `f` must not call back into
    /// this `PageIo`.
    // COST: 1 pages
    fn read_with(&self, id: FileId, n: u32, f: &mut dyn FnMut(&Page)) -> Result<()> {
        f(&self.read_page(id, n)?);
        Ok(())
    }
    /// Overwrites page `n` of `id`.
    fn write_page(&self, id: FileId, n: u32, page: &Page) -> Result<()>;
    /// Mutates page `n` of `id` in place.
    ///
    /// On a raw [`Disk`] this is a *blind write*: one page write, no read —
    /// the cost the paper assigns to appending a record into a known tail
    /// page. Cached backends may charge a read on a cache miss.
    fn update_page(&self, id: FileId, n: u32, f: &mut dyn FnMut(&mut Page)) -> Result<()>;
    /// Appends a page to `id`, returning its page number.
    fn append_page(&self, id: FileId, page: &Page) -> Result<u32>;
    /// Length of `id` in pages.
    fn page_count(&self, id: FileId) -> Result<u32>;
    /// Creates a new file.
    fn create_file(&self, name: &str) -> FileId;
    /// Extends `id` with zeroed pages to at least `pages` pages.
    fn extend_to(&self, id: FileId, pages: u32) -> Result<()>;
    /// Disk-wide cumulative counters (post-cache where applicable).
    fn snapshot(&self) -> IoSnapshot;
}

impl PageIo for Disk {
    // COST: 1 pages
    fn read_page(&self, id: FileId, n: u32) -> Result<Page> {
        Disk::read_page(self, id, n)
    }
    // COST: 1 pages
    fn read_with(&self, id: FileId, n: u32, f: &mut dyn FnMut(&Page)) -> Result<()> {
        Disk::with_page(self, id, n, f)
    }
    fn write_page(&self, id: FileId, n: u32, page: &Page) -> Result<()> {
        Disk::write_page(self, id, n, page)
    }
    fn update_page(&self, id: FileId, n: u32, f: &mut dyn FnMut(&mut Page)) -> Result<()> {
        Disk::update_page(self, id, n, |p| f(p))
    }
    fn append_page(&self, id: FileId, page: &Page) -> Result<u32> {
        Disk::append_page(self, id, page)
    }
    fn page_count(&self, id: FileId) -> Result<u32> {
        Disk::page_count(self, id)
    }
    fn create_file(&self, name: &str) -> FileId {
        Disk::create_file(self, name)
    }
    fn extend_to(&self, id: FileId, pages: u32) -> Result<()> {
        Disk::extend_to(self, id, pages)
    }
    fn snapshot(&self) -> IoSnapshot {
        Disk::snapshot(self)
    }
}

impl PageIo for Arc<Disk> {
    // COST: 1 pages
    fn read_page(&self, id: FileId, n: u32) -> Result<Page> {
        Disk::read_page(self, id, n)
    }
    // COST: 1 pages
    fn read_with(&self, id: FileId, n: u32, f: &mut dyn FnMut(&Page)) -> Result<()> {
        Disk::with_page(self, id, n, f)
    }
    fn write_page(&self, id: FileId, n: u32, page: &Page) -> Result<()> {
        Disk::write_page(self, id, n, page)
    }
    fn update_page(&self, id: FileId, n: u32, f: &mut dyn FnMut(&mut Page)) -> Result<()> {
        Disk::update_page(self, id, n, |p| f(p))
    }
    fn append_page(&self, id: FileId, page: &Page) -> Result<u32> {
        Disk::append_page(self, id, page)
    }
    fn page_count(&self, id: FileId) -> Result<u32> {
        Disk::page_count(self, id)
    }
    fn create_file(&self, name: &str) -> FileId {
        Disk::create_file(self, name)
    }
    fn extend_to(&self, id: FileId, pages: u32) -> Result<()> {
        Disk::extend_to(self, id, pages)
    }
    fn snapshot(&self) -> IoSnapshot {
        Disk::snapshot(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn create_and_roundtrip() {
        let disk = Disk::new();
        let f = disk.create_file("t");
        let mut p = Page::zeroed();
        p.write_u32(0, 42);
        let n = disk.append_page(f, &p).unwrap();
        assert_eq!(n, 0);
        assert_eq!(disk.read_page(f, 0).unwrap().read_u32(0), 42);
        assert_eq!(disk.page_count(f).unwrap(), 1);
    }

    #[test]
    fn counters_track_every_access() {
        let disk = Disk::new();
        let f = disk.create_file("t");
        disk.append_page(f, &Page::zeroed()).unwrap(); // 1 write
        disk.append_page(f, &Page::zeroed()).unwrap(); // 1 write
        let _ = disk.read_page(f, 0); // 1 read
        let _ = disk.read_page(f, 1); // 1 read
        disk.update_page(f, 0, |p| p.write_u8(0, 1)).unwrap(); // 1 write
        let s = disk.snapshot();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 3);
        let fs = disk.file_stats(f).unwrap();
        assert_eq!(fs.reads, 2);
        assert_eq!(fs.writes, 3);
    }

    #[test]
    fn sequential_detection() {
        let disk = Disk::new();
        let f = disk.create_file("t");
        for _ in 0..4 {
            disk.append_page(f, &Page::zeroed()).unwrap();
        }
        // Appends 1..3 are sequential continuations of 0..2.
        assert_eq!(disk.file_stats(f).unwrap().seq_writes, 3);
        let _ = disk.read_page(f, 0);
        let _ = disk.read_page(f, 1); // seq
        let _ = disk.read_page(f, 2); // seq
        let _ = disk.read_page(f, 0); // random
        let _ = disk.read_page(f, 3); // random
        assert_eq!(disk.file_stats(f).unwrap().seq_reads, 2);
    }

    #[test]
    fn out_of_bounds_read() {
        let disk = Disk::new();
        let f = disk.create_file("t");
        assert_eq!(
            disk.read_page(f, 0),
            Err(Error::PageOutOfBounds {
                file: f,
                page: 0,
                len: 0
            })
        );
    }

    #[test]
    fn deleted_file_rejects_access() {
        let disk = Disk::new();
        let f = disk.create_file("t");
        disk.append_page(f, &Page::zeroed()).unwrap();
        disk.delete_file(f).unwrap();
        assert_eq!(disk.read_page(f, 0), Err(Error::FileNotFound(f)));
        assert_eq!(disk.delete_file(f), Err(Error::FileNotFound(f)));
    }

    #[test]
    fn file_ids_are_not_reused() {
        let disk = Disk::new();
        let a = disk.create_file("a");
        disk.delete_file(a).unwrap();
        let b = disk.create_file("b");
        assert_ne!(a, b);
        assert!(disk.read_page(a, 0).is_err());
        assert_eq!(disk.file_info(b).unwrap().name, "b");
    }

    #[test]
    fn extend_to_charges_per_added_page() {
        let disk = Disk::new();
        let f = disk.create_file("t");
        disk.extend_to(f, 5).unwrap();
        assert_eq!(disk.page_count(f).unwrap(), 5);
        assert_eq!(disk.snapshot().writes, 5);
        // Already long enough: no-op, no charge.
        disk.extend_to(f, 3).unwrap();
        assert_eq!(disk.snapshot().writes, 5);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let disk = Disk::new();
        let f = disk.create_file("t");
        let mut p = Page::zeroed();
        p.write_u8(0, 7);
        disk.append_page(f, &p).unwrap();
        disk.reset_stats();
        assert_eq!(disk.snapshot(), IoSnapshot::default());
        assert_eq!(disk.read_page(f, 0).unwrap().read_u8(0), 7);
    }

    #[test]
    fn total_pages_sums_live_files() {
        let disk = Disk::new();
        let a = disk.create_file("a");
        let b = disk.create_file("b");
        disk.extend_to(a, 3).unwrap();
        disk.extend_to(b, 4).unwrap();
        assert_eq!(disk.total_pages(), 7);
        disk.delete_file(a).unwrap();
        assert_eq!(disk.total_pages(), 4);
    }

    #[test]
    fn list_files_in_creation_order() {
        let disk = Disk::new();
        let _a = disk.create_file("first");
        let _b = disk.create_file("second");
        let names: Vec<_> = disk.list_files().into_iter().map(|i| i.name).collect();
        assert_eq!(names, vec!["first", "second"]);
    }

    #[test]
    fn with_page_avoids_copy_and_charges_once() {
        let disk = Disk::new();
        let f = disk.create_file("t");
        let mut p = Page::zeroed();
        p.write_u64(8, 99);
        disk.append_page(f, &p).unwrap();
        let before = disk.snapshot();
        let v = disk.with_page(f, 0, |p| p.read_u64(8)).unwrap();
        assert_eq!(v, 99);
        assert_eq!(disk.snapshot().since(before).reads, 1);
    }

    #[test]
    fn shared_across_threads() {
        let disk = Arc::new(Disk::new());
        let f = disk.create_file("t");
        disk.extend_to(f, 1).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let d = Arc::clone(&disk);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let _ = d.read_page(f, 0).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(disk.snapshot().reads, 400);
    }

    /// Iterations per thread in the concurrency tests (kept small under
    /// Miri, where every step is interpreted).
    const ITERS: u64 = if cfg!(miri) { 20 } else { 2_000 };

    #[test]
    fn concurrent_readers_and_writer_count_exactly() {
        let disk = Disk::new();
        let a = disk.create_file("a");
        let b = disk.create_file("b");
        disk.extend_to(a, 4).unwrap();
        disk.extend_to(b, 4).unwrap();
        let before = disk.snapshot();
        // All five threads start together, so reads overlap the writes.
        let start = Barrier::new(5);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (disk, start) = (&disk, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..ITERS {
                        let id = if (i + t) % 2 == 0 { a } else { b };
                        disk.with_page(id, (i % 4) as u32, |p| p.read_u8(0))
                            .unwrap();
                    }
                });
            }
            start.wait();
            for i in 0..ITERS {
                disk.update_page(a, (i % 4) as u32, |p| p.write_u8(0, i as u8))
                    .unwrap();
            }
        });
        let delta = disk.snapshot().since(before);
        assert_eq!((delta.reads, delta.writes), (4 * ITERS, ITERS));
        // Each reader alternates files, so each file gets half its reads.
        let (fa, fb) = (disk.file_stats(a).unwrap(), disk.file_stats(b).unwrap());
        assert_eq!((fa.reads, fb.reads), (2 * ITERS, 2 * ITERS));
        assert_eq!((fa.writes, fb.writes), (4 + ITERS, 4));
    }

    #[test]
    fn readers_never_see_a_torn_page() {
        let disk = Disk::new();
        let f = disk.create_file("t");
        disk.extend_to(f, 1).unwrap();
        let start = Barrier::new(5);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (disk, start) = (&disk, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..ITERS {
                        let uniform = disk
                            .with_page(f, 0, |p| {
                                let bytes = p.as_bytes();
                                bytes.iter().all(|&x| x == bytes[0])
                            })
                            .unwrap();
                        assert!(uniform, "reader saw a half-written page");
                    }
                });
            }
            start.wait();
            // Each write replaces the whole page with one repeated byte.
            for i in 0..ITERS {
                let mut page = Page::zeroed();
                page.fill(0, crate::PAGE_SIZE, i as u8);
                disk.write_page(f, 0, &page).unwrap();
            }
        });
    }

    #[test]
    fn injected_fault_budget_is_exact_across_threads() {
        let disk = Disk::new();
        let f = disk.create_file("t");
        disk.extend_to(f, 1).unwrap();
        let k = ITERS;
        disk.inject_fault_after(k);
        let start = Barrier::new(4);
        let ok: u64 = std::thread::scope(|s| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let (disk, start) = (&disk, &start);
                    s.spawn(move || {
                        start.wait();
                        (0..ITERS)
                            .filter(|_| disk.with_page(f, 0, |_| ()).is_ok())
                            .count() as u64
                    })
                })
                .collect();
            readers.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(ok, k, "exactly k accesses succeed in total");
        assert_eq!(disk.snapshot().reads, k);
        assert!(disk.read_page(f, 0).is_err());
        assert!(disk.update_page(f, 0, |_| ()).is_err());
        disk.clear_fault();
        assert!(disk.read_page(f, 0).is_ok());
    }
}
