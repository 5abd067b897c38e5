//! Saving and loading whole disk images.
//!
//! Examples build a database once and reload it on later runs. The format is
//! a simple length-prefixed binary layout:
//!
//! ```text
//! magic  "SSIMG1\n\0"              8 bytes
//! nfiles u32
//! per file:
//!   slot    u32     (FileId index; gaps mark deleted files)
//!   namelen u32, name bytes
//!   npages  u32, npages * PAGE_SIZE bytes
//! ```

use std::io::{Read, Write};
use std::path::Path;

use crate::disk::Disk;
use crate::error::{Error, Result};
use crate::page::{Page, PAGE_SIZE};

const MAGIC: &[u8; 8] = b"SSIMG1\n\0";

impl Disk {
    /// Serializes the disk (file names and page contents; counters are not
    /// persisted) to `path`.
    pub fn save_to(&self, path: &Path) -> Result<()> {
        let files = self.dump_files();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(MAGIC)?;
        out.write_all(&(files.len() as u32).to_le_bytes())?;
        for (slot, name, pages) in files {
            out.write_all(&slot.to_le_bytes())?;
            out.write_all(&(name.len() as u32).to_le_bytes())?;
            out.write_all(name.as_bytes())?;
            out.write_all(&(pages.len() as u32).to_le_bytes())?;
            for page in &pages {
                out.write_all(page.as_bytes())?;
            }
        }
        out.flush()?;
        Ok(())
    }

    /// Loads a disk image previously written by [`Disk::save_to`]. All
    /// counters start from zero.
    ///
    /// Every count in the image is checked against the bytes left in the
    /// file before anything is allocated for it, so a corrupt or hostile
    /// header yields [`Error::CorruptImage`] rather than a huge allocation.
    pub fn load_from(path: &Path) -> Result<Disk> {
        let file = std::fs::File::open(path)?;
        let left = file.metadata()?.len();
        let mut input = ImageReader {
            input: std::io::BufReader::new(file),
            left,
        };
        let mut magic = [0u8; 8];
        input.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(Error::CorruptImage("bad magic".into()));
        }
        // A file entry is at least its slot, name length and page count.
        let nfiles = input.count(12, "file")?;
        let mut files = Vec::with_capacity(nfiles);
        for _ in 0..nfiles {
            let slot = input.u32()?;
            let namelen = input.count(1, "file name byte")?;
            if namelen > 1 << 20 {
                return Err(Error::CorruptImage("file name too long".into()));
            }
            let mut name = vec![0u8; namelen];
            input.read_exact(&mut name)?;
            let name = String::from_utf8(name)
                .map_err(|_| Error::CorruptImage("file name not utf-8".into()))?;
            let npages = input.count(PAGE_SIZE as u64, "page")?;
            let mut pages = Vec::with_capacity(npages);
            for _ in 0..npages {
                let mut buf = [0u8; PAGE_SIZE];
                input.read_exact(&mut buf)?;
                pages.push(Page::from_bytes(buf));
            }
            files.push((slot, name, pages));
        }
        // Slots must be strictly increasing for restore_files to rebuild the
        // id space faithfully.
        for w in files.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(Error::CorruptImage("file slots out of order".into()));
            }
        }
        let disk = Disk::new();
        disk.restore_files(files);
        Ok(disk)
    }
}

/// An image file being decoded, with the number of bytes not yet read.
struct ImageReader {
    input: std::io::BufReader<std::fs::File>,
    left: u64,
}

impl ImageReader {
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        self.input.read_exact(buf)?;
        self.left = self.left.saturating_sub(buf.len() as u64);
        Ok(())
    }

    fn u32(&mut self) -> Result<u32> {
        let mut buf = [0u8; 4];
        self.read_exact(&mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    /// Reads a `u32` count of `what` items of at least `item_bytes` bytes
    /// each, rejecting a count the rest of the file cannot hold.
    fn count(&mut self, item_bytes: u64, what: &str) -> Result<usize> {
        let n = self.u32()?;
        if u64::from(n) * item_bytes > self.left {
            return Err(Error::CorruptImage(format!(
                "{what} count {n} exceeds the {} bytes left in the image",
                self.left
            )));
        }
        Ok(n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_files_and_contents() {
        let dir = std::env::temp_dir().join(format!("setsig-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("image.bin");

        let disk = Disk::new();
        let a = disk.create_file("alpha");
        let b = disk.create_file("beta");
        let mut p = Page::zeroed();
        p.write_u64(0, 11);
        disk.append_page(a, &p).unwrap();
        p.write_u64(0, 22);
        disk.append_page(b, &p).unwrap();
        p.write_u64(0, 33);
        disk.append_page(b, &p).unwrap();
        // A deleted file leaves a slot gap that must survive the roundtrip.
        let c = disk.create_file("gamma");
        disk.delete_file(c).unwrap();
        let d = disk.create_file("delta");
        disk.append_page(d, &Page::zeroed()).unwrap();

        disk.save_to(&path).unwrap();
        let loaded = Disk::load_from(&path).unwrap();

        assert_eq!(loaded.read_page(a, 0).unwrap().read_u64(0), 11);
        assert_eq!(loaded.read_page(b, 1).unwrap().read_u64(0), 33);
        assert!(loaded.read_page(c, 0).is_err());
        assert_eq!(loaded.page_count(d).unwrap(), 1);
        let names: Vec<_> = loaded.list_files().into_iter().map(|i| i.name).collect();
        assert_eq!(names, vec!["alpha", "beta", "delta"]);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let dir = std::env::temp_dir().join(format!("setsig-persist-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.bin");
        std::fs::write(&path, b"NOTANIMAGE").unwrap();
        assert!(matches!(
            Disk::load_from(&path),
            Err(Error::CorruptImage(_)) | Err(Error::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_image_is_rejected() {
        let dir = std::env::temp_dir().join(format!("setsig-persist-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trunc.bin");

        let disk = Disk::new();
        let f = disk.create_file("t");
        disk.append_page(f, &Page::zeroed()).unwrap();
        disk.save_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(Disk::load_from(&path).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes `bytes` as an image file and loads it.
    fn load_bytes(tag: &str, bytes: &[u8]) -> Result<Disk> {
        let dir = std::env::temp_dir().join(format!("setsig-persist-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hostile.bin");
        std::fs::write(&path, bytes).unwrap();
        let loaded = Disk::load_from(&path);
        std::fs::remove_dir_all(&dir).ok();
        loaded
    }

    #[test]
    fn huge_file_count_is_corrupt_not_an_abort() {
        let mut img = MAGIC.to_vec();
        img.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            load_bytes("nfiles", &img),
            Err(Error::CorruptImage(msg)) if msg.contains("file count")
        ));
    }

    #[test]
    fn huge_page_count_is_corrupt_not_an_abort() {
        // 25 bytes: magic, one file in slot 0 named "x", npages = u32::MAX.
        let mut img = MAGIC.to_vec();
        img.extend_from_slice(&1u32.to_le_bytes());
        img.extend_from_slice(&0u32.to_le_bytes());
        img.extend_from_slice(&1u32.to_le_bytes());
        img.push(b'x');
        img.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(img.len(), 25);
        assert!(matches!(
            load_bytes("npages", &img),
            Err(Error::CorruptImage(msg)) if msg.contains("page count")
        ));
    }
}
