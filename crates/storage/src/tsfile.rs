//! TsFile-lite: a minimal on-disk container for encoded series pages,
//! modelled after the IoT-native TsFile format (paper §VI / Zhao et al.):
//! magic, series directory, length-prefixed pages.
//!
//! ```text
//! magic "ETSQP1"
//! u32 n_series
//! per series:
//!   u16 name_len, name bytes (utf-8)
//!   u32 n_pages
//!   per page: u32 page_len, page image (Page::to_bytes)
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::page::Page;
use crate::store::SeriesStore;
use crate::{Error, Result};

const MAGIC: &[u8; 6] = b"ETSQP1";

/// Writes every flushed page of `store` into a TsFile at `path`.
pub fn write(store: &SeriesStore, path: &Path) -> Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    out.write_all(MAGIC)?;
    let names = store.series_names();
    out.write_all(&(names.len() as u32).to_be_bytes())?;
    for name in &names {
        let pages = store.peek_pages(name)?;
        out.write_all(&(name.len() as u16).to_be_bytes())?;
        out.write_all(name.as_bytes())?;
        out.write_all(&(pages.len() as u32).to_be_bytes())?;
        for page in &pages {
            let image = page.to_bytes();
            out.write_all(&(image.len() as u32).to_be_bytes())?;
            out.write_all(&image)?;
        }
    }
    out.flush()?;
    Ok(())
}

/// Reads a TsFile back into a fresh [`SeriesStore`], one page image in
/// memory at a time.
///
/// The reader treats the file as hostile input: every length field is
/// validated against the real file size *before* any allocation sized by
/// it, so a flipped length byte yields [`Error::Corrupt`] (with the byte
/// offset of the bad field) instead of an OOM, and truncation surfaces as
/// a typed error rather than a bare I/O failure.
pub fn read(path: &Path) -> Result<SeriesStore> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut input = Tracked {
        inner: BufReader::new(file),
        offset: 0,
    };
    let mut magic = [0u8; 6];
    input.read_exact(&mut magic, "truncated magic")?;
    if &magic != MAGIC {
        return Err(Error::corrupt(0, "bad TsFile magic"));
    }
    let store = SeriesStore::default();
    let n_series = input.read_u32("truncated series count")?;
    // Each series record needs at least a name length and a page count.
    if n_series as u64 > (file_len - input.offset) / 6 {
        return Err(Error::corrupt(6, "series count exceeds file size"));
    }
    for _ in 0..n_series {
        let name_len = input.read_u16("truncated name length")? as usize;
        let mut name_bytes = vec![0u8; name_len];
        let name_at = input.offset;
        input.read_exact(&mut name_bytes, "truncated series name")?;
        let name = String::from_utf8(name_bytes)
            .map_err(|_| Error::corrupt(name_at, "series name not utf-8"))?;
        let n_pages_at = input.offset;
        let n_pages = input.read_u32("truncated page count")?;
        // Each page record needs at least its length prefix.
        if n_pages as u64 > (file_len.saturating_sub(input.offset)) / 4 {
            return Err(Error::corrupt(n_pages_at, "page count exceeds file size"));
        }
        let mut pages = Vec::with_capacity((n_pages as usize).min(4096));
        for _ in 0..n_pages {
            let len_at = input.offset;
            let page_len = input.read_u32("truncated page length")? as u64;
            if page_len > file_len.saturating_sub(input.offset) {
                return Err(Error::corrupt(len_at, "page image exceeds file size"));
            }
            let page_at = input.offset;
            let mut image = vec![0u8; page_len as usize];
            input.read_exact(&mut image, "truncated page image")?;
            let (page, consumed) = Page::from_bytes(&image).map_err(|e| match e {
                // Rebase in-image offsets onto the file.
                Error::Corrupt { offset, reason } => Error::Corrupt {
                    offset: page_at + offset,
                    reason,
                },
                other => other,
            })?;
            if consumed as u64 != page_len {
                return Err(Error::corrupt(len_at, "page image length mismatch"));
            }
            pages.push(page);
        }
        store.insert_pages(&name, pages);
    }
    Ok(store)
}

/// A reader that tracks its byte offset and converts short reads into
/// [`Error::Corrupt`] carrying the offset of the failed field.
struct Tracked<R> {
    inner: R,
    offset: u64,
}

impl<R: Read> Tracked<R> {
    fn read_exact(&mut self, buf: &mut [u8], what: &'static str) -> Result<()> {
        let at = self.offset;
        match self.inner.read_exact(buf) {
            Ok(()) => {
                self.offset += buf.len() as u64;
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                Err(Error::corrupt(at, what))
            }
            Err(e) => Err(Error::Io(e)),
        }
    }

    fn read_u32(&mut self, what: &'static str) -> Result<u32> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b, what)?;
        Ok(u32::from_be_bytes(b))
    }

    fn read_u16(&mut self, what: &'static str) -> Result<u16> {
        let mut b = [0u8; 2];
        self.read_exact(&mut b, what)?;
        Ok(u16::from_be_bytes(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsqp_encoding::Encoding;

    #[test]
    fn file_roundtrip() {
        let store = SeriesStore::new(64);
        for (name, slope) in [("temp", 3i64), ("velocity", -2)] {
            store.create_series(name, Encoding::Ts2Diff, Encoding::Ts2Diff);
            let ts: Vec<i64> = (0..200).map(|i| i * 10).collect();
            let vals: Vec<i64> = (0..200).map(|i| 100 + i * slope).collect();
            store.append_all(name, &ts, &vals).unwrap();
            store.flush(name).unwrap();
        }
        let dir = std::env::temp_dir().join("etsqp_tsfile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.etsqp");
        write(&store, &path).unwrap();

        let back = read(&path).unwrap();
        assert_eq!(
            back.series_names(),
            vec!["temp".to_string(), "velocity".to_string()]
        );
        for name in ["temp", "velocity"] {
            assert_eq!(back.point_count(name).unwrap(), 200);
            let orig = store.peek_pages(name).unwrap();
            let got = back.peek_pages(name).unwrap();
            assert_eq!(orig.len(), got.len());
            for (a, b) in orig.iter().zip(&got) {
                assert_eq!(a.header, b.header);
                assert_eq!(a.ts_bytes, b.ts_bytes);
                assert_eq!(a.val_bytes, b.val_bytes);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let dir = std::env::temp_dir().join("etsqp_tsfile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad_magic.etsqp");
        std::fs::write(&path, b"NOTFIL\x00\x00\x00\x00").unwrap();
        assert!(matches!(read(&path), Err(Error::Corrupt { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_rejected() {
        let store = SeriesStore::new(64);
        store.create_series("s", Encoding::Ts2Diff, Encoding::Ts2Diff);
        let ts: Vec<i64> = (0..100).collect();
        store.append_all("s", &ts, &ts).unwrap();
        store.flush("s").unwrap();
        let dir = std::env::temp_dir().join("etsqp_tsfile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.etsqp");
        write(&store, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(read(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
