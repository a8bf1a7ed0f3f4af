//! The store's I/O seen from outside: a `Vfs` that forwards to `StdVfs`
//! and counts what passes through it.
//!
//! Counting is always on and reads no clock. When the current task is
//! traced, each write, append, fsync and rename is also a `store.*` span.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use isis_store::{StdVfs, Vfs};

use crate::trace;

/// Byte and call counts at one moment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Io {
    /// Bytes handed to `write` (snapshots, whole files).
    pub write_bytes: u64,
    /// Bytes handed to `append` (WAL frames).
    pub append_bytes: u64,
    /// `sync_file` and `sync_dir` calls.
    pub fsyncs: u64,
}

impl Io {
    pub fn bytes(&self) -> u64 {
        self.write_bytes + self.append_bytes
    }

    pub fn since(&self, earlier: &Io) -> Io {
        Io {
            write_bytes: self.write_bytes - earlier.write_bytes,
            append_bytes: self.append_bytes - earlier.append_bytes,
            fsyncs: self.fsyncs - earlier.fsyncs,
        }
    }
}

impl std::ops::AddAssign for Io {
    fn add_assign(&mut self, other: Io) {
        self.write_bytes += other.write_bytes;
        self.append_bytes += other.append_bytes;
        self.fsyncs += other.fsyncs;
    }
}

/// `StdVfs` plus counters. The counters are statistics that publish no
/// other data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct MeteredVfs {
    inner: StdVfs,
    write_bytes: AtomicU64,
    append_bytes: AtomicU64,
    fsyncs: AtomicU64,
}

impl MeteredVfs {
    pub fn io(&self) -> Io {
        Io {
            write_bytes: self.write_bytes.load(Ordering::Relaxed),
            append_bytes: self.append_bytes.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
        }
    }
}

impl Vfs for MeteredVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.write_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        trace::span("store.write", || self.inner.write(path, bytes))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.append_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        trace::span("store.append", || self.inner.append(path, bytes))
    }

    fn truncate(&self, path: &Path) -> io::Result<()> {
        self.inner.truncate(path)
    }

    fn truncate_to(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate_to(path, len)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        trace::span("store.sync_file", || self.inner.sync_file(path))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        trace::span("store.sync_dir", || self.inner.sync_dir(dir))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        trace::span("store.rename", || self.inner.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }
}
