//! Durable storage environment: the file-system layer under the LSM engine.
//!
//! Every byte the engine persists — WAL blocks, store files, region
//! manifests — goes through a [`StorageEnv`], which owns the cluster's data
//! directory, routes each write through the fault injector's file-layer
//! rules (torn writes, short writes, crash-at-nth-write), and charges the
//! physical bytes to the cluster metrics so write amplification is
//! measurable.
//!
//! The module also hosts what the WAL, store files and manifests share
//! beneath their cells, which are [cell blocks](crate::cellblock): a
//! table-driven CRC-32 (IEEE polynomial, the same castagnoli-free flavor
//! zlib uses) and the bounds-checked [`Reader`] every parser reads through.

use crate::error::{KvError, Result};
use crate::fault::{FaultInjector, FileOp};
use crate::metrics::ClusterMetrics;
use bytes::Bytes;
use parking_lot::RwLock;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ----------------------------------------------------------------------
// CRC-32 (IEEE)
// ----------------------------------------------------------------------

fn crc32_table() -> &'static [u32; 256] {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    })
}

/// CRC-32 (IEEE polynomial) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_parts(&[data])
}

/// CRC-32 over the concatenation of `parts`, without materializing it — the
/// WAL checksums `type byte | fragment` this way.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    let table = crc32_table();
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        for &b in *part {
            c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    c ^ 0xFFFF_FFFF
}

// ----------------------------------------------------------------------
// Fixed-width reader
// ----------------------------------------------------------------------

/// Cursor-based reader of fixed-width and varint fields that fails with
/// [`KvError::Corruption`] instead of panicking on truncated input.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(KvError::Corruption(format!(
                "truncated: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// The next `N` bytes, by value: a fixed-width integer's encoding.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An unsigned LEB128 value of at most 64 bits.
    pub fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                break;
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(KvError::Corruption("varint longer than 64 bits".into()))
    }

    /// A varint-length-prefixed run of bytes: where it sits in the buffer.
    pub fn span(&mut self) -> Result<Range<usize>> {
        let n = usize::try_from(self.varint()?).unwrap_or(usize::MAX);
        self.take(n)?;
        Ok(self.pos - n..self.pos)
    }

    pub fn bytes16(&mut self) -> Result<Bytes> {
        let n = self.u16()? as usize;
        Ok(Bytes::copy_from_slice(self.take(n)?))
    }
}

// ----------------------------------------------------------------------
// StorageEnv
// ----------------------------------------------------------------------

static NEXT_TEMP_ID: AtomicU64 = AtomicU64::new(1);

/// The durable root of one cluster: owns the data directory, injects file
/// faults, and meters physical write traffic.
pub struct StorageEnv {
    root: PathBuf,
    /// Remove the whole tree when the env is dropped (temp clusters).
    ephemeral: bool,
    /// Durable WAL segment size; segments seal and rotate past this.
    pub wal_segment_bytes: u64,
    metrics: Arc<ClusterMetrics>,
    faults: RwLock<Option<Arc<FaultInjector>>>,
}

impl std::fmt::Debug for StorageEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageEnv")
            .field("root", &self.root)
            .field("ephemeral", &self.ephemeral)
            .finish()
    }
}

impl StorageEnv {
    /// Open (creating if needed) a storage root at `root`.
    pub fn new(
        root: impl Into<PathBuf>,
        wal_segment_bytes: u64,
        metrics: Arc<ClusterMetrics>,
    ) -> Result<Arc<Self>> {
        Self::at(root.into(), false, wal_segment_bytes, metrics)
    }

    /// A unique throwaway root under the system temp dir, removed when the
    /// env drops: what a cluster started without a `data_dir` runs on. A root
    /// a recycled pid left under this very name is emptied first: a new
    /// cluster must never recover a stranger's log.
    pub fn temp(wal_segment_bytes: u64, metrics: Arc<ClusterMetrics>) -> Result<Arc<Self>> {
        let id = NEXT_TEMP_ID.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("shc-lsm-{}-{id}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        Self::at(dir, true, wal_segment_bytes, metrics)
    }

    fn at(
        root: PathBuf,
        ephemeral: bool,
        wal_segment_bytes: u64,
        metrics: Arc<ClusterMetrics>,
    ) -> Result<Arc<Self>> {
        std::fs::create_dir_all(&root)?;
        Ok(Arc::new(StorageEnv {
            root,
            ephemeral,
            wal_segment_bytes: wal_segment_bytes.max(4 * 1024),
            metrics,
            faults: RwLock::new(None),
        }))
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    pub fn metrics(&self) -> &Arc<ClusterMetrics> {
        &self.metrics
    }

    /// Attach the cluster's fault injector; subsequent writes consult its
    /// file-layer rules.
    pub fn attach_faults(&self, injector: Arc<FaultInjector>) {
        *self.faults.write() = Some(injector);
    }

    /// Directory holding one region's store files and manifest. Lives at
    /// the cluster level (not under a server) so region moves and failover
    /// need no data copy, matching HBase-on-HDFS layout.
    pub fn region_dir(&self, region_id: u64) -> PathBuf {
        self.root.join(format!("region-{region_id}"))
    }

    /// Directory holding one server's WAL segments.
    pub fn wal_dir(&self, server_id: u64) -> PathBuf {
        self.root.join(format!("server-{server_id}")).join("wal")
    }

    fn charge(&self, op: FileOp, bytes: u64) {
        let m = &self.metrics;
        match op {
            FileOp::WalAppend => m.add(&m.wal_bytes_written, bytes),
            FileOp::StoreFileWrite => m.add(&m.flush_bytes_written, bytes),
            FileOp::CompactionWrite => m.add(&m.compaction_bytes_rewritten, bytes),
            FileOp::ManifestWrite => m.add(&m.manifest_writes, 1),
        }
    }

    fn verdict(&self, op: FileOp, len: usize) -> crate::fault::WriteVerdict {
        let v = match self.faults.read().as_ref() {
            Some(inj) => inj.on_file_write(op, len),
            None => crate::fault::WriteVerdict {
                persist: len,
                crash: false,
                delay_us: 0,
            },
        };
        if v.delay_us > 0 {
            // A slow-write fault: the device took this long. Charge the
            // modeled delay to the slow-write counter (flush/compaction
            // callers diff it around their write loops for attribution)
            // and advance the active trace so spans show the stall.
            self.metrics
                .add(&self.metrics.storage_slow_write_us, v.delay_us);
            shc_obs::trace::advance_us(v.delay_us);
        }
        v
    }

    /// Fault-checked write of `buf` to an open file, without syncing. `buf`
    /// holds consecutive logical writes ending at the offsets in `ends`
    /// (the last being `buf.len()`); each takes its own fault verdict, in
    /// order, exactly as if it were written alone, but the bytes reach the
    /// file in one `write_all`. A firing crash rule persists every earlier
    /// write plus the surviving prefix of its own and returns
    /// [`KvError::SimulatedCrash`].
    pub fn write_parts(
        &self,
        file: &mut File,
        op: FileOp,
        buf: &[u8],
        ends: &[usize],
    ) -> Result<()> {
        // Where the write is cut short, if a crash rule fires on a part.
        let mut torn_at = None;
        let mut start = 0;
        for &end in ends {
            let v = self.verdict(op, end - start);
            if v.crash {
                torn_at = Some(start + v.persist.min(end - start));
                break;
            }
            start = end;
        }
        let persist = torn_at.unwrap_or(buf.len());
        file.write_all(&buf[..persist])?;
        self.charge(op, persist as u64);
        match torn_at {
            Some(_) => Err(KvError::SimulatedCrash(format!("{op:?}"))),
            None => Ok(()),
        }
    }

    /// [`write_parts`](Self::write_parts) for a single logical write.
    pub fn write(&self, file: &mut File, op: FileOp, buf: &[u8]) -> Result<()> {
        self.write_parts(file, op, buf, &[buf.len()])
    }

    /// Make everything written to `file` so far durable. Nothing written
    /// through [`write`](Self::write) may be acknowledged or referenced by
    /// a manifest before this returns.
    pub fn sync(&self, file: &File, op: FileOp) -> Result<()> {
        file.sync_all()?;
        if op == FileOp::WalAppend {
            self.metrics.add(&self.metrics.wal_fsyncs, 1);
        }
        Ok(())
    }

    /// Write a whole file atomically: temp file + fsync + rename. Under a
    /// firing fault the prefix lands in the temp file and the rename never
    /// happens, so the previous version (if any) stays intact — exactly the
    /// failure mode a torn manifest commit has on a journaling filesystem.
    pub fn write_atomic(&self, path: &Path, op: FileOp, buf: &[u8]) -> Result<()> {
        let v = self.verdict(op, buf.len());
        let persist = v.persist.min(buf.len());
        let tmp = path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&buf[..persist])?;
            f.sync_all()?;
        }
        if v.crash {
            return Err(KvError::SimulatedCrash(format!("{op:?}")));
        }
        std::fs::rename(&tmp, path)?;
        self.charge(op, persist as u64);
        Ok(())
    }

    /// Open a file for appending, creating it if missing.
    pub fn open_append(&self, path: &Path) -> Result<File> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        Ok(OpenOptions::new().create(true).append(true).open(path)?)
    }

    /// Read a whole file.
    pub fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        File::open(path)?.read_to_end(&mut buf)?;
        Ok(buf)
    }

    pub fn remove_file(&self, path: &Path) -> Result<()> {
        std::fs::remove_file(path)?;
        Ok(())
    }

    pub fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        if let Some(parent) = to.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::rename(from, to)?;
        Ok(())
    }
}

impl Drop for StorageEnv {
    fn drop(&mut self) {
        if self.ephemeral {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }
}

/// A throwaway env for the unit tests that build a bare `Wal` or `Region`.
#[cfg(test)]
pub(crate) fn temp_env(wal_segment_bytes: u64) -> Arc<StorageEnv> {
    StorageEnv::temp(wal_segment_bytes, ClusterMetrics::new()).expect("temp dir")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FileFaultKind, FileFaultRule};

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn temp_env_cleans_up_on_drop() {
        let env = StorageEnv::temp(1 << 20, ClusterMetrics::new()).unwrap();
        let root = env.root().to_path_buf();
        std::fs::write(root.join("probe"), b"x").unwrap();
        assert!(root.exists());
        drop(env);
        assert!(!root.exists());
    }

    #[test]
    fn atomic_write_survives_injected_crash() {
        let metrics = ClusterMetrics::new();
        let env = StorageEnv::temp(1 << 20, Arc::clone(&metrics)).unwrap();
        let inj = FaultInjector::new(1, metrics);
        env.attach_faults(Arc::clone(&inj));
        let path = env.root().join("MANIFEST");
        env.write_atomic(&path, FileOp::ManifestWrite, b"v1")
            .unwrap();
        inj.add_file_rule(FileFaultRule::new(FileFaultKind::Torn).on_op(FileOp::ManifestWrite));
        let err = env
            .write_atomic(&path, FileOp::ManifestWrite, b"v2-much-longer")
            .unwrap_err();
        assert!(matches!(err, KvError::SimulatedCrash(_)));
        // The previous version is untouched.
        assert_eq!(env.read(&path).unwrap(), b"v1");
    }

    #[test]
    fn slow_write_fault_lands_intact_and_charges_delay() {
        let metrics = ClusterMetrics::new();
        let env = StorageEnv::temp(1 << 20, Arc::clone(&metrics)).unwrap();
        let inj = FaultInjector::new(3, Arc::clone(&metrics));
        env.attach_faults(Arc::clone(&inj));
        inj.add_file_rule(
            FileFaultRule::new(FileFaultKind::SlowWrite(1_500))
                .on_op(FileOp::StoreFileWrite)
                .times(2),
        );
        let path = env.root().join("f.sst");
        env.write_atomic(&path, FileOp::StoreFileWrite, b"block-1")
            .unwrap();
        assert_eq!(env.read(&path).unwrap(), b"block-1", "no bytes lost");
        let mut f = env.open_append(&env.root().join("g.sst")).unwrap();
        env.write(&mut f, FileOp::StoreFileWrite, b"block-2")
            .unwrap();
        assert_eq!(metrics.snapshot().storage_slow_write_us, 3_000);
    }

    #[test]
    fn append_persists_prefix_on_torn_write() {
        let metrics = ClusterMetrics::new();
        let env = StorageEnv::temp(1 << 20, Arc::clone(&metrics)).unwrap();
        let inj = FaultInjector::new(9, metrics);
        env.attach_faults(Arc::clone(&inj));
        inj.add_file_rule(
            FileFaultRule::new(FileFaultKind::ShortWrite(4)).on_op(FileOp::WalAppend),
        );
        let path = env.root().join("wal.log");
        let mut f = env.open_append(&path).unwrap();
        let err = env
            .write(&mut f, FileOp::WalAppend, b"0123456789")
            .unwrap_err();
        assert!(matches!(err, KvError::SimulatedCrash(_)));
        assert_eq!(env.read(&path).unwrap(), b"012345");
    }

    #[test]
    fn write_parts_takes_one_verdict_per_part_in_one_write() {
        let metrics = ClusterMetrics::new();
        let env = StorageEnv::temp(1 << 20, Arc::clone(&metrics)).unwrap();
        let inj = FaultInjector::new(9, Arc::clone(&metrics));
        env.attach_faults(Arc::clone(&inj));
        let rule = inj.add_file_rule(
            FileFaultRule::new(FileFaultKind::ShortWrite(1))
                .on_op(FileOp::WalAppend)
                .at_nth(3),
        );
        let path = env.root().join("wal.log");
        let mut f = env.open_append(&path).unwrap();
        // The third part is the rule's third write: the two before it land
        // whole, it loses its last byte, the fourth never starts.
        let err = env
            .write_parts(
                &mut f,
                FileOp::WalAppend,
                b"aaaabbbbccccdddd",
                &[4, 8, 12, 16],
            )
            .unwrap_err();
        assert!(matches!(err, KvError::SimulatedCrash(_)));
        assert_eq!(rule.fire_count(), 1);
        assert_eq!(env.read(&path).unwrap(), b"aaaabbbbccc");
        assert_eq!(metrics.snapshot().wal_bytes_written, 11);
        // Syncing is the caller's explicit step, and the one that is counted.
        assert_eq!(metrics.snapshot().wal_fsyncs, 0);
        env.sync(&f, FileOp::WalAppend).unwrap();
        assert_eq!(metrics.snapshot().wal_fsyncs, 1);
    }
}
