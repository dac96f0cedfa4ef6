//! Crash-safe on-disk persistence for compiled artifacts: the
//! cross-process half of the cache story.
//!
//! `tcc-cache` memoizes compiles within a process; a restarted fleet
//! still pays full compile cost for every closure it had already
//! compiled. [`PersistentStore`] serializes fingerprint → sealed VM
//! words (+ `orig_start` for install-time relocation and the original
//! `compile_ns` for savings accounting) so process N+1 warm-starts at
//! hit cost.
//!
//! Three properties the format is built around:
//!
//! * **Zero-trust loads.** A store file is input, not state: every
//!   length is bounds-checked, every payload is CRC-validated, and the
//!   header carries a format version plus an *ABI salt* (opcode-table
//!   signature ⊕ cost-model digest ⊕ fingerprint scheme version ⊕
//!   static-image layout, folded by the embedding session). Any
//!   mismatch degrades to a cold miss — counted in
//!   [`PersistMetrics`] as `corrupt_rejected` (per entry) or
//!   `version_rejected` (whole store) — and never panics or serves
//!   wrong bytes. A corrupt entry is skipped by its declared frame
//!   length, so valid entries after it still load; a truncated tail
//!   keeps every entry before the cut.
//! * **Atomic writes.** A flush serializes the complete store to a
//!   sibling temp file, fsyncs, and renames it over the store path —
//!   a crash mid-flush leaves either the old file or the new one,
//!   never a torn hybrid. An exclusive OS lock on a sibling lock file
//!   makes the writer unique: later openers of the same path get a
//!   read-only store whose `flush` fails cleanly. The kernel drops the
//!   lock when its holder exits, however it exits, so a crashed writer
//!   never leaves the store read-only.
//! * **Invalidation composes.** Entries dropped by
//!   `SharedArtifacts::invalidate` (or any caller of
//!   [`PersistentStore::tombstone`]) are simply omitted from the next
//!   flush — the rewrite-whole-file discipline makes tombstoning free
//!   and keeps the on-disk image canonical (entries sorted by
//!   fingerprint encoding, so equal stores are byte-identical).
//!
//! Only sealed words are stored, never an engine's translation of
//! them: a session that loads an artifact translates it like any
//! other function when it gets hot, which keeps the format independent
//! of the execution engines' buffer layouts.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

use tcc_obs::PersistMetrics;

use crate::Fingerprint;

/// On-disk format version. Bump on any change to the framing or
/// payload layout; stores written under a different version are
/// rejected whole (`version_rejected`).
pub const FORMAT_VERSION: u32 = 1;

/// `b"TCCP"` — the store file magic.
const MAGIC: [u8; 4] = *b"TCCP";

/// Header: magic + format version (u32 LE) + ABI salt (u64 LE).
const HEADER_LEN: usize = 16;

/// Per-entry frame prefix: payload length (u32 LE) + CRC32 (u32 LE).
const FRAME_LEN: usize = 8;

/// Sanity cap on a serialized fingerprint (1 MiB).
const MAX_FP_LEN: usize = 1 << 20;
/// Sanity cap on a function name (4 KiB).
const MAX_NAME_LEN: usize = 4096;
/// Sanity cap on a function body (16 Mi words = 64 MiB).
const MAX_WORDS: usize = 1 << 24;

/// CRC32 (IEEE, poly 0xEDB88320) lookup table, built at compile time —
/// the store cannot take a checksum dependency (leaf workspace).
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One artifact as stored on disk: everything a session needs to
/// re-install the function without recompiling (the persistent
/// counterpart of `shared::Artifact`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredArtifact {
    /// Function name (diagnostics; install reuses it).
    pub name: String,
    /// Start word the function was sealed at in the compiling
    /// session's code space; `install_function` rebases external
    /// control transfers relative to this.
    pub orig_start: usize,
    /// The sealed function's encoded words.
    pub words: Vec<u32>,
    /// What the original compilation cost — disk hits credit
    /// `compile_ns − load_ns` (saturating) to `ns_saved`.
    pub compile_ns: u64,
}

impl StoredArtifact {
    /// Code size in bytes (the cache budget unit).
    pub fn bytes(&self) -> u64 {
        (self.words.len() * 4) as u64
    }
}

/// The fingerprint-keyed persistent artifact store. One per store
/// path; the first opener in the fleet is the writer, later openers
/// are read-only. All loads happen eagerly at open (the store files
/// the suite produces are small); `load` is then an in-memory clone,
/// timed so hits can be charged their true warm-start cost.
#[derive(Debug)]
pub struct PersistentStore {
    path: PathBuf,
    abi_salt: u64,
    entries: HashMap<Fingerprint, StoredArtifact>,
    /// True when in-memory state has diverged from the file.
    dirty: bool,
    /// The lock file, held under an exclusive OS lock, when this
    /// instance is the writer. Closing it (on drop or process death)
    /// releases the role.
    lock: Option<fs::File>,
    metrics: PersistMetrics,
}

impl PersistentStore {
    /// Opens (or creates) the store at `path` under this build's
    /// `abi_salt`. Never fails: an unreadable, corrupt, truncated, or
    /// version-mismatched file degrades to an empty (cold) store with
    /// the rejection counted in [`PersistMetrics`]. The opener that
    /// takes the exclusive OS lock on `<path>.lock` becomes the writer;
    /// openers while it lives get a read-only view
    /// ([`PersistentStore::is_writer`] is false and
    /// [`PersistentStore::flush`] fails). The lock, not the lock file's
    /// existence, is the role: a file left by a writer that died is
    /// taken over by the next opener.
    pub fn open(path: impl Into<PathBuf>, abi_salt: u64) -> PersistentStore {
        let path = path.into();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                let _ = fs::create_dir_all(dir);
            }
        }
        let lock = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(lock_path(&path))
            .ok()
            .filter(|f| f.try_lock().is_ok());
        let mut store = PersistentStore {
            path,
            abi_salt,
            entries: HashMap::new(),
            dirty: false,
            lock,
            metrics: PersistMetrics::default(),
        };
        if let Ok(bytes) = fs::read(&store.path) {
            store.parse(&bytes);
        }
        store
    }

    /// Whether this instance holds the single-writer lock (the OS lock
    /// on `<path>.lock`, taken at open).
    pub fn is_writer(&self) -> bool {
        self.lock.is_some()
    }

    /// The store path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The ABI salt this store was opened under.
    pub fn abi_salt(&self) -> u64 {
        self.abi_salt
    }

    /// Resident (loaded + recorded − tombstoned) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether an artifact is resident for `fp` (no metrics side
    /// effects — use [`PersistentStore::load`] on the miss path).
    pub fn contains(&self, fp: &Fingerprint) -> bool {
        self.entries.contains_key(fp)
    }

    /// Looks up `fp`, counting a disk hit or miss. On a hit returns
    /// the artifact and the nanoseconds the load cost (also
    /// accumulated into `load_ns`) so the caller can credit
    /// `compile_ns − load_ns` rather than the full compile time.
    pub fn load(&mut self, fp: &Fingerprint) -> Option<(StoredArtifact, u64)> {
        let t0 = Instant::now();
        match self.entries.get(fp) {
            Some(art) => {
                let art = art.clone();
                let ns = t0.elapsed().as_nanos() as u64;
                self.metrics.disk_hits += 1;
                self.metrics.load_ns += ns;
                Some((art, ns))
            }
            None => {
                self.metrics.disk_misses += 1;
                None
            }
        }
    }

    /// Records (or replaces) an artifact for `fp`. The store is
    /// rewritten at the next flush; a tombstoned fingerprint recorded
    /// again is resurrected.
    pub fn record(&mut self, fp: Fingerprint, art: StoredArtifact) {
        self.entries.insert(fp, art);
        self.dirty = true;
    }

    /// Drops the artifact for `fp` so the next flush omits it —
    /// called when `SharedArtifacts::invalidate` (or private-cache
    /// eviction policy) retires the fingerprint. Returns whether an
    /// entry was resident.
    pub fn tombstone(&mut self, fp: &Fingerprint) -> bool {
        if self.entries.remove(fp).is_some() {
            self.metrics.tombstones += 1;
            self.dirty = true;
            true
        } else {
            false
        }
    }

    /// Serializes the complete store to a sibling temp file, syncs,
    /// and renames it over the store path — a crash mid-flush leaves
    /// the old file intact. Entries are written sorted by fingerprint
    /// encoding, so equal stores are byte-identical. Fails (without
    /// touching the file) on a read-only instance.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.is_writer() {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "store is read-only (another process holds the writer lock)",
            ));
        }
        let bytes = self.serialize();
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &self.path)?;
        self.metrics.flushes += 1;
        self.metrics.bytes_flushed += bytes.len() as u64;
        self.dirty = false;
        Ok(())
    }

    /// Current counters.
    pub fn metrics(&self) -> PersistMetrics {
        self.metrics
    }

    fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.abi_salt.to_le_bytes());
        let mut sorted: Vec<(&Fingerprint, &StoredArtifact)> = self.entries.iter().collect();
        sorted.sort_by(|a, b| a.0 .0.cmp(&b.0 .0));
        for (fp, art) in sorted {
            let payload = encode_payload(fp, art);
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&crc32(&payload).to_le_bytes());
            out.extend_from_slice(&payload);
        }
        out
    }

    /// Zero-trust parse of a store image into `entries`. Any header
    /// problem rejects the whole file; a bad entry frame is skipped by
    /// its declared length (later entries still load); a truncated
    /// tail stops the parse keeping everything before it.
    fn parse(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return; // fresh store
        }
        if bytes.len() < HEADER_LEN || bytes[..4] != MAGIC {
            self.metrics.corrupt_rejected += 1;
            return;
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        let salt = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        if version != FORMAT_VERSION || salt != self.abi_salt {
            self.metrics.version_rejected += 1;
            return;
        }
        let mut off = HEADER_LEN;
        while off < bytes.len() {
            let rest = &bytes[off..];
            if rest.len() < FRAME_LEN {
                self.metrics.corrupt_rejected += 1; // truncated frame
                return;
            }
            let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
            if len > rest.len() - FRAME_LEN {
                self.metrics.corrupt_rejected += 1; // truncated payload
                return;
            }
            let payload = &rest[FRAME_LEN..FRAME_LEN + len];
            off += FRAME_LEN + len;
            if crc32(payload) != crc {
                self.metrics.corrupt_rejected += 1; // bit rot: skip frame
                continue;
            }
            match decode_payload(payload) {
                Some((fp, art)) => {
                    self.entries.insert(fp, art);
                    self.metrics.entries_loaded += 1;
                }
                None => self.metrics.corrupt_rejected += 1,
            }
        }
    }
}

impl Drop for PersistentStore {
    fn drop(&mut self) {
        // Best-effort durability: unflushed changes go to disk on the
        // way out (ignoring errors — drop cannot report them), and the
        // writer lock is released (by closing the lock file) so the next
        // process can write. The lock file itself stays: unlinking it
        // would let a later opener lock a fresh inode while another
        // opener still holds the old one.
        if self.dirty && self.is_writer() {
            let _ = self.flush();
        }
    }
}

fn lock_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".lock");
    PathBuf::from(os)
}

fn encode_payload(fp: &Fingerprint, art: &StoredArtifact) -> Vec<u8> {
    let mut p = Vec::with_capacity(fp.0.len() + art.name.len() + art.words.len() * 4 + 32);
    p.extend_from_slice(&(fp.0.len() as u32).to_le_bytes());
    p.extend_from_slice(&fp.0);
    p.push(0); // flags, reserved
    p.extend_from_slice(&(art.name.len() as u16).to_le_bytes());
    p.extend_from_slice(art.name.as_bytes());
    p.extend_from_slice(&(art.orig_start as u64).to_le_bytes());
    p.extend_from_slice(&art.compile_ns.to_le_bytes());
    p.extend_from_slice(&(art.words.len() as u32).to_le_bytes());
    for w in &art.words {
        p.extend_from_slice(&w.to_le_bytes());
    }
    p
}

/// Bounds-checked payload decode. `None` on any structural problem
/// (implausible length, short field, trailing garbage, non-UTF-8
/// name) — the caller counts it `corrupt_rejected`.
fn decode_payload(p: &[u8]) -> Option<(Fingerprint, StoredArtifact)> {
    let mut off = 0usize;
    let take = |off: &mut usize, n: usize| -> Option<&[u8]> {
        let s = p.get(*off..*off + n)?;
        *off += n;
        Some(s)
    };
    let fp_len = u32::from_le_bytes(take(&mut off, 4)?.try_into().ok()?) as usize;
    if fp_len > MAX_FP_LEN {
        return None;
    }
    let fp_bytes = take(&mut off, fp_len)?.to_vec();
    let _flags = take(&mut off, 1)?[0];
    let name_len = u16::from_le_bytes(take(&mut off, 2)?.try_into().ok()?) as usize;
    if name_len > MAX_NAME_LEN {
        return None;
    }
    let name = String::from_utf8(take(&mut off, name_len)?.to_vec()).ok()?;
    let orig_start = u64::from_le_bytes(take(&mut off, 8)?.try_into().ok()?);
    let compile_ns = u64::from_le_bytes(take(&mut off, 8)?.try_into().ok()?);
    let words_len = u32::from_le_bytes(take(&mut off, 4)?.try_into().ok()?) as usize;
    if words_len > MAX_WORDS {
        return None;
    }
    let mut words = Vec::with_capacity(words_len);
    for _ in 0..words_len {
        words.push(u32::from_le_bytes(take(&mut off, 4)?.try_into().ok()?));
    }
    if off != p.len() {
        return None; // trailing garbage under a (forged) valid CRC
    }
    Some((
        Fingerprint(fp_bytes),
        StoredArtifact {
            name,
            orig_start: orig_start as usize,
            words,
            compile_ns,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FingerprintBuilder;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn fp(n: u64) -> Fingerprint {
        let mut b = FingerprintBuilder::new();
        b.push_tag(3);
        b.push_u64(n);
        b.build()
    }

    fn art(n: u64, words: usize) -> StoredArtifact {
        StoredArtifact {
            name: format!("f{n}"),
            orig_start: n as usize * 16,
            words: (0..words as u32)
                .map(|w| w.wrapping_mul(n as u32))
                .collect(),
            compile_ns: 1000 * n,
        }
    }

    /// A unique temp path per call (no tempfile dependency).
    fn tmp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "tcc_persist_{tag}_{}_{n}.store",
            std::process::id()
        ))
    }

    /// Removes the store file and its lock (test hygiene).
    fn cleanup(path: &Path) {
        let _ = fs::remove_file(path);
        let _ = fs::remove_file(lock_path(path));
    }

    /// Byte offset of the `i`-th entry's first payload byte.
    fn payload_offset(bytes: &[u8], i: usize) -> usize {
        let mut off = HEADER_LEN;
        for _ in 0..i {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            off += FRAME_LEN + len;
        }
        off + FRAME_LEN
    }

    #[test]
    fn round_trips_across_reopen() {
        let path = tmp_path("roundtrip");
        {
            let mut s = PersistentStore::open(&path, 42);
            assert!(s.is_writer());
            assert!(s.is_empty());
            s.record(fp(1), art(1, 8));
            s.record(fp(2), art(2, 4));
            s.flush().expect("flush");
            let m = s.metrics();
            assert_eq!(m.flushes, 1);
            assert!(m.bytes_flushed > HEADER_LEN as u64);
        }
        let mut s = PersistentStore::open(&path, 42);
        assert_eq!(s.len(), 2);
        assert_eq!(s.metrics().entries_loaded, 2);
        let (a, ns) = s.load(&fp(1)).expect("hit");
        assert_eq!(a, art(1, 8));
        assert!(s.metrics().load_ns >= ns);
        assert_eq!(s.load(&fp(2)).expect("hit").0, art(2, 4));
        assert!(s.load(&fp(3)).is_none());
        let m = s.metrics();
        assert_eq!((m.disk_hits, m.disk_misses), (2, 1));
        assert_eq!(m.disk_hit_rate(), 2.0 / 3.0);
        assert_eq!((m.corrupt_rejected, m.version_rejected), (0, 0));
        cleanup(&path);
    }

    #[test]
    fn flushes_are_canonical() {
        // Same contents → byte-identical files, regardless of insert
        // order (entries sort by fingerprint encoding on flush).
        let (pa, pb) = (tmp_path("canon_a"), tmp_path("canon_b"));
        {
            let mut a = PersistentStore::open(&pa, 7);
            a.record(fp(1), art(1, 4));
            a.record(fp(2), art(2, 4));
            a.flush().unwrap();
            let mut b = PersistentStore::open(&pb, 7);
            b.record(fp(2), art(2, 4));
            b.record(fp(1), art(1, 4));
            b.flush().unwrap();
        }
        assert_eq!(fs::read(&pa).unwrap(), fs::read(&pb).unwrap());
        cleanup(&pa);
        cleanup(&pb);
    }

    #[test]
    fn bit_flip_rejects_one_entry_and_keeps_the_rest() {
        let path = tmp_path("bitflip");
        {
            let mut s = PersistentStore::open(&path, 9);
            for n in 1..=3 {
                s.record(fp(n), art(n, 6));
            }
            s.flush().unwrap();
        }
        // Flip one byte inside the second entry's payload: its CRC no
        // longer matches, so it is skipped by frame length; entries 1
        // and 3 still load.
        let mut bytes = fs::read(&path).unwrap();
        let off = payload_offset(&bytes, 1);
        bytes[off + 3] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let mut s = PersistentStore::open(&path, 9);
        assert_eq!(s.len(), 2, "two of three entries survive");
        let m = s.metrics();
        assert_eq!(m.corrupt_rejected, 1);
        assert_eq!(m.entries_loaded, 2);
        assert_eq!(m.version_rejected, 0);
        // Exactly one fingerprint is gone; the survivors round-trip.
        let hits = (1..=3).filter(|&n| s.load(&fp(n)).is_some()).count();
        assert_eq!(hits, 2);
        cleanup(&path);
    }

    #[test]
    fn truncation_keeps_the_prefix() {
        let path = tmp_path("trunc");
        {
            let mut s = PersistentStore::open(&path, 9);
            for n in 1..=3 {
                s.record(fp(n), art(n, 6));
            }
            s.flush().unwrap();
        }
        // Cut the file mid-second-entry (a crash without the atomic
        // rename could not produce this, but a failing disk can).
        let bytes = fs::read(&path).unwrap();
        let cut = payload_offset(&bytes, 1) + 2;
        fs::write(&path, &bytes[..cut]).unwrap();
        let mut s = PersistentStore::open(&path, 9);
        assert_eq!(s.len(), 1, "only the entry before the cut survives");
        let m = s.metrics();
        assert_eq!(m.corrupt_rejected, 1);
        assert_eq!(m.entries_loaded, 1);
        assert!(s.load(&fp(1)).is_some());
        cleanup(&path);
    }

    #[test]
    fn wrong_salt_or_version_rejects_the_whole_store() {
        let path = tmp_path("salt");
        {
            let mut s = PersistentStore::open(&path, 1111);
            s.record(fp(1), art(1, 4));
            s.flush().unwrap();
        }
        // Same file, different ABI salt (a rebuilt opcode table or
        // cost model): everything is cold, nothing is corrupt.
        {
            let mut s = PersistentStore::open(&path, 2222);
            assert!(s.is_empty());
            assert!(s.load(&fp(1)).is_none());
            let m = s.metrics();
            assert_eq!(m.version_rejected, 1);
            assert_eq!(m.corrupt_rejected, 0);
            assert_eq!(m.entries_loaded, 0);
        }
        // Bump the header's format version in place: same rejection.
        let mut bytes = fs::read(&path).unwrap();
        bytes[4] = bytes[4].wrapping_add(1);
        fs::write(&path, &bytes).unwrap();
        let s = PersistentStore::open(&path, 1111);
        assert!(s.is_empty());
        assert_eq!(s.metrics().version_rejected, 1);
        cleanup(&path);
    }

    #[test]
    fn garbage_and_short_files_are_cold_not_fatal() {
        for (tag, bytes) in [
            ("garbage", b"not a store at all".to_vec()),
            ("shorthdr", b"TCCP\x01".to_vec()),
            ("badmagic", b"XXXXXXXXXXXXXXXX".to_vec()),
        ] {
            let path = tmp_path(tag);
            fs::write(&path, &bytes).unwrap();
            let mut s = PersistentStore::open(&path, 5);
            assert!(s.is_empty(), "{tag}");
            assert_eq!(s.metrics().corrupt_rejected, 1, "{tag}");
            // The store stays usable: record + flush overwrite the
            // junk atomically.
            s.record(fp(1), art(1, 4));
            s.flush().unwrap();
            drop(s);
            let s2 = PersistentStore::open(&path, 5);
            assert_eq!(s2.len(), 1);
            cleanup(&path);
        }
    }

    #[test]
    fn second_opener_is_read_only_until_writer_drops() {
        let path = tmp_path("lock");
        let a = PersistentStore::open(&path, 3);
        assert!(a.is_writer());
        let mut b = PersistentStore::open(&path, 3);
        assert!(!b.is_writer(), "writer lock is exclusive");
        b.record(fp(1), art(1, 4));
        assert!(b.flush().is_err(), "read-only flush must fail");
        drop(a); // releases the lock
        drop(b); // read-only: must NOT try to flush its dirty state
        let c = PersistentStore::open(&path, 3);
        assert!(c.is_writer(), "lock released on drop");
        assert!(c.is_empty(), "the reader's dirty state never hit disk");
        cleanup(&path);
    }

    #[test]
    fn leftover_lock_file_without_a_holder_still_yields_a_writer() {
        let path = tmp_path("stalelock");
        // A writer that died before `Drop` leaves its lock file behind;
        // the file alone must not make the store read-only.
        fs::write(lock_path(&path), b"").unwrap();
        let a = PersistentStore::open(&path, 3);
        assert!(a.is_writer(), "an unheld lock file is not a lock");
        drop(a);
        assert!(lock_path(&path).exists(), "drop keeps the lock file");
        assert!(PersistentStore::open(&path, 3).is_writer());
        cleanup(&path);
    }

    #[test]
    fn live_lock_holder_excludes_a_second_writer() {
        let path = tmp_path("heldlock");
        // Another process's writer, as this one sees it: the lock file
        // open under an exclusive OS lock.
        let holder = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(lock_path(&path))
            .unwrap();
        holder.try_lock().unwrap();
        let mut b = PersistentStore::open(&path, 3);
        assert!(!b.is_writer(), "a held lock excludes the opener");
        b.record(fp(1), art(1, 4));
        assert!(b.flush().is_err());
        drop(holder); // the holder dies: the kernel releases its lock
        assert!(PersistentStore::open(&path, 3).is_writer());
        cleanup(&path);
    }

    #[test]
    fn drop_flushes_dirty_writer_state() {
        let path = tmp_path("dropflush");
        {
            let mut s = PersistentStore::open(&path, 3);
            s.record(fp(5), art(5, 4));
            // No explicit flush: drop is the process-exit path.
        }
        let s = PersistentStore::open(&path, 3);
        assert_eq!(s.len(), 1);
        cleanup(&path);
    }

    #[test]
    fn tombstones_are_omitted_on_flush_and_resurrectable() {
        let path = tmp_path("tomb");
        {
            let mut s = PersistentStore::open(&path, 3);
            s.record(fp(1), art(1, 4));
            s.record(fp(2), art(2, 4));
            s.flush().unwrap();
            assert!(s.tombstone(&fp(1)));
            assert!(!s.tombstone(&fp(1)), "already gone");
            assert_eq!(s.metrics().tombstones, 1);
            s.flush().unwrap();
        }
        {
            let mut s = PersistentStore::open(&path, 3);
            assert_eq!(s.len(), 1);
            assert!(s.load(&fp(1)).is_none(), "tombstoned entry is cold");
            assert!(s.load(&fp(2)).is_some());
            // Recording again resurrects the fingerprint.
            s.record(fp(1), art(1, 8));
            s.flush().unwrap();
        }
        let s = PersistentStore::open(&path, 3);
        assert_eq!(s.len(), 2);
        cleanup(&path);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
