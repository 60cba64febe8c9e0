//! Crash-safe persistent store of procedure summaries.
//!
//! A content-addressed on-disk cache with one entry kind: the Merkle
//! key of a procedure ([`hash::proc_key`]) maps to its interprocedural
//! [`Summary`] plus the [`LoopReport`]s derived while building it — the
//! paper's unit of reuse. The driver ([`crate::analyze`]) looks a
//! procedure up before summarizing it and writes the result back through
//! an append-only journal; a warm store lets a corpus rerun skip the
//! analysis of every unchanged procedure while producing
//! **bit-identical** output. Lattice queries are never persisted: the
//! session's in-memory memos answer them faster than a record can be
//! read back.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/
//!   seg-0000.log    sealed journal segments (immutable once renamed)
//!   seg-0001.log
//!   active.tmp      the segment currently being appended
//!   lock            pid of the process holding the store
//!   corrupt/        quarantined bytes (torn tails, checksum mismatches)
//! ```
//!
//! Appends go to `active.tmp`; sealing flushes, fsyncs, and *renames*
//! it to the next `seg-NNNN.log` — the only atomic step, so a crash at
//! any point leaves either a sealed segment or a salvageable/quarantinable
//! tmp, never a half-renamed segment. Each segment opens with a
//! [`journal::RecordKind::Header`] record carrying the codec version and
//! the producing build's [`crate::BUILD_ID`] (a hash of the analyzing
//! crates' sources); segments from another build are deleted as stale on
//! open (cache hygiene — results could legitimately differ across
//! builds).
//!
//! Opening reads every sealed segment and walks its frames, but checks
//! only what decides what the index holds: the header and the
//! tombstones. A `Proc` entry is indexed as (segment bytes, frame) and
//! checksummed when [`Store::get_proc`] reads it, so a process that uses
//! one entry of many pays for one checksum.
//!
//! ## Failure model — sound graceful degradation
//!
//! The store can *never* fail an analysis run or change its output:
//!
//! * a broken frame or torn tail (at open), a checksum mismatch (of a
//!   header or tombstone at open, of an entry when it is read) or an
//!   undecodable payload → the bytes are quarantined into `corrupt/`,
//!   counted, reported as a typed [`StoreError::Corrupt`] warning, and
//!   the key falls through to recomputation. A corrupt latest record for
//!   a key shadows an older valid one: it reads as a miss (degradation
//!   may only lose entries);
//! * any IO error on open/read/lock → the store disables itself
//!   ([`StoreError::Io`] / [`StoreError::Locked`] warning) and the
//!   session runs in-memory-only;
//! * any IO error on append/seal → writes stop ([`StoreError::Io`]
//!   warning) while already-loaded entries keep serving reads.
//!
//! Every failure path is exercised deterministically by a
//! [`FaultPlan`] of [`StoreFault`]s (`--inject store-write-fail`,
//! `store-read-fail`, `store-torn-write`, `store-bitflip`).
//!
//! ## Invalidation
//!
//! Keys are Merkle-style over procedure IR ([`hash::proc_key`]), so an
//! edited procedure *automatically* misses along with every transitive
//! caller, and every other procedure keeps hitting. Entries an edit
//! orphans stay on disk until their segment goes stale with the build.

pub mod codec;
pub mod faults;
pub mod hash;
pub mod journal;

pub use faults::StoreFault;
pub use hash::{hash_procedure, options_fingerprint, proc_key, CODEC_VERSION, UNDEFINED_CALLEE};

use crate::error::StoreError;
use crate::faults::FaultPlan;
use crate::report::LoopReport;
use crate::summary::Summary;
use journal::{Frame, RecordKind};
use padfa_omega::sync::{lock, read, write};
use std::collections::HashMap;
use std::fs;
use std::io::{Seek, SeekFrom, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Rotation threshold for the active segment (bytes). Small enough that
/// a crash loses at most one modest tail, large enough that a corpus run
/// produces a handful of segments, not thousands.
pub const DEFAULT_MAX_SEGMENT_BYTES: u64 = 4 << 20;

/// Bounded retry policy for *transient* store IO errors. A long-lived
/// server must not lose persistence forever because one write hit a
/// blip (EINTR, transient ENOSPC, a slow NFS hiccup): each failing
/// read/write is retried with exponential backoff before the store
/// degrades. Crash-shaped faults (torn writes) are never retried — they
/// model the process dying, not the disk stuttering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry, capped at 1s.
    pub backoff_ms: u64,
}

impl RetryPolicy {
    /// Disable retries entirely (first failure degrades, as before).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff_ms: 0,
        }
    }

    /// Backoff to sleep after the `attempt`-th failure (1-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let ms = self
            .backoff_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(10))
            .min(1000);
        Duration::from_millis(ms)
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff_ms: 10,
        }
    }
}

/// Injectable backoff sleep, so tests drive retries with a deterministic
/// recorded clock instead of real wall time.
pub type Sleeper = Arc<dyn Fn(Duration) + Send + Sync>;

/// Configuration for [`Store::open`].
#[derive(Clone)]
pub struct StoreConfig {
    /// Store directory (created if absent).
    pub dir: PathBuf,
    /// Build identity stamped into segment headers; segments written by
    /// a different build are discarded as stale. Production passes
    /// [`crate::BUILD_ID`].
    pub build_id: String,
    /// Deterministic IO fault plan (empty in production).
    pub faults: FaultPlan<StoreFault>,
    /// Active-segment rotation threshold.
    pub max_segment_bytes: u64,
    /// Retry policy for transient IO errors.
    pub retry: RetryPolicy,
    /// Backoff sleep (`None` = real `thread::sleep`).
    pub sleeper: Option<Sleeper>,
}

impl std::fmt::Debug for StoreConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreConfig")
            .field("dir", &self.dir)
            .field("build_id", &self.build_id)
            .field("faults", &self.faults)
            .field("max_segment_bytes", &self.max_segment_bytes)
            .field("retry", &self.retry)
            .field("sleeper", &self.sleeper.is_some())
            .finish()
    }
}

impl StoreConfig {
    pub fn new(dir: impl Into<PathBuf>, build_id: impl Into<String>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            build_id: build_id.into(),
            faults: FaultPlan::none(),
            max_segment_bytes: DEFAULT_MAX_SEGMENT_BYTES,
            retry: RetryPolicy::default(),
            sleeper: None,
        }
    }

    pub fn with_faults(mut self, faults: FaultPlan<StoreFault>) -> StoreConfig {
        self.faults = faults;
        self
    }

    pub fn with_retry(mut self, retry: RetryPolicy) -> StoreConfig {
        self.retry = retry;
        self
    }

    pub fn with_sleeper(mut self, sleeper: Sleeper) -> StoreConfig {
        self.sleeper = Some(sleeper);
        self
    }
}

/// Point-in-time store counters (all zeros for an absent store). Not
/// comparable as a whole: `open_us` and `seal_us` are wall-clock times.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStatsSnapshot {
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that fell through to recomputation.
    pub misses: u64,
    /// Entries written back this session.
    pub puts: u64,
    /// Entries/segment tails quarantined to `corrupt/`.
    pub quarantined: u64,
    /// Segments discarded for codec-version or build-id mismatch.
    pub stale_segments: u64,
    /// Records salvaged from a crashed `active.tmp`.
    pub salvaged: u64,
    /// Entries loaded from sealed segments at open.
    pub loaded: u64,
    /// Retry attempts performed against transient IO errors (each one
    /// either recovered persistence or counted toward giving up).
    pub retries: u64,
    /// Wall time spent in [`Store::open`] (reads, frame walks, salvage).
    pub open_us: u64,
    /// Wall time spent sealing segments, flush and fsync included.
    pub seal_us: u64,
    /// True when the store disabled itself entirely (reads and writes).
    pub degraded: bool,
    /// True when only persistence stopped (reads keep serving).
    pub writes_degraded: bool,
}

impl StoreStatsSnapshot {
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of store lookups served from disk (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// State of the segment currently being appended.
struct ActiveSeg {
    file: fs::File,
    bytes: u64,
}

/// Journal writer state, behind one mutex so appends and rotation are
/// atomic with respect to each other (and the write-op fault counter
/// advances deterministically under contention).
struct JournalState {
    active: Option<ActiveSeg>,
    next_seg: u32,
    write_ops: u64,
}

/// Where an indexed entry's payload lives.
#[derive(Clone)]
enum Entry {
    /// A `Proc` frame of a segment read at open, checksummed when read.
    Sealed { segment: Arc<Vec<u8>>, frame: Frame },
    /// A payload this process encoded itself.
    Own(Arc<Vec<u8>>),
}

impl Entry {
    /// The payload, or `None` when a sealed frame fails its checksum.
    fn verified_payload(&self) -> Option<&[u8]> {
        match self {
            Entry::Sealed { segment, frame } => frame.verify(segment),
            Entry::Own(payload) => Some(payload.as_slice()),
        }
    }

    /// The bytes to quarantine when the entry turns out corrupt.
    fn record(&self) -> &[u8] {
        match self {
            Entry::Sealed { segment, frame } => segment.get(frame.span()).unwrap_or_default(),
            Entry::Own(payload) => payload.as_slice(),
        }
    }
}

/// The persistent memo store. Cheap shared handle: wrap in `Arc` and
/// clone across sessions/threads; all mutation is interior.
pub struct Store {
    dir: PathBuf,
    build_id: String,
    faults: FaultPlan<StoreFault>,
    max_segment_bytes: u64,
    retry: RetryPolicy,
    sleeper: Sleeper,
    /// Procedure key → its latest entry (verified and decoded on get).
    index: RwLock<HashMap<u128, Entry>>,
    journal: Mutex<JournalState>,
    /// Full degrade: serve nothing, persist nothing.
    disabled: AtomicBool,
    /// Write-side degrade: keep serving loaded entries, stop persisting.
    writes_disabled: AtomicBool,
    /// Whether this process owns `<dir>/lock` (and must remove it).
    holds_lock: AtomicBool,
    warnings: Mutex<Vec<StoreError>>,
    quarantine_seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    quarantined: AtomicU64,
    stale_segments: AtomicU64,
    salvaged: AtomicU64,
    loaded: AtomicU64,
    retries: AtomicU64,
    open_us: AtomicU64,
    seal_us: AtomicU64,
}

impl Store {
    /// Open (or create) the store at `config.dir`. Infallible by design:
    /// any failure yields a disabled store plus typed warnings, never an
    /// error the analysis has to handle.
    pub fn open(config: StoreConfig) -> Store {
        let started = Instant::now();
        let store = Store {
            dir: config.dir,
            build_id: config.build_id,
            faults: config.faults,
            max_segment_bytes: config.max_segment_bytes.max(1),
            retry: RetryPolicy {
                max_attempts: config.retry.max_attempts.max(1),
                ..config.retry
            },
            sleeper: config
                .sleeper
                .unwrap_or_else(|| Arc::new(|d: Duration| std::thread::sleep(d))),
            index: RwLock::new(HashMap::new()),
            journal: Mutex::new(JournalState {
                active: None,
                next_seg: 0,
                write_ops: 0,
            }),
            disabled: AtomicBool::new(false),
            writes_disabled: AtomicBool::new(false),
            holds_lock: AtomicBool::new(false),
            warnings: Mutex::new(Vec::new()),
            quarantine_seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            stale_segments: AtomicU64::new(0),
            salvaged: AtomicU64::new(0),
            loaded: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            open_us: AtomicU64::new(0),
            seal_us: AtomicU64::new(0),
        };
        if let Err(e) = store.load() {
            store.disabled.store(true, Ordering::Relaxed);
            store.warn(e);
        }
        store.open_us.store(micros(started), Ordering::Relaxed);
        store
    }

    /// True while the store serves reads (not fully degraded).
    pub fn enabled(&self) -> bool {
        !self.disabled.load(Ordering::Relaxed)
    }

    fn warn(&self, e: StoreError) {
        // Every store degradation funnels through here — mirror it
        // into the flight ring so a degraded request is attributable
        // post-hoc without scraping stderr.
        crate::flight::instant(crate::flight::EventKind::StoreDegraded, &e.to_string(), 1);
        lock(&self.warnings).push(e);
    }

    /// Drain the typed warnings accumulated so far (drivers print them).
    pub fn take_warnings(&self) -> Vec<StoreError> {
        std::mem::take(&mut lock(&self.warnings))
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> StoreStatsSnapshot {
        StoreStatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            stale_segments: self.stale_segments.load(Ordering::Relaxed),
            salvaged: self.salvaged.load(Ordering::Relaxed),
            loaded: self.loaded.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            open_us: self.open_us.load(Ordering::Relaxed),
            seal_us: self.seal_us.load(Ordering::Relaxed),
            degraded: self.disabled.load(Ordering::Relaxed),
            writes_degraded: self.writes_disabled.load(Ordering::Relaxed),
        }
    }

    // --------------------------------------------------------------
    // Open-time loading
    // --------------------------------------------------------------

    fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> StoreError {
        StoreError::Io {
            op,
            path: path.display().to_string(),
            msg: e.to_string(),
        }
    }

    fn load(&self) -> Result<(), StoreError> {
        fs::create_dir_all(&self.dir).map_err(|e| Self::io_err("open", &self.dir, &e))?;
        let corrupt = self.dir.join("corrupt");
        fs::create_dir_all(&corrupt).map_err(|e| Self::io_err("open", &corrupt, &e))?;
        self.acquire_lock()?;

        // Sealed segments, in append (= filename) order.
        let mut segs: Vec<PathBuf> = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| Self::io_err("open", &self.dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| Self::io_err("open", &self.dir, &e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("seg-") && name.ends_with(".log") {
                segs.push(entry.path());
            }
        }
        segs.sort();
        let mut read_ops = 0u64;
        let mut next_seg = 0u32;
        for path in &segs {
            if let Some(n) = seg_number(path) {
                next_seg = next_seg.max(n + 1);
            }
            let bytes = self.faulted_read(path, &mut read_ops)?;
            self.absorb_segment(path, bytes);
        }

        // Salvage a crashed active segment, if any.
        let tmp = self.dir.join("active.tmp");
        if tmp.exists() {
            let bytes = self.faulted_read(&tmp, &mut read_ops)?;
            next_seg = self.salvage_active(&tmp, bytes, next_seg)?;
        }
        lock(&self.journal).next_seg = next_seg;
        Ok(())
    }

    /// Read a file with read-side fault injection applied. Transient
    /// failures (injected or real) are retried with backoff before the
    /// error propagates; each attempt advances the fault-op counter, so
    /// a single armed fault is survived while a burst of
    /// `max_attempts` consecutive faults still degrades.
    fn faulted_read(&self, path: &Path, read_ops: &mut u64) -> Result<Vec<u8>, StoreError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            *read_ops += 1;
            let result = match self.faults.armed(*read_ops).find(|k| !k.is_write()) {
                Some(StoreFault::ReadFail) => Err(StoreError::Io {
                    op: "read",
                    path: path.display().to_string(),
                    msg: "injected read failure".into(),
                }),
                Some(StoreFault::BitFlip) => {
                    match fs::read(path) {
                        Ok(mut bytes) => {
                            // Silent corruption, not an error: checksums
                            // catch it downstream, retrying is pointless.
                            faults::flip_bit(&mut bytes, *read_ops);
                            Ok(bytes)
                        }
                        Err(e) => Err(Self::io_err("read", path, &e)),
                    }
                }
                _ => fs::read(path).map_err(|e| Self::io_err("read", path, &e)),
            };
            match result {
                Ok(bytes) => return Ok(bytes),
                Err(e) => {
                    if attempt >= self.retry.max_attempts {
                        return Err(e);
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    crate::flight::instant(
                        crate::flight::EventKind::StoreRetry,
                        "read",
                        attempt.into(),
                    );
                    (self.sleeper)(self.retry.backoff(attempt));
                }
            }
        }
    }

    /// Does `first` — a segment's first frame — verify as a header of
    /// this codec version and this build?
    fn header_matches(&self, bytes: &[u8], first: Option<&Frame>) -> bool {
        first.is_some_and(|f| {
            f.kind == RecordKind::Header
                && f.verify(bytes)
                    .and_then(journal::decode_header_payload)
                    .is_some_and(|(v, id)| v == hash::CODEC_VERSION && id == self.build_id)
        })
    }

    /// Index one sealed segment's frames. Stale or headerless segments
    /// are deleted; broken frames and failing tombstones are quarantined.
    fn absorb_segment(&self, path: &Path, bytes: Vec<u8>) {
        let scan = journal::scan(&bytes);
        if !self.header_matches(&bytes, scan.frames.first()) {
            // Another build's cache (or a destroyed header): results may
            // legitimately differ, so the whole segment is stale.
            self.stale_segments.fetch_add(1, Ordering::Relaxed);
            let _ = fs::remove_file(path);
            return;
        }
        let segment = Arc::new(bytes);
        let mut bad = scan.quarantined;
        bad.extend(self.index_frames(&segment, scan.frames));
        if !bad.is_empty() {
            bad.sort_by_key(|r| r.start);
            self.quarantine_bytes(&segment, &bad, path, "checksum/frame failure");
        }
    }

    /// Apply a segment's frames to the index in append order. `Proc`
    /// frames are indexed unverified (checksummed when read); every other
    /// kind decides what the index holds, so it is verified now. Returns
    /// the spans of frames that failed.
    fn index_frames(&self, segment: &Arc<Vec<u8>>, frames: Vec<Frame>) -> Vec<Range<usize>> {
        let mut failed = Vec::new();
        let mut index = write(&self.index);
        for frame in frames {
            match frame.kind {
                RecordKind::Proc => {
                    self.loaded.fetch_add(1, Ordering::Relaxed);
                    let segment = Arc::clone(segment);
                    index.insert(frame.key, Entry::Sealed { segment, frame });
                }
                _ if frame.verify(segment).is_none() => failed.push(frame.span()),
                RecordKind::Tombstone => {
                    index.remove(&frame.key);
                }
                RecordKind::Header => {}
            }
        }
        failed
    }

    /// Seal the verified records of a crashed `active.tmp` into a proper
    /// segment and quarantine whatever was torn.
    fn salvage_active(&self, tmp: &Path, bytes: Vec<u8>, next_seg: u32) -> Result<u32, StoreError> {
        let scan = journal::scan(&bytes);
        let mut bad = scan.quarantined;
        let (good, failed): (Vec<Frame>, Vec<Frame>) = scan
            .frames
            .into_iter()
            .partition(|f| f.verify(&bytes).is_some());
        bad.extend(failed.iter().map(Frame::span));
        if !bad.is_empty() {
            bad.sort_by_key(|r| r.start);
            self.quarantine_bytes(&bytes, &bad, tmp, "torn active segment");
        }
        let mut next_seg = next_seg;
        if self.header_matches(&bytes, good.first()) && good.len() > 1 {
            // Copy only the verified records into a sealed segment
            // (write-to-temp + fsync + rename).
            let mut sealed = Vec::new();
            for f in &good {
                sealed.extend_from_slice(&bytes[f.span()]);
            }
            let staging = self.dir.join("salvage.tmp");
            let seg_path = self.dir.join(format!("seg-{next_seg:04}.log"));
            let started = Instant::now();
            let write_sealed = || -> std::io::Result<()> {
                let mut f = fs::File::create(&staging)?;
                f.write_all(&sealed)?;
                f.sync_all()?;
                fs::rename(&staging, &seg_path)
            };
            let written = write_sealed();
            self.seal_us.fetch_add(micros(started), Ordering::Relaxed);
            written.map_err(|e| Self::io_err("seal", &seg_path, &e))?;
            next_seg += 1;
            let records = good.iter().filter(|f| f.kind != RecordKind::Header).count();
            self.salvaged.fetch_add(records as u64, Ordering::Relaxed);
            self.index_frames(&Arc::new(bytes), good);
        }
        let _ = fs::remove_file(tmp);
        Ok(next_seg)
    }

    /// Move corrupt byte ranges into the `corrupt/` sidecar and record
    /// the typed warning.
    fn quarantine_bytes(&self, bytes: &[u8], ranges: &[Range<usize>], origin: &Path, detail: &str) {
        self.quarantined
            .fetch_add(ranges.len() as u64, Ordering::Relaxed);
        crate::flight::instant(
            crate::flight::EventKind::StoreQuarantined,
            detail,
            ranges.len() as u64,
        );
        let seq = self.quarantine_seq.fetch_add(1, Ordering::Relaxed);
        let sidecar =
            self.dir
                .join("corrupt")
                .join(format!("q-{}-{}.bin", std::process::id(), seq));
        let mut payload = Vec::new();
        for range in ranges {
            if let Some(slice) = bytes.get(range.clone()) {
                payload.extend_from_slice(slice);
            }
        }
        let _ = fs::write(&sidecar, &payload); // best-effort sidecar
        self.warn(StoreError::Corrupt {
            path: format!("{} -> {}", origin.display(), sidecar.display()),
            detail: detail.to_string(),
        });
    }

    /// Take the store lock, refusing (with degradation) when a live
    /// process holds it. A lock left by a dead process is stale and
    /// reclaimed — and so is one whose pid was *recycled*: the lock file
    /// records the opener's process start time alongside its pid, so a
    /// new process that happens to wear a dead opener's pid no longer
    /// wedges every future open into in-memory-only degradation.
    fn acquire_lock(&self) -> Result<(), StoreError> {
        let path = self.dir.join("lock");
        if let Ok(text) = fs::read_to_string(&path) {
            let mut words = text.split_whitespace();
            if let Some(Ok(pid)) = words.next().map(str::parse::<u32>) {
                let recorded_start = words.next().and_then(|w| w.parse::<u64>().ok());
                if pid != std::process::id() && holder_is_live(pid, recorded_start) {
                    return Err(StoreError::Locked {
                        path: path.display().to_string(),
                        pid,
                    });
                }
            }
        }
        let me = std::process::id();
        let stamp = match proc_start_time(me) {
            Some(start) => format!("{me} {start}\n"),
            None => format!("{me}\n"),
        };
        fs::write(&path, stamp).map_err(|e| Self::io_err("lock", &path, &e))?;
        self.holds_lock.store(true, Ordering::Relaxed);
        Ok(())
    }

    // --------------------------------------------------------------
    // Reads
    // --------------------------------------------------------------

    /// Quarantine an entry that failed its checksum or its decode,
    /// tombstone it, and fall through to recomputation.
    fn drop_corrupt_entry(&self, key: u128, record: &[u8], detail: &str) {
        write(&self.index).remove(&key);
        let whole = 0..record.len();
        let origin = self.dir.join("index");
        self.quarantine_bytes(record, std::slice::from_ref(&whole), &origin, detail);
        self.append(RecordKind::Tombstone, key, &[]);
    }

    /// Memoized interprocedural summary plus the loop reports derived
    /// while building it. A hit skips the procedure's analysis entirely.
    /// A sealed entry is checksummed here, on every read, and decoded
    /// from the segment bytes in place.
    pub fn get_proc(&self, key: u128) -> Option<(Summary, Vec<LoopReport>)> {
        if self.disabled.load(Ordering::Relaxed) {
            return None;
        }
        let entry = read(&self.index).get(&key).cloned();
        let decoded = entry.as_ref().and_then(|e| {
            let decoded = match e.verified_payload() {
                Some(payload) => codec::decode_proc_entry(payload).ok_or("undecodable proc entry"),
                None => Err("checksum mismatch"),
            };
            decoded
                .map_err(|detail| self.drop_corrupt_entry(key, e.record(), detail))
                .ok()
        });
        if decoded.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        decoded
    }

    // --------------------------------------------------------------
    // Writes
    // --------------------------------------------------------------

    /// Persist one procedure's summary + reports.
    pub fn put_proc(&self, key: u128, summary: &Summary, reports: &[LoopReport]) {
        if self.disabled.load(Ordering::Relaxed) {
            return;
        }
        let payload = codec::encode_proc_entry(summary, reports);
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.append(RecordKind::Proc, key, &payload);
        write(&self.index).insert(key, Entry::Own(Arc::new(payload)));
    }

    /// Append one record to the active segment, honoring write-side
    /// fault injection and degrading (with a typed warning) on any
    /// failure. Real and injected errors take the same path.
    fn append(&self, kind: RecordKind, key: u128, payload: &[u8]) {
        if self.disabled.load(Ordering::Relaxed) || self.writes_disabled.load(Ordering::Relaxed) {
            return;
        }
        let mut j = lock(&self.journal);
        if self.writes_disabled.load(Ordering::Relaxed) {
            return; // another thread degraded while we waited
        }
        let tmp_path = self.dir.join("active.tmp");
        // Lazily start a segment: header first.
        if j.active.is_none() {
            match fs::File::create(&tmp_path) {
                Ok(file) => {
                    j.active = Some(ActiveSeg { file, bytes: 0 });
                    let header = journal::encode_record(
                        RecordKind::Header,
                        0,
                        &journal::encode_header_payload(&self.build_id),
                    );
                    if !self.write_record(&mut j, &tmp_path, &header) {
                        return;
                    }
                }
                Err(e) => {
                    self.degrade_writes(&mut j, Self::io_err("append", &tmp_path, &e));
                    return;
                }
            }
        }
        let record = journal::encode_record(kind, key, payload);
        if !self.write_record(&mut j, &tmp_path, &record) {
            return;
        }
        // Rotate once the active segment is big enough.
        let full = j
            .active
            .as_ref()
            .is_some_and(|a| a.bytes >= self.max_segment_bytes);
        if full {
            self.seal_locked(&mut j);
        }
    }

    /// Write one framed record, applying write-fault injection.
    /// Transient failures — injected `WriteFail`s and real IO errors —
    /// are retried with backoff up to [`RetryPolicy::max_attempts`]
    /// before writes degrade, so one blip no longer costs a long-lived
    /// server its persistence. A real failure may have flushed a prefix
    /// of the record, so each retry first truncates the segment back to
    /// its last complete record. Torn writes model a *crash*, not a
    /// blip: they are never retried. Returns false when writes degraded.
    fn write_record(&self, j: &mut JournalState, path: &Path, record: &[u8]) -> bool {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            j.write_ops += 1;
            let op = j.write_ops;
            let err = match self.faults.armed(op).find(|k| k.is_write()) {
                Some(StoreFault::WriteFail) => StoreError::Io {
                    op: "append",
                    path: path.display().to_string(),
                    msg: "injected write failure".into(),
                },
                Some(StoreFault::TornWrite) => {
                    // Persist a prefix, then "crash": the torn tail stays
                    // on disk for the next open to quarantine.
                    if let Some(active) = j.active.as_mut() {
                        let half = record.len() / 2;
                        let _ = active.file.write_all(&record[..half]);
                        let _ = active.file.flush();
                        let _ = active.file.sync_all();
                    }
                    j.active = None; // keep active.tmp on disk, torn
                    self.degrade_writes(
                        j,
                        StoreError::Io {
                            op: "append",
                            path: path.display().to_string(),
                            msg: "injected torn write (crash mid-append)".into(),
                        },
                    );
                    return false;
                }
                _ => {
                    let Some(active) = j.active.as_mut() else {
                        return false;
                    };
                    match active.file.write_all(record) {
                        Ok(()) => {
                            active.bytes += record.len() as u64;
                            return true;
                        }
                        Err(e) => {
                            // Rewind any partial bytes of the failed
                            // record so the retry appends a clean frame;
                            // if even the repair fails the journal state
                            // is unknowable and writes must degrade.
                            let repaired = active
                                .file
                                .set_len(active.bytes)
                                .and_then(|()| active.file.seek(SeekFrom::End(0)))
                                .is_ok();
                            let err = Self::io_err("append", path, &e);
                            if !repaired {
                                self.degrade_writes(j, err);
                                return false;
                            }
                            err
                        }
                    }
                }
            };
            if attempt >= self.retry.max_attempts {
                self.degrade_writes(j, err);
                return false;
            }
            self.retries.fetch_add(1, Ordering::Relaxed);
            crate::flight::instant(
                crate::flight::EventKind::StoreRetry,
                "append",
                attempt.into(),
            );
            (self.sleeper)(self.retry.backoff(attempt));
        }
    }

    fn degrade_writes(&self, j: &mut JournalState, e: StoreError) {
        // Leave active.tmp on disk: whatever was fully appended is
        // salvageable by the next open.
        j.active = None;
        self.writes_disabled.store(true, Ordering::Relaxed);
        self.warn(e);
    }

    /// Seal the active segment: flush + fsync + atomic rename. A
    /// header-only segment is discarded instead of sealed.
    fn seal_locked(&self, j: &mut JournalState) {
        let Some(mut active) = j.active.take() else {
            return;
        };
        let tmp_path = self.dir.join("active.tmp");
        let header_len = journal::encode_record(
            RecordKind::Header,
            0,
            &journal::encode_header_payload(&self.build_id),
        )
        .len() as u64;
        if active.bytes <= header_len {
            drop(active);
            let _ = fs::remove_file(&tmp_path);
            return;
        }
        let started = Instant::now();
        let seal = || -> std::io::Result<PathBuf> {
            active.file.flush()?;
            active.file.sync_all()?;
            drop(active);
            let seg_path = self.dir.join(format!("seg-{:04}.log", j.next_seg));
            fs::rename(&tmp_path, &seg_path)?;
            Ok(seg_path)
        };
        let sealed = seal();
        self.seal_us.fetch_add(micros(started), Ordering::Relaxed);
        match sealed {
            Ok(_) => j.next_seg += 1,
            Err(e) => {
                let err = Self::io_err("seal", &tmp_path, &e);
                self.writes_disabled.store(true, Ordering::Relaxed);
                self.warn(err);
            }
        }
    }

    /// Flush and seal the active segment (called at the end of a run;
    /// also runs on drop).
    pub fn flush(&self) {
        if self.disabled.load(Ordering::Relaxed) || self.writes_disabled.load(Ordering::Relaxed) {
            return;
        }
        let mut j = lock(&self.journal);
        self.seal_locked(&mut j);
    }

    /// End this process's use of the store: seal what was written and
    /// give up `<dir>/lock`. This is all `Drop` does, offered by name for
    /// a one-shot command that exits without dropping its session (the
    /// handle is shared, so no single owner could drop it early).
    /// Idempotent; `Drop` after it finds nothing left to do.
    pub fn close(&self) {
        self.flush();
        if self.holds_lock.swap(false, Ordering::Relaxed) {
            let _ = fs::remove_file(self.dir.join("lock"));
        }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        self.close();
    }
}

/// Whole microseconds since `t`.
fn micros(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Segment sequence number from a `seg-NNNN.log` path.
fn seg_number(path: &Path) -> Option<u32> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("seg-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Is `pid` a live process? Linux answers via `/proc`; elsewhere we
/// assume dead (a stale-looking lock is reclaimed — the single-machine,
/// Linux-first deployment makes this the pragmatic default).
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        false
    }
}

/// The kernel start time (clock ticks since boot, field 22 of
/// `/proc/<pid>/stat`) of `pid`. `None` off Linux or when the process
/// is gone. The comm field may contain spaces and parentheses, so the
/// scan anchors on the *last* `)` before splitting.
fn proc_start_time(pid: u32) -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); starttime is field 22.
    rest.split_whitespace().nth(19)?.parse().ok()
}

/// Does the process that wrote a `pid [starttime]` lock stamp still
/// exist? A live pid whose start time differs from the recorded one is
/// a *recycled* pid — the original opener is dead, so its lock is
/// stale. A stamp without a start time (pre-hardening or non-Linux)
/// falls back to the pid-only liveness check.
fn holder_is_live(pid: u32, recorded_start: Option<u64>) -> bool {
    if !pid_alive(pid) {
        return false;
    }
    match (recorded_start, proc_start_time(pid)) {
        (Some(recorded), Some(current)) => recorded == current,
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Fault;
    use std::sync::Arc;

    fn test_dir(suffix: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("padfa_store_test_{}_{suffix}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(dir: &Path) -> StoreConfig {
        StoreConfig::new(dir, "testrev")
    }

    /// Store a summary distinguishable by one flag, and read it back.
    fn put(s: &Store, key: u128, flag: bool) {
        let summary = Summary {
            has_io: flag,
            ..Summary::default()
        };
        s.put_proc(key, &summary, &[]);
    }

    fn got(s: &Store, key: u128) -> Option<bool> {
        s.get_proc(key).map(|(summary, _)| summary.has_io)
    }

    #[test]
    fn cold_put_then_warm_get_across_reopen() {
        let dir = test_dir("roundtrip");
        {
            let s = Store::open(cfg(&dir));
            assert!(s.enabled());
            put(&s, 1, true);
            put(&s, 2, false);
            assert_eq!(got(&s, 1), Some(true));
            assert!(s.take_warnings().is_empty());
        } // drop seals the segment
        let s = Store::open(cfg(&dir));
        assert_eq!(got(&s, 1), Some(true));
        assert_eq!(got(&s, 2), Some(false));
        assert_eq!(got(&s, 3), None);
        let st = s.stats();
        assert_eq!(st.hits, 2);
        assert_eq!(st.misses, 1);
        assert_eq!(st.loaded, 2);
        assert!(s.take_warnings().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_build_id_discards_segments() {
        let dir = test_dir("stale");
        {
            let s = Store::open(cfg(&dir));
            put(&s, 1, true);
        }
        let s = Store::open(StoreConfig::new(&dir, "otherrev"));
        assert_eq!(got(&s, 1), None);
        assert_eq!(s.stats().stale_segments, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A record frame with an arbitrary kind byte, as an older codec
    /// version would have written it.
    fn raw_record(kind: u8, key: u128, payload: &[u8]) -> Vec<u8> {
        let mut rec = journal::encode_record(RecordKind::Proc, key, payload);
        rec[1] = kind;
        let at = rec.len() - 8;
        rec[at..].copy_from_slice(&journal::checksum64(kind, key, payload).to_le_bytes());
        rec
    }

    #[test]
    fn previous_codec_version_segment_is_dropped_whole_as_stale() {
        for version in [2u32, 3] {
            let dir = test_dir("oldcodec");
            fs::create_dir_all(&dir).unwrap();
            // A segment from the same build under an earlier codec: a
            // valid header, then a Proc entry — at v2 among the retired
            // kind bytes (1 and 2: lattice results, 4: dependency
            // edges); at v3 on its own, its systems still tier-tagged.
            let mut header = Vec::new();
            codec::put_u32(&mut header, version);
            codec::put_str(&mut header, "testrev");
            let mut seg = journal::encode_record(RecordKind::Header, 0, &header);
            if version == 2 {
                for k in 0..100u128 {
                    seg.extend_from_slice(&raw_record(1, k, &[1, 0, 0, 0, 0, 0, 0, 0, 0, 0]));
                    seg.extend_from_slice(&raw_record(2, 1000 + k, b"region-bytes"));
                }
                seg.extend_from_slice(&raw_record(4, 8, &7u128.to_le_bytes()));
            }
            seg.extend_from_slice(&raw_record(3, 7, b"proc-bytes"));
            fs::write(dir.join("seg-0000.log"), &seg).unwrap();

            let s = Store::open(cfg(&dir));
            assert!(s.enabled());
            let st = s.stats();
            assert_eq!(st.stale_segments, 1, "v{version}");
            assert_eq!(st.quarantined, 0, "stale records are not corruption");
            assert_eq!(st.loaded, 0);
            assert!(s.take_warnings().is_empty());
            assert!(!dir.join("seg-0000.log").exists());
            assert_eq!(fs::read_dir(dir.join("corrupt")).unwrap().count(), 0);
            assert_eq!(got(&s, 7), None);
            // The directory is usable again at the current version.
            put(&s, 7, true);
            drop(s);
            let s = Store::open(cfg(&dir));
            assert_eq!(got(&s, 7), Some(true));
            assert_eq!(s.stats().stale_segments, 0);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn torn_write_leaves_salvageable_tail() {
        let dir = test_dir("torn");
        {
            // Fault on the 4th write op: header + two entries land, the
            // third entry is torn mid-record.
            let faults = FaultPlan::at(StoreFault::TornWrite, 4);
            let s = Store::open(cfg(&dir).with_faults(faults));
            put(&s, 1, true);
            put(&s, 2, false);
            put(&s, 3, true);
            let warnings = s.take_warnings();
            assert_eq!(warnings.len(), 1);
            assert!(matches!(warnings[0], StoreError::Io { op: "append", .. }));
            assert!(s.stats().writes_degraded);
            // Reads keep working after write degradation.
            assert_eq!(got(&s, 1), Some(true));
        }
        // Reopen: the two complete records are salvaged, the torn tail
        // is quarantined, and analysis-visible state is sound.
        let s = Store::open(cfg(&dir));
        assert_eq!(got(&s, 1), Some(true));
        assert_eq!(got(&s, 2), Some(false));
        assert_eq!(got(&s, 3), None);
        let st = s.stats();
        assert_eq!(st.salvaged, 2);
        assert!(st.quarantined >= 1);
        let warnings = s.take_warnings();
        assert!(warnings
            .iter()
            .any(|w| matches!(w, StoreError::Corrupt { .. })));
        // The quarantine sidecar exists.
        let corrupt_files = fs::read_dir(dir.join("corrupt")).unwrap().count();
        assert!(corrupt_files >= 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A sleeper that records each backoff instead of sleeping, so retry
    /// behavior is asserted on a deterministic clock.
    fn recording_sleeper() -> (Sleeper, Arc<Mutex<Vec<Duration>>>) {
        let log: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        let sleeper: Sleeper = Arc::new(move |d| lock(&sink).push(d));
        (sleeper, log)
    }

    #[test]
    fn transient_write_fail_is_retried_and_recovered() {
        let dir = test_dir("wretry");
        let (sleeper, slept) = recording_sleeper();
        {
            // One injected failure on op 2: the retry (op 3) succeeds, so
            // persistence survives with only a backoff and a counter.
            let s = Store::open(
                cfg(&dir)
                    .with_faults(FaultPlan::at(StoreFault::WriteFail, 2))
                    .with_sleeper(sleeper),
            );
            put(&s, 1, true);
            put(&s, 2, false);
            let st = s.stats();
            assert!(!st.writes_degraded, "one transient fault must not degrade");
            assert_eq!(st.retries, 1);
            assert!(s.take_warnings().is_empty());
        }
        assert_eq!(lock(&slept).as_slice(), &[Duration::from_millis(10)]);
        // The retried record really reached disk.
        let s = Store::open(cfg(&dir));
        assert_eq!(got(&s, 1), Some(true));
        assert_eq!(got(&s, 2), Some(false));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_write_fail_exhausts_retries_then_degrades() {
        let dir = test_dir("wfail");
        let (sleeper, slept) = recording_sleeper();
        // Ops 2, 3, 4 all fail: attempts exhaust (max_attempts = 3) and
        // writes degrade exactly as an un-retried store used to.
        let faults = FaultPlan::at(StoreFault::WriteFail, 2)
            .with(Fault {
                at: 3,
                kind: StoreFault::WriteFail,
            })
            .with(Fault {
                at: 4,
                kind: StoreFault::WriteFail,
            });
        let s = Store::open(cfg(&dir).with_faults(faults).with_sleeper(sleeper));
        put(&s, 1, true); // header (op 1) + entry (ops 2-4 fail)
        let st = s.stats();
        assert!(st.writes_degraded);
        assert!(!st.degraded);
        assert_eq!(st.retries, 2);
        // Exponential backoff: 10ms then 20ms.
        assert_eq!(
            lock(&slept).as_slice(),
            &[Duration::from_millis(10), Duration::from_millis(20)]
        );
        // The in-memory index still serves the entry this session.
        assert_eq!(got(&s, 1), Some(true));
        let warnings = s.take_warnings();
        assert_eq!(warnings.len(), 1);
        assert!(matches!(warnings[0], StoreError::Io { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_read_fail_is_retried_and_recovered() {
        let dir = test_dir("rretry");
        {
            let s = Store::open(cfg(&dir));
            put(&s, 1, true);
        }
        let (sleeper, slept) = recording_sleeper();
        let s = Store::open(
            cfg(&dir)
                .with_faults(FaultPlan::at(StoreFault::ReadFail, 1))
                .with_sleeper(sleeper),
        );
        assert!(s.enabled(), "one transient read fault must not disable");
        assert_eq!(got(&s, 1), Some(true));
        assert_eq!(s.stats().retries, 1);
        assert_eq!(lock(&slept).len(), 1);
        assert!(s.take_warnings().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_fail_burst_disables_store() {
        let dir = test_dir("rfail");
        {
            let s = Store::open(cfg(&dir));
            put(&s, 1, true);
        }
        // Every attempt of the first read fails: retries exhaust and the
        // store degrades to in-memory-only, exactly as before retries.
        let faults = FaultPlan::at(StoreFault::ReadFail, 1)
            .with(Fault {
                at: 2,
                kind: StoreFault::ReadFail,
            })
            .with(Fault {
                at: 3,
                kind: StoreFault::ReadFail,
            });
        let (sleeper, _slept) = recording_sleeper();
        let s = Store::open(cfg(&dir).with_faults(faults).with_sleeper(sleeper));
        assert!(!s.enabled());
        assert_eq!(got(&s, 1), None); // degraded: no reads served
        put(&s, 2, true); // and no writes persisted
        assert_eq!(s.stats().retries, 2);
        let warnings = s.take_warnings();
        assert_eq!(warnings.len(), 1);
        assert!(matches!(warnings[0], StoreError::Io { op: "read", .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_policy_backoff_doubles_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(40));
        assert_eq!(p.backoff(30), Duration::from_millis(1000)); // capped
        assert_eq!(RetryPolicy::none().backoff(1), Duration::ZERO);
    }

    #[test]
    fn retry_none_degrades_on_first_failure() {
        let dir = test_dir("wnone");
        let s = Store::open(
            cfg(&dir)
                .with_faults(FaultPlan::at(StoreFault::WriteFail, 2))
                .with_retry(RetryPolicy::none()),
        );
        put(&s, 1, true);
        let st = s.stats();
        assert!(st.writes_degraded);
        assert_eq!(st.retries, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflip_quarantines_and_recovers() {
        let dir = test_dir("bitflip");
        {
            let s = Store::open(cfg(&dir));
            for k in 0..20u128 {
                put(&s, k, true);
            }
        }
        let s = Store::open(cfg(&dir).with_faults(FaultPlan::at(StoreFault::BitFlip, 1)));
        assert!(s.enabled());
        let reads: Vec<Option<bool>> = (0..20u128).map(|k| got(&s, k)).collect();
        assert!(!reads.contains(&Some(false)), "a corrupt entry was served");
        let served = reads.iter().filter(|r| **r == Some(true)).count();
        // One record was corrupted. A broken frame or header is caught
        // at open (quarantined, or the segment is stale); a flipped
        // payload or checksum when the entry is read. A flipped key
        // files the record under a key no procedure has — this seed's
        // case: its own key misses and nothing ever reads the stray
        // record. Either way the store stays sound and usable.
        let st = s.stats();
        assert!(served >= 19 || st.stale_segments == 1);
        assert!(st.quarantined >= 1 || st.stale_segments >= 1 || served == 19);
        put(&s, 99, false);
        assert_eq!(got(&s, 99), Some(false));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flip one bit of the `kind` record keyed `key` in a segment file:
    /// in its first payload byte, or in its last checksum byte.
    fn flip_on_disk(path: &Path, kind: RecordKind, key: u128, in_payload: bool) {
        let mut bytes = fs::read(path).unwrap();
        let frame = journal::scan(&bytes)
            .frames
            .into_iter()
            .find(|f| f.kind == kind && f.key == key)
            .unwrap();
        let at = if in_payload {
            frame.payload.start
        } else {
            frame.span().end - 1
        };
        bytes[at] ^= 0x04;
        fs::write(path, bytes).unwrap();
    }

    #[test]
    fn entry_bitflip_is_caught_when_read_not_at_open() {
        let dir = test_dir("deferred");
        {
            let s = Store::open(cfg(&dir));
            put(&s, 1, true); // A
            put(&s, 2, false); // B
        }
        flip_on_disk(&dir.join("seg-0000.log"), RecordKind::Proc, 2, true);
        {
            let s = Store::open(cfg(&dir));
            assert_eq!(s.stats().quarantined, 0, "entries are not checked at open");
            assert!(s.take_warnings().is_empty());
            assert_eq!(got(&s, 1), Some(true));
            assert_eq!(got(&s, 2), None);
            let st = s.stats();
            assert_eq!((st.quarantined, st.hits, st.misses), (1, 1, 1));
            let warnings = s.take_warnings();
            assert!(matches!(warnings[..], [StoreError::Corrupt { .. }]));
        } // seals the tombstone the miss appended
        let s = Store::open(cfg(&dir));
        assert_eq!(got(&s, 2), None);
        assert_eq!(got(&s, 1), Some(true));
        assert_eq!(s.stats().quarantined, 0, "the tombstone hides B silently");
        assert!(s.take_warnings().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_tombstone_or_header_is_caught_at_open() {
        let dir = test_dir("openchecks");
        {
            let s = Store::open(cfg(&dir));
            put(&s, 7, true);
            put(&s, 8, true);
        }
        {
            let s = Store::open(cfg(&dir));
            s.append(RecordKind::Tombstone, 7, &[]);
        }
        // A tombstone decides what the index holds: checked at open.
        flip_on_disk(&dir.join("seg-0001.log"), RecordKind::Tombstone, 7, false);
        {
            let s = Store::open(cfg(&dir));
            assert_eq!(s.stats().quarantined, 1);
            assert!(matches!(
                s.take_warnings()[..],
                [StoreError::Corrupt { .. }]
            ));
        }
        // So does a header: a segment whose header fails is stale whole.
        flip_on_disk(&dir.join("seg-0000.log"), RecordKind::Header, 0, true);
        let s = Store::open(cfg(&dir));
        assert_eq!(s.stats().stale_segments, 1);
        assert!(!dir.join("seg-0000.log").exists());
        assert_eq!(got(&s, 8), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_foreign_lock_degrades_opener() {
        let dir = test_dir("lock");
        fs::create_dir_all(&dir).unwrap();
        // PID 1 is alive on any Linux box and is never us.
        fs::write(dir.join("lock"), "1\n").unwrap();
        let b = Store::open(cfg(&dir));
        if cfg!(target_os = "linux") {
            assert!(!b.enabled());
            let warnings = b.take_warnings();
            assert!(matches!(warnings[0], StoreError::Locked { pid: 1, .. }));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_releases_the_lock() {
        let dir = test_dir("unlock");
        {
            let a = Store::open(cfg(&dir));
            assert!(a.enabled());
            assert!(dir.join("lock").exists());
        }
        assert!(!dir.join("lock").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn close_does_what_drop_does_once() {
        let dir = test_dir("close");
        let a = Store::open(cfg(&dir));
        put(&a, 1, true);
        a.close();
        assert!(!dir.join("lock").exists());
        assert!(dir.join("seg-0000.log").exists());
        assert!(!dir.join("active.tmp").exists());
        // The next opener owns the directory now; closing again, or the
        // late drop, must leave its lock alone and seal nothing more.
        fs::write(dir.join("lock"), "1\n").unwrap();
        a.close();
        drop(a);
        assert!(dir.join("lock").exists());
        assert!(!dir.join("seg-0001.log").exists());
        fs::remove_file(dir.join("lock")).unwrap();
        let b = Store::open(cfg(&dir));
        assert_eq!(got(&b, 1), Some(true));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_from_dead_pid_is_reclaimed() {
        let dir = test_dir("stalelock");
        fs::create_dir_all(&dir).unwrap();
        // PID 4294967294 is not a live process.
        fs::write(dir.join("lock"), "4294967294\n").unwrap();
        let s = Store::open(cfg(&dir));
        assert!(s.enabled());
        assert!(s.take_warnings().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recycled_pid_lock_is_reclaimed() {
        if proc_start_time(1).is_none() {
            return; // no /proc: pid-only liveness is the best we can do
        }
        let dir = test_dir("recycledlock");
        fs::create_dir_all(&dir).unwrap();
        // PID 1 is alive, but the recorded start time belongs to a dead
        // opener whose pid was recycled — the lock must be reclaimed.
        fs::write(dir.join("lock"), "1 12345\n").unwrap();
        let s = Store::open(cfg(&dir));
        assert!(s.enabled());
        assert!(s.take_warnings().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn matching_start_time_lock_still_refuses() {
        let Some(start) = proc_start_time(1) else {
            return;
        };
        let dir = test_dir("samestartlock");
        fs::create_dir_all(&dir).unwrap();
        // Same pid AND same start time: genuinely the same live process.
        fs::write(dir.join("lock"), format!("1 {start}\n")).unwrap();
        let s = Store::open(cfg(&dir));
        assert!(!s.enabled());
        let warnings = s.take_warnings();
        assert!(matches!(warnings[0], StoreError::Locked { pid: 1, .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn own_lock_stamp_includes_start_time() {
        let dir = test_dir("ownstamp");
        let s = Store::open(cfg(&dir));
        assert!(s.enabled());
        let text = fs::read_to_string(dir.join("lock")).unwrap();
        let mut words = text.split_whitespace();
        assert_eq!(
            words.next().and_then(|w| w.parse::<u32>().ok()),
            Some(std::process::id())
        );
        if let Some(start) = proc_start_time(std::process::id()) {
            assert_eq!(
                words.next().and_then(|w| w.parse::<u64>().ok()),
                Some(start)
            );
        }
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_rotation_preserves_entries() {
        let dir = test_dir("rotate");
        let mut config = cfg(&dir);
        config.max_segment_bytes = 256; // force frequent rotation
        {
            let s = Store::open(config.clone());
            for k in 0..50u128 {
                put(&s, k, k % 2 == 0);
            }
        }
        let segs = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("seg-")
            })
            .count();
        assert!(segs > 1, "rotation produced {segs} segment(s)");
        let s = Store::open(config);
        for k in 0..50u128 {
            assert_eq!(got(&s, k), Some(k % 2 == 0), "key {k}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tombstones_survive_reopen() {
        let dir = test_dir("tombstone");
        {
            let s = Store::open(cfg(&dir));
            put(&s, 7, true);
        }
        {
            let s = Store::open(cfg(&dir));
            assert_eq!(got(&s, 7), Some(true));
            // Manually tombstone via the corrupt-entry path equivalent.
            s.append(RecordKind::Tombstone, 7, &[]);
            write(&s.index).remove(&7);
        }
        let s = Store::open(cfg(&dir));
        assert_eq!(got(&s, 7), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_is_shareable_across_threads() {
        let dir = test_dir("threads");
        let s = Arc::new(Store::open(cfg(&dir)));
        let handles: Vec<_> = (0..4u128)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for k in 0..25u128 {
                        put(&s, t * 1000 + k, true);
                    }
                })
            })
            .collect();
        for h in handles {
            let _ = h.join();
        }
        for t in 0..4u128 {
            for k in 0..25u128 {
                assert_eq!(got(&s, t * 1000 + k), Some(true));
            }
        }
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }
}
