//! Crash-safe persistent store of procedure summaries.
//!
//! A content-addressed on-disk cache with one entry kind: the Merkle
//! key of a procedure ([`hash::proc_key`]) maps to its interprocedural
//! [`Summary`] plus the [`LoopReport`]s derived while building it — the
//! paper's unit of reuse. The driver ([`crate::analyze`]) looks a
//! procedure up before summarizing it and writes the result back; a warm
//! store lets a rerun skip the analysis of every unchanged procedure
//! while producing **bit-identical** output. Lattice queries are never
//! persisted: computing one is cheaper than reading a record back.
//!
//! An entry holds what its writer's readers needed ([`Parts`]): the
//! summary only if something read it, the reports' evidence only if the
//! session built it. [`Store::get_proc`] serves a reader only from an
//! entry that holds at least what it needs.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/
//!   <build_id>/                   this build's entries
//!     <key:032x>                  one checksummed frame (journal::encode)
//!     <key:032x>.<pid>.<n>.tmp    a write in progress, or one a crash cut
//!   corrupt/                      quarantined entries (made when needed)
//! ```
//!
//! The build directory is named by [`crate::BUILD_ID`], a hash of the
//! analyzing crates' sources, so no process reads another build's results
//! (they could legitimately differ). [`Store::open`] creates it and
//! removes as stale every sibling the store recognizes as its own —
//! another build's directory, and the files of the journal layout used up
//! to codec v4 (`seg-*.log`, `active.tmp`, `salvage.tmp`, `lock`). It
//! reads no entry.
//!
//! [`Store::put_proc`] writes the frame under a temporary name unique to
//! the process and renames it over `<key:032x>`, so a reader finds the
//! old file, the new one, or none — never part of one. [`Store::get_proc`]
//! reads exactly the file it asks for and checks it ([`journal::open`])
//! before decoding. Nothing is written in place, so there is no lock: two
//! processes on one directory both persist, and two writers of one key
//! each rename a complete, checksummed file.
//!
//! Nothing is fsynced: a cache needs no durability, only never to serve
//! a wrong byte. If a power loss keeps a name whose bytes never reached
//! the disk, the frame check rejects the file, which is quarantined and
//! recomputed like any corrupt entry.
//!
//! ## Failure model — an accelerator, never an authority
//!
//! The store can *never* fail an analysis run or change its output:
//!
//! * an entry that fails its frame check or its decode → the file moves
//!   into `corrupt/`, is counted and reported as a typed
//!   [`StoreError::Corrupt`] warning, and the key falls through to
//!   recomputation, whose put replaces the file;
//! * a torn write (a crash mid-write) leaves only a temporary file that
//!   nothing reads: its key is missing, not corrupt;
//! * an IO error on open, or on a read that outlasts its retries → the
//!   store disables itself ([`StoreError::Io`] warning) and the session
//!   runs in-memory-only;
//! * an IO error on a write that outlasts its retries → persistence stops
//!   ([`StoreError::Io`] warning) while reads keep serving.
//!
//! Every failure path is exercised deterministically by a
//! [`FaultPlan`] of [`StoreFault`]s (`--inject store-write-fail`,
//! `store-read-fail`, `store-torn-write`, `store-bitflip`), counted per
//! entry file: read op N is the N-th entry-file read, write op N the N-th
//! entry-file write, retries included.
//!
//! ## Invalidation
//!
//! Keys are Merkle-style over procedure IR ([`hash::proc_key`]), so an
//! edited procedure *automatically* misses along with every transitive
//! caller, and every other procedure keeps hitting. Entries an edit
//! orphans stay on disk until the build changes and their directory goes
//! stale.

pub mod codec;
pub mod faults;
pub mod hash;
pub mod journal;

pub use codec::{Parts, ProcEntry};
pub use faults::StoreFault;
pub use hash::{hash_procedure, options_fingerprint, proc_key, CODEC_VERSION, UNDEFINED_CALLEE};

use crate::error::StoreError;
use crate::faults::FaultPlan;
use crate::flight::{self, EventKind};
use crate::report::LoopReport;
use crate::summary::Summary;
use padfa_omega::sync::lock;
use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
    /// Build identity naming the directory this store's entries live in;
    /// other builds' directories are removed as stale. Production passes
    /// [`crate::BUILD_ID`].
    pub build_id: String,
    /// Deterministic IO fault plan (empty in production).
    pub faults: FaultPlan<StoreFault>,
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
/// comparable as a whole: `open_us` and `put_us` are wall-clock times.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStatsSnapshot {
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that fell through to recomputation.
    pub misses: u64,
    /// Entries written back this session.
    pub puts: u64,
    /// Entry files moved to `corrupt/`.
    pub quarantined: u64,
    /// Other builds' directories and old-layout files removed at open.
    pub stale: u64,
    /// Retry attempts performed against transient IO errors (each one
    /// either recovered persistence or counted toward giving up).
    pub retries: u64,
    /// Wall time spent in [`Store::open`] (the stale sweep).
    pub open_us: u64,
    /// Wall time spent writing entries: write and rename.
    pub put_us: u64,
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

/// The live counters behind [`StoreStatsSnapshot`], plus the fault
/// plan's op numbers.
#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    quarantined: AtomicU64,
    stale: AtomicU64,
    retries: AtomicU64,
    open_us: AtomicU64,
    put_us: AtomicU64,
    /// Entry-file read and write attempts so far.
    read_ops: AtomicU64,
    write_ops: AtomicU64,
}

/// Numbers this process's temporary and quarantined files, so two
/// handles in one process never pick the same name.
static FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// The persistent summary store. Cheap shared handle: wrap in `Arc` and
/// clone across sessions/threads; all mutation is interior.
pub struct Store {
    dir: PathBuf,
    /// `<dir>/<build_id>`: one file per entry.
    entries: PathBuf,
    faults: FaultPlan<StoreFault>,
    retry: RetryPolicy,
    sleeper: Sleeper,
    /// Full degrade: serve nothing, persist nothing.
    disabled: AtomicBool,
    /// Write-side degrade: keep serving entries, stop persisting.
    writes_disabled: AtomicBool,
    warnings: Mutex<Vec<StoreError>>,
    n: Counters,
}

impl Store {
    /// Open (or create) the store at `config.dir`. Infallible by design:
    /// any failure yields a disabled store plus typed warnings, never an
    /// error the analysis has to handle.
    pub fn open(config: StoreConfig) -> Store {
        let started = Instant::now();
        let store = Store {
            entries: config.dir.join(&config.build_id),
            dir: config.dir,
            faults: config.faults,
            retry: RetryPolicy {
                max_attempts: config.retry.max_attempts.max(1),
                ..config.retry
            },
            sleeper: config
                .sleeper
                .unwrap_or_else(|| Arc::new(|d: Duration| std::thread::sleep(d))),
            disabled: AtomicBool::new(false),
            writes_disabled: AtomicBool::new(false),
            warnings: Mutex::new(Vec::new()),
            n: Counters::default(),
        };
        if let Err(e) = store.sweep() {
            store.disable(e);
        }
        store.n.open_us.store(micros(started), Ordering::Relaxed);
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
        flight::instant(EventKind::StoreDegraded, &e.to_string(), 1);
        lock(&self.warnings).push(e);
    }

    fn disable(&self, e: StoreError) {
        self.disabled.store(true, Ordering::Relaxed);
        self.warn(e);
    }

    /// Drain the typed warnings accumulated so far (drivers print them).
    pub fn take_warnings(&self) -> Vec<StoreError> {
        std::mem::take(&mut lock(&self.warnings))
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> StoreStatsSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StoreStatsSnapshot {
            hits: get(&self.n.hits),
            misses: get(&self.n.misses),
            puts: get(&self.n.puts),
            quarantined: get(&self.n.quarantined),
            stale: get(&self.n.stale),
            retries: get(&self.n.retries),
            open_us: get(&self.n.open_us),
            put_us: get(&self.n.put_us),
            degraded: self.disabled.load(Ordering::Relaxed),
            writes_degraded: self.writes_disabled.load(Ordering::Relaxed),
        }
    }

    /// Create the build directory and remove every stale sibling.
    fn sweep(&self) -> Result<(), StoreError> {
        fs::create_dir_all(&self.entries).map_err(|e| io_error("open", &self.entries, e))?;
        let siblings = fs::read_dir(&self.dir).map_err(|e| io_error("open", &self.dir, e))?;
        for sibling in siblings {
            let sibling = sibling.map_err(|e| io_error("open", &self.dir, e))?;
            let path = sibling.path();
            if path == self.entries || sibling.file_name() == "corrupt" || !is_store_litter(&path) {
                continue;
            }
            let removed = if path.is_dir() {
                fs::remove_dir_all(&path)
            } else {
                fs::remove_file(&path)
            };
            if removed.is_ok() {
                bump(&self.n.stale, 1);
            }
        }
        Ok(())
    }

    fn entry_path(&self, key: u128) -> PathBuf {
        self.entries.join(format!("{key:032x}"))
    }

    /// Run `attempt` — one entry-file read or write, given its op number
    /// — until it succeeds or [`RetryPolicy::max_attempts`] attempts have
    /// failed. Every attempt advances `ops`, so a single armed fault is
    /// survived while a burst of `max_attempts` consecutive faults is not.
    fn retrying<T>(
        &self,
        ops: &AtomicU64,
        what: &'static str,
        mut attempt: impl FnMut(u64) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut n = 0u32;
        loop {
            n += 1;
            match attempt(bump(ops, 1)) {
                Err(_) if n < self.retry.max_attempts => {
                    bump(&self.n.retries, 1);
                    flight::instant(EventKind::StoreRetry, what, n.into());
                    (self.sleeper)(self.retry.backoff(n));
                }
                done => return done,
            }
        }
    }

    // --------------------------------------------------------------
    // Reads
    // --------------------------------------------------------------

    /// The entry of the procedure keyed `key`, if it holds what `need`
    /// asks for; a hit skips the procedure's analysis entirely. The
    /// entry file is read, checked against `key` and decoded here, on
    /// every call. A hit returns exactly what the reader needs: a summary
    /// or evidence it did not ask for is dropped, so its output is the
    /// storeless run's. An entry holding less is a miss, not corruption;
    /// the recomputation's put replaces it.
    pub fn get_proc(&self, key: u128, need: Parts) -> Option<ProcEntry> {
        if self.disabled.load(Ordering::Relaxed) {
            return None;
        }
        let path = self.entry_path(key);
        let entry = match self.read_entry(&path) {
            Ok(bytes) => bytes.and_then(|bytes| {
                journal::open(&bytes, key)
                    .and_then(|p| codec::decode_proc_entry(p).ok_or("undecodable proc entry"))
                    .map_err(|detail| self.quarantine(key, &path, detail))
                    .ok()
            }),
            Err(e) => {
                self.disable(e);
                None
            }
        };
        match entry {
            Some(mut entry) if entry.parts().covers(need) => {
                bump(&self.n.hits, 1);
                if !need.summary {
                    entry.summary = None;
                }
                if !need.evidence {
                    for rep in &mut entry.reports {
                        rep.provenance = None;
                    }
                }
                Some(entry)
            }
            _ => {
                bump(&self.n.misses, 1);
                None
            }
        }
    }

    /// The bytes of one entry file (`None` when there is none), with
    /// read-side faults applied and transient failures retried.
    fn read_entry(&self, path: &Path) -> Result<Option<Vec<u8>>, StoreError> {
        self.retrying(&self.n.read_ops, "read", |op| {
            let fault = self.faults.armed(op).copied().find(|k| !k.is_write());
            if fault == Some(StoreFault::ReadFail) {
                return Err(io_error("read", path, "injected read failure"));
            }
            match fs::read(path) {
                Ok(mut bytes) => {
                    if fault == Some(StoreFault::BitFlip) {
                        // Silent corruption, not an error: the frame
                        // check catches it, retrying is pointless.
                        faults::flip_bit(&mut bytes, op);
                    }
                    Ok(Some(bytes))
                }
                Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
                Err(e) => Err(io_error("read", path, e)),
            }
        })
    }

    /// Move an entry file that failed its check or its decode into
    /// `corrupt/` (made on first use) and record the typed warning. The
    /// key then misses, and the put of its recomputation replaces it.
    fn quarantine(&self, key: u128, path: &Path, detail: &str) {
        bump(&self.n.quarantined, 1);
        flight::instant(EventKind::StoreQuarantined, detail, 1);
        let corrupt = self.dir.join("corrupt");
        let seq = bump(&FILE_SEQ, 1);
        let target = corrupt.join(format!("{key:032x}.{}.{seq}", std::process::id()));
        if fs::create_dir_all(&corrupt)
            .and_then(|()| fs::rename(path, &target))
            .is_err()
        {
            let _ = fs::remove_file(path); // never read it again
        }
        self.warn(StoreError::Corrupt {
            path: format!("{} -> {}", path.display(), target.display()),
            detail: detail.to_string(),
        });
    }

    // --------------------------------------------------------------
    // Writes
    // --------------------------------------------------------------

    /// Persist one procedure's entry: its summary, when one was folded,
    /// and its reports. When this returns the entry is complete under its
    /// name, or persistence has stopped with a warning. Real and injected
    /// errors take the same path; a torn write models a crash, so it is
    /// never retried.
    pub fn put_proc(&self, key: u128, summary: Option<&Summary>, reports: &[LoopReport]) {
        if self.disabled.load(Ordering::Relaxed) {
            return;
        }
        bump(&self.n.puts, 1);
        if self.writes_disabled.load(Ordering::Relaxed) {
            return;
        }
        let frame = journal::encode(key, &codec::encode_proc_entry(summary, reports));
        let path = self.entry_path(key);
        let seq = bump(&FILE_SEQ, 1);
        let tmp = self
            .entries
            .join(format!("{key:032x}.{}.{seq}.tmp", std::process::id()));
        let started = Instant::now();
        // The outer error is retried; the inner one, a crash, is not.
        let written = self.retrying(&self.n.write_ops, "write", |op| {
            match self.faults.armed(op).copied().find(|k| k.is_write()) {
                Some(StoreFault::WriteFail) => {
                    Err(io_error("write", &path, "injected write failure"))
                }
                Some(StoreFault::TornWrite) => {
                    // Half the frame reaches the temporary file, then the
                    // "process" dies: nothing ever reads the temporary.
                    let _ = fs::write(&tmp, &frame[..frame.len() / 2]);
                    let torn = "injected torn write (crash mid-write)";
                    Ok(Err(io_error("write", &path, torn)))
                }
                _ => install(&tmp, &path, &frame)
                    .map(Ok)
                    .map_err(|e| io_error("write", &path, e)),
            }
        });
        bump(&self.n.put_us, micros(started));
        if let Err(e) = written.flatten() {
            self.writes_disabled.store(true, Ordering::Relaxed);
            self.warn(e);
        }
    }
}

/// The warning for a failed (or an injected) IO operation.
fn io_error(op: &'static str, path: &Path, msg: impl std::fmt::Display) -> StoreError {
    StoreError::Io {
        op,
        path: path.display().to_string(),
        msg: msg.to_string(),
    }
}

/// Write `bytes` to `tmp` and rename it to `path`. A failed attempt
/// removes its temporary.
fn install(tmp: &Path, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let done = fs::write(tmp, bytes).and_then(|()| fs::rename(tmp, path));
    if done.is_err() {
        let _ = fs::remove_file(tmp);
    }
    done
}

/// Is `path`, a sibling of the build directory, something a store wrote:
/// another build's directory (entry-named files only), or a file of the
/// journal layout? Anything else in the store directory is left alone.
fn is_store_litter(path: &Path) -> bool {
    if path.is_dir() {
        return fs::read_dir(path).is_ok_and(|mut files| {
            files.all(|f| f.is_ok_and(|f| is_entry_name(&f.file_name().to_string_lossy())))
        });
    }
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    matches!(&*name, "active.tmp" | "salvage.tmp" | "lock")
        || (name.starts_with("seg-") && name.ends_with(".log"))
}

/// `<key:032x>`, bare or with the suffix of a temporary.
fn is_entry_name(name: &str) -> bool {
    let stem = name.split('.').next().unwrap_or_default();
    stem.len() == 32 && stem.bytes().all(|b| b.is_ascii_hexdigit())
}

/// Add `by` to `c`; the new value.
fn bump(c: &AtomicU64, by: u64) -> u64 {
    c.fetch_add(by, Ordering::Relaxed) + by
}

/// Whole microseconds since `t`.
fn micros(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Fault;

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
        s.put_proc(key, Some(&summary), &[]);
    }

    const SUMMARY: Parts = Parts {
        summary: true,
        evidence: false,
    };

    fn got(s: &Store, key: u128) -> Option<bool> {
        s.get_proc(key, SUMMARY)
            .and_then(|entry| entry.summary)
            .map(|summary| summary.has_io)
    }

    /// The names under `dir`, sorted.
    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .map(|it| {
                it.map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
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
        }
        assert_eq!(
            names(&dir.join("testrev")),
            [format!("{:032x}", 1), format!("{:032x}", 2)]
        );
        let s = Store::open(cfg(&dir));
        assert_eq!(got(&s, 1), Some(true));
        assert_eq!(got(&s, 2), Some(false));
        assert_eq!(got(&s, 3), None);
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.puts, st.stale), (2, 1, 0, 0));
        assert!(s.take_warnings().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_entry_holding_less_misses() {
        let dir = test_dir("parts");
        let s = Store::open(cfg(&dir));
        // No summary; no loops, so no evidence is missing.
        s.put_proc(1, None, &[]);
        let both = Parts {
            summary: true,
            evidence: true,
        };
        assert!(s.get_proc(1, both).is_none());
        assert!(s.get_proc(1, Parts::default()).is_some());
        // A summary the reader did not ask for is dropped.
        put(&s, 2, true);
        let entry = s
            .get_proc(2, Parts::default())
            .expect("a full entry serves a reader needing nothing");
        assert_eq!(entry.summary, None);
        assert_eq!(got(&s, 2), Some(true));
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.quarantined), (3, 1, 0));
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
        assert_eq!(s.stats().stale, 1);
        assert_eq!(names(&dir), ["otherrev"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn previous_codec_version_segment_is_dropped_whole_as_stale() {
        let dir = test_dir("oldcodec");
        fs::create_dir_all(dir.join("corrupt")).unwrap();
        // The journal layout of codec v4 and before, as a crashed writer
        // left it. None of it is read, none of it is corruption.
        for old in ["seg-0000.log", "seg-0001.log", "active.tmp", "lock"] {
            fs::write(dir.join(old), [0xA7, 0, 1, 2]).unwrap();
        }
        let s = Store::open(cfg(&dir));
        assert!(s.enabled());
        let st = s.stats();
        assert_eq!((st.stale, st.quarantined), (4, 0));
        assert!(s.take_warnings().is_empty());
        assert_eq!(names(&dir), ["corrupt", "testrev"]);
        // The directory is usable at the current version.
        put(&s, 7, true);
        drop(s);
        let s = Store::open(cfg(&dir));
        assert_eq!(got(&s, 7), Some(true));
        assert_eq!(s.stats().stale, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_only_what_a_store_wrote() {
        let dir = test_dir("sweep");
        let entry = format!("{:032x}", 5);
        for build in ["oldbuild", "emptybuild"] {
            fs::create_dir_all(dir.join(build)).unwrap();
        }
        fs::write(dir.join("oldbuild").join(&entry), b"x").unwrap();
        fs::write(dir.join("oldbuild").join(format!("{entry}.9.1.tmp")), b"x").unwrap();
        fs::write(dir.join("seg-0003.log"), b"x").unwrap();
        // Not the store's: a stray file and a directory holding one.
        fs::write(dir.join("notes.txt"), b"mine").unwrap();
        fs::create_dir_all(dir.join("keep")).unwrap();
        fs::write(dir.join("keep").join("data.csv"), b"mine").unwrap();
        let s = Store::open(cfg(&dir));
        assert_eq!(s.stats().stale, 3);
        assert_eq!(names(&dir), ["keep", "notes.txt", "testrev"]);
        assert_eq!(names(&dir.join("keep")), ["data.csv"]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A `lock` file of the journal layout never stops an opener: it is
    /// swept as stale, whoever wrote it.
    fn lock_file_is_swept(tag: &str, contents: &str) {
        let dir = test_dir(tag);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("lock"), contents).unwrap();
        let s = Store::open(cfg(&dir));
        assert!(s.enabled());
        assert!(s.take_warnings().is_empty());
        assert_eq!(s.stats().stale, 1);
        assert!(!dir.join("lock").exists());
        put(&s, 1, true);
        assert_eq!(got(&s, 1), Some(true));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_from_dead_pid_is_reclaimed() {
        // PID 4294967294 is not a live process.
        lock_file_is_swept("stalelock", "4294967294\n");
    }

    #[test]
    fn recycled_pid_lock_is_reclaimed() {
        // PID 1 is alive; the journal layout would have refused it.
        lock_file_is_swept("recycledlock", "1 12345\n");
    }

    #[test]
    fn torn_write_leaves_its_key_missing_not_corrupt() {
        let dir = test_dir("torn");
        {
            // Fault on the 3rd write op: two entries land, the third is
            // torn mid-frame.
            let faults = FaultPlan::at(StoreFault::TornWrite, 3);
            let s = Store::open(cfg(&dir).with_faults(faults));
            put(&s, 1, true);
            put(&s, 2, false);
            put(&s, 3, true);
            let warnings = s.take_warnings();
            assert_eq!(warnings.len(), 1);
            assert!(matches!(warnings[0], StoreError::Io { op: "write", .. }));
            assert!(s.stats().writes_degraded);
            // Reads keep working after write degradation.
            assert_eq!(got(&s, 1), Some(true));
        }
        // The torn frame sits in a temporary nothing reads.
        assert_eq!(names(&dir.join("testrev")).len(), 3);
        let s = Store::open(cfg(&dir));
        assert_eq!(got(&s, 1), Some(true));
        assert_eq!(got(&s, 2), Some(false));
        assert_eq!(got(&s, 3), None);
        assert_eq!(s.stats().quarantined, 0);
        assert!(s.take_warnings().is_empty());
        assert!(!dir.join("corrupt").exists());
        // The next run puts the key.
        put(&s, 3, true);
        assert_eq!(got(&s, 3), Some(true));
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
        // The retried entry really reached disk.
        let s = Store::open(cfg(&dir));
        assert_eq!(got(&s, 1), Some(true));
        assert_eq!(got(&s, 2), Some(false));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_write_fail_exhausts_retries_then_degrades() {
        let dir = test_dir("wfail");
        let (sleeper, slept) = recording_sleeper();
        // Ops 1, 2, 3 all fail: attempts exhaust (max_attempts = 3) and
        // writes degrade exactly as an un-retried store used to.
        let faults = FaultPlan::at(StoreFault::WriteFail, 1)
            .with(Fault {
                at: 2,
                kind: StoreFault::WriteFail,
            })
            .with(Fault {
                at: 3,
                kind: StoreFault::WriteFail,
            });
        let s = Store::open(cfg(&dir).with_faults(faults).with_sleeper(sleeper));
        put(&s, 1, true);
        let st = s.stats();
        assert!(st.writes_degraded);
        assert!(!st.degraded);
        assert_eq!(st.retries, 2);
        // Exponential backoff: 10ms then 20ms.
        assert_eq!(
            lock(&slept).as_slice(),
            &[Duration::from_millis(10), Duration::from_millis(20)]
        );
        // Nothing was persisted; reads still serve, and miss.
        assert_eq!(got(&s, 1), None);
        assert!(s.enabled());
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
        assert_eq!(got(&s, 1), Some(true));
        assert!(s.enabled(), "one transient read fault must not disable");
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
        assert!(s.enabled(), "opening reads nothing");
        assert_eq!(got(&s, 1), None);
        assert!(!s.enabled());
        assert_eq!(got(&s, 1), None); // degraded: no reads served
        put(&s, 2, true); // and no writes persisted
        assert!(!dir.join("testrev").join(format!("{:032x}", 2)).exists());
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
                .with_faults(FaultPlan::at(StoreFault::WriteFail, 1))
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
        // Read op 1 is the first get's: key 0's bytes arrive flipped.
        let s = Store::open(cfg(&dir).with_faults(FaultPlan::at(StoreFault::BitFlip, 1)));
        let reads: Vec<Option<bool>> = (0..20u128).map(|k| got(&s, k)).collect();
        assert_eq!(reads[0], None);
        assert!(reads[1..].iter().all(|r| *r == Some(true)));
        let st = s.stats();
        assert_eq!((st.quarantined, st.hits, st.misses), (1, 19, 1));
        assert!(matches!(
            s.take_warnings()[..],
            [StoreError::Corrupt { .. }]
        ));
        assert_eq!(names(&dir.join("corrupt")).len(), 1);
        // Recomputing puts the key back.
        put(&s, 0, true);
        assert_eq!(got(&s, 0), Some(true));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_bitflip_is_caught_when_read_not_at_open() {
        let dir = test_dir("deferred");
        {
            let s = Store::open(cfg(&dir));
            put(&s, 1, true); // A
            put(&s, 2, false); // B
        }
        let b = dir.join("testrev").join(format!("{:032x}", 2));
        let mut bytes = fs::read(&b).unwrap();
        let last = bytes.len() - 9; // the payload's last byte
        bytes[last] ^= 0x04;
        fs::write(&b, bytes).unwrap();
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
        }
        // B's file moved to `corrupt/`: it misses silently from now on.
        assert!(!b.exists());
        let s = Store::open(cfg(&dir));
        assert_eq!(got(&s, 2), None);
        assert_eq!(got(&s, 1), Some(true));
        assert_eq!(s.stats().quarantined, 0);
        assert!(s.take_warnings().is_empty());
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

    #[test]
    fn two_handles_on_one_directory_put_and_get_the_same_keys() {
        // What two processes on one directory do, minus the processes:
        // each handle opens (and sweeps) on its own, and both write every
        // key while reading every key back.
        let dir = test_dir("twohandles");
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let s = Store::open(cfg(&dir));
                std::thread::spawn(move || {
                    for round in 0..3 {
                        for k in 0..20u128 {
                            if round > 0 {
                                let seen = got(&s, k);
                                assert!(seen.is_none() || seen == Some(k % 2 == 0), "key {k}");
                            }
                            put(&s, k, k % 2 == 0);
                        }
                    }
                    assert!(s.take_warnings().is_empty());
                    s.stats()
                })
            })
            .collect();
        for w in workers {
            let st = w.join().unwrap();
            assert_eq!((st.quarantined, st.puts), (0, 60));
            assert!(!st.degraded && !st.writes_degraded);
        }
        let s = Store::open(cfg(&dir));
        assert!((0..20u128).all(|k| got(&s, k) == Some(k % 2 == 0)));
        assert_eq!(s.stats().stale, 0);
        // Every temporary was renamed into place.
        assert_eq!(names(&dir.join("testrev")).len(), 20);
        let _ = fs::remove_dir_all(&dir);
    }
}
