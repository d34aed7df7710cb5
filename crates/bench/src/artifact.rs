//! Crash-safe artifact output shared by the bench binaries.
//!
//! Every file the harness emits (perf trajectories, lifecycle traces,
//! metrics, `--json` dumps) goes through [`atomic_write`]: the bytes
//! land in a uniquely-named temp sibling first, are flushed to stable
//! storage (`sync_all`), and are renamed into place. A process killed
//! mid-write can therefore never leave a truncated artifact at the
//! final path — readers (and the binaries' `--check` modes) see either
//! the previous complete file or the new complete file.
//!
//! Two crash-safety holes the original `<path>.tmp` staging had, both
//! closed here:
//!
//! * every writer staged into the **same** sibling name, so two
//!   concurrent workers writing one artifact interleaved their staged
//!   bytes and the survivor renamed a corrupted file into place — the
//!   temp name now carries the pid plus a per-process counter, so
//!   concurrent writers stage independently and last-rename-wins with
//!   each candidate complete;
//! * the staged bytes were never fsynced, so a power loss shortly
//!   after the rename could surface an empty (or partial) file even
//!   though the rename itself had landed — the temp file is now
//!   `sync_all`ed before the rename.
//!
//! A crash can still orphan a uniquely-named `.tmp` sibling; orphans
//! are inert (never renamed, never read), and the startup
//! [`recover_dir`] scan sweeps them (age/liveness-gated) so they don't
//! accumulate forever.
//!
//! Fault seam: [`atomic_write_with`] threads an optional
//! [`IoFaultState`] through the stage/fsync/rename steps so the
//! resilience tests can *prove* the crash-only contract — an injected
//! short write, `ENOSPC`, failed fsync, or failed rename surfaces as
//! an error with the final path untouched and the temp cleaned up.
//! [`atomic_write`] is the zero-cost common case, armed only by the
//! process-global `GRP_IOFAULT` state (off by default).

use crate::iofault::{self, IoFaultKind, IoFaultState};

use std::fs;
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Writes `contents` to `path` via write-temp-fsync-rename, creating
/// parent directories as needed. Safe to call concurrently for the
/// same path: each writer stages into its own temp file, and the final
/// path always holds one writer's complete bytes.
///
/// # Errors
///
/// Any I/O error from directory creation, the temp write/sync, or the
/// rename; on error the final path is untouched and the temp file is
/// cleaned up.
pub fn atomic_write(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    atomic_write_with(iofault::global().map(|a| a.as_ref()), path, contents)
}

/// [`atomic_write`] with an explicit I/O fault state (tests pass their
/// own so parallel tests don't share the process-global arming).
///
/// # Errors
///
/// Real I/O errors as for [`atomic_write`], plus any injected fault;
/// the crash-only contract holds either way — on error the final path
/// is untouched and the temp file is cleaned up.
pub fn atomic_write_with(
    faults: Option<&IoFaultState>,
    path: impl AsRef<Path>,
    contents: impl AsRef<[u8]>,
) -> io::Result<()> {
    let path = path.as_ref();
    let contents = contents.as_ref();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    if faults.is_some_and(|f| f.is_torn_rename()) {
        // Deliberate-bug mode (negative teeth for `check --chaos`):
        // publish a torn half-payload at the final path and report
        // success. A correct gate MUST catch this.
        return fs::write(path, &contents[..contents.len() / 2]);
    }
    let tmp = unique_tmp_path(path);
    let staged = (|| -> io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        match faults.and_then(|f| f.on_write()) {
            Some(IoFaultKind::ShortWrite) => {
                // The device takes a prefix, then fills up.
                f.write_all(&contents[..contents.len() / 2])?;
                return Err(iofault::nospace_err());
            }
            Some(_) => return Err(iofault::nospace_err()),
            None => {}
        }
        f.write_all(contents)?;
        // Flush to stable storage *before* the rename: without this, a
        // power loss after the (metadata-only) rename commits can
        // surface a zero-length file at the final path.
        if let Some(fa) = faults {
            fa.on_fsync()?;
        }
        f.sync_all()
    })();
    if let Err(e) = staged {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // Chaos-gate hold point: with GRP_IOFAULT_HOLD_MS set, the staged
    // temp file sits on disk for that long before the rename — a
    // kill-9 inside the window reliably orphans a temp for the
    // recovery gate to sweep.
    if let Some(ms) = write_hold_ms() {
        std::thread::sleep(Duration::from_millis(ms));
    }
    if let Some(fa) = faults {
        if let Err(e) = fa.on_rename() {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
    }
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// The `GRP_IOFAULT_HOLD_MS` pre-rename hold, read once per process.
fn write_hold_ms() -> Option<u64> {
    static HOLD: std::sync::OnceLock<Option<u64>> = std::sync::OnceLock::new();
    *HOLD.get_or_init(|| {
        std::env::var("GRP_IOFAULT_HOLD_MS")
            .ok()
            .and_then(|v| v.parse().ok())
    })
}

/// A temp sibling unique to this write: `<path>.<pid>.<counter>.tmp`.
/// The pid separates concurrent processes; the per-process counter
/// separates concurrent threads (and reuses nothing within a process).
pub fn unique_tmp_path(path: &Path) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.{n}.tmp", std::process::id()));
    PathBuf::from(tmp)
}

/// What a [`recover_dir`] scan swept (also counted in the telemetry
/// registry as `grp_recovery_swept_tmp_total` /
/// `grp_recovery_swept_lock_total`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Orphaned `<base>.<pid>.<counter>.tmp` staging files removed.
    pub swept_tmp: usize,
    /// Stale `<target>.lock` files (dead owner) removed.
    pub swept_lock: usize,
}

impl RecoveryReport {
    /// Merges another scan's counts into this one.
    pub fn absorb(&mut self, other: RecoveryReport) {
        self.swept_tmp += other.swept_tmp;
        self.swept_lock += other.swept_lock;
    }
}

/// Crash-recovery sweep over one directory (non-recursive): removes
/// orphaned atomic-write staging files (`<base>.<pid>.<counter>.tmp`,
/// exactly this crate's [`unique_tmp_path`] shape) and stale
/// `<target>.lock` files left by a crashed process.
///
/// A file is swept only when **both** hold: its owning pid (from the
/// temp name, or the lock file's contents) is provably not running —
/// `/proc/<pid>` absent, and never this process — **and** its mtime is
/// at least `max_age` old. The pid gate protects live writers in
/// other processes; the age gate protects against pid reuse and lets
/// callers keep a safety margin (`Duration::ZERO` sweeps every
/// dead-owner orphan immediately, the serve startup default). Files
/// whose names don't parse as this crate's shapes are never touched.
///
/// # Errors
///
/// Only a failure to list the directory; a missing directory is an
/// empty scan, and per-file races (someone else removed it first) are
/// ignored.
pub fn recover_dir(dir: &Path, max_age: Duration) -> io::Result<RecoveryReport> {
    let mut report = RecoveryReport::default();
    let entries = match fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(report),
        Err(e) => return Err(e),
    };
    let old_enough = |path: &Path| {
        fs::metadata(path)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.elapsed().ok())
            .is_some_and(|age| age >= max_age)
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        // A lock whose pid never landed (crash inside acquire) has no
        // readable owner: treat it as dead and let the age gate decide.
        let (owner, is_lock) = if let Some(pid) = tmp_owner_pid(name) {
            (Some(pid), false)
        } else if name.ends_with(".lock") {
            (lock_owner_pid(&path), true)
        } else {
            continue;
        };
        let dead = match owner {
            Some(pid) => pid != std::process::id() && !pid_alive(pid),
            None => is_lock,
        };
        if !(dead && old_enough(&path)) {
            continue;
        }
        if fs::remove_file(&path).is_ok() {
            let (slot, counter) = if is_lock {
                (&mut report.swept_lock, "grp_recovery_swept_lock_total")
            } else {
                (&mut report.swept_tmp, "grp_recovery_swept_tmp_total")
            };
            *slot += 1;
            crate::telemetry::registry().counter(counter, &[]).inc();
            crate::telemetry::log::warn(
                "recover",
                &format!(
                    "swept stale {} {}",
                    if is_lock { "lock" } else { "tmp" },
                    path.display()
                ),
            );
        }
    }
    Ok(report)
}

/// The owning pid encoded in a `<base>.<pid>.<counter>.tmp` name, or
/// `None` when the name is not this crate's staging shape.
fn tmp_owner_pid(name: &str) -> Option<u32> {
    let stem = name.strip_suffix(".tmp")?;
    let (rest, counter) = stem.rsplit_once('.')?;
    counter.parse::<u64>().ok()?;
    let (_base, pid) = rest.rsplit_once('.')?;
    pid.parse().ok()
}

/// The owning pid recorded inside a `.lock` file (see
/// [`crate::traj`]'s lock protocol), or `None` when unreadable.
fn lock_owner_pid(path: &Path) -> Option<u32> {
    fs::read_to_string(path).ok()?.trim().parse().ok()
}

/// Best-effort liveness: true when `/proc/<pid>` exists. On systems
/// without procfs every foreign pid reads as dead, and the age gate is
/// the only protection — callers there should pass a generous
/// `max_age`.
fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("grp-artifact-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Orphaned `.tmp` siblings of `path` left in its directory.
    fn orphans(path: &Path) -> Vec<PathBuf> {
        let dir = path.parent().unwrap();
        fs::read_dir(dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| p.to_string_lossy().ends_with(".tmp"))
                    .collect()
            })
            .unwrap_or_default()
    }

    #[test]
    fn writes_land_complete_and_leave_no_temp() {
        let dir = scratch("basic");
        let path = dir.join("nested/out.json");
        atomic_write(&path, "{\"v\":1}").expect("atomic write");
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"v\":1}");
        assert!(orphans(&path).is_empty(), "temp file renamed away");
        // Overwrite keeps the same guarantees.
        atomic_write(&path, "{\"v\":2}").expect("overwrite");
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        assert!(orphans(&path).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn temp_names_are_unique_per_write() {
        // Regression: every writer used to stage into the same
        // `<path>.tmp`, so two concurrent writers interleaved staged
        // bytes. Unique names make concurrent staging independent.
        let p = Path::new("/x/out.json");
        let a = unique_tmp_path(p);
        let b = unique_tmp_path(p);
        assert_ne!(a, b, "two writes never share a temp file");
        let a = a.to_string_lossy();
        assert!(a.starts_with("/x/out.json."), "{a}");
        assert!(a.ends_with(".tmp"), "{a}");
        assert!(a.contains(&std::process::id().to_string()), "{a}");
    }

    #[test]
    fn interrupted_write_leaves_previous_file_intact() {
        // Simulate a kill between the temp write and the rename: the
        // temp file exists, the final path still holds the old bytes.
        let dir = scratch("interrupted");
        let path = dir.join("out.json");
        atomic_write(&path, "old-complete").expect("first write");
        fs::write(unique_tmp_path(&path), "new-but-trunc").expect("stage temp");
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "old-complete",
            "final path never observes the staged temp"
        );
        // Later atomic_writes are oblivious to the orphan.
        atomic_write(&path, "new-complete").expect("recover");
        assert_eq!(fs::read_to_string(&path).unwrap(), "new-complete");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_same_path_writers_never_interleave() {
        // Two threads hammering one artifact path: whatever write wins,
        // the final file must be exactly one thread's complete payload
        // — never a byte-interleave of both stagings.
        let dir = scratch("stress");
        let path = dir.join("out.json");
        let payload = |t: usize, i: usize| {
            // Distinct lengths and contents per writer so an interleave
            // or truncation cannot masquerade as a valid payload.
            format!("writer-{t}:").repeat(50 + t * 17 + i % 3)
        };
        const ITERS: usize = 40;
        std::thread::scope(|s| {
            for t in 0..2 {
                let path = &path;
                let payload = &payload;
                s.spawn(move || {
                    for i in 0..ITERS {
                        atomic_write(path, payload(t, i)).expect("concurrent write");
                    }
                });
            }
        });
        let got = fs::read_to_string(&path).expect("file exists");
        let valid: Vec<String> = (0..2)
            .flat_map(|t| (0..ITERS).map(move |i| payload(t, i)))
            .collect();
        assert!(
            valid.contains(&got),
            "final contents must be one writer's complete payload (len {})",
            got.len()
        );
        assert!(orphans(&path).is_empty(), "no temp files left behind");
        let _ = fs::remove_dir_all(&dir);
    }

    use crate::iofault::{IoFaultEvent, IoFaultPlan};

    fn one_fault(kind: IoFaultKind) -> IoFaultState {
        IoFaultState::new(&IoFaultPlan::new(vec![IoFaultEvent { op: 0, kind }]))
    }

    #[test]
    fn injected_faults_never_tear_the_final_path() {
        // Every fault class: the write errors, the previous complete
        // payload survives at the final path, and no temp is left.
        for kind in [
            IoFaultKind::ShortWrite,
            IoFaultKind::WriteNoSpace,
            IoFaultKind::FsyncFail,
            IoFaultKind::RenameFail,
        ] {
            let dir = scratch(&format!("fault-{}", kind.label()));
            let path = dir.join("out.json");
            atomic_write_with(None, &path, "old-complete").expect("clean write");
            let st = one_fault(kind);
            let err = atomic_write_with(Some(&st), &path, "new-payload")
                .expect_err("armed fault surfaces as an error");
            assert!(err.to_string().contains("injected"), "{kind:?}: {err}");
            assert_eq!(st.injected(), 1, "{kind:?} fired");
            assert_eq!(
                fs::read_to_string(&path).unwrap(),
                "old-complete",
                "{kind:?}: final path untouched"
            );
            assert!(orphans(&path).is_empty(), "{kind:?}: temp cleaned up");
            // The fault is one-shot: the retry lands completely.
            atomic_write_with(Some(&st), &path, "new-payload").expect("retry succeeds");
            assert_eq!(fs::read_to_string(&path).unwrap(), "new-payload");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn zero_fault_state_is_byte_identical_to_unfaulted() {
        let dir = scratch("inert");
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        let st = IoFaultState::new(&IoFaultPlan::none());
        atomic_write_with(Some(&st), &a, "payload-bytes").expect("inert state");
        atomic_write_with(None, &b, "payload-bytes").expect("no state");
        assert_eq!(fs::read(&a).unwrap(), fs::read(&b).unwrap());
        assert_eq!(st.injected(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_rename_teeth_publish_a_torn_artifact() {
        // The deliberate-bug mode the chaos gate must catch: a half
        // payload lands at the final path and the call reports success.
        let dir = scratch("teeth");
        let path = dir.join("out.json");
        let st = IoFaultState::torn_rename();
        atomic_write_with(Some(&st), &path, "0123456789").expect("bug mode reports ok");
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "01234",
            "torn half payload"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_scan_sweeps_dead_owner_tmp_and_lock_only() {
        let dir = scratch("recover");
        fs::create_dir_all(&dir).unwrap();
        // A pid that is certainly not running (beyond default pid_max).
        let dead_pid = 4_999_999u32;
        let dead_tmp = dir.join(format!("out.json.{dead_pid}.7.tmp"));
        let live_tmp = dir.join(format!("out.json.{}.8.tmp", std::process::id()));
        let dead_lock = dir.join("BENCH_perf.json.lock");
        let artifact = dir.join("out.json");
        let odd_name = dir.join("notes.tmp"); // not the staging shape
        for (p, body) in [
            (&dead_tmp, "partial"),
            (&live_tmp, "in-flight"),
            (&dead_lock, &format!("{dead_pid}") as &str),
            (&artifact, "complete"),
            (&odd_name, "unrelated"),
        ] {
            fs::write(p, body).unwrap();
        }
        // Age gate: everything is fresh, so a generous max_age spares it.
        let spared = recover_dir(&dir, Duration::from_secs(3600)).expect("scan");
        assert_eq!(
            spared,
            RecoveryReport::default(),
            "fresh files spared by age gate"
        );
        // Zero max_age sweeps exactly the dead-owner staging + lock.
        let swept = recover_dir(&dir, Duration::ZERO).expect("scan");
        assert_eq!(
            swept,
            RecoveryReport {
                swept_tmp: 1,
                swept_lock: 1
            }
        );
        assert!(!dead_tmp.exists(), "dead-owner tmp swept");
        assert!(!dead_lock.exists(), "dead-owner lock swept");
        assert!(live_tmp.exists(), "live-owner tmp untouched");
        assert!(artifact.exists(), "published artifact untouched");
        assert!(odd_name.exists(), "non-staging .tmp name untouched");
        // Missing directory is an empty scan, not an error.
        let none = recover_dir(&dir.join("nope"), Duration::ZERO).expect("missing dir");
        assert_eq!(none, RecoveryReport::default());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_owner_pid_parses_only_the_staging_shape() {
        assert_eq!(tmp_owner_pid("out.json.1234.0.tmp"), Some(1234));
        assert_eq!(tmp_owner_pid("a.b.c.99.17.tmp"), Some(99));
        assert_eq!(tmp_owner_pid("out.json.tmp"), None);
        assert_eq!(tmp_owner_pid("out.json.x.0.tmp"), None);
        assert_eq!(tmp_owner_pid("out.json.1234.x.tmp"), None);
        assert_eq!(tmp_owner_pid("out.json"), None);
    }
}
