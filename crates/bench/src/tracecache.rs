//! On-disk cache of packed, pre-interpreted traces.
//!
//! Interpreting a kernel (setup + IR execution + hint derivation) costs
//! far more than replaying it at test scale, and the interpretation is
//! deterministic per `(kernel, scale, compiler configuration)` — so one
//! process can pay it and every later process can skip straight to
//! replay. An entry persists everything replay needs:
//!
//! * the packed trace ([`grp_cpu::PackedTrace`] disk form, which
//!   carries its own version + checksum),
//! * the **post-interpretation** functional memory image (the pointer
//!   and indirect engines read memory contents during replay, so the
//!   trace alone is not sufficient), serialized page-by-page in page-id
//!   order via [`Memory::snapshot_pages`],
//! * the heap range for the pointer base-and-bounds test.
//!
//! Entries land through [`crate::artifact::atomic_write`], so a killed
//! writer never leaves a torn entry — and every load fully validates
//! magic, version, a [`checksum64`] sum over the whole entry, and
//! structural lengths. **Any** validation failure (stale version,
//! truncation, flipped bytes, a hand-edited file) makes
//! [`TraceCache::load`] return `None`: the caller rebuilds and
//! overwrites, it never crashes and never trusts a corrupt entry.
//!
//! The cache key is `(kernel, scale, fingerprint(compiler config))`.
//! Schemes sharing a compiler configuration (7 of the 12 share "no
//! hints") share one entry. The cache does **not** fingerprint the
//! simulator build itself — it is a per-checkout scratch directory;
//! wipe it (or let `--check` style gates rebuild) after changing
//! workload or interpreter code.

use std::io;
use std::path::{Path, PathBuf};

use grp_compiler::AnalysisConfig;
use grp_cpu::{checksum64, PackedTrace};
use grp_mem::{Addr, HeapRange, Memory, PAGE_BYTES};
use grp_workloads::Scale;

/// Entry file magic: "GRPC" (GRP cache).
const MAGIC: [u8; 4] = *b"GRPC";
/// Entry format version; bump on any layout change — old entries then
/// read as stale and rebuild.
const VERSION: u32 = 2;

/// Why a cache lookup did not produce a usable entry. The label feeds
/// the `grp_tracecache_misses_total{reason=…}` counter, so each
/// corruption class is countable separately (and testable: flipping a
/// byte must increment `checksum_mismatch`, not a catch-all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissReason {
    /// No entry file for this key (a cold cache, the common miss).
    Absent,
    /// The entry exists but reading it failed (permissions, I/O).
    Io,
    /// The file does not start with the "GRPC" magic.
    BadMagic,
    /// The entry was written by a different format version.
    StaleVersion,
    /// The whole-entry checksum does not match (corrupt/torn).
    ChecksumMismatch,
    /// The payload ends before its structure says it should.
    Truncated,
    /// Unread bytes follow a structurally-complete payload.
    TrailingBytes,
    /// The embedded packed trace failed its own validation.
    BadPackedTrace,
}

impl MissReason {
    /// The metric-label form (`"checksum_mismatch"`).
    pub fn label(self) -> &'static str {
        match self {
            MissReason::Absent => "absent",
            MissReason::Io => "io",
            MissReason::BadMagic => "bad_magic",
            MissReason::StaleVersion => "stale_version",
            MissReason::ChecksumMismatch => "checksum_mismatch",
            MissReason::Truncated => "truncated",
            MissReason::TrailingBytes => "trailing_bytes",
            MissReason::BadPackedTrace => "bad_packed_trace",
        }
    }
}

/// A failed [`TraceCache::probe`]: the classified reason plus the
/// human-readable first-failure message (same text the string errors
/// carried before reasons were typed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeError {
    /// The classified failure, for counters and dispatch.
    pub reason: MissReason,
    /// The detailed message (includes the entry path from `probe`).
    pub detail: String,
}

impl ProbeError {
    fn new(reason: MissReason, detail: impl Into<String>) -> Self {
        ProbeError {
            reason,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.detail)
    }
}

impl std::error::Error for ProbeError {}

/// A directory of packed-trace cache entries.
#[derive(Debug, Clone)]
pub struct TraceCache {
    dir: PathBuf,
    /// Explicit I/O fault state for resilience tests; `None` (the
    /// default) falls back to the process-global `GRP_IOFAULT` arming.
    faults: Option<std::sync::Arc<crate::iofault::IoFaultState>>,
}

impl TraceCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            faults: None,
        }
    }

    /// Arms this cache instance with an explicit I/O fault state
    /// (tests; production uses the `GRP_IOFAULT` global).
    pub fn with_faults(mut self, faults: std::sync::Arc<crate::iofault::IoFaultState>) -> Self {
        self.faults = Some(faults);
        self
    }

    fn fault_state(&self) -> Option<&crate::iofault::IoFaultState> {
        self.faults
            .as_deref()
            .or_else(|| crate::iofault::global().map(|a| a.as_ref()))
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for one `(kernel, scale, compiler config)` key.
    pub fn entry_path(&self, kernel: &str, scale: Scale, cc: Option<&AnalysisConfig>) -> PathBuf {
        self.dir.join(format!(
            "{kernel}-{}-{:016x}.grpt",
            scale_tag(scale),
            cc_fingerprint(cc)
        ))
    }

    /// Loads a valid entry, or `None` when the entry is absent, stale,
    /// or corrupt in any way — the caller rebuilds in every `None`
    /// case. Use [`TraceCache::probe`] when the reason matters.
    ///
    /// Every call lands in the process-global metrics registry:
    /// `grp_tracecache_hits_total` on a hit,
    /// `grp_tracecache_misses_total{reason=…}` (one counter per
    /// [`MissReason`]) on a miss — and non-absent misses are logged at
    /// debug level with the full first-failure message.
    pub fn load(
        &self,
        kernel: &str,
        scale: Scale,
        cc: Option<&AnalysisConfig>,
    ) -> Option<(PackedTrace, Memory, HeapRange)> {
        let reg = crate::telemetry::registry();
        match self.probe(kernel, scale, cc) {
            Ok(entry) => {
                reg.counter("grp_tracecache_hits_total", &[]).inc();
                Some(entry)
            }
            Err(e) => {
                reg.counter(
                    "grp_tracecache_misses_total",
                    &[("reason", e.reason.label())],
                )
                .inc();
                if e.reason != MissReason::Absent {
                    // An absent entry is the normal cold-cache path;
                    // anything else means a real entry was rejected.
                    crate::telemetry::log::log_kv(
                        crate::telemetry::log::Level::Debug,
                        "tracecache",
                        "cache entry rejected; rebuilding",
                        &[
                            ("bench", kernel.into()),
                            ("reason", e.reason.label().into()),
                            ("detail", e.detail.as_str().into()),
                        ],
                    );
                }
                None
            }
        }
    }

    /// Like [`TraceCache::load`], naming why the entry is unusable
    /// (no metrics side effects — `load` owns the counters).
    ///
    /// # Errors
    ///
    /// A [`ProbeError`] classifying the first validation failure:
    /// missing file, bad magic, stale version, truncation, checksum
    /// mismatch, trailing bytes, or an invalid embedded packed trace.
    pub fn probe(
        &self,
        kernel: &str,
        scale: Scale,
        cc: Option<&AnalysisConfig>,
    ) -> Result<(PackedTrace, Memory, HeapRange), ProbeError> {
        let path = self.entry_path(kernel, scale, cc);
        let bytes = crate::iofault::read(self.fault_state(), &path).map_err(|e| {
            let reason = if e.kind() == io::ErrorKind::NotFound {
                MissReason::Absent
            } else {
                MissReason::Io
            };
            ProbeError::new(reason, format!("{}: {e}", path.display()))
        })?;
        decode_entry(&bytes)
            .map_err(|e| ProbeError::new(e.reason, format!("{}: {}", path.display(), e.detail)))
    }

    /// Persists one entry via the atomic-write layer (safe against
    /// kills and concurrent writers for the same key — last complete
    /// write wins, which is fine because entries for one key are
    /// byte-identical by determinism).
    ///
    /// # Errors
    ///
    /// Any I/O error from the staged write; the cache is best-effort,
    /// so callers typically warn and continue.
    pub fn store(
        &self,
        kernel: &str,
        scale: Scale,
        cc: Option<&AnalysisConfig>,
        trace: &PackedTrace,
        mem: &Memory,
        heap: HeapRange,
    ) -> io::Result<()> {
        let path = self.entry_path(kernel, scale, cc);
        crate::artifact::atomic_write_with(self.fault_state(), path, encode_entry(trace, mem, heap))
    }

    /// Crash-recovery scan over the cache directory: sweeps orphaned
    /// atomic-write staging files via [`crate::artifact::recover_dir`],
    /// then validates every `*.grpt` entry and **quarantines** (renames
    /// to `<name>.quarantine` — never silently deletes) each one that
    /// fails [`decode_entry`]. A quarantined key reads as an absent
    /// miss and rebuilds; the torn bytes stay on disk for inspection.
    /// Each quarantine lands a `grp_tracecache_quarantined_total`
    /// counter and a warn log.
    ///
    /// Returns `(recovery report, quarantined entry count)`.
    ///
    /// # Errors
    ///
    /// Only a failure to list the directory; a missing cache directory
    /// is an empty scan.
    pub fn recover(
        &self,
        max_age: std::time::Duration,
    ) -> io::Result<(crate::artifact::RecoveryReport, usize)> {
        let report = crate::artifact::recover_dir(&self.dir, max_age)?;
        let mut quarantined = 0usize;
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(rd) => rd,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((report, 0)),
            Err(e) => return Err(e),
        };
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            if path.extension().is_none_or(|x| x != "grpt") {
                continue;
            }
            let verdict = std::fs::read(&path)
                .map_err(|e| e.to_string())
                .and_then(|bytes| decode_entry(&bytes).map(|_| ()).map_err(|e| e.detail));
            let Err(detail) = verdict else { continue };
            let mut dst = path.as_os_str().to_owned();
            dst.push(".quarantine");
            if std::fs::rename(&path, PathBuf::from(&dst)).is_ok() {
                quarantined += 1;
                crate::telemetry::registry()
                    .counter("grp_tracecache_quarantined_total", &[])
                    .inc();
                crate::telemetry::log::log_kv(
                    crate::telemetry::log::Level::Warn,
                    "tracecache",
                    "quarantined invalid cache entry",
                    &[
                        ("path", path.display().to_string().as_str().into()),
                        ("detail", detail.as_str().into()),
                    ],
                );
            }
        }
        Ok((report, quarantined))
    }
}

/// Serializes one entry. Layout (little-endian):
///
/// ```text
/// magic "GRPC" | version u32 | heap_start u64 | heap_end u64
/// | n_pages u64 | n_pages x (page_id u64, 4096 raw bytes)
/// | packed_len u64 | packed-trace bytes (self-checksummed)
/// | checksum64 over everything above
/// ```
pub fn encode_entry(trace: &PackedTrace, mem: &Memory, heap: HeapRange) -> Vec<u8> {
    let pages = mem.snapshot_pages();
    let packed = trace.to_bytes();
    let mut out = Vec::with_capacity(4 + 4 + 8 * 4 + pages.len() * (8 + PAGE_BYTES) + packed.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&heap.start.0.to_le_bytes());
    out.extend_from_slice(&heap.end.0.to_le_bytes());
    out.extend_from_slice(&(pages.len() as u64).to_le_bytes());
    for (id, bytes) in pages {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&bytes[..]);
    }
    out.extend_from_slice(&(packed.len() as u64).to_le_bytes());
    out.extend_from_slice(&packed);
    let sum = checksum64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decodes and fully validates one entry (inverse of [`encode_entry`]).
///
/// # Errors
///
/// A [`ProbeError`] naming the first structural problem; never panics
/// on any input.
pub fn decode_entry(bytes: &[u8]) -> Result<(PackedTrace, Memory, HeapRange), ProbeError> {
    if bytes.len() < 8 {
        return Err(ProbeError::new(
            MissReason::Truncated,
            "truncated: shorter than the checksum alone",
        ));
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let want = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
    // Magic and version come before the checksum, as in
    // `PackedTrace::from_bytes`: an entry from another format version
    // reads as stale, not as corrupt.
    let mut c = Cur { b: body, at: 0 };
    if c.take(4)? != MAGIC {
        return Err(ProbeError::new(
            MissReason::BadMagic,
            "bad magic (not a trace-cache entry)",
        ));
    }
    let version = u32::from_le_bytes(c.take(4)?.try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(ProbeError::new(
            MissReason::StaleVersion,
            format!("stale entry version {version} (current {VERSION})"),
        ));
    }
    if checksum64(body) != want {
        return Err(ProbeError::new(
            MissReason::ChecksumMismatch,
            "checksum mismatch (corrupt or torn entry)",
        ));
    }
    let heap = HeapRange {
        start: Addr(c.u64()?),
        end: Addr(c.u64()?),
    };
    let n_pages = c.u64()?;
    // Guard the allocation before trusting the count: every page costs
    // 8 + 4096 bytes of payload, so the count is bounded by what is
    // actually present.
    let per_page = (8 + PAGE_BYTES) as u64;
    if n_pages > (body.len() as u64 - c.at as u64) / per_page {
        return Err(ProbeError::new(
            MissReason::Truncated,
            format!("truncated: claims {n_pages} pages beyond the payload"),
        ));
    }
    let mut mem = Memory::new();
    for _ in 0..n_pages {
        let id = c.u64()?;
        let page: &[u8; PAGE_BYTES] = c
            .take(PAGE_BYTES)?
            .try_into()
            .expect("length checked by take");
        mem.restore_page(id, page);
    }
    let packed_len = c.u64()?;
    if packed_len > (body.len() - c.at) as u64 {
        return Err(ProbeError::new(
            MissReason::Truncated,
            "truncated: packed trace length exceeds the payload",
        ));
    }
    let trace = PackedTrace::from_bytes(c.take(packed_len as usize)?).map_err(|e| {
        ProbeError::new(
            MissReason::BadPackedTrace,
            format!("embedded packed trace: {e}"),
        )
    })?;
    if c.at != body.len() {
        return Err(ProbeError::new(
            MissReason::TrailingBytes,
            format!("trailing bytes: {} unread", body.len() - c.at),
        ));
    }
    Ok((trace, mem, heap))
}

struct Cur<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProbeError> {
        if self.b.len() - self.at < n {
            return Err(ProbeError::new(
                MissReason::Truncated,
                format!("truncated at byte {}", self.at),
            ));
        }
        let s = &self.b[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, ProbeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// Stable fingerprint of a compiler configuration for the entry name.
/// `None` (hint-blind schemes) and every distinct `AnalysisConfig`
/// hash apart; configurations equal under `PartialEq` hash together.
pub fn cc_fingerprint(cc: Option<&AnalysisConfig>) -> u64 {
    match cc {
        None => checksum64(b"no-hints"),
        // Every field is encoded explicitly so the fingerprint is a
        // function of the configuration's *values*, not of any derived
        // formatting.
        Some(c) => {
            let mut bytes = Vec::with_capacity(64);
            bytes.extend_from_slice(&c.l2_bytes.to_le_bytes());
            bytes.push(match c.policy {
                grp_compiler::SpatialPolicy::Conservative => 0,
                grp_compiler::SpatialPolicy::Default => 1,
                grp_compiler::SpatialPolicy::Aggressive => 2,
            });
            bytes.push(c.spatial as u8);
            bytes.push(c.pointer as u8);
            bytes.push(c.indirect as u8);
            bytes.push(c.varsize as u8);
            bytes.extend_from_slice(&c.small_stride_max.to_le_bytes());
            bytes.extend_from_slice(&c.spatial_stride_max.to_le_bytes());
            checksum64(&bytes)
        }
    }
}

fn scale_tag(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grp_core::{Replay, Scheme, SimConfig};

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("grp-tracecache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> (PackedTrace, Memory, HeapRange) {
        let built = grp_workloads::by_name("twolf")
            .expect("registered")
            .build(Scale::Test);
        let cc = Scheme::GrpVar.compiler_config();
        let (trace, mem) = built.trace(cc.as_ref());
        let pt = PackedTrace::pack(&trace).expect("packs");
        (pt, mem, built.heap)
    }

    #[test]
    fn store_then_load_round_trips_and_replays_identically() {
        let dir = scratch("roundtrip");
        let cache = TraceCache::new(&dir);
        let (pt, mem, heap) = sample();
        let cc = Scheme::GrpVar.compiler_config();
        assert!(
            cache.load("twolf", Scale::Test, cc.as_ref()).is_none(),
            "cold cache misses"
        );
        cache
            .store("twolf", Scale::Test, cc.as_ref(), &pt, &mem, heap)
            .expect("store");
        let (pt2, mem2, heap2) = cache.load("twolf", Scale::Test, cc.as_ref()).expect("hit");
        assert_eq!(pt, pt2, "packed trace survives the disk round trip");
        assert_eq!(heap, heap2);
        assert_eq!(mem.resident_pages(), mem2.resident_pages());
        // The replayed result from the cached entry is bit-identical.
        let cfg = SimConfig::paper();
        let a = Replay::new(&mem, heap, Scheme::GrpVar, &cfg).run(&pt).0;
        let b = Replay::new(&mem2, heap2, Scheme::GrpVar, &cfg).run(&pt2).0;
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_separates_kernel_scale_and_config() {
        let cache = TraceCache::new("/tmp/unused");
        let var = Scheme::GrpVar.compiler_config();
        let fix = Scheme::GrpFix.compiler_config();
        let base = cache.entry_path("twolf", Scale::Test, var.as_ref());
        assert_ne!(base, cache.entry_path("mcf", Scale::Test, var.as_ref()));
        assert_ne!(base, cache.entry_path("twolf", Scale::Small, var.as_ref()));
        assert_ne!(base, cache.entry_path("twolf", Scale::Test, fix.as_ref()));
        assert_ne!(base, cache.entry_path("twolf", Scale::Test, None));
        // Schemes sharing a config share the entry (7 hint-blind schemes).
        assert_eq!(
            cache.entry_path("twolf", Scale::Test, Scheme::Srp.compiler_config().as_ref()),
            cache.entry_path(
                "twolf",
                Scale::Test,
                Scheme::NoPrefetch.compiler_config().as_ref()
            ),
        );
    }

    #[test]
    fn corrupt_and_stale_entries_read_as_misses_with_named_reasons() {
        let dir = scratch("corrupt");
        let cache = TraceCache::new(&dir);
        let (pt, mem, heap) = sample();
        cache
            .store("twolf", Scale::Test, None, &pt, &mem, heap)
            .expect("store");
        let path = cache.entry_path("twolf", Scale::Test, None);
        let good = std::fs::read(&path).expect("entry exists");

        // Flipped byte mid-payload: checksum catches it.
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        let err = cache.probe("twolf", Scale::Test, None).unwrap_err();
        assert_eq!(err.reason, MissReason::ChecksumMismatch);
        assert!(err.detail.contains("checksum mismatch"), "{err}");
        assert!(
            cache.load("twolf", Scale::Test, None).is_none(),
            "corrupt reads as a miss"
        );

        // Truncation at every decile: a miss, never a panic.
        for i in 1..10 {
            std::fs::write(&path, &good[..good.len() * i / 10]).unwrap();
            assert!(
                cache.load("twolf", Scale::Test, None).is_none(),
                "truncated to {i}0% must miss"
            );
        }

        // Stale version: rebuild, not crash. A pre-upgrade entry keeps
        // the sum its own format wrote, which no longer matches; the
        // version is checked first, so it reads as stale, not corrupt.
        let mut stale = good.clone();
        stale[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &stale).unwrap();
        let err = cache.probe("twolf", Scale::Test, None).unwrap_err();
        assert_eq!(err.reason, MissReason::StaleVersion);
        assert!(err.detail.contains("stale entry version 1"), "{err}");

        // Wrong magic.
        let mut nomagic = good.clone();
        nomagic[0..4].copy_from_slice(b"NOPE");
        std::fs::write(&path, &nomagic).unwrap();
        let err = cache.probe("twolf", Scale::Test, None).unwrap_err();
        assert_eq!(err.reason, MissReason::BadMagic);
        assert!(err.detail.contains("bad magic"), "{err}");

        // Overwriting with a fresh store recovers.
        cache
            .store("twolf", Scale::Test, None, &pt, &mem, heap)
            .expect("re-store");
        assert!(cache.load("twolf", Scale::Test, None).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_flipped_or_truncated_byte_is_a_named_miss() {
        let (pt, mem, heap) = sample();
        let good = encode_entry(&pt, &mem, heap);
        // Header, page, packed-trace and checksum bytes alike: every
        // header byte, then a stride over the rest, then the last byte.
        let stride = good.len() / 400;
        let flips = (0..48)
            .chain((48..good.len()).step_by(stride))
            .chain([good.len() - 1]);
        for at in flips {
            let mut bad = good.clone();
            bad[at] ^= 0x01;
            let want = match at {
                0..4 => MissReason::BadMagic,
                4..8 => MissReason::StaleVersion,
                _ => MissReason::ChecksumMismatch,
            };
            let got = decode_entry(&bad).map(|_| ()).map_err(|e| e.reason);
            assert_eq!(got, Err(want), "flipped byte {at} of {}", good.len());
        }
        for len in (0..good.len()).step_by(stride) {
            let got = decode_entry(&good[..len]).map(|_| ()).map_err(|e| e.reason);
            assert!(
                matches!(
                    got,
                    Err(MissReason::Truncated | MissReason::ChecksumMismatch)
                ),
                "truncated to {len}: {got:?}"
            );
        }
    }

    #[test]
    fn injected_read_fault_is_a_named_io_miss() {
        use crate::iofault::{IoFaultEvent, IoFaultKind, IoFaultPlan, IoFaultState};
        let dir = scratch("readfault");
        let (pt, mem, heap) = sample();
        let faults =
            std::sync::Arc::new(IoFaultState::new(&IoFaultPlan::new(vec![IoFaultEvent {
                op: 0,
                kind: IoFaultKind::ReadError,
            }])));
        let cache = TraceCache::new(&dir).with_faults(faults.clone());
        cache
            .store("twolf", Scale::Test, None, &pt, &mem, heap)
            .expect("store");
        let err = cache.probe("twolf", Scale::Test, None).unwrap_err();
        assert_eq!(err.reason, MissReason::Io, "injected EIO is a named miss");
        assert!(err.detail.contains("injected read fault"), "{err}");
        assert_eq!(faults.injected(), 1);
        // The next read (fault spent) hits: the entry itself is fine.
        assert!(cache.load("twolf", Scale::Test, None).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_store_fault_never_tears_an_entry() {
        use crate::iofault::{IoFaultEvent, IoFaultKind, IoFaultPlan, IoFaultState};
        let dir = scratch("storefault");
        let (pt, mem, heap) = sample();
        for kind in [
            IoFaultKind::ShortWrite,
            IoFaultKind::RenameFail,
            IoFaultKind::FsyncFail,
        ] {
            let faults =
                std::sync::Arc::new(IoFaultState::new(&IoFaultPlan::new(vec![IoFaultEvent {
                    op: 0,
                    kind,
                }])));
            let cache = TraceCache::new(&dir).with_faults(faults);
            cache
                .store("twolf", Scale::Test, None, &pt, &mem, heap)
                .expect_err("armed store fails");
            // Either no entry landed, or (never) a torn one: a plain
            // probe must not see a corrupt entry.
            let err = cache.probe("twolf", Scale::Test, None).unwrap_err();
            assert_eq!(
                err.reason,
                MissReason::Absent,
                "{kind:?}: no torn entry published"
            );
            // Retry (fault spent) lands a fully valid entry.
            cache
                .store("twolf", Scale::Test, None, &pt, &mem, heap)
                .expect("retry");
            assert!(cache.load("twolf", Scale::Test, None).is_some());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn recover_quarantines_invalid_entries_and_sweeps_orphans() {
        let dir = scratch("recover");
        let cache = TraceCache::new(&dir);
        let (pt, mem, heap) = sample();
        cache
            .store("twolf", Scale::Test, None, &pt, &mem, heap)
            .expect("store");
        let good = cache.entry_path("twolf", Scale::Test, None);
        // A torn sibling entry (half the valid bytes) and a dead-owner
        // staging orphan.
        let torn = dir.join("mcf-test-0000000000000000.grpt");
        let bytes = std::fs::read(&good).unwrap();
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
        let orphan = dir.join("x.grpt.4999999.3.tmp");
        std::fs::write(&orphan, "partial").unwrap();
        let (report, quarantined) = cache
            .recover(std::time::Duration::ZERO)
            .expect("recover scan");
        assert_eq!(quarantined, 1, "torn entry quarantined");
        assert_eq!(report.swept_tmp, 1, "staging orphan swept");
        assert!(!torn.exists(), "torn entry renamed away");
        let mut q = torn.into_os_string();
        q.push(".quarantine");
        assert!(PathBuf::from(q).exists(), "quarantine preserves the bytes");
        assert!(good.exists(), "valid entry untouched");
        assert!(cache.load("twolf", Scale::Test, None).is_some());
        // Idempotent: a second scan finds nothing.
        let (report2, q2) = cache.recover(std::time::Duration::ZERO).expect("rescan");
        assert_eq!((report2.swept_tmp, q2), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_is_value_stable() {
        let a = cc_fingerprint(Some(&AnalysisConfig::default()));
        let b = cc_fingerprint(Some(&AnalysisConfig::grp_var()));
        assert_eq!(a, b, "equal configs fingerprint together");
        assert_ne!(a, cc_fingerprint(Some(&AnalysisConfig::grp_fix())));
        assert_ne!(a, cc_fingerprint(Some(&AnalysisConfig::aggressive())));
        assert_ne!(a, cc_fingerprint(None));
    }
}
