//! Deterministic, seeded I/O fault injection for the harness's disk
//! boundary — the process-level sibling of [`grp_core::faults`].
//!
//! An [`IoFaultPlan`] is a reproducible list of per-operation fault
//! events — short writes, `ENOSPC`, read `EIO`, failed renames, failed
//! fsyncs — generated from a single seed via the testkit RNG. The plan
//! is *data*: compiling it into an [`IoFaultState`] arms narrow seams
//! inside [`crate::artifact::atomic_write`], the trace cache's entry
//! reader, and the trajectory's load/append path. An empty plan is
//! behaviourally inert, so a zero-fault run is byte-identical to an
//! uninstrumented one.
//!
//! The crash-only contract the plan verifies (see DESIGN.md §15):
//! under any plan, published artifacts are always one complete
//! payload (a faulted write leaves the previous file intact),
//! corrupt or unreadable trace-cache entries are *named misses* that
//! rebuild, and the perf trajectory never silently resets. Every
//! injected fault also lands a `grp_iofault_injected_total{kind=…}`
//! counter in the telemetry registry, so a chaos run can prove its
//! storm actually fired.
//!
//! Fault events address operations by **per-class index**: the plan
//! event `{op: 2, kind: ReadError}` fails the third read issued
//! through an [`IoFaultState`], whichever file that turns out to be.
//! This keeps plans independent of path layout while staying exactly
//! reproducible for a fixed operation sequence.
//!
//! Process-global arming: the `GRP_IOFAULT` environment variable
//! installs a state for every seam that doesn't carry an explicit one
//! (the chaos gate uses this to arm a serve *subprocess*). Accepted
//! values: a [`IoFaultPlan::builtin`] plan name, `seed:<u64>` for a
//! generated plan, or `torn-rename` — a deliberate-bug mode in which
//! `atomic_write` publishes a half-written file *at the final path*,
//! used as negative teeth to prove the chaos gate can fail.

use grp_testkit::proptest::Arbitrary;
use grp_testkit::Rng;

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Which I/O operation class an event addresses, and how it fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoFaultKind {
    /// The staged write lands only a prefix of the payload, then the
    /// device reports `ENOSPC`. The atomic-write protocol must clean
    /// the partial temp file and leave the final path untouched.
    ShortWrite,
    /// The staged write fails immediately with `ENOSPC` (no bytes
    /// land).
    WriteNoSpace,
    /// A whole-file read fails with `EIO`. Cache readers must treat
    /// this as a named miss; the trajectory must refuse to reset.
    ReadError,
    /// The temp→final rename fails with `EIO` after a fully staged,
    /// fsynced temp file. The final path must be untouched and the
    /// temp cleaned up.
    RenameFail,
    /// `sync_all` on the staged temp file fails with `EIO` before the
    /// rename is attempted.
    FsyncFail,
}

impl IoFaultKind {
    /// Stable telemetry/debug label (`grp_iofault_injected_total{kind=…}`).
    pub fn label(self) -> &'static str {
        match self {
            IoFaultKind::ShortWrite => "short_write",
            IoFaultKind::WriteNoSpace => "write_nospace",
            IoFaultKind::ReadError => "read_eio",
            IoFaultKind::RenameFail => "rename_fail",
            IoFaultKind::FsyncFail => "fsync_fail",
        }
    }

    /// The operation class this kind arms (write faults share a class:
    /// at most one of `ShortWrite`/`WriteNoSpace` fires per write op).
    fn class(self) -> OpClass {
        match self {
            IoFaultKind::ShortWrite | IoFaultKind::WriteNoSpace => OpClass::Write,
            IoFaultKind::ReadError => OpClass::Read,
            IoFaultKind::RenameFail => OpClass::Rename,
            IoFaultKind::FsyncFail => OpClass::Fsync,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    Write,
    Read,
    Rename,
    Fsync,
}

/// One armed fault: the `op`-th operation of the kind's class (0-based,
/// counted per [`IoFaultState`]) fails as `kind` says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoFaultEvent {
    /// Index within the operation class (0 = the first such op).
    pub op: u32,
    /// How that operation fails.
    pub kind: IoFaultKind,
}

/// A reproducible schedule of I/O faults. The empty plan is inert.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IoFaultPlan {
    /// The armed events, in no particular order (application is by
    /// per-class operation index).
    pub events: Vec<IoFaultEvent>,
}

impl IoFaultPlan {
    /// A plan over the given events.
    pub fn new(events: Vec<IoFaultEvent>) -> Self {
        Self { events }
    }

    /// The inert plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A fully reproducible random plan: same seed, same plan, on
    /// every build and machine (xoshiro256** seeded through
    /// splitmix64).
    pub fn generate(seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        Self::arbitrary(&mut rng)
    }

    /// The named built-in plans the resilience tests sweep: one plan
    /// per fault class plus a combined "io-storm".
    pub fn builtin() -> Vec<(&'static str, IoFaultPlan)> {
        let ev = |op: u32, kind: IoFaultKind| IoFaultEvent { op, kind };
        vec![
            (
                "short-write",
                IoFaultPlan::new(vec![ev(0, IoFaultKind::ShortWrite)]),
            ),
            (
                "no-space",
                IoFaultPlan::new(vec![ev(0, IoFaultKind::WriteNoSpace)]),
            ),
            (
                "read-eio",
                IoFaultPlan::new(vec![ev(0, IoFaultKind::ReadError)]),
            ),
            (
                "failed-rename",
                IoFaultPlan::new(vec![ev(0, IoFaultKind::RenameFail)]),
            ),
            (
                "failed-fsync",
                IoFaultPlan::new(vec![ev(0, IoFaultKind::FsyncFail)]),
            ),
            (
                "io-storm",
                IoFaultPlan::new(vec![
                    ev(0, IoFaultKind::ShortWrite),
                    ev(2, IoFaultKind::WriteNoSpace),
                    ev(0, IoFaultKind::ReadError),
                    ev(1, IoFaultKind::RenameFail),
                    ev(3, IoFaultKind::FsyncFail),
                ]),
            ),
        ]
    }
}

impl Arbitrary for IoFaultEvent {
    fn arbitrary(rng: &mut Rng) -> Self {
        let op = rng.gen_range(0u32..8);
        let kind = match rng.gen_range(0u32..5) {
            0 => IoFaultKind::ShortWrite,
            1 => IoFaultKind::WriteNoSpace,
            2 => IoFaultKind::ReadError,
            3 => IoFaultKind::RenameFail,
            _ => IoFaultKind::FsyncFail,
        };
        Self { op, kind }
    }

    fn shrink_value(&self) -> Vec<Self> {
        if self.op > 0 {
            vec![Self {
                op: self.op / 2,
                kind: self.kind,
            }]
        } else {
            Vec::new()
        }
    }
}

impl Arbitrary for IoFaultPlan {
    fn arbitrary(rng: &mut Rng) -> Self {
        let n = rng.gen_range(0usize..=4);
        Self::new((0..n).map(|_| IoFaultEvent::arbitrary(rng)).collect())
    }

    fn shrink_value(&self) -> Vec<Self> {
        if self.events.is_empty() {
            return Vec::new();
        }
        // Structure first — the empty plan is the single most
        // diagnostic simplification — then fewer events, then earlier
        // operation indices.
        let mut out = vec![IoFaultPlan::none()];
        if self.events.len() > 1 {
            out.push(IoFaultPlan::new(
                self.events[..self.events.len() / 2].to_vec(),
            ));
            out.push(IoFaultPlan::new(self.events[1..].to_vec()));
            out.push(IoFaultPlan::new(
                self.events[..self.events.len() - 1].to_vec(),
            ));
        }
        for (i, ev) in self.events.iter().enumerate() {
            for shrunk in ev.shrink_value() {
                let mut events = self.events.clone();
                events[i] = shrunk;
                out.push(IoFaultPlan::new(events));
            }
        }
        out
    }
}

/// Runtime cursor over an [`IoFaultPlan`]: per-class atomic operation
/// counters plus the compiled `op → kind` fault maps. Thread-safe —
/// the same state can arm every seam in a multi-worker process.
#[derive(Debug, Default)]
pub struct IoFaultState {
    write_faults: HashMap<u32, IoFaultKind>,
    read_faults: HashMap<u32, IoFaultKind>,
    rename_faults: HashMap<u32, IoFaultKind>,
    fsync_faults: HashMap<u32, IoFaultKind>,
    write_ops: AtomicU64,
    read_ops: AtomicU64,
    rename_ops: AtomicU64,
    fsync_ops: AtomicU64,
    injected: AtomicU64,
    /// Deliberate-bug mode: `atomic_write` publishes a half payload at
    /// the final path. Negative teeth for the chaos gate — never part
    /// of a legitimate plan.
    torn_rename: bool,
    /// Registry faults are recorded to; `None` uses the process-global
    /// registry. Tests pass their own so parallel tests don't
    /// contaminate each other's counts.
    registry: Option<Arc<crate::telemetry::Registry>>,
}

impl IoFaultState {
    /// Compiles `plan` into its runtime form (recording to the
    /// process-global registry).
    pub fn new(plan: &IoFaultPlan) -> Self {
        let mut st = Self::default();
        for ev in &plan.events {
            let map = match ev.kind.class() {
                OpClass::Write => &mut st.write_faults,
                OpClass::Read => &mut st.read_faults,
                OpClass::Rename => &mut st.rename_faults,
                OpClass::Fsync => &mut st.fsync_faults,
            };
            // First event wins per (class, op); later duplicates are
            // redundant anyway.
            map.entry(ev.op).or_insert(ev.kind);
        }
        st
    }

    /// The torn-rename deliberate-bug state (see [`IoFaultState`]).
    pub fn torn_rename() -> Self {
        Self {
            torn_rename: true,
            ..Self::default()
        }
    }

    /// Redirects fault telemetry to an explicit registry (tests).
    pub fn with_registry(mut self, reg: Arc<crate::telemetry::Registry>) -> Self {
        self.registry = Some(reg);
        self
    }

    /// True in the torn-rename deliberate-bug mode.
    pub fn is_torn_rename(&self) -> bool {
        self.torn_rename
    }

    /// Total faults this state has injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn record(&self, kind: IoFaultKind) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        let labels = [("kind", kind.label())];
        self.registry
            .as_deref()
            .unwrap_or_else(|| crate::telemetry::registry())
            .counter("grp_iofault_injected_total", &labels)
            .inc();
    }

    fn next_fault(
        &self,
        counter: &AtomicU64,
        map: &HashMap<u32, IoFaultKind>,
    ) -> Option<IoFaultKind> {
        let op = counter.fetch_add(1, Ordering::Relaxed);
        let kind = *map.get(&u32::try_from(op).ok()?)?;
        self.record(kind);
        Some(kind)
    }

    /// Advances the write-op counter; returns the armed fault for this
    /// write, if any ([`IoFaultKind::ShortWrite`] or
    /// [`IoFaultKind::WriteNoSpace`]).
    pub fn on_write(&self) -> Option<IoFaultKind> {
        self.next_fault(&self.write_ops, &self.write_faults)
    }

    /// Advances the read-op counter; `Err(EIO)` when this read is
    /// armed to fail.
    pub fn on_read(&self) -> io::Result<()> {
        match self.next_fault(&self.read_ops, &self.read_faults) {
            Some(_) => Err(injected_err(
                io::ErrorKind::Other,
                "injected read fault (EIO)",
            )),
            None => Ok(()),
        }
    }

    /// Advances the rename-op counter; `Err(EIO)` when this rename is
    /// armed to fail.
    pub fn on_rename(&self) -> io::Result<()> {
        match self.next_fault(&self.rename_ops, &self.rename_faults) {
            Some(_) => Err(injected_err(
                io::ErrorKind::Other,
                "injected rename fault (EIO)",
            )),
            None => Ok(()),
        }
    }

    /// Advances the fsync-op counter; `Err(EIO)` when this fsync is
    /// armed to fail.
    pub fn on_fsync(&self) -> io::Result<()> {
        match self.next_fault(&self.fsync_ops, &self.fsync_faults) {
            Some(_) => Err(injected_err(
                io::ErrorKind::Other,
                "injected fsync fault (EIO)",
            )),
            None => Ok(()),
        }
    }
}

fn injected_err(kind: io::ErrorKind, msg: &str) -> io::Error {
    io::Error::new(kind, msg.to_string())
}

/// The `ENOSPC`-shaped error injected write faults surface.
pub fn nospace_err() -> io::Error {
    injected_err(
        io::ErrorKind::Other, // StorageFull is unstable; message names it
        "injected write fault (ENOSPC)",
    )
}

/// The process-global fault state, armed from the `GRP_IOFAULT`
/// environment variable at first use (see the module docs for accepted
/// values). `None` — the common case — means every seam runs faults
/// off. Unit tests must *not* rely on this (it is process-wide and
/// read once); they pass explicit states through the `_with` seams.
pub fn global() -> Option<&'static Arc<IoFaultState>> {
    static GLOBAL: OnceLock<Option<Arc<IoFaultState>>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| {
            let spec = std::env::var("GRP_IOFAULT").ok()?;
            let spec = spec.trim();
            if spec.is_empty() {
                return None;
            }
            let st = state_from_spec(spec).unwrap_or_else(|e| {
                crate::telemetry::log::error("iofault", &e);
                std::process::exit(2);
            });
            crate::telemetry::log::info("iofault", &format!("armed GRP_IOFAULT={spec}"));
            Some(Arc::new(st))
        })
        .as_ref()
}

/// Parses a `GRP_IOFAULT` spec (builtin name, `seed:<u64>`, or
/// `torn-rename`) into a fault state.
///
/// # Errors
///
/// A descriptive message for an unknown name or unparsable seed.
pub fn state_from_spec(spec: &str) -> Result<IoFaultState, String> {
    if spec == "torn-rename" {
        return Ok(IoFaultState::torn_rename());
    }
    if let Some(seed) = spec.strip_prefix("seed:") {
        let seed = crate::args::parse_u64(seed)
            .ok_or_else(|| format!("GRP_IOFAULT: bad seed in {spec:?}"))?;
        return Ok(IoFaultState::new(&IoFaultPlan::generate(seed)));
    }
    for (name, plan) in IoFaultPlan::builtin() {
        if name == spec {
            return Ok(IoFaultState::new(&plan));
        }
    }
    let names: Vec<&str> = IoFaultPlan::builtin().iter().map(|(n, _)| *n).collect();
    Err(format!(
        "GRP_IOFAULT: unknown plan {spec:?} (expected one of {}, seed:<u64>, torn-rename)",
        names.join("/")
    ))
}

/// Whole-file read through the fault seam: an armed
/// [`IoFaultKind::ReadError`] surfaces as `EIO` without touching the
/// file. `faults: None` is plain [`std::fs::read`].
///
/// # Errors
///
/// The injected fault, or any real I/O error from the read.
pub fn read(faults: Option<&IoFaultState>, path: &Path) -> io::Result<Vec<u8>> {
    if let Some(f) = faults {
        f.on_read()?;
    }
    std::fs::read(path)
}

/// [`read`] returning UTF-8 text (the trajectory's framing).
///
/// # Errors
///
/// The injected fault, or any real I/O error from the read.
pub fn read_to_string(faults: Option<&IoFaultState>, path: &Path) -> io::Result<String> {
    if let Some(f) = faults {
        f.on_read()?;
    }
    std::fs::read_to_string(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Registry;

    #[test]
    fn generate_is_deterministic() {
        let a = IoFaultPlan::generate(0x5eed_10fa);
        let b = IoFaultPlan::generate(0x5eed_10fa);
        assert_eq!(a, b);
        let plans: Vec<IoFaultPlan> = (0..16)
            .map(|i| IoFaultPlan::generate(0x5eed_10f0 + i))
            .collect();
        assert!(plans.iter().any(|p| !p.is_empty()));
        assert!(plans.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn empty_plan_state_is_inert() {
        let st = IoFaultState::new(&IoFaultPlan::none());
        for _ in 0..32 {
            assert!(st.on_write().is_none());
            st.on_read().expect("reads pass");
            st.on_rename().expect("renames pass");
            st.on_fsync().expect("fsyncs pass");
        }
        assert_eq!(st.injected(), 0);
    }

    #[test]
    fn faults_fire_at_their_op_index_once() {
        let reg = Arc::new(Registry::new());
        let plan = IoFaultPlan::new(vec![
            IoFaultEvent {
                op: 1,
                kind: IoFaultKind::WriteNoSpace,
            },
            IoFaultEvent {
                op: 0,
                kind: IoFaultKind::ReadError,
            },
        ]);
        let st = IoFaultState::new(&plan).with_registry(reg.clone());
        assert!(st.on_write().is_none(), "op 0 passes");
        assert_eq!(st.on_write(), Some(IoFaultKind::WriteNoSpace), "op 1 fails");
        assert!(st.on_write().is_none(), "op 2 passes");
        assert!(st.on_read().is_err(), "read op 0 fails");
        assert!(st.on_read().is_ok(), "read op 1 passes");
        assert_eq!(st.injected(), 2);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("grp_iofault_injected_total{kind=\"write_nospace\"}"),
            1
        );
        assert_eq!(
            snap.counter("grp_iofault_injected_total{kind=\"read_eio\"}"),
            1
        );
    }

    #[test]
    fn builtin_plans_cover_every_fault_kind() {
        let plans = IoFaultPlan::builtin();
        assert!(plans.len() >= 6);
        let all: Vec<IoFaultKind> = plans
            .iter()
            .flat_map(|(_, p)| p.events.iter().map(|e| e.kind))
            .collect();
        for kind in [
            IoFaultKind::ShortWrite,
            IoFaultKind::WriteNoSpace,
            IoFaultKind::ReadError,
            IoFaultKind::RenameFail,
            IoFaultKind::FsyncFail,
        ] {
            assert!(all.contains(&kind), "{kind:?} covered by a builtin plan");
        }
    }

    #[test]
    fn shrinking_reaches_the_empty_plan() {
        let plan = IoFaultPlan::new(vec![
            IoFaultEvent {
                op: 4,
                kind: IoFaultKind::FsyncFail,
            },
            IoFaultEvent {
                op: 2,
                kind: IoFaultKind::ShortWrite,
            },
        ]);
        let shrinks = plan.shrink_value();
        assert_eq!(shrinks[0], IoFaultPlan::none(), "empty plan offered first");
        assert!(shrinks.len() > 1);
    }

    #[test]
    fn spec_parsing_accepts_names_seeds_and_teeth() {
        assert!(state_from_spec("io-storm").is_ok());
        assert!(state_from_spec("short-write").is_ok());
        let st = state_from_spec("torn-rename").expect("teeth spec");
        assert!(st.is_torn_rename());
        assert!(state_from_spec("seed:0x5eed").is_ok());
        assert!(state_from_spec("seed:notanumber").is_err());
        assert!(state_from_spec("no-such-plan").is_err());
    }
}
