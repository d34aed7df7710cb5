//! The packed, pre-analyzed trace tier.
//!
//! [`crate::Trace`] is an enum-per-event recording: flexible, but replay
//! pays enum dispatch and pointer-chasing for every event. This module
//! splits trace *generation* from *replay* with a struct-of-arrays
//! representation, [`PackedTrace`]:
//!
//! * one element per **memory operation** (load/store) across parallel
//!   hot arrays — address, reference id, hints, flags, dependency, and
//!   the coalesced compute batch preceding the op — so the replay loop
//!   streams dense arrays with no per-event enum dispatch;
//! * a sorted **side table** ([`PseudoEvent`]) for the rare pseudo
//!   events (`SetLoopBound`, `IndirectPrefetch`, and any compute batch
//!   that cannot fold into a memop's `pre_compute` slot), keyed by the
//!   memop index they precede;
//! * a cold array (access sizes) kept only for lossless round-trips —
//!   the timing model is block-granular and never reads sizes;
//! * a versioned binary file format ([`PackedTrace::to_bytes`] /
//!   [`PackedTrace::from_bytes`]) with delta-encoded addresses and a
//!   [`checksum64`] payload sum, so packed traces persist across
//!   processes.
//!
//! [`PackedTrace::pack`] writes the layout and [`PackedTrace::events`]
//! is the one place that reads it back, yielding the original event
//! stream in trace order: [`PackedTrace::unpack`] collects it, and the
//! `grp-core` replay loop consumes it directly, so a packed trace
//! replays bit-identically to the trace it was packed from.

use std::fmt;

use grp_mem::Addr;

use crate::hints::HintSet;
use crate::trace::{RefId, Trace, TraceEvent};

/// `dep` sentinel: the load's address depends on no earlier load.
pub const NO_DEP: u32 = u32::MAX;

/// Per-op flag bit: the op is a store (else a load).
pub const FLAG_STORE: u8 = 1 << 0;
/// Per-op flag bit: the op is a load with an address dependency.
pub const FLAG_DEP: u8 = 1 << 1;

/// File magic for the packed trace format.
pub const MAGIC: [u8; 4] = *b"GRPT";
/// Current packed-file format version.
pub const FORMAT_VERSION: u32 = 2;

/// Header size in bytes: magic, version, five `u64` counters, payload
/// length, and the payload checksum.
const HEADER_BYTES: usize = 4 + 4 + 8 * 7;

/// A rare event carried in the side table, firing immediately before the
/// memop at index [`PseudoEvent::at_op`] (== `n_ops` for events after the
/// last memop).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PseudoEvent {
    /// Index of the memop this event precedes (`n_ops` = trace tail).
    pub at_op: u32,
    /// What fires there.
    pub kind: PseudoKind,
}

/// The side-table event kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PseudoKind {
    /// A compute batch that could not fold into the following memop's
    /// `pre_compute` slot (another pseudo event or a second batch sits
    /// between it and the memop).
    Compute(u32),
    /// `SetLoopBound` pseudo-instruction (§3.3.2).
    SetLoopBound(u32),
    /// `IndirectPrefetch` pseudo-instruction (§3.3.3).
    IndirectPrefetch {
        /// `&a[0]` — base of the indexed array.
        base: Addr,
        /// `sizeof(a[0])`.
        elem_size: u32,
        /// `&b[i]` — address of the current index element.
        index_addr: Addr,
        /// Static site of the prefetch instruction.
        ref_id: RefId,
    },
}

/// Why a [`Trace`] cannot be packed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackError {
    /// The trace's instruction counter disagrees with the sum over its
    /// events — an unfinished trace (pending compute tail not flushed).
    UnfinishedTrace,
    /// More memops than the `u32` op index can address.
    TooManyOps,
    /// More loads than the `u32` dependency index can address.
    TooManyLoads,
    /// A load names a dependency that is not an earlier load.
    BadDep,
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::UnfinishedTrace => {
                write!(
                    f,
                    "trace not finished: instruction counter desyncs from events"
                )
            }
            PackError::TooManyOps => write!(f, "more than u32::MAX memory operations"),
            PackError::TooManyLoads => write!(f, "more than u32::MAX loads"),
            PackError::BadDep => write!(f, "load depends on a non-earlier load"),
        }
    }
}

impl std::error::Error for PackError {}

/// Why a packed-trace file failed to decode. Every failure mode is a
/// named variant — corrupt input can never panic or yield a silently
/// partial trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedFileError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is newer than this reader.
    UnsupportedVersion(u32),
    /// The file ends before the declared payload does.
    Truncated,
    /// The payload checksum does not match the header.
    ChecksumMismatch,
    /// Bytes remain after the declared payload.
    TrailingBytes,
    /// The payload decoded but violates a structural invariant.
    Malformed(&'static str),
}

impl fmt::Display for PackedFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackedFileError::BadMagic => write!(f, "not a packed trace (bad magic)"),
            PackedFileError::UnsupportedVersion(v) => {
                write!(f, "unsupported packed trace version {v}")
            }
            PackedFileError::Truncated => write!(f, "packed trace truncated"),
            PackedFileError::ChecksumMismatch => write!(f, "packed trace checksum mismatch"),
            PackedFileError::TrailingBytes => write!(f, "trailing bytes after packed trace"),
            PackedFileError::Malformed(what) => write!(f, "malformed packed trace: {what}"),
        }
    }
}

impl std::error::Error for PackedFileError {}

/// Packing statistics, for logging and cache-entry validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackStats {
    /// Memory operations in the hot arrays.
    pub memops: u64,
    /// Side-table entries.
    pub pseudo_events: u64,
    /// Memops whose preceding compute batch folded into `pre_compute`.
    pub folded_computes: u64,
}

/// A packed, replay-ready trace. See the module docs for the layout.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedTrace {
    addrs: Vec<u64>,
    ref_ids: Vec<u32>,
    hints: Vec<HintSet>,
    flags: Vec<u8>,
    deps: Vec<u32>,
    pre_compute: Vec<u32>,
    sizes: Vec<u8>,
    pseudos: Vec<PseudoEvent>,
    loads: u64,
    stores: u64,
    instructions: u64,
}

impl PackedTrace {
    /// Packs a finalized trace.
    ///
    /// Ordering contract: for each memop `i`, replay fires (1) the side
    /// table's events with `at_op == i`, in table order, then (2) a
    /// compute batch of `pre_compute[i]` instructions if nonzero, then
    /// (3) the memop itself; after the last memop, the `at_op == n_ops`
    /// tail fires. `pre_compute[i]` holds the gap's final event exactly
    /// when that event is a compute batch, so the reconstructed dispatch
    /// sequence is identical to walking [`Trace::events`].
    pub fn pack(trace: &Trace) -> Result<PackedTrace, PackError> {
        let events = trace.events();
        let summed: u64 = events.iter().map(|e| e.instruction_count()).sum();
        if summed != trace.instructions() {
            return Err(PackError::UnfinishedTrace);
        }
        let n_ops = events.iter().filter(|e| e.is_memory()).count();
        if n_ops >= u32::MAX as usize {
            return Err(PackError::TooManyOps);
        }
        if trace.loads() >= u32::MAX as u64 {
            return Err(PackError::TooManyLoads);
        }
        let mut pt = PackedTrace {
            addrs: Vec::with_capacity(n_ops),
            ref_ids: Vec::with_capacity(n_ops),
            hints: Vec::with_capacity(n_ops),
            flags: Vec::with_capacity(n_ops),
            deps: Vec::with_capacity(n_ops),
            pre_compute: Vec::with_capacity(n_ops),
            sizes: Vec::with_capacity(n_ops),
            pseudos: Vec::new(),
            loads: trace.loads(),
            stores: trace.stores(),
            instructions: trace.instructions(),
        };
        // Events since the last memop that have not been emitted yet.
        let mut gap: Vec<PseudoKind> = Vec::new();
        let mut load_seq = 0u32;
        for ev in events {
            match *ev {
                TraceEvent::Compute(n) => gap.push(PseudoKind::Compute(n)),
                TraceEvent::SetLoopBound(b) => gap.push(PseudoKind::SetLoopBound(b)),
                TraceEvent::IndirectPrefetch {
                    base,
                    elem_size,
                    index_addr,
                    ref_id,
                } => gap.push(PseudoKind::IndirectPrefetch {
                    base,
                    elem_size,
                    index_addr,
                    ref_id,
                }),
                TraceEvent::Load {
                    addr,
                    size,
                    ref_id,
                    hints,
                    dep,
                } => {
                    let i = pt.addrs.len() as u32;
                    pt.flush_gap(&mut gap, i, true);
                    let (dep, flag) = match dep {
                        Some(seq) => {
                            if seq >= load_seq as u64 {
                                return Err(PackError::BadDep);
                            }
                            (seq as u32, FLAG_DEP)
                        }
                        None => (NO_DEP, 0),
                    };
                    pt.addrs.push(addr.0);
                    pt.ref_ids.push(ref_id.0);
                    pt.hints.push(hints);
                    pt.flags.push(flag);
                    pt.deps.push(dep);
                    pt.sizes.push(size);
                    load_seq += 1;
                }
                TraceEvent::Store {
                    addr,
                    size,
                    ref_id,
                    hints,
                } => {
                    let i = pt.addrs.len() as u32;
                    pt.flush_gap(&mut gap, i, true);
                    pt.addrs.push(addr.0);
                    pt.ref_ids.push(ref_id.0);
                    pt.hints.push(hints);
                    pt.flags.push(FLAG_STORE);
                    pt.deps.push(NO_DEP);
                    pt.sizes.push(size);
                }
            }
        }
        let tail = pt.addrs.len() as u32;
        pt.flush_gap(&mut gap, tail, false);
        Ok(pt)
    }

    /// Emits the accumulated gap before memop `at`: the last event folds
    /// into `pre_compute` when it is a compute batch *and* a memop
    /// follows; everything else goes to the side table in order.
    fn flush_gap(&mut self, gap: &mut Vec<PseudoKind>, at: u32, memop_follows: bool) {
        let folded = if memop_follows {
            match gap.last() {
                Some(&PseudoKind::Compute(n)) => {
                    gap.pop();
                    n
                }
                _ => 0,
            }
        } else {
            0
        };
        for kind in gap.drain(..) {
            self.pseudos.push(PseudoEvent { at_op: at, kind });
        }
        if memop_follows {
            self.pre_compute.push(folded);
        }
    }

    /// Number of memory operations (hot-array length).
    pub fn n_ops(&self) -> usize {
        self.addrs.len()
    }

    /// Dynamic load count.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Dynamic store count.
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Committed instruction count (including pseudo-instructions).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Byte addresses, one per memop.
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// Static reference sites, one per memop.
    pub fn ref_ids(&self) -> &[u32] {
        &self.ref_ids
    }

    /// Compiler hints, one per memop.
    pub fn hints(&self) -> &[HintSet] {
        &self.hints
    }

    /// Per-op flags ([`FLAG_STORE`], [`FLAG_DEP`]).
    pub fn flags(&self) -> &[u8] {
        &self.flags
    }

    /// Address-dependency load sequence numbers ([`NO_DEP`] = none).
    pub fn deps(&self) -> &[u32] {
        &self.deps
    }

    /// Compute batch dispatched immediately before each memop (0 = none).
    pub fn pre_compute(&self) -> &[u32] {
        &self.pre_compute
    }

    /// Access sizes in bytes (cold; replay is block-granular).
    pub fn sizes(&self) -> &[u8] {
        &self.sizes
    }

    /// The side table, sorted by `at_op` (stable within one op).
    pub fn pseudos(&self) -> &[PseudoEvent] {
        &self.pseudos
    }

    /// Total materialized event count this packed trace represents:
    /// every memop, every side-table entry, and every folded compute
    /// batch is one event of the original [`Trace`]. Equal to
    /// `trace.events().len()` for the trace this was packed from — the
    /// harness reports it so packed rows stay comparable to
    /// materialized ones.
    pub fn event_count(&self) -> u64 {
        let s = self.stats();
        s.memops + s.pseudo_events + s.folded_computes
    }

    /// Packing statistics.
    pub fn stats(&self) -> PackStats {
        PackStats {
            memops: self.addrs.len() as u64,
            pseudo_events: self.pseudos.len() as u64,
            folded_computes: self.pre_compute.iter().filter(|&&c| c != 0).count() as u64,
        }
    }

    /// The event stream this packed trace represents, in trace order
    /// (the ordering contract on [`PackedTrace::pack`]). Yields exactly
    /// [`PackedTrace::event_count`] events.
    pub fn events(&self) -> Events<'_> {
        Events {
            pt: self,
            op: 0,
            pi: 0,
            pre_done: false,
        }
    }

    /// Reconstructs the materialized trace. Lossless: the event stream,
    /// including compute-batch boundaries, dependency edges, hints, and
    /// pseudo-events, is identical to the packed original's.
    pub fn unpack(&self) -> Trace {
        let mut events = Vec::with_capacity(self.event_count() as usize);
        events.extend(self.events());
        Trace::from_raw_parts(events, self.loads, self.stores, self.instructions)
    }

    /// Serializes to the versioned, checksummed binary format (see
    /// DESIGN.md §13 for the layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(self.addrs.len() * 6);
        // Addresses: zigzag-varint cache-block deltas + in-block offset.
        let mut prev_block = 0u64;
        for &a in &self.addrs {
            let block = a >> 6;
            put_varint(&mut payload, zigzag(block.wrapping_sub(prev_block) as i64));
            payload.push((a & 63) as u8);
            prev_block = block;
        }
        for &r in &self.ref_ids {
            put_varint(&mut payload, r as u64);
        }
        for &h in &self.hints {
            payload.extend_from_slice(&h.to_bits().to_le_bytes());
        }
        payload.extend_from_slice(&self.flags);
        // Dependencies: backward distance (current load seq − dep), only
        // for ops with FLAG_DEP.
        let mut seq = 0u64;
        for i in 0..self.addrs.len() {
            if self.flags[i] & FLAG_STORE != 0 {
                continue;
            }
            if self.flags[i] & FLAG_DEP != 0 {
                put_varint(&mut payload, seq - self.deps[i] as u64);
            }
            seq += 1;
        }
        for &c in &self.pre_compute {
            put_varint(&mut payload, c as u64);
        }
        payload.extend_from_slice(&self.sizes);
        let mut prev_at = 0u64;
        for p in &self.pseudos {
            put_varint(&mut payload, p.at_op as u64 - prev_at);
            prev_at = p.at_op as u64;
            match p.kind {
                PseudoKind::Compute(n) => {
                    payload.push(0);
                    put_varint(&mut payload, n as u64);
                }
                PseudoKind::SetLoopBound(b) => {
                    payload.push(1);
                    put_varint(&mut payload, b as u64);
                }
                PseudoKind::IndirectPrefetch {
                    base,
                    elem_size,
                    index_addr,
                    ref_id,
                } => {
                    payload.push(2);
                    put_varint(&mut payload, base.0);
                    put_varint(&mut payload, elem_size as u64);
                    put_varint(&mut payload, index_addr.0);
                    put_varint(&mut payload, ref_id.0 as u64);
                }
            }
        }

        let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.addrs.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.loads.to_le_bytes());
        out.extend_from_slice(&self.stores.to_le_bytes());
        out.extend_from_slice(&self.instructions.to_le_bytes());
        out.extend_from_slice(&(self.pseudos.len() as u64).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes the binary format. Every corrupt input maps to a named
    /// [`PackedFileError`]; success implies the payload checksum matched
    /// and all structural invariants hold.
    pub fn from_bytes(bytes: &[u8]) -> Result<PackedTrace, PackedFileError> {
        if bytes.len() < 4 {
            return Err(PackedFileError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(PackedFileError::BadMagic);
        }
        if bytes.len() < HEADER_BYTES {
            return Err(PackedFileError::Truncated);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(PackedFileError::UnsupportedVersion(version));
        }
        let word = |i: usize| u64::from_le_bytes(bytes[8 + i * 8..16 + i * 8].try_into().unwrap());
        let n_ops = word(0);
        let loads = word(1);
        let stores = word(2);
        let instructions = word(3);
        let n_pseudos = word(4);
        let payload_len = word(5);
        let checksum = word(6);
        if loads.checked_add(stores) != Some(n_ops) {
            return Err(PackedFileError::Malformed("load/store counts vs ops"));
        }
        if n_ops >= u32::MAX as u64 || loads >= u32::MAX as u64 {
            return Err(PackedFileError::Malformed("op count overflows u32 index"));
        }
        let rest = &bytes[HEADER_BYTES..];
        if (rest.len() as u64) < payload_len {
            return Err(PackedFileError::Truncated);
        }
        if (rest.len() as u64) > payload_len {
            return Err(PackedFileError::TrailingBytes);
        }
        if checksum64(rest) != checksum {
            return Err(PackedFileError::ChecksumMismatch);
        }
        // Guard the allocations below against absurd declared counts: no
        // section packs an element into less than one payload byte.
        if n_ops > payload_len || n_pseudos > payload_len {
            return Err(PackedFileError::Malformed("counts exceed payload size"));
        }
        let n = n_ops as usize;
        let mut cur = Cursor { buf: rest, pos: 0 };
        // Variable-width sections decode into pre-sized arrays; each
        // fixed-width section is one bounds-checked slice, validated in a
        // tight loop and then bulk-copied.
        let mut addrs = vec![0u64; n];
        let mut prev_block = 0u64;
        for a in &mut addrs {
            let block = prev_block.wrapping_add(unzigzag(cur.varint()?) as u64);
            let off = cur.byte()?;
            if off >= 64 {
                return Err(PackedFileError::Malformed("block offset out of range"));
            }
            *a = (block << 6) | off as u64;
            prev_block = block;
        }
        let mut ref_ids = vec![0u32; n];
        cur.varints_u32(&mut ref_ids, "ref id out of range")?;
        let mut hints = Vec::with_capacity(n);
        for b in cur.take(2 * n)?.chunks_exact(2) {
            hints.push(
                HintSet::from_bits(u16::from_le_bytes([b[0], b[1]]))
                    .ok_or(PackedFileError::Malformed("invalid hint bits"))?,
            );
        }
        let flags = cur.take(n)?;
        let mut seen_stores = 0u64;
        for &f in flags {
            if f & !(FLAG_STORE | FLAG_DEP) != 0 {
                return Err(PackedFileError::Malformed("unknown op flag"));
            }
            if f == FLAG_STORE | FLAG_DEP {
                return Err(PackedFileError::Malformed("store with dependency flag"));
            }
            seen_stores += (f & FLAG_STORE) as u64;
        }
        if n_ops - seen_stores != loads || seen_stores != stores {
            return Err(PackedFileError::Malformed("flag stream vs header counts"));
        }
        let mut deps = vec![NO_DEP; n];
        let mut seq = 0u64;
        for (d, &f) in deps.iter_mut().zip(flags) {
            if f & FLAG_STORE != 0 {
                continue;
            }
            if f & FLAG_DEP != 0 {
                let dist = cur.varint()?;
                if dist == 0 || dist > seq {
                    return Err(PackedFileError::Malformed("dependency distance"));
                }
                *d = (seq - dist) as u32;
            }
            seq += 1;
        }
        let mut pre_compute = vec![0u32; n];
        cur.varints_u32(&mut pre_compute, "compute batch out of range")?;
        let sizes = cur.take(n)?.to_vec();
        let mut pseudos = Vec::with_capacity(n_pseudos as usize);
        let mut at = 0u64;
        for _ in 0..n_pseudos {
            at += cur.varint()?;
            if at > n_ops {
                return Err(PackedFileError::Malformed("pseudo event past trace end"));
            }
            let kind = match cur.byte()? {
                0 => PseudoKind::Compute(cur.varint_u32("compute batch out of range")?),
                1 => PseudoKind::SetLoopBound(cur.varint_u32("loop bound out of range")?),
                2 => {
                    let base = cur.varint()?;
                    let elem_size = cur.varint()?;
                    let index_addr = cur.varint()?;
                    let ref_id = cur.varint()?;
                    if elem_size > u32::MAX as u64 || ref_id > u32::MAX as u64 {
                        return Err(PackedFileError::Malformed("indirect prefetch field"));
                    }
                    PseudoKind::IndirectPrefetch {
                        base: Addr(base),
                        elem_size: elem_size as u32,
                        index_addr: Addr(index_addr),
                        ref_id: RefId(ref_id as u32),
                    }
                }
                _ => return Err(PackedFileError::Malformed("unknown pseudo kind")),
            };
            pseudos.push(PseudoEvent {
                at_op: at as u32,
                kind,
            });
        }
        if cur.pos != rest.len() {
            return Err(PackedFileError::TrailingBytes);
        }
        // Cross-check the instruction counter against the decoded streams
        // — the same sum identity `Trace` maintains.
        let summed: u64 = pre_compute.iter().map(|&c| c as u64).sum::<u64>()
            + n_ops
            + pseudos
                .iter()
                .map(|p| match p.kind {
                    PseudoKind::Compute(c) => c as u64,
                    _ => 1,
                })
                .sum::<u64>();
        if summed != instructions {
            return Err(PackedFileError::Malformed("instruction counter desync"));
        }
        Ok(PackedTrace {
            addrs,
            ref_ids,
            hints,
            flags: flags.to_vec(),
            deps,
            pre_compute,
            sizes,
            pseudos,
            loads,
            stores,
            instructions,
        })
    }
}

/// Iterator over a [`PackedTrace`]'s events: for each memop, its
/// side-table events, then its folded compute batch, then the memop;
/// then the side table's tail.
#[derive(Debug, Clone)]
pub struct Events<'a> {
    pt: &'a PackedTrace,
    /// Next memop to emit.
    op: usize,
    /// Next side-table entry to emit.
    pi: usize,
    /// Whether memop `op`'s `pre_compute` slot has been consumed.
    pre_done: bool,
}

impl Iterator for Events<'_> {
    type Item = TraceEvent;

    #[inline]
    fn next(&mut self) -> Option<TraceEvent> {
        let pt = self.pt;
        let i = self.op;
        if let Some(p) = pt.pseudos.get(self.pi) {
            if p.at_op as usize == i || i == pt.addrs.len() {
                self.pi += 1;
                return Some(pseudo_to_event(p.kind));
            }
        }
        if i == pt.addrs.len() {
            return None;
        }
        if !self.pre_done {
            self.pre_done = true;
            let pc = pt.pre_compute[i];
            if pc != 0 {
                return Some(TraceEvent::Compute(pc));
            }
        }
        self.pre_done = false;
        self.op += 1;
        let (addr, size, ref_id, hints) = (
            Addr(pt.addrs[i]),
            pt.sizes[i],
            RefId(pt.ref_ids[i]),
            pt.hints[i],
        );
        let flags = pt.flags[i];
        Some(if flags & FLAG_STORE != 0 {
            TraceEvent::Store {
                addr,
                size,
                ref_id,
                hints,
            }
        } else {
            TraceEvent::Load {
                addr,
                size,
                ref_id,
                hints,
                dep: (flags & FLAG_DEP != 0).then(|| pt.deps[i] as u64),
            }
        })
    }
}

fn pseudo_to_event(kind: PseudoKind) -> TraceEvent {
    match kind {
        PseudoKind::Compute(n) => TraceEvent::Compute(n),
        PseudoKind::SetLoopBound(b) => TraceEvent::SetLoopBound(b),
        PseudoKind::IndirectPrefetch {
            base,
            elem_size,
            index_addr,
            ref_id,
        } => TraceEvent::IndirectPrefetch {
            base,
            elem_size,
            index_addr,
            ref_id,
        },
    }
}

/// A bounds-checked read position in a packed payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    #[inline(always)]
    fn byte(&mut self) -> Result<u8, PackedFileError> {
        let b = *self.buf.get(self.pos).ok_or(PackedFileError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// The next `n` bytes as one slice.
    fn take(&mut self, n: usize) -> Result<&'a [u8], PackedFileError> {
        if self.buf.len() - self.pos < n {
            return Err(PackedFileError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One LEB128 varint. Most values in a trace fit in one byte, so
    /// that case is inline; longer encodings take the checked slow path.
    #[inline(always)]
    fn varint(&mut self) -> Result<u64, PackedFileError> {
        match self.buf.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(b as u64)
            }
            _ => self.varint_slow(),
        }
    }

    /// Fills `out` with varints that must each fit in `u32`; `what`
    /// names the field if one does not. Runs of one-byte encodings,
    /// nearly every ref id and compute batch, are checked and widened a
    /// block at a time.
    fn varints_u32(&mut self, out: &mut [u32], what: &'static str) -> Result<(), PackedFileError> {
        const BLOCK: usize = 32;
        for block in out.chunks_mut(BLOCK) {
            match self.buf.get(self.pos..self.pos + block.len()) {
                Some(bytes) if bytes.iter().fold(0, |acc, &b| acc | b) < 0x80 => {
                    for (o, &b) in block.iter_mut().zip(bytes) {
                        *o = b as u32;
                    }
                    self.pos += block.len();
                }
                _ => {
                    for o in block {
                        *o = self.varint_u32(what)?;
                    }
                }
            }
        }
        Ok(())
    }

    #[cold]
    #[inline(never)]
    fn varint_slow(&mut self) -> Result<u64, PackedFileError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err(PackedFileError::Malformed("varint overflows u64"));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(PackedFileError::Malformed("varint too long"));
            }
        }
    }

    /// A varint that must fit in `u32`; `what` names the field if not.
    #[inline(always)]
    fn varint_u32(&mut self, what: &'static str) -> Result<u32, PackedFileError> {
        u32::try_from(self.varint()?).map_err(|_| PackedFileError::Malformed(what))
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Odd multipliers: multiplying by an odd constant is a bijection on
/// `u64`, which the single-byte guarantee of [`checksum64`] rests on.
const K1: u64 = 0x9e37_79b1_85eb_ca87;
const K2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const K3: u64 = 0x1656_67b1_9e37_79f9;

/// One multiply–rotate step. For a fixed `acc` it is a bijection of
/// `w`, and for a fixed `w` a bijection of `acc`.
#[inline(always)]
fn mix(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(K2))
        .rotate_left(31)
        .wrapping_mul(K1)
}

/// The checksum of both on-disk formats: packed-trace payloads here and
/// trace-cache entries in `grp-bench` (in-tree; the workspace is
/// hermetic, no external hash crates).
///
/// Reads 8-byte little-endian words into four independent lanes, one
/// multiply–rotate step per word, then folds the lanes, the trailing words, the
/// zero-padded tail bytes, and the length into one value and finishes
/// with a bijective avalanche. Every step is a bijection of the word it
/// reads, so for inputs of equal length changing any single byte always
/// changes the sum. The length is folded in before the avalanche, so a
/// zero-padded tail never sums like the same bytes padded by hand.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let (mut a, mut b, mut c, mut d) = (K1, K2, K3, K1 ^ K3);
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
    let mut stripes = bytes.chunks_exact(32);
    for s in &mut stripes {
        a = mix(a, word(&s[0..8]));
        b = mix(b, word(&s[8..16]));
        c = mix(c, word(&s[16..24]));
        d = mix(d, word(&s[24..32]));
    }
    let mut h = mix(mix(mix(mix(0, a), b), c), d);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = mix(h, word(w));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = mix(h, u64::from_le_bytes(last));
    }
    h ^= bytes.len() as u64;
    h ^= h >> 33;
    h = h.wrapping_mul(K2);
    h ^= h >> 29;
    h = h.wrapping_mul(K3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic xorshift so tests stay hermetic (no rand crate).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn random_hints(rng: &mut Rng) -> HintSet {
        let mut h = HintSet::none();
        if rng.below(2) == 0 {
            h = h.with_spatial();
        }
        if rng.below(4) == 0 {
            h = h.with_pointer();
        }
        if rng.below(8) == 0 {
            h = h.with_recursive();
        }
        if rng.below(3) == 0 {
            h = h.with_size_coeff(rng.below(7) as u8);
        }
        h
    }

    /// Builds a randomized trace exercising every event kind, dependency
    /// edges, and adjacent pseudo-events.
    fn random_trace(seed: u64, n: usize) -> Trace {
        let mut rng = Rng(seed | 1);
        let mut t = Trace::new();
        let mut load_seqs: Vec<u64> = Vec::new();
        for _ in 0..n {
            match rng.below(10) {
                0..=4 => {
                    let dep = if !load_seqs.is_empty() && rng.below(3) == 0 {
                        Some(load_seqs[rng.below(load_seqs.len() as u64) as usize])
                    } else {
                        None
                    };
                    let h = random_hints(&mut rng);
                    let s = t.push_load(
                        Addr(rng.below(1 << 40)),
                        1 << rng.below(4),
                        RefId(rng.below(100) as u32),
                        h,
                        dep,
                    );
                    load_seqs.push(s);
                }
                5..=6 => t.push_store(
                    Addr(rng.below(1 << 40)),
                    1 << rng.below(4),
                    RefId(rng.below(100) as u32),
                    random_hints(&mut rng),
                ),
                7 => t.push_compute(rng.below(1000) as u32 + 1),
                8 => t.push_set_loop_bound(rng.below(10_000) as u32),
                _ => t.push_indirect_prefetch(
                    Addr(rng.below(1 << 40)),
                    (1 << rng.below(4)) as u32,
                    Addr(rng.below(1 << 40)),
                    RefId(rng.below(100) as u32),
                ),
            }
        }
        t.finish();
        t
    }

    fn assert_traces_identical(a: &Trace, b: &Trace) {
        assert_eq!(a.events(), b.events());
        assert_eq!(a.loads(), b.loads());
        assert_eq!(a.stores(), b.stores());
        assert_eq!(a.instructions(), b.instructions());
    }

    #[test]
    fn round_trip_property_random_traces() {
        // Pack → unpack and pack → bytes → decode → unpack must both be
        // bit-identical to the original trace across many random shapes,
        // including dep edges, hints, and pseudo-events.
        for seed in 1..=20u64 {
            let t = random_trace(seed * 0x9e37_79b9, 400);
            let pt = PackedTrace::pack(&t).expect("pack");
            assert_traces_identical(&t, &pt.unpack());
            let bytes = pt.to_bytes();
            let decoded = PackedTrace::from_bytes(&bytes).expect("decode");
            assert_traces_identical(&t, &decoded.unpack());
        }
    }

    #[test]
    fn round_trip_edge_shapes() {
        // Empty trace.
        let mut t = Trace::new();
        t.finish();
        let pt = PackedTrace::pack(&t).unwrap();
        assert_traces_identical(&t, &pt.unpack());
        assert_traces_identical(
            &t,
            &PackedTrace::from_bytes(&pt.to_bytes()).unwrap().unpack(),
        );

        // Pure pseudo-events, no memops: everything lands in the tail.
        let mut t = Trace::new();
        t.push_compute(5);
        t.push_set_loop_bound(9);
        t.push_compute(3);
        t.push_indirect_prefetch(Addr(0x1000), 4, Addr(0x2000), RefId(7));
        t.finish();
        let pt = PackedTrace::pack(&t).unwrap();
        assert_eq!(pt.n_ops(), 0);
        assert_eq!(pt.pseudos().len(), 4);
        assert_traces_identical(&t, &pt.unpack());
        assert_traces_identical(
            &t,
            &PackedTrace::from_bytes(&pt.to_bytes()).unwrap().unpack(),
        );

        // Compute overflow chain: two adjacent Compute events (the
        // push_compute boundary flush) — the first must survive as a
        // side-table entry, the second folds into pre_compute.
        let mut t = Trace::new();
        t.push_compute(u32::MAX - 1);
        t.push_compute(10);
        t.push_load(Addr(0x40), 8, RefId(0), HintSet::none(), None);
        t.finish();
        assert_eq!(t.events().len(), 3, "boundary flush splits the batch");
        let pt = PackedTrace::pack(&t).unwrap();
        assert_eq!(pt.pseudos().len(), 1);
        assert!(matches!(pt.pseudos()[0].kind, PseudoKind::Compute(_)));
        assert_eq!(
            pt.pre_compute()[0],
            9,
            "10 minus the 1 that fit before the flush"
        );
        assert_traces_identical(&t, &pt.unpack());
        assert_traces_identical(
            &t,
            &PackedTrace::from_bytes(&pt.to_bytes()).unwrap().unpack(),
        );
    }

    #[test]
    fn fold_order_preserves_event_sequence() {
        // Gap [Compute, SetLoopBound]: the compute precedes the pseudo,
        // so it must NOT fold into pre_compute (which fires after the
        // side table).
        let mut t = Trace::new();
        t.push_compute(5);
        t.push_set_loop_bound(100);
        t.push_load(Addr(0x40), 8, RefId(0), HintSet::none(), None);
        t.finish();
        let pt = PackedTrace::pack(&t).unwrap();
        assert_eq!(pt.pseudos().len(), 2);
        assert_eq!(pt.pseudos()[0].kind, PseudoKind::Compute(5));
        assert_eq!(pt.pseudos()[1].kind, PseudoKind::SetLoopBound(100));
        assert_eq!(pt.pre_compute()[0], 0);
        assert_traces_identical(&t, &pt.unpack());

        // Gap [SetLoopBound, Compute]: the compute is last — folds.
        let mut t = Trace::new();
        t.push_set_loop_bound(100);
        t.push_compute(5);
        t.push_load(Addr(0x40), 8, RefId(0), HintSet::none(), None);
        t.finish();
        let pt = PackedTrace::pack(&t).unwrap();
        assert_eq!(pt.pseudos().len(), 1);
        assert_eq!(pt.pre_compute()[0], 5);
        assert_traces_identical(&t, &pt.unpack());
    }

    #[test]
    fn pack_rejects_bad_deps() {
        let mut t = Trace::new();
        // Forward (self) dependency: seq 0 depending on seq 0.
        t.push_load(Addr(0x40), 8, RefId(0), HintSet::none(), Some(0));
        t.finish();
        assert_eq!(PackedTrace::pack(&t), Err(PackError::BadDep));
    }

    #[test]
    fn corrupted_header_yields_named_errors() {
        let mut t = Trace::new();
        t.push_load(
            Addr(0x1234),
            8,
            RefId(3),
            HintSet::none().with_spatial(),
            None,
        );
        t.push_compute(7);
        t.finish();
        let good = PackedTrace::pack(&t).unwrap().to_bytes();

        // Bad magic.
        let mut b = good.clone();
        b[0] = b'X';
        assert_eq!(PackedTrace::from_bytes(&b), Err(PackedFileError::BadMagic));

        // Future version.
        let mut b = good.clone();
        b[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            PackedTrace::from_bytes(&b),
            Err(PackedFileError::UnsupportedVersion(99))
        );

        // Inconsistent counters.
        let mut b = good.clone();
        b[16..24].copy_from_slice(&5u64.to_le_bytes()); // loads = 5
        assert!(matches!(
            PackedTrace::from_bytes(&b),
            Err(PackedFileError::Malformed(_))
        ));

        // Flipped payload byte.
        let mut b = good.clone();
        *b.last_mut().unwrap() ^= 0x40;
        assert_eq!(
            PackedTrace::from_bytes(&b),
            Err(PackedFileError::ChecksumMismatch)
        );

        // Trailing garbage.
        let mut b = good.clone();
        b.push(0);
        assert_eq!(
            PackedTrace::from_bytes(&b),
            Err(PackedFileError::TrailingBytes)
        );

        // Empty and sub-header inputs.
        assert_eq!(
            PackedTrace::from_bytes(&[]),
            Err(PackedFileError::Truncated)
        );
        assert_eq!(
            PackedTrace::from_bytes(&good[..3]),
            Err(PackedFileError::Truncated)
        );
    }

    #[test]
    fn corrupt_flags_name_the_first_offender() {
        // Two ops at address 0, ref 0, no hints: each packs to a 1-byte
        // delta, a 1-byte offset, a 1-byte ref id and 2 hint bytes, so
        // the flag section starts 5 bytes per op into the payload.
        let mut t = Trace::new();
        t.push_load(Addr(0), 8, RefId(0), HintSet::none(), None);
        t.push_store(Addr(0), 8, RefId(0), HintSet::none());
        t.finish();
        let good = PackedTrace::pack(&t).unwrap().to_bytes();
        let flags_at = HEADER_BYTES + 2 * 5;
        assert_eq!(good[flags_at..flags_at + 2], [0, FLAG_STORE]);
        let with_flags = |f0: u8, f1: u8| {
            let mut b = good.clone();
            b[flags_at] = f0;
            b[flags_at + 1] = f1;
            let sum = checksum64(&b[HEADER_BYTES..]);
            b[HEADER_BYTES - 8..HEADER_BYTES].copy_from_slice(&sum.to_le_bytes());
            PackedTrace::from_bytes(&b)
        };
        let malformed = |what| Err(PackedFileError::Malformed(what));
        assert!(
            with_flags(0, FLAG_STORE).is_ok(),
            "re-summing alone keeps it valid"
        );
        assert_eq!(with_flags(1 << 2, FLAG_STORE), malformed("unknown op flag"));
        assert_eq!(
            with_flags(FLAG_STORE | FLAG_DEP, 1 << 7),
            malformed("store with dependency flag")
        );
        assert_eq!(with_flags(0, 1 << 7), malformed("unknown op flag"));
        assert_eq!(
            with_flags(FLAG_STORE, FLAG_STORE),
            malformed("flag stream vs header counts")
        );
        assert_eq!(with_flags(0, 0), malformed("flag stream vs header counts"));
    }

    #[test]
    fn varint_edges_decode_or_fail_by_name() {
        let decode = |buf: &[u8]| {
            let mut cur = Cursor { buf, pos: 0 };
            cur.varint().map(|v| (v, cur.pos))
        };
        for v in [0, 1, 127, 128, 16_383, 16_384, 1 << 56, u64::MAX] {
            let mut enc = Vec::new();
            put_varint(&mut enc, v);
            assert_eq!(decode(&enc), Ok((v, enc.len())), "{v:#x}");
        }
        // Redundant zero groups still decode to the value they spell.
        assert_eq!(decode(&[0x81, 0x80, 0x00]), Ok((1, 3)));
        let mut long = vec![0xff; 9];
        long.push(0x02);
        assert_eq!(
            decode(&long),
            Err(PackedFileError::Malformed("varint overflows u64"))
        );
        assert_eq!(decode(&[0x80]), Err(PackedFileError::Truncated));
    }

    #[test]
    fn checksum_changes_on_any_bit_flip_or_appended_zero() {
        // Lengths 0..=100 cover empty input, every tail length, whole
        // words after the stripes, and several full 32-byte stripes.
        let mut rng = Rng(0x5eed);
        for len in 0..=100usize {
            let random: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            for data in [random, vec![0u8; len]] {
                let sum = checksum64(&data);
                for bit in 0..len * 8 {
                    let mut d = data.clone();
                    d[bit / 8] ^= 1 << (bit % 8);
                    assert_ne!(checksum64(&d), sum, "len {len}, bit {bit}");
                }
                let mut longer = data.clone();
                longer.push(0);
                assert_ne!(checksum64(&longer), sum, "len {len} + a zero byte");
            }
        }
    }

    #[test]
    fn truncated_files_yield_truncated_not_panic() {
        let t = random_trace(42, 300);
        let good = PackedTrace::pack(&t).unwrap().to_bytes();
        // Every prefix must decode to a named error — never panic, never
        // a silently partial trace.
        for len in 0..good.len() {
            let err = PackedTrace::from_bytes(&good[..len])
                .expect_err("prefix must not decode as a full trace");
            assert!(
                matches!(
                    err,
                    PackedFileError::Truncated
                        | PackedFileError::BadMagic
                        | PackedFileError::ChecksumMismatch
                        | PackedFileError::Malformed(_)
                ),
                "len {len}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn stats_count_folds_and_pseudos() {
        let mut t = Trace::new();
        t.push_compute(4);
        t.push_load(Addr(0x40), 8, RefId(0), HintSet::none(), None);
        t.push_store(Addr(0x80), 8, RefId(1), HintSet::none());
        t.push_set_loop_bound(10);
        t.push_load(Addr(0xc0), 8, RefId(2), HintSet::none(), None);
        t.finish();
        let pt = PackedTrace::pack(&t).unwrap();
        let s = pt.stats();
        assert_eq!(s.memops, 3);
        assert_eq!(s.pseudo_events, 1);
        assert_eq!(s.folded_computes, 1);
    }

    #[test]
    fn delta_encoding_is_compact_for_streams() {
        // A sequential stream should pack to a few bytes per op, far
        // smaller than the 40-byte in-memory TraceEvent.
        let mut t = Trace::new();
        for i in 0..10_000u64 {
            t.push_load(Addr(0x10_0000 + i * 8), 8, RefId(0), HintSet::none(), None);
            t.push_compute(4);
        }
        t.finish();
        let pt = PackedTrace::pack(&t).unwrap();
        let bytes = pt.to_bytes();
        assert!(
            bytes.len() < 10_000 * 10,
            "stream packs compactly: {} bytes for 10k ops",
            bytes.len()
        );
    }
}
