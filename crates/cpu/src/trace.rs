//! The dynamic instruction trace.
//!
//! The IR interpreter (crate `grp-ir`) executes a kernel and records a
//! [`Trace`]; the simulator (crate `grp-core`) replays it through the
//! timing model. A trace is the moral equivalent of the paper's
//! hint-annotated Alpha binary running under `sim-outorder`: loads and
//! stores carry their static reference id (so hints and per-site miss
//! attribution work) and an *address dependency* edge (so dependent loads
//! — pointer chasing — serialize in the timing model).

use grp_mem::Addr;

use crate::hints::HintSet;

/// Identifier of a *static* memory reference site in the program. Hints
/// are attached per `RefId`, mirroring per-instruction hints in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RefId(pub u32);

/// Sequence number of a dynamic load within a trace, used as the target
/// of address-dependency edges.
pub type LoadSeq = u64;

/// One dynamic event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// `n` non-memory instructions (ALU/branch/FP work between references).
    Compute(u32),
    /// A load of `size` bytes. `dep` names the earlier dynamic load whose
    /// result this load's *address* depends on, if any.
    Load {
        /// Byte address accessed.
        addr: Addr,
        /// Access size in bytes (1..=8).
        size: u8,
        /// Static reference site.
        ref_id: RefId,
        /// Compiler hints for the site (attached at trace-write time).
        hints: HintSet,
        /// Address dependency on an earlier load's value.
        dep: Option<LoadSeq>,
    },
    /// A store of `size` bytes. Stores retire through a write buffer and
    /// do not block the window, but they access the cache (write-allocate)
    /// and consume bandwidth.
    Store {
        /// Byte address accessed.
        addr: Addr,
        /// Access size in bytes (1..=8).
        size: u8,
        /// Static reference site.
        ref_id: RefId,
        /// Compiler hints for the site.
        hints: HintSet,
    },
    /// The special instruction conveying a loop's upper bound to the
    /// engine for variable-size region prefetching (§3.3.2).
    SetLoopBound(u32),
    /// The explicit indirect prefetch instruction (§3.3.3): conveys the
    /// indexed array's base address, its element size, and the address of
    /// the index element `&b[i]`.
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

impl TraceEvent {
    /// Number of instructions this event contributes to the committed
    /// instruction count.
    pub fn instruction_count(&self) -> u64 {
        match self {
            TraceEvent::Compute(n) => *n as u64,
            _ => 1,
        }
    }

    /// True for loads and stores.
    pub fn is_memory(&self) -> bool {
        matches!(self, TraceEvent::Load { .. } | TraceEvent::Store { .. })
    }
}

/// A recorded dynamic execution.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    loads: u64,
    stores: u64,
    instructions: u64,
    pending_compute: u32,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `n` compute instructions, coalescing adjacent batches.
    ///
    /// A coalesced run that would overflow the `u32` batch counter is
    /// flushed as a full `Compute(u32::MAX)` event first, so
    /// [`Trace::instructions`] always equals the sum of
    /// [`TraceEvent::instruction_count`] over [`Trace::events`] (it used
    /// to saturate the pending batch while still crediting the full `n`,
    /// silently desyncing the two past `u32::MAX`).
    pub fn push_compute(&mut self, n: u32) {
        if n == 0 {
            return;
        }
        self.instructions += n as u64;
        let room = u32::MAX - self.pending_compute;
        if n > room {
            self.pending_compute = u32::MAX;
            self.flush_compute();
            self.pending_compute = n - room;
        } else {
            self.pending_compute += n;
        }
    }

    fn flush_compute(&mut self) {
        if self.pending_compute > 0 {
            self.events.push(TraceEvent::Compute(self.pending_compute));
            self.pending_compute = 0;
        }
    }

    /// Appends a load and returns its dynamic load sequence number.
    pub fn push_load(
        &mut self,
        addr: Addr,
        size: u8,
        ref_id: RefId,
        hints: HintSet,
        dep: Option<LoadSeq>,
    ) -> LoadSeq {
        self.flush_compute();
        let seq = self.loads;
        self.loads += 1;
        self.instructions += 1;
        self.events.push(TraceEvent::Load {
            addr,
            size,
            ref_id,
            hints,
            dep,
        });
        seq
    }

    /// Appends a store.
    pub fn push_store(&mut self, addr: Addr, size: u8, ref_id: RefId, hints: HintSet) {
        self.flush_compute();
        self.stores += 1;
        self.instructions += 1;
        self.events.push(TraceEvent::Store {
            addr,
            size,
            ref_id,
            hints,
        });
    }

    /// Appends the loop-bound pseudo-instruction.
    pub fn push_set_loop_bound(&mut self, bound: u32) {
        self.flush_compute();
        self.instructions += 1;
        self.events.push(TraceEvent::SetLoopBound(bound));
    }

    /// Appends an indirect-prefetch pseudo-instruction.
    pub fn push_indirect_prefetch(
        &mut self,
        base: Addr,
        elem_size: u32,
        index_addr: Addr,
        ref_id: RefId,
    ) {
        self.flush_compute();
        self.instructions += 1;
        self.events.push(TraceEvent::IndirectPrefetch {
            base,
            elem_size,
            index_addr,
            ref_id,
        });
    }

    /// Reassembles a finalized trace from its parts — the packed tier's
    /// unpack path. Callers guarantee the counters match the event
    /// stream (debug-asserted here).
    pub(crate) fn from_raw_parts(
        events: Vec<TraceEvent>,
        loads: u64,
        stores: u64,
        instructions: u64,
    ) -> Self {
        debug_assert_eq!(
            instructions,
            events.iter().map(|e| e.instruction_count()).sum::<u64>()
        );
        Self {
            events,
            loads,
            stores,
            instructions,
            pending_compute: 0,
        }
    }

    /// Finalizes any coalesced compute tail. Idempotent.
    pub fn finish(&mut self) {
        self.flush_compute();
    }

    /// The recorded events. Call [`Trace::finish`] first to include a
    /// trailing compute batch.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Committed instruction count (including pseudo-instructions).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Dynamic load count.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Dynamic store count.
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Dynamic memory-reference count.
    pub fn memory_refs(&self) -> u64 {
        self.loads + self.stores
    }
}

/// Collects an event stream into a finished trace through the matching
/// `push_*` methods, so compute batches coalesce and loads get their
/// sequence numbers as if the producer had pushed them directly.
impl FromIterator<TraceEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(events: I) -> Self {
        let mut t = Trace::new();
        for ev in events {
            match ev {
                TraceEvent::Compute(n) => t.push_compute(n),
                TraceEvent::Load {
                    addr,
                    size,
                    ref_id,
                    hints,
                    dep,
                } => {
                    t.push_load(addr, size, ref_id, hints, dep);
                }
                TraceEvent::Store {
                    addr,
                    size,
                    ref_id,
                    hints,
                } => t.push_store(addr, size, ref_id, hints),
                TraceEvent::SetLoopBound(b) => t.push_set_loop_bound(b),
                TraceEvent::IndirectPrefetch {
                    base,
                    elem_size,
                    index_addr,
                    ref_id,
                } => t.push_indirect_prefetch(base, elem_size, index_addr, ref_id),
            }
        }
        t.finish();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_batches_coalesce() {
        let mut t = Trace::new();
        t.push_compute(3);
        t.push_compute(4);
        t.push_load(Addr(0), 8, RefId(0), HintSet::none(), None);
        t.push_compute(2);
        t.finish();
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.events()[0], TraceEvent::Compute(7));
        assert!(matches!(t.events()[1], TraceEvent::Load { .. }));
        assert_eq!(t.events()[2], TraceEvent::Compute(2));
        assert_eq!(t.instructions(), 10);
    }

    #[test]
    fn zero_compute_is_dropped() {
        let mut t = Trace::new();
        t.push_compute(0);
        t.finish();
        assert!(t.events().is_empty());
        assert_eq!(t.instructions(), 0);
    }

    #[test]
    fn load_sequence_numbers_increment() {
        let mut t = Trace::new();
        let a = t.push_load(Addr(0), 8, RefId(0), HintSet::none(), None);
        let b = t.push_load(Addr(8), 8, RefId(1), HintSet::none(), Some(a));
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(t.loads(), 2);
        match t.events()[1] {
            TraceEvent::Load { dep, .. } => assert_eq!(dep, Some(0)),
            _ => panic!("expected load"),
        }
    }

    #[test]
    fn counts_by_kind() {
        let mut t = Trace::new();
        t.push_load(Addr(0), 4, RefId(0), HintSet::none(), None);
        t.push_store(Addr(4), 4, RefId(1), HintSet::none());
        t.push_set_loop_bound(100);
        t.push_indirect_prefetch(Addr(64), 4, Addr(128), RefId(2));
        t.finish();
        assert_eq!(t.loads(), 1);
        assert_eq!(t.stores(), 1);
        assert_eq!(t.memory_refs(), 2);
        assert_eq!(t.instructions(), 4);
        assert_eq!(t.events().len(), 4);
    }

    #[test]
    fn compute_overflow_flushes_instead_of_saturating() {
        // Regression: a coalesced compute run past u32::MAX used to
        // saturate `pending_compute` while still crediting the full `n`
        // to `instructions`, desyncing the two counts. The batch must
        // flush at the boundary instead.
        let mut t = Trace::new();
        t.push_compute(u32::MAX - 10);
        t.push_compute(25); // crosses the u32 boundary mid-batch
        t.push_compute(7);
        t.finish();
        let summed: u64 = t.events().iter().map(|e| e.instruction_count()).sum();
        assert_eq!(
            t.instructions(),
            summed,
            "sum identity must hold at the boundary"
        );
        assert_eq!(t.instructions(), (u32::MAX - 10) as u64 + 25 + 7);
        assert_eq!(t.events()[0], TraceEvent::Compute(u32::MAX));
        assert_eq!(t.events()[1], TraceEvent::Compute(22));
    }

    #[test]
    fn compute_exact_boundary_fill_keeps_sum_identity() {
        // Filling the batch to exactly u32::MAX must not emit an empty
        // spurious event or lose the next batch.
        let mut t = Trace::new();
        t.push_compute(u32::MAX);
        t.push_compute(1);
        t.finish();
        let summed: u64 = t.events().iter().map(|e| e.instruction_count()).sum();
        assert_eq!(t.instructions(), summed);
        assert_eq!(
            t.events(),
            &[TraceEvent::Compute(u32::MAX), TraceEvent::Compute(1)]
        );
    }

    #[test]
    fn collecting_events_rebuilds_the_trace() {
        let mut t = Trace::new();
        t.push_compute(u32::MAX);
        t.push_compute(5);
        let a = t.push_load(Addr(0), 8, RefId(0), HintSet::none(), None);
        t.push_set_loop_bound(9);
        t.push_load(
            Addr(64),
            8,
            RefId(1),
            HintSet::none().with_spatial(),
            Some(a),
        );
        t.push_store(Addr(8), 4, RefId(2), HintSet::none());
        t.push_indirect_prefetch(Addr(64), 4, Addr(128), RefId(3));
        t.push_compute(3);
        t.finish();
        let back: Trace = t.events().iter().copied().collect();
        assert_eq!(back.events(), t.events());
        assert_eq!(
            (back.loads(), back.stores(), back.instructions()),
            (t.loads(), t.stores(), t.instructions())
        );
    }

    #[test]
    fn instruction_count_per_event() {
        assert_eq!(TraceEvent::Compute(9).instruction_count(), 9);
        assert_eq!(TraceEvent::SetLoopBound(1).instruction_count(), 1);
        assert!(TraceEvent::Load {
            addr: Addr(0),
            size: 8,
            ref_id: RefId(0),
            hints: HintSet::none(),
            dep: None
        }
        .is_memory());
        assert!(!TraceEvent::Compute(1).is_memory());
    }
}
