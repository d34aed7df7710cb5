//! The region prefetching engine — SRP (§3.1) and GRP (§3.3).
//!
//! One engine implements both schemes: SRP is the configuration with no
//! hint gating (`spatial_gate = false`, pointer scanning off), GRP adds
//! the compiler-hint gates, pointer/recursive scanning, variable-size
//! regions, and indirect prefetching. The prefetch queue is a bounded
//! LIFO of region entries, each holding a 64-bit candidate vector and a
//! next-candidate index, exactly as described in §3.1.

use grp_cpu::{HintSet, RefId};
use grp_mem::{
    Addr, BlockAddr, Cache, Dram, FastMap, HeapRange, Memory, MshrFile, RegionAddr, REGION_BLOCKS,
};

use super::{Candidate, EngineStats, Prefetcher};

use crate::obs::{EngineEvent, SquashReason};

/// When the engine scans returned lines for pointers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointerMode {
    /// Never scan (SRP, stride).
    Off,
    /// Scan every returned demand-miss line to the given depth — the
    /// hardware-only greedy scheme of §3.2.
    AllMisses(u8),
    /// Scan only lines whose miss carried a `pointer`/`recursive` hint.
    Hinted,
}

/// Region engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionConfig {
    /// Queue capacity (paper: 32).
    pub queue_capacity: usize,
    /// Allocate region entries at all (off for pointer-only schemes).
    pub regions_enabled: bool,
    /// Only allocate regions for misses with the `spatial` hint (GRP).
    pub spatial_gate: bool,
    /// Pointer-scan behaviour.
    pub pointer_mode: PointerMode,
    /// Honor `size` coefficients + loop bounds (GRP/Var).
    pub varsize: bool,
    /// Chase depth seeded by a `recursive pointer` hint (paper: 6).
    pub recursive_depth: u8,
    /// FIFO instead of LIFO queue order (ablation; paper uses LIFO).
    pub fifo: bool,
    /// Entries examined when preferring open-row candidates.
    pub probe_depth: usize,
}

impl RegionConfig {
    /// Scheduled region prefetching, no compiler support.
    pub fn srp(queue_capacity: usize) -> Self {
        Self {
            queue_capacity,
            regions_enabled: true,
            spatial_gate: false,
            pointer_mode: PointerMode::Off,
            varsize: false,
            recursive_depth: 6,
            fifo: false,
            probe_depth: 4,
        }
    }

    /// Full GRP; `varsize` selects GRP/Var vs GRP/Fix.
    pub fn grp(queue_capacity: usize, varsize: bool, recursive_depth: u8) -> Self {
        Self {
            queue_capacity,
            regions_enabled: true,
            spatial_gate: true,
            pointer_mode: PointerMode::Hinted,
            varsize,
            recursive_depth,
            fifo: false,
            probe_depth: 4,
        }
    }

    /// Hardware pointer prefetching alone (Figure 9).
    pub fn hw_pointer(queue_capacity: usize, depth: u8) -> Self {
        Self {
            queue_capacity,
            regions_enabled: false,
            spatial_gate: true,
            pointer_mode: PointerMode::AllMisses(depth),
            varsize: false,
            recursive_depth: depth,
            fifo: false,
            probe_depth: 4,
        }
    }

    /// Pointer prefetching gated by hints, without region prefetching.
    pub fn grp_pointer(queue_capacity: usize, recursive_depth: u8) -> Self {
        Self {
            queue_capacity,
            regions_enabled: false,
            spatial_gate: true,
            pointer_mode: PointerMode::Hinted,
            varsize: false,
            recursive_depth,
            fifo: false,
            probe_depth: 4,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct RegionEntry {
    region: RegionAddr,
    /// Candidate blocks still to prefetch.
    bits: u64,
    /// Next-candidate index within the region (wraps).
    index: u8,
    /// Pointer-chase depth to attach to issued prefetches.
    pointer_level: u8,
    /// Bits whose block has been probed against L2/MSHR residency and
    /// survived. Stale bits can only originate when a bit is first set
    /// (a block *entering* the cache or the MSHR file always clears its
    /// own candidate bit at that moment), so a bit that survives one
    /// probe can never become stale — later scans skip its residency
    /// probes. Tracked per bit (not per entry) so an entry that keeps
    /// yielding candidates doesn't re-probe its prefix on every take.
    checked: u64,
}

impl RegionEntry {
    fn clear(&mut self, bit: u8) {
        self.bits &= !(1u64 << bit);
    }
}

/// Null slot id for the intrusive queue links.
const NIL: u32 = u32::MAX;

/// A queue slot: the entry plus its doubly-linked neighbours. The queue
/// is a slab of slots threaded head↔tail so that the miss-to-queued-region
/// paths (which hit on most demand misses in region-heavy workloads) can
/// jump straight to an entry via the region index instead of scanning.
#[derive(Debug, Clone, Copy)]
struct Slot {
    entry: RegionEntry,
    prev: u32,
    next: u32,
}

/// The SRP/GRP prefetch engine.
#[derive(Debug)]
pub struct RegionPrefetcher {
    cfg: RegionConfig,
    slots: Vec<Slot>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
    /// region base → slot id, for O(1) entry lookup on demand misses and
    /// pointer/indirect enqueues. Only probed by key, never iterated, so
    /// it cannot perturb determinism.
    index: FastMap<u64, u32>,
    loop_bound: u32,
    stats: EngineStats,
    /// Buffer queued/squashed lifecycle events for the observer layer.
    trace: bool,
    events: Vec<EngineEvent>,
    // Test-only fault injection: when set, push_entry skips the
    // capacity-enforcement drop loop, letting the queue grow without
    // bound. Exists so the invariant-observer gate can prove it detects
    // queue-bound bugs; never set in production.
    fault_unbounded: bool,
    // Fault-injection back-pressure: entries of capacity currently
    // withheld (effective capacity floors at one). Zero outside fault
    // windows, so the unfaulted path is untouched.
    pressure: usize,
}

impl RegionPrefetcher {
    /// Creates an engine from `cfg`.
    pub fn new(cfg: RegionConfig) -> Self {
        Self {
            cfg,
            slots: Vec::with_capacity(cfg.queue_capacity + 1),
            free: Vec::with_capacity(cfg.queue_capacity + 1),
            head: NIL,
            tail: NIL,
            len: 0,
            index: FastMap::with_capacity_and_hasher(cfg.queue_capacity * 2, Default::default()),
            loop_bound: 0,
            stats: EngineStats::default(),
            trace: false,
            events: Vec::new(),
            fault_unbounded: false,
            pressure: 0,
        }
    }

    /// Queue capacity after subtracting any fault-injection pressure,
    /// never less than one.
    fn effective_capacity(&self) -> usize {
        self.cfg.queue_capacity.saturating_sub(self.pressure).max(1)
    }

    /// Drops old entries off the bottom until occupancy fits the
    /// effective capacity (§3.1's back-pressure, also reused by the
    /// fault-injection queue squeeze).
    fn enforce_capacity(&mut self) {
        while !self.fault_unbounded && self.len > self.effective_capacity() {
            let victim = if self.cfg.fifo { self.head } else { self.tail };
            let dropped = self.remove_slot(victim);
            if self.trace {
                let mut rem = dropped.bits;
                while rem != 0 {
                    let bit = rem.trailing_zeros();
                    rem &= rem - 1;
                    self.events.push(EngineEvent::squashed(
                        dropped.region.block(bit as usize),
                        SquashReason::Dropped,
                    ));
                }
            }
            self.stats.entries_dropped += 1;
        }
    }

    /// The active configuration.
    pub fn config(&self) -> RegionConfig {
        self.cfg
    }

    /// Current queue occupancy (entries).
    pub fn queue_len(&self) -> usize {
        self.len
    }

    /// Checks slab ↔ intrusive list ↔ region-index coherence and the
    /// queue capacity bound. Entries with an empty bit vector are legal
    /// (the demand-clear path can empty an entry in place). Returns the
    /// first violation as a message.
    pub fn validate_queue(&self) -> Result<(), String> {
        let mut seen = vec![false; self.slots.len()];
        let mut id = self.head;
        let mut prev = NIL;
        let mut count = 0usize;
        while id != NIL {
            let i = id as usize;
            if i >= self.slots.len() {
                return Err(format!("region queue: link to out-of-range slot {id}"));
            }
            if seen[i] {
                return Err(format!("region queue: cycle through slot {id}"));
            }
            seen[i] = true;
            let slot = &self.slots[i];
            if slot.prev != prev {
                return Err(format!(
                    "region queue: slot {id} prev link is {} but should be {}",
                    slot.prev, prev
                ));
            }
            match self.index.get(&slot.entry.region.0) {
                Some(&mapped) if mapped == id => {}
                other => {
                    return Err(format!(
                        "region queue: slot {id} (region {:#x}) maps to {other:?} in the index",
                        slot.entry.region.0
                    ))
                }
            }
            count += 1;
            prev = id;
            id = slot.next;
        }
        if prev != self.tail {
            return Err(format!(
                "region queue: walk ends at slot {prev} but tail is {}",
                self.tail
            ));
        }
        if count != self.len {
            return Err(format!(
                "region queue: list holds {count} entries but len is {}",
                self.len
            ));
        }
        if self.index.len() != count {
            return Err(format!(
                "region queue: index holds {} keys for {count} live entries",
                self.index.len()
            ));
        }
        for &f in &self.free {
            if (f as usize) < seen.len() && seen[f as usize] {
                return Err(format!("region queue: slot {f} is both free and linked"));
            }
        }
        if self.len + self.free.len() != self.slots.len() {
            return Err(format!(
                "region queue: {} slots != {} live + {} free",
                self.slots.len(),
                self.len,
                self.free.len()
            ));
        }
        if self.len > self.cfg.queue_capacity {
            return Err(format!(
                "region queue: occupancy {} exceeds capacity {}",
                self.len, self.cfg.queue_capacity
            ));
        }
        Ok(())
    }

    fn alloc_slot(&mut self, entry: RegionEntry) -> u32 {
        let slot = Slot {
            entry,
            prev: NIL,
            next: NIL,
        };
        match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = slot;
                id
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn attach_head(&mut self, id: u32) {
        self.slots[id as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = id;
        } else {
            self.tail = id;
        }
        self.head = id;
        self.len += 1;
    }

    fn attach_tail(&mut self, id: u32) {
        self.slots[id as usize].prev = self.tail;
        if self.tail != NIL {
            self.slots[self.tail as usize].next = id;
        } else {
            self.head = id;
        }
        self.tail = id;
        self.len += 1;
    }

    /// Unlinks `id`, releases its slot and index entry, and returns the
    /// entry it held. Neighbours keep their positions — removal never
    /// shifts other entries (unlike a `VecDeque::remove`).
    fn remove_slot(&mut self, id: u32) -> RegionEntry {
        let Slot { entry, prev, next } = self.slots[id as usize];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        self.index.remove(&entry.region.0);
        self.free.push(id);
        self.len -= 1;
        entry
    }

    fn push_entry(&mut self, e: RegionEntry) {
        let key = e.region.0;
        let id = self.alloc_slot(e);
        if self.cfg.fifo {
            self.attach_tail(id);
        } else {
            self.attach_head(id);
        }
        self.index.insert(key, id);
        self.enforce_capacity();
    }

    /// Region size in blocks for a spatial miss: fixed 64, or the §3.3.2
    /// variable size `loop bound << coefficient` (in bytes) when enabled.
    fn region_blocks(&self, hints: HintSet) -> u64 {
        if !self.cfg.varsize {
            return REGION_BLOCKS as u64;
        }
        match hints.size_coeff() {
            Some(x) if self.loop_bound > 0 => {
                let bytes = (self.loop_bound as u64) << x;
                let blocks = bytes.div_ceil(grp_mem::BLOCK_BYTES).max(1);
                blocks.next_power_of_two().clamp(2, REGION_BLOCKS as u64)
            }
            _ => REGION_BLOCKS as u64,
        }
    }

    /// Allocates (or refreshes) a region entry around a spatial miss.
    fn allocate_region(&mut self, miss: BlockAddr, hints: HintSet, plevel: u8, l2: &Cache) {
        let region = miss.region();
        let miss_idx = miss.index_in_region() as u8;
        let next_idx = (miss_idx + 1) % REGION_BLOCKS as u8;

        // Miss to a region already in the queue: clear the miss block's
        // bit, bump the index, move the entry to the head (§3.1).
        if let Some(&id) = self.index.get(&region.0) {
            let mut e = self.remove_slot(id);
            if self.trace && e.bits & (1u64 << miss_idx) != 0 {
                self.events
                    .push(EngineEvent::squashed(miss, SquashReason::DemandHit));
            }
            e.clear(miss_idx);
            e.index = next_idx;
            e.pointer_level = e.pointer_level.max(plevel);
            self.push_entry(e);
            return;
        }

        // Fresh entry: candidate window of `size` blocks around the miss,
        // minus blocks already resident, minus the miss block itself.
        let size = self.region_blocks(hints);
        let window_start = (miss_idx as u64 / size) * size;
        let mut bits = 0u64;
        for i in window_start..window_start + size {
            let b = region.block(i as usize);
            if i as u8 != miss_idx && !l2.contains(b) {
                bits |= 1u64 << i;
                if self.trace {
                    self.events.push(EngineEvent::queued(b));
                }
            }
        }
        self.stats.entries_allocated += 1;
        let bucket = (63 - size.leading_zeros()) as usize;
        self.stats.region_size_hist[bucket.min(6)] += 1;
        if bits == 0 {
            return;
        }
        self.push_entry(RegionEntry {
            region,
            bits,
            index: next_idx,
            pointer_level: plevel,
            checked: 0,
        });
    }

    /// Queues a single block (pointer/indirect targets) by merging into
    /// an existing entry for its region or allocating a 1-block entry.
    fn enqueue_block(&mut self, block: BlockAddr, plevel: u8, l2: &Cache) {
        if l2.contains(block) {
            return;
        }
        let region = block.region();
        let bit = block.index_in_region() as u8;
        if let Some(&id) = self.index.get(&region.0) {
            let mut e = self.remove_slot(id);
            if self.trace && e.bits & (1u64 << bit) == 0 {
                self.events.push(EngineEvent::queued(block));
            }
            e.bits |= 1u64 << bit;
            // The (re-)enqueued bit has not been checked against the
            // MSHR file; other bits keep their probe status.
            e.checked &= !(1u64 << bit);
            e.pointer_level = e.pointer_level.max(plevel);
            self.push_entry(e);
        } else {
            if self.trace {
                self.events.push(EngineEvent::queued(block));
            }
            self.push_entry(RegionEntry {
                region,
                bits: 1u64 << bit,
                index: bit,
                pointer_level: plevel,
                checked: 0,
            });
        }
    }

    /// Pointer-chase depth a miss's hints imply under this config.
    fn pointer_level_for(&self, hints: HintSet) -> u8 {
        match self.cfg.pointer_mode {
            PointerMode::Off => 0,
            PointerMode::AllMisses(depth) => depth,
            PointerMode::Hinted => {
                if hints.recursive() {
                    self.cfg.recursive_depth
                } else if hints.pointer() {
                    1
                } else {
                    0
                }
            }
        }
    }

    /// Tries to take an issuable candidate from the entry in slot `id`.
    /// Returns the candidate (or `None` when the entry is blocked — busy
    /// channel / closed row under `require_open`) plus a flag telling the
    /// caller whether the slot was removed because the entry drained.
    ///
    /// `idle_masks` is the per-fold idle-channel mask table from
    /// [`Dram::region_idle_masks`] (computed once per scan pass and
    /// shared across entries); `None` selects the per-block probe loop.
    fn take_from_slot(
        &mut self,
        id: u32,
        l2: &Cache,
        mshrs: &MshrFile,
        dram: &Dram,
        now: u64,
        require_open: bool,
        idle_masks: Option<&[u64; 8]>,
    ) -> (Option<Candidate>, bool) {
        let e = &mut self.slots[id as usize].entry;
        // Scan candidates in index order (forward from the miss block,
        // wrapping); a busy channel does not block later candidates —
        // the controller issues to whichever channels are idle. Rotating
        // the bit vector lets `trailing_zeros` jump between set bits in
        // exactly that order, skipping the empty gaps.
        let start = e.index as u32;
        let mut taken: Option<(u8, BlockAddr, u8)> = None;
        // The mask table folds the per-bit channel/row predicates into
        // one `allowed` word: bit `i` set iff position `i` could issue
        // at `now`. `None` when the DRAM geometry is off the mask fast
        // path — the loop then probes the DRAM per block (same result).
        let allowed: Option<u64> = match idle_masks {
            Some(masks) => {
                let idle = masks[dram.region_fold(e.region)];
                if require_open {
                    dram.region_open_mask(e.region).map(|open| idle & open)
                } else {
                    Some(idle)
                }
            }
            None => None,
        };
        let unchecked = e.bits & !e.checked;
        if unchecked == 0 {
            // Every set bit already survived a residency probe, so the
            // scan has no side effects and reduces to "first set bit, in
            // rotated order, that can issue" — one AND plus
            // `trailing_zeros` instead of a probe loop.
            match allowed {
                Some(allowed) => {
                    let hit = (e.bits & allowed).rotate_right(start);
                    if hit != 0 {
                        let off = hit.trailing_zeros();
                        let bit = ((start + off) % REGION_BLOCKS as u32) as u8;
                        taken = Some((bit, e.region.block(bit as usize), e.pointer_level));
                    }
                }
                None => {
                    let mut rem = e.bits.rotate_right(start);
                    while rem != 0 {
                        let off = rem.trailing_zeros();
                        rem &= rem - 1;
                        let bit = ((start + off) % REGION_BLOCKS as u32) as u8;
                        let block = e.region.block(bit as usize);
                        if !dram.channel_idle(block, now)
                            || (require_open && !dram.row_is_open(block))
                        {
                            continue; // busy/closed: leave for later
                        }
                        taken = Some((bit, block, e.pointer_level));
                        break;
                    }
                }
            }
        } else {
            // Some bits still need their first residency probe. Walk the
            // set bits in rotated order — stale-clearing order up to the
            // take point is observable (it decides which bits survive
            // for later scans and the squash-event order) — but probe
            // only the unchecked ones: survivors are recorded so no bit
            // is ever probed twice. All probes target one region, so the
            // MSHR half of the probe is one batched file pass (the file
            // cannot change mid-scan), computed lazily — a scan that
            // takes an already-checked bit first never pays for it.
            let mut inflight: Option<u64> = None;
            let mut rem = e.bits.rotate_right(start);
            while rem != 0 {
                let off = rem.trailing_zeros();
                rem &= rem - 1;
                let bit = ((start + off) % REGION_BLOCKS as u32) as u8;
                let mask = 1u64 << bit;
                if e.checked & mask == 0 {
                    let infl = *inflight.get_or_insert_with(|| mshrs.region_mask(e.region));
                    let block = e.region.block(bit as usize);
                    if infl & mask != 0 || l2.contains(block) {
                        // Stale candidate: already resident or in flight.
                        e.clear(bit);
                        if self.trace {
                            self.events
                                .push(EngineEvent::squashed(block, SquashReason::Stale));
                        }
                        continue;
                    }
                    e.checked |= mask;
                }
                let issuable = match allowed {
                    Some(allowed) => allowed & mask != 0,
                    None => {
                        let block = e.region.block(bit as usize);
                        dram.channel_idle(block, now) && (!require_open || dram.row_is_open(block))
                    }
                };
                if !issuable {
                    continue; // busy/closed: leave for later, try other bits
                }
                taken = Some((bit, e.region.block(bit as usize), e.pointer_level));
                break;
            }
        }
        match taken {
            Some((bit, block, level)) => {
                e.clear(bit);
                e.index = (bit + 1) % REGION_BLOCKS as u8;
                let drained = e.bits == 0;
                if drained {
                    self.remove_slot(id);
                }
                self.stats.candidates_issued += 1;
                (
                    Some(Candidate {
                        block,
                        pointer_level: level,
                    }),
                    drained,
                )
            }
            None => {
                // Every set bit was examined; survivors are permanently
                // non-stale (see `RegionEntry::checked`).
                e.checked = e.bits;
                let drained = e.bits == 0;
                if drained {
                    // Drained entirely by stale-clearing.
                    self.remove_slot(id);
                }
                (None, drained)
            }
        }
    }
}

impl Prefetcher for RegionPrefetcher {
    fn on_demand_miss(
        &mut self,
        block: BlockAddr,
        _addr: Addr,
        _ref_id: RefId,
        hints: HintSet,
        _write: bool,
        l2: &Cache,
    ) -> u8 {
        let plevel = self.pointer_level_for(hints);
        let spatial_ok = !self.cfg.spatial_gate || hints.spatial();
        if self.cfg.regions_enabled && spatial_ok {
            self.allocate_region(block, hints, plevel, l2);
        } else if let Some(&id) = self.index.get(&block.region().0) {
            // Even a non-triggering miss invalidates its own block's
            // candidate bit (the demand fetch is already underway).
            let bit = block.index_in_region() as u8;
            if self.trace && self.slots[id as usize].entry.bits & (1u64 << bit) != 0 {
                self.events
                    .push(EngineEvent::squashed(block, SquashReason::DemandHit));
            }
            self.slots[id as usize].entry.clear(bit);
        }
        plevel
    }

    fn on_fill(&mut self, _block: BlockAddr, level: u8, mem: &Memory, heap: HeapRange, l2: &Cache) {
        if level == 0 || self.cfg.pointer_mode == PointerMode::Off {
            return;
        }
        // §3.2: pointers are aligned 8-byte entities; check the eight
        // words of the returned line against the heap bounds and prefetch
        // two blocks per hit (structures may straddle a block boundary).
        let words = mem.read_block_words(_block);
        for w in words {
            let target = Addr(w);
            if !heap.contains(target) {
                continue;
            }
            let tb = target.block();
            self.stats.pointer_entries += 1;
            self.enqueue_block(tb, level - 1, l2);
            self.enqueue_block(tb.offset(1), level - 1, l2);
        }
    }

    fn set_loop_bound(&mut self, bound: u32) {
        self.loop_bound = bound;
    }

    fn indirect_prefetch(
        &mut self,
        base: Addr,
        elem_size: u32,
        index_addr: Addr,
        mem: &Memory,
        l2: &Cache,
    ) {
        // §3.3.3: read the cache block containing &b[i]; for each 4-byte
        // word, prefetch base + scaled index — up to 16 prefetches. The
        // index block may hold uninitialized or corrupt data (the engine
        // reads whatever sits in the line), so the scaled target is
        // computed in 128-bit and gated to the address space: a negative
        // or overflowed result is dropped, not wrapped into a garbage
        // prefetch.
        let words = mem.read_block_words_u32(index_addr.block());
        for w in words {
            let idx = w as i32 as i128;
            let target = base.0 as i128 + idx * elem_size as i128;
            if target < 0 || target > u64::MAX as i128 {
                self.stats.indirect_dropped += 1;
                continue;
            }
            self.stats.indirect_entries += 1;
            self.enqueue_block(Addr(target as u64).block(), 0, l2);
        }
    }

    fn has_candidates(&self) -> bool {
        self.len > 0
    }

    fn next_candidate(
        &mut self,
        l2: &Cache,
        mshrs: &MshrFile,
        dram: &Dram,
        now: u64,
    ) -> Option<Candidate> {
        // One idle-mask table serves every entry in both passes: the
        // masks depend only on `now` and the channel states, which a
        // scan never mutates.
        let idle_masks = dram.region_idle_masks(now);
        let idle_masks = idle_masks.as_ref();
        // Pass 1: among the first `probe_depth` entries, prefer a
        // candidate whose DRAM row is already open (§3.1). Entries that
        // drain during the probe don't count against the depth — their
        // successor inherits the probe slot.
        let mut probes = 0;
        let mut cur = self.head;
        while cur != NIL && probes < self.cfg.probe_depth {
            let next = self.slots[cur as usize].next;
            let (c, removed) = self.take_from_slot(cur, l2, mshrs, dram, now, true, idle_masks);
            if let Some(c) = c {
                return Some(c);
            }
            if !removed {
                probes += 1;
            }
            cur = next;
        }
        // Pass 2: first candidate on any idle channel, scanning from the
        // head (LIFO priority).
        let mut cur = self.head;
        while cur != NIL {
            let next = self.slots[cur as usize].next;
            let (c, _removed) = self.take_from_slot(cur, l2, mshrs, dram, now, false, idle_masks);
            if let Some(c) = c {
                return Some(c);
            }
            cur = next;
        }
        None
    }

    fn next_issue_time(&self, dram: &Dram) -> u64 {
        // After a failed scan every live candidate bit sits on a busy
        // channel (stale bits were cleared as the scan passed them), so
        // the earliest useful re-scan is when one of *those* channels
        // frees. Walk candidates until every channel has been seen — the
        // min can only improve by covering a new channel.
        let channels = dram.config().channels;
        let all = (1u64 << channels) - 1;
        let mut seen = 0u64;
        let mut t = u64::MAX;
        let mut cur = self.head;
        while cur != NIL && seen != all {
            let e = &self.slots[cur as usize].entry;
            // The min over an entry only depends on *which* channels its
            // bits map to, so the mask path folds the per-bit walk into
            // one channel-set lookup per entry.
            if let Some(chs) = dram.region_channel_set(e.region, e.bits) {
                let mut fresh = chs & !seen;
                seen |= fresh;
                while fresh != 0 {
                    let ch = fresh.trailing_zeros() as usize;
                    fresh &= fresh - 1;
                    t = t.min(dram.channel_free_at_index(ch));
                }
            } else {
                let mut rem = e.bits;
                while rem != 0 && seen != all {
                    let bit = rem.trailing_zeros();
                    rem &= rem - 1;
                    let block = e.region.block(bit as usize);
                    let ch = dram.channel_of(block);
                    if seen & (1u64 << ch) == 0 {
                        seen |= 1u64 << ch;
                        t = t.min(dram.channel_free_at(block));
                    }
                }
            }
            cur = self.slots[cur as usize].next;
        }
        if t == u64::MAX {
            // Only zero-bit entries remain (left by the demand-clear
            // path); fall back to the generic bound.
            dram.earliest_channel_free()
        } else {
            t
        }
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }

    fn set_trace_buffer(&mut self, enabled: bool) {
        self.trace = enabled;
    }

    fn drain_trace_events(&mut self, sink: &mut Vec<EngineEvent>) {
        sink.append(&mut self.events);
    }

    fn queue_occupancy(&self) -> usize {
        self.len
    }

    fn validate(&self) -> Result<(), String> {
        self.validate_queue()
    }

    fn set_queue_pressure(&mut self, amount: usize) {
        self.pressure = amount;
        // Trim immediately — a shrinking window must not wait for the
        // next allocation to take effect.
        self.enforce_capacity();
    }

    fn inject_fault_unbounded_queue(&mut self) {
        self.fault_unbounded = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grp_mem::CacheConfig;

    fn l2() -> Cache {
        Cache::new(CacheConfig::l2_spec())
    }

    fn fresh(cfg: RegionConfig) -> (RegionPrefetcher, Cache, MshrFile, Dram, Memory) {
        (
            RegionPrefetcher::new(cfg),
            l2(),
            MshrFile::new(8),
            Dram::new(Default::default()),
            Memory::new(),
        )
    }

    fn heap() -> HeapRange {
        HeapRange {
            start: Addr(0x10_0000),
            end: Addr(0x80_0000),
        }
    }

    #[test]
    fn srp_allocates_full_region_on_any_miss() {
        let (mut p, l2, mshrs, dram, _m) = fresh(RegionConfig::srp(32));
        let miss = Addr(0x40_0040).block();
        p.on_demand_miss(miss, Addr(0x40_0040), RefId(0), HintSet::none(), false, &l2);
        assert!(p.has_candidates());
        // 63 candidates (region minus the miss block itself).
        let mut got = 0;
        let mut now = 0;
        while let Some(c) = p.next_candidate(&l2, &mshrs, &dram, now) {
            assert_ne!(c.block, miss);
            assert_eq!(c.block.region(), miss.region());
            got += 1;
            now += 10_000; // keep channels idle
        }
        assert_eq!(got, 63);
    }

    #[test]
    fn srp_prefetches_forward_first() {
        let (mut p, l2, mshrs, dram, _m) = fresh(RegionConfig::srp(32));
        // Miss on block 10 of its region.
        let region = RegionAddr(0x123);
        let miss = region.block(10);
        p.on_demand_miss(miss, miss.base(), RefId(0), HintSet::none(), false, &l2);
        let c = p.next_candidate(&l2, &mshrs, &dram, 0).unwrap();
        assert_eq!(
            c.block,
            region.block(11),
            "index starts after the miss block"
        );
    }

    #[test]
    fn grp_gates_on_spatial_hint() {
        let (mut p, l2, _mshrs, _dram, _m) = fresh(RegionConfig::grp(32, false, 6));
        let miss = Addr(0x40_0000).block();
        p.on_demand_miss(miss, miss.base(), RefId(0), HintSet::none(), false, &l2);
        assert!(
            !p.has_candidates(),
            "unhinted miss triggers nothing under GRP"
        );
        p.on_demand_miss(
            miss,
            miss.base(),
            RefId(0),
            HintSet::none().with_spatial(),
            false,
            &l2,
        );
        assert!(p.has_candidates());
    }

    #[test]
    fn repeated_region_miss_moves_entry_to_head_and_clears_bit() {
        let (mut p, l2, mshrs, dram, _m) = fresh(RegionConfig::srp(32));
        let r1 = RegionAddr(1);
        let r2 = RegionAddr(2);
        p.on_demand_miss(
            r1.block(0),
            r1.block(0).base(),
            RefId(0),
            HintSet::none(),
            false,
            &l2,
        );
        p.on_demand_miss(
            r2.block(0),
            r2.block(0).base(),
            RefId(0),
            HintSet::none(),
            false,
            &l2,
        );
        // LIFO: r2 is at the head now. A miss to r1 block 5 moves r1 back up.
        p.on_demand_miss(
            r1.block(5),
            r1.block(5).base(),
            RefId(0),
            HintSet::none(),
            false,
            &l2,
        );
        let c = p.next_candidate(&l2, &mshrs, &dram, 0).unwrap();
        assert_eq!(c.block.region(), r1, "refreshed region issues first");
        assert_eq!(c.block, r1.block(6), "index moved past the new miss");
        // Block 5 itself was cleared: drain and check it never appears.
        let mut seen5 = false;
        let mut now = 10_000;
        while let Some(c) = p.next_candidate(&l2, &mshrs, &dram, now) {
            if c.block == r1.block(5) {
                seen5 = true;
            }
            now += 10_000;
        }
        assert!(!seen5);
    }

    #[test]
    fn queue_is_bounded_lifo_with_tail_drop() {
        let (mut p, l2, _mshrs, _dram, _m) = fresh(RegionConfig::srp(2));
        for i in 0..4u64 {
            let b = RegionAddr(i).block(0);
            p.on_demand_miss(b, b.base(), RefId(0), HintSet::none(), false, &l2);
        }
        assert_eq!(p.queue_len(), 2);
        assert_eq!(p.stats().entries_dropped, 2);
    }

    #[test]
    fn queue_pressure_trims_immediately_and_releases() {
        let (mut p, l2, _mshrs, _dram, _m) = fresh(RegionConfig::srp(4));
        for i in 0..4u64 {
            let b = RegionAddr(i).block(0);
            p.on_demand_miss(b, b.base(), RefId(0), HintSet::none(), false, &l2);
        }
        assert_eq!(p.queue_len(), 4);
        p.set_queue_pressure(3);
        assert_eq!(p.queue_len(), 1, "pressure trims live entries at once");
        assert_eq!(p.stats().entries_dropped, 3);
        p.validate_queue().unwrap();
        // Under pressure the capacity stays squeezed for new entries too.
        for i in 10..13u64 {
            let b = RegionAddr(i).block(0);
            p.on_demand_miss(b, b.base(), RefId(0), HintSet::none(), false, &l2);
        }
        assert_eq!(p.queue_len(), 1);
        // Effective capacity floors at one even under absurd pressure.
        p.set_queue_pressure(1_000);
        assert_eq!(p.queue_len(), 1);
        // Releasing the pressure restores the full capacity.
        p.set_queue_pressure(0);
        for i in 20..24u64 {
            let b = RegionAddr(i).block(0);
            p.on_demand_miss(b, b.base(), RefId(0), HintSet::none(), false, &l2);
        }
        assert_eq!(p.queue_len(), 4);
        p.validate_queue().unwrap();
    }

    #[test]
    fn resident_blocks_are_not_candidates() {
        let (mut p, mut l2, mshrs, dram, _m) = fresh(RegionConfig::srp(32));
        let region = RegionAddr(7);
        // Make blocks 1..32 resident.
        for i in 1..32 {
            l2.fill(region.block(i), grp_mem::InsertPriority::Mru, false, false);
        }
        p.on_demand_miss(
            region.block(0),
            region.block(0).base(),
            RefId(0),
            HintSet::none(),
            false,
            &l2,
        );
        let mut count = 0;
        let mut now = 0;
        while p.next_candidate(&l2, &mshrs, &dram, now).is_some() {
            count += 1;
            now += 10_000;
        }
        assert_eq!(count, 32, "only the 32 absent blocks are prefetched");
    }

    #[test]
    fn pointer_scan_enqueues_two_blocks_per_heap_pointer() {
        let (mut p, l2, mshrs, dram, mut m) = fresh(RegionConfig::grp(32, false, 6));
        let line = Addr(0x20_0000).block();
        // Plant one heap pointer and seven junk words.
        m.write_u64(line.base(), 0x30_0008); // heap pointer
        for i in 1..8 {
            m.write_u64(line.base().offset(i * 8), 0xdead); // below heap
        }
        p.on_fill(line, 1, &m, heap(), &l2);
        let c1 = p.next_candidate(&l2, &mshrs, &dram, 0).unwrap();
        let c2 = p.next_candidate(&l2, &mshrs, &dram, 10_000).unwrap();
        let target = Addr(0x30_0008).block();
        assert_eq!(c1.block, target);
        assert_eq!(c2.block, target.offset(1));
        assert_eq!(c1.pointer_level, 0, "depth decremented");
        assert!(p.next_candidate(&l2, &mshrs, &dram, 20_000).is_none());
    }

    #[test]
    fn recursive_scan_decrements_level() {
        let (mut p, l2, _mshrs, _dram, mut m) = fresh(RegionConfig::grp(32, false, 6));
        let line = Addr(0x20_0000).block();
        m.write_u64(line.base(), 0x30_0000);
        p.on_fill(line, 6, &m, heap(), &l2);
        // The enqueued candidates carry level 5 — another scan will fire
        // when they return.
        let mshrs = MshrFile::new(8);
        let dram = Dram::new(Default::default());
        let c = p.next_candidate(&l2, &mshrs, &dram, 0).unwrap();
        assert_eq!(c.pointer_level, 5);
    }

    #[test]
    fn level_zero_fill_does_not_scan() {
        let (mut p, l2, _mshrs, _dram, mut m) = fresh(RegionConfig::grp(32, false, 6));
        let line = Addr(0x20_0000).block();
        m.write_u64(line.base(), 0x30_0000);
        p.on_fill(line, 0, &m, heap(), &l2);
        assert!(!p.has_candidates());
    }

    #[test]
    fn variable_size_region_uses_loop_bound() {
        let (mut p, l2, mshrs, dram, _m) = fresh(RegionConfig::grp(32, true, 6));
        p.set_loop_bound(16);
        // coeff 3 → 16 << 3 = 128 bytes = 2 blocks.
        let hints = HintSet::none().with_spatial().with_size_coeff(3);
        let region = RegionAddr(9);
        let miss = region.block(4);
        p.on_demand_miss(miss, miss.base(), RefId(0), hints, false, &l2);
        let mut blocks = Vec::new();
        let mut now = 0;
        while let Some(c) = p.next_candidate(&l2, &mshrs, &dram, now) {
            blocks.push(c.block);
            now += 10_000;
        }
        // Window of 2 blocks aligned at 4: {4, 5} minus the miss block 4.
        assert_eq!(blocks, vec![region.block(5)]);
        assert_eq!(p.stats().region_size_hist[1], 1, "2-block region recorded");
    }

    #[test]
    fn fixed_size_ignores_coefficients() {
        let (mut p, l2, _mshrs, _dram, _m) = fresh(RegionConfig::grp(32, false, 6));
        p.set_loop_bound(16);
        let hints = HintSet::none().with_spatial().with_size_coeff(3);
        let miss = RegionAddr(9).block(4);
        p.on_demand_miss(miss, miss.base(), RefId(0), hints, false, &l2);
        assert_eq!(p.stats().region_size_hist[6], 1, "full 64-block region");
    }

    #[test]
    fn indirect_prefetch_reads_index_block() {
        let (mut p, l2, mshrs, dram, mut m) = fresh(RegionConfig::grp(32, false, 6));
        let index_addr = Addr(0x50_0000);
        // Sixteen i32 indices: 0, 100, 200, …
        for i in 0..16 {
            m.write_i32(index_addr.offset(i * 4), (i * 100) as i32);
        }
        let base = Addr(0x60_0000);
        p.indirect_prefetch(base, 8, index_addr, &m, &l2);
        let mut targets = Vec::new();
        let mut now = 0;
        while let Some(c) = p.next_candidate(&l2, &mshrs, &dram, now) {
            targets.push(c.block);
            now += 10_000;
        }
        assert!(!targets.is_empty());
        // First index 0 → base block; index 100 → base + 800.
        assert!(targets.contains(&base.block()));
        assert!(targets.contains(&base.offset(800).block()));
        assert_eq!(p.stats().indirect_entries, 16);
    }

    #[test]
    fn indirect_prefetch_drops_wrapped_targets() {
        // Regression: a negative index whose scaled offset exceeds the
        // base used to wrap through `as u64` and prefetch a garbage
        // high address. Such out-of-space targets must be dropped and
        // counted, while in-range negative offsets still prefetch.
        let (mut p, l2, mshrs, dram, mut m) = fresh(RegionConfig::grp(32, false, 6));
        let index_addr = Addr(0x50_0000);
        m.write_i32(index_addr, -1_000_000); // wraps below zero: dropped
        m.write_i32(index_addr.offset(4), i32::MIN); // extreme corrupt index: dropped
        m.write_i32(index_addr.offset(8), -2); // base - 16: valid backward target
        m.write_i32(index_addr.offset(12), 4); // base + 32: valid forward target
        for i in 4..16 {
            m.write_i32(index_addr.offset(i * 4), i32::MAX); // overflow u64? no — gate only negatives here
        }
        let base = Addr(0x60_0000);
        p.indirect_prefetch(base, 8, index_addr, &m, &l2);
        assert_eq!(
            p.stats().indirect_dropped,
            2,
            "both wrapped targets dropped"
        );
        assert_eq!(p.stats().indirect_entries, 14);
        let mut targets = Vec::new();
        let mut now = 0;
        while let Some(c) = p.next_candidate(&l2, &mshrs, &dram, now) {
            targets.push(c.block);
            now += 10_000;
        }
        assert!(targets.contains(&base.offset(-16).block()));
        assert!(targets.contains(&base.offset(32).block()));
        // No wrapped high-half address ever enters the queue.
        assert!(targets.iter().all(|b| b.base().0 < (1u64 << 48)));
    }

    #[test]
    fn indirect_prefetch_drops_overflowed_targets() {
        // The symmetric overflow case: a huge base plus a large positive
        // scaled index leaves the 64-bit space and must be dropped.
        let (mut p, l2, _mshrs, _dram, mut m) = fresh(RegionConfig::grp(32, false, 6));
        let index_addr = Addr(0x50_0000);
        for i in 0..16 {
            m.write_i32(index_addr.offset(i * 4), i32::MAX);
        }
        let base = Addr(u64::MAX - 64);
        p.indirect_prefetch(base, 1 << 20, index_addr, &m, &l2);
        assert_eq!(p.stats().indirect_dropped, 16);
        assert_eq!(p.stats().indirect_entries, 0);
        assert!(!p.has_candidates());
    }

    #[test]
    fn hw_pointer_mode_scans_all_misses() {
        let (mut p, l2, _mshrs, _dram, _m) = fresh(RegionConfig::hw_pointer(32, 1));
        let miss = Addr(0x40_0000).block();
        let level = p.on_demand_miss(miss, miss.base(), RefId(0), HintSet::none(), false, &l2);
        assert_eq!(level, 1, "every miss gets scanned in hw-pointer mode");
        assert!(!p.has_candidates(), "but no region entries are allocated");
    }

    #[test]
    fn busy_channels_defer_candidates() {
        let (mut p, l2, mshrs, mut dram, _m) = fresh(RegionConfig::srp(32));
        let miss = RegionAddr(3).block(0);
        p.on_demand_miss(miss, miss.base(), RefId(0), HintSet::none(), false, &l2);
        // Occupy all four channels.
        for ch in 0..4u64 {
            dram.issue(BlockAddr(ch), grp_mem::RequestKind::Demand, 0);
        }
        assert!(p.next_candidate(&l2, &mshrs, &dram, 0).is_none());
        assert!(p.has_candidates(), "candidates retained for later");
        let later = 1_000_000;
        assert!(p.next_candidate(&l2, &mshrs, &dram, later).is_some());
    }

    #[test]
    fn drained_stale_entry_does_not_skip_successor_in_probe_pass() {
        // Regression: pass 1 used to advance `qi` even when
        // `take_from_entry` removed a fully-stale entry at `qi`, so the
        // entry that shifted into the slot lost its open-row probe.
        let (mut p, mut l2, mshrs, mut dram, _m) = fresh(RegionConfig::srp(32));
        let ra = RegionAddr(0xA);
        let rb = RegionAddr(0xB);
        let rc = RegionAddr(0xC);
        // LIFO: queue reads [A, B, C] from the head.
        for r in [rc, rb, ra] {
            let b = r.block(0);
            p.on_demand_miss(b, b.base(), RefId(0), HintSet::none(), false, &l2);
        }
        // Make A's whole region resident: entry A is fully stale and
        // drains (entry removed) when pass 1 examines it.
        for i in 0..REGION_BLOCKS {
            l2.fill(ra.block(i), grp_mem::InsertPriority::Mru, false, false);
        }
        // Open the rows of both B's and C's next candidates.
        let q1 = dram.issue(rb.block(1), grp_mem::RequestKind::Demand, 0);
        let q2 = dram.issue(rc.block(1), grp_mem::RequestKind::Demand, 0);
        let now = q1.complete_at.max(q2.complete_at) + 1;
        // A drains at position 0; B shifts into the slot and must be the
        // open-row probe's winner (the bug skipped straight to C).
        let c = p.next_candidate(&l2, &mshrs, &dram, now).unwrap();
        assert_eq!(
            c.block.region(),
            rb,
            "successor of the drained entry keeps its open-row probe"
        );
    }

    #[test]
    fn open_row_candidates_preferred() {
        let (mut p, l2, mshrs, mut dram, _m) = fresh(RegionConfig::srp(32));
        // Two regions queued; the second one's row gets opened.
        let r1 = RegionAddr(0x100);
        let r2 = RegionAddr(0x200);
        p.on_demand_miss(
            r1.block(0),
            r1.block(0).base(),
            RefId(0),
            HintSet::none(),
            false,
            &l2,
        );
        p.on_demand_miss(
            r2.block(0),
            r2.block(0).base(),
            RefId(0),
            HintSet::none(),
            false,
            &l2,
        );
        // Open the row for r1's early blocks; pick a time when channels idle.
        let req = dram.issue(r1.block(1), grp_mem::RequestKind::Demand, 0);
        let now = req.complete_at + 1;
        let c = p.next_candidate(&l2, &mshrs, &dram, now).unwrap();
        assert_eq!(
            c.block.region(),
            r1,
            "open-row region wins despite r2 being newer"
        );
    }
}
