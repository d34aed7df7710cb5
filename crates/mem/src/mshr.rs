//! Miss status holding registers (MSHRs).
//!
//! "Each cache contains 8 MSHRs" and "the miss status holding registers
//! track all outstanding accesses, regardless of type" (paper §3.1/§5.1):
//! demand misses and prefetches share the same file, which naturally
//! bounds total memory-level parallelism. GRP additionally attaches "a
//! three-bit counter to both the L2 MSHRs and prefetch queue entries to
//! control pointer and recursive pointer prefetching" (§3.3.1); that
//! counter lives here as [`MshrEntry::pointer_level`].

use std::collections::VecDeque;

use crate::addr::BlockAddr;

/// An outstanding miss.
#[derive(Debug, Clone)]
pub struct MshrEntry {
    /// The missing block.
    pub block: BlockAddr,
    /// True when a demand access is waiting on this block (a prefetch
    /// entry is upgraded when a demand miss merges into it — a "late
    /// prefetch": the request is already in flight, the load still waits).
    pub demand: bool,
    /// True when the fill should be marked as a prefetch in the cache
    /// (insert LRU, set prefetch bit). A merged demand clears this.
    pub prefetch_fill: bool,
    /// GRP pointer-chase depth remaining for the returned line
    /// (0 = do not scan; 1 = `pointer` hint; 6 = `recursive` hint).
    pub pointer_level: u8,
    /// Opaque ids of core loads waiting on this block.
    pub waiters: Vec<u32>,
    /// True when the block will be dirtied on fill (write-allocate store miss).
    pub dirty_on_fill: bool,
    /// Cycle at which the fill for this miss lands, once scheduled. The
    /// memory system keeps this here instead of in a side table: the MSHR
    /// file already tracks exactly the in-flight blocks, so an 8-entry
    /// scan replaces a per-access hash probe.
    pub fill_at: Option<u64>,
}

/// A bounded file of [`MshrEntry`]s with merge semantics.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// Fault-injection seam: registers temporarily withheld from the
    /// file. The effective capacity is `capacity - squeeze`, floored at
    /// one register so forward progress is always possible. Zero (the
    /// default) leaves behaviour bit-identical to an unsqueezed file.
    squeeze: usize,
    entries: VecDeque<MshrEntry>,
    peak_occupancy: usize,
    merges: u64,
    late_prefetch_merges: u64,
}

/// Result of [`MshrFile::allocate_or_merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A fresh entry was allocated; the caller must send the request on.
    Allocated,
    /// The block was already outstanding; the waiter (if any) was attached.
    Merged,
    /// The file is full; the access must retry later.
    Full,
}

impl MshrFile {
    /// Creates a file with `capacity` registers (the paper uses 8).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            capacity,
            squeeze: 0,
            entries: VecDeque::with_capacity(capacity),
            peak_occupancy: 0,
            merges: 0,
            late_prefetch_merges: 0,
        }
    }

    /// Registers currently in use.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// The configured register count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Registers usable right now: the configured capacity minus any
    /// active fault-injection squeeze, never less than one.
    pub fn effective_capacity(&self) -> usize {
        self.capacity.saturating_sub(self.squeeze).max(1)
    }

    /// Fault-injection seam: withholds `squeeze` registers until reset
    /// with zero. Entries already allocated above the squeezed capacity
    /// stay live and drain normally — the squeeze only blocks *new*
    /// allocations, so no invariant is violated mid-window.
    pub fn set_capacity_squeeze(&mut self, squeeze: usize) {
        self.squeeze = squeeze;
    }

    /// True when no more misses can be tracked.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.effective_capacity()
    }

    /// Highest simultaneous occupancy observed.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Registers currently holding prefetch fills (for epoch occupancy
    /// sampling).
    pub fn prefetch_inflight(&self) -> usize {
        self.entries.iter().filter(|e| e.prefetch_fill).count()
    }

    /// Number of merges into an existing entry.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Number of demand misses that merged into an in-flight *prefetch*
    /// (late prefetches — partially hidden latency).
    pub fn late_prefetch_merges(&self) -> u64 {
        self.late_prefetch_merges
    }

    /// Looks up an outstanding entry for `block`.
    pub fn get(&self, block: BlockAddr) -> Option<&MshrEntry> {
        self.entries.iter().find(|e| e.block == block)
    }

    /// True when `block` is already in flight.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.get(block).is_some()
    }

    /// Bit mask over `region`'s 64 block positions that are in flight —
    /// one pass over the (small) file instead of one `contains` scan per
    /// position, for the region engine's batch residency probes.
    pub fn region_mask(&self, region: crate::addr::RegionAddr) -> u64 {
        let base = region.block(0).0;
        let mut m = 0u64;
        for e in &self.entries {
            let off = e.block.0.wrapping_sub(base);
            if off < crate::addr::REGION_BLOCKS as u64 {
                m |= 1 << off;
            }
        }
        m
    }

    /// Allocates a new entry or merges into an existing one.
    ///
    /// `demand` distinguishes CPU misses from prefetch requests; `waiter`
    /// is an opaque load id woken on completion; `pointer_level` seeds the
    /// GRP pointer-chase counter; `dirty_on_fill` implements write-allocate.
    pub fn allocate_or_merge(
        &mut self,
        block: BlockAddr,
        demand: bool,
        waiter: Option<u32>,
        pointer_level: u8,
        dirty_on_fill: bool,
    ) -> MshrOutcome {
        if let Some(e) = self.entries.iter_mut().find(|e| e.block == block) {
            self.merges += 1;
            if demand {
                if e.prefetch_fill {
                    self.late_prefetch_merges += 1;
                }
                e.demand = true;
                e.prefetch_fill = false;
            }
            e.pointer_level = e.pointer_level.max(pointer_level);
            e.dirty_on_fill |= dirty_on_fill;
            if let Some(w) = waiter {
                e.waiters.push(w);
            }
            return MshrOutcome::Merged;
        }
        if self.is_full() {
            return MshrOutcome::Full;
        }
        self.entries.push_back(MshrEntry {
            block,
            demand,
            prefetch_fill: !demand,
            pointer_level,
            waiters: waiter.into_iter().collect(),
            dirty_on_fill,
            fill_at: None,
        });
        self.peak_occupancy = self.peak_occupancy.max(self.entries.len());
        MshrOutcome::Allocated
    }

    /// Records (or overwrites) the scheduled fill-completion cycle for
    /// `block`. No-op when the block is not outstanding.
    pub fn set_fill_time(&mut self, block: BlockAddr, at: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.block == block) {
            e.fill_at = Some(at);
        }
    }

    /// The scheduled fill-completion cycle for `block`, if one is known.
    pub fn fill_time(&self, block: BlockAddr) -> Option<u64> {
        self.get(block).and_then(|e| e.fill_at)
    }

    /// Earliest scheduled fill among all outstanding entries — what a
    /// full file waits for.
    pub fn earliest_fill_time(&self) -> Option<u64> {
        self.entries.iter().filter_map(|e| e.fill_at).min()
    }

    /// True when any outstanding entry is a demand miss — the access
    /// prioritizer's gate: prefetches are forwarded "only when there are
    /// no outstanding demand misses from the L2 cache" (§3.1).
    pub fn has_demand(&self) -> bool {
        self.entries.iter().any(|e| e.demand)
    }

    /// Completes the miss for `block`, releasing the register and
    /// returning the entry (with its waiters) to the caller.
    ///
    /// Returns `None` if the block was not outstanding.
    pub fn complete(&mut self, block: BlockAddr) -> Option<MshrEntry> {
        let idx = self.entries.iter().position(|e| e.block == block)?;
        self.entries.remove(idx)
    }

    /// Structural invariants every reachable file state must satisfy:
    /// occupancy within capacity, no duplicate blocks, and no entry that
    /// is simultaneously a demand wait and a prefetch fill. Returns the
    /// first violation as a message.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.entries.len() > self.capacity {
            return Err(format!(
                "mshr: occupancy {} exceeds capacity {}",
                self.entries.len(),
                self.capacity
            ));
        }
        if self.peak_occupancy > self.capacity {
            return Err(format!(
                "mshr: peak occupancy {} exceeds capacity {}",
                self.peak_occupancy, self.capacity
            ));
        }
        for (i, e) in self.entries.iter().enumerate() {
            if self.entries.iter().skip(i + 1).any(|o| o.block == e.block) {
                return Err(format!("mshr: duplicate entry for block {:#x}", e.block.0));
            }
            if e.demand && e.prefetch_fill {
                return Err(format!(
                    "mshr: block {:#x} is both a demand wait and a prefetch fill",
                    e.block.0
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_complete() {
        let mut m = MshrFile::new(2);
        assert_eq!(
            m.allocate_or_merge(BlockAddr(1), true, Some(7), 0, false),
            MshrOutcome::Allocated
        );
        assert!(m.contains(BlockAddr(1)));
        let e = m.complete(BlockAddr(1)).unwrap();
        assert_eq!(e.waiters, vec![7]);
        assert!(e.demand);
        assert!(!e.prefetch_fill);
        assert_eq!(m.occupancy(), 0);
    }

    #[test]
    fn merge_attaches_waiters() {
        let mut m = MshrFile::new(2);
        m.allocate_or_merge(BlockAddr(1), true, Some(1), 0, false);
        assert_eq!(
            m.allocate_or_merge(BlockAddr(1), true, Some(2), 0, false),
            MshrOutcome::Merged
        );
        let e = m.complete(BlockAddr(1)).unwrap();
        assert_eq!(e.waiters, vec![1, 2]);
        assert_eq!(m.merges(), 1);
    }

    #[test]
    fn full_file_rejects() {
        let mut m = MshrFile::new(1);
        m.allocate_or_merge(BlockAddr(1), true, None, 0, false);
        assert_eq!(
            m.allocate_or_merge(BlockAddr(2), true, None, 0, false),
            MshrOutcome::Full
        );
        // But merges into the existing entry still succeed.
        assert_eq!(
            m.allocate_or_merge(BlockAddr(1), false, None, 0, false),
            MshrOutcome::Merged
        );
    }

    #[test]
    fn demand_merge_upgrades_prefetch_and_counts_late() {
        let mut m = MshrFile::new(2);
        m.allocate_or_merge(BlockAddr(3), false, None, 1, false);
        assert!(m.get(BlockAddr(3)).unwrap().prefetch_fill);
        m.allocate_or_merge(BlockAddr(3), true, Some(9), 0, false);
        let e = m.get(BlockAddr(3)).unwrap();
        assert!(e.demand);
        assert!(
            !e.prefetch_fill,
            "merged demand clears prefetch-fill status"
        );
        assert_eq!(e.pointer_level, 1, "pointer level survives the merge");
        assert_eq!(m.late_prefetch_merges(), 1);
    }

    #[test]
    fn pointer_level_takes_max() {
        let mut m = MshrFile::new(2);
        m.allocate_or_merge(BlockAddr(3), false, None, 2, false);
        m.allocate_or_merge(BlockAddr(3), false, None, 6, false);
        assert_eq!(m.get(BlockAddr(3)).unwrap().pointer_level, 6);
    }

    #[test]
    fn dirty_on_fill_is_sticky() {
        let mut m = MshrFile::new(2);
        m.allocate_or_merge(BlockAddr(3), true, None, 0, false);
        m.allocate_or_merge(BlockAddr(3), true, None, 0, true);
        assert!(m.get(BlockAddr(3)).unwrap().dirty_on_fill);
    }

    #[test]
    fn peak_occupancy_tracks_high_water() {
        let mut m = MshrFile::new(4);
        for i in 0..3 {
            m.allocate_or_merge(BlockAddr(i), true, None, 0, false);
        }
        m.complete(BlockAddr(0));
        m.complete(BlockAddr(1));
        assert_eq!(m.peak_occupancy(), 3);
        assert_eq!(m.occupancy(), 1);
    }

    #[test]
    fn has_demand_tracks_demand_entries() {
        let mut m = MshrFile::new(4);
        assert!(!m.has_demand());
        m.allocate_or_merge(BlockAddr(1), false, None, 1, false);
        assert!(!m.has_demand(), "prefetch-only entries are not demand");
        m.allocate_or_merge(BlockAddr(2), true, None, 0, false);
        assert!(m.has_demand());
        m.complete(BlockAddr(2));
        assert!(!m.has_demand());
    }

    #[test]
    fn fill_time_tracking() {
        let mut m = MshrFile::new(2);
        m.allocate_or_merge(BlockAddr(1), true, None, 0, false);
        assert_eq!(m.fill_time(BlockAddr(1)), None, "unset until scheduled");
        m.set_fill_time(BlockAddr(1), 500);
        assert_eq!(m.fill_time(BlockAddr(1)), Some(500));
        m.allocate_or_merge(BlockAddr(2), false, None, 0, false);
        m.set_fill_time(BlockAddr(2), 300);
        assert_eq!(m.earliest_fill_time(), Some(300));
        m.set_fill_time(BlockAddr(9), 100); // unknown block: no-op
        assert_eq!(m.fill_time(BlockAddr(9)), None);
        assert_eq!(m.earliest_fill_time(), Some(300));
        m.complete(BlockAddr(2));
        assert_eq!(m.earliest_fill_time(), Some(500));
    }

    #[test]
    fn complete_unknown_block_is_none() {
        let mut m = MshrFile::new(1);
        assert!(m.complete(BlockAddr(9)).is_none());
    }

    #[test]
    fn capacity_squeeze_blocks_new_allocations_only() {
        let mut m = MshrFile::new(4);
        for i in 0..3 {
            m.allocate_or_merge(BlockAddr(i), true, None, 0, false);
        }
        m.set_capacity_squeeze(2);
        assert_eq!(m.effective_capacity(), 2);
        assert!(m.is_full(), "occupancy 3 above squeezed capacity 2");
        assert_eq!(
            m.allocate_or_merge(BlockAddr(9), true, None, 0, false),
            MshrOutcome::Full
        );
        // Merges into live entries still work, and the invariants hold
        // with occupancy above the squeezed (but not nominal) capacity.
        assert_eq!(
            m.allocate_or_merge(BlockAddr(0), true, None, 0, false),
            MshrOutcome::Merged
        );
        m.check_invariants().unwrap();
        m.complete(BlockAddr(0));
        m.complete(BlockAddr(1));
        assert!(!m.is_full(), "drained below squeezed capacity");
        // A squeeze past the whole file still leaves one register.
        m.set_capacity_squeeze(100);
        assert_eq!(m.effective_capacity(), 1);
        m.set_capacity_squeeze(0);
        assert_eq!(m.effective_capacity(), 4);
    }
}
