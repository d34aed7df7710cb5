//! Deliberately naive reference models of the scheme-independent memory
//! semantics — the "obviously correct" half of the differential oracle.
//!
//! Each model here mirrors the *contract* of its optimized counterpart
//! ([`crate::Cache`], [`crate::MshrFile`], [`crate::Dram`]) using the
//! simplest data structures that can express it: per-set `Vec`s with
//! recency stamps instead of a flat rotated array, a linear-scan `Vec`
//! of MSHR entries instead of a `VecDeque` with packed flags, and
//! modulo/division address math instead of masks and shifts. Nothing in
//! this module is shared with the optimized implementations except the
//! public stats structs (so results can be compared field-for-field)
//! and the address newtypes.
//!
//! The differential runner in `grp-core` replays a trace through a
//! no-prefetch memory system assembled from these models and asserts
//! event-for-event agreement with the optimized `MemSystem`.

use crate::addr::{Addr, BlockAddr, BLOCK_BYTES};
use crate::cache::{CacheConfig, CacheStats, InsertPriority};
use crate::dram::{DramConfig, DramRequest, DramStats, RequestKind};

/// One resident line in the naive cache: the full block address (no
/// tag/set split), its state bits, and a recency stamp.
#[derive(Debug, Clone, Copy)]
struct OracleLine {
    block: BlockAddr,
    dirty: bool,
    prefetched: bool,
    /// Recency: larger = more recently promoted. LRU-inserted lines get
    /// stamps *below* every live line so they are evicted first, and a
    /// later LRU insert sits below an earlier one — matching the
    /// optimized cache's rotate-into-last-way behaviour.
    stamp: i64,
}

/// A naive set-associative cache: one `Vec` of lines per set, victim
/// selection by minimum recency stamp, presence by linear scan.
#[derive(Debug, Clone)]
pub struct OracleCache {
    cfg: CacheConfig,
    sets: Vec<Vec<OracleLine>>,
    next_mru: i64,
    next_lru: i64,
    stats: CacheStats,
}

impl OracleCache {
    /// Builds the naive cache with the same geometry as [`crate::Cache`].
    pub fn new(cfg: CacheConfig) -> Self {
        let n = cfg.sets();
        assert!(n > 0, "cache must have at least one set");
        Self {
            cfg,
            sets: vec![Vec::new(); n],
            next_mru: 1,
            next_lru: -1,
            stats: CacheStats::default(),
        }
    }

    /// Counter snapshot (same struct as the optimized cache, so the
    /// differential runner compares them directly).
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn set_index(&self, b: BlockAddr) -> usize {
        // The optimized cache masks with sets-1; sets is a power of two,
        // so plain modulo is the same function, written the obvious way.
        (b.0 % self.sets.len() as u64) as usize
    }

    fn bump_mru(&mut self) -> i64 {
        let s = self.next_mru;
        self.next_mru += 1;
        s
    }

    fn bump_lru(&mut self) -> i64 {
        let s = self.next_lru;
        self.next_lru -= 1;
        s
    }

    /// Non-modifying presence test.
    pub fn contains(&self, b: BlockAddr) -> bool {
        self.sets[self.set_index(b)].iter().any(|l| l.block == b)
    }

    /// Demand access: returns whether the lookup hit. On a hit the line
    /// is promoted to most-recent, dirtied on a write, and a prefetched
    /// line is counted useful on its first demand touch.
    pub fn access(&mut self, b: BlockAddr, write: bool) -> bool {
        self.stats.demand_accesses += 1;
        let stamp = self.bump_mru();
        let set = self.set_index(b);
        match self.sets[set].iter_mut().find(|l| l.block == b) {
            Some(l) => {
                if l.prefetched {
                    l.prefetched = false;
                    self.stats.useful_prefetches += 1;
                }
                if write {
                    l.dirty = true;
                }
                l.stamp = stamp;
                true
            }
            None => {
                self.stats.demand_misses += 1;
                false
            }
        }
    }

    /// Inserts `b`, evicting the minimum-stamp line when the set is full.
    /// Returns the victim as `(block, dirty, was_unused_prefetch)`.
    pub fn fill(
        &mut self,
        b: BlockAddr,
        prio: InsertPriority,
        is_prefetch: bool,
        dirty: bool,
    ) -> Option<(BlockAddr, bool, bool)> {
        if is_prefetch {
            self.stats.prefetch_fills += 1;
        } else {
            self.stats.demand_fills += 1;
        }
        let stamp = match prio {
            InsertPriority::Mru => self.bump_mru(),
            InsertPriority::Lru => self.bump_lru(),
        };
        let set = self.set_index(b);
        if let Some(l) = self.sets[set].iter_mut().find(|l| l.block == b) {
            // Already present: merge flags; only an MRU fill re-promotes.
            l.dirty |= dirty;
            if !is_prefetch && l.prefetched {
                l.prefetched = false;
                self.stats.useful_prefetches += 1;
            }
            if matches!(prio, InsertPriority::Mru) {
                l.stamp = stamp;
            }
            return None;
        }
        let mut victim = None;
        if self.sets[set].len() >= self.cfg.ways {
            let (vi, _) = self.sets[set]
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.stamp)
                .expect("full set has lines");
            let v = self.sets[set].remove(vi);
            if v.prefetched {
                self.stats.useless_prefetches += 1;
            }
            if v.dirty {
                self.stats.writebacks += 1;
            }
            victim = Some((v.block, v.dirty, v.prefetched));
        }
        self.sets[set].push(OracleLine {
            block: b,
            dirty,
            prefetched: is_prefetch,
            stamp,
        });
        victim
    }

    /// Marks `b` dirty if present; returns whether it was present.
    /// Touches neither recency nor counters.
    pub fn set_dirty(&mut self, b: BlockAddr) -> bool {
        let set = self.set_index(b);
        match self.sets[set].iter_mut().find(|l| l.block == b) {
            Some(l) => {
                l.dirty = true;
                true
            }
            None => false,
        }
    }

    /// All resident blocks with their dirty bits, sorted by block — the
    /// final-contents view the differential runner compares.
    pub fn resident_blocks(&self) -> Vec<(BlockAddr, bool)> {
        let mut v: Vec<(BlockAddr, bool)> = self
            .sets
            .iter()
            .flatten()
            .map(|l| (l.block, l.dirty))
            .collect();
        v.sort_by_key(|(b, _)| b.0);
        v
    }
}

/// An outstanding miss in the naive MSHR file.
#[derive(Debug, Clone)]
pub struct OracleMshrEntry {
    /// The in-flight block.
    pub block: BlockAddr,
    /// A demand access waits on this block.
    pub demand: bool,
    /// The eventual fill is a prefetch fill (cleared when a demand merges).
    pub prefetch_fill: bool,
    /// Write-allocate: dirty the block on fill.
    pub dirty_on_fill: bool,
    /// Scheduled fill-completion cycle, once known.
    pub fill_at: Option<u64>,
}

/// A flat, linear-scan MSHR file with the same merge semantics as
/// [`crate::MshrFile`].
#[derive(Debug, Clone)]
pub struct OracleMshr {
    capacity: usize,
    /// Fault-injection mirror of [`crate::MshrFile`]'s capacity squeeze.
    squeeze: usize,
    entries: Vec<OracleMshrEntry>,
}

impl OracleMshr {
    /// A file with `capacity` registers.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            capacity,
            squeeze: 0,
            entries: Vec::new(),
        }
    }

    /// Mirrors [`crate::MshrFile::set_capacity_squeeze`]: withholds
    /// `squeeze` registers (floored at one usable register).
    pub fn set_capacity_squeeze(&mut self, squeeze: usize) {
        self.squeeze = squeeze;
    }

    /// True when no further miss can be tracked.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity.saturating_sub(self.squeeze).max(1)
    }

    /// Registers in use.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// The scheduled fill time for `block`, if known.
    pub fn fill_time(&self, block: BlockAddr) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.block == block)
            .and_then(|e| e.fill_at)
    }

    /// Earliest scheduled fill across the file.
    pub fn earliest_fill_time(&self) -> Option<u64> {
        self.entries.iter().filter_map(|e| e.fill_at).min()
    }

    /// Allocates or merges, mirroring [`crate::MshrFile::allocate_or_merge`]
    /// for the demand-only paths the oracle exercises. Returns false when
    /// the file was full and nothing was allocated.
    pub fn allocate_or_merge(
        &mut self,
        block: BlockAddr,
        demand: bool,
        dirty_on_fill: bool,
    ) -> bool {
        if let Some(e) = self.entries.iter_mut().find(|e| e.block == block) {
            if demand {
                e.demand = true;
                e.prefetch_fill = false;
            }
            e.dirty_on_fill |= dirty_on_fill;
            return true;
        }
        if self.is_full() {
            return false;
        }
        self.entries.push(OracleMshrEntry {
            block,
            demand,
            prefetch_fill: !demand,
            dirty_on_fill,
            fill_at: None,
        });
        true
    }

    /// Records the scheduled fill time; no-op for unknown blocks.
    pub fn set_fill_time(&mut self, block: BlockAddr, at: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.block == block) {
            e.fill_at = Some(at);
        }
    }

    /// Releases the register for `block`, returning its entry.
    pub fn complete(&mut self, block: BlockAddr) -> Option<OracleMshrEntry> {
        let i = self.entries.iter().position(|e| e.block == block)?;
        Some(self.entries.remove(i))
    }
}

/// A naive multi-channel DRAM with the same timing contract as
/// [`crate::Dram`], written with division/modulo address math and
/// straightforward per-channel/bank state vectors.
#[derive(Debug, Clone)]
pub struct OracleDram {
    cfg: DramConfig,
    bus_free_at: Vec<u64>,
    demand_bus_free_at: Vec<u64>,
    open_row: Vec<Vec<Option<u64>>>,
    bank_ready_at: Vec<Vec<u64>>,
    stats: DramStats,
}

impl OracleDram {
    /// Builds the naive DRAM from `cfg`.
    pub fn new(cfg: DramConfig) -> Self {
        Self {
            cfg,
            bus_free_at: vec![0; cfg.channels],
            demand_bus_free_at: vec![0; cfg.channels],
            open_row: vec![vec![None; cfg.banks_per_channel]; cfg.channels],
            bank_ready_at: vec![vec![0; cfg.banks_per_channel]; cfg.channels],
            stats: DramStats::default(),
        }
    }

    /// Access counters (same struct as the optimized DRAM).
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Mirrors [`crate::Dram::stall_channel`]: holds the channel's bus
    /// (and, for an outage, its demand horizon) busy until `until`.
    pub fn stall_channel(&mut self, channel: usize, until: u64, demands_too: bool) {
        let ch = channel % self.cfg.channels;
        self.bus_free_at[ch] = self.bus_free_at[ch].max(until);
        if demands_too {
            self.demand_bus_free_at[ch] = self.demand_bus_free_at[ch].max(until);
        }
    }

    fn channel_of(&self, block: BlockAddr) -> usize {
        // XOR-fold the higher address bits so power-of-two strides still
        // spread; shifts written as divisions by block-count powers.
        let b = block.0;
        let folded = b ^ (b / 64) ^ (b / 4096) ^ (b / 262_144);
        (folded % self.cfg.channels as u64) as usize
    }

    fn row_of(&self, block: BlockAddr) -> u64 {
        (block.0 / self.cfg.channels as u64) / self.cfg.blocks_per_row
    }

    /// Issues an access, mirroring [`crate::Dram::issue`] timing exactly.
    pub fn issue(&mut self, block: BlockAddr, kind: RequestKind, now: u64) -> DramRequest {
        let ch = self.channel_of(block);
        let row = self.row_of(block);
        let bank = (row % self.cfg.banks_per_channel as u64) as usize;

        let start = if kind == RequestKind::Demand {
            let base = now.max(self.demand_bus_free_at[ch]);
            if self.bus_free_at[ch] > base {
                base + self.cfg.t_preempt
            } else {
                base
            }
        } else {
            now.max(self.bus_free_at[ch])
                .max(self.bank_ready_at[ch][bank])
        };
        let row_hit = self.open_row[ch][bank] == Some(row);
        let access = if row_hit {
            self.cfg.t_row_hit
        } else {
            self.cfg.t_row_hit + self.cfg.t_row_miss_extra
        };
        let complete_at = start + self.cfg.t_overhead + access + self.cfg.t_burst;

        self.open_row[ch][bank] = Some(row);
        self.bank_ready_at[ch][bank] = complete_at;
        let occupancy = self.cfg.t_burst
            + if row_hit {
                0
            } else {
                self.cfg.t_row_miss_extra
            };
        self.bus_free_at[ch] = self.bus_free_at[ch].max(start + occupancy);
        if kind == RequestKind::Demand {
            self.demand_bus_free_at[ch] = self.demand_bus_free_at[ch].max(start + occupancy);
        }
        match kind {
            RequestKind::Demand => self.stats.demand_blocks += 1,
            RequestKind::Prefetch => self.stats.prefetch_blocks += 1,
            RequestKind::Writeback => self.stats.writeback_blocks += 1,
        }
        if row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        DramRequest {
            block,
            kind,
            complete_at,
            row_hit,
        }
    }
}

/// Block count sanity helper shared by oracle users: traffic in bytes for
/// `blocks` transferred cache blocks.
pub fn blocks_to_bytes(blocks: u64) -> u64 {
    blocks * BLOCK_BYTES
}

/// Convenience: the block containing `a` (naive math for tests).
pub fn block_of(a: Addr) -> BlockAddr {
    BlockAddr(a.0 / BLOCK_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::dram::Dram;

    fn tiny_cfg() -> CacheConfig {
        CacheConfig {
            size_bytes: 512, // 4 sets x 2 ways
            ways: 2,
        }
    }

    #[test]
    fn oracle_cache_matches_optimized_on_mixed_sequences() {
        // Drive both caches with the same pseudo-random access/fill
        // sequence and compare hits, victims, stats, and final contents.
        let mut naive = OracleCache::new(tiny_cfg());
        let mut real = Cache::new(tiny_cfg());
        let mut x = 0x1234_5678_u64;
        for step in 0..4000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = BlockAddr((x >> 33) % 32);
            let write = (x >> 7) & 1 == 1;
            if step % 3 == 0 {
                let prio = if (x >> 9) & 1 == 1 {
                    InsertPriority::Lru
                } else {
                    InsertPriority::Mru
                };
                let is_pf = (x >> 11) & 1 == 1;
                let v_naive = naive.fill(b, prio, is_pf, write);
                let v_real = real
                    .fill(b, prio, is_pf, write)
                    .map(|v| (v.block, v.dirty, v.was_unused_prefetch));
                assert_eq!(v_naive, v_real, "fill victim diverged at step {step}");
            } else {
                let h_naive = naive.access(b, write);
                let h_real = real.access(b, write) == crate::cache::LookupResult::Hit;
                assert_eq!(h_naive, h_real, "hit/miss diverged at step {step}");
            }
        }
        assert_eq!(naive.stats(), real.stats());
        let mut real_resident: Vec<BlockAddr> = (0..32)
            .map(BlockAddr)
            .filter(|b| real.contains(*b))
            .collect();
        real_resident.sort_by_key(|b| b.0);
        let naive_resident: Vec<BlockAddr> =
            naive.resident_blocks().iter().map(|(b, _)| *b).collect();
        assert_eq!(naive_resident, real_resident);
    }

    #[test]
    fn oracle_dram_matches_optimized_timing() {
        let mut naive = OracleDram::new(DramConfig::default());
        let mut real = Dram::new(DramConfig::default());
        let mut x = 0xdead_beef_u64;
        let mut now = 0u64;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = BlockAddr((x >> 30) % 10_000);
            let kind = match (x >> 5) % 3 {
                0 => RequestKind::Demand,
                1 => RequestKind::Prefetch,
                _ => RequestKind::Writeback,
            };
            now += (x >> 50) % 100;
            let a = naive.issue(b, kind, now);
            let r = real.issue(b, kind, now);
            assert_eq!(a, r, "request timing diverged");
        }
        assert_eq!(naive.stats(), real.stats());
    }

    #[test]
    fn oracle_mshr_merge_semantics() {
        let mut m = OracleMshr::new(2);
        assert!(m.allocate_or_merge(BlockAddr(1), false, false));
        assert!(m.entries[0].prefetch_fill);
        assert!(m.allocate_or_merge(BlockAddr(1), true, true));
        assert!(m.entries[0].demand && !m.entries[0].prefetch_fill);
        assert!(m.entries[0].dirty_on_fill);
        assert!(m.allocate_or_merge(BlockAddr(2), true, false));
        assert!(m.is_full());
        assert!(!m.allocate_or_merge(BlockAddr(3), true, false));
        m.set_fill_time(BlockAddr(2), 70);
        assert_eq!(m.fill_time(BlockAddr(2)), Some(70));
        assert_eq!(m.earliest_fill_time(), Some(70));
        let e = m.complete(BlockAddr(2)).expect("present");
        assert!(e.demand);
        assert_eq!(m.occupancy(), 1);
    }

    #[test]
    fn lru_insert_order_matches_rotate_semantics() {
        // Two successive LRU inserts: the *newer* one must be evicted
        // first (it rotates into the last way, pushing the older one up).
        let mut naive = OracleCache::new(tiny_cfg());
        let mut real = Cache::new(tiny_cfg());
        for c in [&mut naive] {
            c.fill(BlockAddr(0), InsertPriority::Lru, true, false);
            c.fill(BlockAddr(4), InsertPriority::Lru, true, false);
        }
        real.fill(BlockAddr(0), InsertPriority::Lru, true, false);
        real.fill(BlockAddr(4), InsertPriority::Lru, true, false);
        let vn = naive.fill(BlockAddr(8), InsertPriority::Mru, false, false);
        let vr = real
            .fill(BlockAddr(8), InsertPriority::Mru, false, false)
            .map(|v| (v.block, v.dirty, v.was_unused_prefetch));
        assert_eq!(vn, vr);
        assert_eq!(
            vn.expect("evicts").0,
            BlockAddr(4),
            "newest LRU insert evicted first"
        );
    }
}
