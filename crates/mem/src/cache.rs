//! Set-associative cache with prefetch-aware replacement.
//!
//! SRP/GRP control cache pollution by "placing prefetched data in the
//! lowest priority position of the replacement scheme. The controller puts
//! prefetched data in the LRU position of the pertinent cache set, and
//! moves a block to the MRU position only if it is referenced explicitly
//! by the CPU" (paper §3.1). [`Cache::fill`] therefore takes an
//! [`InsertPriority`], and the cache tracks a per-line prefetch bit so the
//! harness can compute prefetch *accuracy* (fraction of prefetched lines
//! referenced before eviction — Table 5).

use crate::addr::BlockAddr;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be `ways * sets * 64`.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// 64 KB 2-way: the paper's split L1 configuration.
    pub fn l1_spec() -> Self {
        Self {
            size_bytes: 64 * 1024,
            ways: 2,
        }
    }

    /// 1 MB 4-way: the paper's unified L2 configuration.
    pub fn l2_spec() -> Self {
        Self {
            size_bytes: 1024 * 1024,
            ways: 4,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.size_bytes / crate::addr::BLOCK_BYTES) as usize / self.ways
    }
}

/// Where a filled block lands in the recency stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertPriority {
    /// Most-recently-used: ordinary demand fills.
    Mru,
    /// Least-recently-used: prefetch fills under SRP/GRP, so a useless
    /// prefetch can displace at most one `n`-th of the useful data in an
    /// `n`-way cache.
    Lru,
}

/// Outcome of a demand lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// The block was present.
    Hit,
    /// The block was absent; the caller must fetch and [`Cache::fill`] it.
    Miss,
}

/// Detailed outcome of a demand lookup, for observers that need to see
/// first-touches of prefetched lines (the `useful_prefetches` increment)
/// as they happen rather than in the aggregate counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the lookup hit.
    pub hit: bool,
    /// True when this access was the first demand touch of a line that
    /// was brought in by a prefetch (`useful_prefetches` was bumped).
    pub first_prefetch_use: bool,
}

/// Detailed outcome of a fill, for observers: the eviction (if any) plus
/// whether a demand fill merged into an already-present prefetched line
/// (which also bumps `useful_prefetches`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// The evicted block, if the fill displaced a valid line.
    pub victim: Option<Victim>,
    /// True when a demand fill found the block already present and
    /// marked prefetched (the prefetch won the race and was useful).
    pub merged_useful: bool,
}

/// A block evicted by [`Cache::fill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The evicted block.
    pub block: BlockAddr,
    /// True when the block was dirty and must be written back.
    pub dirty: bool,
    /// True when the block was brought in by a prefetch and never
    /// referenced by the CPU — a wasted prefetch.
    pub was_unused_prefetch: bool,
}

/// Running counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups (loads + stores).
    pub demand_accesses: u64,
    /// Demand lookups that missed.
    pub demand_misses: u64,
    /// Demand misses that hit a line still in flight is tracked by MSHRs,
    /// not here; this counts pure tag-array misses.
    pub prefetch_fills: u64,
    /// Demand fills (miss completions).
    pub demand_fills: u64,
    /// First demand touch of a prefetched line (prefetch was useful).
    pub useful_prefetches: u64,
    /// Prefetched lines evicted untouched (prefetch was useless).
    pub useless_prefetches: u64,
    /// Dirty evictions (writeback traffic).
    pub writebacks: u64,
    /// Demand hits on a line that was prefetched *late* is accounted by the
    /// MSHR layer; this struct is the tag-array view.
    pub invalidations: u64,
}

impl CacheStats {
    /// Demand miss ratio in `[0, 1]`; zero when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.demand_accesses == 0 {
            0.0
        } else {
            self.demand_misses as f64 / self.demand_accesses as f64
        }
    }

    /// Prefetch accuracy in `[0, 1]`: useful / (useful + useless). Only
    /// meaningful once lines have been evicted or the run has ended;
    /// the harness adds still-resident-and-touched lines at drain time.
    pub fn prefetch_accuracy(&self) -> f64 {
        let total = self.useful_prefetches + self.useless_prefetches;
        if total == 0 {
            0.0
        } else {
            self.useful_prefetches as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    prefetched: bool,
}

const INVALID: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    prefetched: false,
};

/// A set-associative, write-back, write-allocate cache with true-LRU
/// replacement and prefetch-aware insertion.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    // Per set: `ways` lines ordered MRU (index 0) → LRU (index ways-1).
    lines: Vec<Line>,
    ways: usize,
    // Precomputed set mask / tag shift: `contains` runs once per candidate
    // bit in the region engine's scan, so the lookup math stays flat.
    set_mask: usize,
    tag_shift: u32,
    stats: CacheStats,
    // Test-only fault injection: when set, fills evict the MRU way
    // instead of the LRU way. Exists so the differential oracle gate can
    // prove it detects replacement-policy bugs; never set in production.
    fault_evict_mru: bool,
}

impl Cache {
    /// Builds a cache from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into a whole power-of-two
    /// number of sets.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(cfg.ways > 0);
        Self {
            cfg,
            lines: vec![INVALID; sets * cfg.ways],
            ways: cfg.ways,
            set_mask: sets - 1,
            tag_shift: sets.trailing_zeros(),
            stats: CacheStats::default(),
            fault_evict_mru: false,
        }
    }

    #[doc(hidden)]
    pub fn set_fault_evict_mru(&mut self, on: bool) {
        self.fault_evict_mru = on;
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Counter snapshot.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Set index of the given block under this cache's geometry — the
    /// projection the packed tier's pre-analysis pass precomputes.
    #[inline]
    pub fn set_of(&self, b: BlockAddr) -> usize {
        (b.0 as usize) & self.set_mask
    }

    /// Tag of the given block under this cache's geometry.
    #[inline]
    pub fn tag_of(&self, b: BlockAddr) -> u64 {
        b.0 >> self.tag_shift
    }

    #[inline]
    fn set_slice(&self, set: usize) -> &[Line] {
        &self.lines[set * self.ways..(set + 1) * self.ways]
    }

    fn block_from(&self, set: usize, tag: u64) -> BlockAddr {
        BlockAddr((tag << self.tag_shift) | set as u64)
    }

    /// Non-modifying presence test: does not update recency or counters.
    /// This is what the SRP engine uses when initializing a region's
    /// prefetch bit vector ("the blocks not already present in the L2
    /// cache", §3.1).
    pub fn contains(&self, b: BlockAddr) -> bool {
        let set = self.set_of(b);
        let tag = self.tag_of(b);
        self.set_slice(set).iter().any(|l| l.valid && l.tag == tag)
    }

    /// Demand access (load or store). On a hit the line is promoted to MRU
    /// and, for a write, marked dirty. The caller handles misses by fetching
    /// the block and calling [`Cache::fill`].
    #[inline]
    pub fn access(&mut self, b: BlockAddr, write: bool) -> LookupResult {
        if self.access_ext(b, write).hit {
            LookupResult::Hit
        } else {
            LookupResult::Miss
        }
    }

    /// [`Cache::access`] with the observer-layer detail attached.
    pub fn access_ext(&mut self, b: BlockAddr, write: bool) -> AccessOutcome {
        self.stats.demand_accesses += 1;
        let set = self.set_of(b);
        let tag = self.tag_of(b);
        let ways = self.ways;
        let lines = &mut self.lines[set * ways..(set + 1) * ways];
        let hit_way = lines.iter().position(|l| l.valid && l.tag == tag);
        match hit_way {
            Some(w) => {
                let first_prefetch_use = lines[w].prefetched;
                if first_prefetch_use {
                    lines[w].prefetched = false;
                    self.stats.useful_prefetches += 1;
                }
                if write {
                    lines[w].dirty = true;
                }
                // Promote to MRU: rotate [0..=w] right by one.
                lines[..=w].rotate_right(1);
                AccessOutcome {
                    hit: true,
                    first_prefetch_use,
                }
            }
            None => {
                self.stats.demand_misses += 1;
                AccessOutcome {
                    hit: false,
                    first_prefetch_use: false,
                }
            }
        }
    }

    /// Inserts `b`, evicting the LRU line if the set is full.
    ///
    /// `is_prefetch` marks the line for accuracy accounting; `prio` chooses
    /// the recency position ([`InsertPriority::Lru`] for SRP/GRP prefetch
    /// fills). `dirty` pre-dirties the line (used when a store triggered the
    /// fill, i.e. write-allocate). Filling a block already present updates
    /// its flags without duplicating it.
    #[inline]
    pub fn fill(
        &mut self,
        b: BlockAddr,
        prio: InsertPriority,
        is_prefetch: bool,
        dirty: bool,
    ) -> Option<Victim> {
        self.fill_ext(b, prio, is_prefetch, dirty).victim
    }

    /// [`Cache::fill`] with the observer-layer detail attached.
    pub fn fill_ext(
        &mut self,
        b: BlockAddr,
        prio: InsertPriority,
        is_prefetch: bool,
        dirty: bool,
    ) -> FillOutcome {
        let set = self.set_of(b);
        let tag = self.tag_of(b);
        if is_prefetch {
            self.stats.prefetch_fills += 1;
        } else {
            self.stats.demand_fills += 1;
        }
        let ways = self.ways;
        let lines = &mut self.lines[set * ways..(set + 1) * ways];

        if let Some(w) = lines.iter().position(|l| l.valid && l.tag == tag) {
            // Already present (e.g. a prefetch raced a demand fill): merge.
            lines[w].dirty |= dirty;
            let merged_useful = !is_prefetch && lines[w].prefetched;
            if merged_useful {
                lines[w].prefetched = false;
                self.stats.useful_prefetches += 1;
            }
            if matches!(prio, InsertPriority::Mru) {
                lines[..=w].rotate_right(1);
            }
            return FillOutcome {
                victim: None,
                merged_useful,
            };
        }

        // Choose victim: an invalid way if any, else the LRU way.
        let victim_way = lines
            .iter()
            .position(|l| !l.valid)
            .unwrap_or(if self.fault_evict_mru { 0 } else { ways - 1 });
        let victim_line = lines[victim_way];
        let victim = if victim_line.valid {
            if victim_line.prefetched {
                self.stats.useless_prefetches += 1;
            }
            if victim_line.dirty {
                self.stats.writebacks += 1;
            }
            Some(Victim {
                block: self.block_from(set, victim_line.tag),
                dirty: victim_line.dirty,
                was_unused_prefetch: victim_line.prefetched,
            })
        } else {
            None
        };

        let lines = &mut self.lines[set * ways..(set + 1) * ways];
        lines[victim_way] = Line {
            tag,
            valid: true,
            dirty,
            prefetched: is_prefetch,
        };
        match prio {
            InsertPriority::Mru => lines[..=victim_way].rotate_right(1),
            InsertPriority::Lru => lines[victim_way..].rotate_left(1),
        }
        FillOutcome {
            victim,
            merged_useful: false,
        }
    }

    /// Marks `b` dirty if present (used when an upper-level cache writes
    /// back into this one), without touching recency or demand counters.
    /// Returns true when the block was present.
    pub fn set_dirty(&mut self, b: BlockAddr) -> bool {
        let set = self.set_of(b);
        let tag = self.tag_of(b);
        let ways = self.ways;
        let lines = &mut self.lines[set * ways..(set + 1) * ways];
        match lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            Some(l) => {
                l.dirty = true;
                true
            }
            None => false,
        }
    }

    /// Removes `b` if present, returning whether it was dirty.
    pub fn invalidate(&mut self, b: BlockAddr) -> Option<bool> {
        let set = self.set_of(b);
        let tag = self.tag_of(b);
        let ways = self.ways;
        let lines = &mut self.lines[set * ways..(set + 1) * ways];
        let w = lines.iter().position(|l| l.valid && l.tag == tag)?;
        let dirty = lines[w].dirty;
        lines[w] = INVALID;
        // Compact invalid entries toward the LRU end.
        lines[w..].rotate_left(1);
        self.stats.invalidations += 1;
        Some(dirty)
    }

    /// Number of valid lines currently marked prefetched-and-untouched.
    /// The harness folds these into the accuracy denominator at run end.
    pub fn resident_unused_prefetches(&self) -> u64 {
        self.lines
            .iter()
            .filter(|l| l.valid && l.prefetched)
            .count() as u64
    }

    /// Number of valid lines.
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// All resident blocks with their dirty bits, sorted by block address.
    /// The differential oracle compares this against the reference
    /// cache's final contents.
    pub fn resident_blocks(&self) -> Vec<(BlockAddr, bool)> {
        let mut v: Vec<(BlockAddr, bool)> = (0..=self.set_mask)
            .flat_map(|set| {
                self.set_slice(set)
                    .iter()
                    .filter(|l| l.valid)
                    .map(move |l| (self.block_from(set, l.tag), l.dirty))
                    .collect::<Vec<_>>()
            })
            .collect();
        v.sort_by_key(|(b, _)| b.0);
        v
    }

    /// Structural well-formedness: no set may hold two valid lines with
    /// the same tag, and the counter identities that hold by construction
    /// must still hold. Returns the first violation as a message.
    pub fn check_well_formed(&self) -> Result<(), String> {
        for set in 0..=self.set_mask {
            let lines = self.set_slice(set);
            for (i, a) in lines.iter().enumerate() {
                if !a.valid {
                    continue;
                }
                if lines[i + 1..].iter().any(|b| b.valid && b.tag == a.tag) {
                    return Err(format!("cache set {set}: duplicate valid tag {:#x}", a.tag));
                }
            }
        }
        let s = &self.stats;
        if s.demand_misses > s.demand_accesses {
            return Err(format!(
                "cache stats: misses {} exceed accesses {}",
                s.demand_misses, s.demand_accesses
            ));
        }
        let classified =
            s.useful_prefetches + s.useless_prefetches + self.resident_unused_prefetches();
        if classified > s.prefetch_fills {
            return Err(format!(
                "cache stats: classified prefetches {} exceed prefetch fills {}",
                classified, s.prefetch_fills
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
        })
    }

    #[test]
    fn spec_configs_have_expected_geometry() {
        assert_eq!(CacheConfig::l1_spec().sets(), 512);
        assert_eq!(CacheConfig::l2_spec().sets(), 4096);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        let b = BlockAddr(0x40);
        assert_eq!(c.access(b, false), LookupResult::Miss);
        assert!(c.fill(b, InsertPriority::Mru, false, false).is_none());
        assert_eq!(c.access(b, false), LookupResult::Hit);
        assert!(c.contains(b));
        assert_eq!(c.stats().demand_misses, 1);
        assert_eq!(c.stats().demand_accesses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 blocks: multiples of 4 in a 4-set cache.
        let b0 = BlockAddr(0);
        let b1 = BlockAddr(4);
        let b2 = BlockAddr(8);
        c.fill(b0, InsertPriority::Mru, false, false);
        c.fill(b1, InsertPriority::Mru, false, false);
        // b0 is LRU; touching it promotes it.
        assert_eq!(c.access(b0, false), LookupResult::Hit);
        let v = c
            .fill(b2, InsertPriority::Mru, false, false)
            .expect("eviction");
        assert_eq!(v.block, b1);
        assert!(c.contains(b0));
        assert!(!c.contains(b1));
    }

    #[test]
    fn lru_insertion_makes_prefetch_first_victim() {
        let mut c = tiny();
        let demand = BlockAddr(0);
        let pf = BlockAddr(4);
        let new = BlockAddr(8);
        c.fill(demand, InsertPriority::Mru, false, false);
        c.fill(pf, InsertPriority::Lru, true, false);
        let v = c
            .fill(new, InsertPriority::Mru, false, false)
            .expect("evict");
        assert_eq!(
            v.block, pf,
            "LRU-inserted prefetch evicted before demand line"
        );
        assert!(v.was_unused_prefetch);
        assert_eq!(c.stats().useless_prefetches, 1);
    }

    #[test]
    fn demand_touch_promotes_prefetched_line_and_counts_useful() {
        let mut c = tiny();
        let pf = BlockAddr(4);
        c.fill(pf, InsertPriority::Lru, true, false);
        assert_eq!(c.access(pf, false), LookupResult::Hit);
        assert_eq!(c.stats().useful_prefetches, 1);
        // The line now behaves as a demand line: when it is eventually
        // evicted it no longer counts as an unused prefetch.
        c.fill(BlockAddr(0), InsertPriority::Mru, false, false); // pf becomes LRU
        let v = c
            .fill(BlockAddr(8), InsertPriority::Mru, false, false)
            .unwrap();
        assert_eq!(v.block, pf);
        assert!(!v.was_unused_prefetch);
        assert_eq!(c.stats().useless_prefetches, 0);
    }

    #[test]
    fn writes_dirty_lines_and_evictions_writeback() {
        let mut c = tiny();
        let b = BlockAddr(0);
        c.fill(b, InsertPriority::Mru, false, false);
        c.access(b, true); // dirties b
        c.fill(BlockAddr(4), InsertPriority::Mru, false, false); // b becomes LRU
        let v = c
            .fill(BlockAddr(8), InsertPriority::Mru, false, false)
            .unwrap();
        assert_eq!(v.block, b);
        assert!(v.dirty, "store-touched line writes back on eviction");
    }

    #[test]
    fn writeback_counted_on_dirty_eviction() {
        let mut c = tiny();
        let b = BlockAddr(0);
        c.fill(b, InsertPriority::Mru, false, true); // write-allocate fill
        c.fill(BlockAddr(4), InsertPriority::Mru, false, false);
        let v = c
            .fill(BlockAddr(8), InsertPriority::Mru, false, false)
            .unwrap();
        assert_eq!(v.block, b);
        assert!(v.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn duplicate_fill_merges_instead_of_duplicating() {
        let mut c = tiny();
        let b = BlockAddr(4);
        c.fill(b, InsertPriority::Lru, true, false);
        c.fill(b, InsertPriority::Mru, false, false); // demand fill races prefetch
        assert_eq!(c.resident_lines(), 1);
        assert_eq!(c.stats().useful_prefetches, 1);
        assert_eq!(c.resident_unused_prefetches(), 0);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        let b = BlockAddr(4);
        c.fill(b, InsertPriority::Mru, false, true);
        assert_eq!(c.invalidate(b), Some(true));
        assert!(!c.contains(b));
        assert_eq!(c.invalidate(b), None);
    }

    #[test]
    fn contains_does_not_touch_stats_or_recency() {
        let mut c = tiny();
        let b0 = BlockAddr(0);
        let b1 = BlockAddr(4);
        c.fill(b0, InsertPriority::Mru, false, false);
        c.fill(b1, InsertPriority::Mru, false, false);
        let before = *c.stats();
        assert!(c.contains(b0));
        assert_eq!(*c.stats(), before);
        // b0 is still LRU despite the probe.
        let v = c
            .fill(BlockAddr(8), InsertPriority::Mru, false, false)
            .unwrap();
        assert_eq!(v.block, b0);
    }

    #[test]
    fn set_dirty_marks_without_stats() {
        let mut c = tiny();
        let b = BlockAddr(4);
        assert!(!c.set_dirty(b));
        c.fill(b, InsertPriority::Mru, false, false);
        let before = *c.stats();
        assert!(c.set_dirty(b));
        assert_eq!(*c.stats(), before);
        c.fill(BlockAddr(0), InsertPriority::Mru, false, false);
        let v = c
            .fill(BlockAddr(8), InsertPriority::Mru, false, false)
            .unwrap();
        assert_eq!(v.block, b);
        assert!(v.dirty);
    }

    #[test]
    fn miss_ratio_and_accuracy_math() {
        let mut s = CacheStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.prefetch_accuracy(), 0.0);
        s.demand_accesses = 10;
        s.demand_misses = 4;
        s.useful_prefetches = 3;
        s.useless_prefetches = 1;
        assert!((s.miss_ratio() - 0.4).abs() < 1e-12);
        assert!((s.prefetch_accuracy() - 0.75).abs() < 1e-12);
    }
}
