//! Stride prefetching via predictor-directed stream buffers
//! (Sherwood, Sair & Calder, MICRO 2000) — the paper's pure-hardware
//! comparison point.
//!
//! Configuration follows §5.1: "the stride predictor uses a 4-way history
//! table with 1K entries. There are 8 entries in each of 8 streaming
//! buffers sharing the history table." The paper's GRP study omits the
//! Markov predictor half of Sherwood's design ("the Markov predictor
//! consumes too much state to be practical", §2) and so do we.
//!
//! One simplification is documented in DESIGN.md: stream-buffer fills are
//! modelled as LRU-priority L2 fills rather than a separate buffer array.
//! Hit/coverage/traffic behaviour — what the paper compares — is
//! preserved; only the (tiny) buffer-capacity displacement differs.

use grp_cpu::{HintSet, RefId};
use grp_mem::{Addr, BlockAddr, Cache, Dram, HeapRange, Memory, MshrFile};

use super::{Candidate, EngineStats, Prefetcher};
use crate::obs::{EngineEvent, EngineEventKind, SquashReason};

/// Geometry of the stride predictor + stream buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideConfig {
    /// History-table entries (paper: 1024).
    pub table_entries: usize,
    /// History-table associativity (paper: 4).
    pub table_ways: usize,
    /// Number of stream buffers (paper: 8).
    pub buffers: usize,
    /// Depth of each stream buffer (paper: 8).
    pub buffer_depth: u8,
    /// Confidence threshold before a stream is allocated.
    pub confidence: u8,
}

impl Default for StrideConfig {
    fn default() -> Self {
        Self {
            table_entries: 1024,
            table_ways: 4,
            buffers: 8,
            buffer_depth: 8,
            confidence: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TableEntry {
    valid: bool,
    tag: u32,
    last_addr: u64,
    stride: i64,
    conf: u8,
    lru: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Stream {
    valid: bool,
    next: u64,
    stride: i64,
    credits: u8,
    lru: u64,
}

/// The stride/stream-buffer engine.
#[derive(Debug)]
pub struct StridePrefetcher {
    cfg: StrideConfig,
    table: Vec<TableEntry>,
    streams: Vec<Stream>,
    clock: u64,
    stats: EngineStats,
    /// Buffer queued/squashed lifecycle events for the observer layer.
    trace: bool,
    events: Vec<EngineEvent>,
}

impl StridePrefetcher {
    /// Builds the engine.
    ///
    /// # Panics
    ///
    /// Panics unless the table geometry divides evenly.
    pub fn new(cfg: StrideConfig) -> Self {
        assert!(cfg.table_entries.is_multiple_of(cfg.table_ways));
        Self {
            table: vec![TableEntry::default(); cfg.table_entries],
            streams: vec![Stream::default(); cfg.buffers],
            clock: 0,
            cfg,
            stats: EngineStats::default(),
            trace: false,
            events: Vec::new(),
        }
    }

    /// Emits one lifecycle event per distinct block a stream window
    /// covers: `credits` steps of `stride` bytes starting at `next`.
    /// Sub-block strides revisit the same block on consecutive steps, so
    /// consecutive duplicates are collapsed.
    fn emit_window(&mut self, next: u64, stride: i64, credits: u8, kind: EngineEventKind) {
        let mut a = next;
        let mut last: Option<BlockAddr> = None;
        for _ in 0..credits {
            let b = Addr(a).block();
            if last != Some(b) {
                self.events.push(EngineEvent { block: b, kind });
                last = Some(b);
            }
            a = a.wrapping_add(stride as u64);
        }
    }

    fn sets(&self) -> usize {
        self.cfg.table_entries / self.cfg.table_ways
    }

    /// Updates the history table for (pc, addr); returns a confident
    /// stride if one is established.
    fn update_table(&mut self, pc: u32, addr: u64) -> Option<i64> {
        self.clock += 1;
        let set = (pc as usize) % self.sets();
        let ways = self.cfg.table_ways;
        let slice = &mut self.table[set * ways..(set + 1) * ways];
        if let Some(e) = slice.iter_mut().find(|e| e.valid && e.tag == pc) {
            let stride = addr.wrapping_sub(e.last_addr) as i64;
            if stride == e.stride && stride != 0 {
                e.conf = (e.conf + 1).min(3);
            } else {
                e.conf = e.conf.saturating_sub(1);
                if e.conf == 0 {
                    e.stride = stride;
                }
            }
            e.last_addr = addr;
            e.lru = self.clock;
            if e.conf >= self.cfg.confidence && e.stride != 0 {
                return Some(e.stride);
            }
            return None;
        }
        // Replace the LRU way.
        let victim = slice
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru } else { 0 })
            .expect("nonzero ways");
        *victim = TableEntry {
            valid: true,
            tag: pc,
            last_addr: addr,
            stride: 0,
            conf: 0,
            lru: self.clock,
        };
        None
    }

    /// Allocates or redirects a stream buffer at `addr + stride`.
    fn direct_stream(&mut self, addr: u64, stride: i64) {
        self.clock += 1;
        let depth = self.cfg.buffer_depth as u64;
        // An existing stream covering this address path gets refreshed.
        let mut refreshed = None;
        if let Some(s) = self.streams.iter_mut().find(|s| {
            s.valid && s.stride == stride && {
                // The miss falls on the stream's recent path.
                let diff = addr.wrapping_sub(s.next) as i64;
                stride != 0 && diff % stride == 0 && (diff / stride).unsigned_abs() <= depth
            }
        }) {
            s.next = addr.wrapping_add(stride as u64);
            s.credits = self.cfg.buffer_depth;
            s.lru = self.clock;
            refreshed = Some((s.next, s.stride, s.credits));
        }
        if let Some((next, st, credits)) = refreshed {
            if self.trace {
                // The redirected window mostly overlaps the old one; the
                // tracer keeps one open record per block, so re-queues of
                // already-tracked blocks are absorbed there.
                self.emit_window(next, st, credits, EngineEventKind::Queued);
            }
            return;
        }
        let victim = self
            .streams
            .iter_mut()
            .min_by_key(|s| if s.valid { s.lru } else { 0 })
            .expect("nonzero buffers");
        let old = *victim;
        *victim = Stream {
            valid: true,
            next: addr.wrapping_add(stride as u64),
            stride,
            credits: self.cfg.buffer_depth,
            lru: self.clock,
        };
        self.stats.entries_allocated += 1;
        if self.trace {
            if old.valid && old.credits > 0 {
                self.emit_window(
                    old.next,
                    old.stride,
                    old.credits,
                    EngineEventKind::Squashed(SquashReason::Dropped),
                );
            }
            self.emit_window(
                addr.wrapping_add(stride as u64),
                stride,
                self.cfg.buffer_depth,
                EngineEventKind::Queued,
            );
        }
    }
}

impl Prefetcher for StridePrefetcher {
    fn on_demand_miss(
        &mut self,
        _block: BlockAddr,
        addr: Addr,
        ref_id: RefId,
        _hints: HintSet,
        _write: bool,
        _l2: &Cache,
    ) -> u8 {
        if let Some(stride) = self.update_table(ref_id.0, addr.0) {
            self.direct_stream(addr.0, stride);
        }
        0
    }

    fn on_fill(
        &mut self,
        _block: BlockAddr,
        _level: u8,
        _mem: &Memory,
        _heap: HeapRange,
        _l2: &Cache,
    ) {
    }

    fn has_candidates(&self) -> bool {
        self.streams.iter().any(|s| s.valid && s.credits > 0)
    }

    fn next_candidate(
        &mut self,
        l2: &Cache,
        mshrs: &MshrFile,
        dram: &Dram,
        now: u64,
    ) -> Option<Candidate> {
        // Round-robin over buffers (by LRU order: least-recently-serviced
        // first would starve hot streams; simple scan is what stream
        // buffers do — each has its own prefetch pointer).
        for s in self.streams.iter_mut() {
            if !s.valid || s.credits == 0 {
                continue;
            }
            while s.credits > 0 {
                let block = Addr(s.next).block();
                if l2.contains(block) || mshrs.contains(block) {
                    if self.trace {
                        self.events
                            .push(EngineEvent::squashed(block, SquashReason::Stale));
                    }
                    s.next = s.next.wrapping_add(s.stride as u64);
                    s.credits -= 1;
                    continue;
                }
                if !dram.channel_idle(block, now) {
                    break; // try another stream
                }
                s.next = s.next.wrapping_add(s.stride as u64);
                s.credits -= 1;
                self.stats.candidates_issued += 1;
                return Some(Candidate {
                    block,
                    pointer_level: 0,
                });
            }
        }
        None
    }

    fn next_issue_time(&self, dram: &Dram) -> u64 {
        // After a failed scan every live stream head sits on a busy
        // channel (resident heads were consumed by the scan), so the next
        // time anything can issue is when one of *those* channels frees.
        let mut t = u64::MAX;
        for s in self.streams.iter() {
            if s.valid && s.credits > 0 {
                t = t.min(dram.channel_free_at(Addr(s.next).block()));
            }
        }
        if t == u64::MAX {
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
        self.streams
            .iter()
            .filter(|s| s.valid && s.credits > 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grp_mem::CacheConfig;

    fn parts() -> (Cache, MshrFile, Dram) {
        (
            Cache::new(CacheConfig::l2_spec()),
            MshrFile::new(8),
            Dram::new(Default::default()),
        )
    }

    fn miss(p: &mut StridePrefetcher, l2: &Cache, pc: u32, addr: u64) {
        p.on_demand_miss(
            Addr(addr).block(),
            Addr(addr),
            RefId(pc),
            HintSet::none(),
            false,
            l2,
        );
    }

    #[test]
    fn stride_learned_after_confidence_builds() {
        let mut p = StridePrefetcher::new(StrideConfig::default());
        let (l2, mshrs, dram) = parts();
        // Three strided misses from one PC: stride 256.
        miss(&mut p, &l2, 1, 0x10_0000);
        assert!(!p.has_candidates());
        miss(&mut p, &l2, 1, 0x10_0100);
        assert!(!p.has_candidates(), "one stride sample isn't confident yet");
        miss(&mut p, &l2, 1, 0x10_0200);
        miss(&mut p, &l2, 1, 0x10_0300);
        assert!(p.has_candidates());
        let c = p.next_candidate(&l2, &mshrs, &dram, 0).unwrap();
        assert_eq!(
            c.block,
            Addr(0x10_0400).block(),
            "prefetches ahead of the stream"
        );
    }

    #[test]
    fn random_addresses_never_allocate_streams() {
        let mut p = StridePrefetcher::new(StrideConfig::default());
        let (l2, _mshrs, _dram) = parts();
        let addrs = [0x1000u64, 0x909000, 0x33000, 0x510000, 0x77000, 0x120000];
        for a in addrs {
            miss(&mut p, &l2, 9, a);
        }
        assert!(!p.has_candidates());
        assert_eq!(p.stats().entries_allocated, 0);
    }

    #[test]
    fn stream_depth_limits_runahead() {
        let mut p = StridePrefetcher::new(StrideConfig::default());
        let (l2, mshrs, dram) = parts();
        for k in 0..4u64 {
            miss(&mut p, &l2, 1, 0x10_0000 + k * 64);
        }
        let mut n = 0;
        let mut now = 0;
        while p.next_candidate(&l2, &mshrs, &dram, now).is_some() {
            n += 1;
            now += 10_000;
        }
        assert!(n <= 8, "at most buffer_depth blocks ahead, got {n}");
        assert!(n >= 4);
    }

    #[test]
    fn continued_misses_refresh_the_stream() {
        let mut p = StridePrefetcher::new(StrideConfig::default());
        let (l2, mshrs, dram) = parts();
        for k in 0..4u64 {
            miss(&mut p, &l2, 1, 0x10_0000 + k * 64);
        }
        // Drain.
        let mut now = 0;
        while p.next_candidate(&l2, &mshrs, &dram, now).is_some() {
            now += 10_000;
        }
        // A miss further down the stream refreshes credits.
        miss(&mut p, &l2, 1, 0x10_0000 + 4 * 64);
        assert!(p.has_candidates());
        assert_eq!(
            p.stats().entries_allocated,
            1,
            "same stream, not a new allocation"
        );
    }

    #[test]
    fn distinct_pcs_use_distinct_streams() {
        let mut p = StridePrefetcher::new(StrideConfig::default());
        let (l2, mshrs, dram) = parts();
        for k in 0..4u64 {
            miss(&mut p, &l2, 1, 0x10_0000 + k * 64);
            miss(&mut p, &l2, 2, 0x50_0000 + k * 4096);
        }
        let mut blocks = Vec::new();
        let mut now = 0;
        while let Some(c) = p.next_candidate(&l2, &mshrs, &dram, now) {
            blocks.push(c.block.base().0);
            now += 10_000;
        }
        assert!(blocks.iter().any(|b| (0x10_0000..0x20_0000).contains(b)));
        assert!(blocks.iter().any(|b| (0x50_0000..0x60_0000).contains(b)));
    }

    #[test]
    fn stream_match_window_honors_configured_depth() {
        // Regression: `direct_stream` used to hard-code a match window of
        // 8 strides when deciding whether a miss falls on an existing
        // stream's path, ignoring `buffer_depth`. With a deeper buffer a
        // miss 13 strides ahead is still on-path and must refresh the
        // stream, not allocate a second one.
        let mut p = StridePrefetcher::new(StrideConfig {
            buffer_depth: 16,
            ..StrideConfig::default()
        });
        let (l2, _mshrs, _dram) = parts();
        // PC 1 trains a stride-64 stream; its pointer sits at 0x10_0100.
        for k in 0..4u64 {
            miss(&mut p, &l2, 1, 0x10_0000 + k * 64);
        }
        assert_eq!(p.stats().entries_allocated, 1);
        // PC 2 walks the same stride further along: its confident miss
        // lands 13 strides past the stream pointer — inside the depth-16
        // window, outside the old hard-coded 8.
        for k in 10..14u64 {
            miss(&mut p, &l2, 2, 0x10_0100 + k * 64);
        }
        assert_eq!(
            p.stats().entries_allocated,
            1,
            "on-path miss within buffer_depth strides must refresh, not reallocate"
        );
    }

    #[test]
    fn resident_blocks_are_skipped() {
        let mut p = StridePrefetcher::new(StrideConfig::default());
        let (mut l2, mshrs, dram) = parts();
        for k in 0..4u64 {
            miss(&mut p, &l2, 1, 0x10_0000 + k * 64);
        }
        // Make the next two stream blocks resident.
        l2.fill(
            Addr(0x10_0100).block(),
            grp_mem::InsertPriority::Mru,
            false,
            false,
        );
        l2.fill(
            Addr(0x10_0140).block(),
            grp_mem::InsertPriority::Mru,
            false,
            false,
        );
        let c = p.next_candidate(&l2, &mshrs, &dram, 0).unwrap();
        assert_eq!(c.block, Addr(0x10_0180).block());
    }
}
