//! Multi-channel DRAM with open-page row buffers.
//!
//! Models the paper's "effective 800-MHz, 4-channel Rambus memory system"
//! (§5.1) at the fidelity the prefetching study needs:
//!
//! * per-channel data-bus occupancy (a channel transfers one block at a
//!   time, so prefetches contend with demands only if issued),
//! * per-bank open rows (row hits are much cheaper than row conflicts —
//!   the reason region prefetching is cheap per block, and why the SRP
//!   queue "issues prefetches first to those DRAM banks that already have
//!   the needed page open", §3.1),
//! * idle-channel detection for the access prioritizer (§3.1: the
//!   prioritizer "forwards requests to the memory controller whenever the
//!   controller indicates that the memory channels are idle").
//!
//! Timing is expressed in CPU cycles. The model is conservative about
//! overlap: command and data occupancy of a request are merged into one
//! busy interval per channel, which slightly understates peak bandwidth
//! but preserves the contention behaviour the paper's results rest on.

use crate::addr::{BlockAddr, RegionAddr, REGION_BLOCKS};

/// DRAM timing and geometry parameters (CPU cycles at 1.6 GHz).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of independent channels (paper: 4).
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Cache blocks per row buffer (per bank). 32 × 64 B = 2 KB rows.
    pub blocks_per_row: u64,
    /// Cycles a demand pays to preempt a prefetch transfer in service.
    pub t_preempt: u64,
    /// Cycles from issue to first data when the row is already open.
    pub t_row_hit: u64,
    /// Extra cycles to precharge + activate on a row conflict.
    pub t_row_miss_extra: u64,
    /// Channel occupancy to transfer one 64 B block.
    pub t_burst: u64,
    /// Fixed controller/system overhead added to every access.
    pub t_overhead: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            channels: 4,
            banks_per_channel: 8,
            blocks_per_row: 32,
            t_preempt: 8,
            t_row_hit: 20,
            t_row_miss_extra: 40,
            t_burst: 32,
            t_overhead: 40,
        }
    }
}

/// What a DRAM access is for; used for traffic accounting and for the
/// demand/prefetch distinction in scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// A demand fetch (L2 demand miss).
    Demand,
    /// A prefetch issued by the SRP/GRP/stride engine.
    Prefetch,
    /// A dirty-block writeback (occupies the bus, returns no data).
    Writeback,
}

/// A completed access descriptor returned by [`Dram::issue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRequest {
    /// The block transferred.
    pub block: BlockAddr,
    /// Demand, prefetch, or writeback.
    pub kind: RequestKind,
    /// Cycle at which the full block is available (or written).
    pub complete_at: u64,
    /// True when the access hit an open row.
    pub row_hit: bool,
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    ready_at: u64,
}

#[derive(Debug, Clone)]
struct Channel {
    /// Wire occupancy considering every request kind.
    bus_free_at: u64,
    /// Wire occupancy considering demands only (prefetches are
    /// preemptible and do not delay demands beyond `t_preempt`).
    demand_bus_free_at: u64,
    /// Latest completion time among demand accesses.
    demand_busy_until: u64,
    banks: Vec<Bank>,
}

/// Per-kind access counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Demand block fetches.
    pub demand_blocks: u64,
    /// Prefetch block fetches.
    pub prefetch_blocks: u64,
    /// Writeback blocks.
    pub writeback_blocks: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Accesses that required an activate (row conflict or closed bank).
    pub row_misses: u64,
}

/// The DRAM subsystem: a set of channels with banked open-page state.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    channels: Vec<Channel>,
    stats: DramStats,
    /// Accumulated data-bus busy cycles per channel (observer sampling).
    busy_cycles: Vec<u64>,
    /// True when the O(1) region-scan mask path applies (see
    /// [`Dram::region_idle_masks`]).
    region_fast: bool,
    /// `group_masks[g]`: bit `i` set iff region position `i` satisfies
    /// `i & (channels - 1) == g`. Only the first `channels` slots are used.
    group_masks: [u64; 8],
}

impl Dram {
    /// Builds the DRAM from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics unless channel/bank/row counts are nonzero powers of two.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(cfg.channels.is_power_of_two());
        assert!(cfg.banks_per_channel.is_power_of_two());
        assert!(cfg.blocks_per_row.is_power_of_two());
        let channels = (0..cfg.channels)
            .map(|_| Channel {
                bus_free_at: 0,
                demand_bus_free_at: 0,
                demand_busy_until: 0,
                banks: vec![
                    Bank {
                        open_row: None,
                        ready_at: 0
                    };
                    cfg.banks_per_channel
                ],
            })
            .collect();
        // The mask-based region scan needs (a) every region position's
        // channel expressible as `(i ^ fold) & (channels - 1)` — true for
        // up to 64 channels since the XOR-fold shifts align with the
        // 6-bit region index — and (b) a whole region inside one DRAM
        // row per channel, so one open-row probe covers all 64 blocks.
        // The mask table caps the supported channel count at 8 (plenty:
        // the paper uses 4); wider geometries fall back to per-block
        // probes, which stay exact.
        let region_fast = REGION_BLOCKS == 64
            && cfg.channels <= 8
            && (cfg.channels as u64) * cfg.blocks_per_row >= REGION_BLOCKS as u64;
        let mut group_masks = [0u64; 8];
        for i in 0..REGION_BLOCKS.min(64) {
            group_masks[i & (cfg.channels - 1) & 7] |= 1u64 << i;
        }
        Self {
            cfg,
            channels,
            stats: DramStats::default(),
            busy_cycles: vec![0; cfg.channels],
            region_fast,
            group_masks,
        }
    }

    /// The configured parameters.
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// Access counters.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Channel index serving `block`. Consecutive blocks interleave
    /// across channels; higher address bits are XOR-folded in so that
    /// power-of-two strides still spread over all channels (standard
    /// controller address hashing).
    #[inline]
    pub fn channel_of(&self, block: BlockAddr) -> usize {
        let b = block.0;
        let folded = b ^ (b >> 6) ^ (b >> 12) ^ (b >> 18);
        (folded as usize) & (self.cfg.channels - 1)
    }

    #[inline]
    fn row_of(&self, block: BlockAddr) -> u64 {
        (block.0 >> self.cfg.channels.trailing_zeros()) / self.cfg.blocks_per_row
    }

    #[inline]
    fn bank_of_row(&self, row: u64) -> usize {
        (row as usize) & (self.cfg.banks_per_channel - 1)
    }

    /// True when `block`'s channel data bus is free at `now` — the
    /// prioritizer's precondition for forwarding a prefetch.
    pub fn channel_idle(&self, block: BlockAddr, now: u64) -> bool {
        self.channels[self.channel_of(block)].bus_free_at <= now
    }

    /// True when any demand access is still occupying `block`'s channel.
    pub fn channel_has_pending_demand(&self, block: BlockAddr, now: u64) -> bool {
        self.channels[self.channel_of(block)].demand_busy_until > now
    }

    /// True when the row containing `block` is open in its bank — used by
    /// the SRP queue's bank-aware prefetch ordering.
    pub fn row_is_open(&self, block: BlockAddr) -> bool {
        let ch = &self.channels[self.channel_of(block)];
        let row = self.row_of(block);
        ch.banks[self.bank_of_row(row)].open_row == Some(row)
    }

    /// Issues an access for `block` at cycle `now`, returning its
    /// completion descriptor. Requests on one channel serialize in issue
    /// order (the caller models any higher-level queueing/prioritization).
    pub fn issue(&mut self, block: BlockAddr, kind: RequestKind, now: u64) -> DramRequest {
        let ch_idx = self.channel_of(block);
        let row = self.row_of(block);
        let bank_idx = self.bank_of_row(row);
        let cfg = self.cfg;
        let ch = &mut self.channels[ch_idx];
        let bank = &mut ch.banks[bank_idx];

        // Demands preempt prefetch transfers in service: they wait only
        // for other demands (plus a small interrupt penalty when a
        // prefetch burst is on the wires). Prefetches and writebacks wait
        // for everything.
        let start = if kind == RequestKind::Demand {
            let base = now.max(ch.demand_bus_free_at);
            if ch.bus_free_at > base {
                base + cfg.t_preempt
            } else {
                base
            }
        } else {
            now.max(ch.bus_free_at).max(bank.ready_at)
        };
        let row_hit = bank.open_row == Some(row);
        let access = if row_hit {
            cfg.t_row_hit
        } else {
            cfg.t_row_hit + cfg.t_row_miss_extra
        };
        let complete_at = start + cfg.t_overhead + access + cfg.t_burst;

        bank.open_row = Some(row);
        bank.ready_at = complete_at;
        // Row hits pipeline behind the data burst (the CAS of the next
        // access overlaps this transfer); conflicts additionally hold the
        // bus for the precharge/activate window.
        let occupancy = cfg.t_burst + if row_hit { 0 } else { cfg.t_row_miss_extra };
        ch.bus_free_at = ch.bus_free_at.max(start + occupancy);
        if kind == RequestKind::Demand {
            ch.demand_bus_free_at = ch.demand_bus_free_at.max(start + occupancy);
            ch.demand_busy_until = ch.demand_busy_until.max(complete_at);
        }
        self.busy_cycles[ch_idx] += occupancy;

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

    /// Earliest cycle at which `block`'s channel could start a new access.
    pub fn channel_free_at(&self, block: BlockAddr) -> u64 {
        self.channels[self.channel_of(block)].bus_free_at
    }

    /// Earliest cycle at which channel index `ch` could start a new access.
    pub fn channel_free_at_index(&self, ch: usize) -> u64 {
        self.channels[ch].bus_free_at
    }

    /// XOR-fold constant of `region`: on the fast path, the channel of
    /// region position `i` (block `(region << 6) | i`) is
    /// `(i ^ fold) & (channels - 1)` — the region-aligned specialization
    /// of [`Dram::channel_of`]'s address hash.
    #[inline]
    pub fn region_fold(&self, region: RegionAddr) -> usize {
        let r = region.0;
        ((r ^ (r >> 6) ^ (r >> 12)) as usize) & (self.cfg.channels - 1)
    }

    /// Per-fold idle masks for scanning whole regions in O(1): in
    /// `masks[k]`, bit `i` is set iff the channel serving position `i`
    /// of a region with fold `k` is idle at `now` — so
    /// `entry.bits & masks[fold]` prunes a candidate vector to its
    /// issuable positions in one AND. `None` when the geometry doesn't
    /// support the mask path; callers must then probe per block (exact
    /// either way).
    pub fn region_idle_masks(&self, now: u64) -> Option<[u64; 8]> {
        if !self.region_fast {
            return None;
        }
        let c = self.cfg.channels;
        let mut masks = [0u64; 8];
        for (ch, state) in self.channels.iter().enumerate() {
            if state.bus_free_at <= now {
                for (k, m) in masks.iter_mut().enumerate().take(c) {
                    *m |= self.group_masks[(ch ^ k) & (c - 1)];
                }
            }
        }
        Some(masks)
    }

    /// Mask over a region's 64 block positions whose DRAM row is already
    /// open in its bank (the whole region shares one row index on the
    /// fast path, but each channel has its own bank state). `None` off
    /// the fast path.
    pub fn region_open_mask(&self, region: RegionAddr) -> Option<u64> {
        if !self.region_fast {
            return None;
        }
        let c = self.cfg.channels;
        let k = self.region_fold(region);
        let row = self.row_of(region.block(0));
        let bank = self.bank_of_row(row);
        let mut m = 0u64;
        for (ch, state) in self.channels.iter().enumerate() {
            if state.banks[bank].open_row == Some(row) {
                m |= self.group_masks[(ch ^ k) & (c - 1)];
            }
        }
        Some(m)
    }

    /// Channel-index bitmask (bit `ch` set) of the channels that the set
    /// positions of `bits` within `region` map to. `None` off the fast
    /// path.
    pub fn region_channel_set(&self, region: RegionAddr, bits: u64) -> Option<u64> {
        if !self.region_fast {
            return None;
        }
        let c = self.cfg.channels;
        let k = self.region_fold(region);
        let mut set = 0u64;
        for g in 0..c {
            if bits & self.group_masks[g] != 0 {
                set |= 1u64 << ((g ^ k) & (c - 1));
            }
        }
        Some(set)
    }

    /// Fault-injection seam: holds `channel`'s data bus busy until cycle
    /// `until`. A *stall* (`demands_too = false`) blocks only prefetches
    /// and writebacks — demands still preempt through, paying at most the
    /// usual `t_preempt` penalty. An *outage* (`demands_too = true`)
    /// blocks every request kind. The stall occupies no bank and counts
    /// no access, so the row-accounting identity is unaffected; horizons
    /// only ever move forward, preserving the demand ≤ overall invariant.
    pub fn stall_channel(&mut self, channel: usize, until: u64, demands_too: bool) {
        let ch = &mut self.channels[channel % self.cfg.channels];
        ch.bus_free_at = ch.bus_free_at.max(until);
        if demands_too {
            ch.demand_bus_free_at = ch.demand_bus_free_at.max(until);
        }
    }

    /// Accumulated data-bus busy cycles, one slot per channel — the
    /// numerator of a per-channel busy fraction over any cycle window.
    pub fn channel_busy_cycles(&self) -> &[u64] {
        &self.busy_cycles
    }

    /// Earliest cycle at which *any* channel is free — when the
    /// prioritizer should next attempt a prefetch issue.
    pub fn earliest_channel_free(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.bus_free_at)
            .min()
            .unwrap_or(0)
    }

    /// Structural invariants of the channel/bank state and counters:
    /// the demand-only bus horizon can never run past the all-kinds
    /// horizon, every access was classified as exactly one of row hit or
    /// row miss, and an open row implies its bank has been used. Returns
    /// the first violation as a message.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, ch) in self.channels.iter().enumerate() {
            if ch.demand_bus_free_at > ch.bus_free_at {
                return Err(format!(
                    "dram channel {i}: demand bus horizon {} past overall horizon {}",
                    ch.demand_bus_free_at, ch.bus_free_at
                ));
            }
            for (b, bank) in ch.banks.iter().enumerate() {
                if bank.open_row.is_some() && bank.ready_at == 0 {
                    return Err(format!(
                        "dram channel {i} bank {b}: open row with no access ever issued"
                    ));
                }
            }
        }
        let s = &self.stats;
        let total = s.demand_blocks + s.prefetch_blocks + s.writeback_blocks;
        if s.row_hits + s.row_misses != total {
            return Err(format!(
                "dram stats: row hits {} + misses {} != total accesses {}",
                s.row_hits, s.row_misses, total
            ));
        }
        if self.busy_cycles.len() != self.cfg.channels {
            return Err(format!(
                "dram: busy-cycle vector has {} slots for {} channels",
                self.busy_cycles.len(),
                self.cfg.channels
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::default())
    }

    #[test]
    fn first_access_is_a_row_miss() {
        let mut d = dram();
        let r = d.issue(BlockAddr(0), RequestKind::Demand, 0);
        assert!(!r.row_hit);
        let cfg = d.config();
        assert_eq!(
            r.complete_at,
            cfg.t_overhead + cfg.t_row_hit + cfg.t_row_miss_extra + cfg.t_burst
        );
    }

    #[test]
    fn second_access_same_row_hits() {
        let mut d = dram();
        let a = d.issue(BlockAddr(0), RequestKind::Demand, 0);
        // Block 4 maps to channel 0 (4 % 4 == 0) and the same row.
        assert_eq!(d.channel_of(BlockAddr(4)), 0);
        let b = d.issue(BlockAddr(4), RequestKind::Demand, 0);
        assert!(b.row_hit);
        assert!(b.complete_at > a.complete_at);
    }

    #[test]
    fn different_channels_do_not_serialize() {
        let mut d = dram();
        let a = d.issue(BlockAddr(0), RequestKind::Demand, 0);
        let b = d.issue(BlockAddr(1), RequestKind::Demand, 0);
        assert_eq!(a.complete_at, b.complete_at, "channels are independent");
    }

    #[test]
    fn same_channel_serializes_on_the_bus() {
        let mut d = dram();
        let a = d.issue(BlockAddr(0), RequestKind::Demand, 0);
        let b = d.issue(BlockAddr(4), RequestKind::Demand, 0);
        let cfg = d.config();
        // b starts only after a releases the bus.
        assert!(b.complete_at >= a.complete_at + cfg.t_row_hit);
    }

    #[test]
    fn channel_idle_reflects_bus_occupancy() {
        let mut d = dram();
        assert!(d.channel_idle(BlockAddr(0), 0));
        let r = d.issue(BlockAddr(0), RequestKind::Demand, 0);
        assert!(!d.channel_idle(BlockAddr(4), 0));
        assert!(d.channel_idle(BlockAddr(4), r.complete_at));
        // Other channels stay idle.
        assert!(d.channel_idle(BlockAddr(1), 0));
    }

    #[test]
    fn demand_busy_tracking_ignores_prefetches() {
        let mut d = dram();
        d.issue(BlockAddr(1), RequestKind::Prefetch, 0);
        assert!(!d.channel_has_pending_demand(BlockAddr(1), 0));
        let r = d.issue(BlockAddr(5), RequestKind::Demand, 0);
        assert!(d.channel_has_pending_demand(BlockAddr(1), r.complete_at - 1));
        assert!(!d.channel_has_pending_demand(BlockAddr(1), r.complete_at));
    }

    #[test]
    fn row_is_open_after_access() {
        let mut d = dram();
        assert!(!d.row_is_open(BlockAddr(0)));
        d.issue(BlockAddr(0), RequestKind::Demand, 0);
        assert!(d.row_is_open(BlockAddr(0)));
        assert!(d.row_is_open(BlockAddr(4)), "same row, same bank");
        // A block in a different row of the same bank is not open.
        let far = BlockAddr(4 * 32 * 8); // next row in bank 0 (row stride x banks)
        assert!(!d.row_is_open(far));
    }

    #[test]
    fn row_conflict_costs_extra() {
        let mut d = dram();
        let cfg = d.config();
        let first = d.issue(BlockAddr(0), RequestKind::Demand, 0);
        // Conflict: same channel, same bank, different row. Issue after the
        // first access fully completes so no queueing obscures the math.
        let conflict = BlockAddr(4 * 32 * 8);
        assert_eq!(d.channel_of(conflict), 0);
        let now = first.complete_at;
        let r = d.issue(conflict, RequestKind::Demand, now);
        assert!(!r.row_hit);
        assert_eq!(
            r.complete_at,
            now + cfg.t_overhead + cfg.t_row_hit + cfg.t_row_miss_extra + cfg.t_burst
        );
    }

    #[test]
    fn stats_count_by_kind() {
        let mut d = dram();
        d.issue(BlockAddr(0), RequestKind::Demand, 0);
        d.issue(BlockAddr(1), RequestKind::Prefetch, 0);
        d.issue(BlockAddr(2), RequestKind::Writeback, 0);
        let s = d.stats();
        assert_eq!(s.demand_blocks, 1);
        assert_eq!(s.prefetch_blocks, 1);
        assert_eq!(s.writeback_blocks, 1);
        assert_eq!(s.row_hits + s.row_misses, 3);
    }

    #[test]
    fn writeback_occupies_bus() {
        let mut d = dram();
        d.issue(BlockAddr(0), RequestKind::Writeback, 0);
        assert!(!d.channel_idle(BlockAddr(4), 0));
    }

    /// The mask-based region scan must agree bit-for-bit with the
    /// per-block predicates it replaces, for every position of many
    /// regions and several channel occupancy states.
    #[test]
    fn region_masks_match_per_block_probes() {
        let mut d = dram();
        // Dirty up the channel/bank state asymmetrically.
        for (i, now) in [(0u64, 0u64), (5, 10), (130, 50), (4097, 200)] {
            d.issue(BlockAddr(i), RequestKind::Demand, now);
        }
        d.issue(BlockAddr(64 * 9 + 3), RequestKind::Prefetch, 300);
        for &now in &[0u64, 100, 400, 1_000] {
            let masks = d.region_idle_masks(now).expect("default geometry is fast");
            for r in [0u64, 1, 9, 63, 64, 0x123, 0xffff, 1 << 20] {
                let region = RegionAddr(r);
                let k = d.region_fold(region);
                let open = d.region_open_mask(region).unwrap();
                let mut bits = 0u64;
                for i in 0..REGION_BLOCKS {
                    let b = region.block(i);
                    assert_eq!(
                        d.channel_of(b),
                        (i ^ k) & (d.config().channels - 1),
                        "fold formula must reproduce channel_of"
                    );
                    assert_eq!(
                        masks[k] & (1 << i) != 0,
                        d.channel_idle(b, now),
                        "idle mask bit {i} of region {r:#x} at {now}"
                    );
                    assert_eq!(
                        open & (1 << i) != 0,
                        d.row_is_open(b),
                        "open mask bit {i} of region {r:#x}"
                    );
                    if i % 3 == 0 {
                        bits |= 1 << i;
                    }
                }
                let chs = d.region_channel_set(region, bits).unwrap();
                let mut expect = 0u64;
                for i in 0..REGION_BLOCKS {
                    if bits & (1 << i) != 0 {
                        expect |= 1 << d.channel_of(region.block(i));
                    }
                }
                assert_eq!(chs, expect, "channel set of region {r:#x}");
            }
        }
    }

    #[test]
    fn wide_geometry_falls_back_to_per_block_probes() {
        let d = Dram::new(DramConfig {
            channels: 16,
            ..DramConfig::default()
        });
        assert!(d.region_idle_masks(0).is_none());
        assert!(d.region_open_mask(RegionAddr(1)).is_none());
        assert!(d.region_channel_set(RegionAddr(1), 1).is_none());
    }

    #[test]
    fn stall_blocks_prefetches_but_not_demands() {
        let mut d = dram();
        let cfg = d.config();
        d.stall_channel(0, 1_000, false);
        assert!(!d.channel_idle(BlockAddr(0), 500));
        d.check_invariants().unwrap();
        // A prefetch waits for the stall to clear…
        let p = d.issue(BlockAddr(0), RequestKind::Prefetch, 500);
        assert!(p.complete_at >= 1_000 + cfg.t_overhead);
        // …but a demand on a freshly stalled channel pays only t_preempt.
        let mut d2 = dram();
        d2.stall_channel(0, 1_000, false);
        let q = d2.issue(BlockAddr(0), RequestKind::Demand, 500);
        assert_eq!(
            q.complete_at,
            500 + cfg.t_preempt
                + cfg.t_overhead
                + cfg.t_row_hit
                + cfg.t_row_miss_extra
                + cfg.t_burst
        );
        d2.check_invariants().unwrap();
    }

    #[test]
    fn outage_blocks_demands_too() {
        let mut d = dram();
        let cfg = d.config();
        d.stall_channel(0, 2_000, true);
        let q = d.issue(BlockAddr(0), RequestKind::Demand, 500);
        assert_eq!(
            q.complete_at,
            2_000 + cfg.t_overhead + cfg.t_row_hit + cfg.t_row_miss_extra + cfg.t_burst
        );
        d.check_invariants().unwrap();
    }
}
