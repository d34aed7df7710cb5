//! Sparse functional memory.
//!
//! GRP's pointer prefetcher scans *returned data* for values that land in
//! the heap range (paper §3.2), and the indirect engine reads the index
//! array `b[i]` to compute `&a[0] + s * b[i]` (§3.3.3). Both require the
//! simulator to model memory contents, not just an address trace. This
//! module provides a paged, lazily-populated byte store over the full
//! 64-bit address space.

use crate::addr::{Addr, BlockAddr, BLOCK_BYTES};
use crate::fasthash::FastMap;

const PAGE_SHIFT: u32 = 12;

/// Size of one functional-memory page — the unit of the snapshot API
/// ([`Memory::snapshot_pages`] / [`Memory::restore_page`]).
pub const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

/// A sparse functional memory. Unwritten bytes read as zero.
#[derive(Debug, Default, Clone)]
pub struct Memory {
    pages: FastMap<u64, Box<[u8; PAGE_BYTES]>>,
}

impl Memory {
    /// Creates an empty memory; all bytes read as zero until written.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident (touched) 4 KB pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    fn page(&self, a: Addr) -> Option<&[u8; PAGE_BYTES]> {
        self.pages.get(&(a.0 >> PAGE_SHIFT)).map(|b| &**b)
    }

    fn page_mut(&mut self, a: Addr) -> &mut [u8; PAGE_BYTES] {
        self.pages
            .entry(a.0 >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_BYTES]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, a: Addr) -> u8 {
        match self.page(a) {
            Some(p) => p[(a.0 as usize) & (PAGE_BYTES - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, a: Addr, v: u8) {
        let off = (a.0 as usize) & (PAGE_BYTES - 1);
        self.page_mut(a)[off] = v;
    }

    /// Reads a little-endian value of `N` bytes. Accesses may straddle page
    /// boundaries (they never straddle them in practice for aligned data).
    fn read_le<const N: usize>(&self, a: Addr) -> [u8; N] {
        let off = (a.0 as usize) & (PAGE_BYTES - 1);
        let mut out = [0u8; N];
        if off + N <= PAGE_BYTES {
            if let Some(p) = self.page(a) {
                out.copy_from_slice(&p[off..off + N]);
            }
        } else {
            for (i, b) in out.iter_mut().enumerate() {
                *b = self.read_u8(a.offset(i as i64));
            }
        }
        out
    }

    fn write_le<const N: usize>(&mut self, a: Addr, bytes: [u8; N]) {
        let off = (a.0 as usize) & (PAGE_BYTES - 1);
        if off + N <= PAGE_BYTES {
            self.page_mut(a)[off..off + N].copy_from_slice(&bytes);
        } else {
            for (i, b) in bytes.iter().enumerate() {
                self.write_u8(a.offset(i as i64), *b);
            }
        }
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, a: Addr) -> u16 {
        u16::from_le_bytes(self.read_le(a))
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, a: Addr, v: u16) {
        self.write_le(a, v.to_le_bytes());
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, a: Addr) -> u32 {
        u32::from_le_bytes(self.read_le(a))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, a: Addr, v: u32) {
        self.write_le(a, v.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, a: Addr) -> u64 {
        u64::from_le_bytes(self.read_le(a))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, a: Addr, v: u64) {
        self.write_le(a, v.to_le_bytes());
    }

    /// Reads an `i32` (two's complement little-endian).
    pub fn read_i32(&self, a: Addr) -> i32 {
        self.read_u32(a) as i32
    }

    /// Writes an `i32`.
    pub fn write_i32(&mut self, a: Addr, v: i32) {
        self.write_u32(a, v as u32);
    }

    /// Reads an `i64`.
    pub fn read_i64(&self, a: Addr) -> i64 {
        self.read_u64(a) as i64
    }

    /// Writes an `i64`.
    pub fn write_i64(&mut self, a: Addr, v: i64) {
        self.write_u64(a, v as u64);
    }

    /// Reads an `f32`.
    pub fn read_f32(&self, a: Addr) -> f32 {
        f32::from_bits(self.read_u32(a))
    }

    /// Writes an `f32`.
    pub fn write_f32(&mut self, a: Addr, v: f32) {
        self.write_u32(a, v.to_bits());
    }

    /// Reads an `f64`.
    pub fn read_f64(&self, a: Addr) -> f64 {
        f64::from_bits(self.read_u64(a))
    }

    /// Writes an `f64`.
    pub fn write_f64(&mut self, a: Addr, v: f64) {
        self.write_u64(a, v.to_bits());
    }

    /// Returns the eight aligned 64-bit words of a cache block, exactly as
    /// the GRP pointer-scan hardware sees them ("pointers are aligned
    /// 8-byte entities; thus the engine must check only eight values out of
    /// each 64-byte cache block", §3.2).
    pub fn read_block_words(&self, b: BlockAddr) -> [u64; 8] {
        let base = b.base();
        let mut out = [0u64; 8];
        for (i, w) in out.iter_mut().enumerate() {
            *w = self.read_u64(base.offset(i as i64 * 8));
        }
        out
    }

    /// Returns the sixteen aligned 32-bit words of a cache block, as read by
    /// the indirect-array engine (index element size 4, §3.3.3).
    pub fn read_block_words_u32(&self, b: BlockAddr) -> [u32; 16] {
        let base = b.base();
        let mut out = [0u32; 16];
        for (i, w) in out.iter_mut().enumerate() {
            *w = self.read_u32(base.offset(i as i64 * 4));
        }
        out
    }

    /// Resident pages as `(page_id, bytes)` sorted by page id — a
    /// deterministic, byte-stable serialization order for persisting a
    /// memory image (the trace cache stores the post-interpretation
    /// memory this way). `page_id << 12` is the page's base address.
    pub fn snapshot_pages(&self) -> Vec<(u64, &[u8; PAGE_BYTES])> {
        let mut pages: Vec<(u64, &[u8; PAGE_BYTES])> =
            self.pages.iter().map(|(id, b)| (*id, &**b)).collect();
        pages.sort_unstable_by_key(|(id, _)| *id);
        pages
    }

    /// Installs one page wholesale at `page_id` (inverse of
    /// [`Memory::snapshot_pages`]), replacing any resident page there.
    pub fn restore_page(&mut self, page_id: u64, bytes: &[u8; PAGE_BYTES]) {
        self.pages.insert(page_id, Box::new(*bytes));
    }

    /// Fills `[a, a + len)` with zero, forcing the pages resident.
    pub fn zero_fill(&mut self, a: Addr, len: u64) {
        let mut cur = a.0;
        let end = a.0 + len;
        while cur < end {
            let page_end = (cur | (PAGE_BYTES as u64 - 1)) + 1;
            let chunk_end = page_end.min(end);
            let p = self.page_mut(Addr(cur));
            let lo = (cur as usize) & (PAGE_BYTES - 1);
            let hi = lo + (chunk_end - cur) as usize;
            p[lo..hi].fill(0);
            cur = chunk_end;
        }
    }
}

/// Block size re-exported for convenience in byte math.
pub const BLOCK: u64 = BLOCK_BYTES;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read_u64(Addr(0x4000)), 0);
        assert_eq!(m.read_u8(Addr(12345)), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn round_trip_scalars() {
        let mut m = Memory::new();
        m.write_u8(Addr(1), 0xab);
        m.write_u16(Addr(2), 0xbeef);
        m.write_u32(Addr(4), 0xdead_beef);
        m.write_u64(Addr(8), 0x0123_4567_89ab_cdef);
        m.write_i32(Addr(16), -42);
        m.write_i64(Addr(24), -1_000_000_007);
        m.write_f32(Addr(32), 3.5);
        m.write_f64(Addr(40), -2.25);
        assert_eq!(m.read_u8(Addr(1)), 0xab);
        assert_eq!(m.read_u16(Addr(2)), 0xbeef);
        assert_eq!(m.read_u32(Addr(4)), 0xdead_beef);
        assert_eq!(m.read_u64(Addr(8)), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_i32(Addr(16)), -42);
        assert_eq!(m.read_i64(Addr(24)), -1_000_000_007);
        assert_eq!(m.read_f32(Addr(32)), 3.5);
        assert_eq!(m.read_f64(Addr(40)), -2.25);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let a = Addr(PAGE_BYTES as u64 - 3);
        m.write_u64(a, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(a), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn block_words_match_u64_layout() {
        let mut m = Memory::new();
        let base = Addr(0x10_0000);
        for i in 0..8 {
            m.write_u64(base.offset(i * 8), 100 + i as u64);
        }
        let words = m.read_block_words(base.block());
        assert_eq!(words, [100, 101, 102, 103, 104, 105, 106, 107]);
    }

    #[test]
    fn block_words_u32_match_layout() {
        let mut m = Memory::new();
        let base = Addr(0x20_0000);
        for i in 0..16 {
            m.write_u32(base.offset(i * 4), i as u32 * 3);
        }
        let words = m.read_block_words_u32(base.block());
        for (i, w) in words.iter().enumerate() {
            assert_eq!(*w, i as u32 * 3);
        }
    }

    #[test]
    fn zero_fill_clears_previous_data() {
        let mut m = Memory::new();
        m.write_u64(Addr(0x8000), u64::MAX);
        m.write_u64(Addr(0x9000 - 8), u64::MAX);
        m.zero_fill(Addr(0x8000), 0x1000);
        assert_eq!(m.read_u64(Addr(0x8000)), 0);
        assert_eq!(m.read_u64(Addr(0x9000 - 8)), 0);
    }

    #[test]
    fn snapshot_round_trips_sorted_by_page_id() {
        let mut m = Memory::new();
        // Touch pages out of id order; the snapshot must come back sorted.
        m.write_u64(Addr(0x9000), 7);
        m.write_u64(Addr(0x2000), 5);
        m.write_u64(Addr(0x5ffc), 6); // straddles pages 5 and 6
        let pages = m.snapshot_pages();
        let ids: Vec<u64> = pages.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![2, 5, 6, 9], "sorted, one entry per resident page");
        let mut restored = Memory::new();
        for (id, bytes) in pages {
            restored.restore_page(id, bytes);
        }
        assert_eq!(restored.resident_pages(), m.resident_pages());
        assert_eq!(restored.read_u64(Addr(0x9000)), 7);
        assert_eq!(restored.read_u64(Addr(0x2000)), 5);
        assert_eq!(restored.read_u64(Addr(0x5ffc)), 6);
        assert_eq!(
            restored.read_u64(Addr(0x4242_0000)),
            0,
            "untouched stays zero"
        );
    }

    #[test]
    fn zero_fill_spans_pages() {
        let mut m = Memory::new();
        m.zero_fill(Addr(0x1ff8), 0x2010);
        assert!(m.resident_pages() >= 3);
    }
}
