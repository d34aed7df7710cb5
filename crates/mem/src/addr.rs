//! Strongly-typed addresses at byte, cache-block, and region granularity.
//!
//! The GRP paper uses 64-byte cache blocks and 4 KB prefetch regions
//! throughout (§3.1: "we use a base region size of 4 KB and a cache block
//! size of 64 bytes, resulting in a 64-bit vector and a 6-bit index field").
//! These constants are fixed here; cache geometry (size/ways) stays
//! configurable in [`crate::CacheConfig`].

use std::fmt;

/// log2 of the cache-block size in bytes.
pub const BLOCK_SHIFT: u32 = 6;
/// Cache-block size in bytes (64 B, as in the paper).
pub const BLOCK_BYTES: u64 = 1 << BLOCK_SHIFT;
/// log2 of the prefetch-region size in bytes.
pub const REGION_SHIFT: u32 = 12;
/// Prefetch-region size in bytes (4 KB, as in the paper).
pub const REGION_BYTES: u64 = 1 << REGION_SHIFT;
/// Number of cache blocks per prefetch region (64 → a 64-bit vector).
pub const REGION_BLOCKS: usize = (REGION_BYTES / BLOCK_BYTES) as usize;

/// A byte-granularity physical address.
///
/// The simulator uses a flat physical address space; virtual-to-physical
/// translation in the paper's engine is the identity here (the kernels run
/// in a single address space), which preserves all prefetch behaviour
/// because region alignment is identical in both spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache block containing this byte.
    #[inline]
    pub fn block(self) -> BlockAddr {
        BlockAddr(self.0 >> BLOCK_SHIFT)
    }

    /// The 4 KB prefetch region containing this byte.
    #[inline]
    pub fn region(self) -> RegionAddr {
        RegionAddr(self.0 >> REGION_SHIFT)
    }

    /// Byte offset within the containing cache block.
    #[inline]
    pub fn block_offset(self) -> u64 {
        self.0 & (BLOCK_BYTES - 1)
    }

    /// Returns the address advanced by `bytes`.
    #[inline]
    pub fn offset(self, bytes: i64) -> Addr {
        Addr(self.0.wrapping_add(bytes as u64))
    }

    /// True when the address is aligned to `align` bytes (`align` must be a
    /// power of two).
    #[inline]
    pub fn is_aligned(self, align: u64) -> bool {
        debug_assert!(align.is_power_of_two());
        self.0 & (align - 1) == 0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// A cache-block number (byte address shifted right by [`BLOCK_SHIFT`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// Byte address of the first byte of this block.
    #[inline]
    pub fn base(self) -> Addr {
        Addr(self.0 << BLOCK_SHIFT)
    }

    /// The region containing this block.
    #[inline]
    pub fn region(self) -> RegionAddr {
        RegionAddr(self.0 >> (REGION_SHIFT - BLOCK_SHIFT))
    }

    /// Index of this block within its 4 KB region (0..64).
    #[inline]
    pub fn index_in_region(self) -> usize {
        (self.0 as usize) & (REGION_BLOCKS - 1)
    }

    /// The block `n` blocks after this one.
    #[inline]
    pub fn offset(self, n: i64) -> BlockAddr {
        BlockAddr(self.0.wrapping_add(n as u64))
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk{:#x}", self.0)
    }
}

/// A 4 KB prefetch-region number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RegionAddr(pub u64);

impl RegionAddr {
    /// Byte address of the first byte of the region.
    #[inline]
    pub fn base(self) -> Addr {
        Addr(self.0 << REGION_SHIFT)
    }

    /// The `i`-th block of this region.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `i >= REGION_BLOCKS`.
    #[inline]
    pub fn block(self, i: usize) -> BlockAddr {
        debug_assert!(i < REGION_BLOCKS);
        BlockAddr((self.0 << (REGION_SHIFT - BLOCK_SHIFT)) | i as u64)
    }
}

impl fmt::Display for RegionAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rgn{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_and_region_extraction() {
        let a = Addr(0x1_2345);
        assert_eq!(a.block(), BlockAddr(0x1_2345 >> 6));
        assert_eq!(a.region(), RegionAddr(0x12));
        assert_eq!(a.block_offset(), 0x5);
    }

    #[test]
    fn region_has_64_blocks() {
        assert_eq!(REGION_BLOCKS, 64);
        let r = RegionAddr(3);
        assert_eq!(r.block(0).base(), Addr(3 * REGION_BYTES));
        assert_eq!(
            r.block(63).base(),
            Addr(3 * REGION_BYTES + 63 * BLOCK_BYTES)
        );
    }

    #[test]
    fn block_index_in_region_round_trips() {
        for i in 0..REGION_BLOCKS {
            let b = RegionAddr(7).block(i);
            assert_eq!(b.index_in_region(), i);
            assert_eq!(b.region(), RegionAddr(7));
        }
    }

    #[test]
    fn block_base_is_aligned() {
        let b = Addr(0xfeed_beef).block();
        assert!(b.base().is_aligned(BLOCK_BYTES));
        assert_eq!(b.base().block(), b);
    }

    #[test]
    fn addr_offset_wraps_like_pointer_arithmetic() {
        let a = Addr(100);
        assert_eq!(a.offset(-36), Addr(64));
        assert_eq!(a.offset(28), Addr(128));
    }

    #[test]
    fn block_offset_navigation() {
        let b = BlockAddr(10);
        assert_eq!(b.offset(1), BlockAddr(11));
        assert_eq!(b.offset(-10), BlockAddr(0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr(0x40).to_string(), "0x40");
        assert_eq!(BlockAddr(1).to_string(), "blk0x1");
        assert_eq!(RegionAddr(2).to_string(), "rgn0x2");
        assert_eq!(format!("{:x}", Addr(0xff)), "ff");
    }
}
