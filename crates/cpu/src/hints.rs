//! The compiler → hardware hint channel.
//!
//! Table 2 of the paper defines five hints attached to memory references:
//!
//! | hint              | meaning                                                        |
//! |-------------------|----------------------------------------------------------------|
//! | `spatial`         | the reference is likely to exhibit spatial locality            |
//! | `size`            | with a loop bound, how many lines to prefetch (variable region)|
//! | `indirect`        | the program indexes one array with another (`a[b[i]]`)         |
//! | `pointer`         | the referenced structure contains pointers the program follows |
//! | `recursive`       | the program recursively follows those pointers                 |
//!
//! The Alpha implementation packs these into unused FP-load opcodes; here
//! they are a [`HintSet`] carried on trace loads/stores. The `indirect`
//! hint is realized as a separate pseudo-instruction
//! ([`crate::trace::TraceEvent::IndirectPrefetch`]), matching §3.3.3
//! ("the information is encoded as a separate instruction, not a hint on
//! an existing load").

use std::fmt;

/// Sentinel coefficient meaning "use the fixed 4 KB region size"
/// (paper §4.4: "we reserve the encoding value 7 for fixed-size region
/// prefetching").
pub const COEFF_FIXED: u8 = 7;

/// A set of compiler hints attached to one static memory reference.
///
/// The size coefficient is a 3-bit exponent `x` such that `2^x` is closest
/// to the reference's byte stride per loop iteration (`b * e` in §4.4);
/// together with the runtime loop bound it determines the prefetch region
/// size under GRP/Var.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct HintSet {
    flags: u8,
    coeff: u8,
}

const SPATIAL: u8 = 1 << 0;
const POINTER: u8 = 1 << 1;
const RECURSIVE: u8 = 1 << 2;

impl Default for HintSet {
    fn default() -> Self {
        Self::none()
    }
}

impl HintSet {
    /// No hints: an unmarked reference. GRP will not prefetch on its
    /// misses; SRP (hint-blind) still will.
    pub const fn none() -> Self {
        Self {
            flags: 0,
            coeff: COEFF_FIXED,
        }
    }

    /// Returns the set with the `spatial` hint added.
    pub const fn with_spatial(mut self) -> Self {
        self.flags |= SPATIAL;
        self
    }

    /// Returns the set with the `pointer` hint added.
    pub const fn with_pointer(mut self) -> Self {
        self.flags |= POINTER;
        self
    }

    /// Returns the set with the `recursive pointer` hint added (implies
    /// pointer-style scanning with a deeper chase counter).
    pub const fn with_recursive(mut self) -> Self {
        self.flags |= RECURSIVE;
        self
    }

    /// Returns the set with a 3-bit size coefficient (`coeff < 7`).
    ///
    /// # Panics
    ///
    /// Panics if `coeff >= 7`; 7 is reserved for fixed-size prefetching.
    pub fn with_size_coeff(mut self, coeff: u8) -> Self {
        assert!(
            coeff < COEFF_FIXED,
            "coefficient 7 is reserved for fixed-size"
        );
        self.coeff = coeff;
        self
    }

    /// True when the reference carries the `spatial` hint.
    pub const fn spatial(self) -> bool {
        self.flags & SPATIAL != 0
    }

    /// True when the reference carries the `pointer` hint.
    pub const fn pointer(self) -> bool {
        self.flags & POINTER != 0
    }

    /// True when the reference carries the `recursive pointer` hint.
    pub const fn recursive(self) -> bool {
        self.flags & RECURSIVE != 0
    }

    /// The variable-region size coefficient, or `None` for fixed-size.
    pub const fn size_coeff(self) -> Option<u8> {
        if self.coeff == COEFF_FIXED {
            None
        } else {
            Some(self.coeff)
        }
    }

    /// True when no hint of any kind is present.
    pub const fn is_empty(self) -> bool {
        self.flags == 0 && self.coeff == COEFF_FIXED
    }

    /// The packed wire encoding: flag bits in the low byte, the raw size
    /// coefficient in the high byte. Inverse of [`HintSet::from_bits`].
    pub const fn to_bits(self) -> u16 {
        ((self.coeff as u16) << 8) | self.flags as u16
    }

    /// Decodes [`HintSet::to_bits`]. Returns `None` for encodings no
    /// builder sequence can produce (unknown flag bits or a coefficient
    /// above the reserved fixed-size sentinel), so corrupt packed traces
    /// surface as decode errors instead of impossible hint sets.
    pub const fn from_bits(bits: u16) -> Option<HintSet> {
        let flags = (bits & 0xff) as u8;
        let coeff = (bits >> 8) as u8;
        if flags & !(SPATIAL | POINTER | RECURSIVE) != 0 || coeff > COEFF_FIXED {
            return None;
        }
        Some(HintSet { flags, coeff })
    }

    /// The pointer-chase depth this reference seeds in the prefetch
    /// engine's 3-bit counter: 6 for `recursive`, 1 for `pointer`, else 0
    /// (§3.3.1; depth is configurable at the engine, this is the default).
    pub const fn pointer_level(self) -> u8 {
        if self.recursive() {
            6
        } else if self.pointer() {
            1
        } else {
            0
        }
    }
}

impl fmt::Debug for HintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<&str> = Vec::new();
        if self.spatial() {
            parts.push("spatial");
        }
        if self.pointer() {
            parts.push("pointer");
        }
        if self.recursive() {
            parts.push("recursive");
        }
        if parts.is_empty() {
            parts.push("none");
        }
        write!(f, "HintSet({}", parts.join("|"))?;
        if let Some(c) = self.size_coeff() {
            write!(f, ", coeff={c}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for HintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_empty() {
        let h = HintSet::default();
        assert!(h.is_empty());
        assert!(!h.spatial());
        assert!(!h.pointer());
        assert!(!h.recursive());
        assert_eq!(h.size_coeff(), None);
        assert_eq!(h.pointer_level(), 0);
    }

    #[test]
    fn builders_compose() {
        let h = HintSet::none().with_spatial().with_pointer();
        assert!(h.spatial());
        assert!(h.pointer());
        assert!(!h.recursive());
        assert_eq!(h.pointer_level(), 1);
    }

    #[test]
    fn recursive_implies_deeper_chase() {
        let h = HintSet::none().with_recursive();
        assert_eq!(h.pointer_level(), 6);
    }

    #[test]
    fn size_coeff_round_trips() {
        let h = HintSet::none().with_spatial().with_size_coeff(3);
        assert_eq!(h.size_coeff(), Some(3));
        assert!(!h.is_empty());
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn coeff_seven_rejected() {
        let _ = HintSet::none().with_size_coeff(7);
    }

    #[test]
    fn debug_format_is_informative() {
        let h = HintSet::none().with_spatial().with_size_coeff(2);
        let s = format!("{h:?}");
        assert!(s.contains("spatial"));
        assert!(s.contains("coeff=2"));
        assert_eq!(format!("{:?}", HintSet::none()), "HintSet(none)");
    }
}
