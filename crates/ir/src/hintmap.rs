//! Per-site hint tables produced by the compiler and applied to a
//! hint-free trace by [`crate::view::HintView`].
//!
//! A [`HintMap`] is the reproduction's analogue of the hint-annotated
//! binary: for every static reference site it records the [`HintSet`]
//! (spatial/pointer/recursive/size), for index loads of indirect accesses
//! the [`IndirectSpec`] driving the explicit indirect-prefetch
//! instruction (§3.3.3), and for variable-region loops whether to emit
//! the loop-bound pseudo-instruction (§3.3.2).

use grp_cpu::{HintSet, RefId};

use crate::program::{ArrayId, LoopId};

/// Indirect-prefetch directive attached to the *index* load `b[i]` of an
/// `a[b[i]]` pattern: identifies the data array `a` and its element size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndirectSpec {
    /// The indexed data array (`a`).
    pub target: ArrayId,
    /// `sizeof(a[0])` in bytes.
    pub elem_size: u32,
}

/// Hints for every reference site and loop of one program.
#[derive(Debug, Clone, Default)]
pub struct HintMap {
    hints: Vec<HintSet>,
    indirect: Vec<Option<IndirectSpec>>,
    loop_bounds: Vec<bool>,
}

impl HintMap {
    /// A map with no hints at all (the no-compiler-support configuration:
    /// SRP and stride prefetching run hint-blind).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A map sized for `num_refs` sites and `num_loops` loops, all unhinted.
    pub fn sized(num_refs: u32, num_loops: u32) -> Self {
        Self {
            hints: vec![HintSet::none(); num_refs as usize],
            indirect: vec![None; num_refs as usize],
            loop_bounds: vec![false; num_loops as usize],
        }
    }

    fn grow_refs(&mut self, r: RefId) {
        let need = r.0 as usize + 1;
        if self.hints.len() < need {
            self.hints.resize(need, HintSet::none());
            self.indirect.resize(need, None);
        }
    }

    /// Sets the hint set for site `r`.
    pub fn set_hint(&mut self, r: RefId, h: HintSet) {
        self.grow_refs(r);
        self.hints[r.0 as usize] = h;
    }

    /// Merges `h` into site `r`'s existing hints (used by passes that
    /// each contribute one hint kind).
    pub fn add_spatial(&mut self, r: RefId) {
        let h = self.hint(r).with_spatial();
        self.set_hint(r, h);
    }

    /// Adds the `pointer` hint to site `r`.
    pub fn add_pointer(&mut self, r: RefId) {
        let h = self.hint(r).with_pointer();
        self.set_hint(r, h);
    }

    /// Adds the `recursive pointer` hint to site `r`.
    pub fn add_recursive(&mut self, r: RefId) {
        let h = self.hint(r).with_recursive();
        self.set_hint(r, h);
    }

    /// Sets the variable-region size coefficient for site `r`.
    pub fn set_size_coeff(&mut self, r: RefId, coeff: u8) {
        let h = self.hint(r).with_size_coeff(coeff);
        self.set_hint(r, h);
    }

    /// The hint set for site `r` (empty when never set).
    pub fn hint(&self, r: RefId) -> HintSet {
        self.hints
            .get(r.0 as usize)
            .copied()
            .unwrap_or_else(HintSet::none)
    }

    /// Attaches an indirect-prefetch directive to index-load site `r`.
    pub fn set_indirect(&mut self, r: RefId, spec: IndirectSpec) {
        self.grow_refs(r);
        self.indirect[r.0 as usize] = Some(spec);
    }

    /// The indirect directive for site `r`, if any.
    pub fn indirect(&self, r: RefId) -> Option<IndirectSpec> {
        self.indirect.get(r.0 as usize).copied().flatten()
    }

    /// Marks loop `l` as emitting the loop-bound pseudo-instruction.
    pub fn mark_loop_bound(&mut self, l: LoopId) {
        let need = l.0 as usize + 1;
        if self.loop_bounds.len() < need {
            self.loop_bounds.resize(need, false);
        }
        self.loop_bounds[l.0 as usize] = true;
    }

    /// True when loop `l` emits its bound at entry.
    pub fn emits_bound(&self, l: LoopId) -> bool {
        self.loop_bounds.get(l.0 as usize).copied().unwrap_or(false)
    }

    /// Iterates over `(site, hints)` pairs with any hint set — the static
    /// hint census behind Table 3.
    pub fn iter_hinted(&self) -> impl Iterator<Item = (RefId, HintSet)> + '_ {
        self.hints
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.is_empty())
            .map(|(i, h)| (RefId(i as u32), *h))
    }

    /// Iterates over `(site, directive)` pairs of the sites with an
    /// indirect directive.
    pub fn iter_indirect(&self) -> impl Iterator<Item = (RefId, IndirectSpec)> + '_ {
        self.indirect
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|s| (RefId(i as u32), s)))
    }

    /// Number of sites with an indirect directive.
    pub fn indirect_count(&self) -> usize {
        self.indirect.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_returns_no_hints() {
        let m = HintMap::empty();
        assert!(m.hint(RefId(42)).is_empty());
        assert_eq!(m.indirect(RefId(42)), None);
        assert!(!m.emits_bound(LoopId(3)));
        assert_eq!(m.iter_hinted().count(), 0);
    }

    #[test]
    fn add_hints_accumulate_per_site() {
        let mut m = HintMap::sized(4, 2);
        m.add_spatial(RefId(1));
        m.add_pointer(RefId(1));
        let h = m.hint(RefId(1));
        assert!(h.spatial() && h.pointer() && !h.recursive());
        m.add_recursive(RefId(3));
        assert!(m.hint(RefId(3)).recursive());
        assert_eq!(m.iter_hinted().count(), 2);
    }

    #[test]
    fn size_coeff_and_loop_bound() {
        let mut m = HintMap::empty();
        m.set_size_coeff(RefId(0), 3);
        m.mark_loop_bound(LoopId(0));
        assert_eq!(m.hint(RefId(0)).size_coeff(), Some(3));
        assert!(m.emits_bound(LoopId(0)));
        assert!(!m.emits_bound(LoopId(1)));
    }

    #[test]
    fn indirect_spec_round_trips() {
        let mut m = HintMap::empty();
        m.set_indirect(
            RefId(5),
            IndirectSpec {
                target: ArrayId(2),
                elem_size: 4,
            },
        );
        assert_eq!(
            m.indirect(RefId(5)),
            Some(IndirectSpec {
                target: ArrayId(2),
                elem_size: 4
            })
        );
        assert_eq!(m.indirect_count(), 1);
        assert_eq!(
            m.iter_indirect().collect::<Vec<_>>(),
            vec![(
                RefId(5),
                IndirectSpec {
                    target: ArrayId(2),
                    elem_size: 4
                }
            )]
        );
    }

    #[test]
    fn grow_on_demand_preserves_earlier_entries() {
        let mut m = HintMap::empty();
        m.add_spatial(RefId(0));
        m.add_pointer(RefId(100));
        assert!(m.hint(RefId(0)).spatial());
        assert!(m.hint(RefId(100)).pointer());
        assert!(m.hint(RefId(50)).is_empty());
    }
}
