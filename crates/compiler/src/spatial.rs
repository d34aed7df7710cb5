//! Spatial locality analysis (paper §4.1–§4.2, Figure 7).
//!
//! Two phases, mirroring Figure 7:
//!
//! 1. **Basic hints.** Affine array references whose spatial (fastest-
//!    varying) dimension is driven by an enclosing induction variable
//!    with a sub-block stride are marked `spatial` — immediately when the
//!    reuse sits in the innermost loop, and otherwise subject to a
//!    reuse-distance estimate against the L2 capacity (policy-dependent,
//!    §5.4). Loop induction pointers with a small constant increment mark
//!    their dereferences the same way.
//! 2. **Propagation.** Hints flow through pointer values: a reference
//!    whose base address derives from a `spatial`-marked load is itself
//!    marked `spatial` (`buf[i]` spatial ⟹ `buf[i][j]` spatial), iterated
//!    to a fixpoint.

use std::collections::HashSet;

use grp_cpu::RefId;
use grp_ir::{Expr, HintMap, MemRef, VarId};

use crate::model::{LoopKind, ProgramModel, RefSite};
use crate::policy::{AnalysisConfig, SpatialPolicy};

/// Runs the spatial pass, adding `spatial` hints to `hints`.
pub fn mark_spatial(model: &ProgramModel<'_>, cfg: &AnalysisConfig, hints: &mut HintMap) {
    // Phase 1a: affine array references.
    for site in &model.refs {
        if let Some(verdict) = array_like_spatial(model, cfg, site) {
            if verdict {
                hints.add_spatial(site.ref_id);
            }
        }
    }
    // Phase 1b: loop induction pointers.
    for site in &model.refs {
        if induction_pointer_spatial(model, cfg, site) {
            hints.add_spatial(site.ref_id);
        }
    }
    // Phase 1c: inter-nest reuse (§4.1: spatial locality "between two
    // nests"), bounded by the L2 capacity like intra-nest distances.
    if cfg.policy != SpatialPolicy::Conservative {
        mark_inter_nest(model, cfg, hints);
    }
    // Phase 2: propagate through pointer bases (Figure 7's do-while).
    propagate(model, hints);
}

/// Marks affine array references whose blocks were touched by an earlier
/// top-level nest, when the data volume between the two accesses fits
/// the L2 (§4.1's inter-nest reuse).
fn mark_inter_nest(model: &ProgramModel<'_>, cfg: &AnalysisConfig, hints: &mut HintMap) {
    // Top-level nest uid → program order and footprint.
    let top_uids: Vec<usize> = (0..model.loops.len())
        .filter(|uid| model.loops[*uid].parent.is_none())
        .collect();
    let order_of = |uid: usize| top_uids.iter().position(|u| *u == uid);
    let footprints: Vec<Option<u64>> = top_uids
        .iter()
        .map(|uid| nest_footprint(model, *uid))
        .collect();

    // Arrays accessed per nest (affine references only).
    use std::collections::HashMap;
    let mut last_access: HashMap<u32, usize> = HashMap::new(); // array → nest order
                                                               // Walk sites in RefId order, which the builder assigns in program
                                                               // pre-order — so earlier nests come first.
    for site in &model.refs {
        let MemRef::Array { array, .. } = site.mr else {
            continue;
        };
        let Some(&top) = site.loop_path.first() else {
            continue;
        };
        let Some(o) = order_of(top) else { continue };
        if let Some(&prev_o) = last_access.get(&array.0) {
            if prev_o < o && !hints.hint(site.ref_id).spatial() {
                // Volume between the two accesses ≈ footprint of every
                // nest after the producer up to and including this one.
                let volume: Option<u64> = footprints[prev_o + 1..=o]
                    .iter()
                    .try_fold(0u64, |acc, f| f.map(|v| acc.saturating_add(v)));
                let fits = match (cfg.policy, volume) {
                    (SpatialPolicy::Aggressive, _) => true,
                    (_, Some(v)) => v <= cfg.l2_bytes,
                    (_, None) => false,
                };
                // The revisit itself must walk the array affinely with a
                // real stride: a reference whose subscript only involves
                // loop-carried scalars (e.g. a hash value) looks
                // invariant to this flow-insensitive analysis and must
                // not be marked — gzip's history probes are the paper's
                // example of misses the compiler cannot cover.
                let affine_walk = model.enclosing_ivs(site).iter().any(|iv| {
                    matches!(
                        crate::model::ref_byte_stride(model, site, *iv),
                        Some(s) if s != 0
                    )
                });
                if fits && affine_walk {
                    hints.add_spatial(site.ref_id);
                }
            }
        }
        last_access.insert(array.0, o);
    }
}

/// Total data volume one execution of top-level nest `uid` touches
/// (block-granular per touch; `None` when any trip count is symbolic).
fn nest_footprint(model: &ProgramModel<'_>, top_uid: usize) -> Option<u64> {
    let mut total = 0u64;
    for site in &model.refs {
        if site.loop_path.first() != Some(&top_uid) {
            continue;
        }
        let mut fp = per_touch_bytes(model, site);
        for &uid in &site.loop_path {
            match model.loops[uid].kind {
                LoopKind::For { trip: Some(t), .. } => fp = fp.saturating_mul(t),
                _ => return None,
            }
        }
        total = total.saturating_add(fp);
    }
    Some(total)
}

/// Decides phase-1a spatial marking for `Array` and `PtrIndex` sites.
/// Returns `None` for sites the rule does not apply to.
fn array_like_spatial(
    model: &ProgramModel<'_>,
    cfg: &AnalysisConfig,
    site: &RefSite<'_>,
) -> Option<bool> {
    let ivs = model.enclosing_ivs(site);
    if ivs.is_empty() {
        return None;
    }
    if !matches!(site.mr, MemRef::Array { .. } | MemRef::PtrIndex { .. }) {
        return None;
    }

    // Find the reuse loop: the innermost enclosing `for` whose IV moves
    // the reference by a sub-block byte stride per iteration.
    let for_uids: Vec<usize> = site
        .loop_path
        .iter()
        .copied()
        .filter(|uid| matches!(model.loops[*uid].kind, LoopKind::For { .. }))
        .collect();
    let innermost_for = *for_uids.last()?;

    for &uid in for_uids.iter().rev() {
        let LoopKind::For { iv, step, .. } = model.loops[uid].kind else {
            continue;
        };
        let Some(per_unit) = crate::model::ref_byte_stride(model, site, iv) else {
            // Non-affine or value-dependent subscripts: the spatial rule
            // cannot promise locality (indirect handles a[b[i]]).
            return Some(false);
        };
        if per_unit == 0 {
            continue; // invariant in this loop; look outward
        }
        let stride_bytes = per_unit.unsigned_abs() * step.unsigned_abs();
        if stride_bytes >= cfg.spatial_stride_max {
            // A stride of a full block (or more) never revisits a block:
            // not a spatial reuse carrier. Keep looking outward.
            continue;
        }
        if uid == innermost_for {
            return Some(true);
        }
        // Outer-loop spatial reuse: policy decides.
        return Some(match cfg.policy {
            SpatialPolicy::Aggressive => true,
            SpatialPolicy::Conservative => false,
            SpatialPolicy::Default => match reuse_distance(model, uid) {
                Some(bytes) => bytes <= cfg.l2_bytes,
                None => false, // symbolic bounds: be conservative (§4.1)
            },
        });
    }
    Some(false)
}

/// Estimated bytes touched by one iteration of loop `uid` — the reuse
/// distance for block reuse carried by `uid`.
///
/// Cache pressure is block-granular: a reference striding a whole block
/// (or more) per innermost iteration occupies one line per touch, so its
/// per-touch footprint is a block, not an element.
fn reuse_distance(model: &ProgramModel<'_>, uid: usize) -> Option<u64> {
    let mut total: u64 = 0;
    for site in &model.refs {
        let Some(pos) = site.loop_path.iter().position(|u| *u == uid) else {
            continue;
        };
        let mut footprint = per_touch_bytes(model, site);
        for &inner in &site.loop_path[pos + 1..] {
            match model.loops[inner].kind {
                LoopKind::For { trip: Some(t), .. } => footprint = footprint.saturating_mul(t),
                _ => return None, // symbolic trip or while: unknown
            }
        }
        total = total.saturating_add(footprint);
    }
    Some(total)
}

/// Bytes of cache one dynamic touch of `site` occupies: the element for
/// sub-block innermost strides, a whole block otherwise.
fn per_touch_bytes(model: &ProgramModel<'_>, site: &RefSite<'_>) -> u64 {
    let elem = elem_size_of(model, site.mr);
    let innermost_for = site
        .loop_path
        .iter()
        .rev()
        .find_map(|uid| match model.loops[*uid].kind {
            LoopKind::For { iv, step, .. } => Some((iv, step)),
            LoopKind::While(_) => None,
        });
    let Some((iv, step)) = innermost_for else {
        return elem.max(grp_mem::BLOCK_BYTES);
    };
    match crate::model::ref_byte_stride(model, site, iv) {
        Some(s) if s.unsigned_abs() * step.unsigned_abs() < grp_mem::BLOCK_BYTES => elem,
        _ => grp_mem::BLOCK_BYTES,
    }
}

fn elem_size_of(model: &ProgramModel<'_>, mr: &MemRef) -> u64 {
    match mr {
        MemRef::Array { array, .. } => model.prog.array(*array).elem.size(),
        MemRef::PtrIndex { elem, .. } => elem.size(),
        MemRef::Field { strct, field, .. } => model.prog.strct(*strct).field_ty(*field).size(),
        MemRef::Deref { elem, .. } => elem.size(),
    }
}

/// Phase 1b: `*p` / `p->f` where `p` is a loop induction pointer with a
/// small constant increment (Figure 5).
fn induction_pointer_spatial(
    model: &ProgramModel<'_>,
    cfg: &AnalysisConfig,
    site: &RefSite<'_>,
) -> bool {
    let base = match site.mr {
        MemRef::Deref { base, .. } | MemRef::Field { base, .. } => base,
        _ => return false,
    };
    let Expr::Var(p) = base.as_ref() else {
        return false;
    };
    // `p` must be an induction pointer in one of the enclosing loops.
    site.loop_path.iter().any(|uid| {
        model.updates[*uid]
            .induction
            .get(p)
            .is_some_and(|step| step.unsigned_abs() <= cfg.small_stride_max)
    })
}

/// Phase 2 of Figure 7: propagate spatial marks through pointer bases,
/// including through single-assignment scalar pointers, to a fixpoint.
fn propagate(model: &ProgramModel<'_>, hints: &mut HintMap) {
    let mut tainted_vars: HashSet<VarId> = HashSet::new();
    loop {
        let mut changed = false;
        // Taint vars assigned from spatial loads or tainted vars.
        for (v, e) in &model.assigns {
            if tainted_vars.contains(v) {
                continue;
            }
            if expr_derives_spatial(e, hints, &tainted_vars) {
                tainted_vars.insert(*v);
                changed = true;
            }
        }
        // Mark pointer-based references whose base derives from a
        // spatial value.
        for site in &model.refs {
            if hints.hint(site.ref_id).spatial() {
                continue;
            }
            let base = match site.mr {
                MemRef::Field { base, .. }
                | MemRef::Deref { base, .. }
                | MemRef::PtrIndex { base, .. } => base,
                MemRef::Array { .. } => continue,
            };
            if expr_derives_spatial(base, hints, &tainted_vars) {
                hints.add_spatial(site.ref_id);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
}

fn expr_derives_spatial(e: &Expr, hints: &HintMap, tainted: &HashSet<VarId>) -> bool {
    match e {
        Expr::I64(_) | Expr::F64(_) | Expr::ArrayBase(_) => false,
        Expr::Var(v) => tainted.contains(v),
        Expr::Load(r) => hints.hint(ref_id_of(r)).spatial(),
        Expr::Un(_, a) => expr_derives_spatial(a, hints, tainted),
        Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => {
            expr_derives_spatial(a, hints, tainted) || expr_derives_spatial(b, hints, tainted)
        }
    }
}

fn ref_id_of(r: &MemRef) -> RefId {
    r.ref_id()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use grp_ir::build::*;
    use grp_ir::{ElemTy, ProgramBuilder};

    fn cfg() -> AnalysisConfig {
        AnalysisConfig::default()
    }

    #[test]
    fn unit_stride_innermost_is_spatial() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.array("a", ElemTy::F64, &[1024]);
        let i = pb.var("i");
        let s = pb.var("s");
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(1024),
            1,
            vec![assign(s, load(arr(a, vec![var(i)])))],
        )]);
        let h = analyze(&prog, &cfg());
        assert!(h.hint(RefId(0)).spatial());
    }

    #[test]
    fn large_stride_is_not_spatial() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.array("a", ElemTy::F64, &[65536]);
        let i = pb.var("i");
        let s = pb.var("s");
        // a[64*i]: stride 512 bytes — no spatial locality.
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(1024),
            1,
            vec![assign(s, load(arr(a, vec![mul(c(64), var(i))])))],
        )]);
        let h = analyze(&prog, &cfg());
        assert!(!h.hint(RefId(0)).spatial());
    }

    #[test]
    fn transpose_access_spatial_only_when_column_fits_l2() {
        // a(j, i) with inner loop j: spatial reuse is carried by the
        // outer i loop; distance = one column sweep.
        let build = |rows: u64| {
            let mut pb = ProgramBuilder::new("t");
            let a = pb.array("a", ElemTy::F64, &[rows, 64]);
            let i = pb.var("i");
            let j = pb.var("j");
            let s = pb.var("s");
            pb.finish(vec![for_(
                i,
                c(0),
                c(64),
                1,
                vec![for_(
                    j,
                    c(0),
                    c(rows as i64),
                    1,
                    vec![assign(s, load(arr(a, vec![var(j), var(i)])))],
                )],
            )])
        };
        // Small: 1024 rows × 8 B = 8 KB per column sweep < 1 MB → spatial.
        let h = analyze(&build(1024), &cfg());
        assert!(h.hint(RefId(0)).spatial());
        // Large: 1M rows × 8 B = 8 MB > 1 MB → not spatial under Default.
        let h = analyze(&build(1 << 20), &cfg());
        assert!(!h.hint(RefId(0)).spatial());
        // … but Aggressive marks it anyway (§5.4).
        let h = analyze(&build(1 << 20), &AnalysisConfig::aggressive());
        assert!(h.hint(RefId(0)).spatial());
        // … and Conservative refuses even the small one.
        let h = analyze(&build(1024), &AnalysisConfig::conservative());
        assert!(!h.hint(RefId(0)).spatial());
    }

    #[test]
    fn symbolic_outer_reuse_is_conservative() {
        // a(j, i) where the inner trip count is symbolic: Default cannot
        // bound the reuse distance, so no mark.
        let mut pb = ProgramBuilder::new("t");
        let a = pb.sym_array("a", ElemTy::F64, 2, false);
        let n = pb.var("n");
        let i = pb.var("i");
        let j = pb.var("j");
        let s = pb.var("s");
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(64),
            1,
            vec![for_(
                j,
                c(0),
                var(n),
                1,
                vec![assign(s, load(arr(a, vec![var(j), var(i)])))],
            )],
        )]);
        let h = analyze(&prog, &cfg());
        assert!(!h.hint(RefId(0)).spatial());
    }

    #[test]
    fn induction_pointer_deref_is_spatial() {
        let mut pb = ProgramBuilder::new("t");
        let p = pb.var("p");
        let e = pb.var("e");
        let s = pb.var("s");
        let prog = pb.finish(vec![while_(
            lt(var(p), var(e)),
            vec![
                assign(s, load(deref(var(p), ElemTy::F64, 0))),
                assign(p, add(var(p), c(16))),
            ],
        )]);
        let h = analyze(&prog, &cfg());
        assert!(h.hint(RefId(0)).spatial());
    }

    #[test]
    fn induction_pointer_with_large_stride_is_not_spatial() {
        let mut pb = ProgramBuilder::new("t");
        let p = pb.var("p");
        let e = pb.var("e");
        let s = pb.var("s");
        let prog = pb.finish(vec![while_(
            lt(var(p), var(e)),
            vec![
                assign(s, load(deref(var(p), ElemTy::F64, 0))),
                assign(p, add(var(p), c(4096))),
            ],
        )]);
        let h = analyze(&prog, &cfg());
        assert!(!h.hint(RefId(0)).spatial());
    }

    #[test]
    fn heap_array_rows_propagate_spatial() {
        // buf[i][j]: buf[i] is spatial (unit stride over pointers); the
        // row access buf[i][j] is spatial by unit stride in j AND by
        // propagation from buf[i].
        let mut pb = ProgramBuilder::new("t");
        let buf = pb.heap_array("buf", ElemTy::ptr(), &[128]);
        let i = pb.var("i");
        let j = pb.var("j");
        let s = pb.var("s");
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(128),
            1,
            vec![for_(
                j,
                c(0),
                c(64),
                1,
                vec![assign(
                    s,
                    load(ptr_index(load(arr(buf, vec![var(i)])), ElemTy::F64, var(j))),
                )],
            )],
        )]);
        let h = analyze(&prog, &cfg());
        // RefId(0) = buf[i] (inner-first), RefId(1) = row deref.
        assert!(h.hint(RefId(0)).spatial(), "buf[i] spatial");
        assert!(h.hint(RefId(1)).spatial(), "buf[i][j] spatial");
    }

    #[test]
    fn propagation_through_row_pointer_variable() {
        // row = buf[i]; … row[j] … — taint flows through the scalar.
        let mut pb = ProgramBuilder::new("t");
        let buf = pb.heap_array("buf", ElemTy::ptr(), &[128]);
        let i = pb.var("i");
        let j = pb.var("j");
        let row = pb.var("row");
        let s = pb.var("s");
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(128),
            1,
            vec![
                assign(row, load(arr(buf, vec![var(i)]))),
                for_(
                    j,
                    c(0),
                    c(64),
                    1,
                    vec![assign(s, load(ptr_index(var(row), ElemTy::F64, var(j))))],
                ),
            ],
        )]);
        let h = analyze(&prog, &cfg());
        assert!(h.hint(RefId(1)).spatial(), "row[j] inherits spatial");
    }

    #[test]
    fn recursive_traversal_is_not_spatial() {
        let mut pb = ProgramBuilder::new("t");
        let sid = pb.peek_struct_id();
        let node = pb.add_struct(
            "n",
            vec![
                grp_ir::types::field("next", ElemTy::ptr_to(sid)),
                grp_ir::types::field("v", ElemTy::I64),
            ],
        );
        let p = pb.var("p");
        let s = pb.var("s");
        let prog = pb.finish(vec![while_(
            ne(var(p), c(0)),
            vec![
                assign(s, load(fld(var(p), node, grp_ir::FieldId(1)))),
                assign(p, load(fld(var(p), node, grp_ir::FieldId(0)))),
            ],
        )]);
        let h = analyze(&prog, &cfg());
        assert!(!h.hint(RefId(0)).spatial());
        assert!(!h.hint(RefId(1)).spatial());
    }

    #[test]
    fn inter_nest_reuse_marks_second_nest() {
        // Nest 1 streams `a`; nest 2 revisits `a` with a block-sized
        // stride (no intra-nest spatial reuse). The combined volume fits
        // the L2, so the §4.1 inter-nest rule marks the second ref.
        let mut pb = ProgramBuilder::new("t");
        let a = pb.array("a", ElemTy::F64, &[4096]);
        let i = pb.var("i");
        let j = pb.var("j");
        let s = pb.var("s");
        let prog = pb.finish(vec![
            for_(
                i,
                c(0),
                c(4096),
                1,
                vec![assign(s, load(arr(a, vec![var(i)])))],
            ),
            for_(
                j,
                c(0),
                c(512),
                1,
                vec![assign(s, load(arr(a, vec![mul(c(8), var(j))])))],
            ),
        ]);
        let h = analyze(&prog, &cfg());
        assert!(h.hint(RefId(0)).spatial(), "first nest: unit stride");
        assert!(
            h.hint(RefId(1)).spatial(),
            "second nest: inter-nest reuse within the L2"
        );
        // Conservative never applies the inter-nest rule.
        let h = analyze(&prog, &AnalysisConfig::conservative());
        assert!(!h.hint(RefId(1)).spatial());
    }

    #[test]
    fn inter_nest_reuse_respects_the_l2_bound() {
        // An intervening nest streams 4 MB: the revisit of `a` is too far
        // away to still be cached, so Default does not mark it — but
        // Aggressive does.
        let mut pb = ProgramBuilder::new("t");
        let a = pb.array("a", ElemTy::F64, &[4096]);
        let big = pb.array("big", ElemTy::F64, &[1 << 19]);
        let i = pb.var("i");
        let k = pb.var("k");
        let j = pb.var("j");
        let s = pb.var("s");
        let prog = pb.finish(vec![
            for_(
                i,
                c(0),
                c(4096),
                1,
                vec![assign(s, load(arr(a, vec![var(i)])))],
            ),
            for_(
                k,
                c(0),
                c(1 << 19),
                1,
                vec![assign(s, load(arr(big, vec![var(k)])))],
            ),
            for_(
                j,
                c(0),
                c(512),
                1,
                vec![assign(s, load(arr(a, vec![mul(c(8), var(j))])))],
            ),
        ]);
        let h = analyze(&prog, &cfg());
        assert!(
            !h.hint(RefId(2)).spatial(),
            "4 MB intervening volume breaks reuse"
        );
        let h = analyze(&prog, &AnalysisConfig::aggressive());
        assert!(h.hint(RefId(2)).spatial(), "aggressive ignores the bound");
    }

    #[test]
    fn store_references_get_spatial_hints_too() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.array("a", ElemTy::F64, &[1024]);
        let i = pb.var("i");
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(1024),
            1,
            vec![store(arr(a, vec![var(i)]), f(1.0))],
        )]);
        let h = analyze(&prog, &cfg());
        assert!(h.hint(RefId(0)).spatial());
    }
}
