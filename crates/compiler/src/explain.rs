//! Human-readable hint diagnostics: for each reference site, the
//! syntactic shape, the per-loop byte strides the analyses saw, and the
//! hints that resulted. Used by `grp-bench`'s `trace --section hints`
//! to audit why the compiler did (or did not) mark a reference.

use grp_cpu::RefId;
use grp_ir::{HintMap, MemRef, Program};

use crate::model::{ref_byte_stride, LoopKind, ProgramModel};

/// One line of diagnostics per reference site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefExplanation {
    /// The site.
    pub ref_id: RefId,
    /// Syntactic kind ("array a", "ptr-index", "field s.f", "deref").
    pub shape: String,
    /// `(loop depth, iv name, byte stride)` per enclosing `for` loop;
    /// `None` stride = non-affine w.r.t. that IV.
    pub strides: Vec<(usize, String, Option<i64>)>,
    /// Load vs store.
    pub is_store: bool,
    /// The final hints.
    pub hints: String,
}

impl RefExplanation {
    /// Renders as one diagnostic line.
    pub fn line(&self) -> String {
        let strides: Vec<String> = self
            .strides
            .iter()
            .map(|(d, iv, s)| match s {
                Some(v) => format!("{}{}:{}B", "  ".repeat(*d).trim(), iv, v),
                None => format!("{}:non-affine", iv),
            })
            .collect();
        format!(
            "{:>4} {:<5} {:<24} strides[{}] → {}",
            self.ref_id.0,
            if self.is_store { "store" } else { "load" },
            self.shape,
            strides.join(", "),
            self.hints
        )
    }
}

/// Explains every reference site of `prog` against a computed hint map.
pub fn explain(prog: &Program, hints: &HintMap) -> Vec<RefExplanation> {
    let model = ProgramModel::build(prog);
    let mut out = Vec::new();
    for site in &model.refs {
        let shape = match site.mr {
            MemRef::Array { array, indices, .. } => {
                format!("array {}[{}d]", prog.array(*array).name, indices.len())
            }
            MemRef::PtrIndex { elem, .. } => format!("ptr-index ({:?})", elem),
            MemRef::Field { strct, field, .. } => format!(
                "field {}.{}",
                prog.strct(*strct).name,
                prog.strct(*strct).fields[field.0 as usize].name
            ),
            MemRef::Deref { elem, offset, .. } => format!("deref+{offset} ({elem:?})"),
        };
        let mut strides = Vec::new();
        for (depth, uid) in site.loop_path.iter().enumerate() {
            if let LoopKind::For { iv, step, .. } = model.loops[*uid].kind {
                let s = ref_byte_stride(&model, site, iv).map(|v| v * step);
                strides.push((depth, prog.var_names[iv.0 as usize].clone(), s));
            }
        }
        out.push(RefExplanation {
            ref_id: site.ref_id,
            shape,
            strides,
            is_store: site.is_store,
            hints: format!("{}", hints.hint(site.ref_id)),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalysisConfig};
    use grp_ir::build::*;
    use grp_ir::{ElemTy, ProgramBuilder};

    #[test]
    fn explanations_cover_every_site_with_strides() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.array("a", ElemTy::F64, &[64, 64]);
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
                c(64),
                1,
                vec![assign(s, load(arr(a, vec![var(i), var(j)])))],
            )],
        )]);
        let hints = analyze(&prog, &AnalysisConfig::default());
        let ex = explain(&prog, &hints);
        assert_eq!(ex.len(), 1);
        let e = &ex[0];
        assert!(e.shape.contains("array a"));
        assert!(!e.is_store);
        // Strides: i moves a row (512 B), j one element (8 B).
        assert_eq!(e.strides.len(), 2);
        assert_eq!(e.strides[0].2, Some(512));
        assert_eq!(e.strides[1].2, Some(8));
        assert!(e.hints.contains("spatial"));
        assert!(e.line().contains("spatial"));
    }

    #[test]
    fn non_affine_sites_are_flagged() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.array("a", ElemTy::I64, &[4096]);
        let i = pb.var("i");
        let s = pb.var("s");
        let prog = pb.finish(vec![for_(
            i,
            c(0),
            c(64),
            1,
            vec![assign(
                s,
                load(arr(a, vec![and_(mul(var(i), var(i)), c(4095))])),
            )],
        )]);
        let hints = analyze(&prog, &AnalysisConfig::default());
        let ex = explain(&prog, &hints);
        assert_eq!(ex[0].strides[0].2, None, "i*i is non-affine");
        assert!(ex[0].line().contains("non-affine"));
    }
}
