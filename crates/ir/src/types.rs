//! Element and structure types.
//!
//! The analyses distinguish only what the paper's do: element sizes (for
//! stride/coefficient computation, §4.4), whether a field is a pointer
//! (pointer/recursive hints, §4.5), and whether a pointer points to a
//! structure of the same type (the recursive idiom of Figure 6).

/// Identifier of a structure declaration within a [`crate::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StructId(pub u32);

/// Identifier of a field within its structure (declaration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FieldId(pub u32);

/// Scalar/element type of a memory cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemTy {
    /// 1-byte integer.
    I8,
    /// 2-byte integer.
    I16,
    /// 4-byte integer (the paper's assumed index-array element, §3.3.3).
    I32,
    /// 8-byte integer.
    I64,
    /// 4-byte float.
    F32,
    /// 8-byte float.
    F64,
    /// An 8-byte pointer. `points_to_struct` is `Some` when the static
    /// type names the pointee structure (needed by the recursive-pointer
    /// idiom test).
    Ptr {
        /// Statically-known pointee structure, if any.
        points_to_struct: Option<StructId>,
    },
}

impl ElemTy {
    /// A pointer with no statically-known structure pointee.
    pub const fn ptr() -> Self {
        ElemTy::Ptr {
            points_to_struct: None,
        }
    }

    /// A pointer to structure `s`.
    pub const fn ptr_to(s: StructId) -> Self {
        ElemTy::Ptr {
            points_to_struct: Some(s),
        }
    }

    /// Size in bytes.
    pub const fn size(self) -> u64 {
        match self {
            ElemTy::I8 => 1,
            ElemTy::I16 => 2,
            ElemTy::I32 => 4,
            ElemTy::I64 => 8,
            ElemTy::F32 => 4,
            ElemTy::F64 => 8,
            ElemTy::Ptr { .. } => 8,
        }
    }

    /// True for any pointer type.
    pub const fn is_pointer(self) -> bool {
        matches!(self, ElemTy::Ptr { .. })
    }

    /// True for floating-point types (loads produce float values).
    pub const fn is_float(self) -> bool {
        matches!(self, ElemTy::F32 | ElemTy::F64)
    }
}

/// One field of a structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name (diagnostics only).
    pub name: String,
    /// Field type.
    pub ty: ElemTy,
}

/// A structure declaration. Field offsets follow C layout rules with
/// natural alignment; the total size is padded to the widest alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDecl {
    /// Structure name (diagnostics only).
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<Field>,
}

impl StructDecl {
    /// Creates a declaration.
    pub fn new(name: impl Into<String>, fields: Vec<Field>) -> Self {
        Self {
            name: name.into(),
            fields,
        }
    }

    /// Byte offset of field `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub fn offset_of(&self, f: FieldId) -> u64 {
        let mut off = 0u64;
        for (i, field) in self.fields.iter().enumerate() {
            let sz = field.ty.size();
            off = (off + sz - 1) & !(sz - 1); // natural alignment
            if i as u32 == f.0 {
                return off;
            }
            off += sz;
        }
        panic!("field {f:?} out of range for struct {}", self.name)
    }

    /// Total size including trailing padding.
    pub fn size(&self) -> u64 {
        let mut off = 0u64;
        let mut max_align = 1u64;
        for field in &self.fields {
            let sz = field.ty.size();
            max_align = max_align.max(sz);
            off = (off + sz - 1) & !(sz - 1);
            off += sz;
        }
        (off + max_align - 1) & !(max_align - 1)
    }

    /// The type of field `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub fn field_ty(&self, f: FieldId) -> ElemTy {
        self.fields[f.0 as usize].ty
    }

    /// Looks a field up by name.
    pub fn field_by_name(&self, name: &str) -> Option<FieldId> {
        self.fields
            .iter()
            .position(|fl| fl.name == name)
            .map(|i| FieldId(i as u32))
    }

    /// True when any field is a pointer — the §4.5 precondition for the
    /// `pointer` hint ("a structure that contains one or more other
    /// pointers").
    pub fn has_pointer_field(&self) -> bool {
        self.fields.iter().any(|f| f.ty.is_pointer())
    }

    /// Fields that are pointers to this same structure type — the
    /// recursive idiom (`a = a->next`, Figure 6).
    pub fn recursive_fields(&self, self_id: StructId) -> Vec<FieldId> {
        self.fields
            .iter()
            .enumerate()
            .filter(
                |(_, f)| matches!(f.ty, ElemTy::Ptr { points_to_struct: Some(s) } if s == self_id),
            )
            .map(|(i, _)| FieldId(i as u32))
            .collect()
    }
}

/// Convenience constructor for a [`Field`].
pub fn field(name: impl Into<String>, ty: ElemTy) -> Field {
    Field {
        name: name.into(),
        ty,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elem_sizes() {
        assert_eq!(ElemTy::I8.size(), 1);
        assert_eq!(ElemTy::I16.size(), 2);
        assert_eq!(ElemTy::I32.size(), 4);
        assert_eq!(ElemTy::I64.size(), 8);
        assert_eq!(ElemTy::F32.size(), 4);
        assert_eq!(ElemTy::F64.size(), 8);
        assert_eq!(ElemTy::ptr().size(), 8);
        assert!(ElemTy::ptr().is_pointer());
        assert!(ElemTy::F64.is_float());
        assert!(!ElemTy::I64.is_float());
    }

    fn list_node() -> StructDecl {
        // struct t { int key; struct t *next; double val; }
        StructDecl::new(
            "t",
            vec![
                field("key", ElemTy::I32),
                field("next", ElemTy::ptr_to(StructId(0))),
                field("val", ElemTy::F64),
            ],
        )
    }

    #[test]
    fn struct_layout_follows_natural_alignment() {
        let s = list_node();
        assert_eq!(s.offset_of(FieldId(0)), 0);
        assert_eq!(s.offset_of(FieldId(1)), 8, "pointer aligned to 8");
        assert_eq!(s.offset_of(FieldId(2)), 16);
        assert_eq!(s.size(), 24);
    }

    #[test]
    fn struct_size_pads_to_max_alignment() {
        let s = StructDecl::new("odd", vec![field("a", ElemTy::I64), field("b", ElemTy::I8)]);
        assert_eq!(s.size(), 16);
    }

    #[test]
    fn field_lookup_and_types() {
        let s = list_node();
        assert_eq!(s.field_by_name("next"), Some(FieldId(1)));
        assert_eq!(s.field_by_name("nope"), None);
        assert!(s.field_ty(FieldId(1)).is_pointer());
        assert!(s.has_pointer_field());
    }

    #[test]
    fn recursive_fields_detect_self_pointers() {
        let s = list_node();
        assert_eq!(s.recursive_fields(StructId(0)), vec![FieldId(1)]);
        assert!(s.recursive_fields(StructId(1)).is_empty());
        let plain = StructDecl::new("p", vec![field("x", ElemTy::F64)]);
        assert!(!plain.has_pointer_field());
        assert!(plain.recursive_fields(StructId(0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn offset_of_bad_field_panics() {
        list_node().offset_of(FieldId(9));
    }
}
