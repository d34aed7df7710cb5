//! Analysis configuration and the §5.4 spatial-marking policies.

/// How aggressively the compiler marks references `spatial`.
///
/// §5.4 of the paper: "The more aggressive policy marks a reference as
/// spatial even \[if\] its reuse distance is greater than the L2 cache
/// size. The more conservative scheme marks a reference as spatial only
/// when its reuse sits in the innermost loop."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpatialPolicy {
    /// Innermost-loop reuse only.
    Conservative,
    /// Innermost reuse, plus known reuse distances under the L2 size
    /// (the paper's default GRP policy).
    #[default]
    Default,
    /// Any detected spatial access pattern, regardless of distance.
    Aggressive,
}

/// Knobs for [`crate::analyze`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// L2 capacity used as the reuse-distance bound (paper: 1 MB).
    pub l2_bytes: u64,
    /// Spatial marking policy.
    pub policy: SpatialPolicy,
    /// Enable the spatial pass (§4.1/§4.2).
    pub spatial: bool,
    /// Enable the pointer/recursive pass (§4.5).
    pub pointer: bool,
    /// Enable indirect-array detection (§4.3).
    pub indirect: bool,
    /// Enable variable-size regions (§4.4). Off = GRP/Fix.
    pub varsize: bool,
    /// Largest constant pointer increment still considered "small"
    /// (spatial) for induction pointers (§4.2). One cache block.
    pub small_stride_max: u64,
    /// Largest per-iteration byte stride still considered spatial for
    /// array references (strides beyond a block defeat region prefetch).
    pub spatial_stride_max: u64,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self {
            l2_bytes: 1024 * 1024,
            policy: SpatialPolicy::Default,
            spatial: true,
            pointer: true,
            indirect: true,
            varsize: true,
            small_stride_max: 64,
            spatial_stride_max: 64,
        }
    }
}

impl AnalysisConfig {
    /// The paper's default GRP compiler configuration with variable-size
    /// regions (GRP/Var).
    pub fn grp_var() -> Self {
        Self::default()
    }

    /// GRP with fixed-size regions only (GRP/Fix): the variable-size pass
    /// is disabled.
    pub fn grp_fix() -> Self {
        Self {
            varsize: false,
            ..Self::default()
        }
    }

    /// The §5.4 aggressive policy variant.
    pub fn aggressive() -> Self {
        Self {
            policy: SpatialPolicy::Aggressive,
            ..Self::default()
        }
    }

    /// The §5.4 conservative policy variant.
    pub fn conservative() -> Self {
        Self {
            policy: SpatialPolicy::Conservative,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_platform() {
        let c = AnalysisConfig::default();
        assert_eq!(c.l2_bytes, 1 << 20);
        assert_eq!(c.policy, SpatialPolicy::Default);
        assert!(c.spatial && c.pointer && c.indirect && c.varsize);
    }

    #[test]
    fn fix_variant_disables_varsize_only() {
        let c = AnalysisConfig::grp_fix();
        assert!(!c.varsize);
        assert!(c.spatial && c.pointer && c.indirect);
    }

    #[test]
    fn policy_variants() {
        assert_eq!(
            AnalysisConfig::aggressive().policy,
            SpatialPolicy::Aggressive
        );
        assert_eq!(
            AnalysisConfig::conservative().policy,
            SpatialPolicy::Conservative
        );
        assert_eq!(SpatialPolicy::default(), SpatialPolicy::Default);
    }
}
