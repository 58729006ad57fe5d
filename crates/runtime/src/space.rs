//! The design space: discretized axes over every reconfigurable
//! backend setting.
//!
//! "All reconfigurable parameters in the runtime backend make up the
//! design space" (paper §3.2). The explorer walks this space with DFS;
//! the estimator trains on samples from it.

use crate::config::{SamplerKind, TrainingConfig};
use gnnav_cache::CachePolicy;
use gnnav_hwsim::Precision;
use gnnav_nn::ModelKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Discretized option lists for every configuration axis.
///
/// # Example
///
/// ```
/// use gnnav_runtime::DesignSpace;
/// use gnnav_nn::ModelKind;
///
/// let space = DesignSpace::reduced();
/// let configs = space.enumerate(ModelKind::Sage);
/// assert!(!configs.is_empty());
/// assert!(configs.len() <= space.size());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// Sampler families.
    pub samplers: Vec<SamplerKind>,
    /// Per-layer fanout vectors `k^l`.
    pub fanout_options: Vec<Vec<usize>>,
    /// Locality-bias strengths `η`.
    pub etas: Vec<f64>,
    /// Mini-batch target counts `|B^0|`.
    pub batch_sizes: Vec<usize>,
    /// Cache ratios `r`.
    pub cache_ratios: Vec<f64>,
    /// Cache policies.
    pub cache_policies: Vec<CachePolicy>,
    /// Cache-update flags.
    pub cache_updates: Vec<bool>,
    /// Pipelining flags.
    pub pipelined: Vec<bool>,
    /// Precisions.
    pub precisions: Vec<Precision>,
    /// Hidden widths.
    pub hidden_dims: Vec<usize>,
    /// Dropout probabilities.
    pub dropouts: Vec<f64>,
}

impl DesignSpace {
    /// Axis index of the cache ratios `r`.
    pub const CACHE_RATIO_AXIS: usize = 4;
    /// Axis index of the cache policies.
    pub const CACHE_POLICY_AXIS: usize = 5;
    /// Axis index of the cache-update flags.
    pub const CACHE_UPDATE_AXIS: usize = 6;
    /// The assigned-axis mask of a full assignment (see
    /// [`DesignSpace::is_dead`]).
    pub const ALL_AXES: u32 = (1 << 11) - 1;

    /// The full space used by the guideline explorer.
    pub fn standard() -> Self {
        DesignSpace {
            samplers: SamplerKind::ALL.to_vec(),
            fanout_options: vec![
                vec![5, 5],
                vec![10, 5],
                vec![10, 10],
                vec![15, 10],
                vec![25, 10],
                vec![25, 25],
                vec![10, 10, 5],
            ],
            etas: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            batch_sizes: vec![128, 256, 512, 1024],
            cache_ratios: vec![0.0, 0.05, 0.1, 0.2, 0.3, 0.5],
            cache_policies: CachePolicy::ALL.to_vec(),
            cache_updates: vec![false, true],
            pipelined: vec![false, true],
            precisions: vec![Precision::Fp32, Precision::Fp16],
            hidden_dims: vec![32, 64],
            dropouts: vec![0.0, 0.2, 0.5],
        }
    }

    /// A small space whose *valid* configurations can be exhaustively
    /// executed (used by the Fig. 6 ground-truth sweep).
    pub fn reduced() -> Self {
        DesignSpace {
            samplers: vec![SamplerKind::NodeWise],
            fanout_options: vec![vec![5, 5], vec![10, 10], vec![25, 10]],
            etas: vec![0.0, 0.5, 1.0],
            batch_sizes: vec![128, 512],
            cache_ratios: vec![0.0, 0.1, 0.3],
            cache_policies: vec![CachePolicy::None, CachePolicy::StaticDegree],
            cache_updates: vec![true],
            pipelined: vec![false, true],
            precisions: vec![Precision::Fp32],
            hidden_dims: vec![32],
            dropouts: vec![0.0],
        }
    }

    /// Number of raw axis combinations (including invalid ones that
    /// [`DesignSpace::enumerate`] filters out).
    pub fn size(&self) -> usize {
        self.samplers.len()
            * self.fanout_options.len()
            * self.etas.len()
            * self.batch_sizes.len()
            * self.cache_ratios.len()
            * self.cache_policies.len()
            * self.cache_updates.len()
            * self.pipelined.len()
            * self.precisions.len()
            * self.hidden_dims.len()
            * self.dropouts.len()
    }

    /// Number of axes (for DFS traversal).
    pub fn num_axes(&self) -> usize {
        11
    }

    /// Length of axis `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= 11`.
    pub fn axis_len(&self, axis: usize) -> usize {
        match axis {
            0 => self.samplers.len(),
            1 => self.fanout_options.len(),
            2 => self.etas.len(),
            3 => self.batch_sizes.len(),
            4 => self.cache_ratios.len(),
            5 => self.cache_policies.len(),
            6 => self.cache_updates.len(),
            7 => self.pipelined.len(),
            8 => self.precisions.len(),
            9 => self.hidden_dims.len(),
            10 => self.dropouts.len(),
            // Internal invariant, not user input: axis indices come
            // from DFS loops bounded by num_axes(), so an
            // out-of-range axis is a caller bug.
            other => panic!("axis {other} out of range (11 axes)"),
        }
    }

    /// Human-readable axis name (diagnostics and ablation tables).
    pub fn axis_name(&self, axis: usize) -> &'static str {
        match axis {
            0 => "sampler",
            1 => "fanouts",
            2 => "eta",
            3 => "batch_size",
            4 => "cache_ratio",
            5 => "cache_policy",
            6 => "cache_update",
            7 => "pipelined",
            8 => "precision",
            9 => "hidden_dim",
            10 => "dropout",
            // Internal invariant, same bound as axis_len above.
            other => panic!("axis {other} out of range (11 axes)"),
        }
    }

    /// Whether the partial assignment `indices` already breaks the
    /// cache-axis validity rule, so that no completion of it is valid.
    /// Bit `a` of `assigned` marks axis `a` as assigned; the indices of
    /// the other axes are ignored. The rule:
    ///
    /// - no-cache ⇔ ratio 0: a positive ratio with the `none` policy,
    ///   or `r = 0` with a real policy, duplicates another point;
    /// - a frozen *static* cache is the same point as update=true for
    ///   non-dynamic policies, so only update=false is kept there
    ///   (when the space offers both).
    ///
    /// [`DesignSpace::config_at`] applies the same rule at full depth.
    pub fn is_dead(&self, indices: &[usize], assigned: u32) -> bool {
        let has = |axis: usize| assigned & (1 << axis) != 0;
        if !has(Self::CACHE_POLICY_AXIS) {
            return false;
        }
        let policy = self.cache_policies[indices[Self::CACHE_POLICY_AXIS]];
        if has(Self::CACHE_RATIO_AXIS) {
            let ratio = self.cache_ratios[indices[Self::CACHE_RATIO_AXIS]];
            if (policy == CachePolicy::None) != (ratio == 0.0) {
                return true;
            }
        }
        has(Self::CACHE_UPDATE_AXIS)
            && !policy.is_dynamic()
            && self.cache_updates[indices[Self::CACHE_UPDATE_AXIS]]
            && self.cache_updates.len() > 1
    }

    /// The mixed-radix ordinal of a full assignment: its position in
    /// the lexicographic axis order of [`DesignSpace::enumerate`],
    /// invalid points included. Distinct assignments get distinct
    /// ordinals, all below [`DesignSpace::size`].
    pub fn ordinal(&self, indices: &[usize]) -> u64 {
        indices
            .iter()
            .enumerate()
            .fold(0u64, |acc, (axis, &i)| acc * self.axis_len(axis) as u64 + i as u64)
    }

    /// Builds the configuration at the given per-axis indices, or
    /// `None` when the combination is invalid (see
    /// [`DesignSpace::is_dead`]).
    ///
    /// # Panics
    ///
    /// Panics if `indices` has the wrong length or an index is out of
    /// range.
    pub fn config_at(&self, indices: &[usize], model: ModelKind) -> Option<TrainingConfig> {
        // Internal invariant: index vectors are produced by the
        // explorer's own traversal, never parsed from user input.
        assert_eq!(indices.len(), self.num_axes(), "one index per axis");
        if self.is_dead(indices, Self::ALL_AXES) {
            return None;
        }
        let config = TrainingConfig {
            sampler: self.samplers[indices[0]],
            fanouts: self.fanout_options[indices[1]].clone(),
            locality_eta: self.etas[indices[2]],
            batch_size: self.batch_sizes[indices[3]],
            cache_ratio: self.cache_ratios[indices[Self::CACHE_RATIO_AXIS]],
            cache_policy: self.cache_policies[indices[Self::CACHE_POLICY_AXIS]],
            cache_update: self.cache_updates[indices[Self::CACHE_UPDATE_AXIS]],
            pipelined: self.pipelined[indices[7]],
            precision: self.precisions[indices[8]],
            model,
            hidden_dim: self.hidden_dims[indices[9]],
            dropout: self.dropouts[indices[10]],
        };
        config.validate().ok().map(|()| config)
    }

    /// Every valid configuration, in lexicographic axis order.
    pub fn enumerate(&self, model: ModelKind) -> Vec<TrainingConfig> {
        let mut out = Vec::new();
        let mut indices = vec![0usize; self.num_axes()];
        loop {
            if let Some(c) = self.config_at(&indices, model) {
                out.push(c);
            }
            // Odometer increment.
            let mut axis = self.num_axes();
            loop {
                if axis == 0 {
                    return out;
                }
                axis -= 1;
                indices[axis] += 1;
                if indices[axis] < self.axis_len(axis) {
                    break;
                }
                indices[axis] = 0;
            }
        }
    }

    /// `count` valid configurations sampled uniformly at random
    /// (rejection sampling over the axis grid), seeded.
    pub fn sample(&self, count: usize, model: ModelKind, seed: u64) -> Vec<TrainingConfig> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(count);
        let mut guard = 0usize;
        while out.len() < count && guard < count * 1000 {
            guard += 1;
            let indices: Vec<usize> =
                (0..self.num_axes()).map(|a| rng.gen_range(0..self.axis_len(a))).collect();
            if let Some(c) = self.config_at(&indices, model) {
                out.push(c);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_space_is_large() {
        let s = DesignSpace::standard();
        assert!(s.size() > 100_000);
        assert_eq!(s.num_axes(), 11);
    }

    #[test]
    fn reduced_space_enumerates_valid_configs() {
        let s = DesignSpace::reduced();
        let configs = s.enumerate(ModelKind::Sage);
        assert!(!configs.is_empty());
        assert!(configs.len() < s.size());
        for c in &configs {
            c.validate().expect("every enumerated config validates");
        }
    }

    #[test]
    fn enumerate_has_no_duplicates() {
        let s = DesignSpace::reduced();
        let configs = s.enumerate(ModelKind::Sage);
        let mut summaries: Vec<String> = configs.iter().map(TrainingConfig::summary).collect();
        let before = summaries.len();
        summaries.sort();
        summaries.dedup();
        assert_eq!(summaries.len(), before);
    }

    #[test]
    fn config_at_rejects_inconsistent_cache_combo() {
        let s = DesignSpace::standard();
        // ratio > 0 with policy None (policy index of None = 0).
        let none_idx = s.cache_policies.iter().position(|&p| p == CachePolicy::None).expect("none");
        let ratio_idx = s.cache_ratios.iter().position(|&r| r > 0.0).expect("pos ratio");
        let mut indices = vec![0usize; 11];
        indices[4] = ratio_idx;
        indices[5] = none_idx;
        assert!(s.config_at(&indices, ModelKind::Gcn).is_none());
    }

    #[test]
    fn ordinal_counts_in_enumeration_order() {
        let s = DesignSpace::reduced();
        let mut indices = vec![0usize; s.num_axes()];
        for expected in 0..s.size() as u64 {
            assert_eq!(s.ordinal(&indices), expected);
            let mut axis = s.num_axes();
            while axis > 0 {
                axis -= 1;
                indices[axis] += 1;
                if indices[axis] < s.axis_len(axis) {
                    break;
                }
                indices[axis] = 0;
            }
        }
    }

    #[test]
    fn sample_yields_valid_unique_seeded() {
        let s = DesignSpace::standard();
        let a = s.sample(50, ModelKind::Sage, 7);
        let b = s.sample(50, ModelKind::Sage, 7);
        assert_eq!(a.len(), 50);
        assert_eq!(a, b);
        for c in &a {
            c.validate().expect("sampled configs validate");
        }
    }

    #[test]
    fn axis_names_cover_all_axes() {
        let s = DesignSpace::standard();
        for axis in 0..s.num_axes() {
            assert!(!s.axis_name(axis).is_empty());
            assert!(s.axis_len(axis) > 0);
        }
    }

    #[test]
    #[should_panic(expected = "axis 11 out of range")]
    fn axis_len_bounds_checked() {
        let _ = DesignSpace::standard().axis_len(11);
    }
}
