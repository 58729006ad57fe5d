//! DFS traversal of the design space with constraint pruning.
//!
//! The paper's explorer "travels across all configurable settings with
//! the depth-first-search (DFS) algorithm", querying the performance
//! estimator at candidates and pruning subtrees whose estimated
//! performance cannot satisfy the runtime constraints.
//!
//! # Wave-parallel evaluation
//!
//! The traversal itself is estimate-independent: pruning uses only the
//! analytic cache-ratio bound, and budget/visited accounting counts
//! leaves, not predictions. [`DfsExplorer::run_audited`] exploits that
//! by expanding each restart serially into an ordered *wave* of
//! decisions, batch-evaluating the wave's candidates through
//! [`GrayBoxEstimator::predict_batch`] (which fans out across the
//! `gnnav-par` pool), and then replaying the wave serially to emit
//! journal events, audit records, and accept/reject bookkeeping in
//! exactly the serial traversal's order. Predictions are pure given
//! the context and the pool's chunking is static, so the outcome is
//! byte-identical to a serial evaluation loop at every thread count.
//!
//! # Dead-subtree cut
//!
//! About 40% of the standard space's leaves are invalid (a cache policy
//! that disagrees with the cache ratio, or a static policy with
//! `cache_update = true`), and a restart that fixes such a pair near
//! the root would otherwise walk every leaf below it. The walk checks
//! [`DesignSpace::is_dead`] on each partial assignment — the same rule
//! [`DesignSpace::config_at`] applies at full depth — and skips a dead
//! subtree without descending. The decisions recorded are exactly
//! those of the walk that visits every leaf:
//!
//! - a dead subtree holds no valid leaf, so it would record no `Eval`
//!   step and spend no budget; its leaves are absent from the visited
//!   set too, but that set only suppresses leaves that would evaluate;
//! - `Prune` steps are recorded only on reaching the cache-ratio axis,
//!   where the memory bound is checked before the dead-subtree rule; a
//!   dead subtree above that axis is cut only when no ratio trips the
//!   bound, so no prune decision can hide inside it.
//!
//! Leaves are keyed in the visited set by their mixed-radix ordinal
//! ([`DesignSpace::ordinal`]), so recording one clones no index vector.

use crate::audit::{AuditAction, AuditRecord};
use crate::pareto::{objectives, ParetoFront};
use crate::targets::RuntimeConstraints;
use gnnav_estimator::{GrayBoxEstimator, PerfEstimate, PredictionContext};
use gnnav_graph::Dataset;
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_obs::names as metric;
use gnnav_runtime::{DesignSpace, TrainingConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;

/// A candidate evaluated by the estimator during exploration.
#[derive(Debug, Clone)]
pub struct EvaluatedCandidate {
    /// The configuration.
    pub config: TrainingConfig,
    /// Its estimated performance.
    pub estimate: PerfEstimate,
}

/// Everything one audited DFS run produced.
#[derive(Debug, Clone)]
pub struct DfsOutcome {
    /// Constraint-satisfying evaluated candidates.
    pub accepted: Vec<EvaluatedCandidate>,
    /// Evaluated candidates with finite predictions that violate a
    /// constraint — the material for the nearest-feasible fallback
    /// when nothing is accepted. Non-finite predictions are counted
    /// in [`DfsStats::rejected`] but never kept here.
    pub rejected: Vec<EvaluatedCandidate>,
    /// Indices (into `accepted`) of the estimated Pareto front over
    /// `(T, Γ, −Acc)`, maintained incrementally during the run.
    pub front: Vec<usize>,
    /// Traversal statistics.
    pub stats: DfsStats,
    /// One [`AuditRecord`] per decision.
    pub audit: Vec<AuditRecord>,
}

/// Traversal statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DfsStats {
    /// Leaves evaluated by the estimator.
    pub evaluated: usize,
    /// Leaves rejected by the runtime constraints after estimation.
    pub rejected: usize,
    /// Subtrees pruned by analytic lower bounds without estimation.
    pub pruned_subtrees: usize,
}

/// The DFS engine over one [`DesignSpace`].
#[derive(Debug, Clone)]
pub struct DfsExplorer {
    space: DesignSpace,
    budget: usize,
    seed: u64,
}

impl DfsExplorer {
    /// Creates an explorer evaluating at most `budget` leaves.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    pub fn new(space: DesignSpace, budget: usize, seed: u64) -> Self {
        assert!(budget > 0, "budget must be > 0");
        DfsExplorer { space, budget, seed }
    }

    /// The design space being searched.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// Runs DFS from `seeds` (evaluated first, outside the budget) and
    /// then across the space, returning every constraint-satisfying
    /// evaluated candidate plus traversal stats.
    pub fn run(
        &self,
        estimator: &GrayBoxEstimator,
        dataset: &Dataset,
        platform: &Platform,
        model: ModelKind,
        constraints: &RuntimeConstraints,
        seeds: &[TrainingConfig],
    ) -> (Vec<EvaluatedCandidate>, DfsStats) {
        let outcome = self.run_audited(estimator, dataset, platform, model, constraints, seeds);
        (outcome.accepted, outcome.stats)
    }

    /// Like [`DfsExplorer::run`], additionally returning the rejected
    /// (but finitely predicted) candidates and one [`AuditRecord`] per
    /// decision — every evaluated candidate (accepted or rejected,
    /// with the violated constraint spelled out) and every pruned
    /// subtree. When the global journal is recording, each decision is
    /// also emitted as an instant event on the `explorer` track.
    pub fn run_audited(
        &self,
        estimator: &GrayBoxEstimator,
        dataset: &Dataset,
        platform: &Platform,
        model: ModelKind,
        constraints: &RuntimeConstraints,
        seeds: &[TrainingConfig],
    ) -> DfsOutcome {
        let mut stats = DfsStats::default();
        let mut out: Vec<EvaluatedCandidate> = Vec::new();
        let mut rejected_keep: Vec<EvaluatedCandidate> = Vec::new();
        let mut audit: Vec<AuditRecord> = Vec::new();
        let mut front = ParetoFront::new();
        let mut pctx = PredictionContext::new(dataset, platform);
        let mut wave: Vec<WaveStep> = Vec::new();

        // Wave 0 — the seeds: the templates of existing systems, so
        // guidelines never lose to the approaches the explorer knows
        // about.
        for seed_config in seeds {
            if seed_config.validate().is_ok() {
                wave.push(WaveStep::Eval { config: seed_config.clone(), seed_candidate: true });
            }
        }
        self.flush_wave(
            estimator,
            &mut pctx,
            constraints,
            &mut wave,
            &mut stats,
            &mut out,
            &mut rejected_keep,
            &mut front,
            &mut audit,
        );

        // Restarted, randomized-order DFS: a budgeted DFS from one
        // root only varies the deepest axes, so the budget is split
        // across restarts, each with a freshly shuffled axis order and
        // per-axis value orders. Every restart is a plain DFS; the
        // restarts make a bounded budget cover all axes. Each restart
        // expands into one wave, flushed at its end.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let per_restart = self.budget.div_ceil(DFS_RESTARTS).max(1);
        let ratio_prunes = self.ratio_prunes(dataset, constraints);
        let mut visited = HashSet::new();
        let mut spent = 0usize;
        while spent < self.budget {
            let mut axis_order: Vec<usize> = (0..self.space.num_axes()).collect();
            axis_order.shuffle(&mut rng);
            let orders: Vec<Vec<usize>> = (0..self.space.num_axes())
                .map(|a| {
                    let mut idx: Vec<usize> = (0..self.space.axis_len(a)).collect();
                    idx.shuffle(&mut rng);
                    idx
                })
                .collect();
            let mut walk = Walk {
                space: &self.space,
                model,
                axis_order: &axis_order,
                orders: &orders,
                ratio_prunes: &ratio_prunes,
                budget: (self.budget - spent).min(per_restart),
                evals: 0,
                assignment: vec![0usize; self.space.num_axes()],
                visited: &mut visited,
                wave: &mut wave,
            };
            walk.expand(0, 0);
            let restart_evals = walk.evals;
            self.flush_wave(
                estimator,
                &mut pctx,
                constraints,
                &mut wave,
                &mut stats,
                &mut out,
                &mut rejected_keep,
                &mut front,
                &mut audit,
            );
            if restart_evals == 0 {
                break; // space (or all unseen points) exhausted
            }
            spent += restart_evals;
        }
        DfsOutcome { accepted: out, rejected: rejected_keep, front: front.indices(), stats, audit }
    }

    /// Batch-evaluates one wave's candidates and replays its decision
    /// log serially — journal events, audit records, accept/reject
    /// bookkeeping, and the incremental Pareto front all advance in
    /// exactly the order the serial traversal recorded them.
    #[allow(clippy::too_many_arguments)]
    fn flush_wave(
        &self,
        estimator: &GrayBoxEstimator,
        pctx: &mut PredictionContext,
        constraints: &RuntimeConstraints,
        wave: &mut Vec<WaveStep>,
        stats: &mut DfsStats,
        out: &mut Vec<EvaluatedCandidate>,
        rejected_keep: &mut Vec<EvaluatedCandidate>,
        front: &mut ParetoFront,
        audit: &mut Vec<AuditRecord>,
    ) {
        if wave.is_empty() {
            return;
        }
        let configs: Vec<TrainingConfig> = wave
            .iter()
            .filter_map(|step| match step {
                WaveStep::Eval { config, .. } => Some(config.clone()),
                WaveStep::Prune { .. } => None,
            })
            .collect();
        let estimates = estimator.predict_batch(pctx, &configs);
        let metrics = gnnav_obs::global();
        let journal = metrics.journal();
        let mut next = 0usize;
        for step in wave.drain(..) {
            match step {
                WaveStep::Eval { config, seed_candidate } => {
                    let estimate = estimates[next];
                    next += 1;
                    stats.evaluated += 1;
                    // A degenerate estimator (NaN/inf prediction) must
                    // never crash or silently win the Pareto front:
                    // treat the candidate as rejected, with the defect
                    // spelled out.
                    let finite = estimate.time_s.is_finite()
                        && estimate.mem_bytes.is_finite()
                        && estimate.accuracy.is_finite();
                    let violation = if finite {
                        constraints.violation(&estimate)
                    } else {
                        if metrics.is_enabled() {
                            metrics.add(metric::EXPLORER_NONFINITE, 1);
                        }
                        Some(format!(
                            "estimator returned a non-finite prediction (time_s={}, \
                             mem_bytes={}, accuracy={})",
                            estimate.time_s, estimate.mem_bytes, estimate.accuracy
                        ))
                    };
                    let accepted = violation.is_none();
                    let reason = violation
                        .unwrap_or_else(|| "satisfies all runtime constraints".to_string());
                    if journal.is_enabled() {
                        journal.instant(
                            metric::EVENT_CANDIDATE,
                            metric::TRACK_EXPLORER,
                            None,
                            vec![
                                ("config".into(), config.summary().into()),
                                ("time_s".into(), estimate.time_s.into()),
                                ("mem_bytes".into(), estimate.mem_bytes.into()),
                                ("accuracy".into(), estimate.accuracy.into()),
                                ("accepted".into(), accepted.into()),
                                ("reason".into(), reason.as_str().into()),
                            ],
                        );
                    }
                    audit.push(AuditRecord {
                        config: config.summary(),
                        estimate: Some(estimate),
                        action: if accepted {
                            AuditAction::Accepted
                        } else {
                            AuditAction::Rejected
                        },
                        reason,
                        seed_candidate,
                    });
                    if accepted {
                        front.insert(objectives(&estimate));
                        out.push(EvaluatedCandidate { config, estimate });
                    } else {
                        stats.rejected += 1;
                        if finite {
                            rejected_keep.push(EvaluatedCandidate { config, estimate });
                        }
                    }
                }
                WaveStep::Prune { subtree, reason } => {
                    stats.pruned_subtrees += 1;
                    if journal.is_enabled() {
                        journal.instant(
                            metric::EVENT_PRUNE,
                            metric::TRACK_EXPLORER,
                            None,
                            vec![
                                ("subtree".into(), subtree.as_str().into()),
                                ("reason".into(), reason.as_str().into()),
                            ],
                        );
                    }
                    audit.push(AuditRecord {
                        config: subtree,
                        estimate: None,
                        action: AuditAction::PrunedSubtree,
                        reason,
                        seed_candidate: false,
                    });
                }
            }
        }
    }

    /// The analytic lower-bound prune decision for each cache-ratio
    /// index: once the cache-ratio axis is fixed, Γ_cache alone already
    /// lower-bounds memory (Eq. 10), so a ratio whose bound exceeds the
    /// memory budget cuts its subtree without querying the estimator.
    /// `None` where the ratio fits (or no memory budget is set).
    fn ratio_prunes(
        &self,
        dataset: &Dataset,
        constraints: &RuntimeConstraints,
    ) -> Vec<Option<(String, String)>> {
        let axis_name = self.space.axis_name(DesignSpace::CACHE_RATIO_AXIS);
        let min_row_bytes = dataset.feat_dim() as f64 * 2.0; // FP16 floor
        self.space
            .cache_ratios
            .iter()
            .map(|&ratio| {
                let max_mem = constraints.max_mem_bytes?;
                let cache_lb = ratio * dataset.num_nodes() as f64 * min_row_bytes;
                (cache_lb > max_mem).then(|| {
                    let subtree = format!("subtree {axis_name}={ratio}");
                    let reason = format!(
                        "cache memory lower bound {:.2} MB > max {:.2} MB",
                        cache_lb / 1e6,
                        max_mem / 1e6
                    );
                    (subtree, reason)
                })
            })
            .collect()
    }
}

/// The serial frontier expansion of one restart: a plain DFS that
/// records every decision — leaf to evaluate, subtree to prune — into
/// `wave` without touching the estimator. Traversal order, pruning,
/// visited-set, and budget accounting are identical to evaluating
/// inline (none of them depend on estimates).
struct Walk<'a> {
    space: &'a DesignSpace,
    model: ModelKind,
    /// Axis assigned at each depth.
    axis_order: &'a [usize],
    /// Value order per axis.
    orders: &'a [Vec<usize>],
    /// Prune decision per cache-ratio index (`(subtree, reason)`).
    ratio_prunes: &'a [Option<(String, String)>],
    /// Leaves this restart may still evaluate, and those it has.
    budget: usize,
    evals: usize,
    /// Per-axis value indices; only the axes in the current path's
    /// assigned mask are meaningful.
    assignment: Vec<usize>,
    /// Ordinals of the leaves reached by every restart so far.
    visited: &'a mut HashSet<u64>,
    wave: &'a mut Vec<WaveStep>,
}

impl Walk<'_> {
    /// Expands the node at `depth`, whose axes `axis_order[..depth]`
    /// are the ones set in `assigned`.
    fn expand(&mut self, depth: usize, assigned: u32) {
        if self.evals >= self.budget {
            return;
        }
        if depth == self.space.num_axes() {
            if !self.visited.insert(self.space.ordinal(&self.assignment)) {
                return; // already evaluated in a previous restart
            }
            if let Some(config) = self.space.config_at(&self.assignment, self.model) {
                self.wave.push(WaveStep::Eval { config, seed_candidate: false });
                self.evals += 1;
            }
            return;
        }
        let axis = self.axis_order[depth];
        let assigned = assigned | 1 << axis;
        // A dead subtree holds no valid leaf, but until the cache-ratio
        // axis is fixed it may still hold prune decisions, which the
        // audit records; cut it only when it holds none.
        let may_cut = assigned & (1 << DesignSpace::CACHE_RATIO_AXIS) != 0
            || self.ratio_prunes.iter().all(Option::is_none);
        let orders = self.orders;
        for &value in &orders[axis] {
            self.assignment[axis] = value;
            if axis == DesignSpace::CACHE_RATIO_AXIS {
                if let Some((subtree, reason)) = &self.ratio_prunes[value] {
                    self.wave
                        .push(WaveStep::Prune { subtree: subtree.clone(), reason: reason.clone() });
                    continue;
                }
            }
            if may_cut && self.space.is_dead(&self.assignment, assigned) {
                continue;
            }
            self.expand(depth + 1, assigned);
            if self.evals >= self.budget {
                return;
            }
        }
    }
}

/// One decision recorded during serial wave expansion and replayed in
/// the same order after the wave's candidates are batch-evaluated.
#[derive(Debug, Clone)]
enum WaveStep {
    /// A leaf (or seed) to evaluate.
    Eval {
        /// The candidate configuration.
        config: TrainingConfig,
        /// Whether it came from the template seeds.
        seed_candidate: bool,
    },
    /// A subtree cut by the analytic bound.
    Prune {
        /// Human-readable subtree description.
        subtree: String,
        /// Why it was cut.
        reason: String,
    },
}

/// Number of DFS restarts a budget is split across.
const DFS_RESTARTS: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;
    use gnnav_estimator::{ProfileDb, Profiler};
    use gnnav_graph::DatasetId;
    use gnnav_runtime::{ExecutionOptions, RuntimeBackend, Template};

    fn fitted(dataset: &Dataset) -> GrayBoxEstimator {
        let profiler = Profiler::new(
            RuntimeBackend::new(Platform::default_rtx4090()),
            ExecutionOptions::timing_only(),
        )
        .with_threads(4);
        let cfgs = DesignSpace::standard().sample(25, ModelKind::Sage, 5);
        let db: ProfileDb = profiler.profile(dataset, &cfgs).expect("profile");
        let mut est = GrayBoxEstimator::new();
        est.fit(&db).expect("fit");
        est
    }

    #[test]
    fn dfs_respects_budget_and_returns_candidates() {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        let est = fitted(&dataset);
        let explorer = DfsExplorer::new(DesignSpace::standard(), 200, 1);
        let (cands, stats) = explorer.run(
            &est,
            &dataset,
            &Platform::default_rtx4090(),
            ModelKind::Sage,
            &RuntimeConstraints::none(),
            &[],
        );
        assert!(stats.evaluated <= 200);
        assert!(!cands.is_empty());
        assert_eq!(stats.rejected, 0, "no constraints, nothing rejected");
    }

    #[test]
    fn seeds_always_evaluated() {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        let est = fitted(&dataset);
        let explorer = DfsExplorer::new(DesignSpace::standard(), 10, 2);
        let seeds: Vec<_> = Template::ALL.iter().map(|t| t.config(ModelKind::Sage)).collect();
        let (cands, _) = explorer.run(
            &est,
            &dataset,
            &Platform::default_rtx4090(),
            ModelKind::Sage,
            &RuntimeConstraints::none(),
            &seeds,
        );
        for s in &seeds {
            assert!(
                cands.iter().any(|c| c.config == *s),
                "seed {} missing from results",
                s.summary()
            );
        }
    }

    #[test]
    fn memory_constraint_prunes_subtrees() {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        let est = fitted(&dataset);
        let explorer = DfsExplorer::new(DesignSpace::standard(), 300, 3);
        // Budget below the largest cache alone.
        let constraints = RuntimeConstraints {
            max_mem_bytes: Some(0.2 * dataset.num_nodes() as f64 * dataset.feat_dim() as f64 * 2.0),
            ..RuntimeConstraints::none()
        };
        let (cands, stats) = explorer.run(
            &est,
            &dataset,
            &Platform::default_rtx4090(),
            ModelKind::Sage,
            &constraints,
            &[],
        );
        assert!(stats.pruned_subtrees > 0, "large-cache subtrees should be pruned");
        for c in &cands {
            assert!(c.config.cache_ratio <= 0.2 + 1e-9);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        let est = fitted(&dataset);
        let explorer = DfsExplorer::new(DesignSpace::standard(), 50, 9);
        let run = || {
            explorer
                .run(
                    &est,
                    &dataset,
                    &Platform::default_rtx4090(),
                    ModelKind::Sage,
                    &RuntimeConstraints::none(),
                    &[],
                )
                .0
                .iter()
                .map(|c| c.config.summary())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "budget must be > 0")]
    fn zero_budget_rejected() {
        let _ = DfsExplorer::new(DesignSpace::standard(), 0, 1);
    }

    #[test]
    fn audit_covers_every_decision_with_a_reason() {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        let est = fitted(&dataset);
        let explorer = DfsExplorer::new(DesignSpace::standard(), 150, 7);
        // Tight memory budget: forces both pruned subtrees and
        // post-estimation rejections into the trail.
        let constraints = RuntimeConstraints {
            max_mem_bytes: Some(0.2 * dataset.num_nodes() as f64 * dataset.feat_dim() as f64 * 2.0),
            ..RuntimeConstraints::none()
        };
        let seeds = vec![gnnav_runtime::Template::Pyg.config(ModelKind::Sage)];
        let outcome = explorer.run_audited(
            &est,
            &dataset,
            &Platform::default_rtx4090(),
            ModelKind::Sage,
            &constraints,
            &seeds,
        );
        let DfsOutcome { accepted: cands, rejected: kept_rejected, front, stats, audit } = outcome;
        use crate::audit::AuditAction;
        // The incremental front matches the batch recompute over the
        // accepted candidates.
        let points: Vec<[f64; 3]> = cands.iter().map(|c| objectives(&c.estimate)).collect();
        assert_eq!(front, crate::pareto::pareto_front_indices(&points));
        // Every rejection in this test is a finite constraint
        // violation, so all of them are kept as fallback material.
        assert_eq!(kept_rejected.len(), stats.rejected);
        let accepted = audit.iter().filter(|r| r.action == AuditAction::Accepted).count();
        let rejected = audit.iter().filter(|r| r.action == AuditAction::Rejected).count();
        let pruned = audit.iter().filter(|r| r.action == AuditAction::PrunedSubtree).count();
        assert_eq!(accepted + rejected, stats.evaluated, "one record per evaluation");
        assert_eq!(accepted, cands.len());
        assert_eq!(rejected, stats.rejected);
        assert_eq!(pruned, stats.pruned_subtrees);
        assert!(pruned > 0, "tight budget should prune");
        for r in &audit {
            assert!(!r.reason.is_empty(), "decision without a reason: {r:?}");
            match r.action {
                AuditAction::PrunedSubtree => {
                    assert!(r.estimate.is_none());
                    assert!(r.reason.contains("lower bound"), "{}", r.reason);
                }
                AuditAction::Rejected => {
                    assert!(r.estimate.is_some());
                    assert!(r.reason.contains("peak memory"), "{}", r.reason);
                }
                _ => assert!(r.estimate.is_some()),
            }
        }
        // The seed template is flagged as such.
        assert!(audit.first().is_some_and(|r| r.seed_candidate));
        assert!(audit.iter().skip(1).filter(|r| r.seed_candidate).count() == 0);
    }
}
