//! Golden identity of the explorer.
//!
//! A fixed matrix of explorations whose full `ExplorationResult` — the
//! evaluated candidates, front, stats, the selected guideline and every
//! audit record with its reason — must render to the same bytes as it
//! did before the DFS learned to skip dead design-space subtrees. The
//! digests below were recorded from the traversal that walked every
//! leaf, so a cut that hides a decision (or changes the visit order)
//! fails here.
//!
//! The tight memory budgets make the cache-ratio lower bound prune; the
//! sixteen restarts of each run shuffle the axis order, so the policy
//! axis lands both above and below the cache-ratio axis.

use gnnav_estimator::{GrayBoxEstimator, Profiler};
use gnnav_explorer::{Explorer, Priority, RuntimeConstraints};
use gnnav_graph::Dataset;
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend};
use gnnav_store::fnv1a64;

fn fitted() -> GrayBoxEstimator {
    let dataset = Dataset::synthetic(400, 3, 32, 8, 0x601D).expect("calibration graph");
    let profiler = Profiler::new(
        RuntimeBackend::new(Platform::default_rtx4090()),
        ExecutionOptions::timing_only(),
    )
    .with_threads(2);
    let configs = DesignSpace::standard().sample(24, ModelKind::Sage, 3);
    let db = profiler.profile(&dataset, &configs).expect("profile");
    let mut est = GrayBoxEstimator::new();
    est.fit(&db).expect("fit");
    est
}

/// `(seed, budget)` pairs, each run under every constraint set.
const RUNS: [(u64, usize); 3] = [(1, 100), (2, 400), (5, 400)];

/// Digest of `format!("{result:?}")` per (constraint set, run), in
/// loop order.
const GOLDEN: [u64; 9] = [
    0xbc1a_4b60_9de3_98ca,
    0x13aa_ca52_51d2_4863,
    0xbf6e_405e_6a9d_b0f0,
    0x91da_7ed2_ce39_b787,
    0x3dd0_e771_109a_7e79,
    0xc697_376d_6715_ea2a,
    0x5daa_db48_040d_9843,
    0x463c_033b_fa88_77ab,
    0x59a9_50f8_ceb0_f0de,
];

#[test]
fn exploration_results_match_the_recorded_digests() {
    let est = fitted();
    let dataset = Dataset::synthetic(1380, 4, 32, 8, 7).expect("dataset");
    // Γ_cache lower bound of ratio r: r · |V| · n_attr · 2 bytes.
    let cache_lb =
        |ratio: f64| ratio * dataset.num_nodes() as f64 * dataset.feat_dim() as f64 * 2.0;
    let constraint_sets = [
        RuntimeConstraints::none(),
        // Prunes r ∈ {0.3, 0.5}.
        RuntimeConstraints { max_mem_bytes: Some(cache_lb(0.2)), ..RuntimeConstraints::none() },
        // Prunes every r ≥ 0.1.
        RuntimeConstraints { max_mem_bytes: Some(cache_lb(0.06)), ..RuntimeConstraints::none() },
    ];
    let platforms =
        [Platform::default_rtx4090(), Platform::default_m90(), Platform::default_a100()];
    let mut digests = Vec::new();
    for (c, constraints) in constraint_sets.iter().enumerate() {
        for (r, &(seed, budget)) in RUNS.iter().enumerate() {
            let i = c * RUNS.len() + r;
            let result = Explorer::new(&est, budget)
                .with_seed(seed)
                .explore(
                    &dataset,
                    &platforms[i % platforms.len()],
                    ModelKind::ALL[i % ModelKind::ALL.len()],
                    Priority::ALL[i % Priority::ALL.len()],
                    constraints,
                )
                .expect("explore");
            if c > 0 {
                assert!(result.stats.pruned_subtrees > 0, "run {i} should prune");
            }
            digests.push(fnv1a64(format!("{result:?}").as_bytes()));
        }
    }
    let rendered: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
    assert_eq!(digests, GOLDEN, "digests now: [{}]", rendered.join(", "));
}
