//! Criterion benches for the explorer: DFS throughput at different
//! budgets, a serve-shaped exploration, Pareto-front extraction, and
//! the decision maker.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gnnav_estimator::{GrayBoxEstimator, Profiler};
use gnnav_explorer::{
    decide, pareto_front_indices, DfsExplorer, Explorer, Priority, RuntimeConstraints,
};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn setup() -> (Dataset, GrayBoxEstimator) {
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.05).expect("load");
    let profiler = Profiler::new(
        RuntimeBackend::new(Platform::default_rtx4090()),
        ExecutionOptions::timing_only(),
    );
    let configs = DesignSpace::standard().sample(30, ModelKind::Sage, 13);
    let db = profiler.profile(&dataset, &configs).expect("profile");
    let mut est = GrayBoxEstimator::new();
    est.fit(&db).expect("fit");
    (dataset, est)
}

fn bench_dfs_budgets(c: &mut Criterion) {
    let (dataset, est) = setup();
    let platform = Platform::default_rtx4090();
    let mut group = c.benchmark_group("dfs_exploration");
    group.sample_size(10);
    for budget in [100usize, 500, 2000] {
        group.bench_with_input(BenchmarkId::from_parameter(budget), &budget, |b, &budget| {
            let dfs = DfsExplorer::new(DesignSpace::standard(), budget, 1);
            b.iter(|| {
                dfs.run(
                    &est,
                    &dataset,
                    &platform,
                    ModelKind::Sage,
                    &RuntimeConstraints::none(),
                    &[],
                )
            });
        });
    }
    group.finish();
}

/// One exploration as the serve pool runs it: a 1380-node synthetic
/// tenant graph, the serve budgets (reduced 100, full 400), and seed 2,
/// whose first restart fixes a dead (cache ratio, cache policy) pair at
/// depth 2 — a subtree of about 10k invalid leaves that the DFS walked
/// before it learned to cut dead subtrees.
fn bench_serve_shaped(c: &mut Criterion) {
    let tenant = Dataset::synthetic(1380, 5, 32, 16, 7).expect("tenant graph");
    let calibration = Dataset::synthetic(600, 3, 32, 8, 0x5E21).expect("calibration graph");
    let platform = Platform::default_rtx4090();
    let profiler =
        Profiler::new(RuntimeBackend::new(platform.clone()), ExecutionOptions::timing_only());
    let configs = DesignSpace::standard().sample(24, ModelKind::Sage, 13);
    let db = profiler.profile(&calibration, &configs).expect("profile");
    let mut est = GrayBoxEstimator::new();
    est.fit(&db).expect("fit");
    let mut group = c.benchmark_group("serve_shaped_exploration");
    group.sample_size(20);
    for budget in [100usize, 400] {
        group.bench_with_input(BenchmarkId::from_parameter(budget), &budget, |b, &budget| {
            let explorer = Explorer::new(&est, budget).with_seed(2);
            b.iter(|| {
                explorer
                    .explore(
                        &tenant,
                        &platform,
                        ModelKind::Sage,
                        Priority::Balance,
                        &RuntimeConstraints::none(),
                    )
                    .expect("explore")
            });
        });
    }
    group.finish();
}

fn bench_pareto_and_decision(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let points: Vec<[f64; 3]> =
        (0..2000).map(|_| [rng.gen::<f64>(), rng.gen::<f64>(), -rng.gen::<f64>()]).collect();
    let mut group = c.benchmark_group("pareto");
    group.sample_size(20);
    group.bench_function("front_2000_points", |b| {
        b.iter(|| pareto_front_indices(&points));
    });

    // Decision making over real evaluated candidates.
    let (dataset, est) = setup();
    let dfs = DfsExplorer::new(DesignSpace::standard(), 500, 7);
    let (cands, _) = dfs.run(
        &est,
        &dataset,
        &Platform::default_rtx4090(),
        ModelKind::Sage,
        &RuntimeConstraints::none(),
        &[],
    );
    group.bench_function("decide_over_500_candidates", |b| {
        b.iter(|| decide(&cands, Priority::Balance));
    });
    group.finish();
}

fn bench_search_strategy_ablation(c: &mut Criterion) {
    // DFS vs evolutionary search at the same evaluation budget — the
    // search-strategy design choice DESIGN.md calls out.
    use gnnav_explorer::{EvolutionParams, EvolutionarySearch};
    let (dataset, est) = setup();
    let platform = Platform::default_rtx4090();
    let mut group = c.benchmark_group("search_strategy_ablation");
    group.sample_size(10);
    group.bench_function("dfs_600", |b| {
        let dfs = DfsExplorer::new(DesignSpace::standard(), 600, 3);
        b.iter(|| {
            dfs.run(&est, &dataset, &platform, ModelKind::Sage, &RuntimeConstraints::none(), &[])
        });
    });
    group.bench_function("evolution_600", |b| {
        let search = EvolutionarySearch::new(
            DesignSpace::standard(),
            EvolutionParams { budget: 600, ..Default::default() },
        );
        b.iter(|| {
            search.run(
                &est,
                &dataset,
                &platform,
                ModelKind::Sage,
                Priority::Balance,
                &RuntimeConstraints::none(),
                &[],
            )
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dfs_budgets,
    bench_serve_shaped,
    bench_pareto_and_decision,
    bench_search_strategy_ablation
);
criterion_main!(benches);
