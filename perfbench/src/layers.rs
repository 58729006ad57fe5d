//! The metric catalogue and the per-layer readings of one traced
//! iteration.
//!
//! A traced iteration resets the `gnnav_obs` registry, runs, and is
//! read back here from three sources: the series the program already
//! emits (**obs**), deltas of the public process-wide stats functions
//! (**delta**: `gnnav_nn::kernel_stats`, `gnnav_par::stats`, alloc
//! stats), and the benchmark's own spans (**span**, filled in by the
//! workloads). Counts are per iteration: one navigation, or one pass
//! of the serving traffic.

use std::collections::BTreeMap;

use gnnavigator::obs::{alloc, names as metric, HistogramSummary, Snapshot};

use crate::stats::Ratio;

/// End-to-end metrics: `(name, unit)`. Every workload prints all of
/// them with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("navigate_p50_s", "s"),
    ("guideline_p50_s", "s"),
    ("guidelines_per_s", "1/s"),
    ("guideline_speedup", "x"),
    ("guideline_mem_ratio", "ratio"),
    ("guideline_acc_ratio", "ratio"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. Every workload prints all of
/// them with `--trace 1`; a layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("core.prepare_s", "s"),
    ("core.explore_s", "s"),
    ("core.apply_s", "s"),
    ("core.baseline_s", "s"),
    ("store.open_s", "s"),
    ("store.wal.appends", "count"),
    ("store.wal.replayed", "count"),
    ("graph.load_s", "s"),
    ("estimator.profile_s", "s"),
    ("estimator.profile.configs", "count"),
    ("estimator.profile.config_p50_s", "s"),
    ("estimator.fit_s", "s"),
    ("estimator.fits", "count"),
    ("estimator.predictions", "count"),
    ("estimator.memoized_ratio", "ratio"),
    ("estimator.mape.time", "ratio"),
    ("estimator.mape.memory", "ratio"),
    ("estimator.mape.accuracy", "ratio"),
    ("runtime.execute_s", "s"),
    ("runtime.epoch_p50_s", "s"),
    ("runtime.runs", "count"),
    ("runtime.batches", "count"),
    ("cache.hit_ratio", "ratio"),
    ("hwsim.epoch_sim_s", "sim_s"),
    ("nn.matmul.calls", "count"),
    ("nn.matmul.flops", "flop"),
    ("nn.gflops_per_runtime_s", "GFLOP/s"),
    ("par.regions", "count"),
    ("par.tasks", "count"),
    ("explorer.explore_s", "s"),
    ("explorer.explore_p50_s", "s"),
    ("explorer.candidates", "count"),
    ("explorer.us_per_candidate", "us"),
    ("explorer.cache.hit_ratio", "ratio"),
    ("serve.submit_s", "s"),
    ("serve.drain_p50_s", "s"),
    ("serve.latency_p99_s", "s"),
    ("serve.explorations", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.neighbor_served", "count"),
    ("serve.degraded_ratio", "ratio"),
    ("serve.pool.misses", "count"),
    ("serve.parallel_efficiency", "ratio"),
    ("alloc.allocs", "count"),
    ("alloc.per_candidate", "count"),
    ("obs.overhead_ratio", "ratio"),
    ("bench.uncovered_s", "s"),
];

/// Per-layer metrics measured once per run rather than per traced
/// iteration.
pub const RUN_LEVEL: [&str; 3] = ["graph.load_s", "obs.overhead_ratio", "bench.uncovered_s"];

/// Counters that must read 0 on every traced iteration: the fault,
/// retry, degradation, NaN-skip, fallback and non-finite series that
/// the perf baseline pins to zero on clean runs.
pub const PINNED_ZERO: [&str; 9] = [
    metric::FAULTS_INJECTED,
    metric::BACKEND_RETRIES,
    metric::BACKEND_DEGRADATIONS,
    metric::BACKEND_NAN_SKIPS,
    metric::PROFILER_RETRIES,
    metric::PROFILER_QUARANTINED,
    metric::PROFILER_TIMEOUTS,
    metric::EXPLORER_FALLBACKS,
    metric::EXPLORER_NONFINITE,
];

/// Process-wide stats at the start of a traced iteration.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    kernels: gnnavigator::nn::KernelStats,
    par: gnnavigator::par::Stats,
    alloc: alloc::AllocStats,
}

impl Window {
    /// Resets the registry and samples the stats functions.
    pub fn open() -> Window {
        gnnavigator::obs::global().reset();
        Window {
            kernels: gnnavigator::nn::kernel_stats(),
            par: gnnavigator::par::stats(),
            alloc: alloc::stats(),
        }
    }

    /// Reads the iteration's obs series and stats deltas into
    /// per-layer values, plus the ratios with their bases.
    pub fn close(&self) -> Readings {
        let snap = gnnavigator::obs::global().snapshot();
        let kernels = gnnavigator::nn::kernel_stats();
        let par = gnnavigator::par::stats();
        let allocs = alloc::stats().delta_since(&self.alloc).allocs as f64;
        let mut r = Readings::default();
        // Span-derived metrics of layers this workload never enters
        // read 0; the run-level ones are filled in after the last iteration.
        for (name, _) in PER_LAYER {
            if !RUN_LEVEL.contains(&name) {
                r.values.insert(name, 0.0);
            }
        }
        let c = |n: &str| snap.counters.get(n).copied().unwrap_or(0) as f64;
        let g = |n: &str| snap.gauges.get(n).copied().unwrap_or(0.0);

        r.set("store.wal.appends", c(metric::STORE_WAL_APPENDS));
        r.set("store.wal.replayed", c(metric::STORE_WAL_REPLAYED));

        let sweep = family(&snap, metric::PROFILER_SWEEP_WALL);
        let config = family(&snap, "profiler.sweep.config");
        r.set("estimator.profile_s", sweep.sum);
        r.set("estimator.profile.configs", c(metric::PROFILER_RECORDS));
        r.set("estimator.profile.config_p50_s", config.p50);
        let fits = c(metric::ESTIMATOR_FITS);
        r.set("estimator.fits", fits);
        r.set("estimator.fit_s", if fits > 0.0 { g(metric::ESTIMATOR_FIT_WALL) } else { 0.0 });
        let predictions = c(metric::ESTIMATOR_PREDICTIONS);
        r.set("estimator.predictions", predictions);
        r.ratio(
            "estimator.memoized_ratio",
            Ratio::new(c(metric::ESTIMATOR_MEMOIZED), predictions, "memoized", "predictions"),
        );
        r.set("estimator.mape.time", g(metric::ESTIMATOR_MAPE_TIME));
        r.set("estimator.mape.memory", g(metric::ESTIMATOR_MAPE_MEMORY));
        r.set("estimator.mape.accuracy", g(metric::ESTIMATOR_MAPE_ACCURACY));

        let execute = family(&snap, metric::EXECUTE_WALL);
        r.set("runtime.execute_s", execute.sum);
        r.set("runtime.epoch_p50_s", family(&snap, "backend.execute.epoch").p50);
        r.set("runtime.runs", c(metric::BACKEND_RUNS));
        r.set("runtime.batches", c(metric::BACKEND_BATCHES));
        let hits = c(metric::CACHE_HITS);
        r.ratio(
            "cache.hit_ratio",
            Ratio::new(hits, hits + c(metric::CACHE_MISSES), "hits", "lookups"),
        );
        r.set("hwsim.epoch_sim_s", family(&snap, metric::EPOCH_SIM).sum);

        let flops = kernels.matmul_flops.saturating_sub(self.kernels.matmul_flops) as f64;
        r.set(
            "nn.matmul.calls",
            kernels.matmul_calls.saturating_sub(self.kernels.matmul_calls) as f64,
        );
        r.set("nn.matmul.flops", flops);
        r.ratio(
            "nn.gflops_per_runtime_s",
            Ratio::new(flops / 1e9, execute.sum, "GFLOP", "runtime.execute_s"),
        );
        r.set("par.regions", par.regions.saturating_sub(self.par.regions) as f64);
        r.set("par.tasks", par.tasks.saturating_sub(self.par.tasks) as f64);

        let explore = family(&snap, metric::EXPLORER_EXPLORE_WALL);
        let candidates = c(metric::EXPLORER_EVALUATED);
        r.set("explorer.explore_s", explore.sum);
        r.set("explorer.explore_p50_s", explore.p50);
        r.set("explorer.candidates", candidates);
        r.ratio(
            "explorer.us_per_candidate",
            Ratio::new(explore.sum * 1e6, candidates, "explore us", "candidates"),
        );
        let cache_hits = c(metric::EXPLORER_CACHE_HITS);
        r.ratio(
            "explorer.cache.hit_ratio",
            Ratio::new(
                cache_hits,
                cache_hits + c(metric::EXPLORER_CACHE_MISSES),
                "hits",
                "lookups",
            ),
        );

        let responses = c(metric::SERVE_RESPONSES);
        r.set("serve.explorations", c(metric::SERVE_EXPLORATIONS));
        r.ratio(
            "serve.cache_hit_ratio",
            Ratio::new(c(metric::SERVE_CACHE_HITS), responses, "cache hits", "responses"),
        );
        r.set("serve.coalesced", c(metric::SERVE_REQUESTS_COALESCED));
        r.set("serve.neighbor_served", c(metric::SERVE_NEIGHBOR_SERVED));
        r.ratio(
            "serve.degraded_ratio",
            Ratio::new(
                c(metric::SERVE_REQUESTS_DEGRADED),
                c(metric::SERVE_REQUESTS_ADMITTED),
                "degraded",
                "admitted",
            ),
        );
        r.set("serve.pool.misses", c(metric::SERVE_POOL_MISSES));

        r.set("alloc.allocs", allocs);
        r.ratio("alloc.per_candidate", Ratio::new(allocs, candidates, "allocs", "candidates"));

        for name in PINNED_ZERO {
            let v = snap.counters.get(name).copied().unwrap_or(0);
            if v != 0 {
                r.nonzero_pinned.push(format!("{name}={v}"));
            }
        }
        r.explore_wall_s = explore.sum;
        r.snapshot = Some(snap);
        r
    }
}

/// Per-layer values of one traced iteration.
#[derive(Debug, Default)]
pub struct Readings {
    /// Metric values by catalogue name.
    pub values: BTreeMap<&'static str, f64>,
    /// The ratios behind ratio-valued metrics, with their bases.
    pub ratios: BTreeMap<&'static str, Ratio>,
    /// Pinned-zero counters that were not zero (`name=value`).
    pub nonzero_pinned: Vec<String>,
    /// Σ `explorer.explore` wall time (s), for serve efficiency.
    pub explore_wall_s: f64,
    /// The snapshot the readings came from.
    pub snapshot: Option<Snapshot>,
}

impl Readings {
    /// Sets a catalogued metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "uncatalogued metric {name}");
        self.values.insert(name, value);
    }

    /// Sets a ratio metric (0 when its base is 0) and keeps its base.
    pub fn ratio(&mut self, name: &'static str, ratio: Ratio) {
        self.set(name, ratio.or_zero());
        self.ratios.insert(name, ratio);
    }
}

/// Summed histograms of one span family: every series named `name`
/// or ending in `.name` (the same span opened under different
/// parents). `p50` is taken from the family's busiest series.
#[derive(Debug, Default, Clone, Copy)]
pub struct Family {
    /// Observations across the family.
    pub count: u64,
    /// Σ of observations.
    pub sum: f64,
    /// Median of the busiest series.
    pub p50: f64,
}

/// Sums the histogram family `name` in `snap`.
pub fn family(snap: &Snapshot, name: &str) -> Family {
    let suffix = format!(".{name}");
    let mut out = Family::default();
    let mut busiest: Option<&HistogramSummary> = None;
    for (series, h) in &snap.histograms {
        if series == name || series.ends_with(&suffix) {
            out.count += h.count;
            out.sum += h.sum;
            if busiest.is_none_or(|b| h.count > b.count) {
                busiest = Some(h);
            }
        }
    }
    out.p50 = busiest.map_or(0.0, |h| h.p50);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists extra metrics"
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn family_sums_every_parent_path() {
        let h = |count, sum, p50| HistogramSummary {
            count,
            sum,
            min: 0.0,
            max: 0.0,
            last: 0.0,
            p50,
            p95: 0.0,
            p99: 0.0,
        };
        let mut snap = Snapshot {
            enabled: true,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        };
        snap.histograms.insert("backend.execute".into(), h(2, 1.0, 0.5));
        snap.histograms.insert("profiler.sweep.config.backend.execute".into(), h(120, 4.0, 0.03));
        snap.histograms.insert("backend.execute.epoch".into(), h(6, 0.9, 0.1));
        let f = family(&snap, "backend.execute");
        assert_eq!((f.count, f.sum, f.p50), (122, 5.0, 0.03));
        assert_eq!(family(&snap, "explorer.explore").count, 0);
    }
}
