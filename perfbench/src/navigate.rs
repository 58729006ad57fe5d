//! `navigate-cold` and `navigate-warm`: one full single-tenant
//! navigation per iteration, driven through the public `Navigator`.
//!
//! Inputs: the RD2 stand-in at scale 0.05, SAGE, Balance priority,
//! RTX 4090, default `NavigatorOptions`. `--seed` drives the training
//! RNG of the guideline and PyG runs (`apply_exec.seed`): a run
//! cycles through [`APPLY_SEEDS`] seeds derived from it, so its
//! accuracy ratio is not one training draw.
//!
//! - cold: every iteration opens an empty `ProfileStore` and
//!   `ExploreCache`, so it profiles 120 configs, fits, explores and
//!   writes both stores.
//! - warm: set-up runs one cold navigation into a kept directory;
//!   every iteration reopens both stores, prepares from the store
//!   (nothing profiled), hits the exploration cache, and applies.

use std::path::{Path, PathBuf};

use gnnavigator::estimator::ProfileStore;
use gnnavigator::explorer::ExplorationResult;
use gnnavigator::graph::{Dataset, DatasetId};
use gnnavigator::hwsim::Platform;
use gnnavigator::nn::ModelKind;
use gnnavigator::obs::names as metric;
use gnnavigator::runtime::ExecutionReport;
use gnnavigator::{
    ExploreCache, Navigator, NavigatorOptions, Priority, RuntimeConstraints, Template,
};

use crate::layers::Window;
use crate::{Ctx, Workload};

/// Dataset scale of the RD2 stand-in (1165 nodes).
pub const SCALE: f64 = 0.05;

/// Set-up repetitions: dataset loads are cheap on the cold workload;
/// the warm set-up includes a full cold navigation.
const COLD_SETUPS: usize = 5;
const WARM_SETUPS: usize = 3;

/// Training seeds one run cycles through.
pub const APPLY_SEEDS: usize = 6;

/// The `k`-th training seed of a run under `seed`.
fn apply_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64) << 32)
}

/// What one navigation produced.
struct Navigation {
    /// Formatted only after the timed frame closes.
    result: ExplorationResult,
    guided: ExecutionReport,
    pyg: ExecutionReport,
    guideline_s: f64,
    spans_s: [f64; 5],
    cache_hits: u64,
    cache_misses: u64,
}

/// The navigation workloads.
pub struct Navigate {
    warm: bool,
    dataset: Option<Dataset>,
    /// Warm only: the directory the set-up filled.
    filled: Option<PathBuf>,
    /// The first cold navigation's exploration result (`{:?}`).
    cold_result: Option<String>,
    /// `(config, guided perf, PyG perf)` of the first navigation,
    /// per training seed.
    references: Vec<Option<(String, String, String)>>,
    /// `[speed-up, memory ratio, accuracy ratio]` per training seed.
    quality: Vec<Option<[f64; 3]>>,
    identical: bool,
}

impl Navigate {
    /// The cold (`warm == false`) or warm workload.
    pub fn new(warm: bool) -> Navigate {
        Navigate {
            warm,
            dataset: None,
            filled: None,
            cold_result: None,
            references: vec![None; APPLY_SEEDS],
            quality: vec![None; APPLY_SEEDS],
            identical: true,
        }
    }

    /// One navigation against the stores in `dir` under training
    /// seed `k`: open → prepare → guideline → apply → PyG baseline,
    /// each call in its own span.
    fn navigate(
        &self,
        ctx: &mut Ctx,
        dir: &Path,
        iter: u64,
        k: usize,
    ) -> Result<Navigation, String> {
        let dataset = self.dataset.clone().ok_or("dataset not loaded")?;
        let mut options = NavigatorOptions::default();
        options.apply_exec.seed = apply_seed(ctx.args.seed, k);
        let started = std::time::Instant::now();
        let t = &mut ctx.tracer;
        let (stores, open_s) = t.time("store.open", iter, || {
            let profile = ProfileStore::open(dir.join("profile.wal"))
                .map_err(|e| format!("ProfileStore::open: {e}"))?;
            let cache = ExploreCache::open(dir.join("explore.wal"))
                .map_err(|e| format!("ExploreCache::open: {e}"))?;
            Ok::<_, String>((profile, cache))
        });
        let (profile, cache) = stores?;
        let mut nav = Navigator::new(dataset, Platform::default_rtx4090(), ModelKind::Sage)
            .with_options(options)
            .with_profile_store(profile)
            .with_explore_cache(cache);
        let (prepared, prepare_s) = t.time("core.prepare", iter, || nav.prepare().map(|_| ()));
        prepared.map_err(|e| format!("Navigator::prepare: {e}"))?;
        let (result, explore_s) = t.time("core.explore", iter, || {
            nav.generate_guideline(Priority::Balance, &RuntimeConstraints::none())
        });
        let result = result.map_err(|e| format!("Navigator::generate_guideline: {e}"))?;
        let guideline_s = started.elapsed().as_secs_f64();
        let (guided, apply_s) = t.time("core.apply", iter, || nav.apply(&result.guideline));
        let guided = guided.map_err(|e| format!("Navigator::apply: {e}"))?;
        let (pyg, baseline_s) = t.time("core.baseline", iter, || nav.run_template(Template::Pyg));
        let pyg = pyg.map_err(|e| format!("Navigator::run_template(Pyg): {e}"))?;
        let (cache_hits, cache_misses) =
            nav.explore_cache().map_or((0, 0), |c| (c.hits(), c.misses()));
        Ok(Navigation {
            result,
            guided,
            pyg,
            guideline_s,
            spans_s: [open_s, prepare_s, explore_s, apply_s, baseline_s],
            cache_hits,
            cache_misses,
        })
    }

    /// Checks `n` against the first navigation under training seed
    /// `k`: same guideline config and the same sim-clock `Perf` for
    /// the guideline and PyG.
    fn compare(&mut self, ctx: &mut Ctx, n: &Navigation, k: usize) {
        let got = (
            n.result.guideline.config.summary(),
            format!("{:?}", n.guided.perf),
            format!("{:?}", n.pyg.perf),
        );
        match &self.references[k] {
            None => {
                let (g, p) = (&n.guided.perf, &n.pyg.perf);
                self.quality[k] = Some([
                    g.speedup_vs(p),
                    g.peak_mem_bytes as f64 / p.peak_mem_bytes as f64,
                    g.accuracy / p.accuracy,
                ]);
                self.references[k] = Some(got);
            }
            Some(reference) if *reference != got => {
                if self.identical {
                    ctx.note(format!(
                        "navigation differs from the first: {} / {} / {} vs {} / {} / {}",
                        got.0, got.1, got.2, reference.0, reference.1, reference.2
                    ));
                }
                self.identical = false;
            }
            Some(_) => {}
        }
    }
}

fn wal_sizes(dir: &Path) -> (u64, u64) {
    let size = |f: &str| std::fs::metadata(dir.join(f)).map_or(0, |m| m.len());
    (size("profile.wal"), size("explore.wal"))
}

impl Workload for Navigate {
    fn setup_reps(&self) -> usize {
        if self.warm {
            WARM_SETUPS
        } else {
            COLD_SETUPS
        }
    }

    fn min_iterations(&self) -> usize {
        // Every training seed once cold, where the memory iteration
        // repeats the first; twice warm (cheap). So a navigation
        // always has a twin to match.
        if self.warm {
            2 * APPLY_SEEDS
        } else {
            APPLY_SEEDS
        }
    }

    fn cycle(&self) -> usize {
        APPLY_SEEDS
    }

    fn setup(&mut self, ctx: &mut Ctx, rep: usize) -> Result<(), String> {
        let (dataset, _) = ctx
            .tracer
            .time("graph.load", rep as u64, || Dataset::load_scaled(DatasetId::Reddit2, SCALE));
        self.dataset = Some(dataset.map_err(|e| format!("Dataset::load_scaled: {e}"))?);
        if !self.warm {
            return Ok(());
        }
        let dir = ctx.tmp_dir(&format!("warm-fill-{rep}"))?;
        let fill = self.navigate(ctx, &dir, rep as u64, 0)?;
        match &self.cold_result {
            Some(previous) if *previous != format!("{:?}", fill.result) => {
                ctx.check(
                    "cold set-up navigations agree",
                    false,
                    "exploration results differ".into(),
                );
            }
            _ => self.cold_result = Some(format!("{:?}", fill.result)),
        }
        self.compare(ctx, &fill, 0);
        if let Some(old) = self.filled.replace(dir) {
            let _ = std::fs::remove_dir_all(old);
        }
        Ok(())
    }

    fn iterate(&mut self, ctx: &mut Ctx, iter: u64, traced: bool) -> Option<f64> {
        let dir = match &self.filled {
            Some(dir) => dir.clone(),
            None => match ctx.tmp_dir(&format!("cold-{iter}")) {
                Ok(dir) => dir,
                Err(e) => {
                    ctx.error("temp dir", e);
                    return None;
                }
            },
        };
        let before = wal_sizes(&dir);
        let window = traced.then(Window::open);
        let frame = ctx.tracer.begin("bench.iteration", iter, None);
        let k = iter as usize % APPLY_SEEDS;
        let outcome = self.navigate(ctx, &dir, iter, k);
        let iteration_s = ctx.tracer.end(frame);
        let readings = window.map(|w| w.close());
        ctx.attempted += 1;
        if !self.warm {
            let _ = std::fs::remove_dir_all(&dir);
        }
        let n = match outcome {
            Ok(n) => n,
            Err(e) => {
                ctx.error("navigation", e);
                return None;
            }
        };
        self.compare(ctx, &n, k);
        // The training seed does not reach exploration, so every
        // navigation's result must match the first cold one: the
        // warm set-up's fill, or cold iteration 0.
        let result = format!("{:?}", n.result);
        let first = self.cold_result.get_or_insert_with(|| result.clone());
        ctx.check(
            "exploration result is byte-identical to the first cold navigation's",
            *first == result,
            String::new(),
        );
        if self.warm {
            let after = wal_sizes(&dir);
            ctx.check(
                "warm navigation appends nothing to either store",
                before == after,
                format!("WAL bytes (profile, explore) {before:?} -> {after:?}"),
            );
            ctx.check(
                "warm navigation gets exactly one cache hit",
                (n.cache_hits, n.cache_misses) == (1, 0),
                format!("hits {} misses {}", n.cache_hits, n.cache_misses),
            );
        }
        if let Some(mut r) = readings {
            for (name, secs) in [
                "store.open_s",
                "core.prepare_s",
                "core.explore_s",
                "core.apply_s",
                "core.baseline_s",
            ]
            .into_iter()
            .zip(n.spans_s)
            {
                r.set(name, secs);
            }
            if self.warm {
                let snap = r.snapshot.as_ref().expect("closed window keeps its snapshot");
                let evaluated = snap.counters.get(metric::EXPLORER_EVALUATED).copied().unwrap_or(0);
                let appends = snap.counters.get(metric::STORE_WAL_APPENDS).copied().unwrap_or(0);
                ctx.check(
                    "warm navigation evaluates 0 candidates and appends 0 WAL frames",
                    evaluated == 0 && appends == 0,
                    format!("evaluated {evaluated}, appends {appends}"),
                );
            }
            ctx.layer_readings(r);
        } else {
            ctx.sample("navigate_p50_s", iteration_s);
            ctx.sample("guideline_p50_s", n.guideline_s);
            ctx.sample("guidelines_per_s", 1.0 / iteration_s);
        }
        Some(iteration_s)
    }

    fn finish(&mut self, ctx: &mut Ctx) {
        ctx.check(
            "every navigation gives the same guideline and sim-clock Perf",
            self.identical && self.references[0].is_some(),
            self.references[0].as_ref().map_or(String::new(), |r| r.0.clone()),
        );
        let rated: Vec<[f64; 3]> = self.quality.iter().flatten().copied().collect();
        if !rated.is_empty() {
            let n = rated.len() as f64;
            let geomean = |i: usize| (rated.iter().map(|r| r[i].ln()).sum::<f64>() / n).exp();
            ctx.exact("guideline_speedup", geomean(0));
            ctx.exact("guideline_mem_ratio", geomean(1));
            ctx.exact("guideline_acc_ratio", geomean(2));
        }
        if let Some(dir) = self.filled.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
