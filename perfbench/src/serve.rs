//! `serve-zipf`: the `serve-bench` default traffic (1000 zipf-1.1
//! tenants, 2000 requests in bursts of 80, `ServeOptions` defaults)
//! driven through `NavService::{submit, drain}` as a closed loop with
//! one client: submit a burst, then drain it.
//!
//! The benchmark generates the traffic itself from the public
//! `ZipfTenants` and `tenant_request`. A run cycles through
//! [`TRAFFICS`] traffic seeds derived from `--seed` (the first is
//! `--seed` itself): which tenants are the zipf head changes with the
//! seed, and so does the work, so one run covers several populations
//! to keep its medians steady across seeds. Each pass runs on a fresh
//! service, because a service keeps
//! every result it computed and would answer a repeat pass from
//! memory. A pass starts warm: one request per platform, with a
//! shape and constraints the traffic never sends, fills the estimator
//! pool first. Set-up calibrates the three platforms cold into a
//! profile store; later passes refit from that store, untimed.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Instant;

use gnnavigator::estimator::{Context, ProfileStore};
use gnnavigator::explorer::{Priority, RuntimeConstraints};
use gnnavigator::graph::Dataset;
use gnnavigator::hwsim::Platform;
use gnnavigator::nn::ModelKind;
use gnnavigator::runtime::Template;
use gnnavigator::serve::{
    platform_fingerprint, run_load, tenant_request, LoadGenOptions, NavRequest, NavResponse,
    NavService, ServeOptions, TenantId, WorkloadSpec, ZipfTenants,
};

use crate::layers::Window;
use crate::stats::{median, sorted, tail};
use crate::{Ctx, Workload};

/// Set-up repetitions (each one calibrates three platforms cold).
const SETUPS: usize = 3;

/// Traffic seeds one run cycles through.
pub const TRAFFICS: usize = 8;

/// The `k`-th traffic seed of a run under `seed`.
fn traffic_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64) << 32)
}

/// The traffic generator's mixer (the load generator's splitmix64).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` draw of traffic step `step` under `seed`, as the
/// load generator draws it.
fn tenant_draw(seed: u64, step: usize) -> f64 {
    (splitmix64(seed ^ 0xC0FF_EE00 ^ step as u64) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// One pool warm-up request per platform. Its shape (240 nodes) and
/// its time limit (1e6 s) are never sent by the traffic, so its
/// result can neither be a cache hit nor a neighbour for a traffic
/// request; its tenant ids are outside the 1000 traffic tenants.
fn warmup_requests() -> Vec<NavRequest> {
    [Platform::default_rtx4090(), Platform::default_a100(), Platform::default_m90()]
        .into_iter()
        .enumerate()
        .map(|(i, platform)| NavRequest {
            tenant: TenantId(u64::MAX - i as u64),
            platform,
            workload: WorkloadSpec {
                num_nodes: 240,
                edges_per_node: 2,
                feat_dim: 16,
                num_classes: 4,
                graph_seed: 0xB0_0757,
                model: ModelKind::Sage,
                priority: Priority::Balance,
                constraints: RuntimeConstraints {
                    max_time_s: Some(1e6),
                    max_mem_bytes: None,
                    min_accuracy: None,
                },
            },
        })
        .collect()
}

/// A response line without the fields the warm-up may shift: the
/// sequence number and the cold/warm tier label.
fn normalize(line: &str) -> String {
    line.split(' ')
        .filter(|t| !t.starts_with("seq=") && !t.starts_with("tier="))
        .collect::<Vec<_>>()
        .join(" ")
}

/// What one pass of the traffic did.
#[derive(Default)]
struct Pass {
    submitted: u64,
    admitted: u64,
    rejected: u64,
    responses: u64,
    failed: u64,
    /// Rejections and normalized responses, in transcript order.
    events: Vec<String>,
    latencies: Vec<f64>,
    drains_s: Vec<f64>,
    submit_s: f64,
    answered: Vec<(NavRequest, NavResponse)>,
}

/// The serving workload.
pub struct Serve {
    width: usize,
    store: Option<PathBuf>,
    /// The first pass's transcript events, per traffic seed.
    references: Vec<Option<Vec<String>>>,
    identical: bool,
    /// Quality ratios of every distinct guideline served, by
    /// (request workload, platform, guideline config).
    quality: BTreeMap<String, [f64; 3]>,
}

impl Serve {
    /// Serving at `width` workers.
    pub fn new(width: usize) -> Serve {
        Serve {
            width,
            store: None,
            references: vec![None; TRAFFICS],
            identical: true,
            quality: BTreeMap::new(),
        }
    }

    /// A fresh service over the calibrated store, pool warmed.
    fn warm_service(&self, ctx: &mut Ctx, iter: u64) -> Result<NavService, String> {
        let path = self.store.clone().ok_or("no calibrated store")?;
        let (store, _) = ctx.tracer.time("store.open", iter, || ProfileStore::open(path));
        let store = store.map_err(|e| format!("ProfileStore::open: {e}"))?;
        let mut service = NavService::new(ServeOptions::default()).with_profile_store(store);
        for request in warmup_requests() {
            let (admitted, _) = ctx.tracer.time("serve.submit", iter, || service.submit(request));
            admitted.map_err(|e| format!("NavService::submit (warm-up): {e}"))?;
        }
        let (drained, _) = ctx.tracer.time("serve.drain", iter, || service.drain());
        let responses = drained.map_err(|e| format!("NavService::drain (warm-up): {e}"))?;
        if responses.len() != 3 || service.pool().len() != 3 {
            return Err(format!(
                "warm-up answered {} of 3 requests and pooled {} estimators",
                responses.len(),
                service.pool().len()
            ));
        }
        Ok(service)
    }

    /// One pass of the traffic through `service`, timed per request.
    /// `keep` keeps every answered request for [`Serve::rate`].
    fn traffic(
        &self,
        ctx: &mut Ctx,
        service: &mut NavService,
        iter: u64,
        seed: u64,
        keep: bool,
    ) -> Pass {
        let load = LoadGenOptions { seed, ..LoadGenOptions::default() };
        let zipf = ZipfTenants::new(load.tenants, load.zipf_exponent);
        let burst = load.burst.max(1);
        let mut pass = Pass::default();
        let mut wave: HashMap<u64, (Instant, NavRequest)> = HashMap::new();
        for step in 0..load.requests {
            let tenant = zipf.pick(tenant_draw(load.seed, step));
            let request = tenant_request(load.seed, tenant);
            let open = ctx.tracer.begin("serve.submit", iter, Some(step as u64));
            let submitted_at = Instant::now();
            let admitted = service.submit(request.clone());
            pass.submit_s += ctx.tracer.end(open);
            pass.submitted += 1;
            match admitted {
                Ok(seq) => {
                    pass.admitted += 1;
                    wave.insert(seq, (submitted_at, request));
                }
                Err(e) => {
                    pass.rejected += 1;
                    pass.events
                        .push(format!("rej step={step} tenant={tenant} reason={}", e.reason()));
                }
            }
            if (step + 1) % burst == 0 && !wave.is_empty() {
                Self::drain(ctx, service, iter, &mut wave, &mut pass, keep);
            }
        }
        if !wave.is_empty() {
            Self::drain(ctx, service, iter, &mut wave, &mut pass, keep);
        }
        pass
    }

    fn drain(
        ctx: &mut Ctx,
        service: &mut NavService,
        iter: u64,
        wave: &mut HashMap<u64, (Instant, NavRequest)>,
        pass: &mut Pass,
        keep: bool,
    ) {
        let open = ctx.tracer.begin("serve.drain", iter, None);
        let drained = service.drain();
        let done = Instant::now();
        pass.drains_s.push(ctx.tracer.end(open));
        match drained {
            Ok(responses) => {
                for response in responses {
                    let Some((submitted_at, request)) = wave.remove(&response.seq) else {
                        let detail = format!("seq {}", response.seq);
                        ctx.check("every response answers a request of its wave", false, detail);
                        continue;
                    };
                    pass.responses += 1;
                    pass.latencies.push(done.duration_since(submitted_at).as_secs_f64());
                    pass.events.push(normalize(&response.transcript_line()));
                    if keep {
                        pass.answered.push((request, response));
                    }
                }
                // Admitted requests the drain did not answer.
                pass.failed += wave.len() as u64;
            }
            Err(e) => {
                // Every request of a failed wave failed.
                pass.failed += wave.len() as u64;
                ctx.log_error("NavService::drain", e);
            }
        }
        wave.clear();
    }

    /// Rates every distinct guideline of the pass against PyG, both
    /// predicted by the tenant platform's pooled estimator: `[PyG time
    /// ÷ guideline time, guideline memory ÷ PyG memory, guideline
    /// accuracy ÷ PyG accuracy]`.
    fn rate(&mut self, ctx: &mut Ctx, service: &NavService, pass: &Pass) {
        let mut datasets: HashMap<(usize, usize, usize, usize, u64), Dataset> = HashMap::new();
        let mut skipped = 0usize;
        for (request, response) in &pass.answered {
            let key = format!(
                "{:?} {} {}",
                request.workload,
                request.platform.device.name,
                response.guideline.config.summary()
            );
            if self.quality.contains_key(&key) {
                continue;
            }
            let Some(estimator) = service.pool().peek(platform_fingerprint(&request.platform))
            else {
                ctx.note(format!("no pooled estimator for {}", request.platform.device.name));
                return;
            };
            let w = &request.workload;
            let shape = (w.num_nodes, w.edges_per_node, w.feat_dim, w.num_classes, w.graph_seed);
            if let std::collections::hash_map::Entry::Vacant(slot) = datasets.entry(shape) {
                match w.materialize() {
                    Ok(d) => slot.insert(d),
                    Err(e) => {
                        ctx.error("WorkloadSpec::materialize", e);
                        return;
                    }
                };
            }
            let context =
                Context::new(&datasets[&shape], &request.platform, Template::Pyg.config(w.model));
            let pyg = estimator.predict(&context);
            let g = &response.guideline.estimate;
            let ratios =
                [pyg.time_s / g.time_s, g.mem_bytes / pyg.mem_bytes, g.accuracy / pyg.accuracy];
            if ratios.iter().all(|r| r.is_finite() && *r > 0.0) {
                self.quality.insert(key, ratios);
            } else {
                skipped += 1;
            }
        }
        if skipped > 0 {
            ctx.note(format!(
                "guideline quality: {skipped} guideline(s) had a non-positive estimate and were skipped"
            ));
        }
    }

    fn pass(&mut self, ctx: &mut Ctx, iter: u64, traced: bool) -> Option<f64> {
        let prep = ctx.tracer.begin("bench.prep", iter, None);
        let service = self.warm_service(ctx, iter);
        ctx.tracer.end(prep);
        let mut service = match service {
            Ok(s) => s,
            Err(e) => {
                ctx.attempted += 1;
                ctx.error("pool warm-up", e);
                return None;
            }
        };
        let k = iter as usize % TRAFFICS;
        let window = traced.then(Window::open);
        let frame = ctx.tracer.begin("bench.iteration", iter, None);
        let first = self.references[k].is_none();
        let pass = self.traffic(ctx, &mut service, iter, traffic_seed(ctx.args.seed, k), first);
        let pass_s = ctx.tracer.end(frame);
        let readings = window.map(|w| w.close());

        ctx.attempted += pass.submitted;
        ctx.rejected += pass.rejected;
        ctx.failed += pass.failed;
        ctx.check(
            "submitted = admitted + rejected and responses = admitted",
            pass.submitted == pass.admitted + pass.rejected
                && pass.responses + pass.failed == pass.admitted
                && pass.failed == 0,
            format!(
                "submitted {} admitted {} rejected {} responses {}",
                pass.submitted, pass.admitted, pass.rejected, pass.responses
            ),
        );
        match &self.references[k] {
            None => {
                self.rate(ctx, &service, &pass);
                self.references[k] = Some(pass.events.clone());
            }
            Some(reference) => {
                if *reference != pass.events {
                    self.identical = false;
                }
            }
        }
        match readings {
            Some(mut r) => {
                let drains: f64 = pass.drains_s.iter().sum();
                r.set("serve.submit_s", pass.submit_s);
                r.set("serve.drain_p50_s", median(&sorted(&pass.drains_s)));
                r.set("serve.latency_p99_s", tail(&pass.latencies).map_or(0.0, |(_, v)| v));
                r.ratio(
                    "serve.parallel_efficiency",
                    crate::stats::Ratio::new(
                        r.explore_wall_s,
                        self.width as f64 * drains,
                        "explore s",
                        "width x drain s",
                    ),
                );
                ctx.layer_readings(r);
            }
            None => {
                ctx.sample("navigate_p50_s", pass_s);
                ctx.sample("guidelines_per_s", pass.responses as f64 / pass_s);
                for l in &pass.latencies {
                    ctx.sample("guideline_p50_s", *l);
                }
            }
        }
        Some(pass_s)
    }

    /// Replays traffic `k` through `run_load` on a fresh service and
    /// compares its transcript with the first pass, step by step. Once
    /// per run: a replay costs a pass.
    fn check_transcript(&self, ctx: &mut Ctx, k: usize) {
        let Some(reference) = &self.references[k] else { return };
        let Some(path) = self.store.clone() else { return };
        let store = match ProfileStore::open(path) {
            Ok(s) => s,
            Err(e) => {
                ctx.error("ProfileStore::open", e);
                return;
            }
        };
        let mut service = NavService::new(ServeOptions::default()).with_profile_store(store);
        let load =
            LoadGenOptions { seed: traffic_seed(ctx.args.seed, k), ..LoadGenOptions::default() };
        let summary = match run_load(&mut service, &load) {
            Ok(s) => s,
            Err(e) => {
                ctx.error("run_load", e);
                return;
            }
        };
        let replay: Vec<String> =
            summary.transcript.lines().filter(|l| !l.starts_with('#')).map(normalize).collect();
        let first_difference = replay
            .iter()
            .zip(reference)
            .position(|(a, b)| a != b)
            .map_or(String::new(), |i| format!("first difference at line {i}: {}", replay[i]));
        ctx.check(
            "responses match the run_load transcript step for step",
            replay == *reference,
            format!("{} vs {} lines; {first_difference}", replay.len(), reference.len()),
        );
    }
}

impl Workload for Serve {
    fn setup_reps(&self) -> usize {
        SETUPS
    }

    fn min_iterations(&self) -> usize {
        // Every traffic once; the memory pass repeats the first, so a
        // pass always has a twin to match.
        TRAFFICS
    }

    fn cycle(&self) -> usize {
        TRAFFICS
    }

    fn setup(&mut self, ctx: &mut Ctx, rep: usize) -> Result<(), String> {
        gnnavigator::par::with_thread_limit(self.width, || {
            let spec = warmup_requests().remove(0).workload;
            let (dataset, _) = ctx.tracer.time("graph.load", rep as u64, || spec.materialize());
            dataset.map_err(|e| format!("WorkloadSpec::materialize: {e}"))?;
            let dir = ctx.tmp_dir(&format!("serve-store-{rep}"))?;
            let previous = self.store.replace(dir.join("profile.wal"));
            let warmed = self.warm_service(ctx, rep as u64).map(|_| ());
            if let Some(old) = previous.as_ref().and_then(|p| p.parent()) {
                let _ = std::fs::remove_dir_all(old);
            }
            warmed
        })
    }

    fn iterate(&mut self, ctx: &mut Ctx, iter: u64, traced: bool) -> Option<f64> {
        // The memory probe runs at width 1, like every workload's.
        let width = if ctx.probing { 1 } else { self.width };
        gnnavigator::par::with_thread_limit(width, || self.pass(ctx, iter, traced))
    }

    fn finish(&mut self, ctx: &mut Ctx) {
        ctx.check("every pass gives identical responses", self.identical, String::new());
        gnnavigator::par::with_thread_limit(self.width, || self.check_transcript(ctx, 0));
        if !self.quality.is_empty() {
            let n = self.quality.len() as f64;
            let geomean =
                |i: usize| (self.quality.values().map(|r| r[i].ln()).sum::<f64>() / n).exp();
            ctx.exact("guideline_speedup", geomean(0));
            ctx.exact("guideline_mem_ratio", geomean(1));
            ctx.exact("guideline_acc_ratio", geomean(2));
            ctx.note(format!(
                "guideline quality over {} distinct served guidelines",
                self.quality.len()
            ));
        }
    }
}
