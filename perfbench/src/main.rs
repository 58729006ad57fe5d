//! `perfbench`: the repository benchmark. Runs one workload through
//! the program's public calls, checks the outputs, and prints every
//! metric by name with its unit. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload navigate-cold --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the `gnnav_obs`
//! registry off. `--trace 1` spends half the time untraced and half
//! traced (registry and allocation tracking on, spans kept), and
//! prints the per-layer metrics, the per-layer self-time table and
//! the tracing overhead. See `perfbench/README.md`.

mod layers;
mod navigate;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use gnnavigator::obs::{alloc, json};
use layers::{Readings, END_TO_END, PER_LAYER};
use spans::Tracer;
use stats::{fmt_num, Ratio, Summary};

/// Iterations each phase of a traced run makes at least.
const TRACED_MIN_ITERATIONS: usize = 2;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["navigate-cold", "navigate-warm", "serve-zipf"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 15.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}, got `{}`", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One workload, driven by [`drive`].
pub trait Workload {
    /// Set-up repetitions; `setup_s` is their median.
    fn setup_reps(&self) -> usize;
    /// Iterations an end-to-end run makes even past its time budget.
    fn min_iterations(&self) -> usize;
    /// Iterations of one input cycle: a phase stops only after a whole
    /// number of cycles, so every input gets the same weight whatever
    /// the machine's speed.
    fn cycle(&self) -> usize;
    /// One set-up; the last one's state is what iterations use.
    fn setup(&mut self, ctx: &mut Ctx, rep: usize) -> Result<(), String>;
    /// One timed iteration; its wall time in seconds, `None` when it
    /// failed (the failure is already counted).
    fn iterate(&mut self, ctx: &mut Ctx, iter: u64, traced: bool) -> Option<f64>;
    /// Run-level checks and metrics after the last iteration.
    fn finish(&mut self, ctx: &mut Ctx);
}

/// A correctness check, aggregated over every time it ran.
#[derive(Debug)]
struct Check {
    name: String,
    runs: usize,
    failures: usize,
    detail: String,
}

/// Everything one run measures and checks.
pub struct Ctx {
    /// The command line.
    pub args: Args,
    /// The benchmark's span recorder.
    pub tracer: Tracer,
    /// Operations attempted: navigations, or submitted requests.
    pub attempted: u64,
    /// Operations that failed with an error.
    pub failed: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
    errors: Vec<String>,
    notes: Vec<String>,
    checks: Vec<Check>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    exact: BTreeMap<&'static str, f64>,
    layer_samples: BTreeMap<&'static str, Vec<f64>>,
    ratios: BTreeMap<&'static str, Ratio>,
    tmp_root: PathBuf,
    /// Set while the untimed memory iteration runs.
    pub probing: bool,
}

impl Ctx {
    fn new(args: Args, out_dir: &std::path::Path) -> Ctx {
        Ctx {
            args,
            tracer: Tracer::new(),
            attempted: 0,
            failed: 0,
            rejected: 0,
            errors: Vec::new(),
            notes: Vec::new(),
            checks: Vec::new(),
            samples: BTreeMap::new(),
            exact: BTreeMap::new(),
            layer_samples: BTreeMap::new(),
            ratios: BTreeMap::new(),
            tmp_root: out_dir.join("tmp").join(std::process::id().to_string()),
            probing: false,
        }
    }

    /// Records one sample of an end-to-end metric (none while the
    /// memory probe runs: its timings are not representative).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if !self.probing {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// Records an end-to-end metric that is exact (one value per run).
    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.exact.insert(name, value);
    }

    /// Records one traced iteration's per-layer readings.
    pub fn layer_readings(&mut self, r: Readings) {
        for (name, v) in r.values {
            self.layer_samples.entry(name).or_default().push(v);
        }
        self.ratios.extend(r.ratios);
        if !r.nonzero_pinned.is_empty() {
            self.check("pinned-zero counters stay at 0", false, r.nonzero_pinned.join(", "));
        } else {
            self.check("pinned-zero counters stay at 0", true, String::new());
        }
    }

    /// Records the outcome of a correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        let idx = match self.checks.iter().position(|c| c.name == name) {
            Some(i) => i,
            None => {
                self.checks.push(Check {
                    name: name.into(),
                    runs: 0,
                    failures: 0,
                    detail: String::new(),
                });
                self.checks.len() - 1
            }
        };
        let c = &mut self.checks[idx];
        c.runs += 1;
        if !ok {
            c.failures += 1;
            if c.failures == 1 {
                c.detail = detail;
            }
        } else if c.failures == 0 {
            c.detail = detail;
        }
    }

    /// Counts a failed operation and keeps its error.
    pub fn error(&mut self, what: &str, e: impl std::fmt::Display) {
        self.failed += 1;
        self.log_error(what, e);
    }

    /// Keeps an error whose failed operations the caller counts.
    pub fn log_error(&mut self, what: &str, e: impl std::fmt::Display) {
        self.errors.push(format!("{what}: {e}"));
    }

    /// Adds a line to the report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A fresh, empty directory under the run's temp root.
    pub fn tmp_dir(&mut self, tag: &str) -> Result<PathBuf, String> {
        let dir = self.tmp_root.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Runs set-up and the measured phases of `w`; returns
/// `(untraced iteration s, traced iteration s, traced windows µs)`.
fn drive(w: &mut dyn Workload, ctx: &mut Ctx) -> (Vec<f64>, Vec<f64>, Vec<(f64, f64)>) {
    let mut windows = Vec::new();
    ctx.tracer.record(ctx.args.trace);
    let lo = ctx.tracer.now_us();
    for rep in 0..w.setup_reps() {
        let open = ctx.tracer.begin("bench.setup", rep as u64, None);
        let done = w.setup(ctx, rep);
        let secs = ctx.tracer.end(open);
        match done {
            Ok(()) => ctx.sample("setup_s", secs),
            Err(e) => {
                ctx.error("set-up", e);
                return (Vec::new(), Vec::new(), windows);
            }
        }
    }
    windows.push((lo, ctx.tracer.now_us()));
    ctx.tracer.record(false);
    // A traced run splits its time between an untraced and a traced
    // phase; it only needs enough iterations for per-layer medians.
    let (phase_s, min_runs) = if ctx.args.trace {
        (ctx.args.seconds / 2.0, TRACED_MIN_ITERATIONS)
    } else {
        (ctx.args.seconds, w.min_iterations())
    };
    let mut iter = 0u64;
    let untraced = run_phase(w, ctx, false, phase_s, min_runs, &mut iter);
    if !ctx.args.trace {
        // Memory of one more iteration, apart from the timed ones:
        // allocation tracking costs time on every allocation. Iteration
        // 0's inputs, so the reading does not depend on how many
        // iterations fit in the time budget, and width 1, so the order
        // of allocations (and hence the peak) repeats exactly.
        ctx.probing = true;
        alloc::set_tracking(true);
        let done = gnnavigator::par::with_thread_limit(1, || w.iterate(ctx, 0, false)).is_some();
        let peak = alloc::stats().peak_bytes;
        alloc::set_tracking(false);
        ctx.probing = false;
        if done {
            ctx.exact("peak_heap_mb", peak as f64 / 1e6);
        }
    }
    let mut traced = Vec::new();
    if ctx.args.trace {
        let registry = gnnavigator::obs::global();
        registry.enable(true);
        ctx.tracer.record(true);
        let lo = ctx.tracer.now_us();
        traced = run_phase(w, ctx, true, phase_s, min_runs, &mut iter);
        windows.push((lo, ctx.tracer.now_us()));
        ctx.tracer.record(false);
        registry.enable(false);
    }
    w.finish(ctx);
    (untraced, traced, windows)
}

/// Iterates `w` for at least `min_runs` iterations, in whole input
/// cycles, and stops at the cycle boundary nearest to `phase_s`
/// seconds; returns the iteration wall times.
fn run_phase(
    w: &mut dyn Workload,
    ctx: &mut Ctx,
    traced: bool,
    phase_s: f64,
    min_runs: usize,
    iter: &mut u64,
) -> Vec<f64> {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut runs = 0;
    let cycle = w.cycle().max(1);
    loop {
        if runs >= min_runs.max(1) && runs % cycle == 0 {
            let elapsed = started.elapsed().as_secs_f64();
            let per_cycle = elapsed * cycle as f64 / runs as f64;
            if elapsed + per_cycle / 2.0 >= phase_s {
                break;
            }
        }
        if let Some(t) = w.iterate(ctx, *iter, traced) {
            times.push(t);
        }
        *iter += 1;
        runs += 1;
    }
    times
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The machine and build the numbers were measured on.
fn descriptor(nav_width: usize, serve_width: usize) -> Vec<(&'static str, String)> {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    // The benchmark also runs from exported trees; only ask git inside
    // a work tree of its own.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| run("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    vec![
        ("nproc", gnnavigator::par::hardware_threads().to_string()),
        ("navigation width", nav_width.to_string()),
        ("serve width", serve_width.to_string()),
        ("GNNAV_THREADS", std::env::var("GNNAV_THREADS").unwrap_or_else(|_| "unset".into())),
        ("rustc", run("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ("git commit", commit),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    json::push_string(&mut out, s);
    out
}

fn json_num(v: f64) -> String {
    let mut out = String::new();
    json::push_f64(&mut out, v);
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let nav_width = gnnavigator::par::effective_threads();
    let serve_width = gnnavigator::par::hardware_threads();
    let mut ctx = Ctx::new(args.clone(), &out_dir);
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "navigate-cold" => Box::new(navigate::Navigate::new(false)),
        "navigate-warm" => Box::new(navigate::Navigate::new(true)),
        _ => Box::new(serve::Serve::new(serve_width)),
    };
    let started = Instant::now();
    let (untraced, traced, windows) = drive(workload.as_mut(), &mut ctx);
    let wall_s = started.elapsed().as_secs_f64();
    if let Some(mb) = peak_rss_mb() {
        ctx.note(format!("process peak resident set (VmHWM) {mb:.1} MB"));
    }
    let _ = std::fs::remove_dir_all(&ctx.tmp_root);
    if let Some(parent) = ctx.tmp_root.parent() {
        // Only removed when no concurrent run still uses it.
        let _ = std::fs::remove_dir(parent);
    }

    // --- report -------------------------------------------------------
    println!(
        "perfbench {} seed={} seconds={} trace={} wall={:.2}s",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        wall_s
    );
    let desc = descriptor(nav_width, serve_width);
    for (k, v) in &desc {
        println!("  machine {k}: {v}");
    }

    let mut metrics: Vec<(&'static str, &'static str, Summary)> = Vec::new();
    let mut missing = Vec::new();
    if args.trace {
        if let (Some(u), Some(t)) = (Summary::of(&untraced), Summary::of(&traced)) {
            let r = Ratio::new(t.median, u.median, "traced iteration s", "untraced iteration s");
            ctx.layer_samples.insert("obs.overhead_ratio", vec![r.or_zero()]);
            ctx.ratios.insert("obs.overhead_ratio", r);
        }
        let uncovered: f64 =
            windows.iter().map(|&(lo, hi)| spans::uncovered_s(ctx.tracer.spans(), lo, hi)).sum();
        ctx.layer_samples.insert("bench.uncovered_s", vec![uncovered]);
        let load = ctx.tracer.durations_s("graph.load");
        ctx.layer_samples.insert("graph.load_s", load);
        for (name, unit) in PER_LAYER {
            match ctx.layer_samples.get(name).and_then(|v| Summary::of(v)) {
                Some(s) => metrics.push((name, unit, s)),
                None => missing.push(name),
            }
        }
        print_layer_table(&ctx, &windows);
    } else {
        for (name, unit) in END_TO_END {
            let s = ctx
                .exact
                .get(name)
                .map(|v| Summary::exact(*v))
                .or_else(|| ctx.samples.get(name).and_then(|v| Summary::of(v)));
            match s {
                Some(s) => metrics.push((name, unit, s)),
                None => missing.push(name),
            }
        }
    }

    println!(
        "\n  {:<32} {:>8} {:>6} {:>12} {:>12} {:>12} {:>7}  tail",
        "metric", "unit", "n", "q1", "median", "q3", "spread"
    );
    for (name, unit, s) in &metrics {
        let tail = ctx
            .samples
            .get(name)
            .filter(|_| !args.trace)
            .and_then(|v| stats::tail(v))
            .map_or(String::new(), |(p, v)| format!("p{p} {}", fmt_num(v)));
        println!(
            "  {:<32} {:>8} {:>6} {:>12} {:>12} {:>12} {:>6.1}%  {tail}",
            name,
            unit,
            s.n,
            fmt_num(s.q1),
            fmt_num(s.median),
            fmt_num(s.q3),
            s.spread() * 100.0
        );
    }
    if !ctx.ratios.is_empty() {
        println!("\n  ratios with their bases (last traced iteration):");
        for (name, r) in &ctx.ratios {
            println!("    {name:<30} {r}");
        }
    }

    let failed_share = Ratio::new(
        (ctx.failed + ctx.rejected) as f64,
        ctx.attempted as f64,
        "failed+rejected",
        "attempted",
    );
    println!(
        "\n  attempted {} | rejected {} | failed {} | failed_share {}",
        ctx.attempted, ctx.rejected, ctx.failed, failed_share
    );
    for e in &ctx.errors {
        println!("  error: {e}");
    }
    for n in &ctx.notes {
        println!("  note: {n}");
    }
    for name in &missing {
        ctx.check("every metric measured", false, format!("no value for {name}"));
    }
    let nonfinite: Vec<&str> =
        metrics.iter().filter(|(_, _, s)| !s.median.is_finite()).map(|(n, _, _)| *n).collect();
    ctx.check("every metric is finite", nonfinite.is_empty(), nonfinite.join(", "));
    ctx.check("no operation failed", ctx.failed == 0 && ctx.attempted > 0, String::new());
    let correct = ctx.checks.iter().all(|c| c.failures == 0);
    println!("\n  checks:");
    for c in &ctx.checks {
        let verdict = if c.failures == 0 { "ok  " } else { "FAIL" };
        println!("    {verdict} {} ({} of {} failed) {}", c.name, c.failures, c.runs, c.detail);
    }

    write_outputs(&ctx, &out_dir, &desc, &metrics);

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, s)| {
            let v = if s.median.is_finite() { s.median } else { 0.0 };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.attempted,
        ctx.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per-layer inclusive and self time of the traced windows, and the
/// wall time no top-level span covers.
fn print_layer_table(ctx: &Ctx, windows: &[(f64, f64)]) {
    let spans = ctx.tracer.spans();
    let wall: f64 = windows.iter().map(|(lo, hi)| (hi - lo) / 1e6).sum();
    println!(
        "\n  traced wall {:.3}s over {} spans (set-up + traced iterations)",
        wall,
        spans.len()
    );
    println!(
        "  {:<8} {:>7} {:>12} {:>12} {:>7}",
        "layer", "spans", "inclusive_s", "self_s", "self%"
    );
    for row in spans::layer_table(spans) {
        println!(
            "  {:<8} {:>7} {:>12.4} {:>12.4} {:>6.1}%",
            row.layer,
            row.spans,
            row.inclusive_s,
            row.self_s,
            100.0 * row.self_s / wall.max(f64::MIN_POSITIVE)
        );
    }
    let uncovered: f64 = windows.iter().map(|&(lo, hi)| spans::uncovered_s(spans, lo, hi)).sum();
    println!(
        "  {:<8} {:>7} {:>12} {:>12.4} {:>6.1}%   (wall time outside every top-level span)",
        "(none)",
        "",
        "",
        uncovered,
        100.0 * uncovered / wall.max(f64::MIN_POSITIVE)
    );
}

/// Writes the full report (machine descriptor, every metric with its
/// sample count and quartiles) and, for traced runs, the span file.
fn write_outputs(
    ctx: &Ctx,
    out_dir: &std::path::Path,
    desc: &[(&'static str, String)],
    metrics: &[(&'static str, &'static str, Summary)],
) {
    let tag = format!("{}-trace{}", ctx.args.workload, u8::from(ctx.args.trace));
    let machine: Vec<String> =
        desc.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    let rows: Vec<String> = metrics
        .iter()
        .map(|(name, unit, s)| {
            format!(
                "    {}: {{\"unit\": {}, \"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}}}",
                json_str(name),
                json_str(unit),
                s.n,
                json_num(s.q1),
                json_num(s.median),
                json_num(s.q3)
            )
        })
        .collect();
    let report = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"machine\": {{{}}},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        json_str(&ctx.args.workload),
        ctx.args.seed,
        machine.join(", "),
        rows.join(",\n")
    );
    let mut written = Vec::new();
    let mut write = |name: String, body: &str| {
        let path = out_dir.join(name);
        match std::fs::create_dir_all(out_dir).and_then(|_| std::fs::write(&path, body)) {
            Ok(()) => written.push(path.display().to_string()),
            Err(e) => eprintln!("perfbench: {}: {e}", path.display()),
        }
    };
    write(format!("report-{tag}.json"), &report);
    if ctx.args.trace {
        write(
            format!("trace-{}.json", ctx.args.workload),
            &spans::chrome_trace(ctx.tracer.spans()),
        );
    }
    for path in written {
        println!("  wrote {path}");
    }
}
