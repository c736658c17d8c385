//! End-to-end and per-layer benchmark of the SENSS workspace.
//!
//! ```text
//! senss-perfbench --workload <figures-cold|figures-warm|serve-stream|serve-warm>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. It derives every `JobSpec` from
//! `--seed`, sets up, times requests for `--seconds`, checks every
//! output, and prints as its last stdout line one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A traced run spends half of `--seconds` untraced and
//! half with spans, so it can also report the tracing overhead. See
//! `perfbench/README.md` for the workloads, metrics and noise sources.

mod figures;
mod layers;
mod serve;
mod spans;

use spans::{Summary, Tracer};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The seed the committed digest oracle was generated with.
pub const DEFAULT_SEED: u64 = 1;

/// Fewest timed requests per run, so that p90 has at least ten samples
/// beyond it.
pub const MIN_REQUESTS: usize = 100;

/// Where spans and scratch caches go, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

/// Command-line settings.
#[derive(Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Config {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Timed requests of one run.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of every attempted request, in milliseconds.
    pub lat_ms: Vec<f64>,
    /// Job results delivered and checked correct.
    pub jobs_ok: u64,
    /// Requests that failed or whose outputs failed a check.
    pub failed: u64,
    /// Host seconds the timed requests took.
    pub wall_s: f64,
}

impl Phase {
    pub fn record(&mut self, latency: Duration, jobs: usize, ok: bool) {
        self.lat_ms.push(latency.as_secs_f64() * 1e3);
        if ok {
            self.jobs_ok += jobs as u64;
        } else {
            self.failed += 1;
        }
    }

    fn percentile(&self, q: f64) -> f64 {
        let mut v = self.lat_ms.clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, q)
    }
}

/// Nearest-rank percentile `q` of sorted values (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(0.0)
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Run {
    /// One sample per repeated set-up, in seconds.
    pub setup_s: Vec<f64>,
    pub phase: Phase,
    /// Failed output checks, by description.
    pub failures: Vec<String>,
    /// Exact work counts of one fixed unit of the workload (one pass,
    /// one fill, one round); identical on every run with a given seed.
    pub counts: BTreeMap<String, f64>,
    /// Request ids of that unit, for counts taken from spans.
    pub unit: Range<u64>,
    /// Mean serve round trip minus the same sweep's local
    /// `Harness::run` time, in milliseconds (traced runs).
    pub serve_wait_ms: f64,
}

impl Run {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("perfbench: check failed: {what}");
            self.failures.push(what);
        }
    }

    fn end_to_end(&self) -> Vec<(String, f64, &'static str)> {
        vec![
            ("setup_s".into(), median(&self.setup_s), "s"),
            (
                "jobs_per_s".into(),
                self.phase.jobs_ok as f64 / self.phase.wall_s,
                "1/s",
            ),
            ("rtt_p50_ms".into(), self.phase.percentile(0.5), "ms"),
            ("rtt_p90_ms".into(), self.phase.percentile(0.9), "ms"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        ]
    }
}

pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's only source of input randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A scratch directory under the output directory, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(cfg: &Config) -> std::io::Result<Scratch> {
        let dir = Path::new(OUT_DIR).join(format!("tmp-{}-{}", cfg.workload, std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn dir(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn parse_args() -> Result<(Config, bool), String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut write_oracle = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--write-oracle" {
            write_oracle = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(cfg.seconds > 0.0 && cfg.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok((cfg, write_oracle))
}

fn run_workload(cfg: &Config, tracer: Option<&Tracer>) -> std::io::Result<Run> {
    match cfg.workload.as_str() {
        "figures-cold" => figures::cold(cfg, tracer),
        "figures-warm" => figures::warm(cfg, tracer),
        "serve-stream" => serve::stream(cfg, tracer),
        "serve-warm" => serve::warm(cfg, tracer),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "unknown workload {other:?} (figures-cold, figures-warm, serve-stream, serve-warm)"
            ),
        )),
    }
}

fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
fn layer_metrics(s: &Summary, run: &Run, base: &Run) -> Vec<(String, f64, &'static str)> {
    let all = |_: u64| true;
    let unit = |r: u64| run.unit.contains(&r);
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let gen = s.group("workloads.gen", None, all);
    let jobs = s.group("sim.run_counting", None, all);
    m.push((
        "workloads.gen_ms".into(),
        per(gen.ns as f64 / 1e6, gen.count),
        "ms",
    ));
    m.push((
        "workloads.gen_share".into(),
        per(gen.ns as f64, jobs.ns),
        "ratio",
    ));
    let build = s.group("sim.build_system", None, all);
    for (_, short) in layers::MODES {
        let g = s.group("workloads.gen", Some(short), all);
        let r = s.group("sim.run_counting", Some(short), all);
        let ns_per_event = per(r.ns.saturating_sub(g.ns) as f64, r.work);
        let events = s.group("sim.run_counting", Some(short), unit).work as f64;
        if short == "baseline" {
            m.push(("sim.ns_per_event".into(), ns_per_event, "ns"));
            m.push((
                "sim.build_ms".into(),
                per(build.ns as f64 / 1e6, build.count),
                "ms",
            ));
            m.push(("sim.events".into(), events, "count"));
            for k in ["sim.ops", "sim.bus_txns"] {
                m.push((k.into(), run.counts.get(k).copied().unwrap_or(0.0), "count"));
            }
        } else {
            m.push((format!("ext.{short}.ns_per_event"), ns_per_event, "ns"));
            m.push((format!("ext.{short}.events"), events, "count"));
        }
    }
    let mean_ms = |name: &str| {
        let g = s.group(name, None, all);
        per(g.ns as f64 / 1e6, g.count)
    };
    let per_work_us = |name: &str| {
        let g = s.group(name, None, all);
        per(g.ns as f64 / 1e3, g.work)
    };
    let count = |k: &str| run.counts.get(k).copied().unwrap_or(0.0);
    let hrun = s.group("harness.run", None, all);
    m.extend([
        (
            "harness.cache_open_ms".into(),
            mean_ms("harness.cache_open"),
            "ms",
        ),
        (
            "harness.cache_lines".into(),
            count("harness.cache_lines"),
            "count",
        ),
        (
            "harness.cache_key_us".into(),
            per_work_us("harness.cache_key"),
            "us",
        ),
        (
            "harness.cache_put_us".into(),
            per_work_us("harness.cache_put"),
            "us",
        ),
        (
            "harness.record_codec_us".into(),
            per_work_us("harness.record_codec"),
            "us",
        ),
        (
            "harness.overhead_ms".into(),
            per(hrun.self_ns as f64 / 1e6, hrun.count),
            "ms",
        ),
        (
            "harness.hit_ratio".into(),
            count("harness.hit_ratio"),
            "ratio",
        ),
        ("serve.submit_ms".into(), mean_ms("serve.submit"), "ms"),
        (
            "serve.first_line_ms".into(),
            mean_ms("serve.first_line"),
            "ms",
        ),
        ("serve.tail_ms".into(), mean_ms("serve.tail"), "ms"),
        ("serve.wait_ms".into(), run.serve_wait_ms, "ms"),
        ("serve.codec_us".into(), mean_ms("serve.codec") * 1e3, "us"),
        (
            "serve.jobs_executed".into(),
            count("serve.jobs_executed"),
            "count",
        ),
        (
            "serve.jobs_cached".into(),
            count("serve.jobs_cached"),
            "count",
        ),
    ]);
    let traced = run.end_to_end();
    let untraced = base.end_to_end();
    for (i, unit) in [(1, "1/s"), (2, "ms"), (3, "ms")] {
        let name = format!("overhead.{}", traced[i].0);
        m.push((name, traced[i].1 - untraced[i].1, unit));
    }
    m
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_json(
    correct: bool,
    attempted: usize,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn counts_json(counts: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Pins glibc malloc to one arena. The harness starts a worker thread
/// per `Harness::run`; when one starts before the previous one has
/// finished exiting, glibc gives it a fresh arena, and the old arena's
/// pages stay resident. Peak RSS then read 17 MB or 29 MB for the same
/// work, depending on thread timing and request order. With one arena
/// it repeats, but it no longer shows that arena growth, and the time
/// metrics are those of a one-arena allocator. `perfbench/README.md`
/// compares both with and without the pin.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn one_malloc_arena() {
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only sets an allocator parameter, takes two
    // plain integers, and runs here before this process starts any
    // other thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn one_malloc_arena() {}

fn main() {
    one_malloc_arena();
    let (cfg, write_oracle) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if write_oracle {
        figures::write_oracle();
        return;
    }
    match bench(&cfg) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload);
            std::process::exit(1);
        }
    }
}

fn bench(cfg: &Config) -> std::io::Result<String> {
    std::fs::create_dir_all(OUT_DIR)?;
    let half = Config {
        seconds: cfg.seconds / 2.0,
        ..cfg.clone()
    };
    let base = run_workload(if cfg.trace { &half } else { cfg }, None)?;
    let mut counts = base.counts.clone();
    let mut failures = base.failures.clone();
    let (attempted, failed, metrics) = if cfg.trace {
        let tracer = Tracer::new();
        let run = run_workload(&half, Some(&tracer))?;
        for (k, v) in &run.counts {
            if let Some(b) = base.counts.get(k) {
                if b != v {
                    failures.push(format!("count {k} read {b} untraced but {v} traced"));
                }
            }
            counts.insert(k.clone(), *v);
        }
        failures.extend(run.failures.iter().cloned());
        let spans_path = span_path(cfg);
        tracer.write_jsonl(&spans_path)?;
        let summary = Summary::new(tracer.spans());
        eprintln!("self time by span ({}):", spans_path.display());
        for (name, g) in summary.self_time_table() {
            eprintln!(
                "  {name:<32} n={:<7} total={:>10.3}ms self={:>10.3}ms",
                g.count,
                g.ns as f64 / 1e6,
                g.self_ns as f64 / 1e6
            );
        }
        let metrics = layer_metrics(&summary, &run, &base);
        for (k, v, _) in &metrics {
            if k.ends_with(".events") || k == "sim.ops" || k == "sim.bus_txns" {
                counts.insert(k.clone(), *v);
            }
        }
        (
            base.phase.lat_ms.len() + run.phase.lat_ms.len(),
            base.phase.failed + run.phase.failed,
            metrics,
        )
    } else {
        (
            base.phase.lat_ms.len(),
            base.phase.failed,
            base.end_to_end(),
        )
    };
    println!("counts {}", counts_json(&counts));
    let correct = failures.is_empty() && failed == 0 && attempted > 0;
    Ok(result_json(correct, attempted, failed, &metrics))
}

fn span_path(cfg: &Config) -> PathBuf {
    Path::new(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", cfg.workload, cfg.seed))
}
