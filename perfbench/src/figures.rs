//! `figures-cold` and `figures-warm`: regenerating the paper's
//! Fig. 6–10 grid through the harness, one panel per request.

use crate::layers::{
    self, complete, run_request, sim_counts, stats_digest, traced_job, Probes, CORES,
};
use crate::spans::{Scope, Tracer};
use crate::{serve, Config, Rng, Run, Scratch, DEFAULT_SEED, MIN_REQUESTS};
use senss_harness::{Harness, HarnessConfig, ResultCache, RunRecord, SweepResult, SweepSpec};
use senss_sim::Stats;
use senss_workloads::Workload;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Trace operations per cold job, split evenly across its cores, so a
/// 32P panel costs about as much as a 4P one. Each (workload, P) point
/// appears once per size: with 60 panels of many different costs, the
/// latency distribution has no wide gap for p90 to straddle.
const COLD_OPS: [usize; 3] = [12_000, 16_000, 20_000];

/// Trace operations per warm (fill) job.
const WARM_OPS: usize = 2_000;

/// Seed variants of the grid in the warm cache: 5 × 120 = 600 lines.
const WARM_VARIANTS: u64 = 5;

/// figures-warm's fill is repeated this many times per run; `setup_s`
/// is the median.
const SETUP_REPEATS: usize = 5;

/// Panels of a traced run that are also sent through a loopback server.
const PROBE_PANELS: usize = 4;

/// Name of the set-up canary panel.
const CANARY: &str = "12k-fft-4p";

/// Request id of the traced warm fill.
const FILL_REQ: u64 = 1 << 40;

/// Digests of every cold job's Stats for [`DEFAULT_SEED`], one
/// `<panel> <mode> <sha256>` line per job.
const ORACLE: &str = include_str!("../oracle/figures-cold-seed1.txt");

/// The 20 panels (5 workloads × 4 processor counts) of one grid,
/// workload-major.
fn grid(prefix: &str, seed: u64, total_ops: usize) -> Vec<SweepSpec> {
    let mut rng = Rng::new(seed);
    let mut panels = Vec::new();
    for w in Workload::all() {
        for p in CORES {
            let name = format!("{prefix}{}-{p}p", w.name());
            panels.push(layers::panel(name, w, p, total_ops / p, rng.next_u64()));
        }
    }
    panels
}

/// One pass of figures-cold: the grid at every size in [`COLD_OPS`],
/// shuffled once by the seed so that any prefix of a pass (the last
/// one of a run is cut short) is a fair sample of it.
fn cold_panels(seed: u64) -> Vec<SweepSpec> {
    let mut panels: Vec<SweepSpec> = (0u64..)
        .zip(COLD_OPS)
        .flat_map(|(v, ops)| {
            grid(
                &format!("{}k-", ops / 1000),
                seed.wrapping_add(v << 32),
                ops,
            )
        })
        .collect();
    let mut rng = Rng::new(!seed);
    for i in (1..panels.len()).rev() {
        panels.swap(i, rng.below(i + 1));
    }
    panels
}

/// The set-up canary: the cheapest panel of the default seed.
fn canary() -> SweepSpec {
    cold_panels(DEFAULT_SEED)
        .into_iter()
        .find(|p| p.name == CANARY)
        .expect("the canary is a panel of the cold grid")
}

/// `variants` seed variants of the grid at [`WARM_OPS`] per job.
pub fn warm_panels(seed: u64, variants: u64) -> Vec<SweepSpec> {
    (0..variants)
        .flat_map(|v| grid(&format!("v{v}-"), seed.wrapping_add(v << 32), WARM_OPS))
        .collect()
}

/// A one-worker harness caching under `dir`.
fn harness_at(dir: &Path) -> Harness {
    Harness::new(HarnessConfig::hermetic().with_cache_dir(dir))
}

fn oracle() -> HashMap<String, String> {
    ORACLE
        .lines()
        .filter_map(|l| l.rsplit_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn oracle_matches(
    oracle: &HashMap<String, String>,
    sweep: &SweepSpec,
    result: &SweepResult,
) -> bool {
    result.records.iter().all(|r| {
        let key = format!("{} {}", sweep.name, r.spec.mode.tag());
        oracle.get(&key) == Some(&stats_digest(&r.stats))
    })
}

/// Prints the digest oracle of the default seed's cold grid.
pub fn write_oracle() {
    let harness = Harness::new(HarnessConfig::hermetic());
    for sweep in cold_panels(DEFAULT_SEED) {
        let result = harness
            .run(&sweep)
            .expect("an uncached harness does no I/O");
        assert!(complete(&sweep, &result), "panel {} failed", sweep.name);
        for r in &result.records {
            println!(
                "{} {} {}",
                sweep.name,
                r.spec.mode.tag(),
                stats_digest(&r.stats)
            );
        }
    }
}

/// `figures-cold`: every panel simulates from scratch. Each request
/// writes a fresh, initially empty cache, so the cache is written and
/// never hit, and no request pays for parsing an earlier one's lines.
pub fn cold(cfg: &Config, tracer: Option<&Tracer>) -> std::io::Result<Run> {
    let scratch = Scratch::new(cfg)?;
    let oracle = oracle();
    let mut run = Run::default();
    // Set-up is building the panels and a harness. It takes tens of
    // microseconds, a single sample of a host whose speed drifts over
    // seconds, so it is repeated after every timed request as well and
    // `setup_s` is the median over the whole run.
    let set_up = |run: &mut Run| {
        let t = Instant::now();
        let panels = black_box(cold_panels(cfg.seed));
        black_box(harness_at(&scratch.dir("setup")));
        run.setup_s.push(t.elapsed().as_secs_f64());
        panels
    };
    let panels = set_up(&mut run);
    // Untimed: one canary panel of the default seed warms the process
    // and checks the simulator against the committed digests whatever
    // the seed.
    let canary = &canary();
    let result = harness_at(&scratch.dir("canary")).run(canary)?;
    let ok = complete(canary, &result) && oracle_matches(&oracle, canary, &result);
    run.check(ok, || {
        format!(
            "canary panel {} differs from the committed digests",
            canary.name
        )
    });

    let mut put_cache = ResultCache::open(&scratch.dir("put-probe"))?;
    let mut expected: Vec<Vec<String>> = Vec::new();
    let mut first_pass: Vec<RunRecord> = Vec::new();
    let mut first_pass_lines = 0usize;
    let mut req = 0usize;
    let start = Instant::now();
    loop {
        let i = req % panels.len();
        let dir = scratch.dir(&format!("req{req}"));
        let harness = harness_at(&dir);
        let sweep = &panels[i];
        let mut probes = Probes {
            cache_dir: &dir,
            put_cache: &mut put_cache,
        };
        let t = Instant::now();
        let result = run_request(
            &harness,
            &mut probes,
            sweep,
            Scope::root(tracer, req as u64),
        );
        let latency = t.elapsed();
        let ok = match result {
            Ok(result) => {
                let digests: Vec<String> = result
                    .records
                    .iter()
                    .map(|r| stats_digest(&r.stats))
                    .collect();
                let mut ok = complete(sweep, &result)
                    && result.executed == sweep.len()
                    && result.cached == 0;
                if req < panels.len() {
                    expected.push(digests.clone());
                    first_pass.extend(result.records.iter().cloned());
                } else {
                    ok &= digests == expected[i];
                }
                if cfg.seed == DEFAULT_SEED {
                    ok &= oracle_matches(&oracle, sweep, &result);
                }
                // Re-opening the request's cache must return exactly
                // the Stats the request computed.
                let cache = ResultCache::open(&dir)?;
                let mut same = cache.skipped() == 0 && cache.len() == sweep.len();
                for (spec, digest) in sweep.jobs.iter().zip(&digests) {
                    same &= cache.get(&spec.cache_key()).map(stats_digest).as_ref() == Some(digest);
                }
                run.check(same, || {
                    format!("re-opened cache of request {req} differs from its results")
                });
                if req < panels.len() {
                    first_pass_lines += cache.len();
                }
                ok && same
            }
            Err(e) => {
                eprintln!("perfbench: panel {}: {e}", sweep.name);
                if req < panels.len() {
                    expected.push(Vec::new());
                }
                false
            }
        };
        std::fs::remove_dir_all(&dir)?;
        run.phase.record(latency, sweep.len(), ok);
        let again = set_up(&mut run);
        run.check(again == panels, || "set-up built different panels".into());
        req += 1;
        if req >= MIN_REQUESTS && start.elapsed() >= cfg.budget() {
            break;
        }
    }
    run.phase.wall_s = start.elapsed().as_secs_f64();

    run.counts
        .insert("harness.cache_lines".into(), first_pass_lines as f64);
    run.counts.insert("harness.hit_ratio".into(), 0.0);
    sim_counts(&mut run, &first_pass);
    run.unit = 0..panels.len() as u64;

    if tracer.is_some() {
        serve::probe(
            &panels[..PROBE_PANELS],
            &scratch.dir("probe-server"),
            &scratch.dir("probe-local"),
            tracer,
            &mut run,
        )?;
    }
    Ok(run)
}

/// `figures-warm`: set-up fills a cache with several seed variants of
/// a small grid; every timed request is then answered from it.
pub fn warm(cfg: &Config, tracer: Option<&Tracer>) -> std::io::Result<Run> {
    let scratch = Scratch::new(cfg)?;
    let mut run = Run::default();
    let mut panels = Vec::new();
    let mut filled: HashMap<String, Stats> = HashMap::new();
    let mut dir = PathBuf::new();
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        panels = warm_panels(cfg.seed, WARM_VARIANTS);
        let mut fill = SweepSpec::new("warm-fill");
        fill.jobs = panels.iter().flat_map(|p| p.jobs.iter().copied()).collect();
        dir = scratch.dir(&format!("fill{i}"));
        let harness = harness_at(&dir);
        // Only the last fill is traced, so its spans are one exact unit.
        let result = match tracer.filter(|_| i + 1 == SETUP_REPEATS) {
            Some(tr) => harness.run_with(&fill, |spec| {
                traced_job(Scope::root(Some(tr), FILL_REQ), spec)
            })?,
            None => harness.run(&fill)?,
        };
        run.setup_s.push(t.elapsed().as_secs_f64());
        run.check(
            complete(&fill, &result) && result.executed == fill.len(),
            || format!("fill {i} did not execute every job"),
        );
        sim_counts(&mut run, &result.records);
        filled = result
            .records
            .into_iter()
            .map(|r| (r.key, r.stats))
            .collect();
    }

    let harness = harness_at(&dir);
    let mut put_cache = ResultCache::open(&scratch.dir("put-probe"))?;
    let mut first_cycle_hits = 0usize;
    let mut req = 0usize;
    let start = Instant::now();
    loop {
        let sweep = &panels[req % panels.len()];
        let mut probes = Probes {
            cache_dir: &dir,
            put_cache: &mut put_cache,
        };
        let t = Instant::now();
        let result = run_request(
            &harness,
            &mut probes,
            sweep,
            Scope::root(tracer, req as u64),
        );
        let latency = t.elapsed();
        let ok = match result {
            Ok(result) => {
                if req < panels.len() {
                    first_cycle_hits += result.cached;
                }
                complete(sweep, &result)
                    && result.cached == sweep.len()
                    && result
                        .records
                        .iter()
                        .all(|r| filled.get(&r.key) == Some(&r.stats))
            }
            Err(e) => {
                eprintln!("perfbench: panel {}: {e}", sweep.name);
                false
            }
        };
        run.phase.record(latency, sweep.len(), ok);
        req += 1;
        if req >= MIN_REQUESTS.max(panels.len()) && start.elapsed() >= cfg.budget() {
            break;
        }
    }
    run.phase.wall_s = start.elapsed().as_secs_f64();

    let lines = ResultCache::open(&dir)?.len();
    run.check(lines == filled.len(), || {
        format!("warm cache holds {lines} entries, filled {}", filled.len())
    });
    run.counts
        .insert("harness.cache_lines".into(), lines as f64);
    let jobs: usize = panels.iter().map(SweepSpec::len).sum();
    run.counts.insert(
        "harness.hit_ratio".into(),
        first_cycle_hits as f64 / jobs as f64,
    );
    run.unit = FILL_REQ..FILL_REQ + 1;

    if tracer.is_some() {
        serve::probe(&panels[..PROBE_PANELS], &dir, &dir, tracer, &mut run)?;
    }
    Ok(run)
}
