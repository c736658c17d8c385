//! Calls into the layers, timed from outside.
//!
//! Every per-layer number comes from a span around a call into a
//! crate's public API: `JobSpec::traces` (senss-workloads),
//! `JobSpec::build_system` / `JobSpec::run_counting` (senss-sim and the
//! extension crates behind it), `ResultCache`, `JobSpec::cache_key`,
//! `RunRecord` and `Harness::run_with` (senss-harness). Untraced runs
//! take the production path, `Harness::run`, and nothing else.

use crate::spans::Scope;
use crate::Run;
use senss_crypto::sha256::Sha256;
use senss_harness::json;
use senss_harness::record::encode_stats;
use senss_harness::{
    Harness, JobSpec, ResultCache, RunRecord, SecurityMode, SweepResult, SweepSpec,
};
use senss_sim::Stats;
use senss_workloads::Workload;
use std::hint::black_box;
use std::path::Path;

/// The six security modes of a figure panel: the paper's baseline,
/// SENSS and the integrated stack, plus the three competing backends.
/// The second field names the mode in metric names (`ext.<short>.*`).
pub const MODES: [(&str, &str); 6] = [
    ("baseline", "baseline"),
    ("senss:m8:i100:cbc", "senss"),
    ("integrated:m8:i100:cbc", "integrated"),
    ("servas:m8", "servas"),
    ("sealer:i100", "sealer"),
    ("scattered:n3", "scattered"),
];

/// Processor counts of the Fig. 6–10 grid.
pub const CORES: [usize; 4] = [4, 8, 16, 32];

/// The paper's 1 MB L2.
pub const L2_BYTES: usize = 1 << 20;

/// The short metric name of a job's mode.
pub fn mode_short(mode: &SecurityMode) -> &'static str {
    let tag = mode.tag();
    MODES
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, short)| *short)
        .expect("benchmark jobs only use the panel modes")
}

/// One figure panel: a (workload, P) point with all six modes.
/// `ops_per_core` is set per panel by the caller.
pub fn panel(
    name: String,
    workload: Workload,
    cores: usize,
    ops_per_core: usize,
    seed: u64,
) -> SweepSpec {
    let mut sweep = SweepSpec::new(&name);
    for (tag, _) in MODES {
        let mode = SecurityMode::from_tag(tag).expect("panel mode tags parse");
        sweep.push(
            JobSpec::new(workload, cores, L2_BYTES)
                .with_mode(mode)
                .with_ops(ops_per_core)
                .with_seed(seed),
        );
    }
    sweep
}

/// Hex SHA-256 of a job's canonical Stats encoding.
pub fn stats_digest(stats: &Stats) -> String {
    Sha256::digest(encode_stats(stats).encode().as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// The job runner of a traced request: times trace generation, system
/// construction and the counted run of each job as separate spans.
/// `run_counting` regenerates the traces itself, so the simulator's
/// share of a job is its span minus the job's `workloads.gen` span.
pub fn traced_job(scope: Scope<'_>, spec: &JobSpec) -> Stats {
    let mode = mode_short(&spec.mode);
    scope.span("job", |s| {
        s.span_work("workloads.gen", mode, |_| (black_box(spec.traces()), 1));
        s.span_work("sim.build_system", mode, |_| {
            (black_box(spec.build_system()), 1)
        });
        s.span_work("sim.run_counting", mode, |_| spec.run_counting())
    })
}

/// Scratch state a traced request touches: the directory of the cache
/// under test, and a separate cache that only absorbs timed `put`s.
pub struct Probes<'p> {
    pub cache_dir: &'p Path,
    pub put_cache: &'p mut ResultCache,
}

/// One request: a `Harness::run` of `sweep`. Traced requests time the
/// harness layer's parts around it: opening the cache, hashing the
/// cache keys, the run itself (jobs as child spans, so the run's self
/// time is harness overhead), the record codec and cache appends.
pub fn run_request(
    harness: &Harness,
    probes: &mut Probes<'_>,
    sweep: &SweepSpec,
    scope: Scope<'_>,
) -> std::io::Result<SweepResult> {
    if !scope.traced() {
        return harness.run(sweep);
    }
    let jobs = sweep.jobs.len() as u64;
    scope.span("harness.cache_open", |_| {
        ResultCache::open(probes.cache_dir).map(black_box)
    })?;
    scope.span_work("harness.cache_key", "", |_| {
        let keys: Vec<String> = sweep.jobs.iter().map(JobSpec::cache_key).collect();
        (black_box(keys), jobs)
    });
    let result = scope.span("harness.run", |s| {
        harness.run_with(sweep, |spec| traced_job(s, spec))
    })?;
    let records = result.records.len() as u64;
    let codec_ok = scope.span_work("harness.record_codec", "", |_| {
        let same = result.records.iter().all(|rec| {
            let back = json::parse(&rec.encode())
                .ok()
                .and_then(|v| RunRecord::decode(&v));
            back.as_ref() == Some(rec)
        });
        (same, records)
    });
    if !codec_ok {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "a RunRecord changed in an encode/decode round trip",
        ));
    }
    scope.span_work("harness.cache_put", "", |_| {
        let put = result
            .records
            .iter()
            .try_for_each(|rec| probes.put_cache.put(&rec.key, &rec.stats));
        (put, records)
    })?;
    Ok(result)
}

/// Checks that a sweep result is complete: one record per job, in
/// order, for the job that was asked for.
pub fn complete(sweep: &SweepSpec, result: &SweepResult) -> bool {
    result.failures.is_empty()
        && result.records.len() == sweep.jobs.len()
        && result
            .records
            .iter()
            .enumerate()
            .all(|(i, r)| r.index == i && r.spec == sweep.jobs[i])
}

/// Exact counts of the baseline jobs of one unit of work.
pub fn sim_counts(run: &mut Run, records: &[RunRecord]) {
    let base = records.iter().filter(|r| r.spec.mode.tag() == MODES[0].0);
    let (ops, txns) = base.fold((0, 0), |(o, t), r| {
        (o + r.stats.ops_executed, t + r.stats.total_transactions())
    });
    run.counts.insert("sim.ops".into(), ops as f64);
    run.counts.insert("sim.bus_txns".into(), txns as f64);
}
