//! `serve-stream` and `serve-warm`: submit→stream round trips against
//! an in-process loopback `Server`, plus the small serve probe that
//! traced figure runs make so that every traced run reports the serve
//! layer.

use crate::layers::{self, complete, run_request, sim_counts, traced_job, Probes};
use crate::spans::{Scope, Tracer};
use crate::{figures, percentile, Config, Rng, Run, Scratch, MIN_REQUESTS};
use senss_harness::{Harness, HarnessConfig, ResultCache, RunRecord, SweepResult, SweepSpec};
use senss_serve::protocol::result_line;
use senss_serve::{Client, ClientError, Request, Response, Server, ServerConfig};
use senss_workloads::Workload;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Closed-loop client connections, each on its own thread.
const CLIENTS: usize = 2;

/// Requests each serve-stream client sends per round. A round starts a
/// fresh server with an empty cache, so the cache the server re-reads
/// on every sweep stays small and rtt does not drift upwards through a
/// run.
const REQUESTS_PER_CLIENT: usize = 20;

/// Every `REPEAT_EVERY`-th request of a serve-stream client repeats one
/// of its own earlier sweeps, which the server then answers from its
/// cache.
const REPEAT_EVERY: usize = 4;

/// Shape of every serve-stream request: one 4P panel (all six modes) at
/// a small op count, with a fresh workload and seed.
const SERVE_CORES: usize = 4;
const SERVE_OPS: usize = 100;

/// The server's event-loop tick (`POLL_TICK` in senss-serve): streamed
/// lines leave on a tick, so rtt clusters on multiples of it. Used only
/// to print the rtt step histogram.
const TICK_MS: f64 = 25.0;

/// Seed variants of the figure grid in serve-warm's cache: one, 120
/// lines. At about 35 µs a line, re-reading them takes about 4 ms a
/// sweep, so even two queued sweeps on a host running at half speed
/// finish within one tick.
const WARM_VARIANTS: u64 = 1;

/// Request ids of the traced local re-run, of the serve probe and of
/// serve-warm's traced fill.
const VERIFY_REQ: u64 = 1 << 41;
const PROBE_REQ: u64 = 1 << 42;
const WARM_FILL_REQ: u64 = 1 << 43;

fn requests(seed: u64) -> Vec<Vec<SweepSpec>> {
    let mut rng = Rng::new(seed);
    (0..CLIENTS)
        .map(|c| {
            let mut list: Vec<SweepSpec> = Vec::new();
            for i in 0..REQUESTS_PER_CLIENT {
                if i % REPEAT_EVERY == REPEAT_EVERY - 1 {
                    let fresh: Vec<usize> = (0..i)
                        .filter(|k| k % REPEAT_EVERY != REPEAT_EVERY - 1)
                        .collect();
                    let again = list[fresh[rng.below(fresh.len())]].clone();
                    list.push(again);
                } else {
                    let workload = Workload::all()[rng.below(Workload::all().len())];
                    let name = format!("serve-c{c}-r{i}");
                    list.push(layers::panel(
                        name,
                        workload,
                        SERVE_CORES,
                        SERVE_OPS,
                        rng.next_u64(),
                    ));
                }
            }
            list
        })
        .collect()
}

fn io_err(e: ClientError) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// Starts a loopback server with one harness worker caching under
/// `cache`, and returns it with a client that never retries (a refused
/// submit is a failed request).
fn start(cache: &Path) -> std::io::Result<(Server, Client)> {
    let harness = HarnessConfig::hermetic().with_cache_dir(cache);
    let server = Server::start(ServerConfig::loopback().with_harness(harness))?;
    let client = Client::new(server.addr().to_string())
        .with_timeout(Duration::from_secs(60))
        .with_retry(0, Duration::ZERO);
    client.ping().map_err(io_err)?;
    Ok((server, client))
}

/// `Request`/`Response` encode+decode of the frames one request uses.
fn codec_round_trip(sweep: &SweepSpec) -> bool {
    let submit = Request::Submit {
        sweep: sweep.clone(),
        indices: None,
    };
    let jobs = sweep.len() as u64;
    let replies = [
        Response::Submitted { id: 1, jobs },
        Response::End { id: 1, count: jobs },
    ];
    Request::decode(&submit.encode()).ok() == Some(submit)
        && replies
            .into_iter()
            .all(|r| Response::decode(&r.encode()).ok() == Some(r))
}

/// One round trip: `submit`, then `stream` until the end frame. Returns
/// the round-trip time and the streamed record lines.
fn round_trip(
    client: &Client,
    sweep: &SweepSpec,
    scope: Scope<'_>,
) -> (Duration, Result<Vec<String>, ClientError>) {
    let t = Instant::now();
    let lines = scope.span("serve.request", |s| {
        let (id, _) = s.span("serve.submit", |_| client.submit(sweep))?;
        let opened = Instant::now();
        let mut first = None;
        let mut lines = Vec::with_capacity(sweep.len());
        client.stream_with(id, |line| {
            first.get_or_insert_with(Instant::now);
            lines.push(line.to_string());
        })?;
        let end = Instant::now();
        let first = first.unwrap_or(end);
        s.record("serve.first_line", opened, first);
        s.record("serve.tail", first, end);
        Ok(lines)
    });
    let rtt = t.elapsed();
    if scope.traced() && !scope.span("serve.codec", |_| codec_round_trip(sweep)) {
        return (
            rtt,
            Err(ClientError::Protocol(
                "frame codec round trip changed a frame".into(),
            )),
        );
    }
    (rtt, lines)
}

/// A local `Harness::run` of `sweep`: the lines a server must stream
/// for it, the run's result, and how long the run took.
fn local_run(
    harness: &Harness,
    sweep: &SweepSpec,
) -> std::io::Result<(Vec<String>, SweepResult, Duration)> {
    let t = Instant::now();
    let result = harness.run(sweep)?;
    let took = t.elapsed();
    if !complete(sweep, &result) {
        return Err(std::io::Error::other(format!(
            "local run of {} failed",
            sweep.name
        )));
    }
    Ok((
        result.records.iter().map(result_line).collect(),
        result,
        took,
    ))
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn job_counts(client: &Client) -> std::io::Result<(f64, f64)> {
    let m = client.metrics().map_err(io_err)?;
    let get = |k: &str| m.get(k).and_then(|v| v.as_u64()).unwrap_or(0) as f64;
    Ok((get("jobs_executed"), get("jobs_cached")))
}

/// `(client, request, rtt, streamed lines)` of one round trip.
type Outcome = (usize, usize, Duration, Result<Vec<String>, ClientError>);

struct Round {
    setup: Duration,
    wall: Duration,
    results: Vec<Outcome>,
    /// `(jobs_executed, jobs_cached)` from the server's `metrics` reply.
    jobs: (f64, f64),
}

fn round(
    reqs: &[Vec<SweepSpec>],
    cache: &Path,
    tracer: Option<&Tracer>,
    r: usize,
) -> std::io::Result<Round> {
    let t = Instant::now();
    let (server, client) = start(cache)?;
    let setup = t.elapsed();
    let start = Instant::now();
    let results = std::thread::scope(|s| {
        let threads: Vec<_> = reqs
            .iter()
            .enumerate()
            .map(|(c, list)| {
                let client = client.clone();
                s.spawn(move || {
                    let mut out = Vec::with_capacity(list.len());
                    for (i, sweep) in list.iter().enumerate() {
                        let id = ((r as u64) << 16) | ((c as u64) << 8) | i as u64;
                        let (rtt, lines) = round_trip(&client, sweep, Scope::root(tracer, id));
                        out.push((c, i, rtt, lines));
                    }
                    out
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let jobs = job_counts(&client)?;
    server.shutdown();
    Ok(Round {
        setup,
        wall,
        results,
        jobs,
    })
}

/// Prints how many round trips fell in each tick-sized rtt step, and
/// in which step p50 and p90 sit.
fn print_steps(lat_ms: &[f64]) {
    let mut sorted = lat_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (p50, p90) = (percentile(&sorted, 0.5), percentile(&sorted, 0.9));
    let steps = (sorted.last().copied().unwrap_or(0.0) / TICK_MS) as usize + 1;
    let mut hist = vec![0usize; steps];
    for v in &sorted {
        hist[(v / TICK_MS) as usize] += 1;
    }
    eprintln!(
        "rtt steps of {TICK_MS} ms ({} round trips, p50 {p50:.2} ms, p90 {p90:.2} ms):",
        sorted.len()
    );
    for (k, n) in hist.iter().enumerate().filter(|(_, n)| **n > 0) {
        let lo = k as f64 * TICK_MS;
        let mark = [(p50, " <- p50"), (p90, " <- p90")]
            .iter()
            .filter(|(p, _)| (p / TICK_MS) as usize == k)
            .map(|(_, m)| *m)
            .collect::<String>();
        eprintln!(
            "  [{lo:>4.0}, {:>4.0}) ms {n:>6} {:>6.1}%{mark}",
            lo + TICK_MS,
            100.0 * *n as f64 / sorted.len() as f64
        );
    }
}

/// The lines a server must stream for each request, with the local
/// run's time: `reqs` through a local one-worker harness, in each
/// client's order, so repeats hit its cache as they do on the server.
type Expected = Vec<Vec<(Vec<String>, Duration)>>;

/// Runs `reqs` through `local` and returns the expected lines, the
/// records that were executed (not cached), and the hit ratio.
fn expect(
    local: &Harness,
    reqs: &[Vec<SweepSpec>],
) -> std::io::Result<(Expected, Vec<RunRecord>, f64)> {
    let mut expected = Vec::new();
    let mut executed = Vec::new();
    let (mut hits, mut jobs) = (0, 0);
    for list in reqs {
        let mut mine = Vec::new();
        for sweep in list {
            let (lines, result, took) = local_run(local, sweep)?;
            hits += result.cached;
            jobs += sweep.len();
            executed.extend(result.records.into_iter().filter(|r| !r.cached));
            mine.push((lines, took));
        }
        expected.push(mine);
    }
    Ok((expected, executed, hits as f64 / jobs as f64))
}

/// Rounds of closed-loop round trips until the time budget is spent,
/// each against a fresh server caching under `cache(round)`. Every
/// streamed line is checked, between rounds, against `expected`, and
/// every round must report the same executed/cached job counts, which
/// are returned.
fn timed_rounds(
    cfg: &Config,
    reqs: &[Vec<SweepSpec>],
    expected: &Expected,
    cache: impl Fn(usize) -> PathBuf,
    tracer: Option<&Tracer>,
    run: &mut Run,
) -> std::io::Result<(f64, f64)> {
    let mut first_jobs = None;
    let mut waits = Vec::new();
    let mut timed = Duration::ZERO;
    let per_round: usize = reqs.iter().map(Vec::len).sum();
    let mut r = 0;
    while timed < cfg.budget() || r * per_round < MIN_REQUESTS {
        let out = round(reqs, &cache(r), tracer, r)?;
        run.setup_s.push(out.setup.as_secs_f64());
        timed += out.wall;
        for (c, i, rtt, lines) in out.results {
            let (want, local_took) = &expected[c][i];
            let ok = match lines {
                Ok(lines) => &lines == want,
                Err(e) => {
                    eprintln!("perfbench: round {r} client {c} request {i}: {e}");
                    false
                }
            };
            run.phase.record(rtt, reqs[c][i].len(), ok);
            waits.push(rtt.as_secs_f64() * 1e3 - local_took.as_secs_f64() * 1e3);
        }
        let first = *first_jobs.get_or_insert(out.jobs);
        run.check(out.jobs == first, || {
            format!(
                "round {r} executed/cached {:?}, round 0 {first:?}",
                out.jobs
            )
        });
        r += 1;
    }
    run.phase.wall_s = timed.as_secs_f64();
    let (executed, cached) = first_jobs.expect("at least one round ran");
    run.counts.insert("serve.jobs_executed".into(), executed);
    run.counts.insert("serve.jobs_cached".into(), cached);
    run.serve_wait_ms = mean(&waits);
    print_steps(&run.phase.lat_ms);
    Ok((executed, cached))
}

/// The traced run re-runs the sweeps locally once more with spans,
/// against a harness caching under `dir`, for the harness layer (and,
/// when jobs execute, the workload, simulator and extension layers).
fn traced_rerun(
    reqs: &[Vec<SweepSpec>],
    dir: &Path,
    scratch: &Scratch,
    tracer: Option<&Tracer>,
) -> std::io::Result<()> {
    let traced_local = Harness::new(HarnessConfig::hermetic().with_cache_dir(dir));
    let mut put_cache = ResultCache::open(&scratch.dir("put-probe"))?;
    for (c, list) in reqs.iter().enumerate() {
        for (i, sweep) in list.iter().enumerate() {
            let mut probes = Probes {
                cache_dir: dir,
                put_cache: &mut put_cache,
            };
            let id = VERIFY_REQ | ((c as u64) << 8) | i as u64;
            run_request(&traced_local, &mut probes, sweep, Scope::root(tracer, id))?;
        }
    }
    Ok(())
}

/// `serve-stream`: fresh sweeps plus a minority of repeats, each round
/// against a fresh server with an empty cache.
pub fn stream(cfg: &Config, tracer: Option<&Tracer>) -> std::io::Result<Run> {
    let scratch = Scratch::new(cfg)?;
    let reqs = requests(cfg.seed);
    let mut run = Run::default();

    let verify = scratch.dir("verify");
    let (expected, executed, hit_ratio) = expect(
        &Harness::new(HarnessConfig::hermetic().with_cache_dir(&verify)),
        &reqs,
    )?;
    sim_counts(&mut run, &executed);
    let lines = ResultCache::open(&verify)?.len();
    run.counts
        .insert("harness.cache_lines".into(), lines as f64);
    run.counts.insert("harness.hit_ratio".into(), hit_ratio);

    let round_dir = |r: usize| scratch.dir(&format!("round{r}"));
    timed_rounds(cfg, &reqs, &expected, round_dir, tracer, &mut run)?;

    run.unit = VERIFY_REQ..VERIFY_REQ + ((CLIENTS as u64) << 8);
    if tracer.is_some() {
        traced_rerun(&reqs, &scratch.dir("verify-traced"), &scratch, tracer)?;
    }
    Ok(run)
}

/// `serve-warm`: every request repeats a sweep that set-up already
/// cached, so the server simulates nothing. Each sweep re-reads the
/// filled cache, which [`WARM_VARIANTS`] keeps well inside one tick.
pub fn warm(cfg: &Config, tracer: Option<&Tracer>) -> std::io::Result<Run> {
    let scratch = Scratch::new(cfg)?;
    let mut run = Run::default();
    let panels = figures::warm_panels(cfg.seed, WARM_VARIANTS);

    // Filling the cache is input preparation, not timed: `setup_s` is
    // each round's `Server::start` on the filled cache until the first
    // `ping` reply.
    let filled = scratch.dir("filled");
    let filler = Harness::new(HarnessConfig::hermetic().with_cache_dir(&filled));
    let mut fill = SweepSpec::new("serve-warm-fill");
    fill.jobs = panels.iter().flat_map(|p| p.jobs.iter().copied()).collect();
    let result = match tracer {
        Some(tr) => filler.run_with(&fill, |spec| {
            traced_job(Scope::root(Some(tr), WARM_FILL_REQ), spec)
        })?,
        None => filler.run(&fill)?,
    };
    run.check(
        complete(&fill, &result) && result.executed == fill.len(),
        || "the fill did not execute every job".into(),
    );
    sim_counts(&mut run, &result.records);

    // Each client sends every panel of the grid once per round, in its
    // own seed-shuffled order, so every seed asks for the same mix of
    // processor counts (a 32P record carries per-core arrays eight
    // times as long as a 4P one).
    let mut rng = Rng::new(!cfg.seed);
    let reqs: Vec<Vec<SweepSpec>> = (0..CLIENTS)
        .map(|_| {
            let mut list = panels.clone();
            for i in (1..list.len()).rev() {
                list.swap(i, rng.below(i + 1));
            }
            list
        })
        .collect();
    let (expected, _, hit_ratio) = expect(&filler, &reqs)?;
    let lines = ResultCache::open(&filled)?.len();
    run.check(hit_ratio == 1.0 && lines == fill.len(), || {
        format!(
            "filled cache holds {lines} entries for {} jobs, hit ratio {hit_ratio}",
            fill.len()
        )
    });
    run.counts
        .insert("harness.cache_lines".into(), lines as f64);
    run.counts.insert("harness.hit_ratio".into(), hit_ratio);

    let jobs: usize = reqs.iter().flatten().map(SweepSpec::len).sum();
    let served = timed_rounds(cfg, &reqs, &expected, |_| filled.clone(), tracer, &mut run)?;
    run.check(served == (0.0, jobs as f64), || {
        format!("a round executed/cached {served:?}, not all {jobs} from the cache")
    });

    run.unit = WARM_FILL_REQ..WARM_FILL_REQ + 1;
    if tracer.is_some() {
        traced_rerun(&reqs, &filled, &scratch, tracer)?;
    }
    Ok(run)
}

/// Sends `panels` through a loopback server one at a time and checks
/// the streamed lines against a local run: the serve layer's numbers
/// for the traced figure workloads. Both caches start as the workload
/// left them (empty for cold, filled for warm).
pub fn probe(
    panels: &[SweepSpec],
    server_cache: &Path,
    local_cache: &Path,
    tracer: Option<&Tracer>,
    run: &mut Run,
) -> std::io::Result<()> {
    let (server, client) = start(server_cache)?;
    let local = Harness::new(HarnessConfig::hermetic().with_cache_dir(local_cache));
    let mut waits = Vec::new();
    for (k, sweep) in panels.iter().enumerate() {
        let (rtt, lines) = round_trip(&client, sweep, Scope::root(tracer, PROBE_REQ + k as u64));
        let (want, _, took) = local_run(&local, sweep)?;
        let same = lines.as_ref().ok() == Some(&want);
        run.check(same, || {
            format!(
                "probe panel {}: streamed lines differ from a local run",
                sweep.name
            )
        });
        waits.push(rtt.as_secs_f64() * 1e3 - took.as_secs_f64() * 1e3);
    }
    let (executed, cached) = job_counts(&client)?;
    server.shutdown();
    run.counts.insert("serve.jobs_executed".into(), executed);
    run.counts.insert("serve.jobs_cached".into(), cached);
    run.serve_wait_ms = mean(&waits);
    Ok(())
}
