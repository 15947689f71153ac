//! `serve-mixed`: a `perfvar serve` daemon under mixed `/v1` traffic.
//!
//! Open loop at a fixed [`RATE`] from the bounded two-thread sender,
//! latency timed from each request's due time. The daemon serves four
//! seeded 32-rank × 160-iteration archives (two balanced, one
//! single-outlier, one desynchronisation wave). Per cycle of 20
//! requests: 8 warm `/v1/analyze`, 5 warm `/v1/diagnose`, 3 warm
//! `/v1/compare` and 4 cold `/v1/analyze` whose `multiplier` was never
//! used before in the run, so each is a real cache miss landing on the
//! same LRU as the warm hits. The mix puts the median inside the warm
//! `/v1/analyze` mode and the p90 inside the cold mode rather than on
//! the boundary between two modes, where it would jump between runs.

use crate::inputs::{mix, serve_traces};
use crate::ladder::{self, LadderInput};
use crate::proc::{self, Daemon};
use crate::sender::{self, Sent};
use crate::spans::{Open, Recorder, OP};
use crate::stats::{median, percentile};
use crate::{timed_setup, Ctx, Metric, Outcome, THREADS};
use perfvar_analysis::{
    analyze_path_with, diagnose_analysis, Analysis, DiagnoseConfig, RecoveryMode, RunComparison,
};
use perfvar_server::http::percent_encode;
use perfvar_server::{parse_envelope, CachedResult, ResultCache};
use perfvar_trace::format::digest::digest_path;
use perfvar_trace::format::write_trace_file;
use perfvar_trace::Trace;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const RANKS: usize = 32;
const ITERATIONS: usize = 160;
/// Requests per second. At twice this rate a cold analysis (about 18 ms
/// on two CPUs) often still runs when the next request arrives; the
/// overlapping pair then takes twice as long, every latency class
/// splits in two, and the p90 jumps between the halves from run to run.
const RATE: f64 = 25.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Cold multipliers start above the default of 2 and must stay at or
/// below the iteration count, or no function passes the dominant rule.
const FIRST_COLD_MULTIPLIER: usize = 3;
/// The daemon's CPU use, as a share of the pinned threads, above which
/// the run is refused: past it, queueing rather than the daemon's own
/// work would set the latencies.
const MAX_BUSY: f64 = 0.5;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Class {
    Analyze,
    Diagnose,
    Compare,
    Cold,
}

/// One cycle of the mix, before the per-seed shuffle.
const CYCLE: [(Class, usize); 4] = [
    (Class::Analyze, 8),
    (Class::Diagnose, 5),
    (Class::Compare, 3),
    (Class::Cold, 4),
];

struct Archive {
    path: PathBuf,
    encoded: String,
    /// Segments of the primed analysis.
    segments: usize,
}

struct Request {
    class: Class,
    target: String,
    archive: usize,
    multiplier: usize,
}

struct Served {
    traces: Vec<(&'static str, Trace)>,
    paths: Vec<PathBuf>,
    daemon: Daemon,
    /// Target → body captured when the cache was primed.
    primed: HashMap<String, String>,
}

fn analyze_target(encoded: &str) -> String {
    format!("/v1/analyze?path={encoded}")
}

fn diagnose_target(encoded: &str) -> String {
    format!("/v1/diagnose?path={encoded}")
}

fn compare_target(base: &str, cand: &str) -> String {
    format!("/v1/compare?base={base}&cand={cand}")
}

fn get(daemon: &Daemon, target: &str) -> Result<String, String> {
    let resp = crate::http::get(&daemon.addr, target).map_err(|e| e.to_string())?;
    if resp.status == 200 {
        Ok(resp.body)
    } else {
        Err(format!(
            "{target}: HTTP {}: {}",
            resp.status,
            resp.body.trim()
        ))
    }
}

/// Inputs written, daemon up and healthy, cache primed.
fn setup(ctx: &Ctx) -> Result<Served, String> {
    let traces = serve_traces(RANKS, ITERATIONS, ctx.seed)?;
    let mut paths = Vec::new();
    for (name, trace) in &traces {
        let path = ctx.work.join(format!("{name}.pvta"));
        let _ = std::fs::remove_dir_all(&path);
        write_trace_file(trace, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        paths.push(path);
    }
    let daemon = Daemon::start(&ctx.perfvar)?;
    let encoded: Vec<String> = paths
        .iter()
        .map(|p| percent_encode(&p.to_string_lossy()))
        .collect();
    let mut primed = HashMap::new();
    let mut targets: Vec<String> = Vec::new();
    for e in &encoded {
        targets.push(analyze_target(e));
        targets.push(diagnose_target(e));
    }
    for cand in &encoded[1..] {
        targets.push(compare_target(&encoded[0], cand));
    }
    for target in targets {
        let body = get(&daemon, &target)?;
        primed.insert(target, body);
    }
    Ok(Served {
        traces,
        paths,
        daemon,
        primed,
    })
}

fn count_segments(body: &str) -> usize {
    body.matches("\"sync\":").count()
}

/// The primed `/v1/analyze` data must be `perfvar analyze --json` of
/// the same archive.
fn check_primed(ctx: &Ctx, served: &Served) -> Result<Vec<Archive>, String> {
    let threads = THREADS.to_string();
    served
        .paths
        .iter()
        .map(|path| {
            let encoded = percent_encode(&path.to_string_lossy());
            let body = &served.primed[&analyze_target(&encoded)];
            let envelope = parse_envelope(body).map_err(|e| e.to_string())?;
            let path_str = path.to_string_lossy();
            let cli = ctx
                .perfvar
                .run(&["analyze", &path_str, "--json", "--threads", &threads])?;
            let cli: serde_json::Value = serde_json::from_slice(&cli).map_err(|e| e.to_string())?;
            let compact = |v: &serde_json::Value| serde_json::to_string(v).unwrap_or_default();
            if !envelope.ok || compact(&envelope.data) != compact(&cli) {
                return Err(format!(
                    "{}: primed /v1/analyze data differs from perfvar analyze --json",
                    path.display()
                ));
            }
            Ok(Archive {
                path: path.clone(),
                segments: count_segments(body),
                encoded,
            })
        })
        .collect()
}

/// `count` requests of the mix, deterministic in the seed.
fn requests(archives: &[Archive], count: usize, seed: u64) -> Result<Vec<Request>, String> {
    let mut cycle: Vec<Class> = CYCLE
        .iter()
        .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
        .collect();
    for i in (1..cycle.len()).rev() {
        cycle.swap(i, (mix(seed, 100 + i as u64) % (i as u64 + 1)) as usize);
    }
    let mut seen = HashMap::<Class, usize>::new();
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let class = cycle[i % cycle.len()];
        let k = {
            let n = seen.entry(class).or_default();
            *n += 1;
            *n - 1
        };
        let archive = k % archives.len();
        let e = |a: usize| archives[a].encoded.as_str();
        let (target, archive, multiplier) = match class {
            Class::Analyze => (analyze_target(e(archive)), archive, 0),
            Class::Diagnose => (diagnose_target(e(archive)), archive, 0),
            Class::Compare => {
                let cand = 1 + k % (archives.len() - 1);
                (compare_target(e(0), e(cand)), cand, 0)
            }
            Class::Cold => {
                let multiplier = FIRST_COLD_MULTIPLIER + k / archives.len();
                if multiplier > ITERATIONS {
                    return Err("window too long: cold multipliers exhausted".into());
                }
                let target = format!("{}&multiplier={multiplier}", analyze_target(e(archive)));
                (target, archive, multiplier)
            }
        };
        out.push(Request {
            class,
            target,
            archive,
            multiplier,
        });
    }
    Ok(out)
}

fn span_name(class: Class) -> &'static str {
    match class {
        Class::Analyze => "http.analyze",
        Class::Diagnose => "http.diagnose",
        Class::Compare => "http.compare",
        Class::Cold => "http.cold",
    }
}

/// Sends `requests` on the fixed schedule and checks every answer:
/// warm bodies byte-equal to the primed ones, cold ones `ok` with the
/// archive's segment count.
fn traffic(
    ctx: &Ctx,
    served: &Served,
    archives: &[Archive],
    requests: &[Request],
    first_op: u64,
    traced: bool,
) -> Vec<Sent<Result<(), String>>> {
    let plan: Vec<(Duration, &Request)> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| (Duration::from_secs_f64(i as f64 / RATE), r))
        .collect();
    let rec = ctx.trace.as_ref().filter(|_| traced);
    let ops = std::sync::atomic::AtomicU64::new(first_op);
    sender::run(
        &plan,
        sender::MAX_THREADS,
        |req, thread| {
            let Some(rec) = rec else {
                return crate::http::get(&served.daemon.addr, &req.target);
            };
            // Sender threads are 1 and 2 in the span archive; 0 is main.
            let op = rec.open(
                OP,
                ops.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                thread + 1,
            );
            let resp = rec.time(Some(&op), span_name(req.class), || {
                crate::http::get(&served.daemon.addr, &req.target)
            });
            rec.close(op);
            resp
        },
        |req, resp| {
            let resp = resp.map_err(|e| format!("{}: {e}", req.target))?;
            if resp.status != 200 {
                return Err(format!("{}: HTTP {}", req.target, resp.status));
            }
            match req.class {
                Class::Cold => {
                    let want = archives[req.archive].segments;
                    let got = count_segments(&resp.body);
                    if !resp.body.starts_with("{\n  \"ok\": true,") || got != want {
                        return Err(format!("{}: {got} segments, want {want}", req.target));
                    }
                }
                _ => {
                    if resp.body != served.primed[&req.target] {
                        return Err(format!("{}: body differs from the primed one", req.target));
                    }
                }
            }
            Ok(())
        },
    )
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (setup_s, served) = timed_setup(SETUPS, || setup(ctx))?;
    let archives = check_primed(ctx, &served)?;
    let count = (RATE * ctx.seconds).ceil() as usize;
    let all = requests(&archives, count, ctx.seed)?;

    let mut outcome = Outcome::default();
    let mut late = Vec::new();
    let mut phase =
        |requests: &[Request], first_op: u64, traced: bool| -> Result<Vec<f64>, String> {
            let cpu_before = served.daemon.cpu_seconds()?;
            let start = Instant::now();
            let sent = traffic(ctx, &served, &archives, requests, first_op, traced);
            let busy = (served.daemon.cpu_seconds()? - cpu_before)
                / (start.elapsed().as_secs_f64() * THREADS as f64);
            if busy > MAX_BUSY {
                return Err(format!(
                    "daemon {:.0}% busy at {RATE} req/s, above the {:.0}% the workload allows",
                    busy * 100.0,
                    MAX_BUSY * 100.0
                ));
            }
            let mut latencies = Vec::with_capacity(sent.len());
            for s in sent {
                latencies.push(s.latency_s);
                late.push(s.late_s);
                outcome.record(s.result);
            }
            Ok(latencies)
        };

    let Some(rec) = &ctx.trace else {
        let latencies = phase(&all, 1, false)?;
        drop(served);
        outcome.metrics = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new(
                "op_p50_s",
                percentile(&latencies, 0.5, "serve-mixed request")?,
                "s",
            ),
            Metric::new(
                "op_p90_s",
                percentile(&latencies, 0.9, "serve-mixed request")?,
                "s",
            ),
            Metric::new("peak_rss_mb", proc::peak_rss_mb(), "MB"),
        ];
        return Ok(outcome);
    };
    let half = all.len() / 2;
    let untraced = phase(&all[..half], 1, false)?;
    phase(&all[half..], half as u64 + 1, true)?;
    let Served {
        traces,
        paths,
        daemon,
        ..
    } = served;
    drop(daemon);
    // The in-process layer calls run only now, with the traffic over.
    replica(rec, &all, &archives)?;
    let inputs = traces
        .into_iter()
        .zip(&paths)
        .map(|((_, trace), path)| LadderInput::prepare(&ctx.work, trace, path))
        .collect::<Result<Vec<_>, _>>()?;
    let counts = ladder::run(rec, &ctx.perfvar, &inputs, &ctx.work, false)?;
    outcome.metrics = ladder::metrics(rec, &counts, median(&untraced), &late)?;
    Ok(outcome)
}

/// Operation ids of the in-process replica ops.
const REPLICA_OP_BASE: u64 = 1 << 32;
/// Mix cycles replayed in-process.
const REPLICA_CYCLES: usize = 2;

/// The daemon's work for each request class, replayed in-process with
/// the public pieces it is built from — cache lookup, JSON parse of the
/// cached body, diagnosis or comparison, re-rendering into the `/v1`
/// envelope; for a cold request digest, out-of-core analysis and cache
/// fill — over two cycles of the mix.
fn replica(rec: &Recorder, all: &[Request], archives: &[Archive]) -> Result<(), String> {
    let cfg = ladder::config();
    let cache = ResultCache::new(64, None);
    let mut functions = Vec::new();
    for (key, archive) in archives.iter().enumerate() {
        let result = analyze_path_with(&archive.path, &cfg, RecoveryMode::Strict)
            .map_err(|e| e.to_string())?;
        let entry = CachedResult::render(&result)?;
        functions.push(entry.functions.clone());
        cache.put(key as u128, Arc::new(entry));
    }
    let envelope = |op: &Open, raw: &str| -> Result<(), String> {
        let doc: serde_json::Value = rec
            .time_units(Some(op), "json.parse", || {
                (serde_json::from_str(raw), raw.len() as u64)
            })
            .map_err(|e| e.to_string())?;
        rec.time_units(Some(op), "json.render", || {
            let body =
                serde_json::to_string_pretty(&serde_json::json!({ "ok": true, "data": doc }))
                    .unwrap_or_default();
            let len = body.len() as u64;
            (body, len)
        });
        Ok(())
    };
    let cached = |op: &Open, key: usize| -> Result<(Arc<CachedResult>, Analysis), String> {
        let entry = rec
            .time(Some(op), "server.cache_get", || cache.get(key as u128))
            .ok_or("replica cache miss")?;
        let analysis: Analysis = rec
            .time_units(Some(op), "json.parse", || {
                (serde_json::from_str(&entry.body), entry.body.len() as u64)
            })
            .map_err(|e| e.to_string())?;
        Ok((entry, analysis))
    };
    let pretty = |op: &Open, value: serde_json::Value| -> String {
        rec.time_units(Some(op), "json.render", || {
            let mut body = serde_json::to_string_pretty(&value).unwrap_or_default();
            body.push('\n');
            let len = body.len() as u64;
            (body, len)
        })
    };
    let cycle: usize = CYCLE.iter().map(|&(_, n)| n).sum();
    for (i, req) in all.iter().take(REPLICA_CYCLES * cycle).enumerate() {
        let op = rec.open(OP, REPLICA_OP_BASE + i as u64, 0);
        match req.class {
            Class::Analyze => {
                let entry = rec
                    .time(Some(&op), "server.cache_get", || {
                        cache.get(req.archive as u128)
                    })
                    .ok_or("replica cache miss")?;
                envelope(&op, &entry.body)?;
            }
            Class::Diagnose => {
                let (entry, analysis) = cached(&op, req.archive)?;
                let function = &entry.functions[analysis.function.index()];
                let counters: Vec<String> =
                    entry.metrics.iter().map(|(name, _)| name.clone()).collect();
                let diagnosis = rec.time(Some(&op), "analysis.diagnose", || {
                    diagnose_analysis(&analysis, function, &counters, &DiagnoseConfig::default())
                });
                let raw = pretty(&op, serde_json::to_value(&diagnosis));
                envelope(&op, &raw)?;
            }
            Class::Compare => {
                let (_, base) = cached(&op, 0)?;
                let (_, cand) = cached(&op, req.archive)?;
                let verdict = rec.time(Some(&op), "analysis.compare", || {
                    let cmp = RunComparison::compare_analyses(
                        &base,
                        &functions[0],
                        &cand,
                        &functions[req.archive],
                    );
                    let verdict = cmp.verdict(perfvar_analysis::DEFAULT_NOISE_THRESHOLD);
                    (cmp, verdict)
                });
                let raw = pretty(
                    &op,
                    serde_json::json!({
                        "comparison": serde_json::to_value(&verdict.0),
                        "verdict": serde_json::to_value(&verdict.1),
                    }),
                );
                envelope(&op, &raw)?;
            }
            Class::Cold => {
                let path = &archives[req.archive].path;
                rec.time(Some(&op), "trace.digest", || digest_path(path))
                    .map_err(|e| e.to_string())?;
                let config = perfvar_analysis::AnalysisConfig {
                    dominant_multiplier: req.multiplier as u64,
                    ..cfg.clone()
                };
                let result = rec
                    .time(Some(&op), "analysis.analyze_path", || {
                        analyze_path_with(path, &config, RecoveryMode::Strict)
                    })
                    .map_err(|e| e.to_string())?;
                let entry = rec.time(Some(&op), "server.cache_render", || {
                    CachedResult::render(&result)
                })?;
                envelope(&op, &entry.body)?;
            }
        }
        rec.close(op);
    }
    Ok(())
}
