//! End-to-end tests of the analysis daemon: in-process [`Server`]
//! instances exercised over real TCP sockets with the crate's own
//! minimal client.
//!
//! The telemetry counters exposed at `/v1/stats` double as the test
//! oracle for the cache and singleflight guarantees: `events_replayed`
//! only moves when the pipeline actually runs, so "exactly one
//! analysis" and "warm hits never touch the trace" are assertions on
//! those totals, not on timing.

use perfvar_analysis::{
    analyze_path_with, diagnose_analysis, AnalysisConfig, DiagnoseOptions, PipelineStats,
    RecoveryMode,
};
use perfvar_server::http::percent_encode;
use perfvar_server::{client, CachedResult, ServeOptions, Server};
use perfvar_trace::format::{archive, write_trace_file};
use perfvar_trace::{Clock, FunctionRole, MetricMode, Timestamp, Trace, TraceBuilder};
use serde::Deserialize;
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("perfvar-server-e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Multi-rank trace with nested compute, synchronization, and two
/// hardware-counter channels — enough structure for segmentation,
/// refinement, and metric correlation all to engage.
fn fixture_trace(ranks: u64) -> Trace {
    let mut b = TraceBuilder::new(Clock::microseconds()).with_name("served");
    let iter_f = b.define_function("iteration", FunctionRole::Compute);
    let inner_f = b.define_function("inner", FunctionRole::Compute);
    let mpi_f = b.define_function("MPI_Barrier", FunctionRole::MpiCollective);
    let cyc = b.define_metric("CYC", MetricMode::Accumulating, "cycles");
    let exc = b.define_metric("EXC", MetricMode::Delta, "#");
    for pi in 0..ranks {
        let p = b.define_process(format!("rank {pi}"));
        let w = b.process_mut(p);
        let mut t = 0u64;
        let mut total = 0u64;
        for k in 0..8u64 {
            let load = 100 + (pi * 17 + k * 11) % 50;
            w.enter(Timestamp(t), iter_f).unwrap();
            w.metric(Timestamp(t), cyc, total).unwrap();
            w.enter(Timestamp(t + 4), inner_f).unwrap();
            w.metric(Timestamp(t + 8), exc, k + 1).unwrap();
            w.leave(Timestamp(t + load / 2), inner_f).unwrap();
            t += load;
            total += load * 3;
            w.enter(Timestamp(t), mpi_f).unwrap();
            w.leave(Timestamp(t + 15), mpi_f).unwrap();
            t += 15;
            w.metric(Timestamp(t), cyc, total).unwrap();
            w.leave(Timestamp(t), iter_f).unwrap();
        }
    }
    b.finish().unwrap()
}

fn write_fixture(dir: &Path, ranks: u64) -> PathBuf {
    let path = dir.join("t.pvta");
    write_trace_file(&fixture_trace(ranks), &path).unwrap();
    path
}

fn spawn(options: ServeOptions) -> (perfvar_server::ServerHandle, String) {
    let server = Server::bind("127.0.0.1:0", options).unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn analyze_target(path: &Path) -> String {
    format!(
        "/v1/analyze?path={}",
        percent_encode(path.to_str().unwrap())
    )
}

/// The `data` payload of a successful `/v1` response.
fn data_of(resp: &client::HttpResponse) -> serde_json::Value {
    let env = client::parse_envelope(&resp.body).unwrap();
    assert!(env.ok, "{}", resp.body);
    env.data
}

fn stats_of(addr: &str) -> PipelineStats {
    let resp = client::get(addr, "/v1/stats").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    PipelineStats::from_value(&data_of(&resp)).unwrap()
}

#[test]
fn sixteen_concurrent_cold_requests_run_exactly_one_analysis() {
    let dir = tmp("stress");
    let trace = write_fixture(&dir, 6);
    let (handle, addr) = spawn(ServeOptions::default());
    let target = analyze_target(&trace);

    let handles: Vec<_> = (0..16)
        .map(|_| {
            let addr = addr.clone();
            let target = target.clone();
            std::thread::spawn(move || client::get(&addr, &target).unwrap())
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    for resp in &responses {
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(resp.body, responses[0].body, "all clients share one result");
    }

    // Reference: one request on a fresh daemon replays this many events.
    let (ref_handle, ref_addr) = spawn(ServeOptions::default());
    let resp = client::get(&ref_addr, &target).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let one = stats_of(&ref_addr).totals.events_replayed;
    assert!(one > 0, "pipeline records replayed events");
    ref_handle.shutdown();

    let stressed = stats_of(&addr).totals.events_replayed;
    assert_eq!(
        stressed, one,
        "16 concurrent cold requests must coalesce into exactly one analysis"
    );
    handle.shutdown();
}

#[test]
fn warm_hits_do_not_rerun_the_pipeline_or_reread_the_trace() {
    let dir = tmp("warm");
    let trace = write_fixture(&dir, 4);
    let (handle, addr) = spawn(ServeOptions::default());
    let target = analyze_target(&trace);

    let cold = client::get(&addr, &target).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);
    let after_cold = stats_of(&addr).totals;
    assert!(after_cold.events_replayed > 0);
    assert!(after_cold.bytes_decoded > 0);

    for _ in 0..5 {
        let warm = client::get(&addr, &target).unwrap();
        assert_eq!(warm.status, 200);
        assert_eq!(warm.body, cold.body, "warm hit is byte-identical");
    }
    let after_warm = stats_of(&addr).totals;
    assert_eq!(
        (after_warm.events_replayed, after_warm.bytes_decoded),
        (after_cold.events_replayed, after_cold.bytes_decoded),
        "warm hits must not replay events or decode trace bytes"
    );
    handle.shutdown();
}

#[test]
fn modifying_the_archive_invalidates_the_cached_result() {
    let dir = tmp("invalidate");
    let trace = write_fixture(&dir, 3);
    let (handle, addr) = spawn(ServeOptions::default());
    let target = analyze_target(&trace);

    let before = client::get(&addr, &target).unwrap();
    assert_eq!(before.status, 200, "{}", before.body);
    let cold_events = stats_of(&addr).totals.events_replayed;

    // Rewrite the archive with different content (more ranks).
    write_trace_file(&fixture_trace(5), &trace).unwrap();
    let after = client::get(&addr, &target).unwrap();
    assert_eq!(after.status, 200, "{}", after.body);
    assert_ne!(after.body, before.body, "new content, new result");
    assert!(
        stats_of(&addr).totals.events_replayed > cold_events,
        "changed bytes must miss the cache and re-analyze"
    );
    handle.shutdown();
}

/// Pins every constituent file of the archive to `second`, emulating a
/// filesystem with whole-second mtime granularity.
fn pin_whole_second_mtimes(archive_dir: &Path, second: std::time::SystemTime) {
    for entry in std::fs::read_dir(archive_dir).unwrap() {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(entry.unwrap().path())
            .unwrap();
        file.set_modified(second).unwrap();
    }
}

#[test]
fn same_second_equal_length_rewrite_is_never_served_stale() {
    use std::time::{Duration, SystemTime, UNIX_EPOCH};
    let dir = tmp("same-second");
    let trace = write_fixture(&dir, 3);
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .as_secs();
    let second = UNIX_EPOCH + Duration::from_secs(secs);
    pin_whole_second_mtimes(&trace, second);

    let (handle, addr) = spawn(ServeOptions::default());
    let target = analyze_target(&trace);
    let before = client::get(&addr, &target).unwrap();
    assert_eq!(before.status, 200, "{}", before.body);

    // Rewrite one stream in place: same length, different bytes, same
    // whole-second mtime — invisible to a pure size+mtime signature.
    let stream = trace.join(archive::stream_file(1));
    let mut bytes = std::fs::read(&stream).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x55;
    std::fs::write(&stream, &bytes).unwrap();
    pin_whole_second_mtimes(&trace, second);

    // The changed bytes must be detected (fresh digest → new analysis
    // or a decode error) — never the memoised result of the old bytes.
    let after = client::get(&addr, &target).unwrap();
    assert!(
        after.status != 200 || after.body != before.body,
        "in-place rewrite within mtime granularity was served stale"
    );
    handle.shutdown();
}

#[test]
fn disk_spill_serves_a_fresh_daemon_without_reanalyzing() {
    let dir = tmp("spill");
    let trace = write_fixture(&dir, 4);
    let cache_dir = dir.join("cache");
    let options = || ServeOptions {
        cache_dir: Some(cache_dir.clone()),
        ..ServeOptions::default()
    };

    let (first, addr) = spawn(options());
    let target = analyze_target(&trace);
    let cold = client::get(&addr, &target).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);
    first.shutdown();

    // A brand-new daemon over the same spill directory answers from disk:
    // zero events replayed.
    let (second, addr2) = spawn(options());
    let warm = client::get(&addr2, &target).unwrap();
    assert_eq!(warm.status, 200, "{}", warm.body);
    assert_eq!(warm.body, cold.body, "spilled result is byte-identical");
    assert_eq!(
        stats_of(&addr2).totals.events_replayed,
        0,
        "disk hit must not run the pipeline"
    );
    second.shutdown();
}

#[test]
fn refine_and_config_parameters_shape_the_result() {
    let dir = tmp("refine");
    let trace = write_fixture(&dir, 4);
    let (handle, addr) = spawn(ServeOptions::default());
    let enc = percent_encode(trace.to_str().unwrap());

    let segmented_on = |resp: &client::HttpResponse| -> u64 {
        let serde_json::Value::Object(fields) = data_of(resp) else {
            panic!("analysis body is not an object")
        };
        let function = fields
            .iter()
            .find(|(k, _)| k == "function")
            .map(|(_, v)| v.clone())
            .expect("analysis has a function field");
        match function {
            serde_json::Value::Number(n) => n.as_u64().unwrap(),
            other => panic!("unexpected function field {other:?}"),
        }
    };

    let base = client::get(&addr, &format!("/v1/analyze?path={enc}")).unwrap();
    assert_eq!(base.status, 200, "{}", base.body);
    assert!(
        base.body.contains("\"trace_name\": \"served\""),
        "{}",
        base.body
    );

    // Forcing the segmentation function and refining one step both move
    // the segmentation off the dominant function.
    let forced = client::get(&addr, &format!("/v1/analyze?path={enc}&function=inner")).unwrap();
    assert_eq!(forced.status, 200, "{}", forced.body);
    assert_ne!(forced.body, base.body);
    assert_ne!(segmented_on(&forced), segmented_on(&base));
    let refined = client::get(&addr, &format!("/v1/refine?path={enc}&steps=1")).unwrap();
    assert_eq!(refined.status, 200, "{}", refined.body);
    assert_ne!(segmented_on(&refined), segmented_on(&base));

    // Refining past the leaf is a client error, not a crash.
    let too_deep = client::get(&addr, &format!("/v1/refine?path={enc}&steps=9")).unwrap();
    assert_eq!(too_deep.status, 422, "{}", too_deep.body);
    assert!(too_deep.body.contains("no finer segmentation function"));

    // Metric channels are served individually...
    let metric = client::get(&addr, &format!("/v1/analyze?path={enc}&metric=CYC")).unwrap();
    assert_eq!(metric.status, 200, "{}", metric.body);
    assert!(metric.body.contains("correlation"), "{}", metric.body);
    // ...and an unknown name 404s, listing what exists.
    let missing = client::get(&addr, &format!("/v1/analyze?path={enc}&metric=FLOPS")).unwrap();
    assert_eq!(missing.status, 404, "{}", missing.body);
    assert!(missing.body.contains("CYC") && missing.body.contains("EXC"));
    handle.shutdown();
}

#[test]
fn error_paths_are_typed_json_and_the_daemon_survives_them() {
    let dir = tmp("errors");
    let trace = write_fixture(&dir, 4);
    let (handle, addr) = spawn(ServeOptions::default());

    // Missing required parameter → 400.
    let resp = client::get(&addr, "/v1/analyze").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("\"error\""));
    assert!(resp.body.contains("path"));

    // Nonexistent trace → 404.
    let resp = client::get(&addr, "/v1/analyze?path=%2Fno%2Fsuch%2Ftrace.pvta").unwrap();
    assert_eq!(resp.status, 404, "{}", resp.body);
    assert!(resp.body.contains("\"error\""));

    // Bad numeric parameter → 400.
    let enc = percent_encode(trace.to_str().unwrap());
    let resp = client::get(&addr, &format!("/v1/analyze?path={enc}&multiplier=lots")).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);

    // Unknown endpoint → 404; non-GET → 405.
    let resp = client::get(&addr, "/delete-everything").unwrap();
    assert_eq!(resp.status, 404, "{}", resp.body);

    // Truncated stream file → typed 422 naming the corrupt rank/offset.
    let stream1 = trace.join(archive::stream_file(1));
    let bytes = std::fs::read(&stream1).unwrap();
    std::fs::write(&stream1, &bytes[..bytes.len() - 9]).unwrap();
    let resp = client::get(&addr, &format!("/v1/analyze?path={enc}")).unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(resp.body.contains("corrupt at byte"), "{}", resp.body);

    // …but partial recovery over the same damaged archive still works.
    let resp = client::get(&addr, &format!("/v1/analyze?path={enc}&partial")).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    // The daemon survives all of the above.
    let health = client::get(&addr, "/v1/health").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("ok"));
    handle.shutdown();
}

/// The body of a raw HTTP response: everything after the blank line.
fn body_of(raw: &str) -> &str {
    raw.split_once("\r\n\r\n").map_or("", |(_, body)| body)
}

#[test]
fn non_get_methods_are_rejected() {
    let (handle, addr) = spawn(ServeOptions::default());
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    write!(stream, "POST /v1/analyze HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
    assert!(raw.contains("GET-only"));

    // Non-HTTP garbage gets a 400 envelope, not a hang or a crash.
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    write!(stream, "definitely not http\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    let env = client::parse_envelope(body_of(&raw)).unwrap();
    assert!(!env.ok, "{raw}");
    assert_eq!(env.kind, "bad-request", "{raw}");
    handle.shutdown();
}

#[test]
fn idle_connections_do_not_pin_workers() {
    let dir = tmp("idle");
    let trace = write_fixture(&dir, 3);
    // Two workers, but far more idle connections than that: with the old
    // thread-per-connection accept loop these idle sockets would pin the
    // whole pool and the real request below would hang.
    let (handle, addr) = spawn(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });

    let idle: Vec<std::net::TcpStream> = (0..64)
        .map(|_| std::net::TcpStream::connect(&addr).unwrap())
        .collect();
    // Half of them even dribble a partial request head and then stall.
    use std::io::Write;
    for (i, mut stream) in idle.iter().enumerate() {
        if i % 2 == 0 {
            write!(stream, "GET /hea").unwrap();
        }
    }

    let resp = client::get(&addr, &analyze_target(&trace)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let health = client::get(&addr, "/v1/health").unwrap();
    assert_eq!(health.status, 200);
    drop(idle);
    handle.shutdown();
}

#[test]
fn oversized_request_heads_are_rejected_not_buffered() {
    let (handle, addr) = spawn(ServeOptions::default());
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    // Never send the blank line; just pour headers past the cap.
    write!(stream, "GET /v1/health HTTP/1.1\r\n").unwrap();
    let filler = format!("X-Filler: {}\r\n", "y".repeat(1024));
    let mut result = Ok(());
    for _ in 0..80 {
        result = write!(stream, "{filler}");
        if result.is_err() {
            break; // server already rejected and closed — also a pass
        }
    }
    let mut raw = String::new();
    let _ = stream.read_to_string(&mut raw);
    if result.is_ok() {
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
        let env = client::parse_envelope(body_of(&raw)).unwrap();
        assert_eq!(env.kind, "bad-request", "{raw}");
        assert!(env.message.contains("too large"), "{raw}");
    }
    handle.shutdown();
}

/// Like [`fixture_trace`] but with every compute load scaled — a
/// persistent slowdown a noise-aware verdict must flag.
fn write_scaled_fixture(dir: &Path, name: &str, ranks: u64, scale: u64) -> PathBuf {
    let mut b = TraceBuilder::new(Clock::microseconds()).with_name("served");
    let iter_f = b.define_function("iteration", FunctionRole::Compute);
    let inner_f = b.define_function("inner", FunctionRole::Compute);
    let mpi_f = b.define_function("MPI_Barrier", FunctionRole::MpiCollective);
    for pi in 0..ranks {
        let p = b.define_process(format!("rank {pi}"));
        let w = b.process_mut(p);
        let mut t = 0u64;
        for k in 0..8u64 {
            let load = (100 + (pi * 17 + k * 11) % 50) * scale;
            w.enter(Timestamp(t), iter_f).unwrap();
            w.enter(Timestamp(t + 4), inner_f).unwrap();
            w.leave(Timestamp(t + load / 2), inner_f).unwrap();
            t += load;
            w.enter(Timestamp(t), mpi_f).unwrap();
            w.leave(Timestamp(t + 15), mpi_f).unwrap();
            t += 15;
            w.leave(Timestamp(t), iter_f).unwrap();
        }
    }
    let path = dir.join(name);
    write_trace_file(&b.finish().unwrap(), &path).unwrap();
    path
}

#[test]
fn compare_registered_runs_with_verdict_and_zero_new_analyses() {
    let dir = tmp("compare");
    let base = write_scaled_fixture(&dir, "base.pvta", 4, 1);
    let cand = write_scaled_fixture(&dir, "cand.pvta", 4, 2);
    let (handle, addr) = spawn(ServeOptions {
        store_dir: Some(dir.join("store")),
        ..ServeOptions::default()
    });

    // Register both runs under labels.
    for (path, label) in [(&base, "good"), (&cand, "slow")] {
        let target = format!(
            "/v1/runs/register?path={}&label={label}",
            percent_encode(path.to_str().unwrap())
        );
        let resp = client::get(&addr, &target).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"digest\""), "{}", resp.body);
        assert!(resp.body.contains(label), "{}", resp.body);
    }
    let runs = client::get(&addr, "/v1/runs").unwrap();
    assert_eq!(runs.status, 200, "{}", runs.body);
    assert!(runs.body.contains("good") && runs.body.contains("slow"));

    // Cold comparison: analyses run once, verdict flags the 2× slowdown.
    let cold = client::get(&addr, "/v1/compare?base=good&cand=slow").unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert!(cold.body.contains("\"verdict\""), "{}", cold.body);
    assert!(cold.body.contains("Regression"), "{}", cold.body);
    assert!(cold.body.contains("\"functions\""), "{}", cold.body);
    assert!(cold.body.contains("iteration"), "{}", cold.body);
    let after_cold = stats_of(&addr).totals;
    assert!(after_cold.events_replayed > 0);

    // Warm comparisons: byte-stable body, zero new analyses.
    for _ in 0..3 {
        let warm = client::get(&addr, "/v1/compare?base=good&cand=slow").unwrap();
        assert_eq!(warm.status, 200);
        assert_eq!(warm.body, cold.body, "compare body must be byte-stable");
    }
    let after_warm = stats_of(&addr).totals;
    assert_eq!(
        (after_warm.events_replayed, after_warm.bytes_decoded),
        (after_cold.events_replayed, after_cold.bytes_decoded),
        "warm /compare must perform zero new analyses"
    );

    // The reverse direction is an improvement; digest references and
    // raw paths resolve too.
    let reverse = client::get(&addr, "/v1/compare?base=slow&cand=good").unwrap();
    assert!(reverse.body.contains("Improvement"), "{}", reverse.body);
    let digest_of = |resp: &client::HttpResponse, label: &str| -> String {
        let serde_json::Value::Object(fields) = data_of(resp) else {
            panic!("not an object")
        };
        let serde_json::Value::Array(runs) = fields
            .iter()
            .find(|(k, _)| k == "runs")
            .map(|(_, v)| v.clone())
            .unwrap()
        else {
            panic!("runs is not an array")
        };
        runs.iter()
            .find_map(|r| {
                let serde_json::Value::Object(f) = r else {
                    return None;
                };
                let matches = f
                    .iter()
                    .any(|(k, v)| k == "label" && *v == serde_json::Value::String(label.into()));
                if !matches {
                    return None;
                }
                f.iter().find(|(k, _)| k == "digest").map(|(_, v)| match v {
                    serde_json::Value::String(s) => s.clone(),
                    _ => panic!("digest is not a string"),
                })
            })
            .expect("label registered")
    };
    let base_digest = digest_of(&runs, "good");
    let by_digest = client::get(
        &addr,
        &format!(
            "/v1/compare?base={base_digest}&cand={}",
            percent_encode(cand.to_str().unwrap())
        ),
    )
    .unwrap();
    assert_eq!(by_digest.status, 200, "{}", by_digest.body);
    assert!(by_digest.body.contains("Regression"), "{}", by_digest.body);

    // A tighter threshold is accepted; self-comparison is noise.
    let same = client::get(&addr, "/v1/compare?base=good&cand=good&threshold=0.01").unwrap();
    assert_eq!(same.status, 200, "{}", same.body);
    assert!(same.body.contains("Noise"), "{}", same.body);
    handle.shutdown();
}

#[test]
fn compare_error_paths_are_typed_json() {
    let dir = tmp("compare-errors");
    let good = write_scaled_fixture(&dir, "good.pvta", 4, 1);
    let bad = write_scaled_fixture(&dir, "bad.pvta", 4, 1);
    let (handle, addr) = spawn(ServeOptions::default());
    let enc_good = percent_encode(good.to_str().unwrap());

    // Missing parameters → 400 naming the missing one.
    let resp = client::get(&addr, "/v1/compare").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("\"error\"") && resp.body.contains("base"));
    let resp = client::get(&addr, &format!("/v1/compare?base={enc_good}")).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("cand"), "{}", resp.body);

    // A digest-shaped reference the store does not know → 404, never
    // misread as a relative path.
    let resp = client::get(
        &addr,
        &format!("/v1/compare?base={enc_good}&cand=00112233445566778899aabbccddeeff"),
    )
    .unwrap();
    assert_eq!(resp.status, 404, "{}", resp.body);
    assert!(resp.body.contains("not in the run store"), "{}", resp.body);

    // Invalid threshold → 400.
    let resp = client::get(
        &addr,
        &format!("/v1/compare?base={enc_good}&cand={enc_good}&threshold=very"),
    )
    .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("threshold"), "{}", resp.body);

    // Corrupt candidate archive → typed 422 naming rank and offset.
    let stream1 = bad.join(archive::stream_file(1));
    let bytes = std::fs::read(&stream1).unwrap();
    std::fs::write(&stream1, &bytes[..bytes.len() - 9]).unwrap();
    let resp = client::get(
        &addr,
        &format!(
            "/v1/compare?base={enc_good}&cand={}",
            percent_encode(bad.to_str().unwrap())
        ),
    )
    .unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(resp.body.contains("corrupt at byte"), "{}", resp.body);
    assert!(resp.body.contains("P1"), "names the rank: {}", resp.body);

    // The daemon survives all of the above.
    let health = client::get(&addr, "/v1/health").unwrap();
    assert_eq!(health.status, 200);
    handle.shutdown();
}

#[test]
fn run_store_survives_daemon_restarts() {
    let dir = tmp("store-restart");
    let trace = write_scaled_fixture(&dir, "t.pvta", 3, 1);
    let options = || ServeOptions {
        cache_dir: Some(dir.join("cache")), // store defaults to alongside
        ..ServeOptions::default()
    };

    let (first, addr) = spawn(options());
    let resp = client::get(
        &addr,
        &format!(
            "/v1/runs/register?path={}&label=keeper",
            percent_encode(trace.to_str().unwrap())
        ),
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    // Analyze once so the result lands in the disk spill.
    let cold = client::get(&addr, &analyze_target(&trace)).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);
    first.shutdown();

    // A fresh daemon over the same directories still resolves the label,
    // and the comparison is answered from the disk spill: zero analyses.
    let (second, addr2) = spawn(options());
    let runs = client::get(&addr2, "/v1/runs").unwrap();
    assert!(runs.body.contains("keeper"), "{}", runs.body);
    let warm = client::get(&addr2, &analyze_target(&trace)).unwrap();
    assert_eq!(warm.status, 200, "{}", warm.body);
    let cmp = client::get(&addr2, "/v1/compare?base=keeper&cand=keeper").unwrap();
    assert_eq!(cmp.status, 200, "{}", cmp.body);
    assert!(cmp.body.contains("Noise"), "{}", cmp.body);
    assert_eq!(
        stats_of(&addr2).totals.events_replayed,
        0,
        "registered run must be served from the spill"
    );
    second.shutdown();
}

#[test]
fn archives_with_literal_plus_in_the_path_are_servable() {
    // Regression: `+` used to be decoded as a space in the `path` query
    // parameter and the request path, making `run+1.pvta` unservable.
    let dir = tmp("plus path");
    let trace = write_scaled_fixture(&dir, "run+1.pvta", 3, 1);
    assert!(trace.to_str().unwrap().contains('+'));
    let (handle, addr) = spawn(ServeOptions::default());
    let resp = client::get(&addr, &analyze_target(&trace)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"trace_name\""));
    handle.shutdown();
}

#[test]
fn v1_diagnose_serves_cause_labelled_clusters_from_the_cache() {
    let dir = tmp("diagnose");
    let trace = write_fixture(&dir, 6);
    let (handle, addr) = spawn(ServeOptions::default());
    let target = format!(
        "/v1/diagnose?path={}",
        percent_encode(trace.to_str().unwrap())
    );

    let cold = client::get(&addr, &target).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);
    let env = client::parse_envelope(&cold.body).unwrap();
    assert!(env.ok, "{}", cold.body);
    let clusters = env.data.get("clusters").and_then(|c| c.as_array()).unwrap();
    assert!(!clusters.is_empty(), "{}", cold.body);
    for cluster in clusters {
        let cause = cluster.get("cause").and_then(|c| c.as_str()).unwrap();
        assert!(!cause.is_empty(), "every cluster carries a cause label");
    }
    assert!(env.data.get("findings").is_some(), "{}", cold.body);
    let after_cold = stats_of(&addr).totals;
    assert!(after_cold.events_replayed > 0);

    // Warm: the diagnosis is pure post-processing of the cached
    // analysis, so the pipeline counters must not move at all.
    let warm = client::get(&addr, &target).unwrap();
    assert_eq!(warm.status, 200, "{}", warm.body);
    assert_eq!(warm.body, cold.body, "diagnosis must be deterministic");
    let after_warm = stats_of(&addr).totals;
    assert_eq!(after_warm.events_replayed, after_cold.events_replayed);
    assert_eq!(after_warm.bytes_decoded, after_cold.bytes_decoded);

    // The knobs go through the shared codec: bad values are typed 400s
    // naming the key, and max-clusters caps the summary.
    let bad = client::get(&addr, &format!("{target}&max-clusters=0")).unwrap();
    assert_eq!(bad.status, 400, "{}", bad.body);
    let env = client::parse_envelope(&bad.body).unwrap();
    assert!(env.message.contains("max-clusters"), "{}", bad.body);
    let capped = client::get(&addr, &format!("{target}&max-clusters=2")).unwrap();
    assert_eq!(capped.status, 200, "{}", capped.body);
    let env = client::parse_envelope(&capped.body).unwrap();
    let capped_clusters = env.data.get("clusters").and_then(|c| c.as_array()).unwrap();
    assert!(capped_clusters.len() <= 2);

    // Only the full /v1 path routes: the bare path is a 404.
    let bare = client::get(&addr, &target["/v1".len()..]).unwrap();
    assert_eq!(bare.status, 404, "{}", bare.body);
    assert_eq!(
        client::parse_envelope(&bare.body).unwrap().kind,
        "not-found"
    );

    handle.shutdown();
}

#[test]
fn stats_reports_the_pipeline_shape() {
    let dir = tmp("stats");
    let trace = write_fixture(&dir, 5);
    let (handle, addr) = spawn(ServeOptions::default());
    let resp = client::get(&addr, &analyze_target(&trace)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    let stats = stats_of(&addr);
    assert_eq!(stats.ranks, 5);
    assert!(stats.totals.events_replayed > 0);
    assert!(stats.totals.segments_emitted > 0);
    assert!(!stats.stages.is_empty());
    handle.shutdown();
}

#[test]
fn v1_routes_answer_in_the_envelope() {
    let dir = tmp("v1-envelope");
    let trace = write_fixture(&dir, 4);
    let (handle, addr) = spawn(ServeOptions::default());

    let resp = client::get(&addr, "/v1/health").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let env = client::parse_envelope(&resp.body).unwrap();
    assert!(env.ok, "{}", resp.body);
    assert_eq!(
        env.data.get("status").and_then(|v| v.as_str()),
        Some("ok"),
        "{}",
        resp.body
    );

    let resp = client::get(&addr, &analyze_target(&trace)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let env = client::parse_envelope(&resp.body).unwrap();
    assert!(env.ok);
    assert!(env.data.get("sos").is_some(), "{}", resp.body);

    // A per-request threads override is accepted and does not change
    // the result (bit-identical at every parallelism).
    let one = client::get(&addr, &format!("{}&threads=1", analyze_target(&trace))).unwrap();
    assert_eq!(one.status, 200, "{}", one.body);
    assert_eq!(one.body, resp.body, "threads must not change the result");

    // Typed failures: missing parameter, bad option value, missing
    // file, unknown route.
    let cases = [
        ("/v1/analyze", 400, "bad-request"),
        (
            "/v1/analyze?path=%2Fmissing.pvta&multiplier=banana",
            400,
            "bad-request",
        ),
        (
            "/v1/analyze?path=%2Fdefinitely%2Fmissing.pvta",
            404,
            "not-found",
        ),
        ("/v1/frobnicate", 404, "not-found"),
    ];
    for (target, status, kind) in cases {
        let resp = client::get(&addr, target).unwrap();
        assert_eq!(resp.status, status, "{target}: {}", resp.body);
        let env = client::parse_envelope(&resp.body).unwrap();
        assert!(!env.ok, "{target}");
        assert_eq!(env.kind, kind, "{target}: {}", resp.body);
        assert!(!env.message.is_empty(), "{target}");
    }
    handle.shutdown();
}

#[test]
fn former_unversioned_routes_are_not_found() {
    let dir = tmp("unversioned");
    let trace = write_fixture(&dir, 4);
    let (handle, addr) = spawn(ServeOptions::default());
    let enc = percent_encode(trace.to_str().unwrap());

    // Only full `/v1/…` paths route. The pre-`/v1` paths, with or without
    // a valid query, and `/v1` itself are plain 404 envelopes.
    let bare = [
        "/analyze",
        "/refine",
        "/compare",
        "/runs",
        "/runs/register",
        "/stats",
        "/health",
        "/diagnose",
        "/v1",
    ];
    for path in bare {
        for target in [path.to_string(), format!("{path}?path={enc}")] {
            let resp = client::get(&addr, &target).unwrap();
            assert_eq!(resp.status, 404, "{target}: {}", resp.body);
            let env = client::parse_envelope(&resp.body).unwrap();
            assert!(!env.ok, "{target}");
            assert_eq!(env.kind, "not-found", "{target}: {}", resp.body);
            assert_eq!(resp.header("deprecation"), None, "{:?}", resp.headers);
        }
    }
    handle.shutdown();
}

/// The `/v1` envelope built the way pre-splice daemons built it: parse
/// the raw route body and pretty-print `{"ok": true, "data": …}`. Every
/// spliced success body must equal this byte for byte.
fn envelope_of(raw: &str) -> String {
    let doc: serde_json::Value = serde_json::from_str(raw).unwrap();
    let mut body =
        serde_json::to_string_pretty(&serde_json::json!({ "ok": true, "data": doc })).unwrap();
    body.push('\n');
    body
}

#[test]
fn every_v1_success_body_is_the_enveloped_cli_body() {
    let dir = tmp("v1-splice");
    let trace = write_fixture(&dir, 4);
    let (handle, addr) = spawn(ServeOptions {
        store_dir: Some(dir.join("store")),
        ..ServeOptions::default()
    });
    let enc = percent_encode(trace.to_str().unwrap());

    // The raw analysis bodies, rendered in-process exactly as the cache
    // and `perfvar analyze --json` render them.
    let config = AnalysisConfig::default();
    let analyzed = analyze_path_with(&trace, &config, RecoveryMode::Strict).unwrap();
    let refined = analyzed
        .refine(&trace, &config, RecoveryMode::Strict)
        .unwrap()
        .expect("the fixture has a finer segmentation function");
    let analysis_bodies = CachedResult::render(&analyzed).unwrap();
    let refined_body = CachedResult::render(&refined).unwrap().body;
    let metric = |name: &str| {
        let (_, body) = analysis_bodies
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .expect("fixture metric");
        body.clone()
    };
    let rendered = [
        (
            format!("/v1/analyze?path={enc}"),
            analysis_bodies.body.clone(),
        ),
        (format!("/v1/analyze?path={enc}&metric=CYC"), metric("CYC")),
        (format!("/v1/analyze?path={enc}&metric=EXC"), metric("EXC")),
        (format!("/v1/refine?path={enc}&steps=1"), refined_body),
    ];
    // Each twice: the first is a cold miss, the second a warm hit served
    // from the cache.
    for (target, raw) in &rendered {
        for _ in 0..2 {
            let v1 = client::get(&addr, target).unwrap();
            assert_eq!(v1.status, 200, "{target}: {}", v1.body);
            assert_eq!(v1.body, envelope_of(raw), "{target}");
        }
    }

    // Routes with no in-process twin: each envelope must be exactly the
    // oracle's rendering of its own data.
    let own_data = [
        format!("/v1/runs/register?path={enc}&label=fixture"),
        format!("/v1/compare?base=fixture&cand={enc}"),
        "/v1/runs".to_string(),
        "/v1/health".to_string(),
        "/v1/stats".to_string(),
    ];
    for target in &own_data {
        for _ in 0..2 {
            let v1 = client::get(&addr, target).unwrap();
            assert_eq!(v1.status, 200, "{target}: {}", v1.body);
            let mut raw = serde_json::to_string_pretty(&data_of(&v1)).unwrap();
            raw.push('\n');
            assert_eq!(v1.body, envelope_of(&raw), "{target}");
        }
    }

    // `/v1/diagnose` data is the diagnosis of the analysis, rendered the
    // way `perfvar diagnose --json` renders it.
    let analysis = &analyzed.analysis;
    let fixture = fixture_trace(4);
    let registry = fixture.registry();
    let counters: Vec<String> = analysis
        .counters
        .iter()
        .map(|c| registry.metric(c.metric).name.clone())
        .collect();
    let diagnosis = diagnose_analysis(
        analysis,
        &registry.function(analysis.function).name,
        &counters,
        &DiagnoseOptions::default().config(),
    );
    let mut raw = serde_json::to_string_pretty(&diagnosis).unwrap();
    raw.push('\n');
    for _ in 0..2 {
        let v1 = client::get(&addr, &format!("/v1/diagnose?path={enc}")).unwrap();
        assert_eq!(v1.status, 200, "{}", v1.body);
        assert_eq!(v1.body, envelope_of(&raw));
    }
    handle.shutdown();
}

#[test]
fn diagnose_and_compare_from_a_reloaded_spill_are_byte_identical() {
    let dir = tmp("spill-decode");
    let trace = write_fixture(&dir, 4);
    let options = || ServeOptions {
        cache_dir: Some(dir.join("cache")),
        ..ServeOptions::default()
    };
    let enc = percent_encode(trace.to_str().unwrap());
    let targets = [
        format!("/v1/diagnose?path={enc}"),
        format!("/v1/compare?base={enc}&cand={enc}"),
    ];

    let (first, addr) = spawn(options());
    let cold: Vec<String> = targets
        .iter()
        .map(|target| {
            let resp = client::get(&addr, target).unwrap();
            assert_eq!(resp.status, 200, "{target}: {}", resp.body);
            resp.body
        })
        .collect();
    first.shutdown();

    // A fresh daemon reloads the entry from disk and decodes it anew:
    // same bytes, zero analyses.
    let (second, addr2) = spawn(options());
    for _ in 0..2 {
        for (target, body) in targets.iter().zip(&cold) {
            let resp = client::get(&addr2, target).unwrap();
            assert_eq!(resp.status, 200, "{target}: {}", resp.body);
            assert_eq!(&resp.body, body, "{target}");
        }
    }
    assert_eq!(stats_of(&addr2).totals.events_replayed, 0);
    second.shutdown();
}

#[test]
fn torn_run_store_is_left_intact_and_the_daemon_refuses_to_start() {
    let dir = tmp("store-torn");
    let trace = write_fixture(&dir, 3);
    let options = || ServeOptions {
        store_dir: Some(dir.join("store")),
        ..ServeOptions::default()
    };
    let (first, addr) = spawn(options());
    let target = format!(
        "/v1/runs/register?path={}&label=keep",
        percent_encode(trace.to_str().unwrap())
    );
    let resp = client::get(&addr, &target).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    first.shutdown();

    // Simulate a crash that tore the store mid-write.
    let file = dir.join("store").join("runs.json");
    let whole = std::fs::read(&file).unwrap();
    let torn = whole[..whole.len() - 7].to_vec();
    std::fs::write(&file, &torn).unwrap();

    let err = Server::bind("127.0.0.1:0", options())
        .err()
        .expect("a daemon must not start over a torn run store");
    assert!(err.to_string().contains("runs.json"), "{err}");
    assert_eq!(std::fs::read(&file).unwrap(), torn, "store left untouched");
}

#[test]
fn v1_corrupt_stream_carries_rank_and_offset_detail() {
    let dir = tmp("v1-corrupt-detail");
    let trace = write_fixture(&dir, 4);
    let stream1 = trace.join(archive::stream_file(1));
    let bytes = std::fs::read(&stream1).unwrap();
    std::fs::write(&stream1, &bytes[..bytes.len() - 9]).unwrap();

    let (handle, addr) = spawn(ServeOptions::default());
    let resp = client::get(&addr, &analyze_target(&trace)).unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body);
    let doc: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
    let error = doc.get("error").expect("error object");
    assert_eq!(
        error.get("kind").and_then(|v| v.as_str()),
        Some("corrupt-stream"),
        "{}",
        resp.body
    );
    let detail = error.get("detail").expect("detail object");
    assert_eq!(
        detail.get("rank").and_then(|v| v.as_u64()),
        Some(1),
        "{}",
        resp.body
    );
    assert!(
        detail.get("offset").and_then(|v| v.as_u64()).is_some(),
        "{}",
        resp.body
    );
    handle.shutdown();
}

/// Appends `trace` into a live archive at `path` in `chunk`-record
/// slices per rank with `delay` between flushes, then seals it.
fn grow_live_archive(trace: Trace, path: &Path, chunk: usize, delay: std::time::Duration) {
    use perfvar_trace::format::live::LiveArchiveWriter;
    let mut w =
        LiveArchiveWriter::create(path, &trace.name, trace.clock(), trace.registry()).unwrap();
    let streams = trace.streams();
    let mut offsets = vec![0usize; streams.len()];
    loop {
        let mut wrote = false;
        for (i, stream) in streams.iter().enumerate() {
            let records = stream.records();
            let end = (offsets[i] + chunk).min(records.len());
            for r in &records[offsets[i]..end] {
                w.append(stream.process, r).unwrap();
            }
            wrote |= end > offsets[i];
            offsets[i] = end;
        }
        if !wrote {
            break;
        }
        w.flush().unwrap();
        std::thread::sleep(delay);
    }
    w.finish().unwrap();
}

#[test]
fn sse_stream_follows_a_growing_run_to_the_one_shot_result() {
    let dir = tmp("sse-growing");
    let arch = dir.join("live.pvta");
    let trace = fixture_trace(4);
    let (handle, addr) = spawn(ServeOptions::default());

    // Grow the run in the background while the stream follows it. The
    // anchor must exist before the GET: write the first slice eagerly.
    let writer = {
        let arch = arch.clone();
        std::thread::spawn(move || {
            grow_live_archive(trace, &arch, 16, std::time::Duration::from_millis(20))
        })
    };
    // Wait for the anchor so open() cannot race the writer thread.
    let anchor = arch.join("anchor.pvtd");
    while !anchor.exists() {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    let target = format!(
        "/v1/analyze/stream?path={}&interval=10",
        percent_encode(arch.to_str().unwrap())
    );
    let resp = client::get(&addr, &target).unwrap();
    writer.join().unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let events = client::sse_events(&resp.body);
    let deltas: Vec<_> = events.iter().filter(|e| e.event == "delta").collect();
    assert!(!deltas.is_empty(), "no delta events: {}", resp.body);
    for delta in &deltas {
        let doc: serde_json::Value = serde_json::from_str(&delta.data).unwrap();
        assert!(doc.get("new_events").is_some(), "{}", delta.data);
        assert!(delta.id.is_some(), "every delta carries a resume id");
    }
    let result = events.last().expect("stream has events");
    assert_eq!(result.event, "result", "stream must end in a result");

    // The folded stream result equals the one-shot analysis of the
    // (now sealed) archive.
    let one_shot = client::get(
        &addr,
        &format!(
            "/v1/analyze?path={}",
            percent_encode(arch.to_str().unwrap())
        ),
    )
    .unwrap();
    assert_eq!(one_shot.status, 200, "{}", one_shot.body);
    let env = client::parse_envelope(&one_shot.body).unwrap();
    let streamed: serde_json::Value = serde_json::from_str(&result.data).unwrap();
    assert!(
        streamed == env.data,
        "streamed result must equal the one-shot analysis"
    );

    // Resuming with the last delta's id suppresses everything already
    // folded: only the result event remains.
    let last_id = deltas.last().unwrap().id.clone().unwrap();
    let resumed = client::get_with_headers(&addr, &target, &[("Last-Event-ID", &last_id)]).unwrap();
    assert_eq!(resumed.status, 200);
    let resumed_events = client::sse_events(&resumed.body);
    assert!(
        resumed_events.iter().all(|e| e.event != "delta"),
        "resume must suppress already-folded deltas: {}",
        resumed.body
    );
    let resumed_result = resumed_events.iter().find(|e| e.event == "result").unwrap();
    let resumed_doc: serde_json::Value = serde_json::from_str(&resumed_result.data).unwrap();
    assert!(resumed_doc == env.data, "resumed result must match");
    handle.shutdown();
}

#[test]
fn sse_result_counts_in_stats_like_a_one_shot_analysis() {
    let dir = tmp("sse-stats");
    let arch = dir.join("live.pvta");
    grow_live_archive(fixture_trace(4), &arch, 16, std::time::Duration::ZERO);
    let (handle, addr) = spawn(ServeOptions::default());
    let before = stats_of(&addr).totals.events_replayed;
    let resp = client::get(
        &addr,
        &format!(
            "/v1/analyze/stream?path={}&interval=10",
            percent_encode(arch.to_str().unwrap())
        ),
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let events = client::sse_events(&resp.body);
    assert_eq!(events.last().map(|e| e.event.as_str()), Some("result"));
    let streamed = stats_of(&addr).totals.events_replayed - before;
    handle.shutdown();

    // Reference: a one-shot analysis of the sealed archive on a fresh
    // daemon replays this many events.
    let (ref_handle, ref_addr) = spawn(ServeOptions::default());
    let resp = client::get(&ref_addr, &analyze_target(&arch)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let one_shot = stats_of(&ref_addr).totals.events_replayed;
    ref_handle.shutdown();
    assert!(one_shot > 0);
    assert_eq!(
        streamed, one_shot,
        "a finalized stream counts like /v1/analyze"
    );
}

#[test]
fn sse_stream_reports_a_torn_append_with_typed_detail() {
    let dir = tmp("sse-torn");
    let arch = dir.join("live.pvta");
    grow_live_archive(fixture_trace(3), &arch, 64, std::time::Duration::ZERO);
    // Tear the tail off rank 1's stream: a torn final record under a
    // sealed run.
    let stream1 = arch.join(archive::stream_file(1));
    let len = std::fs::metadata(&stream1).unwrap().len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&stream1)
        .unwrap();
    f.set_len(len - 2).unwrap();
    drop(f);

    let (handle, addr) = spawn(ServeOptions::default());
    let resp = client::get(
        &addr,
        &format!(
            "/v1/analyze/stream?path={}&interval=10",
            percent_encode(arch.to_str().unwrap())
        ),
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let events = client::sse_events(&resp.body);
    let error = events
        .iter()
        .find(|e| e.event == "error")
        .unwrap_or_else(|| panic!("no error event: {}", resp.body));
    let doc: serde_json::Value = serde_json::from_str(&error.data).unwrap();
    assert_eq!(
        doc.get("kind").and_then(|v| v.as_str()),
        Some("corrupt-stream"),
        "{}",
        error.data
    );
    let detail = doc.get("detail").expect("detail object");
    assert_eq!(
        detail.get("rank").and_then(|v| v.as_u64()),
        Some(1),
        "{}",
        error.data
    );
    assert!(detail.get("offset").and_then(|v| v.as_u64()).is_some());
    // An errored run never produces a result event.
    assert!(events.iter().all(|e| e.event != "result"), "{}", resp.body);
    handle.shutdown();
}
