//! The analysis daemon: a nonblocking readiness loop feeding a worker
//! pool that routes GET requests through the content-addressed cache
//! and singleflight group into the out-of-core analysis pipeline.
//!
//! # Architecture
//!
//! A single **reactor** thread owns every socket that is not mid-
//! analysis: it polls the listener plus all connections still reading
//! their request head ([`poll::wait_readable`]), accepts without
//! blocking, and accumulates head bytes per connection. Ten thousand
//! idle connections therefore cost one thread and one buffer each —
//! not ten thousand blocked threads. Once a head is complete the
//! connection is switched back to blocking mode and handed to the
//! worker pool, which parses, computes (cache → singleflight →
//! pipeline), and responds. Each analysis parallelises over ranks with
//! [`ServeOptions::threads`].
//!
//! # Endpoints
//!
//! The API lives under `/v1`; no other path answers. Every response is
//! an **envelope**: `{"ok":true,"data":…}` on success,
//! `{"ok":false,"error":{"kind":…,"message":…,"detail":…}}` on failure,
//! where `kind` is a stable typed slug (`bad-request`, `not-found`,
//! `method-not-allowed`, `corrupt-stream`, `corrupt-trace`,
//! `unprocessable`, `internal`) and `detail` carries structured context
//! when the error has any (rank + byte offset for `corrupt-stream`).
//! Statuses: 404 for missing files/routes/metrics, 400 for malformed
//! requests and parameters, 422 for corrupt traces, 405 for non-GET
//! methods, 500 for internal failures.
//!
//! Success envelopes are **written, not re-encoded**: each route renders
//! its `data` document once, already at the envelope's depth, and the
//! response is the envelope head, those bytes and the envelope tail,
//! gathered into one write. A warm `/v1/analyze` hit renders nothing —
//! the cache holds the nested bytes — so it costs the HTTP round trip
//! plus sending the body; a warm `/v1/diagnose` or `/v1/compare` adds the
//! diagnosis or comparison itself, on the cached [`Analysis`]
//! ([`CachedResult::analysis`]), which only an entry restored from a
//! spill has to parse, once.
//!
//! * `GET /v1/analyze?path=P` — full [`Analysis`] JSON for the trace at
//!   `P` (as `data`), matching `perfvar analyze P --json`. Optional
//!   parameters: `function=NAME` (force the segmentation function),
//!   `multiplier=K` (dominant-function invocation threshold),
//!   `threads=N` (per-request parallelism override — never part of the
//!   cache key; the pipeline is bit-identical at every parallelism),
//!   `read-buffer=BYTES`, `no-mmap`, `partial` (recover readable ranks
//!   of a damaged archive), `metric=NAME` (serve one hardware-counter
//!   correlation instead of the full report). The knobs go through the
//!   same [`AnalysisOptions`] codec the CLI flags use.
//! * `GET /v1/refine?path=P&steps=N` — the analysis after `N`
//!   refinement steps into the dominant function's callees (`steps`
//!   defaults to 1), mirroring `perfvar refine`.
//! * `GET /v1/diagnose?path=P` — the automatic diagnosis for the trace
//!   at `P` (as `data`): behaviour clusters with cause labels, the
//!   propagating-wait front when one is detected, and the ranked
//!   findings — byte-identical to `perfvar diagnose P --json`. Extra
//!   knobs `clusters=K`, `cluster-threshold=T`, `max-clusters=N` go
//!   through the same [`DiagnoseOptions`] codec the CLI flags use; the
//!   underlying analysis comes from the content-addressed cache, so a
//!   warm diagnosis decodes zero trace bytes.
//! * `GET /v1/analyze/stream?path=P&interval=MS` — **server-sent
//!   events** over a live (growing) archive: a chunked
//!   `text/event-stream` of `delta` events (one per poll that moved,
//!   id = the prefix digest of everything folded so far), at most one
//!   typed `error` event (corrupt stream: the damaged rank freezes,
//!   the rest keep streaming), and a final `result` event carrying the
//!   full analysis once the run seals cleanly. A client reconnecting
//!   with `Last-Event-ID: <id>` has deltas suppressed until that
//!   prefix digest reappears.
//! * `GET /v1/runs/register?path=P&label=L` — registers the archive at
//!   `P` in the persistent [run store](crate::store) under its content
//!   digest (computing it if needed), optionally labelled `L`.
//! * `GET /v1/runs` — every registered run: digest, label, path.
//! * `GET /v1/compare?base=R&cand=R` — the differential service:
//!   compares two runs (each reference `R` resolving as store label →
//!   store digest → filesystem path) and returns per-rank and
//!   per-function deltas plus a noise-aware verdict (`threshold=T`
//!   overrides the ±5 % default). Both analyses go through the
//!   content-addressed cache, so comparing cached runs performs zero
//!   new analyses.
//! * `GET /v1/stats` — cumulative pipeline telemetry across all
//!   analyses this daemon has run, in the `perfvar stats --json` shape.
//! * `GET /v1/health` — liveness probe, `data = {"status": "ok"}`.

use crate::cache::{cache_key, nested, CachedResult, ResultCache};
use crate::http::{
    finish_chunked, head_complete, parse_request, write_response, write_response_parts,
    write_sse_event, write_sse_head, Request, MAX_HEAD_BYTES,
};
use crate::poll;
use crate::singleflight::Singleflight;
use crate::store::{digest_hex, looks_like_digest, RunRecord, RunStore};
use perfvar_analysis::live::LiveAnalysis;
use perfvar_analysis::parallel::resolve_threads;
use perfvar_analysis::{
    analyze_path_observed, diagnose_analysis, Analysis, AnalysisConfig, AnalysisOptions,
    DiagnoseOptions, RecoveryMode, RunComparison, Telemetry, Verdict, DEFAULT_NOISE_THRESHOLD,
};
use perfvar_trace::format::cursor::ArchiveCursor;
use perfvar_trace::format::digest::{constituent_files, digest_path};
use perfvar_trace::format::Format;
use serde::Serialize;
use std::collections::HashMap;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// How long a connection may take to deliver its complete request head
/// before the reactor retires it with a 400.
const HEAD_TIMEOUT: Duration = Duration::from_secs(10);
/// The reactor's poll granularity: the longest the loop waits before
/// re-checking the stop flag and head deadlines.
const POLL_TICK: Duration = Duration::from_millis(100);

/// Tuning knobs of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads handling connections (each analysis additionally
    /// parallelises internally over ranks).
    pub workers: usize,
    /// Analysis threads per request; `0` means available parallelism,
    /// capped at the rank count.
    pub threads: usize,
    /// In-memory cache capacity in entries.
    pub cache_entries: usize,
    /// Directory for the on-disk JSON spill; `None` disables spilling.
    pub cache_dir: Option<PathBuf>,
    /// Directory for the persistent run store (`runs.json`). `None`
    /// falls back to [`ServeOptions::cache_dir`], so a daemon with a
    /// disk cache keeps its registrations alongside it; without either,
    /// registrations last for the daemon's lifetime only.
    pub store_dir: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            workers: 8,
            threads: 0,
            cache_entries: 64,
            cache_dir: None,
            store_dir: None,
        }
    }
}

/// Structured context attached to a typed error — for `corrupt-stream`,
/// the rank and byte offset of the damage, machine-readable so a live
/// dashboard does not have to parse it back out of the message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ErrorDetail {
    /// The damaged rank's index.
    pub rank: usize,
    /// Byte offset of the first undecodable record in its stream file.
    pub offset: u64,
}

/// A serve-layer error: HTTP status, a typed `kind` slug, the
/// human-readable message, and optional structured detail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeError {
    /// The HTTP status code (4xx/5xx).
    pub status: u16,
    /// The typed error kind: `bad-request`, `not-found`,
    /// `method-not-allowed`, `corrupt-stream`, `corrupt-trace`,
    /// `unprocessable`, or `internal`.
    pub kind: &'static str,
    /// Human-readable diagnosis.
    pub message: String,
    /// Structured context, when the error has any (rank + offset for
    /// `corrupt-stream`).
    pub detail: Option<ErrorDetail>,
}

impl ServeError {
    fn new(status: u16, kind: &'static str, message: impl Into<String>) -> ServeError {
        ServeError {
            status,
            kind,
            message: message.into(),
            detail: None,
        }
    }

    fn with_detail(mut self, detail: ErrorDetail) -> ServeError {
        self.detail = Some(detail);
        self
    }

    /// The error's JSON value in the `/v1` envelope's `error` shape:
    /// `{"kind":…,"message":…,"detail":…}`.
    pub fn error_value(&self) -> serde_json::Value {
        let detail = match &self.detail {
            Some(d) => serde_json::json!({ "rank": d.rank, "offset": d.offset }),
            None => serde_json::Value::Null,
        };
        serde_json::json!({
            "kind": self.kind,
            "message": self.message.clone(),
            "detail": detail,
        })
    }

    /// The `/v1` envelope body:
    /// `{"ok":false,"error":{"kind","message","detail"}}`.
    pub fn envelope_body(&self) -> String {
        let doc = serde_json::json!({ "ok": false, "error": self.error_value() });
        let mut body = serde_json::to_string_pretty(&doc).unwrap_or_default();
        body.push('\n');
        body
    }
}

/// Everything a `/v1` success envelope holds before its `data` value.
const ENVELOPE_HEAD: &str = "{\n  \"ok\": true,\n  \"data\": ";
/// Everything a `/v1` success envelope holds after its `data` value.
const ENVELOPE_TAIL: &str = "\n}\n";

/// A route's `data`, rendered at the envelope's depth ([`nested`]): for
/// this request, or shared straight out of a cache entry without a copy.
enum Data {
    Rendered(String),
    /// The entry's analysis body.
    Analysis(Arc<CachedResult>),
    /// The entry's `metrics[i]` body.
    Metric(Arc<CachedResult>, usize),
}

impl Data {
    fn as_str(&self) -> &str {
        match self {
            Data::Rendered(body) => body,
            Data::Analysis(entry) => &entry.body,
            Data::Metric(entry, i) => &entry.metrics[*i].1,
        }
    }
}

/// Renders a route's `data` document at the envelope's depth.
fn render<T: Serialize + ?Sized>(value: &T) -> Result<String, ServeError> {
    nested(value).map_err(|m| ServeError::new(500, "internal", m))
}

/// One run of a `/v1/compare` body.
#[derive(Serialize)]
struct RunDoc<'a> {
    reference: &'a str,
    digest: &'a str,
    label: &'a str,
    path: String,
}

impl<'a> RunDoc<'a> {
    fn of(run: &'a ResolvedRun, digest: &'a str) -> RunDoc<'a> {
        RunDoc {
            reference: &run.reference,
            digest,
            label: run.record.as_ref().map_or("", |r| r.label.as_str()),
            path: run.path.display().to_string(),
        }
    }
}

/// The `/v1/compare` body.
#[derive(Serialize)]
struct CompareDoc<'a> {
    base: RunDoc<'a>,
    cand: RunDoc<'a>,
    comparison: &'a RunComparison,
    verdict: &'a Verdict,
}

/// The `/v1/runs` body.
#[derive(Serialize)]
struct RunsDoc<'a> {
    runs: &'a [RunRecord],
}

/// One file's freshness signature: length and modification time.
type FileSig = (PathBuf, u64, Option<SystemTime>);

/// A connection the reactor has read a complete request head from,
/// ready for a worker to parse and answer.
type ReadyConn = (TcpStream, Vec<u8>);

/// Memoises archive digests by path, invalidated when any constituent
/// file's size or mtime changes. This is what keeps warm requests off
/// the disk: re-hashing the archive on every hit would read the whole
/// trace back in.
///
/// A size+mtime signature has a blind spot: on filesystems with
/// whole-second mtime granularity, a file rewritten in place with
/// equal length *within the same second* keeps its signature while its
/// bytes change. [`DigestMemo::signature_is_stable`] detects exactly
/// those entries (coarse mtime still inside the granularity window) and
/// refuses to trust the memo for them — the digest is re-hashed from
/// the bytes until the mtime is old enough to be tamper-evident.
#[derive(Default)]
struct DigestMemo {
    known: Mutex<HashMap<PathBuf, (Vec<FileSig>, u128)>>,
}

impl DigestMemo {
    fn signature(path: &Path) -> Result<Vec<FileSig>, ServeError> {
        let files = constituent_files(path).map_err(trace_error)?;
        files
            .into_iter()
            .map(|f| {
                let meta = std::fs::metadata(&f).map_err(|e| io_error(&f, &e))?;
                Ok((f, meta.len(), meta.modified().ok()))
            })
            .collect()
    }

    /// Whether a matching signature proves the bytes are unchanged. A
    /// whole-second mtime (granularity ≥ 1 s — or a one-in-10⁹
    /// coincidence, where caution merely costs a re-hash) less than two
    /// seconds old could have been written *after* a same-second
    /// same-length rewrite; an absent mtime proves nothing at all.
    fn signature_is_stable(sig: &[FileSig]) -> bool {
        let now = SystemTime::now();
        sig.iter().all(|(_, _, mtime)| match mtime {
            None => false,
            Some(m) => {
                let coarse = m
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.subsec_nanos() == 0)
                    .unwrap_or(true);
                !coarse
                    || now
                        .duration_since(*m)
                        .map(|age| age.as_secs() >= 2)
                        .unwrap_or(false)
            }
        })
    }

    fn digest_of(&self, path: &Path) -> Result<u128, ServeError> {
        let sig = DigestMemo::signature(path)?;
        if DigestMemo::signature_is_stable(&sig) {
            if let Some((known_sig, digest)) = self.known.lock().unwrap().get(path) {
                if *known_sig == sig {
                    return Ok(*digest);
                }
            }
        }
        let digest = digest_path(path).map_err(trace_error)?;
        self.known
            .lock()
            .unwrap()
            .insert(path.to_path_buf(), (sig, digest));
        Ok(digest)
    }
}

fn io_error(path: &Path, e: &std::io::Error) -> ServeError {
    let (status, kind) = match e.kind() {
        std::io::ErrorKind::NotFound => (404, "not-found"),
        _ => (500, "internal"),
    };
    ServeError::new(status, kind, format!("{}: {e}", path.display()))
}

fn trace_error(e: perfvar_trace::TraceError) -> ServeError {
    match e {
        perfvar_trace::TraceError::Io(ref io) if io.kind() == std::io::ErrorKind::NotFound => {
            ServeError::new(404, "not-found", e.to_string())
        }
        perfvar_trace::TraceError::Io(_) => ServeError::new(500, "internal", e.to_string()),
        perfvar_trace::TraceError::CorruptStream {
            process, offset, ..
        } => ServeError::new(422, "corrupt-stream", e.to_string()).with_detail(ErrorDetail {
            rank: process.index(),
            offset,
        }),
        other => ServeError::new(422, "corrupt-trace", other.to_string()),
    }
}

fn path_error(e: perfvar_analysis::PathAnalysisError) -> ServeError {
    // I/O-level misses (the archive or a stream file vanished) are 404;
    // everything else — corrupt streams, empty traces, analysis
    // failures — is a content problem on an existing input: 422.
    match e {
        perfvar_analysis::PathAnalysisError::Trace(e) => trace_error(e),
        perfvar_analysis::PathAnalysisError::Analysis(e) => {
            ServeError::new(422, "unprocessable", e.to_string())
        }
    }
}

struct ServerState {
    telemetry: Telemetry,
    cache: ResultCache,
    flights: Singleflight<Result<Arc<CachedResult>, ServeError>>,
    digests: DigestMemo,
    store: RunStore,
    threads: usize,
    stop: AtomicBool,
}

/// One analysis request, decoded from the query string.
struct AnalyzeParams {
    path: PathBuf,
    config: AnalysisConfig,
    mode: RecoveryMode,
    refine_steps: usize,
    metric: Option<String>,
    /// `threads=N` from the query, when present — overrides the
    /// daemon-wide default (never part of the cache key; the pipeline
    /// is bit-identical at every parallelism).
    threads: Option<usize>,
}

/// Decodes the shared analysis knobs out of the query through the one
/// [`AnalysisOptions`] codec the CLI uses — `function`, `multiplier`,
/// `threads`, `read-buffer`, `no-mmap`, `partial` — so the daemon and
/// the CLI cannot drift apart again. Unowned keys (`path`, `steps`,
/// `metric`, …) pass through untouched.
fn options_of(req: &Request) -> Result<AnalysisOptions, ServeError> {
    let mut options = AnalysisOptions::default();
    for (key, value) in &req.query {
        let value = (!value.is_empty()).then_some(value.as_str());
        options
            .absorb(key, value)
            .map_err(|e| ServeError::new(400, "bad-request", e.to_string()))?;
    }
    Ok(options)
}

/// Decodes the diagnosis knobs (`clusters`, `cluster-threshold`,
/// `max-clusters`) out of the query through the one [`DiagnoseOptions`]
/// codec the CLI flags use. Unowned keys pass through untouched.
fn diagnose_options_of(req: &Request) -> Result<DiagnoseOptions, ServeError> {
    let mut options = DiagnoseOptions::default();
    for (key, value) in &req.query {
        let value = (!value.is_empty()).then_some(value.as_str());
        options
            .absorb(key, value)
            .map_err(|e| ServeError::new(400, "bad-request", e.to_string()))?;
    }
    Ok(options)
}

/// The config + recovery mode a request's query describes.
fn config_of(req: &Request) -> Result<(AnalysisConfig, RecoveryMode), ServeError> {
    let options = options_of(req)?;
    Ok((options.config(), options.recovery_mode()))
}

fn params_of(req: &Request, refine: bool) -> Result<AnalyzeParams, ServeError> {
    let path = req
        .param("path")
        .ok_or_else(|| ServeError::new(400, "bad-request", "missing required parameter: path"))?;
    if path.is_empty() {
        return Err(ServeError::new(
            400,
            "bad-request",
            "missing required parameter: path",
        ));
    }
    let options = options_of(req)?;
    let refine_steps = if refine {
        match req.param("steps") {
            Some(raw) => raw.parse().map_err(|e| {
                ServeError::new(400, "bad-request", format!("invalid steps {raw:?}: {e}"))
            })?,
            None => 1,
        }
    } else {
        0
    };
    Ok(AnalyzeParams {
        path: PathBuf::from(path),
        config: options.config(),
        mode: options.recovery_mode(),
        refine_steps,
        metric: req.param("metric").map(str::to_string),
        threads: req.has_param("threads").then_some(options.threads),
    })
}

/// One side of a `/v1/compare`, resolved to an archive on disk.
struct ResolvedRun {
    /// The reference as the client sent it.
    reference: String,
    /// The archive path to analyse.
    path: PathBuf,
    /// The store record the reference resolved through, if any.
    record: Option<RunRecord>,
}

impl ServerState {
    /// Fresh daemon state: empty cache and telemetry, and the run store
    /// loaded from [`ServeOptions::store_dir`] (falling back to the cache
    /// directory). Fails when an existing store file cannot be read or
    /// parsed, naming the file.
    fn new(options: ServeOptions) -> std::io::Result<ServerState> {
        let store_dir = options
            .store_dir
            .clone()
            .or_else(|| options.cache_dir.clone());
        Ok(ServerState {
            telemetry: Telemetry::enabled(),
            store: RunStore::open(store_dir.as_deref())?,
            cache: ResultCache::new(options.cache_entries, options.cache_dir),
            flights: Singleflight::new(),
            digests: DigestMemo::default(),
            threads: options.threads,
            stop: AtomicBool::new(false),
        })
    }

    /// Resolves a `/v1/compare` run reference: store label → store digest →
    /// filesystem path. A reference *shaped* like a digest that the
    /// store does not know is a 404 (a mistyped digest must not be
    /// misread as a relative path).
    fn resolve_run(&self, reference: &str) -> Result<ResolvedRun, ServeError> {
        if let Some(record) = self.store.find(reference) {
            return Ok(ResolvedRun {
                reference: reference.to_string(),
                path: PathBuf::from(record.path.clone()),
                record: Some(record),
            });
        }
        if looks_like_digest(reference) {
            return Err(ServeError::new(
                404,
                "not-found",
                format!("digest {reference} is not in the run store"),
            ));
        }
        Ok(ResolvedRun {
            reference: reference.to_string(),
            path: PathBuf::from(reference),
            record: None,
        })
    }

    /// The `/v1/compare` handler: resolve both references, fetch both
    /// analyses through the cache (zero new analyses when warm), and
    /// render deltas plus the noise-aware verdict. The body contains no
    /// timestamps or other run-varying state, so repeated comparisons
    /// of the same runs are byte-identical.
    fn compare(&self, req: &Request) -> Result<String, ServeError> {
        let base_ref = req.param("base").ok_or_else(|| {
            ServeError::new(400, "bad-request", "missing required parameter: base")
        })?;
        let cand_ref = req.param("cand").ok_or_else(|| {
            ServeError::new(400, "bad-request", "missing required parameter: cand")
        })?;
        if base_ref.is_empty() || cand_ref.is_empty() {
            return Err(ServeError::new(400, "bad-request", "empty run reference"));
        }
        let threshold = match req.param("threshold") {
            Some(raw) => raw
                .parse::<f64>()
                .ok()
                .filter(|t| t.is_finite() && *t >= 0.0)
                .ok_or_else(|| {
                    ServeError::new(
                        400,
                        "bad-request",
                        format!("invalid threshold {raw:?}: expected a non-negative number"),
                    )
                })?,
            None => DEFAULT_NOISE_THRESHOLD,
        };
        let (config, mode) = config_of(req)?;
        let base = self.resolve_run(base_ref)?;
        let cand = self.resolve_run(cand_ref)?;
        let side =
            |run: &ResolvedRun| -> Result<(Arc<CachedResult>, Arc<Analysis>, String), ServeError> {
                let digest = self.digests.digest_of(&run.path)?;
                let entry = self.entry_for(&AnalyzeParams {
                    path: run.path.clone(),
                    config: config.clone(),
                    mode,
                    refine_steps: 0,
                    metric: None,
                    threads: None,
                })?;
                let analysis = entry
                    .analysis()
                    .map_err(|m| ServeError::new(500, "internal", m))?;
                Ok((entry, analysis, digest_hex(digest)))
            };
        let (base_entry, base_analysis, base_digest) = side(&base)?;
        let (cand_entry, cand_analysis, cand_digest) = side(&cand)?;
        let comparison = RunComparison::compare_analyses(
            &base_analysis,
            &base_entry.functions,
            &cand_analysis,
            &cand_entry.functions,
        );
        let verdict = comparison.verdict(threshold);
        render(&CompareDoc {
            base: RunDoc::of(&base, &base_digest),
            cand: RunDoc::of(&cand, &cand_digest),
            comparison: &comparison,
            verdict: &verdict,
        })
    }

    /// The `/v1/runs/register` handler: digest the archive and record it.
    fn register_run(&self, req: &Request) -> Result<String, ServeError> {
        let path = req.param("path").filter(|p| !p.is_empty()).ok_or_else(|| {
            ServeError::new(400, "bad-request", "missing required parameter: path")
        })?;
        let path = PathBuf::from(path);
        let digest = self.digests.digest_of(&path)?;
        let record = self
            .store
            .register(digest, req.param("label"), &path)
            .map_err(|m| {
                ServeError::new(500, "internal", format!("run store write failed: {m}"))
            })?;
        render(&record)
    }

    /// The `/v1/runs` handler: every registration, in order.
    fn list_runs(&self) -> Result<String, ServeError> {
        render(&RunsDoc {
            runs: &self.store.list(),
        })
    }

    /// Normalises the thread count exactly like the CLI does: for
    /// archives, cap at the rank count read from the anchor file.
    fn normalized_threads(&self, requested: usize, path: &Path) -> Result<usize, ServeError> {
        if Format::from_path(path) == Format::Archive {
            let cursor = ArchiveCursor::open(path).map_err(trace_error)?;
            Ok(resolve_threads(requested, cursor.num_processes()))
        } else {
            Ok(resolve_threads(requested, 1))
        }
    }

    fn compute_entry(&self, params: &AnalyzeParams) -> Result<Arc<CachedResult>, ServeError> {
        let mut config = params.config.clone();
        config.threads =
            self.normalized_threads(params.threads.unwrap_or(self.threads), &params.path)?;
        let mut result = analyze_path_observed(&params.path, &config, params.mode, &self.telemetry)
            .map_err(path_error)?;
        for _ in 0..params.refine_steps {
            result = result
                .refine(&params.path, &config, params.mode)
                .map_err(path_error)?
                .ok_or_else(|| {
                    ServeError::new(
                        422,
                        "unprocessable",
                        "no finer segmentation function available",
                    )
                })?;
        }
        CachedResult::render(&result)
            .map(Arc::new)
            .map_err(|m| ServeError::new(500, "internal", m))
    }

    /// The `GET /v1/diagnose` handler: run (or reuse) the analysis for
    /// `path=…` through the content-addressed cache, then diagnose it —
    /// clustering, cause labels, wave detection. The diagnosis itself is
    /// pure post-processing of the cached [`Analysis`], so a warm
    /// request decodes zero trace bytes; the body is byte-identical to
    /// `perfvar diagnose <path> --json`.
    fn diagnose(&self, req: &Request) -> Result<String, ServeError> {
        let params = params_of(req, false)?;
        let config = diagnose_options_of(req)?.config();
        let entry = self.entry_for(&params)?;
        let analysis = entry
            .analysis()
            .map_err(|m| ServeError::new(500, "internal", m))?;
        let function = entry
            .functions
            .get(analysis.function.index())
            .cloned()
            .unwrap_or_else(|| format!("fn#{}", analysis.function.index()));
        let counter_names: Vec<String> =
            entry.metrics.iter().map(|(name, _)| name.clone()).collect();
        let diagnosis = diagnose_analysis(&analysis, &function, &counter_names, &config);
        render(&diagnosis)
    }

    /// Cache → singleflight → pipeline. Returns the entry and whether
    /// this request actually ran an analysis (for logging/tests).
    fn entry_for(&self, params: &AnalyzeParams) -> Result<Arc<CachedResult>, ServeError> {
        let digest = self.digests.digest_of(&params.path)?;
        let key = cache_key(digest, &params.config, params.mode, params.refine_steps);
        if let Some(hit) = self.cache.get(key) {
            return Ok(hit);
        }
        let (result, _leader) = self.flights.run(key, || {
            // Double-check under the flight: a concurrent leader may have
            // filled the cache between our miss and claiming the flight.
            if let Some(hit) = self.cache.get_memory(key) {
                return Ok(hit);
            }
            let entry = self.compute_entry(params)?;
            self.cache.put(key, entry.clone());
            Ok(entry)
        });
        result
    }

    /// Routes one request to its handler and returns its `data`, which
    /// [`handle_connection`] writes inside the envelope. Only full
    /// `/v1/…` paths route; anything else is a 404.
    ///
    /// [`handle_connection`]: ServerState::handle_connection
    fn respond(&self, req: &Request) -> Result<Data, ServeError> {
        if req.method != "GET" {
            return Err(ServeError::new(
                405,
                "method-not-allowed",
                format!("method {} not allowed; the API is GET-only", req.method),
            ));
        }
        let rendered = match req.path.as_str() {
            "/v1/health" => render(&serde_json::json!({ "status": "ok" })),
            "/v1/stats" => {
                let stats = self
                    .telemetry
                    .snapshot()
                    .ok_or_else(|| ServeError::new(500, "internal", "telemetry disabled"))?;
                render(&stats)
            }
            "/v1/compare" => self.compare(req),
            "/v1/diagnose" => self.diagnose(req),
            "/v1/runs" => self.list_runs(),
            "/v1/runs/register" => self.register_run(req),
            "/v1/analyze" => return self.cached_body(req, false),
            "/v1/refine" => return self.cached_body(req, true),
            other => Err(ServeError::new(
                404,
                "not-found",
                format!("no such endpoint: {other}"),
            )),
        };
        rendered.map(Data::Rendered)
    }

    /// The `/v1/analyze` and `/v1/refine` handler: the cached analysis body, or
    /// one metric's body with `metric=NAME`, shared out of the cache
    /// entry without a copy.
    fn cached_body(&self, req: &Request, refine: bool) -> Result<Data, ServeError> {
        let params = params_of(req, refine)?;
        let entry = self.entry_for(&params)?;
        let Some(name) = &params.metric else {
            return Ok(Data::Analysis(entry));
        };
        if let Some(i) = entry.metrics.iter().position(|(n, _)| n == name) {
            return Ok(Data::Metric(entry, i));
        }
        let available: Vec<&str> = entry.metrics.iter().map(|(n, _)| n.as_str()).collect();
        Err(ServeError::new(
            404,
            "not-found",
            if available.is_empty() {
                format!("unknown metric {name:?}: trace has no counter channels")
            } else {
                format!(
                    "unknown metric {name:?}: available metrics are {}",
                    available.join(", ")
                )
            },
        ))
    }

    /// Worker half of request handling: the reactor already buffered the
    /// complete head; parse it, compute, answer in the envelope, close.
    /// `GET /v1/analyze/stream` takes over the socket entirely and
    /// streams SSE until the watched run seals.
    fn handle_connection(self: &Arc<Self>, stream: TcpStream, head: Vec<u8>) {
        let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
        let outcome = match parse_request(&head) {
            Err(e) => Err(ServeError::new(
                400,
                "bad-request",
                format!("malformed request: {e}"),
            )),
            Ok(req) if req.path == "/v1/analyze/stream" && req.method == "GET" => {
                return self.stream_analysis(stream, &req);
            }
            Ok(req) => self.respond(&req),
        };
        let _ = match outcome {
            Ok(data) => {
                write_response_parts(&stream, 200, &[ENVELOPE_HEAD, data.as_str(), ENVELOPE_TAIL])
            }
            Err(e) => write_response(&stream, e.status, &e.envelope_body()),
        };
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }

    /// The `GET /v1/analyze/stream` handler: validate the query, open a
    /// [`LiveAnalysis`] over the (possibly still growing) archive, and
    /// hand the socket to a dedicated streamer thread — workers go back
    /// to the pool immediately, so slow streams never starve the JSON
    /// API.
    fn stream_analysis(self: &Arc<Self>, stream: TcpStream, req: &Request) {
        let refuse = |e: ServeError| {
            let _ = write_response(&stream, e.status, &e.envelope_body());
            let _ = stream.shutdown(std::net::Shutdown::Both);
        };
        let setup = || -> Result<(LiveAnalysis, Duration), ServeError> {
            let path = req.param("path").filter(|p| !p.is_empty()).ok_or_else(|| {
                ServeError::new(400, "bad-request", "missing required parameter: path")
            })?;
            let options = options_of(req)?;
            let interval = match req.param("interval") {
                Some(raw) => raw.parse::<u64>().map_err(|e| {
                    ServeError::new(400, "bad-request", format!("invalid interval {raw:?}: {e}"))
                })?,
                None => 200,
            };
            let live = LiveAnalysis::open(path, options.config()).map_err(path_error)?;
            Ok((live, Duration::from_millis(interval.max(10))))
        };
        let (live, interval) = match setup() {
            Ok(ready) => ready,
            Err(e) => return refuse(e),
        };
        let resume = req.header("last-event-id").map(str::to_string);
        let state = Arc::clone(self);
        std::thread::spawn(move || state.stream_loop(stream, live, interval, resume));
    }

    /// The streamer thread body: emits one `delta` SSE event per poll
    /// that moved, a single typed `error` event if a stream goes
    /// corrupt, and a final `result` event carrying the full analysis
    /// once the run seals cleanly. Event ids are the prefix digest of
    /// everything folded so far, so a client reconnecting with
    /// `Last-Event-ID` skips the deltas it has already applied.
    fn stream_loop(
        &self,
        stream: TcpStream,
        mut live: LiveAnalysis,
        interval: Duration,
        resume: Option<String>,
    ) {
        if write_sse_head(&stream).is_err() {
            return;
        }
        // Until the resume id's prefix digest shows up, deltas are
        // suppressed — the client already folded that prefix.
        let mut suppress = resume.is_some();
        let mut errored = false;
        loop {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let mut delta = live.poll();
            let id = format!("{:032x}", delta.fingerprint);
            if let Some(error) = delta.error.take() {
                if !errored {
                    errored = true;
                    let e = trace_error(error);
                    let data = serde_json::to_string(&e.error_value()).unwrap_or_default();
                    if write_sse_event(&stream, Some(&id), "error", &data).is_err() {
                        return;
                    }
                }
            }
            let moved = delta.new_events > 0 || delta.new_bytes > 0;
            if moved && !suppress {
                let snapshot = live.snapshot();
                let doc = serde_json::json!({
                    "new_events": delta.new_events,
                    "new_bytes": delta.new_bytes,
                    "new_segments": delta.new_segments.len(),
                    "touched_ranks": delta.touched_ranks.clone(),
                    "events": snapshot.events,
                    "bytes": snapshot.bytes,
                    "finished": delta.finished,
                });
                let data = serde_json::to_string(&doc).unwrap_or_default();
                if write_sse_event(&stream, Some(&id), "delta", &data).is_err() {
                    return;
                }
            }
            if suppress && resume.as_deref() == Some(id.as_str()) {
                suppress = false;
            }
            if delta.finished {
                if !errored {
                    match live.finalize_observed(&self.telemetry) {
                        Ok(result) => {
                            let data = serde_json::to_string(&result.analysis).unwrap_or_default();
                            let _ = write_sse_event(&stream, Some(&id), "result", &data);
                        }
                        Err(e) => {
                            let err = path_error(e);
                            let data =
                                serde_json::to_string(&err.error_value()).unwrap_or_default();
                            let _ = write_sse_event(&stream, Some(&id), "error", &data);
                        }
                    }
                }
                break;
            }
            std::thread::sleep(interval);
        }
        let _ = finish_chunked(&stream);
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
}

/// A connection the reactor is still reading the request head from.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    deadline: Instant,
}

/// What the reactor decided about one connection this tick.
enum Drive {
    /// Head incomplete, deadline not reached — keep polling.
    Pending,
    /// Head complete (terminator seen, or EOF with data): hand the
    /// buffered head to a worker.
    Dispatch,
    /// Answer this error inline and close (oversized head, timeout).
    Reject(ServeError),
    /// Peer vanished without sending anything useful — just close.
    Gone,
}

/// Drains whatever is currently readable into the connection's head
/// buffer (never blocking) and classifies the connection's state.
fn drive_conn(conn: &mut Conn, readable: bool, now: Instant) -> Drive {
    if readable {
        let mut chunk = [0u8; 4096];
        loop {
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    // EOF: whatever arrived is the whole head.
                    return if conn.buf.is_empty() {
                        Drive::Gone
                    } else {
                        Drive::Dispatch
                    };
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&chunk[..n]);
                    if conn.buf.len() > MAX_HEAD_BYTES {
                        return Drive::Reject(ServeError::new(
                            400,
                            "bad-request",
                            "request head too large",
                        ));
                    }
                    if head_complete(&conn.buf, false) {
                        return Drive::Dispatch;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Drive::Gone,
            }
        }
    }
    if now >= conn.deadline {
        return Drive::Reject(ServeError::new(
            400,
            "bad-request",
            "timed out reading the request head",
        ));
    }
    Drive::Pending
}

/// The reactor: one thread polling the listener plus every head-reading
/// connection. Exits when the stop flag is raised (checked at least
/// every [`POLL_TICK`]); dropping its `tx` then drains the worker pool.
fn reactor(listener: TcpListener, state: Arc<ServerState>, tx: Sender<ReadyConn>) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<poll::Fd> = Vec::new();
    while !state.stop.load(Ordering::SeqCst) {
        fds.clear();
        fds.push(poll::fd_of(&listener));
        fds.extend(conns.iter().map(|c| poll::fd_of(&c.stream)));
        let ready = match poll::wait_readable(&fds, POLL_TICK) {
            Ok(ready) => ready,
            Err(_) => continue,
        };

        // Drive existing connections first — `ready[1..]` is aligned
        // with `conns` before any accept mutates the list.
        let now = Instant::now();
        let mut keep = Vec::with_capacity(conns.len());
        for (idx, mut conn) in conns.drain(..).enumerate() {
            let readable = ready.get(idx + 1).copied().unwrap_or(false);
            match drive_conn(&mut conn, readable, now) {
                Drive::Pending => keep.push(conn),
                Drive::Dispatch => {
                    // Workers use plain blocking writes; undo the
                    // reactor's nonblocking mode before handing over.
                    let _ = conn.stream.set_nonblocking(false);
                    if tx.send((conn.stream, conn.buf)).is_err() {
                        return;
                    }
                }
                Drive::Reject(e) => {
                    let _ = conn.stream.set_nonblocking(false);
                    let _ = conn.stream.set_write_timeout(Some(Duration::from_secs(1)));
                    let _ = write_response(&conn.stream, e.status, &e.envelope_body());
                    let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                }
                Drive::Gone => {
                    let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                }
            }
        }
        conns = keep;

        if ready.first().copied().unwrap_or(false) {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        conns.push(Conn {
                            stream,
                            buf: Vec::new(),
                            deadline: Instant::now() + HEAD_TIMEOUT,
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }
    }
}

/// A bound (but not yet serving) analysis daemon.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    workers: usize,
}

/// Handle to a running [`Server`]: its address, a shutdown switch, and
/// the thread joins.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    state: Arc<ServerState>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7787`; port `0` picks an ephemeral
    /// port, readable via [`Server::local_addr`]). Fails without binding
    /// when the run store file exists but does not parse — the daemon
    /// refuses to start rather than overwrite it — and the error names
    /// the file.
    pub fn bind(addr: &str, options: ServeOptions) -> std::io::Result<Server> {
        let workers = options.workers.max(1);
        let state = Arc::new(ServerState::new(options)?);
        let listener = TcpListener::bind(addr)
            .map_err(|e| std::io::Error::new(e.kind(), format!("cannot bind {addr}: {e}")))?;
        Ok(Server {
            listener,
            state,
            workers,
        })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the reactor and worker pool in background threads.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let (tx, rx): (Sender<ReadyConn>, Receiver<ReadyConn>) = std::sync::mpsc::channel();
        let rx = Arc::new(Mutex::new(rx));

        let workers = (0..self.workers)
            .map(|_| {
                let rx = rx.clone();
                let state = self.state.clone();
                std::thread::spawn(move || loop {
                    let next = rx.lock().unwrap().recv();
                    match next {
                        Ok((stream, head)) => {
                            if state.stop.load(Ordering::SeqCst) {
                                break;
                            }
                            state.handle_connection(stream, head);
                        }
                        Err(_) => break, // reactor gone
                    }
                })
            })
            .collect();

        let state = self.state.clone();
        let listener = self.listener;
        // Dropping `tx` when the reactor exits lets every idle worker's
        // recv() fail and the pool drain.
        let acceptor = std::thread::spawn(move || reactor(listener, state, tx));

        Ok(ServerHandle {
            addr,
            state: self.state,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// Serves forever on the calling thread (the CLI entry point).
    pub fn run(self) -> std::io::Result<()> {
        let handle = self.spawn()?;
        handle.join();
        Ok(())
    }
}

impl ServerHandle {
    /// The address the daemon is serving on.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the worker pool, and joins all threads.
    pub fn shutdown(mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        // One throwaway connection makes the listener readable so the
        // reactor's poll returns now instead of after a full tick.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Blocks until the daemon exits (it normally never does; use
    /// [`ServerHandle::shutdown`] from another thread to stop it).
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::percent_encode;
    use perfvar_trace::format::write_trace_file;
    use perfvar_trace::{Clock, FunctionRole, MetricMode, Timestamp, Trace, TraceBuilder};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use serde_json::{Number, Value};

    /// The envelope built by parsing a route's raw CLI-style body and
    /// pretty-printing `{"ok": true, "data": …}`: the byte-level oracle
    /// the head + nested data + tail response must reproduce.
    fn envelope_oracle(raw: &str) -> String {
        let doc: Value = serde_json::from_str(raw).expect("raw body parses");
        let mut body =
            serde_json::to_string_pretty(&serde_json::json!({ "ok": true, "data": doc })).unwrap();
        body.push('\n');
        body
    }

    /// A raw route body: the pretty document plus the trailing newline,
    /// as the CLI prints it.
    fn raw_body(v: &Value) -> String {
        let mut raw = serde_json::to_string_pretty(v).unwrap();
        raw.push('\n');
        raw
    }

    /// The response body the daemon writes around a route's `data`.
    fn envelope(data: &Data) -> String {
        [ENVELOPE_HEAD, data.as_str(), ENVELOPE_TAIL].concat()
    }

    fn enveloped(doc: &Value) -> String {
        envelope(&Data::Rendered(render(doc).unwrap()))
    }

    /// Numbers at the edges of the pretty writer: signed zero, whole
    /// floats on both sides of its 1e16 cut-over, integer extremes, and
    /// non-finite floats (which render as `null`).
    const EDGE_NUMBERS: &[Number] = &[
        Number::U64(0),
        Number::U64(u64::MAX),
        Number::I64(i64::MIN),
        Number::I64(-1),
        Number::F64(-0.0),
        Number::F64(0.0),
        Number::F64(1.0),
        Number::F64(9_999_999_999_999_998.0),
        Number::F64(1e16),
        Number::F64(1e17),
        Number::F64(-1e300),
        Number::F64(1e-7),
        Number::F64(0.1),
        Number::F64(f64::MAX),
        Number::F64(f64::MIN_POSITIVE),
        Number::F64(f64::NAN),
        Number::F64(f64::INFINITY),
        Number::F64(f64::NEG_INFINITY),
    ];

    /// String fragments that need escaping, plus non-ASCII and text that
    /// looks like the envelope itself.
    const FRAGMENTS: &[&str] = &[
        "",
        "a",
        "key",
        " ",
        "\n",
        "\r",
        "\t",
        "\"",
        "\\",
        "\u{0}",
        "\u{8}",
        "\u{c}",
        "\u{1f}",
        "\u{7f}",
        "é",
        "日本",
        "🦀",
        "\u{2028}",
        "  \n  ",
        "{\n  \"ok\": true,",
    ];

    fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
        items[rng.below(items.len() as u64) as usize]
    }

    fn tricky_string(rng: &mut TestRng) -> String {
        (0..rng.below(4)).map(|_| pick(rng, FRAGMENTS)).collect()
    }

    fn leaf(rng: &mut TestRng) -> Value {
        match rng.below(8) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 0),
            2 => Value::Number(Number::U64(rng.next_u64() >> rng.below(64))),
            3 => Value::Number(Number::I64(-((rng.next_u64() >> 1) as i64) - 1)),
            4 => Value::Number(Number::F64(f64::from_bits(rng.next_u64()))),
            5 => Value::Number(Number::F64((rng.unit_f64() - 0.5) * 1e6)),
            6 => Value::Number(pick(rng, EDGE_NUMBERS)),
            _ => Value::String(tricky_string(rng)),
        }
    }

    /// Random JSON trees up to `depth` levels deep, with empty arrays and
    /// objects, escaped keys, and duplicate keys all reachable.
    struct JsonTree {
        depth: u32,
    }

    impl Strategy for JsonTree {
        type Value = Value;
        fn generate(&self, rng: &mut TestRng) -> Value {
            if self.depth == 0 || rng.below(4) == 0 {
                return leaf(rng);
            }
            let child = JsonTree {
                depth: self.depth - 1,
            };
            let len = rng.below(5);
            if rng.below(2) == 0 {
                Value::Array((0..len).map(|_| child.generate(rng)).collect())
            } else {
                Value::Object(
                    (0..len)
                        .map(|_| (tricky_string(rng), child.generate(rng)))
                        .collect(),
                )
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn nested_data_matches_the_parse_and_render_oracle(
            doc in JsonTree { depth: 6 },
        ) {
            prop_assert_eq!(enveloped(&doc), envelope_oracle(&raw_body(&doc)));
        }
    }

    #[test]
    fn nested_data_matches_the_oracle_on_edge_cases() {
        let deep = (0..40).fold(Value::Array(Vec::new()), |inner, i| {
            if i % 2 == 0 {
                Value::Array(vec![inner, Value::Object(Vec::new())])
            } else {
                Value::Object(vec![(format!("k\n{i}\""), inner)])
            }
        });
        let mut cases = vec![
            Value::Null,
            Value::Array(Vec::new()),
            Value::Object(Vec::new()),
            Value::String("line\nbreak \"quoted\" \u{1}\t\r é🦀".to_string()),
            deep,
        ];
        cases.extend(EDGE_NUMBERS.iter().map(|n| Value::Number(*n)));
        cases.push(Value::Array(
            EDGE_NUMBERS.iter().map(|n| Value::Number(*n)).collect(),
        ));
        cases.push(Value::Object(
            FRAGMENTS
                .iter()
                .map(|f| (f.to_string(), Value::String(f.to_string())))
                .collect(),
        ));
        for doc in &cases {
            let raw = raw_body(doc);
            assert_eq!(enveloped(doc), envelope_oracle(&raw), "{raw:?}");
        }
    }

    fn fixture() -> Trace {
        let mut b = TraceBuilder::new(Clock::microseconds()).with_name("memo");
        let iter_f = b.define_function("iteration", FunctionRole::Compute);
        let mpi_f = b.define_function("MPI_Barrier", FunctionRole::MpiCollective);
        let cyc = b.define_metric("CYC", MetricMode::Accumulating, "cycles");
        for pi in 0..4u64 {
            let p = b.define_process(format!("rank {pi}"));
            let w = b.process_mut(p);
            let mut t = 0u64;
            for k in 0..6u64 {
                let load = 100 + (pi * 17 + k * 11) % 50;
                w.enter(Timestamp(t), iter_f).unwrap();
                w.metric(Timestamp(t), cyc, t * 3).unwrap();
                t += load;
                w.enter(Timestamp(t), mpi_f).unwrap();
                w.leave(Timestamp(t + 15), mpi_f).unwrap();
                t += 15;
                w.metric(Timestamp(t), cyc, t * 3).unwrap();
                w.leave(Timestamp(t), iter_f).unwrap();
            }
        }
        b.finish().unwrap()
    }

    #[test]
    fn warm_diagnose_and_compare_decode_each_entry_once() {
        let dir = std::env::temp_dir()
            .join("perfvar-server-tests")
            .join("decode-once");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pvta");
        write_trace_file(&fixture(), &path).unwrap();
        let enc = percent_encode(path.to_str().unwrap());
        let options = || ServeOptions {
            cache_dir: Some(dir.join("cache")),
            ..ServeOptions::default()
        };
        let request = |target: &str| {
            parse_request(format!("GET {target} HTTP/1.1\r\n\r\n").as_bytes()).unwrap()
        };
        let get = |state: &ServerState, target: &str| -> String {
            envelope(&state.respond(&request(target)).unwrap())
        };
        // Two cache entries: the default analysis, read by diagnose, and
        // a `multiplier=3` one, read by compare.
        let analyze = [
            format!("/v1/analyze?path={enc}"),
            format!("/v1/analyze?path={enc}&multiplier=3"),
        ];
        let diagnose = format!("/v1/diagnose?path={enc}");
        let compare = format!("/v1/compare?base={enc}&cand={enc}&multiplier=3");
        // Requests run on this thread, so its parse count is theirs.
        let parses = || crate::cache::parses_on_this_thread();

        // Entries this daemon rendered keep the analysis they were
        // rendered from: nothing is ever parsed.
        let state = ServerState::new(options()).unwrap();
        let before = parses();
        for target in &analyze {
            get(&state, target);
        }
        let diagnosis = get(&state, &diagnose);
        let comparison = get(&state, &compare);
        let entries: Vec<Arc<CachedResult>> = analyze
            .iter()
            .map(|target| {
                let params = params_of(&request(target), false).unwrap();
                state.entry_for(&params).unwrap()
            })
            .collect();
        let decoded: Vec<Arc<Analysis>> = entries.iter().map(|e| e.analysis().unwrap()).collect();
        for _ in 0..3 {
            assert_eq!(get(&state, &diagnose), diagnosis);
            assert_eq!(get(&state, &compare), comparison);
            for (target, first) in analyze.iter().zip(&decoded) {
                let again = state.entry_for(&params_of(&request(target), false).unwrap());
                assert!(
                    Arc::ptr_eq(&again.unwrap().analysis().unwrap(), first),
                    "every warm hit shares the one analysis"
                );
            }
        }
        assert_eq!(parses(), before, "no entry the daemon rendered is parsed");

        // The analysis is not part of the entry's value and is never
        // spilled: a daemon restarted on the same cache directory parses
        // each restored entry exactly once, on first use, and answers
        // with the same bytes.
        let spilled: CachedResult =
            serde_json::from_str(&serde_json::to_string(&*entries[0]).unwrap()).unwrap();
        assert_eq!(spilled, *entries[0]);
        let restarted = ServerState::new(options()).unwrap();
        let before = parses();
        for _ in 0..3 {
            assert_eq!(get(&restarted, &diagnose), diagnosis);
            assert_eq!(parses(), before + 1, "diagnose parsed its entry once");
        }
        for _ in 0..3 {
            assert_eq!(get(&restarted, &compare), comparison);
            assert_eq!(parses(), before + 2, "compare parsed its entry once");
        }
        for target in &analyze {
            assert_eq!(get(&restarted, target), get(&state, target));
        }
        assert_eq!(parses(), before + 2);
    }
}
