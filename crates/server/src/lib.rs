//! # perfvar-server — the analysis daemon
//!
//! Serves perfvar analyses as JSON over a minimal std-only HTTP/1.1
//! layer ([`http`]): `GET /v1/analyze?path=…` returns the analysis
//! of `perfvar analyze --json` in the `{"ok",…}` envelope, computed
//! once and then answered from a content-addressed cache; `GET
//! /v1/analyze/stream` follows a *growing* archive with server-sent
//! events. No route answers outside `/v1`.
//!
//! The interesting parts:
//!
//! * [`cache`] — results keyed on *content* (archive byte digest +
//!   result-affecting config), not paths: an in-memory LRU with an
//!   optional on-disk JSON spill. Thread count is excluded from the
//!   key because the pipeline is bit-identical at every parallelism.
//!   Bodies are cached already nested at the envelope's depth, so a
//!   warm hit writes them between the envelope's head and tail without
//!   re-encoding or copying them.
//! * [`singleflight`] — N concurrent requests for the same uncached
//!   trace trigger exactly one analysis; the rest wait and share it.
//! * [`store`] — the persistent run store behind `GET /v1/runs`,
//!   `/v1/runs/register` and the label/digest references `GET
//!   /v1/compare` resolves; one atomically rewritten JSON file
//!   alongside the disk cache.
//! * [`server`] — the nonblocking readiness loop (one reactor thread
//!   owns every idle connection), the worker pool, routing, and the
//!   shared [`Telemetry`](perfvar_analysis::Telemetry) recorder behind
//!   `GET /v1/stats`.
//! * [`poll`] — the std-only `poll(2)` shim the reactor waits on; the
//!   crate's only unsafe code, scoped to one FFI call.
//! * [`client`] — a matching minimal blocking client for tests,
//!   benchmarks, and smoke checks.
//!
//! ```no_run
//! use perfvar_server::{Server, ServeOptions};
//!
//! let server = Server::bind("127.0.0.1:0", ServeOptions::default())?;
//! println!("listening on {}", server.local_addr()?);
//! server.run()?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: the poll(2) FFI shim in [`poll`] carries the one
// scoped `#[allow(unsafe_code)]` in the crate.
#![deny(unsafe_code)]

pub mod cache;
pub mod client;
pub mod http;
pub mod poll;
pub mod server;
pub mod singleflight;
pub mod store;

pub use cache::{cache_key, CachedResult, ResultCache};
pub use client::{
    get, get_with_headers, parse_envelope, sse_events, Envelope, HttpResponse, SseEvent,
};
pub use server::{ErrorDetail, ServeError, ServeOptions, Server, ServerHandle};
pub use singleflight::Singleflight;
pub use store::{RunRecord, RunStore};
