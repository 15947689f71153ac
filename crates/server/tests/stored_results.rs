//! Results stored before the segment table became columnar read back as
//! the analysis this version computes, and this version writes them byte
//! for byte.
//!
//! `tests/data` holds a small trace (`perfvar generate cosmo-specs-fd4
//! --ranks 4 --iterations 6`), the `/v1/analyze` and `/v1/diagnose`
//! bodies a daemon served for it, and the cache spill that daemon wrote,
//! all from the release before the columnar table (one 32-byte struct
//! per segment and a copied SOS matrix).

use perfvar_analysis::{
    analyze_path_with, Analysis, AnalysisConfig, OutOfCoreAnalysis, RecoveryMode,
};
use perfvar_server::http::percent_encode;
use perfvar_server::{client, CachedResult, ServeOptions, Server};
use serde::Deserialize;
use std::path::{Path, PathBuf};

fn data(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(format!("cosmo-specs-fd4-4x6.{name}"))
}

fn read(name: &str) -> String {
    std::fs::read_to_string(data(name)).unwrap()
}

/// The analysis this version computes for the stored trace.
fn fresh() -> OutOfCoreAnalysis {
    analyze_path_with(
        data("pvt"),
        &AnalysisConfig::default(),
        RecoveryMode::Strict,
    )
    .unwrap()
}

#[test]
fn a_stored_spill_reads_back_as_the_analysis_and_renders_the_same() {
    let fresh = fresh();
    let spill: CachedResult = serde_json::from_str(&read("spill.json")).unwrap();
    assert_eq!(*spill.analysis().unwrap(), fresh.analysis);
    let rendered = CachedResult::render(&fresh).unwrap();
    assert_eq!(rendered.body, spill.body);
    assert_eq!(rendered, spill);
}

#[test]
fn stored_bodies_read_back_and_are_served_byte_for_byte() {
    let fresh = fresh();
    let body = read("analyze.json");
    let envelope = client::parse_envelope(&body).unwrap();
    assert!(envelope.ok);
    assert_eq!(
        Analysis::from_value(&envelope.data).unwrap(),
        fresh.analysis
    );

    let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr().to_string();
    let path = percent_encode(data("pvt").to_str().unwrap());
    for (route, stored) in [("analyze", body), ("diagnose", read("diagnose.json"))] {
        let resp = client::get(&addr, &format!("/v1/{route}?path={path}")).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(
            resp.body == stored,
            "/v1/{route} body differs from the stored one"
        );
    }
    handle.shutdown();
}
