//! End-to-end tests of `perfvar serve`: spawn the real binary on an
//! ephemeral port and assert the served `/v1` bodies are exactly what the
//! CLI prints, nested one level deep in the envelope — the contract that
//! lets dashboards consume either interchangeably.

use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

fn perfvar(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfvar"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("perfvar-serve-tests").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Generates the counter-rich fixture and archives it as `.pvta`.
fn fixture_archive(name: &str) -> PathBuf {
    let dir = tmp_dir(name);
    let pvt = dir.join("t.pvt");
    let pvta = dir.join("t.pvta");
    let out = perfvar(&[
        "generate",
        "outlier",
        "--out",
        pvt.to_str().unwrap(),
        "--ranks",
        "4",
        "--iterations",
        "8",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = perfvar(&["convert", pvt.to_str().unwrap(), pvta.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    pvta
}

/// A running daemon child process, killed on drop so a failing
/// assertion never leaks a listener.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_perfvar"))
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns");
        // The daemon prints (and flushes) its resolved address before
        // accepting, so one line-read is a reliable readiness barrier.
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("daemon announces its address");
        let addr = line
            .trim()
            .rsplit_once("http://")
            .map(|(_, a)| a.to_string())
            .unwrap_or_else(|| panic!("unexpected announcement {line:?}"));
        Daemon { child, addr }
    }

    fn get(&self, target: &str) -> perfvar_server::HttpResponse {
        perfvar_server::client::get(&self.addr, target).expect("request succeeds")
    }
}

/// `cli_json` nested one level deep in the `/v1` success envelope: the
/// shell equivalent is `sed '1!s/^/  /'` between the envelope's head and
/// its closing brace.
fn enveloped(cli_json: &str) -> String {
    let data = cli_json.trim_end().replace('\n', "\n  ");
    format!("{{\n  \"ok\": true,\n  \"data\": {data}\n}}\n")
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn served_analysis_is_byte_identical_to_cli_json() {
    let archive = fixture_archive("identical");
    let path = archive.to_str().unwrap();
    let daemon = Daemon::spawn(&[]);

    let cli = perfvar(&["analyze", path, "--json"]);
    assert!(
        cli.status.success(),
        "{}",
        String::from_utf8_lossy(&cli.stderr)
    );
    let cli_json = String::from_utf8(cli.stdout).unwrap();

    let target = format!(
        "/v1/analyze?path={}",
        perfvar_server::http::percent_encode(path)
    );
    let served = daemon.get(&target);
    assert_eq!(served.status, 200, "{}", served.body);
    assert_eq!(
        served.body,
        enveloped(&cli_json),
        "served data must match `perfvar analyze --json` byte for byte"
    );

    // Warm hit: still identical.
    assert_eq!(daemon.get(&target).body, enveloped(&cli_json));
}

#[test]
fn served_refinement_matches_the_cli_refine_flag() {
    let archive = fixture_archive("refined");
    let path = archive.to_str().unwrap();
    let daemon = Daemon::spawn(&[]);

    let cli = perfvar(&["analyze", path, "--json", "--refine", "1"]);
    assert!(
        cli.status.success(),
        "{}",
        String::from_utf8_lossy(&cli.stderr)
    );
    let cli_json = String::from_utf8(cli.stdout).unwrap();

    let target = format!(
        "/v1/refine?path={}&steps=1",
        perfvar_server::http::percent_encode(path)
    );
    let served = daemon.get(&target);
    assert_eq!(served.status, 200, "{}", served.body);
    assert_eq!(served.body, enveloped(&cli_json));
}

#[test]
fn stats_endpoint_returns_the_pipeline_stats_shape() {
    let archive = fixture_archive("stats");
    let path = archive.to_str().unwrap();
    let daemon = Daemon::spawn(&[]);

    let target = format!(
        "/v1/analyze?path={}",
        perfvar_server::http::percent_encode(path)
    );
    assert_eq!(daemon.get(&target).status, 200);

    let stats = daemon.get("/v1/stats");
    assert_eq!(stats.status, 200, "{}", stats.body);
    let data = perfvar_server::client::parse_envelope(&stats.body)
        .unwrap()
        .data;
    let parsed = <perfvar_analysis::PipelineStats as serde::Deserialize>::from_value(&data)
        .expect("stats parse as PipelineStats");
    assert_eq!(parsed.ranks, 4);
    assert!(parsed.totals.events_replayed > 0);
}

#[test]
fn daemon_errors_are_json_with_typed_statuses() {
    let daemon = Daemon::spawn(&[]);

    let resp = daemon.get("/v1/analyze?path=%2Fmissing%2Ft.pvta");
    assert_eq!(resp.status, 404, "{}", resp.body);
    assert!(resp.body.contains("\"error\""), "{}", resp.body);

    let resp = daemon.get("/v1/analyze");
    assert_eq!(resp.status, 400, "{}", resp.body);

    let resp = daemon.get("/v1/nope");
    assert_eq!(resp.status, 404, "{}", resp.body);

    // Still alive after the errors.
    assert_eq!(daemon.get("/v1/health").status, 200);
}

#[test]
fn serve_rejects_bad_invocations() {
    let out = perfvar(&["serve", "positional"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no positional"));

    let out = perfvar(&["serve", "--addr", "definitely-not-an-address"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot bind"));

    // `--threads` is the one way to split an analysis.
    let out = perfvar(&["serve", "--shards", "2"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option --shards"));
}

#[test]
fn serve_refuses_to_start_over_a_torn_run_store() {
    let dir = tmp_dir("torn-store");
    let file = dir.join("runs.json");
    let torn = b"[\n  {\n    \"digest\": \"0011";
    std::fs::write(&file, torn).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_perfvar"))
        .args(["serve", "--addr", "127.0.0.1:0", "--store-dir"])
        .arg(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("perfvar serve started over a torn run store");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    assert!(!status.success());
    assert!(stderr.contains(file.to_str().unwrap()), "{stderr}");
    assert_eq!(std::fs::read(&file).unwrap(), torn, "store left untouched");
}

#[test]
fn served_diagnosis_is_byte_identical_to_cli_json() {
    let archive = fixture_archive("diagnose-parity");
    let path = archive.to_str().unwrap();
    let daemon = Daemon::spawn(&[]);

    for flags in [&[][..], &["--clusters", "2", "--max-clusters", "3"][..]] {
        let mut argv = vec!["diagnose", path, "--json"];
        argv.extend_from_slice(flags);
        let cli = perfvar(&argv);
        assert!(
            cli.status.success(),
            "{}",
            String::from_utf8_lossy(&cli.stderr)
        );
        let cli_json = String::from_utf8(cli.stdout).unwrap();

        let mut target = format!(
            "/v1/diagnose?path={}",
            perfvar_server::http::percent_encode(path)
        );
        if !flags.is_empty() {
            target.push_str("&clusters=2&max-clusters=3");
        }
        let served = daemon.get(&target);
        assert_eq!(served.status, 200, "{}", served.body);
        assert_eq!(
            served.body,
            enveloped(&cli_json),
            "served diagnosis must match `perfvar diagnose --json` byte for byte"
        );
    }
}
