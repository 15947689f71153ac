//! loadgen — an open/closed-loop load generator for `perfvar serve`.
//!
//! Drives a running daemon with a mixed cold/warm request stream and
//! reports the latency distribution as JSON on stdout:
//!
//! ```text
//! loadgen --addr 127.0.0.1:7787 --path /traces/run.pvta \
//!         [--requests 200] [--concurrency 8] [--mode closed|open] \
//!         [--rate 50] [--cold-frac 0.1] [--seed N]
//! ```
//!
//! * `--mode closed` (default): `--concurrency` workers each keep one
//!   request in flight — offered load adapts to the daemon.
//! * `--mode open`: requests are dispatched at `--rate` per second
//!   regardless of completions — queueing delay under overload shows up
//!   in the tail latencies instead of silently throttling the run.
//!   Catch-up is capped: ticks the dispatcher cannot send within a few
//!   intervals of schedule are shed rather than bursted back-to-back,
//!   and the shed count is reported as `dropped` in the summary — a
//!   non-zero `dropped` means the requested rate was not deliverable.
//! * `--cold-frac F`: fraction of requests that bust the daemon's
//!   content-addressed cache (each cold request varies the `multiplier`
//!   threshold, which is part of the cache key, so it runs the full
//!   analysis pipeline); the rest are warm cache hits. The cache is
//!   primed with one untimed request before the run so "warm" means
//!   warm from the first sample.
//! * `--cold-window N`: how many distinct cache-busting multiplier
//!   values to cycle through (default 64). The trace must iterate at
//!   least `3 + N` times or the larger thresholds fail with 422; keep
//!   N above the daemon's `--cache-entries` when re-running against a
//!   long-lived daemon.
//!
//! Exit status is non-zero if any request failed.

use perfvar_bench::load;
use perfvar_server::http::percent_encode;

struct Args {
    addr: String,
    path: String,
    requests: usize,
    concurrency: usize,
    open: bool,
    rate: f64,
    cold_frac: f64,
    cold_window: u64,
    seed: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen --addr HOST:PORT --path TRACE [--requests N] [--concurrency N] \
         [--mode closed|open] [--rate RPS] [--cold-frac F] [--cold-window N] [--seed N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: String::new(),
        path: String::new(),
        requests: 200,
        concurrency: 8,
        open: false,
        rate: 50.0,
        cold_frac: 0.1,
        cold_window: 64,
        seed: std::process::id() as u64,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => args.addr = value(),
            "--path" => args.path = value(),
            "--requests" => args.requests = value().parse().unwrap_or_else(|_| usage()),
            "--concurrency" => args.concurrency = value().parse().unwrap_or_else(|_| usage()),
            "--mode" => match value().as_str() {
                "closed" => args.open = false,
                "open" => args.open = true,
                _ => usage(),
            },
            "--rate" => args.rate = value().parse().unwrap_or_else(|_| usage()),
            "--cold-frac" => args.cold_frac = value().parse().unwrap_or_else(|_| usage()),
            "--cold-window" => args.cold_window = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if args.addr.is_empty() || args.path.is_empty() {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let encoded = percent_encode(&args.path);

    // Prime the warm entry so the mix measures a steady-state daemon,
    // not one whose very first "warm" request is secretly cold.
    let prime = format!("/v1/analyze?path={encoded}");
    match perfvar_server::client::get(&args.addr, &prime) {
        Ok(resp) if resp.status == 200 => {}
        Ok(resp) => {
            eprintln!(
                "loadgen: priming request failed with {}: {}",
                resp.status, resp.body
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("loadgen: cannot reach {}: {e}", args.addr);
            std::process::exit(1);
        }
    }

    let targets = load::mixed_targets(
        &encoded,
        args.requests,
        args.cold_frac,
        args.cold_window,
        args.seed,
    );
    let cold = targets.iter().filter(|t| t.contains("multiplier")).count();
    let summary = if args.open {
        load::open_loop(&args.addr, &targets, args.rate)
    } else {
        load::closed_loop(&args.addr, &targets, args.concurrency)
    };

    let doc = serde_json::json!({
        "mode": if args.open { "open" } else { "closed" },
        "requests": args.requests,
        "cold": cold,
        "warm": args.requests - cold,
        "concurrency": args.concurrency,
        "rate": if args.open { Some(args.rate) } else { None },
        "errors": summary.errors,
        "dropped": summary.dropped,
        "wall_s": summary.wall_s,
        "throughput_rps": summary.throughput(),
        "mean_s": summary.mean(),
        "p50_s": summary.quantile(0.50),
        "p90_s": summary.quantile(0.90),
        "p99_s": summary.quantile(0.99),
    });
    println!("{}", serde_json::to_string_pretty(&doc).unwrap());
    if summary.errors > 0 {
        eprintln!(
            "loadgen: {} of {} requests failed",
            summary.errors, args.requests
        );
        std::process::exit(1);
    }
}
