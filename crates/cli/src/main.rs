//! `perfvar` — command-line front end of the perfvar toolkit.
//!
//! The commands and their options are listed once, in
//! [`commands::USAGE`], which `perfvar help` prints.

mod args;
mod commands;
mod workload_args;

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::FAILURE;
    };
    let rest: Vec<String> = argv.collect();
    let result = match command.as_str() {
        "generate" => commands::generate(rest),
        "info" => commands::info(rest),
        "watch" => commands::watch(rest),
        "analyze" => commands::analyze(rest),
        "render" => commands::render(rest),
        "report" => commands::report(rest),
        "compare" => commands::compare(rest),
        "bisect" => commands::bisect(rest),
        "cluster" => commands::cluster(rest),
        "diagnose" => commands::diagnose(rest),
        "slice" => commands::slice(rest),
        "convert" => commands::convert(rest),
        "serve" => commands::serve(rest),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", commands::USAGE)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfvar: {message}");
            ExitCode::FAILURE
        }
    }
}
