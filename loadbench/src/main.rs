//! `cogsdk-loadbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Prints a human-readable table, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits non-zero, printing no result, when set-up fails.

use cogsdk_loadbench::{ingest, invoke, query, Args};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload W --seed N --seconds S --trace 0|1\n{e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "invoke_zipf" => invoke::run(&args),
        "query_read" => query::run(&args),
        _ => ingest::run(&args),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{}: set-up failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for e in &outcome.errors {
        eprintln!("failed operation: {e}");
    }
    println!(
        "# {} seed={} seconds={} trace={} attempted={} failed={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed
    );
    for m in outcome.metrics.iter().chain(&outcome.info) {
        println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.json_line());
}
