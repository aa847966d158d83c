//! The one experiment binary.
//!
//! ```text
//! cargo run -p encompass-bench --release --bin exp -- t1                    # one figure/claim
//! cargo run -p encompass-bench --release --bin exp -- all                   # F1..T8
//! cargo run -p encompass-bench --release --bin exp -- group_commit          # full sweep
//! cargo run -p encompass-bench --release --bin exp -- group_commit --smoke
//! cargo run -p encompass-bench --release --bin exp -- group_commit --out path.json
//! ```
//!
//! A sweep writes its machine-readable form to `BENCH_<name>.json` (or
//! `--out PATH`) in addition to printing the table; `--smoke` and `--out`
//! mean nothing to the figures and claims. A claim whose table checks
//! what it measured and finds it false makes the run exit with status 1.

use encompass_bench::experiments::{all, SWEEPS, TABLES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str).unwrap_or("");
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| format!("BENCH_{name}.json"));

    if let Some((_, sweep)) = SWEEPS.iter().find(|(n, _)| *n == name) {
        let (table, json) = sweep(smoke);
        println!("{table}");
        std::fs::write(&out, json).expect("write sweep json");
        println!("wrote {out}");
        return;
    }
    let tables = match TABLES.iter().find(|(n, _)| *n == name) {
        Some((_, experiment)) => experiment(),
        None if name == "all" => all(),
        None => {
            let names: Vec<&str> = TABLES.iter().map(|(n, _)| *n).chain(["all"]).collect();
            let sweeps: Vec<&str> = SWEEPS.iter().map(|(n, _)| *n).collect();
            eprintln!("usage: exp <name> [--smoke] [--out PATH]");
            eprintln!("  figures and claims: {}", names.join(" "));
            eprintln!("  sweeps: {}", sweeps.join(" "));
            std::process::exit(2);
        }
    };
    for table in &tables {
        println!("{table}");
    }
    let violations = tables.iter().flat_map(|t| &t.violations).count();
    if violations > 0 {
        eprintln!("{violations} claim(s) violated");
        std::process::exit(1);
    }
}
