//! The one experiment binary.
//!
//! ```text
//! cargo run -p encompass-bench --release --bin exp -- t1                    # one figure/claim
//! cargo run -p encompass-bench --release --bin exp -- all                   # F1..T8
//! cargo run -p encompass-bench --release --bin exp -- group_commit          # a sweep
//! cargo run -p encompass-bench --release --bin exp -- group_commit --out path.json
//! ```
//!
//! A sweep writes its machine-readable form to `BENCH_<name>.json` (or
//! `--out PATH`) in addition to printing the table; the figures and
//! claims take no `--out`. A table that checks what it measured and
//! finds a claim false makes the run exit with status 1; arguments it
//! cannot honour, with status 2.

use encompass_bench::experiments::{all, SWEEPS, TABLES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    let out = match args.get(1..).unwrap_or_default() {
        [] => None,
        [flag, path] if flag == "--out" => Some(path.clone()),
        _ => usage(),
    };
    let tables = if let Some((_, sweep)) = SWEEPS.iter().find(|(n, _)| *n == name) {
        let result = sweep();
        println!("{}", result.table);
        let out = out.unwrap_or_else(|| format!("BENCH_{name}.json"));
        std::fs::write(&out, result.to_json()).expect("write sweep json");
        println!("wrote {out}");
        vec![result.table]
    } else {
        let tables = match TABLES.iter().find(|(n, _)| *n == name) {
            Some((_, experiment)) if out.is_none() => experiment(),
            None if name == "all" && out.is_none() => all(),
            _ => usage(),
        };
        for table in &tables {
            println!("{table}");
        }
        tables
    };
    let violations = tables.iter().flat_map(|t| &t.violations).count();
    if violations > 0 {
        eprintln!("{violations} claim(s) violated");
        std::process::exit(1);
    }
}

fn usage() -> ! {
    let names: Vec<&str> = TABLES.iter().map(|(n, _)| *n).chain(["all"]).collect();
    let sweeps: Vec<&str> = SWEEPS.iter().map(|(n, _)| *n).collect();
    eprintln!("usage: exp <name> [--out PATH]");
    eprintln!("  figures and claims: {}", names.join(" "));
    eprintln!(
        "  sweeps (--out: where the JSON goes): {}",
        sweeps.join(" ")
    );
    std::process::exit(2);
}
