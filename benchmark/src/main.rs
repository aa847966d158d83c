//! The repo benchmark: host-cost and virtual-time ledgers over five
//! workloads, with a per-layer traced run. See README.md beside this
//! package and BENCHMARK.json at the repo root.
//!
//! ```text
//! encompass-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! encompass-benchmark sets --out <file>
//! encompass-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is one run: it prints every metric by name with its unit
//! and, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; a run that is not correct exits with status 1.
//! Everything runs on one thread.

// The repo's clippy.toml bans wall clocks for sim-executed code. This
// package is the measuring side of that boundary: it only ever reads them.
#![allow(clippy::disallowed_methods)]

mod alloc;
mod json;
mod layers;
mod reference;
mod run;
mod sets;
mod stats;
mod workloads;

use json::Value;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  encompass-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  encompass-benchmark sets --out <file>
  encompass-benchmark compare <a.json> <b.json>";

/// `--flag value` pairs and bare words, in order.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut args = args;
        while let Some(a) = args.next() {
            match a.strip_prefix("--") {
                Some(flag) => {
                    let value = args.next().ok_or(format!("--{flag} needs a value"))?;
                    out.flags.push((flag.to_string(), value));
                }
                None => out.words.push(a),
            }
        }
        Ok(out)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, flag: &str) -> Result<u64, String> {
        let v = self.get(flag).ok_or(format!("--{flag} is required"))?;
        v.parse()
            .map_err(|_| format!("--{flag} {v}: not a whole number"))
    }
}

fn single_run(args: &Args) -> Result<ExitCode, String> {
    let name = args.get("workload").ok_or("--workload is required")?;
    let workload = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", known.join(", "))
    })?;
    let seed = args.required("seed")?;
    let seconds = args.required("seconds")?;
    let trace = match args.required("trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: 0 or 1")),
    };

    let out = run::run(workload, seed, seconds, trace);
    println!(
        "{} seed {seed}: {} repetitions in {seconds} s, {} ledger",
        workload.name,
        out.repetitions,
        if trace { "per-layer" } else { "end-to-end" }
    );
    for m in &out.metrics {
        println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(unscaled) = &out.unscaled {
        println!("  ({unscaled})");
    }
    for f in &out.failures {
        eprintln!("FAILED {f}");
    }
    let metrics = out.metrics.iter().map(|m| {
        (
            m.name.clone(),
            Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
        )
    });
    let line = Value::obj([
        ("correct", Value::Bool(out.correct)),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch() -> Result<ExitCode, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    match args.words.first().map(String::as_str) {
        None => single_run(&args),
        Some("sets") => {
            let out = args.get("out").ok_or("sets: --out is required")?;
            sets::sets(out.as_ref())
        }
        Some("compare") => match args.words.as_slice() {
            [_, a, b] => sets::compare(a.as_ref(), b.as_ref()),
            _ => Err("compare: two set files are required".to_string()),
        },
        Some(other) => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
