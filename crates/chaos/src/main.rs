//! Chaos-sweep CLI.
//!
//! ```text
//! encompass-chaos --seed N            # one schedule, verbose, run twice
//! encompass-chaos --sweep COUNT       # seeds 0..COUNT
//! encompass-chaos --sweep COUNT --start S
//! encompass-chaos --sweep 10 --window 2000   # force a 2ms group-commit window
//! encompass-chaos --sweep 200 --wal          # every volume in the WAL baseline
//! encompass-chaos                     # default: the 25-schedule CI smoke
//! encompass-chaos --soak | --shards   # the same, over that tier's preset
//! ```
//!
//! Exit status is 1 if any run violates an invariant (or a seed fails to
//! reproduce its own determinism hash), 2 on arguments it cannot honour.

use encompass_chaos::runner::tmf_builder;
use encompass_chaos::{run_schedule, run_schedule_with, RunReport, Schedule, TierStats};
use encompass_storage::types::RecoveryMode;
use std::ops::Range;

/// Which preset a run starts from.
#[derive(Clone, Copy, PartialEq)]
enum Preset {
    Sweep,
    Soak,
    Shards,
}

impl Preset {
    /// The preset itself, the seeds a bare invocation sweeps and its
    /// name in a verdict.
    fn spec(self) -> (fn(u64) -> Schedule, u64, &'static str) {
        match self {
            Preset::Sweep => (Schedule::generate, 25, ""),
            Preset::Soak => (Schedule::soak, 3, "soak "),
            Preset::Shards => (Schedule::shards, 5, "shard "),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed: Option<u64> = None;
    let mut sweep: Option<u64> = None;
    let mut start: u64 = 0;
    let mut window: Option<u64> = None;
    let mut dumps = false;
    let mut partitions: Option<u64> = None;
    let mut readers: Option<u64> = None;
    let mut wal = false;
    let mut soak = false;
    let mut shards = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut num = || {
            i += 1;
            parse_num(args.get(i), flag)
        };
        match flag {
            "--seed" => seed = Some(num()),
            "--sweep" => sweep = Some(num()),
            "--start" => start = num(),
            "--window" => window = Some(num()),
            "--dumps" => dumps = true,
            "--partitions" => partitions = Some(num()),
            "--readers" => readers = Some(num()),
            "--wal" => wal = true,
            "--soak" => soak = true,
            "--shards" => shards = true,
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other => reject(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if partitions == Some(0) {
        reject("--partitions needs a value >= 1");
    }
    if sweep == Some(0) {
        reject("--sweep 0 runs nothing and would report success");
    }
    if soak && shards {
        reject("--soak and --shards are different tiers; pick one");
    }
    if shards && (dumps || partitions.is_some() || readers.is_some()) {
        reject(
            "--dumps, --partitions and --readers shape the bank cluster; \
             --shards runs the sharded bank",
        );
    }
    let preset = match (soak, shards) {
        (true, _) => Preset::Soak,
        (_, true) => Preset::Shards,
        (false, false) => Preset::Sweep,
    };
    // the preset's schedule for a seed, with the dump plan added and the
    // drawn window, trail partitions (and up to two volumes per node),
    // read-only terminals and recovery mode overridden as the flags ask
    let schedule_for = |seed: u64| {
        let mut schedule = (preset.spec().0)(seed);
        if dumps {
            schedule = schedule.with_dumps();
        }
        if let Some(us) = window {
            schedule.group_commit_window_us = us;
        }
        if let Some(p) = partitions {
            schedule.audit_partitions = p as usize;
            schedule.volumes_per_node = (p as usize).min(2);
        }
        if let Some(r) = readers {
            schedule.readonly_terminals_per_node = r as usize;
        }
        if wal {
            schedule.recovery_mode = RecoveryMode::WalForce;
        }
        schedule
    };

    // a TMF config the flags make and TMF refuses (a window past its
    // bound) is an argument the CLI cannot honour; the flags shape every
    // seed's config alike, and no drawn value is refused
    if let Err(e) = tmf_builder(&schedule_for(seed.unwrap_or(start))).build() {
        reject(&e.to_string());
    }

    let failed = match seed {
        Some(s) => run_single(s, preset, &schedule_for(s)),
        None => {
            let count = sweep.unwrap_or(preset.spec().1);
            let repro = schedule_flags(&args);
            run_sweep(start..start + count, preset, dumps, &repro, &schedule_for)
        }
    };
    if failed {
        std::process::exit(1);
    }
}

/// The flags that shaped each schedule, as given and each followed by a
/// space: all of `args` but the seed range (`--seed`, `--sweep`,
/// `--start` and their values), so `{flags}--seed N` replays seed `N`.
fn schedule_flags(args: &[String]) -> String {
    let (mut args, mut flags) = (args.iter(), String::new());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" | "--sweep" | "--start" => _ = args.next(),
            flag => flags += &format!("{flag} "),
        }
    }
    flags
}

/// Bad arguments: say why, print the usage, exit 2.
fn reject(why: &str) -> ! {
    eprintln!("{why}");
    print_usage();
    std::process::exit(2);
}

fn parse_num(arg: Option<&String>, flag: &str) -> u64 {
    arg.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| reject(&format!("{flag} needs a numeric argument")))
}

fn print_usage() {
    println!(
        "usage: encompass-chaos [--seed N | --sweep COUNT [--start S]] [--window US] [--dumps] \
         [--partitions N] [--readers N] [--wal] [--soak | --shards]\n\
         default: --sweep 25 (the CI smoke subset); COUNT must be >= 1\n\
         --window US overrides each schedule's group-commit window (microseconds, <= 300000)\n\
         --dumps enables each schedule's online-dump plan + trail purging\n\
         --partitions N forces N audit-trail partitions (and up to 2 volumes per node)\n\
         --readers N forces N read-only (snapshot) terminals per node\n\
         --wal runs every volume in the Write-Ahead-Log baseline (RecoveryMode::WalForce)\n\
         --soak runs each seed as a simulated-hours soak (epochs of kill/dump/restore\n\
         waves, long-hold writers, long-lived snapshot readers, client and purge-floor\n\
         liveness + per-epoch bounded-state oracles, and for a quarter of seeds a\n\
         full-disaster drill)\n\
         --shards runs each seed as a 4-6-node sharded bank (cross-shard transfers,\n\
         replicated branch records, one partition/heal cycle, for half the seeds a\n\
         CPU kill on a $SUSPENSE primary; suspense drain-liveness + replica\n\
         convergence oracles on top of atomicity/conservation and the drained-world\n\
         checks every tier runs); it takes\n\
         --window but none of --dumps, --partitions, --readers"
    );
}

/// One seed, verbose: print the schedule, run it twice — the second time
/// with the flight recorder on — and require both runs to produce the
/// same determinism hash (which also pins recorder-off/on equivalence).
fn run_single(seed: u64, preset: Preset, schedule: &Schedule) -> bool {
    print!("{}", schedule.describe());
    let a = run_schedule(schedule);
    let b = run_schedule_with(schedule, true);
    println!("{}", a.summary_line());
    if let TierStats::Soak { drill: Some(d), .. } = &a.tier {
        println!("  disaster drill: {d}");
    }
    let mut failed = false;
    if a.trace_hash != b.trace_hash {
        println!(
            "DETERMINISM VIOLATION: recorded rerun produced hash {:016x} != {:016x}",
            b.trace_hash, a.trace_hash
        );
        failed = true;
    }
    for v in &a.violations {
        println!("  violation: {v}");
        failed = true;
    }
    if failed {
        dump_flight(&b);
    } else {
        let which = preset.spec().2;
        println!("seed {seed}: all {which}invariants hold, deterministic");
    }
    failed
}

/// Print the implicated-transaction timelines of a recorded failing run
/// and export the full recorder state to `flightrec.json` (plus the
/// rendered timelines to `flight-timelines.txt`, for CI artifacts).
fn dump_flight(report: &RunReport) {
    let Some(flight) = &report.flight else {
        return;
    };
    if report.implicated.is_empty() {
        println!("  implicated transactions: none named by the oracles");
    } else {
        println!(
            "  implicated transactions: {}",
            report.implicated.join(", ")
        );
        for t in &flight.timelines {
            print!("{t}");
        }
        let rendered: String = flight.timelines.concat();
        if let Err(e) = std::fs::write("flight-timelines.txt", rendered) {
            println!("  could not write flight-timelines.txt: {e}");
        }
    }
    match std::fs::write("flightrec.json", &flight.json) {
        Ok(()) => println!("  flight records written to flightrec.json"),
        Err(e) => println!("  could not write flightrec.json: {e}"),
    }
}

/// `seeds`, one summary line each and a preset-wide tally at the end; a
/// failing seed prints its schedule, violations and `{repro}--seed N`,
/// and is re-run recorded for its flight records.
fn run_sweep(
    seeds: Range<u64>,
    preset: Preset,
    dumps: bool,
    repro: &str,
    schedule_for: &dyn Fn(u64) -> Schedule,
) -> bool {
    let count = seeds.end - seeds.start;
    let mut failures = 0u64;
    let (mut commits, mut aborts, mut takeover_commits) = (0u64, 0u64, 0u64);
    let (mut dumps_done, mut purged_files) = (0u64, 0u64);
    let (mut restarts, mut holds, mut respawns, mut drills) = (0u64, 0u64, 0u64, 0u64);
    let (mut drained, mut takeovers) = (0u64, 0u64);
    for seed in seeds {
        let schedule = schedule_for(seed);
        let report = run_schedule(&schedule);
        println!("{}", report.summary_line());
        commits += report.commits;
        aborts += report.aborts;
        takeover_commits += report.takeover_commit_completions;
        dumps_done += report.dumps_completed;
        purged_files += report.purged_trail_files;
        match &report.tier {
            TierStats::Sweep => {}
            TierStats::Soak {
                reader_restarts,
                writer_commits,
                client_respawns,
                drill,
                ..
            } => {
                restarts += reader_restarts;
                holds += writer_commits;
                respawns += client_respawns;
                drills += u64::from(drill.is_some());
            }
            TierStats::Shards {
                applied,
                takeovers: t,
            } => {
                drained += applied;
                takeovers += t;
            }
        }
        if !report.ok() {
            failures += 1;
            println!("--- failing schedule (repro: {repro}--seed {seed}) ---");
            print!("{}", schedule.describe());
            for v in &report.violations {
                println!("  violation: {v}");
            }
            // recording is hash-neutral, so this replays the same run
            dump_flight(&run_schedule_with(&schedule, true));
        }
    }
    let ok = count - failures;
    match preset {
        Preset::Sweep => println!(
            "swept {count} schedules: {ok} ok, {failures} failed \
             ({commits} commits, {aborts} aborts, {takeover_commits} commits completed by takeover)"
        ),
        Preset::Soak => println!(
            "soaked {count} schedules: {ok} ok, {failures} failed \
             ({restarts} reader restarts, {holds} long-hold commits, {respawns} client respawns, \
             {drills} disaster drills)"
        ),
        Preset::Shards => println!(
            "sharded {count} schedules: {ok} ok, {failures} failed \
             ({commits} commits, {aborts} aborts, {drained} deferred updates drained, \
             {takeovers} suspense takeovers)"
        ),
    }
    if preset == Preset::Sweep && dumps {
        println!("online dumps: {dumps_done} completed, {purged_files} trail files purged");
    }
    failures > 0
}

#[cfg(test)]
mod tests {
    use super::schedule_flags;

    fn flags(line: &str) -> String {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        schedule_flags(&args)
    }

    #[test]
    fn the_repro_line_keeps_every_flag_that_shaped_the_schedule() {
        assert_eq!(
            flags("--sweep 100 --partitions 2 --dumps --wal"),
            "--partitions 2 --dumps --wal "
        );
        assert_eq!(
            flags("--soak --sweep 8 --start 40 --window 2000"),
            "--soak --window 2000 "
        );
        assert_eq!(flags("--sweep 400"), "");
    }
}
