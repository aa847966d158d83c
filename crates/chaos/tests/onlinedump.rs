//! ONLINEDUMP properties over chaos schedules.
//!
//! Running a schedule with its online-dump plan enabled adds a whole
//! subsystem to the run — DUMPPROCESS copies, forced dump markers, the
//! TMP's trail-capacity purge pass — and the convergence oracle switches
//! to recovering from the *fuzzy* archive the dump produced. These tests
//! pin that (a) the flight recorder stays a pure side channel in dump
//! mode too, (b) the dump lifecycle actually leaves flight records, and
//! (c) the fuzzy-dump oracle holds: rollforward from the last registered
//! dump plus the surviving (possibly purged) trails reproduces the live
//! committed state.

use encompass_chaos::{run_schedule, run_schedule_with, Schedule};

fn dump_schedule(seed: u64) -> Schedule {
    Schedule::generate(seed).with_dumps()
}

/// Recorder on vs off with dumps and purging running: bit-identical
/// trace hashes, and the dump lifecycle shows up in the export.
#[test]
fn recorder_is_trace_hash_neutral_with_dumps() {
    for seed in [5, 11] {
        let schedule = dump_schedule(seed);
        let off = run_schedule(&schedule);
        let on = run_schedule_with(&schedule, true);
        assert_eq!(
            off.trace_hash, on.trace_hash,
            "seed {seed}: enabling the flight recorder changed a dump-mode run"
        );
        assert!(off.ok(), "seed {seed} violations: {:#?}", off.violations);
        let flight = on.flight.expect("recorded run exports flight data");
        assert!(
            flight.json.contains("\"dump_begin\"") && flight.json.contains("\"dump_end\""),
            "seed {seed}: dump lifecycle left no flight records"
        );
    }
}

/// The fuzzy-dump convergence oracle over a few full schedules: dumps
/// complete mid-chaos, and recovery from the registered archive (not the
/// pre-run generation-0 snapshot) reproduces the live volumes.
#[test]
fn fuzzy_dump_rollforward_converges() {
    let mut dumps_completed = 0;
    for seed in [0, 4, 7] {
        let report = run_schedule(&dump_schedule(seed));
        assert!(
            report.ok(),
            "seed {seed} violations: {:#?}",
            report.violations
        );
        dumps_completed += report.dumps_completed;
    }
    assert!(
        dumps_completed > 0,
        "no scheduled dump completed — the oracle never saw a fuzzy archive"
    );
}
