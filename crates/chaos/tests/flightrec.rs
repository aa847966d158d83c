//! Flight-recorder properties over chaos schedules.
//!
//! The recorder is a pure side channel: it never touches the trace hash,
//! the RNG, the metrics, or the run queue, so a recorded run replays the
//! exact execution of an unrecorded one — that is what makes "re-run the
//! failing seed with the recorder on" a sound post-mortem workflow. The
//! first test pins that equivalence; the second checks the records are
//! complete enough to be worth reading.

use encompass_chaos::{run_schedule, run_schedule_with, Schedule};
use encompass_sim::FlightCause;

/// Recorder on vs off: bit-identical trace hashes over full chaos
/// schedules (faults, takeovers, backouts and all), and the recorded run
/// exports its flight data — on every preset.
fn assert_recorder_is_trace_hash_neutral(tier: &str, preset: fn(u64) -> Schedule, seed: u64) {
    let schedule = preset(seed);
    let off = run_schedule(&schedule);
    let on = run_schedule_with(&schedule, true);
    assert_eq!(
        off.trace_hash, on.trace_hash,
        "{tier} seed {seed}: enabling the flight recorder changed the execution"
    );
    assert!(off.flight.is_none());
    let flight = on.flight.expect("recorded run exports flight data");
    assert!(
        !flight.timelines_by_txn.is_empty(),
        "{tier} seed {seed}: a full run must leave flight records"
    );
    assert!(flight.json.contains("\"transactions\""));
}

#[test]
fn recorder_is_trace_hash_neutral() {
    assert_recorder_is_trace_hash_neutral("sweep", Schedule::generate, 5);
    assert_recorder_is_trace_hash_neutral("sweep", Schedule::generate, 11);
    assert_recorder_is_trace_hash_neutral("shards", Schedule::shards, 0);
}

/// Simulated hours, run twice: release builds only
/// (`cargo test --release -p encompass-chaos --test flightrec -- --include-ignored`).
#[test]
#[ignore = "soak seeds take minutes unoptimised; run in release"]
fn recorder_is_trace_hash_neutral_soak() {
    assert_recorder_is_trace_hash_neutral("soak", Schedule::soak, 2);
}

/// Every transaction the Monitor Audit Trails record as committed has a
/// complete flight timeline: begin, then a lock grant, then the forced
/// monitor record (the commit point), then commit — in that order.
#[test]
fn committed_transactions_have_complete_timelines() {
    let schedule = Schedule::generate(4);
    let report = run_schedule_with(&schedule, true);
    assert!(report.ok(), "violations: {:#?}", report.violations);
    let flight = report.flight.expect("recorded run");
    assert!(!flight.committed.is_empty(), "the workload actually ran");
    for t in &flight.committed {
        let events = flight
            .timelines_by_txn
            .get(t)
            .unwrap_or_else(|| panic!("{t:?} committed but left no flight timeline"));
        let first = |pred: fn(FlightCause) -> bool, what: &str| -> usize {
            events
                .iter()
                .position(|e| pred(e.cause))
                .unwrap_or_else(|| panic!("{t:?}: no {what} event in its timeline"))
        };
        let begin = first(|c| matches!(c, FlightCause::Begin), "Begin");
        let lock = first(
            |c| {
                matches!(
                    c,
                    FlightCause::LockGranted { .. } | FlightCause::LockQueued { .. }
                )
            },
            "lock",
        );
        let force = first(
            |c| matches!(c, FlightCause::MonitorForced { .. }),
            "monitor force",
        );
        let commit = first(|c| matches!(c, FlightCause::Committed), "Committed");
        assert!(
            begin < lock && lock < force && force < commit,
            "{t:?}: out-of-order timeline (begin {begin}, lock {lock}, \
             force {force}, commit {commit})"
        );
    }
}
