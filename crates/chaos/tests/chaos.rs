//! The chaos harness's own tests: a fault-free baseline, determinism of
//! the seed → schedule → run pipeline, and a small smoke sweep. The full
//! sweep (hundreds of seeds) runs from the CLI: `cargo run -p
//! encompass-chaos --release -- --sweep N`.

use encompass_chaos::{run_schedule, run_seed, FaultPlan, Schedule, Timeline};
use encompass_sim::SimTime;

/// With every fault stripped from the timeline the oracles must hold
/// trivially — if this fails, the harness itself (not TMF) is broken.
#[test]
fn no_fault_baseline_converges() {
    let s = Schedule {
        faults: FaultPlan::Timeline(Timeline {
            events: Vec::new(),
            heal_at: SimTime::from_micros(200_000),
        }),
        ..Schedule::generate(1)
    };
    let r = run_schedule(&s);
    assert!(r.ok(), "violations: {:#?}", r.violations);
    assert!(r.commits > 0, "the workload actually ran");
}

/// Same seed, same hash: the property that turns a failing sweep entry
/// into a one-line repro.
#[test]
fn same_seed_replays_to_the_same_trace_hash() {
    let a = run_seed(3);
    let b = run_seed(3);
    assert_eq!(a.trace_hash, b.trace_hash, "seed 3 must be deterministic");
    assert!(a.ok(), "violations: {:#?}", a.violations);
}

/// Different seeds genuinely explore different schedules (shapes and
/// fault timelines differ, so the traces must too).
#[test]
fn different_seeds_produce_different_runs() {
    let a = run_seed(1);
    let b = run_seed(2);
    assert_ne!(a.trace_hash, b.trace_hash);
    assert_ne!(
        Schedule::generate(1).describe(),
        Schedule::generate(2).describe()
    );
}

/// A small sweep as a test (the CI smoke runs 25 via the binary; this
/// keeps `cargo test` self-contained). Every invariant must hold on
/// every schedule.
#[test]
fn smoke_sweep_holds_every_invariant() {
    for seed in 0..8 {
        let schedule = Schedule::generate(seed);
        let r = run_schedule(&schedule);
        assert!(
            r.ok(),
            "seed {seed} violated invariants (repro: cargo run -p \
             encompass-chaos -- --seed {seed}):\n{:#?}\nschedule:\n{}",
            r.violations,
            schedule.describe()
        );
    }
}
