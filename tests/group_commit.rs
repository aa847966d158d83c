//! Group-commit configuration properties over the full bank application:
//! an explicit window of 0 is the default configuration byte for byte
//! (identical trace hash) — every force starts as soon as it is asked
//! for — and a nonzero window must change only physical I/O, never
//! transaction outcomes.

use encompass_tmf::prelude::*;

struct BankRun {
    trace_hash: u64,
    commits: u64,
    monitor_forces: u64,
    audit_forces: u64,
}

fn run_bank(tmf: TmfNodeConfig) -> BankRun {
    let terminals = 4usize;
    let txns = 10u64;
    let mut app = launch_bank_app(BankAppParams {
        terminals_per_node: terminals,
        transactions_per_terminal: txns,
        accounts: 200,
        think: SimDuration::from_micros(200),
        tmf,
        ..BankAppParams::default()
    });
    let mut elapsed = 0u64;
    while app.world.metrics().get("tcp.terminals_finished") < terminals as u64 && elapsed < 120_000
    {
        app.world.run_for(SimDuration::from_millis(100));
        elapsed += 100;
    }
    app.world.run_for(SimDuration::from_secs(5));
    let m = app.world.metrics();
    BankRun {
        trace_hash: app.world.trace_hash(),
        commits: m.get("tmf.commits"),
        monitor_forces: m.get("tmf.monitor_forces"),
        audit_forces: m.get("audit.forces"),
    }
}

#[test]
fn window_zero_is_trace_identical_to_default() {
    let default_run = run_bank(TmfNodeConfig::default());
    let explicit_zero = TmfNodeConfig::builder()
        .group_commit_window(SimDuration::ZERO)
        .build()
        .expect("valid tmf config");
    let zero_run = run_bank(explicit_zero);
    assert_eq!(default_run.commits, 40);
    assert_eq!(default_run.commits, zero_run.commits);
    assert_eq!(
        default_run.trace_hash, zero_run.trace_hash,
        "window = 0 must be the default execution exactly"
    );
}

#[test]
fn open_window_changes_physical_io_but_not_outcomes() {
    let baseline = run_bank(TmfNodeConfig::default());
    let batched = TmfNodeConfig::builder()
        .group_commit_window(SimDuration::from_millis(2))
        .build()
        .expect("valid tmf config");
    let batched_run = run_bank(batched);
    // every transaction still commits, exactly once
    assert_eq!(baseline.commits, 40);
    assert_eq!(batched_run.commits, 40);
    // but the window amortizes the physical forces
    assert!(
        batched_run.monitor_forces < baseline.monitor_forces,
        "monitor forces: batched {} vs baseline {}",
        batched_run.monitor_forces,
        baseline.monitor_forces
    );
    assert!(
        batched_run.audit_forces <= baseline.audit_forces,
        "audit forces: batched {} vs baseline {}",
        batched_run.audit_forces,
        baseline.audit_forces
    );
}
