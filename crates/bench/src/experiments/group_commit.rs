//! Group-commit boxcarring sweep: physical audit forces per committed
//! transaction and throughput as the boxcar window opens, by offered
//! concurrency (terminals).
//!
//! Every committed transaction needs its phase-one monitor record forced
//! to the Monitor Audit Trail, and its data audit records forced to the
//! audit trail. Without boxcarring that is at least two physical forces
//! per commit; with a window, concurrent commits ride one force. This
//! experiment measures the amortization curve and writes the machine-
//! readable result to `BENCH_group_commit.json` (the bench-trajectory
//! baseline for later perf PRs).

use crate::sweep::{Column, SweepResult, Value};
use encompass::app::{launch_bank_app, BankAppParams};
use encompass_sim::SimDuration;
use tmf::facility::TmfNodeConfig;

/// `partitions` is the audit-trail partitions per AUDITPROCESS (1 = the
/// legacy single trail; >1 also spreads the accounts over that many
/// volumes so concurrent forces land on different partitions).
const COLUMNS: &[Column] = &[
    Column::new("window_us", "window (us)"),
    Column::new("terminals", "terminals"),
    Column::new("partitions", "partitions"),
    Column::new("commits", "commits"),
    Column::new("audit_forces", "audit forces"),
    Column::new("monitor_forces", "monitor forces"),
    Column::new("forces_per_commit", "forces/commit").decimals(4, 3),
    Column::new("throughput_tps", "txns/s").decimals(2, 1),
    Column::new("mean_audit_boxcar", "mean audit boxcar").decimals(3, 2),
    Column::new("mean_monitor_boxcar", "mean monitor boxcar").decimals(3, 2),
    Column::new("mean_commit_latency_us", "mean commit latency (us)").decimals(1, 0),
    Column::json("virtual_secs", 3),
];

fn run_cell(window_us: u64, terminals: usize, partitions: usize, txns: u64) -> Vec<Value> {
    let tmf = TmfNodeConfig::builder()
        .group_commit_window(SimDuration::from_micros(window_us))
        .audit_partitions(partitions)
        .build()
        .expect("valid tmf config");
    let mut app = launch_bank_app(BankAppParams {
        terminals_per_node: terminals,
        transactions_per_terminal: txns,
        accounts: 1000,
        volumes_per_node: partitions.clamp(1, 2),
        // no history append: a shared entry-sequenced file would pin every
        // transaction to one partition and mask the partitioning effect
        history: false,
        think: SimDuration::from_micros(500),
        tmf,
        ..BankAppParams::default()
    });
    super::run_until_finished(&mut app.world, terminals as u64, 600);
    let t = app.world.now().as_micros() as f64 / 1e6;
    let m = app.world.metrics();
    let commits = m.get("tmf.commits");
    let audit_forces = m.get("audit.forces");
    let monitor_forces = m.get("tmf.monitor_forces");
    vec![
        window_us.into(),
        terminals.into(),
        partitions.into(),
        commits.into(),
        audit_forces.into(),
        monitor_forces.into(),
        ((audit_forces + monitor_forces) as f64 / commits.max(1) as f64).into(),
        (commits as f64 / t.max(0.001)).into(),
        m.observed_mean("audit.boxcar_size").into(),
        m.observed_mean("tmf.monitor_boxcar_size").into(),
        m.observed_mean("tmf.commit_latency_us").into(),
        t.into(),
    ]
}

/// Run the sweep: every window × terminal count × partition count.
pub fn group_commit() -> SweepResult {
    let mut sweep = SweepResult::new(
        "group_commit",
        "group commit — physical forces per committed transaction, by window and concurrency",
        COLUMNS,
    );
    for window in [0, 500, 1_000, 2_000, 5_000] {
        for terminals in [1, 4, 8, 16] {
            for partitions in [1, 2] {
                sweep.row(run_cell(window, terminals, partitions, 40));
            }
        }
    }
    sweep.table.note(
        "window 0 is the pre-boxcarring behavior (one monitor force per commit); \
         with a window open, concurrent phase-one forces ride one trail write — \
         forces/commit falls below 1 once boxcars average above ~2; with >1 trail \
         partitions, forces on different partitions overlap instead of queueing \
         behind one in-flight force, lifting the high-concurrency plateau",
    );
    sweep
}
