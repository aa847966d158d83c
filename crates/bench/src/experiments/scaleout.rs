//! Scale-out sweep (experiment SO): sharded-bank throughput as the node
//! count grows from 16 to 64, at several cross-shard fractions.
//!
//! Each node masters one shard of the `accounts` file and runs its own
//! terminals, servers, and suspense monitor, so offered load grows with
//! the node count. A transfer whose destination lives on another shard
//! becomes a distributed transaction (phase one at the remote disc
//! process, monitor records on both nodes); a branch credit writes the
//! node's replicated branch record and queues deferred updates for its
//! ring replicas through the suspense-file subsystem. Throughput should
//! therefore rise with the node count — near-linearly at cross-shard 0,
//! degrading gracefully as the cross-shard fraction grows — and every
//! suspense backlog must drain once the workload is over. The
//! machine-readable result goes to `BENCH_scaleout.json`.

use crate::sweep::{Column, SweepResult};
use encompass::app::{launch_shard_bank, suspense_backlog, ShardBankAppParams};
use encompass_sim::SimDuration;

/// `cross_shard_permille`: out of 1000 transfers, how many cross a shard
/// boundary; `suspense_applied`: deferred branch updates the suspense
/// monitors applied; `virtual_secs`: virtual time at which the last
/// terminal finished.
const COLUMNS: &[Column] = &[
    Column::new("nodes", "nodes"),
    Column::new("cross_shard_permille", "cross-shard ‰"),
    Column::new("commits", "commits"),
    Column::new("aborts", "aborts"),
    Column::new("suspense_applied", "suspense applied"),
    Column::new("tps", "txns/s").decimals(2, 1),
    Column::new("virtual_secs", "virtual secs").decimals(3, 3),
];

/// Run one cell, check that it finished and drained, and return its
/// throughput.
fn run_cell(sweep: &mut SweepResult, nodes: usize, cross_shard_permille: u32) -> f64 {
    let (mut app, _map) = launch_shard_bank(ShardBankAppParams {
        nodes,
        accounts: nodes as u64 * 64,
        terminals_per_node: 4,
        transactions_per_terminal: 25,
        cross_shard_permille,
        branch_permille: 100,
        branch_replicas: 2,
        think: SimDuration::from_millis(1),
        ..ShardBankAppParams::default()
    });
    let cell = format!("{nodes} nodes at {cross_shard_permille}‰ cross-shard");
    let total = (nodes * 4) as u64;
    super::run_until_finished(&mut app.world, total, 600);
    let finished = app.world.metrics().get("tcp.terminals_finished");
    sweep.table.check(
        finished == total,
        format!("{cell}: {finished} of {total} terminals finished"),
    );
    let t = app.world.now().as_micros() as f64 / 1e6;
    let commits = app.world.metrics().get("tmf.commits");
    let aborts = app.world.metrics().get("tmf.aborts");

    // let the suspense monitors finish, then require every backlog empty
    app.world.run_for(SimDuration::from_secs(20));
    let backlogged: Vec<_> = (app.nodes.iter())
        .filter(|&&n| suspense_backlog(&app.world, n, "$SB") > 0)
        .collect();
    sweep.table.check(
        backlogged.is_empty(),
        format!("{cell}: suspense backlog at {backlogged:?} never drained after the workload"),
    );
    let tps = commits as f64 / t.max(0.001);
    sweep.row(vec![
        nodes.into(),
        cross_shard_permille.into(),
        commits.into(),
        aborts.into(),
        app.world.metrics().get("suspense.applied").into(),
        tps.into(),
        t.into(),
    ]);
    tps
}

/// Run the sweep. Checked: every cell finishes and drains its suspense
/// backlogs, and at the lowest cross-shard fraction throughput rises
/// with the node count (the scale-out claim itself).
pub fn scaleout() -> SweepResult {
    let mut sweep = SweepResult::new(
        "scaleout",
        "scale-out — sharded-bank throughput vs node count and cross-shard fraction",
        COLUMNS,
    );
    for cross in [0, 100, 300] {
        let mut last: Option<(usize, f64)> = None;
        for nodes in [16, 32, 64] {
            let tps = run_cell(&mut sweep, nodes, cross);
            if let (0, Some((prev_nodes, prev_tps))) = (cross, last) {
                sweep.table.check(
                    tps > prev_tps,
                    format!(
                        "throughput did not scale: {nodes} nodes at {tps:.1} tps vs \
                         {prev_nodes} nodes at {prev_tps:.1} tps (0‰ cross-shard)"
                    ),
                );
            }
            last = Some((nodes, tps));
        }
    }
    sweep.table.note(
        "each node masters one shard and runs its own terminals, so offered load \
         grows with the node count; throughput rises near-linearly at cross-shard 0 \
         (asserted) and degrades gracefully as more transfers become distributed \
         transactions; every suspense backlog drains after the workload (asserted)",
    );
    sweep
}
