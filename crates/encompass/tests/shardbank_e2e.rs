//! End-to-end tests of the sharded bank: transfers conserve the total
//! balance across shards (including cross-shard distributed
//! transactions), and replicated branch records converge through the
//! suspense-file subsystem — also across a partition and heal.

use encompass::app::{launch_shard_bank, read_branch_copy, suspense_backlog, ShardBankAppParams};
use encompass::workload::total_balance;
use encompass_sim::{Fault, SimDuration};

fn params() -> ShardBankAppParams {
    ShardBankAppParams {
        nodes: 4,
        accounts: 240,
        terminals_per_node: 2,
        transactions_per_terminal: 10,
        cross_shard_permille: 300,
        branch_permille: 200,
        branch_replicas: 2,
        think: SimDuration::from_millis(5),
        seed: 11,
        ..ShardBankAppParams::default()
    }
}

/// Every ring replica of every master's branch record equals the master
/// copy (missing replica counts as converged only if the master has no
/// record either — the monitor inserts on first drain).
fn assert_branches_converged(app: &encompass::app::AppHandles, map: &encompass_shard::ShardMap) {
    for &m in &app.nodes {
        let master_copy = read_branch_copy(&app.world, m, m);
        for r in map.replica_set(m, 2) {
            assert_eq!(
                read_branch_copy(&app.world, r, m),
                master_copy,
                "replica at {r:?} of master {m:?} diverged"
            );
        }
    }
}

#[test]
fn transfers_conserve_and_branches_converge() {
    let (mut app, map) = launch_shard_bank(params());
    let initial = total_balance(&mut app.world, &app.catalog, "accounts");
    app.world.run_for(SimDuration::from_secs(60));

    let commits = app.world.metrics().get("tmf.commits");
    assert!(commits > 0, "the workload ran");
    assert_eq!(
        app.world.metrics().get("tcp.terminals_finished"),
        8,
        "every terminal finished its transactions"
    );
    assert_eq!(
        total_balance(&mut app.world, &app.catalog, "accounts"),
        initial,
        "transfers conserve the total balance"
    );

    // let the suspense monitors finish draining, then check convergence
    app.world.run_for(SimDuration::from_secs(20));
    for &n in &app.nodes {
        assert_eq!(suspense_backlog(&app.world, n, "$SB"), 0, "{n:?} drained");
    }
    assert!(
        app.world.metrics().get("suspense.applied") > 0,
        "branch credits exercised the replication layer"
    );
    assert_branches_converged(&app, &map);
}

#[test]
fn backlog_survives_partition_and_drains_after_heal() {
    let (mut app, map) = launch_shard_bank(params());
    let cut = *app.nodes.last().unwrap();
    app.world.run_for(SimDuration::from_secs(2));
    app.world.inject(Fault::Partition(vec![cut]));
    app.world.run_for(SimDuration::from_secs(40));
    app.world.inject(Fault::HealAllLinks);
    app.world.run_for(SimDuration::from_secs(60));

    for &n in &app.nodes {
        assert_eq!(
            suspense_backlog(&app.world, n, "$SB"),
            0,
            "{n:?} backlog drains after the heal"
        );
    }
    assert_branches_converged(&app, &map);
}
