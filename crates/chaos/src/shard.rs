//! The `--shards` tier: one sharded-bank schedule end-to-end, checking
//! the sharding layer's invariants on top of the core TMF oracles.
//!
//! The tier aims faults at the suspense-file subsystem: a
//! partition isolates one shard mid-run so deferred branch updates pile
//! up in its peers' suspense files, the heal lets the monitors drain,
//! and for half the seeds an extra CPU kill lands on a `$SUSPENSE`
//! primary so the drain must resume from the backup. The oracles are:
//!
//! * **atomicity** — cross-shard transfers are distributed transactions;
//!   their outcome must agree across every participant's Monitor Audit
//!   Trail (reused from [`crate::runner`]);
//! * **conservation** — transfers move money between accounts and
//!   branch credits never touch them, so the account total is constant;
//! * **drain liveness** — within a bounded sim-time window after the
//!   heal, every node's suspense backlog reaches zero and its monitor
//!   pair's own drain counters show nothing pending
//!   ([`crate::oracles::suspense_drain_violations`], which names the
//!   implicated node);
//! * **replica convergence** — once the backlogs are empty, every ring
//!   replica of every master's branch record equals the master copy;
//! * the **drained world**, bounded state and the timer census on the
//!   final read, as every tier ([`crate::runner::check_final_read`]).

use crate::oracles::{
    suspense_drain_violations, timer_violations, SuspenseObservation, TimerCensus,
};
use crate::runner::{
    apply, build_tmf, census, check_atomicity, check_final_read, end_run, restore_down_cpus,
    run_out, sim_config, tmf_builder, RunReport, TierStats,
};
use crate::schedule::{ChaosAction, Schedule, ShardCut, ShardPlan};
use encompass::app::{launch_shard_bank, read_branch_copy, suspense_backlog, ShardBankAppParams};
use encompass::workload::total_balance;
use encompass_shard::{SuspenseMonitorApp, SUSPENSE_SERVICE};
use encompass_sim::{Fault, SimDuration, SimTime};
use encompass_storage::types::Transid;

/// Bounded drain window after the final heal barrier (sim-time, ms):
/// the suspense drain oracle reads every backlog at its end and requires
/// it to be zero.
const DRAIN_WINDOW_MS: u64 = 30_000;

/// Ring replicas of each node's branch record.
pub(crate) const BRANCH_REPLICAS: usize = 2;

/// Play `cut` over the sharded bank `plan` to completion and evaluate
/// every oracle.
pub(crate) fn run(
    schedule: &Schedule,
    plan: &ShardPlan,
    cut: &ShardCut,
    flight_recorder: bool,
) -> RunReport {
    let accounts = plan.nodes as u64 * plan.accounts_per_node;
    let tmf = build_tmf(tmf_builder(schedule));
    let snapshot_undo = tmf.snapshot_undo_capacity();
    let (mut app, map) = launch_shard_bank(ShardBankAppParams {
        nodes: plan.nodes,
        accounts,
        terminals_per_node: plan.terminals_per_node,
        transactions_per_terminal: plan.transactions_per_terminal,
        cross_shard_permille: plan.cross_shard_permille,
        branch_permille: plan.branch_permille,
        branch_replicas: BRANCH_REPLICAS,
        think: SimDuration::from_millis(5),
        lock_wait: SimDuration::from_millis(300),
        seed: schedule.seed,
        sim: sim_config(flight_recorder),
        tmf,
    });
    let initial_total = accounts as i64 * 1000;

    // ---- phase 2: partition, heal, optional monitor kill ------------
    // the timer census runs at each of these instants, before the fault
    let mut violations = Vec::new();
    let mut timers = TimerCensus::default();
    let partition_at = SimTime::from_micros(cut.partition_at_us);
    let heal_at = SimTime::from_micros(cut.partition_at_us + cut.heal_after_us);
    app.world.run_until(partition_at);
    census(&app.world, &app.tmf, &mut timers);
    violations.extend(timer_violations(&timers));
    app.world.inject(Fault::Partition(vec![cut.partition_node]));
    app.world.run_until(heal_at);
    census(&app.world, &app.tmf, &mut timers);
    violations.extend(timer_violations(&timers));
    app.world.inject(Fault::HealAllLinks);
    let backlog_at_heal: Vec<usize> = app
        .nodes
        .iter()
        .map(|&n| suspense_backlog(&app.world, n, "$SB"))
        .collect();
    if let Some((node, at)) = cut.monitor_kill {
        app.world.run_until(SimTime::from_micros(at));
        census(&app.world, &app.tmf, &mut timers);
        violations.extend(timer_violations(&timers));
        let service = SUSPENSE_SERVICE.to_string();
        apply(
            &mut app.world,
            &ChaosAction::KillServiceCpu { node, service },
        );
    }

    // ---- phase 3: run the workload out, heal, bounded drain window --
    run_out(
        &mut app.world,
        &app.nodes,
        (plan.nodes * plan.terminals_per_node) as u64,
        SimDuration::from_millis(500),
        heal_at + SimDuration::from_secs(120),
        &mut violations,
    );
    // Links and processors only: this tier never fails a bus, and a
    // `HealBus` injection is an event the trace hash would see.
    app.world.inject(Fault::HealAllLinks);
    for &node in &app.nodes {
        restore_down_cpus(&mut app.world, node);
    }
    app.world.run_for(SimDuration::from_millis(DRAIN_WINDOW_MS));
    // the suspense files as the window's bound leaves them
    let suspense_obs: Vec<SuspenseObservation> = (app.nodes.iter().enumerate())
        .map(|(i, &node)| SuspenseObservation {
            node: node.to_string(),
            backlog_at_heal: backlog_at_heal[i],
            backlog_final: suspense_backlog(&app.world, node, "$SB"),
            probe: guardian::primary::<SuspenseMonitorApp>(&app.world, node, SUSPENSE_SERVICE)
                .map(|m| (m.pending(), m.applied())),
        })
        .collect();

    // ---- phase 4: the end phase, then the counters ------------------
    let seen = end_run(&mut app.world, &app.nodes, &app.tmf);
    let metrics = app.world.metrics();
    let stats = TierStats::Shards {
        applied: metrics.get("suspense.applied"),
        takeovers: metrics.get("suspense.takeovers"),
    };
    let mut report = RunReport::read_out(schedule, &app.world, violations, stats);

    // ---- phase 5: oracles -------------------------------------------
    let mut implicated: Vec<Transid> = Vec::new();
    let violations = &mut report.violations;
    check_atomicity(&app.world, &app.nodes, violations, &mut implicated);

    let final_total = total_balance(&mut app.world, &app.catalog, "accounts");
    if final_total != initial_total {
        violations.push(format!(
            "conservation: account total {final_total} != initial {initial_total} \
             (off by {})",
            initial_total - final_total
        ));
    }

    violations.extend(suspense_drain_violations(&suspense_obs, DRAIN_WINDOW_MS));

    for &m in &app.nodes {
        let master_copy = read_branch_copy(&app.world, m, m);
        for r in map.replica_set(m, BRANCH_REPLICAS) {
            let replica_copy = read_branch_copy(&app.world, r, m);
            if replica_copy != master_copy {
                violations.push(format!(
                    "convergence: replica at {r} of {m}'s branch record diverges \
                     after drain ({replica_copy:?} vs master {master_copy:?})"
                ));
            }
        }
    }

    check_final_read(&seen, snapshot_undo, violations, &mut implicated);
    report.finish(&app.world, &app.nodes, implicated, flight_recorder)
}
