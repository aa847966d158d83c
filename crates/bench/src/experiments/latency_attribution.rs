//! Commit-latency attribution: where does a committed transaction's time
//! go, from BEGIN-TRANSACTION to the commit point?
//!
//! The flight recorder timestamps every span boundary of a transaction
//! (lock grants, audit forces, monitor forces, checkpoint drains), so the
//! transaction's lifetime decomposes exactly into lock-wait, force,
//! checkpoint, and bus/queueing components. Lock waits happen during the
//! verbs — before END-TRANSACTION — so the window is anchored at BEGIN;
//! the commit latency proper (END → commit point) is reported alongside
//! as `mean_commit_us`. This experiment runs the bank workload with the
//! recorder on and a hot-set so the 16-terminal cells actually contend,
//! attributes every committed transaction, and writes the
//! machine-readable decomposition to `BENCH_latency_attribution.json`.
//!
//! The components partition the BEGIN → commit window by construction, so
//! their sum equals the attributed total; the JSON also carries the
//! independently measured `tmf.commit_latency_us` histogram mean as a
//! cross-check against `mean_commit_us` (`commit_to_measured_ratio`
//! should sit within a few percent of 1.0 — the two differ only in where
//! the END anchor is sampled).
//!
//! The sweep includes a trail-partition dimension: `partitions > 1`
//! splits each node's accounts over two audited volumes and gives the
//! AUDITPROCESS that many independent trail partitions, so concurrent
//! phase-one forces on different partitions overlap instead of
//! serializing behind one in-flight force.

use crate::sweep::{Column, SweepResult, Value};
use encompass::app::{launch_bank_app, BankAppParams};
use encompass_sim::{SimConfig, SimDuration};
use tmf::facility::TmfNodeConfig;

/// `partitions` is the audit-trail partitions per AUDITPROCESS (1 = the
/// legacy single trail; >1 also spreads the accounts over that many
/// volumes). `attributed_commits` counts the committed transactions with
/// a complete begin→commit flight window; `mean_commit_us` is END →
/// commit point (the commit latency proper); `component_sum_us` is the
/// sum of the four component means, equal to `mean_total_us` exactly
/// (the attribution partitions the window); `measured_mean_us` is the
/// `tmf.commit_latency_us` histogram mean, measured independently of the
/// recorder.
const COLUMNS: &[Column] = &[
    Column::new("window_us", "window (us)"),
    Column::new("terminals", "terminals"),
    Column::new("partitions", "partitions"),
    Column::new("attributed_commits", "commits"),
    Column::new("mean_total_us", "total").decimals(1, 0),
    Column::new("mean_commit_us", "commit").decimals(1, 0),
    Column::new("mean_lock_wait_us", "lock wait").decimals(1, 0),
    Column::new("mean_force_us", "force").decimals(1, 0),
    Column::new("mean_checkpoint_us", "checkpoint").decimals(1, 0),
    Column::new("mean_bus_us", "bus/queue").decimals(1, 0),
    Column::json("component_sum_us", 1),
    Column::new("measured_mean_us", "measured").decimals(1, 0),
    Column::new("commit_to_measured_ratio", "commit/measured").decimals(4, 3),
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
        // a tight hot set so the high-concurrency cells contend on record
        // locks: half the debits hit two keys, so at 16 terminals the
        // lock queues are deep and lock wait is a first-class component
        hot_fraction: 0.6,
        hot_set: 2,
        think: SimDuration::from_micros(500),
        sim: SimConfig::default().flight_recording(),
        tmf,
        ..BankAppParams::default()
    });
    super::run_until_finished(&mut app.world, terminals as u64, 600);
    let mut n = 0u64;
    let (mut total, mut commit, mut lock_wait, mut force, mut checkpoint, mut bus) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for report in tmf::flight_reports(&app.world) {
        if let Some(a) = report.attribution {
            n += 1;
            total += a.total_us;
            commit += a.commit_us;
            lock_wait += a.lock_wait_us;
            force += a.force_us;
            checkpoint += a.checkpoint_us;
            bus += a.bus_us;
        }
    }
    let mean = |sum: u64| sum as f64 / n.max(1) as f64;
    let measured_mean_us = app.world.metrics().observed_mean("tmf.commit_latency_us");
    vec![
        window_us.into(),
        terminals.into(),
        partitions.into(),
        n.into(),
        mean(total).into(),
        mean(commit).into(),
        mean(lock_wait).into(),
        mean(force).into(),
        mean(checkpoint).into(),
        mean(bus).into(),
        (mean(lock_wait) + mean(force) + mean(checkpoint) + mean(bus)).into(),
        measured_mean_us.into(),
        (mean(commit) / measured_mean_us.max(0.001)).into(),
    ]
}

/// Run the sweep: every window × terminal count × partition count.
pub fn latency_attribution() -> SweepResult {
    let mut sweep = SweepResult::new(
        "latency_attribution",
        "latency attribution — mean BEGIN → commit window by component (us)",
        COLUMNS,
    );
    for window in [0, 1_000, 5_000] {
        for terminals in [4, 16] {
            for partitions in [1, 2] {
                sweep.row(run_cell(window, terminals, partitions, 40));
            }
        }
    }
    sweep.table.note(
        "components partition the flight-recorded begin→commit window, so they sum \
         to the total exactly; 'measured' is the recorder-independent \
         tmf.commit_latency_us mean and cross-checks the commit column — \
         contention lives in lock wait (taken during the verbs), and splitting \
         the trail lets concurrent forces overlap instead of queueing",
    );
    sweep
}
