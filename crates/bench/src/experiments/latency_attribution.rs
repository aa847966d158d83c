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

use crate::Table;
use encompass::app::{launch_bank_app, BankAppParams};
use encompass_sim::{SimConfig, SimDuration};
use tmf::facility::TmfNodeConfig;

/// One cell of the sweep.
#[derive(Clone, Debug)]
pub struct LatencyAttributionRow {
    pub window_us: u64,
    pub terminals: usize,
    /// Audit-trail partitions per AUDITPROCESS (1 = the legacy single
    /// trail; >1 also spreads the accounts over that many volumes).
    pub partitions: usize,
    /// Committed transactions with a complete begin→commit flight window.
    pub attributed_commits: u64,
    pub mean_total_us: f64,
    /// END-TRANSACTION → commit point (the commit latency proper).
    pub mean_commit_us: f64,
    pub mean_lock_wait_us: f64,
    pub mean_force_us: f64,
    pub mean_checkpoint_us: f64,
    pub mean_bus_us: f64,
    /// Sum of the four component means (equals `mean_total_us` exactly —
    /// the attribution partitions the window).
    pub component_sum_us: f64,
    /// The `tmf.commit_latency_us` histogram mean, measured independently
    /// of the recorder.
    pub measured_mean_us: f64,
    pub commit_to_measured_ratio: f64,
}

/// The whole sweep plus its rendered table.
pub struct LatencyAttributionResult {
    pub rows: Vec<LatencyAttributionRow>,
    pub smoke: bool,
}

fn run_cell(
    window_us: u64,
    terminals: usize,
    partitions: usize,
    txns: u64,
) -> LatencyAttributionRow {
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
    let component_sum_us = mean(lock_wait) + mean(force) + mean(checkpoint) + mean(bus);
    let measured_mean_us = app.world.metrics().observed_mean("tmf.commit_latency_us");
    LatencyAttributionRow {
        window_us,
        terminals,
        partitions,
        attributed_commits: n,
        mean_total_us: mean(total),
        mean_commit_us: mean(commit),
        mean_lock_wait_us: mean(lock_wait),
        mean_force_us: mean(force),
        mean_checkpoint_us: mean(checkpoint),
        mean_bus_us: mean(bus),
        component_sum_us,
        measured_mean_us,
        commit_to_measured_ratio: mean(commit) / measured_mean_us.max(0.001),
    }
}

/// Run the sweep. `smoke` trims it to a CI-sized subset.
pub fn latency_attribution(smoke: bool) -> LatencyAttributionResult {
    let (windows, terminals, partitions, txns): (&[u64], &[usize], &[usize], u64) = if smoke {
        (&[0, 2_000], &[4], &[1, 2], 10)
    } else {
        (&[0, 1_000, 5_000], &[4, 16], &[1, 2], 40)
    };
    let mut rows = Vec::new();
    for &w in windows {
        for &t in terminals {
            for &p in partitions {
                rows.push(run_cell(w, t, p, txns));
            }
        }
    }
    LatencyAttributionResult { rows, smoke }
}

impl LatencyAttributionResult {
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "latency attribution — mean BEGIN → commit window by component (us)",
            &[
                "window (us)",
                "terminals",
                "partitions",
                "commits",
                "total",
                "commit",
                "lock wait",
                "force",
                "checkpoint",
                "bus/queue",
                "measured",
                "commit/measured",
            ],
        );
        for r in &self.rows {
            table.row(vec![
                r.window_us.to_string(),
                r.terminals.to_string(),
                r.partitions.to_string(),
                r.attributed_commits.to_string(),
                format!("{:.0}", r.mean_total_us),
                format!("{:.0}", r.mean_commit_us),
                format!("{:.0}", r.mean_lock_wait_us),
                format!("{:.0}", r.mean_force_us),
                format!("{:.0}", r.mean_checkpoint_us),
                format!("{:.0}", r.mean_bus_us),
                format!("{:.0}", r.measured_mean_us),
                format!("{:.3}", r.commit_to_measured_ratio),
            ]);
        }
        table.note(
            "components partition the flight-recorded begin→commit window, so they sum \
             to the total exactly; 'measured' is the recorder-independent \
             tmf.commit_latency_us mean and cross-checks the commit column — \
             contention lives in lock wait (taken during the verbs), and splitting \
             the trail lets concurrent forces overlap instead of queueing",
        );
        table
    }

    /// Hand-rolled JSON (the container has no serde): stable key order,
    /// one row object per sweep cell.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"experiment\": \"latency_attribution\",\n");
        out.push_str(&format!("  \"smoke\": {},\n  \"rows\": [\n", self.smoke));
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"window_us\": {}, \"terminals\": {}, \"partitions\": {}, \
                 \"attributed_commits\": {}, \
                 \"mean_total_us\": {:.1}, \"mean_commit_us\": {:.1}, \
                 \"mean_lock_wait_us\": {:.1}, \
                 \"mean_force_us\": {:.1}, \"mean_checkpoint_us\": {:.1}, \
                 \"mean_bus_us\": {:.1}, \"component_sum_us\": {:.1}, \
                 \"measured_mean_us\": {:.1}, \"commit_to_measured_ratio\": {:.4}}}{}\n",
                r.window_us,
                r.terminals,
                r.partitions,
                r.attributed_commits,
                r.mean_total_us,
                r.mean_commit_us,
                r.mean_lock_wait_us,
                r.mean_force_us,
                r.mean_checkpoint_us,
                r.mean_bus_us,
                r.component_sum_us,
                r.measured_mean_us,
                r.commit_to_measured_ratio,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}
