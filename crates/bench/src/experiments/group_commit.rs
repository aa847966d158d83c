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

use crate::Table;
use encompass::app::{launch_bank_app, BankAppParams};
use encompass_sim::SimDuration;
use tmf::facility::TmfNodeConfig;

/// One cell of the sweep.
#[derive(Clone, Debug)]
pub struct GroupCommitRow {
    pub window_us: u64,
    pub terminals: usize,
    /// Audit-trail partitions per AUDITPROCESS (1 = the legacy single
    /// trail; >1 also spreads the accounts over that many volumes so
    /// concurrent forces land on different partitions).
    pub partitions: usize,
    pub commits: u64,
    pub audit_forces: u64,
    pub monitor_forces: u64,
    pub forces_per_commit: f64,
    pub throughput_tps: f64,
    pub mean_audit_boxcar: f64,
    pub mean_monitor_boxcar: f64,
    pub mean_commit_latency_us: f64,
    pub virtual_secs: f64,
}

/// The whole sweep plus its rendered table.
pub struct GroupCommitResult {
    pub rows: Vec<GroupCommitRow>,
    pub smoke: bool,
}

fn run_cell(window_us: u64, terminals: usize, partitions: usize, txns: u64) -> GroupCommitRow {
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
    GroupCommitRow {
        window_us,
        terminals,
        partitions,
        commits,
        audit_forces,
        monitor_forces,
        forces_per_commit: (audit_forces + monitor_forces) as f64 / commits.max(1) as f64,
        throughput_tps: commits as f64 / t.max(0.001),
        mean_audit_boxcar: m.observed_mean("audit.boxcar_size"),
        mean_monitor_boxcar: m.observed_mean("tmf.monitor_boxcar_size"),
        mean_commit_latency_us: m.observed_mean("tmf.commit_latency_us"),
        virtual_secs: t,
    }
}

/// Run the sweep. `smoke` trims it to a CI-sized subset.
pub fn group_commit(smoke: bool) -> GroupCommitResult {
    let (windows, terminals, partitions, txns): (&[u64], &[usize], &[usize], u64) = if smoke {
        (&[0, 2_000], &[2, 8], &[1, 2], 10)
    } else {
        (&[0, 500, 1_000, 2_000, 5_000], &[1, 4, 8, 16], &[1, 2], 40)
    };
    let mut rows = Vec::new();
    for &w in windows {
        for &t in terminals {
            for &p in partitions {
                rows.push(run_cell(w, t, p, txns));
            }
        }
    }
    GroupCommitResult { rows, smoke }
}

impl GroupCommitResult {
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "group commit — physical forces per committed transaction, by window and concurrency",
            &[
                "window (us)",
                "terminals",
                "partitions",
                "commits",
                "audit forces",
                "monitor forces",
                "forces/commit",
                "txns/s",
                "mean audit boxcar",
                "mean monitor boxcar",
                "mean commit latency (us)",
            ],
        );
        for r in &self.rows {
            table.row(vec![
                r.window_us.to_string(),
                r.terminals.to_string(),
                r.partitions.to_string(),
                r.commits.to_string(),
                r.audit_forces.to_string(),
                r.monitor_forces.to_string(),
                format!("{:.3}", r.forces_per_commit),
                format!("{:.1}", r.throughput_tps),
                format!("{:.2}", r.mean_audit_boxcar),
                format!("{:.2}", r.mean_monitor_boxcar),
                format!("{:.0}", r.mean_commit_latency_us),
            ]);
        }
        table.note(
            "window 0 is the pre-boxcarring behavior (one monitor force per commit); \
             with a window open, concurrent phase-one forces ride one trail write — \
             forces/commit falls below 1 once boxcars average above ~2; with >1 trail \
             partitions, forces on different partitions overlap instead of queueing \
             behind one in-flight force, lifting the high-concurrency plateau",
        );
        table
    }

    /// Hand-rolled JSON (the container has no serde): stable key order,
    /// one row object per sweep cell.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"experiment\": \"group_commit\",\n");
        out.push_str(&format!("  \"smoke\": {},\n  \"rows\": [\n", self.smoke));
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"window_us\": {}, \"terminals\": {}, \"partitions\": {}, \
                 \"commits\": {}, \
                 \"audit_forces\": {}, \"monitor_forces\": {}, \
                 \"forces_per_commit\": {:.4}, \"throughput_tps\": {:.2}, \
                 \"mean_audit_boxcar\": {:.3}, \"mean_monitor_boxcar\": {:.3}, \
                 \"mean_commit_latency_us\": {:.1}, \"virtual_secs\": {:.3}}}{}\n",
                r.window_us,
                r.terminals,
                r.partitions,
                r.commits,
                r.audit_forces,
                r.monitor_forces,
                r.forces_per_commit,
                r.throughput_tps,
                r.mean_audit_boxcar,
                r.mean_monitor_boxcar,
                r.mean_commit_latency_us,
                r.virtual_secs,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}
