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

use crate::Table;
use encompass::app::{launch_shard_bank, suspense_backlog, ShardBankAppParams};
use encompass_sim::SimDuration;

/// One cell of the sweep.
#[derive(Clone, Debug)]
pub struct ScaleoutRow {
    pub nodes: usize,
    /// Out of 1000 transfers, how many cross a shard boundary.
    pub cross_shard_permille: u32,
    pub commits: u64,
    pub aborts: u64,
    /// Deferred branch updates the suspense monitors applied.
    pub suspense_applied: u64,
    pub tps: f64,
    /// Virtual time at which the last terminal finished.
    pub virtual_secs: f64,
}

/// The whole sweep plus its rendered table.
pub struct ScaleoutResult {
    pub rows: Vec<ScaleoutRow>,
    pub smoke: bool,
}

fn run_cell(
    nodes: usize,
    cross_shard_permille: u32,
    transactions_per_terminal: u64,
) -> ScaleoutRow {
    let accounts = nodes as u64 * 64;
    let (mut app, _map) = launch_shard_bank(ShardBankAppParams {
        nodes,
        accounts,
        terminals_per_node: 4,
        transactions_per_terminal,
        cross_shard_permille,
        branch_permille: 100,
        branch_replicas: 2,
        think: SimDuration::from_millis(1),
        ..ShardBankAppParams::default()
    });
    let total = (nodes * 4) as u64;
    super::run_until_finished(&mut app.world, total, 600);
    assert_eq!(
        app.world.metrics().get("tcp.terminals_finished"),
        total,
        "scale-out cell stalled at {nodes} nodes / {cross_shard_permille}‰ cross-shard"
    );
    let t = app.world.now().as_micros() as f64 / 1e6;
    let commits = app.world.metrics().get("tmf.commits");
    let aborts = app.world.metrics().get("tmf.aborts");

    // let the suspense monitors finish, then require every backlog empty
    app.world.run_for(SimDuration::from_secs(20));
    for &n in &app.nodes {
        assert_eq!(
            suspense_backlog(&app.world, n, "$SB"),
            0,
            "suspense backlog at {n} never drained after the workload"
        );
    }
    ScaleoutRow {
        nodes,
        cross_shard_permille,
        commits,
        aborts,
        suspense_applied: app.world.metrics().get("suspense.applied"),
        tps: commits as f64 / t.max(0.001),
        virtual_secs: t,
    }
}

/// Run the sweep. `smoke` trims it to a CI-sized subset. Panics if a
/// cell stalls, leaves a suspense backlog, or — at the lowest
/// cross-shard fraction — throughput fails to rise with the node count
/// (the scale-out claim itself).
pub fn scaleout(smoke: bool) -> ScaleoutResult {
    // (nodes, cross-shard ‰, txns/terminal) cells
    let cells: &[(usize, u32, u64)] = if smoke {
        &[(16, 0, 6), (32, 0, 6), (16, 300, 6)]
    } else {
        &[
            (16, 0, 25),
            (32, 0, 25),
            (64, 0, 25),
            (16, 100, 25),
            (32, 100, 25),
            (64, 100, 25),
            (16, 300, 25),
            (32, 300, 25),
            (64, 300, 25),
        ]
    };
    let mut rows = Vec::new();
    for &(nodes, cross, txns) in cells {
        rows.push(run_cell(nodes, cross, txns));
    }
    // the claim: at the lowest cross-shard fraction, adding shards adds
    // throughput
    let lowest = rows.iter().map(|r| r.cross_shard_permille).min().unwrap();
    let mut last: Option<&ScaleoutRow> = None;
    for r in rows.iter().filter(|r| r.cross_shard_permille == lowest) {
        if let Some(prev) = last {
            assert!(
                r.tps > prev.tps,
                "throughput did not scale: {} nodes at {:.1} tps vs {} nodes at {:.1} tps \
                 ({lowest}‰ cross-shard)",
                r.nodes,
                r.tps,
                prev.nodes,
                prev.tps,
            );
        }
        last = Some(r);
    }
    ScaleoutResult { rows, smoke }
}

impl ScaleoutResult {
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "scale-out — sharded-bank throughput vs node count and cross-shard fraction",
            &[
                "nodes",
                "cross-shard ‰",
                "commits",
                "aborts",
                "suspense applied",
                "txns/s",
                "virtual secs",
            ],
        );
        for r in &self.rows {
            table.row(vec![
                r.nodes.to_string(),
                r.cross_shard_permille.to_string(),
                r.commits.to_string(),
                r.aborts.to_string(),
                r.suspense_applied.to_string(),
                format!("{:.1}", r.tps),
                format!("{:.3}", r.virtual_secs),
            ]);
        }
        table.note(
            "each node masters one shard and runs its own terminals, so offered load \
             grows with the node count; throughput rises near-linearly at cross-shard 0 \
             (asserted) and degrades gracefully as more transfers become distributed \
             transactions; every suspense backlog drains after the workload (asserted)",
        );
        table
    }

    /// Hand-rolled JSON (the container has no serde): stable key order,
    /// one row object per sweep cell.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"experiment\": \"scaleout\",\n");
        out.push_str(&format!("  \"smoke\": {},\n  \"rows\": [\n", self.smoke));
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"nodes\": {}, \"cross_shard_permille\": {}, \"commits\": {}, \
                 \"aborts\": {}, \"suspense_applied\": {}, \"tps\": {:.2}, \
                 \"virtual_secs\": {:.3}}}{}\n",
                r.nodes,
                r.cross_shard_permille,
                r.commits,
                r.aborts,
                r.suspense_applied,
                r.tps,
                r.virtual_secs,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}
