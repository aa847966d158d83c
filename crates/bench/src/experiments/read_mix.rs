//! Read/write mix sweep: snapshot read-only transaction throughput as the
//! terminal count grows, at 95/5 and 99/1 read mixes, against the
//! write-only baseline.
//!
//! Read-only transactions take no record locks (snapshot reads against
//! the DISCPROCESS before-image ring) and resolve locally at
//! END-TRANSACTION — no phase one, no forced monitor record, no trail
//! force at all. So read throughput should scale with the reader count
//! without disturbing write throughput, and a pure-reader cell must
//! perform *zero* trail forces. This experiment measures both and writes
//! the machine-readable result to `BENCH_read_mix.json`.

use crate::Table;
use encompass::app::{launch_bank_app, BankAppParams};
use encompass_sim::SimDuration;

/// One cell of the sweep.
#[derive(Clone, Debug)]
pub struct ReadMixRow {
    /// Mix label: `write-only`, `read-only`, `95/5`, `99/1`.
    pub mix: &'static str,
    pub writers: usize,
    pub readers: usize,
    pub write_commits: u64,
    pub readonly_commits: u64,
    pub aborts: u64,
    pub audit_forces: u64,
    pub monitor_forces: u64,
    /// Physical trail forces per *write* commit (read-only commits force
    /// nothing, so the denominator excludes them).
    pub forces_per_write_commit: f64,
    pub write_tps: f64,
    pub read_tps: f64,
    pub virtual_secs: f64,
}

/// The whole sweep plus its rendered table.
pub struct ReadMixResult {
    pub rows: Vec<ReadMixRow>,
    pub smoke: bool,
}

fn run_cell(
    mix: &'static str,
    writers: usize,
    writer_txns: u64,
    readers: usize,
    reader_txns: u64,
) -> ReadMixRow {
    let mut app = launch_bank_app(BankAppParams {
        terminals_per_node: writers,
        readonly_terminals_per_node: readers,
        transactions_per_terminal: writer_txns,
        readonly_transactions_per_terminal: Some(reader_txns),
        accounts: 1000,
        history: false,
        think: SimDuration::from_micros(500),
        ..BankAppParams::default()
    });
    let total = (writers + readers) as u64;
    super::run_until_finished(&mut app.world, total, 600);
    let t = app.world.now().as_micros() as f64 / 1e6;
    let m = app.world.metrics();
    let commits = m.get("tmf.commits");
    let readonly_commits = m.get("tmf.readonly_commits");
    let write_commits = commits - readonly_commits;
    let audit_forces = m.get("audit.forces");
    let monitor_forces = m.get("tmf.monitor_forces");
    ReadMixRow {
        mix,
        writers,
        readers,
        write_commits,
        readonly_commits,
        aborts: m.get("tmf.aborts"),
        audit_forces,
        monitor_forces,
        forces_per_write_commit: (audit_forces + monitor_forces) as f64
            / write_commits.max(1) as f64,
        write_tps: write_commits as f64 / t.max(0.001),
        read_tps: readonly_commits as f64 / t.max(0.001),
        virtual_secs: t,
    }
}

/// Run the sweep. `smoke` trims it to a CI-sized subset. Panics if a
/// pure-reader cell performs any physical trail force — read-only
/// commits must never touch either audit trail.
pub fn read_mix(smoke: bool) -> ReadMixResult {
    // (mix, writers, writer_txns, readers, reader_txns) cells.
    // Write-only rows pin the baseline; read-only rows pin the
    // zero-force guarantee; mixed rows scale the reader pool at an
    // exact read fraction of the *transaction* mix (a TCP hosts at
    // most 32 terminals, so with 1 writer at R txns and R readers at
    // 19 txns each, reads/writes = 19 exactly — 95/5 — at any R).
    let cells: &[(&'static str, usize, u64, usize, u64)] = if smoke {
        &[
            ("write-only", 8, 10, 0, 0),
            ("read-only", 0, 0, 8, 10),
            ("95/5", 1, 8, 8, 19),
        ]
    } else {
        &[
            ("write-only", 4, 25, 0, 0),
            ("write-only", 8, 25, 0, 0),
            ("write-only", 16, 25, 0, 0),
            ("read-only", 0, 0, 8, 25),
            ("read-only", 0, 0, 32, 25),
            // reads/writes = R*19/R = 19 (95/5) as the pool grows
            ("95/5", 1, 8, 8, 19),
            ("95/5", 1, 16, 16, 19),
            ("95/5", 1, 31, 31, 19),
            // reads/writes = R*33/(R/3) = 99 (99/1)
            ("99/1", 1, 3, 9, 33),
            ("99/1", 1, 5, 15, 33),
            ("99/1", 1, 10, 30, 33),
        ]
    };
    let mut rows = Vec::new();
    for &(mix, writers, writer_txns, readers, reader_txns) in cells {
        let row = run_cell(mix, writers, writer_txns, readers, reader_txns);
        if writers == 0 {
            assert_eq!(
                row.audit_forces + row.monitor_forces,
                0,
                "read-only transactions must not force either trail \
                 ({} audit + {} monitor forces over {} read-only commits)",
                row.audit_forces,
                row.monitor_forces,
                row.readonly_commits,
            );
            assert!(
                row.readonly_commits > 0,
                "pure-reader cell committed nothing"
            );
        }
        rows.push(row);
    }
    ReadMixResult { rows, smoke }
}

impl ReadMixResult {
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "read mix — snapshot read-only throughput vs the write-only baseline",
            &[
                "mix",
                "writers",
                "readers",
                "write commits",
                "read commits",
                "aborts",
                "audit forces",
                "monitor forces",
                "forces/write",
                "write txns/s",
                "read txns/s",
            ],
        );
        for r in &self.rows {
            table.row(vec![
                r.mix.to_string(),
                r.writers.to_string(),
                r.readers.to_string(),
                r.write_commits.to_string(),
                r.readonly_commits.to_string(),
                r.aborts.to_string(),
                r.audit_forces.to_string(),
                r.monitor_forces.to_string(),
                format!("{:.3}", r.forces_per_write_commit),
                format!("{:.1}", r.write_tps),
                format!("{:.1}", r.read_tps),
            ]);
        }
        table.note(
            "read-only transactions take no record locks and write no trail records, \
             so pure-reader cells force neither trail (asserted), read throughput \
             scales with the reader pool, and the forces in mixed cells are \
             attributable to the write commits alone",
        );
        table
    }

    /// Hand-rolled JSON (the container has no serde): stable key order,
    /// one row object per sweep cell.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"experiment\": \"read_mix\",\n");
        out.push_str(&format!("  \"smoke\": {},\n  \"rows\": [\n", self.smoke));
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"mix\": \"{}\", \"writers\": {}, \"readers\": {}, \
                 \"write_commits\": {}, \"readonly_commits\": {}, \"aborts\": {}, \
                 \"audit_forces\": {}, \"monitor_forces\": {}, \
                 \"forces_per_write_commit\": {:.4}, \"write_tps\": {:.2}, \
                 \"read_tps\": {:.2}, \"virtual_secs\": {:.3}}}{}\n",
                r.mix,
                r.writers,
                r.readers,
                r.write_commits,
                r.readonly_commits,
                r.aborts,
                r.audit_forces,
                r.monitor_forces,
                r.forces_per_write_commit,
                r.write_tps,
                r.read_tps,
                r.virtual_secs,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}
