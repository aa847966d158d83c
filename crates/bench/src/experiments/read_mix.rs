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

use crate::sweep::{Column, SweepResult};
use encompass::app::{launch_bank_app, BankAppParams};
use encompass_sim::SimDuration;

/// `mix` is `write-only`, `read-only`, `95/5` or `99/1`;
/// `forces_per_write_commit` counts physical trail forces per *write*
/// commit (read-only commits force nothing, so the denominator excludes
/// them).
const COLUMNS: &[Column] = &[
    Column::new("mix", "mix"),
    Column::new("writers", "writers"),
    Column::new("readers", "readers"),
    Column::new("write_commits", "write commits"),
    Column::new("readonly_commits", "read commits"),
    Column::new("aborts", "aborts"),
    Column::new("audit_forces", "audit forces"),
    Column::new("monitor_forces", "monitor forces"),
    Column::new("forces_per_write_commit", "forces/write").decimals(4, 3),
    Column::new("write_tps", "write txns/s").decimals(2, 1),
    Column::new("read_tps", "read txns/s").decimals(2, 1),
    Column::json("virtual_secs", 3),
];

/// The cells: (mix, writers, writer_txns, readers, reader_txns).
/// Write-only rows pin the baseline; read-only rows pin the zero-force
/// guarantee; mixed rows scale the reader pool at an exact read fraction
/// of the *transaction* mix (a TCP hosts at most 32 terminals, so with 1
/// writer at R txns and R readers at 19 txns each, reads/writes = 19
/// exactly — 95/5 — at any R).
const CELLS: &[(&str, usize, u64, usize, u64)] = &[
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
];

/// Run the sweep. Checked: a pure-reader cell forces neither trail and
/// commits something — read-only commits must never touch either audit
/// trail.
pub fn read_mix() -> SweepResult {
    let mut sweep = SweepResult::new(
        "read_mix",
        "read mix — snapshot read-only throughput vs the write-only baseline",
        COLUMNS,
    );
    for &(mix, writers, writer_txns, readers, reader_txns) in CELLS {
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
        super::run_until_finished(&mut app.world, (writers + readers) as u64, 600);
        let t = app.world.now().as_micros() as f64 / 1e6;
        let m = app.world.metrics();
        let readonly_commits = m.get("tmf.readonly_commits");
        let write_commits = m.get("tmf.commits") - readonly_commits;
        let audit_forces = m.get("audit.forces");
        let monitor_forces = m.get("tmf.monitor_forces");
        if writers == 0 {
            sweep.table.check(
                audit_forces + monitor_forces == 0 && readonly_commits > 0,
                format!(
                    "{mix} with {readers} readers: {audit_forces} audit + {monitor_forces} \
                     monitor forces over {readonly_commits} read-only commits"
                ),
            );
        }
        sweep.row(vec![
            mix.into(),
            writers.into(),
            readers.into(),
            write_commits.into(),
            readonly_commits.into(),
            m.get("tmf.aborts").into(),
            audit_forces.into(),
            monitor_forces.into(),
            ((audit_forces + monitor_forces) as f64 / write_commits.max(1) as f64).into(),
            (write_commits as f64 / t.max(0.001)).into(),
            (readonly_commits as f64 / t.max(0.001)).into(),
            t.into(),
        ]);
    }
    sweep.table.note(
        "read-only transactions take no record locks and write no trail records, \
         so pure-reader cells force neither trail (asserted), read throughput \
         scales with the reader pool, and the forces in mixed cells are \
         attributable to the write commits alone",
    );
    sweep
}
