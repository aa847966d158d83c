//! ONLINEDUMP experiment: what a concurrent fuzzy dump costs the
//! foreground workload, and what it buys recovery.
//!
//! Two claims, one sweep:
//!
//! * **dump impact** — the DUMPPROCESS pages through every file of a
//!   volume while transactions keep committing; each page is one disc
//!   access on the same DISCPROCESS, so commit latency and throughput
//!   should degrade only modestly (and less with larger pages);
//! * **recovery vs trail volume** — without dumps, ROLLFORWARD replays
//!   the whole trail from the generation-0 archive, so recovery work
//!   grows linearly with the transaction history; with a registered
//!   fuzzy dump it replays only images past the dump's watermark, so
//!   recovery work stays flat no matter how long the system ran.
//!
//! The machine-readable result goes to `BENCH_online_dump.json`.

use crate::sweep::{Column, SweepResult, Value};
use encompass::app::{launch_bank_app, BankAppParams};
use encompass_audit::dump::request_dump;
use encompass_audit::rollforward::{archive_generation_zero, rollforward_volume};
use encompass_sim::SimDuration;
use encompass_storage::media::{dump_registry_key, DumpRegistry};
use encompass_storage::types::VolumeRef;
use tmf::facility::{trail_key_of, TmfNodeConfig};

/// `dump_page` is the dump's page size (`null`/`none`: no concurrent
/// dump in this cell); `dump_records` and `archive_reads` are the
/// records the dump copied and the disc accesses the copy cost;
/// `trail_records` is the trail records on the media at the end of the
/// run; `recovery_*` is the ROLLFORWARD work from the best available
/// archive (the registered fuzzy dump when one exists, generation 0
/// otherwise).
const COLUMNS: &[Column] = &[
    Column::new("txns_per_terminal", "txns/terminal"),
    Column::new("dump_page", "dump page"),
    Column::new("commits", "commits"),
    Column::new("mean_commit_latency_us", "mean commit latency (us)").decimals(1, 0),
    Column::new("throughput_tps", "txns/s").decimals(2, 1),
    Column::new("dump_records", "dump records"),
    Column::new("archive_reads", "archive reads"),
    Column::new("trail_records", "trail records"),
    Column::new("recovery_redone", "recovery redo"),
    Column::new("recovery_undone", "recovery undo"),
];

fn run_cell(txns: u64, dump_page: Option<usize>) -> Vec<Value> {
    let terminals = 8;
    let tmf = TmfNodeConfig::builder()
        .dump_page_size(dump_page.unwrap_or(64))
        .build()
        .expect("valid tmf config");
    let mut app = launch_bank_app(BankAppParams {
        terminals_per_node: terminals,
        transactions_per_terminal: txns,
        accounts: 1000,
        think: SimDuration::from_micros(500),
        tmf,
        ..BankAppParams::default()
    });
    let volumes: Vec<VolumeRef> = app.catalog.all_volumes();
    // the accounts were preloaded outside TMF, so the trail alone cannot
    // rebuild them
    archive_generation_zero(&mut app.world, &volumes);
    if dump_page.is_some() {
        // dump while the tail of the workload still runs: recovery then
        // replays only the images past the dump's watermark, however
        // long the history before it was
        let total = terminals as u64 * txns;
        let trigger = total.saturating_sub(total.min(20).max(total / 5));
        let mut waited = 0u64;
        while app.world.metrics().get("tmf.commits") < trigger && waited < 600_000 {
            app.world.run_for(SimDuration::from_millis(10));
            waited += 10;
        }
        for v in &volumes {
            request_dump(&mut app.world, 0, 2, v, 1);
        }
    }
    super::run_until_finished(&mut app.world, terminals as u64, 600);
    // drain phase 2 + let any still-running dump finish
    app.world.run_for(SimDuration::from_secs(2));

    let t = app.world.now().as_micros() as f64 / 1e6;
    let m = app.world.metrics();
    let commits = m.get("tmf.commits");
    let mean_commit_latency_us = m.observed_mean("tmf.commit_latency_us");
    let dump_records = m.get("dump.records");
    let archive_reads = m.get("disc.archive_read");

    let trail_records: u64 = (app.tmf.iter().flat_map(|h| &h.trail_keys))
        .filter_map(|k| {
            app.world
                .stable()
                .get::<encompass_audit::trail::TrailMedia>(k)
        })
        .map(|t| t.len() as u64)
        .sum();

    let mut recovery_redone = 0u64;
    let mut recovery_undone = 0u64;
    for v in &volumes {
        let generation = app
            .world
            .stable()
            .get::<DumpRegistry>(&dump_registry_key(v))
            .map(|r| r.generation)
            .unwrap_or(0);
        let trail = trail_key_of(&app.tmf, v).expect("every volume is audited");
        let report = rollforward_volume(&mut app.world, v, trail, generation);
        recovery_redone += report.redone as u64;
        recovery_undone += report.undone as u64;
    }

    vec![
        txns.into(),
        dump_page.into(),
        commits.into(),
        mean_commit_latency_us.into(),
        (commits as f64 / t.max(0.001)).into(),
        dump_records.into(),
        archive_reads.into(),
        trail_records.into(),
        recovery_redone.into(),
        recovery_undone.into(),
    ]
}

/// Run the sweep: with and without a dump (64-record pages) at each
/// history length, then the other page sizes at the longest history.
pub fn online_dump() -> SweepResult {
    let mut sweep = SweepResult::new(
        "online_dump",
        "online dump — foreground impact of a concurrent fuzzy dump, and recovery work \
         from the resulting archive vs from generation 0",
        COLUMNS,
    );
    for txns in [10, 20, 40] {
        sweep.row(run_cell(txns, None));
        sweep.row(run_cell(txns, Some(64)));
    }
    for page in [16, 256] {
        sweep.row(run_cell(40, Some(page)));
    }
    sweep.table.note(
        "'none' rows recover from the generation-0 archive, so recovery redo grows with \
         the trail; dumped rows recover from the fuzzy archive's watermark, so redo stays \
         bounded by the work that followed the dump — the trade is the archive reads the \
         copy spends while transactions run",
    );
    sweep
}
