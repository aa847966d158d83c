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

use crate::Table;
use encompass::app::{launch_bank_app, BankAppParams};
use encompass_audit::dump::{DumpMsg, DumpReply, DUMP_SERVICE};
use encompass_audit::rollforward::{archive_generation_zero, rollforward_volume};
use encompass_sim::SimDuration;
use encompass_storage::media::{dump_registry_key, DumpRegistry};
use encompass_storage::types::VolumeRef;
use guardian::{ask, Target};
use tmf::facility::{trail_key_of, TmfNodeConfig};

/// One cell of the sweep.
#[derive(Clone, Debug)]
pub struct OnlineDumpRow {
    pub txns_per_terminal: u64,
    /// Dump page size; `None` = no concurrent dump in this cell.
    pub dump_page: Option<usize>,
    pub commits: u64,
    pub mean_commit_latency_us: f64,
    pub throughput_tps: f64,
    /// Records the dump copied, and the disc accesses the copy cost.
    pub dump_records: u64,
    pub archive_reads: u64,
    /// Trail records on the media at the end of the run.
    pub trail_records: u64,
    /// ROLLFORWARD work from the best available archive (the registered
    /// fuzzy dump when one exists, generation 0 otherwise).
    pub recovery_redone: u64,
    pub recovery_undone: u64,
}

/// The whole sweep plus its rendered table.
pub struct OnlineDumpResult {
    pub rows: Vec<OnlineDumpRow>,
    pub smoke: bool,
}

fn run_cell(txns: u64, dump_page: Option<usize>, terminals: usize) -> OnlineDumpRow {
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
            ask::<DumpMsg, DumpReply>(
                &mut app.world,
                v.node,
                0,
                2,
                Target::Named(v.node, DUMP_SERVICE),
                DumpMsg::DumpVolume {
                    volume: v.clone(),
                    generation: 1,
                },
                SimDuration::from_millis(100),
            );
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
        .map(|t| t.files.iter().map(|f| f.records.len() as u64).sum::<u64>())
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

    OnlineDumpRow {
        txns_per_terminal: txns,
        dump_page,
        commits,
        mean_commit_latency_us,
        throughput_tps: commits as f64 / t.max(0.001),
        dump_records,
        archive_reads,
        trail_records,
        recovery_redone,
        recovery_undone,
    }
}

/// Run the sweep. `smoke` trims it to a CI-sized subset.
pub fn online_dump(smoke: bool) -> OnlineDumpResult {
    let (txn_counts, pages, terminals): (&[u64], &[usize], usize) = if smoke {
        (&[10], &[64], 4)
    } else {
        (&[10, 20, 40], &[16, 64, 256], 8)
    };
    let mut rows = Vec::new();
    for &txns in txn_counts {
        rows.push(run_cell(txns, None, terminals));
        rows.push(run_cell(txns, Some(pages[pages.len() / 2]), terminals));
    }
    // page-size sensitivity at the largest history
    if !smoke {
        let &txns = txn_counts.last().expect("nonempty");
        for &p in pages {
            if p != pages[pages.len() / 2] {
                rows.push(run_cell(txns, Some(p), terminals));
            }
        }
    }
    OnlineDumpResult { rows, smoke }
}

impl OnlineDumpResult {
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "online dump — foreground impact of a concurrent fuzzy dump, and recovery work \
             from the resulting archive vs from generation 0",
            &[
                "txns/terminal",
                "dump page",
                "commits",
                "mean commit latency (us)",
                "txns/s",
                "dump records",
                "archive reads",
                "trail records",
                "recovery redo",
                "recovery undo",
            ],
        );
        for r in &self.rows {
            table.row(vec![
                r.txns_per_terminal.to_string(),
                r.dump_page.map_or("none".to_string(), |p| p.to_string()),
                r.commits.to_string(),
                format!("{:.0}", r.mean_commit_latency_us),
                format!("{:.1}", r.throughput_tps),
                r.dump_records.to_string(),
                r.archive_reads.to_string(),
                r.trail_records.to_string(),
                r.recovery_redone.to_string(),
                r.recovery_undone.to_string(),
            ]);
        }
        table.note(
            "'none' rows recover from the generation-0 archive, so recovery redo grows with \
             the trail; dumped rows recover from the fuzzy archive's watermark, so redo stays \
             bounded by the work that followed the dump — the trade is the archive reads the \
             copy spends while transactions run",
        );
        table
    }

    /// Hand-rolled JSON (the container has no serde): stable key order,
    /// one row object per sweep cell.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"experiment\": \"online_dump\",\n");
        out.push_str(&format!("  \"smoke\": {},\n  \"rows\": [\n", self.smoke));
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"txns_per_terminal\": {}, \"dump_page\": {}, \"commits\": {}, \
                 \"mean_commit_latency_us\": {:.1}, \"throughput_tps\": {:.2}, \
                 \"dump_records\": {}, \"archive_reads\": {}, \"trail_records\": {}, \
                 \"recovery_redone\": {}, \"recovery_undone\": {}}}{}\n",
                r.txns_per_terminal,
                r.dump_page.map_or("null".to_string(), |p| p.to_string()),
                r.commits,
                r.mean_commit_latency_us,
                r.throughput_tps,
                r.dump_records,
                r.archive_reads,
                r.trail_records,
                r.recovery_redone,
                r.recovery_undone,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}
