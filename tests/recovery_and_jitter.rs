//! Additional workspace-level scenarios: ROLLFORWARD's negotiation with a
//! *remote* home node, audit-trail purging below an online dump's floor,
//! the TMF utility (disposition query / manual override), and runs with
//! message jitter enabled (shakes out accidental ordering assumptions).

#![allow(
    clippy::wildcard_enum_match_arm,
    reason = "a test names the one variant it expects; any other is the failure it reports"
)]

use bytes::Bytes;
use encompass_tmf::audit::auditprocess::{AuditProcess, AuditStateReport};
use encompass_tmf::audit::dump::{request_dump, DumpReply};
use encompass_tmf::audit::monitor::MonitorTrail;
use encompass_tmf::audit::rollforward::rollforward_volume;
use encompass_tmf::audit::trail::{trail_key, TrailMedia};
use encompass_tmf::encompass::app::{launch_bank_app, AppBuilder, BankAppParams};
use encompass_tmf::encompass::workload::total_balance;
use encompass_tmf::sim::{CpuId, Fault, NodeId, SimConfig, SimDuration, SimTime};
use encompass_tmf::storage::discprocess::{DiscProcess, DiscStateReport};
use encompass_tmf::storage::media::{media_key, VolumeMedia};
use encompass_tmf::storage::types::{FileDef, VolumeRef};
use encompass_tmf::storage::Catalog;
use encompass_tmf::tmf::facility::TmfNodeConfig;
use guardian::Target;

use tmf::script::{run_txn_script as drive, Step};
use tmf::tmp::{TmpProcess, TmpStateReport};
use tmf::TxTableProcess;

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

/// ROLLFORWARD of a non-home volume must consult the *home node's* monitor
/// trail — the paper's "negotiates with other nodes of the network".
#[test]
fn rollforward_negotiates_with_remote_home_node() {
    let mut catalog = Catalog::new();
    catalog.add(FileDef::key_sequenced(
        "f0",
        VolumeRef::new(NodeId(0), "$D0"),
    ));
    catalog.add(FileDef::key_sequenced(
        "f1",
        VolumeRef::new(NodeId(1), "$D1"),
    ));
    let mut app = AppBuilder::new()
        .node(4)
        .node(4)
        .mesh(SimDuration::from_millis(2))
        .build(catalog);
    let (n0, n1) = (app.nodes[0], app.nodes[1]);

    // archive node 1's volume up front
    let vol = VolumeRef::new(n1, "$D1");
    let dump = request_dump(&mut app.world, 0, 50, &vol, 1);
    app.world.run_for(SimDuration::from_millis(200));
    assert!(
        matches!(*dump.borrow(), Some(DumpReply::Done { .. })),
        "{:?}",
        dump.borrow()
    );

    // a distributed transaction homed at node 0 writes node 1's volume
    let log = drive(
        &mut app.world,
        n0,
        0,
        app.catalog.clone(),
        vec![
            Step::Begin,
            Step::Insert("f0".into(), b("k"), b("v0")),
            Step::Insert("f1".into(), b("k"), b("v1")),
            Step::End,
        ],
    );
    app.world.run_for(SimDuration::from_secs(10));
    assert_eq!(log.borrow().last().unwrap(), "committed");
    // the commit record lives at the HOME node only if node 1 never saw
    // phase 2 — normally both have it; verify home has it
    let transid = encompass_tmf::tmf::Transid {
        home_node: n0,
        cpu: 0,
        seq: 1,
    };
    assert_eq!(
        MonitorTrail::of(app.world.stable_mut(), n0).outcome(transid),
        Some(true)
    );

    // total failure of node 1's volume
    app.world.inject(Fault::KillCpu(n1, CpuId(2)));
    app.world.inject(Fault::KillCpu(n1, CpuId(3)));
    app.world.run_for(SimDuration::from_millis(100));
    {
        let media = app
            .world
            .stable_mut()
            .get_mut::<VolumeMedia>(&media_key(n1, "$D1"))
            .unwrap();
        media.fail_drive(0);
        media.fail_drive(1);
        media.revive_drive(0);
        media.revive_drive(1);
        // wipe node 1's own monitor trail to force the negotiation to go
        // to the remote home node (it would normally have a phase-2 copy)
        assert!(!media.available());
    }
    app.world
        .stable_mut()
        .remove(&encompass_tmf::audit::monitor::monitor_key(n1));

    let report = rollforward_volume(&mut app.world, &vol, &trail_key(n1, 0), 1);
    assert!(report.redone >= 1, "{report:?}");
    let media = app
        .world
        .stable()
        .get::<VolumeMedia>(&media_key(n1, "$D1"))
        .unwrap();
    assert_eq!(
        media.file("f1").and_then(|f| f.read(b"k")),
        Some(b("v1")),
        "the committed write survived via the remote home node's commit record"
    );
}

/// Trail files wholly below an online dump's purge floor can be purged;
/// recovery from that dump is still exact. The floor, not the dump's
/// watermark, is the bound: recovery needs every record from the floor
/// up (the first image of a transaction the dump may have caught
/// mid-flight), and the floor is at or below the watermark.
#[test]
fn trail_purge_respects_archive_watermark() {
    let mut app = launch_bank_app(BankAppParams {
        accounts: 100,
        terminals_per_node: 3,
        transactions_per_terminal: 10,
        think: SimDuration::from_millis(1),
        // short trail files, so the records below the floor fill some
        tmf: TmfNodeConfig::builder()
            .audit_rotate_every(8)
            .build()
            .expect("valid tmf config"),
        ..BankAppParams::default()
    });
    let n = app.nodes[0];
    // run half the workload, then dump (the watermark captures progress)
    app.world.run_for(SimDuration::from_millis(700));
    let dump = request_dump(&mut app.world, 0, 50, &VolumeRef::new(n, "$BANK"), 2);
    app.world.run_for(SimDuration::from_secs(120));
    assert_eq!(app.world.metrics().get("tcp.terminals_finished"), 3);
    app.world.run_for(SimDuration::from_secs(5));
    let pre_total = total_balance(&mut app.world, &app.catalog, "accounts");

    // purge trail files below the dump's floor ("creation and purging is
    // managed by TMF"; here the operator drives it)
    let Some(DumpReply::Done { purge_floor, .. }) = *dump.borrow() else {
        panic!("the dump did not complete: {:?}", dump.borrow());
    };
    let tk = trail_key(n, 0);
    {
        let trail = app.world.stable_mut().get_mut::<TrailMedia>(&tk).unwrap();
        let before = trail.len();
        let dropped = trail.purge_below(purge_floor);
        assert!(
            dropped >= 1,
            "no whole trail file lay below seq {purge_floor}"
        );
        assert!(trail.len() < before);
    }

    // crash + recover from generation 2: still exact
    app.world.inject(Fault::KillCpu(n, CpuId(2)));
    app.world.inject(Fault::KillCpu(n, CpuId(3)));
    app.world.run_for(SimDuration::from_millis(100));
    {
        let media = app
            .world
            .stable_mut()
            .get_mut::<VolumeMedia>(&media_key(n, "$BANK"))
            .unwrap();
        media.fail_drive(0);
        media.fail_drive(1);
        media.revive_drive(0);
        media.revive_drive(1);
    }
    let _ = rollforward_volume(&mut app.world, &VolumeRef::new(n, "$BANK"), &tk, 2);
    let post_total = total_balance(&mut app.world, &app.catalog, "accounts");
    assert_eq!(post_total, pre_total, "recovery exact despite the purge");
}

/// The TMF utility: query a completed transaction's disposition.
#[test]
fn disposition_query_after_completion() {
    use encompass_tmf::tmf::tmp::{TmpMsg, TmpReply};
    use encompass_tmf::tmf::TxState;

    let mut catalog = Catalog::new();
    catalog.add(FileDef::key_sequenced(
        "f0",
        VolumeRef::new(NodeId(0), "$D0"),
    ));
    let mut app = AppBuilder::new().node(4).build(catalog);
    let n0 = app.nodes[0];
    let log = drive(
        &mut app.world,
        n0,
        0,
        app.catalog.clone(),
        vec![
            Step::Begin,
            Step::Insert("f0".into(), b("k"), b("v")),
            Step::End,
        ],
    );
    app.world.run_for(SimDuration::from_secs(5));
    assert_eq!(log.borrow().last().unwrap(), "committed");

    let transid = encompass_tmf::tmf::Transid {
        home_node: n0,
        cpu: 0,
        seq: 1,
    };
    let got = guardian::ask::<TmpMsg, TmpReply>(
        &mut app.world,
        n0,
        1,
        60,
        Target::new(n0, "$TMP".into()),
        TmpMsg::QueryDisposition { transid },
    );
    app.world.run_for(SimDuration::from_secs(2));
    assert_eq!(
        *got.borrow(),
        Some(TmpReply::Disposition {
            state: Some(TxState::Ended)
        }),
        "the utility reports the committed disposition from the monitor trail"
    );
}

/// The whole stack still behaves with randomized message jitter — no code
/// path silently depends on exact message ordering beyond what the
/// protocols guarantee.
#[test]
fn bank_workload_correct_under_message_jitter() {
    // every message delivery gets up to 200us of random (seeded) jitter,
    // plus a CPU failure/reload mid-run — ordering assumptions beyond the
    // protocols' own guarantees would break here
    let accounts = 150u64;
    let mut sim = SimConfig::with_seed(99);
    sim.jitter = SimDuration::from_micros(200);
    let mut app = launch_bank_app(BankAppParams {
        accounts,
        terminals_per_node: 4,
        transactions_per_terminal: 10,
        think: SimDuration::from_millis(2),
        sim,
        ..BankAppParams::default()
    });
    let n = app.nodes[0];
    app.world
        .schedule_fault(SimTime::from_micros(333_333), Fault::KillCpu(n, CpuId(1)));
    app.world.schedule_fault(
        SimTime::from_micros(777_777),
        Fault::RestoreCpu(n, CpuId(1)),
    );
    app.world.run_for(SimDuration::from_secs(240));
    assert_eq!(app.world.metrics().get("tcp.terminals_finished"), 4);
    let final_total = total_balance(&mut app.world, &app.catalog, "accounts");
    assert!(final_total < accounts as i64 * 1000);
}

/// Under delivery jitter a read-only END's `Ended` broadcast overtakes its
/// `Ending` about half the time. Once the terminals are done, every
/// per-CPU transaction table holds only transids the TMP still holds: a
/// late `Ending` does not re-insert a transid that has left the system.
#[test]
fn reordered_broadcasts_leave_only_live_transids_in_the_tables() {
    let mut sim = SimConfig::with_seed(7);
    sim.jitter = SimDuration::from_micros(50);
    let mut app = launch_bank_app(BankAppParams {
        accounts: 100,
        terminals_per_node: 2,
        transactions_per_terminal: 10,
        readonly_terminals_per_node: 4,
        readonly_transactions_per_terminal: Some(50),
        think: SimDuration::from_micros(500),
        sim,
        ..BankAppParams::default()
    });
    let n = app.nodes[0];
    app.world.run_for(SimDuration::from_secs(60));
    let m = app.world.metrics();
    assert_eq!(m.get("tcp.terminals_finished"), 6);
    assert!(m.get("tcp.commits") >= 200, "the read-only ENDs ran");

    let tmp = guardian::primary::<TmpProcess>(&app.world, n, "$TMP").expect("a TMP primary");
    let live: Vec<_> = tmp.open_transids();
    for cpu in 0..app.world.cpu_count(n) {
        let pid = (app.world.lookup_name(n, &format!("$TXTABLE{cpu}"))).expect("a table per CPU");
        let table = app.world.inspect::<TxTableProcess>(pid).expect("a table");
        let stale: Vec<_> = table.transids().filter(|t| !live.contains(t)).collect();
        assert!(stale.is_empty(), "$TXTABLE{cpu} still holds {stale:?}");
    }
}

/// Checkpoints are a log. Under delivery jitter a later checkpoint often
/// overtakes an earlier one (a read-only END sends `Ending`, `Ended` and
/// the drop from one handler), and a backup that applied them as they
/// arrived re-inserted the dropped transid for good. Once the terminals
/// are done, every pair's backup reports the same state as its primary:
/// the TMP, every DISCPROCESS and the AUDITPROCESS.
///
/// The second input kills the CPU holding `$BANK`'s backup at 1 s and
/// restores it at 2 s. At this seed that CPU also holds the `$TMP`
/// primary, so the run takes one takeover and respawns two backups, and
/// the compared `$BANK` and `$TMP` backups were rebuilt from a snapshot.
#[test]
fn jittered_backups_end_in_their_primaries_state() {
    for kill_bank_backup in [false, true] {
        let mut sim = SimConfig::with_seed(3);
        sim.jitter = SimDuration::from_micros(50);
        let mut app = launch_bank_app(BankAppParams {
            accounts: 100,
            terminals_per_node: 2,
            transactions_per_terminal: 20,
            readonly_terminals_per_node: 4,
            readonly_transactions_per_terminal: Some(100),
            think: SimDuration::from_micros(500),
            sim,
            ..BankAppParams::default()
        });
        if kill_bank_backup {
            let bank = (app.tmf[0].discs.iter())
                .find(|disc| disc.name == "$BANK")
                .expect("a $BANK volume");
            let (node, cpu) = (bank.node, bank.backup.cpu);
            assert_eq!(app.tmf[0].tmp.primary.cpu, cpu, "$TMP's primary shares it");
            let at = |s| SimTime::ZERO + SimDuration::from_secs(s);
            app.world.schedule_fault(at(1), Fault::KillCpu(node, cpu));
            app.world
                .schedule_fault(at(2), Fault::RestoreCpu(node, cpu));
        }
        app.world.run_for(SimDuration::from_secs(60));
        let m = app.world.metrics();
        assert_eq!(m.get("tcp.terminals_finished"), 6);
        assert!(
            m.get("pair.checkpoints") >= 1_000,
            "enough checkpoints for jitter to reorder some"
        );
        let faults = (m.get("pair.takeovers"), m.get("pair.backup_respawned"));
        let expected = if kill_bank_backup { (1, 2) } else { (0, 0) };
        assert_eq!(faults, expected, "(takeovers, respawned backups)");

        fn same<A: guardian::PairApp, R: PartialEq + std::fmt::Debug>(
            world: &encompass_tmf::sim::World,
            pair: &guardian::PairHandle,
            report: impl Fn(&A) -> R,
        ) {
            let primary = guardian::primary::<A>(world, pair.node, &pair.name).expect("a primary");
            let backup = guardian::backup::<A>(world, pair).expect("a backup");
            assert_eq!(
                report(backup),
                report(primary),
                "{}'s backup against its primary",
                pair.name
            );
        }
        // a backup remembers only the answers its primary checkpointed, so
        // the reply caches are not compared
        let node = &app.tmf[0];
        same(&app.world, &node.tmp, |tmp: &TmpProcess| TmpStateReport {
            reply_cache: 0,
            ..tmp.state_report()
        });
        same(&app.world, &node.audit, |audit: &AuditProcess| {
            AuditStateReport {
                reply_cache: 0,
                ..audit.state_report()
            }
        });
        for disc in &node.discs {
            same(&app.world, disc, |disc: &DiscProcess| DiscStateReport {
                reply_cache: 0,
                ..disc.state_report()
            });
        }
    }
}
