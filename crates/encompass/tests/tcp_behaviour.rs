//! Focused TCP behaviour tests: scripted programs through the real TCP
//! pair — voluntary abort, the restart limit, SEND to an unknown class,
//! and TCP takeover resuming checkpointed progress with no call left
//! behind.

use bytes::Bytes;
use encompass::appmon::{spawn_server_class, ServerClassConfig};
use encompass::messages::AppRequest;
use encompass::screen::{ScreenAction, ScreenProgram, ScriptProgram};
use encompass::tcp::spawn_tcp;
use encompass::workload::BankServer;
use encompass_sim::{CpuId, Fault, NodeId, SimConfig, SimDuration, World};
use encompass_storage::media::{media_key, VolumeMedia};
use encompass_storage::types::{FileDef, VolumeRef};
use encompass_storage::Catalog;
use guardian::RPC_TAG_BASE;
use tmf::facility::{spawn_tmf_network, TmfNodeConfig};

fn setup() -> (World, NodeId, Catalog) {
    let mut w = World::new(SimConfig::default());
    let n = w.add_node(4);
    let mut catalog = Catalog::new();
    catalog.add(FileDef::key_sequenced(
        "accounts",
        VolumeRef::new(n, "$BANK"),
    ));
    catalog.add(FileDef::entry_sequenced(
        "history",
        VolumeRef::new(n, "$BANK"),
    ));
    spawn_tmf_network(&mut w, &catalog, TmfNodeConfig::default());
    spawn_server_class(
        &mut w,
        n,
        0,
        ServerClassConfig {
            class: "bank".into(),
            min_servers: 2,
            ..ServerClassConfig::default()
        },
        catalog.clone(),
        || Box::new(BankServer::new(None)),
    );
    // seed one account directly on the media
    {
        let media = w
            .stable_mut()
            .get_mut::<VolumeMedia>(&media_key(n, "$BANK"))
            .unwrap();
        media
            .ensure_file(
                "accounts",
                encompass_storage::types::FileOrganization::KeySequenced,
            )
            .apply(b"acct00000000", Some(Bytes::from_static(b"1000")));
    }
    (w, n, catalog)
}

fn debit_send() -> ScreenAction {
    ScreenAction::Send {
        node: None,
        class: "bank".into(),
        request: AppRequest::new(
            "debit",
            vec![
                Bytes::from_static(b"acct00000000"),
                Bytes::from_static(b"5"),
            ],
        ),
    }
}

#[test]
fn scripted_commit_and_voluntary_abort_through_the_tcp() {
    let (mut w, n, catalog) = setup();
    spawn_tcp(&mut w, n, 0, 1, "$TCP".into(), catalog, move || {
        vec![
            // terminal 0: begin → debit → commit
            Box::new(ScriptProgram::new(vec![
                ScreenAction::begin(),
                debit_send(),
                ScreenAction::End,
            ])) as Box<dyn ScreenProgram>,
            // terminal 1: begin → debit → ABORT-TRANSACTION
            Box::new(ScriptProgram::new(vec![
                ScreenAction::begin(),
                debit_send(),
                ScreenAction::Abort,
            ])) as Box<dyn ScreenProgram>,
        ]
    });
    w.run_for(SimDuration::from_secs(20));
    let m = w.metrics();
    assert_eq!(m.get("tcp.commits"), 1);
    assert_eq!(m.get("tcp.voluntary_aborts"), 1);
    assert_eq!(m.get("tcp.terminals_finished"), 2);
    // net effect on the account: exactly one committed debit of 5
    let media = w
        .stable()
        .get::<VolumeMedia>(&media_key(n, "$BANK"))
        .unwrap();
    let _ = media;
    // allow the flush to land
    w.run_for(SimDuration::from_secs(3));
    let media = w
        .stable()
        .get::<VolumeMedia>(&media_key(n, "$BANK"))
        .unwrap();
    assert_eq!(
        media.file("accounts").unwrap().read(b"acct00000000"),
        Some(Bytes::from_static(b"995"))
    );
}

#[test]
fn send_to_unknown_server_class_hits_the_restart_limit() {
    let (mut w, n, catalog) = setup();
    spawn_tcp(&mut w, n, 0, 1, "$TCP".into(), catalog, move || {
        vec![Box::new(ScriptProgram::new(vec![
            ScreenAction::begin(),
            ScreenAction::Send {
                node: None,
                class: "no-such-class".into(),
                request: AppRequest::new("x", vec![]),
            },
            ScreenAction::End,
        ])) as Box<dyn ScreenProgram>]
    });
    w.run_for(SimDuration::from_secs(30));
    let m = w.metrics();
    assert!(
        m.get("tcp.restart_limit_hit") >= 1,
        "the restart limit fired: restarts={} limit_hits={}",
        m.get("tcp.restarts"),
        m.get("tcp.restart_limit_hit")
    );
    assert_eq!(m.get("tcp.commits"), 0);
    // the ScriptProgram's restart rewinds to Begin; past the limit it is
    // delivered Aborted and (script exhausted) finishes
    assert_eq!(m.get("tcp.terminals_finished"), 1);
}

/// One terminal whose TCP primary dies while its transaction is open.
fn takeover_with_open_transaction() -> (World, NodeId) {
    let (mut w, n, catalog) = setup();
    spawn_tcp(
        &mut w,
        n,
        2, // primary on cpu2 so we can kill it without killing the queue
        3,
        "$TCP".into(),
        catalog,
        move || {
            vec![Box::new(ScriptProgram::new(vec![
                ScreenAction::begin(),
                debit_send(),
                // a long think inside the transaction: the kill lands here
                ScreenAction::Think(SimDuration::from_secs(2)),
                ScreenAction::End,
            ])) as Box<dyn ScreenProgram>]
        },
    );
    w.run_for(SimDuration::from_millis(500));
    w.inject(Fault::KillCpu(n, CpuId(2)));
    w.run_for(SimDuration::from_secs(30));
    (w, n)
}

#[test]
fn tcp_takeover_aborts_open_transaction_and_finishes_script() {
    let (w, _) = takeover_with_open_transaction();
    let m = w.metrics();
    assert!(m.get("tcp.takeovers") >= 1);
    // the open transaction was aborted by the backup and the program
    // restarted at BEGIN; the script then commits
    assert_eq!(m.get("tcp.commits"), 1, "restarted and committed");
    assert_eq!(m.get("tcp.terminals_finished"), 1);
    assert!(
        m.get("tmf.aborts") >= 1,
        "the takeover aborted the open txn"
    );
}

/// The abort the backup sends for the open transaction is answered, and
/// its answer ends the call: once the script is done, the TCP has no call
/// left to retry.
#[test]
fn tcp_takeover_leaves_no_outstanding_call() {
    let (w, n) = takeover_with_open_transaction();
    assert_eq!(w.metrics().get("tcp.terminals_finished"), 1);
    let tcp = w.lookup_name(n, "$TCP").expect("the backup took over");
    let calls: Vec<u64> = (w.armed_timers())
        .filter(|&(owner, tag)| owner == tcp && tag >= RPC_TAG_BASE)
        .map(|(_, tag)| tag - RPC_TAG_BASE)
        .collect();
    assert!(calls.is_empty(), "the TCP still retries calls {calls:x?}");
}

/// The balance of the one account, once the commit's writes are flushed.
fn balance(w: &mut World, n: NodeId) -> Bytes {
    w.run_for(SimDuration::from_secs(3));
    let media = w
        .stable()
        .get::<VolumeMedia>(&media_key(n, "$BANK"))
        .unwrap();
    media
        .file("accounts")
        .unwrap()
        .read(b"acct00000000")
        .unwrap()
}

/// A TCP pair (primary on cpu2, backup on cpu3) whose one terminal
/// debits 5 inside a transaction, thinks for `think`, then ENDs.
fn debit_then_end(think: SimDuration) -> (World, NodeId) {
    let (mut w, n, catalog) = setup();
    spawn_tcp(&mut w, n, 2, 3, "$TCP".into(), catalog, move || {
        vec![Box::new(ScriptProgram::new(vec![
            ScreenAction::begin(),
            debit_send(),
            ScreenAction::Think(think),
            ScreenAction::End,
        ])) as Box<dyn ScreenProgram>]
    });
    (w, n)
}

/// Run until the TMP has committed the terminal's transaction, then kill
/// the TCP primary's processor before the TCP hears of the commit, and
/// run the script out.
fn kill_tcp_primary_inside_commit(w: &mut World, n: NodeId) {
    while w.metrics().get("tmf.commits") == 0 {
        assert!(w.step(), "the world ran dry before the commit");
    }
    assert_eq!(w.metrics().get("tcp.commits"), 0, "the TCP heard too soon");
    w.inject(Fault::KillCpu(n, CpuId(2)));
    w.run_for(SimDuration::from_secs(30));
}

/// The TCP primary dies after the TMP commits the terminal's transaction
/// and before the TCP hears so. The backup learns the commit from the TMP
/// and moves the script past it: the debit is not run a second time.
#[test]
fn tcp_takeover_inside_the_commit_does_not_rerun_the_transaction() {
    let (mut w, n) = debit_then_end(SimDuration::ZERO);
    kill_tcp_primary_inside_commit(&mut w, n);
    let m = w.metrics();
    assert_eq!(m.get("tcp.takeovers"), 1);
    assert_eq!(m.get("tmf.commits"), 1, "committed once");
    assert_eq!(m.get("tcp.commits"), 1, "and counted once");
    assert_eq!(m.get("tcp.terminals_finished"), 1);
    assert_eq!(balance(&mut w, n), Bytes::from_static(b"995"));
}

/// The same, when the backup was rebuilt from its primary's snapshot
/// while the transaction was open: the snapshot carries the open transid.
#[test]
fn a_backup_rebuilt_by_snapshot_learns_the_open_transaction() {
    let (mut w, n) = debit_then_end(SimDuration::from_secs(2));
    w.run_for(SimDuration::from_millis(500));
    w.inject(Fault::KillCpu(n, CpuId(3)));
    w.run_for(SimDuration::from_millis(100));
    w.inject(Fault::RestoreCpu(n, CpuId(3)));
    w.run_for(SimDuration::from_millis(500));
    assert!(
        w.metrics().get("pair.backup_respawned") >= 1,
        "the backup was rebuilt"
    );
    kill_tcp_primary_inside_commit(&mut w, n);
    let m = w.metrics();
    assert_eq!(m.get("tcp.takeovers"), 1);
    assert_eq!(m.get("tmf.commits"), 1, "committed once");
    assert_eq!(m.get("tcp.commits"), 1, "and counted once");
    assert_eq!(balance(&mut w, n), Bytes::from_static(b"995"));
}
