//! Focused TCP behaviour tests: scripted programs through the real TCP
//! pair — voluntary abort, the restart limit, SEND to an unknown class,
//! and TCP takeover resuming checkpointed progress.

use bytes::Bytes;
use encompass::appmon::{spawn_server_class, ServerClassConfig};
use encompass::messages::AppRequest;
use encompass::screen::{ScreenAction, ScreenProgram, ScriptProgram};
use encompass::tcp::{spawn_tcp, TcpConfig};
use encompass::workload::BankServer;
use encompass_sim::{CpuId, Fault, NodeId, SimConfig, SimDuration, World};
use encompass_storage::media::{media_key, VolumeMedia};
use encompass_storage::types::{FileDef, VolumeRef};
use encompass_storage::Catalog;
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
            server_cpus: vec![0, 1, 2, 3],
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
    spawn_tcp(&mut w, n, 0, 1, TcpConfig::default(), catalog, move || {
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
    spawn_tcp(
        &mut w,
        n,
        0,
        1,
        TcpConfig {
            restart_limit: 2,
            ..TcpConfig::default()
        },
        catalog,
        move || {
            vec![Box::new(ScriptProgram::new(vec![
                ScreenAction::begin(),
                ScreenAction::Send {
                    node: None,
                    class: "no-such-class".into(),
                    request: AppRequest::new("x", vec![]),
                },
                ScreenAction::End,
            ])) as Box<dyn ScreenProgram>]
        },
    );
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

#[test]
fn tcp_takeover_aborts_open_transaction_and_finishes_script() {
    let (mut w, n, catalog) = setup();
    spawn_tcp(
        &mut w,
        n,
        2, // primary on cpu2 so we can kill it without killing the queue
        3,
        TcpConfig::default(),
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
