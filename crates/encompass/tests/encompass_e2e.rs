//! Full-stack ENCOMPASS tests: terminals → TCP → server classes → TMF →
//! DISCPROCESSes, with failures injected, plus the manufacturing
//! application's replica-convergence behaviour.

use bytes::Bytes;
use encompass::app::{
    launch_bank_app, launch_mfg_app, read_replica, AppHandles, BankAppParams, MfgAppParams,
};
use encompass::appmon::{server_class_service, ServerClassQueue};
use encompass::manufacturing::{global_record, master_of};
use encompass::messages::{AppReply, AppRequest, ServerRequest};
use encompass::workload::{history_records, total_balance, BANK_CLASS};
use encompass_shard::SuspenseRecord;
use encompass_sim::{CpuId, Ctx, Fault, NodeId, Payload, Pid, Process, SimDuration, TimerId};
use encompass_storage::discprocess::DiscProcess;
use encompass_storage::types::RecoveryMode;
use guardian::{Rpc, Target, TimerOutcome};
use std::cell::RefCell;
use std::rc::Rc;
use tmf::facility::TmfNodeConfig;
use tmf::session::SessionOptions;
use tmf::tmp::{TmpProcess, TMP_SERVICE};

#[test]
fn bank_app_runs_all_transactions_and_conserves_money() {
    for mode in [RecoveryMode::NonStopCheckpoint, RecoveryMode::WalForce] {
        let params = BankAppParams {
            accounts: 200,
            terminals_per_node: 4,
            transactions_per_terminal: 10,
            tmf: TmfNodeConfig::builder()
                .recovery_mode(mode)
                .build()
                .expect("a recovery mode alone is a valid config"),
            ..BankAppParams::default()
        };
        let mut app = launch_bank_app(params);
        app.world.run_for(SimDuration::from_secs(60));
        let commits = app.world.metrics().get("tcp.commits");
        let finished = app.world.metrics().get("tcp.terminals_finished");
        assert_eq!(finished, 4, "{mode:?}: all terminals finished");
        assert_eq!(commits, 40, "{mode:?}: 4 terminals x 10 transactions");
        // one node and no fault: every call is answered on its first copy
        assert_eq!(
            app.world.metrics().get("rpc.retransmits"),
            0,
            "{mode:?}: nothing within a node is resent"
        );
        // run until the last flush, then check conservation: every
        // commit left one history record, and the records' amounts are
        // exactly what left the accounts
        app.world.run_until_quiescent();
        let history = history_records(&app.world, &app.catalog, "history");
        assert_eq!(history.len(), 40, "{mode:?}: one history record per commit");
        let debited: i64 = (history.iter())
            .map(|r| r.as_ref().expect("a history record parses").1)
            .sum();
        let total = total_balance(&mut app.world, &app.catalog, "accounts");
        assert_eq!(200 * 1000 - debited, total, "{mode:?}: money is conserved");
    }
}

#[test]
fn bank_app_survives_cpu_failure_mid_run() {
    let params = BankAppParams {
        accounts: 100,
        terminals_per_node: 4,
        transactions_per_terminal: 15,
        node_cpus: vec![4],
        ..BankAppParams::default()
    };
    let mut app = launch_bank_app(params);
    let n = app.nodes[0];
    app.world.run_for(SimDuration::from_secs(1));
    // kill a CPU mid-run: some servers/pairs die; service continues
    app.world.inject(Fault::KillCpu(n, CpuId(2)));
    app.world.run_for(SimDuration::from_secs(120));
    let finished = app.world.metrics().get("tcp.terminals_finished");
    assert_eq!(finished, 4, "all terminals eventually finished");
    let commits = app.world.metrics().get("tcp.commits");
    assert_eq!(commits, 60, "every transaction eventually committed");
}

/// Run `app` until its `terminals` finish, then until no event is left,
/// and check that it left nothing behind: no timer (a background clock
/// runs only while it has work, DESIGN.md §D31), no dirty record in any
/// volume's overlay, no entry in any TMP's table, and each server class
/// back at `servers_min`. Primaries and backups alike.
fn finish_and_fall_silent(app: &mut AppHandles, terminals: u64, servers_min: usize, what: &str) {
    for _ in 0..24 {
        if app.world.metrics().get("tcp.terminals_finished") == terminals {
            break;
        }
        app.world.run_for(SimDuration::from_secs(10));
    }
    let finished = app.world.metrics().get("tcp.terminals_finished");
    assert_eq!(finished, terminals, "{what}: all terminals finished");
    // the last flush and the last shrink are due within one shrink interval
    app.world.run_for(SimDuration::from_secs(10));
    let w = &app.world;
    let armed: Vec<_> = (w.armed_timers())
        .map(|(pid, tag)| (pid, w.process_kind(pid), tag))
        .collect();
    assert!(
        armed.is_empty(),
        "{what}: idle processes hold timers {armed:?}"
    );
    let events = app.world.events_processed();
    app.world.run_until_quiescent();
    let w = &app.world;
    assert_eq!(
        w.events_processed(),
        events,
        "{what}: an idle world holds no event"
    );
    for node in &app.tmf {
        for disc in &node.discs {
            let primary = guardian::primary::<DiscProcess>(w, disc.node, &disc.name);
            let backup = guardian::backup::<DiscProcess>(w, disc);
            for (half, disc) in [("primary", primary), ("backup", backup)] {
                let disc = disc.unwrap_or_else(|| panic!("{what}: {} has a {half}", node.node));
                assert_eq!(disc.state_report().overlay, 0, "{what}: {half} overlay");
            }
        }
        let primary = guardian::primary::<TmpProcess>(w, node.node, &TMP_SERVICE);
        let backup = guardian::backup::<TmpProcess>(w, &node.tmp);
        for (half, tmp) in [("primary", primary), ("backup", backup)] {
            let tmp = tmp.unwrap_or_else(|| panic!("{what}: {} has a $TMP {half}", node.node));
            assert_eq!(tmp.open_transids(), vec![], "{what}: $TMP {half} table");
        }
        let class = server_class_service(BANK_CLASS);
        let queue = guardian::primary::<ServerClassQueue>(w, node.node, &class)
            .unwrap_or_else(|| panic!("{what}: {} has a live {class}", node.node));
        assert_eq!(queue.server_count(), servers_min, "{what}: {class} servers");
    }
}

/// A finished bank world, of one node and of two, holds no event: fault
/// free, and after the processor of the `$BANK` DISCPROCESS's primary, or
/// of the `$TMP`'s, failed mid-run and was reloaded. Eight terminals with
/// no think time keep a backlog, so each class grows past one server and
/// must shrink back.
#[test]
fn a_finished_bank_world_holds_no_event() {
    for nodes in [1, 2] {
        for outage in [None, Some("$BANK"), Some(TMP_SERVICE.as_str())] {
            let params = BankAppParams {
                node_cpus: vec![4; nodes],
                accounts: 200,
                terminals_per_node: 8,
                transactions_per_terminal: 8,
                think: SimDuration::from_micros(10),
                servers_min: 1,
                ..BankAppParams::default()
            };
            let servers_min = params.servers_min;
            let mut app = launch_bank_app(params);
            let what = format!("{nodes} node(s), outage of {outage:?}");
            if let Some(service) = outage {
                let n = app.nodes[0];
                app.world.run_for(SimDuration::from_millis(300));
                let cpu = app.world.lookup_name(n, service).expect("a primary").cpu;
                app.world.inject(Fault::KillCpu(n, cpu));
                app.world.run_for(SimDuration::from_millis(500));
                app.world.inject(Fault::RestoreCpu(n, cpu));
                assert!(app.world.metrics().get("pair.takeovers") > 0, "{what}");
            }
            let terminals = 8 * nodes as u64;
            finish_and_fall_silent(&mut app, terminals, servers_min, &what);
            assert!(
                app.world.metrics().get("appmon.servers_deleted") > 0,
                "{what}"
            );
        }
    }
}

/// An account may live on the other node. A request to its volume made
/// while a partition leaves no route there (a query's snapshot read, or a
/// debit's update once its locked read got through) is refused by the
/// server's session at once. That is a transient, like the same failure
/// arriving later, so the terminal restarts the transaction; it is not a
/// server-logic error, which the bank program answers with a voluntary
/// abort that drops the terminal's input.
#[test]
fn a_remote_op_refused_in_a_partition_restarts_the_transaction() {
    let params = BankAppParams {
        node_cpus: vec![4, 4],
        accounts: 200,
        terminals_per_node: 2,
        readonly_terminals_per_node: 2,
        transactions_per_terminal: 40,
        think: SimDuration::from_millis(1),
        ..BankAppParams::default()
    };
    let mut app = launch_bank_app(params);
    let n1 = app.nodes[1];
    for _ in 0..4 {
        app.world.run_for(SimDuration::from_millis(150));
        app.world.inject(Fault::Partition(vec![n1]));
        app.world.run_for(SimDuration::from_millis(50));
        app.world.inject(Fault::HealAllLinks);
    }
    app.world.run_for(SimDuration::from_secs(120));
    let m = app.world.metrics();
    assert_eq!(
        m.get("tcp.terminals_finished"),
        8,
        "every terminal finished"
    );
    assert!(
        m.get("tmf.session_failures") > 0,
        "the partitions refused requests"
    );
    assert!(m.get("tcp.restarts") > 0, "and restarted transactions");
    assert_eq!(
        m.get("server.readonly_violations"),
        0,
        "no refusal is a logic error"
    );
    assert_eq!(
        m.get("tcp.voluntary_aborts"),
        0,
        "no terminal dropped its input"
    );
    assert_eq!(m.get("tcp.commits"), 8 * 40, "every transaction committed");
}

#[test]
fn bank_contention_causes_restarts_not_wrong_results() {
    let params = BankAppParams {
        accounts: 50,
        hot_fraction: 0.9,
        hot_set: 2,
        terminals_per_node: 6,
        transactions_per_terminal: 8,
        think: SimDuration::from_micros(100),
        ..BankAppParams::default()
    };
    let mut app = launch_bank_app(params);
    app.world.run_for(SimDuration::from_secs(120));
    assert_eq!(app.world.metrics().get("tcp.terminals_finished"), 6);
    // under 90% traffic to 2 records, lock waits must have occurred
    assert!(
        app.world.metrics().get("disc.lock_waits") > 0,
        "contention produced lock waits"
    );
}

/// Drives one request against a server class and records the reply.
struct OneShot {
    node: NodeId,
    class: String,
    request: AppRequest,
    rpc: Rpc<ServerRequest, AppReply>,
    session: tmf::session::TmfSession,
    state: u8,
    result: Rc<RefCell<Option<bool>>>,
}

impl OneShot {
    fn new(
        catalog: encompass_storage::Catalog,
        node: NodeId,
        class: &str,
        request: AppRequest,
        result: Rc<RefCell<Option<bool>>>,
    ) -> OneShot {
        OneShot {
            node,
            class: class.to_string(),
            request,
            rpc: Rpc::new(40, SimDuration::from_secs(3)),
            session: tmf::session::TmfSession::new(catalog, 5),
            state: 0,
            result,
        }
    }
}

impl Process for OneShot {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.subscribe_system();
        self.state = 1;
        self.session.begin(ctx, SessionOptions::default());
    }
    fn on_system(&mut self, ctx: &mut Ctx<'_>, ev: encompass_sim::SystemEvent) {
        self.session.on_system(ctx, ev);
        self.rpc.on_system(ctx, ev);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        let payload = match self.session.accept(ctx, payload) {
            Ok(Some(ev)) => {
                use tmf::session::SessionEvent;
                match (self.state, ev) {
                    (1, SessionEvent::Began { .. }) => {
                        self.state = 2;
                        let env = ServerRequest {
                            transid: self.session.transid(),
                            options: self.session.options(),
                            request: self.request.clone(),
                        };
                        let _ = self.rpc.call(
                            ctx,
                            Target::new(
                                self.node,
                                encompass::appmon::server_class_service(&self.class),
                            ),
                            env,
                            0,
                            (),
                        );
                    }
                    (3, SessionEvent::Committed) => {
                        *self.result.borrow_mut() = Some(true);
                    }
                    (_, SessionEvent::Aborted) | (_, SessionEvent::Failed { .. }) => {
                        *self.result.borrow_mut() = Some(false);
                    }
                    _ => {}
                }
                return;
            }
            Ok(None) => return,
            Err(p) => p,
        };
        if let Ok(c) = self.rpc.accept(ctx, payload) {
            if self.state == 2 {
                if c.body.ok {
                    self.state = 3;
                    self.session.end(ctx);
                } else {
                    self.state = 4;
                    self.session.abort(ctx, tmf::state::AbortReason::Voluntary);
                }
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        if let Some(ev) = self.session.on_timer(ctx, tag) {
            use tmf::session::SessionEvent;
            if matches!(ev, SessionEvent::Failed { .. } | SessionEvent::Aborted) {
                *self.result.borrow_mut() = Some(false);
            }
            return;
        }
        if let TimerOutcome::Expired { .. } = self.rpc.on_timer(ctx, tag) {
            if self.session.transid().is_some() && !self.session.busy() {
                self.state = 4;
                self.session
                    .abort(ctx, tmf::state::AbortReason::NetworkPartition);
            }
        }
    }
}

fn master_update_request(file: &str, key: &str, payload: &str) -> AppRequest {
    AppRequest::new(
        "master-update",
        vec![
            Bytes::copy_from_slice(file.as_bytes()),
            Bytes::copy_from_slice(key.as_bytes()),
            Bytes::copy_from_slice(payload.as_bytes()),
        ],
    )
}

#[test]
fn manufacturing_replicas_converge_via_suspense_files() {
    let mut app = launch_mfg_app(MfgAppParams::default());
    let n0 = app.nodes[0];
    // update item "widget" at its master (node 0)
    let result = Rc::new(RefCell::new(None));
    app.world.spawn(
        n0,
        2,
        Box::new(OneShot::new(
            app.catalog.clone(),
            n0,
            "mfg",
            master_update_request("item", "widget", "rev-1"),
            result.clone(),
        )),
    );
    app.world.run_for(SimDuration::from_secs(10));
    assert_eq!(*result.borrow(), Some(true), "master update committed");
    // give the suspense monitors time to drain, then flushes
    app.world.run_for(SimDuration::from_secs(30));
    let expected = global_record(n0, b"rev-1");
    for &n in &app.nodes {
        assert_eq!(
            read_replica(&mut app.world, n, "item", b"widget"),
            Some(expected.clone()),
            "replica on {n} converged"
        );
    }
    assert!(app.world.metrics().get("suspense.applied") >= 3);
    // regression: the apply transactions must have included the remote
    // node in the commit protocol — a second update of the SAME key would
    // otherwise deadlock on replica locks the first one leaked
    let result2 = Rc::new(RefCell::new(None));
    app.world.spawn(
        n0,
        3,
        Box::new(OneShot::new(
            app.catalog.clone(),
            n0,
            "mfg",
            master_update_request("item", "widget", "rev-2"),
            result2.clone(),
        )),
    );
    app.world.run_for(SimDuration::from_secs(40));
    assert_eq!(
        *result2.borrow(),
        Some(true),
        "second update of the same key"
    );
    let expected2 = global_record(n0, b"rev-2");
    for &n in &app.nodes {
        assert_eq!(
            read_replica(&mut app.world, n, "item", b"widget"),
            Some(expected2.clone()),
            "replica on {n} re-converged (no leaked locks)"
        );
    }
    assert_eq!(
        app.world.metrics().get("suspense.retries"),
        0,
        "no apply transaction was ever aborted"
    );
}

#[test]
fn manufacturing_partition_defers_then_converges() {
    let mut app = launch_mfg_app(MfgAppParams::default());
    let n0 = app.nodes[0];
    let n3 = app.nodes[3];
    // cut node 3 off, then update at master node 0 — node autonomy says
    // this must still commit
    app.world.inject(Fault::Partition(vec![n3]));
    let result = Rc::new(RefCell::new(None));
    app.world.spawn(
        n0,
        2,
        Box::new(OneShot::new(
            app.catalog.clone(),
            n0,
            "mfg",
            master_update_request("item", "gadget", "rev-7"),
            result.clone(),
        )),
    );
    app.world.run_for(SimDuration::from_secs(10));
    assert_eq!(
        *result.borrow(),
        Some(true),
        "global update committed despite node 3 being unavailable"
    );
    app.world.run_for(SimDuration::from_secs(20));
    let expected = global_record(n0, b"rev-7");
    // reachable replicas converged, node 3 did not
    assert_eq!(
        read_replica(&mut app.world, app.nodes[1], "item", b"gadget"),
        Some(expected.clone())
    );
    assert_eq!(read_replica(&mut app.world, n3, "item", b"gadget"), None);
    // heal: the deferred update drains in suspense order
    app.world.inject(Fault::HealAllLinks);
    app.world.run_for(SimDuration::from_secs(30));
    assert_eq!(
        read_replica(&mut app.world, n3, "item", b"gadget"),
        Some(expected),
        "node 3 converged after the heal"
    );
}

#[test]
fn manufacturing_sync_design_blocks_during_outage() {
    let mut app = launch_mfg_app(MfgAppParams::default());
    let n0 = app.nodes[0];
    let n3 = app.nodes[3];
    app.world.inject(Fault::Partition(vec![n3]));
    let result = Rc::new(RefCell::new(None));
    app.world.spawn(
        n0,
        2,
        Box::new(OneShot::new(
            app.catalog.clone(),
            n0,
            "mfg",
            AppRequest::new(
                "sync-update",
                vec![
                    Bytes::from_static(b"item"),
                    Bytes::from_static(b"blocked"),
                    Bytes::from_static(b"v"),
                ],
            ),
            result.clone(),
        )),
    );
    app.world.run_for(SimDuration::from_secs(30));
    assert_eq!(
        *result.borrow(),
        Some(false),
        "the synchronous design cannot update global data while any node is down"
    );
    // and nothing leaked: the failed update is not visible anywhere
    app.world.run_for(SimDuration::from_secs(10));
    assert_eq!(read_replica(&mut app.world, n0, "item", b"blocked"), None);
}

#[test]
fn suspense_records_roundtrip_through_the_file() {
    // encoding sanity at the API boundary (deeper coverage in unit tests)
    let d = SuspenseRecord {
        transid: encompass_storage::types::Transid {
            home_node: NodeId(1),
            cpu: 0,
            seq: 7,
        },
        dest: NodeId(2),
        file: "bom".into(),
        key: Bytes::from_static(b"assembly-9"),
        value: global_record(NodeId(1), b"x"),
    };
    let enc = d.encode();
    assert_eq!(SuspenseRecord::decode(&enc).unwrap(), d);
    assert_eq!(master_of(&d.value), Some(NodeId(1)));
}

#[test]
fn dynamic_server_creation_under_load() {
    let params = BankAppParams {
        accounts: 500,
        terminals_per_node: 16,
        transactions_per_terminal: 10,
        think: SimDuration::from_micros(10),
        servers_min: 1,
        servers_max: 8,
        ..BankAppParams::default()
    };
    let mut app = launch_bank_app(params);
    app.world.run_for(SimDuration::from_secs(60));
    assert!(
        app.world.metrics().get("appmon.servers_spawned") > 1,
        "backlog pressure spawned extra servers: {}",
        app.world.metrics().get("appmon.servers_spawned")
    );
    assert_eq!(app.world.metrics().get("tcp.terminals_finished"), 16);
}
