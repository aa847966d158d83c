//! End-to-end TMF tests: full nodes (TMP + AUDITPROCESS + BACKOUTPROCESS +
//! DISCPROCESSes + transaction tables) driven by scripted transaction
//! programs, with faults injected at every interesting protocol point.

#![allow(
    clippy::wildcard_enum_match_arm,
    reason = "a test names the one variant it expects; any other is the failure it reports"
)]

use bytes::Bytes;
use encompass_audit::monitor::MonitorTrail;
use encompass_sim::{
    CpuId, Ctx, Fault, NodeId, Payload, Pid, Process, SimConfig, SimDuration, SimTime, TimerId,
    World,
};
use encompass_storage::discprocess::{DiscError, DiscReply};
use encompass_storage::types::{FileDef, PartitionSpec, Transid, VolumeRef};
use encompass_storage::Catalog;
use guardian::{Rpc, Target, TimerOutcome};
use std::cell::RefCell;
use std::rc::Rc;
use tmf::facility::{spawn_tmf_network, TmfNodeConfig};
use tmf::script::{Log, Step, TxnScript};
use tmf::session::{SessionEvent, SessionOptions, TmfSession};
use tmf::state::{AbortReason, TxState};
use tmf::tmp::{TmpMsg, TmpProcess, TmpReply};

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

// `Step` constructors over string literals.
fn read(f: &str, k: &str) -> Step {
    Step::Read(f.into(), b(k))
}
fn read_lock(f: &str, k: &str) -> Step {
    Step::ReadLock(f.into(), b(k))
}
fn insert(f: &str, k: &str, v: &str) -> Step {
    Step::Insert(f.into(), b(k), b(v))
}
fn update(f: &str, k: &str, v: &str) -> Step {
    Step::Update(f.into(), b(k), b(v))
}
fn delete(f: &str, k: &str) -> Step {
    Step::Delete(f.into(), b(k))
}

/// A script's log with each `began:<transid>` entry shortened to `began`.
fn steps(log: &Log) -> Vec<String> {
    let began = |e: &String| {
        if e.starts_with("began:") {
            "began".into()
        } else {
            e.clone()
        }
    };
    log.borrow().iter().map(began).collect()
}

fn drive(world: &mut World, node: NodeId, cpu: u8, catalog: Catalog, script: Vec<Step>) -> Log {
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    world.spawn(
        node,
        cpu,
        Box::new(TxnScript::new(catalog, script, log.clone())),
    );
    log
}

/// Like [`drive`], with explicit [`SessionOptions`] (read-only tests).
fn drive_with(
    world: &mut World,
    node: NodeId,
    cpu: u8,
    catalog: Catalog,
    options: SessionOptions,
    script: Vec<Step>,
) -> Log {
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    world.spawn(
        node,
        cpu,
        Box::new(TxnScript::with_options(
            catalog,
            options,
            script,
            log.clone(),
        )),
    );
    log
}

/// Like [`drive`], but also returns a slot that receives the transid.
fn drive_capturing(
    world: &mut World,
    node: NodeId,
    cpu: u8,
    catalog: Catalog,
    script: Vec<Step>,
) -> (Log, Rc<RefCell<Option<Transid>>>) {
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    let slot = Rc::new(RefCell::new(None));
    let mut driver = TxnScript::new(catalog, script, log.clone());
    driver.transid_out = Some(slot.clone());
    world.spawn(node, cpu, Box::new(driver));
    (log, slot)
}

/// One-shot raw client: send `msg` to `node`'s `$TMP` and record the reply.
fn ask_tmp(world: &mut World, node: NodeId, cpu: u8, msg: TmpMsg) -> Rc<RefCell<Option<TmpReply>>> {
    struct TmpClient {
        node: NodeId,
        msg: Option<TmpMsg>,
        rpc: Rpc<TmpMsg, TmpReply>,
        out: Rc<RefCell<Option<TmpReply>>>,
    }
    impl Process for TmpClient {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.rpc.call_persistent(
                ctx,
                Target::Named(self.node, "$TMP".into()),
                self.msg.take().expect("one shot"),
                SimDuration::from_millis(100),
                (),
            );
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
            if let Ok(c) = self.rpc.accept(ctx, payload) {
                *self.out.borrow_mut() = Some(c.body);
                ctx.exit();
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
            if let TimerOutcome::Expired { .. } = self.rpc.on_timer(ctx, tag) {
                ctx.exit();
            }
        }
        fn kind(&self) -> &'static str {
            "tmp-client"
        }
    }
    let out = Rc::new(RefCell::new(None));
    world.spawn(
        node,
        cpu,
        Box::new(TmpClient {
            node,
            msg: Some(msg),
            rpc: Rpc::new(11),
            out: out.clone(),
        }),
    );
    out
}

/// One node, one volume, one audited file.
fn single_node() -> (World, NodeId, Catalog) {
    single_node_with(TmfNodeConfig::default())
}

/// Like [`single_node`], with an explicit TMF configuration.
fn single_node_with(cfg: TmfNodeConfig) -> (World, NodeId, Catalog) {
    let mut w = World::new(SimConfig::default());
    let n = w.add_node(4);
    let mut catalog = Catalog::new();
    catalog.add(FileDef::key_sequenced(
        "accounts",
        VolumeRef::new(n, "$DATA"),
    ));
    spawn_tmf_network(&mut w, &catalog, cfg);
    (w, n, catalog)
}

/// Three linked nodes; `accounts` partitioned across nodes 0 and 1, and a
/// `remote` file on node 2.
fn three_nodes() -> (World, [NodeId; 3], Catalog) {
    let mut w = World::new(SimConfig::default());
    let n0 = w.add_node(4);
    let n1 = w.add_node(4);
    let n2 = w.add_node(4);
    w.add_link(n0, n1, SimDuration::from_millis(2));
    w.add_link(n1, n2, SimDuration::from_millis(2));
    w.add_link(n0, n2, SimDuration::from_millis(5));
    let mut catalog = Catalog::new();
    catalog.add(
        FileDef::key_sequenced("accounts", VolumeRef::new(n0, "$D0")).partitioned(vec![
            PartitionSpec {
                low_key: Bytes::new(),
                volume: VolumeRef::new(n0, "$D0"),
            },
            PartitionSpec {
                low_key: b("m"),
                volume: VolumeRef::new(n1, "$D1"),
            },
        ]),
    );
    catalog.add(FileDef::key_sequenced("remote", VolumeRef::new(n2, "$D2")));
    spawn_tmf_network(&mut w, &catalog, TmfNodeConfig::default());
    (w, [n0, n1, n2], catalog)
}

#[test]
fn single_node_commit() {
    let (mut w, n, catalog) = single_node();
    let log = drive(
        &mut w,
        n,
        0,
        catalog,
        vec![
            Step::Begin,
            insert("accounts", "alice", "100"),
            update("accounts", "alice", "150"),
            Step::End,
            read("accounts", "alice"),
        ],
    );
    w.run_for(SimDuration::from_secs(5));
    assert_eq!(
        steps(&log),
        &["began", "ok", "ok", "committed", "value:150"]
    );
    assert_eq!(w.metrics().get("tmf.commits"), 1);
    // the commit record is on the monitor trail
    assert_eq!(MonitorTrail::of(w.stable_mut(), n).commits(), 1);
}

#[test]
fn voluntary_abort_backs_out_updates() {
    let (mut w, n, catalog) = single_node();
    // committed baseline
    let log1 = drive(
        &mut w,
        n,
        0,
        catalog.clone(),
        vec![Step::Begin, insert("accounts", "bob", "500"), Step::End],
    );
    w.run_for(SimDuration::from_secs(3));
    assert_eq!(log1.borrow().last().unwrap(), "committed");
    // update then ABORT-TRANSACTION
    let log2 = drive(
        &mut w,
        n,
        1,
        catalog.clone(),
        vec![
            Step::Begin,
            read_lock("accounts", "bob"),
            update("accounts", "bob", "0"),
            Step::Abort,
            read("accounts", "bob"),
        ],
    );
    w.run_for(SimDuration::from_secs(5));
    assert_eq!(
        steps(&log2),
        &["began", "value:500", "ok", "aborted", "value:500"],
        "backout restored the before-image"
    );
    assert_eq!(w.metrics().get("tmf.aborts"), 1);
    assert!(w.metrics().get("backout.completed") >= 1);
    assert_eq!(MonitorTrail::of(w.stable_mut(), n).aborts(), 1);
}

#[test]
fn distributed_commit_across_three_nodes() {
    let (mut w, [n0, _n1, _n2], catalog) = three_nodes();
    let log = drive(
        &mut w,
        n0,
        0,
        catalog,
        vec![
            Step::Begin,
            insert("accounts", "alpha", "1"), // node 0 partition
            insert("accounts", "zulu", "2"),  // node 1 partition
            insert("remote", "r1", "3"),      // node 2
            Step::End,
            read("accounts", "zulu"),
            read("remote", "r1"),
        ],
    );
    w.run_for(SimDuration::from_secs(10));
    assert_eq!(
        steps(&log),
        &["began", "ok", "ok", "ok", "committed", "value:2", "value:3"]
    );
    // remote begins went to two nodes; phase 1 fanned out over the network
    assert_eq!(w.metrics().get("tmf.msgs.remote_begin"), 2);
    assert_eq!(w.metrics().get("tmf.msgs.phase1_net"), 2);
    assert_eq!(w.metrics().get("tmf.msgs.phase2_net"), 2);
    assert_eq!(w.metrics().get("tmf.commits"), 1);
}

#[test]
fn partition_before_phase_one_aborts_everywhere() {
    let (mut w, [n0, _n1, n2], catalog) = three_nodes();
    let log = drive(
        &mut w,
        n0,
        0,
        catalog,
        vec![
            Step::Begin,
            insert("accounts", "alpha", "1"),
            insert("remote", "r1", "3"),
            Step::Pause(SimDuration::from_millis(500)),
            Step::End,
            read("accounts", "alpha"),
        ],
    );
    // cut node 2 off after its insert landed but before END-TRANSACTION
    // (the driver pauses 500ms between the last insert and END)
    while log.borrow().len() < 3 && w.now() < SimTime::from_micros(10_000_000) {
        w.run_for(SimDuration::from_millis(1));
    }
    assert_eq!(
        log.borrow().len(),
        3,
        "both inserts landed: {:?}",
        log.borrow()
    );
    w.inject(Fault::Partition(vec![n2]));
    // wait for END + abort to play out
    w.run_for(SimDuration::from_secs(10));
    assert_eq!(
        steps(&log),
        &["began", "ok", "ok", "aborted", "value:<none>"],
        "phase-one failure backed out node 0's insert too"
    );
    assert_eq!(w.metrics().get("tmf.commits"), 0);
    // node 2 is still partitioned; its abort arrives when the partition
    // heals (safe delivery)
    w.inject(Fault::HealAllLinks);
    w.run_for(SimDuration::from_secs(10));
    let log2 = drive(
        &mut w,
        n0,
        1,
        {
            let mut c = Catalog::new();
            c.add(FileDef::key_sequenced("remote", VolumeRef::new(n2, "$D2")));
            c
        },
        vec![read("remote", "r1")],
    );
    w.run_for(SimDuration::from_secs(5));
    assert_eq!(
        log2.borrow().as_slice(),
        &["value:<none>"],
        "node 2's insert was backed out after the heal"
    );
}

#[test]
fn partition_during_phase_two_holds_locks_until_heal() {
    let (mut w, [n0, _n1, n2], catalog) = three_nodes();
    let log = drive(
        &mut w,
        n0,
        0,
        catalog.clone(),
        vec![Step::Begin, insert("remote", "r2", "v"), Step::End],
    );
    // partition node 2 right after the commit record is written: node 2
    // has acknowledged phase one, and phase 2 is safe-delivery, so
    // END-TRANSACTION still completes on the home node while node 2's
    // locks stay held until the heal. Run until the commit record is
    // written (the metric flips), then cut.
    while w.metrics().get("tmf.commits") == 0 && w.now() < SimTime::from_micros(10_000_000) {
        w.run_for(SimDuration::from_millis(1));
    }
    assert_eq!(w.metrics().get("tmf.commits"), 1, "transaction committed");
    w.inject(Fault::Partition(vec![n2]));
    w.run_for(SimDuration::from_secs(2));
    assert_eq!(
        steps(&log),
        &["began", "ok", "committed"],
        "END-TRANSACTION completed despite the phase-2 partition"
    );
    // while partitioned, the record on node 2 is still locked: another
    // transaction's lock attempt times out
    let probe_catalog = catalog.clone();
    let log2 = drive(
        &mut w,
        n2,
        0,
        probe_catalog,
        vec![Step::Begin, read_lock("remote", "r2"), Step::Abort],
    );
    w.run_for(SimDuration::from_secs(3));
    assert_eq!(
        log2.borrow()[1],
        format!("err:{:?}", DiscError::LockTimeout),
        "locks held on the cut-off node: {:?}",
        log2.borrow()
    );
    // heal: safe-delivery phase 2 arrives, locks release
    w.inject(Fault::HealAllLinks);
    w.run_for(SimDuration::from_secs(3));
    let log3 = drive(
        &mut w,
        n2,
        1,
        catalog,
        vec![Step::Begin, read_lock("remote", "r2"), Step::Abort],
    );
    w.run_for(SimDuration::from_secs(3));
    assert_eq!(
        steps(&log3),
        &["began", "value:v", "aborted"],
        "after the heal the lock is free and the commit is visible"
    );
}

#[test]
fn cpu_failure_aborts_only_affected_transactions() {
    let (mut w, n, catalog) = single_node();
    // transaction A runs on cpu 0 and stays open
    let log_a = drive(
        &mut w,
        n,
        0,
        catalog.clone(),
        vec![
            Step::Begin,
            insert("accounts", "a", "1"),
            Step::Pause(SimDuration::from_secs(10)), // still open when cpu dies
            Step::End,
        ],
    );
    // transaction B runs on cpu 2 and also stays open across the failure
    let log_b = drive(
        &mut w,
        n,
        2,
        catalog.clone(),
        vec![
            Step::Begin,
            insert("accounts", "b", "2"),
            Step::Pause(SimDuration::from_secs(10)),
            Step::End,
        ],
    );
    w.run_for(SimDuration::from_secs(2));
    // kill cpu 0: A's requester dies with it
    w.inject(Fault::KillCpu(n, CpuId(0)));
    w.run_for(SimDuration::from_secs(15));
    assert!(
        log_a.borrow().len() <= 2,
        "A never completed: {:?}",
        log_a.borrow()
    );
    assert_eq!(
        log_b.borrow().last().unwrap(),
        "committed",
        "B was uninvolved in the failure and committed: {:?}",
        log_b.borrow()
    );
    assert!(w.metrics().get("tmf.cpu_failure_aborts") >= 1);
    // A's insert was backed out
    let log_c = drive(
        &mut w,
        n,
        3,
        catalog,
        vec![read("accounts", "a"), read("accounts", "b")],
    );
    w.run_for(SimDuration::from_secs(3));
    assert_eq!(log_c.borrow().as_slice(), &["value:<none>", "value:2"]);
}

#[test]
fn lock_timeout_then_restart_transaction_succeeds() {
    let (mut w, n, catalog) = single_node();
    // T1 holds the lock for a while
    let log1 = drive(
        &mut w,
        n,
        0,
        catalog.clone(),
        vec![
            Step::Begin,
            insert("accounts", "hot", "1"),
            Step::Pause(SimDuration::from_secs(2)),
            Step::End,
        ],
    );
    w.run_for(SimDuration::from_millis(200));
    // T2 wants the same record; its lock wait (500ms) times out, it
    // restarts (abort + begin again), and succeeds after T1 commits
    let log2 = drive(
        &mut w,
        n,
        1,
        catalog,
        vec![
            Step::Begin,
            read_lock("accounts", "hot"),
            // first attempt will log err:LockTimeout; the driver script is
            // linear, so model RESTART-TRANSACTION explicitly:
            Step::Abort,
            Step::Pause(SimDuration::from_secs(3)),
            Step::Begin,
            read_lock("accounts", "hot"),
            Step::End,
        ],
    );
    w.run_for(SimDuration::from_secs(10));
    assert_eq!(log1.borrow().last().unwrap(), "committed");
    assert_eq!(
        steps(&log2),
        &[
            "began",
            &format!("err:{:?}", DiscError::LockTimeout),
            "aborted",
            "began",
            "value:1",
            "committed"
        ]
    );
}

#[test]
fn delete_is_backed_out_and_its_key_lock_persists() {
    let (mut w, n, catalog) = single_node();
    let log = drive(
        &mut w,
        n,
        0,
        catalog.clone(),
        vec![
            Step::Begin,
            insert("accounts", "doomed", "v"),
            Step::End,
            // delete it, then abort: the before-image resurrects it
            Step::Begin,
            read_lock("accounts", "doomed"),
            delete("accounts", "doomed"),
            read("accounts", "doomed"),
            Step::Abort,
            read("accounts", "doomed"),
        ],
    );
    w.run_for(SimDuration::from_secs(8));
    assert_eq!(
        steps(&log),
        &[
            "began",
            "ok",
            "committed",
            "began",
            "value:v",
            "ok",
            "value:<none>", // browse read sees the uncommitted delete
            "aborted",
            "value:v" // backout restored the record
        ]
    );
}

#[test]
fn file_lock_blocks_other_transactions_until_commit() {
    use encompass_storage::discprocess::DiscRequest;
    // a driver that takes a FILE lock via the raw submit API
    struct FileLocker {
        session: TmfSession,
        step: u8,
        log: Log,
    }
    impl Process for FileLocker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.step = 1;
            self.session.begin(ctx, SessionOptions::default());
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
            let Ok(Some(ev)) = self.session.accept(ctx, payload) else {
                return;
            };
            match (self.step, ev) {
                (1, SessionEvent::Began { .. }) => {
                    self.step = 2;
                    let transid = self.session.transid().unwrap();
                    self.session.submit(
                        ctx,
                        DiscRequest::LockFile {
                            file: "accounts".into(),
                            transid,
                            lock_wait: SimDuration::from_millis(200),
                        },
                    );
                }
                (2, SessionEvent::OpDone { .. }) => {
                    self.log.borrow_mut().push("file-locked".into());
                    self.step = 3;
                    ctx.set_timer(SimDuration::from_millis(800), 1);
                }
                (4, SessionEvent::Committed) => {
                    self.log.borrow_mut().push("committed".into());
                }
                _ => {}
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
            if tag == 1 && self.step == 3 {
                self.step = 4;
                self.session.end(ctx);
                return;
            }
            let _ = self.session.on_timer(ctx, tag);
        }
    }

    let (mut w, n, catalog) = single_node();
    let log1: Log = Rc::new(RefCell::new(Vec::new()));
    w.spawn(
        n,
        0,
        Box::new(FileLocker {
            session: TmfSession::new(catalog.clone(), 0),
            step: 0,
            log: log1.clone(),
        }),
    );
    w.run_for(SimDuration::from_millis(150));
    assert_eq!(log1.borrow().as_slice(), &["file-locked"]);
    // while the file lock is held, another transaction's record insert
    // into the same file times out
    let log2 = drive(
        &mut w,
        n,
        1,
        catalog.clone(),
        vec![Step::Begin, insert("accounts", "x", "1"), Step::Abort],
    );
    w.run_for(SimDuration::from_millis(650));
    assert_eq!(
        log2.borrow()[1],
        format!("err:{:?}", DiscError::LockTimeout),
        "{:?}",
        log2.borrow()
    );
    // after the locker commits, inserts flow again
    w.run_for(SimDuration::from_secs(5));
    assert_eq!(log1.borrow().last().unwrap(), "committed");
    let log3 = drive(
        &mut w,
        n,
        2,
        catalog,
        vec![Step::Begin, insert("accounts", "x", "1"), Step::End],
    );
    w.run_for(SimDuration::from_secs(5));
    assert_eq!(log3.borrow().last().unwrap(), "committed");
}

// ---------------------------------------------------------------------------
// Regressions for the commit-path in-doubt bug class: each of these drove a
// chaos-sweep invariant violation before its fix (see EXPERIMENTS.md).
// ---------------------------------------------------------------------------

/// A TMP primary that dies after writing the commit record but before its
/// phase-2 deliveries are acknowledged used to leak the transaction: the
/// terminal entry was dropped at the takeover and the in-flight deliveries
/// died with the primary, leaving remote locks held forever. Terminal
/// entries are now retained until every safe-delivery is acknowledged and
/// the new primary re-sends them (receivers are idempotent).
#[test]
fn tmp_takeover_after_commit_point_completes_distributed_commit() {
    let (mut w, [n0, _n1, n2], catalog) = three_nodes();
    let log = drive(
        &mut w,
        n0,
        0,
        catalog.clone(),
        vec![
            Step::Begin,
            insert("accounts", "alpha", "1"),
            insert("remote", "r", "2"),
            Step::End,
        ],
    );
    // run until the commit record hits the home monitor trail; the phase-2
    // deliveries to nodes 1 and 2 (>= 2ms away) are still in flight
    while w.metrics().get("tmf.commits") == 0 && w.now() < SimTime::from_micros(10_000_000) {
        w.run_for(SimDuration::from_millis(1));
    }
    assert_eq!(w.metrics().get("tmf.commits"), 1, "commit record written");
    let tmp_cpu = w.lookup_name(n0, "$TMP").expect("TMP registered").cpu;
    w.inject(Fault::KillCpu(n0, tmp_cpu));
    w.run_for(SimDuration::from_secs(2));
    w.inject(Fault::RestoreCpu(n0, tmp_cpu));
    w.run_for(SimDuration::from_secs(10));
    assert!(
        w.metrics().get("tmf.takeover_delivery_resends") >= 1,
        "the new primary re-sent the unacknowledged phase-2 deliveries"
    );
    assert_eq!(
        log.borrow().last().unwrap(),
        "committed",
        "END-TRANSACTION was answered after the takeover: {:?}",
        log.borrow()
    );
    // phase 2 landed on the remote participant: effects visible, lock free
    let log2 = drive(
        &mut w,
        n2,
        0,
        catalog,
        vec![Step::Begin, read_lock("remote", "r"), Step::Abort],
    );
    w.run_for(SimDuration::from_secs(5));
    assert_eq!(
        steps(&log2),
        &["began", "value:2", "aborted"],
        "remote record committed and unlocked"
    );
}

/// The narrower satellite window: the primary dies *after* forcing the
/// commit record to the Monitor Audit Trail but *before* its Ended
/// checkpoint reaches the backup, which therefore still sees Ending and
/// used to presume abort — backing out a committed transaction. It must
/// consult the trail instead and finish the commit. A double bus failure
/// holds the window open: the trail force is a timer plus a
/// stable-storage write and completes regardless, while the Ended
/// checkpoint is a cross-CPU send that fails with both buses down.
#[test]
fn tmp_takeover_between_commit_record_and_checkpoint_commits() {
    let (mut w, n, catalog) = single_node();
    let log = drive(
        &mut w,
        n,
        1,
        catalog.clone(),
        vec![Step::Begin, insert("accounts", "win", "1"), Step::End],
    );
    // the commit decision is taken: the trail force is scheduled and the
    // Ending checkpoint is already on (or past) the bus to the backup
    while w.metrics().get("tmf.monitor_forces") == 0 && w.now() < SimTime::from_micros(10_000_000) {
        w.run_for(SimDuration::from_micros(50));
    }
    assert_eq!(w.metrics().get("tmf.monitor_forces"), 1);
    let tmp_cpu = w.lookup_name(n, "$TMP").expect("TMP registered").cpu;
    w.inject(Fault::KillBus(n, 0));
    w.inject(Fault::KillBus(n, 1));
    while w.metrics().get("tmf.commits") == 0 && w.now() < SimTime::from_micros(10_000_000) {
        w.run_for(SimDuration::from_micros(50));
    }
    assert_eq!(w.metrics().get("tmf.commits"), 1);
    // the record is on the trail but the backup never saw Ended: kill the
    // primary in exactly that state, then let the buses come back
    w.inject(Fault::KillCpu(n, tmp_cpu));
    w.inject(Fault::HealBus(n, 0));
    w.inject(Fault::HealBus(n, 1));
    w.run_for(SimDuration::from_secs(2));
    w.inject(Fault::RestoreCpu(n, tmp_cpu));
    w.run_for(SimDuration::from_secs(10));
    assert!(
        w.metrics().get("tmf.takeover_commit_completions") >= 1,
        "the backup found the commit record on the trail"
    );
    assert_eq!(
        log.borrow().last().unwrap(),
        "committed",
        "{:?}",
        log.borrow()
    );
    // the committed value survived (not backed out by a presumed abort)
    let log2 = drive(
        &mut w,
        n,
        2,
        catalog,
        vec![Step::Begin, read_lock("accounts", "win"), Step::Abort],
    );
    w.run_for(SimDuration::from_secs(5));
    assert_eq!(
        steps(&log2),
        &["began", "value:1", "aborted"],
        "value intact and lock free after the takeover commit"
    );
}

/// Unacknowledged lazy audit appends were pure primary-memory state: a
/// DISCPROCESS takeover dropped them, and a later backout read an audit
/// trail that was missing before-images, leaving the aborted update in
/// place. The images now ride the Applied checkpoint and the new primary
/// re-sends them (the AUDITPROCESS deduplicates).
#[test]
fn disc_takeover_mid_transaction_keeps_backout_images() {
    let (mut w, n, catalog) = single_node();
    let log1 = drive(
        &mut w,
        n,
        0,
        catalog.clone(),
        vec![Step::Begin, insert("accounts", "vic", "500"), Step::End],
    );
    w.run_for(SimDuration::from_secs(3));
    assert_eq!(log1.borrow().last().unwrap(), "committed");
    let log2 = drive(
        &mut w,
        n,
        1,
        catalog,
        vec![
            Step::Begin,
            read_lock("accounts", "vic"),
            update("accounts", "vic", "0"),
            Step::Pause(SimDuration::from_secs(2)), // disc dies in here
            Step::Abort,
            read("accounts", "vic"),
        ],
    );
    while log2.borrow().len() < 3 && w.now() < SimTime::from_micros(10_000_000) {
        w.run_for(SimDuration::from_millis(1));
    }
    assert_eq!(
        log2.borrow().len(),
        3,
        "update applied: {:?}",
        log2.borrow()
    );
    let disc_cpu = w.lookup_name(n, "$DATA").expect("disc registered").cpu;
    w.inject(Fault::KillCpu(n, disc_cpu));
    w.run_for(SimDuration::from_millis(500));
    w.inject(Fault::RestoreCpu(n, disc_cpu));
    w.run_for(SimDuration::from_secs(10));
    assert!(
        w.metrics().get("disc.takeover_image_resends") >= 1,
        "the new disc primary re-sent the retained images"
    );
    assert_eq!(
        steps(&log2),
        &["began", "value:500", "ok", "aborted", "value:500"],
        "backout found the before-image despite the takeover"
    );
}

/// An AUDITPROCESS takeover mid-transaction: the buffered (unforced) image
/// records are mirrored by per-append checkpoints, so phase 1's ForceTxn
/// against the new primary still lands every record on the trail.
#[test]
fn audit_takeover_mid_transaction_still_commits_durably() {
    let (mut w, n, catalog) = single_node();
    let log = drive(
        &mut w,
        n,
        2,
        catalog,
        vec![
            Step::Begin,
            insert("accounts", "aud", "7"),
            Step::Pause(SimDuration::from_secs(1)), // audit dies in here
            Step::End,
            read("accounts", "aud"),
        ],
    );
    while log.borrow().len() < 2 && w.now() < SimTime::from_micros(10_000_000) {
        w.run_for(SimDuration::from_millis(1));
    }
    assert_eq!(log.borrow().len(), 2, "insert applied: {:?}", log.borrow());
    let audit_cpu = w.lookup_name(n, "$AUDIT").expect("audit registered").cpu;
    w.inject(Fault::KillCpu(n, audit_cpu));
    w.run_for(SimDuration::from_millis(300));
    w.inject(Fault::RestoreCpu(n, audit_cpu));
    w.run_for(SimDuration::from_secs(10));
    assert!(w.metrics().get("audit.takeovers") >= 1);
    assert_eq!(
        steps(&log),
        &["began", "ok", "committed", "value:7"],
        "commit forced the checkpoint-surviving buffer to the trail"
    );
    assert_eq!(MonitorTrail::of(w.stable_mut(), n).commits(), 1);
}

/// Once a transaction reaches its commit or abort point the DISCPROCESS
/// fences its transid: a data operation that was still in flight (e.g. a
/// retry that raced the outcome) must not apply after backout read the
/// images, or the undo would silently be lost.
#[test]
fn late_write_with_stale_transid_is_fenced() {
    use encompass_storage::discprocess::DiscRequest;

    let (mut w, n, catalog) = single_node();
    let (log, transid) = drive_capturing(
        &mut w,
        n,
        0,
        catalog,
        vec![Step::Begin, insert("accounts", "fz", "1"), Step::End],
    );
    w.run_for(SimDuration::from_secs(3));
    assert_eq!(steps(&log), &["began", "ok", "committed"]);
    let stale = transid.borrow().expect("captured at Began");
    // a straggler write tagged with the completed transid is rejected, and
    // the committed value survives
    let replies = encompass_storage::testkit::run_script(
        &mut w,
        n,
        1,
        Target::Named(n, "$DATA".into()),
        vec![
            DiscRequest::Update {
                file: "accounts".into(),
                key: b("fz"),
                value: b("99"),
                transid: Some(stale),
            },
            DiscRequest::Read {
                file: "accounts".into(),
                key: b("fz"),
            },
        ],
    );
    w.run_for(SimDuration::from_secs(2));
    assert_eq!(
        replies.borrow().as_slice(),
        &[
            DiscReply::Err(DiscError::TxnFenced),
            DiscReply::Value(Some(b("1"))),
        ]
    );
}

/// A unilateral abort at a *non-home* participant used to answer the
/// requester with `Phase1Refused` (the reply meant for the home TMP's
/// phase-1 probe); the session waiter must get `Aborted`.
#[test]
fn nonhome_unilateral_abort_answers_aborted() {
    let (mut w, [n0, _n1, n2], catalog) = three_nodes();
    let (log, transid) = drive_capturing(
        &mut w,
        n0,
        0,
        catalog.clone(),
        vec![
            Step::Begin,
            insert("remote", "u9", "v"), // registers with node 2's TMP
            Step::Pause(SimDuration::from_secs(2)), // abort arrives in here
            Step::End,
            read("remote", "u9"),
        ],
    );
    while log.borrow().len() < 2 && w.now() < SimTime::from_micros(10_000_000) {
        w.run_for(SimDuration::from_millis(1));
    }
    assert_eq!(log.borrow().len(), 2, "insert landed: {:?}", log.borrow());
    let transid = transid.borrow().expect("captured at Began");
    // node 2 aborts unilaterally (it has not acked phase 1 yet)
    let reply = ask_tmp(
        &mut w,
        n2,
        0,
        TmpMsg::Abort {
            transid,
            reason: AbortReason::Voluntary,
        },
    );
    w.run_for(SimDuration::from_secs(2));
    assert_eq!(
        *reply.borrow(),
        Some(TmpReply::Aborted),
        "the non-home abort requester hears Aborted, not Phase1Refused"
    );
    // the unilateral abort forces network consensus: END at home aborts
    // everywhere and node 2's insert is gone
    w.run_for(SimDuration::from_secs(8));
    assert_eq!(
        steps(&log),
        &["began", "ok", "aborted", "value:<none>"],
        "consensus abort after the unilateral refusal"
    );
}

/// A late or retried `RegisterVolume` for a transid that already finished
/// used to `or_insert` a phantom Active entry that never terminated — an
/// entry leak with a wrong disposition. The Monitor Audit Trail is now
/// consulted for unknown transids.
#[test]
fn late_register_volume_after_completion_is_refused() {
    let (mut w, n, catalog) = single_node();
    let (log, transid) = drive_capturing(
        &mut w,
        n,
        0,
        catalog,
        vec![Step::Begin, insert("accounts", "rg", "1"), Step::End],
    );
    w.run_for(SimDuration::from_secs(3));
    assert_eq!(steps(&log), &["began", "ok", "committed"]);
    let transid = transid.borrow().expect("captured at Began");
    // a stale File System retry shows up after END-TRANSACTION completed
    let reply = ask_tmp(
        &mut w,
        n,
        1,
        TmpMsg::RegisterVolume {
            transid,
            volume: VolumeRef::new(n, "$DATA"),
        },
    );
    w.run_for(SimDuration::from_secs(2));
    assert_eq!(
        *reply.borrow(),
        Some(TmpReply::Failed),
        "registration against a completed transid is refused"
    );
    assert_eq!(w.metrics().get("tmf.register_after_completion"), 1);
    // and no phantom entry was resurrected
    let tmp = guardian::primary::<TmpProcess>(&w, n, "$TMP").expect("a live $TMP primary");
    assert_eq!(
        tmp.open_transids(),
        Vec::new(),
        "the transaction table is empty"
    );
}

// ---------------------------------------------------------------------------
// Figure 3 gates every state change: the operator's override and a
// takeover's re-drive go through the same table as any other transition.
// ---------------------------------------------------------------------------

/// Step `w` in `step` increments until `done` holds (or ten virtual seconds
/// pass — the assertion after the call reports which).
fn run_until(w: &mut World, step: SimDuration, done: impl Fn(&World) -> bool) {
    while !done(w) && w.now() < SimTime::from_micros(10_000_000) {
        w.run_for(step);
    }
}

/// Ask `node`'s TMP what state it holds `transid` in.
fn disposition(w: &mut World, node: NodeId, cpu: u8, transid: Transid) -> Option<TmpReply> {
    let reply = ask_tmp(w, node, cpu, TmpMsg::QueryDisposition { transid });
    w.run_for(SimDuration::from_millis(20));
    let answer = reply.borrow().clone();
    answer
}

/// The manual override's abort arm: a non-home participant cut off after
/// entering phase one holds its locks in Ending until the operator forces
/// the abort the home node decided, which backs out its insert and
/// releases the lock.
#[test]
fn operator_abort_backs_out_an_in_doubt_nonhome_entry() {
    let (mut w, [n0, _n1, n2], catalog) = three_nodes();
    let (log, transid) = drive_capturing(
        &mut w,
        n0,
        0,
        catalog.clone(),
        vec![
            Step::Begin,
            insert("accounts", "alpha", "1"),
            insert("remote", "r", "2"),
            Step::End,
        ],
    );
    // node 0 counts one local phase one, node 2 the second as it enters
    // Ending: cut node 2 off before its acknowledgement can reach home
    run_until(&mut w, SimDuration::from_micros(50), |w| {
        w.metrics().get("tmf.msgs.phase1_local") == 2
    });
    w.inject(Fault::Partition(vec![n2]));
    w.run_for(SimDuration::from_secs(2));
    assert_eq!(
        steps(&log),
        &["began", "ok", "ok", "aborted"],
        "phase one timed out at home"
    );
    let transid = transid.borrow().expect("captured at Began");
    assert_eq!(
        disposition(&mut w, n2, 1, transid),
        Some(TmpReply::Disposition {
            state: Some(TxState::Ending)
        }),
        "node 2 is in doubt"
    );
    let started = w.metrics().get("tmf.abort_started");
    let reply = ask_tmp(
        &mut w,
        n2,
        2,
        TmpMsg::ForceDisposition {
            transid,
            commit: false,
        },
    );
    w.run_for(SimDuration::from_secs(2));
    assert_eq!(*reply.borrow(), Some(TmpReply::Ok));
    assert_eq!(w.metrics().get("tmf.abort_started"), started + 1);
    let probe = drive(
        &mut w,
        n2,
        3,
        catalog,
        vec![Step::Begin, read_lock("remote", "r"), Step::Abort],
    );
    w.run_for(SimDuration::from_secs(3));
    assert_eq!(
        steps(&probe),
        &["began", "value:<none>", "aborted"],
        "node 2's insert backed out and its lock released"
    );
}

/// The override cannot undo a commit: a home entry that is Ended, kept in
/// the table only because phase two cannot reach a cut-off child, does not
/// become Aborting when the operator forces an abort.
#[test]
fn operator_abort_leaves_an_ended_entry_committed() {
    let (mut w, [n0, _n1, n2], catalog) = three_nodes();
    let (log, transid) = drive_capturing(
        &mut w,
        n0,
        0,
        catalog.clone(),
        vec![
            Step::Begin,
            insert("accounts", "alpha", "1"),
            insert("remote", "r", "2"),
            Step::End,
        ],
    );
    run_until(&mut w, SimDuration::from_millis(1), |w| {
        w.metrics().get("tmf.commits") == 1
    });
    w.inject(Fault::Partition(vec![n2]));
    w.run_for(SimDuration::from_secs(1));
    assert_eq!(steps(&log), &["began", "ok", "ok", "committed"]);
    let transid = transid.borrow().expect("captured at Began");
    let ended = Some(TmpReply::Disposition {
        state: Some(TxState::Ended),
    });
    assert_eq!(
        disposition(&mut w, n0, 1, transid),
        ended,
        "waiting on phase two"
    );
    let started = w.metrics().get("tmf.abort_started");
    let reply = ask_tmp(
        &mut w,
        n0,
        2,
        TmpMsg::ForceDisposition {
            transid,
            commit: false,
        },
    );
    w.run_for(SimDuration::from_secs(2));
    assert_eq!(*reply.borrow(), Some(TmpReply::Ok));
    assert_eq!(w.metrics().get("tmf.abort_started"), started, "no backout");
    assert_eq!(disposition(&mut w, n0, 1, transid), ended);
    let probe = drive(
        &mut w,
        n0,
        3,
        catalog,
        vec![Step::Begin, read_lock("accounts", "alpha"), Step::Abort],
    );
    w.run_for(SimDuration::from_secs(3));
    assert_eq!(
        steps(&probe),
        &["began", "value:1", "aborted"],
        "the committed value stays"
    );
}

/// Nor can it overtake a decided commit: COMMITTING has no abort
/// successor, so an override that arrives while the commit record waits
/// in an open boxcar leaves the commit to finish. (The window also holds
/// phase one's audit force open, so it must stay inside phase one's
/// retry budget.)
#[test]
fn operator_abort_cannot_overtake_committing() {
    let cfg = TmfNodeConfig::builder()
        .group_commit_window(SimDuration::from_millis(200))
        .build()
        .expect("valid tmf config");
    let (mut w, n, catalog) = single_node_with(cfg);
    let (log, transid) = drive_capturing(
        &mut w,
        n,
        0,
        catalog.clone(),
        vec![Step::Begin, insert("accounts", "c", "1"), Step::End],
    );
    // entering COMMITTING releases the local locks early
    run_until(&mut w, SimDuration::from_micros(50), |w| {
        w.metrics().get("tmf.msgs.release_early") == 1
    });
    let transid = transid.borrow().expect("captured at Began");
    assert_eq!(
        disposition(&mut w, n, 1, transid),
        Some(TmpReply::Disposition {
            state: Some(TxState::Committing)
        })
    );
    let reply = ask_tmp(
        &mut w,
        n,
        2,
        TmpMsg::ForceDisposition {
            transid,
            commit: false,
        },
    );
    w.run_for(SimDuration::from_secs(2));
    assert_eq!(*reply.borrow(), Some(TmpReply::Ok));
    assert_eq!(steps(&log), &["began", "ok", "committed"]);
    assert_eq!(w.metrics().get("tmf.abort_started"), 0, "no backout");
    let probe = drive(
        &mut w,
        n,
        3,
        catalog,
        vec![Step::Begin, read_lock("accounts", "c"), Step::Abort],
    );
    w.run_for(SimDuration::from_secs(3));
    assert_eq!(steps(&probe), &["began", "value:1", "aborted"]);
}

/// The janitor's commit arm applied the home node's Ended to any entry in
/// doubt, taking an Active one straight to Ended — an edge Figure 3 lacks,
/// and a panic once the table is asserted. An Active non-home entry never
/// acknowledged phase one: here it is a phantom that a stale RemoteBegin
/// resurrected after the transaction completed. The janitor aborts it,
/// and the committed outcome stands.
#[test]
fn janitor_aborts_a_phantom_of_a_committed_transaction() {
    let (mut w, [n0, _n1, n2], catalog) = three_nodes();
    let (log, transid) = drive_capturing(
        &mut w,
        n0,
        0,
        catalog.clone(),
        vec![Step::Begin, insert("remote", "r", "2"), Step::End],
    );
    w.run_for(SimDuration::from_secs(3));
    assert_eq!(steps(&log), &["began", "ok", "committed"]);
    let transid = transid.borrow().expect("captured at Began");
    let open = |w: &World| {
        let tmp = guardian::primary::<TmpProcess>(w, n2, "$TMP").expect("a live $TMP primary");
        tmp.open_transids()
    };
    assert_eq!(open(&w), Vec::new());
    // a RemoteBegin retransmission that outlived its reply
    let reply = ask_tmp(&mut w, n2, 1, TmpMsg::RemoteBegin { transid });
    w.run_for(SimDuration::from_millis(20));
    assert_eq!(*reply.borrow(), Some(TmpReply::Ok));
    assert_eq!(open(&w), vec![transid], "a phantom entry");
    w.run_for(SimDuration::from_secs(2));
    assert_eq!(w.metrics().get("tmf.indoubt_commits"), 0);
    assert_eq!(w.metrics().get("tmf.indoubt_aborts"), 1);
    assert_eq!(open(&w), Vec::new(), "the phantom left the table");
    assert_eq!(
        MonitorTrail::of(w.stable_mut(), n2).outcome(transid),
        Some(true),
        "the first disposition stands"
    );
    let probe = drive(
        &mut w,
        n2,
        2,
        catalog,
        vec![Step::Begin, read_lock("remote", "r"), Step::Abort],
    );
    w.run_for(SimDuration::from_secs(3));
    assert_eq!(steps(&probe), &["began", "value:2", "aborted"]);
}

/// A TMP primary that dies mid-backout leaves its backup a checkpointed
/// Aborting entry. The takeover re-drives the backout exactly once — it
/// re-enters the state it is in, which is not an edge of Figure 3 — and
/// the update is undone and its lock released.
#[test]
fn tmp_takeover_mid_backout_redrives_it_once() {
    let (mut w, n, catalog) = single_node();
    let setup = drive(
        &mut w,
        n,
        0,
        catalog.clone(),
        vec![Step::Begin, insert("accounts", "bob", "500"), Step::End],
    );
    w.run_for(SimDuration::from_secs(3));
    assert_eq!(steps(&setup), &["began", "ok", "committed"]);
    let log = drive(
        &mut w,
        n,
        1,
        catalog.clone(),
        vec![
            Step::Begin,
            read_lock("accounts", "bob"),
            update("accounts", "bob", "0"),
            Step::Abort,
        ],
    );
    run_until(&mut w, SimDuration::from_micros(50), |w| {
        w.metrics().get("tmf.abort_started") == 1
    });
    // let the Aborting checkpoint reach the backup, then kill the primary
    // while the BACKOUTPROCESS is still undoing
    w.run_for(SimDuration::from_millis(1));
    assert_eq!(w.metrics().get("backout.completed"), 0, "backout running");
    let tmp_cpu = w.lookup_name(n, "$TMP").expect("TMP registered").cpu;
    w.inject(Fault::KillCpu(n, tmp_cpu));
    w.run_for(SimDuration::from_secs(2));
    w.inject(Fault::RestoreCpu(n, tmp_cpu));
    w.run_for(SimDuration::from_secs(5));
    assert_eq!(w.metrics().get("tmf.takeovers"), 1);
    assert_eq!(
        w.metrics().get("tmf.abort_started"),
        2,
        "the abort, then one re-drive"
    );
    assert_eq!(steps(&log), &["began", "value:500", "ok", "aborted"]);
    let probe = drive(
        &mut w,
        n,
        2,
        catalog,
        vec![Step::Begin, read_lock("accounts", "bob"), Step::Abort],
    );
    w.run_for(SimDuration::from_secs(3));
    assert_eq!(
        steps(&probe),
        &["began", "value:500", "aborted"],
        "the update was undone and its lock released"
    );
}

/// Determinism is what makes a chaos seed a one-line repro, so it is an
/// invariant in its own right: the same fault timeline (a TMP-primary CPU
/// kill mid-transaction, a partition, restores and heals) must replay to
/// the identical trace hash.
#[test]
fn deterministic_run_with_cpu_failures() {
    fn run() -> u64 {
        let (mut w, [n0, _n1, n2], catalog) = three_nodes();
        let _ = drive(
            &mut w,
            n0,
            0,
            catalog,
            vec![
                Step::Begin,
                insert("accounts", "alpha", "1"),
                insert("remote", "r", "2"),
                Step::End,
            ],
        );
        // cpu 3 hosts node 0's TMP primary at spawn time
        w.schedule_fault(SimTime::from_micros(40_000), Fault::KillCpu(n0, CpuId(3)));
        w.schedule_fault(SimTime::from_micros(300_000), Fault::Partition(vec![n2]));
        w.schedule_fault(
            SimTime::from_micros(700_000),
            Fault::RestoreCpu(n0, CpuId(3)),
        );
        w.schedule_fault(SimTime::from_micros(900_000), Fault::HealAllLinks);
        w.run_until(SimTime::from_micros(5_000_000));
        w.trace_hash()
    }
    assert_eq!(run(), run());
}

#[test]
fn deterministic_distributed_run() {
    fn run() -> u64 {
        let (mut w, [n0, _n1, n2], catalog) = three_nodes();
        let _ = drive(
            &mut w,
            n0,
            0,
            catalog,
            vec![
                Step::Begin,
                insert("accounts", "alpha", "1"),
                insert("remote", "r", "2"),
                Step::End,
            ],
        );
        w.schedule_fault(SimTime::from_micros(500_000), Fault::Partition(vec![n2]));
        w.schedule_fault(SimTime::from_micros(900_000), Fault::HealAllLinks);
        w.run_until(SimTime::from_micros(3_000_000));
        w.trace_hash()
    }
    assert_eq!(run(), run());
}

#[test]
fn abort_mid_boxcar_keeps_dispositions_separate() {
    // a commit record and an abort record ride the same monitor boxcar;
    // each transaction must get its own disposition, and the abort's
    // backout must not disturb the committed passenger
    let cfg = TmfNodeConfig::builder()
        .group_commit_window(SimDuration::from_millis(5))
        .build()
        .expect("valid tmf config");
    let (mut w, n, catalog) = single_node_with(cfg);
    let committer = drive(
        &mut w,
        n,
        0,
        catalog.clone(),
        vec![Step::Begin, insert("accounts", "carol", "100"), Step::End],
    );
    let aborter = drive(
        &mut w,
        n,
        1,
        catalog,
        vec![
            Step::Begin,
            insert("accounts", "dave", "50"),
            Step::Abort,
            read("accounts", "dave"),
        ],
    );
    w.run_for(SimDuration::from_secs(5));
    assert_eq!(committer.borrow().last().unwrap(), "committed");
    assert_eq!(
        steps(&aborter),
        &["began", "ok", "aborted", "value:<none>"],
        "dave's insert backed out"
    );
    assert_eq!(w.metrics().get("tmf.commits"), 1);
    assert_eq!(w.metrics().get("tmf.aborts"), 1);
    let trail = MonitorTrail::of(w.stable_mut(), n);
    assert_eq!(trail.commits(), 1);
    assert_eq!(trail.aborts(), 1);
    // every monitor force, windowed or not, feeds the boxcar histogram
    assert_eq!(
        w.metrics().get("tmf.monitor_boxcar_size.count"),
        w.metrics().get("tmf.monitor_forces")
    );
}

#[test]
fn group_commit_window_batches_monitor_forces() {
    let cfg = TmfNodeConfig::builder()
        .group_commit_window(SimDuration::from_millis(10))
        .build()
        .expect("valid tmf config");
    let (mut w, n, catalog) = single_node_with(cfg);
    let mut logs = Vec::new();
    for (i, key) in ["a", "b", "c", "d"].iter().enumerate() {
        logs.push(drive(
            &mut w,
            n,
            i as u8,
            catalog.clone(),
            vec![Step::Begin, insert("accounts", key, "1"), Step::End],
        ));
    }
    w.run_for(SimDuration::from_secs(5));
    for log in &logs {
        assert_eq!(log.borrow().last().unwrap(), "committed");
    }
    assert_eq!(w.metrics().get("tmf.commits"), 4);
    // near-simultaneous commits share physical monitor forces
    let forces = w.metrics().get("tmf.monitor_forces");
    assert!(
        forces < 4,
        "expected boxcarring, got {forces} forces for 4 commits"
    );
    assert_eq!(MonitorTrail::of(w.stable_mut(), n).commits(), 4);
}

/// A parked lock request that is retransmitted after a DISCPROCESS
/// takeover re-parks on the new primary; the replicated counted-waits set
/// must keep `disc.lock_waits` exact (one wait, not one per park).
#[test]
fn retransmitted_repark_counts_one_lock_wait() {
    let (mut w, n, catalog) = single_node();
    // T1 inserts "acct" (acquiring its record lock) and holds it across a
    // pause long enough for T2 to park and the disc primary to die
    let log1 = drive(
        &mut w,
        n,
        0,
        catalog.clone(),
        vec![
            Step::Begin,
            insert("accounts", "acct", "100"),
            Step::Pause(SimDuration::from_millis(600)),
            Step::End,
        ],
    );
    w.run_for(SimDuration::from_millis(200));
    // T2 queues behind T1's record lock
    let log2 = drive(
        &mut w,
        n,
        1,
        catalog.clone(),
        vec![
            Step::Begin,
            read_lock("accounts", "acct"),
            update("accounts", "acct", "200"),
            Step::End,
        ],
    );
    w.run_for(SimDuration::from_millis(150));
    assert_eq!(w.metrics().get("disc.lock_waits"), 1, "T2 parked once");
    // kill the disc primary mid-wait; the parked request dies with it,
    // T2's session retransmits, and the request re-parks on the backup
    let disc_cpu = w.lookup_name(n, "$DATA").expect("disc process").cpu;
    w.inject(Fault::KillCpu(n, disc_cpu));
    w.run_for(SimDuration::from_millis(150));
    w.inject(Fault::RestoreCpu(n, disc_cpu));
    w.run_for(SimDuration::from_secs(5));
    assert_eq!(log1.borrow().last().unwrap(), "committed");
    assert_eq!(
        steps(&log2),
        &["began", "value:100", "ok", "committed"],
        "T2 got the lock after T1 released it"
    );
    assert_eq!(
        w.metrics().get("disc.lock_waits"),
        1,
        "the retransmitted re-park must not count as a second wait"
    );
    assert_eq!(
        w.metrics().get("disc.fenced_lock_waits"),
        0,
        "no waiter was fenced in this run"
    );
}

#[test]
fn readonly_snapshot_commits_without_forces_and_is_not_blocked_by_writer() {
    // in a read-only transaction `Read` and `ReadLock` are the same
    // snapshot read
    for read_op in [read, read_lock] {
        let (mut w, n, catalog) = single_node();
        // committed baseline
        let log0 = drive(
            &mut w,
            n,
            0,
            catalog.clone(),
            vec![Step::Begin, insert("accounts", "alice", "100"), Step::End],
        );
        w.run_for(SimDuration::from_secs(3));
        assert_eq!(log0.borrow().last().unwrap(), "committed");
        let forces_before = w.metrics().get("tmf.monitor_forces") + w.metrics().get("audit.forces");
        // a writer takes the X lock on alice and sits on it mid-transaction
        let writer = drive(
            &mut w,
            n,
            1,
            catalog.clone(),
            vec![
                Step::Begin,
                read_lock("accounts", "alice"),
                update("accounts", "alice", "150"),
                Step::Pause(SimDuration::from_secs(2)),
                Step::End,
            ],
        );
        // a snapshot reader starts after the writer holds the lock; it must
        // read the committed value (100, not the dirty 150) without queueing
        let reader = drive_with(
            &mut w,
            n,
            2,
            catalog.clone(),
            SessionOptions::new().read_only(),
            vec![
                Step::Pause(SimDuration::from_millis(500)),
                Step::Begin,
                read_op("accounts", "alice"),
                Step::End,
            ],
        );
        w.run_for(SimDuration::from_secs(1));
        // the writer is still mid-pause, yet the reader has already committed
        assert_eq!(steps(&reader), &["began", "value:100", "committed"]);
        assert_eq!(w.metrics().get("tmf.readonly_commits"), 1);
        assert_eq!(w.metrics().get("disc.snapshot_reads"), 1);
        // the read-only END forced nothing on either trail
        assert_eq!(
            w.metrics().get("tmf.monitor_forces") + w.metrics().get("audit.forces"),
            forces_before,
            "read-only commit must not force a trail record"
        );
        // the writer finishes normally afterwards
        w.run_for(SimDuration::from_secs(3));
        assert_eq!(writer.borrow().last().unwrap(), "committed");
        assert_eq!(w.metrics().get("tmf.commits"), 3);
    }
}

#[test]
fn write_under_readonly_session_is_refused_synchronously() {
    let (mut w, n, catalog) = single_node();
    let log = drive_with(
        &mut w,
        n,
        0,
        catalog.clone(),
        SessionOptions::new().read_only(),
        vec![
            Step::Begin,
            insert("accounts", "eve", "1"),
            // the violation doesn't kill the transaction: a read still
            // works and END still commits (read-only, no forces)
            read("accounts", "eve"),
            Step::End,
        ],
    );
    w.run_for(SimDuration::from_secs(3));
    assert_eq!(
        steps(&log),
        &["began", "failed", "value:<none>", "committed"]
    );
    assert_eq!(w.metrics().get("tmf.readonly_violations"), 1);
    assert_eq!(w.metrics().get("tmf.readonly_commits"), 1);
    // nothing was inserted
    let check = drive(&mut w, n, 1, catalog, vec![read("accounts", "eve")]);
    w.run_for(SimDuration::from_secs(2));
    assert_eq!(check.borrow().as_slice(), &["value:<none>"]);
}
