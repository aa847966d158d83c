//! End-to-end audit tests: DISCPROCESS + AUDITPROCESS + BACKOUTPROCESS in
//! one simulated node, including the Checkpoint-vs-WAL ablation and a full
//! online dump → crash → ROLLFORWARD cycle.

use bytes::Bytes;
use encompass_audit::auditprocess::{spawn_audit_process, AuditConfig, AuditProcess};
use encompass_audit::backout::{spawn_backout_process, BackoutMsg, BackoutReply};
use encompass_audit::dump::{request_dump, spawn_dump_process, DumpReply};
use encompass_audit::monitor::MonitorTrail;
use encompass_audit::rollforward::rollforward_volume;
use encompass_audit::trail::{trail_key, TrailMedia};
use encompass_sim::{
    CpuId, Fault, NodeId, Payload, Pid, Process, SimConfig, SimDuration, SimTime, SystemEvent,
    World,
};
use encompass_storage::audit_api::{AuditMsg, AuditReply, ImageRecord, AUDIT_SERVICE};
use encompass_storage::discprocess::{spawn_disc_process, DiscConfig, DiscReply, DiscRequest};
use encompass_storage::media::{media_key, VolumeMedia};
use encompass_storage::testkit::run_script;
use encompass_storage::types::{FileDef, FileOrganization, RecoveryMode, Transid, VolumeRef};
use encompass_storage::Catalog;
use guardian::{Checkpointed, PairHandle, Rpc, Target, TimerOutcome};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

fn txn(seq: u64) -> Transid {
    Transid {
        home_node: NodeId(0),
        cpu: 0,
        seq,
    }
}

const WAIT: SimDuration = SimDuration::from_millis(200);

fn setup(mode: RecoveryMode) -> (World, NodeId, Target) {
    setup_with(mode, SimConfig::default())
}

fn setup_with(mode: RecoveryMode, sim: SimConfig) -> (World, NodeId, Target) {
    let mut w = World::new(sim);
    let n = w.add_node(4);
    let vol = VolumeRef::new(n, "$DATA");
    let mut catalog = Catalog::new();
    catalog.add(FileDef::key_sequenced("accounts", vol.clone()));
    catalog.add(FileDef::entry_sequenced("log", vol.clone()));
    spawn_audit_process(&mut w, n, 2, 3, AuditConfig::default());
    let cfg = DiscConfig {
        recovery_mode: mode,
        audited: true,
        ..DiscConfig::default()
    };
    let h = spawn_disc_process(&mut w, 0, 1, vol, catalog, cfg);
    (w, n, h.target())
}

fn write_workload(t: Transid) -> Vec<DiscRequest> {
    vec![
        DiscRequest::Insert {
            file: "accounts".into(),
            key: b("a"),
            value: b("1"),
            transid: Some(t),
            lock_wait: WAIT,
        },
        DiscRequest::Update {
            file: "accounts".into(),
            key: b("a"),
            value: b("2"),
            transid: Some(t),
        },
        DiscRequest::Insert {
            file: "accounts".into(),
            key: b("b"),
            value: b("9"),
            transid: Some(t),
            lock_wait: WAIT,
        },
        DiscRequest::EndPhase1 { transid: t },
        DiscRequest::ReleaseLocks {
            transid: t,
            commit: true,
        },
    ]
}

#[test]
fn nonstop_mode_defers_forces_to_phase_one() {
    let (mut w, n, target) = setup(RecoveryMode::NonStopCheckpoint);
    let replies = run_script(&mut w, n, 0, target, write_workload(txn(1)));
    w.run_for(SimDuration::from_secs(3));
    assert_eq!(replies.borrow().len(), 5, "{:?}", replies.borrow());
    assert_eq!(replies.borrow()[3], DiscReply::Phase1Done);
    // exactly one group force for the whole transaction
    assert_eq!(w.metrics().get("audit.forces"), 1);
    // and the trail now has the three images
    let trail = w.stable().get::<TrailMedia>(&trail_key(n, 0)).unwrap();
    assert_eq!(trail.txn_images(txn(1)).len(), 3);
}

#[test]
fn wal_mode_forces_every_update() {
    let (mut w, n, target) = setup(RecoveryMode::WalForce);
    let replies = run_script(&mut w, n, 0, target, write_workload(txn(1)));
    w.run_for(SimDuration::from_secs(5));
    assert_eq!(replies.borrow().len(), 5, "{:?}", replies.borrow());
    // one force per write (3 writes), none needed at phase one
    assert_eq!(w.metrics().get("audit.forces"), 3);
    assert_eq!(w.metrics().get("disc.wal_forced_writes"), 3);
}

/// The WAL contract: a write is answered only once its images are on the
/// trail. Checked after every event, so an answer sent before the force
/// completes is caught the moment it arrives.
#[test]
fn wal_mode_answers_a_write_only_once_its_images_are_forced() {
    let (mut w, n, target) = setup(RecoveryMode::WalForce);
    let t = txn(1);
    let replies = run_script(&mut w, n, 0, target, write_workload(t));
    let mut answered = 0;
    while w.now().as_micros() < 5_000_000 && w.step() {
        let got = replies.borrow().len();
        // the first three replies answer writes of one image each
        if got > answered && got <= 3 {
            let trail = w.stable().get::<TrailMedia>(&trail_key(n, 0));
            let forced = trail.map_or(0, |trail| trail.txn_images(t).len());
            assert!(
                forced >= got,
                "write {got} answered with {forced} image(s) on the trail"
            );
        }
        answered = got;
    }
    assert_eq!(answered, 5, "{:?}", replies.borrow());
}

/// Two inserts into one entry-sequenced file, from two clients, arriving
/// while the first one's force is still in progress (both are sent at
/// once; a force takes a disc access): each takes its own entry number,
/// and both records survive the commit.
#[test]
fn wal_mode_inserts_inside_one_force_take_distinct_entry_numbers() {
    let (mut w, n, target) = setup(RecoveryMode::WalForce);
    let scripts: Vec<_> = (1..=2)
        .map(|i| {
            let t = txn(i);
            let script = vec![
                DiscRequest::InsertEntry {
                    file: "log".into(),
                    value: Bytes::from(format!("entry of txn {i}")),
                    transid: Some(t),
                },
                DiscRequest::EndPhase1 { transid: t },
                DiscRequest::ReleaseLocks {
                    transid: t,
                    commit: true,
                },
            ];
            run_script(&mut w, n, i as u8 + 1, target.clone(), script)
        })
        .collect();
    w.run_for(SimDuration::from_secs(5));
    let numbers: Vec<DiscReply> = scripts.iter().map(|r| r.borrow()[0].clone()).collect();
    assert!(
        matches!(numbers[..], [DiscReply::EntryNumber(a), DiscReply::EntryNumber(b)] if a != b),
        "{numbers:?}"
    );
    let media = w
        .stable()
        .get::<VolumeMedia>(&media_key(n, "$DATA"))
        .unwrap();
    let log = media.file("log").expect("the log reached the media");
    assert_eq!(log.scan(&[], None, usize::MAX).len(), 2);
}

/// A WAL write checkpoints its answer with its effects but sends it only
/// at the force ack. A backup created from a snapshot in between must
/// still know the answer: when the primary then dies, the retransmitted
/// insert is answered `Ok` from memory, not re-run into `DuplicateKey`.
#[test]
fn wal_mode_snapshot_carries_an_answer_held_for_the_force() {
    let (mut w, n, target) = setup(RecoveryMode::WalForce);
    // the backup's CPU is down when the insert arrives; it reloads, and
    // the fresh backup's snapshot is taken, while the force is under way
    w.inject(Fault::KillCpu(n, CpuId(1)));
    let replies = run_script(
        &mut w,
        n,
        2,
        target,
        vec![DiscRequest::Insert {
            file: "accounts".into(),
            key: b("a"),
            value: b("1"),
            transid: Some(txn(1)),
            lock_wait: WAIT,
        }],
    );
    w.schedule_fault(SimTime::from_micros(2_000), Fault::RestoreCpu(n, CpuId(1)));
    w.schedule_fault(SimTime::from_micros(15_000), Fault::KillCpu(n, CpuId(0)));
    w.run_for(SimDuration::from_secs(3));
    assert_eq!(w.metrics().get("pair.backup_respawned"), 1);
    assert_eq!(*replies.borrow(), vec![DiscReply::Ok]);
}

#[test]
fn group_commit_batches_concurrent_phase_ones() {
    let (mut w, n, target) = setup(RecoveryMode::NonStopCheckpoint);
    // four concurrent transactions from different client processes
    let mut all = Vec::new();
    for i in 0..4u64 {
        let t = txn(i + 1);
        let key = Bytes::from(format!("k{i}"));
        all.push(run_script(
            &mut w,
            n,
            (i % 4) as u8,
            target.clone(),
            vec![
                DiscRequest::Insert {
                    file: "accounts".into(),
                    key,
                    value: b("v"),
                    transid: Some(t),
                    lock_wait: WAIT,
                },
                DiscRequest::EndPhase1 { transid: t },
                DiscRequest::ReleaseLocks {
                    transid: t,
                    commit: true,
                },
            ],
        ));
    }
    w.run_for(SimDuration::from_secs(5));
    for r in &all {
        assert_eq!(r.borrow().len(), 3);
    }
    // group commit: far fewer physical forces than transactions is the
    // point; with near-simultaneous arrivals we expect ≤ 2 forces
    assert!(
        w.metrics().get("audit.forces") <= 2,
        "forces = {}",
        w.metrics().get("audit.forces")
    );
}

#[test]
fn audit_takeover_with_half_filled_boxcar_loses_nothing() {
    // same shape as `setup`, but with a long boxcar window so the primary
    // dies while the window is still open and the boxcar half-filled
    let mut w = World::new(SimConfig::default());
    let n = w.add_node(4);
    let vol = VolumeRef::new(n, "$DATA");
    let mut catalog = Catalog::new();
    catalog.add(FileDef::key_sequenced("accounts", vol.clone()));
    spawn_audit_process(
        &mut w,
        n,
        2,
        3,
        AuditConfig {
            group_commit_window: SimDuration::from_millis(300),
            ..AuditConfig::default()
        },
    );
    let cfg = DiscConfig {
        recovery_mode: RecoveryMode::NonStopCheckpoint,
        audited: true,
        ..DiscConfig::default()
    };
    let h = spawn_disc_process(&mut w, 0, 1, vol, catalog, cfg);
    let target = h.target();

    // two transactions reach phase one inside the same window
    let mut scripts = Vec::new();
    for i in 0..2u64 {
        let t = txn(i + 1);
        scripts.push(run_script(
            &mut w,
            n,
            i as u8,
            target.clone(),
            vec![
                DiscRequest::Insert {
                    file: "accounts".into(),
                    key: Bytes::from(format!("k{i}")),
                    value: b("v"),
                    transid: Some(t),
                    lock_wait: WAIT,
                },
                DiscRequest::EndPhase1 { transid: t },
                DiscRequest::ReleaseLocks {
                    transid: t,
                    commit: true,
                },
            ],
        ));
    }
    // both force requests have boarded, nothing forced yet: kill the primary
    w.run_for(SimDuration::from_millis(150));
    assert_eq!(
        w.metrics().get("audit.forces"),
        0,
        "window must still be open when the primary dies"
    );
    w.inject(Fault::KillCpu(n, CpuId(2)));
    w.run_for(SimDuration::from_secs(10));

    // every waiter was answered after the takeover
    for (i, r) in scripts.iter().enumerate() {
        assert_eq!(r.borrow().len(), 3, "txn {i}: {:?}", r.borrow());
        assert_eq!(r.borrow()[1], DiscReply::Phase1Done, "txn {i}");
    }
    assert!(w.metrics().get("audit.takeovers") >= 1);
    // the checkpointed boxcar records reached the trail exactly once each:
    // nothing lost with the primary, nothing double-forced on retransmit
    let trail = w.stable().get::<TrailMedia>(&trail_key(n, 0)).unwrap();
    assert_eq!(trail.txn_images(txn(1)).len(), 1);
    assert_eq!(trail.txn_images(txn(2)).len(), 1);
}

#[test]
fn a_boxcar_of_a_hundred_is_held_for_its_whole_window() {
    // 100 transactions reach phase one together under a 300 ms window:
    // however many board, the boxcar forces once, when its window ends
    let mut w = World::new(SimConfig::default());
    let n = w.add_node(4);
    let vol = VolumeRef::new(n, "$DATA");
    let mut catalog = Catalog::new();
    catalog.add(FileDef::key_sequenced("accounts", vol.clone()));
    spawn_audit_process(
        &mut w,
        n,
        2,
        3,
        AuditConfig {
            group_commit_window: SimDuration::from_millis(300),
            ..AuditConfig::default()
        },
    );
    let cfg = DiscConfig {
        recovery_mode: RecoveryMode::NonStopCheckpoint,
        audited: true,
        ..DiscConfig::default()
    };
    let h = spawn_disc_process(&mut w, 0, 1, vol, catalog, cfg);
    let target = h.target();

    let phase1 = |i: u64| {
        vec![
            DiscRequest::Insert {
                file: "accounts".into(),
                key: Bytes::from(format!("k{i}")),
                value: b("v"),
                transid: Some(txn(i)),
                lock_wait: WAIT,
            },
            DiscRequest::EndPhase1 { transid: txn(i) },
            DiscRequest::ReleaseLocks {
                transid: txn(i),
                commit: true,
            },
        ]
    };
    let scripts: Vec<_> = (1..=100)
        .map(|i| run_script(&mut w, n, (i % 4) as u8, target.clone(), phase1(i)))
        .collect();
    // the first force request arms the window a little after t = 0, and
    // by t = 100 ms every transaction has boarded
    w.run_for(SimDuration::from_millis(100));
    assert_eq!(w.metrics().get("audit.force_txn"), 100, "all on board");
    // t = 300 ms: just before the window ends, nothing is forced
    w.run_for(SimDuration::from_millis(200));
    assert_eq!(
        w.metrics().get("audit.forces"),
        0,
        "forced before its window"
    );
    // the window ends and one force carries all 100
    w.run_for(SimDuration::from_millis(500));
    assert_eq!(w.metrics().get("audit.forces"), 1);
    assert_eq!(w.metrics().get("audit.boxcar_size.count"), 1);
    assert_eq!(w.metrics().get("audit.boxcar_size.sum"), 100);
    for (i, r) in scripts.iter().enumerate() {
        assert_eq!(r.borrow().len(), 3, "txn {}: {:?}", i + 1, r.borrow());
        assert_eq!(r.borrow()[1], DiscReply::Phase1Done, "txn {}", i + 1);
    }
}

#[test]
fn partition_takeover_with_half_filled_boxcar_per_partition_loses_nothing() {
    // Two volumes mapped to two trail partitions, one transaction parked
    // in each partition's open boxcar, then the primary dies: the backup
    // must answer every waiter from its checkpointed per-partition state,
    // and each partition's trail must hold its images exactly once.
    let mut w = World::new(SimConfig::default());
    let n = w.add_node(4);
    let vol_a = VolumeRef::new(n, "$DATA");
    let vol_b = VolumeRef::new(n, "$DATB");
    let mut catalog = Catalog::new();
    catalog.add(FileDef::key_sequenced("accounts", vol_a.clone()));
    catalog.add(FileDef::key_sequenced("ledger", vol_b.clone()));
    let mut partition_of = std::collections::BTreeMap::new();
    partition_of.insert("$DATA".into(), 0usize);
    partition_of.insert("$DATB".into(), 1usize);
    spawn_audit_process(
        &mut w,
        n,
        2,
        3,
        AuditConfig {
            group_commit_window: SimDuration::from_millis(300),
            partitions: 2,
            partition_of,
            ..AuditConfig::default()
        },
    );
    let cfg = DiscConfig {
        recovery_mode: RecoveryMode::NonStopCheckpoint,
        audited: true,
        ..DiscConfig::default()
    };
    let ha = spawn_disc_process(&mut w, 0, 1, vol_a, catalog.clone(), cfg.clone());
    let hb = spawn_disc_process(&mut w, 1, 2, vol_b, catalog, cfg);

    // one transaction per volume, both boxcars half-filled and waiting
    let script = |file: &'static str, i: u64| {
        vec![
            DiscRequest::Insert {
                file: file.into(),
                key: Bytes::from(format!("k{i}")),
                value: b("v"),
                transid: Some(txn(i)),
                lock_wait: WAIT,
            },
            DiscRequest::EndPhase1 { transid: txn(i) },
            DiscRequest::ReleaseLocks {
                transid: txn(i),
                commit: true,
            },
        ]
    };
    let ra = run_script(&mut w, n, 0, ha.target(), script("accounts", 1));
    let rb = run_script(&mut w, n, 1, hb.target(), script("ledger", 2));
    w.run_for(SimDuration::from_millis(150));
    assert_eq!(
        w.metrics().get("audit.forces"),
        0,
        "both windows must still be open when the primary dies"
    );
    w.inject(Fault::KillCpu(n, CpuId(2)));
    w.run_for(SimDuration::from_secs(10));

    for (name, r) in [("a", &ra), ("b", &rb)] {
        assert_eq!(r.borrow().len(), 3, "txn {name}: {:?}", r.borrow());
        assert_eq!(r.borrow()[1], DiscReply::Phase1Done, "txn {name}");
    }
    assert!(w.metrics().get("audit.takeovers") >= 1);
    // each partition trail holds exactly its own volume's image, once
    let p0 = w.stable().get::<TrailMedia>(&trail_key(n, 0)).unwrap();
    let p1 = w.stable().get::<TrailMedia>(&trail_key(n, 1)).unwrap();
    assert_eq!(p0.txn_images(txn(1)).len(), 1);
    assert_eq!(p0.txn_images(txn(2)).len(), 0);
    assert_eq!(p1.txn_images(txn(2)).len(), 1);
    assert_eq!(p1.txn_images(txn(1)).len(), 0);
}

/// Drives a Backout request and records the reply.
struct BackoutDriver {
    node: NodeId,
    transid: Transid,
    rpc: Rpc<BackoutMsg, BackoutReply>,
    done: Rc<RefCell<bool>>,
}
impl Process for BackoutDriver {
    fn on_start(&mut self, ctx: &mut encompass_sim::Ctx<'_>) {
        ctx.subscribe_system();
        self.rpc.call_persistent(
            ctx,
            Target::new(self.node, "$BACKOUT".into()),
            BackoutMsg::Backout {
                transid: self.transid,
                volumes: vec![VolumeRef::new(self.node, "$DATA")],
            },
            (),
        );
    }
    fn on_message(&mut self, ctx: &mut encompass_sim::Ctx<'_>, _src: Pid, payload: Payload) {
        if let Ok(c) = self.rpc.accept(ctx, payload) {
            assert_eq!(c.body, BackoutReply::Done);
            *self.done.borrow_mut() = true;
        }
    }
    fn on_timer(&mut self, ctx: &mut encompass_sim::Ctx<'_>, _t: encompass_sim::TimerId, tag: u64) {
        let _ = matches!(self.rpc.on_timer(ctx, tag), TimerOutcome::Resent);
    }
    fn on_system(&mut self, ctx: &mut encompass_sim::Ctx<'_>, ev: SystemEvent) {
        self.rpc.on_system(ctx, ev);
    }
}

#[test]
fn backout_restores_before_images_via_audit_trail() {
    let (mut w, n, target) = setup(RecoveryMode::NonStopCheckpoint);
    spawn_backout_process(&mut w, n, 0, 1);
    // committed base value
    let t1 = txn(1);
    let _ = run_script(
        &mut w,
        n,
        0,
        target.clone(),
        vec![
            DiscRequest::Insert {
                file: "accounts".into(),
                key: b("acct"),
                value: b("100"),
                transid: Some(t1),
                lock_wait: WAIT,
            },
            DiscRequest::EndPhase1 { transid: t1 },
            DiscRequest::ReleaseLocks {
                transid: t1,
                commit: true,
            },
        ],
    );
    w.run_for(SimDuration::from_secs(2));
    // t2 updates then is backed out
    let t2 = txn(2);
    let _ = run_script(
        &mut w,
        n,
        1,
        target.clone(),
        vec![
            DiscRequest::ReadLock {
                file: "accounts".into(),
                key: b("acct"),
                transid: t2,
                lock_wait: WAIT,
            },
            DiscRequest::Update {
                file: "accounts".into(),
                key: b("acct"),
                value: b("999"),
                transid: Some(t2),
            },
        ],
    );
    w.run_for(SimDuration::from_secs(1));
    let done = Rc::new(RefCell::new(false));
    w.spawn(
        n,
        2,
        Box::new(BackoutDriver {
            node: n,
            transid: t2,
            rpc: Rpc::local(7),
            done: done.clone(),
        }),
    );
    w.run_for(SimDuration::from_secs(2));
    assert!(*done.borrow(), "backout completed");
    // after lock release, the committed value is visible again
    let r = run_script(
        &mut w,
        n,
        3,
        target,
        vec![
            DiscRequest::ReleaseLocks {
                transid: t2,
                commit: false,
            },
            DiscRequest::Read {
                file: "accounts".into(),
                key: b("acct"),
            },
        ],
    );
    w.run_for(SimDuration::from_secs(2));
    assert_eq!(r.borrow()[1], DiscReply::Value(Some(b("100"))));
}

/// A second Backout request for a transaction whose backout is running
/// (a TMP takeover re-drives it under a new request id) takes the running
/// job over: the job answers it, not the first, whose requester died with
/// the old TMP primary. Nothing within a node is resent on a clock, so a
/// request left unanswered would wait for good.
#[test]
fn second_backout_request_for_a_running_transid_takes_the_job_over() {
    let (mut w, n, target) = setup(RecoveryMode::NonStopCheckpoint);
    spawn_backout_process(&mut w, n, 0, 1);
    let t = txn(1);
    let _ = run_script(
        &mut w,
        n,
        1,
        target,
        vec![DiscRequest::Insert {
            file: "accounts".into(),
            key: b("acct"),
            value: b("999"),
            transid: Some(t),
            lock_wait: WAIT,
        }],
    );
    w.run_for(SimDuration::from_secs(1));
    // two requesters at once: distinct request ids, one transid
    let done: Vec<_> = (0..2).map(|_| Rc::new(RefCell::new(false))).collect();
    for (i, done) in done.iter().enumerate() {
        w.spawn(
            n,
            2 + i as u8,
            Box::new(BackoutDriver {
                node: n,
                transid: t,
                rpc: Rpc::local(7 + i as u64),
                done: done.clone(),
            }),
        );
    }
    w.run_for(SimDuration::from_millis(50));
    assert_eq!(w.metrics().get("backout.requests"), 1, "one job");
    assert_eq!(
        (*done[0].borrow(), *done[1].borrow()),
        (false, true),
        "the job answers the request that re-drove it"
    );
    w.run_for(SimDuration::from_secs(1));
    assert!(!*done[0].borrow(), "the first request is not run again");
    assert_eq!(w.metrics().get("backout.completed"), 1);
}

#[test]
fn archive_crash_rollforward_cycle() {
    let (mut w, n, target) = setup(RecoveryMode::NonStopCheckpoint);
    spawn_dump_process(&mut w, n, 2, 3);
    let vol = VolumeRef::new(n, "$DATA");
    // committed transaction before the archive
    let t1 = txn(1);
    let _ = run_script(&mut w, n, 0, target.clone(), write_workload(t1));
    w.run_for(SimDuration::from_secs(1));
    let dump = request_dump(&mut w, 2, 50, &vol, 1);
    w.run_for(SimDuration::from_secs(1));
    assert!(
        matches!(*dump.borrow(), Some(DumpReply::Done { .. })),
        "{:?}",
        dump.borrow()
    );
    // record commit outcomes in the monitor trail (normally the TMP's job)
    MonitorTrail::of(w.stable_mut(), n).record(
        t1,
        true,
        &Checkpointed::reviewed("test stands in for the TMP"),
    );

    // post-archive: t2 commits, t3 updates but never commits
    let t2 = txn(2);
    let _ = run_script(
        &mut w,
        n,
        1,
        target.clone(),
        vec![
            DiscRequest::ReadLock {
                file: "accounts".into(),
                key: b("a"),
                transid: t2,
                lock_wait: WAIT,
            },
            DiscRequest::Update {
                file: "accounts".into(),
                key: b("a"),
                value: b("42"),
                transid: Some(t2),
            },
            DiscRequest::EndPhase1 { transid: t2 },
            DiscRequest::ReleaseLocks {
                transid: t2,
                commit: true,
            },
        ],
    );
    w.run_for(SimDuration::from_secs(2));
    MonitorTrail::of(w.stable_mut(), n).record(
        t2,
        true,
        &Checkpointed::reviewed("test stands in for the TMP"),
    );
    let t3 = txn(3);
    let _ = run_script(
        &mut w,
        n,
        2,
        target,
        vec![
            DiscRequest::ReadLock {
                file: "accounts".into(),
                key: b("b"),
                transid: t3,
                lock_wait: WAIT,
            },
            DiscRequest::Update {
                file: "accounts".into(),
                key: b("b"),
                value: b("dirty"),
                transid: Some(t3),
            },
            // t3's images must reach the trail for rollforward to see them
            DiscRequest::EndPhase1 { transid: t3 },
        ],
    );
    w.run_for(SimDuration::from_secs(2));

    // total node failure: both DISCPROCESS CPUs die, volume content lost
    w.inject(Fault::KillCpu(n, CpuId(0)));
    w.inject(Fault::KillCpu(n, CpuId(1)));
    w.run_for(SimDuration::from_millis(100));
    {
        let media = w
            .stable_mut()
            .get_mut::<VolumeMedia>(&media_key(n, "$DATA"))
            .unwrap();
        media.fail_drive(0);
        media.fail_drive(1);
        media.revive_drive(0);
        media.revive_drive(1);
        assert!(!media.available());
    }

    let report = rollforward_volume(&mut w, &vol, &trail_key(n, 0), 1);
    assert!(
        report.redone >= 1,
        "t2's post-archive update redone: {report:?}"
    );
    assert!(report.rolled_back_txns >= 1, "t3 rolled back: {report:?}");

    let media = w
        .stable()
        .get::<VolumeMedia>(&media_key(n, "$DATA"))
        .unwrap();
    let accounts = media.file("accounts").unwrap();
    assert_eq!(accounts.read(b"a"), Some(b("42")), "committed t2 survives");
    assert_eq!(
        accounts.read(b"b"),
        Some(b("9")),
        "t3's dirty update undone"
    );
}

/// Sends its appends to the node's AUDITPROCESS one at a time, each once
/// the one before is answered, as a DISCPROCESS's lazy appends go.
struct AppendDriver {
    node: NodeId,
    appends: VecDeque<AuditMsg>,
    rpc: Rpc<AuditMsg, AuditReply>,
    answered: Rc<Cell<usize>>,
}

impl AppendDriver {
    fn send_next(&mut self, ctx: &mut encompass_sim::Ctx<'_>) {
        if let Some(msg) = self.appends.pop_front() {
            let target = Target::new(self.node, AUDIT_SERVICE);
            self.rpc.call_persistent(ctx, target, msg, ());
        }
    }
}

impl Process for AppendDriver {
    fn on_start(&mut self, ctx: &mut encompass_sim::Ctx<'_>) {
        ctx.subscribe_system();
        self.send_next(ctx);
    }
    fn on_message(&mut self, ctx: &mut encompass_sim::Ctx<'_>, _src: Pid, payload: Payload) {
        if self.rpc.accept(ctx, payload).is_ok() {
            self.answered.set(self.answered.get() + 1);
            self.send_next(ctx);
        }
    }
    fn on_timer(&mut self, ctx: &mut encompass_sim::Ctx<'_>, _t: encompass_sim::TimerId, tag: u64) {
        let _ = self.rpc.on_timer(ctx, tag);
    }
    fn on_system(&mut self, ctx: &mut encompass_sim::Ctx<'_>, ev: SystemEvent) {
        self.rpc.on_system(ctx, ev);
    }
}

/// Spawn an [`AppendDriver`] on CPU 0; the cell counts its answers.
fn drive_appends(w: &mut World, n: NodeId, appends: Vec<AuditMsg>) -> Rc<Cell<usize>> {
    let answered = Rc::new(Cell::new(0));
    let driver = AppendDriver {
        node: n,
        appends: appends.into(),
        rpc: Rpc::local(1),
        answered: answered.clone(),
    };
    w.spawn(n, 0, Box::new(driver));
    answered
}

/// The one image of transaction `i` on `$DATA`, at sequence `i`.
fn image(n: NodeId, i: u64) -> ImageRecord {
    ImageRecord {
        seq: i,
        transid: txn(i),
        volume: VolumeRef::new(n, "$DATA"),
        file: "accounts".into(),
        organization: FileOrganization::KeySequenced,
        key: Bytes::from(format!("k{i}")),
        before: None,
        after: Some(b("1")),
    }
}

fn append(records: Vec<ImageRecord>, floor: u64) -> AuditMsg {
    AuditMsg::Append {
        records: records.into_iter().collect(),
        force: false,
        floor,
    }
}

fn image_keys(w: &World, n: NodeId) -> usize {
    let audit = guardian::primary::<AuditProcess>(w, n, &AUDIT_SERVICE).expect("a live primary");
    audit.state_report().image_keys
}

fn backup_image_keys(w: &World, audit: &PairHandle) -> usize {
    let backup = guardian::backup::<AuditProcess>(w, audit).expect("a backup");
    backup.state_report().image_keys
}

/// Transactions 1..=10 000 each write one image on one volume, and four
/// are live at a time: every append carries the first image of the oldest
/// live one as its floor. The duplicate filter ends holding the keys of
/// the four live transactions, not one per image ever appended, and still
/// drops a re-sent live image and refuses one below the floor. The backup
/// learns the same keys from the append checkpoints, so after a takeover
/// the new primary still drops the re-sent images.
#[test]
fn the_image_filter_holds_only_live_transactions_keys() {
    const APPENDS: u64 = 10_000;
    const LIVE: u64 = 4;
    let mut w = World::new(SimConfig::default());
    let n = w.add_node(4);
    let audit = spawn_audit_process(&mut w, n, 2, 3, AuditConfig::default());
    let floor = |i: u64| i.saturating_sub(LIVE - 1).max(1);
    let appends = (1..=APPENDS).map(|i| append(vec![image(n, i)], floor(i)));
    let answered = drive_appends(&mut w, n, appends.collect());
    w.run_for(SimDuration::from_secs(60));
    assert_eq!(answered.get(), APPENDS as usize);
    assert_eq!(w.metrics().get("audit.records"), APPENDS);
    assert_eq!(image_keys(&w, n), LIVE as usize, "only the live window");
    assert_eq!(backup_image_keys(&w, &audit), LIVE as usize);

    // a takeover re-sends the live transactions' images: all duplicates;
    // an image below the floor cannot come again, and is refused
    let last = floor(APPENDS);
    let resent: Vec<ImageRecord> = (last..=APPENDS).map(|i| image(n, i)).collect();
    let answered = drive_appends(
        &mut w,
        n,
        vec![
            append(resent.clone(), last),
            append(vec![image(n, last - 1)], last),
        ],
    );
    w.run_for(SimDuration::from_secs(1));
    assert_eq!(answered.get(), 2);
    assert_eq!(w.metrics().get("audit.duplicate_records"), LIVE);
    assert_eq!(w.metrics().get("audit.stale_images"), 1);
    assert_eq!(
        w.metrics().get("audit.records"),
        APPENDS,
        "nothing appended twice"
    );

    // the new primary holds the keys its primary checkpointed
    w.inject(Fault::KillCpu(n, CpuId(2)));
    w.run_for(SimDuration::from_millis(300));
    let answered = drive_appends(&mut w, n, vec![append(resent, last)]);
    w.run_for(SimDuration::from_secs(1));
    assert_eq!(answered.get(), 1);
    assert!(w.metrics().get("audit.takeovers") >= 1);
    assert_eq!(w.metrics().get("audit.duplicate_records"), 2 * LIVE);
    assert_eq!(image_keys(&w, n), LIVE as usize);
}

/// A dump marker belongs to no transaction, so nothing but its append in
/// flight keeps the re-send floor at or below it. With delivery jitter a
/// transaction's first append, sent just after a marker, can overtake it;
/// its floor must not pass the marker, or the marker is refused. (A floor
/// that leaves out the appends in flight refuses 5 to 9 of these markers
/// at seeds 1, 2 and 7.)
#[test]
fn an_append_in_flight_keeps_the_floor_below_it() {
    const ROUNDS: u64 = 400;
    let mut sim = SimConfig::with_seed(7);
    sim.jitter = SimDuration::from_millis(3);
    let (mut w, n, target) = setup_with(RecoveryMode::NonStopCheckpoint, sim);
    let dumps = (1..=ROUNDS).map(|generation| DiscRequest::DumpBegin { generation });
    let dumps = run_script(&mut w, n, 0, target.clone(), dumps.collect());
    let writes = (1..=ROUNDS).flat_map(|i| {
        let t = txn(i);
        [
            DiscRequest::Insert {
                file: "accounts".into(),
                key: Bytes::from(format!("k{i}")),
                value: b("1"),
                transid: Some(t),
                lock_wait: WAIT,
            },
            DiscRequest::EndPhase1 { transid: t },
            DiscRequest::ReleaseLocks {
                transid: t,
                commit: true,
            },
        ]
    });
    let writes = run_script(&mut w, n, 1, target, writes.collect());
    w.run_for(SimDuration::from_secs(300));
    assert_eq!(dumps.borrow().len(), ROUNDS as usize);
    assert_eq!(writes.borrow().len(), 3 * ROUNDS as usize);
    assert_eq!(w.metrics().get("audit.stale_images"), 0);
    assert_eq!(
        w.metrics().get("audit.records"),
        2 * ROUNDS,
        "every marker and image"
    );
}
