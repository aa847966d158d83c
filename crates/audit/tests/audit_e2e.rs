//! End-to-end audit tests: DISCPROCESS + AUDITPROCESS + BACKOUTPROCESS in
//! one simulated node, including the Checkpoint-vs-WAL ablation and a full
//! archive → crash → ROLLFORWARD cycle.

use bytes::Bytes;
use encompass_audit::auditprocess::{spawn_audit_process, AuditConfig, GROUP_COMMIT_MAX};
use encompass_audit::backout::{spawn_backout_process, BackoutMsg, BackoutReply};
use encompass_audit::monitor::MonitorTrail;
use encompass_audit::rollforward::rollforward_volume;
use encompass_audit::trail::{trail_key, TrailMedia};
use encompass_sim::{CpuId, Fault, NodeId, Payload, Pid, Process, SimConfig, SimDuration, World};
use encompass_storage::discprocess::{spawn_disc_process, DiscConfig, DiscReply, DiscRequest};
use encompass_storage::media::{media_key, VolumeMedia};
use encompass_storage::testkit::run_script;
use encompass_storage::types::{FileDef, RecoveryMode, Transid, VolumeRef};
use encompass_storage::Catalog;
use guardian::{Checkpointed, Rpc, Target, TimerOutcome};
use std::cell::RefCell;
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
    let mut w = World::new(SimConfig::default());
    let n = w.add_node(4);
    let vol = VolumeRef::new(n, "$DATA");
    let mut catalog = Catalog::new();
    catalog.add(FileDef::key_sequenced("accounts", vol.clone()));
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
fn stale_window_timer_does_not_close_the_next_boxcar_early() {
    // `GROUP_COMMIT_MAX` force requests fill the boxcar, so the force
    // starts *before* the armed window expires — leaving the window timer
    // live. One more transaction then opens a fresh window. The
    // stale timer from the first window fires mid-way through the new
    // window; it must be ignored, not close the new boxcar ~100ms early.
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
    // t≈0: the first transaction arms the window, the rest fill the
    // boxcar — the force starts early, stranding the window timer (fires
    // ≈ t+300ms)
    let full = GROUP_COMMIT_MAX as u64;
    let mut scripts: Vec<_> = (1..=full)
        .map(|i| run_script(&mut w, n, (i % 4) as u8, target.clone(), phase1(i)))
        .collect();
    w.run_for(SimDuration::from_millis(100));
    assert_eq!(
        w.metrics().get("audit.forces"),
        1,
        "boxcar filled: forced early"
    );
    // t≈100ms: one more transaction arms a fresh window (deadline ≈ 400ms)
    scripts.push(run_script(&mut w, n, 2, target, phase1(full + 1)));
    // t≈360ms: the stale timer has fired (≈300ms) inside the new window;
    // the new boxcar must still be open
    w.run_for(SimDuration::from_millis(260));
    assert_eq!(
        w.metrics().get("audit.forces"),
        1,
        "stale window timer closed the new boxcar early"
    );
    assert_eq!(w.metrics().get("audit.stale_window_ignored"), 1);
    // and the new window still closes on its own deadline
    w.run_for(SimDuration::from_millis(200));
    assert_eq!(w.metrics().get("audit.forces"), 2);
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
        self.rpc.call_persistent(
            ctx,
            Target::Named(self.node, "$BACKOUT".into()),
            BackoutMsg::Backout {
                transid: self.transid,
                volumes: vec![VolumeRef::new(self.node, "$DATA")],
            },
            SimDuration::from_millis(100),
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
            rpc: Rpc::new(7),
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
/// (a TMP takeover re-drives it under a new request id) is dropped
/// unanswered — and leaves nothing behind: its retransmission is admitted
/// as a request of its own once the running job is done, and answered.
#[test]
fn second_backout_request_for_a_running_transid_is_forgotten_not_parked() {
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
                rpc: Rpc::new(7 + i as u64),
                done: done.clone(),
            }),
        );
    }
    w.run_for(SimDuration::from_millis(50));
    assert_eq!(
        w.metrics().get("backout.requests"),
        1,
        "the second was dropped"
    );
    assert_eq!(
        (*done[0].borrow(), *done[1].borrow()),
        (true, false),
        "only the request that started the job is answered by it"
    );
    // the dropped request's retry (100 ms) finds no trace of its first try
    w.run_for(SimDuration::from_secs(1));
    assert!(
        *done[1].borrow(),
        "the retry was admitted afresh and answered"
    );
    assert_eq!(w.metrics().get("backout.requests"), 2);
    assert_eq!(w.metrics().get("backout.completed"), 2);
}

#[test]
fn archive_crash_rollforward_cycle() {
    let (mut w, n, target) = setup(RecoveryMode::NonStopCheckpoint);
    // committed transaction before the archive
    let t1 = txn(1);
    let mut script = write_workload(t1);
    script.push(DiscRequest::Archive { generation: 1 });
    let _ = run_script(&mut w, n, 0, target.clone(), script);
    w.run_for(SimDuration::from_secs(2));
    // record commit outcomes in the monitor trail (normally the TMP's job)
    let now = w.now();
    MonitorTrail::of(w.stable_mut(), n).record(
        t1,
        true,
        now,
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
    let now = w.now();
    MonitorTrail::of(w.stable_mut(), n).record(
        t2,
        true,
        now,
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

    let vol = VolumeRef::new(n, "$DATA");
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
