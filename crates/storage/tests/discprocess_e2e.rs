//! End-to-end DISCPROCESS tests: a real simulated world, a process-pair per
//! volume, scripted clients, and fault injection.

#![allow(
    clippy::wildcard_enum_match_arm,
    reason = "a test names the one variant it expects; any other is the failure it reports"
)]

use bytes::Bytes;
use encompass_sim::{
    CpuId, Ctx, Fault, NodeId, Payload, Pid, Process, SimConfig, SimDuration, SimTime, TimerId,
    World,
};
use encompass_storage::audit_api::{AuditMsg, AuditReply};
use encompass_storage::discprocess::{
    spawn_disc_process, DiscConfig, DiscError, DiscProcess, DiscReply, DiscRequest, DiscStateReport,
};
use encompass_storage::media::{media_key, VolumeMedia};
use encompass_storage::testkit::{run_script, Replies};
use encompass_storage::types::{num_key, FileDef, PartitionSpec, Transid, VolumeRef};
use encompass_storage::Catalog;
use guardian::{Request, Target};

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

fn setup(catalog: Catalog) -> (World, NodeId, Target) {
    let mut w = World::new(SimConfig::default());
    let n = w.add_node(4);
    let vol = VolumeRef::new(n, "$DATA");
    let h = spawn_disc_process(&mut w, 0, 1, vol, catalog, DiscConfig::default());
    (w, n, h.target())
}

fn basic_catalog(node: NodeId) -> Catalog {
    let vol = VolumeRef::new(node, "$DATA");
    let mut c = Catalog::new();
    c.add(FileDef::key_sequenced("accounts", vol.clone()));
    c.add(FileDef::entry_sequenced("history", vol.clone()));
    c.add(FileDef::relative("slots", vol.clone()).unaudited());
    c.add(FileDef::key_sequenced("vendors", vol).with_alternate("region", 0, 2));
    c
}

#[test]
fn transactional_insert_read_update_delete() {
    let node = NodeId(0);
    let (mut w, n, target) = setup(basic_catalog(node));
    let t = txn(1);
    let replies = run_script(
        &mut w,
        n,
        2,
        target,
        vec![
            DiscRequest::Insert {
                file: "accounts".into(),
                key: b("alice"),
                value: b("100"),
                transid: Some(t),
                lock_wait: WAIT,
            },
            DiscRequest::Read {
                file: "accounts".into(),
                key: b("alice"),
            },
            DiscRequest::Update {
                file: "accounts".into(),
                key: b("alice"),
                value: b("150"),
                transid: Some(t),
            },
            DiscRequest::EndPhase1 { transid: t },
            DiscRequest::ReleaseLocks {
                transid: t,
                commit: true,
            },
            DiscRequest::Read {
                file: "accounts".into(),
                key: b("alice"),
            },
        ],
    );
    w.run_for(SimDuration::from_secs(5));
    let r = replies.borrow();
    assert_eq!(r[0], DiscReply::Ok);
    assert_eq!(r[1], DiscReply::Value(Some(b("100"))));
    assert_eq!(r[2], DiscReply::Ok);
    assert_eq!(r[3], DiscReply::Phase1Done);
    assert_eq!(r[4], DiscReply::Ok);
    assert_eq!(r[5], DiscReply::Value(Some(b("150"))));
}

#[test]
fn update_without_lock_is_rejected_on_audited_files() {
    let node = NodeId(0);
    let (mut w, n, target) = setup(basic_catalog(node));
    let t = txn(1);
    let replies = run_script(
        &mut w,
        n,
        2,
        target,
        vec![
            // no prior insert/readlock by this transaction
            DiscRequest::Update {
                file: "accounts".into(),
                key: b("ghost"),
                value: b("1"),
                transid: Some(t),
            },
            // and audited writes without a transid are rejected outright
            DiscRequest::Insert {
                file: "accounts".into(),
                key: b("ghost"),
                value: b("1"),
                transid: None,
                lock_wait: WAIT,
            },
        ],
    );
    w.run_for(SimDuration::from_secs(2));
    let r = replies.borrow();
    assert_eq!(r[0], DiscReply::Err(DiscError::LockRequired));
    assert_eq!(r[1], DiscReply::Err(DiscError::NeedTransid));
}

#[test]
fn lock_conflict_waits_until_release() {
    let node = NodeId(0);
    let (mut w, n, target) = setup(basic_catalog(node));
    let t1 = txn(1);
    let t2 = txn(2);
    // t1 inserts and holds the lock
    let r1 = run_script(
        &mut w,
        n,
        2,
        target.clone(),
        vec![DiscRequest::Insert {
            file: "accounts".into(),
            key: b("k"),
            value: b("v1"),
            transid: Some(t1),
            lock_wait: WAIT,
        }],
    );
    w.run_for(SimDuration::from_millis(50));
    // t2 tries to lock the same record: parks
    let r2 = run_script(
        &mut w,
        n,
        3,
        target.clone(),
        vec![DiscRequest::ReadLock {
            file: "accounts".into(),
            key: b("k"),
            transid: t2,
            lock_wait: SimDuration::from_secs(2),
        }],
    );
    w.run_for(SimDuration::from_millis(100));
    assert_eq!(r1.borrow().len(), 1);
    assert_eq!(r2.borrow().len(), 0, "t2 is parked on the lock");
    // t1 releases: t2's read-lock completes and sees t1's value
    let _ = run_script(
        &mut w,
        n,
        2,
        target,
        vec![DiscRequest::ReleaseLocks {
            transid: t1,
            commit: true,
        }],
    );
    w.run_for(SimDuration::from_secs(2));
    assert_eq!(r2.borrow()[0], DiscReply::Value(Some(b("v1"))));
}

/// Keeps every reply it is sent.
struct Collector(Replies);

impl Process for Collector {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        let reply = payload.expect::<guardian::RpcReply<DiscReply>>();
        self.0.borrow_mut().push(reply.body);
    }
}

/// A request retransmitted while it is parked on a lock queue is not run
/// again and not answered again: the parked record answers it, once, and
/// from then on the volume owes nothing.
#[test]
fn request_retransmitted_while_parked_on_a_lock_is_answered_once() {
    let node = NodeId(0);
    let (mut w, n, target) = setup(basic_catalog(node));
    let (t1, t2) = (txn(1), txn(2));
    // t1 inserts and holds the lock
    let _ = run_script(
        &mut w,
        n,
        2,
        target.clone(),
        vec![DiscRequest::Insert {
            file: "accounts".into(),
            key: b("k"),
            value: b("v1"),
            transid: Some(t1),
            lock_wait: WAIT,
        }],
    );
    w.run_for(SimDuration::from_millis(50));
    assert_eq!(state_of(&w, n).pending_requests, 0);

    // t2's lock request parks; the same request is sent twice more
    let replies = Replies::default();
    let collector = w.spawn(n, 3, Box::new(Collector(replies.clone())));
    let disc = w.lookup_name(n, "$DATA").expect("disc process");
    let ops_before = w.metrics().get("disc.ops");
    for _ in 0..3 {
        let request = Request {
            id: 77,
            from: collector,
            body: DiscRequest::ReadLock {
                file: "accounts".into(),
                key: b("k"),
                transid: t2,
                lock_wait: SimDuration::from_secs(2),
            },
        };
        w.send_external(disc, Payload::new(request));
        w.run_for(SimDuration::from_millis(30));
    }
    assert_eq!(
        w.metrics().get("disc.ops"),
        ops_before + 3,
        "retransmissions count as ops"
    );
    assert_eq!(w.metrics().get("disc.lock_waits"), 1, "parked once");
    assert!(replies.borrow().is_empty(), "t2 is parked on the lock");
    assert_eq!(
        state_of(&w, n).pending_requests,
        1,
        "one request owed, however often it was sent"
    );

    // t1 releases: the parked request completes, once
    let _ = run_script(
        &mut w,
        n,
        2,
        target.clone(),
        vec![DiscRequest::ReleaseLocks {
            transid: t1,
            commit: true,
        }],
    );
    w.run_for(SimDuration::from_secs(1));
    assert_eq!(
        replies.borrow().as_slice(),
        &[DiscReply::Value(Some(b("v1")))]
    );
    assert_eq!(state_of(&w, n).pending_requests, 0);
}

#[test]
fn lock_timeout_signals_deadlock() {
    let node = NodeId(0);
    let (mut w, n, target) = setup(basic_catalog(node));
    let t1 = txn(1);
    let t2 = txn(2);
    let _ = run_script(
        &mut w,
        n,
        2,
        target.clone(),
        vec![DiscRequest::Insert {
            file: "accounts".into(),
            key: b("hot"),
            value: b("v"),
            transid: Some(t1),
            lock_wait: WAIT,
        }],
    );
    w.run_for(SimDuration::from_millis(20));
    let r2 = run_script(
        &mut w,
        n,
        3,
        target,
        vec![DiscRequest::ReadLock {
            file: "accounts".into(),
            key: b("hot"),
            transid: t2,
            lock_wait: SimDuration::from_millis(80),
        }],
    );
    w.run_for(SimDuration::from_secs(2));
    assert_eq!(r2.borrow()[0], DiscReply::Err(DiscError::LockTimeout));
    assert_eq!(w.metrics().get("disc.lock_timeouts"), 1);
}

#[test]
fn entry_sequenced_append_and_scan() {
    let node = NodeId(0);
    let (mut w, n, target) = setup(basic_catalog(node));
    let t = txn(1);
    let replies = run_script(
        &mut w,
        n,
        2,
        target,
        vec![
            DiscRequest::InsertEntry {
                file: "history".into(),
                value: b("first"),
                transid: Some(t),
            },
            DiscRequest::InsertEntry {
                file: "history".into(),
                value: b("second"),
                transid: Some(t),
            },
            DiscRequest::ReleaseLocks {
                transid: t,
                commit: true,
            },
            DiscRequest::ReadRange {
                file: "history".into(),
                low: num_key(0),
                high: None,
                limit: 10,
            },
        ],
    );
    w.run_for(SimDuration::from_secs(2));
    let r = replies.borrow();
    assert_eq!(r[0], DiscReply::EntryNumber(0));
    assert_eq!(r[1], DiscReply::EntryNumber(1));
    match &r[3] {
        DiscReply::Entries(es) => {
            assert_eq!(es.len(), 2);
            assert_eq!(es[0], (num_key(0), b("first")));
            assert_eq!(es[1], (num_key(1), b("second")));
        }
        other => panic!("expected entries, got {other:?}"),
    }
}

#[test]
fn alternate_key_index_is_maintained() {
    let node = NodeId(0);
    let (mut w, n, target) = setup(basic_catalog(node));
    let t = txn(1);
    let replies = run_script(
        &mut w,
        n,
        2,
        target,
        vec![
            DiscRequest::Insert {
                file: "vendors".into(),
                key: b("acme"),
                value: b("CAdata"),
                transid: Some(t),
                lock_wait: WAIT,
            },
            DiscRequest::Insert {
                file: "vendors".into(),
                key: b("bolt"),
                value: b("NYdata"),
                transid: Some(t),
                lock_wait: WAIT,
            },
            DiscRequest::ReleaseLocks {
                transid: t,
                commit: true,
            },
            // scan the index by region prefix "CA"
            DiscRequest::ReadRange {
                file: "vendors.region".into(),
                low: b("CA"),
                high: Some(b("CA\u{ff}")),
                limit: 10,
            },
        ],
    );
    w.run_for(SimDuration::from_secs(2));
    let r = replies.borrow();
    match &r[3] {
        DiscReply::Entries(es) => {
            assert_eq!(es.len(), 1);
            assert_eq!(es[0].0, b("CAacme"), "index key = altkey || primary key");
        }
        other => panic!("expected entries, got {other:?}"),
    }
    // move acme to NY: index entry follows
    let t2 = txn(2);
    let replies2 = run_script(
        &mut w,
        n,
        3,
        Target::Named(n, "$DATA".into()),
        vec![
            DiscRequest::ReadLock {
                file: "vendors".into(),
                key: b("acme"),
                transid: t2,
                lock_wait: WAIT,
            },
            DiscRequest::Update {
                file: "vendors".into(),
                key: b("acme"),
                value: b("NYdata2"),
                transid: Some(t2),
            },
            DiscRequest::ReleaseLocks {
                transid: t2,
                commit: true,
            },
            DiscRequest::ReadRange {
                file: "vendors.region".into(),
                low: b(""),
                high: None,
                limit: 10,
            },
        ],
    );
    w.run_for(SimDuration::from_secs(2));
    let r2 = replies2.borrow();
    match &r2[3] {
        DiscReply::Entries(es) => {
            let keys: Vec<&[u8]> = es.iter().map(|(k, _)| k.as_ref()).collect();
            assert_eq!(keys, vec![b"NYacme".as_ref(), b"NYbolt".as_ref()]);
        }
        other => panic!("expected entries, got {other:?}"),
    }
}

#[test]
fn partitioned_file_rejects_foreign_keys() {
    let node = NodeId(0);
    let vol0 = VolumeRef::new(node, "$DATA");
    let vol1 = VolumeRef::new(node, "$OTHER");
    let mut c = Catalog::new();
    c.add(FileDef::key_sequenced("stock", vol0).partitioned(vec![
        PartitionSpec {
            low_key: Bytes::new(),
            volume: VolumeRef::new(node, "$DATA"),
        },
        PartitionSpec {
            low_key: b("m"),
            volume: vol1,
        },
    ]));
    let (mut w, n, target) = setup(c);
    let t = txn(1);
    let replies = run_script(
        &mut w,
        n,
        2,
        target,
        vec![
            DiscRequest::Insert {
                file: "stock".into(),
                key: b("apple"),
                value: b("1"),
                transid: Some(t),
                lock_wait: WAIT,
            },
            // "zebra" belongs to the $OTHER partition
            DiscRequest::Insert {
                file: "stock".into(),
                key: b("zebra"),
                value: b("1"),
                transid: Some(t),
                lock_wait: WAIT,
            },
        ],
    );
    w.run_for(SimDuration::from_secs(2));
    let r = replies.borrow();
    assert_eq!(r[0], DiscReply::Ok);
    assert_eq!(r[1], DiscReply::Err(DiscError::WrongVolume));
}

#[test]
fn flush_reaches_media_and_survives_double_cpu_loss() {
    let node = NodeId(0);
    let (mut w, n, target) = setup(basic_catalog(node));
    let t = txn(1);
    let _ = run_script(
        &mut w,
        n,
        2,
        target,
        vec![
            DiscRequest::Insert {
                file: "accounts".into(),
                key: b("flushed"),
                value: b("v"),
                transid: Some(t),
                lock_wait: WAIT,
            },
            DiscRequest::ReleaseLocks {
                transid: t,
                commit: true,
            },
        ],
    );
    // plenty of time for the background flush
    w.run_for(SimDuration::from_secs(2));
    assert!(w.metrics().get("disc.flush_writes") >= 1);
    // kill both CPUs of the pair — the media still holds the record
    w.inject(Fault::KillCpu(n, CpuId(0)));
    w.inject(Fault::KillCpu(n, CpuId(1)));
    w.run_for(SimDuration::from_millis(100));
    let media = w
        .stable()
        .get::<VolumeMedia>(&media_key(n, "$DATA"))
        .expect("media survives");
    assert_eq!(
        media.file("accounts").and_then(|f| f.read(b"flushed")),
        Some(b("v"))
    );
}

#[test]
fn takeover_preserves_overlay_and_locks() {
    let node = NodeId(0);
    let (mut w, n, target) = setup(basic_catalog(node));
    let t = txn(1);
    // perform an update, then kill the primary before any flush
    let cfg_check = run_script(
        &mut w,
        n,
        2,
        target.clone(),
        vec![DiscRequest::Insert {
            file: "accounts".into(),
            key: b("x"),
            value: b("pre-takeover"),
            transid: Some(t),
            lock_wait: WAIT,
        }],
    );
    w.run_for(SimDuration::from_millis(20));
    assert_eq!(cfg_check.borrow().len(), 1);
    w.inject(Fault::KillCpu(n, CpuId(0)));
    w.run_for(SimDuration::from_millis(50));
    // the backup serves reads of the unflushed record, and still enforces
    // t's lock against another transaction
    let t2 = txn(2);
    let replies = run_script(
        &mut w,
        n,
        3,
        target,
        vec![
            DiscRequest::Read {
                file: "accounts".into(),
                key: b("x"),
            },
            DiscRequest::ReadLock {
                file: "accounts".into(),
                key: b("x"),
                transid: t2,
                lock_wait: SimDuration::from_millis(50),
            },
        ],
    );
    w.run_for(SimDuration::from_secs(3));
    let r = replies.borrow();
    assert_eq!(r[0], DiscReply::Value(Some(b("pre-takeover"))));
    assert_eq!(
        r[1],
        DiscReply::Err(DiscError::LockTimeout),
        "t1's lock survived the takeover"
    );
    assert_eq!(w.metrics().get("pair.takeovers"), 1);
}

/// A write the old primary answered is not run again by the new one: the
/// backup logged its reply from the checkpoint, and the new primary
/// replays it to the client's retransmission. (An entry-sequenced append
/// run twice would write a second entry and answer its number.)
#[test]
fn write_answered_before_takeover_is_replayed_not_rerun() {
    let (mut w, n, _) = setup(basic_catalog(NodeId(0)));
    let replies = Replies::default();
    let client = w.spawn(n, 3, Box::new(Collector(replies.clone())));
    let write = || {
        Payload::new(Request {
            id: 91,
            from: client,
            body: DiscRequest::InsertEntry {
                file: "history".into(),
                value: b("once"),
                transid: Some(txn(1)),
            },
        })
    };
    // the backup is up before the write, so it learns the answer from the
    // write's checkpoint, not from a snapshot
    w.run_for(SimDuration::from_millis(50));
    let old = w.lookup_name(n, "$DATA").expect("disc process");
    w.send_external(old, write());
    w.run_for(SimDuration::from_millis(20));
    assert_eq!(replies.borrow().as_slice(), &[DiscReply::EntryNumber(0)]);
    let writes = w.metrics().get("disc.writes");

    w.inject(Fault::KillCpu(n, CpuId(0)));
    w.run_for(SimDuration::from_millis(50));
    assert_eq!(w.metrics().get("pair.takeovers"), 1);
    let new = w.lookup_name(n, "$DATA").expect("the backup took the name");
    assert_ne!(new, old);
    w.send_external(new, write());
    w.run_for(SimDuration::from_millis(20));
    assert_eq!(
        w.metrics().get("disc.writes"),
        writes,
        "the write did not run again"
    );
    assert_eq!(
        replies.borrow().as_slice(),
        &[DiscReply::EntryNumber(0), DiscReply::EntryNumber(0)],
        "the original reply, replayed"
    );
    let state = state_of(&w, n);
    assert_eq!((state.reply_cache, state.pending_requests), (1, 0));
}

/// Stand-in AUDITPROCESS: acknowledges appends and forces, each after
/// `delay` (one timer per request, answered in arrival order).
struct SlowAudit {
    delay: SimDuration,
    parked: std::collections::VecDeque<(u64, Pid, AuditReply)>,
}

impl Process for SlowAudit {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.register_name("$AUDIT");
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        let req = payload.expect::<Request<AuditMsg>>();
        let ack = match req.body {
            AuditMsg::Append { .. } => AuditReply::Appended,
            AuditMsg::ForceTxn { .. } => AuditReply::Forced,
            other => panic!("the volume never sends {other:?}"),
        };
        self.parked.push_back((req.id, req.from, ack));
        ctx.set_timer(self.delay, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, _tag: u64) {
        if let Some((id, to, ack)) = self.parked.pop_front() {
            let _ = ctx.send(to, Payload::new(guardian::RpcReply { id, body: ack }));
        }
    }
}

/// What `$DATA`'s primary on `n` retains right now.
fn state_of(w: &World, n: NodeId) -> DiscStateReport {
    guardian::primary::<DiscProcess>(w, n, "$DATA")
        .expect("a live $DATA primary")
        .state_report()
}

/// One record per live transaction across a takeover: the primary dies
/// mid-transaction, the new primary re-sends the retained image, the
/// transaction is released while that append is still unacknowledged, and
/// once the ack lands nothing of the transaction is left.
#[test]
fn release_after_takeover_leaves_no_transaction_state() {
    let mut w = World::new(SimConfig::default());
    let n = w.add_node(4);
    let cfg = DiscConfig {
        audited: true,
        ..DiscConfig::default()
    };
    let vol = VolumeRef::new(n, "$DATA");
    let target = spawn_disc_process(&mut w, 0, 1, vol, basic_catalog(n), cfg).target();
    let ack_delay = SimDuration::from_millis(20);
    w.spawn(
        n,
        2,
        Box::new(SlowAudit {
            delay: ack_delay,
            parked: std::collections::VecDeque::new(),
        }),
    );
    let t = txn(1);
    let _ = run_script(
        &mut w,
        n,
        3,
        target.clone(),
        vec![DiscRequest::Insert {
            file: "accounts".into(),
            key: b("x"),
            value: b("v"),
            transid: Some(t),
            lock_wait: WAIT,
        }],
    );
    w.run_for(SimDuration::from_millis(100));
    let live = state_of(&w, n);
    assert_eq!(
        (live.live_txns, live.unforced_records, live.locks_held),
        (1, 1, 1)
    );

    // the primary dies; the backup takes over (failure detection takes
    // 5ms) and re-sends t's image, whose ack is `ack_delay` away
    w.inject(Fault::KillCpu(n, CpuId(0)));
    w.run_for(SimDuration::from_millis(6));
    assert_eq!(w.metrics().get("pair.takeovers"), 1);
    assert_eq!(w.metrics().get("disc.takeover_image_resends"), 1);
    let released = run_script(
        &mut w,
        n,
        3,
        target.clone(),
        vec![DiscRequest::ReleaseLocks {
            transid: t,
            commit: true,
        }],
    );
    w.run_for(SimDuration::from_millis(10));
    assert_eq!(released.borrow().first(), Some(&DiscReply::Ok));
    // released, but the record lingers until the re-sent append is acked
    let settling = state_of(&w, n);
    assert_eq!(
        (
            settling.live_txns,
            settling.unforced_records,
            settling.locks_held
        ),
        (1, 0, 0)
    );
    assert_eq!(settling.settled_fences, 1);
    assert_eq!(
        settling.snapshot_undo, 1,
        "the committed image moved to the ring"
    );

    w.run_for(SimDuration::from_millis(100));
    let settled = state_of(&w, n);
    assert_eq!(
        (
            settled.live_txns,
            settled.unforced_records,
            settled.locks_held
        ),
        (0, 0, 0),
        "the append ack removed the last trace of the transaction"
    );
}

#[test]
fn mirrored_drive_failure_is_transparent_but_double_failure_stops_io() {
    let node = NodeId(0);
    let (mut w, n, target) = setup(basic_catalog(node));
    let t = txn(1);
    let _ = run_script(
        &mut w,
        n,
        2,
        target.clone(),
        vec![
            DiscRequest::Insert {
                file: "accounts".into(),
                key: b("m"),
                value: b("1"),
                transid: Some(t),
                lock_wait: WAIT,
            },
            DiscRequest::ReleaseLocks {
                transid: t,
                commit: true,
            },
        ],
    );
    w.run_for(SimDuration::from_secs(1));
    // one drive fails: service continues
    w.stable_mut()
        .get_mut::<VolumeMedia>(&media_key(n, "$DATA"))
        .unwrap()
        .fail_drive(0);
    let r = run_script(
        &mut w,
        n,
        3,
        target.clone(),
        vec![DiscRequest::Read {
            file: "accounts".into(),
            key: b("m"),
        }],
    );
    w.run_for(SimDuration::from_secs(1));
    assert_eq!(r.borrow()[0], DiscReply::Value(Some(b("1"))));
    // second drive fails: VolumeDown
    w.stable_mut()
        .get_mut::<VolumeMedia>(&media_key(n, "$DATA"))
        .unwrap()
        .fail_drive(1);
    let r2 = run_script(
        &mut w,
        n,
        3,
        target,
        vec![DiscRequest::Read {
            file: "accounts".into(),
            key: b("m"),
        }],
    );
    w.run_for(SimDuration::from_secs(1));
    assert_eq!(r2.borrow()[0], DiscReply::Err(DiscError::VolumeDown));
}

#[test]
fn undo_restores_before_images() {
    use encompass_storage::audit_api::ImageRecord;
    use encompass_storage::types::FileOrganization;
    let node = NodeId(0);
    let (mut w, n, target) = setup(basic_catalog(node));
    let t = txn(1);
    let replies = run_script(
        &mut w,
        n,
        2,
        target,
        vec![
            DiscRequest::Insert {
                file: "accounts".into(),
                key: b("u"),
                value: b("orig"),
                transid: Some(t),
                lock_wait: WAIT,
            },
            DiscRequest::ReleaseLocks {
                transid: t,
                commit: true,
            },
            // a second transaction updates, then is "backed out" via Undo
            DiscRequest::ReadLock {
                file: "accounts".into(),
                key: b("u"),
                transid: txn(2),
                lock_wait: WAIT,
            },
            DiscRequest::Update {
                file: "accounts".into(),
                key: b("u"),
                value: b("dirty"),
                transid: Some(txn(2)),
            },
            DiscRequest::Undo {
                images: vec![ImageRecord {
                    seq: 99,
                    transid: txn(2),
                    volume: VolumeRef::new(n, "$DATA"),
                    file: "accounts".into(),
                    organization: FileOrganization::KeySequenced,
                    key: b("u"),
                    before: Some(b("orig")),
                    after: Some(b("dirty")),
                }],
            },
            DiscRequest::ReleaseLocks {
                transid: txn(2),
                commit: false,
            },
            DiscRequest::Read {
                file: "accounts".into(),
                key: b("u"),
            },
        ],
    );
    w.run_for(SimDuration::from_secs(2));
    let r = replies.borrow();
    assert_eq!(*r.last().unwrap(), DiscReply::Value(Some(b("orig"))));
}

#[test]
fn deterministic_under_faults() {
    fn run() -> u64 {
        let node = NodeId(0);
        let (mut w, n, target) = setup(basic_catalog(node));
        let t = txn(1);
        let _ = run_script(
            &mut w,
            n,
            2,
            target,
            vec![
                DiscRequest::Insert {
                    file: "accounts".into(),
                    key: b("d"),
                    value: b("1"),
                    transid: Some(t),
                    lock_wait: WAIT,
                },
                DiscRequest::Update {
                    file: "accounts".into(),
                    key: b("d"),
                    value: b("2"),
                    transid: Some(t),
                },
                DiscRequest::ReleaseLocks {
                    transid: t,
                    commit: true,
                },
            ],
        );
        w.schedule_fault(SimTime::from_micros(300), Fault::KillCpu(n, CpuId(0)));
        w.run_for(SimDuration::from_secs(3));
        w.trace_hash()
    }
    assert_eq!(run(), run());
}

#[test]
fn snapshot_read_sees_fence_time_value_despite_later_commit() {
    let node = NodeId(0);
    let (mut w, n, target) = setup(basic_catalog(node));
    // t1 commits "v1"
    let t1 = txn(1);
    let _ = run_script(
        &mut w,
        n,
        0,
        target.clone(),
        vec![
            DiscRequest::Insert {
                file: "accounts".into(),
                key: b("snap"),
                value: b("v1"),
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
    w.run_for(SimDuration::from_secs(1));
    // an unfenced snapshot read pins the current fence and sees v1
    let r1 = run_script(
        &mut w,
        n,
        1,
        target.clone(),
        vec![DiscRequest::SnapshotRead {
            file: "accounts".into(),
            key: b("snap"),
            fence: None,
        }],
    );
    w.run_for(SimDuration::from_secs(1));
    let fence = match r1.borrow().first() {
        Some(DiscReply::Snapshot { value, fence }) => {
            assert_eq!(value.as_deref(), Some(&b("v1")[..]));
            *fence
        }
        other => panic!("expected Snapshot reply, got {other:?}"),
    };
    // t2 overwrites and commits
    let t2 = txn(2);
    let _ = run_script(
        &mut w,
        n,
        2,
        target.clone(),
        vec![
            DiscRequest::ReadLock {
                file: "accounts".into(),
                key: b("snap"),
                transid: t2,
                lock_wait: WAIT,
            },
            DiscRequest::Update {
                file: "accounts".into(),
                key: b("snap"),
                value: b("v2"),
                transid: Some(t2),
            },
            DiscRequest::EndPhase1 { transid: t2 },
            DiscRequest::ReleaseLocks {
                transid: t2,
                commit: true,
            },
        ],
    );
    w.run_for(SimDuration::from_secs(1));
    // re-reading at the pinned fence still sees v1; an unfenced read sees v2
    let r2 = run_script(
        &mut w,
        n,
        3,
        target,
        vec![
            DiscRequest::SnapshotRead {
                file: "accounts".into(),
                key: b("snap"),
                fence: Some(fence),
            },
            DiscRequest::SnapshotRead {
                file: "accounts".into(),
                key: b("snap"),
                fence: None,
            },
        ],
    );
    w.run_for(SimDuration::from_secs(1));
    let r = r2.borrow();
    match &r[0] {
        DiscReply::Snapshot { value, fence: f } => {
            assert_eq!(
                value.as_deref(),
                Some(&b("v1")[..]),
                "fenced read travels in time"
            );
            assert_eq!(*f, fence);
        }
        other => panic!("expected Snapshot reply, got {other:?}"),
    }
    match &r[1] {
        DiscReply::Snapshot { value, .. } => {
            assert_eq!(
                value.as_deref(),
                Some(&b("v2")[..]),
                "unfenced read is current"
            );
        }
        other => panic!("expected Snapshot reply, got {other:?}"),
    }
}

#[test]
fn snapshot_read_ignores_uncommitted_writer_without_blocking() {
    let node = NodeId(0);
    let (mut w, n, target) = setup(basic_catalog(node));
    let t1 = txn(1);
    let _ = run_script(
        &mut w,
        n,
        0,
        target.clone(),
        vec![
            DiscRequest::Insert {
                file: "accounts".into(),
                key: b("live"),
                value: b("committed"),
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
    w.run_for(SimDuration::from_secs(1));
    // t2 holds an exclusive lock and a dirty overwrite, uncommitted
    let t2 = txn(2);
    let _ = run_script(
        &mut w,
        n,
        1,
        target.clone(),
        vec![
            DiscRequest::ReadLock {
                file: "accounts".into(),
                key: b("live"),
                transid: t2,
                lock_wait: WAIT,
            },
            DiscRequest::Update {
                file: "accounts".into(),
                key: b("live"),
                value: b("dirty"),
                transid: Some(t2),
            },
        ],
    );
    w.run_for(SimDuration::from_millis(200));
    // the snapshot read completes immediately (no lock acquired) and sees
    // the committed value, not t2's dirty one
    let r = run_script(
        &mut w,
        n,
        2,
        target,
        vec![DiscRequest::SnapshotRead {
            file: "accounts".into(),
            key: b("live"),
            fence: None,
        }],
    );
    w.run_for(SimDuration::from_millis(200));
    match r.borrow().first() {
        Some(DiscReply::Snapshot { value, .. }) => {
            assert_eq!(value.as_deref(), Some(&b("committed")[..]));
        }
        other => panic!("snapshot read should not queue behind the X lock: {other:?}"),
    };
}

#[test]
fn snapshot_read_with_evicted_fence_is_too_old() {
    let mut w = World::new(SimConfig::default());
    let n = w.add_node(4);
    let vol = VolumeRef::new(n, "$DATA");
    let catalog = basic_catalog(n);
    // a tiny undo ring so a handful of commits evicts the oldest entries
    let cfg = DiscConfig {
        snapshot_undo_capacity: 2,
        ..DiscConfig::default()
    };
    let h = spawn_disc_process(&mut w, 0, 1, vol, catalog, cfg);
    let target = h.target();
    let t0 = txn(9);
    let _ = run_script(
        &mut w,
        n,
        0,
        target.clone(),
        vec![
            DiscRequest::Insert {
                file: "accounts".into(),
                key: b("old"),
                value: b("v0"),
                transid: Some(t0),
                lock_wait: WAIT,
            },
            DiscRequest::EndPhase1 { transid: t0 },
            DiscRequest::ReleaseLocks {
                transid: t0,
                commit: true,
            },
        ],
    );
    w.run_for(SimDuration::from_secs(1));
    for i in 1..=4u64 {
        let t = txn(i);
        let _ = run_script(
            &mut w,
            n,
            0,
            target.clone(),
            vec![
                DiscRequest::ReadLock {
                    file: "accounts".into(),
                    key: b("old"),
                    transid: t,
                    lock_wait: WAIT,
                },
                DiscRequest::Update {
                    file: "accounts".into(),
                    key: b("old"),
                    value: Bytes::from(format!("v{i}")),
                    transid: Some(t),
                },
                DiscRequest::EndPhase1 { transid: t },
                DiscRequest::ReleaseLocks {
                    transid: t,
                    commit: true,
                },
            ],
        );
        w.run_for(SimDuration::from_secs(1));
    }
    // fence 0 predates the ring's oldest retained entry
    let r = run_script(
        &mut w,
        n,
        1,
        target,
        vec![DiscRequest::SnapshotRead {
            file: "accounts".into(),
            key: b("old"),
            fence: Some(0),
        }],
    );
    w.run_for(SimDuration::from_secs(1));
    assert_eq!(
        r.borrow().first(),
        Some(&DiscReply::Err(DiscError::SnapshotTooOld))
    );
    assert_eq!(w.metrics().get("disc.snapshot_too_old"), 1);
}
