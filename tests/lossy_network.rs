//! Lossy-network tests: EXPAND's "automatic packet forwarding via an
//! end-to-end protocol which assures that data transmissions are reliably
//! received" is modeled by the `guardian` RPC retransmission. With real
//! message loss on every link, distributed transactions must still either
//! commit everywhere or abort everywhere, and the workload must complete.
//!
//! Also covers a partitioned audit trail: two volumes on one node, each
//! dealt its own partition of the node's one AUDITPROCESS, recovered from
//! that partition alone.

use encompass_tmf::encompass::app::AppBuilder;
use encompass_tmf::sim::{NodeId, SimDuration};
use encompass_tmf::storage::types::{FileDef, VolumeRef};
use encompass_tmf::storage::Catalog;
use encompass_tmf::tmf::facility::TmfNodeConfig;

mod driver {
    use bytes::Bytes;
    use encompass_tmf::sim::{Ctx, NodeId, Payload, Pid, Process, TimerId, World};
    use encompass_tmf::storage::Catalog;
    use std::cell::RefCell;
    use std::rc::Rc;
    use tmf::session::{DbOp, SessionEvent, SessionOptions, TmfSession};
    use tmf::state::AbortReason;

    /// Runs `count` two-node transactions back to back, restarting on any
    /// failure, until all have committed.
    pub struct Repeater {
        session: TmfSession,
        pub count: u64,
        step: u8,
        seq: u64,
        pub committed: Rc<RefCell<u64>>,
    }

    impl Repeater {
        pub fn new(catalog: Catalog, count: u64, committed: Rc<RefCell<u64>>) -> Repeater {
            Repeater {
                session: TmfSession::new(catalog, 0),
                count,
                step: 0,
                seq: 0,
                committed,
            }
        }
        fn begin_next(&mut self, ctx: &mut Ctx<'_>) {
            if *self.committed.borrow() >= self.count {
                return;
            }
            self.step = 1;
            self.session.begin(ctx, SessionOptions::default());
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: SessionEvent) {
            match (self.step, ev) {
                (1, SessionEvent::Began { .. }) => {
                    self.step = 2;
                    self.seq += 1;
                    let k = Bytes::from(format!("k{}", self.seq));
                    let _ = self.session.op(
                        ctx,
                        DbOp::Insert {
                            file: "f0".into(),
                            key: k,
                            value: Bytes::from_static(b"v"),
                        },
                    );
                }
                (2, SessionEvent::OpDone { reply, .. }) => {
                    if matches!(reply, encompass_tmf::storage::discprocess::DiscReply::Ok) {
                        self.step = 3;
                        let k = Bytes::from(format!("k{}", self.seq));
                        let _ = self.session.op(
                            ctx,
                            DbOp::Insert {
                                file: "f1".into(),
                                key: k,
                                value: Bytes::from_static(b"v"),
                            },
                        );
                    } else {
                        self.bail(ctx);
                    }
                }
                (3, SessionEvent::OpDone { reply, .. }) => {
                    if matches!(reply, encompass_tmf::storage::discprocess::DiscReply::Ok) {
                        self.step = 4;
                        self.session.end(ctx);
                    } else {
                        self.bail(ctx);
                    }
                }
                (4, SessionEvent::Committed) => {
                    *self.committed.borrow_mut() += 1;
                    self.begin_next(ctx);
                }
                (_, SessionEvent::Aborted) => self.begin_next(ctx),
                (_, SessionEvent::Failed { .. }) => self.bail(ctx),
                _ => {}
            }
        }
        fn bail(&mut self, ctx: &mut Ctx<'_>) {
            if self.session.transid().is_some() && !self.session.busy() {
                self.step = 9;
                self.session.abort(ctx, AbortReason::NetworkPartition);
            } else {
                self.begin_next(ctx);
            }
        }
    }

    impl Process for Repeater {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.begin_next(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
            if let Ok(Some(ev)) = self.session.accept(ctx, payload) {
                self.handle(ctx, ev);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
            if let Some(ev) = self.session.on_timer(ctx, tag) {
                self.handle(ctx, ev);
            }
        }
    }

    pub fn spawn(
        world: &mut World,
        node: NodeId,
        catalog: Catalog,
        count: u64,
    ) -> Rc<RefCell<u64>> {
        let committed = Rc::new(RefCell::new(0));
        world.spawn(
            node,
            0,
            Box::new(Repeater::new(catalog, count, committed.clone())),
        );
        committed
    }
}

#[test]
fn distributed_transactions_complete_over_a_lossy_link() {
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
        .link(0, 1, SimDuration::from_millis(2))
        .build(catalog);
    // 10% of all packets on the only link vanish
    app.world.set_link_loss(encompass_tmf::sim::LinkId(0), 0.10);

    let committed = driver::spawn(&mut app.world, app.nodes[0], app.catalog.clone(), 20);
    app.world.run_for(SimDuration::from_secs(600));
    assert_eq!(
        *committed.borrow(),
        20,
        "all distributed transactions eventually committed despite 10% loss \
         (retransmissions: {})",
        app.world.metrics().get("sim.msgs.lost")
    );
    assert!(
        app.world.metrics().get("sim.msgs.lost") > 0,
        "the link actually dropped packets"
    );
    // uniformity: every commit on the home monitor trail has its f1 write
    // present (flush drain first)
    app.world.run_for(SimDuration::from_secs(10));
    use encompass_tmf::storage::media::{media_key, VolumeMedia};
    let media = app
        .world
        .stable()
        .get::<VolumeMedia>(&media_key(app.nodes[1], "$D1"))
        .unwrap();
    assert_eq!(media.file("f1").map(|f| f.len()).unwrap_or(0), 20);
}

#[test]
fn trail_partitions_share_the_load_and_recover_together() {
    use encompass_tmf::audit::dump::{request_dump, DumpReply};
    use encompass_tmf::audit::rollforward::rollforward_volume;
    use encompass_tmf::sim::Fault;
    use encompass_tmf::storage::media::{media_key, VolumeMedia};

    let n0 = NodeId(0);
    let mut catalog = Catalog::new();
    catalog.add(FileDef::key_sequenced("fa", VolumeRef::new(n0, "$DA")));
    catalog.add(FileDef::key_sequenced("fb", VolumeRef::new(n0, "$DB")));
    let mut app = AppBuilder::new()
        .node(8)
        .tmf_config(
            TmfNodeConfig::builder()
                .audit_partitions(2)
                .build()
                .expect("valid tmf config"),
        )
        .build(catalog);

    // archive both volumes, then run transactions touching both
    let dumps: Vec<_> = ["$DA", "$DB"]
        .into_iter()
        .map(|vol| request_dump(&mut app.world, 0, 50, &VolumeRef::new(n0, vol), 1))
        .collect();
    app.world.run_for(SimDuration::from_millis(200));
    for dump in &dumps {
        assert!(
            matches!(*dump.borrow(), Some(DumpReply::Done { .. })),
            "{:?}",
            dump.borrow()
        );
    }

    // run 10 transactions, each touching both volumes (and hence both
    // trail partitions)
    let committed = dual_driver::spawn(&mut app.world, n0, app.catalog.clone(), 10);
    app.world.run_for(SimDuration::from_secs(120));
    assert_eq!(*committed.borrow(), 10);
    // both trails carry records, and each volume has its own
    let handles = &app.tmf[0];
    assert_eq!(handles.trail_keys.len(), 2);
    for tk in &handles.trail_keys {
        let t = app
            .world
            .stable()
            .get::<encompass_tmf::audit::trail::TrailMedia>(tk)
            .expect("trail exists");
        assert!(!t.is_empty(), "{tk} carries audit records");
    }
    let da_trail = handles.trail_key_of["$DA"].clone();
    assert_ne!(da_trail, handles.trail_key_of["$DB"]);
    // total failure of volume $DA: both CPUs its pair has run on
    app.world.run_for(SimDuration::from_secs(5));
    let primary = app.world.lookup_name(n0, "$DA").expect("$DA primary");
    app.world.inject(Fault::KillCpu(n0, primary.cpu));
    app.world.run_for(SimDuration::from_millis(100));
    let backup = app
        .world
        .lookup_name(n0, "$DA")
        .expect("$DA backup took over");
    assert_ne!(backup.cpu, primary.cpu);
    app.world.inject(Fault::KillCpu(n0, backup.cpu));
    app.world.run_for(SimDuration::from_millis(100));
    {
        let media = app
            .world
            .stable_mut()
            .get_mut::<VolumeMedia>(&media_key(n0, "$DA"))
            .unwrap();
        media.fail_drive(0);
        media.fail_drive(1);
        media.revive_drive(0);
        media.revive_drive(1);
    }
    let report = rollforward_volume(&mut app.world, &VolumeRef::new(n0, "$DA"), &da_trail, 1);
    assert!(report.redone >= 10, "{report:?}");
    let media = app
        .world
        .stable()
        .get::<VolumeMedia>(&media_key(n0, "$DA"))
        .unwrap();
    assert_eq!(media.file("fa").map(|f| f.len()).unwrap_or(0), 10);
}

mod dual_driver {
    use bytes::Bytes;
    use encompass_tmf::sim::{Ctx, NodeId, Payload, Pid, Process, TimerId, World};
    use encompass_tmf::storage::Catalog;
    use std::cell::RefCell;
    use std::rc::Rc;
    use tmf::session::{DbOp, SessionEvent, SessionOptions, TmfSession};

    pub struct Dual {
        session: TmfSession,
        count: u64,
        seq: u64,
        step: u8,
        committed: Rc<RefCell<u64>>,
    }

    impl Process for Dual {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.next(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
            if let Ok(Some(ev)) = self.session.accept(ctx, payload) {
                self.handle(ctx, ev);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
            if let Some(ev) = self.session.on_timer(ctx, tag) {
                self.handle(ctx, ev);
            }
        }
    }

    impl Dual {
        fn next(&mut self, ctx: &mut Ctx<'_>) {
            if *self.committed.borrow() >= self.count {
                return;
            }
            self.step = 1;
            self.session.begin(ctx, SessionOptions::default());
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: SessionEvent) {
            let k = Bytes::from(format!("k{}", self.seq));
            match (self.step, ev) {
                (1, SessionEvent::Began { .. }) => {
                    self.seq += 1;
                    self.step = 2;
                    let k = Bytes::from(format!("k{}", self.seq));
                    let _ = self.session.op(
                        ctx,
                        DbOp::Insert {
                            file: "fa".into(),
                            key: k,
                            value: Bytes::from_static(b"v"),
                        },
                    );
                }
                (2, SessionEvent::OpDone { .. }) => {
                    self.step = 3;
                    let _ = self.session.op(
                        ctx,
                        DbOp::Insert {
                            file: "fb".into(),
                            key: k,
                            value: Bytes::from_static(b"v"),
                        },
                    );
                }
                (3, SessionEvent::OpDone { .. }) => {
                    self.step = 4;
                    self.session.end(ctx);
                }
                (4, SessionEvent::Committed) => {
                    *self.committed.borrow_mut() += 1;
                    self.next(ctx);
                }
                _ => {}
            }
        }
    }

    pub fn spawn(
        world: &mut World,
        node: NodeId,
        catalog: Catalog,
        count: u64,
    ) -> Rc<RefCell<u64>> {
        let committed = Rc::new(RefCell::new(0));
        world.spawn(
            node,
            0,
            Box::new(Dual {
                session: TmfSession::new(catalog, 0),
                count,
                seq: 0,
                step: 0,
                committed: committed.clone(),
            }),
        );
        committed
    }
}
