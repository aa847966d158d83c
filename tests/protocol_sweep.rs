//! Exhaustive-ish protocol sweeps: inject a partition at every point of a
//! distributed transaction's lifetime (millisecond granularity) and assert
//! the paper's safety property — "the decision to commit or abort a
//! transaction is uniform across all nodes, even in the event of loss of
//! communications between participating nodes".

use bytes::Bytes;
use encompass_tmf::audit::monitor::MonitorTrail;
use encompass_tmf::encompass::app::AppBuilder;
use encompass_tmf::sim::{Ctx, Payload, Pid, Process, TimerId};
use encompass_tmf::sim::{Fault, NodeId, SimDuration, SimTime};
use encompass_tmf::storage::media::{media_key, VolumeMedia};
use encompass_tmf::storage::types::{FileDef, VolumeRef};
use encompass_tmf::storage::Catalog;
use encompass_tmf::tmf::session::{DbOp, SessionEvent, TmfSession};
use encompass_tmf::tmf::state::AbortReason;
use std::cell::RefCell;
use std::rc::Rc;

/// Drives one distributed transaction: insert at node 0, insert at node 1,
/// then END. Records the final outcome string.
struct OneTxn {
    session: TmfSession,
    step: u8,
    outcome: Rc<RefCell<Option<&'static str>>>,
}

impl Process for OneTxn {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.step = 1;
        self.session
            .begin(ctx, encompass_tmf::tmf::session::SessionOptions::default());
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        let Ok(Some(ev)) = self.session.accept(ctx, payload) else {
            return;
        };
        self.advance(ctx, ev);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        if let Some(ev) = self.session.on_timer(ctx, tag) {
            self.advance(ctx, ev);
        }
    }
}

impl OneTxn {
    fn advance(&mut self, ctx: &mut Ctx<'_>, ev: SessionEvent) {
        match (self.step, ev) {
            (1, SessionEvent::Began { .. }) => {
                self.step = 2;
                let _ = self.session.op(
                    ctx,
                    DbOp::Insert {
                        file: "f0".into(),
                        key: Bytes::from_static(b"key"),
                        value: Bytes::from_static(b"v"),
                    },
                );
            }
            (2, SessionEvent::OpDone { .. }) => {
                self.step = 3;
                let _ = self.session.op(
                    ctx,
                    DbOp::Insert {
                        file: "f1".into(),
                        key: Bytes::from_static(b"key"),
                        value: Bytes::from_static(b"v"),
                    },
                );
            }
            (3, SessionEvent::OpDone { .. }) => {
                self.step = 4;
                self.session.end(ctx);
            }
            (4, SessionEvent::Committed) => {
                *self.outcome.borrow_mut() = Some("committed");
            }
            (_, SessionEvent::Aborted) => {
                *self.outcome.borrow_mut() = Some("aborted");
            }
            (_, SessionEvent::Failed { .. }) => {
                // a step could not run (partition mid-flight): back out
                if self.session.transid().is_some() && !self.session.busy() {
                    self.step = 9;
                    self.session.abort(ctx, AbortReason::NetworkPartition);
                } else {
                    *self.outcome.borrow_mut() = Some("failed");
                }
            }
            _ => {}
        }
    }
}

/// Run the two-node scenario with a partition injected at `cut_us`, healed
/// 1.5s later. Returns (driver outcome, committed-at-home,
/// value-visible-at-node1-after-heal).
fn run_with_cut(cut_us: u64) -> (&'static str, Option<bool>, bool) {
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
    let n0 = app.nodes[0];
    let n1 = app.nodes[1];
    let outcome = Rc::new(RefCell::new(None));
    let session = TmfSession::new(app.catalog.clone(), 0);
    app.world.spawn(
        n0,
        0,
        Box::new(OneTxn {
            session,
            step: 0,
            outcome: outcome.clone(),
        }),
    );
    app.world
        .schedule_fault(SimTime::from_micros(cut_us), Fault::Partition(vec![n1]));
    app.world.schedule_fault(
        SimTime::from_micros(cut_us + 1_500_000),
        Fault::HealAllLinks,
    );
    // long drain: heals, safe-delivery retries, backouts, flushes
    app.world.run_for(SimDuration::from_secs(30));

    let driver_outcome = outcome.borrow().unwrap_or("in-doubt");
    // the transaction this run created is always T0.0.1
    let transid = encompass_tmf::tmf::Transid {
        home_node: n0,
        cpu: 0,
        seq: 1,
    };
    let committed = MonitorTrail::of(app.world.stable_mut(), n0).outcome(transid);
    let visible_n1 = app
        .world
        .stable()
        .get::<VolumeMedia>(&media_key(n1, "$D1"))
        .and_then(|m| m.file("f1"))
        .and_then(|f| f.read(b"key"))
        .is_some();
    (driver_outcome, committed, visible_n1)
}

#[test]
fn decision_is_uniform_for_every_partition_point() {
    // sweep the cut through the whole transaction lifetime: the first
    // ~60ms covers begin + both inserts + commit (disc access is 25ms);
    // sample densely there and sparsely after
    let mut cuts: Vec<u64> = (0..30).map(|i| 2_000 + i * 4_000).collect();
    cuts.extend([150_000, 250_000, 500_000]);
    for cut in cuts {
        let (driver, committed, visible) = run_with_cut(cut);
        match committed {
            Some(true) => {
                assert_eq!(
                    driver, "committed",
                    "cut at {cut}us: commit record exists, driver must see commit"
                );
                assert!(
                    visible,
                    "cut at {cut}us: committed transaction's write visible on node 1 after heal"
                );
            }
            Some(false) | None => {
                assert_ne!(
                    driver, "committed",
                    "cut at {cut}us: no commit record, driver must not see commit"
                );
                assert!(
                    !visible,
                    "cut at {cut}us: aborted transaction left data on node 1"
                );
            }
        }
    }
}

#[test]
fn no_partition_always_commits() {
    // sanity: the same scenario without a cut commits and replicates
    let (driver, committed, visible) = run_with_cut(60_000_000);
    assert_eq!(driver, "committed");
    assert_eq!(committed, Some(true));
    assert!(visible);
}
