//! Shared scripted drivers for experiments: the transaction-script
//! process of [`tmf::script`] (BEGIN / ops / END against TMF directly) and
//! a repeating manufacturing-update driver.

use bytes::Bytes;
use encompass::messages::{AppReply, AppRequest, ServerRequest};
use encompass::tcp::SEND_TIMEOUT;
use encompass_sim::{Ctx, Name, NodeId, Payload, Pid, Process, SimDuration, SystemEvent, TimerId};
use encompass_storage::Catalog;
use guardian::{Rpc, Target, TimerOutcome};
use std::cell::RefCell;
use std::rc::Rc;
pub use tmf::script::{run_txn_script, Step};
use tmf::session::{SessionEvent, SessionOptions, TmfSession};
use tmf::state::AbortReason;

/// Tally shared by a [`MfgDriver`] and its experiment.
#[derive(Default, Debug)]
pub struct MfgTally {
    pub attempted: u64,
    pub committed: u64,
    pub failed: u64,
}

/// Repeatedly issues global updates (one transaction each) to a
/// manufacturing server class, recording availability.
pub struct MfgDriver {
    session: TmfSession,
    rpc: Rpc<ServerRequest, AppReply>,
    /// `master-update` or `sync-update`.
    pub op: Name,
    pub server_node: NodeId,
    pub interval: SimDuration,
    pub updates: u64,
    pub tally: Rc<RefCell<MfgTally>>,
    seq: u64,
    state: u8,
}

impl MfgDriver {
    pub fn new(
        catalog: Catalog,
        op: &str,
        server_node: NodeId,
        interval: SimDuration,
        updates: u64,
        tally: Rc<RefCell<MfgTally>>,
    ) -> MfgDriver {
        MfgDriver {
            session: TmfSession::new(catalog, 6),
            rpc: Rpc::new(41, SEND_TIMEOUT),
            op: Name::new(op),
            server_node,
            interval,
            updates,
            tally,
            seq: 0,
            state: 0,
        }
    }

    fn next_update(&mut self, ctx: &mut Ctx<'_>) {
        if self.seq >= self.updates {
            return;
        }
        self.seq += 1;
        self.tally.borrow_mut().attempted += 1;
        self.state = 1;
        self.session.begin(ctx, SessionOptions::default());
    }

    fn fail(&mut self, ctx: &mut Ctx<'_>) {
        self.tally.borrow_mut().failed += 1;
        if self.session.transid().is_some() && !self.session.busy() {
            self.state = 4;
            self.session.abort(ctx, AbortReason::NetworkPartition);
        } else {
            self.state = 0;
            ctx.set_timer(self.interval, 2);
        }
    }
}

impl Process for MfgDriver {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.subscribe_system();
        ctx.set_timer(self.interval, 2);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        let payload = match self.session.accept(ctx, payload) {
            Ok(Some(ev)) => {
                match (self.state, ev) {
                    (1, SessionEvent::Began { .. }) => {
                        self.state = 2;
                        let env = ServerRequest {
                            transid: self.session.transid(),
                            options: self.session.options(),
                            request: AppRequest::new(
                                self.op.clone(),
                                vec![
                                    Bytes::from_static(b"item"),
                                    Bytes::from(format!("part-{}", self.seq % 16)),
                                    Bytes::from(format!("rev-{}", self.seq)),
                                ],
                            ),
                        };
                        if self
                            .rpc
                            .call(
                                ctx,
                                Target::new(self.server_node, "$SC-mfg".into()),
                                env,
                                0,
                                (),
                            )
                            .is_err()
                        {
                            self.fail(ctx);
                        }
                    }
                    (3, SessionEvent::Committed) => {
                        self.tally.borrow_mut().committed += 1;
                        self.state = 0;
                        ctx.set_timer(self.interval, 2);
                    }
                    (4, SessionEvent::Aborted) => {
                        self.state = 0;
                        ctx.set_timer(self.interval, 2);
                    }
                    (_, SessionEvent::Aborted) | (_, SessionEvent::Failed { .. }) => {
                        self.tally.borrow_mut().failed += 1;
                        self.state = 0;
                        ctx.set_timer(self.interval, 2);
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
                    self.fail(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        if tag == 2 {
            self.next_update(ctx);
            return;
        }
        if let Some(ev) = self.session.on_timer(ctx, tag) {
            if matches!(ev, SessionEvent::Failed { .. } | SessionEvent::Aborted) {
                self.tally.borrow_mut().failed += 1;
                self.state = 0;
                ctx.set_timer(self.interval, 2);
            }
            return;
        }
        if let TimerOutcome::Expired { .. } = self.rpc.on_timer(ctx, tag) {
            self.fail(ctx);
        }
    }

    fn on_system(&mut self, ctx: &mut Ctx<'_>, ev: SystemEvent) {
        self.session.on_system(ctx, ev);
        self.rpc.on_system(ctx, ev);
    }

    fn kind(&self) -> &'static str {
        "mfg-driver"
    }
}
