//! Shared scripted drivers for experiments: a transaction-script process
//! (BEGIN / ops / END against TMF directly) and a repeating
//! manufacturing-update driver.

use bytes::Bytes;
use encompass::messages::{AppReply, AppRequest, ServerRequest};
use encompass_sim::{Ctx, Name, NodeId, Payload, Pid, Process, SimDuration, TimerId, World};
use encompass_storage::discprocess::DiscReply;
use encompass_storage::Catalog;
use guardian::{Rpc, Target, TimerOutcome};
use std::cell::RefCell;
use std::rc::Rc;
use tmf::session::{DbOp, SessionEvent, SessionOptions, TmfSession};
use tmf::state::AbortReason;

/// One step of a scripted transaction program.
#[derive(Clone)]
pub enum Step {
    Begin,
    Read(String, Bytes),
    ReadLock(String, Bytes),
    Insert(String, Bytes, Bytes),
    Update(String, Bytes, Bytes),
    End,
    Abort,
    Pause(SimDuration),
}

pub type Log = Rc<RefCell<Vec<String>>>;

/// A process that runs a transaction script and records outcomes.
pub struct TxnScript {
    session: TmfSession,
    options: SessionOptions,
    script: Vec<Step>,
    next: usize,
    log: Log,
}

impl TxnScript {
    pub fn new(catalog: Catalog, script: Vec<Step>, log: Log) -> TxnScript {
        TxnScript::with_options(catalog, SessionOptions::default(), script, log)
    }

    /// A script whose `Begin` steps start transactions with `options`
    /// (e.g. read-only / snapshot scripts).
    pub fn with_options(
        catalog: Catalog,
        options: SessionOptions,
        script: Vec<Step>,
        log: Log,
    ) -> TxnScript {
        TxnScript {
            session: TmfSession::new(catalog, 0),
            options,
            script,
            next: 0,
            log,
        }
    }

    fn kick(&mut self, ctx: &mut Ctx<'_>) {
        if self.next >= self.script.len() {
            return;
        }
        let step = self.script[self.next].clone();
        self.next += 1;
        let refused = match step {
            Step::Begin => {
                self.session.begin(ctx, self.options, 0);
                None
            }
            Step::Read(f, k) => self.session.op(ctx, DbOp::Read { file: f.into(), key: k }, 0),
            Step::ReadLock(f, k) => self.session.op(ctx, DbOp::ReadLock { file: f.into(), key: k }, 0),
            Step::Insert(f, k, v) => self
                .session
                .op(ctx, DbOp::Insert { file: f.into(), key: k, value: v }, 0),
            Step::Update(f, k, v) => self
                .session
                .op(ctx, DbOp::Update { file: f.into(), key: k, value: v }, 0),
            Step::End => {
                self.session.end(ctx, 0);
                None
            }
            Step::Abort => {
                self.session.abort(ctx, AbortReason::Voluntary, 0);
                None
            }
            Step::Pause(d) => {
                ctx.set_timer(d, 1);
                None
            }
        };
        if let Some(ev) = refused {
            // synchronous refusal (write under a read-only script)
            self.on_event(ctx, ev);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: SessionEvent) {
        #[allow(
            clippy::wildcard_enum_match_arm,
            reason = "the script log shows every other reply in its Debug form"
        )]
        let entry = match &ev {
            SessionEvent::Began { transid, .. } => format!("began:{transid}"),
            SessionEvent::OpDone { reply, .. } => match reply {
                DiscReply::Value(Some(v)) => format!("value:{}", String::from_utf8_lossy(v)),
                DiscReply::Value(None) => "value:<none>".into(),
                DiscReply::Ok => "ok".into(),
                DiscReply::Err(e) => format!("err:{e:?}"),
                other => format!("{other:?}"),
            },
            SessionEvent::Committed { .. } => "committed".into(),
            SessionEvent::Aborted { .. } => "aborted".into(),
            SessionEvent::Failed { .. } => "failed".into(),
        };
        self.log.borrow_mut().push(entry);
        self.kick(ctx);
    }
}

impl Process for TxnScript {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.kick(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        if let Ok(Some(ev)) = self.session.accept(ctx, payload) {
            self.on_event(ctx, ev);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        if tag == 1 {
            self.kick(ctx);
            return;
        }
        if let Some(ev) = self.session.on_timer(ctx, tag) {
            self.on_event(ctx, ev);
        }
    }
    fn kind(&self) -> &'static str {
        "txn-script"
    }
}

/// Spawn a [`TxnScript`], returning its outcome log.
pub fn run_txn_script(
    world: &mut World,
    node: NodeId,
    cpu: u8,
    catalog: Catalog,
    script: Vec<Step>,
) -> Log {
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    world.spawn(
        node,
        cpu,
        Box::new(TxnScript::new(catalog, script, log.clone())),
    );
    log
}

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
            rpc: Rpc::new(41),
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
        self.session.begin(ctx, SessionOptions::default(), 0);
    }

    fn fail(&mut self, ctx: &mut Ctx<'_>) {
        self.tally.borrow_mut().failed += 1;
        if self.session.transid().is_some() && !self.session.busy() {
            self.state = 4;
            self.session.abort(ctx, AbortReason::NetworkPartition, 0);
        } else {
            self.state = 0;
            ctx.set_timer(self.interval, 2);
        }
    }
}

impl Process for MfgDriver {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
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
                                Target::Named(self.server_node, "$SC-mfg".into()),
                                env,
                                SimDuration::from_secs(2),
                                0,
                                (),
                            )
                            .is_err()
                        {
                            self.fail(ctx);
                        }
                    }
                    (3, SessionEvent::Committed { .. }) => {
                        self.tally.borrow_mut().committed += 1;
                        self.state = 0;
                        ctx.set_timer(self.interval, 2);
                    }
                    (4, SessionEvent::Aborted { .. }) => {
                        self.state = 0;
                        ctx.set_timer(self.interval, 2);
                    }
                    (_, SessionEvent::Aborted { .. }) | (_, SessionEvent::Failed { .. }) => {
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
                    self.session.end(ctx, 0);
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
            if matches!(ev, SessionEvent::Failed { .. } | SessionEvent::Aborted { .. }) {
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

    fn kind(&self) -> &'static str {
        "mfg-driver"
    }
}
