//! A scripted transaction client: a process that walks a list of
//! [`Step`]s (BEGIN / data-base operations / END) through a
//! [`TmfSession`] and logs what each one produced. Tests and experiments
//! drive TMF with it directly, without a TCP and servers in between.

use crate::session::{DbOp, SessionEvent, SessionOptions, TmfSession};
use crate::state::AbortReason;
use bytes::Bytes;
use encompass_sim::{Ctx, NodeId, Payload, Pid, Process, SimDuration, SystemEvent, TimerId, World};
use encompass_storage::discprocess::DiscReply;
use encompass_storage::types::Transid;
use encompass_storage::Catalog;
use std::cell::RefCell;
use std::rc::Rc;

/// One step of a scripted transaction program.
#[derive(Clone)]
pub enum Step {
    Begin,
    Read(String, Bytes),
    ReadLock(String, Bytes),
    Insert(String, Bytes, Bytes),
    Update(String, Bytes, Bytes),
    Delete(String, Bytes),
    End,
    Abort,
    /// Idle for a duration (lets a test line faults up between steps).
    Pause(SimDuration),
}

/// What each completed step produced, in order: `began:<transid>`,
/// `value:<v>`, `ok`, `err:<e>`, `committed`, `aborted`, `failed`.
pub type Log = Rc<RefCell<Vec<String>>>;

const TAG_PAUSE: u64 = 1;

/// A process that runs a transaction script and records outcomes.
pub struct TxnScript {
    session: TmfSession,
    options: SessionOptions,
    script: Vec<Step>,
    next: usize,
    log: Log,
    /// When present, filled with the transid at each `Began` (for callers
    /// that poke the protocol directly with that transid afterwards).
    pub transid_out: Option<Rc<RefCell<Option<Transid>>>>,
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
            transid_out: None,
        }
    }

    fn kick(&mut self, ctx: &mut Ctx<'_>) {
        if self.next >= self.script.len() {
            return;
        }
        let step = self.script[self.next].clone();
        self.next += 1;
        let op = match step {
            Step::Begin => return self.session.begin(ctx, self.options),
            Step::End => return self.session.end(ctx),
            Step::Abort => return self.session.abort(ctx, AbortReason::Voluntary),
            Step::Pause(d) => {
                ctx.set_timer(d, TAG_PAUSE);
                return;
            }
            Step::Read(f, key) => DbOp::Read {
                file: f.into(),
                key,
            },
            Step::ReadLock(f, key) => DbOp::ReadLock {
                file: f.into(),
                key,
            },
            Step::Insert(f, key, value) => DbOp::Insert {
                file: f.into(),
                key,
                value,
            },
            Step::Update(f, key, value) => DbOp::Update {
                file: f.into(),
                key,
                value,
            },
            Step::Delete(f, key) => DbOp::Delete {
                file: f.into(),
                key,
            },
        };
        if let Some(refused) = self.session.op(ctx, op) {
            // synchronous refusal (write under a read-only script)
            self.on_event(ctx, refused);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: SessionEvent) {
        #[allow(
            clippy::wildcard_enum_match_arm,
            reason = "the script log shows every other reply in its Debug form"
        )]
        let entry = match &ev {
            SessionEvent::Began { transid } => {
                if let Some(slot) = &self.transid_out {
                    *slot.borrow_mut() = Some(*transid);
                }
                format!("began:{transid}")
            }
            SessionEvent::OpDone { reply } => match reply {
                DiscReply::Value(Some(v)) => format!("value:{}", String::from_utf8_lossy(v)),
                DiscReply::Value(None) => "value:<none>".into(),
                DiscReply::Ok => "ok".into(),
                DiscReply::Err(e) => format!("err:{e:?}"),
                other => format!("{other:?}"),
            },
            SessionEvent::Committed => "committed".into(),
            SessionEvent::Aborted => "aborted".into(),
            SessionEvent::Failed { .. } => "failed".into(),
        };
        self.log.borrow_mut().push(entry);
        self.kick(ctx);
    }
}

impl Process for TxnScript {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.subscribe_system();
        self.kick(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        if let Ok(Some(ev)) = self.session.accept(ctx, payload) {
            self.on_event(ctx, ev);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        if tag == TAG_PAUSE {
            self.kick(ctx);
            return;
        }
        if let Some(ev) = self.session.on_timer(ctx, tag) {
            self.on_event(ctx, ev);
        }
    }
    fn on_system(&mut self, ctx: &mut Ctx<'_>, ev: SystemEvent) {
        self.session.on_system(ctx, ev);
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
