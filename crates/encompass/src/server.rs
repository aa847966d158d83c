//! Application server processes.
//!
//! "The structure of an application server program is simple and
//! single-threaded: (1) read the transaction request message; (2) perform
//! the data base function requested; (3) reply. A server must be 'context
//! free' in the sense that it retains no memory from the servicing of one
//! request to the next."
//!
//! Because TMF backs out failed transactions automatically, servers are
//! plain processes — *not* process-pairs. That is the paper's headline
//! benefit: before TMF, applications had to be coded as pairs with careful
//! checkpoints; with TMF "the state of progress of an incomplete
//! transaction is immaterial".

use crate::messages::{AppReply, AppRequest, ServerRequest};
use bytes::Bytes;
use encompass_shard::{suspense_file, SuspenseRecord};
use encompass_sim::{counter, CounterId, Ctx, Name, NodeId, Payload, Pid, Process, TimerId};
use encompass_storage::discprocess::DiscReply;
use encompass_storage::Catalog;
use guardian::{Admitted, Owed, Served};
use tmf::session::{SessionEvent, TmfSession};
use tmf::Transid;

/// A data-base operation a server step may issue. This is the session
/// layer's typed request enum, re-exported where server authors expect it.
pub use tmf::session::DbOp;

/// Write `value` at `key`: an update if the record exists (the read-lock
/// before the write said so), else an insert.
pub(crate) fn upsert(exists: bool, file: Name, key: Bytes, value: Bytes) -> DbOp {
    if exists {
        DbOp::Update { file, key, value }
    } else {
        DbOp::Insert { file, key, value }
    }
}

/// The deferred half of a master-node write to a replicated record: one
/// [`SuspenseRecord`] per replica in `dests`, each an append to
/// `master`'s suspense file stamped with the writing transaction. The
/// `$SUSPENSE` monitor pair drains them.
pub(crate) fn suspense_appends(
    master: NodeId,
    transid: Option<Transid>,
    dests: impl IntoIterator<Item = NodeId>,
    file: Name,
    key: Bytes,
    value: Bytes,
) -> impl Iterator<Item = DbOp> {
    let transid = transid.unwrap_or(Transid {
        home_node: master,
        cpu: 0,
        seq: 0,
    });
    let suspense = suspense_file(master);
    dests.into_iter().map(move |dest| DbOp::InsertEntry {
        file: suspense.clone(),
        value: SuspenseRecord {
            transid,
            dest,
            file: file.clone(),
            key: key.clone(),
            value: value.clone(),
        }
        .encode(),
    })
}

/// What a server-logic step decided.
#[derive(Debug)]
pub enum ServerStep {
    /// Issue a data-base operation; the logic resumes in `on_db`.
    Db(DbOp),
    /// Finish the request with this reply.
    Reply(AppReply),
}

/// Single-request application logic, written as a small state machine:
/// `on_request` starts a request, `on_db` resumes after each data-base
/// completion. The logic is recreated fresh for every request (context
/// freedom).
pub trait ServerLogic: 'static {
    /// The transid the server adopted for this request (None for
    /// requests outside a transaction). Called before `on_request`; lets
    /// logic stamp the writing transaction into records it creates (e.g.
    /// suspense-file deferred updates).
    fn on_adopt(&mut self, _transid: Option<Transid>) {}
    fn on_request(&mut self, req: &AppRequest) -> ServerStep;
    fn on_db(&mut self, db: &DiscReply) -> ServerStep;
}

struct Active {
    owed: Owed,
    logic: Box<dyn ServerLogic>,
}

/// The server process: hosts a [`ServerLogic`] factory and a TMF session.
pub struct ServerProcess {
    /// `server.<class>.dispatched`, resolved once.
    dispatched_counter: CounterId,
    factory: Box<dyn Fn() -> Box<dyn ServerLogic>>,
    session: TmfSession,
    /// Admits the requests the class queue forwards. A TCP sends each
    /// request once and never retries, and a server is context-free, so
    /// every answer goes out uncached.
    served: Served<AppReply>,
    active: Option<Active>,
    /// The queue to notify when idle (set by the dispatcher).
    queue: Option<Pid>,
}

impl ServerProcess {
    pub fn new(
        class: &str,
        catalog: Catalog,
        factory: impl Fn() -> Box<dyn ServerLogic> + 'static,
    ) -> ServerProcess {
        ServerProcess {
            dispatched_counter: CounterId::named(&format!("server.{class}.dispatched")),
            factory: Box::new(factory),
            session: TmfSession::new(catalog, 1),
            served: Served::new(1),
            active: None,
            queue: None,
        }
    }

    /// Configure the deadlock timeout attached to this server's lock
    /// requests (experiment T4 sweeps it).
    pub fn set_lock_wait(&mut self, wait: encompass_sim::SimDuration) {
        self.session.lock_wait = wait;
    }

    fn run_step(&mut self, ctx: &mut Ctx<'_>, step: ServerStep) {
        match step {
            ServerStep::Db(op) => {
                if let Some(SessionEvent::Failed { .. }) = self.session.op(ctx, op) {
                    // synchronous refusal (a write under a read-only
                    // transaction): a server-logic bug, not a transient —
                    // restarting would loop forever
                    ctx.count(counter!("server.readonly_violations"), 1);
                    self.finish(ctx, AppReply::error());
                }
            }
            ServerStep::Reply(r) => self.finish(ctx, r),
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>, r: AppReply) {
        if let Some(active) = self.active.take() {
            self.served.answer_uncached(ctx, active.owed, r);
        }
        self.session.clear();
        ctx.count(counter!("server.requests_served"), 1);
        // tell the dispatcher we are idle again
        if let Some(q) = self.queue {
            let _ = ctx.send(q, Payload::new(ServerIdle));
        }
    }
}

/// Notification from server to its class queue.
pub(crate) struct ServerIdle;

impl Process for ServerProcess {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    fn on_message(&mut self, ctx: &mut Ctx<'_>, src: Pid, payload: Payload) {
        // session completions first
        let payload = match self.session.accept(ctx, payload) {
            Ok(Some(ev)) => {
                match ev {
                    SessionEvent::OpDone { reply: db, .. } => {
                        if let Some(active) = &mut self.active {
                            let step = active.logic.on_db(&db);
                            self.run_step(ctx, step);
                        }
                    }
                    SessionEvent::Failed { .. } => {
                        // data-base op unreachable/timed out: tell the
                        // requester to restart the transaction
                        self.finish(ctx, AppReply::restart());
                    }
                    SessionEvent::Began { .. }
                    | SessionEvent::Committed
                    | SessionEvent::Aborted => {}
                }
                return;
            }
            Ok(None) => return,
            Err(p) => p,
        };
        if payload.is::<crate::appmon::ServerStop>() {
            // dynamic deletion by application control
            if self.active.is_none() {
                ctx.exit();
            }
            return;
        }
        // the queue forwards the TCP's request as it arrived, so the
        // answer goes straight back to the TCP
        let (owed, body) = match self.served.admit::<ServerRequest>(ctx, payload) {
            Admitted::Fresh(owed, body) => (owed, body),
            // a TCP never retransmits, and nothing is remembered to replay
            Admitted::Duplicate(..) | Admitted::Replayed | Admitted::NotARequest(_) => return,
        };
        if self.queue.is_none() {
            self.queue = Some(src);
        }
        if self.active.is_some() {
            // busy (dispatcher raced a takeover); bounce a restart
            self.served.answer_uncached(ctx, owed, AppReply::restart());
            return;
        }
        // (1) read the request: adopt its transid as the current
        // process transid, in the requester's declared mode
        match body.transid {
            Some(t) => self.session.adopt(t, body.options),
            None => self.session.clear(),
        }
        let mut logic = (self.factory)();
        logic.on_adopt(body.transid);
        let step = logic.on_request(&body.request);
        self.active = Some(Active { owed, logic });
        ctx.count(self.dispatched_counter, 1);
        self.run_step(ctx, step);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        if let Some(SessionEvent::Failed { .. }) = self.session.on_timer(ctx, tag) {
            self.finish(ctx, AppReply::restart());
        }
    }

    fn kind(&self) -> &'static str {
        "server"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    struct Fixed;
    impl ServerLogic for Fixed {
        fn on_request(&mut self, _req: &AppRequest) -> ServerStep {
            ServerStep::Reply(AppReply::ok(vec![Bytes::from_static(b"done")]))
        }
        fn on_db(&mut self, _db: &DiscReply) -> ServerStep {
            ServerStep::Reply(AppReply::error())
        }
    }

    #[test]
    fn server_replies_and_reports_idle() {
        use encompass_sim::{SimConfig, World};
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(2);
        let catalog = Catalog::new();
        let srv = w.spawn(
            n,
            0,
            Box::new(ServerProcess::new("t", catalog, || Box::new(Fixed))),
        );
        w.run_until_quiescent();
        // a fake queue/requester observer
        use std::cell::RefCell;
        use std::rc::Rc;
        struct Probe {
            srv: Pid,
            got: Rc<RefCell<Vec<String>>>,
        }
        impl Process for Probe {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let _ = ctx.send(
                    self.srv,
                    Payload::new(guardian::Request {
                        id: 1,
                        from: ctx.pid(),
                        body: ServerRequest {
                            transid: None,
                            options: tmf::session::SessionOptions::default(),
                            request: AppRequest::new("x", vec![]),
                        },
                    }),
                );
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
                if payload.is::<ServerIdle>() {
                    self.got.borrow_mut().push("idle".into());
                } else if let Some(r) = payload.downcast_ref::<guardian::RpcReply<AppReply>>() {
                    self.got.borrow_mut().push(format!("reply:{}", r.body.ok));
                }
            }
        }
        let got = Rc::new(RefCell::new(Vec::new()));
        w.spawn(
            n,
            1,
            Box::new(Probe {
                srv,
                got: got.clone(),
            }),
        );
        w.run_until_quiescent();
        assert_eq!(got.borrow().as_slice(), &["reply:true", "idle"]);
        assert_eq!(w.metrics().get("server.requests_served"), 1);
    }
}
