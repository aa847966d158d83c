//! The Terminal Control Process (TCP).
//!
//! A TCP is a process-pair supervising "the interleaved execution of
//! Screen COBOL programs, each associated with one of the terminals under
//! control of the TCP" (up to 32 terminals). It owns the transaction
//! verbs:
//!
//! * `BEGIN-TRANSACTION` obtains a transid from the TMP and puts the
//!   terminal in transaction mode;
//! * `SEND` forwards a request to a server class (the File System
//!   automatically appends the terminal's current transid);
//! * `END-TRANSACTION` drives the commit; if the system aborted the
//!   transaction instead (processor failure, network partition, …), the
//!   TCP **restarts the program at BEGIN-TRANSACTION** — up to the
//!   configurable *transaction restart limit* — without re-entering the
//!   input screens (their data was checkpointed);
//! * `ABORT-TRANSACTION` backs out voluntarily, without restart;
//! * `RESTART-TRANSACTION` backs out and restarts (the deadlock-timeout
//!   path).
//!
//! A server-processor failure surfaces as a SEND timeout and takes the
//! restart path, matching the paper's list of automatic abort causes.
//!
//! A TCP failure is one more such cause, with a twist: the primary may
//! have died after the TMP committed the transaction but before it heard
//! so. The backup's terminal sessions hold the transids the primary
//! checkpointed open, and on takeover each of those sessions asks its TMP
//! to abort its transid. The answer decides, through the same session
//! events as any END: `Committed` moves the program past the transaction,
//! `Aborted` restarts it at BEGIN-TRANSACTION. So a terminal's logical
//! transaction commits once, whoever was primary when it did.

use crate::appmon::server_class_service;
use crate::messages::{AppReply, ServerRequest};
use crate::screen::{ScreenAction, ScreenInput, ScreenProgram};
use encompass_sim::{counter, Name, NodeId, Payload, Pid, SimDuration, SystemEvent};
use encompass_storage::types::Transid;
use encompass_storage::{Catalog, DiscReply};
use guardian::{
    space_of, Checkpointed, PairApp, PairHandle, Rpc, RpcReply, Target, TimerOutcome, ID_SPACES,
    RPC_TAG_BASE,
};
use std::collections::BTreeMap;
use tmf::session::{SessionEvent, SessionOptions, TmfSession};
use tmf::state::AbortReason;
use tmf::tmp::TmpReply;

type PairCtx<'a, 'b> = guardian::PairCtx<'a, 'b, TermDelta>;

const MAX_TERMINALS: usize = 32;
/// SEND timeout: the critical-response limit of a SEND, and its resend
/// interval to another node. A SEND is never resent, so a server that
/// dies with the request (its own process, or its processor) surfaces
/// here: no notice tells the TCP of a process's death (DESIGN.md §D28).
/// Every other SEND client (the bench's `MfgDriver`) uses it too.
pub const SEND_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Pause before retrying after a failed BEGIN or exhausted restart.
const BACKOFF: SimDuration = SimDuration::from_millis(100);

/// Restarts of one transaction before its program is told it aborted.
const RESTART_LIMIT: u32 = 5;

#[derive(Clone, Copy, PartialEq, Debug)]
enum TermState {
    Idle,
    /// A BEGIN, END or restart's abort is out at the session; its event
    /// says what comes next.
    Waiting,
    AwaitSend,
    /// Abort issued voluntarily; on completion the program sees Aborted.
    AwaitAbortFinal,
    /// Taken over with a transid open: the abort's answer says whether the
    /// program resumes past the transaction or restarts it.
    Held,
    Thinking,
    Finished,
}

struct Terminal {
    program: Box<dyn ScreenProgram>,
    session: TmfSession,
    server_rpc: Rpc<ServerRequest, AppReply>,
    /// A SEND parked on its remote-transaction-begin.
    pending_send: Option<(NodeId, Name, crate::messages::AppRequest)>,
    state: TermState,
    restart_count: u32,
    committed: u64,
    aborted: u64,
}

/// Which of a TCP's `Rpc`s issued a request id, by the id's space
/// ([`space_of`]): a reply or an rpc timer goes to that one `Rpc`, never
/// offered to the others.
#[derive(Clone, Copy)]
enum Route {
    /// No `Rpc` of this TCP issues ids in the space.
    Unused,
    /// Terminal `idx`'s TMF session (its TMP and DISCPROCESS calls).
    Session(u8),
    /// Terminal `idx`'s SENDs to server classes.
    Server(u8),
}

/// The request id of a reply one of a TCP's `Rpc`s can take: `None` for
/// any other payload.
fn reply_id(payload: &Payload) -> Option<u64> {
    (payload.downcast_ref::<RpcReply<TmpReply>>().map(|r| r.id))
        .or_else(|| payload.downcast_ref::<RpcReply<DiscReply>>().map(|r| r.id))
        .or_else(|| payload.downcast_ref::<RpcReply<AppReply>>().map(|r| r.id))
}

/// Checkpoint delta: per-terminal transaction metadata (the "data
/// extracted from input screens" equivalent — enough for the backup to
/// resolve the open transaction and resume the program).
pub struct TermDelta {
    idx: usize,
    committed: u64,
    aborted: u64,
    restart_count: u32,
    finished: bool,
    open: Option<Transid>,
}

/// The Terminal Control Process application.
pub struct TerminalControlProcess {
    /// Service name (e.g. `"$TCP0"`).
    name: Name,
    terminals: Vec<Terminal>,
    /// Id space → the `Rpc` using it, built once at construction.
    routes: [Route; ID_SPACES],
    /// Server class → the service name of its queue, named on the first
    /// SEND to the class.
    class_services: BTreeMap<Name, Name>,
}

impl TerminalControlProcess {
    pub fn new(
        name: Name,
        catalog: Catalog,
        programs: Vec<Box<dyn ScreenProgram>>,
    ) -> TerminalControlProcess {
        assert!(
            programs.len() <= MAX_TERMINALS,
            "a TCP controls up to {MAX_TERMINALS} terminals"
        );
        let terminals = programs
            .into_iter()
            .enumerate()
            .map(|(i, program)| Terminal {
                program,
                session: TmfSession::new(catalog.clone(), 64 + i as u64),
                server_rpc: Rpc::new(128 + i as u64, SEND_TIMEOUT),
                pending_send: None,
                state: TermState::Idle,
                restart_count: 0,
                committed: 0,
                aborted: 0,
            })
            .collect::<Vec<_>>();
        let mut routes = [Route::Unused; ID_SPACES];
        let mut claim = |space: u64, route: Route| {
            let slot = &mut routes[space as usize];
            assert!(
                matches!(slot, Route::Unused),
                "two of a TCP's rpcs share id space {space}"
            );
            *slot = route;
        };
        for (i, t) in terminals.iter().enumerate() {
            for space in t.session.id_spaces() {
                claim(space, Route::Session(i as u8));
            }
            claim(t.server_rpc.id_space(), Route::Server(i as u8));
        }
        TerminalControlProcess {
            name,
            terminals,
            routes,
            class_services: BTreeMap::new(),
        }
    }

    /// The `Rpc` that issued request id `id`.
    fn route(&self, id: u64) -> Route {
        self.routes[space_of(id) as usize]
    }

    /// Terminal `idx`'s delta, read off its live state.
    fn delta(&self, idx: usize) -> TermDelta {
        let t = &self.terminals[idx];
        TermDelta {
            idx,
            committed: t.committed,
            aborted: t.aborted,
            restart_count: t.restart_count,
            finished: t.state == TermState::Finished,
            open: t.session.transid(),
        }
    }

    fn checkpoint_terminal(&mut self, ctx: &mut PairCtx<'_, '_>, idx: usize) {
        ctx.checkpoint(self.delta(idx));
    }

    /// Rewind terminal `idx`'s program to its BEGIN-TRANSACTION point and
    /// start it again after a pause.
    fn resume(&mut self, ctx: &mut PairCtx<'_, '_>, idx: usize) {
        let t = &mut self.terminals[idx];
        t.program.restart();
        t.state = TermState::Thinking;
        ctx.set_timer(BACKOFF, idx as u64);
    }

    /// Feed `input` to terminal `idx`'s program and carry out its action.
    fn drive(&mut self, ctx: &mut PairCtx<'_, '_>, idx: usize, input: ScreenInput<'_>) {
        let action = self.terminals[idx].program.next(input);
        self.perform(ctx, idx, action);
    }

    fn perform(&mut self, ctx: &mut PairCtx<'_, '_>, idx: usize, action: ScreenAction) {
        let my_node = ctx.node();
        let t = &mut self.terminals[idx];
        match action {
            ScreenAction::Begin { options } => {
                if t.session.transid().is_some() {
                    // BEGIN while already in transaction mode: program error
                    ctx.count(counter!("tcp.program_errors"), 1);
                    self.restart_transaction(ctx, idx);
                    return;
                }
                t.state = TermState::Waiting;
                t.session.begin(ctx, options);
            }
            ScreenAction::Send {
                node,
                class,
                request,
            } => {
                t.state = TermState::AwaitSend;
                let dest = node.unwrap_or(my_node);
                if t.session.needs_remote(my_node, dest) {
                    // the File System performs remote transaction begin
                    // before the first transmission of the transid to the
                    // destination node
                    t.pending_send = Some((dest, class, request));
                    t.session.ensure_remote(ctx, dest);
                    return;
                }
                self.do_send(ctx, idx, dest, &class, request);
            }
            ScreenAction::End => {
                if t.session.transid().is_none() {
                    // END-TRANSACTION outside transaction mode is a screen
                    // program error; surface it as an abort
                    ctx.count(counter!("tcp.program_errors"), 1);
                    self.drive(ctx, idx, ScreenInput::Aborted);
                    return;
                }
                t.state = TermState::Waiting;
                t.session.end(ctx);
            }
            ScreenAction::Abort => {
                if t.session.transid().is_none() {
                    ctx.count(counter!("tcp.program_errors"), 1);
                    self.drive(ctx, idx, ScreenInput::Aborted);
                    return;
                }
                t.state = TermState::AwaitAbortFinal;
                t.session.abort(ctx, AbortReason::Voluntary);
            }
            ScreenAction::Restart => {
                self.restart_transaction(ctx, idx);
            }
            ScreenAction::Think(d) => {
                t.state = TermState::Thinking;
                ctx.set_timer(d, idx as u64);
            }
            ScreenAction::Finished => {
                t.state = TermState::Finished;
                ctx.count(counter!("tcp.terminals_finished"), 1);
                self.checkpoint_terminal(ctx, idx);
            }
        }
    }

    fn do_send(
        &mut self,
        ctx: &mut PairCtx<'_, '_>,
        idx: usize,
        dest: NodeId,
        class: &Name,
        request: crate::messages::AppRequest,
    ) {
        let service = match self.class_services.get(&**class) {
            Some(service) => service.clone(),
            None => {
                let service = server_class_service(class);
                self.class_services.insert(class.clone(), service.clone());
                service
            }
        };
        let t = &mut self.terminals[idx];
        let target = Target::new(dest, service);
        let env = ServerRequest {
            transid: t.session.transid(),
            options: t.session.options(),
            request,
        };
        ctx.count(counter!("tcp.sends"), 1);
        // a single attempt: a lost server surfaces as a timeout and takes
        // the abort+restart path (no blind re-execution of non-idempotent
        // work)
        if t.server_rpc.call(ctx, target, env, 0, ()).is_err() {
            self.send_failed(ctx, idx);
        }
    }

    /// Back out and restart at BEGIN-TRANSACTION, subject to the restart
    /// limit.
    fn restart_transaction(&mut self, ctx: &mut PairCtx<'_, '_>, idx: usize) {
        let t = &mut self.terminals[idx];
        if t.session.transid().is_some() {
            t.state = TermState::Waiting;
            if !t.session.busy() {
                t.session.abort(ctx, AbortReason::Restart);
            }
            // if the session is busy, the in-flight op's completion (or
            // failure) arrives first; the state machine aborts then
        } else {
            self.after_abort_restart(ctx, idx);
        }
    }

    /// The transaction is backed out: restart the program (or give up past
    /// the limit).
    fn after_abort_restart(&mut self, ctx: &mut PairCtx<'_, '_>, idx: usize) {
        let t = &mut self.terminals[idx];
        t.aborted += 1;
        t.restart_count += 1;
        ctx.count(counter!("tcp.restarts"), 1);
        if t.restart_count > RESTART_LIMIT {
            ctx.count(counter!("tcp.restart_limit_hit"), 1);
            t.restart_count = 0;
            self.checkpoint_terminal(ctx, idx);
            self.drive(ctx, idx, ScreenInput::Aborted);
            return;
        }
        self.resume(ctx, idx);
        self.checkpoint_terminal(ctx, idx);
    }

    fn send_failed(&mut self, ctx: &mut PairCtx<'_, '_>, idx: usize) {
        ctx.count(counter!("tcp.send_failures"), 1);
        if self.terminals[idx].session.transid().is_some() {
            // "failure of an application server's processor while that
            // server was working on the transaction" → abort + restart
            self.restart_transaction(ctx, idx);
        } else {
            self.drive(ctx, idx, ScreenInput::SendFailed);
        }
    }

    fn on_session_event(&mut self, ctx: &mut PairCtx<'_, '_>, idx: usize, ev: SessionEvent) {
        match ev {
            SessionEvent::Began { .. } => {
                self.checkpoint_terminal(ctx, idx);
                self.drive(ctx, idx, ScreenInput::Began);
            }
            SessionEvent::Committed => {
                let t = &mut self.terminals[idx];
                t.committed += 1;
                t.restart_count = 0;
                ctx.count(counter!("tcp.commits"), 1);
                self.checkpoint_terminal(ctx, idx);
                let t = &mut self.terminals[idx];
                if t.state == TermState::Held {
                    // the primary died inside END, after the commit: the
                    // fresh program resumes past the transaction
                    t.program.set_progress(t.committed);
                    self.resume(ctx, idx);
                } else {
                    self.drive(ctx, idx, ScreenInput::Committed);
                }
            }
            SessionEvent::Aborted => {
                if self.terminals[idx].state == TermState::AwaitAbortFinal {
                    let t = &mut self.terminals[idx];
                    t.aborted += 1;
                    t.restart_count = 0;
                    ctx.count(counter!("tcp.voluntary_aborts"), 1);
                    self.checkpoint_terminal(ctx, idx);
                    self.drive(ctx, idx, ScreenInput::Aborted);
                } else {
                    // END answered "aborted" (system abort), or an abort
                    // requested for a restart or by a takeover completed
                    self.after_abort_restart(ctx, idx);
                }
            }
            SessionEvent::Failed { .. } => {
                // a verb or op could not be carried out; back out and retry
                if self.terminals[idx].session.transid().is_some() {
                    self.restart_transaction(ctx, idx);
                } else {
                    // BEGIN failed: back off and retry
                    let t = &mut self.terminals[idx];
                    t.state = TermState::Thinking;
                    t.program.restart();
                    ctx.set_timer(BACKOFF, idx as u64);
                }
            }
            SessionEvent::OpDone { .. } => {
                // remote-transaction-begin completed: release the parked SEND
                if self.terminals[idx].state == TermState::AwaitSend {
                    if let Some((dest, class, request)) = self.terminals[idx].pending_send.take() {
                        self.do_send(ctx, idx, dest, &class, request);
                    }
                }
            }
        }
    }

    /// The terminals whose program has not finished, in terminal order,
    /// each with where its outstanding calls are addressed (its session's
    /// and its SEND's): what a stalled workload is waiting on.
    pub fn unfinished(&self) -> impl Iterator<Item = (usize, Vec<&Target>)> + '_ {
        (self.terminals.iter().enumerate())
            .filter(|(_, t)| t.state != TermState::Finished)
            .map(|(i, t)| {
                (
                    i,
                    t.session.awaiting().chain(t.server_rpc.targets()).collect(),
                )
            })
    }

    /// Each terminal's count of committed logical transactions, in
    /// terminal order: what the exactly-once oracle holds the history
    /// file's records to.
    pub fn committed(&self) -> impl Iterator<Item = u64> + '_ {
        self.terminals.iter().map(|t| t.committed)
    }
}

impl PairApp for TerminalControlProcess {
    type Delta = TermDelta;
    /// Every terminal's delta.
    type Snapshot = Vec<TermDelta>;

    fn service_name(&self) -> Name {
        self.name.clone()
    }

    fn kind(&self) -> &'static str {
        "tcp"
    }

    fn on_primary_start(&mut self, ctx: &mut PairCtx<'_, '_>) {
        // start every idle terminal
        for idx in 0..self.terminals.len() {
            if self.terminals[idx].state == TermState::Idle {
                self.drive(ctx, idx, ScreenInput::Go);
            }
        }
    }

    fn on_request(&mut self, ctx: &mut PairCtx<'_, '_>, _src: Pid, payload: Payload) {
        // anything that is not a reply, or that its `Rpc` no longer awaits
        // (stray replies after restarts), is dropped
        let Some(id) = reply_id(&payload) else {
            return;
        };
        match self.route(id) {
            Route::Session(idx) => {
                let idx = idx as usize;
                if let Ok(Some(ev)) = self.terminals[idx].session.accept(ctx, payload) {
                    self.on_session_event(ctx, idx, ev);
                }
            }
            Route::Server(idx) => {
                let idx = idx as usize;
                if let Ok(c) = self.terminals[idx].server_rpc.accept(ctx, payload) {
                    let r = c.body;
                    if r.restart {
                        self.restart_transaction(ctx, idx);
                    } else {
                        self.drive(ctx, idx, ScreenInput::Reply(&r));
                    }
                }
            }
            Route::Unused => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut PairCtx<'_, '_>, tag: u64) {
        if tag < MAX_TERMINALS as u64 {
            let idx = tag as usize;
            if self.terminals[idx].state == TermState::Thinking {
                self.drive(ctx, idx, ScreenInput::Go);
            }
            return;
        }
        let Some(id) = tag.checked_sub(RPC_TAG_BASE) else {
            return;
        };
        match self.route(id) {
            Route::Session(idx) => {
                let idx = idx as usize;
                if let Some(ev) = self.terminals[idx].session.on_timer(ctx, tag) {
                    self.on_session_event(ctx, idx, ev);
                }
            }
            Route::Server(idx) => {
                let idx = idx as usize;
                if let TimerOutcome::Expired { .. } =
                    self.terminals[idx].server_rpc.on_timer(ctx, tag)
                {
                    self.send_failed(ctx, idx);
                }
            }
            Route::Unused => {}
        }
    }

    fn on_system(&mut self, ctx: &mut PairCtx<'_, '_>, ev: SystemEvent) {
        for t in &mut self.terminals {
            t.session.on_system(ctx, ev);
            t.server_rpc.on_system(ctx, ev);
        }
    }

    fn on_takeover(&mut self, ctx: &mut PairCtx<'_, '_>) {
        ctx.count(counter!("tcp.takeovers"), 1);
        // the programs are fresh: each resumes after its checkpointed
        // commits, and a terminal whose transaction was open holds until
        // its session learns how the transaction ended
        for idx in 0..self.terminals.len() {
            let t = &mut self.terminals[idx];
            if t.state == TermState::Finished {
                continue;
            }
            t.program.set_progress(t.committed);
            if t.session.transid().is_some() {
                t.state = TermState::Held;
                t.session.abort(ctx, AbortReason::CpuFailure);
            } else {
                self.resume(ctx, idx);
            }
        }
    }

    fn apply_checkpoint(&mut self, d: TermDelta, _cp: &Checkpointed) {
        let t = &mut self.terminals[d.idx];
        t.committed = d.committed;
        t.aborted = d.aborted;
        t.restart_count = d.restart_count;
        if d.finished {
            t.state = TermState::Finished;
        }
        match d.open {
            Some(transid) => t.session.adopt(transid, SessionOptions::default()),
            None => t.session.clear(),
        }
    }

    fn snapshot(&self) -> Vec<TermDelta> {
        (0..self.terminals.len())
            .map(|idx| self.delta(idx))
            .collect()
    }

    fn restore(&mut self, snapshot: Vec<TermDelta>, cp: &Checkpointed) {
        for d in snapshot {
            self.apply_checkpoint(d, cp);
        }
    }
}

/// Spawn a TCP pair on `node`. `programs` drive its terminals (≤ 32).
pub fn spawn_tcp(
    world: &mut encompass_sim::World,
    node: NodeId,
    cpu_primary: u8,
    cpu_backup: u8,
    name: Name,
    catalog: Catalog,
    program_factory: impl Fn() -> Vec<Box<dyn ScreenProgram>> + 'static,
) -> PairHandle {
    guardian::spawn_pair(world, node, cpu_primary, cpu_backup, move || {
        TerminalControlProcess::new(name.clone(), catalog.clone(), program_factory())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::screen::ScriptProgram;

    /// A TCP's `Rpc`s at its most terminals: the constructor's collision
    /// check passes, and every id space it routes is one of them.
    #[test]
    fn a_full_tcp_routes_each_rpc_by_its_own_id_space() {
        let programs = (0..MAX_TERMINALS)
            .map(|_| Box::new(ScriptProgram::new(Vec::new())) as Box<dyn ScreenProgram>)
            .collect();
        let tcp = TerminalControlProcess::new("$TCP".into(), Catalog::new(), programs);
        let routed = tcp
            .routes
            .iter()
            .filter(|r| !matches!(r, Route::Unused))
            .count();
        assert_eq!(routed, 3 * MAX_TERMINALS, "3 a terminal");
        // the first id an `Rpc` of id space `space` issues from pid 0
        let id = |space: u64| space << 56;
        for (i, t) in tcp.terminals.iter().enumerate() {
            for space in t.session.id_spaces() {
                assert!(matches!(tcp.route(id(space)), Route::Session(j) if j as usize == i));
            }
            let server = id(t.server_rpc.id_space());
            assert!(matches!(tcp.route(server), Route::Server(j) if j as usize == i));
        }
    }
}
