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

use crate::appmon::server_class_service;
use crate::messages::{AppReply, ServerRequest};
use crate::screen::{ScreenAction, ScreenInput, ScreenProgram};
use encompass_sim::{counter, Name, NodeId, Payload, Pid, SimDuration};
use encompass_storage::types::Transid;
use encompass_storage::Catalog;
use guardian::{Checkpointed, PairApp, PairHandle, Rpc, Target, TimerOutcome};
use std::collections::BTreeMap;
use tmf::session::{SessionEvent, TmfSession};
use tmf::state::AbortReason;
use tmf::tmp::{TmpMsg, TmpReply, TMP_SERVICE};

type PairCtx<'a, 'b> = guardian::PairCtx<'a, 'b, TermDelta>;

const MAX_TERMINALS: usize = 32;
/// SEND timeout (a dead server's processor surfaces here).
const SEND_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Pause before retrying after a failed BEGIN or exhausted restart.
const BACKOFF: SimDuration = SimDuration::from_millis(100);

/// TCP configuration.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Service name (e.g. `"$TCP0"`).
    pub name: Name,
    /// The transaction restart limit.
    pub restart_limit: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            name: "$TCP".into(),
            restart_limit: 5,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum TermState {
    Idle,
    AwaitBegin,
    AwaitSend,
    AwaitEnd,
    /// Abort issued; on completion the program restarts at BEGIN.
    AwaitAbortRestart,
    /// Abort issued voluntarily; on completion the program sees Aborted.
    AwaitAbortFinal,
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

/// Checkpoint delta: per-terminal transaction metadata (the "data
/// extracted from input screens" equivalent — enough for the backup to
/// abort and restart cleanly).
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
    cfg: TcpConfig,
    terminals: Vec<Terminal>,
    /// Mirrored per-terminal metadata on the backup.
    mirror_open: Vec<Option<Transid>>,
    tmp_rpc: Rpc<TmpMsg, TmpReply>,
    /// Server class → the service name of its queue, named on the first
    /// SEND to the class.
    class_services: BTreeMap<Name, Name>,
}

impl TerminalControlProcess {
    pub fn new(
        cfg: TcpConfig,
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
                server_rpc: Rpc::new(128 + i as u64),
                pending_send: None,
                state: TermState::Idle,
                restart_count: 0,
                committed: 0,
                aborted: 0,
            })
            .collect::<Vec<_>>();
        let _ = catalog;
        let n = terminals.len();
        TerminalControlProcess {
            cfg,
            terminals,
            mirror_open: vec![None; n],
            tmp_rpc: Rpc::new(30),
            class_services: BTreeMap::new(),
        }
    }

    fn checkpoint_terminal(&mut self, ctx: &mut PairCtx<'_, '_>, idx: usize) {
        let t = &self.terminals[idx];
        ctx.checkpoint(TermDelta {
            idx,
            committed: t.committed,
            aborted: t.aborted,
            restart_count: t.restart_count,
            finished: t.state == TermState::Finished,
            open: t.session.transid(),
        });
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
                t.state = TermState::AwaitBegin;
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
                t.state = TermState::AwaitEnd;
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
        let target = Target::Named(dest, service);
        let env = ServerRequest {
            transid: t.session.transid(),
            options: t.session.options(),
            request,
        };
        ctx.count(counter!("tcp.sends"), 1);
        // a single attempt: a lost server surfaces as a timeout and takes
        // the abort+restart path (no blind re-execution of non-idempotent
        // work)
        if t.server_rpc
            .call(ctx, target, env, SEND_TIMEOUT, 0, ())
            .is_err()
        {
            self.send_failed(ctx, idx);
        }
    }

    /// Back out and restart at BEGIN-TRANSACTION, subject to the restart
    /// limit.
    fn restart_transaction(&mut self, ctx: &mut PairCtx<'_, '_>, idx: usize) {
        let t = &mut self.terminals[idx];
        if t.session.transid().is_some() {
            t.state = TermState::AwaitAbortRestart;
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
        let limit = self.cfg.restart_limit;
        let t = &mut self.terminals[idx];
        t.aborted += 1;
        t.restart_count += 1;
        ctx.count(counter!("tcp.restarts"), 1);
        if t.restart_count > limit {
            ctx.count(counter!("tcp.restart_limit_hit"), 1);
            t.restart_count = 0;
            self.checkpoint_terminal(ctx, idx);
            self.drive(ctx, idx, ScreenInput::Aborted);
            return;
        }
        t.program.restart();
        t.state = TermState::Thinking;
        ctx.set_timer(BACKOFF, idx as u64);
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
                self.drive(ctx, idx, ScreenInput::Committed);
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
                    // END answered "aborted" (system abort) or an abort we
                    // requested for restart completed
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

    /// Per-terminal totals (committed, aborted) — read by experiments via
    /// the world's metrics instead; kept for doc completeness.
    pub fn totals(&self) -> (u64, u64) {
        self.terminals
            .iter()
            .fold((0, 0), |(c, a), t| (c + t.committed, a + t.aborted))
    }
}

impl PairApp for TerminalControlProcess {
    type Delta = TermDelta;
    /// Every terminal's delta.
    type Snapshot = Vec<TermDelta>;

    fn service_name(&self) -> Name {
        self.cfg.name.clone()
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
        let mut payload = payload;
        for idx in 0..self.terminals.len() {
            // try the terminal's TMF session
            payload = match self.terminals[idx].session.accept(ctx, payload) {
                Ok(Some(ev)) => {
                    self.on_session_event(ctx, idx, ev);
                    return;
                }
                Ok(None) => return,
                Err(p) => p,
            };
            // then its server rpc
            payload = match self.terminals[idx].server_rpc.accept(ctx, payload) {
                Ok(c) => {
                    let r = c.body;
                    if r.restart {
                        self.restart_transaction(ctx, idx);
                    } else {
                        self.drive(ctx, idx, ScreenInput::Reply(&r));
                    }
                    return;
                }
                Err(p) => p,
            };
        }
        // drop anything else (stray replies after restarts)
    }

    fn on_timer(&mut self, ctx: &mut PairCtx<'_, '_>, tag: u64) {
        if tag < MAX_TERMINALS as u64 {
            let idx = tag as usize;
            if self.terminals[idx].state == TermState::Thinking {
                self.drive(ctx, idx, ScreenInput::Go);
            }
            return;
        }
        // rpc timers: offer to every terminal's rpcs (ids are disjoint)
        for idx in 0..self.terminals.len() {
            if let Some(ev) = self.terminals[idx].session.on_timer(ctx, tag) {
                self.on_session_event(ctx, idx, ev);
                return;
            }
            if let TimerOutcome::Expired { .. } = self.terminals[idx].server_rpc.on_timer(ctx, tag)
            {
                self.send_failed(ctx, idx);
                return;
            }
        }
        let _ = self.tmp_rpc.on_timer(ctx, tag);
    }

    fn on_takeover(&mut self, ctx: &mut PairCtx<'_, '_>) {
        ctx.count(counter!("tcp.takeovers"), 1);
        // abort every transaction that was open on the failed primary,
        // then restart the programs at BEGIN-TRANSACTION
        let node = ctx.node();
        let opens: Vec<(usize, Option<Transid>)> =
            self.mirror_open.iter().copied().enumerate().collect();
        for (idx, open) in opens {
            if let Some(transid) = open {
                self.tmp_rpc.call_persistent(
                    ctx,
                    Target::Named(node, TMP_SERVICE),
                    TmpMsg::Abort {
                        transid,
                        reason: AbortReason::CpuFailure,
                    },
                    SimDuration::from_millis(100),
                    (),
                );
            }
            if idx < self.terminals.len() && self.terminals[idx].state != TermState::Finished {
                let t = &mut self.terminals[idx];
                // resume from the checkpointed progress: committed work is
                // never re-entered
                t.program.set_progress(t.committed);
                t.program.restart();
                t.state = TermState::Thinking;
                ctx.set_timer(BACKOFF, idx as u64);
            }
        }
    }

    fn apply_checkpoint(&mut self, d: TermDelta, _cp: &Checkpointed) {
        if d.idx < self.terminals.len() {
            let t = &mut self.terminals[d.idx];
            t.committed = d.committed;
            t.aborted = d.aborted;
            t.restart_count = d.restart_count;
            if d.finished {
                t.state = TermState::Finished;
            }
            self.mirror_open[d.idx] = d.open;
        }
    }

    fn snapshot(&self) -> Vec<TermDelta> {
        self.terminals
            .iter()
            .enumerate()
            .map(|(idx, t)| TermDelta {
                idx,
                committed: t.committed,
                aborted: t.aborted,
                restart_count: t.restart_count,
                finished: t.state == TermState::Finished,
                open: self.mirror_open.get(idx).copied().flatten(),
            })
            .collect()
    }

    fn restore(&mut self, snapshot: Vec<TermDelta>, cp: &Checkpointed) {
        for d in snapshot {
            let open = d.open;
            let idx = d.idx;
            self.apply_checkpoint(d, cp);
            if idx < self.mirror_open.len() {
                self.mirror_open[idx] = open;
            }
        }
    }
}

/// Spawn a TCP pair on `node`. `programs` drive its terminals (≤ 32).
pub fn spawn_tcp(
    world: &mut encompass_sim::World,
    node: NodeId,
    cpu_primary: u8,
    cpu_backup: u8,
    cfg: TcpConfig,
    catalog: Catalog,
    program_factory: impl Fn() -> Vec<Box<dyn ScreenProgram>> + 'static,
) -> PairHandle {
    guardian::spawn_pair(world, node, cpu_primary, cpu_backup, move || {
        TerminalControlProcess::new(cfg.clone(), catalog.clone(), program_factory())
    })
}
