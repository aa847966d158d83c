//! Process-pairs: the NonStop fault-tolerance mechanism.
//!
//! A pair is two processes running the same application logic in two
//! different CPUs of one node. The **primary** serves requests and sends
//! the **backup** *checkpoints* — deltas that keep the backup's state close
//! enough to finish anything the primary started. When the primary's CPU
//! fails, the backup takes over: it assumes the service name, runs the
//! application's takeover hook (e.g. redo in-doubt disc writes), and serves
//! on. When the failed CPU is reloaded, the surviving primary re-creates a
//! backup there and brings it up to date with a full state snapshot.
//!
//! Checkpoint granularity is chosen by the application: the paper's
//! DISCPROCESS checkpoints audit records *before* performing an update,
//! which is what lets TMF replace Write-Ahead-Log with checkpointing.
//!
//! The checkpoints a primary sends its backup are a log, and the backup
//! applies them in the order they were sent: each checkpoint carries its
//! number in the primary's stream to that backup, and one that arrives
//! early (delivery jitter lets a later message overtake an earlier one) is
//! held until its predecessors have been applied (DESIGN.md §D25).
//!
//! A caveat the paper shares: a pair protects against *single*-module
//! failure. If both CPUs hosting the pair fail, the service is lost and
//! recovery falls to ROLLFORWARD (see `encompass-audit`).

use encompass_sim::{
    counter, CpuId, Ctx, Name, NodeId, Payload, Pid, Process, SystemEvent, TimerId,
};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

/// Which half of the pair a process currently is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    Primary,
    Backup,
}

/// Proof that the state change about to be made is covered by a checkpoint:
/// the paper's "checkpointing as the functional equivalent of
/// Write-Ahead-Log", carried as a value. The functions that change durable
/// database state (the DISCPROCESS overlay, the Monitor Audit Trail) take a
/// `&Checkpointed`, so a path that never checkpointed does not compile.
///
/// Zero-sized and only minted by [`PairCtx::checkpoint`] (the primary just
/// sent the delta), by the pair framework around
/// [`PairApp::apply_checkpoint`] / [`PairApp::restore`] (the backup is
/// replaying one), and by [`Checkpointed::reviewed`].
///
/// ```compile_fail
/// let forged = guardian::Checkpointed(());
/// ```
#[derive(Debug)]
pub struct Checkpointed(());

impl Checkpointed {
    /// For a site whose covering checkpoint happened in an earlier event
    /// (and for offline media builders and tests, which have no backup):
    /// `why` says which checkpoint that was. Every call is a reviewed
    /// exception — `git grep Checkpointed::reviewed` lists them all.
    pub fn reviewed(_why: &'static str) -> Checkpointed {
        Checkpointed(())
    }
}

/// Internal pair-coordination messages; `S` is the app's
/// [`PairApp::Snapshot`].
enum PairMsg<S> {
    /// A new backup announces itself to the primary.
    BackupHello,
    /// Full application state, sent to a (re)created backup.
    Snapshot(S),
}

/// The envelope of an incremental state delta: the one box a checkpoint
/// costs. Its type path starts with `guardian::pair::`, which is how a
/// kernel trace reader tells pair-protocol traffic from application
/// requests whichever pair receives it.
///
/// `seq` is the delta's place in the primary's stream to its current
/// backup: 0 is the first delta after the snapshot, and only a send that
/// the kernel accepted uses a number up, so a refused send leaves no gap.
struct Checkpoint<D> {
    seq: u64,
    delta: D,
}

/// Application logic hosted inside a process-pair.
pub trait PairApp: 'static {
    /// The incremental state delta the primary checkpoints to the backup.
    type Delta: Send + 'static;

    /// The full state a (re)created backup starts from; `()` for a pair
    /// that replicates nothing.
    type Snapshot: Send + 'static;

    /// The service name the pair registers (e.g. `"$DATA1"`, `"$TMP"`).
    fn service_name(&self) -> Name;

    /// Label for traces.
    fn kind(&self) -> &'static str {
        "pair-app"
    }

    /// Called when this process assumes the primary role — at initial spawn
    /// and again right after [`PairApp::on_takeover`]. Arm periodic timers
    /// here.
    fn on_primary_start(&mut self, _ctx: &mut PairCtx<'_, '_, Self::Delta>) {}

    /// Handle a request (primary only).
    fn on_request(&mut self, ctx: &mut PairCtx<'_, '_, Self::Delta>, src: Pid, payload: Payload);

    /// Handle an application timer (primary only).
    fn on_timer(&mut self, _ctx: &mut PairCtx<'_, '_, Self::Delta>, _tag: u64) {}

    /// Called on the backup when it becomes primary, before any new request
    /// is served: finish in-doubt work recorded by checkpoints.
    fn on_takeover(&mut self, _ctx: &mut PairCtx<'_, '_, Self::Delta>) {}

    /// Apply a checkpoint delta (backup only), in the order the primary
    /// checkpointed them. The delta *is* the checkpoint, which is what
    /// `cp` witnesses.
    fn apply_checkpoint(&mut self, delta: Self::Delta, cp: &Checkpointed);

    /// Produce the full state for initializing a fresh backup.
    fn snapshot(&self) -> Self::Snapshot;

    /// Replace state from a snapshot (backup only). A snapshot only ever
    /// holds checkpoint-covered state, which is what `cp` witnesses.
    fn restore(&mut self, snapshot: Self::Snapshot, cp: &Checkpointed);

    /// Extra system events (link failures etc.), primary only.
    fn on_system(&mut self, _ctx: &mut PairCtx<'_, '_, Self::Delta>, _ev: SystemEvent) {}

    /// `cpu` of this pair's node failed: in either role, and before the
    /// takeover it may cause, forget what the processes that died with it
    /// left here (a [`Served`](crate::Served)'s entries for them).
    fn on_cpu_down(&mut self, _node: NodeId, _cpu: CpuId) {}
}

/// The context handed to [`PairApp`] handlers: everything [`Ctx`] offers,
/// plus checkpointing deltas of type `D` (the app's [`PairApp::Delta`]) to
/// the backup.
pub struct PairCtx<'a, 'b, D> {
    inner: &'a mut Ctx<'b>,
    peer: Option<Pid>,
    /// Deltas the backup `peer` has been sent since it was adopted.
    sent: &'a mut u64,
    _delta: PhantomData<fn(D)>,
}

impl<'b, D> Deref for PairCtx<'_, 'b, D> {
    type Target = Ctx<'b>;
    fn deref(&self) -> &Self::Target {
        self.inner
    }
}

impl<'b, D> DerefMut for PairCtx<'_, 'b, D> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.inner
    }
}

impl<'a, 'b, D> PairCtx<'a, 'b, D> {
    /// The context of a process whose backup is `peer`, which has been
    /// sent `sent` deltas. It borrows the counter alone, so the app stays
    /// free for the handler the context is passed to.
    fn new(inner: &'a mut Ctx<'b>, peer: Option<Pid>, sent: &'a mut u64) -> Self {
        PairCtx {
            inner,
            peer,
            sent,
            _delta: PhantomData,
        }
    }
}

impl<D: Send + 'static> PairCtx<'_, '_, D> {
    /// Send a state delta to the backup (no-op while no backup exists —
    /// the pair is then running exposed, as real pairs do between a CPU
    /// failure and its reload). The returned witness licenses the update
    /// the delta describes.
    pub fn checkpoint(&mut self, delta: D) -> Checkpointed {
        if let Some(peer) = self.peer {
            self.inner.count(counter!("pair.checkpoints"), 1);
            let seq = *self.sent;
            if self
                .inner
                .send(peer, Payload::new(Checkpoint { seq, delta }))
                .is_ok()
            {
                *self.sent += 1;
            }
        }
        Checkpointed(())
    }
}

/// The [`Process`] wrapper that turns a [`PairApp`] into one half of a pair.
pub struct PairProcess<A: PairApp> {
    app: A,
    factory: Rc<dyn Fn() -> A>,
    role: Role,
    peer: Option<Pid>,
    /// The two CPUs this pair is bound to (primary's first at creation).
    home: (CpuId, CpuId),
    /// Primary: deltas sent to the current backup since it was adopted.
    sent: u64,
    /// Backup: the number of the next delta to apply, `None` until the
    /// snapshot is restored.
    next: Option<u64>,
    /// Backup: deltas that arrived ahead of `next`, unordered. Jitter
    /// keeps this to a few entries, and the allocation is reused.
    held: Vec<Checkpoint<A::Delta>>,
}

impl<A: PairApp> PairProcess<A> {
    fn other_home(&self, mine: CpuId) -> CpuId {
        if self.home.0 == mine {
            self.home.1
        } else {
            self.home.0
        }
    }

    /// A process of the pair in `role`, with `app` in its initial state.
    fn new(
        app: A,
        factory: Rc<dyn Fn() -> A>,
        role: Role,
        peer: Option<Pid>,
        home: (CpuId, CpuId),
    ) -> Self {
        PairProcess {
            app,
            factory,
            role,
            peer,
            home,
            sent: 0,
            next: None,
            held: Vec::new(),
        }
    }

    /// Apply `checkpoint` if it is the next in the stream, then any held
    /// deltas it was holding up; hold it otherwise.
    fn on_checkpoint(&mut self, ctx: &mut Ctx<'_>, checkpoint: Checkpoint<A::Delta>) {
        match self.next {
            Some(next) if checkpoint.seq == next => {
                self.apply(checkpoint);
                self.apply_held();
            }
            // a late delta from the primary this process replaced: there
            // is no later delta to order it against
            _ if self.role == Role::Primary => self.apply(checkpoint),
            _ => {
                ctx.count(counter!("pair.checkpoints_held"), 1);
                self.held.push(checkpoint);
            }
        }
    }

    fn apply(&mut self, checkpoint: Checkpoint<A::Delta>) {
        self.app
            .apply_checkpoint(checkpoint.delta, &Checkpointed(()));
        self.next = Some(checkpoint.seq + 1);
    }

    /// Apply held deltas while the next one in the stream is among them.
    fn apply_held(&mut self) {
        while let Some(next) = self.next {
            let Some(at) = self.held.iter().position(|c| c.seq == next) else {
                return;
            };
            let checkpoint = self.held.swap_remove(at);
            self.apply(checkpoint);
        }
    }
}

impl<A: PairApp> Process for PairProcess<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.subscribe_system();
        match self.role {
            Role::Primary => {
                ctx.register_name(&self.app.service_name());
                let mut pctx = PairCtx::new(ctx, self.peer, &mut self.sent);
                self.app.on_primary_start(&mut pctx);
            }
            Role::Backup => {
                if let Some(primary) = self.peer {
                    let _ = ctx.send(primary, Payload::new(PairMsg::<A::Snapshot>::BackupHello));
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, src: Pid, payload: Payload) {
        let payload = match payload.downcast::<Checkpoint<A::Delta>>() {
            Ok(checkpoint) => {
                self.on_checkpoint(ctx, checkpoint);
                return;
            }
            Err(other) => other,
        };
        let payload = match payload.downcast::<PairMsg<A::Snapshot>>() {
            Ok(PairMsg::BackupHello) => {
                // a backup (re)announced itself: sync it and adopt it; its
                // deltas are numbered from 0 after the snapshot. One whose
                // snapshot the kernel refused would hold every delta for
                // good, so it is not adopted.
                let snap = self.app.snapshot();
                if ctx.send(src, Payload::new(PairMsg::Snapshot(snap))).is_ok() {
                    self.peer = Some(src);
                    self.sent = 0;
                }
                return;
            }
            Ok(PairMsg::Snapshot(snapshot)) => {
                // deltas that overtook the snapshot were held, not wiped
                self.app.restore(snapshot, &Checkpointed(()));
                self.next = Some(0);
                self.apply_held();
                return;
            }
            Err(other) => other,
        };
        match self.role {
            Role::Primary => {
                let mut pctx = PairCtx::new(ctx, self.peer, &mut self.sent);
                self.app.on_request(&mut pctx, src, payload);
            }
            Role::Backup => {
                // stale name resolution: pass it along to the primary
                if let Some(primary) = self.peer {
                    let _ = ctx.send(primary, payload);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _timer: TimerId, tag: u64) {
        if self.role == Role::Primary {
            let mut pctx = PairCtx::new(ctx, self.peer, &mut self.sent);
            self.app.on_timer(&mut pctx, tag);
        }
    }

    fn on_system(&mut self, ctx: &mut Ctx<'_>, ev: SystemEvent) {
        match ev {
            SystemEvent::CpuDown(node, cpu) if node == ctx.node() => {
                self.app.on_cpu_down(node, cpu);
                match self.role {
                    Role::Backup if self.peer.map(|p| p.cpu) == Some(cpu) => {
                        // the primary died with its CPU: apply what it
                        // sent, in order, then take over. A delta is held
                        // here only if its predecessor is still in flight,
                        // and every delivery lands within the failure
                        // detection delay, so this finds none unless that
                        // predecessor was lost.
                        if !self.held.is_empty() {
                            ctx.count(counter!("pair.held_at_takeover"), self.held.len() as u64);
                            self.held.sort_unstable_by_key(|c| c.seq);
                            for checkpoint in std::mem::take(&mut self.held) {
                                self.apply(checkpoint);
                            }
                        }
                        self.role = Role::Primary;
                        self.peer = None;
                        ctx.register_name(&self.app.service_name());
                        ctx.count(counter!("pair.takeovers"), 1);
                        ctx.trace("pair.takeover", || self.app.service_name().to_string());
                        let mut pctx = PairCtx::new(ctx, self.peer, &mut self.sent);
                        self.app.on_takeover(&mut pctx);
                        let mut pctx = PairCtx::new(ctx, self.peer, &mut self.sent);
                        self.app.on_primary_start(&mut pctx);
                    }
                    Role::Primary if self.peer.map(|p| p.cpu) == Some(cpu) => {
                        // lost the backup: run exposed until the CPU reloads
                        self.peer = None;
                        ctx.count(counter!("pair.backup_lost"), 1);
                    }
                    Role::Primary | Role::Backup => {}
                }
            }
            SystemEvent::CpuUp(node, cpu)
                if node == ctx.node()
                    && self.role == Role::Primary
                    && self.peer.is_none()
                    && cpu == self.other_home(ctx.pid().cpu) =>
            {
                // the peer CPU is back: re-create our backup there
                let factory = Rc::clone(&self.factory);
                let backup = PairProcess::new(
                    (factory)(),
                    Rc::clone(&self.factory),
                    Role::Backup,
                    Some(ctx.pid()),
                    self.home,
                );
                if ctx.try_spawn(node, cpu, Box::new(backup)).is_some() {
                    ctx.count(counter!("pair.backup_respawned"), 1);
                }
                // peer is set when the new backup's BackupHello arrives
            }
            SystemEvent::CpuDown(..)
            | SystemEvent::CpuUp(..)
            | SystemEvent::BusUp(_)
            | SystemEvent::LinkDown(_)
            | SystemEvent::LinkUp(_) => {}
        }
        if self.role == Role::Primary {
            let mut pctx = PairCtx::new(ctx, self.peer, &mut self.sent);
            self.app.on_system(&mut pctx, ev);
        }
    }

    fn kind(&self) -> &'static str {
        self.app.kind()
    }
}

/// A handle describing a spawned pair; requests are addressed by name so
/// they follow takeovers.
#[derive(Clone, Debug)]
pub struct PairHandle {
    pub node: NodeId,
    pub name: Name,
    pub primary: Pid,
    pub backup: Pid,
}

impl PairHandle {
    /// The [`crate::rpc::Target`] for requests to this service.
    pub fn target(&self) -> crate::rpc::Target {
        crate::rpc::Target::new(self.node, self.name.clone())
    }
}

/// Spawn a process-pair on `node`, primary on `cpu_primary`, backup on
/// `cpu_backup`. The factory must produce identical initial state each
/// time; it is retained so the pair can re-create a backup after a reload.
pub fn spawn_pair<A: PairApp>(
    world: &mut encompass_sim::World,
    node: NodeId,
    cpu_primary: u8,
    cpu_backup: u8,
    factory: impl Fn() -> A + 'static,
) -> PairHandle {
    assert_ne!(
        cpu_primary, cpu_backup,
        "a pair must span two different CPUs"
    );
    let factory: Rc<dyn Fn() -> A> = Rc::new(factory);
    let home = (CpuId(cpu_primary), CpuId(cpu_backup));
    let app = (factory)();
    let name = app.service_name();
    let primary = world.spawn(
        node,
        cpu_primary,
        // the primary learns its peer from the backup's hello
        Box::new(PairProcess::new(
            app,
            Rc::clone(&factory),
            Role::Primary,
            None,
            home,
        )),
    );
    let backup = world.spawn(
        node,
        cpu_backup,
        Box::new(PairProcess::new(
            (factory)(),
            factory,
            Role::Backup,
            Some(primary),
            home,
        )),
    );
    // make the name resolvable before the first simulated event runs
    world.register_name(node, &name, primary);
    PairHandle {
        node,
        name,
        primary,
        backup,
    }
}

/// The app of the pair registered as `service` on `node`, read between
/// events. Only a primary registers the name (at spawn and at takeover),
/// so this follows takeovers exactly as a request addressed by name does;
/// `None` while no live primary holds it, or if it hosts another app.
pub fn primary<'w, A: PairApp>(
    world: &'w encompass_sim::World,
    node: NodeId,
    service: &str,
) -> Option<&'w A> {
    let pid = world.lookup_name(node, service)?;
    world.inspect::<PairProcess<A>>(pid).map(|p| &p.app)
}

/// The app of `pair`'s backup, read between events like [`primary`]: the
/// backup its live primary has adopted, so this follows takeovers and
/// reloads too. `None` while the pair runs exposed (no primary, or one
/// with no backup), or if it hosts another app.
pub fn backup<'w, A: PairApp>(world: &'w encompass_sim::World, pair: &PairHandle) -> Option<&'w A> {
    let primary = world.lookup_name(pair.node, &pair.name)?;
    let peer = world.inspect::<PairProcess<A>>(primary)?.peer?;
    world
        .inspect::<PairProcess<A>>(peer)
        .filter(|p| p.role == Role::Backup)
        .map(|p| &p.app)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::{Admitted, Asked, Rpc, Served, Target};
    use encompass_sim::{Fault, SimConfig, SimDuration, World};
    use std::cell::RefCell;
    use std::rc::Rc as StdRc;

    /// A replicated counter: add requests are checkpointed to the backup.
    struct Counter {
        name: Name,
        value: u64,
        applied: Served<u64>,
    }

    #[derive(Clone)]
    struct Add(u64);

    impl Counter {
        fn new(name: &str) -> Counter {
            Counter {
                name: Name::new(name),
                value: 0,
                applied: Served::new(),
            }
        }
    }

    impl PairApp for Counter {
        /// An applied request: `(who asked, amount added)`.
        type Delta = (Asked, u64);
        type Snapshot = u64;

        fn service_name(&self) -> Name {
            self.name.clone()
        }
        fn on_request(
            &mut self,
            ctx: &mut PairCtx<'_, '_, (Asked, u64)>,
            _src: Pid,
            payload: Payload,
        ) {
            // retried requests are replayed from memory, so at-least-once
            // delivery stays exactly-once
            if let Admitted::Fresh(owed, Add(n)) = self.applied.admit(ctx, payload) {
                self.value += n;
                // checkpoint the *applied request*, not the raw value, so a
                // backup can dedup retries that arrive after takeover too
                ctx.checkpoint((owed.asked(), n));
                self.applied.answer(ctx, owed, self.value);
            }
        }
        fn apply_checkpoint(&mut self, (asked, add): (Asked, u64), _cp: &Checkpointed) {
            self.value += add;
            self.applied.record(asked, self.value);
        }
        fn snapshot(&self) -> u64 {
            self.value
        }
        fn restore(&mut self, snapshot: u64, _cp: &Checkpointed) {
            self.value = snapshot;
        }
    }

    /// Client that sends `n` Add(1) requests, one after the other, each a
    /// persistent call that a takeover's failure notice resends, and
    /// records the final counter value.
    struct AddClient {
        target: Target,
        rpc: Rpc<Add, u64>,
        remaining: u64,
        last: StdRc<RefCell<Option<u64>>>,
    }
    impl Process for AddClient {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.subscribe_system();
            self.kick(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
            if let Ok(c) = self.rpc.accept(ctx, payload) {
                *self.last.borrow_mut() = Some(c.body);
                self.kick(ctx);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
            // a persistent call never expires
            let _ = self.rpc.on_timer(ctx, tag);
        }
        fn on_system(&mut self, ctx: &mut Ctx<'_>, ev: SystemEvent) {
            self.rpc.on_system(ctx, ev);
        }
    }
    impl AddClient {
        fn spawn(w: &mut World, h: &PairHandle, remaining: u64) -> StdRc<RefCell<Option<u64>>> {
            let last = StdRc::new(RefCell::new(None));
            let client = AddClient {
                target: h.target(),
                rpc: Rpc::local(0),
                remaining,
                last: last.clone(),
            };
            w.spawn(h.node, 2, Box::new(client));
            last
        }
        fn kick(&mut self, ctx: &mut Ctx<'_>) {
            if self.remaining == 0 {
                return;
            }
            self.remaining -= 1;
            self.rpc
                .call_persistent(ctx, self.target.clone(), Add(1), ());
        }
    }

    #[test]
    fn pair_serves_requests() {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(4);
        let h = spawn_pair(&mut w, n, 0, 1, || Counter::new("$CTR"));
        let last = AddClient::spawn(&mut w, &h, 10);
        w.run_until_quiescent();
        assert_eq!(*last.borrow(), Some(10));
        assert_eq!(w.metrics().get("pair.checkpoints"), 10);
    }

    #[test]
    fn takeover_preserves_state_and_service() {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(4);
        let h = spawn_pair(&mut w, n, 0, 1, || Counter::new("$CTR"));
        let last = AddClient::spawn(&mut w, &h, 200);
        // kill the primary's CPU mid-workload
        w.schedule_fault(
            encompass_sim::SimTime::from_micros(20_000),
            Fault::KillCpu(n, CpuId(0)),
        );
        w.run_until_quiescent();
        assert_eq!(w.metrics().get("pair.takeovers"), 1);
        // the add the dead primary held went to the new primary at the
        // failure notice, once, and nothing else was resent
        assert_eq!(w.metrics().get("rpc.retransmits"), 1);
        // every one of the 200 adds is reflected exactly once
        assert_eq!(*last.borrow(), Some(200));
    }

    #[test]
    fn backup_respawns_after_reload_and_second_takeover_works() {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(4);
        let h = spawn_pair(&mut w, n, 0, 1, || Counter::new("$CTR"));
        let last = AddClient::spawn(&mut w, &h, 300);
        use encompass_sim::SimTime;
        // primary dies; backup (cpu1) takes over
        w.schedule_fault(SimTime::from_micros(20_000), Fault::KillCpu(n, CpuId(0)));
        // cpu0 reloads; new backup is created there
        w.schedule_fault(SimTime::from_micros(60_000), Fault::RestoreCpu(n, CpuId(0)));
        // then the new primary (cpu1) dies; the re-created backup takes over
        w.schedule_fault(SimTime::from_micros(120_000), Fault::KillCpu(n, CpuId(1)));
        w.run_until_quiescent();
        assert_eq!(w.metrics().get("pair.takeovers"), 2);
        assert_eq!(w.metrics().get("pair.backup_respawned"), 1);
        assert_eq!(*last.borrow(), Some(300));
    }

    #[test]
    fn primary_follows_a_takeover_to_the_checkpointed_backup() {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(4);
        let h = spawn_pair(&mut w, n, 0, 1, || Counter::new("$CTR"));
        let _ = AddClient::spawn(&mut w, &h, 10);
        w.run_until_quiescent();
        let value = |w: &World| primary::<Counter>(w, n, "$CTR").map(|c| c.value);
        assert_eq!(value(&w), Some(10));

        w.inject(Fault::KillCpu(n, CpuId(0)));
        assert_eq!(value(&w), None, "no primary until the backup notices");
        w.run_for(SimDuration::from_millis(50));
        assert_eq!(w.lookup_name(n, "$CTR"), Some(h.backup));
        assert_eq!(
            value(&w),
            Some(10),
            "the former backup, with every checkpoint"
        );
    }

    #[test]
    fn double_failure_loses_the_service() {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(4);
        let h = spawn_pair(&mut w, n, 0, 1, || Counter::new("$CTR"));
        w.run_until_quiescent();
        w.inject(Fault::KillCpu(n, CpuId(0)));
        w.inject(Fault::KillCpu(n, CpuId(1)));
        w.run_for(SimDuration::from_millis(100));
        assert_eq!(
            w.lookup_name(n, &h.name),
            None,
            "service lost: both CPUs down"
        );
    }

    #[test]
    #[should_panic(expected = "two different CPUs")]
    fn pair_must_span_two_cpus() {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(4);
        let _ = spawn_pair(&mut w, n, 1, 1, || Counter::new("$X"));
    }

    /// A pair that logs the deltas it applies: a request `n` is
    /// checkpointed as the delta `n`.
    struct Log {
        applied: Vec<u64>,
    }

    impl PairApp for Log {
        type Delta = u64;
        type Snapshot = Vec<u64>;

        fn service_name(&self) -> Name {
            Name::new("$LOG")
        }
        fn on_request(&mut self, ctx: &mut PairCtx<'_, '_, u64>, _src: Pid, payload: Payload) {
            let n = payload
                .downcast::<u64>()
                .unwrap_or_else(|p| panic!("{p:?}"));
            ctx.checkpoint(n);
            self.applied.push(n);
        }
        fn apply_checkpoint(&mut self, delta: u64, _cp: &Checkpointed) {
            self.applied.push(delta);
        }
        fn snapshot(&self) -> Vec<u64> {
            self.applied.clone()
        }
        fn restore(&mut self, snapshot: Vec<u64>, _cp: &Checkpointed) {
            self.applied = snapshot;
        }
    }

    /// A `$LOG` pair, primary on CPU 0 and backup on CPU 1, not yet run.
    fn log_pair(w: &mut World) -> PairHandle {
        let n = w.add_node(4);
        spawn_pair(w, n, 0, 1, || Log {
            applied: Vec::new(),
        })
    }

    /// Deliver to `pid` the checkpoints `(seq, delta)`, in the order given.
    fn scrambled(w: &mut World, pid: Pid, checkpoints: &[(u64, u64)]) {
        for &(seq, delta) in checkpoints {
            w.send_external(pid, Payload::new(Checkpoint { seq, delta }));
        }
        w.run_for(SimDuration::from_millis(1));
    }

    fn backup_log(w: &World, h: &PairHandle) -> Vec<u64> {
        backup::<Log>(w, h).expect("a backup").applied.clone()
    }

    #[test]
    fn deltas_apply_in_send_order() {
        let mut w = World::new(SimConfig::default());
        let h = log_pair(&mut w);
        w.run_until_quiescent();
        scrambled(&mut w, h.backup, &[(2, 12), (0, 10), (3, 13), (1, 11)]);
        assert_eq!(backup_log(&w, &h), [10, 11, 12, 13]);
        scrambled(&mut w, h.backup, &[(5, 15)]);
        assert_eq!(backup_log(&w, &h), [10, 11, 12, 13], "held behind 4");
        scrambled(&mut w, h.backup, &[(4, 14)]);
        assert_eq!(backup_log(&w, &h), [10, 11, 12, 13, 14, 15]);
        assert_eq!(w.metrics().get("pair.checkpoints_held"), 3);
    }

    #[test]
    fn a_delta_that_overtakes_the_snapshot_survives_the_restore() {
        let mut w = World::new(SimConfig::default());
        let h = log_pair(&mut w);
        // the primary has logged 1 when it snapshots; the backup's first
        // delta, 2, lands first
        w.send_external(h.primary, Payload::new(1u64));
        w.send_external(
            h.backup,
            Payload::new(Checkpoint {
                seq: 0,
                delta: 2u64,
            }),
        );
        w.run_until_quiescent();
        assert_eq!(backup_log(&w, &h), [1, 2]);
    }

    #[test]
    fn a_failed_send_uses_up_no_number() {
        let mut w = World::new(SimConfig::default());
        let h = log_pair(&mut w);
        w.run_until_quiescent();
        w.inject(Fault::KillBus(h.node, 0));
        w.inject(Fault::KillBus(h.node, 1));
        w.send_external(h.primary, Payload::new(1u64));
        w.run_until_quiescent();
        w.inject(Fault::HealBus(h.node, 0));
        w.send_external(h.primary, Payload::new(2u64));
        w.run_until_quiescent();
        assert_eq!(
            backup_log(&w, &h),
            [2],
            "1 never left the primary; 2 is still delta 0"
        );
    }

    #[test]
    fn a_takeover_applies_what_is_held_in_order() {
        let mut w = World::new(SimConfig::default());
        let h = log_pair(&mut w);
        w.run_until_quiescent();
        // delta 0 was lost with the primary
        scrambled(&mut w, h.backup, &[(2, 12), (1, 11)]);
        assert_eq!(backup_log(&w, &h), []);
        w.inject(Fault::KillCpu(h.node, CpuId(0)));
        w.run_for(SimDuration::from_millis(10));
        let took_over = primary::<Log>(&w, h.node, "$LOG").expect("the former backup");
        assert_eq!(took_over.applied, [11, 12]);
        assert_eq!(w.metrics().get("pair.held_at_takeover"), 2);
    }

    /// A delta is held at a takeover only if its predecessor was lost. One
    /// still in flight from the dead primary lands before the backup
    /// learns of the failure, as long as a bus hop plus the jitter is
    /// under the detection delay, so the new primary starts from exactly
    /// the old one's log.
    #[test]
    fn nothing_is_held_at_a_takeover_below_the_detection_delay() {
        use encompass_sim::config::{BUS_LATENCY, FAILURE_DETECT_DELAY, LOCAL_LATENCY};
        let widest = (FAILURE_DETECT_DELAY - BUS_LATENCY).as_micros() - 1;
        for jitter_us in [50, 1_000, widest] {
            let mut cfg = SimConfig::with_seed(jitter_us);
            cfg.jitter = SimDuration::from_micros(jitter_us);
            let mut w = World::new(cfg);
            let h = log_pair(&mut w);
            w.run_until_quiescent();
            // a burst of requests, each checkpointed as it is served, and
            // the primary's CPU killed while those checkpoints are in flight
            for n in 0..100u64 {
                w.send_external(h.primary, Payload::new(n));
            }
            w.run_for(LOCAL_LATENCY + SimDuration::from_micros(jitter_us + 1));
            let logged = primary::<Log>(&w, h.node, "$LOG")
                .expect("a primary")
                .applied
                .clone();
            assert_eq!(logged.len(), 100, "every request served before the kill");
            w.inject(Fault::KillCpu(h.node, CpuId(0)));
            w.run_for(SimDuration::from_millis(10));

            let m = w.metrics();
            assert_eq!(m.get("pair.takeovers"), 1);
            assert!(
                m.get("pair.checkpoints_held") > 0,
                "jitter {jitter_us} µs reorders"
            );
            assert_eq!(m.get("pair.held_at_takeover"), 0, "jitter {jitter_us} µs");
            let took_over = primary::<Log>(&w, h.node, "$LOG").expect("the former backup");
            assert_eq!(took_over.applied, logged, "jitter {jitter_us} µs");
        }
    }
}
