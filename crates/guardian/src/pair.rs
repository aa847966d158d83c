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
struct Checkpoint<D>(D);

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

    /// Apply a checkpoint delta (backup only). The delta *is* the
    /// checkpoint, which is what `cp` witnesses.
    fn apply_checkpoint(&mut self, delta: Self::Delta, cp: &Checkpointed);

    /// Produce the full state for initializing a fresh backup.
    fn snapshot(&self) -> Self::Snapshot;

    /// Replace state from a snapshot (backup only). A snapshot only ever
    /// holds checkpoint-covered state, which is what `cp` witnesses.
    fn restore(&mut self, snapshot: Self::Snapshot, cp: &Checkpointed);

    /// Extra system events (link failures etc.), primary only.
    fn on_system(&mut self, _ctx: &mut PairCtx<'_, '_, Self::Delta>, _ev: SystemEvent) {}
}

/// The context handed to [`PairApp`] handlers: everything [`Ctx`] offers,
/// plus checkpointing deltas of type `D` (the app's [`PairApp::Delta`]) to
/// the backup.
pub struct PairCtx<'a, 'b, D> {
    inner: &'a mut Ctx<'b>,
    peer: Option<Pid>,
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

impl<D: Send + 'static> PairCtx<'_, '_, D> {
    /// Send a state delta to the backup (no-op while no backup exists —
    /// the pair is then running exposed, as real pairs do between a CPU
    /// failure and its reload). The returned witness licenses the update
    /// the delta describes.
    pub fn checkpoint(&mut self, delta: D) -> Checkpointed {
        if let Some(peer) = self.peer {
            self.inner.count(counter!("pair.checkpoints"), 1);
            let _ = self.inner.send(peer, Payload::new(Checkpoint(delta)));
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
}

impl<A: PairApp> PairProcess<A> {
    fn other_home(&self, mine: CpuId) -> CpuId {
        if self.home.0 == mine {
            self.home.1
        } else {
            self.home.0
        }
    }

    fn pair_ctx<'a, 'b>(&self, ctx: &'a mut Ctx<'b>) -> PairCtx<'a, 'b, A::Delta> {
        PairCtx {
            inner: ctx,
            peer: self.peer,
            _delta: PhantomData,
        }
    }
}

impl<A: PairApp> Process for PairProcess<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.subscribe_system();
        match self.role {
            Role::Primary => {
                ctx.register_name(&self.app.service_name());
                let mut pctx = self.pair_ctx(ctx);
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
            Ok(Checkpoint(delta)) => {
                self.app.apply_checkpoint(delta, &Checkpointed(()));
                return;
            }
            Err(other) => other,
        };
        let payload = match payload.downcast::<PairMsg<A::Snapshot>>() {
            Ok(PairMsg::BackupHello) => {
                // a backup (re)announced itself: adopt it and sync it
                self.peer = Some(src);
                let snap = self.app.snapshot();
                let _ = ctx.send(src, Payload::new(PairMsg::Snapshot(snap)));
                return;
            }
            Ok(PairMsg::Snapshot(snapshot)) => {
                self.app.restore(snapshot, &Checkpointed(()));
                return;
            }
            Err(other) => other,
        };
        match self.role {
            Role::Primary => {
                let mut pctx = self.pair_ctx(ctx);
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
            let mut pctx = self.pair_ctx(ctx);
            self.app.on_timer(&mut pctx, tag);
        }
    }

    fn on_system(&mut self, ctx: &mut Ctx<'_>, ev: SystemEvent) {
        match ev {
            SystemEvent::CpuDown(node, cpu) if node == ctx.node() => {
                match self.role {
                    Role::Backup if self.peer.map(|p| p.cpu) == Some(cpu) => {
                        // the primary died with its CPU: take over
                        self.role = Role::Primary;
                        self.peer = None;
                        ctx.register_name(&self.app.service_name());
                        ctx.count(counter!("pair.takeovers"), 1);
                        ctx.trace("pair.takeover", || self.app.service_name().to_string());
                        let mut pctx = self.pair_ctx(ctx);
                        self.app.on_takeover(&mut pctx);
                        let mut pctx = self.pair_ctx(ctx);
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
                let backup = PairProcess {
                    app: (factory)(),
                    factory: Rc::clone(&self.factory),
                    role: Role::Backup,
                    peer: Some(ctx.pid()),
                    home: self.home,
                };
                if ctx.try_spawn(node, cpu, Box::new(backup)).is_some() {
                    ctx.count(counter!("pair.backup_respawned"), 1);
                }
                // peer is set when the new backup's BackupHello arrives
            }
            SystemEvent::CpuDown(..)
            | SystemEvent::CpuUp(..)
            | SystemEvent::LinkDown(_)
            | SystemEvent::LinkUp(_) => {}
        }
        if self.role == Role::Primary {
            let mut pctx = self.pair_ctx(ctx);
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
        crate::rpc::Target::Named(self.node, self.name.clone())
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
        Box::new(PairProcess {
            app,
            factory: Rc::clone(&factory),
            role: Role::Primary,
            peer: None, // learned from the backup's hello
            home,
        }),
    );
    let backup = world.spawn(
        node,
        cpu_backup,
        Box::new(PairProcess {
            app: (factory)(),
            factory,
            role: Role::Backup,
            peer: Some(primary),
            home,
        }),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::{Admitted, Rpc, Served, Target, TimerOutcome};
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
                applied: Served::new(1024),
            }
        }
    }

    impl PairApp for Counter {
        /// An applied request: `(request id, amount added)`.
        type Delta = (u64, u64);
        type Snapshot = u64;

        fn service_name(&self) -> Name {
            self.name.clone()
        }
        fn on_request(
            &mut self,
            ctx: &mut PairCtx<'_, '_, (u64, u64)>,
            _src: Pid,
            payload: Payload,
        ) {
            // retried requests are replayed from memory, so at-least-once
            // delivery stays exactly-once
            if let Admitted::Fresh(owed, Add(n)) = self.applied.admit(ctx, payload) {
                self.value += n;
                // checkpoint the *applied request*, not the raw value, so a
                // backup can dedup retries that arrive after takeover too
                ctx.checkpoint((owed.id(), n));
                self.applied.answer(ctx, owed, self.value);
            }
        }
        fn apply_checkpoint(&mut self, (id, add): (u64, u64), _cp: &Checkpointed) {
            self.value += add;
            self.applied.record(id, self.value);
        }
        fn snapshot(&self) -> u64 {
            self.value
        }
        fn restore(&mut self, snapshot: u64, _cp: &Checkpointed) {
            self.value = snapshot;
        }
    }

    /// Client that sends `n` Add(1) requests, one after the other, with
    /// aggressive retries, and records the final counter value.
    struct AddClient {
        target: Target,
        rpc: Rpc<Add, u64>,
        remaining: u64,
        last: StdRc<RefCell<Option<u64>>>,
    }
    impl Process for AddClient {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.kick(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
            if let Ok(c) = self.rpc.accept(ctx, payload) {
                *self.last.borrow_mut() = Some(c.body);
                self.kick(ctx);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
            if matches!(self.rpc.on_timer(ctx, tag), TimerOutcome::Expired { .. }) {
                // name may be mid-takeover; try again
                self.kick_retry(ctx);
            }
        }
    }
    impl AddClient {
        fn kick(&mut self, ctx: &mut Ctx<'_>) {
            if self.remaining == 0 {
                return;
            }
            self.remaining -= 1;
            self.kick_retry(ctx);
        }
        fn kick_retry(&mut self, ctx: &mut Ctx<'_>) {
            // bounded per-call retries; on expiry we re-issue a fresh call
            if self
                .rpc
                .call(
                    ctx,
                    self.target.clone(),
                    Add(1),
                    SimDuration::from_millis(20),
                    8,
                    (),
                )
                .is_err()
            {
                // name unresolvable during takeover: fall back to a
                // safe-delivery call that keeps retrying until it lands
                self.rpc.call_persistent(
                    ctx,
                    self.target.clone(),
                    Add(1),
                    SimDuration::from_millis(20),
                    (),
                );
            }
        }
    }

    #[test]
    fn pair_serves_requests() {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(4);
        let h = spawn_pair(&mut w, n, 0, 1, || Counter::new("$CTR"));
        let last = StdRc::new(RefCell::new(None));
        w.spawn(
            n,
            2,
            Box::new(AddClient {
                target: h.target(),
                rpc: Rpc::new(0),
                remaining: 10,
                last: last.clone(),
            }),
        );
        w.run_until_quiescent();
        assert_eq!(*last.borrow(), Some(10));
        assert_eq!(w.metrics().get("pair.checkpoints"), 10);
    }

    #[test]
    fn takeover_preserves_state_and_service() {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(4);
        let h = spawn_pair(&mut w, n, 0, 1, || Counter::new("$CTR"));
        let last = StdRc::new(RefCell::new(None));
        w.spawn(
            n,
            2,
            Box::new(AddClient {
                target: h.target(),
                rpc: Rpc::new(0),
                remaining: 200,
                last: last.clone(),
            }),
        );
        // kill the primary's CPU mid-workload
        w.schedule_fault(
            encompass_sim::SimTime::from_micros(20_000),
            Fault::KillCpu(n, CpuId(0)),
        );
        w.run_until_quiescent();
        assert_eq!(w.metrics().get("pair.takeovers"), 1);
        // every one of the 200 adds is reflected exactly once
        assert_eq!(*last.borrow(), Some(200));
    }

    #[test]
    fn backup_respawns_after_reload_and_second_takeover_works() {
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(4);
        let h = spawn_pair(&mut w, n, 0, 1, || Counter::new("$CTR"));
        let last = StdRc::new(RefCell::new(None));
        w.spawn(
            n,
            2,
            Box::new(AddClient {
                target: h.target(),
                rpc: Rpc::new(0),
                remaining: 300,
                last: last.clone(),
            }),
        );
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
        w.spawn(
            n,
            2,
            Box::new(AddClient {
                target: h.target(),
                rpc: Rpc::new(0),
                remaining: 10,
                last: StdRc::new(RefCell::new(None)),
            }),
        );
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
}
