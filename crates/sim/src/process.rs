//! The process abstraction and the context handle given to handlers.
//!
//! A [`Process`] is the unit of software in the simulated GUARDIAN world:
//! it lives on one CPU, owns private state, and reacts to messages, timers,
//! and system notifications. Handlers run atomically with respect to
//! failures — a CPU crash happens *between* events, never in the middle of
//! a handler — mirroring the paper's model in which a process either
//! completes an operation or disappears.

use crate::ids::{CpuId, NodeId, Pid};
use crate::kernel::World;
use crate::msg::Payload;
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;

/// A timer handle, unique for the lifetime of the simulation: the timer
/// slot the timer occupies while armed, and the queue sequence number that
/// tells this timer from a later tenant of the same slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerId {
    pub(crate) slot: u32,
    pub(crate) seq: u64,
}

/// Why a send failed. GUARDIAN surfaced equivalent errors through File
/// System error codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendError {
    /// The destination process is dead (or was never spawned).
    NoSuchProcess,
    /// No network path currently exists to the destination node.
    Unreachable,
    /// Both interprocessor buses of the node are down.
    BusDown,
}

/// Hardware notifications delivered to subscribed processes
/// (see [`Ctx::subscribe_system`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemEvent {
    /// A processor in the subscriber's own node failed (the "I'm alive"
    /// protocol noticed a missing heartbeat). Delivered after the
    /// failure-detection delay.
    CpuDown(NodeId, CpuId),
    /// A processor in the subscriber's own node was reloaded.
    CpuUp(NodeId, CpuId),
    /// A network link failed (delivered to subscribers on all nodes; remote
    /// software normally learns of partitions through send errors and
    /// timeouts instead, but the operator process wants to log this).
    LinkDown(crate::ids::LinkId),
    /// A network link was restored.
    LinkUp(crate::ids::LinkId),
}

/// Behaviour of a simulated process. All methods have default no-op
/// implementations except [`Process::on_message`]. `Any` is what lets a
/// driver read a live process's state between events
/// ([`World::inspect`]).
pub trait Process: std::any::Any {
    /// Called once, when the process is scheduled for the first time.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called for every message delivered to this process.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, src: Pid, payload: Payload);

    /// Called when a timer set with [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _timer: TimerId, _tag: u64) {}

    /// Called for system notifications, if subscribed.
    fn on_system(&mut self, _ctx: &mut Ctx<'_>, _ev: SystemEvent) {}

    /// Human-readable process kind for traces.
    fn kind(&self) -> &'static str {
        "process"
    }
}

/// The handle a process uses to interact with the world while handling an
/// event. Everything a process can observe or effect goes through here.
pub struct Ctx<'a> {
    pub(crate) world: &'a mut World,
    pub(crate) pid: Pid,
    pub(crate) exited: bool,
}

impl<'a> Ctx<'a> {
    /// This process's identity.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The node this process runs on.
    pub fn node(&self) -> NodeId {
        self.pid.node
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// Send a message. Latency is chosen by locality (same CPU, bus, or
    /// network route); see the crate docs for the failure semantics.
    pub fn send(&mut self, dst: Pid, payload: Payload) -> Result<(), SendError> {
        self.world.kernel_send(self.pid, dst, payload)
    }

    /// Resolve a registered process name (only returns live processes).
    pub fn lookup_name(&self, node: NodeId, name: &str) -> Option<Pid> {
        self.world.lookup_name(node, name)
    }

    /// Register this process under `name` on its own node, replacing any
    /// previous registrant (used by a backup taking over a service name).
    pub fn register_name(&mut self, name: &str) {
        self.world.register_name(self.pid.node, name, self.pid);
    }

    /// Arm a one-shot timer; `tag` is returned to `on_timer` for dispatch.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        self.world.kernel_set_timer(self.pid, delay, tag)
    }

    /// Cancel a previously armed timer (no-op if it already fired).
    pub fn cancel_timer(&mut self, timer: TimerId) {
        self.world.kernel_cancel_timer(timer);
    }

    /// Subscribe to [`SystemEvent`] notifications.
    pub fn subscribe_system(&mut self) {
        self.world.subscribe_system(self.pid);
    }

    /// Spawn a new process on any node/CPU. Fails if the CPU is down.
    pub fn try_spawn(
        &mut self,
        node: NodeId,
        cpu: CpuId,
        process: Box<dyn Process>,
    ) -> Option<Pid> {
        self.world.try_spawn(node, cpu, process)
    }

    /// Terminate this process after the current handler returns.
    pub fn exit(&mut self) {
        self.exited = true;
    }

    /// Is the given process alive?
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.world.is_alive(pid)
    }

    /// Is the given CPU up?
    pub fn cpu_up(&self, node: NodeId, cpu: CpuId) -> bool {
        self.world.cpu_up(node, cpu)
    }

    /// Does a network path to `node` currently exist?
    pub fn reachable(&mut self, node: NodeId) -> bool {
        self.world.reachable(self.pid.node, node)
    }

    /// Number of CPUs configured on a node.
    pub fn cpu_count(&self, node: NodeId) -> u8 {
        self.world.cpu_count(node)
    }

    /// Number of nodes in the network.
    pub fn node_count(&self) -> u8 {
        self.world.node_count()
    }

    /// The kernel RNG (deterministic per seed).
    pub fn rng(&mut self) -> &mut StdRng {
        self.world.rng()
    }

    /// Access stable (crash-surviving) media.
    pub fn stable(&mut self) -> &mut crate::StableStorage {
        self.world.stable_mut()
    }

    /// Bump a metric counter: `ctx.count(counter!("disc.reads"), 1)`.
    #[inline]
    pub fn count(&mut self, id: crate::CounterId, delta: u64) {
        self.world.metrics_mut().add(id, delta);
    }

    /// Record one observation against a pre-resolved histogram handle
    /// (see [`crate::HistogramHandle`]).
    pub fn observe_handle(&mut self, h: &crate::HistogramHandle, value: u64) {
        self.world.metrics_mut().observe_handle(h, value);
    }

    /// Record a transaction flight event attributed to this process
    /// (no-op unless [`crate::SimConfig::flight_recorder`] is on).
    pub fn flight(&mut self, transid: crate::FlightTransid, cause: crate::FlightCause) {
        let now = self.world.now();
        let pid = self.pid;
        self.world.flightrec_mut().record(now, pid, transid, cause);
    }

    /// Record a trace event attributed to this process.
    pub fn trace(&mut self, kind: &'static str, detail: impl FnOnce() -> String) {
        self.world.trace_note(kind, self.pid.index as u64, detail);
    }
}
