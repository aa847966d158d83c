//! The simulation kernel: owns all processes, hardware state, the event
//! queue, stable storage, metrics, and the fault injector.

use crate::config::{
    SimConfig, BUS_LATENCY, FAILURE_DETECT_DELAY, LOCAL_LATENCY, NET_HOP_OVERHEAD,
};
use crate::event::{EventKind, EventQueue, Popped};
use crate::fault::Fault;
use crate::flightrec::FlightRecorder;
use crate::ids::{CpuId, LinkId, NodeId, Pid};
use crate::metrics::Metrics;
use crate::msg::Payload;
use crate::process::{Ctx, Process, SendError, SystemEvent, TimerId};
use crate::stable::StableStorage;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::{Trace, TraceEvent};
use crate::{counter, DetHashMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct ProcSlot {
    pid: Pid,
    alive: bool,
    kind: &'static str,
    process: Option<Box<dyn Process>>,
}

/// The simulated world. Construct one, build the topology, spawn processes,
/// schedule faults, then drive it with [`World::run_until`] /
/// [`World::run_for`] / [`World::run_until_quiescent`].
pub struct World {
    cfg: SimConfig,
    now: SimTime,
    queue: EventQueue,
    procs: Vec<ProcSlot>,
    topology: Topology,
    /// Name table of each node, indexed by node id.
    names: Vec<DetHashMap<String, Pid>>,
    stable: StableStorage,
    rng: StdRng,
    metrics: Metrics,
    trace: Trace,
    flightrec: FlightRecorder,
    subscribers: Vec<Pid>,
    events_processed: u64,
}

impl World {
    pub fn new(cfg: SimConfig) -> World {
        let rng = StdRng::seed_from_u64(cfg.seed);
        let trace = Trace::new(cfg.trace_enabled, cfg.trace_capacity);
        let flightrec = FlightRecorder::new(cfg.flight_recorder, cfg.flight_capacity);
        World {
            cfg,
            now: SimTime::ZERO,
            queue: EventQueue::default(),
            procs: Vec::new(),
            topology: Topology::new(),
            names: Vec::new(),
            stable: StableStorage::new(),
            rng,
            metrics: Metrics::new(),
            trace,
            flightrec,
            subscribers: Vec::new(),
            events_processed: 0,
        }
    }

    // ------------------------------------------------------------------
    // Topology construction
    // ------------------------------------------------------------------

    /// Add a node with `cpus` processor modules (2..=16).
    pub fn add_node(&mut self, cpus: u8) -> NodeId {
        self.names.push(DetHashMap::default());
        self.topology.add_node(cpus)
    }

    /// Connect two nodes with a communications link of the given latency.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, latency: SimDuration) -> LinkId {
        self.topology.add_link(a, b, latency)
    }

    /// Set a per-link message-loss probability (exercises the end-to-end
    /// retransmission protocol in the `guardian` crate).
    pub fn set_link_loss(&mut self, link: LinkId, prob: f64) {
        self.topology.set_link_loss(link, prob);
    }

    pub fn node_count(&self) -> u8 {
        self.topology.nodes.len() as u8
    }

    pub fn cpu_count(&self, node: NodeId) -> u8 {
        self.topology.node(node).cpus.len() as u8
    }

    pub fn cpu_up(&self, node: NodeId, cpu: CpuId) -> bool {
        self.topology.node(node).cpu_up(cpu)
    }

    pub fn link_up(&self, link: LinkId) -> bool {
        self.topology.link(link).up
    }

    pub fn reachable(&mut self, from: NodeId, to: NodeId) -> bool {
        self.topology.route(from, to).is_some()
    }

    // ------------------------------------------------------------------
    // Processes
    // ------------------------------------------------------------------

    /// Spawn a process; panics if the target CPU is down (a driver bug).
    pub fn spawn(&mut self, node: NodeId, cpu: u8, process: Box<dyn Process>) -> Pid {
        self.try_spawn(node, CpuId(cpu), process)
            .unwrap_or_else(|| panic!("spawn on a down CPU {node} cpu{cpu}"))
    }

    /// Spawn a process; `None` if the target CPU is down.
    pub fn try_spawn(
        &mut self,
        node: NodeId,
        cpu: CpuId,
        process: Box<dyn Process>,
    ) -> Option<Pid> {
        if !self.topology.node(node).cpu_up(cpu) {
            return None;
        }
        let pid = Pid {
            node,
            cpu,
            index: self.procs.len() as u32,
        };
        let kind = process.kind();
        self.procs.push(ProcSlot {
            pid,
            alive: true,
            kind,
            process: Some(process),
        });
        self.queue.push(self.now, EventKind::Start { pid });
        Some(pid)
    }

    /// The `Process::kind` label of a process (for diagnostics), if it was
    /// ever spawned.
    pub fn process_kind(&self, pid: Pid) -> Option<&'static str> {
        self.procs.get(pid.index as usize).map(|s| s.kind)
    }

    pub fn is_alive(&self, pid: Pid) -> bool {
        self.procs
            .get(pid.index as usize)
            .map(|s| s.alive)
            .unwrap_or(false)
    }

    /// The live process `pid`, if it is a `P`: `None` for a dead, unknown
    /// or differently typed one. A read between events, so it sees every
    /// handler either whole or not at all, and it is no event: the trace
    /// hash and the event count do not move (DESIGN.md §D22).
    pub fn inspect<P: Process>(&self, pid: Pid) -> Option<&P> {
        let process: &dyn Process = self.procs.get(pid.index as usize)?.process.as_deref()?;
        (process as &dyn std::any::Any).downcast_ref()
    }

    /// The owner and tag of every armed timer: a read between events like
    /// [`World::inspect`], so the trace hash does not move. A dead
    /// process's timers stay armed until they fire unheard.
    pub fn armed_timers(&self) -> impl Iterator<Item = (Pid, u64)> + '_ {
        self.queue.armed()
    }

    /// All live pids on the given CPU.
    pub fn procs_on_cpu(&self, node: NodeId, cpu: CpuId) -> Vec<Pid> {
        self.procs
            .iter()
            .filter(|s| s.alive && s.pid.node == node && s.pid.cpu == cpu)
            .map(|s| s.pid)
            .collect()
    }

    /// Bind `name` to `pid` on `node`, replacing any earlier binding. A
    /// takeover re-registers a name the table already holds: that
    /// overwrites the entry, and only a name never seen is copied.
    pub fn register_name(&mut self, node: NodeId, name: &str, pid: Pid) {
        let names = &mut self.names[node.0 as usize];
        match names.get_mut(name) {
            Some(bound) => *bound = pid,
            None => {
                names.insert(name.to_string(), pid);
            }
        }
    }

    /// Resolve a name to a live process.
    pub fn lookup_name(&self, node: NodeId, name: &str) -> Option<Pid> {
        let pid = *self.names.get(node.0 as usize)?.get(name)?;
        self.is_alive(pid).then_some(pid)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    pub fn stable(&self) -> &StableStorage {
        &self.stable
    }

    pub fn stable_mut(&mut self) -> &mut StableStorage {
        &mut self.stable
    }

    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Rolling hash over the ordered event stream; equal hashes mean two
    /// runs behaved identically.
    pub fn trace_hash(&self) -> u64 {
        self.trace.hash()
    }

    /// Retained human-readable trace events (empty unless tracing enabled).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.events().cloned().collect()
    }

    /// The transaction flight recorder (read side: timelines, JSON export).
    pub fn flightrec(&self) -> &FlightRecorder {
        &self.flightrec
    }

    pub fn flightrec_mut(&mut self) -> &mut FlightRecorder {
        &mut self.flightrec
    }

    /// Number of events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    pub(crate) fn trace_note(
        &mut self,
        kind: &'static str,
        code: u64,
        detail: impl FnOnce() -> String,
    ) {
        self.trace.note(self.now, kind, code, detail);
    }

    // ------------------------------------------------------------------
    // Faults
    // ------------------------------------------------------------------

    /// Apply a fault right now.
    pub fn inject(&mut self, fault: Fault) {
        self.apply_fault(fault);
    }

    /// Apply a fault at a future virtual time.
    pub fn schedule_fault(&mut self, at: SimTime, fault: Fault) {
        assert!(at >= self.now, "cannot schedule a fault in the past");
        self.queue.push(at, EventKind::Fault(fault));
    }

    fn apply_fault(&mut self, fault: Fault) {
        self.trace_note("fault", 0xFA17, || fault.label());
        self.metrics.add(counter!("sim.faults"), 1);
        match fault {
            Fault::KillCpu(node, cpu) => {
                if !self.topology.node(node).cpu_up(cpu) {
                    return;
                }
                self.topology.node_mut(node).cpus[cpu.0 as usize].up = false;
                for slot in &mut self.procs {
                    if slot.alive && slot.pid.node == node && slot.pid.cpu == cpu {
                        slot.alive = false;
                        slot.process = None;
                    }
                }
                self.notify_node(node, SystemEvent::CpuDown(node, cpu));
            }
            Fault::RestoreCpu(node, cpu) => {
                if self.topology.node(node).cpu_up(cpu) {
                    return;
                }
                self.topology.node_mut(node).cpus[cpu.0 as usize].up = true;
                self.notify_node(node, SystemEvent::CpuUp(node, cpu));
            }
            Fault::KillBus(node, bus) => {
                self.topology.node_mut(node).buses[(bus as usize) & 1] = false;
            }
            Fault::HealBus(node, bus) => {
                let was_up = self.topology.node(node).bus_up();
                self.topology.node_mut(node).buses[(bus as usize) & 1] = true;
                if !was_up {
                    self.notify_node(node, SystemEvent::BusUp(node));
                }
            }
            Fault::CutLink(link) => {
                self.topology.set_link_up(link, false);
                self.notify_all(SystemEvent::LinkDown(link));
            }
            Fault::HealLink(link) => {
                self.topology.set_link_up(link, true);
                self.notify_all(SystemEvent::LinkUp(link));
            }
            Fault::Partition(group) => {
                for link in self.topology.crossing_links(&group) {
                    self.topology.set_link_up(link, false);
                    self.notify_all(SystemEvent::LinkDown(link));
                }
            }
            Fault::HealAllLinks => {
                for link in self.topology.down_links() {
                    self.topology.set_link_up(link, true);
                    self.notify_all(SystemEvent::LinkUp(link));
                }
            }
            Fault::KillProcess(pid) => {
                if let Some(slot) = self.procs.get_mut(pid.index as usize) {
                    if slot.alive {
                        slot.alive = false;
                        slot.process = None;
                    }
                }
            }
        }
    }

    fn notify_node(&mut self, node: NodeId, ev: SystemEvent) {
        self.notify(ev, |p| p.node == node);
    }

    fn notify_all(&mut self, ev: SystemEvent) {
        self.notify(ev, |_| true);
    }

    /// Deliver `ev` to every live subscriber `to` picks, after the
    /// failure-detection delay.
    fn notify(&mut self, ev: SystemEvent, to: impl Fn(&Pid) -> bool) {
        self.drop_dead_subscribers();
        let at = self.now + FAILURE_DETECT_DELAY;
        for &dst in self.subscribers.iter().filter(|p| to(p)) {
            self.queue.push(at, EventKind::System { dst, ev });
        }
    }

    /// Subscribers come and go with their processes (every process that
    /// calls within its node subscribes, servers and one-shot clients
    /// too), so the list keeps only the live ones.
    fn drop_dead_subscribers(&mut self) {
        let procs = &self.procs;
        let alive = |p: &Pid| procs.get(p.index as usize).is_some_and(|s| s.alive);
        self.subscribers.retain(alive);
    }

    pub(crate) fn subscribe_system(&mut self, pid: Pid) {
        self.drop_dead_subscribers();
        if !self.subscribers.contains(&pid) {
            self.subscribers.push(pid);
        }
    }

    // ------------------------------------------------------------------
    // Messaging
    // ------------------------------------------------------------------

    /// Inject a message from "outside" (the test/experiment driver). The
    /// source pid is a reserved sentinel with index `u32::MAX`.
    pub fn send_external(&mut self, dst: Pid, payload: Payload) {
        let src = Pid {
            node: dst.node,
            cpu: dst.cpu,
            index: u32::MAX,
        };
        let _ = self.kernel_send(src, dst, payload);
    }

    /// Inject a message that originates on `from` and is routed over the
    /// network like any inter-node message (subject to partitions and
    /// in-flight loss).
    pub fn send_external_from(
        &mut self,
        from: NodeId,
        dst: Pid,
        payload: Payload,
    ) -> Result<(), SendError> {
        let src = Pid {
            node: from,
            cpu: CpuId(0),
            index: u32::MAX - 1,
        };
        self.kernel_send(src, dst, payload)
    }

    pub(crate) fn kernel_send(
        &mut self,
        src: Pid,
        dst: Pid,
        payload: Payload,
    ) -> Result<(), SendError> {
        let slot = self
            .procs
            .get(dst.index as usize)
            .filter(|s| s.alive)
            .ok_or(SendError::NoSuchProcess)?;
        debug_assert_eq!(slot.pid, dst);

        let (mut latency, via) = if src.index == u32::MAX || src.node == dst.node {
            if src.index != u32::MAX && src.cpu != dst.cpu {
                if !self.topology.node(dst.node).bus_up() {
                    return Err(SendError::BusDown);
                }
                self.metrics.add(counter!("sim.msgs.bus"), 1);
                (BUS_LATENCY, None)
            } else {
                self.metrics.add(counter!("sim.msgs.local"), 1);
                (LOCAL_LATENCY, None)
            }
        } else {
            let route = self
                .topology
                .route(src.node, dst.node)
                .ok_or(SendError::Unreachable)?;
            self.metrics.add(counter!("sim.msgs.net"), 1);
            self.metrics
                .add(counter!("sim.msgs.net.hops"), route.links.len() as u64);
            // per-link loss: decided at send time, deterministically
            for &link in &route.links {
                let p = self.topology.link(link).loss_prob;
                if p > 0.0 && self.rng.random::<f64>() < p {
                    self.metrics.add(counter!("sim.msgs.lost"), 1);
                    // the message vanishes on the wire: report success
                    self.trace.note(self.now, "msg.lost", dst.index as u64, || {
                        format!("{src}->{dst} lost on {link:?}")
                    });
                    return Ok(());
                }
            }
            let hops = route.links.len() as u64;
            (route.latency + NET_HOP_OVERHEAD.mul(hops), Some(route))
        };

        if self.cfg.jitter.as_micros() > 0 {
            latency = latency
                + SimDuration::from_micros(self.rng.random_range(0..=self.cfg.jitter.as_micros()));
        }

        self.queue.push(
            self.now + latency,
            EventKind::Deliver {
                dst,
                src,
                payload,
                via,
            },
        );
        Ok(())
    }

    pub(crate) fn kernel_set_timer(&mut self, pid: Pid, delay: SimDuration, tag: u64) -> TimerId {
        self.queue.set_timer(self.now + delay, pid, tag)
    }

    pub(crate) fn kernel_cancel_timer(&mut self, timer: TimerId) {
        self.queue.cancel(timer);
    }

    // ------------------------------------------------------------------
    // The event loop
    // ------------------------------------------------------------------

    /// Dispatch a single event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, popped)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.events_processed += 1;
        match popped {
            Popped::Event(EventKind::Deliver {
                dst,
                src,
                payload,
                via,
            }) => {
                // lose the message if any link of its path went down in flight
                let mut path = via.iter().flat_map(|route| &route.links);
                if path.any(|&l| !self.topology.link(l).up) {
                    self.metrics.add(counter!("sim.msgs.lost_in_flight"), 1);
                    self.trace.note(self.now, "msg.cut", dst.index as u64, || {
                        format!("{src}->{dst} lost to link failure in flight")
                    });
                    return true;
                }
                if !self.is_alive(dst) {
                    self.metrics.add(counter!("sim.msgs.to_dead"), 1);
                    return true;
                }
                self.trace.note(self.now, "deliver", dst.index as u64, || {
                    format!("{src}->{dst} {}", payload.type_name())
                });
                self.with_process(dst, |proc, ctx| proc.on_message(ctx, src, payload));
            }
            Popped::Timer(id, pid, tag) => {
                if !self.is_alive(pid) {
                    return true;
                }
                self.trace.note(self.now, "timer", pid.index as u64, || {
                    format!("{pid} timer {id:?} tag {tag}")
                });
                self.with_process(pid, |proc, ctx| proc.on_timer(ctx, id, tag));
            }
            Popped::Event(EventKind::System { dst, ev }) => {
                if !self.is_alive(dst) {
                    return true;
                }
                self.trace.note(self.now, "system", dst.index as u64, || {
                    format!("{dst} {ev:?}")
                });
                self.with_process(dst, |proc, ctx| proc.on_system(ctx, ev));
            }
            Popped::Event(EventKind::Fault(fault)) => {
                self.apply_fault(fault);
            }
            Popped::Event(EventKind::Start { pid }) => {
                if !self.is_alive(pid) {
                    return true;
                }
                self.trace
                    .note(self.now, "start", pid.index as u64, || format!("{pid}"));
                self.with_process(pid, |proc, ctx| proc.on_start(ctx));
            }
        }
        true
    }

    fn with_process(&mut self, pid: Pid, f: impl FnOnce(&mut Box<dyn Process>, &mut Ctx<'_>)) {
        let idx = pid.index as usize;
        let Some(mut proc) = self.procs[idx].process.take() else {
            return;
        };
        let mut ctx = Ctx {
            world: self,
            pid,
            exited: false,
        };
        f(&mut proc, &mut ctx);
        let exited = ctx.exited;
        let slot = &mut self.procs[idx];
        if exited || !slot.alive {
            slot.alive = false;
            slot.process = None;
        } else {
            slot.process = Some(proc);
        }
    }

    /// Run until the virtual clock reaches `t` (events at exactly `t` are
    /// processed). The clock is advanced to `t` even if the queue drains.
    pub fn run_until(&mut self, t: SimTime) {
        while self.queue.next_at().is_some_and(|at| at <= t) {
            self.step();
        }
        if self.now < t {
            self.now = t;
        }
    }

    /// Run for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Run until no events remain, and return the instant of the last.
    /// Panics after 100 million events. A process that re-arms a timer
    /// on every firing keeps the queue from ever emptying. In a TMF world
    /// that is only the TMP's audit-trail purge sweep, when
    /// `trail_purge_interval` is set, and a sharded bank's `$SUSPENSE`
    /// poll; every other background clock of the stack runs only while it
    /// has work (DESIGN.md §D31), so a finished bank world falls silent.
    pub fn run_until_quiescent(&mut self) -> SimTime {
        let mut budget: u64 = 100_000_000;
        while self.step() {
            budget -= 1;
            assert!(budget > 0, "run_until_quiescent exceeded event budget");
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Process for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, src: Pid, payload: Payload) {
            let _ = ctx.send(src, payload);
        }
        fn kind(&self) -> &'static str {
            "echo"
        }
    }

    struct CollectorProbe(std::rc::Rc<std::cell::RefCell<Vec<u32>>>);
    impl Process for CollectorProbe {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
            self.0.borrow_mut().push(payload.expect::<u32>());
        }
    }

    fn two_node_world() -> (World, NodeId, NodeId, LinkId) {
        let mut w = World::new(SimConfig::default());
        let a = w.add_node(4);
        let b = w.add_node(4);
        let l = w.add_link(a, b, SimDuration::from_millis(2));
        (w, a, b, l)
    }

    #[test]
    fn local_bus_and_net_latencies() {
        let (mut w, a, b, _) = two_node_world();
        let echo_local = w.spawn(a, 0, Box::new(Echo));
        let echo_bus = w.spawn(a, 1, Box::new(Echo));
        let echo_net = w.spawn(b, 0, Box::new(Echo));
        w.run_until_quiescent();
        assert_eq!(w.process_kind(echo_local), Some("echo"));

        struct Driver {
            peers: Vec<Pid>,
            replies: std::rc::Rc<std::cell::RefCell<Vec<(u64,)>>>,
        }
        impl Process for Driver {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for &p in &self.peers {
                    ctx.send(p, Payload::new(1u32)).unwrap();
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, _payload: Payload) {
                self.replies.borrow_mut().push((ctx.now().as_micros(),));
            }
        }
        let replies = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        w.spawn(
            a,
            0,
            Box::new(Driver {
                peers: vec![echo_local, echo_bus, echo_net],
                replies: replies.clone(),
            }),
        );
        w.run_until_quiescent();
        let r = replies.borrow();
        assert_eq!(r.len(), 3, "all three echoes replied");
        // round-trips: local < bus < network
        assert_eq!(r[0].0, LOCAL_LATENCY.as_micros() * 2);
        assert_eq!(w.metrics().get("sim.msgs.bus"), 2);
        assert_eq!(w.metrics().get("sim.msgs.net"), 2);
    }

    #[test]
    fn send_to_dead_process_errors() {
        let (mut w, a, _, _) = two_node_world();
        let echo = w.spawn(a, 0, Box::new(Echo));
        w.run_until_quiescent();
        w.inject(Fault::KillProcess(echo));
        struct D {
            peer: Pid,
            result: std::rc::Rc<std::cell::RefCell<Option<Result<(), SendError>>>>,
        }
        impl Process for D {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let r = ctx.send(self.peer, Payload::new(0u32));
                *self.result.borrow_mut() = Some(r);
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: Pid, _: Payload) {}
        }
        let result = std::rc::Rc::new(std::cell::RefCell::new(None));
        w.spawn(
            a,
            1,
            Box::new(D {
                peer: echo,
                result: result.clone(),
            }),
        );
        w.run_until_quiescent();
        assert_eq!(*result.borrow(), Some(Err(SendError::NoSuchProcess)));
    }

    #[test]
    fn cpu_kill_silences_processes_and_notifies_node() {
        let (mut w, a, _, _) = two_node_world();
        let echo = w.spawn(a, 0, Box::new(Echo));

        struct Watcher {
            events: std::rc::Rc<std::cell::RefCell<Vec<SystemEvent>>>,
        }
        impl Process for Watcher {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.subscribe_system();
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: Pid, _: Payload) {}
            fn on_system(&mut self, _ctx: &mut Ctx<'_>, ev: SystemEvent) {
                self.events.borrow_mut().push(ev);
            }
        }
        let events = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        w.spawn(
            a,
            1,
            Box::new(Watcher {
                events: events.clone(),
            }),
        );
        w.run_until_quiescent();
        w.inject(Fault::KillCpu(a, CpuId(0)));
        w.run_for(SimDuration::from_millis(50));
        assert!(!w.is_alive(echo));
        assert_eq!(
            events.borrow().as_slice(),
            &[SystemEvent::CpuDown(a, CpuId(0))]
        );
        // restore notifies too
        w.inject(Fault::RestoreCpu(a, CpuId(0)));
        w.run_for(SimDuration::from_millis(50));
        assert_eq!(events.borrow().len(), 2);
        assert_eq!(events.borrow()[1], SystemEvent::CpuUp(a, CpuId(0)));
    }

    #[test]
    fn partition_makes_sends_fail_and_heals() {
        let (mut w, a, b, _) = two_node_world();
        let echo = w.spawn(b, 0, Box::new(Echo));
        w.run_until_quiescent();
        assert!(w.reachable(a, b));
        w.inject(Fault::Partition(vec![b]));
        assert!(!w.reachable(a, b));

        struct D {
            peer: Pid,
            result: std::rc::Rc<std::cell::RefCell<Option<Result<(), SendError>>>>,
        }
        impl Process for D {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let r = ctx.send(self.peer, Payload::new(0u32));
                *self.result.borrow_mut() = Some(r);
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: Pid, _: Payload) {}
        }
        let result = std::rc::Rc::new(std::cell::RefCell::new(None));
        w.spawn(
            a,
            0,
            Box::new(D {
                peer: echo,
                result: result.clone(),
            }),
        );
        w.run_until_quiescent();
        assert_eq!(*result.borrow(), Some(Err(SendError::Unreachable)));
        w.inject(Fault::HealAllLinks);
        assert!(w.reachable(a, b));
    }

    #[test]
    fn in_flight_messages_die_when_link_cut() {
        let (mut w, a, b, l) = two_node_world();
        let echo = w.spawn(b, 0, Box::new(Echo));
        w.run_until_quiescent();
        w.send_external_from(a, echo, Payload::new(9u32)).unwrap();
        // cut the link before the message (2ms+hop) arrives
        w.schedule_fault(w.now() + SimDuration::from_micros(10), Fault::CutLink(l));
        w.run_until_quiescent();
        assert_eq!(w.metrics().get("sim.msgs.lost_in_flight"), 1);
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct T {
            fired: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
            cancel_second: bool,
        }
        impl Process for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(1), 1);
                let second = ctx.set_timer(SimDuration::from_millis(2), 2);
                if self.cancel_second {
                    ctx.cancel_timer(second);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: Pid, _: Payload) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: crate::TimerId, tag: u64) {
                self.fired.borrow_mut().push(tag);
            }
        }
        let fired = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut w = World::new(SimConfig::default());
        let a = w.add_node(2);
        w.spawn(
            a,
            0,
            Box::new(T {
                fired: fired.clone(),
                cancel_second: true,
            }),
        );
        w.run_until_quiescent();
        assert_eq!(*fired.borrow(), vec![1]);
    }

    /// Cancelling a timer that has already fired must leave nothing
    /// behind: rpc layers cancel their timeout on every reply, fired or not.
    #[test]
    fn cancelling_fired_timers_leaves_queue_and_slab_empty() {
        const TIMERS: u64 = 10_000;
        struct T {
            armed: Vec<crate::TimerId>,
            fired: u64,
        }
        impl Process for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for tag in 0..TIMERS {
                    let delay = SimDuration::from_micros(1 + tag % 7);
                    self.armed.push(ctx.set_timer(delay, tag));
                }
                ctx.set_timer(SimDuration::from_millis(1), TIMERS);
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: Pid, _: Payload) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: crate::TimerId, tag: u64) {
                self.fired += 1;
                if tag == TIMERS {
                    assert_eq!(self.fired, TIMERS + 1, "every timer fired first");
                    for &timer in &self.armed {
                        ctx.cancel_timer(timer);
                    }
                }
            }
        }
        let mut w = World::new(SimConfig::default());
        let a = w.add_node(2);
        let armed = Vec::new();
        w.spawn(a, 0, Box::new(T { armed, fired: 0 }));
        w.run_until_quiescent();
        assert_eq!((w.queue.len(), w.queue.slots_in_use()), ((0, 0), (0, 0)));
    }

    #[test]
    fn inspect_reads_a_live_process_of_the_asked_type_and_nothing_else() {
        let (mut w, a, b, _) = two_node_world();
        let echo = w.spawn(a, 0, Box::new(Echo));
        let sink = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let collector = w.spawn(b, 1, Box::new(CollectorProbe(sink)));
        w.run_until_quiescent();
        w.send_external(collector, Payload::new(7u32));
        w.run_until_quiescent();

        let (hash, events) = (w.trace_hash(), w.events_processed());
        let seen = w
            .inspect::<CollectorProbe>(collector)
            .map(|c| c.0.borrow().clone());
        assert_eq!(seen, Some(vec![7]));
        assert!(w.inspect::<Echo>(echo).is_some());
        assert!(w.inspect::<Echo>(collector).is_none(), "a different type");
        let unknown = Pid { index: 99, ..echo };
        assert!(w.inspect::<Echo>(unknown).is_none(), "never spawned");
        assert_eq!((w.trace_hash(), w.events_processed()), (hash, events));

        w.inject(Fault::KillCpu(a, CpuId(0)));
        assert!(w.inspect::<Echo>(echo).is_none(), "died with its CPU");
        assert!(w.inspect::<CollectorProbe>(collector).is_some());
    }

    #[test]
    fn name_service_resolves_live_processes_only() {
        struct Named;
        impl Process for Named {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.register_name("$SVC");
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: Pid, _: Payload) {}
        }
        let (mut w, a, _, _) = two_node_world();
        let p = w.spawn(a, 0, Box::new(Named));
        w.run_until_quiescent();
        assert_eq!(w.lookup_name(a, "$SVC"), Some(p));
        w.inject(Fault::KillProcess(p));
        assert_eq!(w.lookup_name(a, "$SVC"), None);
    }

    #[test]
    fn deterministic_replay() {
        fn run() -> u64 {
            let (mut w, a, b, l) = two_node_world();
            let echo = w.spawn(b, 0, Box::new(Echo));
            struct Pinger {
                peer: Pid,
                n: u32,
            }
            impl Process for Pinger {
                fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                    ctx.set_timer(SimDuration::from_micros(100), 0);
                }
                fn on_message(&mut self, _: &mut Ctx<'_>, _: Pid, _: Payload) {}
                fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: crate::TimerId, _tag: u64) {
                    if self.n > 0 {
                        self.n -= 1;
                        let _ = ctx.send(self.peer, Payload::new(self.n));
                        ctx.set_timer(SimDuration::from_micros(700), 0);
                    }
                }
            }
            w.spawn(a, 1, Box::new(Pinger { peer: echo, n: 20 }));
            w.schedule_fault(SimTime::from_micros(5_000), Fault::CutLink(l));
            w.schedule_fault(SimTime::from_micros(9_000), Fault::HealLink(l));
            w.run_until(SimTime::from_micros(50_000));
            w.trace_hash()
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn bus_failure_blocks_intra_node_traffic_until_healed() {
        type Log<T> = std::rc::Rc<std::cell::RefCell<Vec<T>>>;
        let (mut w, a, _, _) = two_node_world();
        let echo = w.spawn(a, 0, Box::new(Echo));
        w.run_until_quiescent();
        w.inject(Fault::KillBus(a, 0));
        // one bus down: traffic still flows
        struct D {
            peer: Pid,
            results: Log<Result<(), SendError>>,
            notices: Log<SystemEvent>,
        }
        impl Process for D {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.subscribe_system();
                let r = ctx.send(self.peer, Payload::new(0u32));
                self.results.borrow_mut().push(r);
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: Pid, _: Payload) {}
            fn on_system(&mut self, _: &mut Ctx<'_>, ev: SystemEvent) {
                self.notices.borrow_mut().push(ev);
            }
        }
        let results: Log<_> = Default::default();
        let notices: Log<_> = Default::default();
        let d = |results: &Log<_>, notices: &Log<_>| {
            Box::new(D {
                peer: echo,
                results: results.clone(),
                notices: notices.clone(),
            })
        };
        w.spawn(a, 1, d(&results, &notices));
        w.run_until_quiescent();
        assert_eq!(results.borrow()[0], Ok(()));
        // both buses down: BusDown
        w.inject(Fault::KillBus(a, 1));
        w.spawn(a, 1, d(&results, &notices));
        w.run_until_quiescent();
        assert_eq!(results.borrow()[1], Err(SendError::BusDown));
        assert!(
            notices.borrow().is_empty(),
            "a bus failure is not announced"
        );
        // the first repair is announced to the node, once per subscriber;
        // the second changes nothing a sender sees
        w.inject(Fault::HealBus(a, 1));
        w.inject(Fault::HealBus(a, 0));
        w.run_until_quiescent();
        assert_eq!(*notices.borrow(), vec![SystemEvent::BusUp(a); 2]);
        w.spawn(a, 1, d(&results, &notices));
        w.run_until_quiescent();
        assert_eq!(results.borrow()[2], Ok(()));
    }

    #[test]
    fn collector_smoke() {
        // sanity: external sends reach a process in timestamp order
        let mut w = World::new(SimConfig::default());
        let a = w.add_node(2);
        let sink: std::rc::Rc<std::cell::RefCell<Vec<u32>>> =
            std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let p = w.spawn(a, 0, Box::new(CollectorProbe(sink.clone())));
        w.run_until_quiescent();
        for i in 0..5u32 {
            w.send_external(p, Payload::new(i));
        }
        w.run_until_quiescent();
        assert_eq!(*sink.borrow(), vec![0, 1, 2, 3, 4]);
    }
}
