//! Application control: per-class server queues with dynamic server
//! creation and deletion.
//!
//! "ENCOMPASS application control … provides for the dynamic creation and
//! deletion of application server processes to ensure good response time
//! and utilization of resources as the workload on the system changes."
//!
//! A [`ServerClassQueue`] is a process-pair registered as `$SC-<class>` on
//! its node. SENDs from TCPs arrive here; the queue forwards each, as it
//! arrived, to an idle server (spawning new ones while the backlog is
//! deep, up to the maximum) and the server replies directly to the TCP.
//! Idle servers above the minimum are deleted after a shrink interval.
//!
//! The queue's state is deliberately reconstructible: a takeover drops the
//! backlog and the server roster and spawns a fresh minimum set — the
//! TCPs' SEND timeouts abort and restart the affected transactions, which
//! is exactly TMF's recovery model for application-path failures.

use crate::messages::ServerRequest;
use crate::server::{ServerIdle, ServerLogic, ServerProcess};
use encompass_sim::{counter, CounterId, CpuId, Name, Payload, Pid, SimDuration, SystemEvent};
use encompass_storage::Catalog;
use guardian::{Checkpointed, PairApp, PairHandle, Request};
use std::collections::VecDeque;
use std::convert::Infallible;
use std::rc::Rc;

type PairCtx<'a, 'b> = guardian::PairCtx<'a, 'b, Infallible>;

const TAG_SHRINK: u64 = 1;
/// Spawn another server when the backlog exceeds this.
const SPAWN_BACKLOG: usize = 2;
/// How often to consider deleting idle servers above the minimum.
const SHRINK_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// The service name the queue of server class `class` registers.
pub fn server_class_service(class: &str) -> Name {
    Name::from(format!("$SC-{class}"))
}

/// Configuration of one server class on one node.
#[derive(Clone, Debug)]
pub struct ServerClassConfig {
    /// Class name; the queue registers as `$SC-<class>`.
    pub class: String,
    /// CPUs servers may run on (round-robin).
    pub server_cpus: Vec<u8>,
    pub min_servers: usize,
    pub max_servers: usize,
    /// Lock-wait (deadlock timeout) for the servers' data-base requests.
    pub lock_wait: SimDuration,
}

impl Default for ServerClassConfig {
    fn default() -> Self {
        ServerClassConfig {
            class: "server".into(),
            server_cpus: vec![0, 1],
            min_servers: 1,
            max_servers: 8,
            lock_wait: SimDuration::from_millis(500),
        }
    }
}

/// Tells an idle server to exit (dynamic deletion).
pub(crate) struct ServerStop;

/// The queue/dispatcher for one server class (a process-pair).
pub struct ServerClassQueue {
    cfg: ServerClassConfig,
    service: Name,
    /// `appmon.<class>.requests`, named once.
    requests_counter: CounterId,
    catalog: Catalog,
    factory: Rc<dyn Fn() -> Box<dyn ServerLogic>>,
    idle: VecDeque<Pid>,
    busy: Vec<Pid>,
    backlog: VecDeque<Request<ServerRequest>>,
    cpu_rr: usize,
    started: bool,
}

impl ServerClassQueue {
    pub fn new(
        cfg: ServerClassConfig,
        catalog: Catalog,
        factory: Rc<dyn Fn() -> Box<dyn ServerLogic>>,
    ) -> ServerClassQueue {
        ServerClassQueue {
            service: server_class_service(&cfg.class),
            requests_counter: CounterId::named(&format!("appmon.{}.requests", cfg.class)),
            cfg,
            catalog,
            factory,
            idle: VecDeque::new(),
            busy: Vec::new(),
            backlog: VecDeque::new(),
            cpu_rr: 0,
            started: false,
        }
    }

    fn server_count(&self) -> usize {
        self.idle.len() + self.busy.len()
    }

    fn spawn_server(&mut self, ctx: &mut PairCtx<'_, '_>) {
        let node = ctx.node();
        for _ in 0..self.cfg.server_cpus.len() {
            let cpu = self.cfg.server_cpus[self.cpu_rr % self.cfg.server_cpus.len()];
            self.cpu_rr += 1;
            let factory = Rc::clone(&self.factory);
            let catalog = self.catalog.clone();
            let mut server = ServerProcess::new(&self.cfg.class, catalog, move || (factory)());
            server.set_lock_wait(self.cfg.lock_wait);
            if let Some(pid) = ctx.try_spawn(node, CpuId(cpu), Box::new(server)) {
                self.idle.push_back(pid);
                ctx.count(counter!("appmon.servers_spawned"), 1);
                return;
            }
        }
    }

    fn drain(&mut self, ctx: &mut PairCtx<'_, '_>) {
        while !self.backlog.is_empty() {
            // skip dead idle servers
            while let Some(&front) = self.idle.front() {
                if ctx.is_alive(front) {
                    break;
                }
                self.idle.pop_front();
            }
            let Some(server) = self.idle.pop_front() else {
                break;
            };
            let d = self.backlog.pop_front().expect("non-empty");
            let _ = ctx.send(server, Payload::new(d));
            self.busy.push(server);
        }
        // dynamic creation under backlog pressure
        while self.backlog.len() > SPAWN_BACKLOG && self.server_count() < self.cfg.max_servers {
            let before = self.server_count();
            self.spawn_server(ctx);
            if self.server_count() == before {
                break; // no CPU available
            }
            if let (Some(server), Some(d)) = (self.idle.pop_back(), self.backlog.pop_front()) {
                let _ = ctx.send(server, Payload::new(d));
                self.busy.push(server);
            }
        }
    }
}

impl PairApp for ServerClassQueue {
    /// Reconstructible by design: there is nothing to mirror, so no
    /// delta can be built.
    type Delta = Infallible;
    type Snapshot = ();

    fn service_name(&self) -> Name {
        self.service.clone()
    }

    fn kind(&self) -> &'static str {
        "server-class-queue"
    }

    fn on_primary_start(&mut self, ctx: &mut PairCtx<'_, '_>) {
        if !self.started {
            self.started = true;
            for _ in 0..self.cfg.min_servers {
                self.spawn_server(ctx);
            }
        }
        ctx.set_timer(SHRINK_INTERVAL, TAG_SHRINK);
    }

    fn on_request(&mut self, ctx: &mut PairCtx<'_, '_>, src: Pid, payload: Payload) {
        if payload.is::<Request<ServerRequest>>() {
            self.backlog
                .push_back(payload.expect::<Request<ServerRequest>>());
            ctx.count(self.requests_counter, 1);
            self.drain(ctx);
            return;
        }
        if payload.is::<ServerIdle>() {
            self.busy.retain(|p| *p != src);
            if ctx.is_alive(src) {
                self.idle.push_back(src);
            }
            self.drain(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut PairCtx<'_, '_>, tag: u64) {
        if tag == TAG_SHRINK {
            // dynamic deletion: drop idle servers above the minimum
            while self.server_count() > self.cfg.min_servers && self.idle.len() > 1 {
                if let Some(server) = self.idle.pop_front() {
                    let _ = ctx.send(server, Payload::new(ServerStop));
                    ctx.count(counter!("appmon.servers_deleted"), 1);
                }
            }
            ctx.set_timer(SHRINK_INTERVAL, TAG_SHRINK);
        }
    }

    fn on_system(&mut self, ctx: &mut PairCtx<'_, '_>, ev: SystemEvent) {
        if let SystemEvent::CpuDown(node, cpu) = ev {
            if node != ctx.node() {
                return;
            }
            // forget servers that died with the CPU and restore capacity
            self.idle.retain(|p| p.cpu != cpu);
            self.busy.retain(|p| p.cpu != cpu);
            while self.server_count() < self.cfg.min_servers {
                let before = self.server_count();
                self.spawn_server(ctx);
                if self.server_count() == before {
                    break;
                }
            }
            self.drain(ctx);
        }
    }

    fn on_takeover(&mut self, ctx: &mut PairCtx<'_, '_>) {
        // reconstructible state: fresh roster; in-flight SENDs time out at
        // the TCPs and restart their transactions
        ctx.count(counter!("appmon.takeovers"), 1);
        self.idle.clear();
        self.busy.clear();
        self.backlog.clear();
        self.started = true;
        while self.server_count() < self.cfg.min_servers {
            let before = self.server_count();
            self.spawn_server(ctx);
            if self.server_count() == before {
                break;
            }
        }
    }

    fn apply_checkpoint(&mut self, delta: Infallible, _cp: &Checkpointed) {
        match delta {}
    }

    fn snapshot(&self) {}

    fn restore(&mut self, _snapshot: (), _cp: &Checkpointed) {}
}

/// Spawn a server-class queue pair (and its initial servers) on `node`.
pub fn spawn_server_class(
    world: &mut encompass_sim::World,
    node: encompass_sim::NodeId,
    cpu: u8,
    cfg: ServerClassConfig,
    catalog: Catalog,
    factory: impl Fn() -> Box<dyn ServerLogic> + 'static,
) -> PairHandle {
    let factory: Rc<dyn Fn() -> Box<dyn ServerLogic>> = Rc::new(factory);
    let backup_cpu = cfg
        .server_cpus
        .iter()
        .copied()
        .find(|&c| c != cpu)
        .unwrap_or(cpu.wrapping_add(1));
    guardian::spawn_pair(world, node, cpu, backup_cpu, move || {
        ServerClassQueue::new(cfg.clone(), catalog.clone(), Rc::clone(&factory))
    })
}
