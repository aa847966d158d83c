//! # encompass-sim
//!
//! A deterministic discrete-event simulation (DES) kernel that models the
//! Tandem NonStop hardware and operating-system substrate described in
//! Borr, *Transaction Monitoring in ENCOMPASS* (VLDB 1981):
//!
//! * **Nodes** of 2–16 **processor modules** (CPUs) connected by dual
//!   high-speed interprocessor buses ("Dynabus").
//! * A **network** of nodes connected by point-to-point links with
//!   best-path routing and automatic re-routing on link failure.
//! * **Stable storage** that survives processor failures (the simulated
//!   disc media), with independently failable mirrored drives.
//! * **Processes** that communicate only by **messages** (the GUARDIAN
//!   abstraction), scheduled by a single virtual clock.
//! * **Failure injection**: CPU crash/restore, bus failure, link cut,
//!   network partition, process kill — all schedulable at exact virtual
//!   times, making every failure interleaving reproducible.
//!
//! The kernel is intentionally single-threaded: given the same
//! [`SimConfig::seed`] and the same fault schedule, a run produces an
//! identical event trace (see [`World::trace_hash`]), which is what makes
//! the recovery protocols in the upper crates property-testable.
//!
//! ## Example
//!
//! ```
//! use encompass_sim::{World, SimConfig, Process, Ctx, Payload, Pid};
//!
//! struct Echo;
//! impl Process for Echo {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_>, src: Pid, payload: Payload) {
//!         // bounce the message straight back
//!         let _ = ctx.send(src, payload);
//!     }
//! }
//!
//! struct Driver { peer: Pid, got_reply: bool }
//! impl Process for Driver {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.send(self.peer, Payload::new("ping")).unwrap();
//!     }
//!     fn on_message(&mut self, _ctx: &mut Ctx<'_>, _src: Pid, _payload: Payload) {
//!         self.got_reply = true;
//!     }
//! }
//!
//! let mut world = World::new(SimConfig::default());
//! let node = world.add_node(2);
//! let echo = world.spawn(node, 0, Box::new(Echo));
//! world.spawn(node, 1, Box::new(Driver { peer: echo, got_reply: false }));
//! // neither process arms a timer, so once the reply lands nothing is left
//! // to happen: the run ends at that instant, one bus hop each way
//! let end = world.run_until_quiescent();
//! assert_eq!(end.as_micros(), 2 * encompass_sim::config::BUS_LATENCY.as_micros());
//! ```
//!
//! A finished TMF bank world ends the same way: its background clocks
//! tick only while they have work (DESIGN.md §D31 names the two that do
//! not).

pub mod config;
pub mod event;
pub mod fault;
pub mod flightrec;
pub mod floored;
pub mod hash;
pub mod ids;
pub mod kernel;
pub mod members;
pub mod metrics;
pub mod msg;
pub mod name;
pub mod process;
pub mod ring;
pub mod stable;
pub mod time;
pub mod topology;
pub mod trace;

pub use config::SimConfig;
pub use fault::Fault;
pub use flightrec::{
    attribute_commit, format_timeline, CommitAttribution, FlightCause, FlightEvent, FlightRecorder,
    FlightTransid, LatencyComponent,
};
pub use floored::{Floored, Sequenced};
pub use hash::{DetHashMap, DetHashSet};
pub use ids::{CpuId, LinkId, NodeId, Pid};
pub use kernel::World;
pub use members::Members;
pub use metrics::{CounterId, HistogramSite, Metrics};
pub use msg::Payload;
pub use name::Name;
pub use process::{Ctx, Process, SendError, SystemEvent, TimerId};
pub use ring::push_bounded;
pub use stable::{MediaId, StableStorage};
pub use time::{SimDuration, SimTime};
