//! # encompass
//!
//! The ENCOMPASS application environment on top of TMF:
//!
//! * **Terminal management** ([`tcp`], [`screen`]): the Terminal Control
//!   Process — a process-pair interpreting *screen programs* (our stand-in
//!   for Screen COBOL) for up to 32 terminals. It implements
//!   `BEGIN-TRANSACTION` / `SEND` / `END-TRANSACTION` /
//!   `ABORT-TRANSACTION` / `RESTART-TRANSACTION`, automatic restart at
//!   `BEGIN-TRANSACTION` after failures (up to the configurable restart
//!   limit), and checkpoints terminal state so a takeover does not lose
//!   input.
//! * **Application servers** ([`server`]): simple, single-threaded,
//!   context-free request/reply programs that access the data base through
//!   a [`tmf::TmfSession`] — they need no fault-tolerance logic of their
//!   own, which is the paper's headline benefit of TMF.
//! * **Transaction flow and application control** ([`appmon`]): per-class
//!   server queues that dispatch requests to idle servers and *dynamically
//!   create and delete server processes* as the workload changes.
//! * **Workloads** ([`workload`]): an order-entry / debit-credit style
//!   generator used by the experiments.
//! * **The sharded bank** ([`shardbank`]): the scale-out workload over the
//!   `encompass-shard` partition map — record-master routing of transfers
//!   (with a configurable cross-shard fraction that becomes distributed
//!   transactions) and replicated branch records converged through the
//!   suspense-file subsystem.
//! * **The manufacturing application** ([`manufacturing`]): the paper's
//!   four-plant distributed data base — replicated global files with a
//!   master node per record, deferred replica updates through *suspense
//!   files*, and the *suspense monitor* that drains them in order so
//!   replicas converge after a partition heals; plus the synchronous
//!   variant the paper rejects, for the node-autonomy experiment.
//! * **Application wiring** ([`app`]): one builder that assembles nodes,
//!   links, catalog, TMF, server classes, and terminals.

pub mod app;
pub mod appmon;
pub mod manufacturing;
pub mod messages;
pub mod screen;
pub mod server;
pub mod shardbank;
pub mod tcp;
pub mod workload;

pub use app::{AppBuilder, AppHandles};
pub use appmon::{spawn_server_class, ServerClassConfig, ServerClassQueue};
pub use messages::{AppReply, AppRequest, ServerRequest};
pub use screen::{ScreenAction, ScreenInput, ScreenProgram};
pub use server::{DbOp, ServerLogic, ServerProcess, ServerStep};
pub use tcp::{spawn_tcp, TerminalControlProcess};
