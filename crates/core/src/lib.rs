//! # tmf — the Transaction Monitoring Facility
//!
//! The paper's primary contribution: continuous, fault-tolerant
//! transaction processing in a decentralized, distributed environment.
//!
//! * [`state`] — the transaction state machine of Figure 3
//!   (Active → Ending → Ended, Active → Aborting → Aborted), with the
//!   transition table enforced at runtime.
//! * [`table`] — the per-processor transaction tables; within a node,
//!   every state change is broadcast to *all* processors over the
//!   interprocessor bus (the paper's single-node design decision), while
//!   across the network only participating nodes are notified.
//! * [`tmp`] — the Transaction Monitor Process: one pair per node. It
//!   generates transids, tracks which volumes and which remote nodes
//!   participate in each transaction, performs *remote transaction begin*,
//!   and runs the commit protocols: the **abbreviated two-phase commit**
//!   for single-node transactions and the **distributed two-phase commit**
//!   with *critical-response* phase-one messages and *safe-delivery*
//!   phase-two/abort messages. Any participating node can unilaterally
//!   abort until it has acknowledged phase one; after that it holds the
//!   transaction's locks until the final disposition arrives (with a
//!   manual override for operators, as the paper describes).
//! * [`session`] — the application-side File System extension: it carries
//!   the *current process transid* on every data-base request, registers
//!   volume participation with the local TMP, and triggers remote
//!   transaction begin before the first transmission of a transid to
//!   another node.
//! * [`script`] — a scripted transaction client over the session, for
//!   tests and experiments that drive TMF without a TCP in between.
//! * [`facility`] — wiring: spawn a complete TMF node (TMP, AUDITPROCESS,
//!   BACKOUTPROCESS, DISCPROCESSes, per-CPU transaction tables) in one
//!   call.
//!
//! The [`Transid`] type is defined in `encompass-storage` (the DISCPROCESS
//! tags locks and images with it) and re-exported here, where it
//! conceptually belongs.

pub mod facility;
pub mod script;
pub mod session;
pub mod state;
pub mod table;
pub mod tmp;

#[cfg(test)]
mod gate_canaries;

pub use encompass_storage::types::Transid;
pub use facility::{
    flight_reports, spawn_tmf_network, spawn_tmf_node, ConfigError, FlightReport, NodeHandles,
    TmfNodeConfig, TmfNodeConfigBuilder,
};
pub use session::{DbOp, SessionError, SessionEvent, SessionOptions, TmfSession};
pub use state::{AbortReason, TxState, TxnClass};
pub use table::TxTableProcess;
pub use tmp::{spawn_tmp, TmpConfig, TmpMsg, TmpProcess, TmpReply};
