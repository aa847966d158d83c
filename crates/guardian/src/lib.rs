//! # guardian
//!
//! The software abstractions the paper's GUARDIAN operating system provides
//! on top of the raw hardware, built here on `encompass-sim`:
//!
//! * **Process-pairs** ([`pair`]): a primary and a backup process in two
//!   different CPUs. The primary sends the backup *checkpoints* so that, if
//!   the primary's processor fails, the backup "has all the information it
//!   would need … to assume control … and carry through to completion any
//!   operation initiated by the primary". This is the NonStop mechanism the
//!   paper's DISCPROCESS, AUDITPROCESS, TMP, BACKOUTPROCESS, and TCP are all
//!   built from — and the reason TMF can treat checkpointing as the
//!   functional equivalent of Write-Ahead-Log. [`primary`] and [`backup`]
//!   read the app of a service's live primary and of its backup between
//!   events, for drivers and oracles that would otherwise have to ask.
//! * **Request/reply messaging** ([`rpc`]): correlation ids, failure
//!   notices and retransmission — the end-to-end protocol that "assures
//!   that data transmissions are reliably received". Within a node a call
//!   is resent only when the kernel announces its destination's processor
//!   failed, or a bus repaired after both were down; across nodes it is
//!   resent on a clock. The two retry policies
//!   mirror the paper's two network message classes: *critical response*
//!   (bounded retries or a deadline, caller is told of failure) and *safe
//!   delivery* (retried until deliverable). [`ask`] is the one-shot client every operator
//!   command is: one persistent request, keep the reply, exit.
//!   [`Served`] is the serving half: a retried request is answered from
//!   memory instead of run twice, an answer is kept while its requester
//!   can still ask for it (the *floor* every request carries), and a
//!   request admitted but not yet answered is an [`Owed`] held by
//!   whatever record it parked in.
//! * **A background clock** ([`Cadence`]): one periodic timer, armed on
//!   the grid its primary start lays down, while its owner has work.
//! * **An operator process** ([`operator`]): subscribes to hardware events
//!   and tallies them, standing in for the paper's console-printing
//!   operator pair.

pub mod cadence;
pub mod operator;
pub mod pair;
pub mod rpc;

pub use cadence::Cadence;
pub use operator::OperatorProcess;
pub use pair::{backup, primary, spawn_pair, Checkpointed, PairApp, PairCtx, PairHandle, Role};
pub use rpc::{
    ask, space_of, Admitted, Asked, Completion, Owed, Request, Rpc, RpcReply, Served,
    ServedSnapshot, Target, TimerOutcome, ID_SPACES, RPC_TAG_BASE,
};
