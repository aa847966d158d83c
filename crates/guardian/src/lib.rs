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
//!   functional equivalent of Write-Ahead-Log. [`primary`] reads the app
//!   of a service's live primary between events, for drivers and oracles
//!   that would otherwise have to ask it.
//! * **Request/reply messaging** ([`rpc`]): correlation ids, timeouts and
//!   retransmission — the end-to-end protocol that "assures that data
//!   transmissions are reliably received". The two retry policies mirror
//!   the paper's two network message classes: *critical response* (bounded
//!   retries, caller is told of failure) and *safe delivery* (retried
//!   until deliverable). [`ask`] is the one-shot client every operator
//!   command is: one persistent request, keep the reply, exit.
//!   [`Served`] is the serving half: a retried request is answered from
//!   memory instead of run twice, and a request admitted but not yet
//!   answered is an [`Owed`] held by whatever record it parked in.
//! * **An operator process** ([`operator`]): subscribes to hardware events
//!   and tallies them, standing in for the paper's console-printing
//!   operator pair.

pub mod operator;
pub mod pair;
pub mod rpc;

pub use operator::OperatorProcess;
pub use pair::{primary, spawn_pair, Checkpointed, PairApp, PairCtx, PairHandle, Role};
pub use rpc::{
    ask, Admitted, Completion, Owed, Request, Rpc, RpcReply, Served, Target, TimerOutcome,
    RPC_TAG_BASE,
};
