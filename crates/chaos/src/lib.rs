//! Deterministic chaos-sweep harness for the ENCOMPASS/TMF reproduction.
//!
//! The paper's central claim is not throughput but *survival*: "a
//! transaction is an all-or-nothing unit of work" under processor, bus,
//! link, and process failures. This crate turns that claim into a
//! mechanically checkable property over randomized fault timelines:
//!
//! * [`Schedule::generate`] expands a seed into a cluster shape, a bank
//!   workload, and a fault/heal timeline (CPU kills aimed at service
//!   primaries, bus failures, partitions around the commit point, process
//!   kills during backout);
//! * [`run_schedule`] plays the schedule's [`FaultPlan`] — the short
//!   sweep timeline, the simulated-hours soak ([`Schedule::soak`]), or the
//!   sharded bank's partition/heal ([`Schedule::shards`]) — against the
//!   full application, heals everything, quiesces, and then interrogates
//!   the system with the oracles described in [`runner`]; every fault
//!   plan hands back the same [`RunReport`];
//! * the simulator is deterministic, so a failing seed is a one-line
//!   repro: `cargo run -p encompass-chaos -- --seed N`.
//!
//! The sweep binary (`src/main.rs`) runs many seeds and fails loudly on
//! the first invariant violation, printing the offending schedule.

pub mod oracles;
pub mod runner;
pub mod schedule;
mod shard;
mod soak;

pub use runner::{run_schedule, run_schedule_with, run_seed, FlightDump, RunReport, TierStats};
pub use schedule::{
    BankShape, ChaosAction, DumpPlan, FaultPlan, Schedule, ScheduledDump, ScheduledEvent, ShardCut,
    ShardPlan, SoakEpoch, SoakPlan, Timeline, Workload,
};
