//! Simulation configuration: the virtual-hardware cost model and the RNG
//! seed that makes a run reproducible.
//!
//! The cost model is fixed — constants, not settings — and loosely
//! calibrated to the hardware the paper describes (13.5 MB/s dual
//! interprocessor bus, early-1980s discs, 9.6 kb/s to 56 kb/s network
//! trunks), but their *ratios* are what the experiments depend on:
//! local < bus < network, and disc I/O dominating everything.

use crate::time::SimDuration;

/// Latency of a message between two processes on the same CPU.
pub const LOCAL_LATENCY: SimDuration = SimDuration::from_micros(50);
/// Latency of a message across the interprocessor bus (same node,
/// different CPU).
pub const BUS_LATENCY: SimDuration = SimDuration::from_micros(150);
/// Fixed per-hop latency added by each network link in the message path
/// (on top of the per-link latency configured when the link is created).
pub const NET_HOP_OVERHEAD: SimDuration = SimDuration::from_micros(500);
/// Time for a rotating-media access (seek + latency); charged once per
/// physical I/O: a DISCPROCESS access, an audit or Monitor trail force.
pub const DISC_ACCESS: SimDuration = SimDuration::from_micros(25_000);
/// How long after a CPU failure the remaining CPUs of the node learn of
/// it (the "I'm alive" protocol period in real GUARDIAN).
pub const FAILURE_DETECT_DELAY: SimDuration = SimDuration::from_millis(5);

/// Determinism and observation knobs for a [`crate::World`].
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Seed for the kernel RNG. Same seed + same fault schedule = same trace.
    pub seed: u64,
    /// Random jitter added to every message delivery, drawn uniformly from
    /// `0..=jitter` microseconds. Zero disables jitter entirely.
    pub jitter: SimDuration,
    /// Keep a human-readable trace of every event (expensive; for tests and
    /// debugging). The rolling [`crate::World::trace_hash`] is kept always.
    pub trace_enabled: bool,
    /// Maximum number of retained trace events (oldest dropped first).
    pub trace_capacity: usize,
    /// Record per-transaction flight events (see [`crate::FlightRecorder`]).
    /// A pure side channel: on or off, the trace hash is identical.
    pub flight_recorder: bool,
    /// Flight-event ring capacity per node (oldest dropped first).
    pub flight_capacity: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xE0C0_1981,
            jitter: SimDuration::ZERO,
            trace_enabled: false,
            trace_capacity: 65_536,
            flight_recorder: false,
            flight_capacity: 65_536,
        }
    }
}

impl SimConfig {
    /// A config with the given seed and all other values at their defaults.
    pub fn with_seed(seed: u64) -> Self {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }

    /// Enable the human-readable trace (builder style).
    pub fn traced(mut self) -> Self {
        self.trace_enabled = true;
        self
    }

    /// Enable the transaction flight recorder (builder style).
    pub fn flight_recording(mut self) -> Self {
        self.flight_recorder = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_ordered_sensibly() {
        assert!(LOCAL_LATENCY < BUS_LATENCY);
        assert!(BUS_LATENCY < NET_HOP_OVERHEAD);
        assert!(NET_HOP_OVERHEAD < DISC_ACCESS);
    }

    #[test]
    fn builders() {
        let c = SimConfig::with_seed(7).traced().flight_recording();
        assert_eq!(c.seed, 7);
        assert!(c.trace_enabled);
        assert!(c.flight_recorder);
        assert!(!SimConfig::default().flight_recorder, "off by default");
    }
}
