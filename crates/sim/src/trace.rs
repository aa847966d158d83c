//! Event tracing and the determinism hash.
//!
//! Two facilities:
//! * a bounded human-readable trace (off by default, enabled via
//!   [`crate::SimConfig::trace_enabled`]) for debugging protocol runs;
//! * a rolling FNV-1a hash over the ordered event stream, always on, used by
//!   tests to assert that two runs with the same seed and fault schedule are
//!   bit-identical in behaviour.

use crate::ring::push_bounded;
use crate::time::SimTime;
use std::collections::VecDeque;

/// One recorded trace event.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    pub at: SimTime,
    pub kind: &'static str,
    pub detail: String,
}

pub(crate) struct Trace {
    enabled: bool,
    capacity: usize,
    events: VecDeque<TraceEvent>,
    hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

impl Trace {
    pub fn new(enabled: bool, capacity: usize) -> Trace {
        Trace {
            enabled,
            capacity: capacity.max(1),
            events: VecDeque::new(),
            hash: FNV_OFFSET,
        }
    }

    /// Fold an event into the determinism hash (always) and into the
    /// readable trace (when enabled). `code` should identify the event kind
    /// and principals; `detail` is only evaluated when tracing is on.
    pub fn note(
        &mut self,
        at: SimTime,
        kind: &'static str,
        code: u64,
        detail: impl FnOnce() -> String,
    ) {
        self.hash ^= at.as_micros();
        self.hash = self.hash.wrapping_mul(FNV_PRIME);
        self.hash ^= code;
        self.hash = self.hash.wrapping_mul(FNV_PRIME);
        for b in kind.bytes() {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
        if self.enabled {
            let event = TraceEvent {
                at,
                kind,
                detail: detail(),
            };
            push_bounded(&mut self.events, self.capacity, event);
        }
    }

    pub fn hash(&self) -> u64 {
        self.hash
    }

    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_reflects_event_stream() {
        let mut a = Trace::new(false, 8);
        let mut b = Trace::new(false, 8);
        a.note(SimTime::from_micros(1), "x", 10, String::new);
        b.note(SimTime::from_micros(1), "x", 10, String::new);
        assert_eq!(a.hash(), b.hash());
        b.note(SimTime::from_micros(2), "x", 10, String::new);
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn disabled_trace_skips_detail_closure() {
        let mut t = Trace::new(false, 8);
        t.note(SimTime::ZERO, "x", 0, || panic!("must not be called"));
        assert_eq!(t.events().count(), 0);
    }

    #[test]
    fn bounded_capacity() {
        let mut t = Trace::new(true, 2);
        for i in 0..5u64 {
            t.note(SimTime::from_micros(i), "e", i, || format!("{i}"));
        }
        let kept: Vec<String> = t.events().map(|e| e.detail.clone()).collect();
        assert_eq!(kept, vec!["3".to_string(), "4".to_string()]);
    }
}
