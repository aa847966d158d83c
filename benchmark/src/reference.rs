//! The reference lap: a fixed piece of work, timed beside every repetition,
//! that turns host timings into timings *at reference speed*.
//!
//! This sandbox's speed drifts by 10–25 % over minutes and flickers by as
//! much within a second (shared host): the same binary on the same inputs
//! measured 51 µs and 67 µs per commit a few minutes apart. A lap — which
//! no change to the repo can touch — slows down with the workloads
//! (correlation 0.84–0.94 between lap and repetition time over 30 runs of
//! three workloads). Dividing each repetition's time by the laps on either
//! side of it and multiplying by [`NOMINAL_LAP_NS`] cut the run-to-run
//! quartile spread of the per-commit host time from 12–28 % to 3–8 %
//! (README.md has the numbers), where the acceptance rule refuses a
//! benchmark whose spread exceeds 25 %.
//!
//! The lap is shaped like the simulator: pointer chasing through a
//! `BTreeMap` of boxed records a few MiB past the caches, with allocation
//! and freeing mixed in. It depends on std only.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Lap time of this sandbox at a quiet moment. A run whose laps take this
/// long reports its host timings unscaled.
pub const NOMINAL_LAP_NS: f64 = 27_000_000.0;

const KEY_SPACE: u64 = 240_000;
const LOOKUPS: usize = 100_000;
const TOGGLES: usize = 20_000;

pub struct Reference {
    records: BTreeMap<u64, Box<[u8; 56]>>,
    state: u64,
}

impl Reference {
    pub fn new() -> Reference {
        let mut r = Reference {
            records: BTreeMap::new(),
            state: 0x9E37_79B9_7F4A_7C15,
        };
        // every even key, inserted in a scattered order so neighbours in
        // the tree are not neighbours in memory; with half the key space
        // present, toggling random keys keeps it half full
        let half = KEY_SPACE / 2;
        for i in 0..half {
            let k = (i * 7_919 % half) * 2;
            r.records.insert(k, Box::new([k as u8; 56]));
        }
        r
    }

    fn next_key(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.state >> 33) % KEY_SPACE
    }

    fn toggle(&mut self) {
        let k = self.next_key();
        if self.records.remove(&k).is_none() {
            self.records.insert(k, Box::new([k as u8; 56]));
        }
    }

    /// Do the fixed work once; host nanoseconds it took.
    pub fn lap(&mut self) -> f64 {
        let started = Instant::now();
        let mut sum = 0u64;
        for _ in 0..LOOKUPS {
            let k = self.next_key();
            if let Some(record) = self.records.get(&k) {
                sum += u64::from(record[7]);
            }
        }
        for _ in 0..TOGGLES {
            self.toggle();
        }
        black_box(sum);
        started.elapsed().as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_do_the_same_work_on_a_stationary_map() {
        let mut r = Reference::new();
        let before = r.records.len() as f64;
        assert!(r.lap() > 0.0);
        for _ in 0..20 {
            r.lap();
        }
        let after = r.records.len() as f64;
        let half = (KEY_SPACE / 2) as f64;
        assert!(
            (before - half).abs() < 0.1 * half,
            "starts half full: {before}"
        );
        assert!(
            (after - half).abs() < 0.1 * half,
            "stays half full: {after}"
        );
    }
}
