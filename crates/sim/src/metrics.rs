//! Named counters aggregated over a simulation run.
//!
//! The experiment harnesses (message counts for the commit protocols, disc
//! forces for the WAL ablation, …) read these after a run. Counters are
//! created on first use; reading an absent counter yields zero.

use std::collections::BTreeMap;

/// Pre-resolved counter keys for one histogram: observing must not build
/// `format!` strings per bucket per observation, so call sites intern the
/// keys once at construction and observe against the handle.
#[derive(Debug, Clone)]
pub struct HistogramHandle {
    bounds: Vec<u64>,
    bucket_keys: Vec<String>,
    inf_key: String,
    count_key: String,
    sum_key: String,
}

impl HistogramHandle {
    /// Intern the counter keys for `name` over ascending `bounds`.
    pub fn new(name: &str, bounds: &[u64]) -> HistogramHandle {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        HistogramHandle {
            bounds: bounds.to_vec(),
            bucket_keys: bounds.iter().map(|b| format!("{name}.le_{b}")).collect(),
            inf_key: format!("{name}.le_inf"),
            count_key: format!("{name}.count"),
            sum_key: format!("{name}.sum"),
        }
    }
}

/// A set of named monotonic counters.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Add `delta` to the counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Increment the counter by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of a counter (zero if it was never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters in name order.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Counters whose name starts with `prefix`, in name order.
    pub fn with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        self.counters
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Reset every counter to zero (keeps names; used between experiment
    /// phases to measure one phase in isolation).
    pub fn reset(&mut self) {
        for v in self.counters.values_mut() {
            *v = 0;
        }
    }

    /// Record one observation into a fixed-bound histogram built from plain
    /// counters: cumulative buckets `<name>.le_<bound>` (plus the implicit
    /// `<name>.le_inf`), an observation count `<name>.count`, and a running
    /// `<name>.sum`. The experiment harnesses read the buckets back with
    /// [`Metrics::with_prefix`]. Allocates nothing: the keys were interned
    /// when the handle was built.
    pub fn observe_handle(&mut self, h: &HistogramHandle, value: u64) {
        for (b, key) in h.bounds.iter().zip(&h.bucket_keys) {
            if value <= *b {
                self.add(key, 1);
            }
        }
        self.add(&h.inf_key, 1);
        self.add(&h.count_key, 1);
        self.add(&h.sum_key, value);
    }

    /// Mean of every observation recorded with [`Metrics::observe_handle`] under
    /// `name` (zero if nothing was observed).
    pub fn observed_mean(&self, name: &str) -> f64 {
        let count = self.get(&format!("{name}.count"));
        if count == 0 {
            0.0
        } else {
            self.get(&format!("{name}.sum")) as f64 / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get() {
        let mut m = Metrics::new();
        assert_eq!(m.get("x"), 0);
        m.inc("x");
        m.add("x", 4);
        assert_eq!(m.get("x"), 5);
    }

    #[test]
    fn prefix_query() {
        let mut m = Metrics::new();
        m.inc("net.msgs");
        m.inc("net.drops");
        m.inc("bus.msgs");
        let net = m.with_prefix("net.");
        assert_eq!(net.len(), 2);
        assert_eq!(net[0].0, "net.drops");
        assert_eq!(net[1].0, "net.msgs");
    }

    #[test]
    fn handle_observation_fills_cumulative_buckets() {
        let mut m = Metrics::new();
        let h = HistogramHandle::new("lat", &[10, 100, 1000]);
        for v in [3, 10, 11, 5_000] {
            m.observe_handle(&h, v);
        }
        let names: Vec<String> = m.with_prefix("lat.").into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            names,
            ["lat.count", "lat.le_10", "lat.le_100", "lat.le_1000", "lat.le_inf", "lat.sum"]
        );
        assert_eq!(m.get("lat.le_10"), 2);
        assert_eq!(m.get("lat.le_100"), 3);
        assert_eq!(m.get("lat.le_1000"), 3);
        assert_eq!(m.get("lat.le_inf"), 4);
        assert_eq!(m.get("lat.count"), 4);
        assert_eq!(m.get("lat.sum"), 3 + 10 + 11 + 5_000);
        assert_eq!(m.observed_mean("lat"), 5_024.0 / 4.0);
    }

    #[test]
    fn reset_keeps_names() {
        let mut m = Metrics::new();
        m.add("a", 3);
        m.reset();
        assert_eq!(m.get("a"), 0);
        assert_eq!(m.snapshot().len(), 1);
    }
}
