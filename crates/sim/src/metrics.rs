//! Named counters aggregated over a simulation run.
//!
//! The experiment harnesses (message counts for the commit protocols, disc
//! forces for the WAL ablation, …) read these after a run, by name.
//! Reading an absent counter yields zero.
//!
//! Writing is by [`CounterId`] (DESIGN.md §D21): a name is resolved to its
//! id once — by [`counter!`](crate::counter!) at a call site, by [`CounterId::named`] when a
//! process is built — and every bump after that is an index and an add.
//! Ids come from one process-wide table shared by every [`World`] of the
//! process, in first-use order, which differs from run to run when worlds
//! are built on several threads; so an id is never ordered, hashed or
//! printed as a number — nothing but the table and a [`Metrics`] can tell
//! two ids apart.
//!
//! [`World`]: crate::World

use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Distinct counter names one process may register (the workspace has
/// about 150, histogram buckets included). The name table and every
/// [`Metrics`] are sized to this up front, so registering a name and first
/// touching a counter allocate nothing.
pub const MAX_COUNTERS: usize = 512;

/// One counter name, resolved. `Copy`, and deliberately not `Ord`/`Hash`;
/// `Debug` prints the name.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

impl CounterId {
    /// The id of a name built at run time (one per server class, one per
    /// histogram bucket). Resolve it where the process is built and keep
    /// the id: this takes the table's lock and compares strings, and the
    /// first call for a new name keeps a copy of it for the life of the
    /// process.
    pub fn named(name: &str) -> CounterId {
        names().intern(name, || Box::leak(Box::from(name)))
    }
}

impl fmt::Debug for CounterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = names().by_id[self.0 as usize];
        f.write_str(name)
    }
}

/// The process-wide name table. Both arrays are reserved here, in static
/// storage: a counter that first fires in the middle of a measured window
/// (takeover and backout counters do) must not allocate there.
struct Names {
    /// The name of each id, in registration order.
    by_id: [&'static str; MAX_COUNTERS],
    /// The ids registered so far, sorted by name: the read side's index.
    sorted: [u32; MAX_COUNTERS],
    len: usize,
}

static NAMES: Mutex<Names> = Mutex::new(Names {
    by_id: [""; MAX_COUNTERS],
    sorted: [0; MAX_COUNTERS],
    len: 0,
});

fn names() -> MutexGuard<'static, Names> {
    NAMES
        .lock()
        .expect("a counter registration panicked holding the name table")
}

impl Names {
    /// Position of `name` in `sorted`, or where it would go.
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.sorted[..self.len].binary_search_by(|&id| self.by_id[id as usize].cmp(name))
    }

    fn id_of(&self, name: &str) -> Option<CounterId> {
        self.find(name).ok().map(|at| CounterId(self.sorted[at]))
    }

    /// The id of `name`, registering it if new; `keep` yields the copy of
    /// a new name that the table holds on to.
    fn intern(&mut self, name: &str, keep: impl FnOnce() -> &'static str) -> CounterId {
        match self.find(name) {
            Ok(at) => CounterId(self.sorted[at]),
            Err(at) => {
                assert!(
                    self.len < MAX_COUNTERS,
                    "more than MAX_COUNTERS ({MAX_COUNTERS}) counter names; {name:?} does not fit"
                );
                let id = self.len as u32;
                self.by_id[self.len] = keep();
                self.sorted.copy_within(at..self.len, at + 1);
                self.sorted[at] = id;
                self.len += 1;
                CounterId(id)
            }
        }
    }
}

/// The call-site half of [`counter!`](crate::counter!): a literal name and, once resolved,
/// its id.
pub struct CounterSite {
    name: &'static str,
    id: AtomicU32,
}

const UNRESOLVED: u32 = u32::MAX;

impl CounterSite {
    pub const fn new(name: &'static str) -> CounterSite {
        CounterSite {
            name,
            id: AtomicU32::new(UNRESOLVED),
        }
    }

    /// One load after the first use. `Relaxed`: the id is a bare number
    /// that publishes nothing else — the name table is only read under
    /// its lock — and two threads racing through the first use store the
    /// same value.
    #[inline]
    pub fn id(&self) -> CounterId {
        match self.id.load(Ordering::Relaxed) {
            UNRESOLVED => self.resolve(),
            id => CounterId(id),
        }
    }

    #[cold]
    fn resolve(&self) -> CounterId {
        let id = names().intern(self.name, || self.name);
        self.id.store(id.0, Ordering::Relaxed);
        id
    }
}

/// The [`CounterId`] of a literal counter name, resolved on the first pass
/// through this call site and cached in a `static` of its own:
/// `ctx.count(counter!("disc.reads"), 1)`. First use allocates nothing.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static SITE: $crate::metrics::CounterSite = $crate::metrics::CounterSite::new($name);
        SITE.id()
    }};
}

/// Pre-resolved counters for one histogram: the ids of its buckets, count
/// and sum are interned once at construction, and observing bumps them.
#[derive(Debug, Clone)]
pub struct HistogramHandle {
    /// `(bound, <name>.le_<bound>)`, ascending.
    buckets: Vec<(u64, CounterId)>,
    inf: CounterId,
    count: CounterId,
    sum: CounterId,
}

impl HistogramHandle {
    /// Intern the counters for `name` over ascending `bounds`.
    pub fn new(name: &str, bounds: &[u64]) -> HistogramHandle {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        let id = |suffix: fmt::Arguments<'_>| CounterId::named(&format!("{name}.{suffix}"));
        HistogramHandle {
            buckets: bounds
                .iter()
                .map(|&b| (b, id(format_args!("le_{b}"))))
                .collect(),
            inf: id(format_args!("le_inf")),
            count: id(format_args!("count")),
            sum: id(format_args!("sum")),
        }
    }
}

#[derive(Clone, Copy, Default)]
struct Slot {
    value: u64,
    /// A counter exists in a world once that world has bumped it, even by
    /// zero: [`Metrics::snapshot`] lists these and no others.
    touched: bool,
}

/// The monotonic counters of one world, indexed by [`CounterId`].
#[derive(Clone)]
pub struct Metrics {
    slots: Vec<Slot>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics {
            slots: vec![Slot::default(); MAX_COUNTERS],
        }
    }

    /// Add `delta` to a counter, creating it at zero if absent.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        let slot = &mut self.slots[id.0 as usize];
        slot.value += delta;
        slot.touched = true;
    }

    /// Current value of a counter (zero if it was never touched).
    pub fn get(&self, name: &str) -> u64 {
        names()
            .id_of(name)
            .map_or(0, |id| self.slots[id.0 as usize].value)
    }

    /// All counters this world touched, in name order.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let names = names();
        names.sorted[..names.len]
            .iter()
            .map(|&id| (names.by_id[id as usize], self.slots[id as usize]))
            .filter(|(_, slot)| slot.touched)
            .map(|(name, slot)| (name.to_string(), slot.value))
            .collect()
    }

    /// Record one observation into a fixed-bound histogram built from plain
    /// counters: cumulative buckets `<name>.le_<bound>` (plus the implicit
    /// `<name>.le_inf`), an observation count `<name>.count`, and a running
    /// `<name>.sum`.
    pub fn observe_handle(&mut self, h: &HistogramHandle, value: u64) {
        for &(bound, bucket) in &h.buckets {
            if value <= bound {
                self.add(bucket, 1);
            }
        }
        self.add(h.inf, 1);
        self.add(h.count, 1);
        self.add(h.sum, value);
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

/// By name, never by id.
impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.snapshot()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get() {
        let mut m = Metrics::new();
        assert_eq!(m.get("test.add_get"), 0);
        m.add(counter!("test.add_get"), 1);
        m.add(counter!("test.add_get"), 4);
        assert_eq!(m.get("test.add_get"), 5);
        assert_eq!(m.get("test.never_registered"), 0);
    }

    #[test]
    fn handle_observation_fills_cumulative_buckets() {
        let mut m = Metrics::new();
        let h = HistogramHandle::new("lat", &[10, 100, 1000]);
        for v in [3, 10, 11, 5_000] {
            m.observe_handle(&h, v);
        }
        let names: Vec<String> = m.snapshot().into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            names,
            [
                "lat.count",
                "lat.le_10",
                "lat.le_100",
                "lat.le_1000",
                "lat.le_inf",
                "lat.sum"
            ]
        );
        assert_eq!(m.get("lat.le_10"), 2);
        assert_eq!(m.get("lat.le_100"), 3);
        assert_eq!(m.get("lat.le_1000"), 3);
        assert_eq!(m.get("lat.le_inf"), 4);
        assert_eq!(m.get("lat.count"), 4);
        assert_eq!(m.get("lat.sum"), 3 + 10 + 11 + 5_000);
        assert_eq!(m.observed_mean("lat"), 5_024.0 / 4.0);
        assert_eq!(m.observed_mean("test.never_observed"), 0.0);
    }

    #[test]
    fn ids_print_as_names() {
        let id = counter!("test.printed");
        assert_eq!(format!("{id:?}"), "test.printed");
        assert_eq!(id, CounterId::named("test.printed"));
        let mut m = Metrics::new();
        m.add(id, 7);
        assert_eq!(format!("{m:?}"), r#"{"test.printed": 7}"#);
    }
}
