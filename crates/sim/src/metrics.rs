//! Named counters aggregated over a simulation run.
//!
//! The experiment harnesses (message counts for the commit protocols, disc
//! forces for the WAL ablation, …) read these after a run, by name.
//! Reading an absent counter yields zero.
//!
//! Writing is by [`CounterId`] (DESIGN.md §D21): a name is resolved to its
//! id once — by [`counter!`](crate::counter!) at a call site, by [`CounterId::named`] when a
//! process is built — and every bump after that is an index and an add.
//! A histogram's counters are resolved together, by
//! [`histogram!`](crate::histogram!) at its call site, the first time
//! any world of the process observes through it.
//! Ids come from one process-wide table shared by every [`World`] of the
//! process, in first-use order, which differs from run to run when worlds
//! are built on several threads; so an id is never ordered, hashed or
//! printed as a number — nothing but the table and a [`Metrics`] can tell
//! two ids apart.
//!
//! [`World`]: crate::World

use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Distinct counter names one process may register (the workspace has
/// about 170: 134 `counter!` literals, 28 counters of its three
/// histograms, and two per server class). The name table and every
/// [`Metrics`] are sized to this up front, so registering a name and first
/// touching a counter allocate nothing.
pub const MAX_COUNTERS: usize = 512;

/// One counter name, resolved. `Copy`, and deliberately not `Ord`/`Hash`;
/// `Debug` prints the name.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

impl CounterId {
    /// The id of a name built at run time (one per server class; a
    /// [`histogram!`](crate::histogram!) site resolves its buckets' names
    /// through this). Resolve it where the process is built and keep
    /// the id: this takes the table's lock and compares strings, and the
    /// first call for a new name keeps a copy of it for the life of the
    /// process.
    pub fn named(name: &str) -> CounterId {
        names().intern(name, || Box::leak(Box::from(name)))
    }
}

impl fmt::Debug for CounterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(name_of(self.0))
    }
}

/// The process-wide name table. Everything is reserved here, in static
/// storage: a counter that first fires in the middle of a measured window
/// (takeover and backout counters do) must not allocate there.
///
/// Registration takes the lock; reading by name does not. A name is set
/// in [`BY_ID`] before its id is published in [`INDEX`], so a reader that
/// finds the id finds the name.
struct Names {
    /// The ids registered so far, sorted by name: [`Metrics::snapshot`]
    /// lists counters in this order.
    sorted: [u32; MAX_COUNTERS],
    len: usize,
}

static NAMES: Mutex<Names> = Mutex::new(Names {
    sorted: [0; MAX_COUNTERS],
    len: 0,
});

/// The name of each id, in registration order.
static BY_ID: [OnceLock<&'static str>; MAX_COUNTERS] = [const { OnceLock::new() }; MAX_COUNTERS];

/// Slots of the by-name index: a power of two, twice [`MAX_COUNTERS`], so
/// the table is at most half full and a probe ends within a few slots.
const INDEX_BITS: u32 = 10;
const INDEX_SLOTS: usize = 1 << INDEX_BITS;
const _: () = assert!(INDEX_SLOTS >= 2 * MAX_COUNTERS);

/// Open addressing on a hash of the name, probed linearly: a slot holds
/// an id plus one, or 0 while empty. Only [`Names::intern`] fills a slot,
/// and no slot is ever emptied.
static INDEX: [AtomicU32; INDEX_SLOTS] = [const { AtomicU32::new(0) }; INDEX_SLOTS];

fn names() -> MutexGuard<'static, Names> {
    NAMES
        .lock()
        .expect("a counter registration panicked holding the name table")
}

fn name_of(id: u32) -> &'static str {
    BY_ID[id as usize]
        .get()
        .expect("an id is named before it is handed out")
}

/// The first index slot of `name`: FNV-1a, high bits.
fn home_slot(name: &str) -> usize {
    let hash = (name.bytes()).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    (hash >> (64 - INDEX_BITS)) as usize
}

/// The id of `name`, if it is registered: a hash and, mostly, one string
/// compare, without the lock.
fn id_of(name: &str) -> Option<CounterId> {
    let mut at = home_slot(name);
    loop {
        // Acquire: pairs with the Release in `intern`, so the name of
        // the id read here is set
        match INDEX[at].load(Ordering::Acquire) {
            0 => return None,
            slot if name_of(slot - 1) == name => return Some(CounterId(slot - 1)),
            _ => at = (at + 1) % INDEX_SLOTS,
        }
    }
}

impl Names {
    /// The id of `name`, registering it if new; `keep` yields the copy of
    /// a new name that the table holds on to.
    fn intern(&mut self, name: &str, keep: impl FnOnce() -> &'static str) -> CounterId {
        if let Some(id) = id_of(name) {
            return id;
        }
        assert!(
            self.len < MAX_COUNTERS,
            "more than MAX_COUNTERS ({MAX_COUNTERS}) counter names; {name:?} does not fit"
        );
        let id = self.len as u32;
        let at = (self.sorted[..self.len])
            .binary_search_by(|&other| name_of(other).cmp(name))
            .expect_err("the index did not hold the name");
        BY_ID[self.len]
            .set(keep())
            .expect("ids are handed out once, under the lock");
        self.sorted.copy_within(at..self.len, at + 1);
        self.sorted[at] = id;
        self.len += 1;
        let mut slot = home_slot(name);
        while INDEX[slot].load(Ordering::Relaxed) != 0 {
            slot = (slot + 1) % INDEX_SLOTS;
        }
        INDEX[slot].store(id + 1, Ordering::Release);
        CounterId(id)
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

    /// One load after the first use. `Acquire`, paired with the store in
    /// `resolve`: a thread that reads the id may read its name without
    /// the table's lock (a `CounterId` prints it), so the id publishes
    /// the name. Two threads racing through the first use store the same
    /// value.
    #[inline]
    pub fn id(&self) -> CounterId {
        match self.id.load(Ordering::Acquire) {
            UNRESOLVED => self.resolve(),
            id => CounterId(id),
        }
    }

    #[cold]
    fn resolve(&self) -> CounterId {
        let id = names().intern(self.name, || self.name);
        self.id.store(id.0, Ordering::Release);
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

/// The call-site half of [`histogram!`](crate::histogram!): a literal name, its
/// bucket bounds and, once resolved, the ids of its counters.
pub struct HistogramSite {
    name: &'static str,
    /// Ascending.
    bounds: &'static [u64],
    ids: OnceLock<HistogramIds>,
}

/// The counters of one histogram: `<name>.le_<bound>` per bound (in bound
/// order), then `<name>.le_inf`, `<name>.count` and `<name>.sum`.
struct HistogramIds {
    buckets: Box<[CounterId]>,
    inf: CounterId,
    count: CounterId,
    sum: CounterId,
}

impl HistogramSite {
    pub const fn new(name: &'static str, bounds: &'static [u64]) -> HistogramSite {
        HistogramSite {
            name,
            bounds,
            ids: OnceLock::new(),
        }
    }

    /// One load after the first use, which interns the names and keeps
    /// their ids for the life of the process: a name built at run time
    /// is resolved once per process, not once per process *built*.
    #[inline]
    fn ids(&self) -> &HistogramIds {
        self.ids.get_or_init(|| self.resolve())
    }

    #[cold]
    fn resolve(&self) -> HistogramIds {
        debug_assert!(
            self.bounds.windows(2).all(|w| w[0] < w[1]),
            "{}: bounds ascending",
            self.name
        );
        let name = self.name;
        let id = |suffix: fmt::Arguments<'_>| CounterId::named(&format!("{name}.{suffix}"));
        HistogramIds {
            buckets: (self.bounds.iter())
                .map(|b| id(format_args!("le_{b}")))
                .collect(),
            inf: id(format_args!("le_inf")),
            count: id(format_args!("count")),
            sum: id(format_args!("sum")),
        }
    }
}

/// The [`HistogramSite`] of a literal histogram name over ascending
/// `&'static [u64]` bounds, resolved on the first observation through
/// this call site and kept in a `static` of its own:
/// `ctx.observe(histogram!("tmf.commit_latency_us", LATENCY_BOUNDS), us)`.
#[macro_export]
macro_rules! histogram {
    ($name:literal, $bounds:expr) => {{
        static SITE: $crate::metrics::HistogramSite =
            $crate::metrics::HistogramSite::new($name, $bounds);
        &SITE
    }};
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

    /// Current value of a counter (zero if it was never touched). Takes
    /// no lock: a hash of `name` and a compare or two.
    pub fn get(&self, name: &str) -> u64 {
        id_of(name).map_or(0, |id| self.slots[id.0 as usize].value)
    }

    /// All counters this world touched, in name order.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let names = names();
        names.sorted[..names.len]
            .iter()
            .map(|&id| (name_of(id), self.slots[id as usize]))
            .filter(|(_, slot)| slot.touched)
            .map(|(name, slot)| (name.to_string(), slot.value))
            .collect()
    }

    /// Record one observation into a fixed-bound histogram built from plain
    /// counters: cumulative buckets `<name>.le_<bound>` (plus the implicit
    /// `<name>.le_inf`), an observation count `<name>.count`, and a running
    /// `<name>.sum`.
    pub fn observe(&mut self, site: &HistogramSite, value: u64) {
        let ids = site.ids();
        for (&bound, &bucket) in site.bounds.iter().zip(&ids.buckets) {
            if value <= bound {
                self.add(bucket, 1);
            }
        }
        self.add(ids.inf, 1);
        self.add(ids.count, 1);
        self.add(ids.sum, value);
    }

    /// Mean of every observation recorded with [`Metrics::observe`] under
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

    /// One pass through a `histogram!` call site, as a process's
    /// observation is: every world observes through the same `static`.
    fn observe_lat(m: &mut Metrics, value: u64) {
        m.observe(crate::histogram!("test.lat", &[10, 100, 1_000]), value);
    }

    #[test]
    fn site_observation_fills_cumulative_buckets() {
        let mut m = Metrics::new();
        for v in [3, 10, 11, 5_000] {
            observe_lat(&mut m, v);
        }
        // the counters a handle built by name, `<name>.<suffix>` per
        // bound (the bound printed as a plain number), interned under the
        // same ids a run-time name resolves to
        let expect = [
            ("test.lat.count", 4),
            ("test.lat.le_10", 2),
            ("test.lat.le_100", 3),
            ("test.lat.le_1000", 3),
            ("test.lat.le_inf", 4),
            ("test.lat.sum", 3 + 10 + 11 + 5_000),
        ];
        let snapshot: Vec<(String, u64)> = (m.snapshot().into_iter())
            .filter(|(k, _)| k.starts_with("test.lat."))
            .collect();
        let want: Vec<(String, u64)> = expect.iter().map(|&(k, v)| (k.into(), v)).collect();
        assert_eq!(snapshot, want);
        let mut by_id = Metrics::new();
        for (name, value) in expect {
            by_id.add(CounterId::named(name), value);
        }
        assert_eq!(format!("{by_id:?}"), format!("{m:?}"));
        assert_eq!(m.observed_mean("test.lat"), 5_024.0 / 4.0);
        assert_eq!(m.observed_mean("test.never_observed"), 0.0);

        // a second world through the same site: its own counts, nothing
        // of the first's
        let mut other = Metrics::new();
        observe_lat(&mut other, 100);
        assert_eq!(other.get("test.lat.le_10"), 0);
        assert_eq!(other.get("test.lat.le_100"), 1);
        assert_eq!(other.get("test.lat.sum"), 100);
        assert_eq!(m.get("test.lat.count"), 4);
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
