//! `Metrics` is written by id and read by name (DESIGN.md §D21). The
//! string-keyed write path it replaced is kept here as the reference
//! model: whatever sequence of bumps, observations, clones and reads two
//! worlds go through, every `get` and every `snapshot` must agree with a
//! `BTreeMap<String, u64>` per world — and ids, which are handed out in
//! first-use order by one process-wide table, must never show.

use encompass_sim::{counter, histogram, CounterId, HistogramSite, Metrics};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The names the property test draws from: literals through their call
/// sites, the rest through [`CounterId::named`]. Shared prefixes, so
/// name order is not registration order.
const RUN_TIME: [&str; 6] = [
    "prop.rt",
    "prop.rt.a",
    "prop.a",
    "prop.server.bank.dispatched",
    "prop.",
    "prop.zz",
];

fn static_id(i: usize) -> (&'static str, CounterId) {
    match i {
        0 => ("prop.static", counter!("prop.static")),
        1 => ("prop.static.b", counter!("prop.static.b")),
        2 => ("prop.b", counter!("prop.b")),
        _ => ("prop.rt.static", counter!("prop.rt.static")),
    }
}

fn resolve(i: usize) -> (&'static str, CounterId) {
    match i.checked_sub(RUN_TIME.len()) {
        None => (RUN_TIME[i], CounterId::named(RUN_TIME[i])),
        Some(j) => static_id(j),
    }
}

const HIST_BOUNDS: &[u64] = &[4, 64];

/// The one call site every case observes through.
fn hist() -> &'static HistogramSite {
    histogram!("prop.hist", HIST_BOUNDS)
}

/// The write path `metrics.rs` replaced.
#[derive(Clone, Default)]
struct Model(BTreeMap<String, u64>);

impl Model {
    fn add(&mut self, name: &str, delta: u64) {
        *self.0.entry(name.to_string()).or_insert(0) += delta;
    }
    fn observe(&mut self, name: &str, value: u64) {
        for b in HIST_BOUNDS {
            if value <= *b {
                self.add(&format!("{name}.le_{b}"), 1);
            }
        }
        self.add(&format!("{name}.le_inf"), 1);
        self.add(&format!("{name}.count"), 1);
        self.add(&format!("{name}.sum"), value);
    }
    fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
    fn snapshot(&self) -> Vec<(String, u64)> {
        self.0.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }
}

/// Every counter of the property test, which other tests of this
/// binary never touch: the part of a snapshot the model must match.
fn mine(snapshot: Vec<(String, u64)>) -> Vec<(String, u64)> {
    snapshot
        .into_iter()
        .filter(|(k, _)| k.starts_with("prop."))
        .collect()
}

// Two worlds' worth of metrics driven through random bumps,
// observations and clones agree with the string-keyed model at every
// read — `get` of every name, `snapshot` in name order — and a counter
// only one of them touched appears in that one's snapshot alone.
proptest! {
    #[test]
    fn agrees_with_the_string_keyed_model(
        ops in proptest::collection::vec((0usize..2, 0usize..5, 0usize..10, 0u64..100), 1..60),
    ) {
        let mut worlds = [(Metrics::new(), Model::default()), (Metrics::new(), Model::default())];
        for (w, op, name, n) in ops {
            match op {
                0 | 1 => {
                    let (name, id) = resolve(name);
                    // n == 0 included: a bump by zero still creates
                    worlds[w].0.add(id, n);
                    worlds[w].1.add(name, n);
                }
                2 => {
                    worlds[w].0.observe(hist(), n);
                    worlds[w].1.observe("prop.hist", n);
                }
                3 => {
                    // a clone carries everything and then diverges
                    let mut copy = worlds[w].clone();
                    let (name, id) = resolve(name);
                    copy.0.add(id, n + 1);
                    copy.1.add(name, n + 1);
                    prop_assert_eq!(mine(copy.0.snapshot()), copy.1.snapshot());
                }
                _ => {}
            }
            for (metrics, model) in &worlds {
                prop_assert_eq!(mine(metrics.snapshot()), model.snapshot());
                for i in 0..10 {
                    let (name, _) = resolve(i);
                    prop_assert_eq!(metrics.get(name), model.get(name));
                }
                prop_assert_eq!(
                    metrics.observed_mean("prop.hist"),
                    match model.get("prop.hist.count") {
                        0 => 0.0,
                        count => model.get("prop.hist.sum") as f64 / count as f64,
                    }
                );
            }
        }
    }
}

/// The names of the by-name index test: enough of them, under shared
/// prefixes, that some share an index slot.
fn indexed_names() -> Vec<String> {
    (0..96).map(|i| format!("prop.idx.{}", i * 7919)).collect()
}

// `get` finds a name through a hash index, not the id that wrote it:
// for every registered name it reads the slot of that name's id, and a
// name never registered (here or anywhere in the process) reads 0.
proptest! {
    #[test]
    fn get_by_name_reads_the_slot_of_its_id(
        bumps in proptest::collection::vec((0usize..96, 0u64..1_000), 0..80),
        unknown in proptest::collection::vec(0u32..1_000_000, 0..8),
    ) {
        let names = indexed_names();
        let ids: Vec<CounterId> = names.iter().map(|n| CounterId::named(n)).collect();
        let mut metrics = Metrics::new();
        let mut want = vec![0u64; names.len()];
        for (i, n) in bumps {
            metrics.add(ids[i], n);
            want[i] += n;
        }
        for (i, name) in names.iter().enumerate() {
            prop_assert_eq!(metrics.get(name), want[i]);
            prop_assert_eq!(CounterId::named(name), ids[i]);
            prop_assert_eq!(format!("{:?}", ids[i]), name.clone());
        }
        for u in unknown {
            // a registered name's prefix, and one past its end
            prop_assert_eq!(metrics.get(&format!("prop.unregistered.{u}")), 0);
            prop_assert_eq!(metrics.get(&format!("prop.idx.{u}x")), 0);
        }
        prop_assert_eq!(metrics.get("prop.idx."), 0);
        prop_assert_eq!(metrics.get(""), 0);
    }
}

/// Ids are handed out in first-use order, which two threads building
/// worlds do not agree on; values and snapshots must not care.
#[test]
fn worlds_on_two_threads_registering_in_opposite_orders_are_independent() {
    const NAMES: [&str; 4] = ["thr.d", "thr.a", "thr.c", "thr.b"];
    fn world(forward: bool, scale: u64, gate: &std::sync::Barrier) -> Metrics {
        let mut order: Vec<usize> = (0..NAMES.len()).collect();
        if !forward {
            order.reverse();
        }
        let mut m = Metrics::new();
        gate.wait();
        for i in order {
            m.add(CounterId::named(NAMES[i]), scale * (i as u64 + 1));
        }
        m
    }
    let gate = std::sync::Barrier::new(2);
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| world(true, 1, &gate));
        let b = s.spawn(|| world(false, 10, &gate));
        (a.join().expect("thread a"), b.join().expect("thread b"))
    });
    let only = |m: &Metrics| -> Vec<(String, u64)> {
        m.snapshot()
            .into_iter()
            .filter(|(k, _)| k.starts_with("thr."))
            .collect()
    };
    let expect = |scale: u64| -> Vec<(String, u64)> {
        [("thr.a", 2), ("thr.b", 4), ("thr.c", 3), ("thr.d", 1)]
            .iter()
            .map(|&(k, v)| (k.to_string(), v * scale))
            .collect()
    };
    assert_eq!(only(&a), expect(1));
    assert_eq!(only(&b), expect(10));
    let names = |m: &Metrics| only(m).into_iter().map(|(k, _)| k).collect::<Vec<_>>();
    assert_eq!(names(&a), names(&b));
}
