//! One function per experiment in EXPERIMENTS.md. Each returns one or
//! more [`crate::Table`]s ready to print; the `exp` binary looks them up
//! by name in [`TABLES`] and [`SWEEPS`].

mod claims;
mod figures;
mod group_commit;
mod latency_attribution;
mod online_dump;
mod read_mix;
mod scaleout;

pub use claims::{t1, t2, t3, t4, t5, t6, t7, t8};
pub use figures::{f1, f2, f3, f4};
pub use group_commit::{group_commit, GroupCommitResult, GroupCommitRow};
pub use latency_attribution::{
    latency_attribution, LatencyAttributionResult, LatencyAttributionRow,
};
pub use online_dump::{online_dump, OnlineDumpResult, OnlineDumpRow};
pub use read_mix::{read_mix, ReadMixResult, ReadMixRow};
pub use scaleout::{scaleout, ScaleoutResult, ScaleoutRow};

pub type Experiment = fn() -> Vec<crate::Table>;
pub type Sweep = fn(bool) -> (crate::Table, String);

/// The paper's figures and claims, in the canonical F1..T8 order:
/// `exp <name>` prints one, `exp all` prints them all.
pub const TABLES: &[(&str, Experiment)] = &[
    ("f1", f1),
    ("f2", f2),
    ("f3", f3),
    ("f4", f4),
    ("t1", t1),
    ("t2", t2),
    ("t3", t3),
    ("t4", t4),
    ("t5", t5),
    ("t6", t6),
    ("t7", t7),
    ("t8", t8),
];

/// The sweeps that also write a machine-readable `BENCH_<name>.json`:
/// given `smoke`, each returns its table and that JSON.
pub const SWEEPS: &[(&str, Sweep)] = &[
    ("group_commit", |smoke| {
        let r = group_commit(smoke);
        (r.table(), r.to_json())
    }),
    ("latency_attribution", |smoke| {
        let r = latency_attribution(smoke);
        (r.table(), r.to_json())
    }),
    ("online_dump", |smoke| {
        let r = online_dump(smoke);
        (r.table(), r.to_json())
    }),
    ("read_mix", |smoke| {
        let r = read_mix(smoke);
        (r.table(), r.to_json())
    }),
    ("scaleout", |smoke| {
        let r = scaleout(smoke);
        (r.table(), r.to_json())
    }),
];

/// Run every experiment in [`TABLES`] (`exp all`), in parallel — each
/// experiment builds its own simulated worlds, so they are independent;
/// results are returned in the canonical F1..T8 order.
pub fn all() -> Vec<crate::Table> {
    std::thread::scope(|scope| {
        let running: Vec<_> = TABLES.iter().map(|(_, f)| scope.spawn(f)).collect();
        running
            .into_iter()
            .flat_map(|h| h.join().expect("experiment thread panicked"))
            .collect()
    })
}
