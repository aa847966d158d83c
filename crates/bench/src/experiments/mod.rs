//! One function per experiment in EXPERIMENTS.md. Each returns one or
//! more [`crate::Table`]s ready to print; the `exp` binary looks them up
//! by name in [`TABLES`] and [`SWEEPS`].

use encompass_sim::{SimDuration, World};

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

/// Run `world` in 100 ms steps until `terminals` terminal programs have
/// finished, or for at most `limit_s` seconds of virtual time.
fn run_until_finished(world: &mut World, terminals: u64, limit_s: u64) {
    let mut elapsed = 0;
    while world.metrics().get("tcp.terminals_finished") < terminals && elapsed < limit_s * 1000 {
        world.run_for(SimDuration::from_millis(100));
        elapsed += 100;
    }
}

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

/// A [`SWEEPS`] entry: the sweep's name, and a run giving its table and
/// its JSON.
macro_rules! sweep {
    ($name:ident) => {
        (stringify!($name), |smoke| {
            let r = $name(smoke);
            (r.table(), r.to_json())
        })
    };
}

/// The sweeps that also write a machine-readable `BENCH_<name>.json`:
/// given `smoke`, each returns its table and that JSON.
pub const SWEEPS: &[(&str, Sweep)] = &[
    sweep!(group_commit),
    sweep!(latency_attribution),
    sweep!(online_dump),
    sweep!(read_mix),
    sweep!(scaleout),
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
