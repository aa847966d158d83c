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
pub use group_commit::group_commit;
pub use latency_attribution::latency_attribution;
pub use online_dump::online_dump;
pub use read_mix::read_mix;
pub use scaleout::scaleout;

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
pub type Sweep = fn() -> crate::sweep::SweepResult;

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

/// The sweeps, which also write a machine-readable `BENCH_<name>.json`.
pub const SWEEPS: &[(&str, Sweep)] = &[
    ("group_commit", group_commit),
    ("latency_attribution", latency_attribution),
    ("online_dump", online_dump),
    ("read_mix", read_mix),
    ("scaleout", scaleout),
];

/// Run every experiment in [`TABLES`] (`exp all`) and return their
/// tables in the canonical F1..T8 order. Each builds its own simulated
/// worlds, so all but T5 run in parallel; T5 times its recovery on the
/// host clock, so it runs alone once the others have joined.
pub fn all() -> Vec<crate::Table> {
    let parallel: Vec<Option<Vec<crate::Table>>> = std::thread::scope(|scope| {
        let running: Vec<_> = (TABLES.iter())
            .map(|&(name, f)| (name != "t5").then(|| scope.spawn(f)))
            .collect();
        (running.into_iter())
            .map(|h| h.map(|h| h.join().expect("experiment thread panicked")))
            .collect()
    });
    (parallel.into_iter().zip(TABLES))
        .flat_map(|(tables, &(_, f))| tables.unwrap_or_else(f))
        .collect()
}
