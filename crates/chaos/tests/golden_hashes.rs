//! Golden trace-hash folds: the proof that a refactor changed nothing.
//!
//! Each tier folds its seeds' trace hashes the way `benchmark/` folds
//! `chaos_sweep400` (`rotate_left(7) ^ trace_hash`) and compares against
//! a literal. A refactor must leave every literal alone; a deliberate
//! behaviour change (a new message, a moved timer) edits the literal in
//! the same commit — the failure message prints the new fold.

use encompass_chaos::{run_schedule, run_seed, Schedule, Tier};

fn fold(hashes: impl Iterator<Item = u64>) -> u64 {
    hashes.fold(0u64, |acc, h| acc.rotate_left(7) ^ h)
}

fn check(tier: &str, expected: u64, got: u64) {
    assert_eq!(
        got, expected,
        "{tier}: trace-hash fold is now {got:#018x} (golden {expected:#018x}); \
         if the behaviour change is deliberate, put the new fold in this file"
    );
}

#[test]
fn sweep_0_to_25() {
    check(
        "run_seed(0..25)",
        0xbc74_f80d_7129_c6d3,
        fold((0..25).map(|s| run_seed(s).trace_hash)),
    );
}

/// The same 25 seeds as `--dumps` runs them: online-dump plan and
/// trail purging enabled.
#[test]
fn sweep_0_to_25_with_dumps() {
    check(
        "run_seed(0..25) with dumps_enabled",
        0x584a_81a9_56e6_fa8c,
        overridden(0..25, |s| s.dumps_enabled = true),
    );
}

/// Seeds run with schedule fields overridden — the same public fields
/// the CLI's `schedule_for` sets.
fn overridden(seeds: impl IntoIterator<Item = u64>, set: fn(&mut Schedule)) -> u64 {
    fold(seeds.into_iter().map(|s| {
        let mut schedule = Schedule::generate(s);
        set(&mut schedule);
        run_schedule(&schedule).trace_hash
    }))
}

/// `--sweep 10 --window 2000`: the group-commit window forced open.
#[test]
fn sweep_0_to_10_window_2000() {
    check(
        "seeds 0..10 with group_commit_window_us = 2000",
        0x5fc7_9f72_b6a8_cbc6,
        overridden(0..10, |s| s.group_commit_window_us = 2000),
    );
}

/// `--sweep 10 --partitions 2 --dumps`: partitioned trails under dumps.
#[test]
fn sweep_0_to_10_partitions_2_with_dumps() {
    check(
        "seeds 0..10 with audit_partitions = 2, volumes_per_node = 2, dumps_enabled",
        0x66ac_fcbf_024c_a057,
        overridden(0..10, |s| {
            s.audit_partitions = 2;
            s.volumes_per_node = 2;
            s.dumps_enabled = true;
        }),
    );
}

/// `--sweep 10 --readers 2`: read-only terminals forced on.
#[test]
fn sweep_0_to_10_readers_2() {
    check(
        "seeds 0..10 with readonly_terminals_per_node = 2",
        0xc8a8_d333_0b54_574f,
        overridden(0..10, |s| s.readonly_terminals_per_node = 2),
    );
}

#[test]
fn shard_sweep_0_to_8() {
    check(
        "seeds 0..8 with tier = Shards",
        0xafcd_fed8_cfd1_6cf9,
        overridden(0..8, |s| s.tier = Tier::Shards),
    );
}

/// Simulated hours per seed: release builds only
/// (`cargo test --release -p encompass-chaos --test golden_hashes -- --include-ignored`).
#[test]
#[ignore = "soak seeds take minutes unoptimised; CI runs them in release"]
fn soak_seeds_0_and_10() {
    check(
        "seeds 0 and 10 with tier = Soak",
        0x235e_6349_406f_58b5,
        overridden([0, 10], |s| s.tier = Tier::Soak),
    );
}
