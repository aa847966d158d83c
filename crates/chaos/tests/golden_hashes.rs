//! Golden trace-hash folds: the proof that a refactor changed nothing.
//!
//! Each preset folds its seeds' trace hashes the way `benchmark/` folds
//! `chaos_sweep400` (`rotate_left(7) ^ trace_hash`) and compares against
//! a literal. A refactor must leave every literal alone; a deliberate
//! behaviour change (a new message, a moved timer) edits the literal in
//! the same commit — the failure message prints the new fold.

use encompass_chaos::{run_schedule, run_seed, Schedule};
use encompass_storage::types::RecoveryMode;

fn fold(hashes: impl Iterator<Item = u64>) -> u64 {
    hashes.fold(0u64, |acc, h| acc.rotate_left(7) ^ h)
}

fn check(what: &str, expected: u64, got: u64) {
    assert_eq!(
        got, expected,
        "{what}: trace-hash fold is now {got:#018x} (golden {expected:#018x}); \
         if the behaviour change is deliberate, put the new fold in this file"
    );
}

#[test]
fn sweep_0_to_25() {
    check(
        "run_seed(0..25)",
        0x4521_775e_6126_49fe,
        fold((0..25).map(|s| run_seed(s).trace_hash)),
    );
}

/// The same 25 seeds as `--dumps` runs them: online-dump plan and
/// trail purging enabled.
#[test]
fn sweep_0_to_25_with_dumps() {
    check(
        "run_seed(0..25) with dumps",
        0xb0ac_dcc9_4962_093f,
        runs(0..25, |s| Schedule::generate(s).with_dumps()),
    );
}

/// Seeds run as `schedule` builds them — a preset with the same
/// overrides the CLI's `schedule_for` applies.
fn runs(seeds: impl IntoIterator<Item = u64>, schedule: fn(u64) -> Schedule) -> u64 {
    fold(
        seeds
            .into_iter()
            .map(|s| run_schedule(&schedule(s)).trace_hash),
    )
}

/// The sweep preset with `set` applied.
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
        0xf3bc_e1f4_8896_0371,
        overridden(0..10, |s| s.group_commit_window_us = 2000),
    );
}

/// `--sweep 10 --partitions 2 --dumps`: partitioned trails under dumps.
#[test]
fn sweep_0_to_10_partitions_2_with_dumps() {
    check(
        "seeds 0..10 with audit_partitions = 2, volumes_per_node = 2, dumps",
        0x2fea_f1b3_c076_277e,
        runs(0..10, |s| Schedule {
            audit_partitions: 2,
            volumes_per_node: 2,
            ..Schedule::generate(s).with_dumps()
        }),
    );
}

/// `--sweep 10 --readers 2`: read-only terminals forced on.
#[test]
fn sweep_0_to_10_readers_2() {
    check(
        "seeds 0..10 with readonly_terminals_per_node = 2",
        0x85b4_f14b_ce7e_a791,
        overridden(0..10, |s| s.readonly_terminals_per_node = 2),
    );
}

/// `--sweep 25 --wal`: every volume in the Write-Ahead-Log baseline.
#[test]
fn sweep_0_to_25_wal() {
    check(
        "seeds 0..25 with recovery_mode = WalForce",
        0x89f7_1c9d_0e92_d272,
        overridden(0..25, |s| s.recovery_mode = RecoveryMode::WalForce),
    );
}

#[test]
fn shard_sweep_0_to_8() {
    check(
        "Schedule::shards(0..8)",
        0x2108_0f96_5ad5_2c6a,
        runs(0..8, Schedule::shards),
    );
}

/// Simulated hours per seed, seed 2 with the full-disaster drill: release
/// builds only
/// (`cargo test --release -p encompass-chaos --test golden_hashes -- --include-ignored`).
#[test]
#[ignore = "soak seeds take minutes unoptimised; CI runs them in release"]
fn soak_seeds_0_and_10() {
    check(
        "Schedule::soak(0) and (2)",
        0xd802_9574_fdd2_e4e7,
        runs([0, 2], Schedule::soak),
    );
}
