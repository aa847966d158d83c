//! Workspace-level integration tests: the full stack (simulated hardware →
//! GUARDIAN → storage → audit → TMF → ENCOMPASS application) exercised
//! end-to-end, with the paper's headline guarantees asserted as
//! invariants.
//!
//! The key invariant used throughout: the bank workload debits accounts
//! and appends one history record per debit *in the same transaction*, so
//! **initial_total − final_total must equal the sum of the amounts in the
//! history file** — atomicity made measurable. Any torn transaction
//! (debit without history, history without debit, double-applied retry)
//! breaks the equation.

use bytes::Bytes;
use encompass_tmf::encompass::app::{launch_bank_app, BankAppParams};
use encompass_tmf::encompass::workload::total_balance;
use encompass_tmf::sim::{CpuId, Fault, SimDuration};
use encompass_tmf::storage::media::{media_key, VolumeMedia};

/// Sum of debit amounts recorded in the committed history file.
fn history_total(app: &mut encompass_tmf::encompass::app::AppHandles) -> i64 {
    let node = app.nodes[0];
    let media = app
        .world
        .stable()
        .get::<VolumeMedia>(&media_key(node, "$BANK"))
        .expect("bank media");
    let Some(hist) = media.file("history") else {
        return 0;
    };
    hist.scan(&[], None, usize::MAX)
        .into_iter()
        .map(|(_, v)| {
            let s = String::from_utf8_lossy(&v);
            s.rsplit(':')
                .next()
                .and_then(|a| a.parse::<i64>().ok())
                .unwrap_or(0)
        })
        .sum()
}

/// Run a bank app to completion (+ flush drain) and assert conservation.
fn assert_conservation(mut app: encompass_tmf::encompass::app::AppHandles, accounts: u64) {
    // drain: in-flight work, backouts, safe-delivery retries, cache flushes
    app.world.run_for(SimDuration::from_secs(240));
    let final_total = total_balance(&mut app.world, &app.catalog, "accounts");
    let debited = history_total(&mut app);
    let initial_total = accounts as i64 * 1000;
    assert_eq!(
        initial_total - final_total,
        debited,
        "atomicity: balance delta must equal committed history \
         (initial={initial_total}, final={final_total}, history={debited})"
    );
}

#[test]
fn distributed_bank_conserves_money_across_nodes() {
    let accounts = 300u64;
    let mut app = launch_bank_app(BankAppParams {
        node_cpus: vec![4, 4], // accounts partitioned across two nodes
        accounts,
        terminals_per_node: 4,
        transactions_per_terminal: 12,
        think: SimDuration::from_millis(2),
        ..BankAppParams::default()
    });
    app.world.run_for(SimDuration::from_secs(120));
    assert_eq!(
        app.world.metrics().get("tcp.terminals_finished"),
        8,
        "all terminals on both nodes finished"
    );
    assert_eq!(app.world.metrics().get("tcp.commits"), 96);
    // cross-node transactions happened (node 1 terminals debit node 0
    // accounts and vice versa, and history lives on node 0)
    assert!(
        app.world.metrics().get("tmf.msgs.remote_begin") > 0,
        "remote transaction begins occurred"
    );
    assert_conservation(app, accounts);
}

#[test]
fn atomicity_holds_under_serial_cpu_failures() {
    // kill and reload each CPU in turn while the workload runs
    let accounts = 300u64;
    let mut app = launch_bank_app(BankAppParams {
        accounts,
        terminals_per_node: 6,
        transactions_per_terminal: 20,
        think: SimDuration::from_millis(2),
        ..BankAppParams::default()
    });
    let n = app.nodes[0];
    for cpu in [2u8, 0, 3, 1] {
        app.world.run_for(SimDuration::from_millis(700));
        app.world.inject(Fault::KillCpu(n, CpuId(cpu)));
        app.world.run_for(SimDuration::from_millis(1500));
        app.world.inject(Fault::RestoreCpu(n, CpuId(cpu)));
    }
    app.world.run_for(SimDuration::from_secs(240));
    assert_eq!(
        app.world.metrics().get("tcp.terminals_finished"),
        6,
        "workload completed despite four serial CPU failures"
    );
    assert_conservation(app, accounts);
}

#[test]
fn atomicity_holds_under_partitions_between_nodes() {
    let accounts = 200u64;
    let mut app = launch_bank_app(BankAppParams {
        node_cpus: vec![4, 4],
        accounts,
        terminals_per_node: 4,
        transactions_per_terminal: 12,
        think: SimDuration::from_millis(2),
        ..BankAppParams::default()
    });
    let n1 = app.nodes[1];
    // three partition episodes while cross-node transactions run
    for _ in 0..3 {
        app.world.run_for(SimDuration::from_millis(900));
        app.world.inject(Fault::Partition(vec![n1]));
        app.world.run_for(SimDuration::from_millis(1200));
        app.world.inject(Fault::HealAllLinks);
    }
    app.world.run_for(SimDuration::from_secs(300));
    assert_eq!(app.world.metrics().get("tcp.terminals_finished"), 8);
    assert_conservation(app, accounts);
}

#[test]
fn atomicity_property_random_fault_schedules() {
    // a lightweight hand-rolled property test: many seeds, each with a
    // pseudo-random schedule of CPU kills/reloads and partitions; the
    // conservation invariant must hold for every one
    use rand::{Rng, SeedableRng};
    for seed in 0..6u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA17 + seed);
        let accounts = 150u64;
        let two_nodes = rng.random_bool(0.5);
        let mut app = launch_bank_app(BankAppParams {
            node_cpus: if two_nodes { vec![4, 4] } else { vec![4] },
            accounts,
            terminals_per_node: 4,
            transactions_per_terminal: 8,
            think: SimDuration::from_millis(2),
            seed,
            ..BankAppParams::default()
        });
        let faults = rng.random_range(1..4);
        for _ in 0..faults {
            app.world
                .run_for(SimDuration::from_millis(rng.random_range(200..1500)));
            if two_nodes && rng.random_bool(0.4) {
                let n1 = app.nodes[1];
                app.world.inject(Fault::Partition(vec![n1]));
                app.world
                    .run_for(SimDuration::from_millis(rng.random_range(300..1500)));
                app.world.inject(Fault::HealAllLinks);
            } else {
                let node = app.nodes[rng.random_range(0..app.nodes.len())];
                let cpu = rng.random_range(0..4u8);
                app.world.inject(Fault::KillCpu(node, CpuId(cpu)));
                app.world
                    .run_for(SimDuration::from_millis(rng.random_range(300..1500)));
                app.world.inject(Fault::RestoreCpu(node, CpuId(cpu)));
            }
        }
        app.world.run_for(SimDuration::from_secs(240));
        let finished = app.world.metrics().get("tcp.terminals_finished");
        let terminals = if two_nodes { 8 } else { 4 };
        assert_eq!(finished, terminals, "seed {seed}: workload completed");
        assert_conservation(app, accounts);
    }
}

#[test]
fn deterministic_full_stack_replay() {
    fn run(seed: u64) -> u64 {
        let mut app = launch_bank_app(BankAppParams {
            accounts: 100,
            terminals_per_node: 4,
            transactions_per_terminal: 5,
            seed,
            ..BankAppParams::default()
        });
        let n = app.nodes[0];
        app.world.schedule_fault(
            encompass_tmf::sim::SimTime::from_micros(400_000),
            Fault::KillCpu(n, CpuId(2)),
        );
        app.world.run_for(SimDuration::from_secs(30));
        app.world.trace_hash()
    }
    assert_eq!(run(7), run(7), "same seed, same trace");
    assert_ne!(run(7), run(8), "different seed, different trace");
}

#[test]
fn rollforward_restores_exact_committed_state_full_stack() {
    use encompass_tmf::audit::dump::{request_dump, DumpReply};
    use encompass_tmf::audit::rollforward::rollforward_volume;
    use encompass_tmf::audit::trail::trail_key;
    use encompass_tmf::storage::types::VolumeRef;

    let accounts = 150u64;
    let mut app = launch_bank_app(BankAppParams {
        accounts,
        terminals_per_node: 4,
        transactions_per_terminal: 10,
        think: SimDuration::from_millis(1),
        ..BankAppParams::default()
    });
    let n = app.nodes[0];
    let vol = VolumeRef::new(n, "$BANK");
    // archive while the workload is running (a fuzzy dump)
    let dump = request_dump(&mut app.world, 0, 50, &vol, 1);
    app.world.run_for(SimDuration::from_secs(120));
    assert_eq!(app.world.metrics().get("tcp.terminals_finished"), 4);
    assert!(
        matches!(*dump.borrow(), Some(DumpReply::Done { .. })),
        "the dump completed: {:?}",
        dump.borrow()
    );
    app.world.run_for(SimDuration::from_secs(10)); // flush drain
    let pre_total = total_balance(&mut app.world, &app.catalog, "accounts");
    let pre_history = history_total(&mut app);

    // total failure: both DISCPROCESS CPUs + both drives
    app.world.inject(Fault::KillCpu(n, CpuId(2)));
    app.world.inject(Fault::KillCpu(n, CpuId(3)));
    app.world.run_for(SimDuration::from_millis(100));
    {
        let media = app
            .world
            .stable_mut()
            .get_mut::<VolumeMedia>(&media_key(n, "$BANK"))
            .unwrap();
        media.fail_drive(0);
        media.fail_drive(1);
        media.revive_drive(0);
        media.revive_drive(1);
        assert!(!media.available(), "content lost");
    }
    let report = rollforward_volume(&mut app.world, &vol, &trail_key(n, 0), 1);
    assert!(report.redone > 0);
    let post_total = total_balance(&mut app.world, &app.catalog, "accounts");
    let post_history = history_total(&mut app);
    assert_eq!(post_total, pre_total, "balances recovered exactly");
    assert_eq!(post_history, pre_history, "history recovered exactly");
    assert_eq!(
        (accounts as i64 * 1000) - post_total,
        post_history,
        "and the recovered state is itself atomic"
    );
}

#[test]
fn umbrella_crate_reexports_work() {
    // the public API advertised in the README
    use encompass_tmf::sim::{SimConfig, World};
    let mut w = World::new(SimConfig::with_seed(1));
    let n = w.add_node(2);
    assert_eq!(w.cpu_count(n), 2);
    let _ = Bytes::from_static(b"smoke");
}
