//! Allocation budget of the bank's formatters. An account key, a balance,
//! a branch key and a debit tag are short enough for a `Bytes` to hold
//! inline, and they are written through a stack buffer, so building one
//! allocates nothing: a debit's SEND parameters cost their one list
//! alone, which every copy of the request shares.
//!
//! And of a whole bank commit: what it allocates is its messages
//! (DESIGN.md §D19(e)). Its bookkeeping borrows the lists it reads and
//! reuses the buffers it fills.

#[path = "../../guardian/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations_in, CountingAlloc};
use encompass::app::{launch_bank_app, BankAppParams};
use encompass::messages::AppRequest;
use encompass::shardbank::branch_key;
use encompass::workload::{account_key, balance_bytes, DebitTag};
use encompass_sim::{NodeId, SimDuration, World};
use std::hint::black_box;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn bank_formatters_allocate_nothing() {
    let tag = DebitTag {
        node: NodeId(255),
        terminal: 255,
        n: u64::MAX,
    };
    let (n, (key, balance, branch, encoded)) = allocations_in(|| {
        (
            account_key(black_box(99_999_999)),
            balance_bytes(black_box(i64::MIN)),
            branch_key(black_box(NodeId(255))),
            black_box(tag).encode(),
        )
    });
    assert_eq!(n, 0, "account_key / balance_bytes / branch_key / encode");
    assert_eq!(key, b"acct99999999");
    assert_eq!(balance, b"-9223372036854775808");
    assert_eq!(branch, b"branch255");
    assert_eq!(encoded, b"ff.ff.ffffffffffffffff");
    assert_eq!(DebitTag::decode(&encoded), Some(tag));
}

#[test]
fn a_debits_parameters_cost_their_vec() {
    let tag = DebitTag {
        node: NodeId(3),
        terminal: 7,
        n: 41,
    };
    let (n, request) = allocations_in(|| {
        AppRequest::new(
            "debit",
            [account_key(12), balance_bytes(-250), tag.encode()],
        )
    });
    assert_eq!(n, 1, "the parameter list and nothing else");
    let (n, copy) = allocations_in(|| black_box(request.clone()));
    assert_eq!(n, 0, "a copy of the request shares its parameters");
    assert_eq!(copy.param(2), tag.encode());
}

#[test]
fn text_longer_than_the_buffer_falls_back_to_the_heap() {
    let (n, key) = allocations_in(|| account_key(black_box(u64::MAX)));
    assert!(n >= 1, "24 bytes do not fit inline");
    assert_eq!(key, b"acct18446744073709551615");
}

/// Blocks a warm read-write bank commit may allocate beyond one per
/// message sent: fewer than its messages. Most messages are one block.
/// The four messages of a state broadcast share one (twelve blocks fewer
/// than messages a commit); a few messages carry a list of their own (a
/// write set in a checkpoint), and the lists several holders read are
/// built once and shared (§D19(f): a write's images by its append, its
/// retry, its checkpoint and both halves' undo; a SEND's parameters by
/// the TCP's retained copy); a volume's lock list is reused. Measured:
/// −7.1; 1.4 when each holder copied those lists, 28.8 when every
/// broadcast copy was a block as well.
const BLOCKS_PER_COMMIT_BEYOND_MESSAGES: f64 = -6.5;

fn counter_sum(w: &World, names: &[&str]) -> u64 {
    names.iter().map(|name| w.metrics().get(name)).sum()
}

#[test]
fn a_warm_bank_commit_allocates_its_messages_and_little_else() {
    // bank1_write's shape: one 4-CPU node, 8 terminals debiting
    let mut app = launch_bank_app(BankAppParams {
        node_cpus: vec![4],
        history: false,
        accounts: 1_000,
        terminals_per_node: 8,
        transactions_per_terminal: 400,
        think: SimDuration::from_micros(500),
        seed: 1,
        ..BankAppParams::default()
    });
    app.world.run_for(SimDuration::from_secs(3));
    let msgs = ["sim.msgs.local", "sim.msgs.bus", "sim.msgs.net"];
    let (commits, sent) = (
        counter_sum(&app.world, &["tmf.commits"]),
        counter_sum(&app.world, &msgs),
    );
    let (blocks, ()) = allocations_in(|| app.world.run_for(SimDuration::from_secs(10)));
    let commits = counter_sum(&app.world, &["tmf.commits"]) - commits;
    let sent = counter_sum(&app.world, &msgs) - sent;
    assert!(commits >= 500, "{commits} commits in the window");
    assert_eq!(counter_sum(&app.world, &["tmf.readonly_commits"]), 0);
    let beyond = (blocks as f64 - sent as f64) / commits as f64;
    assert!(
        beyond <= BLOCKS_PER_COMMIT_BEYOND_MESSAGES,
        "{blocks} blocks for {sent} messages and {commits} commits: {beyond:.2} a commit \
         beyond its messages, budget {BLOCKS_PER_COMMIT_BEYOND_MESSAGES}"
    );
}
