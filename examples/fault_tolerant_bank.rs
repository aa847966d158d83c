//! A fault-tolerant bank: the full ENCOMPASS stack — terminals driven by a
//! Terminal Control Process pair, a dynamically-sized server class, TMF,
//! audit trails — surviving a processor failure mid-workload with on-line
//! transaction backout (no halt, no restart).
//!
//! ```text
//! cargo run --example fault_tolerant_bank
//! ```

use encompass_tmf::encompass::workload::total_balance;
use encompass_tmf::prelude::*;
use encompass_tmf::sim::CpuId;

fn main() {
    let terminals = 8usize;
    let txns = 20u64;
    let accounts = 500u64;
    let mut app = launch_bank_app(BankAppParams {
        accounts,
        terminals_per_node: terminals,
        transactions_per_terminal: txns,
        think: SimDuration::from_millis(2),
        ..BankAppParams::default()
    });
    let node = app.nodes[0];

    println!(
        "bank open: {terminals} terminals x {txns} debit transactions over {accounts} accounts"
    );
    println!("running 1 virtual second of workload …");
    app.world.run_for(SimDuration::from_secs(1));
    println!(
        "  t=1s   commits so far: {}",
        app.world.metrics().get("tcp.commits")
    );

    println!("!! killing CPU 2 (hosts the DISCPROCESS primary and some servers)");
    app.world.inject(Fault::KillCpu(node, CpuId(2)));

    let mut last = app.world.metrics().get("tcp.commits");
    for s in 2..=6 {
        app.world.run_for(SimDuration::from_secs(1));
        let c = app.world.metrics().get("tcp.commits");
        println!("  t={s}s   commits: {c}  (+{} this second)", c - last);
        last = c;
    }
    // run to completion
    app.world.run_for(SimDuration::from_secs(120));
    let m = app.world.metrics().clone();
    println!();
    println!("workload complete:");
    println!("  commits                 {}", m.get("tcp.commits"));
    println!("  expected                {}", terminals as u64 * txns);
    println!("  pair takeovers          {}", m.get("pair.takeovers"));
    println!("  transaction restarts    {}", m.get("tcp.restarts"));
    println!("  backouts                {}", m.get("backout.completed"));
    println!("  audit group forces      {}", m.get("audit.forces"));
    // conservation: initial = accounts * 1000; every committed debit moved
    // money out; nothing was lost or double-applied
    app.world.run_for(SimDuration::from_secs(5)); // let flushes settle
    let total = total_balance(&mut app.world, &app.catalog, "accounts");
    println!(
        "  account total {} (initial {}; every committed debit applied exactly once)",
        total,
        accounts as i64 * 1000
    );
    assert_eq!(m.get("tcp.commits"), terminals as u64 * txns);
}
