//! Replica-convergence property of the manufacturing design: under an
//! arbitrary (seeded-random) schedule of partitions, once the network is
//! healed and the suspense monitors drain, every replica of every global
//! record equals its master copy — "global file copies converge to a
//! consistent state".

use encompass_bench::driver::{MfgDriver, MfgTally};
use encompass_tmf::encompass::app::{launch_mfg_app, read_replica, MfgAppParams};
use encompass_tmf::encompass::manufacturing::suspense;
use encompass_tmf::sim::{Fault, SimDuration};
use encompass_tmf::storage::media::{media_key, VolumeMedia};
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn replicas_converge_under_random_partition_schedules() {
    for seed in 0..4u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0117 + seed);
        let mut app = launch_mfg_app(MfgAppParams { seed });
        let n0 = app.nodes[0];
        // updates originate at node 0 (masters there)
        let tally = Rc::new(RefCell::new(MfgTally::default()));
        let updates = 16u64;
        app.world.spawn(
            n0,
            2,
            Box::new(MfgDriver::new(
                app.catalog.clone(),
                "master-update",
                n0,
                SimDuration::from_millis(400),
                updates,
                tally.clone(),
            )),
        );
        // random partition episodes of random non-master nodes
        let episodes = rng.random_range(1..4);
        for _ in 0..episodes {
            app.world
                .run_for(SimDuration::from_millis(rng.random_range(500..2500)));
            let victim = app.nodes[rng.random_range(1..app.nodes.len())];
            app.world.inject(Fault::Partition(vec![victim]));
            app.world
                .run_for(SimDuration::from_millis(rng.random_range(500..3000)));
            app.world.inject(Fault::HealAllLinks);
        }
        // drain: all updates issued, suspense monitors catch up, flushes land
        app.world.run_for(SimDuration::from_secs(120));
        assert_eq!(
            tally.borrow().committed,
            updates,
            "seed {seed}: master updates all committed (node autonomy)"
        );

        // invariant 1: every suspense file is empty
        for &n in &app.nodes.clone() {
            let backlog = app
                .world
                .stable()
                .get::<VolumeMedia>(&media_key(n, "$MFG"))
                .and_then(|m| m.file(&suspense(n)))
                .map(|f| f.len())
                .unwrap_or(0);
            assert_eq!(backlog, 0, "seed {seed}: suspense file on {n} drained");
        }
        // invariant 2: every replica equals the master copy
        for k in 0..16u64 {
            let key = format!("part-{k}");
            let master = read_replica(&mut app.world, n0, "item", key.as_bytes());
            for &n in &app.nodes.clone() {
                let r = read_replica(&mut app.world, n, "item", key.as_bytes());
                assert_eq!(
                    r, master,
                    "seed {seed}: replica of {key} on {n} equals the master copy"
                );
            }
        }
    }
}
