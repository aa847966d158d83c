//! The paper's manufacturing application (Figure 4), rebuilt on the
//! sharding & suspense-file replication layer (`crates/shard`): four
//! plants, global files replicated with a master node per record,
//! deferred replica updates queued in durable suspense files and drained
//! by a `$SUSPENSE` monitor process pair per node — node autonomy
//! through a network partition, drain-in-order convergence after the
//! heal, and the drain surviving a processor failure via pair takeover.
//!
//! ```text
//! cargo run --example manufacturing_network
//! ```

use bytes::Bytes;
use encompass_tmf::encompass::app::{launch_mfg_app, read_replica, MfgAppParams};
use encompass_tmf::encompass::messages::{AppReply, AppRequest, ServerRequest};
use encompass_tmf::prelude::*;
use encompass_tmf::shard::{suspense_file, SuspenseMonitorApp};
use encompass_tmf::storage::media::{media_key, VolumeMedia};
use guardian::{Rpc, Target};
use std::cell::RefCell;
use std::rc::Rc;

/// Issues one `master-update` transaction and records success.
struct Update {
    node: NodeId,
    key: &'static str,
    value: &'static str,
    session: TmfSession,
    rpc: Rpc<ServerRequest, AppReply>,
    state: u8,
    ok: Rc<RefCell<Option<bool>>>,
}

impl Process for Update {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.subscribe_system();
        self.state = 1;
        self.session.begin(ctx, SessionOptions::default());
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        let payload = match self.session.accept(ctx, payload) {
            Ok(Some(ev)) => {
                match (self.state, ev) {
                    (1, SessionEvent::Began { .. }) => {
                        self.state = 2;
                        let env = ServerRequest {
                            transid: self.session.transid(),
                            options: self.session.options(),
                            request: AppRequest::new(
                                "master-update",
                                vec![
                                    Bytes::from_static(b"item"),
                                    Bytes::copy_from_slice(self.key.as_bytes()),
                                    Bytes::copy_from_slice(self.value.as_bytes()),
                                ],
                            ),
                        };
                        let _ = self.rpc.call(
                            ctx,
                            Target::new(self.node, "$SC-mfg".into()),
                            env,
                            0,
                            (),
                        );
                    }
                    (3, SessionEvent::Committed) => {
                        *self.ok.borrow_mut() = Some(true);
                    }
                    (_, SessionEvent::Aborted) | (_, SessionEvent::Failed { .. }) => {
                        *self.ok.borrow_mut() = Some(false);
                    }
                    _ => {}
                }
                return;
            }
            Ok(None) => return,
            Err(p) => p,
        };
        if let Ok(c) = self.rpc.accept(ctx, payload) {
            if self.state == 2 && c.body.ok {
                self.state = 3;
                self.session.end(ctx);
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        let _ = self.session.on_timer(ctx, tag);
        let _ = self.rpc.on_timer(ctx, tag);
    }
    fn on_system(&mut self, ctx: &mut Ctx<'_>, ev: SystemEvent) {
        self.session.on_system(ctx, ev);
        self.rpc.on_system(ctx, ev);
    }
}

fn main() {
    let mut app = launch_mfg_app(MfgAppParams::default());
    let plants = ["Cupertino", "Santa Clara", "Reston", "Neufahrn"];
    let n0 = app.nodes[0];
    let n3 = app.nodes[3];

    println!(
        "manufacturing network up: 4 plants, global files item/bom/pohead replicated everywhere"
    );
    println!("each plant runs a $SUSPENSE monitor pair draining its durable suspense file");
    println!();
    println!("1. partitioning {} ({n3}) off the network", plants[3]);
    app.world.inject(Fault::Partition(vec![n3]));

    println!(
        "2. updating item 'widget' at its master {} ({n0}) — node autonomy says this must work",
        plants[0]
    );
    let ok = Rc::new(RefCell::new(None));
    let catalog = app.catalog.clone();
    app.world.spawn(
        n0,
        2,
        Box::new(Update {
            node: n0,
            key: "widget",
            value: "rev-42",
            session: TmfSession::new(catalog, 5),
            rpc: Rpc::new(40, SimDuration::from_secs(2)),
            state: 0,
            ok: ok.clone(),
        }),
    );
    app.world.run_for(SimDuration::from_secs(15));
    println!("   committed: {:?}", ok.borrow().unwrap());

    let show = |app: &mut encompass_tmf::encompass::app::AppHandles| {
        for (i, &n) in app.nodes.clone().iter().enumerate() {
            let r = read_replica(&mut app.world, n, "item", b"widget");
            let backlog = app
                .world
                .stable()
                .get::<VolumeMedia>(&media_key(n, "$MFG"))
                .and_then(|m| m.file(&suspense_file(n)))
                .map(|f| f.len())
                .unwrap_or(0);
            println!(
                "   {:12} replica: {:28} suspense backlog: {}",
                plants[i],
                r.map(|b| format!("{:?}", String::from_utf8_lossy(&b[1..])))
                    .unwrap_or_else(|| "<absent>".into()),
                backlog
            );
        }
    };
    println!("3. replica state while {} is cut off:", plants[3]);
    show(&mut app);

    println!(
        "4. killing the processor hosting {}'s $SUSPENSE primary — the backup takes over \
         and the drain resumes from the durable suspense file",
        plants[0]
    );
    if let Some(pid) = app.world.lookup_name(n0, "$SUSPENSE") {
        app.world.inject(Fault::KillCpu(n0, pid.cpu));
    }
    app.world.run_for(SimDuration::from_secs(2));

    println!("5. healing the partition; the monitors drain deferred updates in transid order");
    app.world.inject(Fault::HealAllLinks);
    app.world.run_for(SimDuration::from_secs(30));
    println!("   replica state after the heal:");
    show(&mut app);

    // read a monitor pair's own accounting off its primary
    let monitor = guardian::primary::<SuspenseMonitorApp>(&app.world, n0, "$SUSPENSE");
    if let Some(m) = monitor {
        println!(
            "   {}'s monitor reports: pending {}, applied {}",
            plants[0],
            m.pending(),
            m.applied()
        );
    }
    println!();
    println!(
        "   suspense updates applied: {}, monitor takeovers: {}",
        app.world.metrics().get("suspense.applied"),
        app.world.metrics().get("suspense.takeovers"),
    );
    println!("   global file copies converged to a consistent state — Figure 4's design works");
}
