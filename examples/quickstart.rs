//! Quickstart: one node, one audited file, one transaction — begin,
//! write, commit, read back; then a second transaction that aborts and is
//! transparently backed out.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use bytes::Bytes;
use encompass_tmf::prelude::*;

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

/// A tiny scripted transaction program (see `encompass::tcp` for the real
/// terminal machinery; this example drives the TMF session directly).
struct Quickstart {
    session: TmfSession,
    step: u32,
}

impl Process for Quickstart {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // a processor failure notice is how the session learns that a
        // process it is waiting on died, and resends to its backup
        ctx.subscribe_system();
        println!("[{}] BEGIN-TRANSACTION", ctx.now());
        self.step = 1;
        self.session.begin(ctx, SessionOptions::default());
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        let Ok(Some(ev)) = self.session.accept(ctx, payload) else {
            return;
        };
        match (self.step, ev) {
            (1, SessionEvent::Began { transid, .. }) => {
                println!("[{}]   transid = {transid}", ctx.now());
                self.step = 2;
                let _ = self.session.op(
                    ctx,
                    DbOp::Insert {
                        file: "accounts".into(),
                        key: b("alice"),
                        value: b("100"),
                    },
                );
            }
            (2, SessionEvent::OpDone { reply, .. }) => {
                println!("[{}]   insert alice=100 -> {reply:?}", ctx.now());
                self.step = 3;
                self.session.end(ctx);
            }
            (3, SessionEvent::Committed) => {
                println!("[{}] END-TRANSACTION: committed", ctx.now());
                // second transaction: update then ABORT — TMF backs it out
                self.step = 4;
                self.session.begin(ctx, SessionOptions::default());
            }
            (4, SessionEvent::Began { .. }) => {
                self.step = 5;
                let _ = self.session.op(
                    ctx,
                    DbOp::ReadLock {
                        file: "accounts".into(),
                        key: b("alice"),
                    },
                );
            }
            (5, SessionEvent::OpDone { reply, .. }) => {
                println!("[{}]   read-lock alice -> {reply:?}", ctx.now());
                self.step = 6;
                let _ = self.session.op(
                    ctx,
                    DbOp::Update {
                        file: "accounts".into(),
                        key: b("alice"),
                        value: b("0"),
                    },
                );
            }
            (6, SessionEvent::OpDone { .. }) => {
                println!("[{}]   updated alice=0 … now ABORT-TRANSACTION", ctx.now());
                self.step = 7;
                self.session.abort(ctx, AbortReason::Voluntary);
            }
            (7, SessionEvent::Aborted) => {
                println!("[{}] ABORT-TRANSACTION: backed out", ctx.now());
                self.step = 8;
                let _ = self.session.op(
                    ctx,
                    DbOp::Read {
                        file: "accounts".into(),
                        key: b("alice"),
                    },
                );
            }
            (8, SessionEvent::OpDone { reply, .. }) => {
                println!(
                    "[{}] read alice after backout -> {reply:?}  (the 100 survived)",
                    ctx.now()
                );
            }
            (_, ev) => println!("[{}] unexpected event: {ev:?}", ctx.now()),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        let _ = self.session.on_timer(ctx, tag);
    }

    fn on_system(&mut self, ctx: &mut Ctx<'_>, ev: SystemEvent) {
        self.session.on_system(ctx, ev);
    }
}

fn main() {
    // a 4-processor Tandem node with one audited volume
    let mut world = World::new(SimConfig::default());
    let node: NodeId = world.add_node(4);
    let mut catalog = Catalog::new();
    catalog.add(FileDef::key_sequenced(
        "accounts",
        VolumeRef::new(node, "$DATA"),
    ));
    spawn_tmf_network(&mut world, &catalog, TmfNodeConfig::default());

    let session = TmfSession::new(catalog, 0);
    world.spawn(node, 0, Box::new(Quickstart { session, step: 0 }));

    world.run_for(SimDuration::from_secs(5));
    println!();
    println!("metrics:");
    for (k, v) in world.metrics().snapshot() {
        if k.starts_with("tmf.") || k.starts_with("disc.") || k.starts_with("audit.") {
            println!("  {k:32} {v}");
        }
    }
}
