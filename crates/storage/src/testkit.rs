//! Test utilities shared by this crate's integration tests and by the
//! higher layers (`encompass-audit`, `tmf`, `encompass`): a scripted
//! DISCPROCESS client process and reply collectors.

use crate::discprocess::{DiscReply, DiscRequest};
use encompass_sim::{Ctx, NodeId, Payload, Pid, Process, SimDuration, SystemEvent, TimerId, World};
use guardian::{Rpc, Target, TimerOutcome};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared handle the driver reads results from after the run.
pub type Replies = Rc<RefCell<Vec<DiscReply>>>;

/// Per-attempt timeout of a [`ScriptClient`]'s calls: a call to another
/// node is resent at this interval, and one on the client's node expires
/// after `RETRIES + 1` of them.
const ATTEMPT_TIMEOUT: SimDuration = SimDuration::from_millis(100);
/// Retries per call before a [`ScriptClient`] records a synthetic
/// `VolumeDown` error.
const RETRIES: u32 = 20;

/// A process that issues a fixed sequence of requests, one at a time, with
/// retries, recording every final reply.
pub struct ScriptClient {
    target: Target,
    script: Vec<DiscRequest>,
    replies: Replies,
    rpc: Rpc<DiscRequest, DiscReply>,
    next: usize,
}

impl ScriptClient {
    pub fn new(target: Target, script: Vec<DiscRequest>, replies: Replies) -> ScriptClient {
        ScriptClient {
            target,
            script,
            replies,
            rpc: Rpc::new(9, ATTEMPT_TIMEOUT),
            next: 0,
        }
    }

    fn kick(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(op) = self.script.get(self.next).cloned() {
            self.next += 1;
            // a call within the node waits out a takeover; only a volume
            // on another node can be unreachable now
            if self
                .rpc
                .call(ctx, self.target.clone(), op, RETRIES, ())
                .is_ok()
            {
                return;
            }
            self.replies.borrow_mut().push(volume_down());
        }
    }
}

fn volume_down() -> DiscReply {
    DiscReply::Err(crate::discprocess::DiscError::VolumeDown)
}

impl Process for ScriptClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.subscribe_system();
        self.kick(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _src: Pid, payload: Payload) {
        if let Ok(c) = self.rpc.accept(ctx, payload) {
            self.replies.borrow_mut().push(c.body);
            self.kick(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, tag: u64) {
        if let TimerOutcome::Expired { .. } = self.rpc.on_timer(ctx, tag) {
            self.replies.borrow_mut().push(volume_down());
            self.kick(ctx);
        }
    }

    fn on_system(&mut self, ctx: &mut Ctx<'_>, ev: SystemEvent) {
        self.rpc.on_system(ctx, ev);
    }

    fn kind(&self) -> &'static str {
        "script-client"
    }
}

/// Spawn a [`ScriptClient`] and return the shared reply vector.
pub fn run_script(
    world: &mut World,
    node: NodeId,
    cpu: u8,
    target: Target,
    script: Vec<DiscRequest>,
) -> Replies {
    let replies: Replies = Rc::new(RefCell::new(Vec::new()));
    world.spawn(
        node,
        cpu,
        Box::new(ScriptClient::new(target, script, replies.clone())),
    );
    replies
}

#[cfg(test)]
mod tests {
    // Exercised end-to-end by the crate's integration tests
    // (`tests/discprocess_e2e.rs`); nothing to unit-test in isolation.
}
