//! Test utilities shared by this crate's integration tests and by the
//! higher layers (`encompass-audit`, `tmf`, `encompass`): a scripted
//! DISCPROCESS client process and reply collectors.

use crate::discprocess::{DiscReply, DiscRequest};
use encompass_sim::{Ctx, NodeId, Payload, Pid, Process, SimDuration, TimerId, World};
use guardian::{Rpc, Target, TimerOutcome};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared handle the driver reads results from after the run.
pub type Replies = Rc<RefCell<Vec<DiscReply>>>;

/// A process that issues a fixed sequence of requests, one at a time, with
/// retries, recording every final reply.
pub struct ScriptClient {
    target: Target,
    script: Vec<DiscRequest>,
    replies: Replies,
    rpc: Rpc<DiscRequest, DiscReply>,
    next: usize,
    /// Per-call retry timeout.
    pub attempt_timeout: SimDuration,
    /// Retries per call before recording a synthetic `VolumeDown` error.
    pub retries: u32,
}

impl ScriptClient {
    pub fn new(target: Target, script: Vec<DiscRequest>, replies: Replies) -> ScriptClient {
        ScriptClient {
            target,
            script,
            replies,
            rpc: Rpc::new(9),
            next: 0,
            attempt_timeout: SimDuration::from_millis(100),
            retries: 20,
        }
    }

    fn kick(&mut self, ctx: &mut Ctx<'_>) {
        if self.next >= self.script.len() {
            return;
        }
        let op = self.script[self.next].clone();
        self.next += 1;
        if self
            .rpc
            .call(
                ctx,
                self.target.clone(),
                op.clone(),
                self.attempt_timeout,
                self.retries,
                (),
            )
            .is_err()
        {
            // service name unresolvable (takeover window): keep trying
            self.rpc
                .call_persistent(ctx, self.target.clone(), op, self.attempt_timeout, ());
        }
    }
}

impl Process for ScriptClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
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
            self.replies
                .borrow_mut()
                .push(DiscReply::Err(crate::discprocess::DiscError::VolumeDown));
            self.kick(ctx);
        }
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
