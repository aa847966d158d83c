//! The BACKOUTPROCESS: a process-pair that reverses a transaction's
//! data-base updates "using the transaction's before-images recorded in
//! the audit trails".
//!
//! Backout is strictly node-local: the images for records on this node are
//! in this node's trails, so no network communication is needed — exactly
//! the property the paper's distributed audit-trail placement buys.
//!
//! The process is deliberately stateless across failures: its jobs are
//! reconstructible, so they die with a failed primary, and the requesting
//! TMP resends its safe-delivery Backout request to the new one when the
//! failure notice arrives.

use encompass_sim::{counter, CpuId, DetHashMap, Name, NodeId, Payload, Pid, SystemEvent, World};
use encompass_storage::audit_api::{AuditMsg, AuditReply, AUDIT_SERVICE};
use encompass_storage::discprocess::{DiscReply, DiscRequest};
use encompass_storage::types::{Transid, VolumeRef};
use guardian::{Admitted, Checkpointed, Owed, PairApp, PairHandle, Rpc, Served, Target};
use std::convert::Infallible;

type PairCtx<'a, 'b> = guardian::PairCtx<'a, 'b, Infallible>;

/// The service name every node's BACKOUTPROCESS registers.
pub const BACKOUT_SERVICE: Name = Name::from_static("$BACKOUT");

/// Requests to the BACKOUTPROCESS.
#[derive(Clone, Debug)]
pub enum BackoutMsg {
    /// Back out `transid` on the given local volumes, then reply `Done`.
    Backout {
        transid: Transid,
        volumes: Vec<VolumeRef>,
    },
}

/// Reply from the BACKOUTPROCESS.
#[derive(Clone, Debug, PartialEq)]
pub enum BackoutReply {
    Done,
}

struct Job {
    /// The `Backout` request this job answers.
    owed: Owed,
    outstanding: usize,
}

/// What an outstanding call to a DISCPROCESS is for.
enum DiscThen {
    /// The `FlushTxn` barrier (all of the volume's lazy appends
    /// acknowledged), without which the image read that follows could miss
    /// in-flight records and the undo would be partial. Next: read
    /// `transid`'s images from the node's AUDITPROCESS.
    Flushed { transid: Transid, volume: VolumeRef },
    /// The `Undo` of one volume's images: that volume's step is done.
    Undone(Transid),
}

/// The BACKOUTPROCESS application.
pub struct BackoutProcess {
    /// `ReadTxnImages` calls; the continuation is the transaction and the
    /// volume whose images are wanted.
    audit_rpc: Rpc<AuditMsg, AuditReply, (Transid, VolumeRef)>,
    disc_rpc: Rpc<DiscRequest, DiscReply, DiscThen>,
    jobs: DetHashMap<Transid, Job>,
    replies: Served<BackoutReply>,
}

impl Default for BackoutProcess {
    fn default() -> BackoutProcess {
        BackoutProcess {
            audit_rpc: Rpc::local(3),
            disc_rpc: Rpc::local(4),
            jobs: DetHashMap::default(),
            replies: Served::new(),
        }
    }
}

impl BackoutProcess {
    fn job_step_done(&mut self, ctx: &mut PairCtx<'_, '_>, transid: Transid) {
        let Some(job) = self.jobs.get_mut(&transid) else {
            return;
        };
        job.outstanding -= 1;
        if job.outstanding == 0 {
            let job = self.jobs.remove(&transid).expect("present");
            ctx.count(counter!("backout.completed"), 1);
            self.replies.answer(ctx, job.owed, BackoutReply::Done);
        }
    }
}

impl PairApp for BackoutProcess {
    /// Stateless by design: there is nothing to mirror, so no delta can
    /// be built.
    type Delta = Infallible;
    type Snapshot = ();

    fn service_name(&self) -> Name {
        BACKOUT_SERVICE
    }

    fn kind(&self) -> &'static str {
        "backoutprocess"
    }

    fn on_request(&mut self, ctx: &mut PairCtx<'_, '_>, _src: Pid, payload: Payload) {
        // completions of our own sub-requests
        let payload = match self.audit_rpc.accept(ctx, payload) {
            Ok(c) => {
                let (transid, volume) = c.then;
                let AuditReply::Images(images) = c.body else {
                    // protocol mismatch: treat as nothing to undo
                    self.job_step_done(ctx, transid);
                    return;
                };
                let local: Vec<_> = images
                    .into_iter()
                    .filter(|img| img.volume == volume)
                    .collect();
                ctx.count(counter!("backout.images"), local.len() as u64);
                if local.is_empty() {
                    self.job_step_done(ctx, transid);
                    return;
                }
                self.disc_rpc.call_persistent(
                    ctx,
                    Target::new(volume.node, volume.volume.clone()),
                    DiscRequest::Undo { images: local },
                    DiscThen::Undone(transid),
                );
                return;
            }
            Err(p) => p,
        };
        let payload = match self.disc_rpc.accept(ctx, payload) {
            Ok(c) => {
                match c.then {
                    DiscThen::Flushed { transid, volume } => {
                        // the volume's appends have drained: the audit
                        // trail + buffer now hold every image, so read them
                        self.audit_rpc.call_persistent(
                            ctx,
                            Target::new(volume.node, AUDIT_SERVICE),
                            AuditMsg::ReadTxnImages { transid },
                            (transid, volume),
                        );
                    }
                    DiscThen::Undone(transid) => self.job_step_done(ctx, transid),
                }
                return;
            }
            Err(p) => p,
        };
        let Admitted::Fresh(owed, msg) = self.replies.admit(ctx, payload) else {
            return; // answered from memory, or its job is still running
        };
        let BackoutMsg::Backout { transid, volumes } = msg;
        if let Some(job) = self.jobs.get_mut(&transid) {
            // a second request for a transaction already being backed out
            // comes from a TMP that took over and re-drove it: the job
            // answers it instead of the first, whose requester died
            let first = std::mem::replace(&mut job.owed, owed);
            self.replies.forget(first);
            return;
        }
        ctx.count(counter!("backout.requests"), 1);
        if volumes.is_empty() {
            self.replies.answer(ctx, owed, BackoutReply::Done);
            return;
        }
        self.jobs.insert(
            transid,
            Job {
                owed,
                outstanding: volumes.len(),
            },
        );
        for volume in volumes {
            // barrier first: the DISCPROCESS answers once all its lazy
            // appends for the transaction are acknowledged by the audit
            self.disc_rpc.call_persistent(
                ctx,
                Target::new(volume.node, volume.volume.clone()),
                DiscRequest::FlushTxn { transid },
                DiscThen::Flushed { transid, volume },
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut PairCtx<'_, '_>, tag: u64) {
        let _ = self.audit_rpc.on_timer(ctx, tag);
        let _ = self.disc_rpc.on_timer(ctx, tag);
    }

    fn on_system(&mut self, ctx: &mut PairCtx<'_, '_>, ev: SystemEvent) {
        self.audit_rpc.on_system(ctx, ev);
        self.disc_rpc.on_system(ctx, ev);
    }

    fn on_takeover(&mut self, ctx: &mut PairCtx<'_, '_>) {
        // jobs are reconstructible: the dead primary's died with it (this
        // half has never run one), and the TMP's request is safe-delivery,
        // so it is resent to this new primary at the failure notice
        ctx.count(counter!("backout.takeovers"), 1);
    }

    fn apply_checkpoint(&mut self, delta: Infallible, _cp: &Checkpointed) {
        match delta {}
    }

    fn snapshot(&self) {}

    fn restore(&mut self, _snapshot: (), _cp: &Checkpointed) {}

    fn on_cpu_down(&mut self, node: NodeId, cpu: CpuId) {
        self.replies.forget_cpu(node, cpu);
    }
}

/// Spawn a BACKOUTPROCESS pair named [`BACKOUT_SERVICE`] on `node`.
pub fn spawn_backout_process(
    world: &mut World,
    node: encompass_sim::NodeId,
    cpu_primary: u8,
    cpu_backup: u8,
) -> PairHandle {
    guardian::spawn_pair(
        world,
        node,
        cpu_primary,
        cpu_backup,
        BackoutProcess::default,
    )
}
