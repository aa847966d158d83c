//! Online dumps of the volume: what a copy sees, the audit watermark it
//! is consistent with, and the trail it still needs.

use super::*;

impl DiscProcess {
    /// Begin an online dump: see [`DiscRequest::DumpBegin`].
    pub(super) fn dump_begin(&mut self, ctx: &mut PairCtx<'_, '_>, owed: Owed, generation: u64) {
        // watermark: every assigned sequence's write is applied (§D1), so
        // every later page copy reflects it
        let watermark = self.audit_seq;
        let purge_floor = self.purge_floor(watermark);
        // copy set: every file on media or with overlay-resident
        // writes (BTreeSet ⇒ deterministic order)
        let files: Vec<(Name, FileOrganization)> = self
            .with_media(ctx, |m| m.files.keys().cloned().collect::<Vec<_>>())
            .into_iter()
            .chain(self.overlay.iter().map(|(f, _, _)| f.clone()))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .map(|f| {
                let org = self.org_of(&f);
                (f, org)
            })
            .collect();
        ctx.count(counter!("disc.dump_begins"), 1);
        self.dump_flight(ctx, generation, FlightCause::DumpBegin { generation });
        let begun = DiscReply::DumpBegun {
            watermark,
            purge_floor,
            files,
        };
        self.append_dump_marker(ctx, owed, generation, false, begun);
    }

    /// Copy one page of an online dump: see [`DiscRequest::DumpScan`].
    pub(super) fn dump_scan(
        &mut self,
        ctx: &mut PairCtx<'_, '_>,
        owed: Owed,
        generation: u64,
        file: &str,
        resume: Option<&Bytes>,
        limit: usize,
    ) {
        let limit = limit.clamp(1, self.cfg.dump_page_size.max(1));
        let low = resume.cloned().unwrap_or_default();
        // fetch one extra so `done` distinguishes a full last page
        // — plus one more on resumed pages, since the scan's low
        // bound is inclusive and the resume key (if still present)
        // burns a slot the filter below then discards
        let fetch = limit + 1 + usize::from(resume.is_some());
        let mut page: Vec<(Bytes, Bytes)> = self
            .scan_merged(ctx, file, &low, None, fetch)
            .into_iter()
            .filter(|(k, _)| match resume {
                Some(r) => k.as_ref() > r.as_ref(),
                None => true,
            })
            .collect();
        let done = page.len() <= limit;
        page.truncate(limit);
        ctx.count(counter!("disc.dump_pages"), 1);
        ctx.count(counter!("disc.archive_read"), 1);
        let records = page.len() as u32;
        self.dump_flight(ctx, generation, FlightCause::DumpScan { records });
        // each page costs one disc access
        let reply = DiscReply::DumpPage {
            entries: page,
            done,
        };
        self.park_on_disc(ctx, Parked::Reply { owed, reply });
    }

    /// End an online dump: see [`DiscRequest::DumpEnd`].
    pub(super) fn dump_end(&mut self, ctx: &mut PairCtx<'_, '_>, owed: Owed, generation: u64) {
        ctx.count(counter!("disc.dump_ends"), 1);
        self.dump_flight(ctx, generation, FlightCause::DumpEnd { generation });
        self.append_dump_marker(ctx, owed, generation, true, DiscReply::Ok);
    }

    /// Lowest trail sequence a recovery could still need: the first image
    /// of the oldest transaction still holding locks, clamped to
    /// `watermark + 1` when none has written.
    pub(super) fn purge_floor(&self, watermark: u64) -> u64 {
        self.txns
            .values()
            .filter_map(|t| t.low_seq)
            .min()
            .unwrap_or(watermark + 1)
            .min(watermark + 1)
    }

    /// Record an online dump's step on the flight recorder.
    fn dump_flight(&self, ctx: &mut PairCtx<'_, '_>, generation: u64, cause: FlightCause) {
        let dump = Transid::dump_marker(self.volume.node, generation);
        ctx.flight(dump.flight_id(), cause);
    }

    /// Append a DumpBegin/DumpEnd marker to the volume's audit trail and
    /// park the reply until the audit process acknowledges it. The
    /// DumpEnd marker is *forced*, so its ack additionally means every
    /// image buffered before it — anything the page copies may have
    /// caught mid-flight — is durable on the trail before the dump is
    /// registered complete. Unaudited volumes have no trail: reply
    /// immediately.
    fn append_dump_marker(
        &mut self,
        ctx: &mut PairCtx<'_, '_>,
        owed: Owed,
        generation: u64,
        end: bool,
        done: DiscReply,
    ) {
        if !self.cfg.audited {
            self.finish_simple(ctx, owed, done);
            return;
        }
        self.audit_seq += 1;
        let marker = ImageRecord::dump_marker(self.audit_seq, self.volume.clone(), generation, end);
        // replicate the sequence bump so a takeover never reuses it
        self.checkpoint_applied(ctx, None, Effects::default());
        let seq = self.audit_seq;
        let then = AuditThen::DumpMarker { owed, done, seq };
        self.call_audit_append(ctx, [marker].into_iter().collect(), end, then);
    }
}
