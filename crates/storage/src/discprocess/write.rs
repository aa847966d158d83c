//! The write pipeline: how an insert, update, delete or entry append
//! checks its lock, becomes one before/after image and one overlay write,
//! and completes after its checkpoint — answered at once, or in
//! WAL mode once its images are forced.

use super::*;

impl DiscProcess {
    pub(super) fn write_path(
        &mut self,
        ctx: &mut PairCtx<'_, '_>,
        mut owed: Owed,
        file: Name,
        op: DiscRequest,
    ) {
        let def = self.def(&file).expect("validated");
        let (audited, organization) = (def.audited, def.organization);
        let transid = op.fenced_transid();
        if audited && transid.is_none() {
            self.finish_simple(ctx, owed, DiscReply::Err(DiscError::NeedTransid));
            return;
        }

        let record = |key: &Bytes| LockScope {
            file: file.clone(),
            key: key.clone(),
        };
        // an insert waits for its record's lock (TMF locks new records)
        if let (DiscRequest::Insert { key, lock_wait, .. }, Some(t)) = (&op, transid) {
            let lock = (t, record(key));
            owed = match self.park_unless_locked(ctx, owed, &op, &lock, *lock_wait) {
                Some(owed) => owed,
                None => return,
            };
        }

        // resolve the concrete write
        #[allow(
            clippy::wildcard_enum_match_arm,
            reason = "non-write ops are rejected upstream in execute()"
        )]
        let resolved = match &op {
            DiscRequest::Insert { key, value, .. } => match self.logical_read(ctx, &file, key) {
                Some(_) => Err(DiscError::DuplicateKey),
                None => {
                    let lock = transid.map(|t| (t, record(key)));
                    Ok((key.clone(), Some(value.clone()), lock, None, DiscReply::Ok))
                }
            },
            DiscRequest::Update { key, value, .. } => (self.find_locked(ctx, transid, &file, key))
                .map(|()| (key.clone(), Some(value.clone()), None, None, DiscReply::Ok)),
            DiscRequest::Delete { key, .. } => (self.find_locked(ctx, transid, &file, key))
                .map(|()| (key.clone(), None, None, None, DiscReply::Ok)),
            DiscRequest::InsertEntry { value, .. } => {
                let n = self.next_entry_number(ctx, &file);
                let key = num_key(n);
                let lock = transid.map(|t| {
                    // a fresh entry number can never conflict
                    let granted = self.locks.acquire(t, record(&key), 0);
                    debug_assert_eq!(granted, Acquire::Granted);
                    (t, record(&key))
                });
                let counter = Some((file.clone(), n + 1));
                Ok((
                    key,
                    Some(value.clone()),
                    lock,
                    counter,
                    DiscReply::EntryNumber(n),
                ))
            }
            _ => unreachable!("write_path only receives write ops"),
        };
        let (key, after, lock_for_backup, entry_counter, ok_reply) = match resolved {
            Ok(write) => write,
            Err(e) => {
                self.finish_simple(ctx, owed, DiscReply::Err(e));
                return;
            }
        };

        // one write, and for an audited file one image of it
        let before = self.logical_read(ctx, &file, &key);
        let images: Members<ImageRecord> = match transid.filter(|_| audited) {
            Some(t) => {
                self.audit_seq += 1;
                [ImageRecord {
                    seq: self.audit_seq,
                    transid: t,
                    volume: self.volume.clone(),
                    file: file.clone(),
                    organization,
                    key: key.clone(),
                    before,
                    after: after.clone(),
                }]
                .into_iter()
                .collect()
            }
            None => Members::default(),
        };
        let txn = transid.map(|t| {
            let txn = self.txns.entry(t).or_default();
            txn.images += images.len() as u64;
            // the transaction's lowest image sequence on this volume pins
            // the ONLINEDUMP purge floor for as long as its locks are held
            if let Some(first) = images.first() {
                txn.low_seq.get_or_insert(first.seq);
            }
            TxnDelta {
                transid: t,
                images: txn.images,
                low_seq: txn.low_seq,
                retained: Members::default(),
            }
        });
        let mut fx = Effects {
            writes: vec![(file, key, after)],
            lock: lock_for_backup,
            entry_counter,
            txn,
        };
        ctx.count(counter!("disc.images"), images.len() as u64);

        // checkpoint ≡ WAL (§D1): retain the images, send them to the
        // audit trail, checkpoint, apply — in this one event, whatever the
        // recovery mode. Only the answer may wait, for a forced append.
        // The three are one list, shared, not copied (§D19(f)).
        let asked = owed.asked();
        let mut answer = Some((owed, ok_reply.clone()));
        if let Some(txn) = fx.txn.as_mut().filter(|_| !images.is_empty()) {
            answer = self.send_audit_append(ctx, txn.transid, images.clone(), answer);
            txn.retained = images;
        }
        self.apply(ctx, asked, ok_reply, fx);
        if let Some((owed, reply)) = answer {
            self.replies.answer(ctx, owed, reply);
        }
    }

    /// An update or delete needs its transaction to hold the record's
    /// lock, and the record to exist.
    fn find_locked(
        &self,
        ctx: &mut PairCtx<'_, '_>,
        transid: Option<Transid>,
        file: &Name,
        key: &Bytes,
    ) -> Result<(), DiscError> {
        if let Some(t) = transid {
            let record = LockScope {
                file: file.clone(),
                key: key.clone(),
            };
            if !self.locks.holds(t, &record) {
                return Err(DiscError::LockRequired);
            }
        }
        match self.logical_read(ctx, file, key) {
            Some(_) => Ok(()),
            None => Err(DiscError::NotFound),
        }
    }

    fn next_entry_number(&mut self, ctx: &mut PairCtx<'_, '_>, file: &Name) -> u64 {
        if let Some(n) = self.entry_counters.get(&**file) {
            return *n;
        }
        let from_media =
            self.with_media(ctx, |m| m.file(file).map(|f| f.next_entry()).unwrap_or(0));
        self.entry_counters.insert(file.clone(), from_media);
        from_media
    }
}
