//! Workload generators: a debit-credit / order-entry style bank
//! application (the canonical online-transaction-processing load of the
//! era, and the shape of workload the paper's Figure 2 configuration
//! serves).
//!
//! * [`BankServer`] — the server class: `debit` (read-lock the account,
//!   update its balance, append a history record naming the debit's
//!   [`DebitTag`]), `query` (browse read).
//! * [`BankProgram`] — the screen program: a loop of
//!   `BEGIN-TRANSACTION` → `SEND debit` → `END-TRANSACTION` with think
//!   time, over a configurable account population with an optional hot
//!   set (for lock-contention experiments).
//! * [`preload_accounts`] — bulk-load the account file straight onto the
//!   volume media (experiment setup, bypassing TMF on purpose).
//! * [`history_records`] and [`total_balance`] — read the history file
//!   and the balances back, for the conservation check
//!   `initial_total - Σ history amounts == final_total`.

use crate::messages::{AppReply, AppRequest};
use crate::screen::{ScreenAction, ScreenInput, ScreenProgram};
use crate::server::{DbOp, ServerLogic, ServerStep};
use bytes::Bytes;
use encompass_sim::{Name, NodeId, SimDuration, World};
use encompass_storage::discprocess::{DiscError, DiscReply};
use encompass_storage::media::{media_key, VolumeMedia};
use encompass_storage::Catalog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;

/// The bank's server class: the class [`crate::app::launch_bank_app`]
/// registers on every node and the one [`BankProgram`] SENDs to.
pub const BANK_CLASS: &str = "bank";

/// `args` written as a [`Bytes`] through a stack buffer: text of up to
/// [`Bytes::INLINE_CAP`] bytes is held inline and costs no heap block;
/// longer text falls back to one `String`.
pub(crate) fn format_bytes(args: std::fmt::Arguments<'_>) -> Bytes {
    let mut buf = [0u8; Bytes::INLINE_CAP];
    let mut w = &mut buf[..];
    match w.write_fmt(args) {
        Ok(()) => {
            let len = Bytes::INLINE_CAP - w.len();
            Bytes::copy_from_slice(&buf[..len])
        }
        Err(_) => Bytes::from(std::fmt::format(args)),
    }
}

/// Account key formatting shared by generator and server.
pub fn account_key(i: u64) -> Bytes {
    format_bytes(format_args!("acct{i:08}"))
}

pub(crate) fn balance_of(v: &Bytes) -> i64 {
    std::str::from_utf8(v)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Balance formatting shared by generator and server: decimal text.
pub fn balance_bytes(b: i64) -> Bytes {
    format_bytes(format_args!("{b}"))
}

/// Where a debit comes from: logical transaction `n` of terminal
/// `terminal` on `node`, numbered by the terminal's commits before it.
/// The bank server writes it into the debit's history record, so a re-run
/// of a committed transaction shows as a second record of the same tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DebitTag {
    pub node: NodeId,
    pub terminal: u8,
    pub n: u64,
}

impl DebitTag {
    /// Bytes of an encoded tag: `nn.tt.nnnnnnnnnnnnnnnn`, each field in
    /// fixed-width hex.
    const LEN: usize = 22;

    /// The tag as a SEND parameter, held inline: no allocation.
    pub fn encode(&self) -> Bytes {
        format_bytes(format_args!(
            "{:02x}.{:02x}.{:016x}",
            self.node.0, self.terminal, self.n
        ))
    }

    /// The tag [`Self::encode`] wrote, if `b` is one.
    pub fn decode(b: &[u8]) -> Option<DebitTag> {
        if b.len() != Self::LEN {
            return None;
        }
        let mut fields = std::str::from_utf8(b).ok()?.split('.');
        let mut field = || fields.next().and_then(|f| u64::from_str_radix(f, 16).ok());
        Some(DebitTag {
            node: NodeId(u8::try_from(field()?).ok()?),
            terminal: u8::try_from(field()?).ok()?,
            n: field()?,
        })
    }
}

// an encoded tag is exactly as long as a `Bytes` holds inline
const _: () = assert!(DebitTag::LEN == Bytes::INLINE_CAP);

// ----------------------------------------------------------------------
// Server side
// ----------------------------------------------------------------------

/// The bank server class. Context-free; a fresh instance handles each
/// request.
#[derive(Default)]
pub struct BankServer {
    step: u32,
    account: Bytes,
    amount: i64,
    /// The request's [`DebitTag`], as sent (empty if it carried none).
    tag: Bytes,
    history_file: Option<Name>,
}

impl BankServer {
    /// `history_file`: if set, every debit appends an audit-style history
    /// record (entry-sequenced), `account:tag:amount`.
    pub fn new(history_file: Option<Name>) -> BankServer {
        BankServer {
            history_file,
            ..BankServer::default()
        }
    }
}

impl ServerLogic for BankServer {
    fn on_request(&mut self, req: &AppRequest) -> ServerStep {
        match req.op.as_str() {
            "debit" => {
                self.account = req.param(0);
                self.amount = balance_of(&req.param(1));
                self.tag = req.param(2);
                self.step = 1;
                ServerStep::Db(DbOp::ReadLock {
                    file: "accounts".into(),
                    key: self.account.clone(),
                })
            }
            "query" => {
                self.step = 100;
                ServerStep::Db(DbOp::Read {
                    file: "accounts".into(),
                    key: req.param(0),
                })
            }
            _ => ServerStep::Reply(AppReply::error()),
        }
    }

    fn on_db(&mut self, db: &DiscReply) -> ServerStep {
        match (self.step, db) {
            // debit: got the locked balance → update it
            (1, DiscReply::Value(Some(v))) => {
                let new_balance = balance_of(v) - self.amount;
                self.step = 2;
                ServerStep::Db(DbOp::Update {
                    file: "accounts".into(),
                    key: self.account.clone(),
                    value: balance_bytes(new_balance),
                })
            }
            (1, DiscReply::Value(None)) => ServerStep::Reply(AppReply::error()),
            // deadlock timeout: ask the requester to RESTART-TRANSACTION
            (_, DiscReply::Err(DiscError::LockTimeout)) => ServerStep::Reply(AppReply::restart()),
            // the snapshot fence aged out of the volume's before-image
            // ring: restart pins a fresh fence
            (_, DiscReply::Err(DiscError::SnapshotTooOld)) => {
                ServerStep::Reply(AppReply::restart())
            }
            // debit: balance updated → optional history append
            (2, DiscReply::Ok) => match &self.history_file {
                Some(h) => {
                    self.step = 3;
                    // sized for the widest amount: one allocation
                    let mut rec = Vec::with_capacity(self.account.len() + self.tag.len() + 22);
                    rec.extend_from_slice(&self.account);
                    rec.push(b':');
                    rec.extend_from_slice(&self.tag);
                    rec.push(b':');
                    write!(rec, "{}", self.amount).expect("a Vec takes any write");
                    ServerStep::Db(DbOp::InsertEntry {
                        file: h.clone(),
                        value: Bytes::from(rec),
                    })
                }
                None => ServerStep::Reply(AppReply::ok(vec![])),
            },
            (3, DiscReply::EntryNumber(_)) => ServerStep::Reply(AppReply::ok(vec![])),
            // query
            (100, DiscReply::Value(v)) => {
                ServerStep::Reply(AppReply::ok(v.iter().cloned().collect()))
            }
            _ => ServerStep::Reply(AppReply::error()),
        }
    }
}

// ----------------------------------------------------------------------
// Terminal side
// ----------------------------------------------------------------------

/// Workload knobs for one terminal.
#[derive(Clone, Debug)]
pub struct BankWorkload {
    /// Accounts in the file.
    pub accounts: u64,
    /// Probability of touching the hot set.
    pub hot_fraction: f64,
    /// Size of the hot set (first keys).
    pub hot_set: u64,
    /// Transactions to run (`u64::MAX` ≈ run forever).
    pub transactions: u64,
    /// Operator think time between transactions.
    pub think: SimDuration,
    /// Run read-only query transactions (BEGIN read-only → SEND `query` →
    /// END) instead of debits. Readers commit without forcing any trail.
    pub read_only: bool,
}

impl Default for BankWorkload {
    fn default() -> Self {
        BankWorkload {
            accounts: 1000,
            hot_fraction: 0.0,
            hot_set: 10,
            transactions: 100,
            think: SimDuration::from_millis(10),
            read_only: false,
        }
    }
}

/// The screen program: think → BEGIN → SEND debit → END → repeat.
pub struct BankProgram {
    cfg: BankWorkload,
    /// Where the program runs: its debits' [`DebitTag`] node and terminal.
    node: NodeId,
    terminal: u8,
    rng: StdRng,
    done: u64,
    /// The input data of the current logical transaction (checkpoint-
    /// equivalent: a restart reuses it rather than re-entering screens).
    current: Option<(u64, i64)>,
    phase: u8, // 0 = think/begin, 1 = sent, 2 = ending
}

impl BankProgram {
    /// The program of terminal `terminal` of `node`'s TCP.
    pub fn new(cfg: BankWorkload, seed: u64, node: NodeId, terminal: u8) -> BankProgram {
        BankProgram {
            cfg,
            node,
            terminal,
            rng: StdRng::seed_from_u64(seed),
            done: 0,
            current: None,
            phase: 0,
        }
    }

    fn pick_account(&mut self) -> u64 {
        if self.cfg.hot_fraction > 0.0 && self.rng.random::<f64>() < self.cfg.hot_fraction {
            self.rng.random_range(0..self.cfg.hot_set.max(1))
        } else {
            self.rng.random_range(0..self.cfg.accounts.max(1))
        }
    }
}

impl ScreenProgram for BankProgram {
    fn next(&mut self, input: ScreenInput<'_>) -> ScreenAction {
        match input {
            ScreenInput::Go => {
                if self.done >= self.cfg.transactions {
                    return ScreenAction::Finished;
                }
                if self.current.is_none() {
                    let acct = self.pick_account();
                    let amount = self.rng.random_range(1..100);
                    self.current = Some((acct, amount));
                }
                self.phase = 0;
                if self.cfg.read_only {
                    ScreenAction::begin_read_only()
                } else {
                    ScreenAction::begin()
                }
            }
            ScreenInput::Began => {
                let (acct, amount) = self.current.expect("input data present");
                self.phase = 1;
                let request = if self.cfg.read_only {
                    AppRequest::new("query", [account_key(acct)])
                } else {
                    let tag = DebitTag {
                        node: self.node,
                        terminal: self.terminal,
                        n: self.done,
                    };
                    let params = [account_key(acct), balance_bytes(amount), tag.encode()];
                    AppRequest::new("debit", params)
                };
                // the bank server class on the terminal's own node
                ScreenAction::Send {
                    node: None,
                    class: BANK_CLASS.into(),
                    request,
                }
            }
            ScreenInput::Reply(r) => {
                if r.restart {
                    return ScreenAction::Restart;
                }
                if !r.ok {
                    return ScreenAction::Abort;
                }
                self.phase = 2;
                ScreenAction::End
            }
            ScreenInput::Committed => {
                self.done += 1;
                self.current = None;
                self.phase = 0;
                ScreenAction::Think(self.cfg.think)
            }
            ScreenInput::Aborted | ScreenInput::SendFailed => {
                // past the restart limit (or voluntary): drop this
                // transaction's input and move on
                self.current = None;
                self.phase = 0;
                ScreenAction::Think(self.cfg.think)
            }
        }
    }

    fn restart(&mut self) {
        // keep `current`: the checkpointed screen input is reused
        self.phase = 0;
    }

    fn set_progress(&mut self, committed: u64) {
        // resume after a TCP takeover: completed transactions stay done
        self.done = self.done.max(committed);
    }
}

// ----------------------------------------------------------------------
// Setup helpers
// ----------------------------------------------------------------------

/// Bulk-load `count` account records (balance `init`) directly onto the
/// media of the volumes holding `file`. Setup-only: bypasses TMF.
pub fn preload_accounts(world: &mut World, catalog: &Catalog, file: &str, count: u64, init: i64) {
    let def = catalog.get(file).expect("file in catalog").clone();
    // each partition's media key, named once and not per record
    let media_ids: Vec<_> = (def.partitions.iter())
        .map(|p| media_key(p.volume.node, &p.volume.volume))
        .collect();
    for i in 0..count {
        let key = account_key(i);
        let vol = def.volume_for(&key);
        let at = (def.partitions.iter())
            .position(|p| &p.volume == vol)
            .expect("a key's volume is one of its file's partitions");
        let media = (world.stable_mut())
            .get_or_create::<VolumeMedia, _>(&media_ids[at], || VolumeMedia::new(&vol.volume));
        media
            .ensure_file(file, def.organization)
            .apply(&key, Some(balance_bytes(init)));
    }
}

/// A history record's debit tag and amount, read from the
/// `account:tag:amount` that [`BankServer`] writes.
fn parse_history(v: &[u8]) -> Option<(DebitTag, i64)> {
    let mut fields = std::str::from_utf8(v).ok()?.rsplitn(3, ':');
    let amount = fields.next()?.parse().ok()?;
    let tag = DebitTag::decode(fields.next()?.as_bytes())?;
    Some((tag, amount))
}

/// Every record of the entry-sequenced history `file` on its volume's
/// media, in entry order and parsed; a record that does not parse comes
/// back as its bytes. Records still in the DISCPROCESS's
/// write-behind overlay are not on the media yet: read after a flush.
pub fn history_records(
    world: &World,
    catalog: &Catalog,
    file: &str,
) -> Vec<Result<(DebitTag, i64), Bytes>> {
    let vol = &catalog.get(file).expect("file in catalog").partitions[0].volume;
    let media = world
        .stable()
        .get::<VolumeMedia>(&media_key(vol.node, &vol.volume));
    let Some(img) = media.and_then(|m| m.file(file)) else {
        return Vec::new();
    };
    (img.records())
        .map(|(_, v)| parse_history(v).ok_or_else(|| v.clone()))
        .collect()
}

/// Sum every account balance across partitions (consistency assertions in
/// tests: debits move money, the workload's invariant is
/// `initial_total - committed_debits == final_total`, the committed
/// debits being the amounts of the [`history_records`]).
pub fn total_balance(world: &mut World, catalog: &Catalog, file: &str) -> i64 {
    let partitions = &catalog.get(file).expect("file in catalog").partitions;
    let mut total = 0;
    for (i, p) in partitions.iter().enumerate() {
        // partitions may share a volume: read each volume once
        if partitions[..i].iter().any(|q| q.volume == p.volume) {
            continue;
        }
        let media_id = media_key(p.volume.node, &p.volume.volume);
        if let Some(img) = (world.stable().get::<VolumeMedia>(&media_id)).and_then(|m| m.file(file))
        {
            total += img.records().map(|(_, v)| balance_of(v)).sum::<i64>();
        }
    }
    total
}

#[cfg(test)]
#[allow(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants,
    reason = "a test names the one variant it expects; any other is the failure it reports"
)]
mod tests {
    use super::*;

    #[test]
    fn balances_parse_and_format() {
        assert_eq!(balance_of(&balance_bytes(-42)), -42);
        assert_eq!(balance_of(&Bytes::from_static(b"junk")), 0);
        assert_eq!(account_key(7), Bytes::from_static(b"acct00000007"));
    }

    #[test]
    fn program_emits_canonical_sequence() {
        let mut p = BankProgram::new(
            BankWorkload {
                transactions: 1,
                ..BankWorkload::default()
            },
            7,
            NodeId(0),
            0,
        );
        assert!(matches!(
            p.next(ScreenInput::Go),
            ScreenAction::Begin { .. }
        ));
        let send = p.next(ScreenInput::Began);
        match &send {
            ScreenAction::Send { class, request, .. } => {
                assert_eq!(class, "bank");
                assert_eq!(request.op, "debit");
            }
            other => panic!("expected send, got {other:?}"),
        }
        let ok = AppReply::ok(vec![]);
        assert!(matches!(p.next(ScreenInput::Reply(&ok)), ScreenAction::End));
        assert!(matches!(
            p.next(ScreenInput::Committed),
            ScreenAction::Think(_)
        ));
        assert!(matches!(p.next(ScreenInput::Go), ScreenAction::Finished));
    }

    #[test]
    fn restart_reuses_input_data() {
        let mut p = BankProgram::new(BankWorkload::default(), 3, NodeId(0), 0);
        let _ = p.next(ScreenInput::Go);
        let first = match p.next(ScreenInput::Began) {
            ScreenAction::Send { request, .. } => request,
            other => panic!("{other:?}"),
        };
        p.restart();
        let _ = p.next(ScreenInput::Go); // Begin again
        let second = match p.next(ScreenInput::Began) {
            ScreenAction::Send { request, .. } => request,
            other => panic!("{other:?}"),
        };
        assert_eq!(first, second, "same account and amount after restart");
    }

    #[test]
    fn restart_reply_maps_to_restart_action() {
        let mut p = BankProgram::new(BankWorkload::default(), 3, NodeId(0), 0);
        let _ = p.next(ScreenInput::Go);
        let _ = p.next(ScreenInput::Began);
        let r = AppReply::restart();
        assert!(matches!(
            p.next(ScreenInput::Reply(&r)),
            ScreenAction::Restart
        ));
    }

    #[test]
    fn server_logic_debit_sequence() {
        let mut s = BankServer::new(Some("history".into()));
        let req = AppRequest::new("debit", vec![account_key(1), balance_bytes(10)]);
        let step = s.on_request(&req);
        assert!(matches!(step, ServerStep::Db(DbOp::ReadLock { .. })));
        let step = s.on_db(&DiscReply::Value(Some(balance_bytes(100))));
        match step {
            ServerStep::Db(DbOp::Update { value, .. }) => {
                assert_eq!(balance_of(&value), 90);
            }
            _ => panic!("expected update"),
        }
        let step = s.on_db(&DiscReply::Ok);
        assert!(matches!(step, ServerStep::Db(DbOp::InsertEntry { .. })));
        let step = s.on_db(&DiscReply::EntryNumber(0));
        match step {
            ServerStep::Reply(r) => assert!(r.ok),
            _ => panic!("expected reply"),
        }
    }

    #[test]
    fn a_debit_tag_numbers_the_terminals_commits_and_lands_in_the_history_record() {
        let tag = DebitTag {
            node: NodeId(3),
            terminal: 31,
            n: 1 << 40,
        };
        assert_eq!(DebitTag::decode(&tag.encode()), Some(tag));
        assert_eq!(DebitTag::decode(b"acct00000001"), None);

        let mut p = BankProgram::new(BankWorkload::default(), 7, NodeId(2), 5);
        let mut sent_tag = || {
            let _ = p.next(ScreenInput::Go);
            let ScreenAction::Send { request, .. } = p.next(ScreenInput::Began) else {
                panic!("a debit follows BEGIN");
            };
            let _ = p.next(ScreenInput::Reply(&AppReply::ok(vec![])));
            let _ = p.next(ScreenInput::Committed);
            request.param(2)
        };
        let first = sent_tag();
        let second = sent_tag();
        let at = |n| DebitTag {
            node: NodeId(2),
            terminal: 5,
            n,
        };
        assert_eq!(DebitTag::decode(&first), Some(at(0)));
        assert_eq!(DebitTag::decode(&second), Some(at(1)));

        let mut s = BankServer::new(Some("history".into()));
        let req = AppRequest::new(
            "debit",
            vec![account_key(1), balance_bytes(-7), second.clone()],
        );
        let _ = s.on_request(&req);
        let _ = s.on_db(&DiscReply::Value(Some(balance_bytes(100))));
        let ServerStep::Db(DbOp::InsertEntry { value, .. }) = s.on_db(&DiscReply::Ok) else {
            panic!("a debit appends its history record");
        };
        let mut want = b"acct00000001:".to_vec();
        want.extend_from_slice(&second);
        want.extend_from_slice(b":-7");
        assert_eq!(&value[..], &want[..]);
    }

    #[test]
    fn server_logic_maps_lock_timeout_to_restart() {
        let mut s = BankServer::new(None);
        let req = AppRequest::new("debit", vec![account_key(1), balance_bytes(10)]);
        let _ = s.on_request(&req);
        let step = s.on_db(&DiscReply::Err(DiscError::LockTimeout));
        match step {
            ServerStep::Reply(r) => assert!(r.restart),
            _ => panic!("expected restart reply"),
        }
    }
}
