//! Application-level request/reply messages exchanged between Screen
//! programs (via the TCP) and application servers.
//!
//! The File System appends the terminal's current transid to every SEND
//! while the terminal is in transaction mode; [`ServerRequest`] models the
//! transid-carrying envelope.

use bytes::Bytes;
use encompass_sim::{Members, Name};
use encompass_storage::types::Transid;
use tmf::session::SessionOptions;

/// A request from a screen program to a server class.
#[derive(Clone, Debug, PartialEq)]
pub struct AppRequest {
    /// Operation name, interpreted by the server class (e.g. `"debit"`).
    pub op: Name,
    /// Positional parameters (encoding is the application's business),
    /// in one block the TCP's retained copy shares (DESIGN.md §D19(f)).
    pub params: Members<Bytes>,
}

impl AppRequest {
    /// The parameters take one block when their count is known up front
    /// (an array).
    pub fn new(op: impl Into<Name>, params: impl IntoIterator<Item = Bytes>) -> AppRequest {
        AppRequest {
            op: op.into(),
            params: params.into_iter().collect(),
        }
    }

    pub fn param(&self, i: usize) -> Bytes {
        self.params.get(i).cloned().unwrap_or_default()
    }
}

/// A server's reply.
#[derive(Clone, Debug, PartialEq)]
pub struct AppReply {
    pub ok: bool,
    /// If set, the screen program should RESTART-TRANSACTION (transient
    /// problem, e.g. a lock timeout signalling deadlock).
    pub restart: bool,
    pub data: Vec<Bytes>,
}

impl AppReply {
    pub fn ok(data: Vec<Bytes>) -> AppReply {
        AppReply {
            ok: true,
            restart: false,
            data,
        }
    }

    pub fn error() -> AppReply {
        AppReply {
            ok: false,
            restart: false,
            data: Vec::new(),
        }
    }

    pub fn restart() -> AppReply {
        AppReply {
            ok: false,
            restart: true,
            data: Vec::new(),
        }
    }
}

/// The wire envelope: the File System attaches the current transid and
/// the transaction's declared [`SessionOptions`], so the server's reads
/// run in the requester's mode (exclusive, shared, or snapshot).
#[derive(Clone, Debug)]
pub struct ServerRequest {
    pub transid: Option<Transid>,
    pub options: SessionOptions,
    pub request: AppRequest,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_params() {
        let r = AppRequest::new("debit", vec![Bytes::from_static(b"acct1")]);
        assert_eq!(r.param(0), Bytes::from_static(b"acct1"));
        assert_eq!(r.param(5), Bytes::new(), "missing params read as empty");
    }

    #[test]
    fn reply_constructors() {
        assert!(AppReply::ok(vec![]).ok);
        assert!(!AppReply::error().ok);
        let r = AppReply::restart();
        assert!(!r.ok);
        assert!(r.restart);
    }
}
