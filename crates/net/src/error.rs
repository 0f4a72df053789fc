//! Error types for the network layer.
//!
//! Two kinds of failure are kept distinct: [`NetError::Remote`] means
//! the server executed the request and the *operation* failed (an
//! `ode::Error` happened on the other side and was shipped back in an
//! error frame); [`NetError::Io`] / [`NetError::Protocol`] mean the
//! conversation itself broke down.

use std::fmt;
use std::io;

use ode::{Oid, TypeTag, Vid};
use ode_codec::{DecodeError, Persist, Reader, Writer};

/// Result alias for network operations.
pub type Result<T> = std::result::Result<T, NetError>;

/// An error from a client or server network operation.
#[derive(Debug)]
pub enum NetError {
    /// A socket read/write failed (includes timeouts, the peer
    /// closing the connection mid-exchange, and a peer that does not
    /// echo the handshake: `InvalidData`).
    Io(io::Error),
    /// The byte stream violated the wire protocol: oversized or
    /// truncated frame, unknown opcode, undecodable payload, or a
    /// response of the wrong shape for the request.
    Protocol(String),
    /// The server executed the operation and it failed; the remote
    /// error, reconstructed from the error frame.
    Remote(RemoteError),
}

/// A server-side operation failure, mirroring [`ode::Error`] closely
/// enough that clients can match on the failure kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// No object with this id exists on the server.
    UnknownObject(Oid),
    /// No version with this id exists on the server.
    UnknownVersion(Vid),
    /// The stored type tag did not match the one the request carried.
    TypeMismatch {
        /// Tag the request asked for.
        expected: TypeTag,
        /// Tag actually stored.
        found: TypeTag,
    },
    /// Refused to delete the last remaining version of an object.
    LastVersion(Vid),
    /// The server's storage layer failed; carries the rendered message
    /// (storage errors hold non-portable detail such as file paths).
    Storage(String),
    /// The server could not make sense of the request frame.
    BadRequest(String),
    /// The authority for this request is temporarily unreachable. Sent
    /// by a routing tier when the backend shard owning the request's
    /// object is down or still in its reconnect-backoff window; the
    /// operation was **not** executed (or, for requests already
    /// forwarded when the shard died, its outcome is unknown and it was
    /// not retried).
    Unavailable(String),
}

impl RemoteError {
    /// Stable wire code for this error kind.
    pub(crate) fn code(&self) -> u8 {
        match self {
            RemoteError::UnknownObject(_) => 1,
            RemoteError::UnknownVersion(_) => 2,
            RemoteError::TypeMismatch { .. } => 3,
            RemoteError::LastVersion(_) => 4,
            RemoteError::Storage(_) => 5,
            RemoteError::BadRequest(_) => 6,
            RemoteError::Unavailable(_) => 7,
        }
    }
}

/// An error frame is `code a b message` for every kind: the code byte,
/// two varints and a byte string, unused slots zero or empty.
impl Persist for RemoteError {
    fn encode(&self, w: &mut Writer) {
        let (a, b, msg) = match self {
            RemoteError::UnknownObject(oid) => (oid.0, 0, ""),
            RemoteError::UnknownVersion(vid) | RemoteError::LastVersion(vid) => (vid.0, 0, ""),
            RemoteError::TypeMismatch { expected, found } => (expected.0, found.0, ""),
            RemoteError::Storage(msg)
            | RemoteError::BadRequest(msg)
            | RemoteError::Unavailable(msg) => (0, 0, msg.as_str()),
        };
        w.put_u8(self.code());
        w.put_varint(a);
        w.put_varint(b);
        w.put_bytes(msg.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, DecodeError> {
        let code = r.get_u8()?;
        let a = r.get_varint()?;
        let b = r.get_varint()?;
        let msg = String::from_utf8_lossy(r.get_bytes()?).into_owned();
        Ok(match code {
            1 => RemoteError::UnknownObject(Oid(a)),
            2 => RemoteError::UnknownVersion(Vid(a)),
            3 => RemoteError::TypeMismatch {
                expected: TypeTag(a),
                found: TypeTag(b),
            },
            4 => RemoteError::LastVersion(Vid(a)),
            5 => RemoteError::Storage(msg),
            6 => RemoteError::BadRequest(msg),
            7 => RemoteError::Unavailable(msg),
            c => {
                return Err(DecodeError::InvalidDiscriminant {
                    type_name: "RemoteError",
                    discriminant: c.into(),
                })
            }
        })
    }
}

impl From<&ode::Error> for RemoteError {
    fn from(e: &ode::Error) -> RemoteError {
        match e {
            ode::Error::UnknownObject(oid) => RemoteError::UnknownObject(*oid),
            ode::Error::UnknownVersion(vid) => RemoteError::UnknownVersion(*vid),
            ode::Error::TypeMismatch { expected, found } => RemoteError::TypeMismatch {
                expected: *expected,
                found: *found,
            },
            ode::Error::LastVersion(vid) => RemoteError::LastVersion(*vid),
            // Refusals of a request's shape: the rendered message says
            // which ids or claims did not fit.
            ode::Error::MergeMismatch { .. } | ode::Error::ClaimRefused { .. } => {
                RemoteError::BadRequest(e.to_string())
            }
            ode::Error::Storage(e) => RemoteError::Storage(e.to_string()),
            // A corrupt delta chain is a storage-integrity failure as
            // far as a remote caller is concerned.
            ode::Error::ChainCorrupt(msg) => RemoteError::Storage(format!("delta chain: {msg}")),
        }
    }
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::UnknownObject(oid) => write!(f, "unknown object {oid}"),
            RemoteError::UnknownVersion(vid) => write!(f, "unknown version {vid}"),
            RemoteError::TypeMismatch { expected, found } => write!(
                f,
                "type mismatch: expected tag {:#018x}, found {:#018x}",
                expected.0, found.0
            ),
            RemoteError::LastVersion(vid) => write!(
                f,
                "{vid} is the last version of its object; pdelete the object instead"
            ),
            RemoteError::Storage(msg) => write!(f, "remote storage error: {msg}"),
            RemoteError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            RemoteError::Unavailable(msg) => write!(f, "unavailable: {msg}"),
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "network i/o error: {e}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::Remote(e) => write!(f, "remote error: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> NetError {
        NetError::Io(e)
    }
}

impl From<ode_codec::DecodeError> for NetError {
    fn from(e: ode_codec::DecodeError) -> NetError {
        NetError::Protocol(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_error_mirrors_version_error() {
        let e = ode::Error::UnknownObject(Oid(7));
        assert_eq!(RemoteError::from(&e), RemoteError::UnknownObject(Oid(7)));
        let e = ode::Error::TypeMismatch {
            expected: TypeTag(1),
            found: TypeTag(2),
        };
        assert_eq!(
            RemoteError::from(&e),
            RemoteError::TypeMismatch {
                expected: TypeTag(1),
                found: TypeTag(2),
            }
        );
    }

    #[test]
    fn display_is_informative() {
        let msg = NetError::Remote(RemoteError::LastVersion(Vid(3))).to_string();
        assert!(msg.contains("vid:3"));
    }
}
