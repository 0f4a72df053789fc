//! The shipping channel's wire format.
//!
//! This is deliberately *not* the client protocol from `ode-net`: the
//! replication channel moves raw WAL bytes and page-file snapshots, so
//! it wants a dumb, length-framed binary format with no varint
//! cleverness and a frame cap big enough for a whole database snapshot.
//!
//! A connection opens with a 4-byte magic exchange (`ODR` + a version
//! byte), both sides sending then verifying. After that every message
//! is one frame:
//!
//! ```text
//! [u8 type] [u32 len LE] [len payload bytes]
//! ```
//!
//! Replica → primary: [`Message::Hello`] (once), then [`Message::Ack`]
//! after every apply. Primary → replica: [`Message::Snapshot`] or
//! [`Message::Resume`] (once, deciding how the replica bootstraps),
//! then a stream of [`Message::Chunk`]s. All positions are *logical*
//! WAL positions (monotone across checkpoints — see
//! `Store::read_wal_span`).

use std::io::{Read, Write};

use crate::{ReplError, Result};

/// Channel magic: "ODR" + protocol version 2 (a snapshot carries its
/// log seed).
pub const MAGIC: [u8; 4] = *b"ODR\x02";

/// Largest accepted frame payload. Snapshot frames carry a whole page
/// file, so this is far larger than the client protocol's cap.
pub const MAX_FRAME_LEN: usize = 1 << 30;

const T_HELLO: u8 = 1;
const T_SNAPSHOT: u8 = 2;
const T_RESUME: u8 = 3;
const T_CHUNK: u8 = 4;
const T_ACK: u8 = 5;

/// One replication-channel message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Replica → primary: what the replica already has. `gen` is the
    /// primary generation the replica last shipped from (0 = never),
    /// and `have_pos` is `u64::MAX` when the replica has no state at
    /// all. A primary only resumes when `gen` matches its own —
    /// positions are meaningless across primary lifetimes.
    Hello {
        /// Primary generation id the positions below refer to.
        gen: u64,
        /// Logical WAL position already applied, or `u64::MAX`.
        have_pos: u64,
        /// Commit epoch already applied.
        have_epoch: u64,
    },
    /// Primary → replica: full state transfer. The replica replaces its
    /// page file with `db_bytes`, restarts its WAL chained from `seed`,
    /// and starts tailing at logical position `base_pos` / epoch
    /// `epoch`.
    Snapshot {
        /// The sending primary's generation id.
        gen: u64,
        /// Logical WAL position the snapshot is consistent at.
        base_pos: u64,
        /// Commit epoch the snapshot is consistent at.
        epoch: u64,
        /// Seed of the log generation the chunk stream continues: the
        /// link the first shipped frame chains from.
        seed: u32,
        /// Raw page-file contents.
        db_bytes: Vec<u8>,
    },
    /// Primary → replica: the replica's `have_pos` is still live; the
    /// stream will continue from `from` (== `have_pos`).
    Resume {
        /// The sending primary's generation id.
        gen: u64,
        /// Logical WAL position the chunk stream starts at.
        from: u64,
    },
    /// Primary → replica: fsynced WAL bytes starting at `start_pos`.
    Chunk {
        /// Logical WAL position of the first byte.
        start_pos: u64,
        /// Raw framed WAL bytes.
        bytes: Vec<u8>,
    },
    /// Replica → primary: everything up to `pos` has been received and
    /// every commit it completes applied, bringing the replica to
    /// `epoch`.
    Ack {
        /// Logical WAL position received and applied through.
        pos: u64,
        /// Replica commit epoch after applying.
        epoch: u64,
    },
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], at: usize) -> Result<u64> {
    let end = at + 8;
    if end > buf.len() {
        return Err(ReplError::Protocol("short frame".into()));
    }
    Ok(u64::from_le_bytes(buf[at..end].try_into().unwrap()))
}

impl Message {
    fn type_byte(&self) -> u8 {
        match self {
            Message::Hello { .. } => T_HELLO,
            Message::Snapshot { .. } => T_SNAPSHOT,
            Message::Resume { .. } => T_RESUME,
            Message::Chunk { .. } => T_CHUNK,
            Message::Ack { .. } => T_ACK,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Message::Hello {
                gen,
                have_pos,
                have_epoch,
            } => {
                put_u64(&mut buf, *gen);
                put_u64(&mut buf, *have_pos);
                put_u64(&mut buf, *have_epoch);
            }
            Message::Snapshot {
                gen,
                base_pos,
                epoch,
                seed,
                db_bytes,
            } => {
                put_u64(&mut buf, *gen);
                put_u64(&mut buf, *base_pos);
                put_u64(&mut buf, *epoch);
                buf.extend_from_slice(&seed.to_le_bytes());
                buf.extend_from_slice(db_bytes);
            }
            Message::Resume { gen, from } => {
                put_u64(&mut buf, *gen);
                put_u64(&mut buf, *from);
            }
            Message::Chunk { start_pos, bytes } => {
                put_u64(&mut buf, *start_pos);
                buf.extend_from_slice(bytes);
            }
            Message::Ack { pos, epoch } => {
                put_u64(&mut buf, *pos);
                put_u64(&mut buf, *epoch);
            }
        }
        buf
    }

    fn decode(ty: u8, payload: Vec<u8>) -> Result<Message> {
        Ok(match ty {
            T_HELLO => Message::Hello {
                gen: get_u64(&payload, 0)?,
                have_pos: get_u64(&payload, 8)?,
                have_epoch: get_u64(&payload, 16)?,
            },
            T_SNAPSHOT => {
                let gen = get_u64(&payload, 0)?;
                let base_pos = get_u64(&payload, 8)?;
                let epoch = get_u64(&payload, 16)?;
                let seed = payload
                    .get(24..28)
                    .ok_or_else(|| ReplError::Protocol("short frame".into()))?;
                Message::Snapshot {
                    gen,
                    base_pos,
                    epoch,
                    seed: u32::from_le_bytes(seed.try_into().expect("4 bytes")),
                    db_bytes: payload[28..].to_vec(),
                }
            }
            T_RESUME => Message::Resume {
                gen: get_u64(&payload, 0)?,
                from: get_u64(&payload, 8)?,
            },
            T_CHUNK => {
                let start_pos = get_u64(&payload, 0)?;
                Message::Chunk {
                    start_pos,
                    bytes: payload[8..].to_vec(),
                }
            }
            T_ACK => Message::Ack {
                pos: get_u64(&payload, 0)?,
                epoch: get_u64(&payload, 8)?,
            },
            other => return Err(ReplError::Protocol(format!("unknown frame type {other}"))),
        })
    }
}

/// Write one framed message.
pub fn write_message(w: &mut impl Write, msg: &Message) -> Result<()> {
    let payload = msg.payload();
    if payload.len() > MAX_FRAME_LEN {
        return Err(ReplError::Protocol(format!(
            "frame too large: {} bytes",
            payload.len()
        )));
    }
    let mut header = [0u8; 5];
    header[0] = msg.type_byte();
    header[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(&payload)?;
    w.flush()?;
    Ok(())
}

/// Read one framed message.
pub fn read_message(r: &mut impl Read) -> Result<Message> {
    let mut header = [0u8; 5];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[1..5].try_into().unwrap()) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ReplError::Protocol(format!("frame too large: {len} bytes")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Message::decode(header[0], payload)
}

/// Send our magic and require the peer's.
pub fn handshake(stream: &mut (impl Read + Write)) -> Result<()> {
    stream.write_all(&MAGIC)?;
    stream.flush()?;
    let mut echo = [0u8; 4];
    stream.read_exact(&mut echo)?;
    if echo != MAGIC {
        return Err(ReplError::Protocol("bad channel magic".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_round_trip() {
        let msgs = [
            Message::Hello {
                gen: 7,
                have_pos: u64::MAX,
                have_epoch: 1,
            },
            Message::Snapshot {
                gen: 7,
                base_pos: 4096,
                epoch: 12,
                seed: 0xC0FF_EE01,
                db_bytes: vec![0xAB; 8192],
            },
            Message::Resume { gen: 7, from: 4096 },
            Message::Chunk {
                start_pos: 4096,
                bytes: vec![1, 2, 3],
            },
            Message::Ack {
                pos: 4099,
                epoch: 13,
            },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_message(&mut buf, m).unwrap();
        }
        let mut r = &buf[..];
        for m in &msgs {
            assert_eq!(&read_message(&mut r).unwrap(), m);
        }
    }

    #[test]
    fn unknown_type_rejected() {
        let mut buf = Vec::new();
        buf.push(99u8);
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut r = &buf[..];
        assert!(matches!(read_message(&mut r), Err(ReplError::Protocol(_))));
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.push(T_CHUNK);
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = &buf[..];
        assert!(matches!(read_message(&mut r), Err(ReplError::Protocol(_))));
    }
}
