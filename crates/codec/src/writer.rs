//! Encoding sink.

use crate::varint;

/// An append-only byte sink used by [`Persist::encode`](crate::Persist::encode).
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Create an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Create a writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// A writer appending to `buf` after clearing it, so an encoder that
    /// runs once per message can reuse one allocation.
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Writer { buf }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer and return the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Clear the buffer, keeping its allocation for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Write a single raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write raw bytes verbatim (no length prefix).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Write an unsigned varint.
    pub fn put_varint(&mut self, v: u64) {
        varint::write_u64(&mut self.buf, v);
    }

    /// Write a signed varint (zigzag-coded).
    pub fn put_varint_signed(&mut self, v: i64) {
        varint::write_u64(&mut self.buf, varint::zigzag_encode(v));
    }

    /// Write a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.put_raw(bytes);
    }

    /// Write a little-endian fixed-width u32 (used where fixed offsets
    /// matter, e.g. page headers).
    pub fn put_u32_le(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian fixed-width u64.
    pub fn put_u64_le(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_accumulates() {
        let mut w = Writer::new();
        assert!(w.is_empty());
        w.put_u8(1);
        w.put_raw(&[2, 3]);
        w.put_varint(300);
        assert_eq!(w.len(), 5);
        assert_eq!(w.as_bytes()[..3], [1, 2, 3]);
    }

    #[test]
    fn put_bytes_is_length_prefixed() {
        let mut w = Writer::new();
        w.put_bytes(b"abc");
        assert_eq!(w.into_bytes(), vec![3, b'a', b'b', b'c']);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut w = Writer::with_capacity(64);
        w.put_raw(&[0; 32]);
        w.clear();
        assert!(w.is_empty());
    }
}
