//! LEB128 varint primitives shared by the reader and writer.

use crate::DecodeError;

/// Maximum encoded width of a u64 varint: ceil(64 / 7) = 10 bytes.
pub const MAX_VARINT_LEN: usize = 10;

/// Append a LEB128-encoded u64 to `out`.
pub fn write_u64(out: &mut Vec<u8>, value: u64) {
    let (bytes, len) = encode_u64(value);
    out.extend_from_slice(&bytes[..len]);
}

/// `value` LEB128-encoded on the stack: the bytes, of which the first
/// `len` are the encoding.
pub fn encode_u64(mut value: u64) -> ([u8; MAX_VARINT_LEN], usize) {
    let mut bytes = [0u8; MAX_VARINT_LEN];
    let mut len = 0;
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            bytes[len] = byte;
            return (bytes, len + 1);
        }
        bytes[len] = byte | 0x80;
        len += 1;
    }
}

/// Width in bytes of `value`'s LEB128 encoding.
pub fn len_u64(value: u64) -> usize {
    (64 - (value | 1).leading_zeros() as usize).div_ceil(7)
}

/// Decode a LEB128 u64 from the front of `input`, returning the value and
/// the number of bytes consumed.
pub fn read_u64(input: &[u8]) -> Result<(u64, usize), DecodeError> {
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    for (i, &byte) in input.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return Err(DecodeError::VarintOverflow);
        }
        let payload = (byte & 0x7F) as u64;
        // The 10th byte may only contribute the final single bit.
        if shift == 63 && payload > 1 {
            return Err(DecodeError::VarintOverflow);
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(DecodeError::UnexpectedEof {
        needed: 1,
        remaining: 0,
    })
}

/// Zigzag-encode a signed integer so small magnitudes stay small.
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Reverse of [`zigzag_encode`].
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let (back, used) = read_u64(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, buf.len());
            assert_eq!(len_u64(v), buf.len());
        }
    }

    #[test]
    fn varint_width_is_minimal() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_u64(&mut buf, 128);
        assert_eq!(buf.len(), 2);
        buf.clear();
        write_u64(&mut buf, u64::MAX);
        assert_eq!(buf.len(), MAX_VARINT_LEN);
    }

    #[test]
    fn varint_rejects_overflow() {
        // 11 continuation bytes cannot be a valid u64.
        let buf = [0xFFu8; 11];
        assert_eq!(read_u64(&buf), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn varint_rejects_overwide_final_byte() {
        // 9 continuation bytes then a byte with more than the low bit set.
        let mut buf = vec![0x80u8; 9];
        buf.push(0x02);
        assert_eq!(read_u64(&buf), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn varint_eof() {
        let buf = [0x80u8]; // continuation bit set, nothing follows
        assert!(matches!(
            read_u64(&buf),
            Err(DecodeError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX, -123_456_789] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn zigzag_small_magnitudes_small_codes() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
    }
}
