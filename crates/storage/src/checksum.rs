//! CRC32 (IEEE 802.3 polynomial) used for page and WAL-record integrity.
//!
//! Slicing-by-16: sixteen compile-time tables fold sixteen input bytes
//! per step, where the byte-at-a-time loop folds one. `TABLES[0]` is
//! that loop's table; `TABLES[k][b]` is the CRC of byte `b` followed by
//! `k` zero bytes, so one step looks up each of the sixteen bytes by its
//! distance from the end of the block. No external crates.

/// Bytes folded per step, and tables kept.
const SLICES: usize = 16;

const fn make_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICES] = make_tables();

/// Compute the CRC32 checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(SLICES);
    for block in &mut blocks {
        let word = |at: usize| u32::from_le_bytes(block[at..at + 4].try_into().expect("4 bytes"));
        // Byte `i` of the block sits `15 - i` bytes from its end.
        let fold = |w: u32, table: usize| {
            t[table][(w & 0xFF) as usize]
                ^ t[table - 1][((w >> 8) & 0xFF) as usize]
                ^ t[table - 2][((w >> 16) & 0xFF) as usize]
                ^ t[table - 3][(w >> 24) as usize]
        };
        crc = fold(word(0) ^ crc, 15) ^ fold(word(4), 11) ^ fold(word(8), 7) ^ fold(word(12), 3);
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One step of the byte-at-a-time loop `crc32` replaced: the
    /// reference it must match on every input.
    fn bytewise_step(crc: u32, byte: u8) -> u32 {
        (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize]
    }

    #[test]
    fn known_vectors() {
        // Standard CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    #[test]
    fn sliced_crc_equals_the_bytewise_crc_at_every_length_and_alignment() {
        // Lengths 0..9 000 cover every remainder mod 16 and more than two
        // pages; start offsets 0..16 cover every alignment of the blocks.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let data: Vec<u8> = (0..9_016)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for start in 0..16 {
            // The bytewise CRC of `data[start..start + len]`, one byte
            // further for each length.
            let mut reference = 0xFFFF_FFFFu32;
            for len in 0..9_000 {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), !reference, "start {start} len {len}");
                reference = bytewise_step(reference, data[start + len]);
            }
        }
    }

    #[test]
    fn sensitive_to_any_bit_flip() {
        let base = crc32(b"hello world");
        let mut data = b"hello world".to_vec();
        for i in 0..data.len() {
            for bit in 0..8 {
                data[i] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip at byte {i} bit {bit}");
                data[i] ^= 1 << bit;
            }
        }
    }
}
