//! Seeded input generation shared by every workload: the stored body
//! type, deterministic byte fills, body edits, and the FNV-1a digest
//! used for `input_digest` and body checksums.
//!
//! Everything here is a pure function of its arguments, so equal seeds
//! give equal inputs. The system under test only ever sees the bytes
//! these functions produce, never the seed.

use ode_codec::{impl_persist_struct, impl_type_name};

/// The one body type every workload stores: a revision counter and a
/// byte payload of workload-chosen length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Doc {
    pub rev: u64,
    pub text: Vec<u8>,
}
impl_persist_struct!(Doc { rev, text });
impl_type_name!(Doc = "odebench/Doc");

/// The type tag raw-body calls (wire requests, `*_raw`) name `Doc` by.
pub fn tag() -> ode_codec::TypeTag {
    ode_codec::TypeTag::of::<Doc>()
}

/// The stored bytes of a `Doc` holding `text` with `rev` 0, for the
/// callers that hand bodies over already encoded.
pub fn encode_text(text: &[u8]) -> Vec<u8> {
    ode_codec::to_bytes(&Doc {
        rev: 0,
        text: text.to_vec(),
    })
}

/// Seeds the data every store is loaded with in set-up. The stored
/// data set is the same for every `--seed`; the seed drives the
/// operation stream of the measured phase. A store's size is then a
/// function of the code alone, and a change to a storage format moves
/// `stored_bytes_per_user_byte` by exactly what it saves or costs.
pub const DATA_SEED: u64 = 0x0DE_DA7A;

/// SplitMix64 step: decorrelates nearby seeds (`seed`, `seed + 1`, ...).
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fill `out` with pseudo-random bytes that depend only on `seed`.
/// Random-looking content keeps the differ honest: accidental matches
/// between unrelated fills are vanishingly rare.
pub fn fill(seed: u64, out: &mut [u8]) {
    let mut state = seed;
    for chunk in out.chunks_mut(8) {
        state = mix(state);
        chunk.copy_from_slice(&state.to_le_bytes()[..chunk.len()]);
    }
}

/// A fresh payload of `len` bytes for `seed`.
pub fn text(seed: u64, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    fill(seed, &mut out);
    out
}

/// One body edit: two runs, each a fortieth of the body, overwritten
/// with fresh bytes — about 5 % of the body in total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edit {
    at: [u32; 2],
    seed: u64,
}

impl Edit {
    /// The edit `seed` names for a body of `len` bytes.
    pub fn new(seed: u64, len: usize) -> Edit {
        let span = (len - Edit::run(len)).max(1) as u64;
        Edit {
            at: [
                (mix(seed) % span) as u32,
                (mix(seed ^ 0xA5A5) % span) as u32,
            ],
            seed,
        }
    }

    fn run(len: usize) -> usize {
        (len / 40).max(1)
    }

    /// Overwrite the two runs in `text`.
    pub fn apply(&self, text: &mut [u8]) {
        let run = Edit::run(text.len());
        for (k, &at) in self.at.iter().enumerate() {
            let at = at as usize;
            fill(self.seed.wrapping_add(k as u64), &mut text[at..at + run]);
        }
    }
}

/// Incremental FNV-1a (64 bit).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a checksum of one body.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.bytes(bytes);
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_depend_only_on_the_seed() {
        assert_eq!(text(7, 300), text(7, 300));
        assert_ne!(text(7, 300), text(8, 300));
        // A prefix of a longer fill is the shorter fill.
        assert_eq!(text(7, 300)[..64], text(7, 64)[..]);
    }

    #[test]
    fn an_edit_rewrites_about_five_percent() {
        let base = text(1, 2048);
        let mut edited = base.clone();
        Edit::new(99, base.len()).apply(&mut edited);
        let changed = base.iter().zip(&edited).filter(|(a, b)| a != b).count();
        assert!((40..=102).contains(&changed), "{changed} bytes changed");
        let mut again = base.clone();
        Edit::new(99, base.len()).apply(&mut again);
        assert_eq!(edited, again);
    }

    #[test]
    fn digest_separates_streams() {
        let mut a = Digest::default();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
        assert_eq!(checksum(b"abc"), checksum(b"abc"));
    }
}
