//! Deterministic object contents, so every read can be checked.
//!
//! Word `w` of an object is `BASE[w] ^ key`, where `BASE` is a fixed
//! pseudo-random table and `key` is derived from the object's drive and
//! object id. Every write stores that same pattern again, so a read
//! stays checkable while the other client rewrites the object: any
//! torn, misplaced or cross-object data shows as a mismatch.

use bytes::{ByteRope, Bytes};
use nasd_net::splitmix64;
use std::sync::OnceLock;

/// Longest object the pattern covers (the largest transfer).
pub const MAX_LEN: usize = 64 * 1024;

fn base() -> &'static [u64] {
    static BASE: OnceLock<Vec<u64>> = OnceLock::new();
    BASE.get_or_init(|| {
        (0..MAX_LEN / 8)
            .map(|w| splitmix64(0xB10C_0000 + w as u64))
            .collect()
    })
}

/// Pattern key of object `object` on drive `drive`.
pub fn key(drive: u64, object: u64) -> u64 {
    splitmix64((drive << 48) ^ object)
}

/// The first `len` bytes of the object's pattern (`len` a multiple of 8,
/// at most [`MAX_LEN`]).
pub fn fill(key: u64, len: usize) -> Bytes {
    assert!(
        len.is_multiple_of(8) && len <= MAX_LEN,
        "pattern length {len}"
    );
    let mut out = Vec::with_capacity(len);
    for w in &base()[..len / 8] {
        out.extend_from_slice(&(w ^ key).to_le_bytes());
    }
    Bytes::from(out)
}

fn expected_byte(key: u64, offset: usize) -> u8 {
    ((base()[offset / 8] ^ key) >> (8 * (offset % 8))) as u8
}

/// Whether `data` is exactly the first `len` bytes of the object's
/// pattern.
pub fn matches(key: u64, data: &ByteRope, len: usize) -> bool {
    if data.len() != len || len > MAX_LEN {
        return false;
    }
    let mut off = 0;
    for slice in data.iter_slices() {
        let mut rest = slice;
        while off % 8 != 0 && !rest.is_empty() {
            if rest[0] != expected_byte(key, off) {
                return false;
            }
            rest = &rest[1..];
            off += 1;
        }
        let mut words = rest.chunks_exact(8);
        for chunk in &mut words {
            let got = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            if got != base()[off / 8] ^ key {
                return false;
            }
            off += 8;
        }
        for &b in words.remainder() {
            if b != expected_byte(key, off) {
                return false;
            }
            off += 1;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_matches_itself_across_segment_splits() {
        let k = key(1, 42);
        let whole = fill(k, 4096);
        let mut rope = ByteRope::new();
        rope.push(whole.slice(..13));
        rope.push(whole.slice(13..4000));
        rope.push(whole.slice(4000..));
        assert!(matches(k, &rope, 4096));
        assert!(!matches(key(1, 43), &rope, 4096));
        assert!(!matches(k, &rope, 4104));
    }

    #[test]
    fn a_flipped_byte_is_a_mismatch() {
        let k = key(2, 7);
        let mut v = fill(k, 64).to_vec();
        v[33] ^= 1;
        assert!(!matches(k, &ByteRope::from(Bytes::from(v)), 64));
    }
}
