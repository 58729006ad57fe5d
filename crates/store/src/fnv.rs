//! FNV-1a 64-bit — the fingerprint hash behind every durable cache key.
//!
//! Stored keys (profile-store and explore-cache WAL frames) embed these
//! digests, so the constants must never change.

/// FNV-1a 64-bit digest of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_pinned() {
        // The offset basis, and the published FNV-1a test vector for
        // "a": stored keys depend on these exact values.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
