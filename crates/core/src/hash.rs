//! Seedless FNV-1a hashing, shared by content addressing and routing.
//!
//! One construction, three consumers: the compilation cache keys
//! artifacts by graph + options ([`crate::serve::cache_key`]), the fleet
//! router rendezvous-hashes tenants onto devices, and the isolation
//! verifier digests the proved memory footprint into its certificate.
//! Keeping them on one implementation means a certificate key is
//! comparable across all three layers and a constant typo cannot split
//! the address spaces.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// The splitmix64 state increment (the 64-bit golden ratio).
pub const SPLITMIX_GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// One splitmix64 step: advance `state` by the golden-ratio increment
/// and finalize. This is the mixer the fleet router's rendezvous scores
/// are built from ([`crate::fleet`]): FNV-1a gives the stable content
/// identity, splitmix64 decorrelates it into per-device uniform weights.
/// Keeping it here, next to [`fnv1a`], pins both halves of every
/// routing/caching address to one module with known-answer coverage.
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(SPLITMIX_GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a byte slice.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// An incremental FNV-1a hasher for structured keys.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Fnv {
        Fnv(OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Absorbs a string with a `0xff` separator so adjacent fields
    /// cannot collide by concatenation.
    pub fn str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Streams formatted text straight into the digest, so `write!(h,
/// "{v:?}")` hashes a value's full `Debug` rendering without building
/// the string.
impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_matches_one_shot() {
        let mut h = Fnv::new();
        h.write(b"abc");
        h.write(b"def");
        assert_eq!(h.finish(), fnv1a(b"abcdef"));
    }

    #[test]
    fn formatted_writes_match_the_rendered_bytes() {
        use std::fmt::Write;
        let mut h = Fnv::new();
        write!(h, "{:?}", (1u8, "x")).unwrap();
        assert_eq!(h.finish(), fnv1a(b"(1, \"x\")"));
    }

    #[test]
    fn separator_prevents_concatenation_collisions() {
        let mut a = Fnv::new();
        a.str("ab");
        a.str("c");
        let mut b = Fnv::new();
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn known_vectors_are_stable() {
        // The canonical FNV-1a test vectors; these pin the constants the
        // cache keys and router placement depend on.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn splitmix_known_vectors_are_stable() {
        // The reference splitmix64 sequence from seed 0 (Steele, Lea &
        // Flood; also the Java SplittableRandom test vectors): state i
        // yields output splitmix64(i * GOLDEN).
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(SPLITMIX_GOLDEN), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(
            splitmix64(SPLITMIX_GOLDEN.wrapping_mul(2)),
            0x06c4_5d18_8009_454f
        );
    }

    #[test]
    fn splitmix_decorrelates_adjacent_states() {
        // Adjacent inputs must not produce adjacent outputs — the
        // property rendezvous routing relies on for uniform spread.
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert!(a.abs_diff(b) > 1 << 32);
    }
}
