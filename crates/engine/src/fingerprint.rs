//! Stable content fingerprints and seed derivation.
//!
//! Memoization is *content-addressed*: a design point is identified by
//! a fingerprint of its serialized form, not by where in the population
//! (slot, generation, thread) it happened to be sampled. Seeds for inner
//! searches are then derived from fingerprints, which is the property
//! that makes memoization sound: two encounters of the same (design,
//! layer) pair run — or reuse — the *identical* inner search, so one
//! thread or sixteen, one process or a fleet, all produce bit-identical
//! results.
//!
//! Hashes are FNV-1a over canonical JSON: deterministic across runs,
//! processes and machines (unlike `DefaultHasher`, whose keys are
//! unspecified across Rust releases), so fingerprints embedded in
//! checkpoint files stay meaningful after resume.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over raw bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Fingerprint of any serializable value, via its compact JSON form.
pub fn fingerprint<T: serde::Serialize>(value: &T) -> u64 {
    let json = serde_json::to_string(value).expect("shim serialization is infallible");
    fnv1a(json.as_bytes())
}

/// SplitMix64 finalizer — scrambles a 64-bit value so related inputs
/// (consecutive seeds, similar fingerprints) land far apart.
pub fn scramble(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Combines two 64-bit values into one, order-sensitively.
pub fn mix(a: u64, b: u64) -> u64 {
    scramble(a ^ b.rotate_left(31))
}

/// The seed of an inner (mapping) search, derived from content: the
/// caller's base seed, the design fingerprint, and the layer fingerprint.
/// Slot- and generation-independent by design — see the module docs.
pub fn derive_seed(base_seed: u64, design_fp: u64, layer_fp: u64) -> u64 {
    mix(mix(base_seed, design_fp), layer_fp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fingerprints_separate_close_values() {
        let a = fingerprint(&(1u64, 2u64));
        let b = fingerprint(&(1u64, 3u64));
        let c = fingerprint(&(2u64, 2u64));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn derive_seed_is_content_pure() {
        assert_eq!(derive_seed(7, 100, 200), derive_seed(7, 100, 200));
        assert_ne!(derive_seed(7, 100, 200), derive_seed(8, 100, 200));
        assert_ne!(derive_seed(7, 100, 200), derive_seed(7, 101, 200));
        assert_ne!(derive_seed(7, 100, 200), derive_seed(7, 100, 201));
        // Order sensitivity: design and layer roles must not commute.
        assert_ne!(derive_seed(7, 100, 200), derive_seed(7, 200, 100));
    }
}
