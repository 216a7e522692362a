//! FNV-1a hashing — the workspace's shared content-address primitive.
//!
//! Lives here (rather than in `vab-svc`, where it originated) so crates
//! below the service layer — notably `vab-net`, which digests topology
//! specs — can address content without depending on the serving stack.

/// FNV-1a 64-bit digest of `bytes`.
///
/// Not cryptographic: it addresses caches and names deterministic
/// artifacts, where speed and zero dependencies matter and adversarial
/// collisions do not.
///
/// ```
/// assert_eq!(vab_util::hash::fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The workspace's content-address recipe: FNV-1a of the canonical
/// bytes, a NUL separator, then the version string. Every cache key and
/// artifact name (jobs, banks, topologies, deployments) is derived this
/// way, so bumping `version` re-addresses all content of that kind.
///
/// ```
/// let d = vab_util::hash::content_digest("{}", "v/1");
/// assert_eq!(d, vab_util::hash::fnv1a64(b"{}\0v/1"));
/// ```
pub fn content_digest(canonical: &str, version: &str) -> u64 {
    let mut bytes = Vec::with_capacity(canonical.len() + 1 + version.len());
    bytes.extend_from_slice(canonical.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(version.as_bytes());
    fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
