//! FNV-1a digests of canonical streams.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a hash of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(PRIME))
}

/// The digest as stored in the manifest: 16 lowercase hex digits.
pub fn hex(text: &str) -> String {
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn hex_is_fixed_width_and_order_sensitive() {
        assert_eq!(hex(""), "cbf29ce484222325");
        assert_eq!(hex("a").len(), 16);
        assert_ne!(hex("ab\n"), hex("ba\n"));
    }
}
