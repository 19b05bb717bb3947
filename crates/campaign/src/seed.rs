//! Seed derivation shared by every MEEK tool.

/// SplitMix64 finaliser: decorrelates structured seed inputs.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a of a string.
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Parses a `--seed` value: decimal, `0x`-prefixed hex, or — for
/// anything else — the [`fnv1a`] hash of the string, so mnemonic seeds
/// like `0xMEEK` work.
pub fn parse_seed(s: &str) -> u64 {
    if let Ok(v) = s.parse::<u64>() {
        return v;
    }
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        if let Ok(v) = u64::from_str_radix(hex, 16) {
            return v;
        }
    }
    fnv1a(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_parse_as_decimal_hex_or_hashed_text() {
        assert_eq!(parse_seed("42"), 42);
        assert_eq!(parse_seed("0x2A"), 42);
        assert_eq!(parse_seed("0X2a"), 42);
        assert_eq!(parse_seed("0xMEEK"), fnv1a("0xMEEK"));
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(splitmix(0), splitmix(1));
    }
}
