//! Committed expected values: the oracle's last word, independent of
//! the dynamic compiler.

/// splitmix64-style mixer used by every digest here.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z.wrapping_mul(0x94D0_49BB_1331_11EB)
}

/// Digest of each `kernels` program's static results over
/// [`crate::kernels::RUNS`] runs and its check after them
/// ([`crate::kernels::Reference::digest`]), blur at its small size.
const KERNELS: [(&str, u64); 14] = [
    ("hash", 0x17d04a3a482d7d6f),
    ("ms", 0xefef70c671193a3f),
    ("heap", 0xcb70572c6d6a515c),
    ("ntn", 0x697f0b0d9bc44777),
    ("cmp", 0x57376959b52dbc94),
    ("query", 0x1f213c2c889f0a93),
    ("mshl", 0x814a8dabe3679a48),
    ("umshl", 0x7ad40768b1b6a5f0),
    ("pow", 0x2864d046b0ff70ef),
    ("binary", 0x248021520a140f40),
    ("dp", 0x9e8819951aa94fe7),
    ("blur", 0x361ecc990e8828aa),
    ("filter", 0x9220b982c5cc8366),
    ("demux", 0x761d78de538c11db),
];

/// The committed digest for program `name`.
pub fn kernel_digest(name: &str) -> Option<u64> {
    KERNELS.iter().find(|(n, _)| *n == name).map(|&(_, d)| d)
}
