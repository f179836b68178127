//! Content addressing for compile configurations.
//!
//! A 64-bit FNV-1a hash over `(source, function, canonical options)`
//! identifies one compile configuration. FNV is not collision-resistant
//! against adversaries, but every consumer treats the hash as an
//! optimization, not a trust boundary: a collision serves a stale
//! artifact to a local client, it does not corrupt the compiler. Length
//! prefixes keep field boundaries unambiguous (`("ab","c")` must not
//! collide with `("a","bc")`).
//!
//! The hash lives here (rather than in `roccc-serve`, where it
//! originated) so that every layer that keys work by configuration —
//! the serve daemon's artifact cache and the `roccc-explore`
//! design-space-exploration memo — shares one definition and can never
//! disagree about whether two configurations alias.

use crate::CompileOptions;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a hasher.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a length-prefixed field (8-byte LE length, then bytes).
    pub fn write_field(&mut self, bytes: &[u8]) {
        self.write(&(bytes.len() as u64).to_le_bytes());
        self.write(bytes);
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The content-addressed key of one compile configuration.
pub fn cache_key(source: &str, function: &str, opts: &CompileOptions) -> u64 {
    let mut h = Fnv64::new();
    h.write_field(source.as_bytes());
    h.write_field(function.as_bytes());
    h.write_field(&opts.canonical_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::OPTIONS;
    use crate::{CompileOptions, UnrollStrategy, VerifyLevel};

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn identical_inputs_produce_equal_keys() {
        let src =
            "void f(int A[4], int B[4]) { int i;\n  for (i = 0; i < 4; i++) { B[i] = A[i]; } }";
        let a = cache_key(src, "f", &CompileOptions::default());
        let b = cache_key(src, "f", &CompileOptions::default());
        assert_eq!(a, b);
        // Same options built by hand, not via Default.
        let opts = CompileOptions {
            target_period_ns: 7.0,
            unroll: UnrollStrategy::Keep,
            stripmine: None,
            optimize: true,
            narrow: true,
            range_narrow: false,
            fuse: false,
            verify: VerifyLevel::default(),
            pipeline_ii: None,
            prove: false,
            verify_families: None,
        };
        assert_eq!(a, cache_key(src, "f", &opts));
    }

    #[test]
    fn differing_options_produce_different_keys() {
        let src =
            "void f(int A[8], int B[8]) { int i;\n  for (i = 0; i < 8; i++) { B[i] = A[i] * 3; } }";
        let base = CompileOptions::default();
        let unrolled = CompileOptions {
            unroll: UnrollStrategy::Partial(4),
            ..base.clone()
        };
        // The canonical pair: unroll factor 1 (Keep) vs 4.
        assert_ne!(cache_key(src, "f", &base), cache_key(src, "f", &unrolled));

        // Every option axis must also separate keys: each row takes every
        // sample value it accepts (a switch takes its non-default side), and
        // every pair of distinct option sets must key apart.
        let mut variants = vec![base.clone()];
        for row in OPTIONS {
            let before = variants.len();
            for sample in ["9.5", "full", "4", "2", "auto", "deny", "S,D,E"] {
                let mut o = base.clone();
                if row.apply(&mut o, sample).is_ok() && !variants.contains(&o) {
                    variants.push(o);
                }
            }
            assert!(variants.len() > before, "no sample sets `{}`", row.key);
        }
        for (i, a) in variants.iter().enumerate() {
            for b in &variants[i + 1..] {
                assert_ne!(
                    cache_key(src, "f", a),
                    cache_key(src, "f", b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn source_and_function_separate_keys() {
        let opts = CompileOptions::default();
        assert_ne!(
            cache_key("void f() {}", "f", &opts),
            cache_key("void g() {}", "g", &opts)
        );
        // Length-prefixing: shifting a byte across the field boundary
        // must change the key.
        assert_ne!(cache_key("ab", "c", &opts), cache_key("a", "bc", &opts));
    }

    #[test]
    fn canonical_bytes_distinguish_partial_factors() {
        let k1 = CompileOptions {
            unroll: UnrollStrategy::Partial(1),
            ..CompileOptions::default()
        };
        let k2 = CompileOptions {
            unroll: UnrollStrategy::Partial(4),
            ..CompileOptions::default()
        };
        assert_ne!(k1.canonical_bytes(), k2.canonical_bytes());
        assert_eq!(k1.canonical_bytes(), k1.canonical_bytes());
    }

    #[test]
    fn canonical_bytes_distinguish_strip_widths() {
        // DSE memoization correctness: strip-mined configurations must
        // never alias the un-mined base or each other.
        let base = CompileOptions::default();
        let s4 = CompileOptions {
            stripmine: Some(4),
            ..base.clone()
        };
        let s8 = CompileOptions {
            stripmine: Some(8),
            ..base.clone()
        };
        assert_ne!(base.canonical_bytes(), s4.canonical_bytes());
        assert_ne!(s4.canonical_bytes(), s8.canonical_bytes());
        // And `stripmine: None` must not alias `Some(0)`-style encodings
        // of other fields: the tag byte keeps boundaries unambiguous.
        assert_eq!(
            base.canonical_bytes(),
            CompileOptions::default().canonical_bytes()
        );
    }
}
