//! Pins the bytes every consumer keys compile configurations by.
//!
//! `CompileOptions::canonical_bytes` is the options half of the serve
//! daemon's artifact-cache key and of the explore memo key. The table
//! below records its hex and `hash::cache_key` over one fixed kernel for
//! a fixed list of option sets. A refactor of how options are declared
//! must leave every line alone: a moved byte would silently split (or
//! alias) cached artifacts.

use roccc::hash::cache_key;
use roccc::{CompileOptions, UnrollStrategy, VerifyLevel};

const FIR: &str = "void fir(int A[21], int C[17]) { int i;
  for (i = 0; i < 17; i = i + 1) {
    C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4]; } }";

/// The defaults with the profile-dependent verify level pinned to `Off`.
fn base() -> CompileOptions {
    CompileOptions {
        verify: VerifyLevel::Off,
        ..CompileOptions::default()
    }
}

fn option_sets() -> Vec<(&'static str, CompileOptions)> {
    let b = base();
    vec![
        ("defaults-verify-off", b.clone()),
        (
            "defaults-verify-warn",
            CompileOptions {
                verify: VerifyLevel::Warn,
                ..b.clone()
            },
        ),
        (
            "period-9.5",
            CompileOptions {
                target_period_ns: 9.5,
                ..b.clone()
            },
        ),
        (
            "unroll-full",
            CompileOptions {
                unroll: UnrollStrategy::Full,
                ..b.clone()
            },
        ),
        (
            "unroll-4",
            CompileOptions {
                unroll: UnrollStrategy::Partial(4),
                ..b.clone()
            },
        ),
        (
            "unroll-1",
            CompileOptions {
                unroll: UnrollStrategy::Partial(1),
                ..b.clone()
            },
        ),
        (
            "stripmine-4",
            CompileOptions {
                stripmine: Some(4),
                ..b.clone()
            },
        ),
        (
            "no-opt",
            CompileOptions {
                optimize: false,
                ..b.clone()
            },
        ),
        (
            "no-narrow",
            CompileOptions {
                narrow: false,
                ..b.clone()
            },
        ),
        (
            "fuse",
            CompileOptions {
                fuse: true,
                ..b.clone()
            },
        ),
        (
            "range-narrow",
            CompileOptions {
                range_narrow: true,
                ..b.clone()
            },
        ),
        (
            "verify-deny",
            CompileOptions {
                verify: VerifyLevel::Deny,
                ..b.clone()
            },
        ),
        (
            "pipeline-ii-auto",
            CompileOptions {
                pipeline_ii: Some(0),
                ..b.clone()
            },
        ),
        (
            "pipeline-ii-2",
            CompileOptions {
                pipeline_ii: Some(2),
                ..b.clone()
            },
        ),
        (
            "prove",
            CompileOptions {
                prove: true,
                ..b.clone()
            },
        ),
        (
            "verify-families-SDE",
            CompileOptions {
                verify_families: Some("S,D,E".into()),
                ..b.clone()
            },
        ),
        (
            "proto-roundtrip",
            CompileOptions {
                target_period_ns: 5.25,
                unroll: UnrollStrategy::Partial(4),
                stripmine: Some(8),
                optimize: false,
                narrow: false,
                range_narrow: true,
                fuse: true,
                pipeline_ii: Some(0),
                verify: VerifyLevel::Deny,
                prove: true,
                verify_families: Some("S,D,E".to_string()),
            },
        ),
        (
            "table1-certifying",
            CompileOptions {
                target_period_ns: 4.2,
                range_narrow: true,
                pipeline_ii: Some(0),
                prove: true,
                verify: VerifyLevel::Warn,
                ..b.clone()
            },
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Recorded before the option surfaces were folded into one table.
const PINNED: &str = "\
defaults-verify-off 0000000000001c4000000101000000000000 c3b45350feb949c4
defaults-verify-warn 0000000000001c4000000101000001000000 63aeff5954ef0655
period-9.5 000000000000234000000101000000000000 4cdf4345320e0acb
unroll-full 0000000000001c4001000101000000000000 2908dd570fd27d81
unroll-4 0000000000001c40020400000000000000000101000000000000 0dd30e2337cb069e
unroll-1 0000000000001c40020100000000000000000101000000000000 e4b6caffe5cd2851
stripmine-4 0000000000001c40000104000000000000000101000000000000 c0ad066218ea9427
no-opt 0000000000001c4000000001000000000000 2f5e835c9771a559
no-narrow 0000000000001c4000000100000000000000 8906cedb508d1c9f
fuse 0000000000001c4000000101010000000000 a04ab783ecab0ffd
range-narrow 0000000000001c4000000101000100000000 d063367b7c08b427
verify-deny 0000000000001c4000000101000002000000 03a9ab61ab24c2e6
pipeline-ii-auto 0000000000001c40000001010000000100000000000000000000 ed57f45b1d625207
pipeline-ii-2 0000000000001c40000001010000000102000000000000000000 bc0db25416c20d75
prove 0000000000001c4000000101000000000100 c3b7b950febc2ced
verify-families-SDE 0000000000001c40000001010000000000010500000000000000532c442c45 caa235818846dd7f
proto-roundtrip 0000000000001540020400000000000000010800000000000000000001010201000000000000000001010500000000000000532c442c45 323c53832d9d72f3
table1-certifying cdcccccccccc1040000001010001010100000000000000000100 e18869ed8d8fc661
";

#[test]
fn canonical_bytes_and_cache_keys_unchanged() {
    let actual: String = option_sets()
        .iter()
        .map(|(name, o)| {
            format!(
                "{name} {} {:016x}\n",
                hex(&o.canonical_bytes()),
                cache_key(FIR, "fir", o)
            )
        })
        .collect();
    assert!(
        actual == PINNED,
        "canonical option bytes moved; actual table:\n{actual}"
    );
}

#[test]
fn defaults_are_a_pinned_row() {
    // The default verify level is Warn in debug builds and Off in release
    // builds, so the defaults are whichever of the two pinned rows matches.
    let want = if cfg!(debug_assertions) {
        VerifyLevel::Warn
    } else {
        VerifyLevel::Off
    };
    let row = CompileOptions {
        verify: want,
        ..base()
    };
    assert_eq!(CompileOptions::default(), row);
    assert_eq!(
        cache_key(FIR, "fir", &CompileOptions::default()),
        cache_key(FIR, "fir", &row)
    );
}
