//! Compile options, declared once.
//!
//! Every [`CompileOptions`] field has exactly one row in [`OPTIONS`]. The
//! row names the field on every surface, parses and validates its value,
//! writes it back, and encodes it for the cache key. Everything that reads
//! or writes options runs through the rows:
//!
//! * [`CompileOptions::canonical_bytes`] is the rows' encoders in table
//!   order;
//! * the wire protocol ([`crate::proto`]) reads `key value` lines with
//!   [`find`] and writes them with `OptSpec::spelled`;
//! * the `roccc` command line takes `--key [value]` for every row and
//!   prints the rows' help;
//! * pipeline-spec `stage` overrides take `name=value` through
//!   [`find_override`].
//!
//! A boolean row is a switch: its key (`no-opt`, `fuse`, …) sets the field
//! to the opposite of its [`Default`] on the command line and the wire,
//! and stage overrides spell it by its positive name (`optimize=off`).

use crate::VerifyLevel;

/// How to treat loops before kernel extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnrollStrategy {
    /// Leave loops iterative: one pipeline iteration per loop iteration.
    #[default]
    Keep,
    /// Fully unroll constant-bound loops (straight-line data path,
    /// the paper's DCT-style 8-outputs-per-clock configuration).
    Full,
    /// Partially unroll by the given factor.
    Partial(u64),
}

/// Compilation options.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileOptions {
    /// Target clock period for the pipeliner, in nanoseconds
    /// (default 7.0 ns ≈ 143 MHz, a typical Virtex-II -5 target).
    pub target_period_ns: f64,
    /// Loop unrolling strategy.
    pub unroll: UnrollStrategy,
    /// Strip-mine width: `Some(w)` (w ≥ 2) strip-mines every innermost
    /// counted loop by `w` and fully unrolls the strip, so each remaining
    /// iteration computes one whole strip fed from one smart-buffer line
    /// (the paper's §2 strip-mining, with the strip matched to the memory
    /// bus width). Applied before [`CompileOptions::unroll`]; `None` (and
    /// widths < 2) leave loops untouched.
    pub stripmine: Option<u64>,
    /// Run the SSA-level scalar optimizations.
    pub optimize: bool,
    /// Run backward bit-width narrowing.
    pub narrow: bool,
    /// Run the forward value-range / known-bits analysis and let the
    /// narrowing pass combine its proven intervals with backward demand
    /// (`hw_bits = demand.min(range_bits)`), fold range-proven constants,
    /// and stamp every data-path op with its range for the `W0xx`
    /// soundness checks. Off by default: it is a strictly-more-aggressive
    /// mode and changes the emitted hardware.
    pub range_narrow: bool,
    /// Apply loop fusion before extraction.
    pub fuse: bool,
    /// Modulo-schedule the pipelined loop body: `None` (default) keeps
    /// plain latch pipelining; `Some(0)` schedules at MinII ("auto");
    /// `Some(n)` starts the scheduler at initiation interval `n`. When
    /// the scheduler cannot beat the body latency it falls back to latch
    /// pipelining and records the reason in [`crate::Compiled::schedule`].
    pub pipeline_ii: Option<u64>,
    /// How strictly the phase-indexed static verifier (`roccc-verify`)
    /// gates the pipeline. Defaults to [`VerifyLevel::Warn`] in debug
    /// builds (tests get the verifier for free) and [`VerifyLevel::Off`]
    /// in release builds.
    pub verify: VerifyLevel,
    /// Run the per-compile translation validator (`roccc-prove`): a
    /// symbolic equivalence check of the emitted netlist against the
    /// optimized SSA IR, producing a [`crate::Compiled::certificate`]. Its
    /// findings surface through the `E0xx` diagnostic family and are
    /// gated at least at [`VerifyLevel::Warn`] even when
    /// [`CompileOptions::verify`] is `Off`.
    pub prove: bool,
    /// Restrict verifier findings to the listed diagnostic families
    /// (comma-separated code letters, e.g. `"S,D,W,E"`). `None` keeps
    /// every family. Orthogonal to [`CompileOptions::verify`], which
    /// decides how the surviving findings gate the compile.
    pub verify_families: Option<String>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            target_period_ns: 7.0,
            unroll: UnrollStrategy::Keep,
            stripmine: None,
            optimize: true,
            narrow: true,
            range_narrow: false,
            fuse: false,
            pipeline_ii: None,
            verify: VerifyLevel::default(),
            prove: false,
            verify_families: None,
        }
    }
}

impl CompileOptions {
    /// Canonical byte encoding of the options, stable across runs and
    /// platforms: the options half of a content-addressed cache key (the
    /// `roccc-serve` artifact cache hashes `(source, function,
    /// canonical_bytes)`). Option sets that encode identically compile
    /// identically; the converse does not hold (`unroll 1` and `keep`
    /// encode apart). Every field is part of it, the prove flag and
    /// family filter included: they leave the hardware alone but change
    /// the artifact set (certificate, findings) the serve cache stores.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(20);
        for row in OPTIONS {
            (row.encode)(self, &mut v);
        }
        v
    }

    /// True when diagnostic family `family` (a code letter such as `'S'`
    /// or `'E'`) passes the [`CompileOptions::verify_families`] filter.
    pub fn family_enabled(&self, family: char) -> bool {
        match &self.verify_families {
            None => true,
            Some(list) => list.split(',').any(|f| {
                f.trim()
                    .chars()
                    .next()
                    .is_some_and(|c| c.eq_ignore_ascii_case(&family))
            }),
        }
    }
}

/// One row of [`OPTIONS`]: everything any surface knows about one
/// [`CompileOptions`] field.
pub struct OptSpec {
    /// Wire key and `--key` command-line flag. For a switch (no `hint`)
    /// the key alone sets the field to the opposite of its default.
    pub key: &'static str,
    /// The stage-override name: the key, or a switch's positive name.
    pub name: &'static str,
    /// Value placeholder for help text; `None` for a switch.
    pub hint: Option<&'static str>,
    /// Help text; continuation lines are separated by `\n`.
    pub help: &'static str,
    /// Parses and validates a value (`on|off` for a switch) into the field.
    pub parse: fn(&mut CompileOptions, &str) -> Result<(), String>,
    /// The field as text `parse` reads back; `None` when it is unset.
    pub(crate) write: fn(&CompileOptions) -> Option<String>,
    /// Appends the field's canonical bytes.
    pub(crate) encode: fn(&CompileOptions, &mut Vec<u8>),
}

impl OptSpec {
    /// Applies the row as spelled on the command line and the wire: a
    /// switch flips its default and ignores `value`, any other row parses
    /// `value`.
    ///
    /// # Errors
    ///
    /// The parser's message (without the key) when `value` is invalid.
    pub fn apply(&self, opts: &mut CompileOptions, value: &str) -> Result<(), String> {
        match self.hint {
            Some(_) => (self.parse)(opts, value),
            None => {
                let default_on = (self.write)(&CompileOptions::default()) == on_off(true);
                (self.parse)(opts, if default_on { "off" } else { "on" })
            }
        }
    }

    /// The row as command-line/wire words (`no-opt`, `period 5.25`), or
    /// `None` when `opts` holds the default, so nothing needs writing.
    pub(crate) fn spelled(&self, opts: &CompileOptions) -> Option<String> {
        let v = (self.write)(opts);
        if v == (self.write)(&CompileOptions::default()) {
            return None;
        }
        match self.hint {
            Some(_) => v.map(|v| format!("{} {v}", self.key)),
            None => Some(self.key.to_string()),
        }
    }
}

/// The row whose key is `key` (a wire key, or a command-line flag
/// without its `--`).
pub fn find(key: &str) -> Option<&'static OptSpec> {
    OPTIONS.iter().find(|r| r.key == key)
}

/// The row a stage override names.
pub fn find_override(name: &str) -> Option<&'static OptSpec> {
    OPTIONS.iter().find(|r| r.name == name)
}

fn parse_bool(v: &str) -> Result<bool, String> {
    match v {
        "true" | "on" | "1" => Ok(true),
        "false" | "off" | "0" => Ok(false),
        _ => Err(format!("expects on|off, got `{v}`")),
    }
}

fn on_off(b: bool) -> Option<String> {
    Some(if b { "on" } else { "off" }.to_string())
}

fn parse_u64(v: &str, want: &str) -> Result<u64, String> {
    v.parse().map_err(|_| format!("expects {want}, got `{v}`"))
}

/// Tag byte, then the little-endian value when present.
fn encode_opt_u64(v: Option<u64>, out: &mut Vec<u8>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
}

/// Every compile option, in canonical-bytes order.
pub const OPTIONS: &[OptSpec] = &[
    OptSpec {
        key: "period",
        name: "period",
        hint: Some("<ns>"),
        help: "target clock period in ns (default 7.0)",
        parse: |o, v| {
            v.parse()
                .ok()
                .filter(|p: &f64| p.is_finite() && *p > 0.0)
                .map(|p| o.target_period_ns = p)
                .ok_or_else(|| format!("expects a positive, finite number of ns, got `{v}`"))
        },
        write: |o| Some(o.target_period_ns.to_string()),
        // f64 periods with the same bit pattern pipeline identically.
        encode: |o, out| out.extend_from_slice(&o.target_period_ns.to_bits().to_le_bytes()),
    },
    OptSpec {
        key: "unroll",
        name: "unroll",
        hint: Some("<n|full>"),
        help: "unroll factor, `full` for full unrolling, or\n`keep` to leave loops rolled (the default)",
        parse: |o, v| {
            o.unroll = match v {
                "keep" => UnrollStrategy::Keep,
                "full" => UnrollStrategy::Full,
                n => UnrollStrategy::Partial(parse_u64(n, "`keep`, `full` or a factor")?),
            };
            Ok(())
        },
        write: |o| {
            Some(match o.unroll {
                UnrollStrategy::Keep => "keep".into(),
                UnrollStrategy::Full => "full".into(),
                UnrollStrategy::Partial(k) => k.to_string(),
            })
        },
        encode: |o, out| match o.unroll {
            UnrollStrategy::Keep => out.push(0),
            UnrollStrategy::Full => out.push(1),
            UnrollStrategy::Partial(k) => {
                out.push(2);
                out.extend_from_slice(&k.to_le_bytes());
            }
        },
    },
    OptSpec {
        key: "stripmine",
        name: "stripmine",
        hint: Some("<w>"),
        help: "strip-mine width w, or `off`; the strip is\nfully unrolled and w drives the smart-buffer\nbus",
        parse: |o, v| {
            o.stripmine = match v {
                "off" => None,
                w => Some(parse_u64(w, "`off` or a width")?),
            };
            Ok(())
        },
        write: |o| o.stripmine.map(|w| w.to_string()),
        encode: |o, out| encode_opt_u64(o.stripmine, out),
    },
    OptSpec {
        key: "no-opt",
        name: "optimize",
        hint: None,
        help: "skip SSA-level scalar optimizations",
        parse: |o, v| parse_bool(v).map(|b| o.optimize = b),
        write: |o| on_off(o.optimize),
        encode: |o, out| out.push(u8::from(o.optimize)),
    },
    OptSpec {
        key: "no-narrow",
        name: "narrow",
        hint: None,
        help: "skip backward bit-width narrowing",
        parse: |o, v| parse_bool(v).map(|b| o.narrow = b),
        write: |o| on_off(o.narrow),
        encode: |o, out| out.push(u8::from(o.narrow)),
    },
    OptSpec {
        key: "fuse",
        name: "fuse",
        hint: None,
        help: "run loop fusion before extraction",
        parse: |o, v| parse_bool(v).map(|b| o.fuse = b),
        write: |o| on_off(o.fuse),
        encode: |o, out| out.push(u8::from(o.fuse)),
    },
    OptSpec {
        key: "range-narrow",
        name: "range-narrow",
        hint: None,
        help: "run the forward value-range analysis and let\nproven intervals narrow widths further",
        parse: |o, v| parse_bool(v).map(|b| o.range_narrow = b),
        write: |o| on_off(o.range_narrow),
        encode: |o, out| out.push(u8::from(o.range_narrow)),
    },
    OptSpec {
        key: "verify",
        name: "verify",
        hint: Some("<off|warn|deny>"),
        help: "how verifier findings gate the compile: off,\nwarn (errors fail) or deny (any finding fails)",
        parse: |o, v| {
            v.parse()
                .map(|level| o.verify = level)
                .map_err(|_| format!("expects off|warn|deny, got `{v}`"))
        },
        write: |o| Some(o.verify.to_string()),
        encode: |o, out| {
            out.push(match o.verify {
                VerifyLevel::Off => 0,
                VerifyLevel::Warn => 1,
                VerifyLevel::Deny => 2,
            })
        },
    },
    OptSpec {
        key: "pipeline-ii",
        name: "pipeline-ii",
        hint: Some("<auto|n>"),
        help: "modulo-schedule the loop body under the modulo\nreservation table at initiation interval n;\n`auto` searches upward from the MinII lower\nbound (max of the recurrence and resource\nbounds)",
        parse: |o, v| {
            o.pipeline_ii = Some(match v {
                "auto" => 0,
                n => parse_u64(n, "`auto` or an initiation interval")?,
            });
            Ok(())
        },
        write: |o| {
            o.pipeline_ii
                .map(|t| if t == 0 { "auto".into() } else { t.to_string() })
        },
        encode: |o, out| encode_opt_u64(o.pipeline_ii, out),
    },
    OptSpec {
        key: "prove",
        name: "prove",
        hint: None,
        help: "translation-validate the compiled netlist\nagainst the SSA IR: a symbolic evaluator walks\none steady-state window of each and a rewriter\n(SAT fallback) discharges the equivalence\nobligations; refutations surface as E001/E002\nwith a replayed counterexample, residual\nunknowns as E003 warnings",
        parse: |o, v| parse_bool(v).map(|b| o.prove = b),
        write: |o| on_off(o.prove),
        encode: |o, out| out.push(u8::from(o.prove)),
    },
    OptSpec {
        key: "verify-families",
        name: "verify-families",
        hint: Some("<csv>"),
        help: "only report diagnostic families in the CSV\nlist (letters from S,D,N,W,L,M,P,V,E);\nfindings from other families are dropped",
        parse: |o, v| {
            for fam in v.split(',') {
                let fam = fam.trim();
                if fam.len() != 1 || !"SDNWLMPVE".contains(&*fam.to_ascii_uppercase()) {
                    return Err(format!(
                        "expects comma-separated family letters from \
                         S,D,N,W,L,M,P,V,E, got `{fam}`"
                    ));
                }
            }
            o.verify_families = Some(v.to_string());
            Ok(())
        },
        write: |o| o.verify_families.clone(),
        encode: |o, out| match &o.verify_families {
            None => out.push(0),
            Some(fam) => {
                out.push(1);
                out.extend_from_slice(&(fam.len() as u64).to_le_bytes());
                out.extend_from_slice(fam.as_bytes());
            }
        },
    },
];

// One row per field. The destructure has no `..`, so a new field fails to
// compile here; listing it means counting it, and the count is checked
// against the rows.
const FIELDS: usize = {
    fn _every_field(o: CompileOptions) {
        let CompileOptions {
            target_period_ns: _,
            unroll: _,
            stripmine: _,
            optimize: _,
            narrow: _,
            range_narrow: _,
            fuse: _,
            pipeline_ii: _,
            verify: _,
            prove: _,
            verify_families: _,
        } = o;
    }
    11
};
const _: () = assert!(OPTIONS.len() == FIELDS);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_and_override_names_are_unique() {
        for (i, a) in OPTIONS.iter().enumerate() {
            for b in &OPTIONS[i + 1..] {
                assert_ne!(a.key, b.key);
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn spelled_rows_parse_back() {
        let opts = CompileOptions {
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
            verify_families: Some("S,D,E".into()),
        };
        let mut back = CompileOptions::default();
        for row in OPTIONS {
            let words = row.spelled(&opts).expect("every field differs");
            let value = words.split_once(' ').map_or("", |(_, v)| v);
            row.apply(&mut back, value).unwrap();
        }
        assert_eq!(back, opts);
        assert!(OPTIONS
            .iter()
            .all(|r| r.spelled(&CompileOptions::default()).is_none()));
    }

    #[test]
    fn invalid_values_are_refused() {
        let mut o = CompileOptions::default();
        for (key, bad) in [
            ("period", "nan"),
            ("period", "NaN"),
            ("period", "inf"),
            ("period", "-inf"),
            ("period", "0"),
            ("period", "-1"),
            ("period", "fast"),
            ("unroll", "banana"),
            ("unroll", "-2"),
            ("stripmine", "on"),
            ("pipeline-ii", "fast"),
            ("verify", "loud"),
            ("verify-families", "Q"),
            ("verify-families", ""),
            ("verify-families", "S,,E"),
            ("verify-families", "SD"),
        ] {
            let row = find(key).unwrap();
            assert!(row.apply(&mut o, bad).is_err(), "{key} {bad}");
        }
        assert_eq!(o, CompileOptions::default(), "a refused value sets nothing");
        let fuse = find_override("fuse").unwrap();
        assert!((fuse.parse)(&mut o, "yes").is_err());
    }
}
