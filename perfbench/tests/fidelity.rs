//! The traced replay must build exactly what `roccc` builds: the same
//! netlist and VHDL bytes, or the same error, on every Table 1 kernel
//! under the default, `u4`, `s4` and certifying option sets, with both
//! delay models the workloads use. Its spans must also account for the
//! whole operation.

use roccc::{CompileOptions, UnrollStrategy};
use roccc_datapath::{DefaultDelayModel, DelayModel};
use roccc_perfbench::certify::certifying;
use roccc_perfbench::replay::{self, Fingerprint};
use roccc_perfbench::trace::Tracer;
use roccc_synth::VirtexII;

fn option_sets(base: &CompileOptions) -> Vec<(&'static str, CompileOptions)> {
    vec![
        ("default", base.clone()),
        (
            "u4",
            CompileOptions {
                unroll: UnrollStrategy::Partial(4),
                ..base.clone()
            },
        ),
        (
            "s4",
            CompileOptions {
                stripmine: Some(4),
                ..base.clone()
            },
        ),
        ("certifying", certifying(base)),
    ]
}

#[test]
fn replay_matches_compile_byte_for_byte() {
    let tracer = Tracer::new();
    let mut op = 0;
    let mut errors = 0;
    for b in roccc_ipcores::benchmarks() {
        let virtex = VirtexII::with_mult_style(b.mult_style);
        let models: [(&str, &dyn DelayModel); 2] =
            [("default", &DefaultDelayModel), ("virtex", &virtex)];
        for (set, opts) in option_sets(&b.opts) {
            for (model_name, model) in models {
                op += 1;
                let want =
                    Fingerprint::of(&roccc::compile_with_model(&b.source, b.func, &opts, model));
                let got = {
                    let _op = tracer.op("roccc.compile", op, 0);
                    Fingerprint::of(&replay::compile(&tracer, &b.source, b.func, &opts, model))
                };
                assert_eq!(got, want, "{} {set} {model_name}", b.name);
                errors += usize::from(matches!(want, Fingerprint::Err(_)));
            }
        }
    }
    // Some unrolled / strip-mined variants are refused by the compiler;
    // the replay must refuse them identically, and most must compile.
    assert!(errors < op as usize / 2, "{errors} of {op} failed");
    let st = tracer.self_times();
    assert_eq!(st.ops, op as usize);
    assert_eq!(st.total(), st.op_wall_ns, "self times account for op wall");
    for layer in [
        "cparse", "hlir", "suifvm", "verify", "datapath", "schedule", "netlist", "prove",
    ] {
        assert!(st.layer(layer) > 0, "no self time recorded for {layer}");
    }
}

#[test]
fn fingerprint_separates_different_hardware() {
    let b = roccc_ipcores::benchmarks()
        .into_iter()
        .find(|b| b.name == "fir")
        .expect("fir row");
    let plain = Fingerprint::of(&roccc::compile(&b.source, b.func, &b.opts));
    let unrolled = Fingerprint::of(&roccc::compile(
        &b.source,
        b.func,
        &CompileOptions {
            unroll: UnrollStrategy::Partial(2),
            ..b.opts.clone()
        },
    ));
    assert_ne!(plain, unrolled);
}
