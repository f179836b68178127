//! Prover cost gate: the time translation validation adds to a certifying
//! compile, relative to the compile itself. For each of the nine Table 1
//! kernels at the certifying options (range narrowing, auto modulo
//! schedule, verifier at `Warn`), one sample times the compile without the
//! prover and then the prover on the compiled IR/netlist pair (`prove`
//! plus the certificate re-check, as a proving compile runs them). The
//! printed ratio is summed prove time over summed compile time, the
//! median of a fixed number of samples. `scripts/ci.sh` fails when it
//! exceeds its bound: a prover that costs a growing multiple of the
//! compile it certifies pushes the ratio up on any host.
//!
//! ```sh
//! cargo run --release --example prove_cost
//! ```

use roccc_suite::ipcores::benchmarks;
use roccc_suite::prove::{prove, verify_certificate_diags, ProveOptions, Verdict};
use roccc_suite::roccc::{compile, CompileOptions, VerifyLevel};
use std::hint::black_box;
use std::time::Instant;

/// Timing samples; the median ratio is reported.
const RUNS: usize = 15;

fn main() {
    let rows: Vec<_> = benchmarks()
        .into_iter()
        .map(|b| {
            let opts = CompileOptions {
                range_narrow: true,
                pipeline_ii: Some(0),
                verify: VerifyLevel::Warn,
                ..b.opts.clone()
            };
            (b, opts)
        })
        .collect();
    let mut samples = Vec::with_capacity(RUNS);
    let mut per_kernel = vec![(Vec::new(), Vec::new()); rows.len()];
    for _ in 0..RUNS {
        let (mut compile_s, mut prove_s) = (0.0, 0.0);
        for (i, (b, opts)) in rows.iter().enumerate() {
            let t0 = Instant::now();
            let hw = compile(&b.source, b.func, opts).expect("Table 1 kernel compiles");
            let c = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let cert = prove(&hw.ir, &hw.netlist, b.func, &ProveOptions::default());
            let diags = verify_certificate_diags(&cert, &hw.ir, &hw.netlist);
            let p = t0.elapsed().as_secs_f64();
            assert_eq!(
                cert.verdict,
                Verdict::Equal,
                "{} must certify EQUAL",
                b.name
            );
            black_box(diags);
            compile_s += c;
            prove_s += p;
            per_kernel[i].0.push(c);
            per_kernel[i].1.push(p);
        }
        samples.push(prove_s / compile_s);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    println!("prove cost (median of {RUNS} runs, certifying options, ms)");
    for ((b, _), (c, p)) in rows.iter().zip(&mut per_kernel) {
        println!(
            "  {:16} compile {:>7.3}  prove {:>7.3}",
            b.name,
            median(c) * 1e3,
            median(p) * 1e3
        );
    }
    println!("ratio: {:.3}", median(&mut samples));
}
