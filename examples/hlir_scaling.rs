//! HLIR scaling gate: the cost of the loop transforms plus kernel
//! extraction per statement they emit, for the wavelet kernel at unroll 8
//! · strip 8 (tens of thousands of statements) divided by the same figure
//! for the untransformed loop. Passes that touch each emitted statement a
//! bounded number of times keep the ratio near 1; a pass whose cost grows
//! faster than the statements it emits (quadratic in the unrolled body,
//! say) pushes it up. `scripts/ci.sh` fails when the printed ratio exceeds
//! its bound.
//!
//! ```sh
//! cargo run --release --example hlir_scaling
//! ```

use roccc_suite::cparse::ast::{Block, Item, Program, Stmt, StmtKind};
use roccc_suite::cparse::frontend;
use roccc_suite::hlir::extract_kernel;
use roccc_suite::ipcores::kernels::wavelet_source;
use roccc_suite::roccc::{transform_program, CompileOptions, UnrollStrategy};
use std::hint::black_box;
use std::time::Instant;

fn count_stmts(b: &Block) -> usize {
    b.stmts.iter().map(count_stmt).sum()
}

fn count_stmt(s: &Stmt) -> usize {
    1 + match &s.kind {
        StmtKind::If {
            then_blk, else_blk, ..
        } => count_stmts(then_blk) + else_blk.as_ref().map_or(0, count_stmts),
        StmtKind::For { body, .. } | StmtKind::While { body, .. } => count_stmts(body),
        StmtKind::Block(b) => count_stmts(b),
        _ => 0,
    }
}

fn kernel_stmts(p: &Program) -> usize {
    p.items
        .iter()
        .map(|i| match i {
            Item::Function(f) if f.name == "wavelet" => count_stmts(&f.body),
            _ => 0,
        })
        .sum()
}

/// Timing samples per configuration; the median is reported.
const RUNS: usize = 15;

/// Statements one timing sample emits at least: a small configuration is
/// repeated within a sample so that timer resolution and scheduling noise
/// weigh the same at both ends of the ratio.
const SAMPLE_STMTS: usize = 20_000;

/// Median nanoseconds of transform + extract per emitted statement, and
/// the statement count of one transformed kernel.
fn per_stmt_ns(program: &Program, opts: &CompileOptions) -> (f64, usize) {
    let transformed = |p: &mut Program| {
        transform_program(p, "wavelet", opts).expect("wavelet transforms are legal");
    };
    let mut probe = program.clone();
    transformed(&mut probe);
    let stmts = kernel_stmts(&probe);
    let reps = SAMPLE_STMTS.div_ceil(stmts);
    let mut samples = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let mut copies = vec![program.clone(); reps];
        let t0 = Instant::now();
        for p in &mut copies {
            transformed(p);
            // Extraction of the large configuration is refused; the
            // refusal is part of the measured work.
            let _ = black_box(extract_kernel(p, "wavelet"));
        }
        let ns = t0.elapsed().as_secs_f64() * 1e9;
        samples.push(ns / (reps * stmts) as f64);
    }
    samples.sort_by(f64::total_cmp);
    (samples[samples.len() / 2], stmts)
}

fn main() {
    let program = frontend(&wavelet_source()).expect("wavelet parses");
    let base = CompileOptions::default();
    let wide = CompileOptions {
        unroll: UnrollStrategy::Partial(8),
        stripmine: Some(8),
        ..CompileOptions::default()
    };
    let (u1_ns, u1_stmts) = per_stmt_ns(&program, &base);
    let (wide_ns, wide_stmts) = per_stmt_ns(&program, &wide);
    println!("hlir scaling (median of {RUNS} runs, transform + extract per emitted statement)");
    println!("  wavelet u1    : {u1_stmts:>6} stmts, {u1_ns:>8.1} ns/stmt");
    println!("  wavelet u8·s8 : {wide_stmts:>6} stmts, {wide_ns:>8.1} ns/stmt");
    println!("ratio: {:.3}", wide_ns / u1_ns);
}
