//! Stage-by-stage replay of `roccc::compile_with_model_timed`.
//!
//! The replay calls the same public functions of each workspace crate in
//! the same order as the orchestrator and records one span around every
//! call, so the traced run can attribute compile time layer by layer
//! without any span inside the program. Its output must stay
//! byte-identical to `roccc::compile_with_model` (same netlist, same VHDL)
//! or fail with the identical error; [`Fingerprint`] is the comparison the
//! traced run applies to every operation.

use crate::trace::Tracer;
use roccc::{CompileError, CompileOptions, Compiled, UnrollStrategy, VerifyLevel};
use roccc_cparse::ast::{Block, Function, Item, Program, Stmt, StmtKind};
use roccc_datapath::DelayModel;
use roccc_verify::{Diagnostic, Severity};
use std::fmt::Write as _;

/// What two compiles must agree on: the netlist's full debug rendering
/// and the VHDL text (by content hash), or the error text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fingerprint {
    /// Successful compile.
    Ok {
        /// FNV-1a of the netlist's `Debug` rendering.
        netlist: u64,
        /// FNV-1a of the generated VHDL.
        vhdl: u64,
    },
    /// Failed compile: the rendered error.
    Err(String),
}

impl Fingerprint {
    /// Fingerprints a compile result (renders the VHDL).
    pub fn of(r: &Result<Compiled, CompileError>) -> Fingerprint {
        match r {
            Ok(c) => Fingerprint::of_parts(c, &c.to_vhdl()),
            Err(e) => Fingerprint::Err(e.to_string()),
        }
    }

    /// Fingerprints a compile whose VHDL was already rendered.
    pub fn of_parts(c: &Compiled, vhdl: &str) -> Fingerprint {
        let mut h = Fnv::default();
        let _ = write!(h, "{:?}", c.netlist);
        Fingerprint::Ok {
            netlist: h.0,
            vhdl: fnv(vhdl.as_bytes()),
        }
    }
}

/// FNV-1a 64 over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.eat(bytes);
    h.0
}

/// Streaming FNV-1a 64 that doubles as a `fmt::Write` sink, so large
/// `Debug` renderings hash without being materialized.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.eat(s.as_bytes());
        Ok(())
    }
}

/// Statements in a block, counted recursively (loop bodies, branches and
/// nested blocks included).
pub fn count_stmts(b: &Block) -> usize {
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

fn filter_families(opts: &CompileOptions, findings: Vec<Diagnostic>) -> Vec<Diagnostic> {
    if opts.verify_families.is_none() {
        return findings;
    }
    findings
        .into_iter()
        .filter(|d| d.code.chars().next().is_none_or(|c| opts.family_enabled(c)))
        .collect()
}

fn gate(
    level: VerifyLevel,
    findings: Vec<Diagnostic>,
    collected: &mut Vec<Diagnostic>,
) -> Result<(), CompileError> {
    if findings.is_empty() {
        return Ok(());
    }
    let fatal = match level {
        VerifyLevel::Off => false,
        VerifyLevel::Warn => findings.iter().any(|d| d.severity == Severity::Error),
        VerifyLevel::Deny => true,
    };
    if fatal {
        Err(CompileError::Verify(findings))
    } else {
        collected.extend(findings);
        Ok(())
    }
}

/// Loop transforms on `func` only, one span per transform call.
fn transform(
    t: &Tracer,
    program: &Program,
    func: &str,
    opts: &CompileOptions,
) -> Result<Program, CompileError> {
    let mut items = Vec::with_capacity(program.items.len());
    for i in &program.items {
        items.push(match i {
            Item::Function(f) if f.name == func => {
                let mut f: Function = f.clone();
                if opts.fuse {
                    let _s = t.span("hlir.fuse");
                    f = roccc_hlir::fusion::fuse_function(&f);
                }
                if let Some(w) = opts.stripmine {
                    if w >= 2 {
                        {
                            let _s = t.span("hlir.stripmine");
                            f = roccc_hlir::stripmine::stripmine_unroll_function_checked(&f, w)?;
                        }
                        let _s = t.span("hlir.fold");
                        f = roccc_hlir::fold::fold_function(&f);
                    }
                }
                match opts.unroll {
                    UnrollStrategy::Keep => {}
                    UnrollStrategy::Full => {
                        {
                            let _s = t.span("hlir.unroll");
                            f = roccc_hlir::unroll::fully_unroll_function(&f);
                        }
                        let _s = t.span("hlir.fold");
                        f = roccc_hlir::fold::fold_function(&f);
                    }
                    UnrollStrategy::Partial(k) => {
                        {
                            let _s = t.span("hlir.unroll");
                            f = roccc_hlir::unroll::partially_unroll_function_checked(&f, k)?;
                        }
                        let _s = t.span("hlir.fold");
                        f = roccc_hlir::fold::fold_function(&f);
                    }
                }
                t.count("hlir.stmts", count_stmts(&f.body) as f64);
                Item::Function(f)
            }
            other => other.clone(),
        });
    }
    Ok(Program { items })
}

/// Replays `roccc::compile_with_model(source, func, opts, model)` call by
/// call, recording a span around each public call under the caller's open
/// span. Counters record the size of each intermediate representation.
///
/// # Errors
///
/// Exactly the errors `roccc::compile_with_model` returns.
pub fn compile(
    t: &Tracer,
    source: &str,
    func: &str,
    opts: &CompileOptions,
    model: &dyn DelayModel,
) -> Result<Compiled, CompileError> {
    let mut program = {
        let _s = t.span("cparse.frontend");
        roccc_cparse::frontend(source)?
    };
    program = transform(t, &program, func, opts)?;
    let kernel = {
        let _s = t.span("hlir.extract");
        roccc_hlir::extract_kernel(&program, func)?
    };

    let dp_program = Program {
        items: {
            let mut items: Vec<Item> = program
                .items
                .iter()
                .filter(|i| matches!(i, Item::Global(_)))
                .cloned()
                .collect();
            items.push(Item::Function(kernel.dp_func.clone()));
            items
        },
    };
    let mut ir = {
        let _s = t.span("suifvm.lower");
        roccc_suifvm::lower_function(&dp_program, &kernel.dp_func, &kernel.feedback)?
    };
    {
        let _s = t.span("suifvm.ssa");
        roccc_suifvm::to_ssa(&mut ir);
    }
    if opts.optimize {
        let _s = t.span("suifvm.optimize");
        roccc_suifvm::optimize(&mut ir);
    }
    {
        let _s = t.span("suifvm.verify_ssa");
        roccc_suifvm::verify_ssa(&ir).map_err(CompileError::Backend)?;
    }
    let mut diagnostics = Vec::new();
    if opts.verify != VerifyLevel::Off {
        let found = {
            let _s = t.span("verify.ir");
            roccc_verify::verify_ir(&ir)
        };
        gate(opts.verify, filter_families(opts, found), &mut diagnostics)?;
    }

    let mut ranges = None;
    if opts.range_narrow {
        let input_ranges = {
            let _s = t.span("suifvm.range");
            roccc_suifvm::input_seed_ranges(&kernel.dims, &ir)
        };
        let mut map = {
            let _s = t.span("suifvm.range");
            roccc_suifvm::analyze_with_inputs(&ir, &input_ranges)
        };
        let folded = {
            let _s = t.span("suifvm.range");
            roccc_suifvm::fold_constant_ranges(&mut ir, &map)
        };
        if folded {
            if opts.optimize {
                let _s = t.span("suifvm.optimize");
                roccc_suifvm::optimize(&mut ir);
            }
            {
                let _s = t.span("suifvm.verify_ssa");
                roccc_suifvm::verify_ssa(&ir).map_err(CompileError::Backend)?;
            }
            let _s = t.span("suifvm.range");
            map = roccc_suifvm::analyze_with_inputs(&ir, &input_ranges);
        }
        if opts.verify != VerifyLevel::Off {
            let found = {
                let _s = t.span("verify.ranges");
                roccc_verify::verify_ranges(&ir, &map)
            };
            gate(opts.verify, filter_families(opts, found), &mut diagnostics)?;
        }
        ranges = Some(map);
    }
    t.count(
        "suifvm.instrs",
        ir.blocks.iter().map(|b| b.instrs.len()).sum::<usize>() as f64,
    );

    let budget = model.resource_budget();
    let mut deps = {
        let _s = t.span("suifvm.deps");
        roccc_suifvm::analyze_deps(
            &kernel,
            &ir,
            opts.target_period_ns,
            &|op, w| model.delay_ns(op, w, false),
            &roccc_suifvm::Resources {
                mult_blocks_avail: budget.mult_blocks,
                ..roccc_suifvm::Resources::unlimited()
            },
        )
    };

    let mut datapath = {
        let _s = t.span("datapath.build");
        roccc_datapath::build_datapath_ranged(&ir, ranges.as_ref())?
    };
    {
        let _s = t.span("datapath.pipeline");
        roccc_datapath::pipeline_datapath(&mut datapath, opts.target_period_ns, model);
    }
    if opts.narrow {
        let _s = t.span("datapath.narrow");
        roccc_datapath::narrow_widths(&mut datapath);
    }
    deps.body_latency = datapath.num_stages;
    if opts.verify != VerifyLevel::Off {
        let found = {
            let _s = t.span("verify.deps");
            roccc_verify::verify_deps(&deps, &kernel, &ir)
        };
        gate(opts.verify, filter_families(opts, found), &mut diagnostics)?;
    }
    let mut schedule = None;
    if let Some(target) = opts.pipeline_ii {
        let s = {
            let _s = t.span("schedule.modulo");
            roccc_schedule::modulo_schedule(&datapath, &deps, target, model)
        };
        if s.fallback.is_none() {
            let _s = t.span("datapath.apply_schedule");
            roccc_datapath::apply_modulo_schedule(&mut datapath, &s.slots, s.ii as u32, model)
                .map_err(CompileError::Backend)?;
        }
        if opts.verify != VerifyLevel::Off {
            let found = {
                let _s = t.span("verify.schedule");
                roccc_verify::verify_schedule(&s, &datapath, &deps)
            };
            gate(opts.verify, filter_families(opts, found), &mut diagnostics)?;
        }
        schedule = Some(s);
    }
    {
        let _s = t.span("datapath.verify");
        datapath.verify().map_err(CompileError::Backend)?;
    }
    if opts.verify != VerifyLevel::Off {
        let found = {
            let _s = t.span("verify.datapath");
            roccc_verify::verify_datapath(&datapath)
        };
        gate(opts.verify, filter_families(opts, found), &mut diagnostics)?;
    }
    t.count("datapath.ops", datapath.ops.len() as f64);

    let netlist = {
        let _s = t.span("netlist.build");
        roccc_netlist::netlist_from_datapath(&datapath)
    };
    {
        let _s = t.span("netlist.verify");
        netlist.verify().map_err(CompileError::Backend)?;
    }
    if opts.verify != VerifyLevel::Off {
        let found = {
            let _s = t.span("verify.netlist");
            roccc_verify::verify_netlist(&netlist)
        };
        gate(opts.verify, filter_families(opts, found), &mut diagnostics)?;
    }
    t.count("netlist.cells", netlist.cells.len() as f64);

    let mut certificate = None;
    if opts.prove && opts.family_enabled('E') {
        let cert = {
            let _s = t.span("prove.prove");
            roccc_prove::prove(&ir, &netlist, func, &roccc_prove::ProveOptions::default())
        };
        let findings = {
            let _s = t.span("prove.check");
            roccc_prove::verify_certificate_diags(&cert, &ir, &netlist)
        };
        let (_, _, sat, _, _) = cert.status_counts();
        t.count("prove.obligations", cert.obligations.len() as f64);
        t.count("prove.sat_obligations", sat as f64);
        t.count("prove.terms", cert.terms as f64);
        certificate = Some(cert);
        let level = if opts.verify == VerifyLevel::Off {
            VerifyLevel::Warn
        } else {
            opts.verify
        };
        gate(level, filter_families(opts, findings), &mut diagnostics)?;
    }

    Ok(Compiled {
        kernel,
        ir,
        datapath,
        netlist,
        program,
        ranges,
        deps,
        schedule,
        diagnostics,
        certificate,
    })
}

/// Renders VHDL under a `vhdl.emit` span and counts its bytes.
pub fn emit_vhdl(t: &Tracer, c: &Compiled) -> String {
    let v = {
        let _s = t.span("vhdl.emit");
        c.to_vhdl()
    };
    t.count("vhdl.bytes", v.len() as f64);
    v
}
