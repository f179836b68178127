//! Cycle-accurate netlist simulation.
//!
//! Two-phase execution per clock: combinational settle (cells evaluate in
//! topological order; register cells present their current state), then
//! the clock edge (registers latch; the valid shift-register advances).
//! Feedback registers carry a stage gate: they latch only on cycles where
//! a *valid* iteration occupies their pipeline stage, so bubbles in the
//! input stream never corrupt an accumulator.

use crate::cells::*;
use crate::plan::cell_stages;
use roccc_cparse::ops::{self, Fault};
use roccc_cparse::types::IntType;
use roccc_suifvm::ir::Opcode;

/// Simulation error (division or remainder by zero in a valid iteration,
/// an opcode no netlist carries, a mistimed launch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError(pub String);

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "netlist simulation error: {}", self.0)
    }
}

impl std::error::Error for SimError {}

/// What netlist hardware computes when an operator faults — the one fault
/// policy of every netlist engine. Hardware has no traps: a negative shift
/// amount shifts by 0 (`lhs` passes through) and a negative LUT index
/// reads 0. A zero divisor is an error when `stage_valid`, i.e. a valid
/// iteration occupies the divider's stage; a bubble's garbage divides to 0.
#[inline(always)]
pub(crate) fn on_fault(fault: Fault, lhs: i64, stage_valid: bool) -> Result<i64, SimError> {
    match fault {
        Fault::DivByZero | Fault::RemByZero if stage_valid => Err(SimError(fault.to_string())),
        Fault::DivByZero | Fault::RemByZero | Fault::NegativeLutIndex => Ok(0),
        Fault::NegativeShift => Ok(lhs),
    }
}

/// The result of one simulated clock cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleResult {
    /// Output-port values after the clock edge.
    pub outputs: Vec<i64>,
    /// Whether the outputs correspond to a valid iteration.
    pub out_valid: bool,
}

/// A running netlist simulation.
#[derive(Debug, Clone)]
pub struct NetlistSim<'n> {
    nl: &'n Netlist,
    /// Current register states (indexed like cells; non-registers unused).
    regs: Vec<i64>,
    /// Valid-bit occupancy per pipeline stage.
    occupancy: Vec<bool>,
    /// Levelized pipeline stage per cell (divide/rem bubble gating).
    stages: Vec<u32>,
    cycles: u64,
}

impl<'n> NetlistSim<'n> {
    /// Creates a simulation with registers at their power-on values.
    pub fn new(nl: &'n Netlist) -> Self {
        let regs = nl
            .cells
            .iter()
            .map(|c| match c.kind {
                CellKind::Reg { init, .. } => c.ty().wrap(init),
                _ => 0,
            })
            .collect();
        NetlistSim {
            nl,
            regs,
            occupancy: vec![false; nl.latency.max(1) as usize],
            stages: cell_stages(nl),
            cycles: 0,
        }
    }

    /// Cycles simulated so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Current state of a feedback register by slot name.
    pub fn feedback_value(&self, name: &str) -> Option<i64> {
        self.nl
            .feedback_regs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, id)| self.regs[id.0 as usize])
    }

    /// Simulates one clock cycle: `args` drive the input ports, `valid`
    /// marks them as a real iteration. Returns the post-edge outputs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on division or remainder by zero while a valid
    /// iteration occupies the divider's stage (bubbles divide to 0), or on
    /// a valid launch off the initiation-interval grid.
    pub fn step(&mut self, args: &[i64], valid: bool) -> Result<CycleResult, SimError> {
        assert_eq!(args.len(), self.nl.inputs.len(), "input arity");
        let ii = self.nl.effective_ii();
        if valid && ii > 1 && !self.cycles.is_multiple_of(ii) {
            return Err(SimError(format!(
                "valid iteration presented at cycle {} of a schedule with II {ii}; \
                 launches must land on multiples of the initiation interval",
                self.cycles
            )));
        }
        self.cycles += 1;

        // Stage occupancy for THIS cycle: stage 0 holds the new iteration.
        let mut occ = vec![false; self.occupancy.len()];
        occ[0] = valid;
        let n_occ = occ.len();
        occ[1..].copy_from_slice(&self.occupancy[..n_occ - 1]);

        // Combinational settle.
        let mut vals: Vec<i64> = vec![0; self.nl.cells.len()];
        for (i, cell) in self.nl.cells.iter().enumerate() {
            let v = match &cell.kind {
                CellKind::Const(c) => *c,
                CellKind::Input(k) => self.nl.inputs[*k].1.wrap(args[*k]),
                CellKind::Reg { .. } => self.regs[i],
                CellKind::Op { op, srcs, imm } => {
                    let mut s = [0i64; 3];
                    for (slot, src) in s.iter_mut().zip(srcs) {
                        *slot = vals[src.0 as usize];
                    }
                    let value = match op {
                        // The wire wrap below does the narrowing.
                        Opcode::Cvt => Ok(s[0]),
                        Opcode::Lut => {
                            let t = &self.nl.roms[*imm as usize];
                            ops::lut(&t.data, s[0]).map(|v| t.elem.wrap(v))
                        }
                        op => op.eval(&s).ok_or_else(|| {
                            SimError(format!("opcode {op} cannot appear in a netlist"))
                        })?,
                    };
                    // The zero divisor only matters if a *valid* iteration
                    // occupies the divider's own stage; garbage bubbles are
                    // benign.
                    value.or_else(|f| {
                        let stage = self.stages[i] as usize;
                        on_fault(f, s[0], occ.get(stage).copied().unwrap_or(false))
                    })?
                }
            };
            let wire = IntType {
                signed: cell.signed,
                bits: cell.width.max(1),
            };
            vals[i] = wire.wrap(v);
        }

        // Clock edge.
        for (i, cell) in self.nl.cells.iter().enumerate() {
            if let CellKind::Reg { d, stage_gate, .. } = &cell.kind {
                let latch = match stage_gate {
                    None => true,
                    Some(s) => occ.get(*s as usize).copied().unwrap_or(false),
                };
                if latch {
                    let d = d.expect("verified netlist");
                    self.regs[i] = cell.ty().wrap(vals[d.0 as usize]);
                }
            }
        }
        let out_valid = *occ.last().unwrap_or(&false);
        self.occupancy = occ;

        let outputs = self
            .nl
            .outputs
            .iter()
            .map(|(_, ty, net)| ty.wrap(self.regs[net.0 as usize]))
            .collect();
        Ok(CycleResult { outputs, out_valid })
    }

    /// Convenience: streams `iterations` through the pipeline as densely
    /// as the initiation interval allows (back-to-back at II 1, every
    /// `ii` cycles otherwise) and returns only the valid outputs, in
    /// order.
    pub fn run_stream(&mut self, iterations: &[Vec<i64>]) -> Result<Vec<Vec<i64>>, SimError> {
        let mut out = Vec::with_capacity(iterations.len());
        let zeros = vec![0i64; self.nl.inputs.len()];
        let ii = self.nl.effective_ii();
        let total = iterations.len() as u64 * ii + self.nl.latency as u64 + 2;
        for t in 0..total {
            // Reuse the single zero buffer for bubble cycles instead of
            // cloning argument vectors on every iteration.
            let iter = (t % ii == 0)
                .then(|| iterations.get((t / ii) as usize))
                .flatten();
            let (args, valid) = match iter {
                Some(a) => (a.as_slice(), true),
                None => (zeros.as_slice(), false),
            };
            let r = self.step(args, valid)?;
            if r.out_valid {
                out.push(r.outputs);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::from_dp::netlist_from_datapath;
    use crate::from_dp::tests::dp_for;
    use roccc_cparse::interp::Interpreter;
    use roccc_cparse::parser::parse;
    use std::collections::HashMap;

    fn check_against_golden(src: &str, func: &str, period: f64, arg_sets: &[Vec<i64>]) {
        let prog = parse(src).unwrap();
        let dp = dp_for(src, func, period);
        let nl = netlist_from_datapath(&dp);
        nl.verify().unwrap();
        let mut sim = NetlistSim::new(&nl);
        let results = sim.run_stream(arg_sets).unwrap();
        assert_eq!(results.len(), arg_sets.len());
        for (args, hw) in arg_sets.iter().zip(&results) {
            let mut interp = Interpreter::new(&prog);
            let golden = interp.call(func, args, &mut HashMap::new()).unwrap();
            for ((name, _, _), v) in nl.outputs.iter().zip(hw) {
                assert_eq!(
                    *v,
                    golden.outputs[name.as_str()],
                    "output {name} args {args:?}"
                );
            }
        }
    }

    #[test]
    fn fir_netlist_matches_golden_combinational_and_pipelined() {
        let src = "void fir_dp(int A0, int A1, int A2, int A3, int A4, int* Tmp0) {
           *Tmp0 = 3*A0 + 5*A1 + 7*A2 + 9*A3 - A4; }";
        let args: Vec<Vec<i64>> = vec![
            vec![1, 2, 3, 4, 5],
            vec![-9, 8, -7, 6, -5],
            vec![1000, -1000, 500, -500, 0],
        ];
        check_against_golden(src, "fir_dp", 1000.0, &args);
        check_against_golden(src, "fir_dp", 5.0, &args);
        check_against_golden(src, "fir_dp", 3.0, &args);
    }

    #[test]
    fn if_else_netlist_matches_golden() {
        let src = "void if_else(int x1, int x2, int* x3, int* x4) {
           int a; int c;
           c = x1 - x2;
           if (c < x2) { a = x1 * x1; } else { a = x1 * x2 + 3; }
           c = c - a;
           *x3 = c; *x4 = a; }";
        check_against_golden(
            src,
            "if_else",
            6.0,
            &[vec![5, 3], vec![9, 2], vec![-5, -3], vec![0, 1]],
        );
    }

    #[test]
    fn pipeline_latency_matches_declared() {
        let src = "void f(int a, int b, int* o) { *o = (a * b) * (a + b) + a * 3; }";
        let dp = dp_for(src, "f", 4.0);
        let nl = netlist_from_datapath(&dp);
        let mut sim = NetlistSim::new(&nl);
        // Feed one valid iteration, then bubbles; out_valid must assert
        // exactly `latency` cycles later.
        let mut seen_at = None;
        let args = vec![3, 4];
        for t in 0..20u32 {
            let (a, v) = if t == 0 {
                (args.clone(), true)
            } else {
                (vec![0, 0], false)
            };
            let r = sim.step(&a, v).unwrap();
            if r.out_valid && seen_at.is_none() {
                seen_at = Some(t + 1);
            }
        }
        assert_eq!(seen_at, Some(nl.latency));
    }

    #[test]
    fn accumulator_ignores_bubbles() {
        let prog = parse(
            "void acc(int t0, int* t1) {
               int s; int c = ROCCC_load_prev(s) + t0;
               ROCCC_store2next(s, c);
               *t1 = c; }",
        )
        .unwrap();
        let f = prog.function("acc").unwrap();
        let fb = vec![roccc_hlir::kernel::FeedbackVar {
            name: "s".into(),
            ty: roccc_cparse::types::IntType::int(),
            init: 0,
        }];
        let mut ir = roccc_suifvm::lower_function(&prog, f, &fb).unwrap();
        roccc_suifvm::to_ssa(&mut ir);
        roccc_suifvm::optimize(&mut ir);
        let mut dp = roccc_datapath::build_datapath(&ir).unwrap();
        roccc_datapath::pipeline_datapath(&mut dp, 100.0, &roccc_datapath::DefaultDelayModel);
        roccc_datapath::narrow_widths(&mut dp);
        let nl = netlist_from_datapath(&dp);
        let mut sim = NetlistSim::new(&nl);
        // Valid 10, bubble with garbage 99, valid 5: sum must be 15, not 114.
        sim.step(&[10], true).unwrap();
        sim.step(&[99], false).unwrap();
        sim.step(&[5], true).unwrap();
        // Drain.
        for _ in 0..4 {
            sim.step(&[0], false).unwrap();
        }
        assert_eq!(sim.feedback_value("s"), Some(15));
    }

    #[test]
    fn divider_bubble_garbage_does_not_fault_reference_sim() {
        // Regression: a zero divisor in a *bubble* while a valid iteration
        // occupies some other stage must not raise division-by-zero. With
        // the old `occ.iter().any()` check, draining any pipelined divide
        // kernel with zeroed bubble args always faulted.
        let src = "void d(int a, int b, int* o) { *o = (a * a + b) / b; }";
        let dp = dp_for(src, "d", 4.0);
        let nl = netlist_from_datapath(&dp);
        assert!(nl.latency > 1, "test premise: pipelined");
        let mut sim = NetlistSim::new(&nl);
        sim.step(&[10, 3], true).unwrap();
        for _ in 0..(nl.latency + 2) {
            sim.step(&[0, 0], false).unwrap();
        }
        // run_stream drains with zero args: must now work for divides.
        let mut sim = NetlistSim::new(&nl);
        let outs = sim.run_stream(&[vec![9, 2], vec![8, 4]]).unwrap();
        assert_eq!(outs, vec![vec![(9 * 9 + 2) / 2], vec![(8 * 8 + 4) / 4]]);
    }

    #[test]
    fn run_stream_returns_one_output_per_iteration() {
        let src = "void f(uint8 a, uint8* o) { *o = a * 2 + 1; }";
        let dp = dp_for(src, "f", 1000.0);
        let nl = netlist_from_datapath(&dp);
        let mut sim = NetlistSim::new(&nl);
        let iters: Vec<Vec<i64>> = (0..10).map(|x| vec![x]).collect();
        let outs = sim.run_stream(&iters).unwrap();
        let expect: Vec<Vec<i64>> = (0..10).map(|x| vec![x * 2 + 1]).collect();
        assert_eq!(outs, expect);
    }

    #[test]
    fn lut_rom_in_netlist() {
        let src = "const uint16 tab[4] = {7, 14, 21, 28};
          void f(uint2 i, uint16* o) { *o = tab[i]; }";
        check_against_golden(src, "f", 1000.0, &[vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn narrow_output_ports_wrap_like_c() {
        check_against_golden(
            "void f(uint8 a, uint8 b, uint8* o) { *o = a * b + 17; }",
            "f",
            8.0,
            &[vec![255, 255], vec![16, 16], vec![0, 9]],
        );
    }

    #[test]
    fn mul_acc_style_predication() {
        check_against_golden(
            "void f(uint1 nd, int12 a, int12 b, int* o) {
               int p = 0;
               if (nd) { p = a * b; }
               *o = p + 1; }",
            "f",
            8.0,
            &[vec![1, 100, -100], vec![0, 100, -100], vec![1, 2047, 2047]],
        );
    }
}
