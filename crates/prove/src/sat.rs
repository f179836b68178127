//! In-tree CDCL SAT solver (std-only).
//!
//! Classic architecture: two-watched-literal propagation, first-UIP
//! conflict analysis with clause learning, activity-driven branching
//! (VSIDS over an indexed heap), phase saving, geometric restarts, and a
//! hard conflict budget that yields an honest [`SolveResult::Unknown`].
//!
//! Branching picks the unassigned variable with the greatest
//! `(activity, index)` pair. The heap holds every unassigned variable
//! under its current activity (assigned ones leave it lazily, when they
//! surface at the top), so its maximum is that variable.
//!
//! Literals use DIMACS convention: variable `v >= 1`, literal `v` or `-v`.
//! Clauses are only added before `solve` is called.
//!
//! Storage is flat: every clause's literals live back to back in one
//! arena, and a clause is its `(start, len)` span; conflict analysis
//! reads clauses in place and reuses its buffers.

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found (read it via [`Solver::value`]).
    Sat,
    /// The clause set is unsatisfiable.
    Unsat,
    /// The conflict budget ran out before a verdict.
    Unknown,
}

/// Search statistics, reported in certificates.
#[derive(Debug, Clone, Copy, Default)]
pub struct SatStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Branching decisions.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Clauses learned.
    pub learned: u64,
}

const NO_REASON: u32 = u32::MAX;

/// Marker in [`VarOrder::pos`] for a variable outside the heap.
const ABSENT: u32 = u32::MAX;

/// Branching order: a binary max-heap of variables keyed by
/// `(activity, variable)`, with each variable's heap position so a bumped
/// variable can move up in place.
#[derive(Default)]
struct VarOrder {
    heap: Vec<u32>,
    /// Heap index of each variable, or [`ABSENT`].
    pos: Vec<u32>,
}

impl VarOrder {
    fn above(act: &[f64], a: u32, b: u32) -> bool {
        (act[a as usize].to_bits(), a) > (act[b as usize].to_bits(), b)
    }

    fn contains(&self, v: usize) -> bool {
        self.pos.get(v).is_some_and(|&p| p != ABSENT)
    }

    fn place(&mut self, i: usize, v: u32) {
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::above(act, v, self.heap[parent]) {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, v);
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        loop {
            let l = 2 * i + 1;
            if l >= self.heap.len() {
                break;
            }
            let r = l + 1;
            let c = if r < self.heap.len() && Self::above(act, self.heap[r], self.heap[l]) {
                r
            } else {
                l
            };
            if !Self::above(act, self.heap[c], v) {
                break;
            }
            self.place(i, self.heap[c]);
            i = c;
        }
        self.place(i, v);
    }

    /// Adds `v` unless it is already in the heap.
    fn insert(&mut self, v: usize, act: &[f64]) {
        if self.pos.len() <= v {
            self.pos.resize(v + 1, ABSENT);
        }
        if self.pos[v] != ABSENT {
            return;
        }
        self.heap.push(v as u32);
        self.pos[v] = (self.heap.len() - 1) as u32;
        self.sift_up(self.heap.len() - 1, act);
    }

    /// Restores order after `v`'s activity grew.
    fn raised(&mut self, v: usize, act: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.pos[v] as usize, act);
        }
    }

    /// Removes and returns the top variable.
    fn pop(&mut self, act: &[f64]) -> Option<usize> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty heap");
        self.pos[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.place(0, last);
            self.sift_down(0, act);
        }
        Some(top as usize)
    }

    /// Refills the heap with variables `1..=n` (when a search starts, and
    /// after a rescale, which can merge activities and so reorder ties).
    fn rebuild(&mut self, n: usize, act: &[f64]) {
        self.heap = (1..=n as u32).collect();
        self.pos = vec![ABSENT; n + 1];
        for (i, &v) in self.heap.iter().enumerate() {
            self.pos[v as usize] = i as u32;
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, act);
        }
    }
}

/// A CDCL solver instance.
pub struct Solver {
    nvars: usize,
    /// Literals of every clause (original and learned), back to back.
    lits: Vec<i32>,
    /// `(start, len)` of each clause in `lits`, indexed by clause id.
    clauses: Vec<(u32, u32)>,
    /// Watch lists indexed by literal code (`2v` for `v`, `2v+1` for `-v`).
    watches: Vec<Vec<u32>>,
    /// Per-variable assignment: 0 unset, 1 true, -1 false.
    assign: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<i32>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarOrder,
    phase: Vec<bool>,
    ok: bool,
    /// Conflict-analysis marks, all clear between analyses.
    seen: Vec<bool>,
    /// The clause `analyze` learned last (asserting literal first).
    learnt: Vec<i32>,
    /// Search statistics for the last `solve`.
    pub stats: SatStats,
}

fn lidx(l: i32) -> usize {
    debug_assert!(l != 0);
    (l.unsigned_abs() as usize) * 2 + (l < 0) as usize
}

fn var(l: i32) -> usize {
    l.unsigned_abs() as usize
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            nvars: 0,
            lits: Vec::new(),
            clauses: Vec::new(),
            watches: vec![Vec::new(); 2],
            assign: vec![0],
            level: vec![0],
            reason: vec![NO_REASON],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0],
            var_inc: 1.0,
            order: VarOrder::default(),
            phase: vec![false],
            ok: true,
            seen: Vec::new(),
            learnt: Vec::new(),
            stats: SatStats::default(),
        }
    }

    /// Allocates a fresh variable, returning its (positive) literal.
    pub fn new_var(&mut self) -> i32 {
        self.nvars += 1;
        self.assign.push(0);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.nvars as i32
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.nvars
    }

    /// Number of clauses (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    #[inline]
    fn lit_value(&self, l: i32) -> i8 {
        let a = self.assign[var(l)];
        if l < 0 {
            -a
        } else {
            a
        }
    }

    /// Adds a clause; call only before `solve`. Tautologies are dropped,
    /// level-0-false literals removed, duplicates deduped.
    pub fn add_clause(&mut self, lits: &[i32]) {
        if !self.ok {
            return;
        }
        // Build the clause in place at the arena's tail.
        let start = self.lits.len();
        for &l in lits {
            debug_assert!(var(l) <= self.nvars, "clause uses unallocated var");
            match self.lit_value(l) {
                1 => {
                    // satisfied at level 0
                    self.lits.truncate(start);
                    return;
                }
                -1 => continue, // false at level 0
                _ => {}
            }
            let c = &self.lits[start..];
            if c.contains(&-l) {
                // tautology
                self.lits.truncate(start);
                return;
            }
            if !c.contains(&l) {
                self.lits.push(l);
            }
        }
        match self.lits.len() - start {
            0 => self.ok = false,
            1 => {
                let unit = self.lits.pop().expect("one literal");
                self.enqueue(unit, NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
            }
            n => self.attach(start, n),
        }
    }

    /// Records the clause at `lits[start..start + len]`, watching its
    /// first two literals.
    fn attach(&mut self, start: usize, len: usize) {
        let cr = self.clauses.len() as u32;
        self.watches[lidx(self.lits[start])].push(cr);
        self.watches[lidx(self.lits[start + 1])].push(cr);
        self.clauses.push((start as u32, len as u32));
    }

    fn enqueue(&mut self, l: i32, from: u32) {
        debug_assert_eq!(self.lit_value(l), 0);
        let v = var(l);
        self.assign[v] = if l > 0 { 1 } else { -1 };
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = from;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause index on conflict.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let fl = -p; // literal now false
            let mut ws = std::mem::take(&mut self.watches[lidx(fl)]);
            let mut i = 0;
            while i < ws.len() {
                let cr = ws[i];
                let (start, len) = self.clauses[cr as usize];
                let (s, e) = (start as usize, (start + len) as usize);
                if self.lits[s] == fl {
                    self.lits.swap(s, s + 1);
                }
                debug_assert_eq!(self.lits[s + 1], fl);
                let w0 = self.lits[s];
                if self.lit_value(w0) == 1 {
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                let mut moved = false;
                for k in s + 2..e {
                    let q = self.lits[k];
                    let a = self.assign[var(q)];
                    if a == 0 || (q > 0) == (a == 1) {
                        self.lits.swap(s + 1, k);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    let nw = self.lits[s + 1];
                    self.watches[lidx(nw)].push(cr);
                    ws.swap_remove(i);
                    continue;
                }
                if self.lit_value(w0) == -1 {
                    // Conflict: restore the remaining watches and bail.
                    self.watches[lidx(fl)] = ws;
                    self.qhead = self.trail.len();
                    return Some(cr);
                }
                self.enqueue(w0, cr);
                i += 1;
            }
            self.watches[lidx(fl)] = ws;
        }
        None
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in self.activity.iter_mut() {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.order.rebuild(self.nvars, &self.activity);
        } else {
            self.order.raised(v, &self.activity);
        }
    }

    /// First-UIP conflict analysis: leaves the learned clause (asserting
    /// literal first) in `self.learnt` and returns the backjump level.
    fn analyze(&mut self, mut confl: u32) -> u32 {
        let cur = self.trail_lim.len() as u32;
        if self.seen.len() <= self.nvars {
            self.seen.resize(self.nvars + 1, false);
        }
        self.learnt.clear();
        self.learnt.push(0);
        let mut counter = 0usize;
        let mut idx = self.trail.len();
        let mut p: i32 = 0;
        loop {
            let (start, len) = self.clauses[confl as usize];
            let from = if p == 0 { 0 } else { 1 };
            for k in start as usize + from..(start + len) as usize {
                let q = self.lits[k];
                let v = var(q);
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] == cur {
                        counter += 1;
                    } else {
                        self.learnt.push(q);
                    }
                }
            }
            loop {
                idx -= 1;
                p = self.trail[idx];
                if self.seen[var(p)] {
                    break;
                }
            }
            self.seen[var(p)] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            confl = self.reason[var(p)];
            debug_assert_ne!(confl, NO_REASON);
        }
        self.learnt[0] = -p;
        // Only the lower-level literals are still marked.
        for &q in &self.learnt[1..] {
            self.seen[var(q)] = false;
        }
        let bj = self.learnt[1..]
            .iter()
            .map(|&q| self.level[var(q)])
            .max()
            .unwrap_or(0);
        // Put a max-level literal in the second watch slot.
        if self.learnt.len() > 1 {
            let k = self.learnt[1..]
                .iter()
                .position(|&q| self.level[var(q)] == bj)
                .unwrap()
                + 1;
            self.learnt.swap(1, k);
        }
        bj
    }

    fn cancel_until(&mut self, lvl: u32) {
        while self.trail_lim.len() as u32 > lvl {
            let lim = self.trail_lim.pop().unwrap();
            while self.trail.len() > lim {
                let l = self.trail.pop().unwrap();
                let v = var(l);
                self.phase[v] = l > 0;
                self.assign[v] = 0;
                self.reason[v] = NO_REASON;
                self.order.insert(v, &self.activity);
            }
        }
        self.qhead = self.trail.len();
    }

    /// Branches on the most active unassigned variable; false when every
    /// variable is assigned (the heap holds all unassigned ones).
    fn decide(&mut self) -> bool {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assign[v] == 0 {
                self.trail_lim.push(self.trail.len());
                let l = if self.phase[v] { v as i32 } else { -(v as i32) };
                self.enqueue(l, NO_REASON);
                self.stats.decisions += 1;
                return true;
            }
        }
        debug_assert!(self.assign[1..].iter().all(|&a| a != 0));
        false
    }

    /// Runs the search with a conflict budget.
    pub fn solve(&mut self, conflict_budget: u64) -> SolveResult {
        self.stats = SatStats::default();
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.order.rebuild(self.nvars, &self.activity);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        let mut restart_at: u64 = 128;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.trail_lim.is_empty() {
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                if self.stats.conflicts >= conflict_budget {
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
                let bj = self.analyze(confl);
                self.cancel_until(bj);
                self.stats.learned += 1;
                let l0 = self.learnt[0];
                if self.learnt.len() == 1 {
                    self.enqueue(l0, NO_REASON);
                } else {
                    let cr = self.clauses.len() as u32;
                    let start = self.lits.len();
                    self.lits.extend_from_slice(&self.learnt);
                    self.attach(start, self.learnt.len());
                    self.enqueue(l0, cr);
                }
                self.var_inc *= 1.0 / 0.95;
            } else if self.stats.conflicts >= restart_at {
                restart_at = restart_at * 3 / 2 + 64;
                self.cancel_until(0);
            } else if !self.decide() {
                return SolveResult::Sat;
            }
        }
    }

    /// Model value of `lit` after a `Sat` result (unassigned → false).
    pub fn value(&self, l: i32) -> bool {
        self.lit_value(l) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a, b]);
        s.add_clause(&[-a, b]);
        assert_eq!(s.solve(1000), SolveResult::Sat);
        assert!(s.value(b));

        let mut u = Solver::new();
        let x = u.new_var();
        u.add_clause(&[x]);
        u.add_clause(&[-x]);
        assert_eq!(u.solve(1000), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j]: pigeon i sits in hole j.
        let mut s = Solver::new();
        let mut p = [[0i32; 2]; 3];
        for row in p.iter_mut() {
            for v in row.iter_mut() {
                *v = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[row[0], row[1]]);
        }
        for i in 0..3 {
            for k in (i + 1)..3 {
                for (a, b) in p[i].iter().zip(&p[k]) {
                    s.add_clause(&[-a, -b]);
                }
            }
        }
        assert_eq!(s.solve(100_000), SolveResult::Unsat);
    }

    #[test]
    fn chain_implication_propagates() {
        let mut s = Solver::new();
        let vars: Vec<i32> = (0..32).map(|_| s.new_var()).collect();
        for w in vars.windows(2) {
            s.add_clause(&[-w[0], w[1]]);
        }
        s.add_clause(&[vars[0]]);
        assert_eq!(s.solve(1000), SolveResult::Sat);
        assert!(s.value(vars[31]));
    }

    #[test]
    fn budget_yields_unknown_on_hard_instance() {
        // Pigeonhole 7 into 6 with a 10-conflict budget must time out.
        let n = 7;
        let m = 6;
        let mut s = Solver::new();
        let mut p = vec![vec![0i32; m]; n];
        for row in p.iter_mut() {
            for v in row.iter_mut() {
                *v = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&row.clone());
        }
        for i in 0..n {
            for k in (i + 1)..n {
                for (a, b) in p[i].iter().zip(&p[k]) {
                    s.add_clause(&[-a, -b]);
                }
            }
        }
        assert_eq!(s.solve(10), SolveResult::Unknown);
    }
}
