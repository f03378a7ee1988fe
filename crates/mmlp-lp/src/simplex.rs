//! A dense two-phase primal simplex solver.
//!
//! The solver works on the classical full tableau: phase 1 minimises the sum
//! of artificial variables to find a basic feasible solution, phase 2
//! optimises the user objective.  Entering columns are chosen by Dantzig's
//! rule (largest reduced cost) with an automatic switch to Bland's rule after
//! a fixed number of pivots, which guarantees termination even on degenerate
//! instances.
//!
//! The implementation favours clarity and robustness over raw speed: the LPs
//! solved in this repository are the bounded-size local LPs (9) of the paper
//! and moderate-size global baselines, for which a dense tableau is entirely
//! adequate.  Every solve is a cold two-phase run with fixed tie-breaking, so
//! the returned `x` is a deterministic function of the problem and the
//! options: callers that need to reuse a result memoise it by problem.

use crate::problem::{ConstraintOp, LpError, LpProblem, ObjectiveSense};

/// Outcome classification of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

/// Result of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Outcome classification.
    pub status: LpStatus,
    /// The primal solution (meaningful only when `status == Optimal`;
    /// a feasible point of the phase-1 relaxation otherwise, or empty).
    pub x: Vec<f64>,
    /// Objective value of `x` under the problem's own sense
    /// (meaningful only when `status == Optimal`).
    pub objective: f64,
    /// Total number of simplex *iterations* (entering/leaving pivots)
    /// performed across both phases.
    pub pivots: usize,
}

/// Tuning knobs for the simplex solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimplexOptions {
    /// Absolute tolerance used for reduced costs, ratio tests and
    /// feasibility checks.
    pub tolerance: f64,
    /// Hard cap on the number of pivots per phase (0 = automatic:
    /// `200 · (rows + columns) + 1000`).
    pub max_pivots: usize,
    /// Number of Dantzig pivots before switching to Bland's rule
    /// (0 = automatic: `20 · (rows + columns)`).
    pub bland_after: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        Self { tolerance: 1e-9, max_pivots: 0, bland_after: 0 }
    }
}

/// Solves `problem` with the default options.
pub fn solve(problem: &LpProblem) -> Result<LpSolution, LpError> {
    solve_with(problem, &SimplexOptions::default())
}

/// Solves `problem` with explicit options.
pub fn solve_with(problem: &LpProblem, options: &SimplexOptions) -> Result<LpSolution, LpError> {
    problem.validate()?;
    Tableau::build(problem, options).solve(problem)
}

/// The dense simplex tableau together with its basis bookkeeping.
struct Tableau {
    /// `rows[r]` has `num_cols + 1` entries; the last one is the RHS.
    rows: Vec<Vec<f64>>,
    /// Basis variable (column index) of each row.
    basis: Vec<usize>,
    /// `is_basic[j]` iff column `j` is in `basis`.
    is_basic: Vec<bool>,
    /// The reduced costs of the current pricing pass, reused across passes.
    reduced: Vec<f64>,
    /// The normalised pivot row of the current pivot, reused across pivots.
    pivot_buf: Vec<f64>,
    /// Total number of columns (structural + slack/surplus + artificial).
    num_cols: usize,
    /// Number of structural variables.
    num_structural: usize,
    /// Column indices of the artificial variables.
    artificial_start: usize,
    tolerance: f64,
    max_pivots: usize,
    bland_after: usize,
    pivots: usize,
}

impl Tableau {
    fn build(problem: &LpProblem, options: &SimplexOptions) -> Self {
        let n = problem.num_vars;
        let m = problem.constraints.len();

        // Normalise rows so that every RHS is non-negative: a row with a
        // negative RHS is negated and its inequality flipped.
        let ops: Vec<ConstraintOp> = problem
            .constraints
            .iter()
            .map(|c| match c.op {
                ConstraintOp::Le if c.rhs < 0.0 => ConstraintOp::Ge,
                ConstraintOp::Ge if c.rhs < 0.0 => ConstraintOp::Le,
                op => op,
            })
            .collect();

        // Column layout: structural | slack & surplus | artificial.
        let num_slack = ops
            .iter()
            .filter(|op| matches!(op, ConstraintOp::Le | ConstraintOp::Ge))
            .count();
        let num_artificial = ops
            .iter()
            .filter(|op| matches!(op, ConstraintOp::Ge | ConstraintOp::Eq))
            .count();
        let slack_start = n;
        let artificial_start = n + num_slack;
        let num_cols = n + num_slack + num_artificial;

        let mut rows = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);
        let mut next_slack = slack_start;
        let mut next_artificial = artificial_start;
        for (c, op) in problem.constraints.iter().zip(&ops) {
            let mut row = vec![0.0; num_cols + 1];
            for (j, a) in &c.coeffs {
                row[*j] += a;
            }
            if c.rhs < 0.0 {
                for a in &mut row[..n] {
                    *a = -*a;
                }
                row[num_cols] = -c.rhs;
            } else {
                row[num_cols] = c.rhs;
            }
            match op {
                ConstraintOp::Le => {
                    row[next_slack] = 1.0;
                    basis.push(next_slack);
                    next_slack += 1;
                }
                ConstraintOp::Ge => {
                    row[next_slack] = -1.0;
                    next_slack += 1;
                    row[next_artificial] = 1.0;
                    basis.push(next_artificial);
                    next_artificial += 1;
                }
                ConstraintOp::Eq => {
                    row[next_artificial] = 1.0;
                    basis.push(next_artificial);
                    next_artificial += 1;
                }
            }
            rows.push(row);
        }

        let auto_max = 200 * (m + num_cols) + 1000;
        let auto_bland = 20 * (m + num_cols);
        let mut is_basic = vec![false; num_cols];
        for &b in &basis {
            is_basic[b] = true;
        }
        Tableau {
            rows,
            basis,
            is_basic,
            reduced: Vec::with_capacity(num_cols),
            pivot_buf: Vec::with_capacity(num_cols + 1),
            num_cols,
            num_structural: n,
            artificial_start,
            tolerance: options.tolerance,
            max_pivots: if options.max_pivots == 0 { auto_max } else { options.max_pivots },
            bland_after: if options.bland_after == 0 { auto_bland } else { options.bland_after },
            pivots: 0,
        }
    }

    fn solve(mut self, problem: &LpProblem) -> Result<LpSolution, LpError> {
        // ---- Phase 1: maximise −Σ artificials (feasibility). ----
        if self.artificial_start < self.num_cols {
            let mut phase1_cost = vec![0.0; self.num_cols];
            for c in phase1_cost.iter_mut().skip(self.artificial_start) {
                *c = -1.0;
            }
            let status = self.optimize(&phase1_cost, false)?;
            debug_assert_ne!(status, LpStatus::Unbounded, "phase 1 objective is bounded by 0");
            let infeasibility: f64 = self
                .basis
                .iter()
                .zip(&self.rows)
                .filter(|(b, _)| **b >= self.artificial_start)
                .map(|(_, row)| row[self.num_cols])
                .sum();
            if infeasibility > self.feasibility_tolerance() {
                return Ok(LpSolution {
                    status: LpStatus::Infeasible,
                    x: vec![],
                    objective: f64::NAN,
                    pivots: self.pivots,
                });
            }
            self.drive_out_artificials();
        }
        self.phase2(problem)
    }

    /// Phase 2 from the current (feasible) basis: optimise the user
    /// objective and extract the solution.
    fn phase2(&mut self, problem: &LpProblem) -> Result<LpSolution, LpError> {
        let mut cost = vec![0.0; self.num_cols];
        let maximize = problem.sense == ObjectiveSense::Maximize;
        for (j, c) in problem.objective.iter().enumerate() {
            cost[j] = if maximize { *c } else { -*c };
        }
        let status = self.optimize(&cost, true)?;
        if status == LpStatus::Unbounded {
            return Ok(LpSolution {
                status,
                x: vec![],
                objective: if maximize { f64::INFINITY } else { f64::NEG_INFINITY },
                pivots: self.pivots,
            });
        }

        let x = self.extract_solution();
        let objective = problem.objective_value(&x);
        Ok(LpSolution { status: LpStatus::Optimal, x, objective, pivots: self.pivots })
    }

    /// A slightly looser tolerance for the final phase-1 feasibility decision;
    /// pivoting accumulates error proportional to the problem size.
    fn feasibility_tolerance(&self) -> f64 {
        self.tolerance * 100.0 * (1 + self.rows.len()) as f64
    }

    /// Runs simplex pivots until no entering column improves the given cost
    /// vector.  When `block_artificials` is set, artificial columns may not
    /// enter the basis (used in phase 2).
    fn optimize(&mut self, cost: &[f64], block_artificials: bool) -> Result<LpStatus, LpError> {
        let mut local_pivots = 0usize;
        loop {
            if local_pivots > self.max_pivots {
                return Err(LpError::IterationLimit { iterations: self.pivots });
            }
            let use_bland = local_pivots > self.bland_after;
            let Some(entering) = self.choose_entering(cost, block_artificials, use_bland) else {
                return Ok(LpStatus::Optimal);
            };
            let Some(leaving_row) = self.choose_leaving(entering) else {
                return Ok(LpStatus::Unbounded);
            };
            self.pivot(leaving_row, entering);
            local_pivots += 1;
            self.pivots += 1;
        }
    }

    /// Picks the entering column: the largest reduced cost above the
    /// tolerance (Dantzig), or the first one (Bland).
    ///
    /// The reduced cost of column `j` is `c_j − Σ_r c_{basis(r)} · T[r][j]`,
    /// summed in row order.  Pricing runs row by row over the basic rows
    /// with a non-zero cost only (the others add nothing), updating every
    /// column's reduced cost at once: each column still sees the same
    /// products subtracted in the same order, hence the same bits.
    fn choose_entering(
        &mut self,
        cost: &[f64],
        block_artificials: bool,
        use_bland: bool,
    ) -> Option<usize> {
        let limit = if block_artificials { self.artificial_start } else { self.num_cols };
        let reduced = &mut self.reduced;
        reduced.clear();
        reduced.extend_from_slice(&cost[..limit]);
        for (row, &b) in self.rows.iter().zip(&self.basis) {
            let cb = cost[b];
            if cb != 0.0 {
                for (rc, &t) in reduced.iter_mut().zip(&row[..limit]) {
                    *rc -= cb * t;
                }
            }
        }
        let mut best: Option<(usize, f64)> = None;
        for (j, &rc) in reduced.iter().enumerate() {
            if self.is_basic[j] {
                continue;
            }
            if rc > self.tolerance {
                if use_bland {
                    return Some(j);
                }
                match best {
                    Some((_, best_rc)) if best_rc >= rc => {}
                    _ => best = Some((j, rc)),
                }
            }
        }
        best.map(|(j, _)| j)
    }

    /// Ratio test; ties are broken towards the smallest basis index, which
    /// together with Bland's entering rule prevents cycling.
    fn choose_leaving(&self, entering: usize) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (r, row) in self.rows.iter().enumerate() {
            let coeff = row[entering];
            if coeff > self.tolerance {
                let ratio = row[self.num_cols] / coeff;
                let better = match best {
                    None => true,
                    Some((best_r, best_ratio)) => {
                        ratio < best_ratio - self.tolerance
                            || (ratio < best_ratio + self.tolerance
                                && self.basis[r] < self.basis[best_r])
                    }
                };
                if better {
                    best = Some((r, ratio));
                }
            }
        }
        best.map(|(r, _)| r)
    }

    fn pivot(&mut self, pivot_row: usize, entering: usize) {
        let pivot_value = self.rows[pivot_row][entering];
        debug_assert!(pivot_value.abs() > self.tolerance, "pivot on a ~zero element");
        let inv = 1.0 / pivot_value;
        for value in self.rows[pivot_row].iter_mut() {
            *value *= inv;
        }
        self.pivot_buf.clear();
        self.pivot_buf.extend_from_slice(&self.rows[pivot_row]);
        for (r, row) in self.rows.iter_mut().enumerate() {
            if r == pivot_row {
                continue;
            }
            let factor = row[entering];
            if factor != 0.0 {
                for (value, pivot_entry) in row.iter_mut().zip(&self.pivot_buf) {
                    *value -= factor * pivot_entry;
                }
                // Guard against drift: the entering column must be exactly 0
                // in all non-pivot rows after elimination.
                row[entering] = 0.0;
            }
        }
        self.is_basic[self.basis[pivot_row]] = false;
        self.is_basic[entering] = true;
        self.basis[pivot_row] = entering;
    }

    /// After phase 1, pivot any artificial variable that is still basic (at
    /// value 0) out of the basis, or drop its row if the constraint turned
    /// out to be redundant.
    fn drive_out_artificials(&mut self) {
        let mut r = 0;
        while r < self.rows.len() {
            if self.basis[r] < self.artificial_start {
                r += 1;
                continue;
            }
            // Find a non-artificial, non-basic column to pivot on.
            let pivot_col = (0..self.artificial_start)
                .find(|&j| self.rows[r][j].abs() > self.tolerance && !self.is_basic[j]);
            if let Some(j) = pivot_col {
                self.pivot(r, j);
                self.pivots += 1;
                r += 1;
            } else {
                // The row is a linear combination of the others: drop it.
                self.rows.swap_remove(r);
                self.is_basic[self.basis.swap_remove(r)] = false;
            }
        }
    }

    fn extract_solution(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.num_structural];
        for (row, &b) in self.rows.iter().zip(&self.basis) {
            if b < self.num_structural {
                // Clamp tiny negative values produced by rounding.
                x[b] = row[self.num_cols].max(0.0);
            }
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LpConstraint, LpProblem, ObjectiveSense};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a}");
    }

    #[test]
    fn simple_two_variable_maximum() {
        // max 3x + 5y  s.t.  x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18  (classic example).
        // Optimum: x = 2, y = 6, objective 36.
        let mut p = LpProblem::new(2, ObjectiveSense::Maximize);
        p.set_objective(0, 3.0).set_objective(1, 5.0);
        p.add_constraint(LpConstraint::le(vec![(0, 1.0)], 4.0));
        p.add_constraint(LpConstraint::le(vec![(1, 2.0)], 12.0));
        p.add_constraint(LpConstraint::le(vec![(0, 3.0), (1, 2.0)], 18.0));
        let sol = solve(&p).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 36.0, 1e-7);
        assert_close(sol.x[0], 2.0, 1e-7);
        assert_close(sol.x[1], 6.0, 1e-7);
        assert!(p.is_feasible(&sol.x, 1e-7));
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y  s.t.  x + y ≥ 10, x ≥ 2, y ≥ 3.
        // Optimum: x = 7, y = 3 → 23.
        let mut p = LpProblem::new(2, ObjectiveSense::Minimize);
        p.set_objective(0, 2.0).set_objective(1, 3.0);
        p.add_constraint(LpConstraint::ge(vec![(0, 1.0), (1, 1.0)], 10.0));
        p.add_constraint(LpConstraint::ge(vec![(0, 1.0)], 2.0));
        p.add_constraint(LpConstraint::ge(vec![(1, 1.0)], 3.0));
        let sol = solve(&p).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 23.0, 1e-7);
        assert_close(sol.x[0], 7.0, 1e-7);
        assert_close(sol.x[1], 3.0, 1e-7);
    }

    #[test]
    fn equality_constraints() {
        // max x + 2y  s.t.  x + y = 4, x − y ≤ 2.
        // Optimum: y as large as possible: x = 0, y = 4 → 8.
        let mut p = LpProblem::new(2, ObjectiveSense::Maximize);
        p.set_objective(0, 1.0).set_objective(1, 2.0);
        p.add_constraint(LpConstraint::eq(vec![(0, 1.0), (1, 1.0)], 4.0));
        p.add_constraint(LpConstraint::le(vec![(0, 1.0), (1, -1.0)], 2.0));
        let sol = solve(&p).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 8.0, 1e-7);
        assert_close(sol.x[0], 0.0, 1e-7);
        assert_close(sol.x[1], 4.0, 1e-7);
    }

    #[test]
    fn infeasible_problem_is_detected() {
        // x ≤ 1 and x ≥ 2 cannot both hold.
        let mut p = LpProblem::new(1, ObjectiveSense::Maximize);
        p.set_objective(0, 1.0);
        p.add_constraint(LpConstraint::le(vec![(0, 1.0)], 1.0));
        p.add_constraint(LpConstraint::ge(vec![(0, 1.0)], 2.0));
        let sol = solve(&p).unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_problem_is_detected() {
        // max x with only x ≥ 1.
        let mut p = LpProblem::new(1, ObjectiveSense::Maximize);
        p.set_objective(0, 1.0);
        p.add_constraint(LpConstraint::ge(vec![(0, 1.0)], 1.0));
        let sol = solve(&p).unwrap();
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn unconstrained_problems() {
        // No constraints, non-positive objective: x = 0 is optimal.
        let mut p = LpProblem::new(2, ObjectiveSense::Maximize);
        p.set_objective(0, -1.0);
        let sol = solve(&p).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 0.0, 1e-9);

        // No constraints, positive objective: unbounded.
        let mut p = LpProblem::new(1, ObjectiveSense::Maximize);
        p.set_objective(0, 1.0);
        assert_eq!(solve(&p).unwrap().status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalised() {
        // −x ≤ −3 means x ≥ 3; minimise x → 3.
        let mut p = LpProblem::new(1, ObjectiveSense::Minimize);
        p.set_objective(0, 1.0);
        p.add_constraint(LpConstraint::le(vec![(0, -1.0)], -3.0));
        let sol = solve(&p).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.x[0], 3.0, 1e-7);
    }

    #[test]
    fn redundant_equalities_are_handled() {
        // x + y = 2 stated twice plus the implied 2x + 2y = 4.
        let mut p = LpProblem::new(2, ObjectiveSense::Maximize);
        p.set_objective(0, 1.0);
        p.add_constraint(LpConstraint::eq(vec![(0, 1.0), (1, 1.0)], 2.0));
        p.add_constraint(LpConstraint::eq(vec![(0, 1.0), (1, 1.0)], 2.0));
        p.add_constraint(LpConstraint::eq(vec![(0, 2.0), (1, 2.0)], 4.0));
        let sol = solve(&p).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 2.0, 1e-7);
        assert_close(sol.x[0], 2.0, 1e-7);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Highly degenerate: many constraints active at the optimum.
        let mut p = LpProblem::new(3, ObjectiveSense::Maximize);
        p.set_objective(0, 1.0).set_objective(1, 1.0).set_objective(2, 1.0);
        for a in 0..3usize {
            for b in 0..3usize {
                if a != b {
                    p.add_constraint(LpConstraint::le(vec![(a, 1.0), (b, 1.0)], 1.0));
                }
            }
        }
        p.add_constraint(LpConstraint::le(vec![(0, 1.0), (1, 1.0), (2, 1.0)], 1.0));
        let sol = solve(&p).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 1.0, 1e-7);
    }

    #[test]
    fn duplicate_sparse_entries_are_summed() {
        // Coefficient list mentions variable 0 twice: 0.5 + 0.5 = 1.
        let mut p = LpProblem::new(1, ObjectiveSense::Maximize);
        p.set_objective(0, 1.0);
        p.add_constraint(LpConstraint::le(vec![(0, 0.5), (0, 0.5)], 2.0));
        let sol = solve(&p).unwrap();
        assert_close(sol.x[0], 2.0, 1e-7);
    }

    #[test]
    fn fractional_packing_example() {
        // max x1 + x2 + x3 subject to pairwise packing constraints
        // x1 + x2 ≤ 1, x2 + x3 ≤ 1, x1 + x3 ≤ 1: optimum 1.5 at (0.5,0.5,0.5).
        let mut p = LpProblem::new(3, ObjectiveSense::Maximize);
        for j in 0..3 {
            p.set_objective(j, 1.0);
        }
        p.add_constraint(LpConstraint::le(vec![(0, 1.0), (1, 1.0)], 1.0));
        p.add_constraint(LpConstraint::le(vec![(1, 1.0), (2, 1.0)], 1.0));
        p.add_constraint(LpConstraint::le(vec![(0, 1.0), (2, 1.0)], 1.0));
        let sol = solve(&p).unwrap();
        assert_close(sol.objective, 1.5, 1e-7);
        for j in 0..3 {
            assert_close(sol.x[j], 0.5, 1e-7);
        }
    }

    #[test]
    fn mixed_constraint_types() {
        // max 2x + y  s.t.  x + y ≤ 10, x − y ≥ 3, y = 2  →  x = 8? No:
        // x + 2 ≤ 10 → x ≤ 8; x − 2 ≥ 3 → x ≥ 5; optimum x = 8, obj = 18.
        let mut p = LpProblem::new(2, ObjectiveSense::Maximize);
        p.set_objective(0, 2.0).set_objective(1, 1.0);
        p.add_constraint(LpConstraint::le(vec![(0, 1.0), (1, 1.0)], 10.0));
        p.add_constraint(LpConstraint::ge(vec![(0, 1.0), (1, -1.0)], 3.0));
        p.add_constraint(LpConstraint::eq(vec![(1, 1.0)], 2.0));
        let sol = solve(&p).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.x[0], 8.0, 1e-7);
        assert_close(sol.x[1], 2.0, 1e-7);
        assert_close(sol.objective, 18.0, 1e-7);
    }

    #[test]
    fn zero_rhs_constraints() {
        // max ω subject to ω − x ≤ 0, x ≤ 1: optimum ω = x = 1.
        let mut p = LpProblem::new(2, ObjectiveSense::Maximize);
        p.set_objective(1, 1.0);
        p.add_constraint(LpConstraint::le(vec![(1, 1.0), (0, -1.0)], 0.0));
        p.add_constraint(LpConstraint::le(vec![(0, 1.0)], 1.0));
        let sol = solve(&p).unwrap();
        assert_close(sol.objective, 1.0, 1e-7);
    }

    #[test]
    fn reports_pivot_count() {
        let mut p = LpProblem::new(2, ObjectiveSense::Maximize);
        p.set_objective(0, 1.0).set_objective(1, 1.0);
        p.add_constraint(LpConstraint::le(vec![(0, 1.0), (1, 1.0)], 1.0));
        let sol = solve(&p).unwrap();
        assert!(sol.pivots >= 1);
    }

    #[test]
    fn larger_random_like_packing_lp_agrees_with_symmetry() {
        // max Σ x_j subject to x_j + x_{j+1} ≤ 1 cyclically over 8 variables.
        // By symmetry the optimum is 4 (alternating 1,0,... or all 0.5).
        let n = 8;
        let mut p = LpProblem::new(n, ObjectiveSense::Maximize);
        for j in 0..n {
            p.set_objective(j, 1.0);
            p.add_constraint(LpConstraint::le(vec![(j, 1.0), ((j + 1) % n, 1.0)], 1.0));
        }
        let sol = solve(&p).unwrap();
        assert_close(sol.objective, 4.0, 1e-7);
        assert!(p.is_feasible(&sol.x, 1e-7));
    }

    #[test]
    fn custom_options_small_pivot_budget_errors() {
        let mut p = LpProblem::new(3, ObjectiveSense::Maximize);
        for j in 0..3 {
            p.set_objective(j, 1.0);
            p.add_constraint(LpConstraint::le(vec![(j, 1.0)], 1.0));
        }
        let opts = SimplexOptions { max_pivots: 1, ..Default::default() };
        // With only one pivot allowed the solver must report the limit.
        match solve_with(&p, &opts) {
            Err(LpError::IterationLimit { .. }) => {}
            Ok(sol) => panic!("expected iteration limit, got {:?}", sol.status),
            Err(other) => panic!("unexpected error {other}"),
        }
    }
}
