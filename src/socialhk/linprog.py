"""Dense two-phase simplex for small feasibility, margin and largest-entry problems.

Solves  min c.x  subject to  A x = b, x >= 0  on problems with at most a few
dozen variables.  Bland's anti-cycling rule makes every pivot choice
deterministic; the pivot tolerance treats entries within 1e-9 of zero as
zero.  Dimensions here come from eigenspace feasibility questions, so the
tableaux stay tiny and numerical drift is negligible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    x: np.ndarray | None
    objective: float | None


def _pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > 0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _run_simplex(tableau, basis):
    """Iterate Bland pivots until no reduced cost exceeds PIVOT_TOL; False
    when the objective is unbounded.

    The last row holds z_j - c_j in its leading columns and -objective in its
    last entry; minimization is optimal when all z_j - c_j <= PIVOT_TOL.
    """
    obj = tableau[-1]
    while True:
        entering = next((j for j in range(len(obj) - 1) if obj[j] > PIVOT_TOL), -1)
        if entering < 0:
            return True
        leaving = -1
        best = None
        for i in range(len(basis)):
            a = tableau[i, entering]
            if a > PIVOT_TOL:
                ratio = tableau[i, -1] / a
                if best is None or ratio < best - PIVOT_TOL or (
                    abs(ratio - best) <= PIVOT_TOL and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return False
        _pivot(tableau, basis, leaving, entering)


def solve_lp(c, a_eq, b_eq) -> LPResult:
    """Minimize c.x subject to a_eq x = b_eq, x >= 0."""
    a = np.array(a_eq, dtype=float)
    b = np.array(b_eq, dtype=float)
    cost = np.array(c, dtype=float)
    m, n = a.shape
    if b.shape != (m,) or cost.shape != (n,):
        raise ValueError("inconsistent LP dimensions")

    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    # Phase 1: artificials with unit cost.
    rows = np.hstack([a, np.eye(m), b[:, None]])
    obj = np.zeros(n + m + 1)
    obj[:n] = rows[:, :n].sum(axis=0)
    obj[-1] = rows[:, -1].sum()
    tableau = np.vstack([rows, obj])
    basis = [n + i for i in range(m)]

    if not _run_simplex(tableau, basis) or tableau[-1, -1] > PIVOT_TOL:
        return LPResult(INFEASIBLE, None, None)

    # Drive any lingering artificial out of the basis, dropping redundant rows.
    keep_rows = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if abs(tableau[i, j]) > PIVOT_TOL), None)
            if col is None:
                continue  # redundant constraint
            _pivot(tableau, basis, i, col)
        keep_rows.append(i)
    rows = tableau[keep_rows][:, list(range(n)) + [n + m]]
    basis = [basis[i] for i in keep_rows]

    # Phase 2 objective row.
    obj = np.zeros(n + 1)
    for i, bi in enumerate(basis):
        obj += cost[bi] * rows[i]
    obj[:n] -= cost
    tableau = np.vstack([rows, obj])

    if not _run_simplex(tableau, basis):
        return LPResult(UNBOUNDED, None, None)
    x = np.zeros(n)
    for i, bi in enumerate(basis):
        x[bi] = tableau[i, -1]
    return LPResult(OPTIMAL, x, float(cost @ x))


def max_min_margin(columns: np.ndarray):
    """Largest t such that some combination v of the columns (coefficients
    bounded by 1 in infinity norm) satisfies v_i <= -t on every row.

    Returns (t, coefficients).  t > 0 means the column span contains a vector
    that is strictly negative on all listed rows, with margin t.
    """
    rows, dim = columns.shape
    if dim == 0 or rows == 0:
        return 0.0, np.zeros(dim)
    # Variables: cp(dim), cm(dim), t, s(rows), r(dim); minimize -t.
    n_var = 2 * dim + 1 + rows + dim
    a = np.zeros((rows + dim, n_var))
    b = np.zeros(rows + dim)
    a[:rows, :dim] = columns
    a[:rows, dim : 2 * dim] = -columns
    a[:rows, 2 * dim] = 1.0
    a[:rows, 2 * dim + 1 : 2 * dim + 1 + rows] = np.eye(rows)
    a[rows:, :dim] = np.eye(dim)
    a[rows:, dim : 2 * dim] = np.eye(dim)
    a[rows:, 2 * dim + 1 + rows :] = np.eye(dim)
    b[rows:] = 1.0
    cost = np.zeros(n_var)
    cost[2 * dim] = -1.0
    res = solve_lp(cost, a, b)
    if res.status != OPTIMAL:
        return 0.0, np.zeros(dim)
    coeff = res.x[:dim] - res.x[dim : 2 * dim]
    return float(res.x[2 * dim]), coeff


def nonneg_nonzero_vector(columns: np.ndarray):
    """A nonzero, componentwise-nonnegative vector in the span of the columns,
    or None when the span meets the nonnegative orthant only at 0.

    The span is negation-symmetric, so restricting the search to one orthant
    loses nothing; the normalization sum(v) = 1 rules out the zero vector.
    """
    rows, dim = columns.shape
    if dim == 0 or rows == 0:
        return None
    # Variables: cp(dim), cm(dim), y(rows); constraints y = B c, sum(y) = 1.
    n_var = 2 * dim + rows
    a = np.zeros((rows + 1, n_var))
    b = np.zeros(rows + 1)
    a[:rows, :dim] = columns
    a[:rows, dim : 2 * dim] = -columns
    a[:rows, 2 * dim :] = -np.eye(rows)
    a[rows, 2 * dim :] = 1.0
    b[rows] = 1.0
    cost = np.zeros(n_var)
    res = solve_lp(cost, a, b)
    if res.status != OPTIMAL:
        return None
    return res.x[2 * dim :]


def max_entry(columns: np.ndarray, i: int) -> float:
    """Largest entry i of a combination v of the columns with every entry
    v_j >= -1, or inf when it grows without bound (the span then holds a
    nonzero vector that is nonnegative on every row)."""
    rows, dim = columns.shape
    # Variables: cp(dim), cm(dim), s(rows); constraints B c - s = -1.
    a = np.hstack([columns, -columns, -np.eye(rows)])
    cost = np.concatenate([-columns[i], columns[i], np.zeros(rows)])
    res = solve_lp(cost, a, -np.ones(rows))
    return -res.objective if res.status == OPTIMAL else np.inf
