"""Exact rational linear algebra: the package's one product kernel (dot,
matvec, matmul) and one row-elimination step, reduced row echelon form, affine
solution sets, and a small two-phase simplex.

Everything works on fractions.Fraction and is deterministic (Bland's rule for
the simplex), which the operator-decomposition and constraint-closure code
relies on for reproducible witnesses.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

Row = list[Fraction]


def dot(u: Sequence, v: Sequence) -> Fraction:
    """The exact inner product sum_i u_i v_i, starting from Fraction(0)."""
    return sum(map(mul, u, v), Fraction(0))


def matvec(a: Sequence[Sequence], v: Sequence) -> tuple[Fraction, ...]:
    """The exact product of the matrix with rows a and the vector v."""
    return tuple([dot(row, v) for row in a])


def matmul(a: Sequence[Sequence], b: Sequence[Sequence], n_cols: int) -> tuple[tuple[Fraction, ...], ...]:
    """The exact product a b; n_cols is explicit because a b with no rows has no columns to read."""
    cols = [tuple(row[j] for row in b) for j in range(n_cols)]
    return tuple(matvec(cols, row) for row in a)


def _as_rows(rows: Sequence[Sequence[Fraction]]) -> list[Row]:
    return [[Fraction(x) for x in row] for row in rows]


def _pivot(m: list[Row], row: int, col: int) -> None:
    """Scale m[row] so its col entry is 1, then clear col from every other row."""
    scale = m[row][col]
    m[row] = [x / scale for x in m[row]]
    for r in range(len(m)):
        if r != row and m[r][col] != 0:
            factor = m[r][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[row])]


def rref(rows: Sequence[Sequence[Fraction]]) -> list[Row]:
    """Canonical reduced row echelon form, zero rows dropped."""
    m = _as_rows(rows)
    if not m:
        return []
    n_cols = len(m[0])
    pivot_row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(pivot_row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        _pivot(m, pivot_row, col)
        pivot_row += 1
        if pivot_row == len(m):
            break
    return [row for row in m[:pivot_row] if any(x != 0 for x in row)]


def solve_affine(
    equations: Sequence[tuple[Sequence[Fraction], Fraction]], n_vars: int
) -> tuple[Row, list[Row]] | None:
    """Solve a linear system a.x = rhs; returns (particular, nullspace basis) or None.

    The particular solution sets all free variables to zero; basis vectors are
    indexed by free column in increasing order.
    """
    aug = rref([list(coeffs) + [rhs] for coeffs, rhs in equations]) if equations else []
    pivots: dict[int, Row] = {}
    for row in aug:
        lead = next(i for i, x in enumerate(row) if x != 0)
        if lead == n_vars:
            return None  # 0 = 1 row: inconsistent
        pivots[lead] = row
    particular = [Fraction(0)] * n_vars
    for col, row in pivots.items():
        particular[col] = row[n_vars]
    basis = []
    for free in range(n_vars):
        if free in pivots:
            continue
        vec = [Fraction(0)] * n_vars
        vec[free] = Fraction(1)
        for col, row in pivots.items():
            vec[col] = -row[free]
        basis.append(vec)
    return particular, basis


def same_solution_set(
    sys1: Sequence[tuple[Sequence[Fraction], Fraction]],
    sys2: Sequence[tuple[Sequence[Fraction], Fraction]],
    n_vars: int,
) -> bool:
    """Whether two consistent systems define the same affine solution set.

    Empty (inconsistent) solution sets compare equal to each other.
    """
    feas1 = solve_affine(sys1, n_vars) is not None
    feas2 = solve_affine(sys2, n_vars) is not None
    if not feas1 or not feas2:
        return feas1 == feas2
    aug = lambda sys: [list(c) + [r] for c, r in sys]
    return rref(aug(sys1)) == rref(aug(sys2))


def solution_subset(
    sys1: Sequence[tuple[Sequence[Fraction], Fraction]],
    sys2: Sequence[tuple[Sequence[Fraction], Fraction]],
    n_vars: int,
) -> bool:
    """Whether every solution of sys1 also solves sys2."""
    if solve_affine(sys1, n_vars) is None:
        return True
    aug = lambda sys: [list(c) + [r] for c, r in sys]
    return rref(aug(sys1)) == rref(aug(sys1) + aug(sys2))


# -- simplex ------------------------------------------------------------------

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _run_simplex(tableau: list[Row], basis: list[int], n_cols: int) -> str:
    """Bland's-rule pivoting on a priced-out tableau; last row is the objective."""
    while True:
        obj = tableau[-1]
        col = next((j for j in range(n_cols) if obj[j] < 0), None)
        if col is None:
            return OPTIMAL
        best = None
        for r in range(len(tableau) - 1):
            if tableau[r][col] > 0:
                ratio = tableau[r][-1] / tableau[r][col]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[r] < basis[best[1]]):
                    best = (ratio, r)
        if best is None:
            return UNBOUNDED
        _pivot(tableau, best[1], col)
        basis[best[1]] = col


def simplex_min(
    costs: Sequence[Fraction],
    eq_lhs: Sequence[Sequence[Fraction]],
    eq_rhs: Sequence[Fraction],
) -> tuple[str, Fraction | None, Row | None]:
    """Minimize costs.x subject to eq_lhs x = eq_rhs, x >= 0.

    Exact two-phase simplex; returns (status, optimal value, solution).
    """
    n = len(costs)
    rows = _as_rows(eq_lhs)
    rhs = [Fraction(x) for x in eq_rhs]
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    m = len(rows)

    # phase 1: artificial basis
    width = n + m
    tableau = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [rhs[i]] for i in range(m)]
    obj = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    basis = list(range(n, n + m))
    for i in range(m):  # price out the artificial costs
        obj = [a - b for a, b in zip(obj, tableau[i] )]
    tableau.append(obj)
    status = _run_simplex(tableau, basis, width)
    if status != OPTIMAL or tableau[-1][-1] != 0:
        return INFEASIBLE, None, None

    # drive remaining artificial variables out of the basis
    drop_rows = []
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is None:
                drop_rows.append(r)
            else:
                _pivot(tableau, r, col)
                basis[r] = col
    for r in sorted(drop_rows, reverse=True):
        del tableau[r]
        del basis[r]

    # phase 2: restore the real objective, restricted to original columns
    tableau = [row[:n] + [row[-1]] for row in tableau[:-1]]
    obj = [Fraction(x) for x in costs] + [Fraction(0)]
    for r, bcol in enumerate(basis):
        if obj[bcol] != 0:
            factor = obj[bcol]
            obj = [a - factor * b for a, b in zip(obj, tableau[r])]
    tableau.append(obj)
    status = _run_simplex(tableau, basis, n)
    if status != OPTIMAL:
        return status, None, None
    solution = [Fraction(0)] * n
    for r, bcol in enumerate(basis):
        solution[bcol] = tableau[r][-1]
    return OPTIMAL, -tableau[-1][-1], solution
