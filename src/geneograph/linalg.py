"""Exact rational linear algebra: the package's one product kernel (dot,
matvec, matmul) and one row-elimination step, reduced row echelon form, affine
solution sets, and a small two-phase simplex.

Fractions cross the API; inside, rref and the simplex keep each row as a
positive integer multiple of its rational row and pivot fraction-free (Bareiss,
Math. Comp. 22, 1968, with a gcd division in place of his exact one).  A
positive row scale keeps every sign, zero and ratio, so Bland's rule picks the
pivots it picks on fractions, and the decomposition gets reproducible
measures.  The canonical rref fixes ``solve_affine``'s particular solution and
nullspace basis, whose points the constraint-closure checks test and report as
witnesses.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

Row = list[Fraction]


def dot(u: Sequence, v: Sequence, start=Fraction(0)):
    """The exact inner product start + sum_i u_i v_i; start=0 keeps integer vectors in int."""
    return sum(map(mul, u, v), start)


def matvec(a: Sequence[Sequence], v: Sequence, start=Fraction(0)) -> tuple:
    """The exact product of the matrix with rows a and the vector v, each entry summed from start."""
    return tuple([dot(row, v, start) for row in a])


def matmul(a: Sequence[Sequence], b: Sequence[Sequence], n_cols: int) -> tuple[tuple[Fraction, ...], ...]:
    """The exact product a b; n_cols is explicit because a b with no rows has no columns to read."""
    cols = [tuple(row[j] for row in b) for j in range(n_cols)]
    return tuple(matvec(cols, row) for row in a)


def _as_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Each rational row as an integer row: scaled by the lcm of its denominators."""
    out = []
    for row in rows:
        row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def _pivot(m: list[list[int]], row: int, col: int) -> None:
    """Pivot the integer rows m on (row, col), fraction-free: m[row] turns
    positive at col, every other row r becomes p m[r] - m[r][col] m[row] for
    that pivot p, and each row so changed is divided by its gcd."""
    if m[row][col] < 0:
        m[row] = [-x for x in m[row]]
    pivot_row, p = m[row], m[row][col]
    for r in range(len(m)):
        a = m[r][col]
        if r != row and a:
            new = [p * x - a * y for x, y in zip(m[r], pivot_row)]
            g = gcd(*new)
            m[r] = [x // g for x in new] if g > 1 else new


def rref(rows: Sequence[Sequence[Fraction]]) -> list[Row]:
    """Canonical reduced row echelon form, zero rows dropped."""
    m = _as_rows(rows)
    if not m:
        return []
    n_cols = len(m[0])
    pivot_row = 0
    leads = []
    for col in range(n_cols):
        pivot = next((r for r in range(pivot_row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        _pivot(m, pivot_row, col)
        leads.append(col)
        pivot_row += 1
        if pivot_row == len(m):
            break
    return [[Fraction(x, row[lead]) for x in row] for row, lead in zip(m, leads)]


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


# -- simplex ------------------------------------------------------------------

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _run_simplex(tableau: list[list[int]], basis: list[int], n_cols: int) -> str:
    """Bland's-rule pivoting on a priced-out tableau; last row is the objective.
    The ratio test compares cross products, as rhs / entry ignores a positive row scale."""
    while True:
        obj = tableau[-1]
        col = next((j for j in range(n_cols) if obj[j] < 0), None)
        if col is None:
            return OPTIMAL
        rows = [r for r in range(len(tableau) - 1) if tableau[r][col] > 0]
        if not rows:
            return UNBOUNDED
        best = rows[0]
        for r in rows[1:]:
            lhs, rhs = tableau[r][-1] * tableau[best][col], tableau[best][-1] * tableau[r][col]
            if lhs < rhs or (lhs == rhs and basis[r] < basis[best]):
                best = r
        _pivot(tableau, best, col)
        basis[best] = col


def simplex_min(
    costs: Sequence[Fraction],
    eq_lhs: Sequence[Sequence[Fraction]],
    eq_rhs: Sequence[Fraction],
) -> tuple[str, Fraction | None, Row | None]:
    """Minimize costs.x subject to eq_lhs x = eq_rhs, x >= 0.

    Exact two-phase simplex; returns (status, optimal value, solution).
    """
    n = len(costs)
    m = len(eq_lhs)

    # phase 1: artificial basis (rows with a negative right-hand side negated
    # first), priced out by pivoting on each artificial column
    tableau = []
    for i, (row, b) in enumerate(zip(eq_lhs, eq_rhs)):
        if b < 0:
            row, b = [-x for x in row], -b
        tableau.append(list(row) + [int(j == i) for j in range(m)] + [b])
    tableau = _as_rows(tableau + [[0] * n + [1] * m + [0]])
    basis = list(range(n, n + m))
    for i in range(m):
        _pivot(tableau, i, n + i)
    status = _run_simplex(tableau, basis, n + m)
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
    tableau = [row[:n] + [row[-1]] for row in tableau[:-1]] + _as_rows([list(costs) + [0]])
    for r, bcol in enumerate(basis):
        if tableau[-1][bcol] != 0:
            _pivot(tableau, r, bcol)
    status = _run_simplex(tableau, basis, n)
    if status != OPTIMAL:
        return status, None, None
    solution = [Fraction(0)] * n
    for r, bcol in enumerate(basis):
        solution[bcol] = Fraction(tableau[r][-1], tableau[r][bcol])
    # only the basic columns are nonzero
    return OPTIMAL, sum((costs[b] * solution[b] for b in basis), Fraction(0)), solution
