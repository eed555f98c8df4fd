"""Exact rational linear algebra: the package's one product kernel (dot,
matvec, matmul), its one scaling rule (integer_table) and one row-elimination
step, reduced row echelon form, affine solution sets, and a revised two-phase
simplex.

Fractions cross the API, apart from integer_rref's rows and integer_table's
view: rational rows as integer rows over one common denominator, the least
common multiple of the entries' denominators.  The operator tables of
`geneo` are worked on in that view, with the products summed in int from
0, and a Fraction made once per output cell.  Inside, rref and the
simplex start from that view, keep each row as a positive integer multiple
of its rational row and pivot fraction-free (Bareiss, Math. Comp. 22, 1968,
with a gcd division in place of his exact one).  A positive row scale keeps
every sign, zero and ratio, so Bland's rule picks the pivots it picks on
fractions, and the decomposition gets reproducible measures.  The simplex
keeps only B^-1, x_B and the objective rows (Dantzig and Orchard-Hays, MTAC
8, 1954) and prices columns only up to Bland's first negative one (Math.
Oper. Res. 2, 1977): a pivot costs the rows, not the columns, and the pivots
are the full tableau's.
A column followed by its negation at the same costs, as the decomposition's
u - v pairs come, is priced with one product for both, the pairs found once
per LP; Fractions are built only for the basic solution values.  Phase 1
minimizes the artificial variables of the equations as given, so rescaling
an equation would change Bland's path.  The canonical rref fixes
``solve_affine``'s particular solution and nullspace basis, whose points the
constraint-closure checks test and report as witnesses.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul, neg
from typing import Sequence

Row = list[Fraction]


def dot(u: Sequence, v: Sequence, start=Fraction(0)):
    """The exact inner product start + sum_i u_i v_i; start=0 keeps integer vectors in int."""
    return sum(map(mul, u, v), start)


def matvec(a: Sequence[Sequence], v: Sequence, start=Fraction(0)) -> tuple:
    """The exact product of the matrix with rows a and the vector v, each entry summed from start."""
    return tuple([dot(row, v, start) for row in a])


def matmul(a: Sequence[Sequence], b: Sequence[Sequence], n_cols: int) -> tuple[tuple, ...]:
    """The exact product a b, each entry summed from 0, so integer tables stay
    in int; n_cols is explicit because a b with no rows has no columns to read."""
    cols = [tuple(row[j] for row in b) for j in range(n_cols)]
    return tuple(matvec(cols, row, 0) for row in a)


def integer_table(rows: Sequence[Sequence]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The rational rows as integer rows over one denominator d, the least
    common multiple of their entries' denominators, and d: row i is d times
    rational row i.  Integer rows come back as they are, over 1."""
    types = {type(x) for row in rows for x in row}
    if types <= {int}:
        return tuple(map(tuple, rows)), 1
    if not types <= {int, Fraction}:
        rows = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in rows]
    d = lcm(*{x.denominator for row in rows for x in row})
    return tuple(tuple([x.numerator * (d // x.denominator) for x in row]) for row in rows), d


def _pivot(m: list[list[int]], row: int, d: Sequence[int]) -> None:
    """Pivot the integer rows m on row, at the column whose entries are d,
    fraction-free: m[row] turns positive there, every other row r becomes
    p m[r] - d[r] m[row] for that pivot p = |d[row]|, and each row so changed
    is divided by its gcd."""
    if d[row] < 0:
        m[row] = [-x for x in m[row]]
    pivot_row, p = m[row], abs(d[row])
    for r, a in enumerate(d):
        if r != row and a:
            new = [p * x - a * y for x, y in zip(m[r], pivot_row)]
            g = gcd(*new)
            m[r] = [x // g for x in new] if g > 1 else new


def integer_rref(rows: Sequence[Sequence[Fraction]]) -> list[tuple[int, list[int]]]:
    """Canonical reduced row echelon form, zero rows dropped, as integer
    rows: (d, r) stands for the row r / d, where d > 0 is r's lead entry and
    r is the least integer multiple of its rational row, whatever the other
    rows' denominators."""
    m = [list(row) for row in integer_table(rows)[0]]
    leads: list[int] = []
    for col in range(len(m[0]) if m else 0):
        top = len(leads)
        pivot = next((r for r in range(top, len(m)) if m[r][col] != 0), None)
        if pivot is not None:
            m[top], m[pivot] = m[pivot], m[top]
            _pivot(m, top, [r[col] for r in m])
            leads.append(col)
            if len(leads) == len(m):
                break
    # a row no later pivot changed may keep a factor of integer_table's common scale
    primitive = [[x // g for x in row] for row in m[: len(leads)] for g in (gcd(*row),)]
    return [(row[lead], row) for row, lead in zip(primitive, leads)]


def rref(rows: Sequence[Sequence[Fraction]]) -> list[Row]:
    """Canonical reduced row echelon form, zero rows dropped."""
    return [[Fraction(x, d) for x in row] for d, row in integer_rref(rows)]


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
    particular = [pivots[col][n_vars] if col in pivots else Fraction(0) for col in range(n_vars)]
    basis = [
        [-pivots[col][free] if col in pivots else Fraction(col == free) for col in range(n_vars)]
        for free in range(n_vars)
        if free not in pivots
    ]
    return particular, basis


# -- simplex ------------------------------------------------------------------

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _enter(m: list[list[int]], basis: list[int], row: int, col: int, d: Sequence[int]) -> None:
    """Make col basic at row: one pivot of m on d, col's column in m."""
    _pivot(m, row, d)
    basis[row] = col


# a pricing unit: column j, its constraint entries a, its phase-1 and phase-2
# costs, and whether column j + 1 is its twin (-a, same costs)
Unit = tuple[int, tuple[int, ...], int, int, bool]


def _pricing(cols: list[tuple[int, ...]], k: int, start: int = 0) -> list[Unit]:
    """The units of the columns, numbered from start, in Bland's order.  A
    twin's reduced cost is s - y where column j's is s + y, with y the
    priced row times a and s the costs' part, so one product prices both:
    the decomposition's weights u - v come as such pairs."""
    units = []
    j = 0
    while j < len(cols):
        a, costs = cols[j][:k], cols[j][k:]
        twin = j + 1 < len(cols) and cols[j + 1][k:] == costs and cols[j + 1][:k] == tuple(map(neg, a))
        units.append((start + j, a, *costs, twin))
        j += 2 if twin else 1
    return units


def _entering(obj: list[int], units: list[Unit], k: int) -> int | None:
    """Bland's entering column: the first whose reduced cost in the row obj is negative."""
    s1, s2 = obj[k], obj[k + 1]
    for j, a, c1, c2, twin in units:
        y = sum(map(mul, obj, a))
        s = s1 * c1 + s2 * c2
        if s + y < 0:
            return j
        if twin and s < y:
            return j + 1
    return None


def _run_simplex(m: list[list[int]], basis: list[int], cols: list[tuple[int, ...]], units: list[Unit]) -> str:
    """Bland's-rule pivoting on the revised form m: rows [B^-1 row | s1 s2 | x_B]
    for the basis, then the objective rows, the last one priced over the
    units of ``_pricing``.  Column j in a row is row . cols[j].  The ratio
    test compares cross products, as x_B / entry ignores a positive row scale."""
    k = len(m[0]) - 3
    while True:
        col = _entering(m[-1], units, k)
        if col is None:
            return OPTIMAL
        d = [sum(map(mul, row, cols[col])) for row in m]
        rows = [r for r in range(len(basis)) if d[r] > 0]
        if not rows:
            return UNBOUNDED
        best = rows[0]
        for r in rows[1:]:
            lhs, rhs = m[r][-1] * d[best], m[best][-1] * d[r]
            if lhs < rhs or (lhs == rhs and basis[r] < basis[best]):
                best = r
        _enter(m, basis, best, col, d)


def simplex_min(
    costs: Sequence[Fraction],
    eq_lhs: Sequence[Sequence[Fraction]],
    eq_rhs: Sequence[Fraction],
) -> tuple[str, Fraction | None, Row | None]:
    """Minimize costs.x subject to eq_lhs x = eq_rhs, x >= 0.

    Exact two-phase simplex; returns (status, optimal value, solution).
    """
    n = len(costs)
    # equation i, negated if its right-hand side is negative, as the integer
    # row L [a_i | b_i] over the equations' common denominator L, with
    # artificial column L e_i; every column ends in its phase-1 and phase-2
    # costs, which constraint rows weigh by 0
    signed = [[*row, b] if b >= 0 else [*(-x for x in row), -b] for row, b in zip(eq_lhs, eq_rhs)]
    rows, scale = integer_table(signed)
    k = len(rows)
    *lhs_cols, rhs = zip(*rows) if rows else [()] * (n + 1)
    (costs_int,), cost_scale = integer_table([costs])
    cols = [(*a, 0, c) for a, c in zip(lhs_cols, costs_int)]
    artificials = [(*(scale * (r == i) for r in range(k)), 1, 0) for i in range(k)]

    # the artificial basis, B^-1 = diag(1/L): row i is e_i with x_B = L b_i,
    # phase 2's objective row is priced with w = 0, phase 1's with w_i = -1
    # and s1 = L
    m = [[int(r == i) for r in range(k)] + [0, 0, b] for i, b in enumerate(rhs)]
    m += [[0] * k + [0, cost_scale, 0], [-1] * k + [scale, 0, -sum(rhs)]]
    basis = list(range(n, n + k))
    units = _pricing(cols, k)
    status = _run_simplex(m, basis, cols + artificials, units + _pricing(artificials, k, n))
    if status != OPTIMAL or m[-1][-1] != 0:
        return INFEASIBLE, None, None

    # drive remaining artificial variables out of the basis, and drop the
    # rows of those that cannot leave and phase 1's objective row
    for r in range(k):
        if basis[r] >= n:
            col = next((j for j in range(n) if sum(map(mul, m[r], cols[j]))), None)
            if col is not None:
                _enter(m, basis, r, col, [sum(map(mul, row, cols[col])) for row in m])
    keep = [r for r in range(k) if basis[r] < n]
    m, basis = [m[r] for r in keep] + m[k:-1], [basis[r] for r in keep]

    # phase 2 on the real objective, which every pivot so far kept priced
    status = _run_simplex(m, basis, cols, units)
    if status != OPTIMAL:
        return status, None, None
    solution = [Fraction(0)] * n
    for r, bcol in enumerate(basis):
        solution[bcol] = Fraction(m[r][-1], sum(map(mul, m[r], cols[bcol])))
    # only the basic columns are nonzero
    return OPTIMAL, sum((costs[b] * solution[b] for b in basis), Fraction(0)), solution
