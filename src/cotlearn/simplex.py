"""Exact linear-program feasibility via a fraction-free integer phase-1 simplex.

Textbook tableau simplex with Bland's rule, so the solve is deterministic
and cycle-free, kept in integers by fraction-free (Bareiss/Edmonds)
pivoting: the tableau holds q times the rational tableau, q being the last
pivot, and the update (p*a - f*b) // q divides exactly, so nothing is
rounded and no gcd is taken. When the pivot p equals q the update is
a - f*b // q, a no-op wherever the pivot row has b = 0, so it is applied
in place on the pivot row's support only; the tableaux of the learners
are sparse and most of their pivots have p == q.

Every constraint is brought to less-or-equal form with a slack, and rows
infeasible at the origin get one artificial variable each; the
artificial sum is minimized. Each free variable x is split as
x+ - x- into nonnegative parts. The tableau stores only the columns a
pivot can read: x+ and the slacks. The x- column is always minus the x+
column (row operations keep that, and the cost row starts with it), so
Bland's scan reads it off x+'s reduced cost and an entering x- pivots on
the negated column. Artificial columns are not stored, since an
artificial never re-enters the basis. A row is (d+1) + m entries wide
plus its right-hand side, for d+1 variables and m distinct rows; the
pivots, and the returned vertex, are those of the full tableau.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Constraint = tuple[Sequence, str, object]  # (coefficients, "<=" or ">=", rhs)


def solve_feasibility(constraints: Iterable[Constraint], num_vars: int) -> tuple[Fraction, ...] | None:
    """Return values for the free variables satisfying every constraint, or None.

    Duplicate constraints are collapsed before the solve; all arithmetic
    is exact. Integer coefficients stay ``int`` (an int hashes and compares
    equal to the equal Fraction, so deduplication is unchanged); any other
    number is read as a Fraction.
    """
    rows: list[tuple[tuple, int | Fraction]] = []
    seen = set()
    for coeffs, sense, rhs in constraints:
        a = tuple(c if isinstance(c, int) else Fraction(c) for c in coeffs)
        b = rhs if isinstance(rhs, int) else Fraction(rhs)
        if len(a) != num_vars:
            raise ValueError("constraint arity does not match num_vars")
        if sense == ">=":
            a = tuple(-c for c in a)
            b = -b
        elif sense != "<=":
            raise ValueError(f"unknown sense {sense!r}")
        key = (a, b)
        if key in seen:
            continue
        seen.add(key)
        if all(c == 0 for c in a):
            if b < 0:
                return None
            continue
        rows.append((a, b))

    if not rows:
        return tuple(Fraction(0) for _ in range(num_vars))

    # Stored columns: x+ (n), slacks (m), rhs. Basis entries keep the
    # indices of the full tableau, which orders x+ (0..n-1), x- (n..2n-1),
    # slacks (2n..2n+m-1) and artificials (from 2n+m) for Bland's tie-break.
    n = num_vars
    m = len(rows)
    width = n + m

    # Rows are scaled to integers by the lcm of their denominators; slacks
    # keep coefficient +-1, and a row negated to a nonnegative rhs starts
    # with its artificial basic.
    tab: list[list[int]] = []
    basis: list[int] = []
    cost = [0] * (width + 1)
    next_art = 2 * n + m
    for i, (a, b) in enumerate(rows):
        sgn = 1 if b >= 0 else -1
        scale = sgn * math.lcm(b.denominator, *(c.denominator for c in a))
        row = [0] * (width + 1)
        for j, c in enumerate(a):
            if c:
                row[j] = c.numerator * (scale // c.denominator)
        row[n + i] = sgn
        row[width] = b.numerator * (scale // b.denominator)
        if sgn < 0:
            # Price the artificial out of the cost row, which minimizes the
            # artificial sum: cost[width] tracks minus the objective.
            cost = [c - v for c, v in zip(cost, row)]
            basis.append(next_art)
            next_art += 1
        else:
            basis.append(2 * n + i)
        tab.append(row)
    tab.append(cost)  # the cost row is pivoted with the others, as row m

    q = 1  # every entry of tab is q times its rational value; q > 0
    while True:
        entering = _bland_entering(cost, n, width)
        if entering is None:
            break
        col, sign = entering  # the entering column is sign * tab[.][col]
        leave = -1  # ratio test by cross-multiplication; both candidate pivots are positive
        for i in range(m):
            aij = sign * tab[i][col]
            if aij > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs, rhs = tab[i][width] * sign * tab[leave][col], tab[leave][width] * aij
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded; constraint setup is broken")
        prow = tab[leave]
        pivot = prow if sign > 0 else [-b for b in prow]
        _pivot(tab, leave, pivot, q, col)
        cost = tab[m]
        q = pivot[col]
        basis[leave] = col if sign > 0 and col < n else col + n

    if cost[width] != 0:  # objective = -cost[width] / q > 0: no feasible point
        return None

    x = [0] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] += tab[i][width]
        elif bv < 2 * n:
            x[bv - n] -= tab[i][width]
    return tuple(Fraction(v, q) for v in x)


def _bland_entering(cost: list[int], n: int, width: int) -> tuple[int, int] | None:
    """Bland's entering column as (stored column, sign), or None at the optimum.

    The scan runs in full-tableau order: x+ (improving where cost < 0),
    then x- (its reduced cost is minus x+'s, so where cost > 0), then
    the slacks. An x- enters with sign -1: its column is minus x+'s.
    """
    for j in range(n):
        if cost[j] < 0:
            return j, 1
    for j in range(n):
        if cost[j] > 0:
            return j, -1
    for j in range(n, width):
        if cost[j] < 0:
            return j, 1
    return None


def _pivot(tab: list[list[int]], leave: int, pivot: list[int], q: int, c: int) -> None:
    """Fraction-free pivot: every row of ``tab`` but ``tab[leave]`` against ``pivot``.

    ``pivot`` is the pivot row with the entering column's sign applied,
    its entry p = pivot[c] the new q. A row with entry f at ``c`` becomes
    (p*a - f*b) // q, which divides exactly. When p == q that is
    a - f*b // q, a no-op where b = 0 or f = 0, so the row is updated in
    place on the nonzero columns of ``pivot`` only.
    """
    p = pivot[c]
    if p == q:
        support = [(j, b) for j, b in enumerate(pivot) if b]
        for i, row in enumerate(tab):
            f = row[c]
            if f and i != leave:
                for j, b in support:
                    row[j] -= f * b // q
    else:
        for i, row in enumerate(tab):
            if i != leave:
                f = row[c]
                tab[i] = [(p * a - f * b) // q for a, b in zip(row, pivot)] if f else [p * a // q for a in row]
