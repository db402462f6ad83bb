"""Exact linear-program feasibility via a fraction-free integer phase-1 simplex.

Textbook tableau simplex with Bland's rule, so the solve is deterministic
and cycle-free, kept in integers by fraction-free (Bareiss/Edmonds)
pivoting: the tableau holds q times the rational tableau, q being the last
pivot, and the update (p*a - f*b) // q divides exactly, so nothing is
rounded and no gcd is taken. When the pivot p equals q the update is
a - f*b // q, a no-op wherever the pivot row has b = 0, so it is applied
in place on the pivot row's support only; the tableaux of the learners
are sparse and most of their pivots have p == q. Free variables are split
into nonnegative pairs and every constraint is brought to less-or-equal
form with slacks; rows infeasible at the origin get one artificial
variable each and the artificial sum is minimized.
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

    m = len(rows)
    n2 = 2 * num_vars
    num_art = sum(1 for _, b in rows if b < 0)
    width = n2 + m + num_art

    # Rows are scaled to integers by the lcm of their denominators; slacks
    # and artificials keep coefficient +-1, so the start basis is the identity.
    tab: list[list[int]] = []
    basis: list[int] = []
    next_art = n2 + m
    for i, (a, b) in enumerate(rows):
        sgn = 1 if b >= 0 else -1
        scale = sgn * math.lcm(b.denominator, *(c.denominator for c in a))
        row = [0] * (width + 1)
        for j, c in enumerate(a):
            if c:
                row[j] = c.numerator * (scale // c.denominator)
                row[num_vars + j] = -row[j]
        row[n2 + i] = sgn
        row[width] = b.numerator * (scale // b.denominator)
        if sgn < 0:
            row[next_art] = 1
            basis.append(next_art)
            next_art += 1
        else:
            basis.append(n2 + i)
        tab.append(row)

    # Reduced-cost row for minimizing the artificial sum; the artificial
    # basic rows are priced out so cost[width] tracks minus the objective.
    cost = [0] * (width + 1)
    for j in range(n2 + m, width):
        cost[j] = 1
    for i, bv in enumerate(basis):
        if bv >= n2 + m:
            cost = [c - v for c, v in zip(cost, tab[i])]

    q = 1  # every entry of tab and cost is q times its rational value; q > 0
    enterable = n2 + m  # artificials never re-enter the basis
    while True:
        enter = -1
        for j in range(enterable):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1  # ratio test by cross-multiplication; both candidate pivots are positive
        for i in range(m):
            aij = tab[i][enter]
            if aij > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs, rhs = tab[i][width] * tab[leave][enter], tab[leave][width] * aij
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded; constraint setup is broken")
        prow = tab[leave]
        p = prow[enter]
        if p == q:
            _eliminate_on_support((*tab, cost), prow, q, enter)
        else:
            for i in range(m):
                if i != leave:
                    tab[i] = _eliminate(tab[i], prow, p, q, enter)
            cost = _eliminate(cost, prow, p, q, enter)
        q = p
        basis[leave] = enter

    if cost[width] != 0:  # objective = -cost[width] / q > 0: no feasible point
        return None

    value = [0] * width
    for i, bv in enumerate(basis):
        value[bv] = tab[i][width]
    return tuple(Fraction(value[j] - value[num_vars + j], q) for j in range(num_vars))


def _eliminate(row: list[int], prow: list[int], p: int, q: int, c: int) -> list[int]:
    """Fraction-free update of ``row`` against pivot row ``prow`` (pivot ``p`` at column ``c``)."""
    f = row[c]
    if f:
        return [(p * a - f * b) // q for a, b in zip(row, prow)]
    return [p * a // q for a in row]


def _eliminate_on_support(rows: Iterable[list[int]], prow: list[int], q: int, c: int) -> None:
    """The update of ``_eliminate`` for a pivot equal to ``q``, in place.

    With p == q, (p*a - f*b) // q is a - f*b // q: exact, since q divides
    f*b, and a no-op where b = 0 or f = 0. So each row with f != 0, the
    pivot row aside, is updated on the nonzero columns of ``prow`` only.
    """
    support = [(j, b) for j, b in enumerate(prow) if b]
    for row in rows:
        f = row[c]
        if f and row is not prow:
            for j, b in support:
                row[j] -= f * b // q
