"""Exact linear-program feasibility via a fraction-free integer phase-1 simplex.

Textbook simplex with Bland's rule, so the solve is deterministic and
cycle-free, kept in integers by fraction-free (Bareiss/Edmonds) pivoting:
every entry is q times its rational value, q being the last pivot, and
the update (p*a - f*b) // q divides exactly, so nothing is rounded and no
gcd is taken. When the pivot p equals q the update is a - f*b // q, a
no-op wherever the pivot row has b = 0, so it is applied in place on the
pivot row's support only; the learners' tableaux are sparse and most of
their pivots have p == q.

Every constraint is brought to less-or-equal form with a slack, and rows
infeasible at the origin get one artificial variable each; the
artificial sum is minimized. Each free variable x is split as
x+ - x- into nonnegative parts. The tableau is compact: it stores only
the nonbasic columns, since a basic column is q times a unit column. A
pivot on (r, c) leaves the pivot row as it is but for column c, which
becomes q; every other row takes the update above, and its entry f at c
becomes -f, so that column c now holds the leaving variable. A leaving
artificial's column is dropped, since an artificial never re-enters.
The x- column is always minus the x+ column, and at most one of the two
is basic, so a pair with neither basic is stored once, in x+
orientation: Bland's scan reads x-'s reduced cost as minus x+'s, and an
entering x- pivots on the negated column. A row is (d+1) + a entries
wide plus its right-hand side, for d+1 variables and a artificials still
basic; the pivots, and the returned vertex, are those of the full
tableau.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter, neg, sub
from typing import Iterable, Sequence

Constraint = tuple[Sequence, str, object]  # (coefficients, "<=" or ">=", rhs)

_INT_TYPES = frozenset((int, bool))  # read as they are; any other number goes through isinstance or Fraction
_denominator = attrgetter("denominator")


def solve_feasibility(constraints: Iterable[Constraint], num_vars: int) -> tuple[Fraction, ...] | None:
    """Return values for the free variables satisfying every constraint, or None.

    Duplicate constraints are collapsed before the solve; all arithmetic
    is exact. Integer coefficients stay ``int`` (an int hashes and compares
    equal to the equal Fraction, so deduplication is unchanged); any other
    number is read as a Fraction.
    """
    rows: list[tuple[tuple[int, ...], int]] = []
    seen = set()
    for coeffs, sense, rhs in constraints:
        a = tuple(coeffs)
        b = rhs
        exact = type(b) in _INT_TYPES and _INT_TYPES.issuperset(map(type, a))
        if not exact:
            a = tuple(c if isinstance(c, int) else Fraction(c) for c in a)
            b = rhs if isinstance(rhs, int) else Fraction(rhs)
        if len(a) != num_vars:
            raise ValueError("constraint arity does not match num_vars")
        if sense == ">=":
            a = tuple(map(neg, a))
            b = -b
        elif sense != "<=":
            raise ValueError(f"unknown sense {sense!r}")
        key = (a, b)
        if key in seen:
            continue
        seen.add(key)
        if not any(a):
            if b < 0:
                return None
            continue
        if not exact:
            scale = math.lcm(b.denominator, *map(_denominator, a))  # scaled to integers by it
            a = tuple(c.numerator * (scale // c.denominator) for c in a)
            b = b.numerator * (scale // b.denominator)
        rows.append((a, b))

    if not rows:
        return tuple(Fraction(0) for _ in range(num_vars))

    # Full-tableau indices order x+ (0..n-1), x- (n..2n-1), slacks
    # (2n..2n+m-1) and artificials (from 2n+m) for Bland's tie-break.
    # ``var`` names each stored column by its full index, x+'s for a pair.
    # At the start the nonbasic columns are the pairs and the slacks of the
    # rows whose artificial is basic.
    n = num_vars
    m = len(rows)
    var = list(range(n))
    var += [2 * n + i for i, (_, b) in enumerate(rows) if b < 0]
    width = len(var)

    # A row negated to a nonnegative rhs starts with its artificial basic
    # and its slack, of coefficient -1, nonbasic.
    tab: list[list[int]] = []
    basis: list[int] = []
    cost = [0] * (width + 1)
    pad = [0] * (width - n)
    slack = n  # the stored column of the next artificial row's slack
    next_art = 2 * n + m
    for i, (a, b) in enumerate(rows):
        if b < 0:
            row = [*map(neg, a), *pad, -b]
            row[slack] = -1
            slack += 1
            # Price the artificial out of the cost row, which minimizes the
            # artificial sum: cost[width] tracks minus the objective.
            cost = [*map(sub, cost, row)]
            basis.append(next_art)
            next_art += 1
        else:
            row = [*a, *pad, b]
            basis.append(2 * n + i)
        tab.append(row)
    tab.append(cost)  # the cost row is pivoted with the others, as row m

    q = 1  # every entry of tab is q times its rational value; q > 0
    while True:
        col = sign = entering = -1
        for j, v in enumerate(var):
            # x+ and a slack improve where cost < 0; x- (index v + n) where x+'s cost > 0
            c = cost[j]
            if c < 0:
                if entering < 0 or v < entering:
                    col, sign, entering = j, 1, v
            elif c > 0 and v < n and (entering < 0 or v + n < entering):
                col, sign, entering = j, -1, v + n
        if entering < 0:
            break
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
        left = basis[leave]
        basis[leave] = entering
        # Column col now holds the leaving variable, in x+ orientation when it is an x-.
        x_minus = n <= left < 2 * n
        q = _pivot(tab, leave, col, sign, q, -1 if x_minus else 1)
        cost = tab[m]
        if left < 2 * n + m:
            var[col] = left - n if x_minus else left
        else:  # an artificial never re-enters
            del var[col]
            for row in tab:
                del row[col]
            width -= 1

    if cost[width] != 0:  # objective = -cost[width] / q > 0: no feasible point
        return None

    x = [0] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] += tab[i][width]
        elif bv < 2 * n:
            x[bv - n] -= tab[i][width]
    return tuple([Fraction(v, q) for v in x])


def _pivot(tab: list[list[int]], leave: int, c: int, sign: int, q: int, orient: int) -> int:
    """Fraction-free compact pivot on ``tab[leave][c]`` times ``sign``; returns it, the new q.

    Every row but the pivot row, with f = sign * row[c], becomes
    (p*a - f*b) // q against the pivot row's entries b, which divides
    exactly; when p == q that is a - f*b // q, a no-op where b = 0 or
    f = 0, so the row is updated in place on the pivot row's support
    only. Column c then holds the leaving variable: -f in those rows and
    q in the pivot row, each times ``orient`` (-1 turns an x- column to
    x+ orientation). The pivot row is otherwise unchanged.
    """
    prow = tab[leave]
    p = sign * prow[c]
    if p == q:
        support = [(j, b) for j, b in enumerate(prow) if b and j != c]
        for i, row in enumerate(tab):
            f = row[c]
            if f and i != leave:
                f *= sign
                for j, b in support:
                    row[j] -= f * b // q
                row[c] = -orient * f
    else:
        for i, row in enumerate(tab):
            if i != leave:
                f = sign * row[c]
                if f:
                    row = tab[i] = [(p * a - f * b) // q for a, b in zip(row, prow)]
                    row[c] = -orient * f
                else:
                    tab[i] = [p * a // q for a in row]
    prow[c] = orient * q
    return p
