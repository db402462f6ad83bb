"""Reference LP-feasibility solver: the dense ``Fraction`` tableau that
``cotlearn.simplex`` used before its fraction-free integer tableau.

Kept unchanged as a test oracle. On integer inputs the integer tableau
takes the same pivots, so both return the identical point; on rational
inputs the verdicts agree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Constraint = tuple[Sequence, str, object]  # (coefficients, "<=" or ">=", rhs)


def solve_feasibility(constraints: Iterable[Constraint], num_vars: int) -> tuple[Fraction, ...] | None:
    """Return values for the free variables satisfying every constraint, or None.

    Duplicate constraints are collapsed before the solve; all arithmetic
    is exact.
    """
    rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
    seen = set()
    for coeffs, sense, rhs in constraints:
        a = tuple(Fraction(c) for c in coeffs)
        b = Fraction(rhs)
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

    zero = Fraction(0)
    one = Fraction(1)
    tab: list[list[Fraction]] = []
    basis: list[int] = []
    next_art = n2 + m
    for i, (a, b) in enumerate(rows):
        row = [zero] * (width + 1)
        sgn = 1 if b >= 0 else -1
        for j, c in enumerate(a):
            if c != 0:
                row[j] = sgn * c
                row[num_vars + j] = -sgn * c
        row[n2 + i] = Fraction(sgn)
        row[width] = sgn * b
        if sgn < 0:
            row[next_art] = one
            basis.append(next_art)
            next_art += 1
        else:
            basis.append(n2 + i)
        tab.append(row)

    # Reduced-cost row for minimizing the artificial sum; the artificial
    # basic rows are priced out so cost[width] tracks minus the objective.
    cost = [zero] * (width + 1)
    for j in range(n2 + m, width):
        cost[j] = one
    for i, bv in enumerate(basis):
        if bv >= n2 + m:
            row = tab[i]
            for j in range(width + 1):
                if row[j] != 0:
                    cost[j] -= row[j]

    enterable = n2 + m  # artificials never re-enter the basis
    while True:
        enter = -1
        for j in range(enterable):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            aij = tab[i][enter]
            if aij > 0:
                ratio = tab[i][width] / aij
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded; constraint setup is broken")
        _pivot(tab, cost, leave, enter, width)
        basis[leave] = enter

    if cost[width] != 0:  # objective = -cost[width] > 0: no feasible point
        return None

    value = [zero] * width
    for i, bv in enumerate(basis):
        value[bv] = tab[i][width]
    return tuple(value[j] - value[num_vars + j] for j in range(num_vars))


def _pivot(tab: list[list[Fraction]], cost: list[Fraction], r: int, c: int, width: int) -> None:
    piv = tab[r][c]
    if piv == 1:
        prow = tab[r]
    else:
        prow = [v / piv for v in tab[r]]
        tab[r] = prow
    for i in range(len(tab)):
        if i != r:
            f = tab[i][c]
            if f != 0:
                row = tab[i]
                tab[i] = [a - f * b for a, b in zip(row, prow)]
    f = cost[c]
    if f != 0:
        cost[:] = [a - f * b for a, b in zip(cost, prow)]
