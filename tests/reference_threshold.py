"""Reference threshold enumerator: the brute force ``cotlearn.linthresh``
used before it built each window from the one before.

Kept unchanged as a test oracle: one LP per candidate truth table, 2^(2^d)
of them. ``solve_feasibility`` is this module's global, so a test can swap
in another solver.
"""

from __future__ import annotations

import itertools

from cotlearn.linthresh import ENUMERATION_MAX_D, _label_rows
from cotlearn.seqcore import GuardExceededError
from cotlearn.simplex import solve_feasibility


def enumerate_threshold_functions(d: int) -> set[tuple[int, ...]]:
    """All dichotomies of {0,1}^d realizable by a window-d threshold.

    Each function is returned as its truth table over the 2^d points in
    lexicographic order; every candidate dichotomy is decided by its own
    LP feasibility problem.
    """
    if d > ENUMERATION_MAX_D:
        raise GuardExceededError(f"d={d} exceeds the exhaustive-enumeration guard {ENUMERATION_MAX_D}")
    rows = [_label_rows(p) for p in itertools.product((0, 1), repeat=d)]
    realizable: set[tuple[int, ...]] = set()
    for labels in itertools.product((0, 1), repeat=len(rows)):
        constraints = [row[v] for row, v in zip(rows, labels)]
        if solve_feasibility(constraints, d + 1) is not None:
            realizable.add(labels)
    return realizable
