import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
import reference_threshold
from fraction_simplex import solve_feasibility as fraction_solve
from hypothesis import given, settings, strategies as st

from cotlearn import circomp, linthresh, simplex
from cotlearn.learning import CoTDataset, prefix_expand
from cotlearn.seqcore import BINARY, cot
from cotlearn.simplex import solve_feasibility


def check(constraints, n):
    sol = solve_feasibility(constraints, n)
    if sol is None:
        return None
    for coeffs, sense, rhs in constraints:
        val = sum(Fraction(c) * v for c, v in zip(coeffs, sol))
        if sense == ">=":
            assert val >= Fraction(rhs)
        else:
            assert val <= Fraction(rhs)
    return sol


def test_trivial_feasible():
    assert check([([1], ">=", 0)], 1) is not None
    assert check([], 1) == (Fraction(0),)


def test_free_variables_can_go_negative():
    sol = check([([1], "<=", -5)], 1)
    assert sol is not None and sol[0] <= -5


def test_simple_infeasible():
    assert solve_feasibility([([1], ">=", 1), ([1], "<=", 0)], 1) is None


def test_two_var_system():
    sol = check(
        [([1, 1], ">=", 2), ([1, -1], "<=", 0), ([0, 1], "<=", 5)],
        2,
    )
    assert sol is not None


def test_equality_via_pair():
    sol = check([([2, 3], ">=", 6), ([2, 3], "<=", 6)], 2)
    assert sol is not None
    assert 2 * sol[0] + 3 * sol[1] == 6


def test_duplicate_rows_collapse():
    rows = [([1, 0], ">=", 1)] * 50 + [([0, 1], "<=", -1)] * 50
    sol = check(rows, 2)
    assert sol is not None


def test_zero_row_handling():
    assert solve_feasibility([([0, 0], "<=", -1)], 2) is None
    assert solve_feasibility([([0, 0], "<=", 3)], 2) is not None


def test_exact_fractions_survive():
    sol = check([([Fraction(1, 3)], ">=", Fraction(1, 7))], 1)
    assert sol is not None and Fraction(1, 3) * sol[0] >= Fraction(1, 7)


def test_degenerate_cycling_guard():
    # Classic degenerate instance; Bland's rule must terminate.
    rows = [
        ([Fraction(1, 4), -8, -1, 9], "<=", 0),
        ([Fraction(1, 2), -12, Fraction(-1, 2), 3], "<=", 0),
        ([0, 0, 1, 0], "<=", 1),
        ([1, 1, 1, 1], ">=", 1),
    ]
    assert check(rows, 4) is not None


def test_infeasible_sum_argument():
    # x + y >= 1, x <= 0, y <= 0 cannot hold together.
    assert solve_feasibility([([1, 1], ">=", 1), ([1, 0], "<=", 0), ([0, 1], "<=", 0)], 1 + 1) is None


def _systems(coeff, rhs, max_vars=5, max_rows=12):
    """Strategy for (constraints, num_vars) with the given coefficient and rhs strategies."""
    def rows(n):
        row = st.tuples(st.lists(coeff, min_size=n, max_size=n), st.sampled_from(["<=", ">="]), rhs)
        return st.tuples(st.lists(row, max_size=max_rows), st.just(n))
    return st.integers(1, max_vars).flatmap(rows)


def _spellings(x):
    """Ways to write the integer x as a coefficient: int, Fraction(x, 1), and bool for 0 and 1."""
    return [x, Fraction(x)] + ([bool(x)] if x in (0, 1) else [])


def _spelled(lo, hi):
    return st.integers(lo, hi).flatmap(lambda x: st.sampled_from(_spellings(x)))


class TestIntegerIntake:
    """Integer coefficients stay ints inside the solver; the answer cannot tell."""

    @settings(max_examples=300, deadline=None)
    @given(_systems(_spelled(-3, 3), _spelled(-2, 2)))
    def test_int_bool_and_whole_fraction_spellings_give_the_identical_point(self, system):
        spelled, n = system
        got = solve_feasibility(spelled, n)
        assert got is None or all(type(v) is Fraction for v in got)
        for number in (int, Fraction):
            plain = [([number(c) for c in coeffs], sense, number(rhs)) for coeffs, sense, rhs in spelled]
            assert solve_feasibility(plain, n) == got

    @pytest.mark.parametrize("constraints", [
        [],
        [([0, False, Fraction(0)], "<=", 2)],
        [([0, 0, 0], ">=", Fraction(-1))],
    ])
    def test_no_rows_path_returns_fractions(self, constraints):
        got = solve_feasibility(constraints, 3)
        assert got == (0, 0, 0) and all(type(v) is Fraction for v in got)

    def test_duplicate_spellings_collapse(self, monkeypatch):
        spellings = [([1, 0], ">=", 1), ([True, False], ">=", True), ([Fraction(1), 0], ">=", Fraction(1)),
                     ([-1, 0], "<=", -1), ([0, 1], "<=", -1), ([False, Fraction(1)], "<=", -True)]
        expected = solve_feasibility([([1, 0], ">=", 1), ([0, 1], "<=", -1)], 2)
        tableau_rows = []  # one lcm per row that reaches the tableau
        monkeypatch.setattr(simplex, "math", SimpleNamespace(lcm=lambda *a: tableau_rows.append(a) or math.lcm(*a)))
        assert check(spellings * 20, 2) == expected
        assert len(tableau_rows) == 2


class TestAgainstFractionTableau:
    """The integer tableau against the Fraction tableau it replaced (tests/fraction_simplex.py)."""

    @settings(max_examples=300, deadline=None)
    @given(_systems(st.integers(-3, 3), st.integers(-2, 2)))
    def test_integer_inputs_give_the_identical_point(self, system):
        constraints, n = system
        got = solve_feasibility(constraints, n)
        assert got == fraction_solve(constraints, n)
        assert got is None or all(type(v) is Fraction for v in got)

    @settings(max_examples=150, deadline=None)
    @given(_systems(
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        st.fractions(min_value=-2, max_value=2, max_denominator=6),
    ))
    def test_rational_inputs_give_the_same_verdict_and_a_feasible_point(self, system):
        constraints, n = system
        got = check(constraints, n)
        assert (got is None) == (fraction_solve(constraints, n) is None)

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_threshold_enumeration_matches(self, d, monkeypatch):
        """Both kernels give the brute-force set (tests/reference_threshold.py)."""
        expected = reference_threshold.enumerate_threshold_functions(d)
        assert linthresh.enumerate_threshold_functions(d) == expected
        monkeypatch.setattr(linthresh, "solve_feasibility", fraction_solve)
        monkeypatch.setattr(reference_threshold, "solve_feasibility", fraction_solve)
        assert linthresh.enumerate_threshold_functions(d) == expected
        assert reference_threshold.enumerate_threshold_functions(d) == expected


def _fit_pairs(seed, d, m, T):
    """(prefix, next bit) pairs of m seeded records of a seeded window-d threshold, T steps each."""
    rng = random.Random(seed)
    target = linthresh.make_threshold([rng.randint(-3, 3) for _ in range(d)], Fraction(rng.randint(-6, 6), 2))
    seqs = [cot(target, BINARY.seq(rng.randint(0, 1) for _ in range(rng.randint(1, d + 3))), T) for _ in range(m)]
    return prefix_expand(CoTDataset(tuple(seqs), T)).pairs


def _rational_system(seed):
    """3-8 seeded rows over 2-4 variables, every coefficient and rhs of denominator 2-6."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)

    def frac():
        return Fraction(rng.randint(-6, 6), rng.randint(2, 6))

    return [([frac() for _ in range(n)], rng.choice(["<=", ">="]), frac()) for _ in range(rng.randint(3, 8))], n


class TestPinnedVertices:
    """The exact points the solver returned before its pivots went support-only.

    The oracle property above compares points on integer input only; these
    pins also hold the rational path, where rescaling pivots (p != q) occur.
    """

    FITS = [  # (seed, d, records, T) -> format_threshold of cons_lp's answer
        ((1, 6, 40, 8), "6 -1 -1 1 2 2 2 -2"),
        ((2, 6, 40, 8), "6 -1 1 1 -1 -1 -1 0"),
        ((3, 6, 20, 4), "6 0 -2 1 1 -2 -1 1"),
        ((4, 5, 40, 8), "5 0 -1 -1 -2 1 0"),
        ((5, 4, 20, 4), "4 0 0 0 0 0"),
        ((6, 3, 20, 4), "3 -1 1 0 1"),
        ((7, 7, 5, 4), "7 0 0 -1 0 1 -1 -1 1"),
        ((8, 2, 5, 4), "2 0 -1 -1"),
        ((9, 5, 10, 6), "5 -1 0 0 0 0 0"),
        ((10, 7, 20, 6), "7 0 0 -1 0 0 0 -1 -1"),
    ]

    RATIONAL = [  # seed -> the returned point, or None when infeasible
        (0, "-295/159 47/159 -37/318"),
        (1, None),
        (2, "36/5 -10"),
        (3, None),
        (4, None),
        (5, "-540/1417 -11345/12753 4274/4251 2/39"),
        (6, "81/157 -2157/3140 0 2544/785"),
        (7, "0 0 0"),
        (8, "-34/5 8/9"),
        (9, "4/3 39/242 144/121"),
        (10, "0 0 405/163 320/163"),
        (11, "1365/2474 725/1237 45/1237"),
        (12, None),
        (13, "-113/74 21/74 -96/37"),
        (14, None),
        (15, "20 33/2"),
        (16, None),
        (17, "-9/17 1398/731 798/731 0"),
        (18, "0 0"),
        (19, "49/60 -217/300 0 151/60"),
    ]

    @pytest.mark.parametrize("fit, weights", FITS, ids=[str(f) for f, _ in FITS])
    def test_cons_lp_weights(self, fit, weights):
        seed, d, m, T = fit
        pairs = _fit_pairs(*fit)
        assert len(pairs) == m * T
        assert linthresh.format_threshold(linthresh.cons_lp(pairs, d)) == weights

    @pytest.mark.parametrize("seed, point", RATIONAL)
    def test_rational_system_point(self, seed, point):
        got = check(*_rational_system(seed))
        assert (None if got is None else " ".join(map(str, got))) == point


class _WatchedRow(list):
    """A tableau row that counts the entries written into it."""

    writes = 0

    def __setitem__(self, j, v):
        self.writes += 1
        super().__setitem__(j, v)


def _watch_pivots(monkeypatch):
    """Count the pivots of ``simplex._pivot`` and the tableau entries each writes.

    Every row is watched during a pivot: a row updated in place counts
    its writes, a row rebuilt counts its length. "dense" counts the
    entries a dense update of every row with f != 0 would write (every
    row but the pivot row, on a rescaling pivot). Each row due an update
    must equal the dense formula (p*a - f*b) // q, and every other row
    must come out unchanged.
    """
    count = {"pivots": 0, "written": 0, "dense": 0}
    pivot_rows = simplex._pivot

    def watched(tab, leave, pivot, q, c):
        p = pivot[c]
        updated = [i != leave and (row[c] != 0 or p != q) for i, row in enumerate(tab)]
        expected = [[(p * a - row[c] * b) // q for a, b in zip(row, pivot)] if u else list(row)
                    for row, u in zip(tab, updated)]
        count["pivots"] += 1
        count["dense"] += sum(len(row) for row, u in zip(tab, updated) if u)
        before = [_WatchedRow(row) for row in tab]
        tab[:] = before
        pivot_rows(tab, leave, pivot, q, c)
        count["written"] += sum(row.writes if row is old else len(row) for row, old in zip(tab, before))
        assert tab == expected
        tab[:] = [list(row) for row in tab]

    monkeypatch.setattr(simplex, "_pivot", watched)
    return count


def test_support_only_updates_write_a_quarter_of_the_dense_entries(monkeypatch):
    """Deterministic twin of the kernel's wall-time gains, on a d = 6, 320-pair fit.

    Support-only updates write at most a quarter of the entries dense
    updates would. The pivots are those of the tableau that also stored
    the x- and artificial columns, which wrote 20,011 entries on this fit.
    """
    count = _watch_pivots(monkeypatch)
    fit, weights = TestPinnedVertices.FITS[0]
    assert fit[1:] == (6, 40, 8)
    assert linthresh.format_threshold(linthresh.cons_lp(_fit_pairs(*fit), 6)) == weights
    assert count["pivots"] == 46
    assert 0 < 4 * count["written"] <= count["dense"], count
    assert count["written"] <= 0.8 * 20_011, count


def test_narrow_tableau_writes_about_half_the_entries_on_a_circuit_lp(monkeypatch):
    """The same twin on a compiled-circuit LP: d = 27, 8 records, 96 distinct rows.

    Most of its pivots rescale (p != q) and so rewrite every row; the
    tableau that also stored the x- and artificial columns wrote
    2,471,893 entries over the same 654 pivots.
    """
    circuit = circomp.random_normalized_circuit(random.Random(2), 4, 1, 2)
    compiled = circomp.compile_circuit(circuit)
    f, T = compiled.generator(), compiled.T
    records = [cot(f, circomp.feature_map(x, T), T) for x in list(itertools.product((0, 1), repeat=4))[:8]]
    pairs = prefix_expand(CoTDataset(tuple(records), T)).pairs
    assert (compiled.d, len(pairs)) == (27, 96)
    count = _watch_pivots(monkeypatch)
    learned = linthresh.cons_lp(pairs, compiled.d)
    assert linthresh.format_threshold(learned) == "27 0 0 -1 -1 -1 -1 -1 -1 -1 0 -1 -1 -1 0 0 0 0 0 0 0 0 0 -1 -1 0 0 0 0"
    assert count["pivots"] == 654
    assert count["written"] <= 0.55 * 2_471_893, count
