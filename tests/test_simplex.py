from fractions import Fraction

import pytest
from fraction_simplex import solve_feasibility as fraction_solve
from hypothesis import given, settings, strategies as st

from cotlearn import linthresh
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
        got = linthresh.enumerate_threshold_functions(d)
        monkeypatch.setattr(linthresh, "solve_feasibility", fraction_solve)
        assert got == linthresh.enumerate_threshold_functions(d)
