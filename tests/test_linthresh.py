import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import test_simplex
from cotlearn import linthresh
from cotlearn.seqcore import BINARY, Alphabet, GuardExceededError, NotRealizableError
from cotlearn.linthresh import (
    IntegerThreshold,
    LinearThreshold,
    SparseLinearThreshold,
    ThresholdFamily,
    cons_lp,
    cons_sparse,
    enumerate_threshold_functions,
    format_threshold,
    make_threshold,
    parse_fraction,
    parse_threshold,
)

seq = BINARY.seq


class TestEval:
    def test_single_bit(self):
        f = make_threshold([1], Fraction(-1, 2))
        assert f.next_token(seq([1])) == 1
        assert f.next_token(seq([0])) == 0

    def test_window_truncation(self):
        f = make_threshold([1, 1, 1], Fraction(-3, 2))
        # input shorter than the window: sum over the 2 available bits
        assert f.next_token(seq([1, 1])) == 1
        assert f.next_token(seq([1, 0])) == 0

    def test_boundary_is_one(self):
        f = make_threshold([0, 0], 0)
        for bits in itertools.product((0, 1), repeat=2):
            assert f.next_token(seq(bits)) == 1

    def test_only_last_d_bits_matter(self):
        f = make_threshold([3, -2], 1)
        for prefix in ([], [0], [1], [1, 1, 0]):
            for tail in itertools.product((0, 1), repeat=2):
                assert f.next_token(seq(list(prefix) + list(tail))) == f.next_token(seq(tail))

    def test_rejects_non_binary(self):
        from cotlearn.seqcore import Alphabet

        other = Alphabet(("a", "b", "c"))
        f = make_threshold([1], 0)
        with pytest.raises(ValueError):
            f.next_token(other.seq([2]))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_scaled_evaluation_matches_fraction_reference(self, data):
        # the integer fast path must agree with the plain rational sum
        d = data.draw(st.integers(1, 5))
        num = st.integers(-9, 9)
        den = st.integers(1, 7)
        weights = [Fraction(data.draw(num), data.draw(den)) for _ in range(d)]
        bias = Fraction(data.draw(num), data.draw(den))
        f = make_threshold(weights, bias)
        n = data.draw(st.integers(0, d + 3))
        bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        x = seq(bits)
        window = min(d, n)
        reference = sum(
            (weights[d - i] * bits[n - i] for i in range(1, window + 1)),
            bias,
        )
        assert f.next_token(x) == (1 if reference >= 0 else 0)
        # a sparse threshold evaluates its own support, without a dense copy
        support = tuple(sorted(data.draw(st.sets(st.integers(1, d)))))
        sparse = SparseLinearThreshold(d, d, support, tuple(weights[d - i] for i in support), bias)
        sparse_reference = sum(
            (weights[d - i] * bits[n - i] for i in support if i <= n),
            bias,
        )
        expected = 1 if sparse_reference >= 0 else 0
        assert sparse.next_token(x) == sparse.to_dense().next_token(x) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_integer_form_matches_fraction_scaling(self, data):
        """``IntegerThreshold.of`` scales each weight by integer products
        alone; the ints equal ``int(w * scale)``, on zero, negative and
        whole weights and on bias-only forms, and so do the dense and the
        sparse generators' integer forms."""

        def fraction_of(terms, bias):
            nz = [(i, w) for i, w in terms if w != 0]
            scale = math.lcm(bias.denominator, *(w.denominator for _, w in nz))
            return IntegerThreshold(tuple((i, int(w * scale)) for i, w in nz), int(bias * scale), scale)

        weight = st.one_of(
            st.just(Fraction(0)),
            st.integers(-9, 9).map(Fraction),
            st.fractions(min_value=-9, max_value=9, max_denominator=12),
        )
        d = data.draw(st.integers(0, 6))
        weights = data.draw(st.lists(weight, min_size=d, max_size=d))
        bias = data.draw(weight)
        terms = [(d - j, w) for j, w in enumerate(weights)]
        assert IntegerThreshold.of(terms, bias) == fraction_of(terms, bias)
        assert LinearThreshold(tuple(weights), bias).integer_form == fraction_of(terms, bias)
        support = tuple(sorted(data.draw(st.sets(st.integers(1, d))))) if d else ()
        sparse = SparseLinearThreshold(d, d, support, tuple(weights[d - i] for i in support), bias)
        assert sparse.integer_form == fraction_of(zip(support, sparse.weights), bias)


def brute_force_realizable(pairs, d, grid=2):
    """Oracle: search integer weights and half-integer biases directly."""
    axis = range(-grid, grid + 1)
    for ws in itertools.product(axis, repeat=d):
        for twice_b in range(-2 * grid - 1, 2 * grid + 2):
            f = make_threshold(ws, Fraction(twice_b, 2))
            if all(f.next_token(u) == v for u, v in pairs):
                return f
    return None


class TestConsLP:
    def test_one_dimensional_by_hand(self):
        pairs = [(seq([1]), 1), (seq([0]), 0)]
        f = cons_lp(pairs, 1)
        # any solution needs w + b >= 0 > b
        assert f.weights[0] + f.bias >= 0 > f.bias

    def test_xor_infeasible_with_brute_force_agreement(self):
        pairs = [(seq([a, b]), a ^ b) for a in (0, 1) for b in (0, 1)]
        assert brute_force_realizable(pairs, 2) is None
        with pytest.raises(NotRealizableError):
            cons_lp(pairs, 2)

    def test_empty_dataset_zero_solution(self):
        f = cons_lp([], 3)
        assert f.weights == (Fraction(0),) * 3 and f.bias == 0

    def test_margin_one_never_loses_feasibility(self):
        # every realizable labeling found by grid search must stay LP-feasible
        d = 2
        points = [seq(bits) for bits in itertools.product((0, 1), repeat=d)]
        realizable = 0
        for labels in itertools.product((0, 1), repeat=len(points)):
            pairs = list(zip(points, labels))
            if brute_force_realizable(pairs, d) is not None:
                realizable += 1
                f = cons_lp(pairs, d)
                assert all(f.next_token(u) == v for u, v in pairs)
        assert realizable == 14

    def test_scale_invariance_of_solutions(self):
        pairs = [(seq([1, 1]), 1), (seq([0, 1]), 0), (seq([1, 0]), 1)]
        f = cons_lp(pairs, 2)
        for lam in (Fraction(2), Fraction(1, 3), Fraction(7, 5)):
            g = LinearThreshold(tuple(lam * w for w in f.weights), lam * f.bias)
            assert all(g.next_token(u) == v for u, v in pairs)

    def test_short_prefixes_constrain_truncated_window(self):
        # realizable data whose prefixes are shorter than the window
        target = make_threshold([2, -1, 1], Fraction(-1, 2))
        pairs = []
        for bits in ([1], [0], [1, 0], [0, 1, 1], [1, 1, 1, 0]):
            u = seq(bits)
            pairs.append((u, target.next_token(u)))
        f = cons_lp(pairs, 3)
        assert all(f.next_token(u) == v for u, v in pairs)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_realizable_instances(self, data):
        d = data.draw(st.integers(1, 4))
        ws = data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
        b = Fraction(data.draw(st.integers(-6, 6)), 2)
        target = make_threshold(ws, b)
        m = data.draw(st.integers(1, 12))
        pairs = []
        for _ in range(m):
            n = data.draw(st.integers(1, d + 2))
            u = seq(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
            pairs.append((u, target.next_token(u)))
        f = cons_lp(pairs, d)
        assert all(f.next_token(u) == v for u, v in pairs)


class TestEnumeration:
    def test_known_counts(self):
        assert len(enumerate_threshold_functions(1)) == 4
        assert len(enumerate_threshold_functions(2)) == 14

    def test_xor_and_xnor_are_the_missing_two(self):
        fns = enumerate_threshold_functions(2)
        points = list(itertools.product((0, 1), repeat=2))
        xor = tuple(a ^ b for a, b in points)
        xnor = tuple(1 - (a ^ b) for a, b in points)
        assert xor not in fns and xnor not in fns

    def test_cardinality_bound(self):
        for d in (1, 2, 3):
            count = len(enumerate_threshold_functions(d))
            assert count <= (2 * math.e * 2**d) ** (d + 1)

    def test_complementation_symmetry(self, window_four):
        # flip all input bits and negate the output
        for d in (1, 2, 3, 4):
            fns = window_four if d == 4 else enumerate_threshold_functions(d)
            points = list(itertools.product((0, 1), repeat=d))
            index = {p: i for i, p in enumerate(points)}
            for table in fns:
                flipped = tuple(
                    1 - table[index[tuple(1 - b for b in p)]] for p in points
                )
                assert flipped in fns

    def test_window_four_count(self, window_four):
        assert len(window_four) == 1882  # OEIS A000609

    def test_window_four_closed_under_window_permutation_and_input_negation(self, window_four):
        points = list(itertools.product((0, 1), repeat=4))
        index = {p: i for i, p in enumerate(points)}
        moves = [lambda p, perm=perm: tuple(p[i] for i in perm) for perm in itertools.permutations(range(4))]
        moves += [lambda p, i=i: p[:i] + (1 - p[i],) + p[i + 1:] for i in range(4)]
        for move in moves:
            source = [index[move(p)] for p in points]
            assert all(tuple(table[j] for j in source) in window_four for table in window_four)

    def test_one_lp_per_comparable_pair_of_restrictions(self, monkeypatch):
        """Deterministic twin of the level-by-level enumeration: LPs per call.

        Brute force solves 2^(2^d) LPs: 4, 16, 256 and 65,536 for d = 1..4.
        """
        lps = []
        solve = linthresh.solve_feasibility
        monkeypatch.setattr(linthresh, "solve_feasibility", lambda constraints, n: lps.append(n) or solve(constraints, n))
        counts = []
        for d in (1, 2, 3, 4):
            lps.clear()
            enumerate_threshold_functions(d)
            counts.append(len(lps))
        assert counts == [1, 6, 59, 1764]

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            enumerate_threshold_functions(5)

    def test_negative_window_refused(self):
        with pytest.raises(ValueError, match="window length must be nonnegative"):
            enumerate_threshold_functions(-1)


@pytest.fixture(scope="module")
def window_four():
    return enumerate_threshold_functions(4)


class TestPostVerification:
    """A solver point that misses a pair is a solver fault; it must not survive ``python -O``."""

    PAIRS = [(seq([1]), 1), (seq([0]), 0)]

    @pytest.fixture(autouse=True)
    def wrong_solver(self, monkeypatch):
        monkeypatch.setattr(linthresh, "solve_feasibility", lambda constraints, n: (Fraction(0),) * n)

    def test_cons_lp(self):
        with pytest.raises(RuntimeError, match="post-verification"):
            cons_lp(self.PAIRS, 1)

    def test_cons_sparse(self):
        with pytest.raises(RuntimeError, match="post-verification"):
            cons_sparse(self.PAIRS, 1, 1)


class TestDistinctWindows:
    """Deterministic twins of the learners' intake: one LP row per distinct (window, label)."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = linthresh.solve_feasibility
        monkeypatch.setattr(linthresh, "solve_feasibility", lambda constraints, n: calls.append(list(constraints)) or solve(constraints, n))
        return calls

    def test_fit_reaches_the_solver_as_its_distinct_rows_in_first_cut_order(self, solves):
        fit, weights = test_simplex.TestPinnedVertices.FITS[0]
        pairs = test_simplex._fit_pairs(*fit)
        d = fit[1]
        per_cut = []  # one row per cut, as the solver's own dedupe would see them
        for u, v in pairs:
            n = len(u.tokens)
            coeffs = [u.tokens[n - i] if i <= n else 0 for i in range(1, d + 1)] + [1]
            per_cut.append((coeffs, ">=", 0) if v else (coeffs, "<=", -1))
        distinct = [row for i, row in enumerate(per_cut) if row not in per_cut[:i]]
        assert format_threshold(cons_lp(pairs, d)) == weights
        assert (len(pairs), len(distinct)) == (320, 42)
        assert solves == [distinct]

    # (0, 1) ends both prompts; the second one's window is zero-padded
    BOTH_LABELS = [(seq([1, 0, 1]), 0), (seq([1]), 1)]
    LEARNERS = {
        "cons_lp": (lambda pairs: cons_lp(pairs, 2), "no window-2 linear threshold is consistent with the data"),
        "cons_sparse": (lambda pairs: cons_sparse(pairs, 2, 1), "no 1-sparse window-2 threshold is consistent with the data"),
    }

    @pytest.mark.parametrize("learn, message", LEARNERS.values(), ids=LEARNERS.keys())
    def test_a_window_with_both_labels_is_refused_without_an_lp(self, solves, learn, message):
        with pytest.raises(NotRealizableError, match=re.escape(message)):
            learn(self.BOTH_LABELS)
        assert solves == []

    @pytest.mark.parametrize("learn", [learn for learn, _ in LEARNERS.values()], ids=LEARNERS.keys())
    @pytest.mark.parametrize("bad", [(seq([1]), 2), (Alphabet(("a", "b")).seq([0]), 1)], ids=["label", "alphabet"])
    def test_input_refusals_come_before_the_window_refusal(self, solves, learn, bad):
        with pytest.raises(ValueError, match="LP consistency needs binary prefixes and labels"):
            learn(self.BOTH_LABELS + [bad])
        assert solves == []


class TestConsSparse:
    def test_one_sparse_target_recovered_sparsely(self):
        target = SparseLinearThreshold(8, 1, (5,), (Fraction(2),), Fraction(-1))
        pairs = []
        for trial_bits in itertools.product((0, 1), repeat=6):
            u = seq(list(trial_bits) + [1, 0])
            pairs.append((u, target.next_token(u)))
        f = cons_sparse(pairs, 8, 1)
        assert len(f.support) <= 1
        assert all(f.next_token(u) == v for u, v in pairs)

    def test_k_equals_d_matches_dense_verdict(self):
        pairs = [(seq([a, b]), a & b) for a in (0, 1) for b in (0, 1)]
        dense = cons_lp(pairs, 2)
        sparse = cons_sparse(pairs, 2, 2)
        assert all(sparse.next_token(u) == dense.next_token(u) == v for (u, v) in pairs)
        xor_pairs = [(seq([a, b]), a ^ b) for a in (0, 1) for b in (0, 1)]
        with pytest.raises(NotRealizableError):
            cons_sparse(xor_pairs, 2, 2)

    def test_k_zero_constant_labels_only(self):
        const = [(seq([0]), 1), (seq([1, 1]), 1)]
        f = cons_sparse(const, 3, 0)
        assert f.support == ()
        mixed = [(seq([0]), 1), (seq([1]), 0)]
        with pytest.raises(NotRealizableError):
            cons_sparse(mixed, 3, 0)

    def test_support_guard(self):
        with pytest.raises(GuardExceededError):
            cons_sparse([], 60, 10)


class TestSerialization:
    def test_round_trip(self):
        f = make_threshold([Fraction(1, 2), -3, 0], Fraction(-7, 3))
        text = format_threshold(f)
        assert parse_threshold(text) == f
        assert text.split()[0] == "3"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_threshold("2 0 1")  # missing one weight

    def test_decimal_exponent_is_bounded(self):
        bound = linthresh.MAX_DECIMAL_EXPONENT
        assert parse_fraction(f"1e{bound}") == 10 ** bound
        assert parse_fraction(f"-2.5E-{bound}") == Fraction(-25, 10 ** (bound + 1))
        assert parse_fraction("3e0_001") == 30
        for text in (f"1e{bound + 1}", f"1e-{bound + 1}", "1e4000000", "1e" + "9" * 5000):
            with pytest.raises(ValueError, match="exponent"):
                parse_fraction(text)

    @given(st.lists(st.fractions(max_denominator=50), max_size=6), st.fractions(max_denominator=50))
    def test_round_trip_drawn_weights(self, weights, bias):
        f = LinearThreshold(tuple(weights), bias)
        assert parse_threshold(format_threshold(f)) == f

    @given(st.one_of(
        st.text(),
        st.lists(st.one_of(st.integers(-3, 8).map(str), st.text(alphabet="0123456789-+/._eE ", max_size=6)))
        .map(" ".join),
    ))
    def test_arbitrary_text_parses_or_raises_value_error(self, text):
        try:
            f = parse_threshold(text)
        except ValueError:
            return
        assert isinstance(f, LinearThreshold)


class TestFamilies:
    def test_oracle_backed_family(self):
        fam = ThresholdFamily(3)
        assert fam.size() is None
        with pytest.raises(GuardExceededError):
            next(iter(fam.members()))
        oracle = fam.cons_oracle()
        f = oracle([(seq([1]), 1), (seq([0]), 0)])
        assert isinstance(f, LinearThreshold)

    def test_default_members_predict(self):
        fam = ThresholdFamily(2)
        assert fam.default_member().next_token(seq([0, 1])) == 1  # thr(0) = 1
