import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
import reference_circomp
from hypothesis import given, settings, strategies as st
from reference_circomp import format_circuit, make_circuit

from cotlearn.linthresh import IntegerThreshold, LinearThreshold, format_threshold
from cotlearn.seqcore import GuardExceededError, e2e
from cotlearn import circomp
from cotlearn.circomp import (
    ThresholdCircuit,
    compile_circuit,
    eval_circuit_values,
    feature_map,
    is_normalized,
    normalize_circuit,
    parse_circuit,
    random_normalized_circuit,
    verify_compilation,
)

# AND of two bits with each gate's bias folded onto a third, always-1 input:
# layer 1 is a + b - 3/2 >= 0, layer 2 the identity on it (g - 1/2 >= 0).
_FOLDED_AND = make_circuit(3, [[[1, 1, Fraction(-3, 2)]], [[0, 0, Fraction(-1, 2), 1]]])


@st.composite
def circuits(draw, max_n=5, max_width=3, max_depth=3):
    """Layered circuits of drawn widths; weights are Fractions with mixed
    denominators, and some gates are all zero."""
    n = draw(st.integers(1, max_n))
    weights = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    layers = []
    preds = n
    for _ in range(draw(st.integers(1, max_depth))):
        width = draw(st.integers(1, max_width))
        layers.append(tuple(
            tuple(Fraction(0) for _ in range(preds)) if draw(st.booleans())
            else tuple(draw(st.lists(weights, min_size=preds, max_size=preds)))
            for _ in range(width)
        ))
        preds += width
    return ThresholdCircuit(n, tuple(layers))


def circuit_output(c, x):
    """The circuit's output: the value of the last gate of the last layer."""
    return eval_circuit_values(c, x)[-1][-1]


def scheduled_steps(comp):
    """The steps at which some gate is emitted, read from ``gate_times``."""
    return {t for times in comp.gate_times for t in times}


def off_schedule_steps(comp):
    """The steps 1..T at which no gate is emitted, in time order."""
    scheduled = scheduled_steps(comp)
    return [t for t in range(1, comp.T + 1) if t not in scheduled]


def zero_off_schedule_sentinel(comp):
    """The compile with every off-schedule sentinel entry set to 0, so no
    step is proved silent and the verifier sums all T steps."""
    w = list(comp.w)
    for t in off_schedule_steps(comp):
        w[comp.T - t] = Fraction(0)
    return dataclasses.replace(comp, w=tuple(w))


def error_of(call):
    try:
        call()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


class TestEval:
    def test_zero_weight_gate_outputs_one(self):
        c = make_circuit(2, [[[0, 0]]])
        for x in itertools.product((0, 1), repeat=2):
            assert circuit_output(c, x) == 1

    def test_not_gate(self):
        c = make_circuit(1, [[[-1]]])
        assert circuit_output(c, [0]) == 1
        assert circuit_output(c, [1]) == 0

    def test_and_via_bias_fold_two_layers(self):
        for a, b in itertools.product((0, 1), repeat=2):
            assert circuit_output(_FOLDED_AND, [a, b, 1]) == (a & b)

    def test_size_mismatch(self):
        c = make_circuit(2, [[[1, 1]]])
        with pytest.raises(ValueError):
            circuit_output(c, [1])

    def test_gate_arity_validated(self):
        with pytest.raises(ValueError):
            make_circuit(2, [[[1, 1, 1]]])

    def test_all_gate_values_exposed(self):
        c = make_circuit(1, [[[1], [-1]], [[0, 1, -1]]])
        vals = eval_circuit_values(c, [1])
        assert vals == [(1, 0), (1,)]

    @settings(max_examples=200, deadline=None)
    @given(circuits(), st.data())
    def test_integer_gates_match_fraction_reference(self, c, data):
        x = data.draw(st.lists(st.integers(0, 1), min_size=c.n, max_size=c.n))
        assert eval_circuit_values(c, x) == reference_circomp.eval_circuit_values(c, x)

    @settings(max_examples=100, deadline=None)
    @given(circuits(max_depth=1), st.data())
    def test_bad_inputs_raise_the_reference_errors(self, c, data):
        wrong_length = data.draw(st.lists(st.integers(0, 1), max_size=c.n + 2).filter(lambda x: len(x) != c.n))
        non_bits = data.draw(
            st.lists(st.integers(-2, 3), min_size=c.n, max_size=c.n).filter(lambda x: any(b not in (0, 1) for b in x))
        )
        for x in (wrong_length, non_bits):
            expected = error_of(lambda: reference_circomp.eval_circuit_values(c, x))
            assert expected is not None
            assert error_of(lambda: eval_circuit_values(c, x)) == expected


class TestNormalize:
    def test_idempotent_on_normalized(self):
        rng = random.Random(0)
        c = random_normalized_circuit(rng, 3, 2, 2)
        assert is_normalized(c)
        assert normalize_circuit(c) is c

    def test_truth_table_preserved(self):
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randint(1, 3)
            widths = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
            layers = []
            preds = n
            for w in widths:
                layers.append([
                    [rng.randint(-2, 2) for _ in range(preds)] for _ in range(w)
                ])
                preds += w
            c = make_circuit(n, layers)
            norm = normalize_circuit(c)
            assert is_normalized(norm)
            for x in itertools.product((0, 1), repeat=n):
                for pad in itertools.product((0, 1), repeat=norm.n - n):
                    assert circuit_output(norm, x + pad) == circuit_output(c, x)

    def test_width_one_layer_padding(self):
        c = make_circuit(1, [[[1]]])
        norm = normalize_circuit(c)
        assert norm.n == 2 and norm.widths == (2,)
        for x in ((0,), (1,)):
            assert circuit_output(norm, x + (0,)) == circuit_output(c, x)

    def test_output_gate_stays_last(self):
        # distinct gates in the output layer; the padded dummy must not displace the output
        c = make_circuit(1, [[[1], [-1]]])  # output = NOT(x)
        norm = normalize_circuit(c)
        for x in ((0,), (1,)):
            assert circuit_output(norm, x + (0,)) == circuit_output(c, x)


class TestFeatureMap:
    def test_direct_construction(self):
        assert feature_map([1], 3).tokens == (1, 0, 0, 1)

    def test_leading_one_and_length(self):
        for T in (1, 4):
            for x in ([0, 1], [1, 1, 0]):
                phi = feature_map(x, T)
                assert phi.tokens[0] == 1
                assert len(phi) == T + len(x)


class TestCompile:
    def test_size_arithmetic_example(self):
        rng = random.Random(2)
        c = random_normalized_circuit(rng, 2, 2, 1)
        comp = compile_circuit(c)
        assert comp.T == 4          # (s+1)^L * n - n = 3*2 - 2
        assert len(comp.w) == 9     # T + tilde_p[L] - 1 = 4 + 6 - 1
        assert comp.d == 9

    def test_ladder_and_schedule(self):
        rng = random.Random(3)
        c = random_normalized_circuit(rng, 2, 2, 2)
        comp = compile_circuit(c)
        assert comp.tilde_p == (2, 6, 18)
        assert comp.gate_times[0] == (2, 4)
        assert comp.gate_times[1] == (4 + 6, 4 + 12)
        assert comp.gate_times[-1][-1] == comp.T
        assert comp.B > sum(abs(w) for layer in c.layers for g in layer for w in g)

    def test_rejects_unnormalized(self):
        c = make_circuit(1, [[[1]]])
        assert not is_normalized(c)
        with pytest.raises(ValueError):
            compile_circuit(c)

    def test_deterministic(self):
        rng = random.Random(4)
        c = random_normalized_circuit(rng, 3, 2, 2)
        assert compile_circuit(c).w == compile_circuit(c).w

    def test_size_guard_is_exact(self, monkeypatch):
        c = random_normalized_circuit(random.Random(11), 2, 2, 2)
        d = compile_circuit(c).d
        monkeypatch.setattr(circomp, "COMPILE_MAX_D", d)
        assert compile_circuit(c).d == d
        monkeypatch.setattr(circomp, "COMPILE_MAX_D", d - 1)
        with pytest.raises(GuardExceededError, match=f"exceeds the guard {d - 1}"):
            compile_circuit(c)

    def test_generator_is_built_once(self):
        comp = compile_circuit(random_normalized_circuit(random.Random(3), 2, 2, 2))
        f = comp.generator()
        assert comp.generator() is f
        assert f.integer_form is comp.generator().integer_form
        assert format_threshold(f) == format_threshold(LinearThreshold(comp.w, Fraction(0)))


class TestVerify:
    def test_not_gate_passes(self):
        c = normalize_circuit(make_circuit(1, [[[-1]]]))
        report = verify_compilation(c, compile_circuit(c))
        assert report.ok and report.inputs_checked == 4
        assert "OK" in report.summary()

    def test_constant_circuit(self):
        c = normalize_circuit(make_circuit(1, [[[0]]]))
        comp = compile_circuit(c)
        report = verify_compilation(c, comp)
        assert report.ok
        # and the answer is the constant 1
        f = comp.generator()
        for x in itertools.product((0, 1), repeat=c.n):
            assert e2e(f, feature_map(x, comp.T), comp.T) == 1

    def test_corrupted_sentinel_detected(self):
        c = normalize_circuit(make_circuit(1, [[[-1]]]))
        comp = compile_circuit(c)
        bad_w = list(comp.w)
        t_bad = off_schedule_steps(comp)[0]
        bad_w[comp.T - t_bad] = Fraction(0)
        bad = dataclasses.replace(comp, w=tuple(bad_w))
        report = verify_compilation(c, bad)
        assert not report.ok
        assert any(f.kind.startswith("off-schedule") for f in report.failures)

    def test_guard_on_wide_inputs(self):
        rng = random.Random(5)
        c = random_normalized_circuit(rng, 13, 1, 1)
        with pytest.raises(GuardExceededError):
            verify_compilation(c, compile_circuit(c))

    def test_matches_seqcore_e2e_route(self):
        rng = random.Random(6)
        c = random_normalized_circuit(rng, 2, 2, 2)
        comp = compile_circuit(c)
        f = comp.generator()
        for x in itertools.product((0, 1), repeat=c.n):
            assert e2e(f, feature_map(x, comp.T), comp.T) == circuit_output(c, x)

    def test_bounds_hold_for_pre_normalization_parameters(self):
        # ragged circuits: normalize, compile, and state the bounds in the
        # original (n, max width) parameters
        rng = random.Random(9)
        for _ in range(15):
            n = rng.randint(1, 3)
            L = rng.randint(1, 2)
            widths = [rng.randint(1, 3) for _ in range(L)]
            layers = []
            preds = n
            for w in widths:
                layers.append([[rng.randint(-2, 2) for _ in range(preds)] for _ in range(w)])
                preds += w
            c = make_circuit(n, layers)
            s = c.width
            comp = compile_circuit(normalize_circuit(c))
            assert comp.T <= (s + 2) ** L * (n + 1)
            assert comp.d <= 2 * (s + 2) ** L * (n + 1)

    def test_bias_fold_compiles_and_verifies(self):
        norm = normalize_circuit(_FOLDED_AND)
        comp = compile_circuit(norm)
        report = verify_compilation(norm, comp)
        assert report.ok
        # the compiled answer agrees with the AND truth table when the bias
        # input carries a 1 and the normalization dummy a 0
        f = comp.generator()
        for a, b in itertools.product((0, 1), repeat=2):
            x = (a, b, 1, 0)
            assert e2e(f, feature_map(x, comp.T), comp.T) == (a & b)

    def test_random_circuits_exhaustively(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 4)
            s = rng.randint(1, 3)
            L = rng.randint(1, 2)
            c = random_normalized_circuit(rng, n, s, L)
            comp = compile_circuit(c)
            assert comp.T <= (s + 2) ** L * (n + 1)
            assert comp.d <= 2 * (s + 2) ** L * (n + 1)
            report = verify_compilation(c, comp)
            assert report.ok, report.failures[:3]

    def test_reports_match_stepper_oracle(self):
        """The integer-trajectory verifier against the step-by-step one it
        replaced (tests/reference_circomp.py). Every other circuit gets 1-3
        compiled weights overwritten, so many reports carry failures."""
        rng = random.Random(20251018)
        failed = 0
        for k in range(300):
            c = random_normalized_circuit(rng, rng.randint(1, 5), rng.randint(1, 3), rng.randint(1, 2))
            comp = compile_circuit(c)
            if k % 2:
                w = list(comp.w)
                for _ in range(rng.randint(1, 3)):
                    w[rng.randrange(len(w))] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                comp = dataclasses.replace(comp, w=tuple(w))
            report = verify_compilation(c, comp)
            assert report == reference_circomp.verify_compilation(c, comp), (k, report.summary())
            failed += not report.ok
        assert failed >= 50

    def test_summed_steps_are_the_scheduled_steps(self):
        """Deterministic twin of the verifier's speed, and the paper's B > l1
        argument as a test: on an honest compile the sentinel settles every
        off-schedule step before any input, so each input sums only the s·L
        scheduled steps, out of T."""
        rng = random.Random(21)
        shapes = list(itertools.product(range(1, 9), range(1, 4), range(1, 4)))
        shapes += [(6, 3, 4), (8, 4, 3), (1, 1, 10)]  # d = 3065, 1991, 2046
        ds = set()
        for n, s, L in shapes:
            for _ in range(2):
                comp = compile_circuit(random_normalized_circuit(rng, n, s, L))
                steps = circomp._step_plan(comp)[2]
                assert steps == sorted(t - 1 for t in scheduled_steps(comp)), (n, s, L)
                assert len(steps) == s * L
                ds.add(comp.d)
        assert max(ds) == 3065

    def test_zeroed_sentinel_entry_adds_its_step(self):
        comp = compile_circuit(random_normalized_circuit(random.Random(12), 3, 2, 2))
        scheduled = [t - 1 for t in scheduled_steps(comp)]
        off = off_schedule_steps(comp)
        assert len(off) == comp.T - 4
        for t in off:
            w = list(comp.w)
            w[comp.T - t] = Fraction(0)
            bad = dataclasses.replace(comp, w=tuple(w))
            assert circomp._step_plan(bad)[2] == sorted(scheduled + [t - 1])

    def test_reports_match_oracle_near_the_sentinel_bound(self):
        """Sentinel entries set to 0, or to one scaled unit either side of
        the bound, against tests/reference_circomp.py. A step that fails
        the bound is summed whether no input, some inputs or every input
        breaks check (c); one at the bound or below it is not summed. With
        every off-schedule entry zeroed, all T steps are summed and one
        report interleaves all four failure kinds."""
        rng = random.Random(2110)
        seen = set()
        kinds = set()
        for k in range(80):
            c = random_normalized_circuit(rng, rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 2))
            if k % 2:  # the same gates over thirds: the scale becomes 3
                c = ThresholdCircuit(c.n, tuple(tuple(tuple(w / 3 for w in g) for g in layer) for layer in c.layers))
            comp = compile_circuit(c)
            weight_at = circomp._step_plan(comp)[0]
            scale = comp.generator().integer_form.scale
            off = off_schedule_steps(comp)
            if not off:
                continue
            zeroed = zero_off_schedule_sentinel(comp)
            assert circomp._step_plan(zeroed)[2] == list(range(comp.T)), k
            report = verify_compilation(c, zeroed)
            assert report == reference_circomp.verify_compilation(c, zeroed), k
            kinds.add(frozenset(f.kind for f in report.failures))
            t = rng.choice(off)
            positive = sum(max(0, w) for w in weight_at[1:t + c.n])  # offsets 1..(t-1)+n
            for delta in (None, -1, 0, 1):
                w = list(comp.w)
                w[comp.T - t] = Fraction(0) if delta is None else Fraction(-scale - positive + delta, scale)
                bad = dataclasses.replace(comp, w=tuple(w))
                report = verify_compilation(c, bad)
                assert report == reference_circomp.verify_compilation(c, bad), (k, delta)
                if bad.generator().integer_form.scale != scale:
                    continue
                summed = t - 1 in circomp._step_plan(bad)[2]
                assert summed == (delta is None or delta > 0), (k, delta)
                broken = len({f.x for f in report.failures if f.step == t})
                seen.add((delta, "none" if not broken else "all" if broken == report.inputs_checked else "some"))
        assert {(1, "none"), (1, "some"), (1, "all"), (0, "none"), (-1, "none"), (None, "some"), (None, "all")} <= seen, seen
        assert {"gate-step", "off-schedule-token", "off-schedule-sum", "final-answer"} in kinds, kinds

    def test_refuses_mismatched_shapes(self):
        small = random_normalized_circuit(random.Random(13), 2, 1, 1)
        comp = compile_circuit(random_normalized_circuit(random.Random(13), 2, 2, 2))
        with pytest.raises(ValueError, match=r"\(2, 1, 1\).*\(2, 2, 2\)"):
            verify_compilation(small, comp)

    def test_refuses_ragged_circuit_of_the_compiled_shape(self):
        """A circuit of non-uniform widths whose (n, max width, depth)
        matches the compile has no gate at some scheduled step."""
        ragged = make_circuit(3, [[[1, 0, -1]], [[1, 1, 0, 1], [0, 1, 1, -1]]])
        comp = compile_circuit(random_normalized_circuit(random.Random(3), 3, 2, 2))
        assert (ragged.n, ragged.width, ragged.depth) == (comp.n, comp.s, comp.L)
        with pytest.raises(ValueError, match=r"widths \(1, 2\)"):
            verify_compilation(ragged, comp)

    def test_reports_match_oracle_on_another_circuit(self):
        """A compile checked against a different circuit of its shape, so
        the gate-step and final-answer failures come from that circuit's
        own sums. Every other pair has its gates over halves and thirds,
        each gate over its own denominator, so each gate has its own scale."""
        rng = random.Random(3003)

        def over(c):
            return ThresholdCircuit(c.n, tuple(
                tuple(tuple(w / d for w in gate) for gate, d in zip(layer, itertools.cycle((3, 2, 1))))
                for layer in c.layers
            ))

        kinds = set()
        mixed = 0  # pairs whose circuit has gates of different scales
        for k in range(60):
            shape = (rng.randint(1, 5), rng.randint(1, 3), rng.randint(1, 3))
            c1, c2 = (random_normalized_circuit(rng, *shape) for _ in range(2))
            if k % 2:
                c1, c2 = over(c1), over(c2)
                mixed += len({form.scale for layer in c2.integer_layers for form in layer}) > 1
            comp = compile_circuit(c1)
            report = verify_compilation(c2, comp)
            assert report == reference_circomp.verify_compilation(c2, comp), (k, shape)
            kinds |= {f.kind for f in report.failures}
        assert kinds == {"gate-step", "final-answer"}, kinds
        assert mixed >= 15, mixed

    def test_no_circuit_evaluation_or_threshold_call_by_count(self, monkeypatch):
        """Deterministic twin of the verifier's speed: the circuit's gate
        sums ride on the verifier's own stack, so it calls neither
        ``eval_circuit_values`` nor the integer form's ``total`` or
        ``generate``. With every off-schedule sentinel entry zeroed, all
        256 inputs fail, and their reports come from the same walk."""
        counts = {"eval": 0, "total": 0, "generate": 0}

        def counting(key, call):
            def counted(*args):
                counts[key] += 1
                return call(*args)
            return counted

        c = random_normalized_circuit(random.Random(10), 8, 2, 3)
        comp = compile_circuit(c)
        zeroed = zero_off_schedule_sentinel(comp)
        monkeypatch.setattr(circomp, "eval_circuit_values", counting("eval", circomp.eval_circuit_values))
        monkeypatch.setattr(IntegerThreshold, "total", counting("total", IntegerThreshold.total))
        monkeypatch.setattr(IntegerThreshold, "generate", counting("generate", IntegerThreshold.generate))
        report = verify_compilation(c, comp)
        assert report.ok and report.inputs_checked == 256
        report = verify_compilation(c, zeroed)
        assert report.inputs_checked == 256
        assert len({f.x for f in report.failures}) == 256
        assert counts == {"eval": 0, "total": 0, "generate": 0}


class TestFileFormat:
    def test_round_trip(self):
        rng = random.Random(8)
        c = random_normalized_circuit(rng, 2, 3, 2)
        assert parse_circuit(format_circuit(c)) == c

    def test_ragged_has_no_file_form(self):
        c = make_circuit(1, [[[1]], [[1, 1], [0, -1]]])
        with pytest.raises(ValueError):
            format_circuit(c)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_circuit("")
        with pytest.raises(ValueError):
            parse_circuit("1 1\n")
        with pytest.raises(ValueError):
            parse_circuit("1 1 1\n1 1 : 1 2\n")  # wrong arity
        with pytest.raises(ValueError):
            parse_circuit("1 1 1\n")  # missing gates

    @settings(max_examples=100, deadline=None)
    @given(circuits(max_depth=2).map(normalize_circuit))
    def test_round_trip_drawn_circuits(self, c):
        assert is_normalized(c)
        assert parse_circuit(format_circuit(c)) == c

    @settings(deadline=None)
    @given(st.one_of(
        st.text(),
        st.lists(
            st.lists(st.one_of(st.integers(-1, 4).map(str), st.text(alphabet="0123456789-+/._eE:# ", max_size=6)))
            .map(" ".join)
        ).map("\n".join),
    ))
    def test_arbitrary_text_parses_or_raises_value_error(self, text):
        try:
            c = parse_circuit(text)
        except ValueError:
            return
        assert isinstance(c, ThresholdCircuit)
