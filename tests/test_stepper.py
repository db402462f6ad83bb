"""Decode-state steppers against the stateless reference.

``cot`` runs ``Generator.stepper`` over one growing list; ``next_token`` on
the whole history is the paper's definition. Every generator kind must give
the same tokens, and raise the same errors, both ways.
"""

import itertools
import random
from fractions import Fraction

import pytest
import reference_lookup
from hypothesis import given, settings, strategies as st

from cotlearn import circomp
from cotlearn.attention import AttentionTMGenerator
from cotlearn.lbfamilies import CollapseFamily, E1Family, LdimFamily, LookupFamily
from cotlearn.linthresh import LinearThreshold, SparseLinearThreshold, make_threshold
from cotlearn.seqcore import (
    BINARY,
    Alphabet,
    ConstantGenerator,
    TokenSeq,
    cot,
    cot_time_dependent,
    e2e,
)
from cotlearn.turing import BLANK, TMFamily, TMGenerator, TMToken, encode_token, pre, tm_alphabet


def reference_cot(f, x, T):
    """T plain calls of the reference next_token, each on a fresh full history."""
    tokens = list(x.tokens)
    for _ in range(T):
        tokens.append(f.next_token(TokenSeq(x.alphabet, tuple(tokens))))
    return TokenSeq(x.alphabet, tuple(tokens))


def error_of(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return info.type, str(info.value)


def test_tm_stepper_on_corpus(tm_corpus):
    for run in tm_corpus:
        gen = TMGenerator(run.spec.S, run.spec.table)
        assert run.generated == reference_cot(gen, pre(run.omega, run.spec.S), run.spec.T)


def test_attention_stepper_on_corpus_sample(tm_corpus):
    for run in random.Random(5).sample(tm_corpus, 200):
        gen = AttentionTMGenerator(run.spec.S, run.spec.table)
        x = pre(run.omega, run.spec.S)
        z = cot(gen, x, run.spec.T)
        assert z == run.generated
        assert z == reference_cot(gen, x, run.spec.T)


# Every binary prompt of up to 8 bits: all-zero prompts, partial points,
# points with faithful and off-pattern continuations, and continuations
# past the pattern's end.
BINARY_PROMPTS = tuple(BINARY.seq(bits) for n in range(9) for bits in itertools.product((0, 1), repeat=n))


LOOKUP_FAMILIES = (
    [(E1Family(D, T), T) for D in (1, 2, 3) for T in range(1, 9)]
    + [(LdimFamily(D), D) for D in range(1, 7)]
    + [(CollapseFamily(D), 1) for D in range(1, 7)]
)  # each with the length of the pattern its members replay


def test_lookup_generators():
    rng = random.Random(11)
    for fam, pattern_len in LOOKUP_FAMILIES:
        for f in (fam.random_member(rng), fam.random_member(rng)):
            for x in BINARY_PROMPTS:
                assert f.next_token(x) == reference_lookup.next_token(f, x.tokens), (fam, f.b, x)
            for T in (1, 3, pattern_len + 3):
                for x in BINARY_PROMPTS:
                    assert cot(f, x, T) == reference_cot(f, x, T), (fam, f.b, x, T)


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_threshold_steppers(data):
    d = data.draw(st.integers(0, 9), label="d")
    if data.draw(st.booleans(), label="sparse"):
        k = data.draw(st.integers(0, d), label="k")
        support = tuple(sorted(data.draw(st.sets(st.integers(1, d), max_size=k) if d else st.just(set()))))
        f = SparseLinearThreshold(d, k, support, tuple(data.draw(fractions) for _ in support), data.draw(fractions))
    else:
        f = LinearThreshold(tuple(data.draw(st.lists(fractions, min_size=d, max_size=d))), data.draw(fractions))
    x = BINARY.seq(data.draw(st.lists(st.integers(0, 1), max_size=d + 2), label="prompt"))
    T = data.draw(st.integers(1, 25), label="T")
    assert cot(f, x, T) == reference_cot(f, x, T)


def test_threshold_stepper_with_empty_prompt_and_long_window():
    f = make_threshold([1, -1, 2, 0, 0, -3, 1, 1], Fraction(-1, 2))
    for x in (BINARY.seq(), BINARY.seq([1]), BINARY.seq([0, 1, 1])):
        assert cot(f, x, 30) == reference_cot(f, x, 30)


def test_compiled_circuit_generator():
    circuit = circomp.random_normalized_circuit(random.Random(7), 4, 2, 2)
    compiled = circomp.compile_circuit(circuit)
    f = compiled.generator()
    for bits in range(2 ** circuit.n):
        x = circomp.feature_map([(bits >> j) & 1 for j in range(circuit.n)], compiled.T)
        assert cot(f, x, compiled.T) == reference_cot(f, x, compiled.T)


class TestSameErrors:
    TABLE = ((1, 1, 1),) * 3

    @pytest.mark.parametrize("cls", [TMGenerator, AttentionTMGenerator])
    def test_empty_history(self, cls):
        f = cls(1, self.TABLE)
        x = TokenSeq(tm_alphabet(1), ())
        assert error_of(lambda: cot(f, x, 3)) == error_of(lambda: reference_cot(f, x, 3))

    @pytest.mark.parametrize("tokens", [[TMToken(1, 0, 1)], [TMToken(1, BLANK, 1), TMToken(1, BLANK, 0)]])
    def test_attention_history_without_begin_marker(self, tokens):
        f = AttentionTMGenerator(1, self.TABLE)
        x = TokenSeq(tm_alphabet(1), tuple(encode_token(1, t) for t in tokens))
        expected = error_of(lambda: reference_cot(f, x, 2))
        assert "begin marker" in expected[1]
        assert error_of(lambda: cot(f, x, 2)) == expected

    def test_out_of_range_token(self):
        f = ConstantGenerator(BINARY, 2)
        x = BINARY.seq([1])
        expected = error_of(lambda: reference_cot(f, x, 2))
        assert error_of(lambda: cot(f, x, 2)) == expected
        assert error_of(lambda: cot_time_dependent([f], x)) == expected


@pytest.mark.parametrize(
    "f, x",
    [
        (make_threshold([1, -2, 3, -1, 2], Fraction(-1, 2)), BINARY.seq([1, 0, 1])),
        (TMFamily(3).random_member(random.Random(3)), pre([1, 0, 1], 3)),
    ],
    ids=["threshold-window-5", "machine-3-states"],
)
def test_cot_is_linear_by_count(f, x, monkeypatch):
    """Deterministic twin of a wall-time check: a long cot builds one
    sequence and never replays the history through next_token."""
    counts = {"seqs": 0, "next_token": 0}
    post_init = TokenSeq.__post_init__

    def counting_post_init(self):
        counts["seqs"] += 1
        post_init(self)

    monkeypatch.setattr(TokenSeq, "__post_init__", counting_post_init)
    for cls in (LinearThreshold, TMGenerator):
        reference = cls.next_token

        def counting_next_token(self, z, _reference=reference):
            counts["next_token"] += 1
            return _reference(self, z)

        monkeypatch.setattr(cls, "next_token", counting_next_token)
    z = cot(f, x, 4000)
    assert len(z) == len(x) + 4000
    assert counts == {"seqs": 1, "next_token": 0}


@pytest.mark.parametrize(
    "f, x",
    [
        (E1Family(3, 8).random_member(random.Random(4)), E1Family(3, 8).canonical_points()[13]),
        (LdimFamily(8).random_member(random.Random(4)), LdimFamily(8).canonical_points()[5]),
    ],
    ids=["e1-3-8", "ldim-8"],
)
@pytest.mark.parametrize("run, seqs", [(cot, 1), (e2e, 0)], ids=["cot", "e2e"])
def test_lookup_generation_is_linear_by_count(f, x, run, seqs, monkeypatch):
    """Deterministic twin of the lookup generators' timing: a long generation
    never evaluates a member on the whole history, cot builds one sequence
    and e2e builds none."""
    counts = {"seqs": 0, "eval": 0}
    post_init = TokenSeq.__post_init__

    def counting_post_init(self):
        counts["seqs"] += 1
        post_init(self)

    monkeypatch.setattr(TokenSeq, "__post_init__", counting_post_init)
    reference = LookupFamily._eval

    def counting_eval(self, b, tokens):
        counts["eval"] += 1
        return reference(self, b, tokens)

    monkeypatch.setattr(LookupFamily, "_eval", counting_eval)
    run(f, x, 4000)
    assert counts == {"seqs": seqs, "eval": 0}


def _generator_and_prompt(data):
    """A lookup, threshold or machine generator with a prompt in its alphabet."""
    kind = data.draw(st.sampled_from(["lookup", "threshold", "machine"]), label="kind")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    if kind == "machine":
        S = data.draw(st.integers(1, 3), label="S")
        omega = data.draw(st.lists(st.integers(0, 1), max_size=5), label="omega")
        return TMFamily(S).random_member(rng), pre(omega, S)
    if kind == "lookup":
        fam = data.draw(st.sampled_from([E1Family(2, 3), E1Family(3, 2), LdimFamily(4), CollapseFamily(5)]), label="family")
        f = fam.random_member(rng)
    else:
        f = make_threshold(data.draw(st.lists(fractions, max_size=6), label="w"), data.draw(fractions, label="theta"))
    return f, BINARY.seq(data.draw(st.lists(st.integers(0, 1), max_size=10), label="prompt"))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_e2e_is_the_last_token_of_cot(data):
    f, x = _generator_and_prompt(data)
    T = data.draw(st.integers(1, 30), label="T")
    assert e2e(f, x, T) == cot(f, x, T).tokens[-1]


@pytest.mark.parametrize(
    "f, x, T",
    [
        (ConstantGenerator(BINARY, 1), BINARY.seq([1]), 0),
        (ConstantGenerator(BINARY, 1), BINARY.seq([1]), -3),
        (ConstantGenerator(Alphabet(("a", "b")), 0), BINARY.seq([1]), 2),
        (ConstantGenerator(BINARY, 2), BINARY.seq([1]), 2),
    ],
    ids=["T=0", "T<0", "alphabet", "out-of-range"],
)
def test_e2e_raises_what_cot_raises(f, x, T):
    expected = error_of(lambda: cot(f, x, T))
    assert error_of(lambda: e2e(f, x, T)) == expected


def test_attention_cot_scores_one_key_per_cell(monkeypatch):
    """Deterministic twin of the attention generator's timing: a machine
    that never moves keeps the cells, and so the keys scored per step,
    bounded, and generation computes no Fraction dot product."""
    from cotlearn import attention

    counts = {"keys": 0, "dots": 0}
    lookup, dot = attention._lookup_argmax, attention._dot

    def counting_lookup(head, writers):
        counts["keys"] += len(writers)
        return lookup(head, writers)

    def counting_dot(a, b):
        counts["dots"] += 1
        return dot(a, b)

    monkeypatch.setattr(attention, "_lookup_argmax", counting_lookup)
    monkeypatch.setattr(attention, "_dot", counting_dot)
    f = AttentionTMGenerator(2, ((2, 1, 0), (1, 0, 0), (2, 0, 0)) * 2)
    x = pre([1, 0, 1, 1], 2)
    T = 2000
    z = cot(f, x, T)
    assert len(z) == len(x) + T
    assert 0 < counts["keys"] <= T * (len(x) + 1)
    assert counts["dots"] == 0
