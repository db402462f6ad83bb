"""Decode-state steppers against the stateless reference.

``cot`` runs ``Generator.stepper`` over one growing list; ``next_token`` on
the whole history is the paper's definition. Every generator kind must give
the same tokens, and raise the same errors, both ways.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cotlearn import circomp
from cotlearn.attention import AttentionTMGenerator
from cotlearn.lbfamilies import CollapseFamily, E1Family, LdimFamily
from cotlearn.linthresh import LinearThreshold, SparseLinearThreshold, make_threshold
from cotlearn.seqcore import BINARY, ConstantGenerator, TokenSeq, cot, cot_time_dependent
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


def test_lookup_generators():
    rng = random.Random(11)
    for fam, T in ((E1Family(2, 3), 3), (E1Family(3, 4), 4), (LdimFamily(4), 5), (CollapseFamily(6), 2)):
        for _ in range(20):
            f = fam.random_member(rng)
            for x in fam.canonical_points():
                assert cot(f, x, T) == reference_cot(f, x, T)


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
