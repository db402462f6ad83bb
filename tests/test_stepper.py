"""Whole-chain generation against the stateless reference.

``cot`` makes one ``Generator.generate`` call that appends the whole chain
to one list; ``next_token`` on the whole history is the paper's definition.
Every generator kind must give the same tokens, and raise the same errors,
both ways. The former per-token stepper loops of the machine generators are
the oracles in ``tests/reference_tape.py``.
"""

import itertools
import random
from fractions import Fraction

import pytest
import reference_lookup
import reference_tape
from reference_seqcore import ConstantGenerator
from hypothesis import given, settings, strategies as st

from cotlearn import circomp, linthresh
from cotlearn.attention import AttentionTMGenerator
from cotlearn.lbfamilies import CollapseFamily, E1Family, LdimFamily, LookupFamily, LookupGenerator
from cotlearn.linthresh import LinearThreshold, SparseLinearThreshold, make_threshold
from cotlearn.seqcore import (
    BINARY,
    GENERATION_MAX_T,
    Alphabet,
    AlphabetMismatchError,
    Generator,
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
    """The corpus was generated by ``cot``; next_token and the stepper share
    the tape decoder, so the former stepper loop checks both."""
    for run in tm_corpus:
        gen = TMGenerator(run.spec.S, run.spec.table)
        x = pre(run.omega, run.spec.S)
        assert run.generated == reference_cot(gen, x, run.spec.T)
        assert run.generated == reference_tape.cot(reference_tape.tm_stepper, gen, x, run.spec.T)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tm_generate_on_any_history(data):
    """The direct generator reads any nonempty history, so the prompt may
    lack the begin marker or repeat it, and cell 0 may hold a bit."""
    S = data.draw(st.integers(1, 3), label="S")
    token = st.tuples(st.integers(1, S), st.sampled_from((0, 1, BLANK)), st.sampled_from((-1, 0, 1)))
    triples = data.draw(st.lists(token, min_size=1, max_size=12), label="history")
    x = TokenSeq(tm_alphabet(S), tuple(encode_token(S, TMToken(*t)) for t in triples))
    f = TMFamily(S).random_member(random.Random(data.draw(st.integers(0, 2**32), label="seed")))
    T = data.draw(st.integers(1, 20), label="T")
    z = cot(f, x, T)
    assert z == reference_cot(f, x, T)
    assert z == reference_tape.cot(reference_tape.tm_stepper, f, x, T)


def test_attention_stepper_on_corpus_sample(tm_corpus):
    for run in random.Random(5).sample(tm_corpus, 200):
        gen = AttentionTMGenerator(run.spec.S, run.spec.table)
        x = pre(run.omega, run.spec.S)
        z = cot(gen, x, run.spec.T)
        assert z == run.generated
        assert z == reference_cot(gen, x, run.spec.T)
        assert z == reference_tape.cot(reference_tape.attention_stepper, gen, x, run.spec.T)


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
    """The stepper against next_token, which shares ``_read`` with it, and
    against generation by the per-family bodies of ``reference_lookup``,
    which share no code with it."""
    rng = random.Random(11)
    for fam, pattern_len in LOOKUP_FAMILIES:
        for f in (fam.random_member(rng), fam.random_member(rng)):
            for x in BINARY_PROMPTS:
                assert f.next_token(x) == reference_lookup.next_token(f, x.tokens), (fam, f.b, x)
            for T in (1, 3, pattern_len + 3):
                for x in BINARY_PROMPTS:
                    z = cot(f, x, T)
                    assert z == reference_cot(f, x, T), (fam, f.b, x, T)
                    assert z.tokens == reference_lookup.generate(f, x.tokens, T), (fam, f.b, x, T)


@st.composite
def _lookup_member_and_prompt(draw):
    """A lookup member and a prompt on its pattern or off it: leading zeros,
    a whole or cut point, a faithful or flipped partial continuation, and
    random bits after it; or the empty prompt."""
    fam = draw(st.sampled_from([E1Family(2, 4), E1Family(3, 3), E1Family(1, 5), LdimFamily(3), LdimFamily(5),
                                CollapseFamily(3), CollapseFamily(6)]), label="family")
    f = fam.from_bits(draw(st.lists(st.integers(0, 1), min_size=fam.index_bits, max_size=fam.index_bits), label="b"))
    if draw(st.booleans(), label="empty"):
        return f, BINARY.seq()
    point = fam.canonical_points()[draw(st.integers(0, fam.index_bits - 1), label="k")].tokens
    replay = reference_lookup.generate(f, point, 8)[len(point):]  # faithful continuation, by the family's own body
    cont = list(replay[:draw(st.integers(0, len(replay)), label="r")])
    if cont and draw(st.booleans(), label="flip"):
        cont[draw(st.integers(0, len(cont) - 1), label="at")] ^= 1
    cut = draw(st.integers(0, 2), label="cut") if not cont else 0  # a point completed by emitted zeros
    tokens = (
        [0] * draw(st.integers(0, 2), label="zeros")
        + list(point[:len(point) - cut])
        + cont
        + draw(st.lists(st.integers(0, 1), max_size=3), label="suffix")
    )
    return f, BINARY.seq(tokens)


def _pattern_end(fam):
    """Continuation length at which a faithful member's replay ends (capped:
    an Ldim member repeats the point's bit for ever)."""
    return next((r for r in range(16) if fam._replay_index(1, r) is None), 16)


@settings(max_examples=400, deadline=None)
@given(_lookup_member_and_prompt(), st.data())
def test_lookup_generate_matches_next_token(member_and_prompt, data):
    """The chain against next_token, and the oracle of the one-read answer:
    a lookup member's ``e2e`` is the reference chain's last token, at T = 1,
    at the pattern's end and past it."""
    f, x = member_and_prompt
    end = _pattern_end(f.family)
    T = data.draw(st.one_of(st.sampled_from([1, end, end + 1, end + 4]), st.integers(1, 20)), label="T")
    z = cot(f, x, T)
    assert z == reference_cot(f, x, T)
    assert e2e(f, x, T) == z.tokens[-1]


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def _threshold(data, d):
    """A dense or a sparse window-d threshold, drawn."""
    if data.draw(st.booleans(), label="sparse"):
        k = data.draw(st.integers(0, d), label="k")
        support = tuple(sorted(data.draw(st.sets(st.integers(1, d), max_size=k) if d else st.just(set()))))
        return SparseLinearThreshold(d, k, support, tuple(data.draw(fractions) for _ in support), data.draw(fractions))
    return LinearThreshold(tuple(data.draw(st.lists(fractions, min_size=d, max_size=d))), data.draw(fractions))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_threshold_steppers(data):
    d = data.draw(st.integers(0, 9), label="d")
    f = _threshold(data, d)
    x = BINARY.seq(data.draw(st.lists(st.integers(0, 1), max_size=d + 2), label="prompt"))
    T = data.draw(st.integers(1, 25), label="T")
    assert cot(f, x, T) == reference_cot(f, x, T)


def test_threshold_stepper_with_empty_prompt_and_long_window():
    f = make_threshold([1, -1, 2, 0, 0, -3, 1, 1], Fraction(-1, 2))
    for x in (BINARY.seq(), BINARY.seq([1]), BINARY.seq([0, 1, 1])):
        assert cot(f, x, 30) == reference_cot(f, x, 30)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_threshold_steppers_past_the_first_repeat(data):
    """Horizons past the 2^d window states, so the chain repeats a window and
    the stepper replays its period."""
    d = data.draw(st.integers(0, 6), label="d")
    f = _threshold(data, d)
    x = BINARY.seq(data.draw(st.lists(st.integers(0, 1), max_size=d + 2), label="prompt"))
    T = data.draw(st.integers(1, 2 ** (d + 1) + 20), label="T")
    assert cot(f, x, T) == reference_cot(f, x, T)


def _preperiod_and_period(tokens, n0, d):
    """Steps from the prompt's end to the first window that repeats, and the
    distance back to its earlier visit; bits before the start count as 0."""
    seen = {}
    for n in range(n0, len(tokens) + 1):
        window = tuple(tokens[max(0, n - d):n])
        window = (0,) * (d - len(window)) + window
        if window in seen:
            return seen[window], n - n0 - seen[window]
        seen[window] = n - n0
    return None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_threshold_generate_replays_a_cut_period(data):
    """Horizons past the cycle check's repeat that are not a whole number of
    periods past the preperiod, so the replayed slice ends mid-period."""
    d = data.draw(st.integers(0, 6), label="d")
    f = _threshold(data, d)
    x = BINARY.seq(data.draw(st.lists(st.integers(0, 1), max_size=d + 2), label="prompt"))
    window = len(f.integer_form.weight_at) - 1
    pre, period = _preperiod_and_period(cot(f, x, 2 ** window + 1).tokens, len(x), window)
    q = data.draw(st.integers(3 * (pre + period) // period + 1, 3 * (pre + period) // period + 4), label="q")
    rem = data.draw(st.integers(1, period - 1), label="rem") if period > 1 else 0
    T = pre + q * period + rem
    assert cot(f, x, T) == reference_cot(f, x, T)


@pytest.mark.parametrize(
    "f, prompt, shape",
    [
        (make_threshold([], 0), [], (0, 1)),
        (make_threshold([], Fraction(1, 2)), [1, 0], (0, 1)),
        (make_threshold([], Fraction(-1, 2)), [1, 1], (0, 1)),
        (make_threshold([1], -1), [1], (0, 1)),
        (make_threshold([-1], 0), [1], (0, 2)),
        (make_threshold([-3, 2, -1], Fraction(1, 2)), [0, 1, 1], (6, 2)),
        (SparseLinearThreshold(6, 2, (1, 3), (Fraction(-1), Fraction(2)), Fraction(-1, 2)), [1, 1, 0, 1, 0, 0, 1], (0, 3)),
    ],
    ids=["d0-bias-zero", "d0-bias-positive", "d0-bias-negative", "fixed-point", "alternation",
         "preperiod-past-window", "sparse-short-support"],
)
def test_threshold_stepper_replay_cases(f, prompt, shape):
    """``shape`` is (preperiod, period) over the integer form's window, which
    is shorter than d when the largest support offset is below d."""
    x = BINARY.seq(prompt)
    z = cot(f, x, 60)
    assert z == reference_cot(f, x, 60)
    assert _preperiod_and_period(z.tokens, len(x), len(f.integer_form.weight_at) - 1) == shape
    for T in (1, 2, 3, 7, 59):
        assert cot(f, x, T).tokens == z.tokens[:len(x) + T]


def test_time_dependent_thresholds():
    """Each threshold of the list appends one token, through its own
    ``generate`` call."""
    rng = random.Random(20)
    for _ in range(200):
        d = rng.randint(0, 6)
        fs = [
            make_threshold([rng.randint(-3, 3) for _ in range(rng.randint(0, d))], Fraction(rng.randint(-6, 6), 2))
            for _ in range(rng.randint(1, 12))
        ]
        x = BINARY.seq(rng.randint(0, 1) for _ in range(rng.randint(0, d + 2)))
        tokens = list(x.tokens)
        for f in fs:
            tokens.append(f.next_token(TokenSeq(BINARY, tuple(tokens))))
        assert cot_time_dependent(fs, x).tokens == tuple(tokens)


def _window_sums(monkeypatch, f, x, T):
    """The threshold window sums a T-step ``cot`` computes: the calls of
    ``sum`` in ``linthresh``, one per step that is not a replay."""
    count = 0

    def counting_sum(values):
        nonlocal count
        count += 1
        return sum(values)

    monkeypatch.setattr(linthresh, "sum", counting_sum, raising=False)
    cot(f, x, T)
    monkeypatch.delattr(linthresh, "sum")
    return count


def test_threshold_cot_sums_only_distinct_windows(monkeypatch):
    """Deterministic twin of the threshold generation's timing: a window-5
    chain repeats a window within 3 * 2^5 steps, and then costs no sums."""
    f, x = make_threshold([1, -2, 3, -1, 2], Fraction(-1, 2)), BINARY.seq([1, 0, 1])
    sums = _window_sums(monkeypatch, f, x, 4000)
    assert sums == _window_sums(monkeypatch, f, x, 400) <= 3 * 2 ** 5
    assert cot(f, x, 4000) == reference_cot(f, x, 4000)


def test_compiled_circuit_cot_sums_every_step(monkeypatch):
    """A compiled circuit's window spans the prompt's leading 1 and the whole
    generation, so no window repeats: one sum per step."""
    circuit = circomp.random_normalized_circuit(random.Random(7), 4, 2, 2)
    compiled = circomp.compile_circuit(circuit)
    f = compiled.generator()
    for bits in ((0, 0, 0, 0), (1, 0, 1, 1)):
        x = circomp.feature_map(bits, compiled.T)
        assert _window_sums(monkeypatch, f, x, compiled.T) == compiled.T
        assert cot(f, x, compiled.T) == reference_cot(f, x, compiled.T)


def test_compiled_circuit_generator():
    circuit = circomp.random_normalized_circuit(random.Random(7), 4, 2, 2)
    compiled = circomp.compile_circuit(circuit)
    f = compiled.generator()
    for bits in range(2 ** circuit.n):
        x = circomp.feature_map([(bits >> j) & 1 for j in range(circuit.n)], compiled.T)
        assert cot(f, x, compiled.T) == reference_cot(f, x, compiled.T)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 4), st.integers(1, 2), st.integers(1, 2), st.data())
def test_compiled_circuit_generate_matches_next_token(seed, n, s, L, data):
    compiled = circomp.compile_circuit(circomp.random_normalized_circuit(random.Random(seed), n, s, L))
    f = compiled.generator()
    x = circomp.feature_map(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="x"), compiled.T)
    assert cot(f, x, compiled.T) == reference_cot(f, x, compiled.T)


def _binary_generator(data):
    """A binary generator of a drawn kind: dense or sparse threshold, lookup
    member, compiled circuit or constant."""
    kind = data.draw(st.sampled_from(["threshold", "lookup", "circuit", "constant"]), label="kind")
    if kind == "threshold":
        return _threshold(data, data.draw(st.integers(0, 5), label="d"))
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    if kind == "lookup":
        return data.draw(st.sampled_from([E1Family(2, 3), LdimFamily(3), CollapseFamily(4)]), label="family").random_member(rng)
    if kind == "circuit":
        return circomp.compile_circuit(circomp.random_normalized_circuit(rng, 2, 1, 1)).generator()
    return ConstantGenerator(BINARY, data.draw(st.integers(0, 1), label="token"))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_time_dependent_mixed_kinds(data):
    """``cot_time_dependent`` over a list of generators of mixed kinds, one
    ``generate(tokens, 1)`` each, against ``next_token`` on each history:
    binary kinds on a binary prompt, or direct and attention machines on a
    machine prompt."""
    if data.draw(st.booleans(), label="machines"):
        S = data.draw(st.integers(1, 3), label="S")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        fs = [
            data.draw(st.sampled_from([TMGenerator, AttentionTMGenerator]), label="cls")(S, TMFamily(S).random_member(rng).table)
            for _ in range(data.draw(st.integers(1, 8), label="steps"))
        ]
        x = pre(data.draw(st.lists(st.integers(0, 1), max_size=4), label="omega"), S)
    else:
        fs = [_binary_generator(data) for _ in range(data.draw(st.integers(1, 8), label="steps"))]
        x = BINARY.seq(data.draw(st.lists(st.integers(0, 1), max_size=8), label="prompt"))
    tokens = list(x.tokens)
    for f in fs:
        tokens.append(f.next_token(TokenSeq(x.alphabet, tuple(tokens))))
    assert cot_time_dependent(fs, x).tokens == tuple(tokens)


class AppendsOutOfAlphabet(Generator):
    """Faulty: the last token it appends is not a binary index."""

    alphabet = BINARY

    def next_token(self, x):
        return 0

    def generate(self, tokens, T):
        tokens.extend([0] * (T - 1) + [2])


class AppendsWrongCount(Generator):
    """Faulty: appends ``T + extra`` tokens."""

    alphabet = BINARY

    def __init__(self, extra):
        self.extra = extra

    def next_token(self, x):
        return 0

    def generate(self, tokens, T):
        tokens.extend([0] * (T + self.extra))


@pytest.mark.parametrize(
    "run",
    [cot, e2e, lambda f, x, T: cot_time_dependent([f] * T, x)],
    ids=["cot", "e2e", "time-dependent"],
)
@pytest.mark.parametrize("T", [1, 5])
def test_generation_checks_what_generate_appends(run, T):
    """The contract is checked once per call, on the appended slice: a token
    outside the alphabet, or a count other than T, raises ValueError."""
    x = BINARY.seq([1, 0])
    with pytest.raises(ValueError, match="out of range for the alphabet"):
        run(AppendsOutOfAlphabet(), x, T)
    for extra in (-1, 1):
        with pytest.raises(ValueError, match=r"appended \d+ tokens, not T="):
            run(AppendsWrongCount(extra), x, T)


class AnswersOutOfAlphabet(Generator):
    """Faulty: answers without a chain, with a token that is not a binary index."""

    alphabet = BINARY

    def next_token(self, x):
        return 0

    def answer(self, tokens, T):
        return 2


def test_e2e_checks_the_answer():
    """A generator that answers without a chain is checked on its answer, as
    a chain's appended tokens are."""
    with pytest.raises(ValueError, match="out of range for the alphabet"):
        e2e(AnswersOutOfAlphabet(), BINARY.seq([1, 0]), 3)


class TestSameErrors:
    TABLE = ((1, 1, 1),) * 3

    @pytest.mark.parametrize("cls, stepper", [
        (TMGenerator, reference_tape.tm_stepper),
        (AttentionTMGenerator, reference_tape.attention_stepper),
    ], ids=["TMGenerator", "AttentionTMGenerator"])
    def test_empty_history(self, cls, stepper):
        f = cls(1, self.TABLE)
        x = TokenSeq(tm_alphabet(1), ())
        expected = error_of(lambda: reference_tape.cot(stepper, f, x, 3))
        assert error_of(lambda: cot(f, x, 3)) == expected
        assert error_of(lambda: reference_cot(f, x, 3)) == expected

    @pytest.mark.parametrize("tokens", [[TMToken(1, 0, 1)], [TMToken(1, BLANK, 1), TMToken(1, BLANK, 0)]])
    def test_attention_history_without_begin_marker(self, tokens):
        f = AttentionTMGenerator(1, self.TABLE)
        x = TokenSeq(tm_alphabet(1), tuple(encode_token(1, t) for t in tokens))
        expected = error_of(lambda: reference_tape.cot(reference_tape.attention_stepper, f, x, 2))
        assert "begin marker" in expected[1]
        assert error_of(lambda: cot(f, x, 2)) == expected
        assert error_of(lambda: reference_cot(f, x, 2)) == expected

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
@pytest.mark.parametrize("run, seqs, answers", [(cot, 1, 0), (e2e, 0, 1)], ids=["cot", "e2e"])
def test_lookup_generation_is_linear_by_count(f, x, run, seqs, answers, monkeypatch):
    """Deterministic twin of the lookup generators' timing: a long generation
    reads the prompt once. cot builds one sequence and never evaluates a
    member on the whole history; e2e builds none and is one ``_answer`` read."""
    counts = {"seqs": 0, "eval": 0, "read": 0}
    post_init = TokenSeq.__post_init__

    def counting_post_init(self):
        counts["seqs"] += 1
        post_init(self)

    monkeypatch.setattr(TokenSeq, "__post_init__", counting_post_init)
    reference = LookupFamily._answer

    def counting_answer(self, b, tokens, n, h):
        counts["eval"] += 1
        return reference(self, b, tokens, n, h)

    monkeypatch.setattr(LookupFamily, "_answer", counting_answer)
    read = LookupFamily._read

    def counting_read(self, tokens, n):
        counts["read"] += 1
        return read(self, tokens, n)

    monkeypatch.setattr(LookupFamily, "_read", counting_read)
    run(f, x, 4000)
    assert counts == {"seqs": seqs, "eval": answers, "read": 1}


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
        (E1Family(2, 3).member(5), BINARY.seq([1, 0]), 0),
        (E1Family(2, 3).member(5), BINARY.seq([1, 0]), GENERATION_MAX_T + 1),
        (E1Family(2, 3).member(5), Alphabet(("0", "1", "2")).seq([1, 0]), 2),
        (E1Family(2, 3).member(5), Alphabet(("0", "1", "2")).seq([1, 0]), 0),
    ],
    ids=["T=0", "T<0", "alphabet", "out-of-range", "lookup-T=0", "lookup-T-above-guard", "lookup-alphabet",
         "lookup-T-before-alphabet"],
)
def test_e2e_raises_what_cot_raises(f, x, T):
    """e2e keeps cot's checks, messages and order (the horizon, then the
    alphabet), also on a lookup member, which answers without a chain."""
    expected = error_of(lambda: cot(f, x, T))
    assert error_of(lambda: e2e(f, x, T)) == expected


def test_attention_cot_scores_one_key_per_cell(monkeypatch):
    """Deterministic twin of the attention generator's timing: a step reads
    the one key of the head's cell, so generation computes no Fraction dot
    product and decodes each token once. For a machine that reaches a new
    cell at almost every step, four times the steps cost about four times
    the decode work; a scan over every written cell grew 15.4 times. A
    machine that never moves decodes each token once too, and checks only
    the prompt for the begin marker."""
    from cotlearn import attention, turing

    counts = {"tokens": 0, "dots": 0}
    run, check, dot = turing._TapeScan.run, turing._TapeScan.check_begin_marker, attention._dot

    def counting_run(scan, tokens, T, entry_ids):
        counts["tokens"] += len(tokens) - scan.n + T
        return run(scan, tokens, T, entry_ids)

    def counting_check(scan, tokens):
        counts["tokens"] += len(tokens) - scan.checked
        return check(scan, tokens)

    def counting_dot(a, b):
        counts["dots"] += 1
        return dot(a, b)

    monkeypatch.setattr(turing._TapeScan, "run", counting_run)
    monkeypatch.setattr(turing._TapeScan, "check_begin_marker", counting_check)
    monkeypatch.setattr(attention, "_dot", counting_dot)

    def decode_work(f, x, T):
        counts["tokens"] = 0
        z = cot(AttentionTMGenerator(f.S, f.table), x, T)
        work = counts["tokens"]
        assert z == cot(f, x, T)
        return work

    roaming, x = TMFamily(3).random_member(random.Random(3)), pre([1, 0, 1], 3)
    assert decode_work(roaming, x, 400) <= 4.1 * decode_work(roaming, x, 100)
    still, x = TMGenerator(2, ((2, 1, 0), (1, 0, 0), (2, 0, 0)) * 2), pre([1, 0, 1, 1], 2)
    T = 2000
    assert decode_work(still, x, T) == len(x) + (len(x) + T)
    assert counts["dots"] == 0


def test_one_generate_call_per_chain(monkeypatch):
    """Deterministic twin of whole-chain generation: each cot makes exactly
    one ``generate`` call, and so does each e2e except on a lookup member,
    which answers with none; ``cot_time_dependent`` makes one per generator,
    and a machine chain consumes each prompt token and each generated token
    once (one head-move read per token)."""
    from cotlearn import turing

    calls = []
    for cls in (Generator, TMGenerator, AttentionTMGenerator, LookupGenerator, LinearThreshold, SparseLinearThreshold):
        def counting_generate(self, tokens, T, _generate=cls.generate):
            calls.append(T)
            return _generate(self, tokens, T)

        monkeypatch.setattr(cls, "generate", counting_generate)
    moves_read = 0

    class CountingMoves(tuple):
        def __getitem__(self, t):
            nonlocal moves_read
            moves_read += 1
            return tuple.__getitem__(self, t)

    scan_tables = turing._scan_tables

    def counting_tables(S):
        moves, *rest = scan_tables(S)
        return CountingMoves(moves), *rest

    monkeypatch.setattr(turing, "_scan_tables", counting_tables)
    table = TMFamily(3).random_member(random.Random(3)).table
    generators = [
        (TMGenerator(3, table), pre([1, 0, 1], 3)),
        (AttentionTMGenerator(3, table), pre([0, 1], 3)),
        (E1Family(3, 8).random_member(random.Random(4)), E1Family(3, 8).canonical_points()[13]),
        (make_threshold([1, -2, 3, -1, 2], Fraction(-1, 2)), BINARY.seq([1, 0, 1])),
        (SparseLinearThreshold(6, 2, (1, 3), (Fraction(-1), Fraction(2)), Fraction(-1, 2)), BINARY.seq([1, 1])),
        (ConstantGenerator(BINARY, 1), BINARY.seq([0])),
    ]
    for f, x in generators:
        for run in (cot, e2e):
            calls.clear()
            moves_read = 0
            run(f, x, 300)
            assert calls == ([] if run is e2e and isinstance(f, LookupGenerator) else [300]), (f, run)
            if isinstance(f, TMGenerator):
                assert moves_read == len(x) + 300, (f, run)
        calls.clear()
        cot_time_dependent([f] * 4, x)
        assert calls == [1] * 4, f


@pytest.mark.parametrize(
    "f",
    [
        make_threshold([1, -1], 0),
        SparseLinearThreshold(3, 1, (2,), (Fraction(1),), Fraction(-1, 2)),
        ConstantGenerator(BINARY, 1),
    ],
    ids=lambda f: type(f).__name__,
)
def test_next_token_refuses_another_alphabet(f):
    """A ternary history read by a binary generator, as ``cot`` refuses it."""
    z = Alphabet(("0", "1", "2")).seq((1, 0, 2))
    with pytest.raises(AlphabetMismatchError):
        f.next_token(z)
    with pytest.raises(AlphabetMismatchError):
        cot(f, z, 1)
