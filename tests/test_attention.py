import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cotlearn.seqcore import TokenSeq, cot
from cotlearn.attention import (
    AttentionBatch,
    AttentionTMGenerator,
    aha,
    aha_argmax,
    lookup_via_attention,
    make_batch,
    positions_via_attention,
    read_tape_attention,
    read_tape_attention_fast,
    tape_view_table,
    uniform_attention,
)
from cotlearn.turing import (
    BLANK,
    TMFamily,
    TMGenerator,
    TMToken,
    encode_token,
    pre,
    read_tape,
    simulate_tm,
    tm_alphabet,
)


def history(S, *triples):
    return TokenSeq(tm_alphabet(S), tuple(encode_token(S, TMToken(*t)) for t in triples))


class TestAha:
    def test_uniform_scores_average_all(self):
        batch = make_batch([[0]] * 3, [[0]] * 3, [[1], [0], [0]])
        assert aha(batch)[2] == (Fraction(1, 3),)

    def test_unique_argmax_selects(self):
        batch = make_batch([[0], [1]], [[0], [1]], [[5], [7]])
        assert aha(batch)[1] == (Fraction(7),)

    def test_tie_averages(self):
        batch = make_batch([[0], [0]], [[1], [1]], [[4], [8]])
        assert aha(batch)[1] == (Fraction(6),)

    def test_causal_masking(self):
        # position 1 cannot see the higher-scoring key at position 2
        batch = make_batch([[1], [1]], [[1], [2]], [[3], [9]])
        out = aha(batch)
        assert out[0] == (Fraction(3),) and out[1] == (Fraction(9),)

    def test_argmax_details(self):
        batch = make_batch([[0], [0]], [[1], [1]], [[4], [8]])
        members, best = aha_argmax(batch, 2)
        assert members == [1, 2] and best == 0

    def test_batch_shape_validation(self):
        with pytest.raises(ValueError):
            AttentionBatch(((Fraction(0),),), ((Fraction(0),),), ())
        with pytest.raises(ValueError):
            make_batch([[0], [0, 1]], [[0], [0]], [[1], [1]])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=8))
    def test_uniform_attention_law(self, vals):
        # all-zero queries and keys: output i is the exact prefix average
        fr = [Fraction(v) for v in vals]
        direct = uniform_attention(fr)
        n = len(vals)
        batch = make_batch([[0]] * n, [[0]] * n, [[v] for v in vals])
        generic = tuple(out[0] for out in aha(batch))
        assert direct == generic
        assert all(direct[i] == sum(fr[: i + 1], Fraction(0)) / (i + 1) for i in range(n))


class TestPositions:
    def test_pre_positions(self):
        view = positions_via_attention(pre([0, 1], 1))
        assert view.npos == (1, 2, 3)
        assert view.pos == (0, 1, 2)
        assert view.idx_inv == (1, Fraction(1, 2), Fraction(1, 3))

    def test_positions_match_read_tape_prefix_sums(self):
        from cotlearn.turing import decode_token

        rng = random.Random(0)
        fam = TMFamily(3)
        for _ in range(100):
            spec = fam.random_spec(rng, rng.randint(1, 15))
            omega = [rng.randint(0, 1) for _ in range(rng.randint(0, 4))]
            z = cot(TMGenerator(spec.S, spec.table), pre(omega, 3), spec.T)
            view = positions_via_attention(z)
            acc = 0
            for i, t in enumerate(z.tokens):
                tkn = decode_token(3, t)
                assert view.pos[i] == acc
                acc += tkn.move
                assert view.npos[i] == acc

    def test_rejects_blank_past_first(self):
        z = history(1, (1, BLANK, 1), (1, BLANK, 1))
        with pytest.raises(ValueError):
            positions_via_attention(z)

    def test_rejects_missing_begin_marker(self):
        z = history(1, (1, 0, 1), (1, 1, 1))
        with pytest.raises(ValueError):
            positions_via_attention(z)


class TestLookup:
    def test_exact_match_returns_most_recent(self):
        z = history(2, (1, BLANK, 1), (2, 1, -1), (2, 0, 0), (1, 1, 0))
        view = positions_via_attention(z)
        assert lookup_via_attention(view, z) == 1

    def test_no_match_returns_blank(self):
        z = pre([0, 1], 1)
        view = positions_via_attention(z)
        assert lookup_via_attention(view, z) == BLANK

    def test_hand_example(self):
        z = history(1, (1, BLANK, 1), (1, 0, 0))
        view = positions_via_attention(z)
        assert lookup_via_attention(view, z) == 0
        assert read_tape(z) == (1, 0)

    def test_view_length_mismatch_rejected(self):
        z = history(1, (1, BLANK, 1), (1, 0, 0))
        short = positions_via_attention(pre([], 1))
        with pytest.raises(ValueError):
            lookup_via_attention(short, z)


class TestPipeline:
    def test_agrees_with_read_tape_on_random_traces(self):
        rng = random.Random(1)
        checked = 0
        for _ in range(30):
            S = rng.randint(1, 4)
            spec = TMFamily(S).random_spec(rng, rng.randint(1, 30))
            omega = [rng.randint(0, 1) for _ in range(rng.randint(0, 6))]
            z = cot(TMGenerator(spec.S, spec.table), pre(omega, S), spec.T)
            for N in range(1, len(z) + 1):
                prefix = TokenSeq(z.alphabet, z.tokens[:N])
                expected = read_tape(prefix)
                assert read_tape_attention(prefix) == expected
                assert read_tape_attention_fast(prefix) == expected
                checked += 1
        assert checked > 300

    def test_pre_only_history(self):
        assert read_tape_attention(pre([1, 0, 1], 2)) == (1, BLANK)

    def test_single_token(self):
        assert read_tape_attention(pre([], 1)) == (1, BLANK)

    def test_attention_generator_runs_machines(self):
        rng = random.Random(2)
        for _ in range(10):
            S = rng.randint(1, 3)
            spec = TMFamily(S).random_spec(rng, rng.randint(1, 12))
            omega = [rng.randint(0, 1) for _ in range(rng.randint(0, 4))]
            out, _ = simulate_tm(spec, omega)
            gen = AttentionTMGenerator(spec.S, spec.table)
            z = cot(gen, pre(omega, S), spec.T)
            from cotlearn.turing import decode_token, post

            assert post(decode_token(S, z.tokens[-1])) == out

    def test_everything_is_exact_rationals(self):
        z = pre([1, 1, 0], 1)
        view = positions_via_attention(z)
        for field in (view.pos, view.npos, view.idx_inv):
            assert all(isinstance(v, Fraction) for v in field)


def marker_led_histories(S):
    """Any begin marker, then up to 39 tokens of any state, bit and move."""
    states, moves = st.integers(1, S), st.sampled_from((-1, 0, 1))
    marker = st.tuples(states, st.just(BLANK), moves)
    body = st.lists(st.tuples(states, st.sampled_from((0, 1)), moves), max_size=39)
    return st.builds(lambda m, rest: [m] + rest, marker, body)


def error_of(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lookup_grouping_on_arbitrary_histories(data):
    """One key per written cell decides the lookup argmax: cell 0 is
    rewritten, cells go negative, and the history need not be a machine run."""
    S = data.draw(st.integers(1, 3), label="S")
    triples = data.draw(marker_led_histories(S), label="history")
    z = history(S, *triples)
    assert read_tape_attention_fast(z) == read_tape_attention(z) == read_tape(z)

    entry = st.tuples(st.integers(1, S), st.sampled_from((0, 1)), st.sampled_from((-1, 0, 1)))
    table = tuple(data.draw(st.lists(entry, min_size=3 * S, max_size=3 * S), label="table"))
    T = data.draw(st.integers(1, 8), label="T")
    assert cot(AttentionTMGenerator(S, table), z, T) == cot(TMGenerator(S, table), z, T)

    i = data.draw(st.integers(0, len(triples) - 1), label="broken")
    state, symb, move = triples[i]
    triples[i] = (state, 0 if symb == BLANK else BLANK, move)
    bad = history(S, *triples)
    expected = error_of(lambda: read_tape_attention(bad))
    assert "begin marker" in expected
    assert error_of(lambda: read_tape_attention_fast(bad)) == expected
    assert error_of(lambda: cot(AttentionTMGenerator(S, table), bad, T)) == expected


def test_debug_table_renders():
    z = history(1, (1, BLANK, 1), (1, 0, 0))
    table = tape_view_table(z)
    lines = table.strip().splitlines()
    assert lines[0].startswith("i\tmove")
    assert len(lines) == 3
    # at i=2 the head sits on the cell token 2 wrote: singleton argmax {2}
    assert lines[2].endswith("\t{2}")
