import ast
import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import reference_tape
from hypothesis import given, settings, strategies as st

from cotlearn.seqcore import TokenSeq, cot
from cotlearn.attention import (
    AttentionBatch,
    AttentionTMGenerator,
    aha,
    aha_argmax,
    make_batch,
    positions_via_attention,
    read_tape_attention,
    read_tape_attention_all,
    read_tape_attention_fast,
    tape_view_table,
    uniform_attention,
)
from cotlearn.turing import (
    BLANK,
    _decode_table,
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

    def test_argmax_best_is_a_fraction(self):
        batch = make_batch([[1], [2]], [[3], [1]], [[4], [8]])
        assert aha_argmax(batch, 2) == ([1], Fraction(6))
        assert isinstance(aha_argmax(batch, 2)[1], Fraction)
        # width-0 queries and keys score an empty sum, which is still a Fraction
        empty = make_batch([[]] * 2, [[]] * 2, [[4], [8]])
        members, best = aha_argmax(empty, 2)
        assert members == [1, 2] and best == 0 and isinstance(best, Fraction)
        assert aha(empty) == [(Fraction(4),), (Fraction(6),)]

    def test_argmax_rejects_positions_outside_the_batch(self):
        batch = make_batch([[0], [1]], [[0], [1]], [[5], [7]])
        for i in (0, -1, 3):
            with pytest.raises(IndexError):
                aha_argmax(batch, i)
        assert aha_argmax(batch, 1) == ([1], Fraction(0))

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
        assert read_tape_attention(z) == (1, 1)

    def test_no_match_returns_blank(self):
        z = pre([0, 1], 1)
        assert read_tape_attention(z) == (1, BLANK)

    def test_hand_example(self):
        z = history(1, (1, BLANK, 1), (1, 0, 0))
        assert read_tape_attention_all(z) == [(1, BLANK), (1, 0)]
        assert read_tape_attention(z) == read_tape(z) == (1, 0)


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
            assert read_tape_attention_all(z) == [read_tape(TokenSeq(z.alphabet, z.tokens[:N]))
                                                  for N in range(1, len(z) + 1)]
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


def golden_history():
    return cot(TMGenerator(3, TMFamily(3).random_spec(random.Random(5), 50).table), pre([1, 0, 1, 1], 3), 50)


def test_causal_pass_holds_whole_numbers_as_ints():
    """Of the 8n query and key entries of an n-token history, only the n
    1/j key entries are Fractions; the rest are ints, and none is a float."""
    from cotlearn import attention

    rng = random.Random(7)
    histories = [golden_history()] + [
        cot(TMFamily(S).random_member(rng), pre([rng.randint(0, 1) for _ in range(4)], S), rng.randint(1, 40))
        for S in (1, 2, 3, 4)
    ]
    for z in histories:
        n = len(z)
        cp = attention._causal_pass(z)
        entries = [x for vecs in (cp.batch.q, cp.batch.k) for vec in vecs for x in vec]
        assert len(entries) == 8 * n
        assert sum(isinstance(x, Fraction) for x in entries) <= n
        assert all(type(x) in (int, Fraction) for x in entries)
        assert [vec[3] for vec in cp.batch.k] == list(cp.view.idx_inv)
        assert cp.npos == list(cp.view.npos) and cp.pos == list(cp.view.pos)
        assert all(type(h) is int for h in cp.npos + cp.pos)


def test_golden_digests():
    """tape_view_table and read_tape_attention_all on a 55-token run,
    digests recorded when every entry of the pass was a Fraction."""
    z = golden_history()
    assert len(z) == 55
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    assert digest(tape_view_table(z)) == "a33c1c1df2eaeedf69b8ef6d085500539c4b2045ffed9090dd4098281f555f20"
    assert digest(repr(read_tape_attention_all(z))) == (
        "66a83a9870e925c396b4077f83f8e9cd9dd989f193e03ca7190e1f4cdeee8eff"
    )


class TestPostVerification:
    """A lookup score off its closed form, or a tied lookup argmax, is a fault
    of the pass; it must raise, also under ``python -O``."""

    @pytest.fixture
    def off_by_one_over_j(self, monkeypatch):
        from cotlearn import attention

        closed_form = attention._lookup_score
        monkeypatch.setattr(attention, "_lookup_score", lambda npos, pos_j, j: closed_form(npos, pos_j, j) + Fraction(1, j))

    @pytest.mark.parametrize("read", [read_tape_attention, read_tape_attention_all, tape_view_table])
    def test_closed_form(self, off_by_one_over_j, read):
        with pytest.raises(RuntimeError, match="post-verification"):
            read(pre([1, 0], 2))

    def test_singleton(self, monkeypatch):
        from cotlearn import attention

        argmax = attention._argmax
        monkeypatch.setattr(attention, "_argmax", lambda scores: ([1, 1], argmax(scores)[1]))
        with pytest.raises(RuntimeError, match="not a singleton"):
            read_tape_attention(pre([1, 0], 2))

    @pytest.mark.parametrize("read", [read_tape_attention, read_tape_attention_all, tape_view_table])
    def test_value_decodes_to_a_symbol(self, monkeypatch, read):
        from cotlearn import attention

        monkeypatch.setattr(attention, "_symb_value", lambda symb: Fraction(3, 2))
        with pytest.raises(RuntimeError, match="failed post-verification: not a symbol"):
            read(pre([1, 0], 2))

    def test_value_symb_round_trip(self):
        from cotlearn import attention

        for symb in (0, 1, BLANK):
            assert attention._value_symb(attention._symb_value(symb)) == symb
        for value in (Fraction(3, 2), 2, -1):
            with pytest.raises(RuntimeError, match="post-verification"):
                attention._value_symb(value)

    def test_raises_under_python_O(self):
        script = "\n".join([
            "from fractions import Fraction",
            "from cotlearn import attention",
            "from cotlearn.turing import pre",
            "assert False, 'asserts are stripped under -O'",
            "closed_form = attention._lookup_score",
            "attention._lookup_score = lambda npos, pos_j, j: closed_form(npos, pos_j, j) + Fraction(1, j)",
            "try:",
            "    attention.read_tape_attention(pre([1, 0], 2))",
            "except RuntimeError as err:",
            "    print(err)",
        ])
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "post-verification" in proc.stdout

    def test_library_has_no_assert_statements(self):
        """``python -O`` strips asserts, so library checks are explicit raises."""
        paths = sorted((Path(__file__).resolve().parents[1] / "src" / "cotlearn").glob("*.py"))
        assert len(paths) > 5
        for path in paths:
            tree = ast.parse(path.read_text(), str(path))
            assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


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
    """The head cell's latest writer, or the marker, wins the lookup: the
    causal pass, the last-position read, the direct read and the former scan
    over every written cell agree on every prefix. Cell 0 is rewritten,
    cells go negative, and the history need not be a machine run."""
    S = data.draw(st.integers(1, 3), label="S")
    triples = data.draw(marker_led_histories(S), label="history")
    z = history(S, *triples)
    every = read_tape_attention_all(z)
    assert len(every) == len(z)
    for i in range(1, len(z) + 1):
        prefix = TokenSeq(z.alphabet, z.tokens[:i])
        assert every[i - 1] == read_tape_attention(prefix) == read_tape(prefix), i
        assert every[i - 1] == reference_tape.read_tape_attention_fast(prefix), i
    assert read_tape_attention_fast(z) == every[-1]

    entry = st.tuples(st.integers(1, S), st.sampled_from((0, 1)), st.sampled_from((-1, 0, 1)))
    table = tuple(data.draw(st.lists(entry, min_size=3 * S, max_size=3 * S), label="table"))
    T = data.draw(st.integers(1, 8), label="T")
    generated = cot(AttentionTMGenerator(S, table), z, T)
    assert generated == cot(TMGenerator(S, table), z, T)
    assert generated == reference_tape.cot(reference_tape.attention_stepper, AttentionTMGenerator(S, table), z, T)

    i = data.draw(st.integers(0, len(triples) - 1), label="broken")
    state, symb, move = triples[i]
    triples[i] = (state, 0 if symb == BLANK else BLANK, move)
    bad = history(S, *triples)
    expected = error_of(lambda: read_tape_attention(bad))
    assert "begin marker" in expected
    assert error_of(lambda: read_tape_attention_all(bad)) == expected
    assert error_of(lambda: read_tape_attention_fast(bad)) == expected
    assert error_of(lambda: reference_tape.read_tape_attention_fast(bad)) == expected
    assert error_of(lambda: cot(AttentionTMGenerator(S, table), bad, T)) == expected


def test_exact_pass_scores_by_count(monkeypatch):
    """The causal pass scores each key once per query that sees it, n(n+1)/2
    dot products on an n-token history, and the last-position read n."""
    from cotlearn import attention

    counts = {"dots": 0}
    dot = attention._dot

    def counting_dot(a, b):
        counts["dots"] += 1
        return dot(a, b)

    monkeypatch.setattr(attention, "_dot", counting_dot)
    z = cot(TMFamily(3).random_member(random.Random(3)), pre([1, 0, 1], 3), 60)
    n = len(z)
    read_tape_attention_all(z)
    assert counts["dots"] == n * (n + 1) // 2
    counts["dots"] = 0
    read_tape_attention(z)
    assert counts["dots"] == n


def test_debug_table_renders():
    z = history(1, (1, BLANK, 1), (1, 0, 0))
    table = tape_view_table(z)
    lines = table.strip().splitlines()
    assert lines[0].startswith("i\tmove")
    assert len(lines) == 3
    # at i=2 the head sits on the cell token 2 wrote: singleton argmax {2}
    assert lines[2].endswith("\t{2}")

    # cell 0 rewritten, negative cells, the marker winning on a fresh cell
    z = history(2, (1, BLANK, 0), (2, 1, -1), (1, 0, -1), (2, 1, 1), (1, 1, 1), (1, 0, 1), (2, 0, -1))
    decode = _decode_table(2)
    rows = [line.split("\t") for line in tape_view_table(z).strip().splitlines()[1:]]
    assert len(rows) == len(z)
    for i, row in enumerate(rows, start=1):
        toks = z.tokens[:i]
        winner = reference_tape.lookup_argmax(reference_tape.head_positions(toks, decode)[-1],
                                              reference_tape.writers(toks, decode))
        assert row[-1] == f"{{{winner}}}", (i, row)
