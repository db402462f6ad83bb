import random

import pytest
from reference_tape import read_tape_cost
from hypothesis import given, settings, strategies as st

from cotlearn.attention import read_tape_attention_fast
from cotlearn.seqcore import Alphabet, GuardExceededError, NotRealizableError, TokenSeq, cot, e2e
from cotlearn.learning import CoTDataset, cons_cot, prefix_expand
from cotlearn.turing import (
    BLANK,
    TMFamily,
    TMGenerator,
    TMSpec,
    TMToken,
    cons_tm,
    decode_token,
    encode_token,
    format_tm,
    parse_tm,
    post,
    pre,
    read_tape,
    simulate_tm,
    tm_alphabet,
    trace_tokens,
)


def tok(S, state, symb, move):
    return encode_token(S, TMToken(state, symb, move))


def history(S, *triples):
    return TokenSeq(tm_alphabet(S), tuple(tok(S, *t) for t in triples))


class TestSimulate:
    def test_always_write_one(self):
        spec = TMSpec(1, 5, ((1, 1, 1),) * 3)
        out, trace = simulate_tm(spec, [0, 1])
        assert out == 1
        assert len(trace.steps) == 5

    def test_fixed_point_writer(self):
        spec = TMSpec(1, 4, ((1, 0, 0),) * 3)
        out, trace = simulate_tm(spec, [1, 1])
        assert out == 0
        # head never moves off the starting cell
        assert all(p == 3 for (_, _, _, p, _) in trace.steps)

    def test_first_read_is_blank(self):
        rng = random.Random(0)
        for _ in range(20):
            fam = TMFamily(rng.randint(1, 3))
            spec = fam.random_spec(rng, 3)
            omega = [rng.randint(0, 1) for _ in range(rng.randint(0, 4))]
            _, trace = simulate_tm(spec, omega)
            assert trace.steps[0][4] == BLANK
            assert trace.p0 == len(omega) + 1 and trace.s0 == 1

    def test_head_may_go_negative(self):
        spec = TMSpec(1, 6, ((1, 1, -1),) * 3)
        out, trace = simulate_tm(spec, [])
        positions = [p for (_, _, _, p, _) in trace.steps]
        assert min(positions) < 0 and out == 1


class TestReadTape:
    def test_pre_reads_blank(self):
        assert read_tape(pre([0, 1], 2)) == (1, BLANK)

    def test_hand_example(self):
        z = history(1, (1, BLANK, 1), (1, 0, 0))
        assert read_tape(z) == (1, 0)

    def test_single_fresh_cell(self):
        z = history(1, (1, BLANK, 1),)
        assert read_tape(z) == (1, BLANK)

    def test_most_recent_writer_wins(self):
        # write at 0, move right, come back and write again
        z = history(2, (1, BLANK, 1), (2, 1, -1), (2, 0, 0), (1, 1, 0))
        # pos = [0,1,0,0]; npos = 0; most recent writer at position 0 is token 4
        assert read_tape(z) == (1, 1)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            read_tape(TokenSeq(tm_alphabet(1), ()))

    def test_equal_alphabet_object_reads_the_same(self):
        z = history(2, (1, BLANK, 1), (2, 1, -1), (2, 0, 0), (1, 1, 0))
        copy = Alphabet(tm_alphabet(2).symbols)
        assert copy is not tm_alphabet(2)
        assert read_tape(TokenSeq(copy, z.tokens)) == read_tape(z) == (1, 1)
        assert read_tape_attention_fast(TokenSeq(copy, z.tokens)) == (1, 1)

    @pytest.mark.parametrize("symbols", [
        tuple(f"t{i}" for i in range(9)),  # 9 tokens, not (state, symbol, move) triples
        tm_alphabet(1).symbols[::-1],  # the machine tokens in another order
        tuple(f"t{i}" for i in range(10)),
    ], ids=["nine-tokens", "reordered", "ten-tokens"])
    def test_non_machine_alphabet_refused(self, symbols):
        z = TokenSeq(Alphabet(symbols), (0, 1))
        for reader in (read_tape, read_tape_attention_fast):
            with pytest.raises(ValueError, match="^sequence alphabet is not a machine-history alphabet$"):
                reader(z)

    def test_visit_cost_linear(self):
        rng = random.Random(1)
        fam = TMFamily(3)
        for _ in range(30):
            spec = fam.random_spec(rng, rng.randint(1, 20))
            z = cot(TMGenerator(spec.S, spec.table), pre([1, 0], 3), spec.T)
            assert read_tape_cost(z) <= 2 * len(z)


class TestGenerator:
    def test_f_tau_base_case_is_blank_transition(self):
        rng = random.Random(2)
        for _ in range(10):
            fam = TMFamily(2)
            spec = fam.random_spec(rng, 3)
            omega = [rng.randint(0, 1) for _ in range(3)]
            got = decode_token(2, TMGenerator(spec.S, spec.table).next_token(pre(omega, 2)))
            assert got == TMToken(*spec.step(1, BLANK))

    def test_trace_alignment_oracle(self):
        # the t-th generated token must equal the simulator's step record
        rng = random.Random(3)
        for _ in range(40):
            S = rng.randint(1, 4)
            spec = TMFamily(S).random_spec(rng, rng.randint(1, 25))
            omega = [rng.randint(0, 1) for _ in range(rng.randint(0, 6))]
            out, trace = simulate_tm(spec, omega)
            z = cot(TMGenerator(spec.S, spec.table), pre(omega, S), spec.T)
            assert list(z.tokens[len(omega) + 1:]) == trace_tokens(trace, S)
            assert post(decode_token(S, z.tokens[-1])) == out

    def test_determinism(self):
        spec = TMSpec(2, 3, ((2, 1, 1), (1, 0, -1), (2, 0, 0)) * 2)
        z = pre([1], 2)
        assert TMGenerator(spec.S, spec.table).next_token(z) == TMGenerator(spec.S, spec.table).next_token(z)

    def test_cot_example_from_one_state_machine(self):
        spec = TMSpec(1, 2, ((1, 1, 1),) * 3)
        z = cot(TMGenerator(spec.S, spec.table), pre([0], 1), 2)
        assert z.render() == "1:_:+1,1:0:+1,1:1:+1,1:1:+1"


class TestPrePost:
    def test_pre_empty(self):
        z = pre([], 1)
        assert len(z) == 1 and decode_token(1, z.tokens[0]) == TMToken(1, BLANK, 1)

    def test_pre_single_bit(self):
        z = pre([1], 1)
        assert [decode_token(1, t) for t in z.tokens] == [TMToken(1, BLANK, 1), TMToken(1, 1, 1)]

    def test_pre_moves_all_right(self):
        z = pre([0, 1, 1], 2)
        assert all(decode_token(2, t).move == 1 for t in z.tokens)

    def test_post(self):
        assert post(TMToken(3, 1, -1)) == 1
        assert post(TMToken(1, 0, 0)) == 0
        with pytest.raises(ValueError):
            post(TMToken(1, BLANK, 1))


class TestConsTm:
    def _dataset(self, spec, omegas, rng=None):
        gen = TMGenerator(spec.S, spec.table)
        seqs = tuple(cot(gen, pre(w, spec.S), spec.T) for w in omegas)
        return CoTDataset(seqs, spec.T)

    def test_generate_then_learn_recovers_table(self):
        rng = random.Random(4)
        fam = TMFamily(2)
        for _ in range(20):
            spec = fam.random_spec(rng, 12)
            omegas = [[rng.randint(0, 1) for _ in range(rng.randint(0, 4))] for _ in range(40)]
            data = self._dataset(spec, omegas)
            learned = cons_cot(data, fam.cons_oracle())
            # consistency with every training prefix, re-evaluated through the generator
            for u, v in prefix_expand(data):
                assert learned.next_token(u) == v

    def test_full_coverage_recovers_exactly(self):
        # drive a machine over inputs that together visit all (state, read) pairs
        spec = TMSpec(1, 6, ((1, 1, 1), (1, 0, 1), (1, 1, -1)))
        data = self._dataset(spec, [[0, 1], [1, 1], [], [0], [1], [0, 0], [1, 0]])
        learned = cons_cot(data, TMFamily(1).cons_oracle())
        pinned = {read_tape(u) for u, _ in prefix_expand(data)}
        assert len(pinned) == 3, f"expected full coverage, pinned only {pinned}"
        assert learned.table == spec.table

    def test_conflict_detected(self):
        u = pre([0], 1)
        pairs = [(u, tok(1, 1, 0, 0)), (u, tok(1, 1, 1, 0))]
        with pytest.raises(NotRealizableError):
            cons_tm(pairs, 1)

    def test_empty_dataset_all_default(self):
        learned = cons_tm([], 3)
        assert learned.table == ((1, 0, 0),) * 9

    def test_blank_label_rejected(self):
        u = pre([0], 1)
        with pytest.raises(ValueError):
            cons_tm([(u, tok(1, 1, BLANK, 0))], 1)

    def test_state_exceeding_family_rejected(self):
        u = pre([0], 3)  # alphabet carries states up to 3
        with pytest.raises(ValueError):
            cons_tm([(u, tok(3, 3, 1, 0))], 2)


class TestFamily:
    def test_sizes_and_guard(self):
        assert TMFamily(1).size() == 216
        with pytest.raises(GuardExceededError):
            list(TMFamily(2).members())

    def test_first_member_is_default(self):
        fam = TMFamily(1)
        first = next(iter(fam.members()))
        assert first == fam.default_member()
        assert first.table == ((1, 0, 0),) * 3

    def test_expressivity_within_enumeration(self):
        # every 1-state machine's answer map appears in the family e2e
        rng = random.Random(5)
        fam = TMFamily(1)
        spec = fam.random_spec(rng, 4)
        gen = TMGenerator(spec.S, spec.table)
        out, _ = simulate_tm(spec, [1, 0])
        assert post(decode_token(1, e2e(gen, pre([1, 0], 1), 4))) == out


class TestFileFormat:
    def test_round_trip(self):
        rng = random.Random(6)
        spec = TMFamily(3).random_spec(rng, 17)
        assert parse_tm(format_tm(spec)) == spec

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_tm("1 2\n1 0 -> 1 1\n")
        with pytest.raises(ValueError):
            parse_tm("1 2\n1 0 -> 1 1 +1\n")  # missing entries
        with pytest.raises(ValueError):
            parse_tm("")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip_fuzz(self, data):
        S = data.draw(st.integers(1, 4), label="S")
        entry = st.tuples(st.integers(1, S), st.sampled_from((0, 1)), st.sampled_from((-1, 0, 1)))
        table = tuple(data.draw(st.lists(entry, min_size=3 * S, max_size=3 * S), label="table"))
        spec = TMSpec(S, data.draw(st.integers(1, 10**6), label="T"), table)
        assert parse_tm(format_tm(spec)) == spec

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.text(alphabet="0123456789 -+>_#\n", max_size=80)))
    def test_arbitrary_text_parses_or_is_value_error(self, text):
        try:
            spec = parse_tm(text)
        except ValueError:
            return
        assert isinstance(spec, TMSpec)

    def test_blank_renders_as_underscore(self):
        spec = TMSpec(1, 1, ((1, 0, 0),) * 3)
        text = format_tm(spec)
        assert "_ ->" in text and "⊔" not in text
