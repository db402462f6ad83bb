import pytest
from hypothesis import given, strategies as st

from cotlearn.seqcore import (
    BINARY,
    Alphabet,
    AlphabetMismatchError,
    ConstantGenerator,
    TokenSeq,
    apply_and_append,
    cot,
    cot_time_dependent,
    e2e,
)
from cotlearn.linthresh import make_threshold


def seq(bits):
    return BINARY.seq(bits)


class TestAlphabet:
    def test_round_trip(self):
        a = Alphabet(("x", "y", "z"))
        for i, text in enumerate(a.symbols):
            assert a.index(text) == i
            assert a.render(i) == text

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet(())
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))

    def test_parse_render_round_trip(self):
        s = BINARY.parse_seq("0,1,1,0")
        assert s.tokens == (0, 1, 1, 0)
        assert s.render() == str(s) == "0,1,1,0"
        assert BINARY.parse_seq("").tokens == ()


class TestIndexing:
    """One-based inclusive indexing, shared by every module."""

    def test_scalar_positions(self):
        s = seq([1, 0, 1, 1])
        assert s[1] == 1 and s[2] == 0
        assert s[-1] == 1 and s[-3] == 0
        with pytest.raises(IndexError):
            s[0]
        with pytest.raises(IndexError):
            s[5]

    def test_inclusive_slices(self):
        s = seq([1, 0, 1, 1, 0])
        assert s[2:4].tokens == (0, 1, 1)
        assert s[:-2].tokens == (1, 0, 1, 1)
        assert s[-3:].tokens == (1, 1, 0)
        assert s[:3].tokens == (1, 0, 1)

    def test_prompt_slice_convention(self):
        # dropping the last t tokens is s[:-(t+1)]
        s = seq([1, 0, 1])
        assert s[:-2].tokens == (1, 0)
        assert s[:-3].tokens == (1,)
        assert s[:-4].tokens == ()

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=12), st.data())
    def test_matches_python_reference(self, bits, data):
        s = seq(bits)
        n = len(bits)
        i = data.draw(st.integers(1, n))
        j = data.draw(st.integers(i, n))
        expected = tuple(bits[i - 1:j])
        assert s[i:j].tokens == expected
        t = data.draw(st.integers(1, n))
        assert s[-t] == bits[n - t]
        assert s[:-t].tokens == tuple(bits[:n - t + 1])

    def test_append_is_persistent(self):
        s = seq([0])
        s2 = s.append(1)
        assert s.tokens == (0,) and s2.tokens == (0, 1)
        with pytest.raises(ValueError):
            s.append(7)

    @pytest.mark.parametrize("token", [7, -1, 0.5, "a", None])
    def test_append_refuses_what_the_constructor_refuses(self, token):
        with pytest.raises(ValueError, match="token index out of range for the alphabet"):
            seq([0]).append(token)

    @pytest.mark.parametrize("tokens", [(0.5,), (-1,), (2,), (1, 0, 2), (0, -1, 1)])
    def test_rejects_tokens_outside_the_alphabet(self, tokens):
        """0.5 lies between 0 and 2 but is no token index; render() would die on it."""
        with pytest.raises(ValueError, match="token index out of range for the alphabet"):
            TokenSeq(BINARY, tokens)

    def test_accepts_every_index_and_the_empty_sequence(self):
        a = Alphabet(("x", "y", "z"))
        assert TokenSeq(a, (2, 0, 1, 2)).render() == "z,x,y,z"
        assert TokenSeq(a, ()).render() == ""


class TestGeneration:
    def test_apply_and_append_constant(self):
        f = ConstantGenerator(BINARY, 1)
        out = apply_and_append(f, seq([0]))
        assert out.tokens == (0, 1) and f(seq([0])) == 1

    def test_apply_and_append_threshold(self):
        f = make_threshold([1], 0)  # outputs 1 on every binary input
        assert apply_and_append(f, seq([0])).tokens == (0, 1)

    def test_length_law(self):
        f = ConstantGenerator(BINARY, 0)
        for T in (1, 2, 7):
            assert len(cot(f, seq([1, 1]), T)) == 2 + T

    def test_alphabet_mismatch(self):
        other = Alphabet(("a", "b"))
        f = ConstantGenerator(other, 0)
        with pytest.raises(AlphabetMismatchError):
            apply_and_append(f, seq([0]))

    def test_cot_constant(self):
        f = ConstantGenerator(BINARY, 1)
        assert cot(f, seq([0]), 3).tokens == (0, 1, 1, 1)

    def test_cot_rejects_zero_steps(self):
        f = ConstantGenerator(BINARY, 1)
        with pytest.raises(ValueError):
            cot(f, seq([0]), 0)

    def test_prompt_preserved_and_composition(self):
        f = make_threshold([1, -1], 0)
        x = seq([1, 0, 1])
        for T in range(1, 6):
            z = cot(f, x, T)
            assert z.tokens[:3] == x.tokens
            assert cot(f, x, T + 1).tokens == apply_and_append(f, z).tokens
            # every prefix is the shorter generation
            for t in range(1, T + 1):
                assert z.tokens[:3 + t] == cot(f, x, t).tokens

    def test_determinism(self):
        f = make_threshold([1, 1, -2], -1)
        x = seq([1, 1, 0, 1])
        assert cot(f, x, 5).tokens == cot(f, x, 5).tokens

    def test_e2e_is_last_token(self):
        f = ConstantGenerator(BINARY, 1)
        assert e2e(f, seq([0]), 1) == 1
        f2 = make_threshold([1], -1)
        for bits in ([0], [1], [1, 0]):
            assert e2e(f2, seq(bits), 1) == f2.next_token(seq(bits))


class TestTimeDependent:
    def test_equals_time_invariant_on_copies(self):
        f = make_threshold([1, -1], 0)
        x = seq([1, 0])
        for T in (1, 3, 5):
            assert cot_time_dependent([f] * T, x).tokens == cot(f, x, T).tokens

    def test_two_constants(self):
        fs = [ConstantGenerator(BINARY, 0), ConstantGenerator(BINARY, 1)]
        assert cot_time_dependent(fs, seq([1])).tokens == (1, 0, 1)

    def test_two_distinct_thresholds_hand_eval(self):
        fa = make_threshold([1, 1], -2)   # 1 iff both of last two bits set
        fb = make_threshold([-1, -1], 0)  # 1 iff neither of last two bits set
        x = seq([1, 1])
        # fa(1,1) = 1; fb on (1,1,1) reads last two = (1,1) -> -2 < 0 -> 0
        assert cot_time_dependent([fa, fb], x).tokens == (1, 1, 1, 0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            cot_time_dependent([], seq([1]))

    def test_rejects_mixed_alphabets(self):
        other = Alphabet(("a", "b"))
        with pytest.raises(AlphabetMismatchError):
            cot_time_dependent([ConstantGenerator(BINARY, 0), ConstantGenerator(other, 0)], seq([1]))


def test_empty_prompt_threshold_uses_bias_only():
    # permitted: the window sum over zero bits leaves just the bias
    f = make_threshold([1, 1], -1)
    assert f.next_token(BINARY.seq()) == 0
    g = make_threshold([1, 1], 0)
    assert g.next_token(BINARY.seq()) == 1
