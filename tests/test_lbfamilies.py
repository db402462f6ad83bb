import random
from unittest import mock

import pytest
import reference_lookup
from hypothesis import given, settings, strategies as st

from cotlearn import lbfamilies
from cotlearn.seqcore import (
    BINARY,
    Alphabet,
    AlphabetMismatchError,
    GuardExceededError,
    NotRealizableError,
    cot,
    e2e,
)
from cotlearn.learning import CoTDataset, prefix_expand
from cotlearn.lbfamilies import (
    CollapseFamily,
    E1Family,
    LdimFamily,
    LookupFamily,
    default_pool,
    growth_count,
    parse_family_spec,
    vcdim_bruteforce,
)

seq = BINARY.seq


class TestPoints:
    def test_distinct_and_lead_with_one(self):
        for fam in (E1Family(3, 4), LdimFamily(5), CollapseFamily(6)):
            pts = fam.canonical_points()
            assert len({p.tokens for p in pts}) == len(pts)
            assert all(p.tokens[0] == 1 for p in pts)

    def test_point_length_matches_log_guard(self):
        fam = E1Family(3, 4)  # M = 12 -> 1 + 4 index bits
        assert all(len(p) == 5 for p in fam.canonical_points())

    def test_power_of_two_count_fits(self):
        fam = E1Family(1, 2)  # M = 2: numbering from zero needs 1 bit
        assert [p.tokens for p in fam.canonical_points()] == [(1, 0), (1, 1)]


class TestE1Members:
    def test_column_then_own_bit(self):
        fam = E1Family(1, 2)
        for code in range(4):
            f = fam.member(code)
            z = cot(f, fam.canonical_points()[0], 2)
            assert z.tokens[-2:] == (f.b[0], f.b[0])

    def test_generation_follows_the_case_analysis(self):
        fam = E1Family(2, 3)
        rng = random.Random(0)
        for _ in range(20):
            f = fam.random_member(rng)
            for k, x in enumerate(fam.canonical_points(), start=1):
                col = (k - 1) % fam.D
                z = cot(f, x, fam.T)
                expected = [f.b[r * fam.D + col] for r in range(fam.T - 1)] + [f.b[k - 1]]
                assert list(z.tokens[len(x):]) == expected

    def test_off_pattern_inputs_map_to_zero(self):
        fam = E1Family(2, 2)
        f = fam.member(fam.size() - 1)
        for bad in ([0], [0, 0, 0], [1, 1, 1, 1, 1, 1]):
            assert f.next_token(seq(bad)) == 0

    def test_leading_zeros_are_stripped(self):
        fam = E1Family(2, 2)
        f = fam.member(5)
        x = fam.canonical_points()[2]
        padded = seq((0, 0) + x.tokens)
        assert f.next_token(padded) == f.next_token(x)

    def test_shattering_at_step_T(self):
        fam = E1Family(2, 2)
        pts = fam.canonical_points()
        answers = {tuple(e2e(f, x, 2) for x in pts) for f in fam.members()}
        assert len(answers) == 2 ** len(pts)

    def test_enumeration_guard_allows_construction(self):
        fam = E1Family(3, 8)  # 24 index bits: constructible, not enumerable
        with pytest.raises(GuardExceededError):
            list(fam.members())
        assert fam.size() == 2**24


class TestDimensions:
    @pytest.mark.parametrize("D,T", [(1, 2), (2, 2), (2, 3)])
    def test_e1(self, D, T):
        fam = E1Family(D, T)
        pool = default_pool(fam)
        assert vcdim_bruteforce(fam, pool, "base") == D
        assert vcdim_bruteforce(fam, pool, "e2e", T) == D * T

    @pytest.mark.parametrize("D", [2, 3])
    def test_collapse(self, D):
        fam = CollapseFamily(D)
        pool = default_pool(fam)
        assert vcdim_bruteforce(fam, pool, "base") == D
        assert vcdim_bruteforce(fam, pool, "e2e", 2) == 0

    @pytest.mark.parametrize("D", [2, 3])
    def test_ldim_family(self, D):
        fam = LdimFamily(D)
        pool = default_pool(fam)
        assert vcdim_bruteforce(fam, pool, "base") == 1
        assert vcdim_bruteforce(fam, pool, "e2e", D + 1) == D

    def test_default_pool_matches_the_deduplicating_loop(self):
        """The pool as it was built before: points, then each point's
        continuations by 0 and 1 unless already present, stopping at the guard."""
        families = [E1Family(D, T) for D in range(1, 6) for T in range(1, 6)] + [E1Family(256, 256)]
        families += [LdimFamily(D) for D in range(1, 9)] + [CollapseFamily(D) for D in range(1, 11)]
        for fam in families:
            extended = [p.tokens for p in fam.canonical_points()]
            for p in list(extended):
                for bit in (0, 1):
                    if len(extended) < lbfamilies.POOL_GUARD and p + (bit,) not in extended:
                        extended.append(p + (bit,))
            assert [p.tokens for p in default_pool(fam)] == extended[:lbfamilies.POOL_GUARD], fam

    def test_singleton_family_is_dimension_zero(self):
        class One(E1Family):
            def members(self):
                yield self.member(0)

            def size(self):
                return 1

        fam = One(2, 2)
        assert vcdim_bruteforce(fam, default_pool(fam), "base") == 0

    def test_monotone_in_pool(self):
        fam = E1Family(2, 2)
        pts = fam.canonical_points()
        small = pts[:2]
        large = pts
        assert vcdim_bruteforce(fam, small, "base") <= vcdim_bruteforce(fam, large, "base")

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda npoints: st.tuples(st.just(npoints), st.sets(st.integers(0, (1 << npoints) - 1), max_size=1 << npoints))
    ))
    def test_masked_subset_test_matches_packed_projection(self, drawn):
        npoints, masks = drawn
        pool = tuple(seq([1] + [0] * k) for k in range(npoints))
        with mock.patch.object(lbfamilies, "_behavior_masks", return_value=masks):
            assert vcdim_bruteforce(E1Family(2, 2), pool) == reference_lookup.shattered_dimension(masks, npoints)

    def test_pool_guard(self):
        fam = E1Family(2, 2)
        pts = [seq([1] + [0] * k) for k in range(21)]
        with pytest.raises(GuardExceededError):
            vcdim_bruteforce(fam, tuple(pts), "base")


class TestCollapse:
    def test_two_step_answers_vanish(self):
        fam = CollapseFamily(3)
        for f in fam.members():
            for x in fam.canonical_points():
                assert e2e(f, x, 2) == 0

    def test_base_step_reads_own_bit(self):
        fam = CollapseFamily(3)
        f = fam.member(0b101)
        assert [f.next_token(x) for x in fam.canonical_points()] == [1, 0, 1]


class TestLdim:
    def test_replay_then_own_bit(self):
        fam = LdimFamily(3)
        f = fam.from_bits((1, 0, 1))
        x = fam.canonical_points()[1]
        z = cot(f, x, 5)
        assert list(z.tokens[len(x):]) == [1, 0, 1, 0, 0]  # b_1 b_2 b_3 then b_2 forever

    def test_default_case_zero(self):
        fam = LdimFamily(3)
        f = fam.from_bits((1, 1, 1))
        assert f.next_token(seq([0, 0, 1, 0, 0, 0, 1])) == 0


class TestGrowth:
    def test_single_point_binary(self):
        fam = E1Family(2, 2)
        assert growth_count(fam, fam.canonical_points()[:1], "base") <= 2

    def test_constant_family(self):
        fam = CollapseFamily(2)

        class Constant(CollapseFamily):
            def members(self):
                yield self.member(0)

            def size(self):
                return 1

        cf = Constant(2)
        assert growth_count(cf, fam.canonical_points(), "base") == 1

    def test_bounded_by_two_to_the_m(self):
        fam = E1Family(2, 2)
        pts = fam.canonical_points()
        assert growth_count(fam, pts, "base") <= 2 ** len(pts)
        # equality on a shattered subset
        assert growth_count(fam, pts[:2], "base") == 4
        assert vcdim_bruteforce(fam, pts[:2], "base") == 2

    def test_loss_class_bounded_by_prefix_growth(self):
        fam = E1Family(2, 2)
        rng = random.Random(1)
        f_star = fam.random_member(rng)
        pts = fam.canonical_points()
        prompts = [pts[rng.randrange(len(pts))] for _ in range(3)]
        records = CoTDataset(tuple(cot(f_star, x, 2) for x in prompts), 2)
        prefixes = [u for u, _ in prefix_expand(records).pairs]
        lhs = growth_count(fam, records.seqs, "cot", 2)
        rhs = growth_count(fam, prefixes, "base")
        assert lhs <= rhs


# each with the length T of the pattern its members replay
ANSWER_FAMILIES = ((E1Family(2, 3), 3), (E1Family(3, 2), 2), (LdimFamily(4), 4), (CollapseFamily(5), 1))


@st.composite
def _member_and_history(draw):
    """A member and a history: up to two leading zeros, then a point's first
    tokens, a whole point with a faithful or a flipped continuation of up to
    T + 1 tokens, or a point-length head led by 1 that need not be a point;
    then up to two random bits."""
    fam, T = draw(st.sampled_from(ANSWER_FAMILIES), label="family")
    bits = lambda n, label: draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label=label)
    f = fam.from_bits(bits(fam.index_bits, "b"))
    point = list(draw(st.sampled_from(fam.canonical_points()), label="point").tokens)
    kind = draw(st.sampled_from(["partial", "faithful", "flipped", "head"]), label="kind")
    if kind == "partial":
        body = point[:draw(st.integers(1, len(point)), label="cut")]
    elif kind == "head":
        body = [1] + bits(fam.point_len - 1, "head")
    else:
        replay = reference_lookup.generate(f, point, T + 1)[len(point):]
        cont = list(replay[:draw(st.integers(0, T + 1), label="r")])
        if cont and kind == "flipped":
            cont[draw(st.integers(0, len(cont) - 1), label="at")] ^= 1
        body = point + cont
    zeros = [0] * draw(st.integers(0, 2), label="zeros")
    return f, T, tuple(zeros + body + draw(st.lists(st.integers(0, 1), max_size=2), label="suffix"))


@settings(max_examples=300, deadline=None)
@given(_member_and_history())
def test_answer_is_the_generated_token(drawn):
    """``_answer`` at every cut n and horizon h = 1..T+2 is the last token
    that the per-family bodies of ``reference_lookup`` generate from
    ``tokens[:n]``, which share no code with it."""
    f, T, tokens = drawn
    for n in range(len(tokens) + 1):
        for h in range(1, T + 3):
            want = reference_lookup.generate(f, tokens[:n], h)[-1]
            assert f.family._answer(f.b, tokens, n, h) == want, (f.family, f.b, tokens, n, h)


class TestOracles:
    def test_e1_oracle_round_trip_when_not_enumerable(self):
        fam = E1Family(3, 8)
        rng = random.Random(2)
        f_star = fam.random_member(rng)
        pts = fam.canonical_points()
        prompts = [pts[rng.randrange(len(pts))] for _ in range(8)]
        data = CoTDataset(tuple(cot(f_star, x, 8) for x in prompts), 8)
        oracle = fam.cons_oracle()
        learned = oracle(prefix_expand(data).pairs)
        for u, v in prefix_expand(data).pairs:
            assert learned.next_token(u) == v

    def test_e1_oracle_matches_enumeration_on_small_instances(self):
        fam = E1Family(2, 2)
        rng = random.Random(3)
        pts = fam.canonical_points()
        oracle = fam.cons_oracle()
        for _ in range(40):
            f_star = fam.random_member(rng)
            prompts = [pts[rng.randrange(len(pts))] for _ in range(rng.randint(1, 5))]
            data = CoTDataset(tuple(cot(f_star, x, 2) for x in prompts), 2)
            pairs = prefix_expand(data).pairs
            fast = oracle(pairs)
            assert all(fast.next_token(u) == v for u, v in pairs)
            brute = next(
                f for f in fam.members() if all(f.next_token(u) == v for u, v in pairs)
            )
            assert fast == brute

    def test_e1_oracle_detects_unrealizable(self):
        fam = E1Family(2, 2)
        x = fam.canonical_points()[0]
        oracle = fam.cons_oracle()
        with pytest.raises(NotRealizableError):
            oracle([(x, 0), (x, 1)])
        with pytest.raises(NotRealizableError):
            oracle([(seq([0, 0, 0]), 1)])  # off-pattern inputs always map to 0

    def test_e1_oracle_mismatch_branch_via_enumeration(self):
        # pairs that conflict as replays but are satisfiable through the zero case
        fam = E1Family(1, 3)
        x = fam.canonical_points()[0]
        pairs = [(seq(x.tokens + (1,)), 0), (x, 0)]
        learned = fam.cons_oracle()(pairs)
        assert all(learned.next_token(u) == v for u, v in pairs)

    def test_e1_oracle_fits_zero_answers_after_conflicting_continuations(self):
        # each pair is fit by a broken replay or by a 0 answer, so the
        # all-zero member fits both; 2^24 members, so no scan could answer
        fam = E1Family(3, 8)
        p1 = fam.canonical_points()[0].tokens
        learned = fam.cons_oracle()([(seq(p1 + (1,)), 0), (seq(p1 + (0,)), 0)])
        assert learned.b == (0,) * 24

    def test_search_verifies_without_asserts(self, monkeypatch):
        # a wrong member slipped in is a solver fault that ``python -O`` must not hide
        complement = LookupFamily.from_bits
        for fam, e2e_T in ((E1Family(2, 2), 2), (LdimFamily(3), 2), (CollapseFamily(3), 1)):
            f_star = fam.member(fam.size() * 9 // 16)
            pts = fam.canonical_points()
            cot_pairs = prefix_expand(CoTDataset(tuple(cot(f_star, x, 2) for x in pts), 2)).pairs
            e2e_pairs = [(x, e2e(f_star, x, e2e_T)) for x in pts]
            with monkeypatch.context() as patched:
                patched.setattr(LookupFamily, "from_bits", lambda self, bits: complement(self, [1 - b for b in bits]))
                with pytest.raises(RuntimeError, match="post-verification"):
                    fam.cons_oracle()(cot_pairs)
                with pytest.raises(RuntimeError, match="post-verification"):
                    fam.find_e2e_consistent(e2e_pairs, e2e_T)

    def test_search_solves_a_loose_pair_the_zero_fill_misses(self, monkeypatch):
        # (p1, 1) forces b_2 = 1, so the zero fill replays p3's continuation
        # (0,) faithfully and answers 1 there; the next candidate sets the
        # free read bit b_0, breaks that replay and fits both pairs
        fam = E1Family(2, 3)
        p1, p3 = fam.canonical_points()[0].tokens, fam.canonical_points()[2].tokens
        pairs = [(seq(p1), 1), (seq(p3 + (0,)), 0)]
        monkeypatch.setattr(LookupFamily, "members", None)  # no member scan
        learned = fam.find_e2e_consistent(pairs, 2)
        assert learned.b == (1, 0, 1, 0, 0, 0)
        assert all(e2e(learned, x, 2) == y for x, y in pairs)

    def test_search_guard_counts_tried_candidates(self, monkeypatch):
        # (p1, 1) at T = 3 forces b_2 = 1; point 3 continued by each of the
        # four pairs of bits reads b_0, b_1 and answers b_2 = 1 when they
        # replay, so every candidate over the two free bits misses one
        fam = LdimFamily(3)
        p1, p3 = fam.canonical_points()[0].tokens, fam.canonical_points()[2].tokens
        pairs = [(seq(p1), 1)] + [(seq(p3 + (a, b)), 0) for a in (0, 1) for b in (0, 1)]
        assert fam.find_e2e_consistent(pairs, 3) is None
        monkeypatch.setattr(lbfamilies, "MEMBER_GUARD", 4)  # all four tried, none fits
        assert fam.find_e2e_consistent(pairs, 3) is None
        monkeypatch.setattr(lbfamilies, "MEMBER_GUARD", 3)
        with pytest.raises(GuardExceededError, match="tried 3 candidates over 2 free bits"):
            fam.find_e2e_consistent(pairs, 3)
        # the 192 pairs of the all-zero E1(3,8) member's records read 21 free
        # bits, and the zero fill, the first candidate, fits them
        monkeypatch.setattr(lbfamilies, "MEMBER_GUARD", 1)
        e1 = E1Family(3, 8)
        zero = e1.member(0)
        records = CoTDataset(tuple(cot(zero, x, 8) for x in e1.canonical_points()), 8)
        assert e1.cons_oracle()(prefix_expand(records).pairs) == zero

    def test_next_token_refuses_another_alphabet(self):
        ternary = Alphabet(("0", "1", "2"))
        with pytest.raises(AlphabetMismatchError):
            E1Family(2, 2).member(3).next_token(ternary.seq((1, 0, 2)))

    def test_enumeration_oracle_for_small_families(self):
        fam = CollapseFamily(3)
        rng = random.Random(4)
        f_star = fam.random_member(rng)
        pairs = [(x, f_star.next_token(x)) for x in fam.canonical_points()]
        learned = fam.cons_oracle()(pairs)
        assert all(learned.next_token(u) == v for u, v in pairs)


def test_members_have_no_duplicates():
    fam = E1Family(2, 2)
    members = list(fam.members())
    assert len({f.b for f in members}) == len(members) == fam.size()


def test_repeated_points_change_no_dimension_or_growth_count():
    """Copies of a point get equal bits in every behaviour mask, so the
    dimension and the growth count are those of the points without them."""
    for fam, T in ((E1Family(2, 2), 2), (LdimFamily(3), 4), (CollapseFamily(3), 2)):
        distinct = default_pool(fam)[:12]
        repeated = distinct + distinct[:4] + distinct[2:3]
        for mode, horizon in (("base", None), ("e2e", T)):
            assert vcdim_bruteforce(fam, repeated, mode, horizon) == vcdim_bruteforce(fam, distinct, mode, horizon)
            assert growth_count(fam, repeated, mode, horizon) == growth_count(fam, distinct, mode, horizon)


class TestSpecStrings:
    def test_parses(self):
        assert parse_family_spec("e1:D=2,T=4") == E1Family(2, 4)
        assert parse_family_spec("ldim:D=3") == LdimFamily(3)
        assert parse_family_spec("collapse:D=4") == CollapseFamily(4)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_family_spec("mystery:D=1")
        with pytest.raises(ValueError):
            parse_family_spec("e1:D=2")  # missing T
        with pytest.raises(ValueError):
            parse_family_spec("ldim:D")

    @pytest.mark.parametrize("spec", ["sparse:d=2,k=5", "linthresh:d=-2", "tm:S=0", "sparse:d=-1,k=0"])
    def test_rejects_out_of_range_arguments(self, spec):
        with pytest.raises(ValueError):
            parse_family_spec(spec)

    @pytest.mark.parametrize("spec", ["tm:S=2,T=9", "e1:D=2,T=2,D=3", "linthresh:d=2,d=2", "ldim:D=2,k=1"])
    def test_rejects_unknown_or_repeated_arguments(self, spec):
        with pytest.raises(ValueError):
            parse_family_spec(spec)

    @given(st.one_of(
        st.text(),
        st.tuples(st.sampled_from(["e1", "ldim", "collapse", "tm", "linthresh", "sparse"]), st.text())
        .map(":".join),
    ))
    def test_arbitrary_text_parses_or_raises_value_error(self, text):
        # Parsing only: a family built from fuzzed sizes is never enumerated.
        try:
            parse_family_spec(text)
        except ValueError:
            pass
