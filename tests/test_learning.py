import random
import statistics
from fractions import Fraction

import pytest
import reference_learning
from hypothesis import HealthCheck, given, settings, strategies as st

from cotlearn import learning
from cotlearn.seqcore import (
    BINARY,
    GENERATION_MAX_T,
    Alphabet,
    ConstantGenerator,
    Generator,
    GeneratorFamily,
    GuardExceededError,
    NotRealizableError,
    cot,
    e2e,
)
from cotlearn.learning import (
    BitStringPrompts,
    CoTDataset,
    E2EDataset,
    FiniteUniformPrompts,
    LabelledSupport,
    cons_cot,
    cons_e2e,
    e2e_predictor,
    load_cot_dataset,
    load_e2e_dataset,
    pac_trial,
    prefix_expand,
    save_cot_dataset,
    save_e2e_dataset,
    trial_seed,
    zero_one_error,
)
from cotlearn.lbfamilies import CollapseFamily, E1Family, LdimFamily, LookupFamily
from cotlearn.linthresh import SparseThresholdFamily, ThresholdFamily, cons_lp, make_threshold
from cotlearn.turing import TMFamily, TMGenerator, pre, tm_alphabet

seq = BINARY.seq


class TestDatasets:
    def test_cot_record_length_validated(self):
        with pytest.raises(ValueError):
            CoTDataset((seq([1]),), 2)  # needs length >= T
        data = CoTDataset((seq([1, 0, 1]),), 2)
        assert data.prompt(0).tokens == (1,)
        data = CoTDataset((seq([1, 0]),), 2)
        assert data.prompt(0).tokens == ()
        learned = cons_cot(data, lambda pairs: cons_lp(pairs, 2))
        assert cot(learned, seq(), 2) == seq([1, 0])

    def test_cot_trial_on_empty_prompts(self):
        # the trial's six seed-1 draws include the empty prompt, whose record has length T
        dist = BitStringPrompts(0, 1)
        rng = random.Random(1)
        assert seq() in [dist.sample(rng) for _ in range(6)]
        f = make_threshold([1, -1], 0)
        assert cot(f, seq(), 3) == seq([1, 0, 1])
        r = pac_trial(ThresholdFamily(2), f, dist, 6, 3, "cot", 50, 1)
        assert r.error == 0 and r.exact_eval

    @pytest.mark.parametrize("build", [
        lambda T: E2EDataset((), T),
        lambda T: CoTDataset((), T),
        lambda T: LabelledSupport(ConstantGenerator(BINARY, 0), T),
    ], ids=["E2EDataset", "CoTDataset", "LabelledSupport"])
    def test_horizon_is_checked_once(self, build):
        build(1)
        build(GENERATION_MAX_T)
        with pytest.raises(ValueError, match="at least 1"):
            build(0)
        with pytest.raises(GuardExceededError, match="exceeds the guard"):
            build(GENERATION_MAX_T + 1)

    def test_e2e_labels_validated(self):
        with pytest.raises(ValueError):
            E2EDataset(((seq([1]), 5),), 1)

    def test_e2e_prompts_share_one_alphabet(self):
        other = Alphabet(("0", "1", "2"))
        with pytest.raises(ValueError, match="share one alphabet"):
            E2EDataset(((seq([1]), 0), (other.seq([2]), 0)), 1)
        with pytest.raises(ValueError, match="label outside"):
            E2EDataset(((other.seq([2]), 2), (other.seq([0]), 3)), 1)

    def test_empty_e2e_dataset_has_no_alphabet(self):
        data = E2EDataset((), 3)
        assert len(data) == 0
        with pytest.raises(ValueError, match="empty dataset has no alphabet"):
            data.alphabet

    def test_t_must_be_positive(self):
        with pytest.raises(ValueError):
            CoTDataset((), 0)


class TestPrefixExpand:
    def test_slice_arithmetic(self):
        z = seq([1, 0, 1])  # stands for [a, b, c]
        out = prefix_expand(CoTDataset((z,), 2))
        assert [(u.tokens, v) for u, v in out.pairs] == [((1, 0), 1), ((1,), 0)]

    def test_pairs_are_answer_pairs_at_horizon_one(self):
        out = prefix_expand(CoTDataset((seq([1, 0, 1]), seq([0, 1, 1])), 2))
        assert isinstance(out, E2EDataset) and out.T == 1 and out.alphabet == BINARY
        assert prefix_expand(CoTDataset((), 3)) == E2EDataset((), 1)

    def test_cardinality_law(self):
        f = make_threshold([1, -1], 0)
        seqs = tuple(cot(f, seq([1, 0, 1]), 4) for _ in range(5))
        out = prefix_expand(CoTDataset(seqs, 4))
        assert len(out) == 5 * 4

    def test_pairs_satisfy_the_generating_rule(self):
        f = make_threshold([2, -1], Fraction(-1, 2))
        data = CoTDataset(tuple(cot(f, seq(x), 3) for x in ([1], [0, 1], [1, 1, 0])), 3)
        for u, v in prefix_expand(data).pairs:
            assert f.next_token(u) == v

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_the_inclusive_slice_definition(self, data):
        alphabet = Alphabet(tuple("abcd"[:data.draw(st.integers(1, 4), label="size")]))
        T = data.draw(st.integers(1, 6), label="T")
        token = st.integers(0, len(alphabet) - 1)
        seqs = tuple(
            alphabet.seq(data.draw(st.lists(token, min_size=T + 1, max_size=T + 1 + extra)))
            for extra in data.draw(st.lists(st.sampled_from([0, 0, 4]), max_size=4), label="extras")
        )
        expected = tuple((z[:-(t + 1)], z[-t]) for z in seqs for t in range(1, T + 1))
        assert prefix_expand(CoTDataset(seqs, T)).pairs == expected

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_equivalence_with_full_records(self, data):
        # prefix consistency and whole-record consistency pin each other down
        fam = E1Family(2, 3)
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        f_star = fam.random_member(rng)
        pts = fam.canonical_points()
        prompts = [pts[rng.randrange(len(pts))] for _ in range(4)]
        records = CoTDataset(tuple(cot(f_star, x, 3) for x in prompts), 3)
        pairs = prefix_expand(records).pairs
        for f in (fam.random_member(rng) for _ in range(20)):
            agrees_pairs = all(f.next_token(u) == v for u, v in pairs)
            agrees_records = all(
                cot(f, records.prompt(i), 3).tokens == z.tokens
                for i, z in enumerate(records.seqs)
            )
            assert agrees_pairs == agrees_records


class TestConsCot:
    def test_round_trip_tm_family(self):
        rng = random.Random(0)
        fam = TMFamily(2)
        spec = fam.random_spec(rng, 8)
        gen = TMGenerator(spec.S, spec.table)
        prompts = [pre([rng.randint(0, 1) for _ in range(3)], 2) for _ in range(25)]
        data = CoTDataset(tuple(cot(gen, x, 8) for x in prompts), 8)
        learned = cons_cot(data, fam.cons_oracle())
        for i, z in enumerate(data.seqs):
            assert cot(learned, data.prompt(i), 8).tokens == z.tokens

    def test_single_threshold_record(self):
        f_star = make_threshold([1, 1], -1)
        data = CoTDataset((cot(f_star, seq([0, 1]), 3),), 3)
        learned = cons_cot(data, lambda pairs: cons_lp(pairs, 2))
        assert cot(learned, seq([0, 1]), 3).tokens == data.seqs[0].tokens

    def test_empty_dataset_returns_first_member(self):
        fam = E1Family(2, 2)
        learned = cons_cot(CoTDataset((), 2), fam.cons_oracle())
        assert learned == fam.default_member()

    def test_oracle_output_that_misses_a_record_is_refused(self):
        # the constant 0 reproduces record 0 and misses record 1, which generates 1s
        data = CoTDataset((seq([1, 0, 0]), seq([0, 1, 1])), 2)
        with pytest.raises(NotRealizableError, match="fails to reproduce record 1"):
            cons_cot(data, lambda pairs: ConstantGenerator(BINARY, 0))

    def test_unrealizable_surfaces(self):
        z = seq([1, 0, 1, 1])
        bad = CoTDataset((z,), 3)
        with pytest.raises(NotRealizableError):
            cons_cot(bad, lambda pairs: cons_lp(pairs, 0))  # window-0 thresholds are constants

    def test_cot_output_is_e2e_consistent(self):
        fam = E1Family(2, 2)
        rng = random.Random(1)
        f_star = fam.random_member(rng)
        pts = fam.canonical_points()
        prompts = [pts[rng.randrange(len(pts))] for _ in range(6)]
        data = CoTDataset(tuple(cot(f_star, x, 2) for x in prompts), 2)
        learned = cons_cot(data, fam.cons_oracle())
        for x in prompts:
            assert e2e(learned, x, 2) == e2e(f_star, x, 2)


class TestConsE2E:
    def test_enumerated_search_on_e1(self):
        fam = E1Family(2, 2)
        rng = random.Random(2)
        f_star = fam.random_member(rng)
        pts = fam.canonical_points()
        pairs = tuple((x, e2e(f_star, x, 2)) for x in pts)
        learned = cons_e2e(E2EDataset(pairs, 2), fam)
        assert all(e2e(learned, x, 2) == y for x, y in pairs)

    def test_empty_returns_first_member(self):
        fam = E1Family(1, 2)
        assert cons_e2e(E2EDataset((), 2), fam) == fam.default_member()

    def test_contradiction_not_realizable(self):
        fam = E1Family(1, 2)
        x = fam.canonical_points()[0]
        with pytest.raises(NotRealizableError):
            cons_e2e(E2EDataset(((x, 0), (x, 1)), 2), fam)

    def test_fast_path_matches_enumeration(self, monkeypatch):
        """The one lookup search returns the generic scan's first member on
        every lookup family at every horizon, the family's own and the rest:
        on labels from a member and at random, on every kind of
        ``_lookup_prompt``: all-zero prompts, partial points, bare points and
        non-point heads, with and without a tail. At T = 1 the next-token
        oracle returns that member too.

        Member-labelled E1 and Ldim sets, every bare point plus points
        continued by ``_continued_prompt``, give label-0 pairs after a
        continuation that the zero fill misses (45 of these 1,200 sets); the
        search solves them over the bits they read. It scans no member on
        any set here, while the scan it is compared with does."""
        rng = random.Random(3)
        scanned = _count_member_scans(monkeypatch)
        tried = []
        from_bits = LookupFamily.from_bits
        monkeypatch.setattr(LookupFamily, "from_bits", lambda fam, bits: tried.append(bits) or from_bits(fam, bits))
        loose_misses = 0

        def compare(fam, pairs, T):
            nonlocal loose_misses
            scan = GeneratorFamily.find_e2e_consistent(fam, pairs, T)
            assert scanned
            scanned.clear()
            tried.clear()
            assert fam.find_e2e_consistent(pairs, T) == scan, (fam, T, pairs)
            loose_misses += len(tried) > 1  # the zero fill is the first candidate
            if T == 1:
                try:
                    learned = fam.cons_oracle()(pairs)
                except NotRealizableError:
                    learned = None
                assert learned == scan, (fam, pairs)
            assert scanned == [], (fam, T, pairs)

        for fam in (E1Family(2, 3), LdimFamily(3), CollapseFamily(3)):
            for T in range(1, 6):
                for _ in range(100):
                    prompts = [_lookup_prompt(rng, fam) for _ in range(rng.randint(0, 5))]
                    if rng.random() < 0.5:
                        f_star = fam.random_member(rng)
                        pairs = tuple((x, e2e(f_star, x, T)) for x in prompts)
                    else:
                        pairs = tuple((x, rng.randint(0, 1)) for x in prompts)
                    compare(fam, pairs, T)
        for fam in (E1Family(2, 3), E1Family(1, 4), LdimFamily(3), LdimFamily(4)):
            for T in range(1, 6):
                for _ in range(60):
                    f_star = fam.random_member(rng)
                    extra = [_continued_prompt(rng, fam, f_star) for _ in range(rng.randint(1, 4))]
                    prompts = list(fam.canonical_points()) + extra
                    compare(fam, tuple((x, e2e(f_star, x, T)) for x in prompts), T)
        assert loose_misses >= 20, loose_misses

    def test_fast_path_off_its_own_T_needs_no_member_scan(self):
        # 2^24 members: above the enumeration guard, so no scan could answer
        fam = E1Family(3, 8)
        f_star = fam.random_member(random.Random(5))
        pts = fam.canonical_points()
        for T in (4, 9):
            pairs = tuple((x, e2e(f_star, x, T)) for x in pts)
            learned = cons_e2e(E2EDataset(pairs, T), fam)
            assert all(e2e(learned, x, T) == y for x, y in pairs)
        with pytest.raises(NotRealizableError):
            cons_e2e(E2EDataset(((pts[0], 1),), 9), fam)


class TestZeroOneError:
    def test_ground_truth_is_zero(self):
        f = make_threshold([1], 0)
        pairs = tuple((seq([b]), f.next_token(seq([b]))) for b in (0, 1))
        assert zero_one_error(e2e_predictor(f, 1), E2EDataset(pairs, 1)) == 0

    def test_wrong_constant_is_one(self):
        pairs = tuple((seq([b]), 1) for b in (0, 1))
        h = lambda x: 0
        assert zero_one_error(h, E2EDataset(pairs, 1)) == 1

    def test_half_right(self):
        pairs = tuple((seq([i % 2, (i >> 1) % 2, i % 2]), i % 2) for i in range(10))
        h = lambda x: 1
        assert zero_one_error(h, E2EDataset(pairs, 1)) == Fraction(1, 2)

    def test_empty_eval_rejected(self):
        with pytest.raises(ValueError):
            zero_one_error(lambda x: 0, E2EDataset((), 1))


class TestPacTrial:
    def test_large_sample_reaches_zero(self):
        fam = E1Family(2, 2)
        dist = FiniteUniformPrompts(fam.canonical_points())
        rng = random.Random(4)
        f_star = fam.random_member(rng)
        r = pac_trial(fam, f_star, dist, 200, 2, "cot", eval_n=50, seed=11)
        assert r.error == 0 and r.exact_eval

    def test_zero_samples_uses_default_member(self):
        fam = E1Family(2, 2)
        dist = FiniteUniformPrompts(fam.canonical_points())
        f_star = fam.member(fam.size() - 1)
        r = pac_trial(fam, f_star, dist, 0, 2, "e2e", eval_n=50, seed=12)
        assert 0 <= r.error <= 1
        assert r.learned == fam.default_member()

    def test_zero_samples_learns_the_sparse_default_member(self):
        fam = SparseThresholdFamily(3, 1)
        f_star = fam.random_member(random.Random(5))
        r = pac_trial(fam, f_star, BitStringPrompts(1, 3), 0, 2, "e2e", eval_n=50, seed=12)
        assert r.learned == fam.default_member() and r.exact_eval

    def test_reproducible(self):
        fam = E1Family(2, 2)
        dist = FiniteUniformPrompts(fam.canonical_points())
        f_star = fam.member(9)
        a = pac_trial(fam, f_star, dist, 5, 2, "cot", eval_n=50, seed=13)
        b = pac_trial(fam, f_star, dist, 5, 2, "cot", eval_n=50, seed=13)
        assert a.error == b.error and a.learned == b.learned

    def test_family_without_oracle_refuses_full_record_learning(self):
        class Constants(GeneratorFamily):
            alphabet = BINARY

            def size(self):
                return 2

            def members(self):
                return iter((ConstantGenerator(BINARY, 0), ConstantGenerator(BINARY, 1)))

            def random_member(self, rng):
                return ConstantGenerator(BINARY, rng.randint(0, 1))

        fam = Constants()
        dist = BitStringPrompts(1, 2)
        f_star = ConstantGenerator(BINARY, 1)
        with pytest.raises(ValueError, match="family offers no next-token consistency oracle"):
            pac_trial(fam, f_star, dist, 3, 2, "cot", eval_n=8, seed=15)
        assert pac_trial(fam, f_star, dist, 3, 2, "e2e", eval_n=8, seed=15).error == 0
        # with no sample, the first member, by the family's default
        assert pac_trial(fam, f_star, dist, 0, 2, "e2e", eval_n=8, seed=15).learned == ConstantGenerator(BINARY, 0)

    def test_monte_carlo_path(self):
        # a support too large for exact evaluation falls back to sampling
        dist = BitStringPrompts(1, 13)
        assert dist.support() is None
        f_star = make_threshold([1, -1], 0)
        from cotlearn.linthresh import ThresholdFamily

        r = pac_trial(ThresholdFamily(2), f_star, dist, 8, 3, "cot", eval_n=64, seed=14)
        assert not r.exact_eval
        assert r.error.denominator <= 64

    @pytest.mark.parametrize("min_len, max_len", [(0, 0), (0, 3), (1, 4), (3, 5)])
    def test_bit_strings_sample_the_support_uniformly(self, min_len, max_len):
        """Every integer the sampler can draw gives one prompt, and together
        they are the support, each prompt once: a draw is uniform over the
        prompts that exact evaluation weights equally."""

        class EachOnce:
            """An rng whose randrange returns each integer of the range in turn."""

            def __init__(self):
                self.drawn, self.width = 0, None

            def randrange(self, lo, hi):
                self.width = hi - lo
                self.drawn += 1
                return lo + self.drawn - 1

        dist = BitStringPrompts(min_len, max_len)
        rng = EachOnce()
        support = dist.support()
        assert [dist.sample(rng) for _ in support] == list(support)
        assert rng.width == len(support) == len(set(support))

    def test_error_monotone_in_m_on_average(self):
        fam = E1Family(2, 2)
        dist = FiniteUniformPrompts(fam.canonical_points())
        means = []
        for m in (0, 2, 4, 8, 16):
            errs = []
            for s in range(40):
                rng = random.Random(s)
                f_star = fam.random_member(rng)
                errs.append(pac_trial(fam, f_star, dist, m, 2, "cot", 50, trial_seed(99, s)).error)
            means.append(statistics.mean(errs))
        assert means[-1] < means[0]
        for a, b in zip(means, means[1:]):
            assert b <= a + Fraction(1, 20)  # non-increasing up to sampling slack


def test_cot_needs_far_fewer_samples_than_e2e():
    # D=2, T=4, uniform over the 8 canonical points, medians over 50 seeds
    fam = E1Family(2, 4)
    dist = FiniteUniformPrompts(fam.canonical_points())

    def samples_to_zero(mode, seed):
        rng = random.Random(seed)
        f_star = fam.random_member(rng)
        labels = LabelledSupport(f_star, 4)
        for m in range(400):
            r = pac_trial(fam, f_star, dist, m, 4, mode, eval_n=100, seed=trial_seed(seed, m), labels=labels)
            if r.error == 0:
                return m
        return 400

    cot_median = statistics.median(samples_to_zero("cot", s) for s in range(50))
    e2e_median = statistics.median(samples_to_zero("e2e", s) for s in range(50))
    assert cot_median < e2e_median


def _tm_prompts(S: int, max_len: int) -> FiniteUniformPrompts:
    return FiniteUniformPrompts(tuple(
        pre([(code >> j) & 1 for j in range(n)], S) for n in range(max_len + 1) for code in range(2 ** n)
    ))


def _lookup(fam):
    return FiniteUniformPrompts(fam.canonical_points())


def _lookup_prompt(rng, fam, kinds=("zeros", "partial", "head", "tail")):
    """One prompt of a kind drawn from ``kinds``, after up to two leading
    zeros: all zeros; a point's first tokens, which emitted zeros may
    complete; a point-length head led by 1, which is a point or not; or such
    a head and a tail of one or two bits."""
    bits = lambda n: tuple(rng.randint(0, 1) for _ in range(n))
    plen = fam.point_len
    kind = rng.choice(kinds)
    zeros = (0,) * rng.randint(0, 2)
    if kind == "zeros":
        return seq(zeros + (0,) * rng.randint(0, plen - 1))
    if kind == "partial":
        return seq(zeros + rng.choice(fam.canonical_points()).tokens[:rng.randint(1, plen - 1)])
    head = zeros + (1,) + bits(plen - 1)
    return seq(head + (bits(rng.randint(1, 2)) if kind == "tail" else ()))


def _continued_prompt(rng, fam, f_star):
    """A point after up to two zeros, continued by one to three tokens: zeros
    half the time (the zero fill's replay where no bit is forced), else
    f_star's own generation with one token flipped, or random bits."""
    head = (0,) * rng.randint(0, 2) + rng.choice(fam.canonical_points()).tokens
    n, kind = rng.randint(1, 3), rng.random()
    if kind < 0.5:
        return seq(head + (0,) * n)
    if kind < 0.75:
        return seq(head + tuple(rng.randint(0, 1) for _ in range(n)))
    tokens = list(cot(f_star, seq(head), n).tokens)
    tokens[rng.randrange(len(head), len(tokens))] ^= 1
    return seq(tokens)


def _count_member_scans(monkeypatch) -> list:
    """The members ``LookupFamily.members`` yields from now on, in order."""
    scanned = []
    real_members = LookupFamily.members

    def members(family):
        for f in real_members(family):
            scanned.append(f)
            yield f

    monkeypatch.setattr(LookupFamily, "members", members)
    return scanned


def _oracle_cases():
    """(name, family, prompt distribution, T, mode, sample sizes)."""
    for T in (2, 4, 8):
        fam = E1Family(3, T)
        for mode in ("cot", "e2e"):
            yield f"e1:D=3,T={T}-{mode}", fam, _lookup(fam), T, mode, (0, 1, 5, 3 * T, 4 * 3 * T)
    yield "ldim:D=3-e2e", LdimFamily(3), _lookup(LdimFamily(3)), 4, "e2e", (0, 2, 6, 20)
    yield "collapse:D=3-e2e", CollapseFamily(3), _lookup(CollapseFamily(3)), 2, "e2e", (0, 2, 6, 20)
    yield "tm:S=3-cot", TMFamily(3), _tm_prompts(3, 4), 10, "cot", (0, 5, 31, 70)
    for fam in (ThresholdFamily(3), SparseThresholdFamily(4, 1)):
        for dist in (BitStringPrompts(1, 4), BitStringPrompts(1, 13)):
            path = "exact" if dist.support() else "monte-carlo"
            yield f"{fam}-{path}-cot", fam, dist, 3, "cot", (0, 4, 12, 40)
    fam = E1Family(2, 2)
    pts = fam.canonical_points()
    repeated = FiniteUniformPrompts(pts + (pts[0], pts[0], pts[2]))
    for mode in ("cot", "e2e"):
        yield f"e1:D=2,T=2-repeated-{mode}", fam, repeated, 2, mode, (0, 3, 7, 30)


class TestDistinctPrompts:
    """A trial learns from each distinct sampled prompt once and gives the
    reference trial's result, which learns from every draw."""

    @pytest.mark.parametrize(
        "name, fam, dist, T, mode, sizes", [pytest.param(*case, id=case[0]) for case in _oracle_cases()]
    )
    def test_matches_reference_trial(self, name, fam, dist, T, mode, sizes):
        for s in range(3):
            f_star = fam.random_member(random.Random(s))
            for m in sizes:
                seed = trial_seed(s, m)
                got = pac_trial(fam, f_star, dist, m, T, mode, 40, seed)
                want = reference_learning.pac_trial(fam, f_star, dist, m, T, mode, 40, seed)
                assert (got.error, got.m, got.mode, got.exact_eval, got.learned) == (
                    want.error, want.m, want.mode, want.exact_eval, want.learned
                ), (name, s, m)

    def test_shared_labels_match_fresh_ones(self):
        fam = E1Family(3, 4)
        dist = _lookup(fam)
        f_star = fam.random_member(random.Random(8))
        for mode in ("cot", "e2e"):
            labels = LabelledSupport(f_star, 4)
            for m in range(30):
                shared = pac_trial(fam, f_star, dist, m, 4, mode, 50, trial_seed(8, m), labels=labels)
                fresh = pac_trial(fam, f_star, dist, m, 4, mode, 50, trial_seed(8, m))
                assert (shared.error, shared.learned) == (fresh.error, fresh.learned)

    def test_labels_for_another_target_or_horizon_are_refused(self):
        fam = E1Family(2, 2)
        dist = _lookup(fam)
        with pytest.raises(ValueError):
            pac_trial(fam, fam.member(1), dist, 3, 2, "cot", 50, 0, labels=LabelledSupport(fam.member(2), 2))
        with pytest.raises(ValueError):
            pac_trial(fam, fam.member(1), dist, 3, 2, "cot", 50, 0, labels=LabelledSupport(fam.member(1), 3))
        with pytest.raises(ValueError):
            LabelledSupport(fam.member(1), 0)

    def test_record_and_answer_agree_with_generation(self):
        f = make_threshold([1, -1], 0)
        labels = LabelledSupport(f, 3)
        for bits in ([1], [0, 1], [1, 1, 0]):
            x = seq(bits)
            assert labels.answer(x) == e2e(f, x, 3)
            assert labels.record(x) == cot(f, x, 3)
            assert labels.answer(x) == labels.record(x).tokens[-1]


class CountingGenerator(Generator):
    """A target that counts its generations, one per ``generate`` call."""

    def __init__(self, f: Generator):
        self.f = f
        self.alphabet = f.alphabet
        self.generations = 0

    def next_token(self, x):
        return self.f.next_token(x)

    def generate(self, tokens, T):
        self.generations += 1
        self.f.generate(tokens, T)


class TestGenerationCounts:
    """Deterministic twins of the learning-trial speedup: f_star generates
    once per distinct prompt, and the learner sees each distinct prompt once."""

    def test_trial_generates_each_distinct_prompt_once(self):
        fam, T, m, seed = TMFamily(3), 10, 70, 5
        dist = _tm_prompts(3, 4)
        f_star = CountingGenerator(fam.random_member(random.Random(1)))
        pac_trial(fam, f_star, dist, m, T, "cot", 50, seed)
        rng = random.Random(seed)
        sampled = {dist.sample(rng) for _ in range(m)}
        assert f_star.generations == len(sampled | set(dist.support())) == 31

    def test_shared_labels_generate_each_record_and_answer_once(self):
        # m = 0 labels the 31-prompt support with one e2e each; a later
        # record is one cot, whose last token is then the stored answer.
        fam, T = TMFamily(3), 10
        dist = _tm_prompts(3, 4)
        f_star = CountingGenerator(fam.random_member(random.Random(2)))
        labels = LabelledSupport(f_star, T)
        recorded = set()
        for m in range(41):
            pac_trial(fam, f_star, dist, m, T, "cot", 50, trial_seed(2, m), labels=labels)
            rng = random.Random(trial_seed(2, m))
            recorded.update(dist.sample(rng) for _ in range(m))
        assert f_star.generations == 31 + len(recorded) <= 2 * 31

    def test_shared_answer_only_labels_generate_at_most_the_support(self):
        fam, T = E1Family(3, 8), 8
        dist = _lookup(fam)
        f_star = CountingGenerator(fam.random_member(random.Random(4)))
        labels = LabelledSupport(f_star, T)
        for m in range(41):
            pac_trial(fam, f_star, dist, m, T, "e2e", 50, trial_seed(4, m), labels=labels)
        assert f_star.generations == len(dist.support()) == 24

    @pytest.mark.parametrize("mode", ["cot", "e2e"])
    def test_learner_sees_distinct_prompts(self, monkeypatch, mode):
        fam, T, m, seed = E1Family(3, 4), 4, 48, 6
        dist = _lookup(fam)
        seen = []
        real_cot, real_e2e = learning.cons_cot, learning.cons_e2e

        def spy_cot(data, oracle):
            return real_cot(data, lambda pairs: seen.append(len(pairs)) or oracle(pairs))

        def spy_e2e(data, family):
            seen.append(len(data.pairs))
            return real_e2e(data, family)

        monkeypatch.setattr(learning, "cons_cot", spy_cot)
        monkeypatch.setattr(learning, "cons_e2e", spy_e2e)
        pac_trial(fam, fam.random_member(random.Random(3)), dist, m, T, mode, 50, seed)
        rng = random.Random(seed)
        distinct = len({dist.sample(rng) for _ in range(m)})
        assert distinct < m
        assert seen == [distinct * T if mode == "cot" else distinct]

    @pytest.mark.parametrize("fam, T, mode", [
        (E1Family(3, 4), 4, "cot"),
        (E1Family(3, 4), 4, "e2e"),
        (LdimFamily(6), 7, "cot"),
        (LdimFamily(6), 7, "e2e"),
        (CollapseFamily(6), 2, "cot"),
        (CollapseFamily(6), 2, "e2e"),
    ], ids=str)
    def test_trials_on_member_data_scan_no_member(self, monkeypatch, fam, T, mode):
        # the lookup search forces what member data pins down and zero-fills
        # the rest, which fits every pair, so the generic scan never runs
        scanned = _count_member_scans(monkeypatch)
        dist = _lookup(fam)
        for seed in range(6):
            f_star = fam.random_member(random.Random(seed))
            for m in (1, 4, 12, 48):
                pac_trial(fam, f_star, dist, m, T, mode, 50, trial_seed(seed, m))
        assert scanned == []

    def test_member_answers_without_continuations_scan_no_member(self, monkeypatch):
        # all-zero prompts, partial points, non-point heads and bare points
        # leave no label-0 pair after a continuation, so the zero fill fits
        scanned = _count_member_scans(monkeypatch)
        rng = random.Random(8)
        for fam in (E1Family(2, 3), LdimFamily(3), CollapseFamily(3)):
            for T in (2, 3, 5):
                for _ in range(20):
                    f_star = fam.random_member(rng)
                    prompts = [_lookup_prompt(rng, fam, ("zeros", "partial", "head")) for _ in range(rng.randint(1, 5))]
                    pairs = tuple((x, e2e(f_star, x, T)) for x in prompts)
                    learned = fam.find_e2e_consistent(pairs, T)
                    assert all(e2e(learned, x, T) == y for x, y in pairs)
        assert scanned == []


class TestTrialSeed:
    def test_stable_and_distinct(self):
        assert trial_seed(1, 2) == trial_seed(1, 2)
        seeds = {trial_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert all(0 <= s < 2**64 for s in seeds)


class TestFiles:
    def test_cot_round_trip(self, tmp_path):
        f = make_threshold([1, -1], 0)
        data = CoTDataset(tuple(cot(f, seq(x), 2) for x in ([1], [0, 1])), 2)
        p = tmp_path / "cots.txt"
        save_cot_dataset(p, data)
        assert load_cot_dataset(p, BINARY, 2) == data

    def test_e2e_round_trip(self, tmp_path):
        pairs = ((seq([1, 0]), 1), (seq([0]), 0))
        data = E2EDataset(pairs, 3)
        p = tmp_path / "pairs.tsv"
        save_e2e_dataset(p, data)
        assert load_e2e_dataset(p, BINARY, 3) == data

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.one_of(st.text(alphabet=st.characters(blacklist_categories=("Cs",))),
                  st.text(alphabet="01,\t\n _:+-", max_size=60)),
        st.sampled_from((BINARY, tm_alphabet(1))),
        st.integers(-1, 4),
    )
    def test_arbitrary_file_loads_or_is_value_error(self, tmp_path, text, alphabet, T):
        p = tmp_path / "data.txt"
        p.write_text(text, encoding="utf-8")
        for load, kind in ((load_cot_dataset, CoTDataset), (load_e2e_dataset, E2EDataset)):
            try:
                data = load(p, alphabet, T)
            except ValueError:
                continue
            assert isinstance(data, kind)

    def test_bad_e2e_line(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("0,1 no-tab-here\n")
        with pytest.raises(ValueError):
            load_e2e_dataset(p, BINARY, 1)
