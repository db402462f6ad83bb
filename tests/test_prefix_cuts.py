"""Full-record learning reads each record's cuts: ``PrefixCuts`` against ``prefix_expand``.

``cons_cot`` hands its oracle the dataset's ``PrefixCuts`` view, which
lists every (record, cut, label) in place; ``prefix_expand`` lists the
same pairs as copied prefixes and stays as the reference. Every family's
oracle must return the same generator through either, or raise the same
exception with the same message: on the machine corpus, on hypothesis
records, on empty-prompt records, on conflicting records, and with the
records in reverse order.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cotlearn.lbfamilies import CollapseFamily, E1Family, LdimFamily
from cotlearn.learning import CoTDataset, cons_cot, prefix_expand
from cotlearn.linthresh import SparseThresholdFamily, ThresholdFamily
from cotlearn.seqcore import BINARY, NotRealizableError, PrefixCuts, TokenSeq, cot, cuts
from cotlearn.turing import BLANK, TMFamily, TMToken, decode_token, encode_token, tm_alphabet

LOOKUP_FAMILIES = (E1Family(2, 2), E1Family(2, 3), LdimFamily(3), CollapseFamily(3))
THRESHOLD_FAMILIES = (ThresholdFamily(0), ThresholdFamily(2), ThresholdFamily(3), SparseThresholdFamily(3, 1))
TM_FAMILIES = tuple(TMFamily(S) for S in (1, 2, 3))


def outcome(fn, *args):
    """fn's result, or the type and text of the exception it raises."""
    try:
        return "returned", fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def same_through_cuts(families, seqs, T, orders=(1, -1)):
    """Each family's oracle outcome on the view, asserted equal to its
    outcome on the expansion, for the records in each order (1 as given,
    -1 reversed); and ``cons_cot``, which reads the view, refuses exactly
    when the oracle does. Returns the outcomes in the first order."""
    results = []
    for order in (tuple(seqs[::step]) for step in orders):
        data = CoTDataset(order, T)
        pairs = prefix_expand(data).pairs
        for family in families:
            oracle = family.cons_oracle()
            expected = outcome(oracle, pairs)
            assert outcome(oracle, PrefixCuts(order, T)) == expected
            if expected[0] != "returned":
                assert outcome(cons_cot, data, oracle) == expected
            results.append(expected)
    return results[:len(families)]


class TestView:
    def test_lists_the_expansion_in_its_order(self):
        seqs = (BINARY.seq([1, 0, 1]), BINARY.seq([0, 1]), BINARY.seq([1, 1, 0, 0]))
        view = PrefixCuts(seqs, 2)
        expanded = prefix_expand(CoTDataset(seqs, 2)).pairs
        assert len(view) == len(expanded) == 6
        assert [(TokenSeq(z.alphabet, z.tokens[:cut]), v) for z, cut, v in view] == list(expanded)
        assert all(z is seqs[i // 2] for i, (z, _, _) in enumerate(view))

    def test_plain_pairs_are_cuts_at_their_own_end(self):
        pairs = [(BINARY.seq([1, 0]), 1), (BINARY.seq(), 0)]
        assert list(cuts(pairs)) == [(pairs[0][0], 2, 1), (pairs[1][0], 0, 0)]
        view = PrefixCuts((BINARY.seq([1]),), 1)
        assert cuts(view) is view

    def test_refuses_a_record_shorter_than_T(self):
        with pytest.raises(ValueError, match="cannot carry 3 generated tokens"):
            PrefixCuts((BINARY.seq([1, 0]),), 3)
        with pytest.raises(ValueError, match="at least 1"):
            PrefixCuts((), 0)


def machines(tm_corpus):
    """The corpus's runs grouped by machine: (spec, records)."""
    for spec, runs in itertools.groupby(tm_corpus, key=lambda run: run.spec):
        yield spec, tuple(run.generated for run in runs)


def test_tm_oracles_agree_on_the_corpus(tm_corpus):
    """Every corpus machine's records, learned by tm:S=1..3, and again in
    reverse order after a record whose last token is changed, so that the
    rest conflict with it."""
    kinds = {}
    for spec, records in machines(tm_corpus):
        z = records[-1]
        last = decode_token(spec.S, z.tokens[-1])
        flipped = encode_token(spec.S, TMToken(last.state, 1 - last.symb, last.move))
        conflicting = records + (TokenSeq(z.alphabet, z.tokens[:-1] + (flipped,)),)
        for recs, order in ((records, 1), (conflicting, -1)):
            for result in same_through_cuts(TM_FAMILIES, recs, spec.T, (order,)):
                kinds[result[0]] = kinds.get(result[0], 0) + 1
    assert set(kinds) == {"returned", ValueError, NotRealizableError}


def test_tm_refuses_an_empty_history_the_same_way():
    """A record with the empty prompt whose first token writes a bit: the
    last cut is the empty history, which the decoder cannot read."""
    S = 2
    z = TokenSeq(tm_alphabet(S), (encode_token(S, TMToken(1, 1, 1)), encode_token(S, TMToken(2, 0, -1))))
    [result] = same_through_cuts([TMFamily(S)], (z,), 2)
    assert result[1] == "cannot read the tape of an empty history"


def test_oracles_refuse_records_over_another_alphabet_the_same_way():
    z = TokenSeq(tm_alphabet(1), (encode_token(1, TMToken(1, BLANK, 1)), encode_token(1, TMToken(1, 1, 0))))
    for result in same_through_cuts(LOOKUP_FAMILIES + THRESHOLD_FAMILIES, (z,), 1):
        assert result[0] is ValueError


def tm_records(S):
    """Up to three machine-alphabet records of any tokens, begin marker or not."""
    token = st.tuples(st.integers(1, S), st.sampled_from((0, 1, BLANK)), st.sampled_from((-1, 0, 1)))
    record = st.lists(token, min_size=1, max_size=12).map(
        lambda triples: TokenSeq(tm_alphabet(S), tuple(encode_token(S, TMToken(*t)) for t in triples))
    )
    return st.lists(record, min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tm_oracles_agree_on_any_records(data):
    records = data.draw(st.integers(1, 3).flatmap(tm_records), label="records")
    T = data.draw(st.integers(1, min(map(len, records))), label="T")
    same_through_cuts(TM_FAMILIES, records, T)


def binary_records(family_members):
    """Up to four binary records: some generated by a family member, so the
    oracle has something to find, and some of any bits."""
    bits = st.lists(st.integers(0, 1), max_size=8)

    def generated(args):
        f, prompt, T = args
        return cot(f, BINARY.seq(prompt), T)

    made = st.tuples(family_members, bits, st.integers(1, 4)).map(generated)
    return st.lists(st.one_of(made, bits.map(BINARY.seq)), min_size=1, max_size=4)


def members(families):
    return st.sampled_from(families).flatmap(
        lambda family: st.integers(0, 2**16).map(lambda seed: family.random_member(random.Random(seed)))
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lookup_oracles_agree_on_any_records(data):
    records = data.draw(binary_records(members(LOOKUP_FAMILIES)), label="records")
    T = data.draw(st.integers(1, max(1, min(map(len, records)))), label="T")
    if any(len(z) < T for z in records):
        return  # only empty records, which carry no generated token
    same_through_cuts(LOOKUP_FAMILIES, records, T)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_threshold_oracles_agree_on_any_records(data):
    records = data.draw(binary_records(members(THRESHOLD_FAMILIES)), label="records")
    T = data.draw(st.integers(1, max(1, min(map(len, records)))), label="T")
    if any(len(z) < T for z in records):
        return
    same_through_cuts(THRESHOLD_FAMILIES, records, T)


@pytest.mark.parametrize("family", LOOKUP_FAMILIES + THRESHOLD_FAMILIES, ids=repr)
def test_empty_prompt_records(family):
    """Records of length exactly T: the last cut of each is the empty history."""
    f = family.random_member(random.Random(7))
    records = tuple(cot(f, BINARY.seq(), 3) for _ in range(2)) + (BINARY.seq([1, 0, 1]),)
    same_through_cuts([family], records, 3)
    same_through_cuts([family], records[:1], 3)
