"""The incremental tape decoder against the per-call rescans it replaced.

``read_tape`` and ``read_tape_attention_fast`` answer a prefix of this
thread's last decoded history from its recorded reads, resume it when the
new history extends it, and decode from empty otherwise. Every call order
must give what a fresh rescan gives: growing and shrinking prefixes,
interleaved histories, repeats, alphabets of different S, histories
without the begin marker, and a bad token after a good prefix that was
decoded already.
"""

import random
import sys
import threading
import tracemalloc

import pytest
import reference_tape
from hypothesis import given, settings, strategies as st

from cotlearn import turing
from cotlearn.attention import read_tape_attention_fast
from cotlearn.learning import CoTDataset, cons_cot, prefix_expand
from cotlearn.seqcore import NotRealizableError, PrefixCuts, TokenSeq
from cotlearn.turing import BLANK, TMFamily, TMGenerator, TMToken, cons_tm, decode_token, encode_token, pre, read_tape, tm_alphabet

CORPUS_STRIDE = 11  # each machine has 127 runs, so every machine is checked


def outcome(fn, *args):
    """fn's result, or the type and text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def expected_reads(z):
    """Per prefix length, the rescans' (read_tape, read_tape_attention_fast)."""
    return {
        N: (outcome(reference_tape.read_tape, p), outcome(reference_tape.read_tape_attention_fast, p))
        for N, p in ((N, TokenSeq(z.alphabet, z.tokens[:N])) for N in range(1, len(z) + 1))
    }


def check_calls(calls):
    """Run (history, expected reads) calls in order through both library readers."""
    for z, (direct, attention) in calls:
        assert outcome(read_tape, z) == direct, z.tokens
        assert outcome(read_tape_attention_fast, z) == attention, z.tokens


def prefix_calls(z, expected, lengths):
    return [(TokenSeq(z.alphabet, z.tokens[:N]), expected[N]) for N in lengths]


def sweep_orders(a, b):
    """Call orders over histories a and b: ascending and descending
    prefixes, the two interleaved, and each whole history twice."""
    za, ea = a
    zb, eb = b
    up_a, up_b = range(1, len(za) + 1), range(1, len(zb) + 1)
    interleaved = [c for pair in zip(prefix_calls(za, ea, up_a), prefix_calls(zb, eb, up_b)) for c in pair]
    return [
        prefix_calls(za, ea, up_a),
        prefix_calls(za, ea, reversed(up_a)),
        interleaved,
        prefix_calls(za, ea, [len(za)] * 2) + prefix_calls(zb, eb, [len(zb)] * 2),
    ]


def test_sweeps_match_rescans_on_corpus(tm_corpus):
    runs = [(run.generated, expected_reads(run.generated)) for run in tm_corpus[::CORPUS_STRIDE]]
    half = len(runs) // 2
    for i, a in enumerate(runs):
        # the next run mostly shares the machine and a prefix; the one half
        # the sample away is another machine, often with another S
        b = runs[(i + 1 if i % 2 else i + half) % len(runs)]
        for calls in sweep_orders(a, b):
            check_calls(calls)


def test_keys_are_the_table_keys_of_the_rescans_reads(tm_corpus):
    """The decoder reports transition-table keys: after ``extend`` grows
    through every prefix of a history, ``keys[N - 1]`` is the key of the
    rescan's (state, symbol) read of the length-N prefix."""
    for run in tm_corpus[::CORPUS_STRIDE]:
        z = run.generated
        scan = turing._TapeScan(run.spec.S)
        for N in range(1, len(z) + 1):
            scan.extend(z.tokens[:N])
        prefixes = (TokenSeq(z.alphabet, z.tokens[:N]) for N in range(1, len(z) + 1))
        assert scan.keys == [turing._table_key(*reference_tape.read_tape(p)) for p in prefixes], z.tokens


def any_history(S):
    """Up to 30 tokens of any state, symbol and move: the begin marker may
    be missing or repeated, as read_tape allows."""
    token = st.tuples(st.integers(1, S), st.sampled_from((0, 1, BLANK)), st.sampled_from((-1, 0, 1)))
    return st.lists(token, min_size=1, max_size=30).map(
        lambda triples: TokenSeq(tm_alphabet(S), tuple(encode_token(S, TMToken(*t)) for t in triples))
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_call_order_matches_rescans(data):
    a = data.draw(st.integers(1, 3).flatmap(any_history), label="a")
    b = data.draw(st.integers(1, 3).flatmap(any_history), label="b")
    pool = [(z, N) for z in (a, b) for N in range(1, len(z) + 1)]
    order = data.draw(st.lists(st.sampled_from(pool), max_size=40), label="order")
    expected = {id(a): expected_reads(a), id(b): expected_reads(b)}
    check_calls([(TokenSeq(z.alphabet, z.tokens[:N]), expected[id(z)][N]) for z, N in order])


def test_same_tokens_under_another_alphabet():
    """Token ids alone do not identify a history: the alphabet's S is part of it."""
    z1 = TokenSeq(tm_alphabet(1), pre([1, 0, 1], 1).tokens + (encode_token(1, TMToken(1, 1, -1)),) * 3)
    z2 = TokenSeq(tm_alphabet(2), z1.tokens)
    for z in (z1, z2, z1, TokenSeq(z2.alphabet, z2.tokens + (encode_token(2, TMToken(2, 0, 1)),))):
        check_calls(prefix_calls(z, expected_reads(z), [len(z)]))


def test_bad_token_after_decoded_prefix():
    z = pre([1, 0, 1, 1], 2)
    blank_write = encode_token(2, TMToken(2, BLANK, -1))
    bad = TokenSeq(z.alphabet, z.tokens + (blank_write, encode_token(2, TMToken(1, 1, 0))))
    expected = expected_reads(bad)
    assert expected[len(bad)][1][1] == reference_tape.NO_BEGIN_MARKER
    # grow through the good prefix, hit the bad token, repeat it, then go back
    lengths = list(range(1, len(bad) + 1)) + [len(bad), len(z) + 1, len(z), len(bad)]
    check_calls(prefix_calls(bad, expected, lengths))


@pytest.mark.parametrize("reader, reference", [
    (read_tape, reference_tape.read_tape),
    (read_tape_attention_fast, reference_tape.read_tape_attention_fast),
], ids=["read_tape", "attention"])
def test_list_tokens_changed_after_a_call(reader, reference):
    """A TokenSeq backed by a list that changes after a call reads as its
    new contents: the decoder resumes only from a snapshot of the old ones."""
    S = 2
    tokens = list(machine_run(S, 12, 4).tokens)
    z = TokenSeq(tm_alphabet(S), tokens)
    edits = [
        lambda: tokens.append(encode_token(S, TMToken(1, 1, -1))),
        lambda: tokens.__setitem__(2, encode_token(S, TMToken(2, 0, -1))),  # moves every later write
        lambda: tokens.__setitem__(len(tokens) - 1, encode_token(S, TMToken(1, 0, 0))),
        tokens.pop,
    ]
    assert reader(z) == reference(TokenSeq(z.alphabet, tuple(tokens)))
    for edit in edits:
        edit()
        assert reader(z) == reference(TokenSeq(z.alphabet, tuple(tokens)))


def machine_run(S, T, seed):
    spec = TMFamily(S).random_spec(random.Random(seed), T)
    return machine_run_from(TMGenerator(S, spec.table), pre([1, 0, 1], S), T)


def machine_run_from(gen, x, T):
    """x and T tokens of gen, through the reference stepper."""
    return reference_tape.cot(reference_tape.tm_stepper, gen, x, T)


def count_decoded_tokens(monkeypatch):
    """A dict whose "tokens" entry counts the tokens every decoder consumes."""
    counts = {"tokens": 0}
    extend = turing._TapeScan.extend

    def counting_extend(scan, tokens):
        counts["tokens"] += len(tokens) - scan.n
        return extend(scan, tokens)

    monkeypatch.setattr(turing._TapeScan, "extend", counting_extend)
    return counts


def run_in_thread(fn):
    """fn() in a new thread, whose decoder memo starts empty."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(out) == 1
    return out[0]


@pytest.mark.parametrize("order", [
    lambda n: range(1, n + 1),
    lambda n: range(n, 0, -1),
], ids=["ascending", "descending"])
def test_sweep_decodes_tokens_by_count(order, monkeypatch):
    """Deterministic twin of the sweep timing: a per-prefix sweep decodes
    each token once, whether each prefix extends the one before or the
    longest comes first and the shorter ones are read from its reads (the
    per-call rescan re-decoded every prefix, n(n+1)/2 tokens)."""
    z = machine_run(3, 400, 8)
    n = len(z)
    counts = count_decoded_tokens(monkeypatch)

    def sweep():
        for N in order(n):
            prefix = TokenSeq(z.alphabet, z.tokens[:N])
            read_tape(prefix)
            read_tape_attention_fast(prefix)

    run_in_thread(sweep)
    assert counts["tokens"] == n


def test_begin_marker_check_on_prefix_hits(monkeypatch):
    """A second blank at position k fails exactly the prefixes of length
    >= k, in a descending sweep (each prefix read from the longest's
    decode) and then an ascending one. A clean history swept the same way
    checks each token once: checking a shorter prefix keeps the count of
    tokens already checked."""
    S, k = 2, 9
    z = machine_run(S, 20, 3)
    bad = TokenSeq(z.alphabet, z.tokens[:k - 1] + (encode_token(S, TMToken(1, BLANK, 1)),) + z.tokens[k:])
    n = len(z)
    sweep = [*range(n, 0, -1), *range(1, n + 1)]
    no_marker = (ValueError, reference_tape.NO_BEGIN_MARKER)
    decode = turing._decode_table(S)
    failing = [N for N in range(1, n + 1) if outcome(reference_tape.check_begin_marker, bad.tokens[:N], decode) == no_marker]
    assert failing == list(range(k, n + 1))

    def fails(N):
        return outcome(read_tape_attention_fast, TokenSeq(bad.alphabet, bad.tokens[:N])) == no_marker

    assert run_in_thread(lambda: [N for N in sweep if fails(N)]) == failing[::-1] + failing

    visits = {"tokens": 0}
    check = turing._TapeScan.check_begin_marker

    def counting_check(scan, tokens):
        visits["tokens"] += max(len(tokens) - scan.checked, 0)
        return check(scan, tokens)

    monkeypatch.setattr(turing._TapeScan, "check_begin_marker", counting_check)
    run_in_thread(lambda: [read_tape_attention_fast(TokenSeq(z.alphabet, z.tokens[:N])) for N in sweep])
    assert visits["tokens"] == n


def test_memo_is_per_thread(monkeypatch):
    """A history decoded in one thread is not resumed in another."""
    z = machine_run(2, 30, 5)
    read_tape(TokenSeq(z.alphabet, z.tokens[:-1]))
    counts = count_decoded_tokens(monkeypatch)
    assert run_in_thread(lambda: read_tape(z)) == reference_tape.read_tape(z)
    assert counts["tokens"] == len(z)
    read_tape(z)
    assert counts["tokens"] == len(z) + 1


def test_threads_sweep_different_histories_at_once():
    """Each thread resumes only its own last history, even where the
    histories share a long prefix and part only after it."""
    shared = machine_run(2, 120, 1).tokens[:60]
    histories = [TokenSeq(tm_alphabet(2), shared + machine_run(2, 120, seed).tokens[60:]) for seed in (2, 3, 4)]
    expected = [[reference_tape.read_tape(TokenSeq(z.alphabet, z.tokens[:N])) for N in range(1, len(z) + 1)]
                for z in histories]
    failures = []

    def sweep(i):
        z = histories[i]
        for _ in range(4):
            got = [read_tape(TokenSeq(z.alphabet, z.tokens[:N])) for N in range(1, len(z) + 1)]
            if got != expected[i]:
                failures.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=sweep, args=(i % len(histories),)) for i in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert failures == []


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cons_tm_matches_reading_in_order(data):
    """cons_tm reads its pairs once, in the given order, through the
    decoder memo; its table, and the error it raises (that of the first bad
    pair in the given order), are those of a rescan of each pair in order."""
    S = data.draw(st.integers(1, 3), label="S")
    runs = data.draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 2**32), st.integers(1, 6)),
                              max_size=3), label="runs")
    pairs = []
    for S_run, seed, T in runs:
        z = machine_run(S_run, T, seed)
        pairs.extend(prefix_expand(CoTDataset((z,), T)).pairs)
    extra = data.draw(st.lists(st.tuples(st.integers(1, 3).flatmap(any_history), st.integers(0, 8)),
                               max_size=3), label="extra")
    pairs.extend((TokenSeq(u.alphabet, u.tokens[:data.draw(st.integers(0, len(u)))]), v) for u, v in extra)
    pairs = data.draw(st.permutations(pairs), label="order") if data.draw(st.booleans()) else pairs
    expected = outcome(reference_tape.cons_tm, pairs, S)
    assert outcome(lambda p, S: cons_tm(p, S).table, pairs, S) == expected


def test_cons_tm_decodes_each_record_once(monkeypatch):
    """Deterministic twin of cons_tm's timing: a record's T prefixes share
    one decode, so each record costs its longest prefix, whether the pairs
    come longest first (as ``prefix_expand`` lists them), reversed, or end
    in a record whose label conflicts with an earlier record's."""
    S, T = 3, 12
    spec = TMFamily(S).random_spec(random.Random(6), T)
    gen = TMGenerator(S, spec.table)
    records = tuple(machine_run_from(gen, pre([a, b, c], S), T) for a in (0, 1) for b in (0, 1) for c in (0, 1))
    z = records[0]
    last = decode_token(S, z.tokens[-1])
    other = encode_token(S, TMToken(last.state, 1 - last.symb, last.move))
    conflicting = records + (TokenSeq(z.alphabet, z.tokens[:-1] + (other,)),)
    counts = count_decoded_tokens(monkeypatch)
    for recs, order in ((records, list), (records, lambda p: p[::-1]), (conflicting, list)):
        pairs = order(prefix_expand(CoTDataset(recs, T)).pairs)
        expected = outcome(reference_tape.cons_tm, pairs, S)
        assert (expected[0] is NotRealizableError) == (recs is conflicting)
        counts["tokens"] = 0
        assert run_in_thread(lambda: outcome(lambda: cons_tm(pairs, S).table)) == expected
        assert counts["tokens"] == sum(len(r) - 1 for r in recs)


def test_cons_cot_reads_long_records_in_linear_work(monkeypatch):
    """Deterministic twin of full-record learning at a long horizon: two
    S = 3 records at T = 8,000 are learned through their cuts, so the
    decoder visits each record token at most once and no prefix is copied
    (the expansion holds n(n+1)/2 token references per record, some 64
    million for these two). At T = 500 the table equals the one learned
    from the reference expansion."""
    S = 3
    family = TMFamily(S)
    spec = family.random_spec(random.Random(5), 8000)
    gen = TMGenerator(S, spec.table)

    def records(T):
        return CoTDataset(tuple(machine_run_from(gen, pre(w, S), T) for w in ([1, 0, 1], [0, 1, 1, 0])), T)

    data = records(8000)
    counts = count_decoded_tokens(monkeypatch)
    table = run_in_thread(lambda: cons_tm(PrefixCuts(data.seqs, data.T), S).table)
    assert counts["tokens"] <= sum(len(z) for z in data.seqs)
    tracemalloc.start()
    try:
        assert cons_cot(data, family.cons_oracle()).table == table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    short = records(500)
    assert cons_cot(short, family.cons_oracle()).table == cons_tm(prefix_expand(short).pairs, S).table
