"""Causal average hard attention and the attention-backed tape reader.

Average hard attention at position i returns the mean of the values
whose key scores ⟨q[i], k[j]⟩, j <= i, attain the maximum. All scores
and outputs are exact rationals: the tape lookup distinguishes scores
like -1/6 and -1/7, which floating point must not be trusted to order.
A value that is always a whole number is held as an ``int``, which is an
exact rational too: in the tape reader's causal pass the moves, the head
positions, the symbol values 0 and 1 and every query and key entry but
the 1/j term are ints. Only that term, the blank's value 1/2, the
uniform-attention averages and the public ``TapeView`` fields are
``Fraction``s. An ``int`` plus a ``Fraction`` is a ``Fraction``, so
every score stays exact and no float appears.

Two uses are composed here: head positions come from uniform attention
(all scores tie, so the output is a prefix average), and the symbol
under the head comes from a query/key match on positions, with a step
index term breaking ties toward the most recent write.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .seqcore import TokenSeq, _check_alphabet
from .turing import (
    BLANK,
    TMGenerator,
    TMToken,
    _alphabet_states,
    _decode_table,
    _decoded,
    _read_at,
    _table_key,
    _TapeScan,
)

Vec = tuple[Fraction | int, ...]
"""One query, key or value: exact rationals, each a ``Fraction`` or, where
it is always a whole number, an ``int``."""


@dataclass(frozen=True)
class AttentionBatch:
    """Aligned query/key/value vectors for one sequence of length N.

    Entries are exact rationals. ``make_batch`` makes every entry a
    ``Fraction``; the tape reader's causal pass holds its whole-number
    entries as ``int``s.
    """

    q: tuple[Vec, ...]
    k: tuple[Vec, ...]
    v: tuple[Vec, ...]

    def __post_init__(self):
        n = len(self.q)
        if not (len(self.k) == n and len(self.v) == n):
            raise ValueError("queries, keys, and values must share one sequence length")
        if n:
            lq = len(self.q[0])
            lv = len(self.v[0])
            if any(len(x) != lq for x in self.q) or any(len(x) != lq for x in self.k):
                raise ValueError("query/key width must be uniform")
            if any(len(x) != lv for x in self.v):
                raise ValueError("value width must be uniform")

    def __len__(self) -> int:
        return len(self.q)


def make_batch(q, k, v) -> AttentionBatch:
    to_vec = lambda row: tuple(Fraction(x) for x in row)
    return AttentionBatch(
        tuple(to_vec(row) for row in q),
        tuple(to_vec(row) for row in k),
        tuple(to_vec(row) for row in v),
    )


def _dot(a: Vec, b: Vec) -> Fraction | int:
    """Exact score: an ``int`` when every product is one, else a ``Fraction``."""
    return sum(x * y for x, y in zip(a, b))


def _argmax(scores: Iterable[Fraction]) -> tuple[list[int], Fraction]:
    """Argmax index set (1-based) and best score of a score sequence; ties
    are exact set membership, never epsilon-based."""
    best = None
    members: list[int] = []
    for j, score in enumerate(scores, start=1):
        if best is None or score > best:
            best = score
            members = [j]
        elif score == best:
            members.append(j)
    return members, best


def aha_argmax(batch: AttentionBatch, i: int) -> tuple[list[int], Fraction]:
    """Argmax index set (1-based) and best score among keys j <= i, for a
    position 1 <= i <= len(batch); the best score is a ``Fraction``."""
    if not 1 <= i <= len(batch):
        raise IndexError(f"position {i} outside 1..{len(batch)}")
    members, best = _argmax(_dot(batch.q[i - 1], key) for key in batch.k[:i])
    return members, Fraction(best)


def aha(batch: AttentionBatch) -> list[Vec]:
    """Average-hard-attention outputs at every position.

    output[i] is the exact average of the values at the argmax score
    positions.
    """
    outputs: list[Vec] = []
    width = len(batch.v[0]) if batch.v else 0
    for i in range(1, len(batch) + 1):
        members, _ = aha_argmax(batch, i)
        share = Fraction(1, len(members))
        acc = [Fraction(0)] * width
        for j in members:
            for t, val in enumerate(batch.v[j - 1]):
                acc[t] += val
        outputs.append(tuple(a * share for a in acc))
    return outputs


@dataclass(frozen=True)
class TapeView:
    """Per-position head bookkeeping recovered by attention.

    npos[i] is the head position after token i's move, pos[i] the
    position where token i's symbol was written, idx_inv[i] = 1/i.
    """

    pos: tuple[Fraction, ...]
    npos: tuple[Fraction, ...]
    idx_inv: tuple[Fraction, ...]


def _history_parts(z: TokenSeq):
    """Decoded tokens of a history that starts at the begin marker."""
    S = _alphabet_states(z.alphabet)
    _TapeScan(S).check_begin_marker(z.tokens)
    decode = _decode_table(S)
    return [decode[t] for t in z.tokens]


def uniform_attention(values: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """aha output for scalar values under all-zero queries and keys.

    Every prefix score ties, so position i averages all of v[1..i]; this
    computes those prefix averages directly and is tested against the
    generic aha evaluation. Each average is a ``Fraction``, also when the
    values are ints.
    """
    out = []
    acc = 0
    for i, v in enumerate(values, start=1):
        acc += v
        out.append(Fraction(acc, i))
    return tuple(out)


def _tape_view(toks: Sequence[TMToken]) -> TapeView:
    """Positions from moves by uniform attention.

    Averaging the is-first indicator gives idx_inv[i] = 1/i, averaging
    the moves gives npos[i]/i, and their ratio recovers the position
    sums. pos[i] then follows by locally subtracting token i's own move.
    """
    is_first = [1 if t.symb == BLANK else 0 for t in toks]
    moves = [t.move for t in toks]
    idx_inv = uniform_attention(is_first)
    scaled_npos = uniform_attention(moves)
    npos = tuple(s / inv for s, inv in zip(scaled_npos, idx_inv))
    pos = tuple(np - t.move for np, t in zip(npos, toks))
    return TapeView(pos, npos, idx_inv)


def positions_via_attention(z: TokenSeq) -> TapeView:
    """Recover positions from moves using uniform attention."""
    return _tape_view(_history_parts(z))


@dataclass(frozen=True)
class _CausalPass:
    """The tape view, the decoded tokens and the lookup batch of a history.

    ``npos`` and ``pos`` are the view's positions as the batch reads them.
    Each is a whole number (npos[i] is the ratio of two averages over the
    same i tokens), so each is held as an int.
    """

    view: TapeView
    toks: list[TMToken]
    npos: list[int]
    pos: list[int]
    batch: AttentionBatch


def _causal_pass(z: TokenSeq) -> _CausalPass:
    """One query per position i, encoding the head npos[i] after token i's
    move. Against it key j scores -2 (npos[i] - pos[j])^2 - 1/j for
    j >= 2, and the begin marker's key scores a flat -1. Value j encodes
    token j's written symbol. Only the 1/j key entry is a ``Fraction``.
    """
    toks = _history_parts(z)
    view = _tape_view(toks)
    npos = [int(h) for h in view.npos]
    pos = [int(p) for p in view.pos]
    q = tuple((-h * h, h, -1, -1) for h in npos)
    k = ((0, 0, 0, view.idx_inv[0]),) + tuple(
        (2, 4 * p, 2 * p * p, inv) for p, inv in zip(pos[1:], view.idx_inv[1:])
    )
    v = tuple((_symb_value(t.symb),) for t in toks)
    return _CausalPass(view, toks, npos, pos, AttentionBatch(q, k, v))


def _lookup_at(cp: _CausalPass, i: int) -> tuple[object, Fraction, list[int]]:
    """Symbol under the head after token i, the best score and the argmax set.

    Each key j <= i is scored once against query i, and each score must
    equal its closed form. Exact matches beat the marker, the 1/j term
    picks the most recent match, and with no match the marker wins and
    its blank symbol is returned, so the argmax set must be a singleton.
    Both checks are post-verification and raise ``RuntimeError``.
    """
    batch, npos, pos = cp.batch, cp.npos[i - 1], cp.pos
    q = batch.q[i - 1]
    scores = []
    for j, key in enumerate(batch.k[:i], start=1):
        score = _dot(q, key)
        if score != _lookup_score(npos, pos[j - 1], j):
            raise RuntimeError(f"lookup score {score} of key {j} at position {i} "
                               "failed post-verification against its closed form")
        scores.append(score)
    members, best = _argmax(scores)
    if len(members) != 1:
        raise RuntimeError(f"lookup argmax {members} at position {i} "
                           "failed post-verification: not a singleton")
    return _value_symb(batch.v[members[0] - 1][0]), best, members


def _lookup_score(npos: int, pos_j: int, j: int) -> Fraction | int:
    """Closed form of key j's lookup score against the query for head position npos."""
    if j == 1:
        return -1
    return -2 * (npos - pos_j) ** 2 - Fraction(1, j)


_BLANK_VALUE = Fraction(1, 2)


def _symb_value(symb) -> Fraction | int:
    # Injective numeric encoding; safe because lookup argmax is a singleton.
    return _BLANK_VALUE if symb == BLANK else symb


def _value_symb(value: Fraction | int):
    if value == _BLANK_VALUE:
        return BLANK
    if value in (0, 1):
        return int(value)
    raise RuntimeError(f"attention output {value} failed post-verification: not a symbol")


def read_tape_attention_all(z: TokenSeq) -> list[tuple[int, object]]:
    """(state, symbol under the head) after every token, by one causal
    attention pass: entry i - 1 is the read of the length-i prefix."""
    cp = _causal_pass(z)
    return [(t.state, _lookup_at(cp, i)[0]) for i, t in enumerate(cp.toks, start=1)]


def read_tape_attention(z: TokenSeq) -> tuple[int, object]:
    """(current state, symbol under the head) computed purely by attention:
    the last position of the causal pass, which scores n keys."""
    cp = _causal_pass(z)
    return cp.toks[-1].state, _lookup_at(cp, len(cp.toks))[0]


def read_tape_attention_fast(z: TokenSeq) -> tuple[int, object]:
    """Integer replica of read_tape_attention: ``keys[n - 1]`` of the shared
    tape decoder for an n-token history that passes the begin-marker check.

    Why the two agree: the argmax is always the head cell's latest writer,
    or the begin marker (j = 1) when that cell was never written after it.
    A key at another cell is at distance d >= 1 and scores
    -2 d^2 - 1/j <= -2 - 1/j, below the marker's -1. Keys at the head
    cell differ only in -1/j, so the latest writer scores highest, and
    -1/j > -1 for every j >= 2, so it beats the marker. Distinct j give
    distinct scores, so the winner is unique and no scan is needed. The
    marker writes blank, which is what the direct read returns for a
    cell with no later writer. ``read_tape_attention`` still checks the
    singleton at every position it reads.
    """
    scan = _decoded(_alphabet_states(z.alphabet), z.tokens)
    scan.check_begin_marker(z.tokens)
    return _read_at(scan.keys[len(z.tokens) - 1])


class AttentionTMGenerator(TMGenerator):
    """Transition-table generator whose ``next_token`` reads the tape by the
    exact causal attention pass, with the direct generator's results.
    ``generate`` is the direct decoder behind a begin-marker check, so it
    never runs that pass (ROADMAP item 10).
    """

    def next_token(self, z: TokenSeq) -> int:
        _check_alphabet(self, z)
        return self._entry_ids[_table_key(*read_tape_attention(z))]

    def generate(self, tokens: list[int], T: int) -> None:
        """The begin-marker check on the prompt, then the direct generator's
        scan; by the lemma in ``read_tape_attention_fast`` its reads are the
        attention reads. Generated tokens write bits, never the blank, so
        they pass the check without a visit."""
        scan = _TapeScan(self.S)
        scan.check_begin_marker(tokens)
        scan.run(tokens, T, self._entry_ids)


def tape_view_table(z: TokenSeq) -> str:
    """Debug TSV: per position, the view values plus that position's lookup
    best score and argmax set (the causal pass's read of the length-i prefix)."""
    cp = _causal_pass(z)
    view = cp.view
    rows = ["i\tmove\tpos\tnpos\tidx_inv\tbest_score\targmax_set"]
    for i, t in enumerate(cp.toks, start=1):
        _, best, members = _lookup_at(cp, i)
        rows.append(
            f"{i}\t{t.move}\t{view.pos[i-1]}\t{view.npos[i-1]}\t{view.idx_inv[i-1]}"
            f"\t{best}\t{{{','.join(map(str, members))}}}"
        )
    return "\n".join(rows) + "\n"
