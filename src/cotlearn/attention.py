"""Causal average hard attention and the attention-backed tape reader.

Average hard attention at position i returns the mean of the values
whose key scores ⟨q[i], k[j]⟩, j <= i, attain the maximum. All scores
and outputs are exact rationals: the tape lookup distinguishes scores
like -1/6 and -1/7, which floating point must not be trusted to order.

Two uses are composed here: head positions come from uniform attention
(all scores tie, so the output is a prefix average), and the symbol
under the head comes from a query/key match on positions, with a step
index term breaking ties toward the most recent write.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .seqcore import TokenSeq
from .turing import (
    BLANK,
    TMGenerator,
    TMToken,
    _alphabet_states,
    _decode_table,
    _decoded,
    _TapeScan,
)

Vec = tuple[Fraction, ...]


@dataclass(frozen=True)
class AttentionBatch:
    """Aligned query/key/value vectors for one sequence of length N."""

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


def _dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


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
    """Argmax index set (1-based) and best score among keys j <= i."""
    q = batch.q[i - 1]
    return _argmax(_dot(q, key) for key in batch.k[:i])


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


def uniform_attention(values: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """aha output for scalar values under all-zero queries and keys.

    Every prefix score ties, so position i averages all of v[1..i]; this
    computes those prefix averages directly and is tested against the
    generic aha evaluation.
    """
    out = []
    acc = Fraction(0)
    for i, v in enumerate(values, start=1):
        acc += v
        out.append(acc / i)
    return tuple(out)


def _tape_view(toks: Sequence[TMToken]) -> TapeView:
    """Positions from moves by uniform attention.

    Averaging the is-first indicator gives idx_inv[i] = 1/i, averaging
    the moves gives npos[i]/i, and their ratio recovers the position
    sums. pos[i] then follows by locally subtracting token i's own move.
    """
    is_first = [Fraction(1 if t.symb == BLANK else 0) for t in toks]
    moves = [Fraction(t.move) for t in toks]
    idx_inv = uniform_attention(is_first)
    scaled_npos = uniform_attention(moves)
    npos = tuple(s / inv for s, inv in zip(scaled_npos, idx_inv))
    pos = tuple(np - t.move for np, t in zip(npos, toks))
    return TapeView(pos, npos, idx_inv)


def positions_via_attention(z: TokenSeq) -> TapeView:
    """Recover positions from moves using uniform attention."""
    return _tape_view(_history_parts(z))


def _causal_pass(z: TokenSeq) -> tuple[TapeView, list[TMToken], AttentionBatch]:
    """The tape view, the decoded tokens and the lookup batch of a history.

    The batch holds one query per position i, encoding the head npos[i]
    after token i's move. Against it key j scores
    -2 (npos[i] - pos[j])^2 - 1/j for j >= 2, and the begin marker's key
    scores a flat -1. Value j encodes token j's written symbol.
    """
    toks = _history_parts(z)
    view = _tape_view(toks)
    zero, minus_one = Fraction(0), Fraction(-1)
    q = tuple((-h * h, h, minus_one, minus_one) for h in view.npos)
    k = ((zero, zero, zero, view.idx_inv[0]),) + tuple(
        (Fraction(2), 4 * p, 2 * p * p, inv) for p, inv in zip(view.pos[1:], view.idx_inv[1:])
    )
    v = tuple((_symb_value(t.symb),) for t in toks)
    return view, toks, AttentionBatch(q, k, v)


def _lookup_at(view: TapeView, batch: AttentionBatch, i: int) -> tuple[object, Fraction, list[int]]:
    """Symbol under the head after token i, the best score and the argmax set.

    Each key j <= i is scored once against query i, and each score must
    equal its closed form. Exact matches beat the marker, the 1/j term
    picks the most recent match, and with no match the marker wins and
    its blank symbol is returned, so the argmax set must be a singleton.
    """
    q, npos = batch.q[i - 1], view.npos[i - 1]
    scores = []
    for j, key in enumerate(batch.k[:i], start=1):
        score = _dot(q, key)
        assert score == _lookup_score(npos, view.pos[j - 1], j), "lookup score closed form violated"
        scores.append(score)
    members, best = _argmax(scores)
    assert len(members) == 1, "tape lookup argmax must be a singleton"
    return _value_symb(batch.v[members[0] - 1][0]), best, members


def _lookup_score(npos: Fraction, pos_j: Fraction, j: int) -> Fraction:
    """Closed form of key j's lookup score against the query for head position npos."""
    if j == 1:
        return Fraction(-1)
    return -2 * (npos - pos_j) ** 2 - Fraction(1, j)


_BLANK_VALUE = Fraction(1, 2)


def _symb_value(symb) -> Fraction:
    # Injective numeric encoding; safe because lookup argmax is a singleton.
    return _BLANK_VALUE if symb == BLANK else Fraction(symb)


def _value_symb(value: Fraction):
    if value == _BLANK_VALUE:
        return BLANK
    if value in (0, 1):
        return int(value)
    raise AssertionError(f"non-symbol attention output {value}")


def read_tape_attention_all(z: TokenSeq) -> list[tuple[int, object]]:
    """(state, symbol under the head) after every token, by one causal
    attention pass: entry i - 1 is the read of the length-i prefix."""
    view, toks, batch = _causal_pass(z)
    return [(t.state, _lookup_at(view, batch, i)[0]) for i, t in enumerate(toks, start=1)]


def read_tape_attention(z: TokenSeq) -> tuple[int, object]:
    """(current state, symbol under the head) computed purely by attention:
    the last position of the causal pass, which scores n keys."""
    view, toks, batch = _causal_pass(z)
    return toks[-1].state, _lookup_at(view, batch, len(toks))[0]


def read_tape_attention_fast(z: TokenSeq) -> tuple[int, object]:
    """Integer replica of read_tape_attention: the direct read of the
    shared tape decoder, once the history passes the begin-marker check.

    Why the two agree: the argmax is always the head cell's latest writer,
    or the begin marker (j = 1) when that cell was never written after it.
    A key at another cell is at distance d >= 1 and scores
    -2 d^2 - 1/j <= -2 - 1/j, below the marker's -1. Keys at the head
    cell differ only in -1/j, so the latest writer scores highest, and
    -1/j > -1 for every j >= 2, so it beats the marker. Distinct j give
    distinct scores, so the winner is unique and no scan is needed. The
    marker writes blank, which is what the direct read returns for a
    cell with no later writer. ``read_tape_attention`` still asserts the
    singleton at every position it reads.
    """
    scan, toks, read = _decoded(_alphabet_states(z.alphabet), z.tokens)
    scan.check_begin_marker(toks)
    return read


class AttentionTMGenerator(TMGenerator):
    """Transition-table generator whose tape read runs through attention.

    Behaviorally identical to the direct generator; exists so machine
    simulation can be driven end to end over the attention pipeline.
    """

    def next_token(self, z: TokenSeq) -> int:
        state, read = read_tape_attention(z)
        return self._step_token(state, read)

    def stepper(self, tokens: list[int]) -> Callable[[], int]:
        """The direct stepper behind the begin-marker check, which runs first
        and visits each token once; by the lemma in
        ``read_tape_attention_fast`` its read is the attention read."""
        check, step = _TapeScan(self.S).check_begin_marker, super().stepper(tokens)

        def checked_step() -> int:
            check(tokens)
            return step()

        return checked_step


def tape_view_table(z: TokenSeq) -> str:
    """Debug TSV: per position, the view values plus that position's lookup
    best score and argmax set (the causal pass's read of the length-i prefix)."""
    view, toks, batch = _causal_pass(z)
    rows = ["i\tmove\tpos\tnpos\tidx_inv\tbest_score\targmax_set"]
    for i, t in enumerate(toks, start=1):
        _, best, members = _lookup_at(view, batch, i)
        rows.append(
            f"{i}\t{t.move}\t{view.pos[i-1]}\t{view.npos[i-1]}\t{view.idx_inv[i-1]}"
            f"\t{best}\t{{{','.join(map(str, members))}}}"
        )
    return "\n".join(rows) + "\n"
