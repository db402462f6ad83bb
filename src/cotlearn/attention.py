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
from typing import Callable, Sequence

from .seqcore import TokenSeq
from .turing import (
    BLANK,
    TMGenerator,
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


def aha_argmax(batch: AttentionBatch, i: int) -> tuple[list[int], Fraction]:
    """Argmax index set (1-based) and best score among keys j <= i."""
    q = batch.q[i - 1]
    best = None
    members: list[int] = []
    for j, key in enumerate(batch.k[:i], start=1):
        score = _dot(q, key)
        if best is None or score > best:
            best = score
            members = [j]
        elif score == best:
            members.append(j)
    return members, best


def aha(batch: AttentionBatch) -> list[Vec]:
    """Average-hard-attention outputs at every position.

    output[i] is the exact average of the values at the argmax score
    positions; ties are exact set membership, never epsilon-based.
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

    def __len__(self) -> int:
        return len(self.pos)


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


def positions_via_attention(z: TokenSeq) -> TapeView:
    """Recover positions from moves using uniform attention.

    Averaging the is-first indicator gives idx_inv[i] = 1/i, averaging
    the moves gives npos[i]/i, and their ratio recovers the position
    sums. pos[i] then follows by locally subtracting token i's own move.
    """
    toks = _history_parts(z)
    is_first = [Fraction(1 if t.symb == BLANK else 0) for t in toks]
    moves = [Fraction(t.move) for t in toks]
    idx_inv = uniform_attention(is_first)
    scaled_npos = uniform_attention(moves)
    npos = tuple(s / inv for s, inv in zip(scaled_npos, idx_inv))
    pos = tuple(np - t.move for np, t in zip(npos, toks))
    return TapeView(pos, npos, idx_inv)


def lookup_via_attention(view: TapeView, z: TokenSeq):
    """Symbol most recently written at the current head position, via attention.

    The query encodes the head position npos[N]; key j scores
    -2 (npos[N] - pos[j])^2 - 1/j for j >= 2 and the begin marker scores
    a flat -1. Exact matches therefore beat the marker, the 1/j term
    picks the most recent match, and with no match the marker wins and
    its blank symbol is returned. The argmax set is always a singleton.
    """
    toks = _history_parts(z)
    n = len(toks)
    if len(view) != n:
        raise ValueError("tape view does not match the history length")
    npos_n = view.npos[n - 1]
    q_n = (-npos_n * npos_n, npos_n, Fraction(-1), Fraction(-1))
    keys: list[Vec] = []
    for j in range(1, n + 1):
        if j == 1:
            keys.append((Fraction(0), Fraction(0), Fraction(0), view.idx_inv[0]))
        else:
            pj = view.pos[j - 1]
            keys.append((Fraction(2), 4 * pj, 2 * pj * pj, view.idx_inv[j - 1]))
    values = [(_symb_value(t.symb),) for t in toks]
    batch = AttentionBatch(tuple([q_n] * n), tuple(keys), tuple(values))

    for j in range(1, n + 1):
        assert _dot(q_n, keys[j - 1]) == _lookup_score(npos_n, view.pos[j - 1], j), (
            "lookup score closed form violated"
        )

    members, _ = aha_argmax(batch, n)
    assert len(members) == 1, "tape lookup argmax must be a singleton"
    share = Fraction(1, len(members))
    out = sum((values[j - 1][0] for j in members), Fraction(0)) * share
    return _value_symb(out)


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


def read_tape_attention(z: TokenSeq) -> tuple[int, object]:
    """(current state, symbol under the head) computed purely by attention."""
    view = positions_via_attention(z)
    return _history_parts(z)[-1].state, lookup_via_attention(view, z)


def _lookup_argmax(head: int, writers: dict[int, int]) -> int:
    """Winning key j of the tape lookup for the head at cell ``head``.

    ``writers`` maps each written cell to its latest writer j >= 2. Keys
    that wrote one cell differ only in -1/j, so the latest is that cell's
    best and one key per cell decides the argmax against the begin
    marker's flat -1 (j = 1). Scores -2 d^2 - 1/j are compared as
    cross-multiplied integers; the argmax must be a singleton.
    """
    best_num, best_j, ties = -1, 1, 1
    for cell, j in writers.items():
        d = head - cell
        num = -2 * d * d * j - 1
        lhs, rhs = num * best_j, best_num * j
        if lhs > rhs:
            best_num, best_j, ties = num, j, 1
        elif lhs == rhs:
            ties += 1
    assert ties == 1, "tape lookup argmax must be a singleton"
    return best_j


def read_tape_attention_fast(z: TokenSeq) -> tuple[int, object]:
    """Integer-arithmetic replica of read_tape_attention through
    ``_lookup_argmax``, on the decoder ``read_tape`` shares (so a sweep
    over growing prefixes decodes each token once); differentially tested
    against the generic path."""
    scan, toks, _ = _decoded(_alphabet_states(z.alphabet), z.tokens)
    return _attention_read(scan, toks)


def _attention_read(scan: _TapeScan, toks: Sequence[int]) -> tuple[int, object]:
    """(state, symbol under the head) of a decoded history, by the lookup argmax."""
    scan.check_begin_marker(toks)
    j = _lookup_argmax(scan.head, scan.last)
    decode = scan.decode
    return decode[toks[-1]].state, decode[toks[j - 1]].symb


class AttentionTMGenerator(TMGenerator):
    """Transition-table generator whose tape read runs through attention.

    Behaviorally identical to the direct generator; exists so machine
    simulation can be driven end to end over the attention pipeline.
    """

    def next_token(self, z: TokenSeq) -> int:
        state, read = read_tape_attention(z)
        return self._step_token(state, read)

    def stepper(self, tokens: list[int]) -> Callable[[], int]:
        """A ``_TapeScan`` over the growing list: the head and each written
        cell's latest writer, so a step scores one key per cell visited
        through ``_lookup_argmax`` rather than one per token."""
        scan = _TapeScan(self.S)

        def step() -> int:
            scan.extend(tokens)
            return self._step_token(*_attention_read(scan, tokens))

        return step


def tape_view_table(z: TokenSeq) -> str:
    """Debug TSV: per position, the view values plus that position's lookup
    best score and argmax set (the lookup run on the length-i prefix)."""
    view = positions_via_attention(z)
    toks = _history_parts(z)
    n = len(toks)
    rows = ["i\tmove\tpos\tnpos\tidx_inv\tbest_score\targmax_set"]
    for i in range(1, n + 1):
        scores = [_lookup_score(view.npos[i - 1], view.pos[j - 1], j) for j in range(1, i + 1)]
        best = max(scores)
        members = [j + 1 for j, sc in enumerate(scores) if sc == best]
        t = toks[i - 1]
        rows.append(
            f"{i}\t{t.move}\t{view.pos[i-1]}\t{view.npos[i-1]}\t{view.idx_inv[i-1]}"
            f"\t{best}\t{{{','.join(map(str, members))}}}"
        )
    return "\n".join(rows) + "\n"
