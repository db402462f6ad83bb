"""Generic causal average hard attention, the definition the library's
attention code is tested against.

At position i the queries score the keys j <= i, and the output is the
exact mean of the values whose scores attain the maximum. The scores and
their ranking are the library's own (``attention._dot`` and
``attention._argmax``, which the causal pass reads too); the averaging is
the plain definition. ``uniform_attention`` computes the all-ties case
directly, and the causal pass reads one singleton winner per position.
"""

from __future__ import annotations

from fractions import Fraction

from cotlearn.attention import AttentionBatch, Vec, _argmax, _dot


def make_batch(q, k, v) -> AttentionBatch:
    """A batch from nested number lists, each entry made a ``Fraction``."""
    to_vec = lambda row: tuple(Fraction(x) for x in row)
    return AttentionBatch(
        tuple(to_vec(row) for row in q),
        tuple(to_vec(row) for row in k),
        tuple(to_vec(row) for row in v),
    )


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
