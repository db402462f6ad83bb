"""Linear-threshold generators over bits and their LP-feasibility learners.

A threshold generator reads only the last ``d`` bits of its input (fewer
when the input is shorter), so every consistency constraint is linear in
the weights and the bias. Strict "< 0" constraints are solved as
"<= -1": on a finite binary domain any strictly separating solution can
be rescaled to margin one, so feasibility is unchanged and the program
becomes closed and exactly solvable.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .seqcore import (
    BINARY,
    Generator,
    GeneratorFamily,
    GuardExceededError,
    NotRealizableError,
    TokenSeq,
    _check_alphabet,
    parse_int,
)
from .simplex import solve_feasibility

SPARSE_SUPPORT_GUARD = 100_000
ENUMERATION_MAX_D = 4
THRESHOLD_MAX_D = 1 << 12


@dataclass(frozen=True)
class IntegerThreshold:
    """A threshold scaled to integers by the positive ``scale``.

    ``terms`` holds (offset, weight) for the nonzero weights, offset 1
    being the most recent bit. Scaling multiplies the compared sum by a
    positive factor, so the sign, and with it the output, is unchanged.
    """

    terms: tuple[tuple[int, int], ...]
    bias: int
    scale: int

    @classmethod
    def of(cls, terms: Iterable[tuple[int, Fraction]], bias: Fraction) -> "IntegerThreshold":
        nz = [(i, w) for i, w in terms if w != 0]
        scale = math.lcm(bias.denominator, *(w.denominator for _, w in nz))
        return cls(tuple((i, int(w * scale)) for i, w in nz), int(bias * scale), scale)

    def total(self, tokens: Sequence[int]) -> int:
        """Scaled pre-threshold sum on a bit sequence; bits before its start count as 0."""
        n = len(tokens)
        acc = self.bias
        for i, w in self.terms:
            if i <= n and tokens[n - i]:
                acc += w
        return acc

    @cached_property
    def weight_at(self) -> tuple[int, ...]:
        """The scaled weight at each offset 0..window; offset 0 and gaps hold 0."""
        row = [0] * (max((i for i, _ in self.terms), default=0) + 1)
        for i, w in self.terms:
            row[i] = w
        return tuple(row)

    def generate(self, tokens: list[int], T: int) -> None:
        """Append ``T`` threshold bits to ``tokens``, each 1 iff ``total >= 0``
        on the list before it (see ``Generator.generate``).

        The bit depends only on the last ``window`` bits, which the loop
        holds as the int ``state`` (bits before the start count as 0). Every
        appended token is the chain's own output, so equal states give
        equal futures: the chain walks on at most 2^window states and is
        periodic from the first state that repeats. Brent's cycle check
        finds that repeat in O(1) memory, one checkpoint state saved at
        steps 0, 2, 6, 14, ... and compared once per step, within about
        three times the preperiod plus the period. Until then a step sums
        the weights at the window's 1-bits, whose list positions it keeps,
        so it visits the set bits, not every nonzero weight; from then on
        the remaining bits are the last ``period`` bits repeated, appended
        as one slice.
        """
        weight_at, bias = self.weight_at, self.bias
        window = len(weight_at) - 1
        mask = (1 << window) - 1
        n = len(tokens)
        start = max(0, n - window)
        ones = deque(p for p in range(start, n) if tokens[p])
        state = 0
        for p in range(start, n):
            state = state << 1 | tokens[p]
        checkpoint, power, lam = -1, 1, 1
        append = tokens.append
        for left in range(T, 0, -1):
            if state == checkpoint:
                period = tokens[-lam:]
                q, r = divmod(left, lam)
                tokens.extend(period * q + period[:r])
                return
            if lam == power:
                checkpoint, power, lam = state, 2 * power, 0
            while ones and n - ones[0] > window:
                ones.popleft()
            bit = 1 if bias + sum(weight_at[n - p] for p in ones) >= 0 else 0
            if bit:
                ones.append(n)
            append(bit)
            n += 1
            state = (state << 1 | bit) & mask
            lam += 1


@dataclass(frozen=True)
class LinearThreshold(Generator):
    """Threshold on the last ``d`` input bits: 1 iff sum(w[-i] * x[-i]) + b >= 0.

    ``weights[-1]`` applies to the most recent bit. Arithmetic is exact;
    evaluation runs on the integer form, built once per instance.
    """

    weights: tuple[Fraction, ...]
    bias: Fraction

    alphabet = BINARY

    @property
    def d(self) -> int:
        return len(self.weights)

    @cached_property
    def integer_form(self) -> IntegerThreshold:
        d = len(self.weights)
        return IntegerThreshold.of(((d - j, w) for j, w in enumerate(self.weights)), self.bias)

    def next_token(self, x: TokenSeq) -> int:
        _check_alphabet(self, x)
        return 1 if self.integer_form.total(x.tokens) >= 0 else 0

    def generate(self, tokens: list[int], T: int) -> None:
        """The integer form's chain. The window takes at most 2^window
        states, so the chain is eventually periodic; an O(1)-memory cycle
        check finds the first repeated state, and from there the rest of
        the chain is the period repeated, not a window sum per bit."""
        self.integer_form.generate(tokens, T)


def make_threshold(weights: Iterable, bias) -> LinearThreshold:
    return LinearThreshold(tuple(Fraction(w) for w in weights), Fraction(bias))


@dataclass(frozen=True)
class SparseLinearThreshold(Generator):
    """Threshold whose weight vector has support on at most k window offsets.

    ``support`` holds ascending offsets from the end of the window
    (offset 1 is the most recent bit); ``weights`` aligns with it.
    """

    d: int
    k: int
    support: tuple[int, ...]
    weights: tuple[Fraction, ...]
    bias: Fraction

    alphabet = BINARY

    def __post_init__(self):
        if len(self.support) > self.k or len(self.support) != len(self.weights):
            raise ValueError("support exceeds sparsity budget or misaligns with weights")
        if any(not 1 <= i <= self.d for i in self.support):
            raise ValueError("support offsets must lie within the window")

    def to_dense(self) -> LinearThreshold:
        w = [Fraction(0)] * self.d
        for i, wv in zip(self.support, self.weights):
            w[self.d - i] = wv
        return LinearThreshold(tuple(w), self.bias)

    @cached_property
    def integer_form(self) -> IntegerThreshold:
        return IntegerThreshold.of(zip(self.support, self.weights), self.bias)

    # same evaluation, on the sparse integer form
    next_token = LinearThreshold.next_token
    generate = LinearThreshold.generate


def _window_coeffs(u: TokenSeq, offsets: Sequence[int]) -> list[int]:
    """Bit of ``u`` at each offset from the end, zero when the input is shorter."""
    tokens = u.tokens
    n = len(tokens)
    return [tokens[n - i] if i <= n else 0 for i in offsets]


def _label_rows(u: TokenSeq, offsets: Sequence[int]):
    """The constraints on (weights at ``offsets``, bias) for labels 0 and 1 of a binary prefix."""
    if u.alphabet != BINARY:
        raise ValueError("LP consistency needs binary prefixes and labels")
    coeffs = _window_coeffs(u, offsets) + [1]  # trailing 1 is the bias column
    return (coeffs, "<=", -1), (coeffs, ">=", 0)


def _threshold_constraints(pairs: Iterable[tuple[TokenSeq, int]], offsets: Sequence[int]):
    constraints = []
    for u, v in pairs:
        if v not in (0, 1):
            raise ValueError("LP consistency needs binary prefixes and labels")
        constraints.append(_label_rows(u, offsets)[1 if v == 1 else 0])
    return constraints


def _verified(f, pairs):
    """Return ``f`` after re-checking it on every pair; a miss is a solver fault, not bad input."""
    for u, v in pairs:
        if f.next_token(u) != v:
            raise RuntimeError("LP solution failed post-verification")
    return f


def cons_lp(pairs: Sequence[tuple[TokenSeq, int]], d: int) -> LinearThreshold:
    """Linear threshold consistent with every (prefix, next-bit) pair.

    Raises NotRealizableError when the constraint system is infeasible.
    The returned hypothesis is re-checked against all pairs before it is
    handed back.
    """
    if d < 0:
        raise ValueError("window length must be nonnegative")
    offsets = list(range(1, d + 1))
    solution = solve_feasibility(_threshold_constraints(pairs, offsets), d + 1)
    if solution is None:
        raise NotRealizableError(f"no window-{d} linear threshold is consistent with the data")
    weights = tuple(reversed(solution[:d]))  # solution[j] is the weight at offset j+1
    return _verified(LinearThreshold(weights, solution[d]), pairs)


def cons_sparse(pairs: Sequence[tuple[TokenSeq, int]], d: int, k: int) -> SparseLinearThreshold:
    """First sparse threshold (supports in size-then-lexicographic order) fitting the data."""
    if not 0 <= k <= d:
        raise ValueError("need 0 <= k <= d")
    total = sum(math.comb(d, j) for j in range(k + 1))
    if total > SPARSE_SUPPORT_GUARD:
        raise GuardExceededError(f"{total} candidate supports exceed the enumeration guard")
    full = _threshold_constraints(pairs, range(1, d + 1))  # coefficient i - 1 is offset i's bit
    for size in range(k + 1):
        for support in itertools.combinations(range(1, d + 1), size):
            constraints = [([coeffs[i - 1] for i in support] + [1], sense, rhs) for coeffs, sense, rhs in full]
            solution = solve_feasibility(constraints, size + 1)
            if solution is None:
                continue
            return _verified(SparseLinearThreshold(d, k, support, solution[:size], solution[size]), pairs)
    raise NotRealizableError(f"no {k}-sparse window-{d} threshold is consistent with the data")


def enumerate_threshold_functions(d: int) -> set[tuple[int, ...]]:
    """All dichotomies of {0,1}^d realizable by a window-d threshold.

    Each function is returned as its truth table over the 2^d points in
    lexicographic order, the oldest bit first. The window-0 functions are
    the two constants; each longer window is built from the one before by
    ``_threshold_level``.
    """
    if d < 0:
        raise ValueError("window length must be nonnegative")
    if d > ENUMERATION_MAX_D:
        raise GuardExceededError(f"d={d} exceeds the exhaustive-enumeration guard {ENUMERATION_MAX_D}")
    realizable = {(0,), (1,)}
    for k in range(1, d + 1):
        realizable = _threshold_level(realizable, k)
    return realizable


def _threshold_level(shorter: set[tuple[int, ...]], k: int) -> set[tuple[int, ...]]:
    """The window-k threshold functions, from the window-(k-1) ones.

    A window-k truth table is g + h, its restrictions with the oldest bit
    at 0 and at 1. Both are window-(k-1) threshold functions, and they are
    pointwise comparable, since the oldest weight has one sign. When g == h
    the oldest weight can be 0, so no LP is needed. When g < h, one LP on
    g + h decides h + g as well: negating the oldest bit (w1 -> -w1,
    b -> b + w1) swaps the two halves.
    """
    offsets = range(1, k + 1)
    rows = [_label_rows(BINARY.seq(p), offsets) for p in itertools.product((0, 1), repeat=k)]
    realizable = {g + g for g in shorter}
    ordered = sorted(shorter)  # pointwise g <= h, g != h implies g < h in this order
    for i, g in enumerate(ordered):
        for h in ordered[i + 1:]:
            if all(a <= b for a, b in zip(g, h)):
                constraints = [row[v] for row, v in zip(rows, g + h)]
                if solve_feasibility(constraints, k + 1) is not None:
                    realizable.add(g + h)
                    realizable.add(h + g)
    return realizable


@dataclass(frozen=True)
class ThresholdFamily(GeneratorFamily):
    """Window-d thresholds as an oracle-backed (non-enumerable) family."""

    d: int

    alphabet = BINARY

    def __post_init__(self):
        if not 0 <= self.d <= THRESHOLD_MAX_D:
            raise ValueError(f"need 0 <= d <= {THRESHOLD_MAX_D}")

    def size(self) -> None:
        return None

    def members(self):
        raise GuardExceededError("threshold weights form a continuum; the family is not enumerable")

    def default_member(self) -> LinearThreshold:
        return LinearThreshold(tuple(Fraction(0) for _ in range(self.d)), Fraction(0))

    def random_member(self, rng) -> LinearThreshold:
        weights = tuple(Fraction(rng.randint(-3, 3)) for _ in range(self.d))
        return LinearThreshold(weights, Fraction(rng.randint(-6, 6), 2))

    def cons_oracle(self):
        return lambda pairs: cons_lp(pairs, self.d)


@dataclass(frozen=True)
class SparseThresholdFamily(ThresholdFamily):
    """Window-d thresholds with at most k nonzero weights, oracle-backed."""

    k: int

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.k <= self.d:
            raise ValueError("need 0 <= k <= d")

    def default_member(self) -> SparseLinearThreshold:
        return SparseLinearThreshold(self.d, self.k, (), (), Fraction(0))

    def random_member(self, rng) -> SparseLinearThreshold:
        size = rng.randint(0, self.k)
        support = tuple(sorted(rng.sample(range(1, self.d + 1), size)))
        weights = tuple(Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in support)
        return SparseLinearThreshold(self.d, self.k, support, weights, Fraction(rng.randint(-6, 6), 2))

    def cons_oracle(self):
        return lambda pairs: cons_sparse(pairs, self.d, self.k)


def format_threshold(f: LinearThreshold) -> str:
    """Serialize as "d b w_1 ... w_d" with exact fraction strings."""
    return " ".join([str(f.d), str(f.bias)] + [str(w) for w in f.weights])


def parse_threshold(text: str) -> LinearThreshold:
    parts = text.split()
    if len(parts) < 2:
        raise ValueError("threshold line needs at least 'd b'")
    d = parse_int(parts[0], "threshold dimension d")
    if len(parts) != d + 2:
        raise ValueError(f"expected {d} weights, got {len(parts) - 2}")
    bias = parse_fraction(parts[1])
    weights = tuple(parse_fraction(p) for p in parts[2:])
    return LinearThreshold(weights, bias)


MAX_DECIMAL_EXPONENT = 1000
_DECIMAL_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def parse_fraction(text: str) -> Fraction:
    """Exact rational from "num", "num/den" or decimal text.

    A zero denominator is a ValueError, and so is a decimal exponent above
    MAX_DECIMAL_EXPONENT in magnitude: ``Fraction`` expands the power of
    ten in full, so its cost grows without bound in the exponent.
    """
    exponent = _DECIMAL_EXPONENT.search(text)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or "0") > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent in {text[:40]!r} exceeds {MAX_DECIMAL_EXPONENT} in magnitude")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
