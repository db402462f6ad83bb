"""Explicit lookup families with known base and end-to-end dimensions,
plus brute-force shattering and growth-function estimators.

Each family indexes members by a bit vector b and evaluates by reading
the input against a canonical point set: strings "1 followed by the bit
representation of the point number" (numbering from zero so the fixed
bit width is never overflowed), optionally extended by a continuation
that must replay earlier b-bits. Everything off-pattern maps to 0.

A member answers at any horizon by one read, ``LookupFamily._answer``, so
its ``e2e`` answer costs one read and no chain: ``_read`` reads a history
up to an end index, so a record's cuts are read in place. One search
learns every family from records (T = 1 pairs, as cuts) or answers,
``LookupFamily.find_e2e_consistent``, over forced bits and the bits that
label-0 pairs after a continuation read; it generates no chain and
enumerates no member. The estimators label points by mode:
"base", "e2e", or "cot" (a record's full-generation loss).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .linthresh import SparseThresholdFamily, ThresholdFamily
from .seqcore import (
    BINARY,
    MEMBER_GUARD,
    Generator,
    GeneratorFamily,
    GuardExceededError,
    NotRealizableError,
    TokenSeq,
    _check_alphabet,
    check_record,
    cot,
    cuts,
    e2e,
    parse_int,
)
from .turing import TMFamily

E1_MAX_POINTS = 1 << 16
LDIM_MAX_D = 8
COLLAPSE_MAX_D = 10
POOL_GUARD = 20


def _numbered_points(count: int, trailing_one: bool = False) -> tuple[tuple[int, ...], ...]:
    """Point k (1-based) is 1 + (k-1 in fixed-width binary), optionally + 1."""
    width = max(0, (count - 1).bit_length()) if count > 1 else 0
    pts = []
    for k in range(count):
        bits = tuple((k >> (width - 1 - j)) & 1 for j in range(width))
        pts.append((1,) + bits + ((1,) if trailing_one else ()))
    return tuple(pts)


@dataclass(frozen=True)
class LookupGenerator(Generator):
    """Member f_b of a lookup family: b is a tuple of ``family.index_bits`` bits."""

    family: "LookupFamily"
    b: tuple[int, ...]

    alphabet = BINARY

    def __post_init__(self):
        b, n = self.b, self.family.index_bits
        if type(b) is not tuple or len(b) != n or not BINARY._ids.issuperset(b):
            raise ValueError(f"{type(self.family).__name__} member needs a tuple of {n} bits")

    def next_token(self, x: TokenSeq) -> int:
        _check_alphabet(self, x)
        return self.family._answer(self.b, x.tokens, len(x.tokens), 1)

    def answer(self, tokens: Sequence[int], T: int) -> int:
        """One read, ``_answer`` at horizon T: no chain is generated. Every
        token a chain would emit is a bit of b, so none could leave the alphabet."""
        return self.family._answer(self.b, tokens, len(tokens), T)

    def generate(self, tokens: list[int], T: int) -> None:
        """One ``_read`` of the prompt and one check of its continuation;
        off the pattern the member answers 0 for good. Every later token is
        the member's own output, so it replays faithfully: the token at
        continuation length r is ``b[_replay_index(k, r)]``, or 0 while
        emitted zeros still complete the point (r < 0) and from the
        pattern's end on.
        """
        family, b = self.family, self.b
        n = len(tokens)
        read = family._read(tokens, n)
        if read is not None and family._replays(b, tokens, *read, n):
            k, end = read
            index, append = family._replay_index, tokens.append
            for r in range(n - end, n - end + T):
                if r < 0:
                    append(0)
                    continue
                idx = index(k, r)
                if idx is None:  # and for every larger r
                    break
                append(b[idx])
            else:
                return
        tokens.extend([0] * (n + T - len(tokens)))  # off the pattern, or past its end


class LookupFamily(GeneratorFamily):
    """Shared enumeration plumbing for the bit-indexed families.

    Every family here indexes its members by one b-bit per canonical point,
    and states only its points and its replay rule, ``_replay_index``.
    """

    alphabet = BINARY

    @property
    def index_bits(self) -> int:
        return len(self._points)

    def _replay_index(self, k: int, r: int) -> int | None:
        """Index into b of the bit every member emits after r faithful continuation
        tokens of point k, or None past the pattern's end (and for every larger r)."""
        raise NotImplementedError

    @cached_property
    def _point_table(self) -> dict[tuple[int, ...], int]:
        return {p: k for k, p in enumerate(self._points, start=1)}

    def _read(self, tokens: Sequence[int], n: int) -> tuple[int, int] | None:
        """How every member reads the history ``tokens[:n]``: (k, end) or None.

        (k, end) means point k, whose last token sits at list position
        ``end - 1``, followed by the continuation ``tokens[end:n]``. The point
        starts at the first nonzero token; a body shorter than a point is
        completed by the zeros every member emits while it is, so ``end``
        may lie past the end of the history. None means every member
        answers 0 at every horizon: the body, completed, is not a point.
        """
        start = 0
        while start < n and tokens[start] == 0:
            start += 1
        end = start + self.point_len
        body = tuple(tokens[start:end]) if end <= n else tuple(tokens[start:n]) + (0,) * (end - n)
        k = self._point_table.get(body)
        return None if k is None else (k, end)

    def _replays(self, b: tuple[int, ...], tokens: Sequence[int], k: int, end: int, n: int) -> bool:
        """Whether the continuation ``tokens[end:n]`` replays b under point k's rule."""
        for r in range(n - end):
            idx = self._replay_index(k, r)
            if idx is None or b[idx] != tokens[end + r]:
                return False
        return True

    def _answer_index(self, k: int, end: int, n: int, h: int) -> int | None:
        """Index into b of a faithful member's answer h steps after point k and
        ``tokens[end:n]``; None while its zeros complete the point, or past the end."""
        r = n - end + h - 1
        return self._replay_index(k, r) if r >= 0 else None

    def _answer(self, b: tuple[int, ...], tokens: Sequence[int], n: int, h: int) -> int:
        """Member b's answer h steps after the history ``tokens[:n]``, by one
        read: 0 off the pattern or if the continuation does not replay b."""
        read = self._read(tokens, n)
        if read is None or not self._replays(b, tokens, *read, n):
            return 0
        idx = self._answer_index(*read, n, h)
        return 0 if idx is None else b[idx]

    def size(self) -> int:
        return 1 << self.index_bits

    def member(self, code: int) -> LookupGenerator:
        bits = tuple((code >> j) & 1 for j in range(self.index_bits))
        return LookupGenerator(self, bits)

    def from_bits(self, bits: Sequence[int]) -> LookupGenerator:
        return LookupGenerator(self, tuple(bits))

    def members(self) -> Iterator[LookupGenerator]:
        self.check_enumerable()
        for code in range(self.size()):
            yield self.member(code)

    def default_member(self) -> LookupGenerator:
        return self.member(0)

    def random_member(self, rng) -> LookupGenerator:
        return self.member(rng.getrandbits(self.index_bits))

    def canonical_points(self) -> tuple[TokenSeq, ...]:
        return tuple(BINARY.seq(p) for p in self._points)

    @cached_property
    def point_len(self) -> int:
        return len(self._points[0])

    def find_e2e_consistent(self, pairs, T: int):
        """First member in canonical order whose T-step answers match every pair, or None.

        The pairs are read as ``cuts``: a prompt x is ``tokens[:cut]``.
        Every member reads x as point k and a continuation c
        (``_read``), and answers ``b[_answer_index(k, end, cut, T)]`` if c
        replays faithfully, else 0 (``_answer``). A read of None or an
        answer index of None forces label 0; label 1 forces c's
        replayed bits and the answer bit; an empty c forces the answer bit.
        A loose pair (label 0 after c) reads only c's replayed bits and its
        answer bit. So the candidates keep the forced bits, zero every bit no
        loose pair reads, and count the free read bits upward, highest index
        most significant: the first is the zero fill, and the first to fit
        every loose pair is the scan's first member. ``GuardExceededError``
        after ``MEMBER_GUARD`` candidates; no member is enumerated.
        """
        assign: dict[int, int] = {}
        forced, loose, read_bits = [], [], set()
        for z, cut, y in cuts(pairs):
            if z.alphabet != BINARY or y not in (0, 1):
                raise ValueError("family data must be binary")
            tokens = z.tokens
            read = self._read(tokens, cut)
            idx = None if read is None else self._answer_index(*read, cut, T)
            if idx is None:  # every member answers 0
                if y:
                    return None
                forced.append((z, cut, y))
                continue
            k, end = read
            ell = cut - end
            if y or ell <= 0:
                for r in range(ell):  # empty unless y: a label 0 reaches here only without c
                    j, bit = self._replay_index(k, r), tokens[end + r]
                    if assign.setdefault(j, bit) != bit:
                        return None
                if assign.setdefault(idx, y) != y:
                    return None
                forced.append((z, cut, y))
            else:
                loose.append((z, cut, y))
                read_bits.update([idx, *(self._replay_index(k, r) for r in range(ell))])
        free = sorted(read_bits.difference(assign))

        def fits(f, pairs):
            return all(self._answer(f.b, z.tokens, cut, T) == y for z, cut, y in pairs)

        for c in range(1 << len(free)):
            if c == MEMBER_GUARD:
                raise GuardExceededError(f"lookup search tried {c} candidates over {len(free)} free bits")
            assign.update((j, c >> i & 1) for i, j in enumerate(free))
            f = self.from_bits(tuple(assign.get(j, 0) for j in range(self.index_bits)))
            if fits(f, loose):  # forced pairs hold on every candidate
                if not fits(f, forced):
                    raise RuntimeError("lookup search result failed post-verification")
                return f
        return None

    def cons_oracle(self):
        """The search above at T = 1, on (prefix, next token) pairs or a ``PrefixCuts`` view."""

        def oracle(pairs):
            f = self.find_e2e_consistent(pairs, 1)
            if f is None:
                raise NotRealizableError("no family member is consistent with the data")
            return f

        return oracle


@dataclass(frozen=True)
class E1Family(LookupFamily):
    """DT-bit family whose T-step answers shatter its D*T canonical points.

    On point k with column c = ((k-1) mod D) + 1, member f_b emits the
    column bits b_c, b_{D+c}, ... for T-1 steps and then the point's own
    bit b_k; any input that is not a point plus a faithful partial replay
    of its column maps to 0.
    """

    D: int
    T: int

    def __post_init__(self):
        if self.D < 1 or self.T < 1:
            raise ValueError("need D >= 1 and T >= 1")
        if self.D * self.T > E1_MAX_POINTS:
            raise ValueError(f"need D*T <= {E1_MAX_POINTS} points")

    @cached_property
    def _points(self) -> tuple[tuple[int, ...], ...]:
        return _numbered_points(self.D * self.T)

    def _replay_index(self, k: int, r: int) -> int | None:
        if r < self.T - 1:
            return r * self.D + (k - 1) % self.D
        return k - 1 if r == self.T - 1 else None

    # aliases, not inheritance: the benchmark tracer patches these names in E1Family's own __dict__
    cons_oracle = LookupFamily.cons_oracle
    find_e2e_consistent = LookupFamily.find_e2e_consistent


@dataclass(frozen=True)
class LdimFamily(LookupFamily):
    """D-bit family: replay b_1..b_D from any point, then repeat the point's bit."""

    D: int

    def __post_init__(self):
        if not 1 <= self.D <= LDIM_MAX_D:
            raise ValueError(f"need 1 <= D <= {LDIM_MAX_D}")

    @cached_property
    def _points(self) -> tuple[tuple[int, ...], ...]:
        return _numbered_points(self.D)

    def _replay_index(self, k: int, r: int) -> int:
        return r if r < self.D else k - 1


@dataclass(frozen=True)
class CollapseFamily(LookupFamily):
    """D-bit family mapping point k to b_k and everything else to 0.

    Points carry a trailing 1, so appending any generated token leaves
    the point set; after two steps every member answers 0.
    """

    D: int

    def __post_init__(self):
        if not 1 <= self.D <= COLLAPSE_MAX_D:
            raise ValueError(f"need 1 <= D <= {COLLAPSE_MAX_D}")

    @cached_property
    def _points(self) -> tuple[tuple[int, ...], ...]:
        return _numbered_points(self.D, trailing_one=True)

    def _replay_index(self, k: int, r: int) -> int | None:
        return k - 1 if r == 0 else None


def default_pool(family: LookupFamily) -> tuple[TokenSeq, ...]:
    """Canonical points plus their one-token continuations, capped at the guard."""
    if not isinstance(family, LookupFamily):
        raise ValueError(f"{type(family).__name__} has no canonical point pool")
    # points share one length, so no continuation repeats a point
    pts = family._points[:POOL_GUARD]
    extended = pts + tuple(p + (bit,) for p in pts for bit in (0, 1))
    return tuple(BINARY.seq(p) for p in extended[:POOL_GUARD])


def _mode_label(mode: str, T: int | None):
    """The label a brute-force dimension reads from member f at point x: its next token
    ("base"), its T-step answer ("e2e"), or whether it fails to regenerate record x ("cot")."""
    if mode == "base":
        return lambda f, x: f.next_token(x)
    if mode not in ("e2e", "cot"):
        raise ValueError(f"unknown mode {mode!r}")
    if T is None:
        raise ValueError(f"{mode} mode needs a generation length T")
    if mode == "e2e":
        return lambda f, x: e2e(f, x, T)

    def fails(f: Generator, z: TokenSeq) -> bool:
        check_record(z, T)
        return cot(f, TokenSeq(z.alphabet, z.tokens[:len(z.tokens) - T]), T).tokens != z.tokens
    return fails


def _behavior_masks(family: GeneratorFamily, points: Sequence[TokenSeq], label) -> set[int]:
    """Each member's behaviour as a mask whose bit j is ``label(f, points[j])``."""
    family.check_enumerable()
    masks = set()
    for f in family.members():
        mask = 0
        for j, x in enumerate(points):
            bit = label(f, x)
            if bit not in (0, 1):
                raise ValueError("brute-force dimensions assume binary outputs")
            mask |= bit << j
        masks.add(mask)
    return masks


def vcdim_bruteforce(family: GeneratorFamily, points: Sequence[TokenSeq], mode: str = "base", T: int | None = None) -> int:
    """Largest subset of the points on which the family realizes all labelings.

    Searches subset sizes in increasing order and stops at the first size
    with no shattered subset, which is valid because shattering is
    monotone under taking subsets. A repeated point changes nothing: its
    copies get equal bits, so no subset holding both is shattered.
    """
    npoints = len(points)
    if npoints > POOL_GUARD:
        raise GuardExceededError(f"pool of {npoints} exceeds the guard {POOL_GUARD}")
    masks = _behavior_masks(family, points, _mode_label(mode, T))
    dim = 0
    for k in range(1, npoints + 1):
        if len(masks) < (1 << k):
            break
        found = False
        for subset in itertools.combinations(range(npoints), k):
            # m & submask keeps the subset's bits in place: a bijection of
            # the packed projection, so it counts the same labelings.
            submask = sum(1 << p for p in subset)
            if len({m & submask for m in masks}) == (1 << k):
                found = True
                break
        if not found:
            break
        dim = k
    return dim


def growth_count(family: GeneratorFamily, points: Sequence[TokenSeq], mode: str = "base", T: int | None = None) -> int:
    """Number of distinct behavior vectors the family induces on the points."""
    return len(_behavior_masks(family, points, _mode_label(mode, T)))


_FAMILY_SPECS = {
    "e1": (E1Family, ("d", "t")),
    "ldim": (LdimFamily, ("d",)),
    "collapse": (CollapseFamily, ("d",)),
    "tm": (TMFamily, ("s",)),
    "linthresh": (ThresholdFamily, ("d",)),
    "sparse": (SparseThresholdFamily, ("d", "k")),
}


def parse_family_spec(text: str):
    """Parse a family spec such as "e1:D=2,T=4", "tm:S=3" or "sparse:d=8,k=1".

    The names and their arguments are e1:D,T, ldim:D, collapse:D, tm:S,
    linthresh:d and sparse:d,k; argument names are case-insensitive. An
    argument the family does not take, or one given twice, is a ValueError.
    """
    name, _, arg_text = text.partition(":")
    name = name.strip().lower()
    if name not in _FAMILY_SPECS:
        raise ValueError(f"unknown family {name!r}")
    cls, keys = _FAMILY_SPECS[name]
    args = {}
    if arg_text.strip():
        for part in arg_text.split(","):
            key, _, val = part.partition("=")
            if not val:
                raise ValueError(f"malformed family argument {part!r}")
            key = key.strip().lower()
            if key not in keys:
                raise ValueError(f"family {name!r} takes no argument {key!r}")
            if key in args:
                raise ValueError(f"family argument {key!r} given twice")
            args[key] = parse_int(val, f"family {name!r} argument {key!r}")
    try:
        return cls(*(args[key] for key in keys))
    except KeyError as missing:
        raise ValueError(f"family {name!r} needs argument {missing}") from None
