"""Alphabets, token sequences, and autoregressive generation.

A ``TokenSeq`` is read through its ``tokens`` tuple, with Python indices.
All types are immutable; generation operators return new sequences.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence


class AlphabetMismatchError(ValueError):
    """A sequence was combined with a generator over a different alphabet."""


class NotRealizableError(ValueError):
    """No member of the hypothesis family is consistent with the data."""


class GuardExceededError(ValueError):
    """A brute-force operation was asked to run outside its guarded range."""


MEMBER_GUARD = 1 << 16
# Longest generation horizon (also a machine file's T): a T-step generation
# holds T tokens. Above every compiled circuit's T, which is below COMPILE_MAX_D.
GENERATION_MAX_T = 1 << 20


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite token set; token ``i`` renders as ``symbols[i]``."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.symbols)

    @cached_property
    def _ids(self) -> frozenset[int]:
        """The token indices 0..len-1, for ``TokenSeq``'s one-pass range check."""
        return frozenset(range(len(self.symbols)))

    @cached_property
    def _index_of(self) -> dict[str, int]:
        return {text: i for i, text in enumerate(self.symbols)}

    def index(self, text: str) -> int:
        try:
            return self._index_of[text]
        except KeyError:
            raise ValueError(f"unknown token {text!r}") from None

    def render(self, token: int) -> str:
        return self.symbols[token]

    def seq(self, tokens: Iterable[int] = ()) -> "TokenSeq":
        return TokenSeq(self, tuple(tokens))

    def parse_seq(self, text: str) -> "TokenSeq":
        """Parse the comma-separated text form (empty text is the empty sequence)."""
        text = text.strip()
        if not text:
            return self.seq()
        return self.seq(self.index(part.strip()) for part in text.split(","))


BINARY = Alphabet(("0", "1"))


@dataclass(frozen=True)
class TokenSeq:
    """Immutable sequence of alphabet indices, read through ``tokens``.

    Construction checks that every token is an index of the alphabet, in
    one C-level subset test against ``Alphabet._ids``.
    """

    alphabet: Alphabet
    tokens: tuple[int, ...]

    def __post_init__(self):
        if self.tokens and not self.alphabet._ids.issuperset(self.tokens):
            raise ValueError("token index out of range for the alphabet")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[int]:
        return iter(self.tokens)

    def append(self, token: int) -> "TokenSeq":
        return TokenSeq(self.alphabet, self.tokens + (token,))

    def render(self) -> str:
        return ",".join(self.alphabet.render(t) for t in self.tokens)

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class PrefixCuts:
    """Full records' (prefix, next token) pairs as cuts, with no prefix copied.

    Lists ``(record, cut, label)`` record by record, then t = 1..T, with
    ``cut = len(record) - t``: the prefix is ``record.tokens[:cut]`` and the
    label is ``record.tokens[cut]``, the pairs and order of
    ``learning.prefix_expand``. Its length is the pair count.
    """

    seqs: tuple[TokenSeq, ...]
    T: int

    def __post_init__(self):
        check_horizon(self.T)
        for z in self.seqs:
            check_record(z, self.T)

    def __len__(self) -> int:
        return len(self.seqs) * self.T

    def __iter__(self) -> Iterator[tuple[TokenSeq, int, int]]:
        T = self.T
        for z in self.seqs:
            toks = z.tokens
            n = len(toks)
            for cut in range(n - 1, n - T - 1, -1):
                yield z, cut, toks[cut]


# What a consistency oracle takes: a ``PrefixCuts`` view or plain (prefix, next token) pairs.
OraclePairs = PrefixCuts | Sequence[tuple[TokenSeq, int]]


def cuts(pairs: OraclePairs) -> Iterable[tuple[TokenSeq, int, int]]:
    """What a consistency oracle reads: ``(sequence, cut, label)``, whose
    history is ``sequence.tokens[:cut]``. A ``PrefixCuts`` view lists its
    own cuts; a plain (prefix, next token) pair is the cut at the prefix's
    own end."""
    if isinstance(pairs, PrefixCuts):
        return pairs
    return ((u, len(u.tokens), v) for u, v in pairs)


class Generator(ABC):
    """Deterministic next-token function over a fixed alphabet.

    ``next_token`` is the definition; ``generate`` appends a whole chain of
    its tokens in one call, and ``answer`` gives the chain's last token,
    which is what ``e2e`` asks for. Subclasses are immutable value objects:
    two generators with equal parameters behave identically on every input.
    """

    alphabet: Alphabet

    @abstractmethod
    def next_token(self, x: TokenSeq) -> int:
        """The reference definition: the next token, derived from the whole history."""

    def generate(self, tokens: list[int], T: int) -> None:
        """Append ``T`` tokens to ``tokens`` in place, one chain per call.

        Each appended token must equal ``next_token`` on the list before it,
        and the list must change in no other way. A generator is time
        invariant, so every token after the prompt is its own output:
        subclasses read the prompt once and run one loop over what
        ``next_token`` re-derives from the full history, the way a
        transformer's key/value cache does. This default is that reference,
        one full-history call per token.
        """
        alphabet, next_token, append = self.alphabet, self.next_token, tokens.append
        for _ in range(T):
            append(next_token(TokenSeq(alphabet, tuple(tokens))))

    def answer(self, tokens: Sequence[int], T: int) -> int:
        """The token ``T`` steps after the history ``tokens``.

        This default is the reference: the last token of one checked
        ``generate`` chain on a copy of the history. A generator that can
        answer without the chain, such as a lookup member, overrides it.
        """
        chain = list(tokens)
        _checked_generate(self, chain, T, self.alphabet._ids)
        return chain[-1]


@dataclass(frozen=True)
class ConstantGenerator(Generator):
    """Emits the same token regardless of the input."""

    alphabet: Alphabet
    token: int

    def next_token(self, x: TokenSeq) -> int:
        _check_alphabet(self, x)
        return self.token


def _check_alphabet(f: Generator, x: TokenSeq) -> None:
    """Refuse a history over another alphabet; an identity test settles the usual case."""
    if f.alphabet is not x.alphabet and f.alphabet != x.alphabet:
        raise AlphabetMismatchError("generator and sequence use different alphabets")


def apply_and_append(f: Generator, x: TokenSeq) -> TokenSeq:
    """Return ``x`` with ``f.next_token(x)`` appended; ``x`` itself is unchanged."""
    _check_alphabet(f, x)
    return x.append(f.next_token(x))


def check_horizon(T: int) -> None:
    """Refuse a generation length below 1 or above ``GENERATION_MAX_T``."""
    if T < 1:
        raise ValueError("generation length T must be at least 1")
    if T > GENERATION_MAX_T:
        raise GuardExceededError(f"generation length T={T} exceeds the guard {GENERATION_MAX_T}")


def check_record(z: TokenSeq, T: int) -> None:
    """Refuse a record too short to end in T generated tokens."""
    if len(z.tokens) < T:
        raise ValueError(f"record of length {len(z.tokens)} cannot carry {T} generated tokens")


def parse_int(text: str, what: str) -> int:
    """``int(text)``, or a ValueError naming ``what`` and the text."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what}: expected an integer, got {text!r}") from None


def _checked_generate(f: Generator, tokens: list[int], T: int, ids: frozenset[int]) -> None:
    """``f.generate(tokens, T)``, then one check that it appended exactly
    ``T`` tokens and that each is in ``ids``, the alphabet's indices."""
    n = len(tokens)
    f.generate(tokens, T)
    if len(tokens) != n + T:
        raise ValueError(f"{type(f).__name__}.generate appended {len(tokens) - n} tokens, not T={T}")
    if not ids.issuperset(tokens[n:]):
        raise ValueError("token index out of range for the alphabet")


def cot(f: Generator, x: TokenSeq, T: int) -> TokenSeq:
    """Iterate apply-and-append ``T`` times; the result has length ``len(x) + T``.

    One ``f.generate`` call appends the chain to one list, so the cost per
    token is the generator's loop step, not the history length; one
    sequence is built, at the end.
    """
    check_horizon(T)
    _check_alphabet(f, x)
    tokens = list(x.tokens)
    _checked_generate(f, tokens, T, x.alphabet._ids)
    return TokenSeq(x.alphabet, tuple(tokens))


def e2e(f: Generator, x: TokenSeq, T: int) -> int:
    """Final token of the T-step generation; the prompt-to-answer map.

    Equal to ``cot(f, x, T).tokens[-1]``, without building the sequence:
    the generator is asked for its answer, ``f.answer``. By default that is
    the checked chain's last token; a lookup member answers by one read.
    """
    check_horizon(T)
    _check_alphabet(f, x)
    y = f.answer(x.tokens, T)
    if y not in x.alphabet._ids:
        raise ValueError("token index out of range for the alphabet")
    return y


def cot_time_dependent(fs: Sequence[Generator], x: TokenSeq) -> TokenSeq:
    """Apply ``fs[0]``, then ``fs[1]``, ... appending each output in turn."""
    if not fs:
        raise ValueError("need at least one generator")
    for f in fs:
        if f.alphabet != fs[0].alphabet:
            raise AlphabetMismatchError("generators must share one alphabet")
    _check_alphabet(fs[0], x)
    tokens, ids = list(x.tokens), x.alphabet._ids
    for f in fs:
        _checked_generate(f, tokens, 1, ids)
    return TokenSeq(x.alphabet, tuple(tokens))


class GeneratorFamily(ABC):
    """An enumerable or oracle-backed base class of generators.

    ``members()`` enumerates the family in its canonical order where that
    is feasible (guarded); learners that need a canonical tie-break take
    the first member of this order.
    """

    alphabet: Alphabet

    @abstractmethod
    def size(self) -> int | None:
        """Number of members, or None when the family is not enumerable."""

    @abstractmethod
    def members(self) -> Iterator[Generator]:
        ...

    @abstractmethod
    def random_member(self, rng) -> Generator:
        ...

    def check_enumerable(self) -> None:
        """Refuse a member enumeration longer than MEMBER_GUARD."""
        size = self.size()
        if size is None or size > MEMBER_GUARD:
            raise GuardExceededError(
                f"{type(self).__name__} has more members than the enumeration guard {MEMBER_GUARD}"
            )

    def default_member(self) -> Generator:
        return next(iter(self.members()))

    def cons_oracle(self) -> Callable[[OraclePairs], Generator]:
        """Family-specific next-token consistency procedure, reading its one
        argument through ``cuts``; this default has none."""
        raise ValueError("family offers no next-token consistency oracle")

    def find_e2e_consistent(self, pairs: Sequence[tuple[TokenSeq, int]], T: int) -> Generator | None:
        """First member (canonical order) whose T-step answers match all pairs.

        The default implementation scans ``members()``; families may
        override with an equivalent faster search.
        """
        for f in self.members():
            if all(e2e(f, x, T) == y for x, y in pairs):
                return f
        return None
