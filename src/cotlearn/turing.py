"""Runtime-bounded Turing machines and the history-replay generator class.

A machine is a total transition table over ``S`` states and the tape
alphabet {0, 1, blank}. The matching generator class replays machine
steps from the generated history: each token records (state, written
symbol, head move), and the tape-reading subroutine recovers the symbol
under the head purely from those tokens. Only the input map ever emits
the blank symbol; generated tokens always write 0 or 1.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .seqcore import (
    Alphabet,
    Generator,
    GeneratorFamily,
    NotRealizableError,
    TokenSeq,
)

BLANK = "_"

_SYMBOLS = (0, 1, BLANK)
_MOVES = (-1, 0, 1)
TM_MAX_S = 1 << 10  # a TMFamily alphabet has 9 * S tokens


class TMToken(NamedTuple):
    """One step of computation: new state, written symbol, head move."""

    state: int
    symb: object  # 0, 1, or BLANK
    move: int

    def render(self) -> str:
        m = f"+{self.move}" if self.move > 0 else str(self.move)
        return f"{self.state}:{self.symb}:{m}"


def _token_id(S: int, state: int, symb, move: int) -> int:
    return (state - 1) * 9 + _SYMBOLS.index(symb) * 3 + _MOVES.index(move)


@lru_cache(maxsize=None)
def _decode_table(S: int) -> tuple[TMToken, ...]:
    return tuple(
        TMToken(s, a, b)
        for s in range(1, S + 1)
        for a in _SYMBOLS
        for b in _MOVES
    )


@lru_cache(maxsize=None)
def tm_alphabet(S: int) -> Alphabet:
    """The 9S-token alphabet of (state, symbol, move) triples for S states."""
    if S < 1:
        raise ValueError("need at least one state")
    return Alphabet(tuple(t.render() for t in _decode_table(S)))


def encode_token(S: int, token: TMToken) -> int:
    return _token_id(S, token.state, token.symb, token.move)


def decode_token(S: int, token_id: int) -> TMToken:
    return _decode_table(S)[token_id]


def _alphabet_states(alphabet: Alphabet) -> int:
    n = len(alphabet.symbols)
    # identity first: tm_alphabet is cached, so the machine alphabets are one object each
    if n % 9 or (alphabet is not tm_alphabet(n // 9) and alphabet != tm_alphabet(n // 9)):
        raise ValueError("sequence alphabet is not a machine-history alphabet")
    return n // 9


@dataclass(frozen=True)
class TMSpec:
    """Runtime-bounded machine ⟨states, steps, transition table⟩.

    ``table`` has one (nextstate, write, move) entry per (state, read)
    pair, indexed by ``(state - 1) * 3 + read_code`` with read codes
    0, 1, blank. Writes are always bits; the initial state is 1.
    """

    S: int
    T: int
    table: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.S < 1 or self.T < 1:
            raise ValueError("need S >= 1 and T >= 1")
        if len(self.table) != 3 * self.S:
            raise ValueError(f"transition table must have {3 * self.S} entries")
        for s2, a, b in self.table:
            if not (1 <= s2 <= self.S and a in (0, 1) and b in _MOVES):
                raise ValueError(f"invalid transition entry {(s2, a, b)}")

    def step(self, state: int, read) -> tuple[int, int, int]:
        return self.table[(state - 1) * 3 + _READ_CODE[read]]


_READ_CODE = {0: 0, 1: 1, BLANK: 2}


class TMTrace(NamedTuple):
    """Full run record: initial (state, head) plus per-step (s, a, b, p, r)."""

    s0: int
    p0: int
    steps: tuple[tuple[int, int, int, int, object], ...]


def simulate_tm(spec: TMSpec, omega: Sequence[int]) -> tuple[int, TMTrace]:
    """Run the machine on input bits and return (output bit, trace).

    The tape holds the input on cells 1..len(omega) and blanks elsewhere;
    the head starts one cell right of the input in state 1. The output is
    the symbol written in the final step. The tape is a sparse map, so
    heads may roam to negative cells freely.
    """
    if any(bit not in (0, 1) for bit in omega):
        raise ValueError("machine input must be bits")
    tape = {i + 1: bit for i, bit in enumerate(omega)}
    pos = len(omega) + 1
    state = 1
    steps = []
    out = None
    for _ in range(spec.T):
        read = tape.get(pos, BLANK)
        state, write, move = spec.step(state, read)
        tape[pos] = write
        pos += move
        steps.append((state, write, move, pos, read))
        out = write
    return out, TMTrace(1, len(omega) + 1, tuple(steps))


def pre(omega: Sequence[int], S: int) -> TokenSeq:
    """Prompt encoding the input as tape-writing tokens, led by a begin marker.

    The first token writes a blank (no other generated token does, which
    is what lets downstream consumers detect the sequence start).
    """
    if any(bit not in (0, 1) for bit in omega):
        raise ValueError("machine input must be bits")
    alphabet = tm_alphabet(S)
    ids = [_token_id(S, 1, BLANK, 1)]
    ids.extend(_token_id(S, 1, bit, 1) for bit in omega)
    return TokenSeq(alphabet, tuple(ids))


def post(token: TMToken) -> int:
    """Output map: the symbol carried by the final token."""
    if token.symb not in (0, 1):
        raise ValueError("final token carries no written bit (prompt-only token)")
    return token.symb


_NO_BEGIN_MARKER = "history must start at the begin marker: exactly the first token writes a blank"


@lru_cache(maxsize=None)
def _scan_tables(S: int) -> tuple[tuple[TMToken, ...], tuple[int, ...]]:
    """The decode table and each token's head move, for ``_TapeScan``."""
    decode = _decode_table(S)
    return decode, tuple(t.move for t in decode)


class _TapeScan:
    """Incremental decoder of a token-id history.

    Holds the head (the sum of the moves consumed), each written cell's
    latest writer j >= 2 (1-based; the first token, the begin marker's
    place, wrote cell 0 and is kept apart as the lookup's fallback key),
    and how many tokens have passed the begin-marker check. ``extend``
    consumes only the tokens it has not yet seen, so a history decoded one
    token at a time costs one visit per token, and returns the direct
    read. The caller keeps the token list and changes it only by appending.
    """

    __slots__ = ("decode", "moves", "n", "head", "last", "checked")

    def __init__(self, S: int):
        self.decode, self.moves = _scan_tables(S)
        self.n = self.head = self.checked = 0
        self.last: dict[int, int] = {}

    def extend(self, tokens: Sequence[int]) -> tuple[int, object] | None:
        """Consume the tokens not yet seen; return (state, symbol under the
        head) of the history so far, or None while it is empty. The symbol
        is the head cell's latest writer's, the first token's at cell 0, and
        blank on a cell never written."""
        n, end = self.n, len(tokens)
        head, last = self.head, self.last
        if n < end:
            moves = self.moves
            if n == 0:
                head = moves[tokens[0]]
                n = 1
            while n < end:
                t = tokens[n]
                n += 1
                last[head] = n
                head += moves[t]
            self.head, self.n = head, n
        elif not end:
            return None
        decode = self.decode
        j = last.get(head, 1 if head == 0 else 0)
        return decode[tokens[-1]].state, decode[tokens[j - 1]].symb if j else BLANK

    def check_begin_marker(self, tokens: Sequence[int]) -> None:
        """Reject a history unless exactly its first token writes a blank;
        each token is checked once, and a failing one is checked again."""
        if not tokens:
            raise ValueError("empty history")
        decode = self.decode
        for i in range(self.checked, len(tokens)):
            if (decode[tokens[i]].symb == BLANK) != (i == 0):
                self.checked = i
                raise ValueError(_NO_BEGIN_MARKER)
        self.checked = len(tokens)


_last_decoded = threading.local()


def _decoded(S: int, tokens: Sequence[int]) -> tuple[_TapeScan, tuple[int, ...], tuple[int, object] | None]:
    """This thread's decoder advanced over ``tokens``, their tuple
    snapshot, and the direct read (None for an empty history).

    Each thread keeps its last decoded history as [S, tuple snapshot,
    decoder]. When the tokens extend it under the same S, the decoder
    resumes; any other history is decoded from empty. The snapshot is a
    tuple, so a token list changed after a call cannot pass for the
    history decoded then.
    """
    t = tuple(tokens)
    memo = getattr(_last_decoded, "memo", None)
    if memo is None:
        memo = _last_decoded.memo = [0, (), None]
    if memo[0] == S and t[:len(memo[1])] == memo[1]:
        scan = memo[2]
    else:
        scan = _TapeScan(S)
    memo[0] = 0  # a decoder interrupted mid-extend is never resumed
    read = scan.extend(t)
    memo[:] = S, t, scan
    return scan, t, read


def _read_tape(S: int, tokens: Sequence[int]) -> tuple[int, object]:
    if not tokens:
        raise ValueError("cannot read the tape of an empty history")
    return _decoded(S, tokens)[2]


def read_tape(z: TokenSeq) -> tuple[int, object]:
    """Recover (current state, symbol under the head) from a history.

    The head position before each step is the prefix sum of earlier
    moves; the symbol under the final head position is the one most
    recently written there, or blank if it was never visited.
    """
    return _read_tape(_alphabet_states(z.alphabet), z.tokens)


@dataclass(frozen=True)
class TMGenerator(Generator):
    """Next-token generator replaying a transition table from the history."""

    S: int
    table: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        TMSpec(self.S, 1, self.table)  # reuse the table validation

    @property
    def alphabet(self) -> Alphabet:
        return tm_alphabet(self.S)

    def next_token(self, z: TokenSeq) -> int:
        state, symb = _read_tape(self.S, z.tokens)
        return self._step_token(state, symb)

    def stepper(self, tokens: list[int]) -> Callable[[], int]:
        """A ``_TapeScan`` over the growing list, so a step costs O(1) at any
        history length."""
        extend, entry_ids = _TapeScan(self.S).extend, self._entry_ids

        def step() -> int:
            if not tokens:
                raise ValueError("cannot read the tape of an empty history")
            state, symb = extend(tokens)
            return entry_ids[(state - 1) * 3 + _READ_CODE[symb]]  # _step_token, inlined

        return step

    @cached_property
    def _entry_ids(self) -> tuple[int, ...]:
        return tuple(_token_id(self.S, s2, a, b) for s2, a, b in self.table)

    def _step_token(self, state: int, read) -> int:
        """The table entry for (state, read), as a token id."""
        return self._entry_ids[(state - 1) * 3 + _READ_CODE[read]]


def trace_tokens(trace: TMTrace, S: int) -> list[int]:
    """The per-step (state, write, move) records as token ids."""
    return [_token_id(S, s, a, b) for s, a, b, _, _ in trace.steps]


DEFAULT_ENTRY = (1, 0, 0)


def cons_tm(pairs: Sequence[tuple[TokenSeq, int]], S: int) -> TMGenerator:
    """Memorization learner: fill the transition table from (history, next token) pairs.

    Each pair pins one table entry at the (state, read) recovered by
    read_tape; conflicting pins mean no table is consistent. Entries the
    data never pins are fixed to (1, 0, 0) for reproducibility.

    The pairs are read last to first: ``prefix_expand`` lists each
    record's prefixes longest first, so in reverse each history extends
    the one before and the tape decoder resumes, and the reads cost the
    total record length. Whether a pair is bad, or two pins conflict, does
    not depend on the order, and neither does the table; only which error
    comes first does, so on an error the pairs are read again in their
    given order to raise the first one.
    """
    try:
        return _pin_table(reversed(pairs), S)
    except Exception:
        return _pin_table(pairs, S)


def _pin_table(pairs: Iterable[tuple[TokenSeq, int]], S: int) -> TMGenerator:
    learned: dict[int, tuple[int, int, int]] = {}
    alphabet = None
    for u, v in pairs:
        if u.alphabet is not alphabet:  # resolved again only when the alphabet object changes
            alphabet = u.alphabet
            S_data = _alphabet_states(alphabet)
            decode = _decode_table(S_data)
        token = decode[v]
        if token.state > S:
            raise ValueError(f"label state {token.state} exceeds the {S}-state family")
        if token.symb not in (0, 1):
            raise ValueError("labels must write a bit; blank writes never occur in generation")
        state, read = _read_tape(S_data, u.tokens)
        if state > S:
            raise ValueError(f"history state {state} exceeds the {S}-state family")
        key = (state - 1) * 3 + _READ_CODE[read]
        entry = (token.state, token.symb, token.move)
        old = learned.get(key)
        if old is None:
            learned[key] = entry
        elif old != entry:
            raise NotRealizableError(
                f"conflicting transitions required at state {state}, read {read!r}"
            )
    table = tuple(learned.get(i, DEFAULT_ENTRY) for i in range(3 * S))
    return TMGenerator(S, table)


@dataclass(frozen=True)
class TMFamily(GeneratorFamily):
    """All S-state transition tables, as a generator family.

    The canonical member order enumerates each entry's options with the
    stay-put default (1, 0, 0) first, so the first member is the same
    all-default table that cons_tm uses to fill unconstrained entries.
    """

    S: int

    def __post_init__(self):
        if not 1 <= self.S <= TM_MAX_S:
            raise ValueError(f"need 1 <= S <= {TM_MAX_S}")

    @property
    def alphabet(self) -> Alphabet:
        return tm_alphabet(self.S)

    def size(self) -> int:
        return (6 * self.S) ** (3 * self.S)

    def _entry_options(self) -> list[tuple[int, int, int]]:
        return [(s, a, b) for s in range(1, self.S + 1) for a in (0, 1) for b in (0, -1, 1)]

    def members(self) -> Iterator[TMGenerator]:
        self.check_enumerable()
        options = self._entry_options()
        for combo in itertools.product(options, repeat=3 * self.S):
            yield TMGenerator(self.S, combo)

    def default_member(self) -> TMGenerator:
        return TMGenerator(self.S, tuple(DEFAULT_ENTRY for _ in range(3 * self.S)))

    def random_member(self, rng) -> TMGenerator:
        table = tuple(
            (rng.randint(1, self.S), rng.randint(0, 1), rng.choice(_MOVES))
            for _ in range(3 * self.S)
        )
        return TMGenerator(self.S, table)

    def random_spec(self, rng, T: int) -> TMSpec:
        g = self.random_member(rng)
        return TMSpec(self.S, T, g.table)

    def cons_oracle(self):
        return lambda pairs: cons_tm(pairs, self.S)


def format_tm(spec: TMSpec) -> str:
    """Serialize as a "S T" header plus one "s r -> s' a b" line per entry."""
    lines = [f"{spec.S} {spec.T}"]
    for state in range(1, spec.S + 1):
        for read in _SYMBOLS:
            s2, a, b = spec.step(state, read)
            move = f"+{b}" if b > 0 else str(b)
            lines.append(f"{state} {read} -> {s2} {a} {move}")
    return "\n".join(lines) + "\n"


def parse_tm(text: str) -> TMSpec:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise ValueError("empty machine file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'S T'")
    S, T = int(head[0]), int(head[1])
    entries: dict[int, tuple[int, int, int]] = {}
    for ln in lines[1:]:
        try:
            lhs, rhs = ln.split("->")
            state_s, read_s = lhs.split()
            s2_s, a_s, b_s = rhs.split()
        except ValueError:
            raise ValueError(f"malformed transition line: {ln!r}") from None
        state = int(state_s)
        read = BLANK if read_s == BLANK else int(read_s)
        if read not in _SYMBOLS:
            raise ValueError(f"bad read symbol in line: {ln!r}")
        if not 1 <= state <= S:
            raise ValueError(f"state out of range in line: {ln!r}")
        key = (state - 1) * 3 + _READ_CODE[read]
        if key in entries:
            raise ValueError(f"duplicate transition for state {state}, read {read_s}")
        entries[key] = (int(s2_s), int(a_s), int(b_s))
    if len(entries) != 3 * S:
        raise ValueError(f"expected {3 * S} transitions, got {len(entries)}")
    return TMSpec(S, T, tuple(entries[i] for i in range(3 * S)))
