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
from typing import Iterator, NamedTuple, Sequence

from .seqcore import (
    Alphabet,
    Generator,
    GeneratorFamily,
    NotRealizableError,
    OraclePairs,
    TokenSeq,
    _check_alphabet,
    check_horizon,
    cuts,
    parse_int,
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


def _token_id(state: int, symb, move: int) -> int:
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
    if not 1 <= token.state <= S:
        raise ValueError(f"state {token.state} is outside 1..{S}")
    return _token_id(token.state, token.symb, token.move)


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
        if self.S < 1:
            raise ValueError("need S >= 1")
        check_horizon(self.T)
        if len(self.table) != 3 * self.S:
            raise ValueError(f"transition table must have {3 * self.S} entries")
        for s2, a, b in self.table:
            if not (1 <= s2 <= self.S and a in (0, 1) and b in _MOVES):
                raise ValueError(f"invalid transition entry {(s2, a, b)}")

    def step(self, state: int, read) -> tuple[int, int, int]:
        return self.table[_table_key(state, read)]


_READ_CODE = {0: 0, 1: 1, BLANK: 2}


def _table_key(state: int, read) -> int:
    """The transition-table index of reading ``read`` in ``state``."""
    return (state - 1) * 3 + _READ_CODE[read]


def _read_at(key: int) -> tuple[int, object]:
    """The (state, symbol) read at a transition-table key."""
    return key // 3 + 1, _SYMBOLS[key % 3]


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
    ids = [_token_id(1, BLANK, 1)]
    ids.extend(_token_id(1, bit, 1) for bit in omega)
    return TokenSeq(alphabet, tuple(ids))


def post(token: TMToken) -> int:
    """Output map: the symbol carried by the final token."""
    if token.symb not in (0, 1):
        raise ValueError("final token carries no written bit (prompt-only token)")
    return token.symb


_NO_BEGIN_MARKER = "history must start at the begin marker: exactly the first token writes a blank"
_EMPTY_HISTORY = "cannot read the tape of an empty history"


@lru_cache(maxsize=None)
def _scan_tables(S: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Each token's head move, transition-table row offset (state - 1) * 3
    and read code of its written symbol, for ``_TapeScan``."""
    decode = _decode_table(S)
    return (
        tuple(t.move for t in decode),
        tuple((t.state - 1) * 3 for t in decode),
        tuple(_READ_CODE[t.symb] for t in decode),
    )


class _TapeScan:
    """Incremental decoder of a token-id history.

    Holds the head (the sum of the moves consumed), each written cell's
    latest writer j (1-based), the transition-table key of the read
    (state, symbol under the head) after each token ``extend`` consumed,
    and how many leading tokens have passed the begin-marker check.
    ``extend`` consumes only the tokens it has not yet seen, so a history
    decoded one token at a time costs one visit per token, and
    ``keys[N - 1]`` answers every prefix of length N with no visit; ``run``
    generates a machine's chain on the same state and records no keys. The
    caller keeps the token list and changes it only by appending.
    """

    __slots__ = ("moves", "rows", "codes", "n", "head", "last", "keys", "checked")

    def __init__(self, S: int):
        self.moves, self.rows, self.codes = _scan_tables(S)
        self.n = self.head = self.checked = 0
        self.last: dict[int, int] = {}
        self.keys: list[int] = []

    def extend(self, tokens: Sequence[int]) -> None:
        """Consume the tokens not yet seen, recording the table key each new
        prefix reads: the last token's state and the head cell's latest
        writer's symbol, blank on a cell never written."""
        n, head, last, append = self.n, self.head, self.last, self.keys.append
        moves, rows, codes = self.moves, self.rows, self.codes
        for n in range(n + 1, len(tokens) + 1):
            t = tokens[n - 1]
            last[head] = n
            head += moves[t]
            j = last.get(head, 0)
            append(rows[t] + (codes[tokens[j - 1]] if j else 2))
        self.n, self.head = n, head

    def run(self, tokens: list[int], T: int, entry_ids: Sequence[int]) -> None:
        """Consume the tokens not yet seen, then append ``T`` machine steps:
        each appended token is ``entry_ids[key]`` of the table key the list
        before it reads, and is consumed in turn, so each token of the chain
        is visited once."""
        if not tokens:
            raise ValueError(_EMPTY_HISTORY)
        self.extend(tokens)
        key = self.keys[-1]
        moves, rows, codes = self.moves, self.rows, self.codes
        n, head, last, append = self.n, self.head, self.last, tokens.append
        for _ in range(T):
            t = entry_ids[key]
            append(t)
            n += 1
            last[head] = n
            head += moves[t]
            j = last.get(head, 0)
            key = rows[t] + (codes[tokens[j - 1]] if j else 2)
        self.n, self.head = n, head

    def check_begin_marker(self, tokens: Sequence[int]) -> None:
        """Reject a history unless exactly its first token writes a blank.
        ``checked`` only grows: each token is checked once, tokens of a
        shorter prefix not at all, and a failing one is checked again."""
        if not tokens:
            raise ValueError("empty history")
        codes = self.codes
        for i in range(self.checked, len(tokens)):
            if (codes[tokens[i]] == 2) != (i == 0):  # read code 2 is the blank
                self.checked = i
                raise ValueError(_NO_BEGIN_MARKER)
        self.checked = max(self.checked, len(tokens))


_last_decoded = threading.local()


def _decoded(S: int, tokens: Sequence[int]) -> _TapeScan:
    """This thread's decoder holding ``tokens``: its ``keys[end - 1]`` is the
    table key of the read after the first ``end`` tokens.

    Each thread keeps its last decoded history as [S, tuple snapshot,
    decoder]. Tokens that start that history under the same S are
    answered from the decoder's keys with no visit; tokens that extend it
    resume the decoder; any other history is decoded from empty. The
    snapshot is a tuple, so a token list changed after a call cannot pass
    for the history decoded then, and a tuple that is the snapshot itself
    is answered without comparing its tokens.
    """
    t = tuple(tokens)
    memo = getattr(_last_decoded, "memo", None)
    if memo is None:
        memo = _last_decoded.memo = [0, (), None]
    held = memo[1]
    if memo[0] != S or (t is not held and t[:len(held)] != held[:len(t)]):
        held = ()
        memo[:] = S, held, _TapeScan(S)
    scan = memo[2]
    if len(t) > len(held):
        memo[0] = 0  # a decoder interrupted mid-extend is never resumed
        scan.extend(t)
        memo[:] = S, t, scan
    return scan


def _read_key(S: int, tokens: Sequence[int], end: int) -> int:
    """The table key of the read after ``tokens[:end]``: ``keys[end - 1]``
    of the memo's decoder. The one refusal of an empty history."""
    if not end:
        raise ValueError(_EMPTY_HISTORY)
    return _decoded(S, tokens).keys[end - 1]


def read_tape(z: TokenSeq) -> tuple[int, object]:
    """Recover (current state, symbol under the head) from a history.

    The head position before each step is the prefix sum of earlier
    moves; the symbol under it is the one most recently written there, or
    blank. The decoder reports this read as its transition-table key.
    """
    return _read_at(_read_key(_alphabet_states(z.alphabet), z.tokens, len(z.tokens)))


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
        _check_alphabet(self, z)
        return self._entry_ids[_read_key(self.S, z.tokens, len(z.tokens))]

    def generate(self, tokens: list[int], T: int) -> None:
        """One ``_TapeScan`` run over the list: the prompt is decoded once
        and each step costs O(1) at any history length."""
        _TapeScan(self.S).run(tokens, T, self._entry_ids)

    @cached_property
    def _entry_ids(self) -> tuple[int, ...]:
        return tuple(_token_id(s2, a, b) for s2, a, b in self.table)


def trace_tokens(trace: TMTrace, S: int) -> list[int]:
    """The per-step (state, write, move) records as token ids of the S-state alphabet."""
    return [encode_token(S, TMToken(s, a, b)) for s, a, b, _, _ in trace.steps]


DEFAULT_ENTRY = (1, 0, 0)


def cons_tm(pairs: OraclePairs, S: int) -> TMGenerator:
    """Memorization learner: fill the transition table from (history, next token) pairs.

    Each cut pins the table entry at its read, ``_read_key(S, tokens, cut)``;
    conflicting pins mean no table is consistent. A label that is not a
    token of the data's alphabet is refused. Entries the data never pins
    are fixed to (1, 0, 0) for reproducibility. The pairs are read once, in
    the given order, as ``cuts``, through the tape decoder's memo: a cut of
    a ``PrefixCuts`` record reads ``keys[cut - 1]`` of the record's one
    decode, held as the same tuple for each of its cuts. Plain pairs that
    are one record's prefixes also share one decode, in either order: the
    longest is decoded and the shorter ones are answered from its keys, or
    each resumes the one before.
    """
    learned: dict[int, tuple[int, int, int]] = {}
    alphabet = None
    for z, cut, v in cuts(pairs):
        if z.alphabet is not alphabet:  # resolved again only when the alphabet object changes
            alphabet = z.alphabet
            S_data = _alphabet_states(alphabet)
            decode, ids = _decode_table(S_data), alphabet._ids
        if v not in ids:
            raise ValueError("label outside the alphabet")
        token = decode[v]
        if token.state > S:
            raise ValueError(f"label state {token.state} exceeds the {S}-state family")
        if token.symb not in (0, 1):
            raise ValueError("labels must write a bit; blank writes never occur in generation")
        key = _read_key(S_data, z.tokens, cut)
        if key >= 3 * S:
            raise ValueError(f"history state {key // 3 + 1} exceeds the {S}-state family")
        entry = (token.state, token.symb, token.move)
        old = learned.get(key)
        if old is None:
            learned[key] = entry
        elif old != entry:
            raise NotRealizableError("conflicting transitions required at state %d, read %r" % _read_at(key))
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
        return TMSpec(self.S, T, self.random_member(rng).table)

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
    S, T = (parse_int(p, f"machine header {lines[0]!r}") for p in head)
    entries: dict[int, tuple[int, int, int]] = {}
    for ln in lines[1:]:
        try:
            lhs, rhs = ln.split("->")
            state_s, read_s = lhs.split()
            s2_s, a_s, b_s = rhs.split()
        except ValueError:
            raise ValueError(f"malformed transition line: {ln!r}") from None
        what = f"transition line {ln!r}"
        state = parse_int(state_s, what)
        read = BLANK if read_s == BLANK else parse_int(read_s, what)
        if read not in _SYMBOLS:
            raise ValueError(f"bad read symbol in line: {ln!r}")
        if not 1 <= state <= S:
            raise ValueError(f"state out of range in line: {ln!r}")
        key = _table_key(state, read)
        if key in entries:
            raise ValueError(f"duplicate transition for state {state}, read {read_s}")
        entries[key] = tuple(parse_int(p, what) for p in (s2_s, a_s, b_s))
    if len(entries) != 3 * S:
        raise ValueError(f"expected {3 * S} transitions, got {len(entries)}")
    return TMSpec(S, T, tuple(entries[i] for i in range(3 * S)))
