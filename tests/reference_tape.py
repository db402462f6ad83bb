"""Per-call tape rescans, kept as the oracle for the incremental decoder.

The library decodes a history once, continuing from the previous call
(``turing._TapeScan``). These are the rescans it replaced: every call
re-walks the whole history, so they share no state between calls. The
generators' former stepper loops are here too, so ``cot`` is checked
against code that shares nothing with ``next_token``, and so is the
attention lookup's former scan over every written cell, which
``read_tape_attention_fast`` replaced by the lemma that its winner is the
head cell's latest writer.
"""

from cotlearn.seqcore import NotRealizableError, TokenSeq
from cotlearn.turing import _READ_CODE, BLANK, DEFAULT_ENTRY, TMToken, _alphabet_states, _decode_table, encode_token

NO_BEGIN_MARKER = "history must start at the begin marker: exactly the first token writes a blank"


def head_positions(tokens, decode):
    """Head position before each step of a token-id history, then the one
    after the last step.

    Entry i is the cell token i+1 wrote (the sum of the earlier moves);
    the final entry is where the head sits now.
    """
    pos = [0] * (len(tokens) + 1)
    acc = 0
    for i, t in enumerate(tokens, start=1):
        acc += decode[t].move
        pos[i] = acc
    return pos


def read_tape_ids(tokens, decode):
    """(state, read symbol, token visits) for a raw token-id history."""
    n = len(tokens)
    if n == 0:
        raise ValueError("cannot read the tape of an empty history")
    pos = head_positions(tokens, decode)
    npos = pos[n]
    state = decode[tokens[n - 1]].state
    # visits: the n-token position pass plus the backward scan down to j
    for j in range(n - 1, -1, -1):
        if pos[j] == npos:
            return state, decode[tokens[j]].symb, 2 * n - j
    return state, BLANK, 2 * n


def read_tape(z: TokenSeq):
    S = _alphabet_states(z.alphabet)
    state, read, _ = read_tape_ids(z.tokens, _decode_table(S))
    return state, read


def read_tape_cost(z: TokenSeq) -> int:
    """Token visits of one rescan (position pass plus backward scan)."""
    S = _alphabet_states(z.alphabet)
    _, _, visits = read_tape_ids(z.tokens, _decode_table(S))
    return visits


def check_begin_marker(tokens, decode, start=0):
    """Reject a history unless exactly its first token writes a blank;
    tokens before ``start`` have been checked already."""
    if not tokens:
        raise ValueError("empty history")
    for i in range(start, len(tokens)):
        if (decode[tokens[i]].symb == BLANK) != (i == 0):
            raise ValueError(NO_BEGIN_MARKER)


def writers(tokens, decode):
    """Each written cell's latest writer j >= 2, rebuilt from the history."""
    pos = head_positions(tokens, decode)
    return {pos[j - 1]: j for j in range(2, len(tokens) + 1)}


def lookup_argmax(head: int, writers: dict[int, int]) -> int:
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


def read_tape_attention_fast(z: TokenSeq):
    decode = _decode_table(_alphabet_states(z.alphabet))
    toks = z.tokens
    check_begin_marker(toks, decode)
    j = lookup_argmax(head_positions(toks, decode)[-1], writers(toks, decode))
    return decode[toks[-1]].state, decode[toks[j - 1]].symb


def cons_tm(pairs, S):
    """The memorization learner reading every pair by a rescan, in the given order."""
    learned = {}
    alphabet = None
    for u, v in pairs:
        if u.alphabet is not alphabet:
            alphabet = u.alphabet
            decode = _decode_table(_alphabet_states(alphabet))
        token = decode[v]
        if token.state > S:
            raise ValueError(f"label state {token.state} exceeds the {S}-state family")
        if token.symb not in (0, 1):
            raise ValueError("labels must write a bit; blank writes never occur in generation")
        state, read, _ = read_tape_ids(u.tokens, decode)
        if state > S:
            raise ValueError(f"history state {state} exceeds the {S}-state family")
        key = (state - 1) * 3 + _READ_CODE[read]
        entry = (token.state, token.symb, token.move)
        old = learned.get(key)
        if old is None:
            learned[key] = entry
        elif old != entry:
            raise NotRealizableError(f"conflicting transitions required at state {state}, read {read!r}")
    return tuple(learned.get(i, DEFAULT_ENTRY) for i in range(3 * S))


def entry_token(f, state, read):
    """The token id of f's table entry for reading ``read`` in ``state``."""
    return encode_token(f.S, TMToken(*f.table[(state - 1) * 3 + _READ_CODE[read]]))


def tm_stepper(f, tokens):
    """The direct generator's former stepper: the head and a cell -> last
    written symbol map."""
    decode = _decode_table(f.S)
    tape = {}
    head = seen = 0

    def step():
        nonlocal head, seen
        if not tokens:
            raise ValueError("cannot read the tape of an empty history")
        while seen < len(tokens):
            token = decode[tokens[seen]]
            tape[head] = token.symb
            head += token.move
            seen += 1
        return entry_token(f, decode[tokens[-1]].state, tape.get(head, BLANK))

    return step


def attention_stepper(f, tokens):
    """The attention generator's former stepper: the head and each written
    cell's latest writer, checked for the begin marker as it grows."""
    decode = _decode_table(f.S)
    last = {}
    head = seen = 0

    def step():
        nonlocal head, seen
        check_begin_marker(tokens, decode, seen)
        for i in range(seen + 1, len(tokens) + 1):
            if i > 1:
                last[head] = i
            head += decode[tokens[i - 1]].move
        seen = len(tokens)
        j = lookup_argmax(head, last)
        return entry_token(f, decode[tokens[-1]].state, decode[tokens[j - 1]].symb)

    return step


def cot(stepper, f, x: TokenSeq, T: int) -> TokenSeq:
    """``x`` followed by T tokens of ``stepper(f, tokens)`` over one list."""
    tokens = list(x.tokens)
    step = stepper(f, tokens)
    for _ in range(T):
        tokens.append(step())
    return TokenSeq(x.alphabet, tuple(tokens))
