"""Reference lookup evaluation: the per-family next-token bodies that
``cotlearn.lbfamilies`` used before every family shared one answer rule,
``LookupFamily._answer``, over its ``_replay_index`` rule.

Kept unchanged as a test oracle, written as plain functions of the family.
Each body spells out its family's pattern on its own (E1's column replay,
Ldim's replay of b, Collapse's exact point match), so it checks the shared
rule rather than restating it.

``shattered_dimension`` is the packed-projection subset test that
``vcdim_bruteforce`` used before it compared masked behaviours.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from cotlearn.lbfamilies import CollapseFamily, E1Family, LdimFamily, LookupGenerator


def strip_zeros(tokens: Sequence[int]) -> tuple[int, ...]:
    idx = 0
    while idx < len(tokens) and tokens[idx] == 0:
        idx += 1
    return tuple(tokens[idx:])


def decode(fam, tokens: Sequence[int]):
    """(point number k, continuation) when the input is a point plus a tail, else None."""
    body = strip_zeros(tokens)
    plen = fam.point_len
    if len(body) < plen or body[0] != 1:
        return None
    value = 0
    for bit in body[1:plen]:
        value = (value << 1) | bit
    k = value + 1
    if k > len(fam._points):
        return None
    return k, body[plen:]


def column_index(fam: E1Family, k: int, row: int) -> int:
    # 1-based position in b of the row-th column emission for point k
    return row * fam.D + ((k - 1) % fam.D) + 1


def e1_eval(fam: E1Family, b: tuple[int, ...], tokens: Sequence[int]) -> int:
    dec = decode(fam, tokens)
    if dec is None:
        return 0
    k, cont = dec
    ell = len(cont)
    if ell > fam.T - 1:
        return 0
    for r, bit in enumerate(cont):
        if b[column_index(fam, k, r) - 1] != bit:
            return 0
    if ell == fam.T - 1:
        return b[k - 1]
    return b[column_index(fam, k, ell) - 1]


def ldim_eval(fam: LdimFamily, b: tuple[int, ...], tokens: Sequence[int]) -> int:
    dec = decode(fam, tokens)
    if dec is None:
        return 0
    k, cont = dec
    ell = len(cont)
    if ell < fam.D:
        for r in range(ell):
            if cont[r] != b[r]:
                return 0
        return b[ell]
    if cont[:fam.D] != b:
        return 0
    if any(bit != b[k - 1] for bit in cont[fam.D:]):
        return 0
    return b[k - 1]


def collapse_eval(fam: CollapseFamily, b: tuple[int, ...], tokens: Sequence[int]) -> int:
    body = strip_zeros(tokens)
    try:
        k = fam._points.index(body) + 1
    except ValueError:
        return 0
    return b[k - 1]


_EVALS = {E1Family: e1_eval, LdimFamily: ldim_eval, CollapseFamily: collapse_eval}


def next_token(f: LookupGenerator, tokens: Sequence[int]) -> int:
    """The member's next token on the history, by its family's own body."""
    return _EVALS[type(f.family)](f.family, f.b, tokens)


def generate(f: LookupGenerator, tokens: Sequence[int], T: int) -> tuple[int, ...]:
    """The prompt and T generated tokens, each by the family's own body on the whole history."""
    out = list(tokens)
    for _ in range(T):
        out.append(next_token(f, out))
    return tuple(out)


def shattered_dimension(masks, npoints: int) -> int:
    """The dimension search ``vcdim_bruteforce`` ran before it compared
    masked behaviours: each mask's bits on the subset are repacked into a
    k-bit projection, and a subset is shattered when all 2^k occur."""
    dim = 0
    for k in range(1, npoints + 1):
        if len(masks) < (1 << k):
            break
        if not any(
            len({sum(((m >> p) & 1) << j for j, p in enumerate(subset)) for m in masks}) == (1 << k)
            for subset in itertools.combinations(range(npoints), k)
        ):
            break
        dim = k
    return dim
