"""Shared fixtures, most importantly the random-machine corpus reused by
the expressivity and attention acceptance checks."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import pytest

from cotlearn.seqcore import TokenSeq, cot
from cotlearn.turing import TMFamily, TMGenerator, TMSpec, TMTrace, pre, simulate_tm

CORPUS_MACHINES = 200
CORPUS_MAX_STATES = 4
CORPUS_MAX_STEPS = 30
CORPUS_MAX_INPUT = 6
CORPUS_SEED = 20250810


@dataclass(frozen=True)
class MachineRun:
    spec: TMSpec
    omega: tuple[int, ...]
    output: int
    trace: TMTrace
    generated: TokenSeq  # cot of the generator on pre(omega), T steps


def _all_inputs(max_len: int):
    for n in range(max_len + 1):
        yield from itertools.product((0, 1), repeat=n)


@pytest.fixture(scope="session")
def tm_corpus() -> list[MachineRun]:
    """200 random machines (S <= 4, T <= 30), each on every |input| <= 6."""
    rng = random.Random(CORPUS_SEED)
    runs: list[MachineRun] = []
    for _ in range(CORPUS_MACHINES):
        S = rng.randint(1, CORPUS_MAX_STATES)
        T = rng.randint(1, CORPUS_MAX_STEPS)
        spec = TMFamily(S).random_spec(rng, T)
        gen = TMGenerator(spec.S, spec.table)
        for omega in _all_inputs(CORPUS_MAX_INPUT):
            output, trace = simulate_tm(spec, omega)
            z = cot(gen, pre(omega, S), T)
            runs.append(MachineRun(spec, omega, output, trace, z))
    return runs
