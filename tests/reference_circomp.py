"""Reference circuit evaluation and compilation verifier: the ``Fraction``
gate evaluation and the step-by-step ``verify_compilation`` that
``cotlearn.circomp`` used before it scaled gates to integers and built
each input's step sums as one integer trajectory.

Kept as test oracles: the library must return equal gate values and an
equal ``VerificationReport``, failures included. The verifier reads each
step's sum with ``IntegerThreshold.total`` on the whole history, since the
threshold generation appends bits, not sums.

Two fixtures ride along: ``make_circuit`` builds a circuit from nested
weight lists, and ``format_circuit`` writes the file form that
``circomp.parse_circuit`` and the CLI read.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from cotlearn.circomp import (
    VERIFY_MAX_INPUTS,
    CompiledThreshold,
    ThresholdCircuit,
    VerificationFailure,
    VerificationReport,
    feature_map,
)
from cotlearn.seqcore import GuardExceededError


def make_circuit(n: int, layers) -> ThresholdCircuit:
    """A circuit from nested weight lists, each weight made a ``Fraction``."""
    return ThresholdCircuit(
        n,
        tuple(tuple(tuple(Fraction(w) for w in gate) for gate in layer) for layer in layers),
    )


def format_circuit(circuit: ThresholdCircuit) -> str:
    """Serialize a uniform-width circuit: "n s L" header, then one gate per line."""
    widths = set(circuit.widths)
    if len(widths) != 1:
        raise ValueError("only uniform-width circuits have a file form; normalize first")
    s = widths.pop()
    lines = [f"{circuit.n} {s} {circuit.depth}"]
    for l, layer in enumerate(circuit.layers, start=1):
        for i, gate in enumerate(layer, start=1):
            lines.append(f"{l} {i} : " + " ".join(str(w) for w in gate))
    return "\n".join(lines) + "\n"


def eval_circuit_values(circuit: ThresholdCircuit, x: Sequence[int]) -> list[tuple[int, ...]]:
    """Values of every gate, one tuple per layer."""
    if len(x) != circuit.n:
        raise ValueError(f"input length {len(x)} does not match n={circuit.n}")
    if any(bit not in (0, 1) for bit in x):
        raise ValueError("circuit inputs are bits")
    known: list[int] = list(x)
    out: list[tuple[int, ...]] = []
    for layer in circuit.layers:
        vals = tuple(
            1 if sum(w * v for w, v in zip(gate, known) if w != 0) >= 0 else 0
            for gate in layer
        )
        out.append(vals)
        known.extend(vals)
    return out


def eval_circuit(circuit: ThresholdCircuit, x: Sequence[int]) -> int:
    """Circuit output: the value of the last gate of the last layer."""
    return eval_circuit_values(circuit, x)[-1][-1]


def verify_compilation(circuit: ThresholdCircuit, compiled: CompiledThreshold) -> VerificationReport:
    """Exhaustively check the compiled threshold against the circuit.

    For every input: (a) the step-T answer equals the circuit output,
    (b) the token at each scheduled step equals that gate's value,
    (c) every off-schedule token is 0 with pre-threshold sum <= -1.
    Failures are reported, not raised.
    """
    n = circuit.n
    if n > VERIFY_MAX_INPUTS:
        raise GuardExceededError(f"refusing to enumerate 2^{n} inputs (guard is {VERIFY_MAX_INPUTS})")

    form = compiled.generator().integer_form
    d = compiled.d
    T = compiled.T
    time_of_gate = {
        (l + 1, i + 1): t
        for l, times in enumerate(compiled.gate_times)
        for i, t in enumerate(times)
    }
    scheduled = set(time_of_gate.values())

    failures: list[VerificationFailure] = []
    count = 0
    for x in itertools.product((0, 1), repeat=n):
        count += 1
        gate_vals = eval_circuit_values(circuit, x)
        seq = list(feature_map(x, T).tokens)
        produced: list[int] = []
        sums: list[int] = []
        for _ in range(T):
            acc = form.total(seq)
            bit = 1 if acc >= 0 else 0
            produced.append(bit)
            sums.append(acc)
            seq.append(bit)

        for (l, i), t in time_of_gate.items():
            expect = gate_vals[l - 1][i - 1]
            if produced[t - 1] != expect:
                failures.append(VerificationFailure(x, t, "gate-step", f"gate ({l},{i}) expected {expect} got {produced[t - 1]}"))
        for t in range(1, T + 1):
            if t in scheduled:
                continue
            if produced[t - 1] != 0:
                failures.append(VerificationFailure(x, t, "off-schedule-token", f"got {produced[t - 1]}"))
            if sums[t - 1] > -form.scale:
                failures.append(VerificationFailure(x, t, "off-schedule-sum", f"sum {Fraction(sums[t - 1], form.scale)} > -1"))
        answer = eval_circuit(circuit, x)
        if produced[-1] != answer:
            failures.append(VerificationFailure(x, 0, "final-answer", f"expected {answer} got {produced[-1]}"))

    return VerificationReport(
        ok=not failures,
        inputs_checked=count,
        failures=tuple(failures),
        T=T,
        d=d,
    )
