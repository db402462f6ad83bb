"""Layered threshold circuits and their embedding into one iterated threshold.

A circuit value is thr(z) = 1 iff z >= 0 at every gate; gates read the
inputs and all earlier layers. The compiler turns a normalized circuit
into a single fixed weight vector that, iterated autoregressively on a
padded copy of the input, writes every gate value at a scheduled step
and a 0 everywhere else, finishing with the circuit output. Gate
scheduling works by spacing gate weights with zero padding so that at
each scheduled step exactly one embedded gate aligns with the live part
of the sequence; a large negative sentinel aligned with the leading 1
forces the output to 0 at every unscheduled step.

All arithmetic is exact: the off-schedule argument compares pre-threshold
sums against -1, which floating point must not be allowed to blur.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Sequence

from .seqcore import BINARY, GuardExceededError, TokenSeq, parse_int
from .linthresh import IntegerThreshold, LinearThreshold, parse_fraction

VERIFY_MAX_INPUTS = 12
COMPILE_MAX_D = 1 << 16
RANDOM_WEIGHT_MAX = 2


@dataclass(frozen=True)
class ThresholdCircuit:
    """Layered threshold circuit; the output is the last gate of the last layer.

    ``layers[l][i]`` is the weight vector of gate i in layer l+1, over
    the ``n + (width of earlier layers)`` predecessors in order: inputs,
    then layer 1 gates, then layer 2 gates, and so on.
    """

    n: int
    layers: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __post_init__(self):
        if self.n < 1 or not self.layers or any(not layer for layer in self.layers):
            raise ValueError("circuit needs at least one input and one gate per layer")
        preds = self.n
        for layer in self.layers:
            for gate in layer:
                if len(gate) != preds:
                    raise ValueError(
                        f"gate arity {len(gate)} does not match its {preds} predecessors"
                    )
            preds += len(layer)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.layers)

    @property
    def width(self) -> int:
        return max(self.widths)

    @cached_property
    def integer_layers(self) -> tuple[tuple[IntegerThreshold, ...], ...]:
        """Each gate as the integer form of a zero-bias threshold over its
        predecessors: weight j sits at offset p - j, so ``total`` on the
        gate's p predecessor values is its scaled sum."""
        return tuple(
            tuple(LinearThreshold(gate, Fraction(0)).integer_form for gate in layer)
            for layer in self.layers
        )


def make_circuit(n: int, layers) -> ThresholdCircuit:
    return ThresholdCircuit(
        n,
        tuple(tuple(tuple(Fraction(w) for w in gate) for gate in layer) for layer in layers),
    )


def eval_circuit_values(circuit: ThresholdCircuit, x: Sequence[int]) -> list[tuple[int, ...]]:
    """Values of every gate, one tuple per layer."""
    if len(x) != circuit.n:
        raise ValueError(f"input length {len(x)} does not match n={circuit.n}")
    if any(bit not in (0, 1) for bit in x):
        raise ValueError("circuit inputs are bits")
    known: list[int] = list(x)
    out: list[tuple[int, ...]] = []
    for layer in circuit.integer_layers:
        vals = tuple(1 if gate.total(known) >= 0 else 0 for gate in layer)
        out.append(vals)
        known.extend(vals)
    return out


def eval_circuit(circuit: ThresholdCircuit, x: Sequence[int]) -> int:
    """Circuit output: the value of the last gate of the last layer."""
    return eval_circuit_values(circuit, x)[-1][-1]


def is_normalized(circuit: ThresholdCircuit) -> bool:
    """Uniform layer widths, and the last node of the input layer and of
    every earlier gate layer has zero weight into all later gates."""
    widths = circuit.widths
    if len(set(widths)) != 1:
        return False
    for l, layer in enumerate(circuit.layers):
        dummies = _dummy_positions(circuit.n, widths[0], l)
        if any(gate[i] != 0 for gate in layer for i in dummies):
            return False
    return True


def _dummy_positions(n: int, s: int, l: int) -> list[int]:
    """Predecessors a layer-(l+1) gate of a normalized circuit gives zero
    weight: the last input and the last gate of every earlier layer."""
    return [n - 1] + [n + earlier * s + (s - 1) for earlier in range(l)]


def normalize_circuit(circuit: ThresholdCircuit) -> ThresholdCircuit:
    """Pad to uniform width with zero-weight dummy gates and a dummy input.

    Dummy gates go last in every layer except the output layer, where
    they are inserted before the output gate so it stays last. The added
    input and gates carry zero weight everywhere, so evaluation is
    unchanged on the original inputs. Idempotent: a circuit that already
    satisfies the convention is returned as is.
    """
    if is_normalized(circuit):
        return circuit
    n_new = circuit.n + 1
    s_new = circuit.width + 1
    old_widths = circuit.widths
    new_layers = []
    for l, layer in enumerate(circuit.layers):
        remapped = [_remap_gate(circuit, gate, n_new, s_new) for gate in layer]
        preds = n_new + l * s_new
        dummy = tuple(Fraction(0) for _ in range(preds))
        pad = [dummy] * (s_new - old_widths[l])
        if l == len(circuit.layers) - 1:
            new_layer = remapped[:-1] + pad + [remapped[-1]]
        else:
            new_layer = remapped + pad
        new_layers.append(tuple(new_layer))
    return ThresholdCircuit(n_new, tuple(new_layers))


def _remap_gate(circuit: ThresholdCircuit, gate, n_new: int, s_new: int):
    """Re-lay a gate's weights over the padded predecessor layout."""
    out = list(gate[:circuit.n]) + [Fraction(0)] * (n_new - circuit.n)
    offset = circuit.n
    for width in circuit.widths:
        block = gate[offset:offset + width]
        if not block:
            break
        out.extend(block)
        out.extend(Fraction(0) for _ in range(s_new - width))
        offset += width
    return tuple(out)


def feature_map(x: Sequence[int], T: int) -> TokenSeq:
    """Generation prompt for input bits: a 1, then T-1 zeros, then x."""
    if any(bit not in (0, 1) for bit in x):
        raise ValueError("inputs are bits")
    return BINARY.seq([1] + [0] * (T - 1) + list(x))


@dataclass(frozen=True)
class CompiledThreshold:
    """Iterated-threshold embedding of a circuit.

    ``w`` concatenates the step-schedule sentinel block with the padded
    per-layer gate blocks (deepest layer first); ``gate_times[l][i]`` is
    the generation step at which gate (l+1, i+1) is emitted; every other
    step is off schedule. ``B`` exceeds the total l1 weight of the
    circuit, which is what pins off-schedule sums at or below -1.
    """

    w: tuple[Fraction, ...]
    T: int
    d: int
    tilde_p: tuple[int, ...]
    gate_times: tuple[tuple[int, ...], ...]
    B: Fraction
    n: int
    s: int
    L: int

    def generator(self) -> LinearThreshold:
        """The compiled threshold; one object per compiled circuit, so its
        integer form is built once."""
        return self._generator

    @cached_property
    def _generator(self) -> LinearThreshold:
        return LinearThreshold(self.w, Fraction(0))


def compile_circuit(circuit: ThresholdCircuit) -> CompiledThreshold:
    """Embed a normalized circuit into one time-invariant linear threshold.

    The block sizes follow the ladder p[1] = n, p[l+1] = (s+1) p[l]; each
    gate weight from layer l gets p[l] - 1 zeros inserted in front of it
    so that, at the gate's scheduled step, circuit weights align exactly
    with previously emitted gate values and everything else aligns with
    padding zeros. The output has d = 2n(s+1)^L - n - 1 weights, known
    before any block is built; above ``COMPILE_MAX_D`` the circuit is
    refused with ``GuardExceededError``.
    """
    if not is_normalized(circuit):
        raise ValueError("compile requires a normalized circuit")
    n = circuit.n
    s = circuit.width
    L = circuit.depth
    if 2 * n * (s + 1) ** L - n - 1 > COMPILE_MAX_D:
        raise GuardExceededError(
            f"refusing to compile n={n}, s={s}, L={L}: d = 2n(s+1)^L - n - 1 exceeds the guard {COMPILE_MAX_D}"
        )

    tilde_p = [n]
    for _ in range(L):
        tilde_p.append((s + 1) * tilde_p[-1])
    # tilde_p[l - 1] is the padded block size for layer l gates.

    def embed(gate, l: int) -> list[Fraction]:
        out = list(gate[:n])
        for earlier in range(1, l + 1):
            pad = [Fraction(0)] * (tilde_p[earlier - 1] - 1)
            for j in range(s):
                out.extend(pad)
                out.append(gate[n + (earlier - 1) * s + j])
        return out

    blocks: list[list[Fraction]] = []  # v_L, ..., v_1 in emission-reverse order
    total_l1 = Fraction(0)
    for l in range(L, 0, -1):
        layer = circuit.layers[l - 1]
        block: list[Fraction] = []
        for gate in reversed(layer):
            emb = embed(gate, l - 1)
            if len(emb) != tilde_p[l - 1]:
                raise RuntimeError(f"padded gate size {len(emb)} failed post-verification "
                                   f"against the ladder value {tilde_p[l - 1]}")
            block.extend(emb)
        blocks.append(block)
        total_l1 += sum(abs(w) for gate in layer for w in gate)

    T = tilde_p[L] - n
    gate_times = []
    prev_last = 0
    for l in range(1, L + 1):
        times = tuple(prev_last + i * tilde_p[l - 1] for i in range(1, s + 1))
        gate_times.append(times)
        prev_last = times[-1]
    if gate_times[-1][-1] != T:
        raise RuntimeError(f"output gate step {gate_times[-1][-1]} failed post-verification "
                           f"against T = {T}")
    scheduled = frozenset(t for times in gate_times for t in times)

    B = 1 + total_l1
    sentinel = [Fraction(0)] * T
    for t in range(1, T + 1):
        if t not in scheduled:
            sentinel[T - t] = -B  # sentinel[-t] pairs with the leading 1 at step t

    w = list(sentinel)
    for block in blocks:
        w.extend(block)
    w.extend(Fraction(0) for _ in range(n - 1))
    d = len(w)
    if not (d == T + tilde_p[L] - 1 and d <= 2 * tilde_p[L]):
        raise RuntimeError(f"d = {d} failed post-verification against T + p[L] - 1 <= 2 p[L] "
                           f"(T = {T}, p[L] = {tilde_p[L]})")

    return CompiledThreshold(
        w=tuple(w),
        T=T,
        d=d,
        tilde_p=tuple(tilde_p),
        gate_times=tuple(gate_times),
        B=B,
        n=n,
        s=s,
        L=L,
    )


@dataclass(frozen=True)
class VerificationFailure:
    x: tuple[int, ...]
    step: int  # 0 marks the final-answer check
    kind: str
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    inputs_checked: int
    failures: tuple[VerificationFailure, ...]
    T: int
    d: int

    def summary(self) -> str:
        if self.ok:
            return f"OK {self.inputs_checked}/{self.inputs_checked} inputs (T={self.T}, d={self.d})"
        return (
            f"FAILED {len(self.failures)} checks over {self.inputs_checked} inputs "
            f"(T={self.T}, d={self.d})"
        )


def verify_compilation(circuit: ThresholdCircuit, compiled: CompiledThreshold) -> VerificationReport:
    """Exhaustively check the compiled threshold against the circuit.

    For every input: (a) the step-T answer equals the circuit output,
    (b) the token at each scheduled step equals that gate's value,
    (c) every off-schedule token is 0 with pre-threshold sum <= -1.
    Failures are reported, not raised. A circuit whose n differs from the
    compiled one, or whose layers are not L layers of width s each, is
    refused with ``ValueError``.

    The off-schedule argument is proved once per circuit, before any
    input: a step reads the leading 1 at a fixed offset and can see a set
    bit (an input bit or an emitted 1) only at the offsets before it, so
    if the leading-1 term plus every positive weight there is at most -1,
    the step emits 0 and passes (c) on every input. ``_step_plan``
    keeps the other steps: every scheduled step, the final step, and each
    step that bound does not settle. For an honest compile, whose
    sentinel -B has B above the circuit's l1 weight, that is exactly the
    scheduled steps.

    Per input, each summed step's scaled pre-threshold sum is its fixed
    part (the leading 1 with the bias, plus a row per set input bit) plus
    a row per 1 emitted at an earlier summed step. Each gate's sum, scaled
    by its own integer form, is built the same way: its bias plus its
    weight on each set input bit, plus its weight on each earlier gate
    at 1. Inputs come in ``itertools.product`` order, so entry j of a
    stack of partial lists holds the fixed parts of the steps and the
    gates with the first j bits placed, and only the entries below the
    first changed bit are rebuilt. Then a walk over the gates in layer
    order sets a gate to 1 iff its sum is >= 0, and a 1 adds that gate's
    row to the later gates (a gate no later gate reads is skipped, its
    value being the sign of its sum), so no gate is evaluated from
    scratch and no threshold is generated. The walk over the summed steps
    compares against those values and records each failed check as it
    meets it; a step is off schedule when no gate is due at it. An
    input's report is its gate-step failures, then its off-schedule
    failures in time order, then the final-answer check. Proved steps
    pass every check on every input, so they never enter a report.
    """
    s = compiled.s
    if circuit.n != compiled.n or circuit.widths != (s,) * compiled.L:
        shape, compiled_shape = (circuit.n, circuit.width, circuit.depth), (compiled.n, s, compiled.L)
        raise ValueError(f"circuit shape (n, s, L) = {shape} with widths {circuit.widths} "
                         f"does not match the compiled shape {compiled_shape}")
    n = circuit.n
    if n > VERIFY_MAX_INPUTS:
        raise GuardExceededError(f"refusing to enumerate 2^{n} inputs (guard is {VERIFY_MAX_INPUTS})")

    T = compiled.T
    scale = compiled.generator().integer_form.scale
    weight_at, lead, steps = _step_plan(compiled)
    gate_at = {
        t - 1: l * s + i for l, times in enumerate(compiled.gate_times) for i, t in enumerate(times)
    }
    checks = [(t + 1, gate_at.get(t)) for t in steps]
    # gate_w[k][j]: the scaled weight of gate k (in layer order) on
    # predecessor j (input j, or gate j - n); gate k reads p = n + (k // s) * s
    # predecessors, predecessor j at offset p - j of its integer form.
    forms = [form for layer in circuit.integer_layers for form in layer]
    gate_w = []
    for k, form in enumerate(forms):
        p = n + k // s * s
        at = form.weight_at + (0,) * (p + 1 - len(form.weight_at))
        gate_w.append([at[p - j] for j in range(p)] + [0] * (n + len(forms) - p))
    rows = [[weight_at[n - j + t] for t in steps] + [w[j] for w in gate_w] for j in range(n)]
    emits = [[weight_at[u - t] for u in steps[i + 1:]] for i, t in enumerate(steps)]  # a 1 at steps[i], read later
    reads = []  # (k, the later gates' weights on gate k) for each gate some later gate reads
    for k in range(len(forms)):
        row = [w[n + k] for w in gate_w[k + 1:]]
        if any(row):
            reads.append((k, row))
    n_steps = len(steps)

    failures: list[VerificationFailure] = []
    base = [lead[t] for t in steps] + [form.bias for form in forms]
    stack: list[list[int]] = [base] * (n + 1)  # right for the all-zero input
    for count, x in enumerate(itertools.product((0, 1), repeat=n)):
        # From input count-1 to count, the trailing bits of count flip.
        for j in range(n - (count & -count).bit_length(), n):
            stack[j + 1] = list(map(add, stack[j], rows[j])) if x[j] else stack[j]

        sums, gate_sums = stack[n][:n_steps], stack[n][n_steps:]
        for k, row in reads:
            if gate_sums[k] >= 0:
                gate_sums[k + 1:] = map(add, gate_sums[k + 1:], row)
        off_failures: list[VerificationFailure] = []
        for i, (t, gate) in enumerate(checks):
            acc = sums[i]
            if gate is None:
                if acc >= 0:
                    off_failures.append(VerificationFailure(x, t, "off-schedule-token", "got 1"))
                if acc > -scale:
                    off_failures.append(VerificationFailure(x, t, "off-schedule-sum", f"sum {Fraction(acc, scale)} > -1"))
            elif (acc >= 0) != (gate_sums[gate] >= 0):
                l, g = divmod(gate, s)
                failures.append(VerificationFailure(
                    x, t, "gate-step", f"gate ({l + 1},{g + 1}) expected {int(gate_sums[gate] >= 0)} got {int(acc >= 0)}"
                ))
            if acc >= 0:
                sums[i + 1:] = map(add, sums[i + 1:], emits[i])
        failures.extend(off_failures)
        if (acc >= 0) != (gate_sums[-1] >= 0):  # the last summed step is step T
            failures.append(VerificationFailure(
                x, 0, "final-answer", f"expected {int(gate_sums[-1] >= 0)} got {int(acc >= 0)}"
            ))

    return VerificationReport(
        ok=not failures,
        inputs_checked=1 << n,
        failures=tuple(failures),
        T=T,
        d=compiled.d,
    )


def _step_plan(compiled: CompiledThreshold) -> tuple[tuple[int, ...], list[int], list[int]]:
    """The verifier's step terms, and the 0-based steps it sums per input.

    Returns ``weight_at`` zero-padded for every slice the verifier takes,
    each step's leading-1 term ``lead`` (bias included), and the steps
    that are scheduled, final, or not proved silent. The prompt is a 1,
    then T-1 zeros, then x; step t reads the leading 1 at offset T+n+t,
    and its only bits that an input or an emission may set are at offsets
    1..t+n. So with ``positive[k]`` the sum of the positive weights at
    offsets 1..k, ``lead[t] + positive[t + n] <= -scale`` proves step t
    emits 0 with a sum of at most -1 on every input.
    """
    form = compiled.generator().integer_form
    T, n = compiled.T, compiled.n
    weight_at = form.weight_at + (0,) * (2 * T + n + 1 - len(form.weight_at))
    lead = [form.bias + w for w in weight_at[T + n:2 * T + n]]
    positive = list(itertools.accumulate(max(0, w) for w in weight_at[:T + n]))  # weight_at[0] is 0
    scheduled = {t - 1 for times in compiled.gate_times for t in times} | {T - 1}
    steps = [t for t in range(T) if t in scheduled or lead[t] + positive[t + n] > -form.scale]
    return weight_at, lead, steps


def random_normalized_circuit(rng, n: int, s: int, L: int) -> ThresholdCircuit:
    """Random circuit already satisfying the normal form, weights in [-2, 2]."""
    layers = []
    for l in range(L):
        preds = n + l * s
        layer = []
        for _ in range(s):
            gate = [Fraction(rng.randint(-RANDOM_WEIGHT_MAX, RANDOM_WEIGHT_MAX)) for _ in range(preds)]
            for i in _dummy_positions(n, s, l):
                gate[i] = Fraction(0)
            layer.append(tuple(gate))
        layers.append(tuple(layer))
    return ThresholdCircuit(n, tuple(layers))


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


def parse_circuit(text: str) -> ThresholdCircuit:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise ValueError("empty circuit file")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError("header must be 'n s L'")
    n, s, L = (parse_int(p, f"circuit header {lines[0]!r}") for p in head)
    gates: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    for ln in lines[1:]:
        try:
            lhs, rhs = ln.split(":", 1)
            l_s, i_s = lhs.split()
            weights = tuple(parse_fraction(p) for p in rhs.split())
        except ValueError:
            raise ValueError(f"malformed gate line: {ln!r}") from None
        l, i = (parse_int(p, f"gate line {ln!r}") for p in (l_s, i_s))
        if not (1 <= l <= L and 1 <= i <= s):
            raise ValueError(f"gate ({l},{i}) outside the declared {L}x{s} grid")
        if (l, i) in gates:
            raise ValueError(f"duplicate gate ({l},{i})")
        expected = n + (l - 1) * s
        if len(weights) != expected:
            raise ValueError(f"gate ({l},{i}) needs {expected} weights, got {len(weights)}")
        gates[(l, i)] = weights
    if len(gates) != L * s:
        raise ValueError(f"expected {L * s} gates, got {len(gates)}")
    layers = tuple(
        tuple(gates[(l, i)] for i in range(1, s + 1)) for l in range(1, L + 1)
    )
    return ThresholdCircuit(n, layers)
