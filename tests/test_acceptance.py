"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as
they complete; the suite is deterministic (all randomness is seeded).
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
import time
from fractions import Fraction

from cotlearn.seqcore import BINARY, NotRealizableError, TokenSeq, cot, e2e
from cotlearn.attention import read_tape_attention_all, read_tape_attention_fast
from cotlearn.circomp import (
    compile_circuit,
    random_normalized_circuit,
    verify_compilation,
)
from cotlearn.learning import (
    CoTDataset,
    FiniteUniformPrompts,
    LabelledSupport,
    cons_cot,
    pac_trial,
    prefix_expand,
    trial_seed,
)
from cotlearn.lbfamilies import (
    default_pool,
    growth_count,
    CollapseFamily,
    E1Family,
    LdimFamily,
    vcdim_bruteforce,
)
from cotlearn.linthresh import (
    cons_lp,
    enumerate_threshold_functions,
    make_threshold,
)
from cotlearn.turing import (
    TMFamily,
    TMGenerator,
    post,
    pre,
    read_tape,
    decode_token,
    trace_tokens,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {number} {status}: {name}{suffix}", flush=True)
    assert ok, f"criterion {number} failed: {name} {suffix}"


def test_criterion_1_machine_expressivity(tm_corpus):
    """All machine runs replayed autoregressively with exact trace alignment."""
    mismatches = 0
    machines = set()
    for run in tm_corpus:
        machines.add((run.spec.S, run.spec.T, run.spec.table))
        S = run.spec.S
        generated = list(run.generated.tokens[len(run.omega) + 1:])
        if generated != trace_tokens(run.trace, S):
            mismatches += 1
            continue
        if post(decode_token(S, run.generated.tokens[-1])) != run.output:
            mismatches += 1
    report(
        1,
        "autoregressive replay equals direct simulation",
        mismatches == 0 and len(machines) >= 200,
        f"{len(machines)} machines, {len(tm_corpus)} runs, {mismatches} mismatches",
    )


def test_criterion_2_attention_equivalence(tm_corpus):
    """Attention tape reading equals the direct subroutine on every prefix."""
    fast_mismatches = 0
    generic_mismatches = 0
    prefixes = 0
    generic_checked = 0
    for idx, run in enumerate(tm_corpus):
        z = run.generated
        alphabet = z.alphabet
        # every 17th run: one causal attention pass over the whole history,
        # whose entry N - 1 is the exact-rational read of the length-N prefix
        generic = read_tape_attention_all(z) if idx % 17 == 0 else None
        for N in range(1, len(z) + 1):
            prefix = TokenSeq(alphabet, z.tokens[:N])
            expected = read_tape(prefix)
            prefixes += 1
            if read_tape_attention_fast(prefix) != expected:
                fast_mismatches += 1
            if generic is not None:
                generic_checked += 1
                if generic[N - 1] != expected:
                    generic_mismatches += 1
    report(
        2,
        "attention pipeline equals direct tape reading on every prefix",
        fast_mismatches == 0 and generic_mismatches == 0,
        f"{prefixes} prefixes via the integer route, {generic_checked} re-checked with exact rationals",
    )


def test_criterion_3_circuit_compiler():
    """100 random normalized circuits verified exhaustively with size bounds."""
    rng = random.Random(30303)
    failures = 0
    bound_violations = 0
    for _ in range(100):
        n = rng.randint(1, 4)
        s = rng.randint(1, 3)
        L = rng.randint(1, 2)
        circuit = random_normalized_circuit(rng, n, s, L)
        compiled = compile_circuit(circuit)
        if compiled.T > (s + 2) ** L * (n + 1) or compiled.d > 2 * (s + 2) ** L * (n + 1):
            bound_violations += 1
        rep = verify_compilation(circuit, compiled)
        if not rep.ok:
            failures += 1
    report(
        3,
        "compiled thresholds reproduce circuits exhaustively",
        failures == 0 and bound_violations == 0,
        f"100 circuits, {failures} verification failures, {bound_violations} size-bound violations",
    )


def test_criterion_4_family_dimensions():
    """Brute-forced base and answer-map dimensions match the constructions."""
    checks = []
    for D, T in ((1, 2), (2, 2), (2, 3)):
        fam = E1Family(D, T)
        pool = default_pool(fam)
        checks.append(vcdim_bruteforce(fam, pool, "base") == D)
        checks.append(vcdim_bruteforce(fam, pool, "e2e", T) == D * T)
    for D in (2, 3):
        fam = CollapseFamily(D)
        pool = default_pool(fam)
        checks.append(vcdim_bruteforce(fam, pool, "base") == D)
        checks.append(vcdim_bruteforce(fam, pool, "e2e", 2) == 0)
    for D in (2, 3):
        fam = LdimFamily(D)
        pool = default_pool(fam)
        checks.append(vcdim_bruteforce(fam, pool, "base") == 1)
        checks.append(vcdim_bruteforce(fam, pool, "e2e", D + 1) == D)
    report(
        4,
        "explicit family dimensions match exactly",
        all(checks),
        f"{sum(checks)}/{len(checks)} integer equalities",
    )


def _samples_to_zero(family, mode: str, T: int, seed: int, m_cap: int = 2000) -> int:
    rng = random.Random(seed)
    f_star = family.random_member(rng)
    dist = FiniteUniformPrompts(family.canonical_points())
    labels = LabelledSupport(f_star, T)
    for m in range(m_cap + 1):
        result = pac_trial(family, f_star, dist, m, T, mode, eval_n=200, seed=trial_seed(seed, m), labels=labels)
        if result.error == 0:
            return m
    return m_cap


def test_criterion_5_sample_complexity_separation():
    """Answer-only learning needs ever more samples as T grows; full-record
    supervision stays nearly flat. Medians over 400 seeded runs."""
    seeds = range(400)
    medians: dict[tuple[str, int], float] = {}
    for mode in ("e2e", "cot"):
        for T in (2, 4, 8):
            fam = E1Family(3, T)
            values = [_samples_to_zero(fam, mode, T, seed) for seed in seeds]
            medians[(mode, T)] = statistics.median(values)
    e2e_meds = [medians[("e2e", T)] for T in (2, 4, 8)]
    cot_meds = [medians[("cot", T)] for T in (2, 4, 8)]
    ok = (
        e2e_meds[0] <= e2e_meds[1] <= e2e_meds[2]
        and e2e_meds[2] >= 2 * e2e_meds[0]
        and cot_meds[2] <= 2 * cot_meds[0]
    )
    report(
        5,
        "supervision separation at the stated thresholds",
        ok,
        f"e2e medians {e2e_meds}, cot medians {cot_meds}",
    )


def _machine_run_error(fam, spec, data, support):
    """Exact answer-token error of the learned table over the support."""
    learned = cons_cot(data, fam.cons_oracle())
    gen = TMGenerator(spec.S, spec.table)
    wrong = 0
    for x in support:
        if e2e(learned, x, spec.T) != e2e(gen, x, spec.T):
            wrong += 1
    return Fraction(wrong, len(support)), learned


def test_criterion_6_tm_cot_learning():
    """Coverage of reachable table entries forces zero error; learner time
    is linear in the total prefix length."""
    S, T, m = 3, 10, 60
    rng = random.Random(60606)
    fam = TMFamily(S)
    max_input = 4
    support = tuple(
        pre(list(bits), S)
        for n in range(max_input + 1)
        for bits in itertools.product((0, 1), repeat=n)
    )
    covered_trials = 0
    implication_violations = 0
    trials = 25
    for _ in range(trials):
        spec = fam.random_spec(rng, T)
        gen = TMGenerator(spec.S, spec.table)
        prompts = [support[rng.randrange(len(support))] for _ in range(m)]
        data = CoTDataset(tuple(cot(gen, x, T) for x in prompts), T)
        pinned = {read_tape(u) for u, _ in prefix_expand(data).pairs}
        reachable = set()
        for x in support:
            z = cot(gen, x, T)
            for N in range(len(x), len(z)):
                reachable.add(read_tape(TokenSeq(z.alphabet, z.tokens[:N])))
        error, _ = _machine_run_error(fam, spec, data, support)
        if reachable <= pinned:
            covered_trials += 1
            if error != 0:
                implication_violations += 1

    # runtime scaling: total prefix length versus learner wall time
    spec = fam.random_spec(rng, T)
    gen = TMGenerator(spec.S, spec.table)
    xs, ys = [], []
    for scale in (40, 80, 160, 320, 640):
        prompts = [support[rng.randrange(len(support))] for _ in range(scale)]
        data = CoTDataset(tuple(cot(gen, x, T) for x in prompts), T)
        total_len = sum(len(u) for u, _ in prefix_expand(data).pairs)
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            cons_cot(data, fam.cons_oracle())
            times.append(time.perf_counter() - t0)
        xs.append(total_len)
        ys.append(statistics.median(times))
    r2 = _linear_fit_r2(xs, ys)
    ok = implication_violations == 0 and covered_trials >= 5 and r2 >= 0.95
    report(
        6,
        "table memorization: coverage implies zero error, linear runtime",
        ok,
        f"{covered_trials}/{trials} covered trials, {implication_violations} violations, fit R2={r2:.4f}",
    )


def _linear_fit_r2(xs, ys) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    return 1.0 - ss_res / ss_tot


def test_criterion_7_lp_consistency():
    """Random realizable threshold generations always fit; XOR never does."""
    rng = random.Random(70707)
    failures = 0
    for _ in range(100):
        d = rng.randint(1, 6)
        T = rng.randint(2, 8)
        m = rng.randint(1, 20)
        target = make_threshold(
            [rng.randint(-3, 3) for _ in range(d)], Fraction(rng.randint(-6, 6), 2)
        )
        seqs = []
        for _ in range(m):
            n = rng.randint(1, d + 3)
            x = BINARY.seq(rng.randint(0, 1) for _ in range(n))
            seqs.append(cot(target, x, T))
        data = CoTDataset(tuple(seqs), T)
        try:
            learned = cons_cot(data, lambda pairs, d=d: cons_lp(pairs, d))
        except NotRealizableError:
            failures += 1
            continue
        if any(learned.next_token(u) != v for u, v in prefix_expand(data).pairs):
            failures += 1

    xor_pairs = [(BINARY.seq([a, b]), a ^ b) for a in (0, 1) for b in (0, 1)]
    xor_infeasible = False
    try:
        cons_lp(xor_pairs, 2)
    except NotRealizableError:
        xor_infeasible = True
    report(
        7,
        "LP consistency on realizable data, infeasibility on XOR",
        failures == 0 and xor_infeasible,
        f"100 datasets, {failures} failures, xor_infeasible={xor_infeasible}",
    )


def test_criterion_8_growth_sanity():
    """Loss-class behaviors bounded by base growth; threshold count bounded."""
    fam = E1Family(2, 2)
    rng = random.Random(80808)
    pts = fam.canonical_points()
    violations = 0
    for _ in range(20):
        f_star = fam.random_member(rng)
        prompts = [pts[rng.randrange(len(pts))] for _ in range(3)]
        records = CoTDataset(tuple(cot(f_star, x, 2) for x in prompts), 2)
        prefixes = [u for u, _ in prefix_expand(records).pairs]
        lhs = growth_count(fam, records.seqs, "cot", 2)
        rhs = growth_count(fam, prefixes, "base")
        if lhs > rhs:
            violations += 1

    counts = {d: len(enumerate_threshold_functions(d)) for d in (1, 2, 3)}
    bound_ok = all(
        counts[d] <= (2 * math.e * 2**d) ** (d + 1) for d in (1, 2, 3)
    )
    report(
        8,
        "growth-function and cardinality bounds hold",
        violations == 0 and bound_ok and counts == {1: 4, 2: 14, 3: 104},
        f"loss-class violations {violations}, threshold counts {counts}",
    )
