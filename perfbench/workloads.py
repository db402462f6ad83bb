"""The three benchmark workloads, built as lists of jobs from a seed.

A workload is a list of slots. A slot fixes a job kind and its sizes and
owns a small pool of candidate inputs; candidate ``i`` is generated from
a string seed naming the workload, slot and ``i``, so it is the same on
every machine and run. The run seed picks one candidate per slot and the
order of the jobs. Job counts per kind therefore never depend on the
seed, while the inputs do, and every candidate's expected result is
recorded in ``digests.json`` (see ``record.py``).

Slots whose cost swings with the particular input (every LP fit, whose
pivot count depends on the target threshold by up to a factor of 100)
have a pool of one, so that throughput and latency are comparable
across seeds.

Every job calls the library through module attributes at call time
(``learning.pac_trial(...)``, never a name imported by value), which is
what lets ``tracer.py`` see the calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from cotlearn import attention, circomp, cli, lbfamilies, learning, linthresh, seqcore, turing
from cotlearn.seqcore import BINARY, NotRealizableError, TokenSeq

WORKLOADS = ("learn_lookup", "learn_threshold", "verify_long")


class GateError(Exception):
    """A job's output failed the correctness gate."""


def digest(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def require(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


_NO_PHASE = contextlib.nullcontext()


def no_phase(name: str):
    """The phase context of an untraced job: does nothing."""
    return _NO_PHASE


@dataclass
class Job:
    key: str  # names the candidate input, and its recorded digest
    kind: str
    run: Callable  # run(phase) -> result; phase(name) is a context manager
    check: Callable  # check(result) -> payload whose digest must match; raises GateError


@dataclass(frozen=True)
class Slot:
    kind: str
    params: tuple
    pool: int
    copies: int = 1  # times the chosen candidate runs in each round


# ------------------------------------------------------------ learn_lookup

E1_D = 3
E1_SWEEP = (0, 4, 12, 24, 48)
TM_S, TM_T, TM_MAX_INPUT = 3, 10, 4


def _pac_payload(result):
    require(0 <= result.error <= 1 and result.exact_eval, "error out of range or not exact")
    return (f"{result.error.numerator}/{result.error.denominator}", result.m, result.mode)


def _lookup_dist(fam):
    return learning.FiniteUniformPrompts(fam.canonical_points())


def _tm_support():
    return tuple(
        turing.pre(list(bits), TM_S)
        for n in range(TM_MAX_INPUT + 1)
        for bits in itertools.product((0, 1), repeat=n)
    )


def _pac_job(fam, dist, T, mode, m, rng):
    f_star = fam.random_member(rng)
    seed = rng.getrandbits(32)

    def run(phase):
        return learning.pac_trial(fam, f_star, dist, m, T, mode, 200, seed)

    return run, _pac_payload


def build_pac_e1(params, rng, workdir):
    T, mode, m = params
    fam = lbfamilies.E1Family(E1_D, T)
    return _pac_job(fam, _lookup_dist(fam), T, mode, m, rng)


def build_pac_scan(params, rng, workdir):
    name, D, m = params
    if name == "ldim":
        fam, T = lbfamilies.LdimFamily(D), D + 1
    else:
        fam, T = lbfamilies.CollapseFamily(D), 2
    return _pac_job(fam, _lookup_dist(fam), T, "e2e", m, rng)


def build_pac_tm(params, rng, workdir):
    (m,) = params
    fam = turing.TMFamily(TM_S)
    return _pac_job(fam, learning.FiniteUniformPrompts(_tm_support()), TM_T, "cot", m, rng)


# (spec, mode, T) -> the dimension the construction guarantees
_VCDIM = {
    ("e1:D=2,T=2", "base", None): 2,
    ("e1:D=2,T=3", "e2e", 3): 6,
    ("ldim:D=3", "e2e", 4): 3,
    ("collapse:D=3", "e2e", 2): 0,
}


def build_vcdim(params, rng, workdir):
    spec, mode, T = params
    fam = lbfamilies.parse_family_spec(spec)
    pool = lbfamilies.default_pool(fam)

    def run(phase):
        return lbfamilies.vcdim_bruteforce(fam, pool, mode, T)

    def check(dim):
        require(dim == _VCDIM[params], f"dimension {dim} != {_VCDIM[params]}")
        return (dim,)

    return run, check


EXPERIMENT = {"family": "e1:D=3,T=4", "mode": "cot", "sizes": "2,8,32", "trials": 2, "eval_n": 200}
_CSV_FIELDS = ("family", "mode", "T", "m", "trial", "seed", "error", "error_frac", "status")


def build_experiment(params, rng, workdir):
    """One `cotlearn experiment` grid through cli.main, checked against direct trials."""
    seed = rng.getrandbits(32)
    cfg_path = os.path.join(workdir, f"experiment-{seed}.cfg")
    out_path = os.path.join(workdir, f"experiment-{seed}.csv")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        for key, value in EXPERIMENT.items():
            fh.write(f"{key}={value}\n")
        fh.write(f"t={lbfamilies.parse_family_spec(EXPERIMENT['family']).T}\nseed={seed}\nout={out_path}\n")

    def run(phase):
        if os.path.exists(out_path):
            os.remove(out_path)  # the command appends to an existing file
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["experiment", cfg_path])
        with open(out_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        return code, rows

    def check(result):
        code, rows = result
        require(code == 0, f"experiment exited {code}")
        got = tuple(tuple(row[k] for k in _CSV_FIELDS) for row in rows)
        require(got == _direct_experiment_rows(seed), "CSV rows differ from direct pac_trial")
        return got

    return run, check


def _direct_experiment_rows(seed):
    """The rows `experiment` must write, recomputed with learning.pac_trial."""
    fam = lbfamilies.parse_family_spec(EXPERIMENT["family"])
    dist = _lookup_dist(fam)
    rows, index = [], 0
    for m in (int(s) for s in EXPERIMENT["sizes"].split(",")):
        for trial in range(EXPERIMENT["trials"]):
            tseed = learning.trial_seed(seed, index)
            f_star = fam.random_member(random.Random(tseed ^ 0xA5A5A5A5))
            r = learning.pac_trial(fam, f_star, dist, m, fam.T, EXPERIMENT["mode"], EXPERIMENT["eval_n"], tseed)
            rows.append((EXPERIMENT["family"], EXPERIMENT["mode"], str(fam.T), str(m), str(trial), str(tseed),
                         f"{float(r.error):.6f}", f"{r.error.numerator}/{r.error.denominator}", "ok"))
            index += 1
    return tuple(rows)


# --------------------------------------------------------- learn_threshold


def _threshold_records(rng, target, d, m, T):
    seqs = []
    for _ in range(m):
        x = BINARY.seq(rng.randint(0, 1) for _ in range(rng.randint(1, d + 3)))
        seqs.append(seqcore.cot(target, x, T))
    return learning.CoTDataset(tuple(seqs), T)


def _fit_job(data, oracle):
    def run(phase):
        try:
            return "feasible", learning.cons_cot(data, oracle)
        except NotRealizableError:
            return "infeasible", None

    def check(result):
        verdict, f = result
        require(verdict == "feasible", "realizable records reported infeasible")
        pairs = learning.prefix_expand(data).pairs
        require(all(f.next_token(u) == v for u, v in pairs), "learned threshold misfits a pair")
        return verdict, len(pairs), getattr(f, "support", None)

    return run, check


def build_lp_fit(params, rng, workdir):
    d, m, T = params
    target = linthresh.make_threshold([rng.randint(-3, 3) for _ in range(d)], Fraction(rng.randint(-6, 6), 2))
    data = _threshold_records(rng, target, d, m, T)
    return _fit_job(data, lambda pairs: linthresh.cons_lp(pairs, d))


SPARSE_D = 8


def build_sparse_fit(params, rng, workdir):
    k, m, T = params
    fam = linthresh.SparseThresholdFamily(SPARSE_D, k)
    data = _threshold_records(rng, fam.random_member(rng), SPARSE_D, m, T)
    return _fit_job(data, lambda pairs: linthresh.cons_sparse(pairs, SPARSE_D, k))


THRESHOLD_COUNTS = {1: 4, 2: 14, 3: 104}  # OEIS A000609


def build_enumerate(params, rng, workdir):
    (d,) = params

    def run(phase):
        return linthresh.enumerate_threshold_functions(d)

    def check(funcs):
        require(len(funcs) == THRESHOLD_COUNTS[d], f"{len(funcs)} threshold functions for d={d}")
        return d, len(funcs), digest(sorted(funcs))

    return run, check


def build_infeasible(params, rng, workdir):
    """Parity of two window bits over all 2^d points: no threshold fits it."""
    (d,) = params
    i, j = rng.sample(range(d), 2)
    pairs = [(BINARY.seq(p), p[i] ^ p[j]) for p in itertools.product((0, 1), repeat=d)]

    def run(phase):
        try:
            linthresh.cons_lp(pairs, d)
            return "feasible"
        except NotRealizableError:
            return "infeasible"

    def check(verdict):
        require(verdict == "infeasible", "parity reported linearly separable")
        return verdict, len(pairs)

    return run, check


# ------------------------------------------------------------- verify_long


def build_tm_long(params, rng, workdir):
    """Direct simulation, replay generation, and tape reads on every prefix."""
    S, T = params
    spec = turing.TMFamily(S).random_spec(rng, T)
    omega = [rng.randint(0, 1) for _ in range(rng.randint(2, 6))]

    def run(phase):
        with phase("simulate"):
            out, trace = turing.simulate_tm(spec, omega)
        with phase("generate"):
            z = seqcore.cot(turing.TMGenerator(S, spec.table), turing.pre(omega, S), T)
        prefixes = [TokenSeq(z.alphabet, z.tokens[:n]) for n in range(1, len(z) + 1)]
        with phase("read_tape"):
            direct = [turing.read_tape(p) for p in prefixes]
        with phase("attention"):
            fast = [attention.read_tape_attention_fast(p) for p in prefixes]
        return out, trace, z, direct, fast

    def check(result):
        out, trace, z, direct, fast = result
        n0 = len(omega) + 1  # prompt length: begin marker plus input
        require(list(z.tokens[n0:]) == turing.trace_tokens(trace, S), "replay differs from direct simulation")
        require(turing.post(turing.decode_token(S, z.tokens[-1])) == out, "answer differs from direct output")
        require(fast == direct, "attention read differs from direct read")
        for t, step in enumerate(trace.steps):
            state = 1 if t == 0 else trace.steps[t - 1][0]
            require(direct[n0 + t - 1] == (state, step[4]), f"tape read at step {t + 1} differs from the trace")
        return out, digest(z.tokens), digest(direct)

    return run, check


def build_tm_attention(params, rng, workdir):
    """Generation driven through the exact-rational attention tape reader."""
    (T,) = params
    S = 3
    spec = turing.TMFamily(S).random_spec(rng, T)
    omega = [rng.randint(0, 1) for _ in range(rng.randint(2, 6))]
    prompt = turing.pre(omega, S)

    def run(phase):
        with phase("generate"):
            z = seqcore.cot(attention.AttentionTMGenerator(S, spec.table), prompt, T)
        lengths = sorted({len(z) - k * (len(z) // 6) for k in range(6)})
        with phase("sampled_reads"):
            reads = [(n, attention.read_tape_attention(TokenSeq(z.alphabet, z.tokens[:n]))) for n in lengths]
        return z, reads

    def check(result):
        z, reads = result
        ref = seqcore.cot(turing.TMGenerator(S, spec.table), prompt, T)
        require(z.tokens == ref.tokens, "attention generation differs from replay")
        for n, read in reads:
            require(read == turing.read_tape(TokenSeq(z.alphabet, z.tokens[:n])), f"attention read differs at {n}")
        return digest(z.tokens), tuple(reads)

    return run, check


CIRCUIT_GENERATIONS = 2  # inputs per circuit also run through the compiled generator


def build_circuit(params, rng, workdir):
    """Compile, verify exhaustively, and generate with the compiled threshold."""
    n, s, L = params
    circuit = circomp.random_normalized_circuit(rng, n, s, L)

    inputs = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(CIRCUIT_GENERATIONS)]

    def run(phase):
        with phase("compile"):
            compiled = circomp.compile_circuit(circuit)
        with phase("verify"):
            report = circomp.verify_compilation(circuit, compiled)
        with phase("generate"):
            f = compiled.generator()
            runs = [seqcore.cot(f, circomp.feature_map(x, compiled.T), compiled.T) for x in inputs]
        return compiled, report, runs

    def check(result):
        compiled, report, runs = result
        ladder = n * (s + 1) ** L
        require(report.ok and not report.failures and report.inputs_checked == 2 ** n, report.summary())
        require((compiled.T, compiled.d) == (ladder - n, 2 * ladder - n - 1), "compiled size off the ladder")
        for x, z in zip(inputs, runs):
            values = circomp.eval_circuit_values(circuit, x)
            emitted = z.tokens[-compiled.T:]
            for layer, times in zip(values, compiled.gate_times):
                require(all(emitted[t - 1] == v for t, v in zip(times, layer)), f"gate value differs on {x}")
            require(sum(emitted) == sum(map(sum, values)), f"off-schedule 1 emitted on {x}")
        return report.summary(), digest(compiled.w), digest([z.tokens for z in runs])

    return run, check


THR_D = 5


def build_thr_long(params, rng, workdir):
    """Long generation by a window-5 threshold, checked by an independent recurrence."""
    (T,) = params
    weights = [Fraction(rng.randint(-3, 3)) for _ in range(THR_D)]
    bias = Fraction(rng.randint(-6, 6), 2)
    f = linthresh.make_threshold(weights, bias)
    prompt = BINARY.seq(rng.randint(0, 1) for _ in range(rng.randint(1, 8)))

    def run(phase):
        return seqcore.cot(f, prompt, T)

    def check(z):
        seq = list(prompt.tokens)
        for _ in range(T):
            acc = bias + sum(w for w, x in zip(reversed(weights), reversed(seq)) if x)
            seq.append(1 if acc >= 0 else 0)
        require(list(z.tokens) == seq, "generation differs from the direct recurrence")
        return digest(z.tokens)

    return run, check


# ----------------------------------------------------------------- slots

BUILDERS = {
    "pac_e1": build_pac_e1,
    "pac_scan": build_pac_scan,
    "pac_tm": build_pac_tm,
    "vcdim": build_vcdim,
    "experiment": build_experiment,
    "lp_fit": build_lp_fit,
    "sparse_fit": build_sparse_fit,
    "enumerate": build_enumerate,
    "infeasible": build_infeasible,
    "tm_long": build_tm_long,
    "tm_attention": build_tm_attention,
    "circuit": build_circuit,
    "thr_long": build_thr_long,
}


def _slots(workload: str) -> list[Slot]:
    # Pools of one where a job's cost depends strongly on the particular
    # input (LP pivots, member-scan position, the attention generator's tape
    # traffic, circuit data), pools of four where the job's sizes set it.
    # Each workload has a number of jobs per round ending in 5, so that the
    # 50th and 90th percentiles fall mid-way through one job's samples
    # rather than on the step between two jobs of different cost; where
    # they fall, a few jobs of equal cost make a plateau.
    if workload == "learn_lookup":  # 55 jobs
        return (
            [Slot("pac_e1", (T, mode, m), 4) for T in (2, 4, 8) for mode in ("cot", "e2e") for m in E1_SWEEP]
            + [Slot("pac_scan", (name, D, m), 4 if D < 6 else 1)
               for name, D in (("ldim", 4), ("ldim", 6), ("ldim", 8), ("collapse", 6), ("collapse", 10))
               for m in (4, 16)]
            + [Slot("pac_tm", (m,), 4) for m in (30, 40, 50, 60, 70) for _ in range(2)]
            + [Slot("vcdim", key, 1) for key in _VCDIM]
            + [Slot("experiment", (), 4)]
        )
    if workload == "learn_threshold":  # 25 jobs
        return (
            [Slot("lp_fit", (6, 40, 8), 1, copies=4)]
            + [Slot("lp_fit", size, 1) for size in ((7, 5, 4), (5, 40, 8), (4, 20, 4), (3, 20, 4))]
            + [Slot("lp_fit", size, 1) for size in ((2, 5, 4), (3, 5, 4)) for _ in range(2)]
            + [Slot("sparse_fit", (2, 20, 4), 2)]
            + [Slot("enumerate", (1,), 1), Slot("enumerate", (2,), 1, copies=9), Slot("enumerate", (3,), 1)]
            + [Slot("infeasible", (4,), 4)]
        )
    if workload == "verify_long":  # 35 jobs: 14 below the 7 threshold runs at T=1500, 14 above
        return (
            [Slot("tm_long", (S, T), 4) for S in (2, 3, 4) for T in (100, 200, 300, 500)]
            + [Slot("tm_attention", (T,), 1) for T in (20, 20, 20, 40, 40, 40, 50, 50)]
            + [Slot("circuit", size, 4) for size in ((4, 2, 2), (6, 2, 2))]
            + [Slot("circuit", (8, 2, 2), 1, copies=3), Slot("circuit", (8, 2, 3), 1)]
            + [Slot("thr_long", (T,), 4) for T in (1500,) * 7 + (2000, 4000)]
        )
    raise ValueError(f"unknown workload {workload!r}")


def candidate(workload: str, slot_index: int, slot: Slot, i: int, workdir: str) -> Job:
    key = f"{slot_index}:{slot.kind}{slot.params}#{i}"
    rng = random.Random(f"{workload}/{key}")
    run, check = BUILDERS[slot.kind](slot.params, rng, workdir)
    return Job(key, slot.kind, run, check)


def all_candidates(workload: str, workdir: str) -> list[Job]:
    return [
        candidate(workload, si, slot, i, workdir)
        for si, slot in enumerate(_slots(workload))
        for i in range(slot.pool)
    ]


def build_round(workload: str, seed: int, workdir: str) -> list[Job]:
    """One round of jobs: a seeded candidate per slot, in a seeded order."""
    rng = random.Random(seed)
    jobs = []
    for si, slot in enumerate(_slots(workload)):
        jobs += [candidate(workload, si, slot, rng.randrange(slot.pool), workdir)] * slot.copies
    rng.shuffle(jobs)
    return jobs
