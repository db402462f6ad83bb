"""Command-line front end: generation, learning, circuit compilation,
machine simulation, dimension estimates, and experiment grids.

Exit codes: 0 success, 1 invariant or verification failure, 2 input
error. Worker count for experiment grids comes from COTLEARN_WORKERS.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import os
import random
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import circomp, lbfamilies, linthresh, turing
from .learning import (
    EXACT_EVAL_SUPPORT,
    BitStringPrompts,
    FiniteUniformPrompts,
    PromptDist,
    cons_cot,
    cons_e2e,
    load_cot_dataset,
    load_e2e_dataset,
    pac_trial,
    trial_seed,
)
from .seqcore import BINARY, NotRealizableError, check_horizon, cot, parse_int

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
MAX_PROMPT_BITS = 64
# Experiment grids are built up front, one job per (size, trial), and a
# trial holds m sampled prompts and eval_n evaluation prompts in memory.
EXPERIMENT_MAX_M = 1 << 16
EXPERIMENT_MAX_TRIALS = 1 << 12
EXPERIMENT_MAX_JOBS = 1 << 16
EXPERIMENT_MAX_EVAL_N = 1 << 16


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------- generate


def cmd_generate(args) -> int:
    if args.kind == "tm" and args.prompt is not None:
        raise ValueError("--prompt does not apply to --kind tm; give the machine's input with --input")
    if args.kind == "threshold" and args.input is not None:
        raise ValueError("--input does not apply to --kind threshold; give the prompt with --prompt")
    if args.kind == "tm":
        spec = turing.parse_tm(_read(args.file))
        omega = _parse_bits(args.input if args.input is not None else "")
        prompt = turing.pre(omega, spec.S)
        f = turing.TMGenerator(spec.S, spec.table)
    else:
        f = linthresh.parse_threshold(_read(args.file).strip())
        prompt = BINARY.parse_seq(args.prompt or "")
    out = cot(f, prompt, args.T)
    print(out.render())
    return EXIT_OK


def _parse_bits(text: str) -> list[int]:
    text = text.strip()
    if any(ch not in "01" for ch in text):
        raise ValueError(f"input must be a bit string, got {text!r}")
    return [int(ch) for ch in text]


# ------------------------------------------------------------------- learn


def _check_out_path(path: str) -> None:
    """Refuse an output path that cannot be a file, before any work is done."""
    if os.path.isdir(path):
        raise ValueError(f"output path {path} is a directory")
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise ValueError(f"output directory {folder} does not exist")


def _serialize_generator(f, T: int) -> str:
    if isinstance(f, linthresh.LinearThreshold):
        return linthresh.format_threshold(f) + "\n"
    if isinstance(f, linthresh.SparseLinearThreshold):
        return linthresh.format_threshold(f.to_dense()) + "\n"
    if isinstance(f, turing.TMGenerator):
        return turing.format_tm(turing.TMSpec(f.S, T, f.table))
    if isinstance(f, lbfamilies.LookupGenerator):
        return "b=" + "".join(str(bit) for bit in f.b) + "\n"
    raise RuntimeError(f"no file format for a {type(f).__name__}")


def _horizon(args, fam) -> int:
    """--T when given, else the family's own T."""
    T = args.T if args.T is not None else getattr(fam, "T", None)
    if T is None:
        raise ValueError("this family needs an explicit --T")
    return T


def cmd_learn(args) -> int:
    if args.out:
        _check_out_path(args.out)
    fam = lbfamilies.parse_family_spec(args.family)
    T = _horizon(args, fam)
    load = load_cot_dataset if args.mode == "cot" else load_e2e_dataset
    data = load(args.data, fam.alphabet, T)
    if not len(data):
        raise ValueError(f"dataset {args.data} holds no examples")
    if args.mode == "cot":
        learned = cons_cot(data, fam.cons_oracle())
    else:
        learned = cons_e2e(data, fam)
    text = _serialize_generator(learned, T)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text.rstrip("\n"))
    return EXIT_OK


# --------------------------------------------------------- compile-circuit


def cmd_compile_circuit(args) -> int:
    if args.out:
        _check_out_path(args.out)
    circuit = circomp.parse_circuit(_read(args.circuit))
    normalized = circomp.normalize_circuit(circuit)
    compiled = circomp.compile_circuit(normalized)

    if args.compiled:
        if linthresh.parse_threshold(_read(args.compiled).strip()) != compiled.generator():
            print("compiled file does not match this circuit", file=sys.stderr)
            return EXIT_FAIL

    # Verify before writing or printing anything, so a refused verification leaves no output.
    report = circomp.verify_compilation(normalized, compiled) if args.verify else None

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(linthresh.format_threshold(compiled.generator()) + "\n")

    print(f"compiled: T={compiled.T} d={compiled.d} (from n={normalized.n}, s={normalized.width}, L={normalized.depth})")

    if report is not None:
        print(report.summary())
        if not report.ok:
            for failure in report.failures[:10]:
                print(f"  x={failure.x} step={failure.step} {failure.kind}: {failure.detail}")
            return EXIT_FAIL
    return EXIT_OK


# --------------------------------------------------------------- simulate-tm


def cmd_simulate_tm(args) -> int:
    if args.check and args.via is not None:
        raise ValueError("--via does not apply to --check, which runs all three routes")
    if args.check and args.trace:
        raise ValueError("--trace does not apply to --check, which prints only the agreed answer")
    spec = turing.parse_tm(_read(args.machine))
    omega = _parse_bits(args.input if args.input is not None else "")

    def run(via: str) -> int:
        if via == "direct":
            out, _ = turing.simulate_tm(spec, omega)
            return out
        prompt = turing.pre(omega, spec.S)
        if via == "autoregressive":
            f = turing.TMGenerator(spec.S, spec.table)
        else:
            from .attention import AttentionTMGenerator

            f = AttentionTMGenerator(spec.S, spec.table)
        z = cot(f, prompt, spec.T)
        return turing.post(turing.decode_token(spec.S, z.tokens[-1]))

    if args.check:
        results = {via: run(via) for via in ("direct", "autoregressive", "attention")}
        if len(set(results.values())) != 1:
            print(f"disagreement: {results}", file=sys.stderr)
            return EXIT_FAIL
        print(results["direct"])
        return EXIT_OK

    print(run(args.via or "direct"))
    if args.trace:
        _, trace = turing.simulate_tm(spec, omega)
        print(f"# s0={trace.s0} p0={trace.p0}")
        for t, (s, a, b, p, r) in enumerate(trace.steps, start=1):
            print(f"# t={t} read={r} -> state={s} write={a} move={b:+d} head={p}")
    return EXIT_OK


# -------------------------------------------------------------------- vcdim


def cmd_vcdim(args) -> int:
    if args.mode == "base" and args.T is not None:
        raise ValueError("--T does not apply to --mode base; only the e2e dimension has a horizon")
    fam = lbfamilies.parse_family_spec(args.family)
    pool = lbfamilies.default_pool(fam)
    T = _horizon(args, fam) if args.mode == "e2e" else None
    print(lbfamilies.vcdim_bruteforce(fam, pool, args.mode, T))
    return EXIT_OK


# --------------------------------------------------------------- experiment


_CONFIG_KEYS = {"family", "mode", "t", "sizes", "trials", "seed", "eval_n", "out", "input_len"}


def _parse_config(text: str) -> dict:
    cfg: dict = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if not value or key not in _CONFIG_KEYS:
            raise ValueError(f"bad config line {raw!r}")
        if key in cfg:
            raise ValueError(f"config key {key!r} given twice")
        cfg[key] = value.strip()
    for required in ("family", "mode", "t", "sizes", "trials", "seed", "out"):
        if required not in cfg:
            raise ValueError(f"config is missing {required}=")
    cfg.setdefault("eval_n", "200")
    for key in ("t", "trials", "seed", "eval_n", "input_len"):
        if key in cfg:
            cfg[key] = parse_int(cfg[key], f"config key {key!r}")
    sizes = cfg["sizes"] = [parse_int(p, "config key 'sizes'") for p in cfg["sizes"].split(",")]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    if sizes[0] < 0:
        raise ValueError("sizes must be nonnegative")
    if sizes[-1] > EXPERIMENT_MAX_M:
        raise ValueError(f"sizes must be at most {EXPERIMENT_MAX_M}")
    if not 1 <= cfg["trials"] <= EXPERIMENT_MAX_TRIALS:
        raise ValueError(f"trials must be between 1 and {EXPERIMENT_MAX_TRIALS}")
    if len(sizes) * cfg["trials"] > EXPERIMENT_MAX_JOBS:
        raise ValueError(f"sizes times trials must be at most {EXPERIMENT_MAX_JOBS} jobs")
    check_horizon(cfg["t"])
    if cfg["mode"] not in ("cot", "e2e"):
        raise ValueError("mode must be cot or e2e")
    if not 1 <= cfg["eval_n"] <= EXPERIMENT_MAX_EVAL_N:
        raise ValueError(f"eval_n must be between 1 and {EXPERIMENT_MAX_EVAL_N}")
    if cfg.get("input_len", 0) < 0:
        raise ValueError("input_len must be nonnegative")
    return cfg


def _experiment_dist(fam, input_len: int | None) -> PromptDist:
    """The prompts of a trial: a lookup family's canonical points, else the
    inputs of up to ``input_len`` bits (default 4)."""
    if isinstance(fam, lbfamilies.LookupFamily):
        if input_len is not None:
            raise ValueError("input_len does not apply to a lookup family: its prompts are its canonical points")
        return FiniteUniformPrompts(fam.canonical_points())
    if input_len is None:
        input_len = 4
    if input_len > MAX_PROMPT_BITS:
        raise ValueError(f"input_len must be at most {MAX_PROMPT_BITS}")
    if isinstance(fam, turing.TMFamily):
        total = (2 << input_len) - 1
        if total > EXACT_EVAL_SUPPORT:
            raise ValueError(
                f"input_len={input_len} gives {total} machine prompts, "
                f"above the exact-evaluation limit {EXACT_EVAL_SUPPORT}"
            )
        bit_strings = BitStringPrompts(0, input_len).support()
        return FiniteUniformPrompts(tuple(turing.pre(x.tokens, fam.S) for x in bit_strings))
    if input_len < 1:
        raise ValueError("input_len must be at least 1: threshold prompts hold 1 to input_len bits")
    return BitStringPrompts(1, input_len)


def _run_trial(packed):
    family, f_star, dist, m, T, mode, eval_n, seed = packed
    t0 = time.perf_counter()
    try:
        error, status = pac_trial(family, f_star, dist, m, T, mode, eval_n, seed).error, "ok"
    except ValueError as exc:
        error, status = None, f"failed:{type(exc).__name__}"
    return error, (time.perf_counter() - t0) * 1000.0, status


def _requested_workers() -> int:
    """COTLEARN_WORKERS as a positive integer; unset means 1, serial."""
    text = os.environ.get("COTLEARN_WORKERS", "1")
    workers = parse_int(text, "COTLEARN_WORKERS")
    if workers < 1:
        raise ValueError(f"COTLEARN_WORKERS must be a positive integer, got {text!r}")
    return workers


def cmd_experiment(args) -> int:
    cfg = _parse_config(_read(args.config))
    _check_out_path(cfg["out"])
    requested = _requested_workers()
    fam = lbfamilies.parse_family_spec(cfg["family"])
    T = cfg["t"]
    dist = _experiment_dist(fam, cfg.get("input_len"))

    jobs = []
    for index, (m, trial) in enumerate(itertools.product(cfg["sizes"], range(cfg["trials"]))):
        seed = trial_seed(cfg["seed"], index)
        f_star = fam.random_member(random.Random(seed ^ 0xA5A5A5A5))
        jobs.append((m, trial, seed, (fam, f_star, dist, m, T, cfg["mode"], cfg["eval_n"], seed)))

    # A fork-based pool starts every worker up front, so never ask for more
    # than there are jobs or CPUs.
    workers = min(requested, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_trial, [packed for (_, _, _, packed) in jobs]))
    else:
        outcomes = [_run_trial(packed) for (_, _, _, packed) in jobs]

    fieldnames = ["family", "mode", "T", "m", "trial", "seed", "error", "error_frac", "wall_ms", "status"]
    rows = [
        dict(zip(fieldnames, (
            cfg["family"], cfg["mode"], T, m, trial, seed,
            f"{float(error):.6f}" if error is not None else "",
            f"{error.numerator}/{error.denominator}" if error is not None else "",
            f"{wall_ms:.3f}", status,
        )))
        for (m, trial, seed, _), (error, wall_ms, status) in zip(jobs, outcomes)
    ]
    new_file = not os.path.exists(cfg["out"])
    with open(cfg["out"], "a", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        if new_file:
            writer.writeheader()
        writer.writerows(rows)

    for m in cfg["sizes"]:
        errs = [float(r["error"]) for r in rows if r["m"] == m and r["status"] == "ok"]
        if errs:
            print(f"m={m}: median error {statistics.median(errs):.6f} over {len(errs)} trials")
        else:
            print(f"m={m}: no successful trials")
    return EXIT_OK


# --------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cotlearn")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="print the T-step generation of a stored generator")
    p.add_argument("file", help="generator file (machine or threshold format)")
    p.add_argument("--kind", choices=("tm", "threshold"), required=True)
    p.add_argument("--input", help="bit string fed through the input map (tm kind)")
    p.add_argument("--prompt", help="comma-separated prompt tokens (threshold kind)")
    p.add_argument("--T", type=int, required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("learn", help="fit a family member to a dataset file")
    p.add_argument("--family", required=True, help="e1:D=2,T=4 | ldim:D=3 | collapse:D=4 | tm:S=3 | linthresh:d=4 | sparse:d=8,k=1")
    p.add_argument("--mode", choices=("cot", "e2e"), required=True)
    p.add_argument("--T", type=int)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("compile-circuit", help="embed a circuit into one iterated threshold")
    p.add_argument("circuit")
    p.add_argument("--out")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--compiled", help="verify this existing compiled file against the circuit")
    p.set_defaults(func=cmd_compile_circuit)

    p = sub.add_parser("simulate-tm", help="run a machine directly, autoregressively, or via attention")
    p.add_argument("machine")
    p.add_argument("--input", required=True)
    p.add_argument("--via", choices=("direct", "autoregressive", "attention"), help="route to run (default: direct)")
    p.add_argument("--check", action="store_true", help="run all three routes and compare")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_simulate_tm)

    p = sub.add_parser("vcdim", help="brute-force a family dimension on its default pool")
    p.add_argument("--family", required=True)
    p.add_argument("--mode", choices=("base", "e2e"), default="base")
    p.add_argument("--T", type=int)
    p.set_defaults(func=cmd_vcdim)

    p = sub.add_parser("experiment", help="run a learning-curve grid from a key=value config")
    p.add_argument("config")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    """Run one command; the only place that turns exceptions into exit codes."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotRealizableError as exc:
        return _fail(f"not realizable: {exc}", EXIT_FAIL)
    except RuntimeError as exc:
        return _fail(f"internal fault: {exc}", EXIT_FAIL)
    except (ValueError, OSError) as exc:
        return _fail(str(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
