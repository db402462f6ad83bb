"""Tracing from outside the library: wrap module attributes, record spans and counts.

Nothing under ``src/`` knows about this file. ``Tracer.install`` swaps each
instrumented function or method for a wrapper and ``uninstall`` puts the
originals back. A function that another module imported by value (for
example ``learning.cot`` or ``cli.pac_trial``) is swapped in every
namespace that holds it, so the call is seen whichever name it goes
through.

Boundaries come in two kinds:

* span boundaries (jobs, phases, and coarse library calls such as
  ``cons_lp`` or ``verify_compilation``) record one span each, with a
  parent id, kept in memory and written out by ``write_spans``;
* aggregate boundaries (per-token calls such as ``next_token``, ``cot``,
  ``read_tape``) only add to a call count and a self time.

Self time is a boundary's duration minus the time of the boundaries
called inside it, so every second of a traced job is charged to exactly
one boundary: the innermost one that was running.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from functools import wraps

from cotlearn import (
    attention,
    circomp,
    cli,
    lbfamilies,
    learning,
    linthresh,
    seqcore,
    simplex,
    turing,
)

MODULES = (
    "seqcore", "learning", "lbfamilies", "turing", "attention",
    "simplex", "linthresh", "circomp", "cli",
)

# Boundaries whose loops iterate LookupFamily.members(): members yielded
# inside them are counted as scanned by a consistency search.
_SEARCHES = ("seqcore.find_e2e", "lbfamilies.oracle")


class _Frame:
    __slots__ = ("name", "t0", "child", "span_id", "scanned")

    def __init__(self, name, t0, span_id):
        self.name = name
        self.t0 = t0
        self.child = 0.0
        self.span_id = span_id
        self.scanned = 0


class Tracer:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.calls = Counter()
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.solve_ms: list[float] = []
        self.spans: list[tuple] = []
        self.job_id = None
        self.f_stars: list = []
        self._saved: list[tuple] = []

    # -------------------------------------------------------------- frames

    def enter(self, name: str, span: bool) -> _Frame:
        span_id = None
        if span:
            span_id = len(self.spans)
            parent = next((f.span_id for f in reversed(self.stack) if f.span_id is not None), None)
            self.spans.append([span_id, parent, self.job_id, name, 0.0, 0.0])
        frame = _Frame(name, time.perf_counter(), span_id)
        self.stack.append(frame)
        if span:
            self.spans[span_id][4] = frame.t0
        return frame

    def leave(self, frame: _Frame) -> float:
        t1 = time.perf_counter()
        popped = self.stack.pop()
        assert popped is frame, "tracer frames must nest"
        dur = t1 - frame.t0
        self.calls[frame.name] += 1
        self.self_time[frame.name] += dur - frame.child
        if self.stack:
            self.stack[-1].child += dur
        if frame.span_id is not None:
            self.spans[frame.span_id][5] = t1
        return dur

    def parent_name(self) -> str | None:
        return self.stack[-1].name if self.stack else None

    def span(self, name: str):
        """Context manager for a benchmark-level span (a job or a phase)."""
        return _SpanContext(self, name)

    # ----------------------------------------------------------- wrapping

    def wrap(self, name, fn, span=False, before=None, after=None):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(tracer, args) or args
            frame = tracer.enter(name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.leave(frame)
            if after is not None:
                after(tracer, frame, dur, result, args)
            return result

        return wrapper

    def _patch(self, owner, attr, new):
        # Classes are patched only where they define the attribute themselves,
        # so putting the saved value back restores them exactly.
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Swap every instrumented attribute for its traced wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        patch = self._patch
        c = self.counts

        # seqcore: generation and the generic member scan
        def after_cot(t, frame, dur, result, args):
            c["seqcore.cot.tokens_out"] += args[2]

        cot = self.wrap("seqcore.cot", seqcore.cot, after=after_cot)
        e2e = self.wrap("seqcore.e2e", seqcore.e2e)
        for mod in (seqcore, learning, lbfamilies, cli):
            patch(mod, "cot", cot)
        for mod in (seqcore, lbfamilies):
            patch(mod, "e2e", e2e)

        def learning_e2e(f, x, T):
            key = "learning.e2e.f_star_calls" if self.f_stars and f is self.f_stars[-1] else "learning.e2e.learned_calls"
            c[key] += 1
            return e2e(f, x, T)

        patch(learning, "e2e", learning_e2e)

        def after_search(t, frame, dur, result, args):
            if result is not None and frame.scanned:
                c["lbfamilies.members.hits"] += 1
                c["lbfamilies.members.hit_scanned"] += frame.scanned

        patch(seqcore.GeneratorFamily, "find_e2e_consistent",
              self.wrap("seqcore.find_e2e", seqcore.GeneratorFamily.find_e2e_consistent, after=after_search))

        # learning: the trial harness and the full-record learner
        pac = self.wrap("learning.pac_trial", learning.pac_trial, span=True)

        @wraps(learning.pac_trial)
        def pac_trial(family, f_star, *args, **kwargs):
            self.f_stars.append(f_star)
            try:
                return pac(family, f_star, *args, **kwargs)
            finally:
                self.f_stars.pop()

        patch(learning, "pac_trial", pac_trial)

        def cli_pac_trial(*args, **kwargs):
            c["cli.experiment.rows"] += 1
            return pac_trial(*args, **kwargs)

        patch(cli, "pac_trial", cli_pac_trial)
        patch(learning, "cons_cot", self.wrap("learning.cons_cot", learning.cons_cot, span=True))
        patch(learning, "cons_e2e", self.wrap("learning.cons_e2e", learning.cons_e2e, span=True))

        def after_prefix(t, frame, dur, result, args):
            c["learning.prefix_pairs"] += len(result)

        patch(learning, "prefix_expand", self.wrap("learning.prefix_expand", learning.prefix_expand, after=after_prefix))

        # lbfamilies: member evaluation, oracles, scans, dimensions
        patch(lbfamilies.LookupGenerator, "next_token",
              self.wrap("lbfamilies.next_token", lbfamilies.LookupGenerator.next_token))
        for cls in (lbfamilies.LookupFamily, lbfamilies.E1Family):
            orig_oracle = cls.__dict__["cons_oracle"]

            def cons_oracle(fam, _orig=orig_oracle):
                return self.wrap("lbfamilies.oracle", _orig(fam), after=after_search)

            patch(cls, "cons_oracle", cons_oracle)
        patch(lbfamilies.E1Family, "find_e2e_consistent",
              self.wrap("lbfamilies.find_e2e", lbfamilies.E1Family.find_e2e_consistent))
        orig_members = lbfamilies.LookupFamily.members

        def members(fam):
            for f in orig_members(fam):
                top = self.stack[-1] if self.stack else None
                if top is not None and top.name in _SEARCHES:
                    top.scanned += 1
                    c["lbfamilies.members.scanned"] += 1
                yield f

        patch(lbfamilies.LookupFamily, "members", members)
        patch(lbfamilies, "vcdim_bruteforce", self.wrap("lbfamilies.vcdim", lbfamilies.vcdim_bruteforce, span=True))

        # turing: direct simulation, replay generator, tape reading, learner
        def after_sim(t, frame, dur, result, args):
            c["turing.simulate.steps"] += len(result[1].steps)

        patch(turing, "simulate_tm", self.wrap("turing.simulate", turing.simulate_tm, after=after_sim))

        def after_tm_next(t, frame, dur, result, args):
            c["turing.next_token.history_tokens"] += len(args[1])

        patch(turing.TMGenerator, "next_token",
              self.wrap("turing.next_token", turing.TMGenerator.next_token, after=after_tm_next))

        def after_read(t, frame, dur, result, args):
            c["turing.read_tape.history_tokens"] += len(args[0])

        patch(turing, "read_tape", self.wrap("turing.read_tape", turing.read_tape, after=after_read))

        def after_cons_tm(t, frame, dur, result, args):
            c["turing.cons_tm.pairs"] += len(args[0])

        patch(turing, "cons_tm", self.wrap("turing.cons_tm", turing.cons_tm, span=True, after=after_cons_tm))

        # attention: integer route, exact-rational route, attention generator
        def keys(name):
            def after(t, frame, dur, result, args):
                c[name] += len(args[0])
            return after

        patch(attention, "read_tape_attention_fast",
              self.wrap("attention.fast", attention.read_tape_attention_fast, after=keys("attention.fast.keys")))
        patch(attention, "read_tape_attention",
              self.wrap("attention.generic", attention.read_tape_attention, after=keys("attention.generic.keys")))
        patch(attention.AttentionTMGenerator, "next_token",
              self.wrap("attention.next_token", attention.AttentionTMGenerator.next_token))

        # simplex: every feasibility solve, wherever it is called from
        def before_solve(t, args):
            constraints = list(args[0])
            distinct = set()
            for coeffs, sense, rhs in constraints:
                if sense == ">=":
                    distinct.add((tuple(-x for x in coeffs), -rhs))
                else:
                    distinct.add((tuple(coeffs), rhs))
            c["simplex.solve.rows_in"] += len(constraints)
            c["simplex.solve.rows_distinct"] += len(distinct)
            parent = t.parent_name()
            if parent == "linthresh.cons_sparse":
                c["linthresh.cons_sparse.supports_tried"] += 1
            elif parent == "linthresh.enumerate":
                c["linthresh.enumerate.lps"] += 1
            return (constraints,) + tuple(args[1:])

        def after_solve(t, frame, dur, result, args):
            t.solve_ms.append(dur * 1000.0)
            if result is None:
                c["simplex.solve.infeasible"] += 1

        solve = self.wrap("simplex.solve", simplex.solve_feasibility, before=before_solve, after=after_solve)
        for mod in (simplex, linthresh):
            patch(mod, "solve_feasibility", solve)

        # linthresh: evaluation and the LP learners
        patch(linthresh.LinearThreshold, "next_token",
              self.wrap("linthresh.next_token", linthresh.LinearThreshold.next_token))
        patch(linthresh, "cons_lp", self.wrap("linthresh.cons_lp", linthresh.cons_lp, span=True))
        patch(linthresh, "cons_sparse", self.wrap("linthresh.cons_sparse", linthresh.cons_sparse, span=True))
        patch(linthresh, "enumerate_threshold_functions",
              self.wrap("linthresh.enumerate", linthresh.enumerate_threshold_functions, span=True))

        # circomp: compiler and exhaustive verifier
        patch(circomp, "compile_circuit", self.wrap("circomp.compile", circomp.compile_circuit, span=True))

        def after_verify(t, frame, dur, result, args):
            circuit, compiled = args
            T, d = compiled.T, compiled.d
            prompt_len = T + circuit.n  # feature_map: a 1, T-1 zeros, then x
            c["circomp.verify.inputs"] += result.inputs_checked
            c["circomp.verify.steps"] += result.inputs_checked * T
            c["circomp.verify.window_terms"] += result.inputs_checked * sum(
                min(d, prompt_len + t) for t in range(T)
            )

        patch(circomp, "verify_compilation",
              self.wrap("circomp.verify", circomp.verify_compilation, span=True, after=after_verify))

        # cli: the experiment command (reached through cli.main)
        patch(cli, "cmd_experiment", self.wrap("cli.experiment", cli.cmd_experiment, span=True))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # ------------------------------------------------------------- report

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: exact counts, self times in seconds, solve stats."""
        c, calls, st = self.counts, self.calls, self.self_time
        hits = c["lbfamilies.members.hits"]
        solve_ms = sorted(self.solve_ms)
        m = {
            "seqcore.cot.calls": calls["seqcore.cot"],
            "seqcore.cot.tokens_out": c["seqcore.cot.tokens_out"],
            "seqcore.cot.self_s": st["seqcore.cot"],
            "seqcore.e2e.calls": calls["seqcore.e2e"],
            "learning.pac_trial.calls": calls["learning.pac_trial"],
            "learning.pac_trial.self_s": st["learning.pac_trial"],
            "learning.cons_cot.self_s": st["learning.cons_cot"],
            "learning.prefix_pairs": c["learning.prefix_pairs"],
            "learning.e2e.f_star_calls": c["learning.e2e.f_star_calls"],
            "learning.e2e.learned_calls": c["learning.e2e.learned_calls"],
            "lbfamilies.next_token.calls": calls["lbfamilies.next_token"],
            "lbfamilies.next_token.self_s": st["lbfamilies.next_token"],
            "lbfamilies.oracle.self_s": st["lbfamilies.oracle"],
            "lbfamilies.members.scanned": c["lbfamilies.members.scanned"],
            "lbfamilies.members.per_hit": c["lbfamilies.members.hit_scanned"] / hits if hits else 0.0,
            "lbfamilies.vcdim.self_s": st["lbfamilies.vcdim"],
            "turing.simulate.steps": c["turing.simulate.steps"],
            "turing.next_token.calls": calls["turing.next_token"],
            "turing.next_token.history_tokens": c["turing.next_token.history_tokens"],
            "turing.next_token.self_s": st["turing.next_token"],
            "turing.read_tape.calls": calls["turing.read_tape"],
            "turing.read_tape.history_tokens": c["turing.read_tape.history_tokens"],
            "turing.read_tape.self_s": st["turing.read_tape"],
            "turing.cons_tm.pairs": c["turing.cons_tm.pairs"],
            "turing.cons_tm.self_s": st["turing.cons_tm"],
            "attention.fast.calls": calls["attention.fast"],
            "attention.fast.keys": c["attention.fast.keys"],
            "attention.fast.self_s": st["attention.fast"],
            "attention.generic.calls": calls["attention.generic"],
            "attention.generic.keys": c["attention.generic.keys"],
            "attention.generic.self_s": st["attention.generic"],
            "attention.next_token.calls": calls["attention.next_token"],
            "attention.next_token.self_s": st["attention.next_token"],
            "simplex.solve.calls": calls["simplex.solve"],
            "simplex.solve.rows_in": c["simplex.solve.rows_in"],
            "simplex.solve.rows_distinct": c["simplex.solve.rows_distinct"],
            "simplex.solve.infeasible": c["simplex.solve.infeasible"],
            "simplex.solve.self_s": st["simplex.solve"],
            "simplex.solve.ms_p50": statistics.median(solve_ms) if solve_ms else 0.0,
            "simplex.solve.ms_max": solve_ms[-1] if solve_ms else 0.0,
            "linthresh.next_token.calls": calls["linthresh.next_token"],
            "linthresh.next_token.self_s": st["linthresh.next_token"],
            "linthresh.cons_lp.self_s": st["linthresh.cons_lp"],
            "linthresh.cons_sparse.supports_tried": c["linthresh.cons_sparse.supports_tried"],
            "linthresh.enumerate.lps": c["linthresh.enumerate.lps"],
            "circomp.compile.self_s": st["circomp.compile"],
            "circomp.verify.inputs": c["circomp.verify.inputs"],
            "circomp.verify.steps": c["circomp.verify.steps"],
            "circomp.verify.window_terms": c["circomp.verify.window_terms"],
            "circomp.verify.self_s": st["circomp.verify"],
            "cli.experiment.calls": calls["cli.experiment"],
            "cli.experiment.rows": c["cli.experiment.rows"],
            "cli.experiment.self_s": st["cli.experiment"],
        }
        for mod in MODULES + ("bench",):
            m[f"{mod}.self_s"] = sum(v for k, v in st.items() if k.split(".", 1)[0] == mod)
        return m

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, job, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "job": job,
                                     "name": name, "start": t0, "end": t1}) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer.enter(self.name, True)
        return self

    def __exit__(self, *exc):
        self.tracer.leave(self.frame)
        return False
