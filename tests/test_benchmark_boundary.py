"""The benchmark reads and patches library attributes by name; every one must resolve.

perfbench/tracer.py reaches into module namespaces and class bodies with
``vars(owner)[attr]``. Installing and uninstalling it here makes a rename
of any patched name fail this test instead of the traced benchmark run.
The workloads and the tracer also read names off the library's modules,
which are resolved here without running them.
"""

import ast
import importlib
import importlib.util
import pathlib
import random
from fractions import Fraction

from cotlearn import learning
from cotlearn.lbfamilies import E1Family, LookupFamily
from cotlearn.learning import CoTDataset, cons_cot, prefix_expand
from cotlearn.linthresh import SparseThresholdFamily, cons_lp, cons_sparse, make_threshold
from cotlearn.seqcore import BINARY, cot
from cotlearn.turing import TMFamily, TMGenerator, pre

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_installs_and_restores_every_patched_attribute():
    tracer = load_tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert saved, "the tracer patched nothing"
        for owner, attr, original in saved:
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr} was not swapped"
    finally:
        tracer.uninstall()
    for owner, attr, original in saved:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} was not restored"


def test_e1_search_aliases_are_the_shared_search():
    """E1Family keeps its own names for the lookup search only so the tracer
    can patch them there; they must stay the one LookupFamily search."""
    for attr in ("find_e2e_consistent", "cons_oracle"):
        assert vars(E1Family)[attr] is vars(LookupFamily)[attr], attr


def dotted(node):
    """``a.b.c`` for an attribute chain on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) and parts else None


def test_every_library_name_the_benchmark_reads_resolves():
    """Each ``from cotlearn... import`` name and each attribute chain on a
    ``cotlearn`` module in perfbench/ resolves, so a library change that
    breaks the benchmark fails tier-1 instead of the benchmark run."""
    reads = 0
    for path in sorted(TRACER.parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "cotlearn":
                for alias in node.names:
                    reads += 1
                    if node.module == "cotlearn":
                        modules[alias.asname or alias.name] = importlib.import_module(f"cotlearn.{alias.name}")
                    else:
                        assert hasattr(importlib.import_module(node.module), alias.name), (path.name, node.module, alias.name)
        for node in ast.walk(tree):
            chain = dotted(node)
            if chain and chain[0] in modules:
                reads += len(chain) == 2
                target = modules[chain[0]]
                for attr in chain[1:]:
                    assert hasattr(target, attr), (path.name, ".".join(chain))
                    target = getattr(target, attr)
    assert reads > 90


def threshold_records(target, d, m, T, seed):
    """m records of ``target`` from random binary prompts, as the threshold workload builds them."""
    rng = random.Random(seed)
    prompts = [BINARY.seq(rng.randint(0, 1) for _ in range(rng.randint(1, d + 3))) for _ in range(m)]
    return CoTDataset(tuple(cot(target, x, T) for x in prompts), T)


def test_oracle_call_forms_the_workloads_use():
    """The workloads wrap an oracle in a lambda that forwards its one
    argument, now the records' cuts, and call ``cons_lp`` on a plain list of
    pairs; every form gives the generator of the reference expansion."""
    d = 3
    data = threshold_records(make_threshold([2, -1, 1], Fraction(-1, 2)), d, 6, 5, 1)
    pairs = list(prefix_expand(data).pairs)
    assert cons_cot(data, lambda pairs: cons_lp(pairs, d)) == cons_lp(pairs, d)
    sparse = SparseThresholdFamily(8, 2).random_member(random.Random(2))
    data = threshold_records(sparse, 8, 4, 4, 3)
    expected = cons_sparse(list(prefix_expand(data).pairs), 8, 2)
    assert cons_cot(data, lambda pairs: cons_sparse(pairs, 8, 2)) == expected


def test_a_forwarding_wrapper_sees_the_pair_count():
    """The tracer wraps an oracle in a plain forwarding function and reads
    ``len(args[0])``, which is the pair count of the cuts it forwards."""
    S, T = 2, 6
    family = TMFamily(S)
    gen = TMGenerator(S, family.random_spec(random.Random(4), T).table)
    data = CoTDataset(tuple(cot(gen, pre(w, S), T) for w in ([1], [0, 1], [])), T)
    oracle, seen = family.cons_oracle(), []

    def wrap(*args):
        seen.append(len(args[0]))
        return oracle(*args)

    assert cons_cot(data, wrap) == oracle(prefix_expand(data).pairs)
    assert seen == [len(data) * T]

    tracer = load_tracer()
    tracer.install()
    try:
        prompts = learning.FiniteUniformPrompts((pre([1], S), pre([0], S)))
        learning.pac_trial(family, gen, prompts, 4, T, "cot", 8, 5)
    finally:
        tracer.uninstall()
    assert tracer.counts["turing.cons_tm.pairs"] == 2 * T
    assert tracer.counts["learning.prefix_pairs"] == 0  # cons_cot no longer expands the records
