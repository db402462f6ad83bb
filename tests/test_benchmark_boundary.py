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

from cotlearn.lbfamilies import E1Family, LookupFamily

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_installs_and_restores_every_patched_attribute():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
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
