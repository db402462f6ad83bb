"""Every name the library defines has a reader.

A function, class or module-level name in ``src/cotlearn`` that nothing
reads is a leftover: a removal left it behind, or only tests still call it.
A public name without a reader in the library or the benchmark is API only
when ``cotlearn.__all__`` declares it. The README's example runs, and every
library name it spells out resolves, so the API it documents cannot drift
from it.
"""

import ast
import importlib
import re
from collections import Counter
from dataclasses import MISSING
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse_all(folder, skip=()):
    return [ast.parse(path.read_text(), str(path)) for path in sorted((ROOT / folder).glob("*.py")) if path.name not in skip]


def reads(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def imported(trees):
    """The names that ``from ... import`` statements bind."""
    return {alias.name for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}


def module_level_assignments(tree):
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((sub.id, node) for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name))


def unread(trees, definitions):
    """The defined names that no library code reads outside their own definition."""
    total = Counter(name for tree in trees for name in reads(tree))
    return {name for name, node in definitions if total[name] == Counter(reads(node))[name]}


def test_library_uses_every_private_name():
    """A private function, class or module-level name that nothing in the
    library reads outside its own definition is a leftover: a removal
    left it behind, or only tests still call it."""
    trees = parse_all("src/cotlearn")
    definitions = [d for tree in trees for d in module_level_assignments(tree)]
    definitions += [(node.name, node) for tree in trees for node in ast.walk(tree) if isinstance(node, DEFINITIONS)]
    private = [(name, node) for name, node in definitions if name.startswith("_") and not name.startswith("__")]
    assert len(private) > 50
    assert not unread(trees, private), sorted(unread(trees, private))


def test_every_public_name_has_a_reader():
    """A public function, class or module-level name is read by the library
    outside its own definition (an import counts, except a re-export in
    ``__init__``), read or imported by the benchmark in ``perfbench/``, or
    declared API by ``cotlearn.__all__``. README prose declares nothing."""
    trees = parse_all("src/cotlearn")
    definitions = [d for tree in trees for d in module_level_assignments(tree)]
    definitions += [(node.name, node) for tree in trees for node in tree.body if isinstance(node, DEFINITIONS)]
    public = [(name, node) for name, node in definitions if not name.startswith("_")]
    assert len(public) > 100
    bench = parse_all("perfbench")
    declared = set(importlib.import_module("cotlearn").__all__)
    library_imports = imported(parse_all("src/cotlearn", skip={"__init__.py"}))
    missing = unread(trees, public) - library_imports - imported(bench) - {n for tree in bench for n in reads(tree)} - declared
    assert not missing, sorted(missing)


def test_readme_names_resolve():
    """Every private name (``_x``) and every ``Class.attr`` or ``module.attr``
    chain that starts at a library module or class, named in backticks in
    the README, resolves in ``src/cotlearn``: the README cannot keep naming
    a helper that was removed or renamed."""
    modules = {p.stem: importlib.import_module(f"cotlearn.{p.stem}") for p in (ROOT / "src/cotlearn").glob("[!_]*.py")}
    owners = dict(modules)
    owners.update((n, obj) for m in modules.values() for n, obj in vars(m).items() if isinstance(obj, type))
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    chains = [c.removeprefix("cotlearn.").split(".") for span in spans for c in re.findall(r"[A-Za-z_][\w.]*\w", span)]
    private = {c[0] for c in chains if c[0].startswith("_") and len(c) == 1}
    assert len(private) >= 3
    unresolved = sorted(name for name in private if not any(hasattr(owner, name) for owner in owners.values()))
    checked = 0
    for head, *attrs in (c for c in chains if c[0] in owners and len(c) > 1):
        obj = owners[head]
        for attr in attrs:  # a dataclass field without a default is no class attribute
            obj = getattr(obj, attr, getattr(obj, "__dataclass_fields__", {}).get(attr, MISSING))
        checked += 1
        if obj is MISSING:
            unresolved.append(".".join([head, *attrs]))
    assert checked >= 20
    assert not unresolved, unresolved


def test_readme_example_runs(capsys):
    """The README's one ```python block runs as written and prints what its comment says."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out == "1,1,1,1,1,1\n"
