"""Every name the library defines has a reader.

A function, class or module-level name in ``src/cotlearn`` that nothing
reads is a leftover: a removal left it behind, or only tests still call it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse_all(folder):
    return [ast.parse(path.read_text(), str(path)) for path in sorted((ROOT / folder).glob("*.py"))]


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
    outside its own definition (an import counts, so ``__init__``'s
    re-exports do), read by the benchmark in ``perfbench/``, or named in
    backticks in the README, which declares it API."""
    trees = parse_all("src/cotlearn")
    definitions = [d for tree in trees for d in module_level_assignments(tree)]
    definitions += [(node.name, node) for tree in trees for node in tree.body if isinstance(node, DEFINITIONS)]
    public = [(name, node) for name, node in definitions if not name.startswith("_")]
    assert len(public) > 100
    bench = parse_all("perfbench")
    readme = (ROOT / "README.md").read_text()
    named = {word for span in re.findall(r"`([^`\n]+)`", readme) for word in re.findall(r"\w+", span)}
    missing = unread(trees, public) - imported(trees) - imported(bench) - {n for tree in bench for n in reads(tree)} - named
    assert not missing, sorted(missing)
