"""The benchmark tracer patches library attributes by name; every one must resolve.

perfbench/tracer.py reaches into module namespaces and class bodies with
``vars(owner)[attr]``. Installing and uninstalling it here makes a rename
of any patched name fail this test instead of the traced benchmark run.
"""

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
