"""The benchmark tracer patches library attributes by name; every one must resolve.

perfbench/tracer.py reaches into module namespaces and class bodies with
``vars(owner)[attr]``. Installing and uninstalling it here makes a rename
of any patched name fail this test instead of the traced benchmark run.
"""

import importlib.util
import pathlib

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
