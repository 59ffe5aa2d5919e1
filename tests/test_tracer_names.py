"""Every function the benchmark tracer wraps still exists under its traced name.

``perfbench/tracer.py`` names the functions it wraps as strings, so a rename
in the library would leave a span that never fires.  The tracer imports only
the standard library; it is loaded from its file, outside the test package.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


TRACED = [(layer, name) for layer, names in _layers().items() for name in names]


@pytest.mark.parametrize("layer, name", TRACED, ids=[f"{l}.{n}" for l, n in TRACED])
def test_traced_name_resolves(layer, name):
    target = importlib.import_module(f"subspace_bounds.{layer}")
    for part in name.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_method_names_are_covered():
    assert ("models", "RngStream.generator") in TRACED
