"""Every function the benchmark tracer wraps still exists under its traced name,
and the spans of the linear-algebra kernels, the Fisher-limit check and the
loss functions fire on the paths that run them.

``perfbench/tracer.py`` names the functions it wraps as strings, so a rename
in the library, or a hot path that calls another name, would leave a span
that never fires.  The tracer imports only the standard library; it is
loaded from its file, outside the test package.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

from subspace_bounds import CovModel, RngStream, SimConfig, Spectrum, bayes_risk, cli

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACED = [(layer, name) for layer, names in _tracer().LAYERS.items() for name in names]


@pytest.mark.parametrize("layer, name", TRACED, ids=[f"{l}.{n}" for l, n in TRACED])
def test_traced_name_resolves(layer, name):
    target = importlib.import_module(f"subspace_bounds.{layer}")
    for part in name.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_method_names_are_covered():
    assert ("models", "RngStream.generator") in TRACED


def _bindings() -> dict:
    """Every callable attribute of every loaded subspace_bounds module, and the
    one method the tracer wraps on its class."""
    names = {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name.startswith("subspace_bounds")
        for attr, value in vars(mod).items()
        if callable(value)
    }
    names["RngStream", "generator"] = RngStream.__dict__["generator"]
    return names


def test_kernel_spans_fire_and_bindings_are_restored(capsys):
    before = _bindings()
    config = SimConfig(CovModel(Spectrum([4.0, 3.0, 1.0, 0.5], 2), 50), "hs_squared", 4, 1)
    with _tracer().Tracer() as active:
        bayes_risk(config)
        assert cli.main(["verify", "derivatives", "--p", "4", "--trials", "1"]) == 0
        fisher = ["verify", "fisher-limit", "--spectrum", "exp:0.5,3", "--d", "1", "--n", "50"]
        assert cli.main(fisher) == 0
        assert cli.main(["verify", "loss-identity", "--p", "4", "--trials", "3"]) == 0
    capsys.readouterr()
    names = {span.name for span in active.spans}
    assert {"linalg.sym_eig", "linalg.skew_exp", "fisher.verify_fisher_limit"} <= names
    # the suite scores its stack with the library's own loss functions
    assert {"equivariance.weighted_loss", "equivariance.excess_risk"} <= names
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
