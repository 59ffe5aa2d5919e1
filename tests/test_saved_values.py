"""Bound and Fisher values held against a table saved from an earlier version.

``data/saved_values.json`` holds what ``compute_values`` returned when each
bound still wrote out its own edge-cap formula.  The caps now come from the
models' generator Fisher information, which may move a value by a few units
in the last place only: every value must agree to 1e-14 relative.  The two
searched maxima (``optimize_delta`` and ``excess auto``) were saved from a
golden-section search that stopped near the optimum; the exact search,
one flow solve at the best breakpoint of the prefix cuts' lower envelope,
may only raise them, so they are checked one-sided.  A searched
argmax may move along a flat optimum, so it is checked by evaluating the
bound there: that must give the searched value.  To rebuild the table (only
when a value is meant to change), run this file as a script with ``src`` and
``tests`` on PYTHONPATH.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from subspace_bounds import (
    CovModel,
    DenoiseModel,
    Spectrum,
    WeightMatrix,
    canonical_bound,
    cramer_rao_ratio,
    denoise_lower_bound,
    excess_lower_bound,
    exp_spectrum,
    fisher_quad,
    hs_lower_bound,
    optimize_delta,
    poly_spectrum,
)

from conftest import random_skew_unit
from test_acceptance import DOMINATION_CONFIGS

TABLE = pathlib.Path(__file__).parent / "data" / "saved_values.json"
VALUE_RTOL = 1e-14
SEARCHED = ("optimize_delta", "excess auto")
DELTAS = (0.25, 1.0, 4.0)

# The six criterion-6 models (with the loss they are simulated under), two
# at p >= 100, and two whose rectangles hold tied eigenvalues (infinite caps).
INSTANCES = [(name, model, (loss,)) for name, model, loss in DOMINATION_CONFIGS] + [
    ("cov exp p=100", CovModel(exp_spectrum(0.05, 100, 4), 2000), ("hs_squared", "excess")),
    ("denoise poly p=120", DenoiseModel(poly_spectrum(1.0, 120, 3), 0.01), ("hs_squared",)),
    ("cov ties p=5", CovModel(Spectrum([3.0, 2.0, 2.0, 1.0, 1.0], 2), 10),
     ("hs_squared", "excess")),
    ("denoise ties p=4", DenoiseModel(Spectrum([2.0, 1.0, 1.0, 0.5], 2), 0.5), ("hs_squared",)),
]


def _fisher_values(model, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    d, p = model.spectrum.d, model.p
    lam = model.spectrum.lambdas
    out = {"quad": float(fisher_quad(model, random_skew_unit(rng, p)[None])[0])}
    if p <= 8:
        pairs = [(i, j) for i in range(d) for j in range(d, p)]
    else:
        pairs = [(0, d), (d - 1, p - 1), (0, p - 1)]
    for i, j in pairs:
        out[f"generator_quad {i},{j}"] = float(model.generator_fisher(lam[i], lam[j]))
    z = rng.uniform(0.1, 1.0, (d, p - d))
    weights = WeightMatrix(rng.uniform(0.5, 2.0, (p, p)))
    out["cramer_rao_ratio"] = cramer_rao_ratio(model, weights, range(d), range(d, p), z)
    return out


def compute_values() -> dict:
    """Every checked value of every instance, keyed by instance and quantity."""
    table = {}
    for seed, (name, model, losses) in enumerate(INSTANCES):
        out = _fisher_values(model, seed)
        if "hs_squared" in losses:
            fn = hs_lower_bound if isinstance(model, CovModel) else denoise_lower_bound
            for delta in DELTAS:
                out[f"delta {delta}"] = fn(model, delta).value
            best, result = optimize_delta(model)
            out["optimize_delta argmax"] = best
            out["optimize_delta"] = result.value
            if isinstance(model, CovModel):
                out["canonical_bound"] = canonical_bound(model)
        if "excess" in losses:
            lam, d = model.spectrum.lambdas, model.spectrum.d
            out["excess mid"] = excess_lower_bound(model, 0.5 * (lam[d - 1] + lam[d])).value
            result = excess_lower_bound(model, "auto")
            out["excess auto argmax"] = result.params["mu"]
            out["excess auto"] = result.value
        table[name] = out
    return table


@pytest.fixture(scope="module")
def computed():
    return compute_values()


def _bound_at(model, key: str, t: float) -> float:
    """The bound a search maximizes, evaluated at its parameter t."""
    if key == "excess auto":
        return excess_lower_bound(model, t).value
    fn = hs_lower_bound if isinstance(model, CovModel) else denoise_lower_bound
    return fn(model, t).value


@pytest.mark.parametrize("name", [name for name, _, _ in INSTANCES])
def test_values_match_saved_table(name, computed):
    model = next(model for key, model, _ in INSTANCES if key == name)
    saved = json.loads(TABLE.read_text())[name]
    now = computed[name]
    assert sorted(now) == sorted(saved)
    for key, old in saved.items():
        if key.endswith(" argmax"):
            searched = key.removesuffix(" argmax")
            assert _bound_at(model, searched, now[key]) == now[searched], key
        elif key in SEARCHED:
            assert now[key] >= old * (1.0 - VALUE_RTOL), (key, now[key], old)
        elif old == 0.0 or math.isinf(old):
            assert now[key] == old, key
        else:
            assert abs(now[key] - old) <= VALUE_RTOL * abs(old), (key, now[key], old)


if __name__ == "__main__":
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text(json.dumps(compute_values(), indent=1, sort_keys=True) + "\n")
