"""The four benchmark workloads.

A workload turns a seed into one *cycle*: a fixed list of ops, each one
public library call on inputs generated from the seed.  The timed loop
repeats the cycle; every op's output is reduced to a small summary while
timing, and checked afterwards against a reference computed in this file
(``check``).  A repeated op must also give the same summary every time.

Library functions are always looked up through their module at call time
(``bounds.hs_lower_bound``), so the tracer's wrappers take effect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from subspace_bounds import bounds, cli, models, risksim

BOUND_RTOL = 1e-9  # flow mass vs the independent sparse LP (agree to ~1e-14)
SEARCH_RTOL = 1e-9  # searched optimum vs the best coarse-grid value
GRID_POINTS = 9


@dataclass
class Op:
    """One public call: ``spec`` is its plain-data input, ``args`` the built objects."""

    label: str
    fn: str
    spec: dict
    args: tuple = field(default=(), repr=False)


def _jitter(rng: np.random.Generator, value: float, rel: float) -> float:
    return float(value * (1.0 + rel * rng.uniform(-1.0, 1.0)))


def _shuffled(items: list, seed: int) -> list:
    """items in an order drawn from seed."""
    order = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in order]


def _spectrum(family: str, alpha: float, p: int, d: int):
    make = models.exp_spectrum if family == "exp" else models.poly_spectrum
    return make(alpha, p, d)


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class Workload:
    """Base of the four workloads: inputs from a seed, calls, output checks."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self._first: dict[str, object] = {}

    def specs(self, seed: int) -> list[tuple[str, str, dict]]:
        """(label, function, spec) of each op in one cycle; a pure function of seed."""
        raise NotImplementedError

    def build(self, spec: dict) -> tuple:
        """The library objects an op is called with."""
        raise NotImplementedError

    def cycle(self, seed: int) -> list[Op]:
        return [Op(label, fn, spec, self.build(spec)) for label, fn, spec in self.specs(seed)]

    @staticmethod
    def warm_up_ops(ops: list[Op]) -> list[Op]:
        """One op per public function the cycle uses, the one with the smallest p."""
        chosen: dict[str, Op] = {}
        for op in sorted(ops, key=lambda o: o.spec.get("p", 0)):
            chosen.setdefault(op.fn, op)
        return list(chosen.values())

    def warm_up(self, ops: list[Op]) -> None:
        for op in self.warm_up_ops(ops):
            self.call(op)

    def call(self, op: Op):
        """Run op; return a small summary of its output."""
        raise NotImplementedError

    def check(self, op: Op, summary) -> str | None:
        """Why summary is wrong for op, or None when it checks out.

        A repeated op must reproduce its first summary exactly.
        """
        first = self._first.setdefault(op.label, summary)
        if summary != first:
            return f"output {summary!r} differs from the first run's {first!r}"
        return self.reference_error(op, summary)

    def reference_error(self, op: Op, summary) -> str | None:
        raise NotImplementedError


# --- mc_risk -----------------------------------------------------------------

# The six models and losses of acceptance criterion 6.
_P4 = [4.0, 3.0, 1.0, 0.5]
_P8 = [6.0, 5.0, 4.0, 3.0, 1.0, 0.8, 0.6, 0.4]
MC_CONFIGS = (
    ("cov/hs p=4", "cov", (_P4, 2), 50, "hs_squared"),
    ("cov/hs p=8", "cov", (_P8, 3), 60, "hs_squared"),
    ("cov/excess p=4", "cov", (_P4, 2), 50, "excess"),
    ("cov/excess p=8", "cov", (_P8, 3), 60, "excess"),
    ("denoise/hs p=4", "denoise", ([10.0, 0.0, 0.0, 0.0], 1), 1.0, "hs_squared"),
    ("denoise/hs p=8", "denoise", ([12.0, 8.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 2), 1.0, "hs_squared"),
)
# Replicates per call.  A p=8 call costs ~5x a p=4 call, so each p=8 model
# runs twice per cycle (two simulation seeds): nine calls, of which six at
# p=8, put the median and the 90th percentile inside the p=8 group.
MC_REPLICATES = 32
MC_P8_REPEATS = 2
# The workers=2 check needs more than one 512-replicate chunk.
MC_POOL_CHECK_REPLICATES = 1024


def _mc_model(kind: str, spectrum: tuple, param):
    spec = models.Spectrum(*spectrum)
    if kind == "cov":
        return models.CovModel(spec, int(param))
    return models.DenoiseModel(spec, float(param))


class MCRisk(Workload):
    """risksim.bayes_risk on the criterion-6 models."""

    def __init__(self, out_dir: str):
        super().__init__(out_dir)
        self._bounds: dict[tuple, float] = {}

    def specs(self, seed):
        rng = np.random.default_rng([seed, 1])
        out = []
        for label, kind, spectrum, param, loss in MC_CONFIGS:
            repeats = MC_P8_REPEATS if len(spectrum[0]) == 8 else 1
            for rep in range(repeats):
                spec = {
                    "model": kind,
                    "lambdas": list(spectrum[0]),
                    "d": spectrum[1],
                    "n_or_sigma": param,
                    "loss": loss,
                    "replicates": MC_REPLICATES,
                    "sim_seed": int(rng.integers(0, 2**31)),
                }
                out.append((f"{label} #{rep + 1}" if repeats > 1 else label, "risksim.bayes_risk", spec))
        return out

    def build(self, spec):
        model = _mc_model(spec["model"], (spec["lambdas"], spec["d"]), spec["n_or_sigma"])
        config = risksim.SimConfig(model, spec["loss"], spec["replicates"], spec["sim_seed"], 1)
        return (config,)

    def call(self, op):
        return risksim.bayes_risk(*op.args)

    def _bound(self, op) -> float:
        key = (op.spec["model"], op.spec["loss"], op.spec["d"], tuple(op.spec["lambdas"]))
        if key not in self._bounds:
            model = op.args[0].model
            if isinstance(model, models.DenoiseModel):
                value = bounds.denoise_lower_bound(model, 1.0).value
            elif op.spec["loss"] == "excess":
                value = bounds.excess_lower_bound(model, "auto").value
            else:
                value = bounds.hs_lower_bound(model, 1.0).value
            self._bounds[key] = value
        return self._bounds[key]

    def reference_error(self, op, est):
        bound = self._bound(op)
        if not est.mean + 3.0 * est.std_error >= bound:
            return f"mean {est.mean} + 3 se {est.std_error} below bound {bound}"
        return None

    def pool_check(self, ops) -> str | None:
        """The same call at workers=1 and workers=2 gives byte-identical JSON."""
        config = ops[0].args[0]
        texts = []
        for workers in (1, 2):
            run = risksim.SimConfig(
                config.model, config.loss, MC_POOL_CHECK_REPLICATES, config.seed, workers
            )
            texts.append(json.dumps(risksim.bayes_risk(run).to_json_dict(), sort_keys=True))
        if texts[0] != texts[1]:
            return f"workers=2 estimate differs from workers=1: {texts[1]} vs {texts[0]}"
        return None


# --- bound_solve -------------------------------------------------------------

# (bound, family, alpha, p, n or sigma).  n=1000 and denoise sigma=0.1 leave
# row/column caps binding; n=1e5 and sigma=1e-3 mostly edge caps.  Thirteen
# ops so that the median op falls inside one instance's band.
SOLVE_TEMPLATES = (
    ("hs", "exp", 0.02, 100, 1000),
    ("hs", "exp", 0.02, 200, 1000),
    ("hs", "exp", 0.02, 400, 1000),
    ("hs", "poly", 1.0, 100, 100000),
    ("hs", "poly", 1.0, 200, 100000),
    ("hs", "poly", 1.0, 400, 100000),
    ("denoise", "exp", 0.02, 100, 0.1),
    ("denoise", "exp", 0.02, 150, 0.1),
    ("denoise", "exp", 0.02, 200, 0.1),
    ("denoise", "poly", 1.0, 200, 1e-3),
    ("excess", "exp", 0.02, 200, 1000),
    ("excess", "exp", 0.02, 400, 1000),
    ("excess", "poly", 1.0, 100, 100000),
)


def _bound_model(spec):
    spectrum = _spectrum(spec["family"], spec["alpha"], spec["p"], spec["d"])
    if "sigma" in spec:
        return models.DenoiseModel(spectrum, spec["sigma"])
    return models.CovModel(spectrum, spec["n"])


def independent_program(spec, lam: np.ndarray):
    """(caps, row caps, col caps, prefactor) of a bound, from the formulas alone."""
    d, p = spec["d"], spec["p"]
    if spec["bound"] == "excess":
        mu = spec["mu"]
        r = int(np.sum(lam[:d] > lam[d]))
        s = d + int(np.argmax(lam[d:] < lam[d - 1]))
        li, lj = lam[:r, None], lam[None, s:]
        caps = li * lj / (spec["n"] * (li - lj))
        return caps, np.maximum(lam[:r] - mu, 0.0), np.maximum(mu - lam[s:], 0.0), 1.0 / 3.0
    li, lj = lam[:d, None], lam[None, d:]
    if spec["bound"] == "hs":
        caps = 2.0 * li * lj / (spec["n"] * (li - lj) ** 2)
    else:
        caps = 2.0 * spec["sigma"] ** 2 / (li - lj) ** 2
    delta = spec["delta"]
    return caps, np.full(d, delta), np.full(p - d, delta), 1.0 / (1.0 + 2.0 * delta)


def sparse_lp_mass(caps: np.ndarray, row_caps: np.ndarray, col_caps: np.ndarray) -> float:
    """max sum x s.t. 0 <= x <= caps, row and column sums capped; sparse HiGHS."""
    from scipy import sparse
    from scipy.optimize import linprog

    nr, nc = caps.shape
    nvar = nr * nc
    var = np.arange(nvar)
    ones = np.ones(nvar)
    a_ub = sparse.vstack(
        [
            sparse.csr_matrix((ones, (var // nc, var)), shape=(nr, nvar)),
            sparse.csr_matrix((ones, (var % nc, var)), shape=(nc, nvar)),
        ]
    ).tocsr()
    res = linprog(
        -ones,
        A_ub=a_ub,
        b_ub=np.concatenate([row_caps, col_caps]),
        bounds=np.column_stack([np.zeros(nvar), caps.ravel()]),
        method="highs",
        # The default 1e-7 feasibility tolerance lets the optimum overshoot by
        # ~1e-7 when caps are ~1e-6; tightened, it matches exact solutions.
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(-res.fun)


class BoundSolve(Workload):
    """Single hs, denoise and fixed-mu excess bounds, checked against a sparse LP."""

    def __init__(self, out_dir: str):
        super().__init__(out_dir)
        self._lp: dict[str, tuple[float, float]] = {}

    def specs(self, seed):
        out = []
        for bound, family, alpha, p, param in SOLVE_TEMPLATES:
            spec = {"bound": bound, "family": family, "alpha": alpha, "p": p, "d": p // 2}
            if bound == "denoise":
                spec["sigma"] = param
            else:
                spec["n"] = param
            if bound == "excess":
                lam = _spectrum(family, alpha, p, p // 2).lambdas
                spec["mu"] = 0.5 * float(lam[p // 2] + lam[p // 2 - 1])
            else:
                spec["delta"] = 1.0
            label = f"{bound} {family}:{alpha:g},{p} " + (
                f"sigma={param:g}" if bound == "denoise" else f"n={param:g}"
            )
            out.append((label, f"bounds.{bound}_lower_bound", spec))
        return _shuffled(out, seed)

    def build(self, spec):
        return (_bound_model(spec), spec["mu"] if spec["bound"] == "excess" else spec["delta"])

    def call(self, op):
        fn = getattr(bounds, op.fn.split(".")[1])
        result = fn(*op.args)
        return (result.value, result.flow_value, result.cut_value, result.prefactor)

    def reference_error(self, op, summary):
        value, flow, cut, prefactor = summary
        if op.label not in self._lp:
            lam = op.args[0].spectrum.lambdas
            caps, row_caps, col_caps, pre = independent_program(op.spec, lam)
            self._lp[op.label] = (sparse_lp_mass(caps, row_caps, col_caps), pre)
        mass, pre = self._lp[op.label]
        if not _rel_close(flow, mass, BOUND_RTOL):
            return f"flow mass {flow!r} != sparse LP {mass!r}"
        if not _rel_close(cut, flow, BOUND_RTOL):
            return f"cut {cut!r} does not certify flow {flow!r}"
        if not (_rel_close(prefactor, pre, 1e-15) and _rel_close(value, pre * mass, BOUND_RTOL)):
            return f"bound {value!r} != {pre!r} * LP mass {mass!r}"
        return None


# --- bound_search ------------------------------------------------------------

# (search, model, family, alpha, p, n or sigma).  With KNOWN_FAILURE that is
# seven ops per cycle, so the median falls inside one op's band.
# KNOWN_FAILURE is the instance whose max-flow certificate fails with a
# duality gap of ~5.5e-6 inside the delta search; it is kept exactly as
# found and counted as a failed op.
SEARCH_TEMPLATES = (
    ("mu", "cov", "exp", 0.02, 60, 1000),
    ("mu", "cov", "poly", 1.0, 100, 100000),
    ("delta", "cov", "exp", 0.02, 60, 100000),
    ("delta", "denoise", "exp", 0.02, 60, 0.1),
    ("delta", "denoise", "poly", 1.0, 60, 1e-3),
    ("delta", "denoise", "exp", 0.1, 100, 1e-3),
)
KNOWN_FAILURE = ("delta", "denoise", "exp", 0.1, 150, 0.1)


class BoundSearch(Workload):
    """excess_lower_bound(mu="auto") and optimize_delta, checked against a coarse grid."""

    def __init__(self, out_dir: str):
        super().__init__(out_dir)
        self._grid: dict[str, float] = {}

    def specs(self, seed):
        out = []
        for search, kind, family, alpha, p, param in SEARCH_TEMPLATES + (KNOWN_FAILURE,):
            spec = {"search": search, "model": kind, "family": family, "alpha": alpha, "p": p, "d": p // 2}
            spec["sigma" if kind == "denoise" else "n"] = param
            what = f"sigma={param:g}" if kind == "denoise" else f"n={param:g}"
            label = f"{search} search {kind} {family}:{alpha:g},{p} {what}"
            fn = "bounds.excess_lower_bound" if search == "mu" else "bounds.optimize_delta"
            out.append((label, fn, spec))
        return _shuffled(out, seed)

    def build(self, spec):
        return (_bound_model(spec),)

    def call(self, op):
        model = op.args[0]
        if op.spec["search"] == "mu":
            result = bounds.excess_lower_bound(model, "auto")
            return (result.params["mu"], result.value)
        best, result = bounds.optimize_delta(model)
        return (best, result.value)

    def _grid_best(self, op) -> float:
        """Best bound over a coarse grid of the searched parameter."""
        if op.label in self._grid:
            return self._grid[op.label]
        model = op.args[0]
        if op.spec["search"] == "mu":
            lam = model.spectrum.lambdas
            d = op.spec["d"]
            grid = np.linspace(lam[d], lam[d - 1], GRID_POINTS)
            values = [bounds.excess_lower_bound(model, float(mu)).value for mu in grid]
        else:
            fn = bounds.hs_lower_bound if op.spec["model"] == "cov" else bounds.denoise_lower_bound
            values = [fn(model, float(delta)).value for delta in np.logspace(-4, 4, GRID_POINTS)]
        self._grid[op.label] = max(values)
        return self._grid[op.label]

    def reference_error(self, op, summary):
        _, value = summary
        best = self._grid_best(op)
        if value < best - SEARCH_RTOL * abs(best):
            return f"searched value {value!r} below coarse-grid best {best!r}"
        return None


# --- verify ------------------------------------------------------------------


class Verify(Workload):
    """In-process CLI commands, each writing its artifact under out_dir."""

    def __init__(self, out_dir: str):
        super().__init__(out_dir)
        self._calls = 0

    def specs(self, seed):
        rng = np.random.default_rng([seed, 4])

        def fisher(spectrum, d=None):
            n = int(rng.integers(20, 80))
            sigma = _jitter(rng, 0.3, 0.2)
            argv = ["verify", "fisher-limit", "--spectrum", spectrum]
            argv += ["--d", str(d)] if d else []
            return argv + ["--n", str(n), "--sigma", repr(sigma)]

        def alpha(value):
            return repr(round(_jitter(rng, value, 0.1), 4))

        def cli_seed():
            return str(int(rng.integers(0, 2**31)))

        commands = [
            ("fisher-limit spike p=2", fisher("spike:2,1,1,2")),
            ("fisher-limit exp p=6", fisher(f"exp:{alpha(0.5)},6", 2)),
            ("fisher-limit poly p=8", fisher(f"poly:{alpha(1.0)},8", 3)),
            ("fisher-limit exp p=10", fisher(f"exp:{alpha(0.5)},10", 4)),
            ("lp-oracle", ["verify", "lp-oracle", "--trials", "40", "--seed", cli_seed()]),
            ("derivatives", ["verify", "derivatives", "--p", "5", "--trials", "5", "--seed", cli_seed()]),
            ("loss-identity", ["verify", "loss-identity", "--p", "6", "--trials", "60", "--seed", cli_seed()]),
        ]
        for family in ("exp", "poly"):
            n = str(int(round(_jitter(rng, 1e6, 0.2))))
            argv = ["report", "--family", family, "--alpha", "1", "--p", "40", "--n", n]
            commands.append((f"report {family}", argv + ["--d-min", "3", "--d-max", "12"]))
        return [(label, "cli.main", {"argv": argv}) for label, argv in commands]

    def build(self, spec):
        return tuple(spec["argv"])

    def call(self, op):
        self._calls += 1
        path = os.path.join(self.out_dir, f"{self._calls}.out")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(list(op.args) + ["--out", path])
        return (code, path)

    def check(self, op, summary):
        """Exit code 0, a passing artifact, byte-identical on every repeat."""
        code, path = summary
        if code != 0:
            return f"exit code {code}"
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        os.remove(path)
        first = self._first.setdefault(op.label, text)
        if text != first:
            return "artifact differs from the first run's"
        if op.args[0] == "report":
            rows = list(csv.reader(io.StringIO(text)))
            if len(rows) != 1 + 10:  # a header and one row per d in 3..12
                return f"report artifact has {len(rows)} lines, expected 11"
            return None
        status = json.loads(text).get("status")
        return None if status == "PASS" else f"artifact status {status!r}"


WORKLOADS = {"mc_risk": MCRisk, "bound_solve": BoundSolve, "bound_search": BoundSearch, "verify": Verify}
