import functools
import itertools
import json
import math
import re
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from subspace_bounds import (
    CheckFailed,
    ConditionNotMet,
    CovModel,
    DenoiseModel,
    InvalidInput,
    Spectrum,
    SubstochasticProgram,
    WeightMatrix,
    canonical_bound,
    cramer_rao_ratio,
    denoise_lower_bound,
    excess_lower_bound,
    exp_spectrum,
    hs_bound_d1,
    hs_lower_bound,
    lp_oracle,
    optimize_delta,
    poly_spectrum,
    relrank_bound,
    relrank_condition,
    singleton_max,
    spike_spectrum,
    substochastic_max,
)
from subspace_bounds import bounds

from conftest import random_spectrum


def random_program(rng, max_side=4, inf_frac=0.15):
    nr = int(rng.integers(1, max_side + 1))
    nc = int(rng.integers(1, max_side + 1))
    caps = rng.uniform(0.0, 1.0, (nr, nc))
    caps[rng.uniform(size=(nr, nc)) < inf_frac] = np.inf
    return SubstochasticProgram(
        caps, rng.uniform(0.05, 1.5, nr), rng.uniform(0.05, 1.5, nc)
    )


# Sums of at most 4 + 4 such caps stay finite at 2^990, and the smallest
# nonzero cap stays normal at 2^-990; a short list makes ties common.
_finite_caps = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(min_value=2.0**-20, max_value=4.0)
)


@st.composite
def programs(draw, max_side=4):
    """Programs of at most max_side x max_side with inf and zero edge caps,
    zero row and column caps, and tied caps."""
    nr, nc = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    edge_caps = st.one_of(_finite_caps, st.just(math.inf))
    caps = draw(st.lists(edge_caps, min_size=nr * nc, max_size=nr * nc))
    row_caps = draw(st.lists(_finite_caps, min_size=nr, max_size=nr))
    col_caps = draw(st.lists(_finite_caps, min_size=nc, max_size=nc))
    return SubstochasticProgram(np.reshape(caps, (nr, nc)), row_caps, col_caps)


_eigenvalues = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), st.floats(0.1, 4.0))


@st.composite
def search_models(draw):
    """Covariance and denoising models with p <= 6, tied and zero eigenvalues."""
    p = draw(st.integers(2, 6))
    lam = sorted(draw(st.lists(_eigenvalues, min_size=p, max_size=p)), reverse=True)
    d = draw(st.integers(1, p - 1))
    if draw(st.booleans()):
        return CovModel(Spectrum(np.array(lam) + 0.25, d), draw(st.integers(1, 100)))
    return DenoiseModel(Spectrum(lam, d), draw(st.floats(0.05, 2.0)))


def _brute_force_max(caps, row_base, row_slope, col_base, lo, hi, weight):
    """max of weight(t) * (lower envelope of every cut line) over lo, hi and
    every crossing of two cut lines; column caps are col_base + t, row caps
    row_base + row_slope * t."""
    nr, nc = caps.shape
    lines = []
    for rows_in in itertools.product([False, True], repeat=nr):
        for cols_in in itertools.product([False, True], repeat=nc):
            r, c = np.array(rows_in, dtype=bool), np.array(cols_in, dtype=bool)
            b = row_base[~r].sum() + col_base[c].sum() + caps[np.ix_(r, ~c)].sum()
            if np.isfinite(b):
                lines.append((row_slope * np.sum(~r) + np.sum(c), b))
    ts = [lo, hi] + [
        (b2 - b1) / (a1 - a2) for (a1, b1), (a2, b2) in itertools.combinations(lines, 2) if a1 != a2
    ]
    a, b = np.array(lines, dtype=np.float64).T
    return max(weight(t) * np.min(a * t + b) for t in ts if lo <= t <= hi)


def _brute_force_mu(model):
    """Exact excess maximum over mu in [lam_{d+1}, lam_d]."""
    lam, d = model.spectrum.lambdas, model.spectrum.d
    li, lj = lam[:d][lam[:d] > lam[d]], lam[d:][lam[d:] < lam[d - 1]]
    caps = li[:, None] * lj[None, :] / (model.n * (li[:, None] - lj[None, :]))
    return _brute_force_max(caps, li, -1, -lj, lam[d], lam[d - 1], lambda t: 1.0 / 3.0)


def _brute_force_delta(model):
    """Exact rectangle-bound maximum over delta in DELTA_RANGE."""
    lam, d = model.spectrum.lambdas, model.spectrum.d
    gaps = (lam[:d, None] - lam[None, d:]) ** 2
    if model.kind == "covariance":
        fisher = model.n * gaps / (lam[:d, None] * lam[None, d:])
    else:
        fisher = gaps / model.sigma**2
    with np.errstate(divide="ignore"):
        caps = 2.0 / fisher
    zeros_r, zeros_c = np.zeros(caps.shape[0]), np.zeros(caps.shape[1])
    return _brute_force_max(
        caps, zeros_r, 1, zeros_c, *bounds.DELTA_RANGE, lambda t: 1.0 / (1.0 + 2.0 * t)
    )


# (bound, family, alpha, p, n or sigma) of the benchmark's 13 single solves.
BOUND_SOLVE_INSTANCES = (
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


class ReferenceMaxFlowGraph:
    """The scanning pure-Python Dinic solver that ``bounds._MaxFlowGraph``
    replaced, kept verbatim as the oracle, with the same two counters:
    ``phases`` (phases that pushed) and ``paths`` (augmenting paths)."""

    def __init__(self, n: int, ends: np.ndarray, res: np.ndarray):
        owner = ends.ravel()
        order = owner.argsort(kind="stable").tolist()
        stops = np.bincount(owner, minlength=n).cumsum().tolist()
        self.n = n
        self.adj = [order[a:b] for a, b in zip([0] + stops, stops)]
        self.to: list[int] = ends[:, ::-1].ravel().tolist()
        self.res: list[float] = res.ravel().tolist()
        self.phases = self.paths = 0

    def max_flow(self, s: int, t: int) -> np.ndarray:
        """Push a maximum s-t flow; return the source side of a minimum cut."""
        n, adj, to, res = self.n, self.adj, self.to, self.res
        while True:
            level = [-1] * n
            level[s] = 0
            queue = [s]
            for u in queue:
                for eid in adj[u]:
                    v = to[eid]
                    if level[v] < 0 and res[eid] > 0.0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return np.array(level) >= 0
            self.phases += 1
            current = [0] * n
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    push = min(res[eid] for eid in path)
                    for eid in path:
                        res[eid] -= push
                        res[eid ^ 1] += push
                    k = next(k for k, eid in enumerate(path) if res[eid] == 0.0)
                    u = to[path[k] ^ 1]
                    del path[k:]
                    self.paths += 1
                    continue
                arcs, i, up = adj[u], current[u], level[u] + 1
                while i < len(arcs) and not (res[arcs[i]] > 0.0 and level[to[arcs[i]]] == up):
                    i += 1
                current[u] = i
                if i < len(arcs):
                    path.append(arcs[i])
                    u = to[arcs[i]]
                elif u == s:
                    break
                else:
                    level[u] = -1  # dead end: no path to t through u this phase
                    u = to[path.pop() ^ 1]
                    current[u] += 1


def counted_solves(compute):
    """compute() and the (phases, paths) of each graph that its flow solves ran."""
    ran = []

    class Counted(bounds._MaxFlowGraph):
        def max_flow(self):
            ran.append(self)
            return super().max_flow()

    with mock.patch.object(bounds, "_MaxFlowGraph", Counted):
        out = compute()
    return out, [(graph.phases, graph.paths) for graph in ran]


def solve_counted(prog):
    """substochastic_max(prog) and the (phases, paths) of the one graph it solved."""
    sol, (counts,) = counted_solves(lambda: substochastic_max(prog))
    return sol, counts


def reference_solve(prog, first_phase=True):
    """substochastic_max(prog) as it ran on arc arrays, on the frozen
    ``ReferenceMaxFlowGraph``: (solution, (phases, paths)).  Like the solver,
    it solves the program with its columns reversed and reverses the flows
    and the cut's columns back.  The graph holds the source arcs, the built
    edges of the reversed program row-major and the sink arcs, in that arc
    order, each followed by its reverse; the reverse residuals of i -> s and
    t -> j are left at 0.  Its residuals start from the numpy first phase's
    flows, or from zero flow, and the flows are read back from the edges'
    reverse residuals."""
    nr, nc = prog.shape
    built = (prog.caps > 0.0) & (prog.row_caps > 0.0)[:, None] & (prog.col_caps > 0.0)[None, :]
    rbuilt, rcaps, rcol_caps = built[:, ::-1], prog.caps[:, ::-1], prog.col_caps[::-1]
    rows, cols = np.nonzero(rbuilt)
    if first_phase:
        work = np.full((nr + 1, nc + 1), np.nan)  # the phase writes what it reads
        rev, row_res = bounds._first_phase(np.where(rbuilt, rcaps, 0.0), prog.row_caps, rcol_caps, work)
        flow, col_res = rev[:-1][rbuilt], rev[-1]
    else:
        flow, row_res, col_res = np.zeros(len(rows)), prog.row_caps, rcol_caps
    src, snk = 0, nr + nc + 1
    tails = np.concatenate([np.full(nr, src), 1 + rows, np.arange(1 + nr, snk)])
    heads = np.concatenate([np.arange(1, 1 + nr), 1 + nr + cols, np.full(nc, snk)])
    forward = np.concatenate([row_res, rcaps[rbuilt] - flow, col_res])
    reverse = np.concatenate([np.zeros(nr), flow, np.zeros(nc)])
    ends, res = np.column_stack([tails, heads]), np.column_stack([forward, reverse])
    g = ReferenceMaxFlowGraph(snk + 1, ends, res)
    side = g.max_flow(src, snk)
    assert side[src] and not side[snk]  # this graph ran to a minimum cut
    x = np.zeros((nr, nc))
    x[rbuilt] = g.res[2 * nr + 1 : 2 * (nr + len(flow)) : 2]
    x = np.ascontiguousarray(x[:, ::-1])
    sol = bounds._certified(prog, built, x, side[1 : 1 + nr], side[1 + nr : snk][::-1], np.empty((nr, nc)))
    return sol, (g.phases, g.paths)


def reference_solution(prog):
    """The frozen Python Dinic from zero flow, every phase its own."""
    return reference_solve(prog, first_phase=False)[0]


def assert_same_pushes(prog):
    """The matrix solver and the frozen Python Dinic, both after the numpy
    first phase, give the same bits and the same phase and path counts;
    returns those counts."""
    sol, counts = solve_counted(prog)
    ref, ref_counts = reference_solve(prog)
    assert_same_bits(sol, ref)
    assert counts == ref_counts
    return counts


def sparse_program(nr, nc, degree, seed):
    """nr x nc program with about ``degree`` edges per row, integer edge caps
    1..3 and integer row and column caps 1..8."""
    rng = np.random.default_rng(seed)
    caps = rng.integers(1, 4, (nr, nc)).astype(np.float64)
    caps[rng.uniform(size=(nr, nc)) >= degree / nc] = 0.0
    return SubstochasticProgram(caps, rng.integers(1, 9, nr), rng.integers(1, 9, nc))


def assert_same_bits(sol, ref):
    assert sol._fields == ref._fields
    for name, a, b in zip(sol._fields, sol, ref):
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def scaled(prog, k):
    """The same program with every cap multiplied by 2^k."""
    return SubstochasticProgram(
        np.ldexp(prog.caps, k), np.ldexp(prog.row_caps, k), np.ldexp(prog.col_caps, k)
    )


# Programs where the dense first phase masks unbuilt edges: an inf cap in a zero-cap
# row, zero-cap columns (one of them -0.0), a row that saturates after an unbuilt
# column, and single-row and single-column programs; and rows at its early test.
# The solver scans row 0 of the last two from its last column: 0.5, then 0.6 - 0.5,
# so its last residual is exactly 0.0; or 0.5, then 0.3, so it saturates at its
# middle column with push 0.6 - 0.5.  Their row 1 takes what the columns have left.
MASKING_CASES = {
    "zero_row_inf_caps": SubstochasticProgram(
        [[np.inf, np.inf, np.inf], [0.5, 0.2, 0.9], [0.3, np.inf, 0.1]],
        [0.0, 1.0, 0.7], [0.3, 0.4, 0.5],
    ),
    "zero_col": SubstochasticProgram(
        [[0.5, np.inf, 0.2], [0.3, 0.7, np.inf], [0.9, 0.0, 0.4]], [1.0, 1.0, 0.5], [0.6, 0.0, 0.8]
    ),
    "negative_zero_col": SubstochasticProgram(
        [[0.5, np.inf, 0.2], [0.3, 0.7, np.inf]], [1.0, 1.0], [0.6, -0.0, 0.8]
    ),
    "saturates_after_unbuilt_col": SubstochasticProgram(
        [[0.4, np.inf, 0.9, 0.5], [0.3, 0.0, 0.3, 0.3], [0.6, 0.6, 0.0, 0.2]],
        [1.0, 0.5, 0.8], [1.0, 0.0, 0.4, 1.0],
    ),
    "one_row": SubstochasticProgram(
        [[0.2, np.inf, 0.5, 0.0, 0.3]], [1.0], [0.5, 0.3, 0.4, 1.0, 0.0]
    ),
    "one_col": SubstochasticProgram(
        [[0.2], [np.inf], [0.5], [0.0], [0.3]], [0.5, 0.3, 0.4, 1.0, 0.0], [1.0]
    ),
    "last_residual_zero": SubstochasticProgram(
        [[0.6 - 0.5, 0.5], [np.inf, np.inf]], [0.6, 1.0], [1.0, 1.0]
    ),
    "saturates_mid_row": SubstochasticProgram(
        [[0.3, 0.3, 0.5], [np.inf] * 3], [0.6, 1.0], [1.0, 1.0, 1.0]
    ),
}


@st.composite
def monotone_programs(draw, max_side=6):
    """Programs shaped like the bound programs, whose leading rows the first
    phase takes as one block: edge caps rise down the rows and fall along the
    columns, with ties, leading inf caps in any row (a count that does not fall
    down the rows), zero column caps, and row caps up to 64, so that rows with
    inf caps still fit below their row caps."""
    nr, nc = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    flat = draw(st.lists(_finite_caps, min_size=nr * nc, max_size=nr * nc))
    # Sorting each row of a column-sorted matrix keeps its columns sorted.
    caps = np.sort(np.sort(np.reshape(flat, (nr, nc)), axis=0), axis=1)[:, ::-1].copy()
    for i, k in enumerate(sorted(draw(st.lists(st.integers(0, nc), min_size=nr, max_size=nr)))):
        caps[i, :k] = np.inf
    row_caps = draw(st.lists(st.one_of(_finite_caps, st.sampled_from([16.0, 64.0])), min_size=nr, max_size=nr))
    col_caps = draw(st.lists(_finite_caps, min_size=nc, max_size=nc))
    return SubstochasticProgram(caps, row_caps, col_caps)


# Row 1's clipped caps sum below its row cap 1.32 (0.13 + 0.28 + 0.3 + 0.61 rounds
# to 1.32 - ulp), but subtracted from it in the solver's order, from its last
# column, they leave 1.32 - 0.13 - 0.28 - 0.3 - 0.61 = -1.1e-16: the block stops
# before row 1, and the row loop saturates row 1, pushing what is left of the row
# cap (0.61 - ulp) on its last arc and leaving 0.0.  Row 2 does not fit.
TRUNCATED_BLOCK = SubstochasticProgram(
    [[0.1] * 4, [0.61, 0.3, 0.28, 0.13], [np.inf] * 4], [1.0, 1.32, 1.0], [2.0] * 4
)


@st.composite
def bound_calls(draw, searches_only=False):
    """A call of hs_lower_bound, denoise_lower_bound, excess_lower_bound (mu fixed or
    "auto") or optimize_delta on an exp, poly or uniform spectrum with p <= 40,
    scaled by 10^k with |k| <= 300 (sigma with it), at n <= 1e9 and delta across
    DELTA_RANGE; with ``searches_only``, a call of excess_lower_bound(mu="auto") or
    optimize_delta."""
    p = draw(st.integers(2, 40))
    d = draw(st.integers(1, p - 1))
    family = draw(st.sampled_from(["exp", "poly", "uniform"]))
    if family == "exp":
        lam = exp_spectrum(draw(st.floats(0.01, 0.5)), p).lambdas
    elif family == "poly":
        lam = poly_spectrum(draw(st.floats(0.1, 2.0)), p).lambdas
    else:
        lam = np.sort(draw(st.lists(st.floats(0.1, 10.0), min_size=p, max_size=p, unique=True)))
        lam = lam[::-1]
    scale = 10.0 ** draw(st.integers(-300, 300))
    spectrum = Spectrum(lam * scale, d)
    cov = CovModel(spectrum, draw(st.integers(1, 10**9)))
    denoise = DenoiseModel(spectrum, draw(st.floats(1e-3, 10.0)) * scale)
    delta = 10.0 ** draw(st.floats(*np.log10(bounds.DELTA_RANGE)))
    mu_lo, mu_hi = spectrum.lambdas[d], spectrum.lambdas[d - 1]
    mu = min(mu_lo + draw(st.floats(0.0, 1.0)) * (mu_hi - mu_lo), mu_hi)
    fixed = [
        functools.partial(hs_lower_bound, cov, delta),
        functools.partial(denoise_lower_bound, denoise, delta),
        functools.partial(excess_lower_bound, cov, mu),
    ]
    searches = [
        functools.partial(excess_lower_bound, cov, "auto"),
        functools.partial(optimize_delta, cov),
        functools.partial(optimize_delta, denoise),
    ]
    return draw(st.sampled_from(searches if searches_only else fixed + searches))


@pytest.fixture(scope="module")
def solve_programs():
    """The programs of the 13 bound_solve instances at d = p/2, keyed by
    (bound, family, p): delta = 1 for hs and denoise, and mu halfway between
    lam_d and lam_{d+1} for excess."""
    out = {}
    for bound, family, alpha, p, param in BOUND_SOLVE_INSTANCES:
        spectrum = (exp_spectrum if family == "exp" else poly_spectrum)(alpha, p, p // 2)
        if bound == "denoise":
            prog = bounds._rectangle_program(DenoiseModel(spectrum, param), 1.0)
        elif bound == "hs":
            prog = bounds._rectangle_program(CovModel(spectrum, param), 1.0)
        else:
            model, lam = CovModel(spectrum, param), spectrum.lambdas
            mid_mu = 0.5 * (lam[p // 2 - 1] + lam[p // 2])
            prog = bounds._excess_program(model, mid_mu, *bounds._excess_index_sets(model))
        out[bound, family, p] = prog
    return out


@pytest.fixture(scope="module")
def large(solve_programs):
    """hs exp:0.02,400 n=1000 (200 x 200), excess
    exp:0.02,400 n=1000 at mid mu, and denoise exp:0.02,200 sigma=0.1."""
    keys = {"hs": 400, "excess": 400, "denoise": 200}
    return {name: solve_programs[name, "exp", p] for name, p in keys.items()}


class TestSubstochasticMax:
    def test_zero_caps(self):
        prog = SubstochasticProgram(np.zeros((2, 3)), np.ones(2), np.ones(3))
        sol = substochastic_max(prog)
        assert sol.value == 0.0
        assert np.all(sol.x == 0.0)

    def test_empty_rows(self):
        prog = SubstochasticProgram(np.zeros((0, 3)), np.zeros(0), np.ones(3))
        assert substochastic_max(prog).value == 0.0

    @pytest.mark.parametrize("edge_cap", [0.0, 1.0, np.inf])
    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
    def test_empty_program_has_the_flags_of_one_zero_cap_line_more(self, shape, edge_cap):
        """A program with no rows (columns), whose columns (rows) have zero and
        positive caps, gives flow and cut 0.0 on the general path, and the flags
        of the same program with one zero-cap row (column) appended."""
        nr, nc = shape
        row_caps, col_caps = [0.0, 1.5][:nr], [0.0, 1.0, 2.5][:nc]
        sol = substochastic_max(SubstochasticProgram(np.zeros(shape), row_caps, col_caps))
        assert (sol.value, sol.cut_value, sol.x.shape) == (0.0, 0.0, shape)
        if nr == 0:
            padded = SubstochasticProgram(np.full((1, nc), edge_cap), [0.0], col_caps)
        else:
            padded = SubstochasticProgram(np.full((nr, 1), edge_cap), row_caps, [0.0])
        ref = substochastic_max(padded)
        assert (ref.value, ref.cut_value) == (0.0, 0.0)
        np.testing.assert_array_equal(sol.tight_rows, ref.tight_rows[:nr])
        np.testing.assert_array_equal(sol.tight_cols, ref.tight_cols[:nc])
        assert sol.tight_edges.shape == shape

    def test_infinite_caps_min_cut(self):
        prog = SubstochasticProgram(
            np.full((3, 2), np.inf), [1.0, 2.0, 0.5], [1.5, 1.0]
        )
        sol = substochastic_max(prog)
        assert sol.value == pytest.approx(min(3.5, 2.5), abs=1e-12)

    def test_two_by_two_against_oracle(self):
        prog = SubstochasticProgram(
            [[0.3, np.inf], [0.2, 0.1]], [1.0, 1.0], [0.25, 1.0]
        )
        sol = substochastic_max(prog)
        assert sol.value == pytest.approx(lp_oracle([prog])[0], abs=1e-9)

    def test_matches_oracle_and_certificate(self):
        rng = np.random.default_rng(17)
        for _ in range(120):
            prog = random_program(rng)
            sol = substochastic_max(prog)
            assert abs(sol.value - lp_oracle([prog])[0]) <= 1e-8
            assert abs(sol.value - sol.cut_value) <= 1e-9 * max(1.0, sol.value)

    def test_solution_is_feasible(self):
        rng = np.random.default_rng(18)
        for _ in range(40):
            prog = random_program(rng)
            sol = substochastic_max(prog)
            assert np.all(sol.x >= -1e-12)
            assert np.all(sol.x <= prog.caps + 1e-9)
            assert np.all(sol.x.sum(axis=1) <= prog.row_caps + 1e-9)
            assert np.all(sol.x.sum(axis=0) <= prog.col_caps + 1e-9)

    def test_matches_lp_oracle_at_bound_sizes(self, solve_programs):
        """Random rectangles of the bound assemblies' sizes, and the programs
        of all 13 bound_solve instances at p = 100..400; each set is one LP."""
        rng = np.random.default_rng(51)
        rectangles = []
        for _ in range(10):
            nr, nc = int(rng.integers(5, 9)), int(rng.integers(6, 13))
            caps = rng.uniform(0.0, 1.0, (nr, nc))
            caps[rng.uniform(size=(nr, nc)) < 0.1] = np.inf
            rectangles.append(SubstochasticProgram(
                caps, rng.uniform(0.05, 2.0, nr), rng.uniform(0.05, 2.0, nc)
            ))
        for prog, optimum in zip(rectangles, lp_oracle(rectangles), strict=True):
            assert abs(substochastic_max(prog).value - optimum) <= 1e-8
        assert len(solve_programs) == 13
        optima = lp_oracle(list(solve_programs.values()))
        for (key, prog), optimum in zip(solve_programs.items(), optima, strict=True):
            value = substochastic_max(prog).value
            assert abs(value - optimum) <= 1e-9 * value, key

    def test_monotone_in_capacities(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            prog = random_program(rng, inf_frac=0.0)
            base = substochastic_max(prog).value
            caps = np.array(prog.caps)
            i = int(rng.integers(caps.shape[0]))
            j = int(rng.integers(caps.shape[1]))
            caps[i, j] += rng.uniform(0.1, 1.0)
            grown = SubstochasticProgram(caps, prog.row_caps, prog.col_caps)
            assert substochastic_max(grown).value >= base - 1e-12

    def test_rejects_negative_caps(self):
        with pytest.raises(InvalidInput):
            SubstochasticProgram([[-0.1]], [1.0], [1.0])
        with pytest.raises(InvalidInput):
            SubstochasticProgram([[0.1]], [np.inf], [1.0])

    @pytest.mark.parametrize(
        "caps, row_caps, col_caps, message",
        [
            ([0.1, 0.2], [1.0], [1.0, 1.0], "caps must be a 2-d array"),
            ([[0.1, 0.2]], [1.0, 1.0], [1.0, 1.0], "row/col cap lengths must match"),
            ([[0.1, 0.2]], [1.0], [1.0], "row/col cap lengths must match"),
            ([[0.1]], [1.0], [np.inf], "col caps must be finite and nonnegative"),
            ([[0.1]], [1.0], [-1.0], "col caps must be finite and nonnegative"),
            ([[0.1]], [1.0], [np.nan], "col caps must be finite and nonnegative"),
            ([[np.nan, 0.1]], [1.0], [1.0, 1.0], r"edge caps must be nonnegative \(inf allowed\)"),
            ([[0.1], [0.1]], [1.0, np.nan], [1.0], "row caps must be finite and nonnegative"),
            ([[0.1]], [-np.inf], [1.0], "row caps must be finite and nonnegative"),
            ([[0.1]], [np.inf], [1.0], "row caps must be finite and nonnegative"),
            ([[0.1], [0.1]], [1.0, -1.0], [1.0], "row caps must be finite and nonnegative"),
        ],
        ids=["1d_caps", "row_length", "col_length", "inf_col_cap", "negative_col_cap",
             "nan_col_cap", "nan_edge_cap", "nan_row_cap", "minus_inf_row_cap", "inf_row_cap",
             "negative_row_cap"],
    )
    def test_rejects_malformed_programs(self, caps, row_caps, col_caps, message):
        with pytest.raises(InvalidInput, match=message):
            SubstochasticProgram(caps, row_caps, col_caps)

    def test_certificate_is_relative_at_tiny_scale(self):
        # caps near 2^-60 sit far below any absolute threshold; the cut must
        # still match the flow relative to the flow itself
        rng = np.random.default_rng(29)
        for _ in range(20):
            prog = random_program(rng)
            sol = substochastic_max(scaled(prog, -60))
            assert sol.value > 0.0
            assert abs(sol.cut_value - sol.value) <= 1e-9 * sol.value

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(programs(), st.integers(-990, 990))
    def test_matches_oracle_and_scales_exactly(self, prog, k):
        sol = substochastic_max(prog)
        assert abs(sol.value - lp_oracle([prog])[0]) <= 1e-9
        scaled_sol = substochastic_max(scaled(prog, k))
        assert scaled_sol.value == math.ldexp(sol.value, k)
        assert abs(scaled_sol.cut_value - scaled_sol.value) <= 1e-9 * scaled_sol.value

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(programs(max_side=6), st.integers(-990, 990))
    def test_first_phase_keeps_the_python_bits(self, prog, k):
        prog = scaled(prog, k)
        assert_same_bits(substochastic_max(prog), reference_solution(prog))

    @pytest.mark.parametrize(
        "name, flows",
        [("last_residual_zero", [0.5, 0.6 - 0.5]), ("saturates_mid_row", [0.5, 0.6 - 0.5, 0.0])],
    )
    def test_first_phase_rows_at_the_early_test(self, name, flows):
        """Row 0 of these cases, in the solver's reversed column order, ends at
        exactly 0.0 or saturates mid-row; either way it is left with 0.0."""
        prog = MASKING_CASES[name]
        work = np.empty(np.add(prog.shape, 1))
        rev, row_res = bounds._first_phase(prog.caps[:, ::-1], prog.row_caps, prog.col_caps[::-1], work)
        assert (rev[0].tolist(), row_res[0]) == (flows, 0.0)

    @pytest.mark.parametrize("name", ["hs", "excess", "denoise", *MASKING_CASES])
    def test_first_phase_keeps_the_python_bits_at_real_sizes(self, name, large):
        """The benchmark's programs, and the masking edge cases of the dense
        first phase, which must also raise no RuntimeWarning."""
        prog = MASKING_CASES[name] if name in MASKING_CASES else large[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert_same_bits(substochastic_max(prog), reference_solution(prog))
            if name in MASKING_CASES:
                assert_same_pushes(prog)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(monotone_programs(), st.integers(-990, 990))
    def test_leading_block_keeps_the_python_bits(self, prog, k):
        prog = scaled(prog, k)
        assert_same_bits(substochastic_max(prog), reference_solution(prog))

    def test_block_stops_before_row_1(self):
        """Row 1's clipped caps sum below its row cap, but the pre-test subtracts
        them in the loop's order and is left with a last residual below 0, so the
        block is row 0 alone and the row loop saturates row 1."""
        prog = TRUNCATED_BLOCK
        caps, col_caps = prog.caps[:, ::-1], prog.col_caps[::-1]
        clipped = np.minimum(caps, col_caps)
        assert (clipped.sum(axis=1) < prog.row_caps).tolist() == [True, True, False]
        fits = np.subtract.reduce(np.column_stack([prog.row_caps, clipped]), axis=1) > 0.0
        assert fits.tolist() == [True, False, False]
        left = [1.32]
        for cap in caps[1].tolist():
            left.append(left[-1] - cap)
        assert left[-1] < 0.0 < left[-2] < 0.61
        rev, row_res = bounds._first_phase(caps, prog.row_caps, col_caps, np.empty((4, 5)))
        assert row_res[:2].tolist() == [1.0 - 0.1 - 0.1 - 0.1 - 0.1, 0.0]
        assert rev[1].tolist() == [0.13, 0.28, 0.3, left[-2]]
        assert_same_bits(substochastic_max(prog), reference_solution(prog))
        assert_same_pushes(prog)

    def test_bound_solve_tracemalloc_peak(self):
        """One hs and one fixed-mu excess bound at p = 400 (200 x 200 programs)
        each peak below 3.5 float matrices of the program's size: the program,
        the flows and the cut's crossing edge caps in the check (or the program
        and the Fisher rectangle that it copies).  The residual matrices and the
        check's scratch are views of the workspace that the first call grew."""
        model = CovModel(exp_spectrum(0.02, 400, 200), 1000)
        lam = model.spectrum.lambdas
        mu = 0.5 * float(lam[200] + lam[199])
        for bound, arg in ((hs_lower_bound, 1.0), (excess_lower_bound, mu)):
            bound(model, arg)
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                bound(model, arg)
                peak = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
            assert peak < 3.5 * 200 * 200 * 8, bound.__name__


class TestCertified:
    """``_certified`` is the one check of every flow: the cut's capacity must
    equal the flow, and the flow must keep its caps."""

    @staticmethod
    def certify(prog, x):
        """_certified on the cut with the row and both columns on the source
        side, whose capacity is the two column caps, 2."""
        built = np.ones(prog.shape, dtype=bool)
        return bounds._certified(prog, built, np.array(x), np.array([True]), np.array([True, True]),
                                 np.empty(prog.shape))

    def test_edge_cap_breach_raises(self):
        prog = SubstochasticProgram([[1.0, 1.0]], [2.0], [1.0, 1.0])
        with pytest.raises(CheckFailed, match="solver returned an infeasible mass matrix"):
            self.certify(prog, [[1.5, 0.5]])

    def test_row_cap_breach_raises(self):
        prog = SubstochasticProgram([[1.0, 1.0]], [1.5], [1.0, 1.0])
        with pytest.raises(CheckFailed, match="solver violated a row/column cap"):
            self.certify(prog, [[1.0, 1.0]])

    def test_duality_gap_raises(self):
        prog = SubstochasticProgram([[1.0, 1.0]], [2.0], [1.0, 1.0])
        with pytest.raises(CheckFailed, match="max-flow duality gap"):
            self.certify(prog, [[1.0, 0.5]])

    def test_negative_mass_raises(self):
        # the flow 2 meets the cut 2, but one edge carries -0.5
        prog = SubstochasticProgram([[3.0, 1.0]], [3.0], [1.0, 1.0])
        with pytest.raises(CheckFailed, match="solver returned an infeasible mass matrix"):
            self.certify(prog, [[2.5, -0.5]])

    def test_col_cap_breach_raises(self):
        prog = SubstochasticProgram([[2.0, 1.0]], [2.0], [1.0, 1.0])
        with pytest.raises(CheckFailed, match="solver violated a row/column cap"):
            self.certify(prog, [[1.5, 0.5]])

    def test_breaches_within_the_tolerance_pass(self):
        # edge 0 and column 0 go over their caps by 5e-10, below the tolerance 2e-9
        prog = SubstochasticProgram([[1.0, 1.0]], [2.0], [1.0, 1.0])
        sol = self.certify(prog, [[1.0 + 5e-10, 1.0 - 5e-10]])
        assert sol.tight_rows.tolist() == [True] and sol.tight_edges.tolist() == [[True, True]]


def workspace_buffers():
    """This thread's workspace buffers, as ``substochastic_max`` left them."""
    return list(bounds._WORKSPACE.buffers)


def solution_bytes(sol):
    """Every field of a solution as (dtype, shape, bytes)."""
    return [(np.asarray(a).dtype, np.shape(a), np.asarray(a).tobytes()) for a in sol]


def solve_on_workspace(prog, fill):
    """substochastic_max(prog) on a workspace whose buffers hold only ``fill``."""
    size = (prog.shape[0] + 1) * (prog.shape[1] + 1)
    bounds._WORKSPACE.buffers = tuple(np.full(size, fill) for _ in range(3))
    return substochastic_max(prog)


# Programs whose solves read the workspace in every way: the masking cases of the
# first phase, a block cut before row 1, and programs that run later phases.
STALE_CASES = {
    **MASKING_CASES,
    "truncated_block": TRUNCATED_BLOCK,
    "neither_line_monotone": SubstochasticProgram(np.ones((2, 2)), [1.0, 3.0], [3.0, 1.0]),
    "sparse": sparse_program(12, 9, 3, 4),
}


class TestWorkspace:
    """A solve's three transient matrices are views of a per-thread workspace
    that is kept between solves.  Nothing returned may alias it, no solve may
    read an entry that an earlier one left there, and threads do not share it."""

    def test_kept_results_keep_their_bytes(self):
        """Results of every shape, the 1 x 1 one included, whose flows are a
        contiguous view of the work matrix before they are copied, keep their
        bytes while later solves of equal and larger size reuse the workspace."""
        rng = np.random.default_rng(34)

        def program(nr, nc):
            caps = rng.uniform(0.1, 1.0, (nr, nc))
            return SubstochasticProgram(caps, rng.uniform(0.1, 1.5, nr), rng.uniform(0.1, 1.5, nc))

        shapes = [(1, 1), (1, 5), (5, 1), (0, 4), (4, 0), (6, 5)]
        substochastic_max(program(7, 7))  # the kept solves then run on the workspace
        kept = []
        for shape in shapes:
            sol = substochastic_max(program(*shape))
            kept.append((sol, solution_bytes(sol), workspace_buffers()))
        for shape in shapes + [(7, 7), (30, 40)]:
            substochastic_max(program(*shape))
        for sol, before, buffers in kept:
            assert solution_bytes(sol) == before
            for name in ("x", "tight_rows", "tight_cols", "tight_edges"):
                field = getattr(sol, name)
                assert not any(np.shares_memory(field, buf) for buf in buffers + workspace_buffers()), name

    @pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", sorted(STALE_CASES))
    def test_stale_entries_are_never_read(self, name, fill):
        prog = STALE_CASES[name]
        assert solution_bytes(solve_on_workspace(prog, fill)) == solution_bytes(solve_on_workspace(prog, 0.0))

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(programs(max_side=6), st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_stale_entries_are_never_read_on_random_programs(self, prog, fill):
        assert solution_bytes(solve_on_workspace(prog, fill)) == solution_bytes(solve_on_workspace(prog, 0.0))

    def test_threads_keep_the_serial_bits(self):
        """Three threads solve different sequences of programs of mixed size, the
        larger ones with later phases, switching often; each result has the bits
        of the same solve run alone."""
        rng = np.random.default_rng(35)
        sequences = [[random_program(rng, max_side=int(rng.choice([2, 6, 40]))) for _ in range(120)]
                     for _ in range(3)]
        serial = [[solution_bytes(substochastic_max(prog)) for prog in seq] for seq in sequences]
        threaded = [[] for _ in sequences]
        start = threading.Barrier(len(sequences), timeout=60)

        def run(k):
            start.wait()
            threaded[k].extend(solution_bytes(substochastic_max(prog)) for prog in sequences[k])

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(sequences))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert threaded == serial


class TestLaterPhases:
    """The matrix Dinic makes the frozen Python Dinic's pushes after the first
    phase.  On bound programs, whose columns the solver reverses, the first
    phase is already a maximum flow; the sparse integer rectangles and the
    masking cases still run later phases."""

    def test_bound_solve_programs(self, solve_programs):
        counts = [assert_same_pushes(prog) for prog in solve_programs.values()]
        assert sum(phases > 0 for phases, _ in counts) == 0

    @pytest.mark.parametrize(
        "search",
        [
            lambda: optimize_delta(DenoiseModel(exp_spectrum(0.02, 60, 30), 0.1)),
            lambda: excess_lower_bound(CovModel(exp_spectrum(0.02, 20, 10), 100), "auto"),
        ],
        ids=["optimize_delta", "excess_auto"],
    )
    def test_search_solves(self, search):
        with mock.patch.object(bounds, "substochastic_max", wraps=substochastic_max) as solver:
            search()
        (call,) = solver.call_args_list  # one flow solve per search
        phases, _ = assert_same_pushes(call.args[0])
        assert phases == 0

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        st.integers(1, 80),
        st.integers(1, 80),
        st.sampled_from([2, 3, 5, 8]),
        st.integers(0, 2**32 - 1),
    )
    def test_sparse_integer_rectangles(self, nr, nc, degree, seed):
        assert_same_pushes(sparse_program(nr, nc, degree, seed))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(bound_calls())
    def test_bound_programs_need_no_later_phase(self, call):
        """Every flow solve of a bound or a search ends with its first phase."""
        _, counts = counted_solves(call)
        assert counts and all(phases == 0 for phases, _ in counts)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(monotone_programs())
    def test_greedy_flow_is_maximum_on_the_bound_class(self, prog):
        """Edge caps rising down the rows and falling along the columns, row caps
        non-increasing and column caps non-decreasing, as in the bound programs:
        the first phase is a maximum flow, and the least prefix cut equals it."""
        prog = SubstochasticProgram(prog.caps, np.sort(prog.row_caps)[::-1], np.sort(prog.col_caps))
        sol, (phases, _) = solve_counted(prog)
        assert phases == 0
        least = bounds._prefix_cuts(bounds._crossing_caps(prog.caps), prog.row_caps, prog.col_caps).min()
        assert abs(least - sol.value) <= bounds.DUALITY_TOL * sol.value

    def test_neither_line_monotone_runs_a_later_phase(self):
        """Monotone edge caps, row caps rising and column caps falling: the first
        phase fills row 0 from column 1 and leaves row 1 only column 0, flow 2 of 3."""
        prog = SubstochasticProgram(np.ones((2, 2)), [1.0, 3.0], [3.0, 1.0])
        sol, (phases, _) = solve_counted(prog)
        assert phases > 0 and sol.value == 3.0

    def test_sparse_family_needs_several_phases(self):
        phases = [solve_counted(sparse_program(80, 80, 5, seed))[1][0] for seed in range(20)]
        assert max(phases) >= 4


class TestLpOracle:
    def test_singleton(self):
        prog = SubstochasticProgram([[2.0]], [1.0], [1.0])
        assert lp_oracle([prog])[0] == pytest.approx(1.0, abs=1e-10)

    def test_zero_caps(self):
        prog = SubstochasticProgram([[0.0, 0.0]], [1.0], [1.0, 1.0])
        assert lp_oracle([prog])[0] == pytest.approx(0.0, abs=1e-12)
        assert lp_oracle([SubstochasticProgram(np.zeros((0, 3)), [], np.ones(3))])[0] == 0.0

    def test_no_positive_cap_makes_no_solve(self):
        no_caps = [SubstochasticProgram(np.zeros((2, 3)), np.ones(2), np.ones(3)),
                   SubstochasticProgram(np.zeros((0, 3)), [], np.ones(3))]
        with mock.patch("scipy.optimize.milp") as milp:
            empty = lp_oracle([])
            zeros = lp_oracle(no_caps)
        assert empty.shape == (0,) and empty.dtype == np.float64
        assert zeros.tolist() == [0.0, 0.0]
        milp.assert_not_called()

    def test_one_lp_is_each_program_alone(self):
        """Every block of the joint LP has the optimum of its program alone, in
        either order: random programs with inf, zero and tied caps, a 0 x 3
        program and an all-zero one."""
        rng = np.random.default_rng(61)
        progs = []
        for _ in range(40):
            prog = random_program(rng)
            caps = np.array(prog.caps)
            caps[rng.uniform(size=caps.shape) < 0.15] = 0.0
            caps[rng.uniform(size=caps.shape) < 0.2] = 0.5  # ties
            progs.append(SubstochasticProgram(caps, prog.row_caps, prog.col_caps))
        progs[7] = SubstochasticProgram(np.zeros((0, 3)), [], np.ones(3))
        progs[19] = SubstochasticProgram(np.zeros((3, 2)), np.ones(3), np.ones(2))
        joint = lp_oracle(progs)
        assert joint.shape == (len(progs),) and joint.dtype == np.float64
        assert joint[7] == 0.0 and joint[19] == 0.0
        for prog, value in zip(progs, joint, strict=True):
            assert abs(value - substochastic_max(prog).value) <= 1e-9
            assert abs(value - lp_oracle([prog])[0]) <= 1e-12
        assert np.all(np.abs(lp_oracle(progs[::-1])[::-1] - joint) <= 1e-12)

    def test_failed_solve_raises(self):
        prog = SubstochasticProgram([[2.0]], [1.0], [1.0])
        failed = mock.Mock(success=False, message="mocked failure")
        with mock.patch("scipy.optimize.milp", return_value=failed):
            with pytest.raises(RuntimeError, match="LP oracle failed: mocked failure"):
                lp_oracle([prog, prog])

    def test_agrees_at_40k_variables(self, large):
        prog = large["hs"]
        assert np.count_nonzero(prog.caps > 0.0) == 40_000
        value = substochastic_max(prog).value
        assert abs(value - lp_oracle([prog])[0]) <= 1e-9 * value


class TestHsLowerBound:
    def test_two_point_value(self):
        model = CovModel(spike_spectrum(2, 1, 1, 2), n=8)
        result = hs_lower_bound(model, delta=1.0)
        assert result.value == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert result.prefactor == pytest.approx(1.0 / 3.0)

    def test_flat_spectrum(self):
        for d, p, delta in ((2, 6, 1.0), (3, 8, 2.0), (5, 7, 0.5)):
            model = CovModel(spike_spectrum(1, 1, d, p), n=5)
            expected = delta / (1 + 2 * delta) * min(d, p - d)
            assert hs_lower_bound(model, delta).value == pytest.approx(expected, abs=1e-12)

    def test_shrinks_to_zero_in_n(self):
        spectrum = Spectrum([2.0, 1.0, 0.5], 1)
        values = [hs_lower_bound(CovModel(spectrum, n), 1.0).value for n in (10, 100, 1000)]
        assert values[0] >= values[1] >= values[2]
        assert values[2] < 1e-2

    def test_flow_value_nondecreasing_in_delta(self):
        model = CovModel(Spectrum([3.0, 2.0, 1.0, 0.5], 2), n=20)
        deltas = (0.1, 0.5, 1.0, 2.0, 8.0)
        flows = [hs_lower_bound(model, dl).value * (1 + 2 * dl) for dl in deltas]
        assert all(b >= a - 1e-12 for a, b in zip(flows, flows[1:]))

    @pytest.mark.parametrize("delta", [np.inf, np.nan, 0.0, -1.0])
    def test_delta_must_be_finite_and_positive(self, delta):
        cov = CovModel(spike_spectrum(2, 1, 1, 2), n=8)
        denoise = DenoiseModel(spike_spectrum(2, 1, 1, 2), 0.5)
        cases = ((hs_lower_bound, cov), (denoise_lower_bound, denoise), (hs_bound_d1, cov))
        for bound, model in cases:
            with pytest.raises(InvalidInput, match="^delta must be finite and > 0$"):
                bound(model, delta)

    def test_full_rank_gives_zero(self):
        model = CovModel(Spectrum([2.0, 1.0], 2), n=5)
        assert hs_lower_bound(model, 1.0).value == 0.0

    def test_closed_form_matches_solver_for_rank_one(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            p = int(rng.integers(2, 13))
            lam = np.sort(rng.uniform(0.1, 4.0, p))[::-1]
            if rng.uniform() < 0.25:
                lam[1] = lam[0]
            model = CovModel(Spectrum(np.sort(lam)[::-1], 1), n=int(rng.integers(1, 200)))
            for delta in (0.25, 1.0, 4.0):
                assert abs(
                    hs_lower_bound(model, delta).value - hs_bound_d1(model, delta)
                ) <= 1e-10

    def test_closed_form_rejects_higher_rank(self):
        model = CovModel(spike_spectrum(2, 1, 2, 4), n=5)
        with pytest.raises(InvalidInput):
            hs_bound_d1(model)

    def test_equal_pair_closed_form_saturates_delta(self):
        model = CovModel(spike_spectrum(2, 2, 1, 2), n=5)
        assert hs_bound_d1(model, 0.7) == pytest.approx(0.7 / 2.4, abs=1e-14)

    def test_result_serializes(self):
        model = CovModel(spike_spectrum(2, 1, 1, 3), n=10)
        payload = hs_lower_bound(model, 1.0).to_json_dict()
        assert payload["schema"] == 1
        json.dumps(payload)  # must be plain JSON types


class TestSingletonMax:
    def test_single_infinite_cap(self):
        sol = singleton_max([np.inf])
        assert sol.value == pytest.approx(0.5)

    def test_two_unit_caps(self):
        sol = singleton_max([1.0, 1.0])
        assert sol.value == pytest.approx(0.5)
        np.testing.assert_allclose(sol.z, [0.5, 0.5])

    def test_dominates_simple_estimate(self, rng):
        for _ in range(200):
            b = rng.uniform(0.0, 3.0, size=int(rng.integers(1, 8)))
            b[rng.uniform(size=b.size) < 0.2] = np.inf
            sol = singleton_max(b)
            assert sol.value >= sol.lower_estimate - 1e-12

    def test_value_formula(self, rng):
        b = rng.uniform(0.1, 2.0, size=5)
        sol = singleton_max(b)
        s = np.sum(1.0 / (1.0 + 1.0 / b))
        assert sol.value == pytest.approx(s / (1 + s), rel=1e-12)


def _family_spectrum(draw) -> Spectrum:
    """An exp, poly or random spectrum with p <= 8, its eigenvalues distinct."""
    p = draw(st.integers(2, 8))
    d = draw(st.integers(1, p - 1))
    family = draw(st.sampled_from(["exp", "poly", "random"]))
    if family == "exp":
        return exp_spectrum(draw(st.floats(0.05, 3.0)), p, d)
    if family == "poly":
        return poly_spectrum(draw(st.floats(0.1, 3.0)), p, d)
    values = draw(st.lists(st.floats(0.1, 10.0), min_size=p, max_size=p, unique=True))
    return Spectrum(np.sort(values)[::-1], d)


@st.composite
def excess_models(draw):
    """Covariance models of exp, poly or random spectra with p <= 8, at n = 10^k, k <= 18."""
    return CovModel(_family_spectrum(draw), 10 ** draw(st.integers(0, 18)))


class TestExcessLowerBound:
    def test_two_point_value(self):
        model = CovModel(spike_spectrum(2, 1, 1, 2), n=10)
        result = excess_lower_bound(model, mu=1.5)
        assert result.value == pytest.approx(1.0 / 15.0, abs=1e-12)

    def test_boundary_mu_zero_row_caps(self):
        model = CovModel(Spectrum([3.0, 2.0, 1.0], 2), n=10)
        result = excess_lower_bound(model, mu=2.0)  # row cap of index 1 is 0
        assert result.value >= 0.0
        assert result.x[1].sum() == pytest.approx(0.0, abs=1e-12)

    def test_mu_outside_interval_rejected(self):
        model = CovModel(Spectrum([3.0, 2.0, 1.0], 2), n=10)
        with pytest.raises(InvalidInput):
            excess_lower_bound(model, mu=2.5)

    @pytest.mark.parametrize(
        "search, message",
        [
            (
                lambda: excess_lower_bound(CovModel(Spectrum([3.0, 2.0, 1.0], 2), n=10), "max"),
                "mu must be a number or 'auto', got 'max'",
            ),
            (lambda: optimize_delta("x"), "unsupported model type"),
        ],
        ids=["excess_mu_max", "optimize_delta_str"],
    )
    def test_search_rejects_unknown_arguments(self, search, message):
        with pytest.raises(InvalidInput, match=message):
            search()

    def test_precondition_flat_leading_block(self):
        model = CovModel(spike_spectrum(2, 2, 1, 3), n=10)
        with pytest.raises(InvalidInput):
            excess_lower_bound(model, mu="auto")

    def test_overflowing_fisher_information_is_invalid_input(self):
        # n (lam_1 - lam_2)^2 / (lam_1 lam_2) overflows, so the cap gap / I is 0
        model = CovModel(spike_spectrum(1e300, 1e-300, 1, 3), n=5)
        with pytest.raises(InvalidInput, match=r"excess caps at n=5: I_ij overflows"):
            excess_lower_bound(model, mu="auto")

    def test_underflowing_cap_is_invalid_input(self):
        # I_ij = n / 2 is finite, but the cap gap / I_ij = 2e-300 / n is below the float range
        model = CovModel(Spectrum([2e-300, 1e-300], 1), n=10**300)
        with pytest.raises(InvalidInput, match=r"excess caps at n=1e\+300: a cap .* underflows to 0"):
            excess_lower_bound(model, mu="auto")

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(excess_models())
    def test_auto_dominates_grid(self, model):
        # At large n the search's maximum is a flat stretch that starts O(lam^2 / n)
        # above lam_{d+1}; a pick at its start rounds to where a column cap binds.
        lam, d = model.spectrum.lambdas, model.spectrum.d
        auto = excess_lower_bound(model, "auto").value
        for mu in np.linspace(lam[d], lam[d - 1], 41):  # the midpoint is the 21st
            assert auto >= excess_lower_bound(model, mu).value * (1 - 1e-12)

    def test_auto_dominates_midpoint(self):
        model = CovModel(Spectrum([4.0, 3.0, 1.0, 0.5], 2), n=40)
        lam = model.spectrum.lambdas
        mid = excess_lower_bound(model, 0.5 * (lam[1] + lam[2])).value
        assert excess_lower_bound(model, "auto").value >= mid - 1e-12

    def test_zero_cap_column_keeps_cut_line_tight(self):
        # at mu = lam_{d+1} the column with lam_j = mu has cap 0 and no arcs; its
        # cut line is tight only with that column on the source side
        model = CovModel(Spectrum([4.0, 3.0, 1.0, 0.5], 2), 60)
        value = excess_lower_bound(model, "auto").value
        assert value == pytest.approx(0.022248677248677247, rel=1e-12)
        value = excess_lower_bound(CovModel(Spectrum([3.0, 2.0, 1.0], 1), 10), "auto").value
        assert value == pytest.approx(23.0 / 120.0, abs=1e-15)

    def test_ties_shrink_index_sets(self):
        # two leading eigenvalues tie with the one below the split: only the
        # strictly separated rows/cols take part
        model = CovModel(Spectrum([3.0, 2.0, 2.0, 2.0, 1.0, 0.5], 3), n=10)
        result = excess_lower_bound(model, "auto")
        assert result.rows == (0,)
        assert result.cols == (4, 5)


@st.composite
def relrank_models(draw):
    """Covariance models that meet the plug-in condition: exp, poly or random
    spectra with p <= 8, scaled by 10^k with |k| <= 300, and n up to 10^9,
    either drawn log-uniformly (rejected where the condition fails) or the
    least n that meets it."""
    base = _family_spectrum(draw)
    spectrum = Spectrum(base.lambdas * 10.0 ** draw(st.integers(-300, 300)), base.d)
    _, lhs = relrank_condition(CovModel(spectrum, 1))
    if draw(st.booleans()):
        n = max(1, math.ceil(2.0 * lhs))
    else:
        n = round(10.0 ** draw(st.floats(0.0, 9.0)))
    model = CovModel(spectrum, n)
    assume(n <= 10**9 and relrank_condition(model)[0])
    return model


class TestRelrank:
    def test_two_point_lhs(self):
        model = CovModel(spike_spectrum(2, 1, 1, 2), n=12)
        holds, lhs = relrank_condition(model)
        assert lhs == pytest.approx(6.0)
        assert holds
        assert not relrank_condition(CovModel(spike_spectrum(2, 1, 1, 2), n=11))[0]

    def test_tiny_n_never_holds(self):
        assert not relrank_condition(CovModel(spike_spectrum(2, 1, 1, 2), n=1))[0]

    def test_scale_invariant(self):
        spectrum = Spectrum([4.0, 3.0, 1.0, 0.5], 2)
        _, lhs1 = relrank_condition(CovModel(spectrum, 100))
        _, lhs2 = relrank_condition(CovModel(Spectrum(spectrum.lambdas * 7.3, 2), 100))
        assert lhs1 == pytest.approx(lhs2, rel=1e-12)

    def test_equal_gap_rejected(self):
        with pytest.raises(InvalidInput):
            relrank_condition(CovModel(spike_spectrum(2, 2, 1, 3), n=10))

    def test_two_point_value(self):
        model = CovModel(spike_spectrum(2, 1, 1, 2), n=12)
        assert relrank_bound(model) == pytest.approx(1.0 / 18.0, abs=1e-14)

    def test_condition_not_met(self):
        with pytest.raises(ConditionNotMet):
            relrank_bound(CovModel(spike_spectrum(2, 1, 1, 2), n=4))

    def test_exponential_spectrum_magnitude(self):
        # direct summation oracle: the bound tracks d e^{-d} / n
        model = CovModel(exp_spectrum(1.0, 30, 4), n=10**5)
        value = relrank_bound(model)
        shape = 4 * np.exp(-4.0) / 10**5
        assert shape / 10 <= value <= shape

    def test_dominated_by_optimized_bound(self):
        rng = np.random.default_rng(37)
        done = 0
        while done < 200:
            p = int(rng.integers(3, 9))
            d = int(rng.integers(1, p))
            spectrum = random_spectrum(rng, p, d, min_gap=0.1)
            model = CovModel(spectrum, n=int(rng.integers(100, 5000)))
            if not relrank_condition(model)[0]:
                continue
            done += 1
            value = relrank_bound(model)
            auto = excess_lower_bound(model, "auto").value
            assert value <= auto * (1 + 1e-9)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(relrank_models())
    def test_midpoint_flow_saturates_every_cap(self, model):
        """Under the condition, the mass that saturates every edge cap is feasible
        at the midpoint split level, so the flow there is the sum of the caps; this
        is why ``relrank_bound`` needs no solve at any other level."""
        lam, d = model.spectrum.lambdas, model.spectrum.d
        mid = lam[d] + 0.5 * (lam[d - 1] - lam[d])
        prog = bounds._excess_program(model, mid, d, d)
        total = float(prog.caps.sum())
        assert total > 0.0
        assert substochastic_max(prog).value == pytest.approx(total, rel=1e-9, abs=0.0)

    def test_matches_the_exact_sum_below_the_normal_range(self):
        # lam_i lam_j underflows for these eigenvalues (down to 12^-200), while
        # the bound itself, about 2.7e-173, is a normal float
        model = CovModel(poly_spectrum(200, 12, 6), 1000)
        lam = [Fraction(float(x)) for x in model.spectrum.lambdas]
        exact = sum(li * lj / (li - lj) for li in lam[:6] for lj in lam[6:]) / 3000
        assert relrank_bound(model) == pytest.approx(float(exact), rel=1e-14, abs=0.0)


class TestDenoiseLowerBound:
    def test_low_rank_slack_regime(self):
        # caps far below the sum caps: the optimum saturates every edge
        sigma, p, d = 0.1, 6, 2
        lam = np.array([50.0, 40.0, 0.0, 0.0, 0.0, 0.0])
        model = DenoiseModel(Spectrum(lam, d), sigma)
        result = denoise_lower_bound(model, delta=1.0)
        exact = (2.0 / 3.0) * sigma**2 * (p - d) * np.sum(1.0 / lam[:d] ** 2)
        assert result.value == pytest.approx(exact, rel=1e-12)
        feasible = np.minimum(sigma**2 / lam[:d] ** 2, 1.0 / (p - d)).sum() * (p - d) / 3.0
        assert result.value >= feasible - 1e-15

    def test_noise_to_zero(self):
        lam = Spectrum([5.0, 1.0, 0.0], 1)
        values = [
            denoise_lower_bound(DenoiseModel(lam, s), 1.0).value for s in (1.0, 0.1, 0.01)
        ]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-3

    def test_flat_spectrum(self):
        model = DenoiseModel(spike_spectrum(1, 1, 2, 5), sigma=3.0)
        assert denoise_lower_bound(model, 1.0).value == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_loose_cut_instance_certifies(self):
        # a cut read with a residual threshold of 1e-12 times the largest
        # cap (7.2e6 here) lies 5.5e-6 above this solve's flow
        model = DenoiseModel(exp_spectrum(0.1, 150, 75), 0.1)
        result = denoise_lower_bound(model, 9.077608026239364)
        assert result.flow_value == pytest.approx(640.919146177734, rel=1e-12)
        assert abs(result.cut_value - result.flow_value) <= 1e-9 * result.flow_value
        _, best = optimize_delta(model)
        assert best.value >= result.value - 1e-12


class TestOptimizeDelta:
    def test_beats_default(self):
        model = CovModel(Spectrum([3.0, 2.0, 1.0, 0.5], 2), n=15)
        best_delta, best = optimize_delta(model)
        assert best.value >= hs_lower_bound(model, 1.0).value - 1e-12
        assert best_delta > 0

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(search_models())
    def test_searches_match_brute_force_breakpoints(self, model):
        lam, d = model.spectrum.lambdas, model.spectrum.d
        searches = [(lambda: optimize_delta(model)[1], _brute_force_delta)]
        if model.kind == "covariance" and lam[0] > lam[d] and lam[d - 1] > lam[-1]:
            searches.append((lambda: excess_lower_bound(model, "auto"), _brute_force_mu))
        for search, brute_force in searches:
            with mock.patch.object(
                bounds, "substochastic_max", wraps=bounds.substochastic_max
            ) as solver:
                result = search()
            assert result.value == pytest.approx(brute_force(model), rel=1e-12)
            assert solver.call_count == 1


def _search_programs(model, u):
    """The programs a search of ``model`` may solve: the rectangle at delta = 10^(8u - 4)
    and, where the excess bound exists, its program at both ends of the mu range and
    at the fraction u of it."""
    progs = [bounds._rectangle_program(model, 10.0 ** (8.0 * u - 4.0))]
    lam, d = model.spectrum.lambdas, model.spectrum.d
    if model.kind == "covariance" and lam[0] > lam[d] and lam[d - 1] > lam[-1]:
        r, s = bounds._excess_index_sets(model)
        lo, hi = lam[d], lam[d - 1]
        progs += [bounds._excess_program(model, mu, r, s) for mu in (lo, lo + u * (hi - lo), hi)]
    return progs


def prefix_cuts(prog):
    """The prefix cuts of ``prog``, from its crossing edge caps and its row and column caps."""
    return bounds._prefix_cuts(bounds._crossing_caps(prog.caps), prog.row_caps, prog.col_caps)


def assert_prefix_min_is_optimum(prog, lp=True):
    """The least prefix cut of ``prog`` equals its max flow (and its LP optimum) to 1e-9."""
    least = prefix_cuts(prog).min()
    for optimum in [substochastic_max(prog).value] + ([lp_oracle([prog])[0]] if lp else []):
        assert abs(least - optimum) <= 1e-9 * optimum, (least, optimum)


class TestPrefixCuts:
    """The searches read the flow off the prefix cuts (rows < a, columns < c on the
    source side) of programs whose edge caps rise down the rows and fall along the
    columns; the least prefix cut is then the max flow."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(programs())
    def test_entries_are_cut_capacities(self, prog):
        nr, nc = prog.shape
        expected = np.empty((nr + 1, nc + 1))
        for a, c in itertools.product(range(nr + 1), range(nc + 1)):
            rows_in, cols_in = np.arange(nr) < a, np.arange(nc) < c
            crossing = prog.caps[np.ix_(rows_in, ~cols_in)].sum()
            expected[a, c] = prog.row_caps[~rows_in].sum() + crossing + prog.col_caps[cols_in].sum()
        cuts = prefix_cuts(prog)
        np.testing.assert_allclose(cuts, expected, rtol=1e-12, atol=0.0)
        assert substochastic_max(prog).value <= cuts.min() * (1.0 + 1e-12)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(programs(max_side=6), st.sampled_from([1, -1]))
    @example(SubstochasticProgram([[0.5, np.inf, 0.25, 1.0, 0.0, 2.0]], [0.5], [1.0] * 6), 1)
    @example(SubstochasticProgram([[0.5, np.inf, 0.25, 1.0, 0.0, 2.0]], [0.5], [1.0] * 6), -1)
    @example(SubstochasticProgram([[0.5], [np.inf], [0.25], [1.0], [0.0], [2.0]], [1.0] * 6, [0.5]), 1)
    @example(SubstochasticProgram([[0.5], [np.inf], [0.25], [1.0], [0.0], [2.0]], [1.0] * 6, [0.5]), -1)
    def test_least_lines_are_the_diagonal_minima(self, prog, row_slope):
        """Cut [a, c] has slope row_slope (nr - a) + c: a slope's cuts are one diagonal
        of the cut matrix for delta (+1) and one anti-diagonal for mu (-1)."""
        cuts, (nr, nc) = prefix_cuts(prog), prog.shape
        if row_slope == 1:  # c - a = slope - nr, slopes 0..nr + nc
            expected = [np.diagonal(cuts, k - nr).min() for k in range(nr + nc + 1)]
        else:  # a + c = slope + nr, slopes -nr..nc
            expected = [np.diagonal(cuts[:, ::-1], nc - k).min() for k in range(nr + nc + 1)]
        assert bounds._least_lines(cuts, row_slope).tolist() == expected

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(search_models(), st.floats(0.0, 1.0))
    def test_least_prefix_cut_is_the_optimum(self, model, u):
        for prog in _search_programs(model, u):
            assert_prefix_min_is_optimum(prog)

    def test_tied_eigenvalues_give_inf_caps(self):
        for model in (CovModel(Spectrum([2.0, 1.0, 1.0, 0.5], 2), 10),
                      DenoiseModel(Spectrum([3.0, 2.0, 2.0, 2.0, 1.0], 2), 0.5)):
            for u in (0.0, 0.3, 0.5, 1.0):
                prog = bounds._rectangle_program(model, 10.0 ** (8.0 * u - 4.0))
                assert np.isinf(prog.caps).any()
                assert_prefix_min_is_optimum(prog)

    def test_zero_caps_at_the_ends_of_the_mu_range(self):
        model = CovModel(Spectrum([4.0, 3.0, 3.0, 1.0, 1.0, 0.5], 3), 60)
        lo_prog, *_, hi_prog = _search_programs(model, 0.5)[1:]
        assert np.count_nonzero(lo_prog.col_caps == 0.0) == 2
        assert np.count_nonzero(hi_prog.row_caps == 0.0) == 2
        for prog in (lo_prog, hi_prog):
            assert_prefix_min_is_optimum(prog)

    def test_one_point_mu_range(self):
        # lam_d = lam_{d+1} = 2: the search range is the single mu = 2
        model = CovModel(Spectrum([3.0, 2.0, 2.0, 2.0, 1.0, 0.5], 3), n=10)
        r, s = bounds._excess_index_sets(model)
        assert_prefix_min_is_optimum(bounds._excess_program(model, 2.0, r, s))
        with mock.patch.object(bounds, "substochastic_max", wraps=substochastic_max) as solver:
            result = excess_lower_bound(model, "auto")
        assert solver.call_count == 1
        assert result.params["mu"] == 2.0
        assert result.value == excess_lower_bound(model, 2.0).value

    def test_bound_solve_programs(self, solve_programs):
        for prog in solve_programs.values():
            assert_prefix_min_is_optimum(prog, lp=False)

    def test_non_monotone_caps_fail_loudly(self):
        # reversing the columns makes the edge caps rise along them, and the least
        # prefix cut at the searched delta lies above the flow
        model = CovModel(Spectrum([4.0, 3.0, 1.0, 0.5], 2), 15)
        caps = bounds._rectangle_caps(model)[:, ::-1]
        with mock.patch.object(bounds, "_rectangle_caps", lambda _: caps):
            with pytest.raises(RuntimeError, match="not certified") as raised:
                optimize_delta(model)
        flow, envelope = (float(v) for v in re.search(r"flow (\S+), envelope (\S+)$",
                                                      str(raised.value)).groups())
        assert envelope > flow * (1.0 + 1e-9) > 0.0

    def test_searched_parameters_are_python_floats(self):
        model = CovModel(Spectrum([4.0, 3.0, 1.0, 0.5], 2), 15)
        delta, result = optimize_delta(model)
        assert type(delta) is float and type(result.params["delta"]) is float
        assert type(excess_lower_bound(model, "auto").params["mu"]) is float


class TestSearchReuse:
    """A search builds its edge caps from one Fisher rectangle and moves only the
    row and column caps; canonical_bound builds and solves one program."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: excess_lower_bound(CovModel(exp_spectrum(0.02, 20, 10), 100), "auto"),
            lambda: optimize_delta(CovModel(exp_spectrum(0.02, 60, 30), 1e5)),
            lambda: optimize_delta(DenoiseModel(exp_spectrum(0.02, 60, 30), 0.1)),
            lambda: canonical_bound(CovModel(exp_spectrum(0.3, 12, 4), 1000)),
        ],
        ids=["excess_auto", "optimize_delta_cov", "optimize_delta_denoise", "canonical"],
    )
    def test_one_fisher_rectangle_per_call(self, call):
        with mock.patch.object(bounds, "_fisher_rectangle", wraps=bounds._fisher_rectangle) as rect:
            call()
        assert rect.call_count == 1

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(bound_calls(searches_only=True))
    @example(functools.partial(  # no drawn input underflows an excess cap; this one does
        excess_lower_bound, CovModel(Spectrum([2e-300, 1e-300], 1), n=10**300), "auto"
    ))
    def test_search_has_the_bits_of_a_bound_at_its_pick(self, search):
        """The search's result is the bound built afresh at the parameter it picked,
        to the byte; where the excess caps underflow or overflow, the search and a
        fixed-mu bound raise the same error."""
        model = search.args[0]
        try:
            found = search()
        except InvalidInput as raised:
            assert search.func is excess_lower_bound
            with pytest.raises(InvalidInput) as fixed:
                excess_lower_bound(model, float(model.spectrum.lambdas[model.spectrum.d]))
            assert str(fixed.value) == str(raised)
            return
        if search.func is optimize_delta:
            delta, result = found
            bound = hs_lower_bound if model.kind == "covariance" else denoise_lower_bound
            fresh = bound(model, delta)
        else:
            result, fresh = found, excess_lower_bound(model, found.params["mu"])
        assert json.dumps(result.to_json_dict()) == json.dumps(fresh.to_json_dict())


class TestCanonicalBound:
    def test_flat_spectrum(self):
        model = CovModel(spike_spectrum(1, 1, 2, 6), n=9)
        assert canonical_bound(model) == pytest.approx(2 * 4 / (3 * 6.0), abs=1e-14)

    def test_two_point(self):
        model = CovModel(spike_spectrum(2, 1, 1, 2), n=8)
        assert canonical_bound(model) == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_never_exceeds_optimum(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            p = int(rng.integers(2, 10))
            d = int(rng.integers(1, p))
            model = CovModel(random_spectrum(rng, p, d), n=int(rng.integers(1, 50)))
            assert canonical_bound(model) <= hs_lower_bound(model, 1.0).value + 1e-12


class TestCramerRaoRatio:
    def test_zero_direction(self):
        model = CovModel(spike_spectrum(2, 1, 1, 2), n=4)
        w = WeightMatrix.ones(2)
        assert cramer_rao_ratio(model, w, [0], [1], [[0.0]]) == 0.0

    def test_single_pair_closed_form(self):
        model = CovModel(spike_spectrum(2, 1, 1, 2), n=1)
        w = WeightMatrix.ones(2)
        # Fisher value 1/2 on the generator, so a = 2 and the ratio is
        # 1 / ((2a)^{-1} + 2) with z = 1
        a = 2.0
        expected = 1.0 / (1.0 / (2 * a) + 2.0)
        assert cramer_rao_ratio(model, w, [0], [1], [[1.0]]) == pytest.approx(expected)

    def test_optimal_mass_gives_at_least_bound_value(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            p = int(rng.integers(2, 8))
            d = int(rng.integers(1, p))
            model = CovModel(random_spectrum(rng, p, d, min_gap=0.02), n=int(rng.integers(1, 40)))
            delta = float(rng.uniform(0.3, 2.0))
            result = hs_lower_bound(model, delta)
            ratio = cramer_rao_ratio(
                model, WeightMatrix.ones(p), result.rows, result.cols, result.x
            )
            assert ratio >= result.value - 1e-10

    def test_excess_weights_route(self):
        spectrum = Spectrum([4.0, 3.0, 1.0, 0.5], 2)
        model = CovModel(spectrum, n=25)
        mu = 2.0
        from subspace_bounds import excess_risk_weights

        w = excess_risk_weights(spectrum, mu)
        result = excess_lower_bound(model, mu)
        ratio = cramer_rao_ratio(model, w, result.rows, result.cols, result.x)
        assert ratio >= result.value - 1e-10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_entry_adds_nothing_where_the_information_overflows(self):
        # I_02 = 5 (1e300 - 1e-300)^2 / 1e300 / 1e-300 is beyond the float range
        model = CovModel(Spectrum([1e300, 1.0, 1e-300], 1), 5)
        w = WeightMatrix.ones(3)
        ratio = cramer_rao_ratio(model, w, [0], [1, 2], [[1.0, 0.0]])
        assert ratio == cramer_rao_ratio(model, w, [0], [1], [[1.0]]) == 3.9999999999999994e-301

    def test_rejects_bad_indices(self):
        model = CovModel(spike_spectrum(2, 1, 1, 3), n=4)
        with pytest.raises(InvalidInput):
            cramer_rao_ratio(model, WeightMatrix.ones(3), [1], [2], [[1.0]])

    def test_rejects_zero_diagonal_weight(self):
        model = CovModel(spike_spectrum(2, 1, 1, 2), n=4)
        w = WeightMatrix(np.array([[0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(InvalidInput):
            cramer_rao_ratio(model, w, [0], [1], [[1.0]])


def _outcome(compute):
    """compute()'s value, or the class of the InvalidInput or ConditionNotMet it raises."""
    try:
        return compute()
    except (InvalidInput, ConditionNotMet) as exc:
        return type(exc)


def _searched_delta_and_value(model):
    delta, result = optimize_delta(model)
    return delta, result.value


@st.composite
def scale_cases(draw):
    """(lambdas, d, n, sigma, k): eigenvalues in eighths from 1/8 to 8 (ties allowed),
    a rank d < p, a sample size, a noise level and a decimal scale exponent."""
    p = draw(st.integers(2, 7))
    eighths = sorted(draw(st.lists(st.integers(1, 64), min_size=p, max_size=p)), reverse=True)
    return (
        [m / 8.0 for m in eighths],
        draw(st.integers(1, p - 1)),
        draw(st.sampled_from([1, 5, 50, 1000, 10**4])),
        draw(st.sampled_from([0.1, 0.5, 1.0, 3.0])),
        draw(st.integers(-300, 300)),
    )


class TestScaleInvariance:
    """Rescaling the spectrum by 10^k (and sigma with it) leaves the hs and
    denoising bounds, the d = 1 closed form, the canonical value and the
    Cramér-Rao ratio unchanged and scales the excess and plug-in bounds by
    10^k, to 1e-12 relative, or the library rejects both problems (or finds the
    plug-in condition unmet in both): the bounds depend on eigenvalue ratios
    only, and no intermediate may overflow or underflow."""

    @staticmethod
    def _assert_same(unscaled, scaled):
        if isinstance(unscaled, type) or isinstance(scaled, type):
            assert unscaled is scaled
        else:
            assert scaled == pytest.approx(unscaled, rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200)
    @given(scale_cases())
    def test_bounds_follow_the_scale_of_the_spectrum(self, case):
        lambdas, d, n, sigma, k = case
        scale = 10.0**k
        spectra = Spectrum(lambdas, d), Spectrum([x * scale for x in lambdas], d)
        cov = [CovModel(spectrum, n) for spectrum in spectra]
        p = len(lambdas)
        for fn in (
            lambda m: hs_lower_bound(m).value,
            _searched_delta_and_value,
            hs_bound_d1,
            canonical_bound,
            lambda m: cramer_rao_ratio(
                m, WeightMatrix.ones(p), range(d), range(d, p), np.ones((d, p - d))
            ),
        ):
            self._assert_same(*(_outcome(lambda: fn(m)) for m in cov))
        for fn in (lambda m: excess_lower_bound(m, "auto").value, relrank_bound):
            outcomes = [_outcome(lambda: fn(m)) for m in cov]
            if not isinstance(outcomes[1], type):
                outcomes[1] /= scale
            self._assert_same(*outcomes)
        denoise = DenoiseModel(spectra[0], sigma), DenoiseModel(spectra[1], sigma * scale)
        self._assert_same(*(_outcome(lambda: denoise_lower_bound(m).value) for m in denoise))
