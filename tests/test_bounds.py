import itertools
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_bounds import (
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
    """Exact excess maximum over mu in [lam_{d+1}, lam_d], and the rectangle shape."""
    lam, d = model.spectrum.lambdas, model.spectrum.d
    li, lj = lam[:d][lam[:d] > lam[d]], lam[d:][lam[d:] < lam[d - 1]]
    caps = li[:, None] * lj[None, :] / (model.n * (li[:, None] - lj[None, :]))
    best = _brute_force_max(caps, li, -1, -lj, lam[d], lam[d - 1], lambda t: 1.0 / 3.0)
    return best, caps.shape


def _brute_force_delta(model):
    """Exact rectangle-bound maximum over delta in DELTA_RANGE, and the rectangle shape."""
    lam, d = model.spectrum.lambdas, model.spectrum.d
    gaps = (lam[:d, None] - lam[None, d:]) ** 2
    if model.kind == "covariance":
        fisher = model.n * gaps / (lam[:d, None] * lam[None, d:])
    else:
        fisher = gaps / model.sigma**2
    with np.errstate(divide="ignore"):
        caps = 2.0 / fisher
    zeros_r, zeros_c = np.zeros(caps.shape[0]), np.zeros(caps.shape[1])
    best = _brute_force_max(
        caps, zeros_r, 1, zeros_c, *bounds.DELTA_RANGE, lambda t: 1.0 / (1.0 + 2.0 * t)
    )
    return best, caps.shape


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


def solve_on(graph, prog, first_phase=bounds._first_phase):
    """substochastic_max(prog) with ``graph`` as the residual graph class and
    ``first_phase`` as Dinic's first phase: (solution, (phases, paths)) of the
    graph it built, or (solution, None) if it built none."""
    built = []

    class Counted(graph):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    with mock.patch.object(bounds, "_MaxFlowGraph", Counted), mock.patch.object(
        bounds, "_first_phase", first_phase
    ):
        sol = substochastic_max(prog)
    return sol, (built[0].phases, built[0].paths) if built else None


def zero_flow(edge_caps, rows, cols, row_caps, col_caps):
    return np.zeros(len(edge_caps)), row_caps, col_caps


def reference_solution(prog):
    """substochastic_max with Dinic's first phase skipped: the graph is built
    with zero flow and the frozen ``ReferenceMaxFlowGraph`` runs every phase
    from scratch."""
    return solve_on(ReferenceMaxFlowGraph, prog, zero_flow)[0]


def assert_same_pushes(prog):
    """The array solver and the frozen Python Dinic, both after the numpy
    first phase, give the same bits and the same phase and path counts;
    returns those counts."""
    sol, counts = solve_on(bounds._MaxFlowGraph, prog)
    ref, ref_counts = solve_on(ReferenceMaxFlowGraph, prog)
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


@pytest.fixture(scope="module")
def solve_programs():
    """The programs of the 13 bound_solve instances at d = p/2, keyed by
    (bound, family, p): delta = 1 for hs and denoise, and mu halfway between
    lam_d and lam_{d+1} for excess."""
    out = {}
    for bound, family, alpha, p, param in BOUND_SOLVE_INSTANCES:
        spectrum = (exp_spectrum if family == "exp" else poly_spectrum)(alpha, p, p // 2)
        if bound == "denoise":
            prog = bounds._rectangle_solve(DenoiseModel(spectrum, param), 1.0)[0]
        elif bound == "hs":
            prog = bounds._rectangle_solve(CovModel(spectrum, param), 1.0)[0]
        else:
            model, lam = CovModel(spectrum, param), spectrum.lambdas
            mid_mu = 0.5 * (lam[p // 2 - 1] + lam[p // 2])
            prog = bounds._excess_program(model, mid_mu, *bounds._excess_index_sets(model))
        out[bound, family, p] = prog
    return out


@pytest.fixture(scope="module")
def large(solve_programs):
    """hs exp:0.02,400 n=1000 (Dinic takes two phases; 200 x 200), excess
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
        assert sol.value == pytest.approx(lp_oracle(prog), abs=1e-9)

    def test_matches_oracle_and_certificate(self):
        rng = np.random.default_rng(17)
        for _ in range(120):
            prog = random_program(rng)
            sol = substochastic_max(prog)
            assert abs(sol.value - lp_oracle(prog)) <= 1e-8
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
        of all 13 bound_solve instances at p = 100..400."""
        rng = np.random.default_rng(51)
        for _ in range(10):
            nr, nc = int(rng.integers(5, 9)), int(rng.integers(6, 13))
            caps = rng.uniform(0.0, 1.0, (nr, nc))
            caps[rng.uniform(size=(nr, nc)) < 0.1] = np.inf
            prog = SubstochasticProgram(
                caps, rng.uniform(0.05, 2.0, nr), rng.uniform(0.05, 2.0, nc)
            )
            assert abs(substochastic_max(prog).value - lp_oracle(prog)) <= 1e-8
        assert len(solve_programs) == 13
        for key, prog in solve_programs.items():
            value = substochastic_max(prog).value
            assert abs(value - lp_oracle(prog)) <= 1e-9 * value, key

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
        assert abs(sol.value - lp_oracle(prog)) <= 1e-9
        scaled_sol = substochastic_max(scaled(prog, k))
        assert scaled_sol.value == math.ldexp(sol.value, k)
        assert abs(scaled_sol.cut_value - scaled_sol.value) <= 1e-9 * scaled_sol.value

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(programs(max_side=6), st.integers(-990, 990))
    def test_first_phase_keeps_the_python_bits(self, prog, k):
        prog = scaled(prog, k)
        assert_same_bits(substochastic_max(prog), reference_solution(prog))

    @pytest.mark.parametrize("name", ["hs", "excess", "denoise"])
    def test_first_phase_keeps_the_python_bits_at_real_sizes(self, name, large):
        assert_same_bits(substochastic_max(large[name]), reference_solution(large[name]))


class TestLaterPhases:
    """The array Dinic makes the frozen Python Dinic's pushes after the first phase."""

    def test_bound_solve_programs(self, solve_programs):
        counts = [assert_same_pushes(prog) for prog in solve_programs.values()]
        assert sum(phases > 0 for phases, _ in counts) == 5

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
        counts = [assert_same_pushes(call.args[0]) for call in solver.call_args_list]
        assert len(counts) >= 3 and any(phases > 0 for phases, _ in counts)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        st.integers(1, 80),
        st.integers(1, 80),
        st.sampled_from([2, 3, 5, 8]),
        st.integers(0, 2**32 - 1),
    )
    def test_sparse_integer_rectangles(self, nr, nc, degree, seed):
        assert_same_pushes(sparse_program(nr, nc, degree, seed))

    def test_sparse_family_needs_several_phases(self):
        phases = [solve_on(bounds._MaxFlowGraph, sparse_program(80, 80, 5, seed))[1][0]
                  for seed in range(20)]
        assert max(phases) >= 4


class TestLpOracle:
    def test_singleton(self):
        prog = SubstochasticProgram([[2.0]], [1.0], [1.0])
        assert lp_oracle(prog) == pytest.approx(1.0, abs=1e-10)

    def test_zero_caps(self):
        prog = SubstochasticProgram([[0.0, 0.0]], [1.0], [1.0, 1.0])
        assert lp_oracle(prog) == pytest.approx(0.0, abs=1e-12)
        assert lp_oracle(SubstochasticProgram(np.zeros((0, 3)), [], np.ones(3))) == 0.0

    def test_agrees_at_40k_variables(self, large):
        prog = large["hs"]
        assert np.count_nonzero(prog.caps > 0.0) == 40_000
        value = substochastic_max(prog).value
        assert abs(value - lp_oracle(prog)) <= 1e-9 * value


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

    def test_precondition_flat_leading_block(self):
        model = CovModel(spike_spectrum(2, 2, 1, 3), n=10)
        with pytest.raises(InvalidInput):
            excess_lower_bound(model, mu="auto")

    def test_overflowing_fisher_information_is_invalid_input(self):
        # n (lam_1 - lam_2)^2 / (lam_1 lam_2) overflows, so the cap gap / I is 0
        model = CovModel(spike_spectrum(1e300, 1e-300, 1, 3), n=5)
        with pytest.raises(InvalidInput, match="excess caps must be finite and positive"):
            excess_lower_bound(model, mu="auto")

    def test_auto_dominates_grid(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            p = int(rng.integers(3, 9))
            d = int(rng.integers(1, p))
            spectrum = random_spectrum(rng, p, d, min_gap=0.05)
            model = CovModel(spectrum, n=int(rng.integers(5, 100)))
            auto = excess_lower_bound(model, "auto").value
            lam = spectrum.lambdas
            grid = max(
                excess_lower_bound(model, mu).value
                for mu in np.linspace(lam[d], lam[d - 1], 101)
            )
            assert auto >= grid * (1 - 1e-12)

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
            best, shape = brute_force(model)
            assert result.value == pytest.approx(best, rel=1e-12)
            assert solver.call_count <= sum(shape) + 2


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
