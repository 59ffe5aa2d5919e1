"""Lower bounds via capacitated doubly-substochastic maximization.

Every bound in this package is the optimal value of the same linear
program: maximize the total mass sum x_ij over a bipartite index set
subject to per-edge capacities b_ij and per-row/per-column sum caps,
scaled by a model-dependent prefactor.  Each edge cap is an inverse of
the model's Fisher information I_ij along the generator L(i, j).  The
constraint matrix is a network matrix, so the LP is solved exactly as a
max-flow problem on

    source -> row i   (capacity row_cap_i)
    row i  -> col j   (capacity b_ij)
    col j  -> sink    (capacity col_cap_j)

using Dinic's algorithm, whose first phase (the row-major greedy flow)
runs in numpy with the bits of the Python DFS.  The later phases work on
flat arc arrays: numpy frontier BFS levels, then a Python DFS over that
phase's admissible arcs only, with the pushes of a scan of every arc.
No scipy module is imported on this path.  Optimality is certified on
every solve by the minimum cut that its last breadth-first search leaves,
whose capacity must equal the flow to within 1e-9 of the flow.  The
searches over mu and delta read each min cut as a line in the parameter
and stop at a maximum that these lines certify.  A sparse LP oracle (scipy
HiGHS) provides an independent verification path at any size and is used
only by tests and the verify command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConditionNotMet, InvalidInput
from .equivariance import WeightMatrix
from .models import CovModel, DenoiseModel

DUALITY_TOL = 1e-9
FEAS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SubstochasticProgram:
    """max sum x_ij  s.t.  0 <= x_ij <= caps_ij, row/col sums capped.

    ``caps`` entries may be +inf (encoded internally as a bound that can
    never bind); row and column caps must be finite and nonnegative.  A
    zero cap simply forces the corresponding mass to zero.
    """

    caps: np.ndarray
    row_caps: np.ndarray
    col_caps: np.ndarray

    def __init__(self, caps, row_caps, col_caps):
        caps = np.array(caps, dtype=np.float64)
        row_caps = np.array(row_caps, dtype=np.float64)
        col_caps = np.array(col_caps, dtype=np.float64)
        if caps.ndim != 2:
            raise InvalidInput("caps must be a 2-d array")
        if row_caps.shape != (caps.shape[0],) or col_caps.shape != (caps.shape[1],):
            raise InvalidInput("row/col cap lengths must match the caps array")
        if np.any(np.isnan(caps)) or np.any(caps < 0):
            raise InvalidInput("edge caps must be nonnegative (inf allowed)")
        if not np.all(np.isfinite(row_caps)) or np.any(row_caps < 0):
            raise InvalidInput("row caps must be finite and nonnegative")
        if not np.all(np.isfinite(col_caps)) or np.any(col_caps < 0):
            raise InvalidInput("col caps must be finite and nonnegative")
        for name, arr in (("caps", caps), ("row_caps", row_caps), ("col_caps", col_caps)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def shape(self) -> tuple:
        return self.caps.shape


class FlowSolution(NamedTuple):
    value: float
    x: np.ndarray
    cut_value: float
    tight_rows: np.ndarray
    tight_cols: np.ndarray
    tight_edges: np.ndarray
    rows_in: np.ndarray  # source side of the min cut; zero-cap rows are left out
    cols_in: np.ndarray  # and zero-cap columns put in, so no unbuilt edge crosses


class _MaxFlowGraph:
    """Residual graph solved by Dinic's algorithm (Dinic, 1970), on arrays.

    Arc 2k runs ends[k, 0] -> ends[k, 1] with residual res[k, 0]; arc 2k + 1
    is its reverse, with res[k, 1].  ``tail`` and ``res`` are flat arrays in
    arc order, and ``res`` is updated in place.  Each phase labels the nodes
    by BFS distance from the source over arcs with residual > 0, one numpy
    step per level: the heads of the arcs whose tail is on the frontier,
    those not yet labelled (distances do not depend on visit order).  The
    BFS stops at the sink's level, so a step costs O(arcs) and a phase's BFS
    at most O(n arcs), the bound of its blocking flow.
    The blocking flow saturates arcs that climb one level, with a
    current-arc pointer per node (arcs in arc order) and dead ends pruned.
    Its DFS walks only the phase's admissible arcs (residual > 0, head one
    level above tail), grouped by tail in arc order, on Python lists of
    their residuals and their reverses' that go back to ``res`` after the
    phase.  It makes exactly the pushes of a DFS that scans every arc: a
    push raises only reverse residuals, and a reverse arc goes one level
    down, so no arc outside the set becomes admissible within the phase,
    and an arc in it is skipped just when the scan would skip it (saturated,
    or its head a dead end).  Nodes past the sink's level, unlabelled here,
    lead to no path to the sink, so leaving them out changes no push.
    Termination needs no epsilon, even in IEEE arithmetic: an augmenting
    path's bottleneck arc is left with r - r = 0 exactly and every other
    residual on it stays > 0, so each phase saturates every shortest path,
    the source-sink distance grows, and at most n phases run.  When the
    BFS no longer reaches the sink, every arc leaving the labelled set has
    residual exactly 0, so that set is the source side of a minimum cut.
    ``phases`` counts the phases (each pushes) and ``paths`` the augmenting
    paths.
    """

    def __init__(self, n: int, ends: np.ndarray, res: np.ndarray):
        self.n, self.ends = n, ends
        self.tail, self.res = ends.ravel(), res.ravel()
        self.phases = self.paths = 0

    def _levels(self, s: int, t: int) -> tuple[np.ndarray, np.ndarray]:
        """(level, heads): BFS distances from s over arcs with residual > 0, up
        to t's level, -1 where not reached; each arc's head, or the dummy node
        n at level 0 for an arc without residual."""
        n = self.n
        heads = np.where(self.res.reshape(-1, 2) > 0.0, self.ends[:, ::-1], n).ravel()
        level = np.full(n + 1, -1)
        level[s] = level[n] = depth = 0
        while level[t] < 0:
            hit = heads[(level == depth)[self.tail]]
            new = hit[level[hit] < 0]
            if not new.size:
                break
            depth += 1
            level[new] = depth
        return level, heads

    def max_flow(self, s: int, t: int) -> np.ndarray:
        """Push a maximum s-t flow; return the source side of a minimum cut."""
        tail, res = self.tail, self.res
        while True:
            level, heads = self._levels(s, t)
            if level[t] < 0:
                return level[:-1] >= 0
            self.phases += 1
            rise = level[tail] + 1
            adm = np.flatnonzero((level[heads] == rise) & (rise > 0))
            adm = adm[tail[adm].argsort(kind="stable")]  # by tail, in arc order within a tail
            tl, hd = tail[adm], heads[adm]
            current = np.searchsorted(tl, np.arange(self.n + 1)).tolist()
            stops, tl, hd = current[1:], tl.tolist(), hd.tolist()
            fwd, rev, level = res[adm].tolist(), res[adm ^ 1].tolist(), level.tolist()
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    push = min(fwd[a] for a in path)
                    for a in path:
                        fwd[a] -= push
                        rev[a] += push
                    k = next(k for k, a in enumerate(path) if fwd[a] == 0.0)
                    u = tl[path[k]]
                    del path[k:]
                    self.paths += 1
                    continue
                i, stop, up = current[u], stops[u], level[u] + 1
                while i < stop and not (fwd[i] > 0.0 and level[hd[i]] == up):
                    i += 1
                current[u] = i
                if i < stop:
                    path.append(i)
                    u = hd[i]
                elif u == s:
                    break
                else:
                    level[u] = -1  # dead end: no path to t through u this phase
                    u = tl[path.pop()]
                    current[u] += 1
            res[adm], res[adm ^ 1] = fwd, rev


def _first_phase(edge_caps, rows, cols, row_caps, col_caps):
    """Dinic's first phase in numpy: (edge flows, row residuals, column residuals).

    Built edges (row-major) have row and column caps > 0, so the sink is at
    level 3 and the phase saturates every path s -> i -> j -> t: the
    row-major greedy flow (Ahuja, Magnanti & Orlin 1993).  The DFS takes the
    rows in arc order and each row's columns in column order, and pushes the
    least residual.  The first arc the push leaves at 0 decides where it
    resumes: the next row (the row's arc) or the row's next column (the
    edge's, or the column's, which is then a dead end).  With a = min(edge
    cap, column residual), a dead column's a = 0 pushes nothing and changes
    no residual, and row i's residuals r_0 = its cap, r_(k+1) = r_k - a_k are
    subtracted left to right as ``res[s->i] -= push`` does.  At the first
    r_(k+1) <= 0 the row saturates with push r_k, exactly 0 left.
    """
    flow, r = np.zeros(len(edge_caps)), np.empty(len(col_caps) + 1)
    row_res, col_res = row_caps.copy(), col_caps.copy()
    stops = np.searchsorted(rows, np.arange(len(row_caps) + 1)).tolist()
    for i, (lo, hi) in enumerate(zip(stops[:-1], stops[1:])):
        js, a, m = cols[lo:hi], flow[lo:hi], hi - lo
        np.minimum(edge_caps[lo:hi], col_res[js], out=a)
        r[0], r[1 : m + 1] = row_res[i], a
        np.subtract.accumulate(r[: m + 1], out=r[: m + 1])
        k = int(np.count_nonzero(r[: m + 1] > 0.0))  # r_k is the first r <= 0
        if 0 < k <= m:
            a[k - 1], a[k:], r[m] = r[k - 1], 0.0, 0.0
        row_res[i] = r[m]
        col_res[js] -= a
    return flow, row_res, col_res


def substochastic_max(prog: SubstochasticProgram) -> FlowSolution:
    """Exact optimum of the capacitated substochastic program.

    Returns the optimal mass matrix together with the certified min-cut
    value and constraint-activity flags.  Dinic's first phase runs in numpy;
    the later phases and the final BFS run in ``_MaxFlowGraph`` from its
    residuals, and the flows are read back as a slice of its residual array.
    Raises if the cut and the flow differ by more than 1e-9 of the flow
    (which would indicate a solver bug, not a bad instance).
    """
    nr, nc = prog.shape
    if nr == 0 or nc == 0:
        no_rows, no_cols, x = np.zeros(nr, dtype=bool), np.zeros(nc, dtype=bool), np.zeros((nr, nc))
        return FlowSolution(0.0, x, 0.0, no_rows, no_cols, x > 0.0, ~no_rows, no_cols)
    big = float(prog.row_caps.sum() + prog.col_caps.sum() + 1.0)  # an edge cap that never binds
    caps = np.where(np.isinf(prog.caps), big, prog.caps)
    built = (caps > 0.0) & (prog.row_caps > 0.0)[:, None] & (prog.col_caps > 0.0)[None, :]
    rows, cols = np.nonzero(built)
    edge_caps = caps[built]
    flow, row_res, col_res = _first_phase(edge_caps, rows, cols, prog.row_caps, prog.col_caps)
    x = np.zeros((nr, nc))
    x[built] = flow
    # Source -> row, built edges, column -> sink.  No phase reads the reverse residual
    # of i -> s or t -> j (s is labelled first and t is never expanded): it is left 0.
    src, snk = 0, nr + nc + 1
    tails = np.concatenate([np.full(nr, src), 1 + rows, np.arange(1 + nr, snk)])
    heads = np.concatenate([np.arange(1, 1 + nr), 1 + nr + cols, np.full(nc, snk)])
    forward = np.concatenate([row_res, edge_caps - flow, col_res])
    reverse = np.concatenate([np.zeros(nr), flow, np.zeros(nc)])
    g = _MaxFlowGraph(snk + 1, np.column_stack([tails, heads]), np.column_stack([forward, reverse]))
    side = g.max_flow(src, snk)
    x[built] = g.res[2 * nr + 1 : 2 * (nr + len(flow)) : 2]
    value = float(x.sum())

    rows_in, cols_in = side[1 : 1 + nr], side[1 + nr : 1 + nr + nc]
    cut = float(
        prog.row_caps[~rows_in].sum()
        + caps[built & rows_in[:, None] & ~cols_in[None, :]].sum()
        + prog.col_caps[cols_in].sum()
    )
    gap = abs(cut - value)
    if not gap <= DUALITY_TOL * value:
        raise RuntimeError(f"max-flow duality gap {gap:.3e} (flow {value}, cut {cut})")

    row_sums = x.sum(axis=1)
    col_sums = x.sum(axis=0)
    tol = FEAS_TOL * max(1.0, value)
    tight_rows = row_sums >= prog.row_caps - tol
    tight_cols = col_sums >= prog.col_caps - tol
    tight_edges = np.isfinite(prog.caps) & (x >= prog.caps - tol)
    rows_in, cols_in = rows_in & (prog.row_caps > 0.0), cols_in | (prog.col_caps == 0.0)
    return FlowSolution(value, x, cut, tight_rows, tight_cols, tight_edges, rows_in, cols_in)


def lp_oracle(prog: SubstochasticProgram) -> float:
    """Independent optimum via a sparse LP solve (scipy HiGHS); tests and verify only.

    Kept deliberately separate from the flow solver so the two routes
    cross-validate each other.  One variable per positive edge cap, an
    infinite cap left unbounded; the constraint rows are the row sums, then
    the column sums.  ``milp`` with no integrality is an LP solve.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    nr, nc = prog.shape
    rows, cols = np.nonzero(prog.caps > 0.0)
    nvar = len(rows)
    if nvar == 0:
        return 0.0
    var = np.arange(nvar)
    a = csr_array(
        (np.ones(2 * nvar), (np.concatenate([rows, nr + cols]), np.concatenate([var, var]))),
        shape=(nr + nc, nvar),
    )
    res = milp(
        -np.ones(nvar),
        constraints=LinearConstraint(a, -np.inf, np.concatenate([prog.row_caps, prog.col_caps])),
        bounds=Bounds(0.0, prog.caps[rows, cols]),
    )
    if not res.success:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return float(-res.fun)


@dataclass(frozen=True, eq=False)
class BoundResult:
    """A computed lower bound: prefactor * (optimal mass), with certificate."""

    value: float
    x: np.ndarray
    prefactor: float
    rows: tuple
    cols: tuple
    flow_value: float
    cut_value: float
    tight_rows: tuple
    tight_cols: tuple
    tight_edges: np.ndarray
    params: dict

    @classmethod
    def from_solution(
        cls,
        prog: SubstochasticProgram,
        sol: FlowSolution,
        prefactor: float,
        rows,
        cols,
        params: dict,
    ) -> "BoundResult":
        x = sol.x
        tol = FEAS_TOL * max(1.0, sol.value)
        if np.any(x < -tol) or np.any(x - prog.caps > tol):
            raise RuntimeError("solver returned an infeasible mass matrix")
        if (
            np.any(x.sum(axis=1) - prog.row_caps > tol)
            or np.any(x.sum(axis=0) - prog.col_caps > tol)
        ):
            raise RuntimeError("solver violated a row/column cap")
        value = prefactor * float(x.sum())
        return cls(
            value=value,
            x=x,
            prefactor=prefactor,
            rows=tuple(int(r) for r in rows),
            cols=tuple(int(c) for c in cols),
            flow_value=sol.value,
            cut_value=sol.cut_value,
            tight_rows=tuple(bool(b) for b in sol.tight_rows),
            tight_cols=tuple(bool(b) for b in sol.tight_cols),
            tight_edges=sol.tight_edges,
            params=dict(params),
        )

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "value": self.value,
            "prefactor": self.prefactor,
            "x": [[float(v) for v in row] for row in self.x],
            "rows": list(self.rows),
            "cols": list(self.cols),
            "flow_value": self.flow_value,
            "cut_value": self.cut_value,
            "tight": {
                "rows": list(self.tight_rows),
                "cols": list(self.tight_cols),
                "edges": [[bool(v) for v in row] for row in self.tight_edges],
            },
            "params": self.params,
        }


def _fisher_rectangle(model: CovModel | DenoiseModel, rows, cols) -> np.ndarray:
    """Generator Fisher information I_ij of the model on the rows x cols rectangle."""
    lam = model.spectrum.lambdas
    li = lam[np.asarray(rows, dtype=np.intp)][:, None]
    lj = lam[np.asarray(cols, dtype=np.intp)][None, :]
    return model.generator_fisher(li, lj)


def _rectangle_caps(model: CovModel | DenoiseModel) -> np.ndarray:
    """Edge caps 2 / I_ij on the leading-by-trailing rectangle (inf where I_ij = 0)."""
    d, p = model.spectrum.d, model.p
    with np.errstate(divide="ignore"):
        return 2.0 / _fisher_rectangle(model, range(d), range(d, p))


def _require_delta(delta: float) -> None:
    if not 0.0 < delta < np.inf:
        raise InvalidInput("delta must be finite and > 0")


def _rectangle_solve(model: CovModel | DenoiseModel, delta: float):
    """(program, flow solution, bound) at mixing level delta on the leading-by-trailing rectangle.

    Edge caps 2 / I_ij, with I_ij the model's Fisher information along the
    generator L(i, j); row and column sums capped at delta; prefactor
    1/(1 + 2 delta).
    """
    _require_delta(delta)
    d, p = model.spectrum.d, model.p
    prog = SubstochasticProgram(_rectangle_caps(model), np.full(d, delta), np.full(p - d, delta))
    sol = substochastic_max(prog)
    if model.kind == "covariance":
        params = {"bound": "hs", "n": model.n, "delta": delta, "d": d, "p": p}
    else:
        params = {"bound": "denoise", "sigma": model.sigma, "delta": delta, "d": d, "p": p}
    prefactor = 1.0 / (1.0 + 2.0 * delta)
    return prog, sol, BoundResult.from_solution(prog, sol, prefactor, range(d), range(d, p), params)


def hs_lower_bound(model: CovModel, delta: float = 1.0) -> BoundResult:
    """Squared-subspace-distance lower bound at mixing level delta.

    Edge caps 2 / I_ij = 2 lam_i lam_j / (n (lam_i - lam_j)^2) over the
    leading-by-trailing index rectangle, row and column sums capped at
    delta, prefactor 1/(1 + 2 delta).
    """
    return _rectangle_solve(model, delta)[2]


def denoise_lower_bound(model: DenoiseModel, delta: float = 1.0) -> BoundResult:
    """Denoising analogue of the subspace-distance bound.

    Same program shape with edge caps 2 / I_ij = 2 sigma^2 / (lam_i - lam_j)^2.
    """
    return _rectangle_solve(model, delta)[2]


def hs_bound_d1(model: CovModel, delta: float = 1.0) -> float:
    """Closed form for d = 1: min(sum of edge caps, delta) / (1 + 2 delta)."""
    if model.spectrum.d != 1:
        raise InvalidInput("closed form requires d = 1")
    _require_delta(delta)
    return float(min(_rectangle_caps(model).sum(), delta) / (1.0 + 2.0 * delta))


class SingletonSolution(NamedTuple):
    value: float
    z: np.ndarray
    lower_estimate: float


def singleton_max(b_row) -> SingletonSolution:
    """Exact solution of the single-row ratio problem with unit weights.

    The optimizer is z_j = (1 + 1/b_j)^{-1}, the optimal value S/(1+S)
    with S the sum of those terms, and the value always dominates the
    simple estimate min(sum b_j, 1)/4 (returned alongside).
    """
    b = np.asarray(b_row, dtype=np.float64)
    if np.any(np.isnan(b)) or np.any(b < 0):
        raise InvalidInput("capacities must be nonnegative (inf allowed)")
    with np.errstate(divide="ignore"):
        z = 1.0 / (1.0 + 1.0 / b)
    z[b == 0.0] = 0.0
    s = float(z.sum())
    value = s / (1.0 + s)
    lower = 0.25 * min(float(b.sum()), 1.0)
    if value < lower - 1e-12:
        raise RuntimeError(f"singleton optimum {value} fell below its estimate {lower}")
    return SingletonSolution(value, z, lower)


BREAKPOINT_RTOL = 1e-12


def _cut_capacity(prog: SubstochasticProgram, sol: FlowSolution) -> float:
    """Capacity in ``prog`` of the min cut of ``sol``, read from the full rectangle of caps."""
    crossing = prog.caps[np.ix_(sol.rows_in, ~sol.cols_in)].sum()
    return float(prog.row_caps[~sol.rows_in].sum() + crossing + prog.col_caps[sol.cols_in].sum())


def _breakpoint_max(solve, lo: float, hi: float, row_slope: int, trend) -> BoundResult:
    """The bound maximized exactly over t in [lo, hi] from the min cuts of its solves.

    ``solve(t)`` returns the program at t, its flow solution and the bound.
    Row caps move with slope ``row_slope`` in t and column caps with slope 1,
    so each cut's capacity is a line in t with an integer slope, and the flow
    is their lower envelope.  ``trend(t, c, a)`` has the sign of the bound's
    derivative on the line of slope a through (t, c).  A rising cut line L
    lies left of the maximum, a falling one R right of it.  Where they cross,
    a flow equal to min(L, R), or a cut with a flat bound, certifies the
    maximum; else the cut replaces L or R (Gallo, Grigoriadis & Tarjan 1989;
    Dinkelbach 1967).  L's slope falls and R's rises, so over nr + nc + 2 solves raise.
    """

    def cut_line(t):
        prog, sol, result = solve(t)
        slope = row_slope * int(np.sum(~sol.rows_in)) + int(np.sum(sol.cols_in))
        return t, prog, sol, slope, result

    left = t, prog, sol, a, result = cut_line(lo)
    if not trend(t, sol.value, a) > 0:
        return result
    right = t, _, sol, a, result = cut_line(hi)
    if not trend(t, sol.value, a) < 0:
        return result
    for _ in range(sum(prog.shape)):
        (t_l, prog_l, cut_l, a_l, _), (t_r, _, cut_r, a_r, _) = left, right
        gap = _cut_capacity(prog_l, cut_r) - _cut_capacity(prog_l, cut_l)
        t = t_l if a_l == a_r else min(max(t_l + gap / (a_l - a_r), t_l), t_r)
        new = _, prog, sol, a, result = cut_line(t)
        lines = min(_cut_capacity(prog, cut_l), _cut_capacity(prog, cut_r))
        if sol.value >= lines * (1.0 - BREAKPOINT_RTOL) or trend(t, sol.value, a) == 0:
            return result
        left, right = (new, right) if trend(t, sol.value, a) > 0 else (left, new)
    raise RuntimeError(f"breakpoint search not certified in {sum(prog.shape) + 2} solves")


def _excess_index_sets(model: CovModel) -> tuple[int, int]:
    """Largest r with lam_r > lam_{d+1} and smallest s >= d with lam_d > lam_{s+1}.

    Returned 0-based: rows are 0..r-1, columns are s..p-1.
    """
    lam = model.spectrum.lambdas
    d, p = model.spectrum.d, model.p
    if d >= p or not lam[0] > lam[d]:
        raise InvalidInput("excess bound requires lam_1 > lam_{d+1}")
    if not lam[d - 1] > lam[-1]:
        raise InvalidInput("excess bound requires lam_d > lam_p")
    r = int(np.sum(lam[:d] > lam[d]))
    s = d + int(np.argmax(lam[d:] < lam[d - 1]))
    return r, s


def _excess_program(model: CovModel, mu: float, r: int, s: int) -> SubstochasticProgram:
    lam = model.spectrum.lambdas
    gaps = lam[:r, None] - lam[None, s:]
    caps = gaps / _fisher_rectangle(model, range(r), range(s, model.p))
    if not np.all(np.isfinite(caps)) or np.any(caps <= 0):
        raise InvalidInput("excess caps must be finite and positive inside the rectangle")
    row_caps = np.maximum(lam[:r] - mu, 0.0)
    col_caps = np.maximum(mu - lam[s:], 0.0)
    return SubstochasticProgram(caps, row_caps, col_caps)


EXCESS_PREFACTOR = 1.0 / 3.0


def excess_lower_bound(model: CovModel, mu="auto") -> BoundResult:
    """Excess-risk lower bound; mu is the split level or "auto".

    Edge caps (lam_i - lam_j) / I_ij = lam_i lam_j / (n (lam_i - lam_j)),
    with I_ij the Fisher information along L(i, j), row caps lam_i - mu,
    column caps mu - lam_j, prefactor 1/3.  In auto mode mu maximizes the
    bound over [lam_{d+1}, lam_d], where each cut's capacity is affine in mu.
    Certificate: the flow at mu equals a rising and a falling min-cut line
    that cross there, or mu's own min-cut line is flat, or mu ends the range
    and its min-cut line does not rise into it.
    """
    lam = model.spectrum.lambdas
    d = model.spectrum.d
    r, s = _excess_index_sets(model)
    mu_lo, mu_hi = float(lam[d]), float(lam[d - 1])
    rows, cols = range(r), range(s, model.p)

    def solve(m):
        prog = _excess_program(model, m, r, s)
        sol = substochastic_max(prog)
        params = {"bound": "excess", "mu": m, "n": model.n, "d": d, "p": model.p, "r": r, "s": s}
        return prog, sol, BoundResult.from_solution(prog, sol, EXCESS_PREFACTOR, rows, cols, params)

    if isinstance(mu, str):
        if mu != "auto":
            raise InvalidInput(f"mu must be a number or 'auto', got {mu!r}")
        return _breakpoint_max(solve, mu_lo, mu_hi, -1, lambda t, c, a: a)
    mu_val = float(mu)
    if not mu_lo <= mu_val <= mu_hi:
        raise InvalidInput(f"mu={mu_val} outside [{mu_lo}, {mu_hi}]")
    return solve(mu_val)[2]


def relrank_condition(model: CovModel) -> tuple[bool, float]:
    """Effective-rank condition for the plug-in excess bound.

    Returns (holds, lhs) where the condition is lhs <= n/2 with

        lhs = lam_d/(lam_d - lam_{d+1})
              * (sum_{i<=d} lam_i/(lam_i - lam_{d+1})
                 + sum_{j>d} lam_j/(lam_d - lam_j)).
    """
    lam = model.spectrum.lambdas
    d, p = model.spectrum.d, model.p
    if d >= p:
        raise InvalidInput("condition requires d < p")
    if not lam[d - 1] > lam[d]:
        raise InvalidInput("condition requires lam_d > lam_{d+1}")
    head = float(np.sum(lam[:d] / (lam[:d] - lam[d])))
    tail = float(np.sum(lam[d:] / (lam[d - 1] - lam[d:])))
    lhs = lam[d - 1] / (lam[d - 1] - lam[d]) * (head + tail)
    return bool(lhs <= model.n / 2.0), float(lhs)


def relrank_bound(model: CovModel) -> float:
    """Plug-in excess-risk lower bound, 1/3 of the excess caps summed over
    i <= d < j (the condition makes r = s = d), valid under the condition.

    When the condition holds, the saturating mass choice is feasible at the
    midpoint split level, so the optimized bound dominates this one; that
    domination is asserted (cheaply at the midpoint, falling back to the
    optimized split before failing).
    """
    holds, lhs = relrank_condition(model)
    if not holds:
        raise ConditionNotMet(f"condition lhs={lhs:.6g} exceeds n/2={model.n / 2:.6g}")
    lam = model.spectrum.lambdas
    d = model.spectrum.d
    mid = 0.5 * (lam[d - 1] + lam[d])
    value = EXCESS_PREFACTOR * float(_excess_program(model, mid, d, d).caps.sum())
    dominating = excess_lower_bound(model, mu=mid).value
    if dominating < value * (1.0 - 1e-9):
        dominating = excess_lower_bound(model, mu="auto").value
    if dominating < value * (1.0 - 1e-9):
        raise RuntimeError(
            f"optimized excess bound {dominating} fell below plug-in value {value}"
        )
    return value


DELTA_RANGE = (1e-4, 1e4)


def optimize_delta(model) -> tuple[float, BoundResult]:
    """The bound maximized over delta in DELTA_RANGE; returns (delta, bound).

    A cut with a row/column caps and crossing edge caps b on its boundary
    bounds the value by (a delta + b)/(1 + 2 delta), which rises in delta
    iff a > 2b.  Certificate: the flow at delta equals a rising and a falling
    min-cut line that cross there, or delta's own min-cut term is flat, or
    delta ends the range and its min-cut term does not rise into it.
    """
    if not isinstance(model, (CovModel, DenoiseModel)):
        raise InvalidInput(f"unsupported model type {type(model)!r}")
    result = _breakpoint_max(
        lambda t: _rectangle_solve(model, t), *DELTA_RANGE, 1,
        lambda t, c, a: a * (1.0 + 2.0 * t) - 2.0 * c,
    )
    return result.params["delta"], result


def canonical_bound(model: CovModel) -> float:
    """Value of the simple feasible mass min(edge cap, 1/p), prefactor 1/3.

    Feasible at delta = 1: each row sum is at most (p-d)/p <= 1 and each
    column sum at most d/p <= 1.  Always dominated by the optimized bound
    at delta = 1 (asserted).
    """
    value = float(np.minimum(_rectangle_caps(model), 1.0 / model.p).sum()) / 3.0
    optimum = hs_lower_bound(model, delta=1.0).value
    if value > optimum + 1e-12:
        raise RuntimeError(f"canonical value {value} exceeds the optimum {optimum}")
    return value


def cramer_rao_ratio(model, weights: WeightMatrix, rows, cols, z) -> float:
    """Cramér-Rao-type ratio lower bound for a chosen direction-weight matrix.

    For row indices inside the leading block and column indices outside it,
    the Bayes risk of the weighted loss is bounded below by

        (sum z_ij)^2 / [ sum_ij I_ij z_ij^2 / (w_ij + w_ji)
                         + sum_i (sum_j z_ij)^2 / w_ii
                         + sum_j (sum_i z_ij)^2 / w_jj ]

    where I_ij is the model's Fisher information along L(i, j).  Requires
    w_ij + w_ji > 0 on the rectangle and positive diagonal weights on the
    chosen indices; an all-zero z gives 0 (the 0/0 convention).
    """
    rows = tuple(int(i) for i in rows)
    cols = tuple(int(j) for j in cols)
    d, p = model.spectrum.d, model.p
    if any(not 0 <= i < d for i in rows) or any(not d <= j < p for j in cols):
        raise InvalidInput("rows must lie in the leading block, cols outside it")
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (len(rows), len(cols)):
        raise InvalidInput(f"z must have shape {(len(rows), len(cols))}")
    w = weights.w
    if w.shape != (p, p):
        raise InvalidInput("weights must be p x p")
    wdiag_rows = np.diagonal(w)[list(rows)]
    wdiag_cols = np.diagonal(w)[list(cols)]
    if np.any(wdiag_rows <= 0) or np.any(wdiag_cols <= 0):
        raise InvalidInput("diagonal weights must be positive on the active indices")
    pair_sums = w[np.ix_(rows, cols)] + w[np.ix_(cols, rows)].T
    bad = np.argwhere(pair_sums <= 0)
    if bad.size:
        i, j = rows[bad[0][0]], cols[bad[0][1]]
        raise InvalidInput(f"w_ij + w_ji must be positive at ({i}, {j})")
    # An entry with z_ij = 0 adds exactly 0, even where I_ij overflows to inf.
    fisher = np.where(z != 0.0, _fisher_rectangle(model, rows, cols), 0.0)
    fisher_term = float(np.sum(fisher * z**2 / pair_sums))
    row_term = float(np.sum(z.sum(axis=1) ** 2 / wdiag_rows))
    col_term = float(np.sum(z.sum(axis=0) ** 2 / wdiag_cols))
    numerator = float(z.sum()) ** 2
    denominator = fisher_term + row_term + col_term
    if denominator == 0.0:
        return 0.0
    return numerator / denominator
