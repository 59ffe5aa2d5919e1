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
runs in numpy with the bits of the Python DFS: the leading rows that a
monotone pre-test shows cannot saturate as one vectorized block, the rest a
row at a time.  The solver reverses the columns, so that phase starts each
row of a bound program from its smallest edge cap.  On the bound class (edge
caps rising down the rows and falling along the columns, row caps
non-increasing, column caps non-decreasing) a property test gates that it is
a maximum flow; general programs reach later phases.  A solve reads and
writes its nr x nc data through a fixed set of buffers.  Three of them are a
per-thread workspace that is kept between solves: the reversed caps of the
built edges, which become the forward residuals in place, the first phase's
work matrix, which holds the flows, and one scratch matrix for the check.
Each holds (nr + 1)(nc + 1) floats for the largest program that the thread
has solved and never shrinks, so a thread that has solved keeps
3 (nr + 1)(nc + 1) * 8 bytes, about 0.97 MB after a 200 x 200 program
(p = 400); a solve that outgrows them runs on fresh buffers and then leaves
buffers of its size.  The flows in column order are a fresh copy: nothing
returned is a view of a buffer.  The later phases work on
the program's own nr x nc residual matrices, with no arc list.  Rows and
columns alternate in the BFS, so each level is one boolean row or column
reduction of a matrix, and BFS distances do not depend on visit order, so
the levels are those of a BFS over arcs.  A Python DFS then walks that
phase's admissible arcs only, taken from the matrices in arc order (the
source's rows ascending, a row's columns ascending, a column's rows
ascending and then the sink), so it makes the pushes of a scan of every
arc in that order.
No scipy module is imported on this path.  Every solve is checked in one
place, ``_certified``: the minimum cut that its last breadth-first search
leaves must have the capacity of the flow to within 1e-9 of the flow, and
the flows must keep every cap to within 1e-9 of max(1, flow); a failed
check raises ``CheckFailed``.  The searches over mu and delta take the
lower envelope of the prefix cuts' lines in the parameter, pick the maximum
from the signs of its pieces' rises, and solve one flow there that must
equal the envelope.  The parameter moves only the row and column caps, so a
search builds its edge caps (one Fisher rectangle) and their prefix sums
once, and each set of cuts adds its row and column caps to them.  The
least cut of each slope is a column minimum of one flat buffer of inf,
into which the cuts are written through a plain reshape of a slice, with
no index arrays.  A
sparse LP oracle (scipy HiGHS) provides an independent verification path
at any size, solving a sequence of programs as one block-diagonal LP, and
is used only by tests and the verify command.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CheckFailed, ConditionNotMet, InvalidInput
from .equivariance import WeightMatrix, gap_weights
from .models import CovModel, DenoiseModel

DUALITY_TOL = 1e-9
FEAS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SubstochasticProgram:
    """max sum x_ij  s.t.  0 <= x_ij <= caps_ij, row/col sums capped.

    ``caps`` entries may be +inf, which the solver keeps as inf; row and
    column caps must be finite and nonnegative.  A zero cap simply forces
    the corresponding mass to zero.
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
        # One reduction per test, each failed by NaN: min and max propagate it.
        if not caps.min(initial=0.0) >= 0.0:
            raise InvalidInput("edge caps must be nonnegative (inf allowed)")
        if not (row_caps.min(initial=0.0) >= 0.0 and row_caps.max(initial=0.0) < np.inf):
            raise InvalidInput("row caps must be finite and nonnegative")
        if not (col_caps.min(initial=0.0) >= 0.0 and col_caps.max(initial=0.0) < np.inf):
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


class _MaxFlowGraph:
    """Dinic's algorithm (Dinic, 1970) on the residual matrices of s -> rows -> columns -> t.

    The sink t is stacked below the rows as row nr, so ``fwd[i, j]`` is the
    residual of the arc from row i (or t) to column j (taken in place from the
    buffer of edge caps that the first phase read) and ``rev[i, j]`` that
    of the arc back: for an edge, its cap less its flow and its flow; for t,
    0 (never read, as t is never expanded) and column j's residual cap.
    ``row_res`` holds the source arcs; the reverse of a source arc is never
    read (s is labelled first).  An unbuilt edge holds 0 both ways.  All are
    updated in place.  Each phase labels the nodes by BFS distance from s
    over arcs with residual > 0.  Rows and t sit at odd levels and columns at
    even ones, so each level is one boolean reduction: the columns reached
    from the row front are ``(fwd[front] > 0).any(axis=0)``, the rows (and t)
    reached from those new columns ``(rev[:, new] > 0).any(axis=1)``, each
    less the labelled ones.  BFS distances do not depend on visit order, so
    these are the levels of a BFS over arcs.  The BFS stops at t's level.
    The blocking flow saturates arcs that climb one level, with a
    current-arc pointer per node and dead ends pruned.  Its DFS walks only
    the phase's admissible arcs (residual > 0, head one level above tail),
    taken by ``np.nonzero`` and grouped by tail in arc order: s's rows
    ascending, a row's columns ascending, a column's rows ascending and then
    t.  It makes exactly the pushes of a DFS that scans every arc in that
    order: a push raises only reverse residuals, and a reverse arc goes one
    level down, so no arc outside the set becomes admissible within the
    phase, and an arc in it is skipped just when the scan would skip it
    (saturated, or its head a dead end).  Nodes past the sink's level,
    unlabelled here, lead to no path to the sink, so leaving them out
    changes no push.
    Termination needs no epsilon, even in IEEE arithmetic: an augmenting
    path's bottleneck arc is left with r - r = 0 exactly and every other
    residual on it stays > 0, so each phase saturates every shortest path,
    the source-sink distance grows, and at most nr + nc + 1 phases run.  When
    the BFS no longer reaches t, every arc leaving the labelled rows and
    columns has residual exactly 0, so they are the source side of a minimum
    cut.  ``phases`` counts the phases (each pushes) and ``paths`` the
    augmenting paths.
    """

    def __init__(self, fwd: np.ndarray, rev: np.ndarray, row_res: np.ndarray):
        """``fwd`` holds the edge caps above a zero row for t; the flows in ``rev``
        are subtracted from it in place."""
        np.subtract(fwd[:-1], rev[:-1], out=fwd[:-1])
        self.fwd, self.rev, self.row_res, self.phases, self.paths = fwd, rev, row_res, 0, 0

    def _levels(self) -> tuple[np.ndarray, np.ndarray]:
        """BFS distances from s of the rows (t last) and columns up to t's level, else -1."""
        fwd, rev, rows = self.fwd > 0.0, self.rev > 0.0, np.zeros(len(self.row_res) + 1, bool)
        np.greater(self.row_res, 0.0, out=rows[:-1])
        row_level, col_level, depth = np.where(rows, 1, -1), np.full(fwd.shape[1], -1), 2
        while not rows[-1] and (cols := fwd[rows].any(axis=0) & (col_level < 0)).any():
            col_level[cols] = depth
            rows = rev[:, cols].any(axis=1) & (row_level < 0)
            row_level[rows] = depth + 1
            depth += 2
        return row_level, col_level

    def max_flow(self) -> tuple[np.ndarray, np.ndarray]:
        """Push a maximum s-t flow; return the rows and the columns on the
        source side of a minimum cut."""
        s, t = 0, len(self.row_res) + 1  # rows are nodes 1..nr, then t, then the columns
        while True:
            row_level, col_level = self._levels()
            if row_level[-1] < 0:
                return row_level[:-1] >= 0, col_level >= 0
            self.phases += 1
            src = np.flatnonzero(row_level == 1)
            ri, rj = np.nonzero((self.fwd > 0.0) & (col_level == row_level[:, None] + 1))
            cj, ci = np.nonzero(((self.rev > 0.0) & (row_level[:, None] == col_level + 1)).T)
            tl = np.concatenate([np.zeros_like(src), 1 + ri, t + 1 + cj])  # ascending
            hd = np.concatenate([1 + src, t + 1 + rj, 1 + ci]).tolist()
            fwd = np.concatenate([self.row_res[src], self.fwd[ri, rj], self.rev[ci, cj]]).tolist()
            rev = np.concatenate([np.zeros(len(src)), self.rev[ri, rj], self.fwd[ci, cj]]).tolist()
            current = np.searchsorted(tl, np.arange(t + len(col_level) + 2)).tolist()
            stops, tl = current[1:], tl.tolist()
            level = [0, *row_level.tolist(), *col_level.tolist()]
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
            cuts = [len(src), len(src) + len(ri)]
            self.row_res[src], self.fwd[ri, rj], self.rev[ci, cj] = np.split(np.array(fwd), cuts)
            self.rev[ri, rj], self.fwd[ci, cj] = np.split(np.array(rev), cuts)[1:]


def _first_phase(caps, row_caps, col_caps, work):
    """Dinic's first phase in numpy: (rev, row residuals), where rev[:-1] is
    the edge flows and rev[-1] the column residuals, as ``_MaxFlowGraph`` takes them.
    ``rev`` is ``work[:, 1:]``, a view of the caller's (nr + 1) x (nc + 1) buffer.

    ``caps`` are the built edges' caps, 0 elsewhere.  A built edge has row
    and column caps > 0, so the sink is at level 3 and the phase saturates
    every path s -> i -> j -> t: the row-major greedy flow (Ahuja, Magnanti &
    Orlin 1993).  The DFS takes the rows in order and each row's columns in
    order, and pushes the least residual.  The first arc the push leaves at
    0 decides where it resumes: the next row (the row's arc) or the row's
    next column (the edge's, or the column's, which is then a dead end).
    With a = min(edge cap, column residual), an unbuilt edge's or a dead
    column's a = 0 pushes nothing and changes no residual (r - 0 = r), and a
    row's residuals r_0 = its cap, r_(k+1) = r_k - a_k are subtracted left
    to right as ``res[s->i] -= push`` does.  At the first r_(k+1) <= 0 the
    row saturates with push r_k, exactly 0 left.  Only rows with cap > 0
    push, and a zero-cap column's residual is +0.
    Each row of ``work`` has the row's cap as its head, its residual until
    the row is scanned, and takes the a's in its tail, so one
    ``subtract.accumulate`` of the row gives the r's.  Every a >= 0, so the
    r's never rise, and a last r > 0 means that no r is <= 0: only a row
    that saturates is searched for its r_k, and the bits are those of a
    search on every row.  ``substochastic_max`` passes the columns reversed,
    so each row of a bound program starts from its smallest edge cap.

    The leading rows that cannot saturate go first, as one block.  Its
    invariant is a monotone pre-test: the tail of ``work`` first takes each
    row's caps clipped at the column caps, and a row passes when one
    ``subtract.reduce`` of its work row, the loop's subtractions in the loop's
    order, leaves a last r > 0.  The block pushes a's that are at most those
    clipped caps, and fl(x - y) rises with x and falls with y, so each of the
    block's r's is at least the pre-test's: a row that passes keeps a last
    r > 0 in the block and does not saturate.  Up to the first row that fails
    (in a bound program the rows that pass are a prefix: caps rise down the
    rows, row caps do not), row i of ``work`` takes the column residuals
    before row i, from one ``subtract.accumulate`` down the caps that starts
    from the column caps.  A row that does not saturate pushes
    min(cap, residual): the cap while the residual exceeds it, leaving
    c - cap, and else all of c, leaving c - c = +0.0, after which the column
    stays at +0.0.  The accumulated c - cap first falls to <= 0 at that row,
    and stays <= 0 below it, so each value <= 0 is set to +0.0 (by
    ``copyto``: ``maximum`` could keep a -0.0).  Then a = min(cap, residual)
    in place, and each row's last r is one ``subtract.reduce`` along its work
    row.  The loop would make the same pushes from the same residuals, so
    the block has the loop's bits, and the loop runs on from the first row
    that fails.  The phase writes every entry of ``work`` that it reads (the
    corner ``work[-1, 0]`` is never read), so ``work`` needs no fill.
    """
    nr, r = len(row_caps), np.empty(len(col_caps) + 1)
    work[:-1, 0] = row_caps
    row_res, col_res = row_caps.copy(), work[-1, 1:]
    np.minimum(caps, col_caps, out=work[:-1, 1:])
    fits = np.subtract.reduce(work[:-1], axis=1) > 0.0
    t = nr if fits.all() else int(fits.argmin())
    c = work[: t + 1, 1:]  # row i: the column residuals before row i, then its a's
    c[0] = 0.0
    np.copyto(c[0], col_caps, where=col_caps > 0.0)
    c[1:] = caps[:t]
    np.subtract.accumulate(c, axis=0, out=c)
    np.copyto(c, 0.0, where=c <= 0.0)
    np.minimum(caps[:t], c[:-1], out=c[:-1])
    row_res[:t] = np.subtract.reduce(work[:t], axis=1)
    col_res[...] = c[-1]
    work[t:-1, 1:] = 0.0
    for i in (t + np.flatnonzero(row_caps[t:] > 0.0)).tolist():
        a = work[i, 1:]
        np.minimum(caps[i], col_res, out=a)
        np.subtract.accumulate(work[i], out=r)
        if not r[-1] > 0.0:
            k = int(np.count_nonzero(r > 0.0))  # r_k is the first r <= 0
            a[k - 1], a[k:], r[-1] = r[k - 1], 0.0, 0.0
        row_res[i] = r[-1]
        col_res -= a
    return work[:, 1:], row_res


def substochastic_max(prog: SubstochasticProgram) -> FlowSolution:
    """Exact optimum of the capacitated substochastic program.

    Returns the optimal mass matrix together with the certified min-cut
    value and constraint-activity flags.  The program is solved with its
    columns reversed, and the flows and the cut's columns are reversed
    back.  Every bound program's edge caps fall along its columns, so the
    first phase then starts each row from its smallest cap.  On the bound
    class, where the edge caps also rise down the rows, the row caps do not
    rise and the column caps do not fall, that greedy flow is a maximum flow
    and no later phase runs (gated by a derandomized property test, not
    proven).  Dinic's first phase runs in numpy;
    the later phases and the final BFS run in ``_MaxFlowGraph`` on the
    residual matrices, whose reverse residuals are the flows.  The reversed
    caps of the built edges are written once into a buffer with a zero row
    below, which the first phase reads and which then becomes the forward
    residuals.  A program with no rows or no columns takes the same path and
    gets flow and cut 0.  ``_certified`` checks the result (which would fail
    on a solver bug, not on a bad instance).

    The three transient matrices (the forward residuals, the first phase's
    work matrix and the check's scratch) are views of this thread's
    workspace (``_Workspace``), which is kept between solves: 3 (nr + 1)(nc + 1)
    floats, or 3 (nr + 1)(nc + 1) * 8 bytes, for the largest program that the
    thread has solved, about 0.97 MB after a 200 x 200 program (p = 400).  It
    never shrinks; a solve that outgrows it runs on fresh buffers and leaves
    a workspace of its size.  Nothing returned is a view of a buffer: ``x``
    is a copy and the flags are fresh arrays.
    """
    # An inf edge cap stays inf: pushes are bounded by source arcs, and no min cut crosses it.
    # Unbuilt edges are masked by copyto, not by a product, which would give inf * 0 = nan.
    nr, nc = prog.shape
    built = (prog.caps > 0.0) & (prog.row_caps > 0.0)[:, None] & (prog.col_caps > 0.0)[None, :]
    size = (nr + 1) * (nc + 1)
    kept = _WORKSPACE.buffers
    grown = len(kept[0]) < size
    fwd_buf, work_buf, scratch_buf = [np.empty(size) for _ in kept] if grown else kept
    fwd = fwd_buf[: (nr + 1) * nc].reshape(nr + 1, nc)
    fwd.fill(0.0)  # the sink row and the unbuilt edges
    np.copyto(fwd[:-1], prog.caps[:, ::-1], where=built[:, ::-1])
    work = work_buf[:size].reshape(nr + 1, nc + 1)
    g = _MaxFlowGraph(fwd, *_first_phase(fwd[:-1], prog.row_caps, prog.col_caps[::-1], work))
    rows_in, cols_in = g.max_flow()
    x = g.rev[:-1, ::-1].copy()  # a C-order copy: its sums do not see the reversal
    sol = _certified(prog, built, x, rows_in, cols_in[::-1], scratch_buf[: nr * nc].reshape(nr, nc))
    if grown:  # kept from now on, allocated after this solve's arrays: see _Workspace
        _WORKSPACE.buffers = tuple(np.empty(size) for _ in kept)
    return sol


class _Workspace(threading.local):
    """This thread's solve buffers, one per transient matrix of a solve: the
    forward residuals, the first phase's work matrix and ``_certified``'s
    scratch, (nr + 1)(nc + 1) floats each for the largest program that the
    thread has solved.  They never shrink.  A solve of a larger program runs
    on fresh buffers and then leaves new ones of its size.  Allocated after
    that solve's own arrays, the kept buffers lie above them on the heap.  On
    a heap that is trimmed only from its top, as glibc's is, the memory that
    the caller frees after a solve, and that the next one asks for again,
    then stays below the kept buffers: it is not returned to the system and
    not faulted in again."""

    buffers = (np.empty(0),) * 3


_WORKSPACE = _Workspace()


def _certified(prog, built, x, rows_in, cols_in, scratch) -> FlowSolution:
    """The solution with flows x, certified by the cut of rows_in and cols_in.

    The one check of a flow: raises ``CheckFailed`` if the cut and the flow
    differ by more than 1e-9 of the flow, or if x breaks an edge, row or
    column cap (or is negative) by more than 1e-9 of max(1, flow).  ``scratch``
    is an nr x nc buffer, which nothing returned aliases.
    """
    value = float(x.sum())
    cut = float(
        prog.row_caps[~rows_in].sum()
        + prog.caps[built & rows_in[:, None] & ~cols_in[None, :]].sum()
        + prog.col_caps[cols_in].sum()
    )
    gap = abs(cut - value)
    if not gap <= DUALITY_TOL * value:
        raise CheckFailed(f"max-flow duality gap {gap:.3e} (flow {value}, cut {cut})")

    row_sums = x.sum(axis=1)
    col_sums = x.sum(axis=0)
    tol = FEAS_TOL * max(1.0, value)
    np.subtract(x, prog.caps, out=scratch)
    if x.min(initial=0.0) < -tol or scratch.max(initial=0.0) > tol:  # x is not NaN: the gap held
        raise CheckFailed("solver returned an infeasible mass matrix")
    row_over, col_over = row_sums - prog.row_caps, col_sums - prog.col_caps
    if row_over.max(initial=0.0) > tol or col_over.max(initial=0.0) > tol:
        raise CheckFailed("solver violated a row/column cap")
    tight_rows = row_sums >= prog.row_caps - tol
    tight_cols = col_sums >= prog.col_caps - tol
    tight_edges = np.isfinite(prog.caps) & (x >= np.subtract(prog.caps, tol, out=scratch))
    return FlowSolution(value, x, cut, tight_rows, tight_cols, tight_edges)


def lp_oracle(programs: Sequence[SubstochasticProgram]) -> np.ndarray:
    """Independent optima of a sequence of programs from one sparse LP (scipy
    HiGHS); tests and verify only.  One program is a sequence of one.

    Kept deliberately separate from the flow solver so the two routes
    cross-validate each other.  The LP is block diagonal: each program gets
    one variable per positive edge cap (an infinite cap left unbounded) and
    its own row-sum and column-sum constraint rows, and the objective is -1
    on every variable.  No constraint couples two blocks, so the LP is
    separable, a joint optimum is optimal in every block, and each program's
    optimum is the sum of its block's variables.  ``milp`` with no
    integrality is an LP solve; a failed solve raises ``RuntimeError``.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    owner, rows, cols, caps, limits = [], [], [], [], []
    offset = 0
    for k, prog in enumerate(programs):
        nr, nc = prog.shape
        r, c = np.nonzero(prog.caps > 0.0)
        owner.append(np.full(len(r), k))
        rows.append(offset + r)
        cols.append(offset + nr + c)
        caps.append(prog.caps[r, c])
        limits += [prog.row_caps, prog.col_caps]
        offset += nr + nc
    nvar = sum(len(o) for o in owner)
    if nvar == 0:
        return np.zeros(len(programs))
    var = np.arange(nvar)
    a = csr_array(
        (np.ones(2 * nvar), (np.concatenate(rows + cols), np.concatenate([var, var]))),
        shape=(offset, nvar),
    )
    res = milp(
        -np.ones(nvar),
        constraints=LinearConstraint(a, -np.inf, np.concatenate(limits)),
        bounds=Bounds(0.0, np.concatenate(caps)),
    )
    if not res.success:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return np.bincount(np.concatenate(owner), weights=res.x, minlength=len(programs))


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
    def from_solution(cls, sol: FlowSolution, prefactor: float, rows, cols, params: dict) -> "BoundResult":
        """The bound prefactor * sol.value.  ``substochastic_max`` checked sol where
        it solved it (``_certified``), so nothing is checked again here."""
        return cls(
            value=prefactor * sol.value,
            x=sol.x,
            prefactor=prefactor,
            rows=tuple(map(int, rows)),
            cols=tuple(map(int, cols)),
            flow_value=sol.value,
            cut_value=sol.cut_value,
            tight_rows=tuple(sol.tight_rows.tolist()),
            tight_cols=tuple(sol.tight_cols.tolist()),
            tight_edges=sol.tight_edges,
            params=dict(params),
        )

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "value": self.value,
            "prefactor": self.prefactor,
            "x": self.x.tolist(),
            "rows": list(self.rows),
            "cols": list(self.cols),
            "flow_value": self.flow_value,
            "cut_value": self.cut_value,
            "tight": {
                "rows": list(self.tight_rows),
                "cols": list(self.tight_cols),
                "edges": self.tight_edges.tolist(),
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
    info = _fisher_rectangle(model, range(d), range(d, p))
    with np.errstate(divide="ignore"):
        return np.divide(2.0, info, out=info)


def _require_delta(delta: float) -> None:
    if not 0.0 < delta < np.inf:
        raise InvalidInput("delta must be finite and > 0")


def _rectangle_lines(model: CovModel | DenoiseModel, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Row and column caps of the program at mixing level delta: delta each."""
    d, p = model.spectrum.d, model.p
    return np.full(d, delta), np.full(p - d, delta)


def _rectangle_program(model: CovModel | DenoiseModel, delta: float) -> SubstochasticProgram:
    """The program at mixing level delta: edge caps 2 / I_ij, row and column caps delta."""
    _require_delta(delta)
    return SubstochasticProgram(_rectangle_caps(model), *_rectangle_lines(model, delta))


def _rectangle_bound(model, delta: float, sol: FlowSolution) -> BoundResult:
    """The bound at mixing level delta from its program's flow; prefactor 1/(1 + 2 delta)."""
    d, p = model.spectrum.d, model.p
    if model.kind == "covariance":
        params = {"bound": "hs", "n": model.n, "delta": delta, "d": d, "p": p}
    else:
        params = {"bound": "denoise", "sigma": model.sigma, "delta": delta, "d": d, "p": p}
    return BoundResult.from_solution(sol, 1 / (1 + 2 * delta), range(d), range(d, p), params)


def hs_lower_bound(model: CovModel, delta: float = 1.0) -> BoundResult:
    """Squared-subspace-distance lower bound at mixing level delta.

    Edge caps 2 / I_ij = 2 lam_i lam_j / (n (lam_i - lam_j)^2) over the
    leading-by-trailing index rectangle, row and column sums capped at
    delta, prefactor 1/(1 + 2 delta).
    """
    return _rectangle_bound(model, delta, substochastic_max(_rectangle_program(model, delta)))


def denoise_lower_bound(model: DenoiseModel, delta: float = 1.0) -> BoundResult:
    """Denoising analogue of the subspace-distance bound.

    Same program shape with edge caps 2 / I_ij = 2 sigma^2 / (lam_i - lam_j)^2.
    """
    return _rectangle_bound(model, delta, substochastic_max(_rectangle_program(model, delta)))


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
        raise CheckFailed(f"singleton optimum {value} fell below its estimate {lower}")
    return SingletonSolution(value, z, lower)


def _crossing_caps(caps: np.ndarray) -> np.ndarray:
    """Sum of the edge caps that cross the cut with rows < a and columns < c on the
    source side (rows < a, columns >= c), at [a, c]; summed by cumsums, never by
    differences, so an inf cap stays inf."""
    crossing = np.zeros(np.add(caps.shape, 1))
    crossing[1:, :-1] = np.cumsum(np.cumsum(caps, axis=0)[:, ::-1], axis=1)[:, ::-1]
    return crossing


def _prefix_cuts(crossing: np.ndarray, row_caps: np.ndarray, col_caps: np.ndarray) -> np.ndarray:
    """Capacity of the cut with rows < a and columns < c on the source side, at [a, c]:
    the row caps of rows >= a, the crossing edge caps (``_crossing_caps``) and the
    column caps of columns < c."""
    rows_out, cols_in = np.zeros(len(row_caps) + 1), np.zeros(len(col_caps) + 1)
    row_caps[::-1].cumsum(out=rows_out[-2::-1])
    col_caps.cumsum(out=cols_in[1:])
    return rows_out[:, None] + crossing + cols_in


def _least_lines(cuts: np.ndarray, row_slope: int) -> np.ndarray:
    """The least prefix cut (``_prefix_cuts``) of each slope, from the least slope up.

    Cut [a, c] has slope row_slope (nr - a) + c for row_slope = +-1 (nr >= 1), so a
    slope's cuts are a diagonal (+1, least slope 0) or an anti-diagonal (-1, least
    -nr) of ``cuts``.  With W = nr + nc + 1 slopes, cut [a, c] belongs at row a and
    column slope - least slope of an (nr + 1) x W matrix of inf, whose column minima
    are the least lines: flat index nr + a (W - 1) + c for +1 and a (W + 1) + c for
    -1.  So the cuts are written through a reshape, of row length W - row_slope, of a
    slice of one flat buffer, a view that cannot reach past the buffer.
    """
    nr, nc = cuts.shape[0] - 1, cuts.shape[1] - 1
    w, start = nr + nc + 1, nr if row_slope > 0 else 0
    flat = np.full((nr + 1) * (w + 1), np.inf)
    stride = w - row_slope
    flat[start : start + (nr + 1) * stride].reshape(nr + 1, stride)[:, : nc + 1] = cuts
    return flat[: (nr + 1) * w].reshape(nr + 1, w).min(axis=0)


def _envelope_max(base: SubstochasticProgram, line_caps, lo: float, hi: float, row_slope: int,
                  b: float):
    """(t, flow at t) for the t in [lo, hi] maximizing flow(t) / (1 + b t), b >= 0.

    ``base`` is the program at lo, and the program at t has its edge caps with the
    row and column caps ``line_caps(t)``: its row caps move with slope ``row_slope``
    in t and its column caps with slope 1.  Only they move, so the edge caps and
    their crossing sums (``_crossing_caps``) are built once per search.  Each prefix
    cut is then a line in t with an integer slope, written from its capacity at lo,
    a sum of nonnegative caps.
    The least line per slope (``_least_lines``, from a reshaped flat buffer with no
    index arrays) gives the concave lower envelope F.  On a piece
    F = m + k (t - lo), F / (1 + b t) rises, stays flat or falls with the sign of
    r = k (1 + b lo) - b m, and r falls strictly from piece to piece (each meets the
    next past lo).  So the maximum is at the start of the first piece with r < 0, on
    a piece with r = 0 (taken at its middle, away from rounding at its ends) or at
    hi.  Every prefix cut is a cut, so F >= flow, and a flow at t equal to F(t)
    certifies the maximum over the range.  ``substochastic_max`` has already checked
    that flow as it checks every flow; this checks only that it meets the envelope.
    Edge caps rising down the rows and falling along the columns, with row caps
    constant or falling and column caps constant or rising, make a min cut a prefix
    cut (best responses to prefixes are prefixes); else this raises ``CheckFailed``.
    """
    crossing = _crossing_caps(base.caps)
    least = _least_lines(_prefix_cuts(crossing, base.row_caps, base.col_caps), row_slope)
    # Keep the lines below every line of smaller slope at lo.  By falling slope, the first
    # is F's piece at lo (never popped), and each later one crosses those before past lo.
    below = np.full(len(least), np.inf)
    np.minimum.accumulate(least[:-1], out=below[1:])
    kept = np.flatnonzero(least < below)[::-1]
    k, m = (kept + min(0, row_slope) * base.shape[0]).tolist(), least[kept].tolist()
    pieces = [(k[0], m[0], 0.0)]  # F's pieces on [lo, hi]: slope, intercept, start - lo
    for kj, mj in zip(k[1:], m[1:]):
        while (start := (mj - pieces[-1][1]) / (pieces[-1][0] - kj)) <= pieces[-1][2] > 0.0:
            pieces.pop()
        if start < hi - lo:
            pieces.append((kj, mj, start))
    best = hi
    for (kj, mj, start), end in zip(pieces, [s for *_, s in pieces[1:]] + [hi - lo]):
        if (rise := kj * (1.0 + b * lo) - b * mj) <= 0.0:
            best = min(hi, lo + (start if rise < 0.0 else (start + end) / 2))
            break
    prog = SubstochasticProgram(base.caps, *line_caps(best))
    sol = substochastic_max(prog)
    envelope = float(_prefix_cuts(crossing, prog.row_caps, prog.col_caps).min())
    if not abs(sol.value - envelope) <= DUALITY_TOL * sol.value:
        raise CheckFailed(f"search not certified at {best}: flow {sol.value}, envelope {envelope}")
    return best, sol


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


def _excess_lines(model: CovModel, mu: float, r: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Row caps lam_i - mu and column caps mu - lam_j at split level mu: the gap weights."""
    w = gap_weights(model.spectrum, mu)
    return w[:r], w[s:]


def _excess_program(model: CovModel, mu: float, r: int, s: int) -> SubstochasticProgram:
    """The program at split level mu: edge caps (lam_i - lam_j) / I_ij, which must be
    positive and finite, and the row and column caps of ``_excess_lines``."""
    lam = model.spectrum.lambdas
    gaps = lam[:r, None] - lam[None, s:]
    rectangle = (range(r), range(s, model.p))
    with np.errstate(over="ignore"):
        caps = np.divide(gaps, _fisher_rectangle(model, *rectangle), out=gaps)
    if not ((caps > 0.0) & (caps < np.inf)).all():
        change = "underflows to 0" if np.any(caps == 0) else "overflows"
        overflows = np.isinf(_fisher_rectangle(model, *rectangle)).any()
        cause = "I_ij overflows" if overflows else f"a cap (lam_i - lam_j) / I_ij {change}"
        raise InvalidInput(f"excess caps at n={model.n:.4g}: {cause}")
    return SubstochasticProgram(caps, *_excess_lines(model, mu, r, s))


EXCESS_PREFACTOR = 1.0 / 3.0


def excess_lower_bound(model: CovModel, mu="auto") -> BoundResult:
    """Excess-risk lower bound; mu is the split level or "auto".

    Edge caps (lam_i - lam_j) / I_ij = lam_i lam_j / (n (lam_i - lam_j)),
    with I_ij the Fisher information along L(i, j), row caps lam_i - mu,
    column caps mu - lam_j, prefactor 1/3.  In auto mode mu maximizes the
    bound over [lam_{d+1}, lam_d], where each cut's capacity is affine in mu
    with an integer slope; a flat maximum is taken at its middle, since at
    large n its start lies within rounding of a binding column cap.
    Certificate: the one flow solve, at the searched mu, equals the lower
    envelope of the prefix-cut lines, which bounds the flow at every mu.
    """
    lam, d, p = model.spectrum.lambdas, model.spectrum.d, model.p
    r, s = _excess_index_sets(model)
    mu_lo, mu_hi = float(lam[d]), float(lam[d - 1])
    if isinstance(mu, str):
        if mu != "auto":
            raise InvalidInput(f"mu must be a number or 'auto', got {mu!r}")
        mu_val, sol = _envelope_max(
            _excess_program(model, mu_lo, r, s),
            lambda m: _excess_lines(model, m, r, s),
            mu_lo, mu_hi, -1, 0.0,
        )
    else:
        mu_val = float(mu)
        if not mu_lo <= mu_val <= mu_hi:
            raise InvalidInput(f"mu={mu_val} outside [{mu_lo}, {mu_hi}]")
        sol = substochastic_max(_excess_program(model, mu_val, r, s))
    params = {"bound": "excess", "mu": mu_val, "n": model.n, "d": d, "p": p, "r": r, "s": s}
    return BoundResult.from_solution(sol, EXCESS_PREFACTOR, range(r), range(s, p), params)


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

    When the condition lhs <= n/2 holds, the mass that saturates every
    edge cap is feasible at the midpoint split level: each row sum is at most
    lam_d tail / n <= gap / 2 and each column sum at most lam_{d+1} head / n
    <= gap / 2 (head and tail as in ``relrank_condition``, gap = lam_d -
    lam_{d+1}).  So the flow at the midpoint alone equals the sum of the caps,
    and the bound there (``excess_lower_bound`` at mu = midpoint, from the
    same program) dominates this one; that domination is checked with one
    flow solve, and a failure raises ``CheckFailed``.
    """
    holds, lhs = relrank_condition(model)
    if not holds:
        raise ConditionNotMet(f"condition lhs={lhs:.6g} exceeds n/2={model.n / 2:.6g}")
    lam = model.spectrum.lambdas
    d = model.spectrum.d
    mid = lam[d] + 0.5 * (lam[d - 1] - lam[d])
    prog = _excess_program(model, mid, d, d)
    value = EXCESS_PREFACTOR * float(prog.caps.sum())
    dominating = EXCESS_PREFACTOR * substochastic_max(prog).value
    if dominating < value * (1.0 - 1e-9):
        raise CheckFailed(
            f"optimized excess bound {dominating} fell below plug-in value {value}"
        )
    return value


DELTA_RANGE = (1e-4, 1e4)


def optimize_delta(model) -> tuple[float, BoundResult]:
    """The bound maximized over delta in DELTA_RANGE; returns (delta, bound).

    A cut with a row/column caps and crossing edge caps b on its boundary
    bounds the value by (a delta + b)/(1 + 2 delta), which rises in delta
    iff a > 2b.  The search takes the envelope's first piece on which the
    bound does not rise, at its start where the bound falls and at its middle
    where it is flat (away from rounding at its ends), or else the top of the
    range.  Certificate: the one flow solve, at the searched delta, equals the
    lower envelope of the prefix-cut lines, which bounds the flow at every
    delta.
    """
    if not isinstance(model, (CovModel, DenoiseModel)):
        raise InvalidInput(f"unsupported model type {type(model)!r}")
    lo, hi = DELTA_RANGE
    delta, sol = _envelope_max(
        _rectangle_program(model, lo), lambda t: _rectangle_lines(model, t), lo, hi, 1, 2.0
    )
    return delta, _rectangle_bound(model, delta, sol)


def canonical_bound(model: CovModel) -> float:
    """Value of the simple feasible mass min(edge cap, 1/p), prefactor 1/3.

    Feasible at delta = 1: each row sum is at most (p-d)/p <= 1 and each
    column sum at most d/p <= 1.  Always dominated by the optimized bound
    at delta = 1 (checked; a failure raises ``CheckFailed``).  The mass is read
    from the caps of the delta = 1 program, and that program is solved for the
    check.
    """
    prog = _rectangle_program(model, 1.0)
    value = float(np.minimum(prog.caps, 1.0 / model.p).sum()) / 3.0
    optimum = _rectangle_bound(model, 1.0, substochastic_max(prog)).value
    if value > optimum + 1e-12:
        raise CheckFailed(f"canonical value {value} exceeds the optimum {optimum}")
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
