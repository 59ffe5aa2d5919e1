"""Spans around the library's public functions, installed from outside.

The library's modules import each other's names directly (``risksim`` and
``fisher`` hold their own binding of ``linalg.sym_eig``), so a wrapper is
installed in every ``subspace_bounds`` namespace whose binding is the
original function object, and every binding is put back on removal.  Spans
are kept in memory; self times and counts are derived after the run.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "subspace_bounds"

# The layers and the functions wrapped in each.  ``RngStream.generator`` is a
# method; it is wrapped on its class.
LAYERS = {
    "linalg": ("sym_eig", "skew_exp"),
    "models": ("haar_orthogonal", "sample_cov", "sample_denoise", "RngStream.generator"),
    "equivariance": ("weighted_loss", "excess_risk", "projector_leq_d", "dP_dir", "dv_dir"),
    "fisher": ("verify_fisher_limit", "chi2_gauss_cov", "chi2_gauss_meanshift"),
    "bounds": (
        "substochastic_max",
        "lp_oracle",
        "hs_lower_bound",
        "denoise_lower_bound",
        "excess_lower_bound",
        "optimize_delta",
    ),
    "risksim": ("bayes_risk", "pca_estimator", "denoise_estimator"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Counts derived from spans and results, beside the per-function ones.
DERIVED_METRICS = (
    ("models.draws_useful_ratio", "ratio", "higher"),
    ("bounds.substochastic_max.edges", "count", "lower"),
    ("bounds.solves_per_search", "count", "lower"),
    ("risksim.resampled", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def per_layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run prints, in order."""
    specs = []
    for name in SPAN_NAMES:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
    return specs + list(DERIVED_METRICS)


def _package_modules(package: str) -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


class Span:
    """One call of a wrapped function: [start, end) and the span that caused it."""

    __slots__ = ("name", "parent", "start", "end", "edges", "search")

    def __init__(self, name: str, parent: int, start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.edges = 0
        self.search = False


def _program_edges(prog) -> int:
    """Arcs of the flow graph ``substochastic_max`` builds for ``prog``."""
    live = (prog.caps > 0) & (prog.row_caps[:, None] > 0) & (prog.col_caps[None, :] > 0)
    return int(live.sum()) + prog.caps.shape[0] + prog.caps.shape[1]


def _is_search(name: str, args, kwargs) -> bool:
    """optimize_delta, and excess_lower_bound with mu="auto", search a parameter."""
    if name == "bounds.optimize_delta":
        return True
    mu = args[1] if len(args) > 1 else kwargs.get("mu", "auto")
    return isinstance(mu, str)


class Tracer:
    """Installs span-recording wrappers; ``remove`` restores every binding."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        count_edges = name == "bounds.substochastic_max"
        may_search = name in ("bounds.optimize_delta", "bounds.excess_lower_bound")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, 0.0)
            if count_edges:
                span.edges = _program_edges(args[0] if args else kwargs["prog"])
            if may_search:
                span.search = _is_search(name, args, kwargs)
            sid = len(spans)
            spans.append(span)
            stack.append(sid)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _package_modules(PACKAGE)
        by_name = {mod.__name__: mod for mod in modules}
        for name in SPAN_NAMES:
            layer, _, fn_name = name.partition(".")
            home = by_name[f"{PACKAGE}.{layer}"]
            if "." in fn_name:
                cls_name, meth = fn_name.split(".")
                cls = getattr(home, cls_name)
                self._replace(cls, meth, cls.__dict__[meth], name)
                continue
            original = getattr(home, fn_name)
            for mod in modules:
                if mod.__dict__.get(fn_name) is original:
                    self._replace(mod, fn_name, original, name)

    def _replace(self, owner, attr: str, original, span_name: str) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(span_name, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for sid, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def layer_metrics(spans, ops: int) -> dict[str, float]:
    """Per-function calls and self seconds, both per workload op.

    Also ``bounds.substochastic_max.edges`` (program arcs summed, per op)
    and ``bounds.solves_per_search`` (flow solves under each search span,
    averaged over searches; 0 when the run made no search).
    """
    ops = max(ops, 1)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    selfs = dict.fromkeys(SPAN_NAMES, 0.0)
    edges = 0
    for span, own in zip(spans, self_times(spans)):
        calls[span.name] += 1
        selfs[span.name] += own
        edges += span.edges
    searches = [sid for sid, span in enumerate(spans) if span.search]
    solves = 0
    if searches:
        in_search = set(searches)
        for span in spans:
            if span.name != "bounds.substochastic_max":
                continue
            parent = span.parent
            while parent >= 0 and parent not in in_search:
                parent = spans[parent].parent
            solves += parent >= 0
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / ops
        out[f"{name}.self_s"] = selfs[name] / ops
    out["bounds.substochastic_max.edges"] = edges / ops
    out["bounds.solves_per_search"] = solves / len(searches) if searches else 0.0
    return out


def span_records(spans):
    """Spans as JSON-ready rows: [name, parent, start, end]."""
    return [[s.name, s.parent, s.start, s.end] for s in spans]
