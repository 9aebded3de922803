"""Span recording around the calls into each acmoment layer.

Used only in the traced pass.  `install` replaces, for the duration of
the worker process, the module attributes through which callers reach a
layer's public functions (for example ``acmoment.formfactor.
integrate_triangle``, the name ``susy_form_factor`` looks up), and the
construction hooks of the parameter and geometry classes.  Each call
becomes one span: name, layer, start, end, parent span, request id, a
work count taken from the arguments or the result, and the exception
type if it raised.  Spans stay in memory until the worker writes them
out; `derive` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
from contextlib import contextmanager
from time import perf_counter

# Span fields, in order.
NAME, LAYER, START, END, PARENT, REQUEST, COUNT, ERROR = range(8)

POINTS_PER_CELL = 225  # 15 x 15 Gauss-Kronrod nodes per triangle cell


class Recorder:
    """In-memory span list with the stack of currently open spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._request = -1

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, 0.0, 0.0, parent, self._request, 0, None])
        self._stack.append(len(self.spans) - 1)
        span = self.spans[-1]
        span[START] = perf_counter()
        return span

    def _close(self, span):
        span[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def request(self, rid):
        """Root span of one benchmark request."""
        self._request = rid
        span = self._open("bench.request", "bench")
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, fn, name, layer, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                self._close(span)
                if count is not None:
                    span[COUNT] = count(args, kwargs, result)
        return traced


def _evaluations(args, kwargs, result):
    return 0 if result is None else int(result.evaluations)


def _points(args, kwargs, result):
    return int(getattr(args[0], "size", 1))


def _samples(args, kwargs, result):
    return int(args[1] if len(args) > 1 else kwargs["samples"])


def _efield(args, kwargs, result):
    config, point = args[0], args[1]
    n = point.shape[0] if getattr(point, "ndim", 1) == 2 else 1
    return [n, n * len(config.charges)]


def _ring(args, kwargs, result):
    path, config = args[0], args[1]
    seg = len(path.vertices)
    return [seg, seg * len(config.charges)]


def _fringe(args, kwargs, result):
    a, b, config = args[0], args[1], args[2]
    seg = len(a.vertices) - 1 + len(b.vertices) - 1
    return [seg, seg * len(config.charges)]


# (module, attribute, span name, layer, count).  Each entry is the name a
# caller looks up at call time, so every call passes exactly one wrapper.
FUNCTIONS = [
    ("acmoment.cli", "main", "cli.main", "cli", None),
    ("acmoment.cli", "susy_form_factor", "formfactor.solve", "formfactor", _evaluations),
    ("acmoment.cli", "yukawa_form_factor", "formfactor.solve", "formfactor", _evaluations),
    ("acmoment.cli", "ir_scan", "formfactor.scan", "formfactor", None),
    ("acmoment.cli", "cs_mass_scan", "formfactor.scan", "formfactor", None),
    ("acmoment.cli", "susy_integrand", "formfactor.integrand", "formfactor", _points),
    ("acmoment.cli", "mc_integrate_triangle", "quadrature.mc", "quadrature", _samples),
    ("acmoment.cli", "ac_phase", "phase.line", "phase", _ring),
    ("acmoment.cli", "fringe_shift", "phase.line", "phase", _fringe),
    ("acmoment.formfactor", "susy_form_factor", "formfactor.solve", "formfactor", _evaluations),
    ("acmoment.formfactor", "yukawa_form_factor", "formfactor.solve", "formfactor", _evaluations),
    ("acmoment.formfactor", "susy_integrand", "formfactor.integrand", "formfactor", _points),
    ("acmoment.formfactor", "yukawa_integrand", "formfactor.integrand", "formfactor", _points),
    ("acmoment.formfactor", "integrate_triangle", "quadrature.cubature", "quadrature", _evaluations),
    ("acmoment.quadrature", "mc_integrate_triangle", "quadrature.mc", "quadrature", _samples),
    ("acmoment.phase", "ac_phase", "phase.line", "phase", _ring),
    ("acmoment.phase", "fringe_shift", "phase.line", "phase", _fringe),
    ("acmoment.phase", "winding_number", "phase.winding", "phase", None),
    ("acmoment.phase", "efield", "field.efield", "field", _efield),
]

# (module, class, method, span name, layer): construction-time checks.
METHODS = [
    ("acmoment.formfactor", "SusyParams", "__post_init__", "formfactor.params", "formfactor"),
    ("acmoment.formfactor", "YukawaParams", "__post_init__", "formfactor.params", "formfactor"),
    ("acmoment.field", "LineCharge", "__post_init__", "field.build", "field"),
    ("acmoment.field", "FieldConfig", "__init__", "field.build", "field"),
    ("acmoment.phase", "PolylinePath", "__post_init__", "phase.build", "phase"),
]


def install(rec):
    """Wrap every traced attribute for the rest of this process."""
    for module, attr, name, layer, count in FUNCTIONS:
        mod = importlib.import_module(module)
        setattr(mod, attr, rec.wrap(getattr(mod, attr), name, layer, count))
    for module, cls_name, attr, name, layer in METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        setattr(cls, attr, rec.wrap(getattr(cls, attr), name, layer))


def _ratio(a, b):
    return a / b if b else 0.0


def derive(spans):
    """Per-layer metrics from a finished span list (times in ms/us/ns)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    by = {}
    for i, s in enumerate(spans):
        by.setdefault(s[NAME], []).append((s[END] - s[START], s[END] - s[START] - child[i], s))

    def n(name):
        return len(by.get(name, ()))

    def dur(*names):
        return math.fsum(d for nm in names for d, _, _ in by.get(nm, ()))

    def self_(*names):
        return math.fsum(x for nm in names for _, x, _ in by.get(nm, ()))

    def count(name, k=None):
        return sum((s[COUNT] if k is None else s[COUNT][k]) for _, _, s in by.get(name, ()))

    def layer_self(layer):
        return math.fsum(x for group in by.values() for _, x, s in group if s[LAYER] == layer)

    request_s = dur("bench.request")
    cells = [s[COUNT] // POINTS_PER_CELL for _, _, s in by.get("quadrature.cubature", ())]
    n_cells = sum(cells)
    points = count("formfactor.integrand")
    mc_samples = count("quadrature.mc")
    field_points = count("field.efield", 0)
    field_pairs = count("field.efield", 1)
    segments = count("phase.line", 0)
    seg_pairs = count("phase.line", 1)
    params = [s for _, _, s in by.get("formfactor.params", ())]

    m = {
        "cli.main_ms": 1e3 * dur("cli.main"),
        "cli.self_ms": 1e3 * self_("cli.main"),
        "formfactor.params_calls": len(params),
        "formfactor.params_rejected": sum(s[ERROR] == "DomainError" for s in params),
        "formfactor.params_us": 1e6 * _ratio(dur("formfactor.params"), len(params)),
        "formfactor.params_share": 100.0 * _ratio(dur("formfactor.params"), request_s),
        "formfactor.solve_calls": n("formfactor.solve"),
        "formfactor.solve_self_ms": 1e3 * self_("formfactor.solve", "formfactor.scan"),
        "formfactor.integrand_calls": n("formfactor.integrand"),
        "formfactor.integrand_points": points,
        "formfactor.integrand_points_per_call": _ratio(points, n("formfactor.integrand")),
        "formfactor.integrand_ns_per_point": 1e9 * _ratio(self_("formfactor.integrand"), points),
        "formfactor.self_ms": 1e3 * layer_self("formfactor"),
        "quadrature.solves": len(cells),
        "quadrature.evaluations": count("quadrature.cubature"),
        "quadrature.cells": n_cells,
        "quadrature.cells_per_solve_p50": statistics.median(cells) if cells else 0.0,
        "quadrature.cells_per_solve_max": max(cells, default=0),
        "quadrature.self_us_per_cell": 1e6 * _ratio(self_("quadrature.cubature"), n_cells),
        "quadrature.mc_calls": n("quadrature.mc"),
        "quadrature.mc_samples": mc_samples,
        "quadrature.mc_self_ms": 1e3 * self_("quadrature.mc"),
        "quadrature.mc_ns_per_sample": 1e9 * _ratio(self_("quadrature.mc"), mc_samples),
        "quadrature.self_ms": 1e3 * layer_self("quadrature"),
        "field.efield_calls": n("field.efield"),
        "field.points": field_points,
        "field.point_charge_pairs": field_pairs,
        "field.ns_per_pair": 1e9 * _ratio(self_("field.efield"), field_pairs),
        "field.self_ms": 1e3 * layer_self("field"),
        "phase.calls": n("phase.line"),
        "phase.segments": segments,
        "phase.segment_charge_pairs": seg_pairs,
        "phase.field_points_per_segment": _ratio(field_points, segments),
        "phase.line_self_ms": 1e3 * self_("phase.line"),
        "phase.winding_calls": n("phase.winding"),
        "phase.winding_ms": 1e3 * dur("phase.winding"),
        "phase.self_ms": 1e3 * layer_self("phase"),
        "trace.requests": n("bench.request"),
        "trace.request_ms": 1e3 * request_s,
        "trace.unattributed_ms": 1e3 * self_("bench.request"),
        "trace.unattributed_pct": 100.0 * _ratio(self_("bench.request"), request_s),
    }
    # Self times partition the request spans; anything else means a span
    # escaped its parent.
    total_self = m["trace.unattributed_ms"] + sum(
        m[f"{layer}.self_ms"] for layer in ("cli", "formfactor", "quadrature", "field", "phase"))
    if not math.isclose(total_self, m["trace.request_ms"], rel_tol=1e-9, abs_tol=1e-6):
        raise RuntimeError(f"layer self times {total_self} ms do not add up to "
                           f"request spans {m['trace.request_ms']} ms")
    return m
