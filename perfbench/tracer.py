"""Spans around calls into each polyspec module, recorded from outside.

The tracer rebinds the names each module looks up at call time (for
example ``walk.integrate_adaptive`` or ``specfun.jd``) with wrappers that
record one span per call: name, parent span, start, end and a few work
counts read from the arguments and the return value.  Nothing inside the
program changes.  Spans stay in memory until the rep ends; ``summary``
turns them into the per-layer metrics and ``dump`` writes them out.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np

from polyspec import cli, fieldsim, geometry, quadrature, specfun, variance, walk


def _size(x) -> int:
    return int(np.size(x))


def _arg(args, kwargs, i, key, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(key, default)


def _quad(args, kwargs, out):
    return {"evals": int(out.n_evals), "nonconverged": int(not out.converged),
            "divergent": int(out.status == "divergent")}


def _points(i, key):
    return lambda args, kwargs, out: {"points": _size(_arg(args, kwargs, i, key))}


def _idq_name(args, kwargs):
    route = walk.IdqRoute(_arg(args, kwargs, 2, "route", walk.IdqRoute.DIRECT_INTEGRAL))
    return {walk.IdqRoute.DIRECT_INTEGRAL: "walk.idq.direct",
            walk.IdqRoute.RECURSION_ENDPOINT: "walk.idq.recursion"}.get(route, "walk.idq.closed")


def _mc_variance(args, kwargs, out):
    n = len(_arg(args, kwargs, 2, "domain").points)
    trials = int(_arg(args, kwargs, 3, "trials"))
    # computed, not counted: one (n x n) @ (n x trials) product per draw batch
    return {"trials": trials, "draw_flops": 2.0 * n * n * trials}


# (module, attribute, span name, attrs from (args, kwargs, result))
_TARGETS = [
    (specfun, "jd", "specfun.jd", _points(1, "r")),
    (specfun, "gegenbauer", "specfun.gegenbauer", _points(1, "t")),
    (specfun, "hermite", "specfun.hermite", _points(1, "t")),
    (walk, "integrate_adaptive", "quadrature.integrate_adaptive", _quad),
    (geometry, "integrate_adaptive", "quadrature.integrate_adaptive", _quad),
    (variance, "integrate_adaptive", "quadrature.integrate_adaptive", _quad),
    (fieldsim, "integrate_adaptive", "quadrature.integrate_adaptive", _quad),
    (walk, "integrate_oscillatory_mollified",
     "quadrature.integrate_oscillatory_mollified", _quad),
    (walk, "integrate_oscillatory_tail", "quadrature.integrate_oscillatory_tail", _quad),
    # walk imports it inside density_recursion, fieldsim at module import
    (quadrature, "gauss_jacobi_symmetric", "quadrature.gauss_jacobi_symmetric", None),
    (fieldsim, "gauss_jacobi_symmetric", "quadrature.gauss_jacobi_symmetric", None),
    (walk, "_PsiTable", "walk.psi_table", None),
    (walk, "PchipInterpolator", "walk.pchip", _points(0, "x")),
    (walk, "rho2_closed", "walk.rho2_closed", _points(1, "r")),
    (walk, "idq", _idq_name, None),
    (walk, "density_recursion", "walk.density_recursion", None),
    (walk, "density_kluyver", "walk.density_kluyver", _quad),
    (walk, "sample_walk", "walk.sample_walk",
     lambda a, k, out: {"draws": int(_arg(a, k, 1, "n_samples"))}),
    (variance, "make_weight", "geometry.make_weight", None),
    (geometry, "weight_spherical", "geometry.weight_spherical", _points(2, "r")),
    (geometry, "PchipInterpolator", "geometry.pchip", _points(0, "x")),
    (variance, "variance_exact_euclidean", "variance.exact_euclidean", None),
    (variance, "variance_exact_spherical", "variance.exact_spherical", None),
    (variance, "variance_asymptotic", "variance.asymptotic", None),
    (fieldsim, "mc_polyspectrum_variance", "fieldsim.mc_polyspectrum_variance",
     _mc_variance),
    (fieldsim, "build_domain", "fieldsim.build_domain",
     lambda a, k, out: {"points": len(out.points)}),
    (fieldsim, "mc_walk_density_check", "fieldsim.mc_walk_density_check", None),
    (cli, "main", "cli.main", None),
]


class Tracer:
    """Records spans while installed; ``uninstall`` restores every name."""

    def __init__(self) -> None:
        # span: [name, parent index, start, end, attrs, failed]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, attrs, pre_attrs=None):
        """``attrs`` reads the result; ``pre_attrs`` only the arguments, so
        it also holds for calls that raise."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            span = [label, stack[-1] if stack else -1, 0.0, 0.0,
                    pre_attrs(args) if pre_attrs else None, False]
            spans.append(span)
            stack.append(idx)
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_cholesky(self, fn):
        traced = self._wrap(fn, "fieldsim.cholesky", None,
                            lambda a: {"n3": float(np.shape(a[0])[0]) ** 3})

        def cholesky(*args, **kwargs):
            # only the factorizations fieldsim asks for
            if sys._getframe(1).f_globals.get("__name__") == fieldsim.__name__:
                return traced(*args, **kwargs)
            return fn(*args, **kwargs)

        return cholesky

    def install(self) -> "Tracer":
        for module, attr, name, attrs in _TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, attrs))
        chol = np.linalg.cholesky
        self._saved.append((np.linalg, "cholesky", chol))
        np.linalg.cholesky = self._wrap_cholesky(chol)
        return self

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def summary(self) -> dict:
        """Per-name calls, busy time, self time and summed attributes."""
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        totals: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        failed: dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        nested = [False] * len(self.spans)
        for i, (name, parent, t0, t1, attrs, bad) in enumerate(self.spans):
            dur = t1 - t0
            if parent >= 0:
                child_time[parent] += dur
            # busy time is the union of a name's spans: skip spans nested
            # inside another span of the same name
            p = parent
            while p >= 0:
                if self.spans[p][0] == name:
                    nested[i] = True
                    break
                p = self.spans[p][1]
        for i, (name, parent, t0, t1, attrs, bad) in enumerate(self.spans):
            dur = t1 - t0
            calls[name] += 1
            failed[name] += int(bad)
            self_s[name] += dur - child_time[i]
            if not nested[i]:
                busy[name] += dur
            for key, val in (attrs or {}).items():
                totals[name][key] += val
        # cap-weight tables: make_weight calls that built an interpolant
        table_s, table_builds = 0.0, 0
        for span in self.spans:
            if span[0] == "geometry.pchip":
                p = span[1]
                while p >= 0 and self.spans[p][0] != "geometry.make_weight":
                    p = self.spans[p][1]
                if p >= 0:
                    table_s += self.spans[p][3] - self.spans[p][2]
                    table_builds += 1
        return {
            "calls": dict(calls), "busy_s": dict(busy), "self_s": dict(self_s),
            "failed": dict(failed), "totals": {k: dict(v) for k, v in totals.items()},
            "weight_table": {"builds": table_builds, "s": table_s},
        }

    def dump(self, path: str) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, parent, t0, t1, attrs, bad) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "attrs": attrs,
                                     "failed": bad}) + "\n")


# Per-layer metrics of the traced run: (metric, unit, how to read it).
def _calls(name):
    return lambda s: s["calls"].get(name, 0)


def _busy(name):
    return lambda s: s["busy_s"].get(name, 0.0)


def _total(name, key):
    return lambda s: s["totals"].get(name, {}).get(key, 0)


def _standard(name, work=()):
    """calls, busy seconds and the named work counts of one span name."""
    rows = [(f"{name}.calls", "count", _calls(name)), (f"{name}.s", "s", _busy(name))]
    rows += [(f"{name}.{key}", "count", _total(name, key)) for key in work]
    return rows


def _evals_per_call(s):
    calls = s["calls"].get("quadrature.integrate_adaptive", 0)
    return _total("quadrature.integrate_adaptive", "evals")(s) / calls if calls else 0.0


LAYER_METRICS = (
    _standard("specfun.jd", ["points"])
    + _standard("specfun.gegenbauer", ["points"])
    + _standard("specfun.hermite", ["points"])
    + _standard("quadrature.integrate_adaptive",
                ["evals", "nonconverged"])
    + [("quadrature.integrate_adaptive.evals_per_call", "evals/call", _evals_per_call),
       ("quadrature.integrate_adaptive.self_s", "s",
        lambda s: s["self_s"].get("quadrature.integrate_adaptive", 0.0))]
    + _standard("quadrature.integrate_oscillatory_mollified", ["evals", "nonconverged"])
    + _standard("quadrature.integrate_oscillatory_tail", ["evals", "nonconverged"])
    + _standard("quadrature.gauss_jacobi_symmetric")
    + [("walk.psi_table.builds", "count", _calls("walk.psi_table")),
       ("walk.psi_table.points", "count", _total("walk.pchip", "points")),
       ("walk.psi_table.s", "s", _busy("walk.psi_table"))]
    + _standard("walk.rho2_closed", ["points"])
    + _standard("walk.idq.direct")
    + _standard("walk.idq.recursion")
    + _standard("walk.density_recursion")
    + _standard("walk.density_kluyver", ["evals", "nonconverged"])
    + _standard("walk.sample_walk", ["draws"])
    + _standard("geometry.make_weight")
    + _standard("geometry.weight_spherical", ["points"])
    + [("geometry.weight_table.builds", "count", lambda s: s["weight_table"]["builds"]),
       ("geometry.weight_table.points", "count", _total("geometry.pchip", "points")),
       ("geometry.weight_table.s", "s", lambda s: s["weight_table"]["s"])]
    + _standard("variance.exact_euclidean")
    + _standard("variance.exact_spherical")
    + _standard("variance.asymptotic")
    + _standard("fieldsim.mc_polyspectrum_variance",
                ["trials"])
    + _standard("fieldsim.build_domain", ["points"])
    + [("fieldsim.cholesky.attempts", "count", _calls("fieldsim.cholesky")),
       ("fieldsim.cholesky.failed", "count",
        lambda s: s["failed"].get("fieldsim.cholesky", 0)),
       ("fieldsim.cholesky.s", "s", _busy("fieldsim.cholesky")),
       # computed from the matrix order, N^3/3 per attempt, not counted
       ("fieldsim.cholesky.flops", "flop_computed",
        lambda s: _total("fieldsim.cholesky", "n3")(s) / 3.0),
       ("fieldsim.draw.flops", "flop_computed",
        _total("fieldsim.mc_polyspectrum_variance", "draw_flops"))]
    + _standard("fieldsim.mc_walk_density_check")
    + _standard("cli.main")
    + [("cli.self_s", "s", lambda s: s["self_s"].get("cli.main", 0.0))]
)


def layer_metrics(summary: dict) -> dict[str, dict]:
    return {name: {"value": float(read(summary)), "unit": unit}
            for name, unit, read in LAYER_METRICS}
