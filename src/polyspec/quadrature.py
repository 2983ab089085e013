"""Generic 1-D integration engines.

Three pieces: an adaptive finite-interval integrator built on the embedded
open Gauss-Kronrod pair K15/G7 (15 evaluations per panel give the K15 value
and the |K15 - G7| error estimate; no endpoint evaluations, so integrable
inverse-square-root endpoints need no special handling), the closed-form
tail int_T^oo t^(-s) e^(i omega t) dt of one harmonic (power_exp_tail),
and Gauss-Jacobi rules for the symmetric weight (1-s^2)^(nu-1/2).  An
improper oscillatory integral is the adaptive integrator's head on [0, T]
plus closed-form tails past T (walk.density_kluyver).  The adaptive
integrator rejects a tolerance that is not positive and finite.

The adaptive integrator is batched: integrate_adaptive_batch takes a family
of K integrals (an integrand f(x, k), per-integral limits, tolerances and
split points) and refines all of them in the same array operations, calling
f once per chunk of panels with their Kronrod nodes.  Split points are the
only input to the first pass: it takes one panel per piece between an
integral's limits and its split points, and a first pass that alone needs
more than max_evals evaluations is refused before f runs (period_splits
gives an oscillatory integrand one per period).  Each step, an integral
bisects every panel whose error is at least half its mean panel error.
Each integral keeps its own refinement, budget and convergence flag, bit
for bit those of a call on it alone; integrate_adaptive is the K = 1
case.  check_converged turns an unconverged result beyond 100 tol into
NonConvergedError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import digamma, gamma, roots_jacobi

__all__ = [
    "QuadResult",
    "QuadBatch",
    "NonConvergedError",
    "integrate_adaptive",
    "integrate_adaptive_batch",
    "period_splits",
    "check_converged",
    "power_exp_tail",
    "gauss_jacobi_symmetric",
]

# the adaptive engine's embedded pair on [-1, 1]: the 15-point Kronrod
# extension of the 7-point Gauss-Legendre rule, in QUADPACK's qk15 layout
# and digits (Piessens et al., QUADPACK, 1983): nodes x >= 0 from the
# outermost in, their K15 weights, and the G7 weights of xgk[1::2].  K15 is
# exact through degree 23; mirrored, its odd-indexed nodes are the G7
# nodes, so one evaluation of the 15 nodes gives both sums.
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])
_XK15 = np.concatenate([-_XGK, _XGK[-2::-1]])
_WK15 = np.concatenate([_WGK, _WGK[-2::-1]])
_G7 = slice(1, None, 2)  # the G7 nodes within _XK15
_WG7 = np.concatenate([_WG, _WG[-2::-1]])
_EDGE_GAP = 1.0 - _XGK[0]  # outermost nodes' distance from the edges, in half-widths

# working-set bound of the batched adaptive engine: each integrand call sees
# at most _CHUNK_PANELS panels; it changes no result
_CHUNK_PANELS = 1024

_GAUSS_JACOBI_NODE_BUDGET = 4096
_EPS = float(np.finfo(float).eps)
_MAX_EVALS = 2_000_000  # the engine's default budget

# generalized exponential integral: its power series below this |z|, its
# continued fraction from there on (both within 1e-14 of 30-digit mpmath on
# the imaginary axis next to the seam), the series' term count (the last
# term is below 1e-23 of the first at |z| = 2) and the fraction's step budget
_EXPINT_SEAM = 2.0
_EXPINT_SERIES_TERMS = 32
_EXPINT_MAX_STEPS = 500


class NonConvergedError(ArithmeticError):
    """An integration routine exhausted its budget without converging."""


@dataclass
class QuadResult:
    value: float
    abs_error_estimate: float
    n_evals: int
    converged: bool
    status: str = "converged"  # "converged" | "non_converged" | "divergent"

    def __post_init__(self) -> None:
        if not self.converged and self.status == "converged":
            self.status = "non_converged"


@dataclass
class QuadBatch:
    """Results of a family of integrals: one array entry per integral."""

    value: np.ndarray
    abs_error_estimate: np.ndarray
    n_evals: np.ndarray
    converged: np.ndarray

    def __len__(self) -> int:
        return len(self.value)

    def __getitem__(self, k: int) -> QuadResult:
        return QuadResult(float(self.value[k]), float(self.abs_error_estimate[k]),
                          int(self.n_evals[k]), bool(self.converged[k]))


def check_converged(res, tol, what: str = "quadrature") -> None:
    """Raise NonConvergedError when an integral stopped unconverged with an
    error estimate above 100 tol.

    res is a QuadResult or a QuadBatch; tol is a scalar or one per integral.
    Unconverged integrals within 100 tol (panels frozen at rounding width
    next to an integrable singularity) pass.
    """
    err = np.asarray(res.abs_error_estimate, dtype=float)
    bad = ~np.asarray(res.converged) & (err > 100.0 * np.asarray(tol, dtype=float))
    if np.any(bad):
        raise NonConvergedError(
            f"{what} exhausted its budget"
            f" (error estimate {float(np.max(err[bad])):.2e})"
        )


def _weighted_sum(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j w[j] rows[j], term by term in a fixed order: each column's sum
    then depends on that column alone, never on how many columns there are
    (a BLAS product may order the terms by array shape)."""
    acc = rows[0] * w[0]
    for j in range(1, len(w)):
        acc += rows[j] * w[j]
    return acc


def _panel_pair(f, lefts, rights, owner, narrow_width):
    """K15 estimate and |K15 - G7| per panel.

    f gets the 15 Kronrod nodes, with the integral index of each node, in
    one call per chunk of at most _CHUNK_PANELS panels.  A non-finite
    estimate raises, unless its panel is frozen (an integrable singularity
    within rounding of its edge can meet the outermost node there) and its
    G7 value is finite; such a panel counts its G7 value, with all of it as
    its error.
    """
    fine = np.empty(len(lefts))
    coarse = np.empty(len(lefts))
    for s in range(0, len(lefts), _CHUNK_PANELS):
        sl = slice(s, s + _CHUNK_PANELS)
        mid = 0.5 * (lefts[sl] + rights[sl])
        half = 0.5 * (rights[sl] - lefts[sl])
        nodes = mid + half * _XK15[:, None]
        # the outermost pair from its own edge: through the rounded midpoint
        # it could round onto the edge (the next pair lies six times farther in)
        nodes[0] = lefts[sl] + half * _EDGE_GAP
        nodes[-1] = rights[sl] - half * _EDGE_GAP
        vals = np.asarray(f(nodes.ravel(), np.tile(owner[sl], len(_XK15))), dtype=float)
        vals = vals.reshape(nodes.shape)
        fine[sl] = half * _weighted_sum(vals, _WK15)
        coarse[sl] = half * _weighted_sum(vals[_G7], _WG7)
    with np.errstate(invalid="ignore"):
        errs = np.abs(fine - coarse)
    bad = ~np.isfinite(fine)  # every G7 node is a K15 node
    if bad.any():
        narrow = (rights - lefts) <= narrow_width
        if np.any(bad & ~(narrow & np.isfinite(coarse))):
            raise ValueError("integrand returned non-finite values on a panel")
        fine = np.where(bad, coarse, fine)
        errs = np.where(bad, np.abs(coarse), errs)
    return fine, errs


def _initial_panels(a, b, splits):
    """Each integral's interval cut at its interior split points, one panel
    per piece.  Returns (lefts, rights, owner), grouped by owner in
    increasing x."""
    m = len(a)
    rows = np.repeat(np.arange(m), splits.shape[1])
    pts = splits.ravel()
    inside = (pts > a[rows]) & (pts < b[rows])  # NaN padding drops out here
    owner = np.concatenate([np.arange(m), rows[inside], np.arange(m)])
    pts = np.concatenate([a, pts[inside], b])
    order = np.lexsort((pts, owner))
    owner, pts = owner[order], pts[order]
    fresh = np.ones(len(pts), dtype=bool)
    fresh[1:] = (owner[1:] != owner[:-1]) | (pts[1:] != pts[:-1])
    owner, pts = owner[fresh], pts[fresh]
    piece = owner[:-1] == owner[1:]
    return pts[:-1][piece], pts[1:][piece], owner[:-1][piece]


def _refine(f, a, b, tol, splits, max_evals: int):
    """Refine a family of integrals together; returns (value, error,
    n_evals, converged), one entry per integral.

    Every step, each integral still open bisects every candidate panel whose
    error is at least half its mean candidate error (near its budget only
    the largest of them that fit).  Panels stay in creation order: kept
    panels, then new left halves, then new right halves.  Every
    per-integral sum is a sequential bincount in that order, so each result
    is bit for bit independent of its neighbours.
    """
    m = len(a)
    value, error, converged = np.empty(m), np.empty(m), np.zeros(m, dtype=bool)
    # frozen panel width: bisection stops at or below it, so every panel is
    # wider than narrow / 2 and its outermost Kronrod node lies more than
    # 1.28e-16 (|a| + |b| + 1) > 2^-53 |edge| inside it: no node rounds onto
    # an edge.  It is as small as that allows, since |K15 - G7| at an
    # inverse-square-root endpoint falls only as the square root of the width.
    narrow = 6e-14 * (np.abs(a) + np.abs(b) + 1.0)
    lefts, rights, owner = _initial_panels(a, b, splits)
    per_panel = len(_XK15)  # evaluations of one panel; a bisection costs two
    spent = per_panel * np.bincount(owner, minlength=m)
    if np.any(spent > max_evals):  # the first pass alone, refused before f runs
        raise ValueError(f"{np.max(spent) // per_panel} initial panels need more than"
                         f" max_evals = {max_evals} evaluations")
    vals, errs = _panel_pair(f, lefts, rights, owner, narrow[owner])
    live = np.ones(m, dtype=bool)
    while True:
        total = np.bincount(owner, vals, minlength=m)
        total_err = np.bincount(owner, errs, minlength=m)
        # panels at rounding width are frozen: their residual is irreducible
        cand = (rights - lefts > narrow[owner]) & (errs > 0)
        n_cand = np.bincount(owner[cand], minlength=m)
        ok = total_err <= tol
        # so is an error at the rounding level of the sum, eps sum |panels|:
        # a tol below it stops there, unconverged, not at the budget
        rounded = total_err <= _EPS * np.bincount(owner, np.abs(vals), minlength=m)
        done = live & (ok | rounded | (spent >= max_evals) | (n_cand == 0))
        value[done], error[done], converged[done] = total[done], total_err[done], ok[done]
        live &= ~done
        if not live.any():
            return value, error, spent, converged
        # half the mean: the largest candidate is never below the mean, so at
        # least one panel splits even where rounding lifts the mean of equal
        # errors above every one of them
        mean = np.bincount(owner[cand], errs[cand], minlength=m) / np.maximum(n_cand, 1)
        split = cand & (errs >= 0.5 * mean[owner]) & live[owner]
        n_split = np.bincount(owner[split], minlength=m)
        cap = np.maximum(1, (max_evals - spent) // (2 * per_panel))
        capped = split & (n_split > cap)[owner]
        if capped.any():  # near the budget: only the cap largest, by error
            idx = np.flatnonzero(capped)
            idx = idx[np.lexsort((-errs[idx], owner[idx]))]
            n_over = np.bincount(owner[idx], minlength=m)
            rank = np.arange(len(idx)) - (np.cumsum(n_over) - n_over)[owner[idx]]
            split[idx[rank >= cap[owner[idx]]]] = False
            n_split = np.minimum(n_split, cap)
        spent += 2 * per_panel * n_split
        keep = live[owner] & ~split
        idx = np.flatnonzero(split)
        mids = 0.5 * (lefts[idx] + rights[idx])
        new_l = np.concatenate([lefts[idx], mids])
        new_r = np.concatenate([mids, rights[idx]])
        new_o = np.concatenate([owner[idx], owner[idx]])
        sub_v, sub_e = _panel_pair(f, new_l, new_r, new_o, narrow[new_o])
        lefts = np.concatenate([lefts[keep], new_l])
        rights = np.concatenate([rights[keep], new_r])
        owner = np.concatenate([owner[keep], new_o])
        vals = np.concatenate([vals[keep], sub_v])
        errs = np.concatenate([errs[keep], sub_e])


def _check_tol(tol) -> None:
    """Raise ValueError unless every tolerance is positive and finite."""
    tol = np.asarray(tol, dtype=float)
    if not np.all(np.isfinite(tol) & (tol > 0)):
        raise ValueError(f"tol must be positive and finite, got {tol}")


def integrate_adaptive_batch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a,
    b,
    tol=1e-10,
    *,
    split_points=None,
    max_evals: int = _MAX_EVALS,
) -> QuadBatch:
    """Adaptive integration of a family of K integrals over finite intervals.

    f(x, k) gets flat arrays of nodes x and of the index k of the integral
    each node belongs to.  a, b and tol broadcast to one value per integral;
    split_points is a (K, S) array of interior points per integral (known
    kinks, or edges of panels the caller wants), rows padded with NaN
    (points outside (a_k, b_k) are ignored); the first pass takes one panel
    per piece between them.  Each integral is refined exactly as it would
    be alone, with its own budget of max_evals evaluations, so its value,
    n_evals and converged flag do not depend on the rest of the family or
    on its position in it.  A first pass whose pieces need more than
    max_evals evaluations raises ValueError before f runs.
    """
    splits = np.zeros((1, 0)) if split_points is None else np.asarray(split_points, dtype=float)
    if splits.ndim != 2:
        raise ValueError("split_points must be a (K, S) array")
    shape = np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(tol), splits.shape[:1])
    if len(shape) != 1:
        raise ValueError("a, b and tol must be scalars or 1-D")
    a = np.broadcast_to(np.asarray(a, dtype=float), shape)
    b = np.broadcast_to(np.asarray(b, dtype=float), shape)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), shape)
    splits = np.broadcast_to(splits, (shape[0], splits.shape[1]))
    if not np.all(np.isfinite(a) & np.isfinite(b) & (a < b)):
        raise ValueError("need finite a < b")
    _check_tol(tol)
    return QuadBatch(*_refine(f, a, b, tol, splits, max_evals))


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-10,
    *,
    max_evals: int = _MAX_EVALS,
    split_points=(),
) -> QuadResult:
    """Adaptive integration of f over the finite interval [a, b].

    f must accept a 1-D numpy array.  Bisection refinement of the panels
    whose embedded-pair discrepancy |K15 - G7| is at least half its mean;
    endpoints are never evaluated.  The first pass takes one panel per
    piece between a, the split_points (known interior kinks or chosen panel
    edges) and b.
    Non-convergence within the budget returns the best estimate with
    converged=False; so does an error estimate at the rounding level of the
    sum, eps sum |panel estimates|, which ends the refinement of a tol below
    it.  This is integrate_adaptive_batch with one integral.
    """
    res = integrate_adaptive_batch(
        lambda x, k: f(x), a, b, tol, split_points=np.reshape(split_points, (1, -1)),
        max_evals=max_evals,
    )
    return res[0]


def period_splits(a: float, b: float, omega: float, max_evals: int) -> np.ndarray:
    """Split points a + k 2 pi / omega, k = 1, 2, .., through b: one panel
    per period of an integrand's fastest harmonic omega.  More panels than
    max_evals covers, an overflow to inf among them, raise ValueError
    before any point is built."""
    period = 2.0 * np.pi / omega
    count = (b - a) / period if period > 0.0 else np.inf
    if not count <= max_evals // len(_XK15):
        raise ValueError(f"{count:.3g} initial panels need more than"
                         f" max_evals = {max_evals} evaluations")
    return a + period * np.arange(1.0, np.ceil(count) + 1.0)


def _expint(p, z):
    """The generalized exponential integral E_p(z) = int_1^oo e^(-z u) u^(-p)
    du for p > 0 and Re z >= 0, z != 0, and an error bound, elementwise;
    on the imaginary axis from |z| = _EXPINT_SEAM on, any real p (its
    analytic continuation, the Abel limit of the integral where p <= 0).

    Below |z| = _EXPINT_SEAM the power series (DLMF 8.19.10, and 8.19.8 at
    integer p, with the digamma and log term); its bound is the rounding
    floor eps sum |terms|, the leading power counted with the rounding of
    its exponent.  From there on the continued fraction of
    e^z E_p(z) (DLMF 8.19.17, even part) by the modified Lentz method; its
    bound is the last step's relative change plus eps per step taken.
    """
    p, z = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(z, dtype=complex))
    out = np.empty(z.shape, dtype=complex)
    err = np.empty(z.shape)
    small = np.abs(z) < _EXPINT_SEAM
    if small.any():
        ps, zs = p[small], z[small]
        log_z = np.log(zs)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            lead = np.where(ps == np.rint(ps), 0.0, gamma(1.0 - ps) * np.exp((ps - 1.0) * log_z))
        # the power z^(p-1) carries the rounding of its exponent (p-1) ln z
        total, scale = lead, np.abs(lead) * (1.0 + np.abs((ps - 1.0) * log_z))
        log_part = digamma(ps) - log_z
        term = np.ones(zs.shape, dtype=complex)  # (-z)^k / k!
        for k in range(_EXPINT_SERIES_TERMS):
            if k:
                term = term * -zs / k
            den = 1.0 - ps + k
            pole = den == 0.0  # k = p - 1 at integer p
            part = np.where(pole, term * log_part, -term / np.where(pole, 1.0, den))
            total = total + part
            scale = scale + np.abs(part)
        out[small], err[small] = total, _EPS * scale
    big = ~small
    if big.any():
        pb, zb = p[big], z[big]
        b = zb + pb
        c = np.full(zb.shape, 1.0 / np.finfo(float).tiny, dtype=complex)
        d = 1.0 / b
        h = d
        done = np.zeros(zb.shape, dtype=bool)
        for steps in range(1, _EXPINT_MAX_STEPS + 1):
            a = -steps * (pb - 1.0 + steps)
            b = b + 2.0
            d = 1.0 / (a * d + b)
            c = b + a / c
            delta = c * d
            h = h * delta
            change = np.abs(delta - 1.0)
            done |= change < _EPS
            if done.all():
                break
        out[big] = h * np.exp(-zb)
        err[big] = np.abs(out[big]) * (change + _EPS * steps)
    return out, err


def power_exp_tail(s, omega, t):
    """int_t^oo x^(-s) e^(i omega x) dx for t > 0, and an error bound,
    elementwise over broadcast arrays (complex values, real bounds).

    t^(1-s) E_s(-i omega t) through _expint, the Abel limit at s <= 0 (then
    |omega| t must reach _EXPINT_SEAM); t^(1-s) / (s - 1) at omega = 0, and
    inf there when s <= 1, where the integral diverges.
    """
    s, omega, t = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (s, omega, t)))
    scale = t ** (1.0 - s)
    value = np.empty(s.shape, dtype=complex)
    err = np.zeros(s.shape)
    wave = omega != 0.0
    value[wave], err[wave] = _expint(s[wave], -1j * omega[wave] * t[wave])
    value[wave] *= scale[wave]
    err[wave] *= scale[wave]
    flat = s[~wave]
    with np.errstate(divide="ignore"):
        value[~wave] = np.where(flat > 1.0, scale[~wave] / (flat - 1.0), np.inf)
    return value, err


def gauss_jacobi_symmetric(nu: float, m: int):
    """m-point Gauss rule for the weight (1 - s^2)^(nu - 1/2) on (-1, 1).

    scipy's roots_jacobi with alpha = beta = nu - 1/2, made exactly
    symmetric: nodes come in +/- pairs with equal weights, and the weights
    sum to sqrt(pi) Gamma(nu + 1/2) / Gamma(nu + 1).  Returns (nodes, weights).
    """
    if nu < 0:
        raise ValueError("order must be >= 0")
    if int(m) != m or m < 1:
        raise ValueError("node count must be an integer >= 1")
    if m > _GAUSS_JACOBI_NODE_BUDGET:
        raise ValueError(f"node count exceeds budget {_GAUSS_JACOBI_NODE_BUDGET}")
    nodes, weights = roots_jacobi(int(m), nu - 0.5, nu - 0.5)
    return 0.5 * (nodes - nodes[::-1]), 0.5 * (weights + weights[::-1])
