"""Generic 1-D integration engines.

Three pieces: an adaptive finite-interval integrator built on an embedded
open Gauss pair (no endpoint evaluations, so integrable inverse-square-root
endpoints need no special handling), an improper oscillatory integrator that
partitions [0, oo) into asymptotic half-periods and accelerates the partial
sums (iterated Aitken if the panel sums alternate in sign, Richardson in 1/T
otherwise), and Gauss-Jacobi rules for the symmetric weight (1-s^2)^(nu-1/2).
Every integrator rejects a tolerance that is not positive and finite.

The adaptive integrator is batched: integrate_adaptive_batch takes a family
of K integrals (an integrand f(x, k), per-integral limits, tolerances and
split points) and refines all of them in the same array operations, calling
f once per chunk of panels with the nodes of both Gauss rules.  Each integral
keeps its own refinement, budget and convergence flag, bit for bit those of
a call on it alone; integrate_adaptive is the K = 1 case.  check_converged
turns an unconverged result beyond 100 tol into NonConvergedError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

__all__ = [
    "QuadResult",
    "QuadBatch",
    "NonConvergedError",
    "integrate_adaptive",
    "integrate_adaptive_batch",
    "check_converged",
    "integrate_oscillatory_tail",
    "integrate_oscillatory_mollified",
    "canonical_panel_nodes",
    "gauss_jacobi_symmetric",
]

_X7, _W7 = leggauss(7)
_X15, _W15 = leggauss(15)
_X16, _W16 = leggauss(16)
_X22 = np.concatenate([_X15, _X7])  # both rules of the adaptive pair, one call

# working-set bound of the batched adaptive engine: each integrand call sees
# at most _CHUNK_PANELS panels; it changes no result
_CHUNK_PANELS = 1024

_GAUSS_JACOBI_NODE_BUDGET = 4096
_EPS = float(np.finfo(float).eps)

# mollified engine: cutoff levels T, 2T, .. (T doubles per level), and the
# largest cutoff the start T is capped by
_MOLLIFIED_LEVELS = 4
_MOLLIFIED_MAX_T = 2.0e5

# oscillatory tail engine: panel budget, and the panel count before the
# first acceleration
_TAIL_MAX_PANELS = 20_000
_TAIL_MIN_PANELS = 64


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


def _panel_nodes(lefts: np.ndarray, rights: np.ndarray, xg):
    """Nodes of a fixed rule on each panel (one row per panel), and the
    panels' half widths."""
    mid = 0.5 * (lefts + rights)[:, None]
    half = 0.5 * (rights - lefts)[:, None]
    return mid + half * xg[None, :], half[:, 0]


def _eval_nodes(f, nodes: np.ndarray) -> np.ndarray:
    """f on a 2-D node array, in one call on the flattened nodes."""
    return np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)


def _panel_values(f, lefts: np.ndarray, rights: np.ndarray, xg, wg):
    """Batched fixed-rule estimates over many panels: one call to f."""
    nodes, half = _panel_nodes(lefts, rights, xg)
    return half * (_eval_nodes(f, nodes) @ wg)


def canonical_panel_nodes(width: float, k0: int, k1: int):
    """16-point Gauss nodes on panels k0 .. k1 - 1 of the grid width * k (one
    row per panel) and the panels' half widths.  A node depends only on
    (width, k, its index in the rule), never on the range it is built in, so
    callers can share values computed on these nodes."""
    cuts = width * np.arange(k0, k1 + 1)
    return _panel_nodes(cuts[:-1], cuts[1:], _X16)


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
    """GL15 estimate and |GL15 - GL7| per panel.

    f gets the nodes of both rules, with the integral index of each node, in
    one call per chunk of at most _CHUNK_PANELS panels.  A non-finite
    estimate raises, unless its panel is so narrow that rounding pushes
    nodes onto an integrable endpoint singularity; such a panel counts 0.
    """
    fine = np.empty(len(lefts))
    coarse = np.empty(len(lefts))
    for s in range(0, len(lefts), _CHUNK_PANELS):
        sl = slice(s, s + _CHUNK_PANELS)
        mid = 0.5 * (lefts[sl] + rights[sl])
        half = 0.5 * (rights[sl] - lefts[sl])
        nodes = mid + half * _X22[:, None]
        vals = np.asarray(f(nodes.ravel(), np.tile(owner[sl], len(_X22))), dtype=float)
        vals = vals.reshape(nodes.shape)
        fine[sl] = half * _weighted_sum(vals[:15], _W15)
        coarse[sl] = half * _weighted_sum(vals[15:], _W7)
    with np.errstate(invalid="ignore"):
        errs = np.abs(fine - coarse)
    bad = ~np.isfinite(fine) | ~np.isfinite(coarse)
    if bad.any():
        narrow = (rights - lefts) <= narrow_width
        if np.any(bad & ~narrow):
            raise ValueError("integrand returned non-finite values on a panel")
        fine = np.where(bad, 0.0, fine)
        errs = np.where(bad, 0.0, errs)
    return fine, errs


def _initial_panels(a, b, splits, min_panels: int):
    """Each integral's interval cut at its interior split points, every piece
    into equal panels (about min_panels over the whole interval).  Returns
    (lefts, rights, owner), grouped by owner in increasing x."""
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
    lo, hi, piece_owner = pts[:-1][piece], pts[1:][piece], owner[:-1][piece]
    count = np.maximum(
        1, np.ceil(min_panels * (hi - lo) / (b - a)[piece_owner])
    ).astype(np.int64)
    # np.linspace's arithmetic: edge i at i * (hi - lo) / count + lo, last at hi
    which = np.repeat(np.arange(len(lo)), count)
    i = np.arange(len(which)) - np.repeat(np.cumsum(count) - count, count)
    step = ((hi - lo) / count)[which]
    lefts = i * step + lo[which]
    rights = np.where(i + 1 == count[which], hi[which], (i + 1) * step + lo[which])
    return lefts, rights, piece_owner[which]


def _refine(f, a, b, tol, splits, max_evals: int, min_panels: int):
    """Refine a family of integrals together; returns (value, error,
    n_evals, converged), one entry per integral.

    Every step, each integral still open bisects the panels that carry 90%
    of its own error (largest first, within its own budget); the panel
    arrays stay grouped by integral, in the order a single integral would
    keep them, so each result is independent of its neighbours.
    """
    m = len(a)
    value, error = np.empty(m), np.empty(m)
    n_evals, converged = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=bool)
    narrow = 1e-13 * (np.abs(a) + np.abs(b) + 1.0)  # frozen panel width
    lefts, rights, owner = _initial_panels(a, b, splits, min_panels)
    vals, errs = _panel_pair(f, lefts, rights, owner, narrow[owner])
    spent = 22 * np.bincount(owner, minlength=m)
    while True:
        counts = np.bincount(owner, minlength=m)
        act = np.flatnonzero(counts)
        starts = np.cumsum(counts[act]) - counts[act]
        total = np.add.reduceat(vals, starts)
        total_err = np.add.reduceat(errs, starts)
        # panels at rounding width are frozen: their residual is irreducible
        cand = (rights - lefts > narrow[owner]) & (errs > 0)
        n_cand = np.bincount(owner[cand], minlength=m)[act]
        ok = total_err <= tol[act]
        done = ok | (spent[act] >= max_evals) | (n_cand == 0)
        fin = act[done]
        value[fin] = total[done]
        error[fin] = total_err[done]
        n_evals[fin] = spent[fin]
        converged[fin] = ok[done]
        if done.all():
            return value, error, n_evals, converged
        if done.any():
            live = ~np.isin(owner, fin)
            lefts, rights, owner = lefts[live], rights[live], owner[live]
            vals, errs, cand = vals[live], errs[live], cand[live]
            act, n_cand = act[~done], n_cand[~done]
        # per integral: candidates first, by decreasing error (stable)
        order = np.lexsort((-errs, ~cand, owner))
        row = np.empty(m, dtype=np.int64)
        row[act] = np.arange(len(act))
        o_sorted = owner[order]
        n_panels = np.bincount(o_sorted, minlength=m)
        rank = np.arange(len(order)) - (np.cumsum(n_panels) - n_panels)[o_sorted]
        c_sorted = cand[order]
        # cumulative errors row by row (a sequential sum within each row, so
        # no integral's split count depends on another's errors)
        table = np.zeros((len(act), int(n_cand.max())))
        table[row[o_sorted[c_sorted]], rank[c_sorted]] = errs[order][c_sorted]
        csum = np.cumsum(table, axis=1)
        n_split = np.count_nonzero(csum < 0.90 * csum[:, -1:], axis=1) + 1
        n_split = np.minimum(n_split, np.minimum(
            n_cand, np.maximum(1, (max_evals - spent[act]) // 44)))
        take = np.zeros(m, dtype=np.int64)
        take[act] = n_split
        idx = order[c_sorted & (rank < take[o_sorted])]
        spent[act] += 44 * n_split
        keep = np.ones(len(lefts), dtype=bool)
        keep[idx] = False
        mids = 0.5 * (lefts[idx] + rights[idx])
        new_l = np.concatenate([lefts[idx], mids])
        new_r = np.concatenate([mids, rights[idx]])
        new_o = np.concatenate([owner[idx], owner[idx]])
        sub_v, sub_e = _panel_pair(f, new_l, new_r, new_o, narrow[new_o])
        regroup = np.argsort(np.concatenate([owner[keep], new_o]), kind="stable")
        lefts = np.concatenate([lefts[keep], new_l])[regroup]
        rights = np.concatenate([rights[keep], new_r])[regroup]
        owner = np.concatenate([owner[keep], new_o])[regroup]
        vals = np.concatenate([vals[keep], sub_v])[regroup]
        errs = np.concatenate([errs[keep], sub_e])[regroup]


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
    max_evals: int = 2_000_000,
    min_panels: int = 1,
) -> QuadBatch:
    """Adaptive integration of a family of K integrals over finite intervals.

    f(x, k) gets flat arrays of nodes x and of the index k of the integral
    each node belongs to.  a, b and tol broadcast to one value per integral;
    split_points is a (K, S) array of known interior kinks per integral,
    rows padded with NaN (points outside (a_k, b_k) are ignored).  Each
    integral is refined exactly as it would be alone, with its own budget of
    max_evals evaluations, so its value, n_evals and converged flag do not
    depend on the rest of the family or on its position in it.
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
    # the first pass alone evaluates min_panels GL15 + GL7 pairs per integral
    if 22 * min_panels > max_evals:
        raise ValueError(f"{min_panels:.3g} initial panels need more than"
                         f" max_evals = {max_evals} evaluations")
    return QuadBatch(*_refine(f, a, b, tol, splits, max_evals, min_panels))


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-10,
    *,
    max_evals: int = 2_000_000,
    min_panels: int = 1,
    split_points=(),
) -> QuadResult:
    """Adaptive integration of f over the finite interval [a, b].

    f must accept a 1-D numpy array.  Bisection refinement of the panels with
    the largest embedded-pair discrepancy |GL15 - GL7|; endpoints are never
    evaluated.  split_points seeds the initial partition with known interior
    kinks.  Non-convergence within the budget returns the best estimate with
    converged=False.  This is integrate_adaptive_batch with one integral.
    """
    res = integrate_adaptive_batch(
        lambda x, k: f(x), a, b, tol, split_points=[list(split_points)],
        max_evals=max_evals, min_panels=min_panels,
    )
    return res[0]


def _iterated_aitken(s: np.ndarray):
    """Repeated Aitken delta-squared on a partial-sum sequence."""
    v = np.asarray(s, dtype=float)
    prev = v[-1]
    err = np.inf
    while len(v) >= 3:
        d1 = np.diff(v)
        d2 = np.diff(v, 2)
        mask = np.abs(d2) > 1e-300
        if not mask.any():
            break
        nxt = (v[:-2] - d1[:-1] ** 2 / np.where(mask, d2, 1.0))[mask]
        err = abs(nxt[-1] - prev)
        prev = nxt[-1]
        v = nxt
    return float(prev), float(err)


def _neville_to_zero(xs: np.ndarray, ys) -> np.ndarray:
    """Neville's tableau extrapolated to x = 0: entry k is the value at 0 of
    the polynomial through (xs[i], ys[i]), i <= k."""
    tab = np.array(ys, dtype=float)
    out = [tab[0]]
    for k in range(1, len(xs)):
        tab = tab[:-1] + (tab[:-1] - tab[1:]) * xs[:-k] / (xs[k:] - xs[:-k])
        out.append(tab[0])
    return np.array(out)


def _neville_limit(xs: np.ndarray, ys, scale: float):
    """Limit at x = 0 of the Neville tableau through (xs[i], ys[i]), xs[0]
    nearest 0, and its error estimate.

    Entry 0 is judged by the spread of ys, entry k >= 1 by its change from
    entry k - 1, each plus (entry 0: at least) its rounding level: eps times
    scale, the absolute size of the terms summed into ys, times the sum of
    |Lagrange weights| at 0 that the entry applies to ys.  The entry with
    the smallest error wins.
    """
    ext = _neville_to_zero(xs, ys)
    floor = [_EPS * scale * sum(
        abs(np.prod([x / (x - xj) for x in xs[:k + 1] if x != xj])) for xj in xs[:k + 1]
    ) for k in range(len(xs))]
    best, err = float(ext[0]), max(abs(ys[-1] - ys[0]), floor[0])
    for k in range(1, len(xs)):
        cand = float(abs(ext[k] - ext[k - 1])) + floor[k]
        if cand < err:
            best, err = float(ext[k]), cand
    return best, err


def _richardson_inverse_t(sums: np.ndarray, t0: float):
    """Neville extrapolation of partial sums to T = oo in powers of 1/T.

    Uses boundaries at doubled panel counts snapped to the 2 pi phase grid, so
    every retained oscillatory harmonic has the same phase at all nodes and
    the residual is an honest power series in 1/T.
    """
    n = len(sums)
    m = n // 2  # sums index 2m-1 sits at T = t0 + 2 m pi
    xs = []
    ys = []
    while m >= 4 and len(xs) < 12:
        xs.append(1.0 / (t0 + 2.0 * m * math.pi))
        ys.append(sums[2 * m - 1])
        m //= 2
    scale = float(np.abs(np.diff(sums, prepend=0.0)).sum())
    return _neville_limit(np.array(xs), ys, scale)


def _accelerate_sums(sums: np.ndarray, t0: float):
    """Limit estimate of a partial-sum sequence by the one accelerator its
    tail calls for (Sidi, Practical Extrapolation Methods, 2003).

    If every neighbouring pair of the last 16 panel sums differs in sign,
    the tail alternates with no non-oscillating part, and iterated Aitken
    runs on the newest 48 sums.  Otherwise a monotone mean part remains, and
    Richardson extrapolation in 1/T runs over period-doubled boundaries.
    """
    signs = np.sign(np.diff(sums[-17:]))
    if np.all(signs[1:] * signs[:-1] < 0):
        return _iterated_aitken(sums[-48:])
    return _richardson_inverse_t(sums, t0)


def _smooth_cutoff(u: np.ndarray) -> np.ndarray:
    """C-infinity transition from 1 at u=0 to 0 at u=1 (exp bump quotient)."""
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
        b = np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
    return a / (a + b)


def integrate_oscillatory_mollified(
    f: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-9,
    *,
    min_frequency: float = 1.0,
    chunks_per_period: int = 2,
) -> QuadResult:
    """Improper oscillatory integral int_0^oo f by mollified truncation.

    Replaces the sharp upper limit T with a smooth cutoff ramping from 1 to 0
    over [T, 2T]; every oscillatory component of frequency omega then leaves
    a remainder vanishing faster than any power of 1/(omega T), regardless of
    how many incommensurate frequencies the integrand mixes.  A residual
    non-oscillating component decaying like t^(-alpha) survives as an
    algebraic error in powers of T^(-1/2), which a short Richardson
    extrapolation over doubled T removes.

    Every panel is one of the canonical grid width * k (canonical_panel_nodes,
    width = pi / chunks_per_period), with the start cutoff rounded
    up to a whole number of panels, so integrals with the same width share
    their nodes.  T doubles from level to level, so the tail panels on
    [T, 2T] are exactly the next level's plain panels: their integrand values
    are kept and summed again without the cutoff, and each node is evaluated
    once.  The error estimate is floored at the rounding level of the
    extrapolated sums.
    """
    _check_tol(tol)
    t0 = min(max(12.0 * math.pi, 55.0 / max(min_frequency, 1e-6)),
             _MOLLIFIED_MAX_T / 2.0**_MOLLIFIED_LEVELS)
    width = math.pi / max(1, chunks_per_period)
    m0 = max(8, int(math.ceil(t0 / width)))  # t0 rounded up to whole panels
    nodes, half = canonical_panel_nodes(width, 0, m0)
    part = half * (_eval_nodes(f, nodes) @ _W16)
    plain_total = float(part.sum())
    abs_total = float(np.abs(part).sum())
    n_evals = 16 * m0
    vals = []
    xs = []
    for j in range(_MOLLIFIED_LEVELS):
        k0 = m0 << j
        big_t = width * k0
        nodes, half = canonical_panel_nodes(width, k0, 2 * k0)
        raw = _eval_nodes(f, nodes)
        n_evals += 16 * k0
        damped = raw * _smooth_cutoff((nodes - big_t) / big_t)
        vals.append(plain_total + float((half * (damped @ _W16)).sum()))
        xs.append(big_t**-0.5)
        # undamped, the same panels are the next level's plain part
        part = half * (raw @ _W16)
        plain_total += float(part.sum())
        abs_total += float(np.abs(part).sum())

    # extrapolation to T = oo, anchored at the largest T
    best, err = _neville_limit(np.array(xs[::-1]), vals[::-1], abs_total)
    return QuadResult(best, err, n_evals, err < tol)


def integrate_oscillatory_tail(
    f: Callable[[np.ndarray], np.ndarray],
    tol: float,
    *,
    decay_exponent: float,
    phase_offset: float = 0.0,
    chunks_per_period: int = 2,
) -> QuadResult:
    """Improper integral int_0^oo f of an eventually-oscillatory integrand,
    as a limit of inter-zero partial sums.

    decay_exponent is the envelope exponent alpha with |f(t)| ~ t^(-alpha);
    for integrands jd(t)^q t^(d-1) it equals (d-1)(q/2 - 1).  The asymptotic
    spacing of sign changes is pi, as for every power of jd, and
    phase_offset shifts the partition onto the asymptotic zeros.

    Panels of one period pi each (aligned to phase_offset), integrated by
    a fixed rule and summed.  At each check the partial-sum sequence is
    accelerated by one extrapolator, chosen from the signs of the last 16
    panel sums: iterated Aitken if every neighbouring pair differs in sign
    (a purely alternating tail), else Richardson extrapolation in 1/T (a
    monotone mean part remains).  Absolutely convergent tails
    (decay_exponent > 1) may instead stop by plain truncation once the
    analytic envelope bound C T^(1-alpha)/(alpha-1) meets the tolerance.
    Conditionally convergent inputs always take the acceleration path.
    Whether the integral converges at all is the caller's question: a
    divergent one exhausts the panel budget and comes back unconverged.

    The error estimate never drops below the rounding level of the running
    sum, eps (sum_k |S_k| + |head|) over the partial sums S_k and the head
    integral on [0, t0] (the first-order bound of recursive summation); the
    floor moves neither the value nor the converged flag.
    """
    _check_tol(tol)
    alpha = decay_exponent
    p = math.pi
    # first boundary lands on the asymptotic zero grid offset + (k + 1/2) p
    k0 = math.ceil(-phase_offset / p - 0.5)
    t0 = phase_offset + (k0 + 0.5) * p
    while t0 <= 1e-12:
        t0 += p

    n = max(2, int(math.ceil(t0 / p * 2 * max(2, chunks_per_period))))
    cuts = np.linspace(0.0, t0, n + 1)
    head = float(_panel_values(f, cuts[:-1], cuts[1:], _X16, _W16).sum())
    n_evals = 16 * n

    sums: list[float] = []
    panels: list[float] = []
    total = 0.0
    batch = _TAIL_MIN_PANELS
    t = t0
    best = None

    def result(value: float, err: float, converged: bool) -> QuadResult:
        floor = _EPS * (float(np.abs(np.asarray(sums)).sum()) + abs(head))
        return QuadResult(head + value, max(err, floor), n_evals, converged)

    while batch > 0:
        edges = t + p * np.arange(batch + 1)
        sub = max(1, chunks_per_period)
        fine = np.linspace(edges[:-1], edges[1:], sub + 1, axis=1)
        vals = _panel_values(
            f, fine[:, :-1].ravel(), fine[:, 1:].ravel(), _X16, _W16
        ).reshape(batch, sub).sum(axis=1)
        n_evals += 16 * batch * sub
        for v in vals:
            total += float(v)
            panels.append(float(v))
            sums.append(total)
        t = float(edges[-1])

        # fast path: plain truncation once the analytic tail bound is met
        if alpha > 1.0:
            recent = np.abs(panels[-8:])
            c_env = float(np.max(recent)) / p * t**alpha
            tail = 2.0 * c_env * t ** (1.0 - alpha) / (alpha - 1.0)
            if tail < tol:
                return result(total, tail, True)
        est, err = _accelerate_sums(np.asarray(sums), t0)
        if math.isfinite(err) and (best is None or err < best[1]):
            best = (est, err)
        if err < tol:
            return result(est, err, True)
        batch = min(len(panels), _TAIL_MAX_PANELS - len(panels))
    return result(*(best or (total, math.inf)), False)


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
