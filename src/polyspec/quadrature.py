"""Generic 1-D integration engines.

Three pieces: an adaptive finite-interval integrator built on an embedded
open Gauss pair (no endpoint evaluations, so integrable inverse-square-root
endpoints need no special handling), an improper oscillatory integrator that
partitions [a, oo) into asymptotic half-periods and accelerates the partial
sums, and Gauss-Jacobi rules for the symmetric weight (1-s^2)^(nu-1/2).

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
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from .specfun import BesselOrder

__all__ = [
    "QuadResult",
    "QuadBatch",
    "OscillatoryIntegrand",
    "DivergentIntegralError",
    "NonConvergedError",
    "integrate_adaptive",
    "integrate_adaptive_batch",
    "check_converged",
    "integrate_oscillatory_tail",
    "integrate_oscillatory_mollified",
    "oscillatory_partial_integrals",
    "canonical_panel_nodes",
    "gauss_jacobi_symmetric",
]

_X7, _W7 = leggauss(7)
_X15, _W15 = leggauss(15)
_X16, _W16 = leggauss(16)
_X22 = np.concatenate([_X15, _X7])  # both rules of the adaptive pair, one call

# working-set bounds of the batched adaptive engine: each integrand call sees
# at most _CHUNK_PANELS panels and at most _BLOCK integrals refine together;
# neither changes any result
_CHUNK_PANELS = 1024
_BLOCK = 64

_GAUSS_JACOBI_NODE_BUDGET = 4096


class DivergentIntegralError(ArithmeticError):
    """The requested improper integral diverges."""


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
class OscillatoryIntegrand:
    """An eventually-oscillatory integrand on [0, oo).

    decay_exponent is the envelope exponent alpha with |f(t)| ~ t^(-alpha);
    for integrands jd(t)^q t^(d-1) it equals (d-1)(q/2 - 1).  phase_period is
    the asymptotic spacing of sign changes (pi for powers of jd), and
    phase_offset shifts the partition onto the asymptotic zeros.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    decay_exponent: float
    phase_period: float = math.pi
    phase_offset: float = 0.0

    def __post_init__(self) -> None:
        if self.phase_period <= 0:
            raise ValueError("phase_period must be > 0")


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


def _refine_block(f, first: int, a, b, tol, splits, max_evals: int, min_panels: int, out):
    """Refine integrals first .. first + len(a) - 1 of a family together.

    Every step, each integral still open bisects the panels that carry 90%
    of its own error (largest first, within its own budget); the panel
    arrays stay grouped by integral, in the order a single integral would
    keep them, so each result is independent of its neighbours.
    """
    value, error, n_evals, converged = out
    m = len(a)
    narrow = 1e-13 * (np.abs(a) + np.abs(b) + 1.0)  # frozen panel width
    lefts, rights, owner = _initial_panels(a, b, splits, min_panels)
    vals, errs = _panel_pair(f, lefts, rights, owner + first, narrow[owner])
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
        value[first + fin] = total[done]
        error[first + fin] = total_err[done]
        n_evals[first + fin] = spent[fin]
        converged[first + fin] = ok[done]
        if done.all():
            return
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
        sub_v, sub_e = _panel_pair(f, new_l, new_r, new_o + first, narrow[new_o])
        regroup = np.argsort(np.concatenate([owner[keep], new_o]), kind="stable")
        lefts = np.concatenate([lefts[keep], new_l])[regroup]
        rights = np.concatenate([rights[keep], new_r])[regroup]
        owner = np.concatenate([owner[keep], new_o])[regroup]
        vals = np.concatenate([vals[keep], sub_v])[regroup]
        errs = np.concatenate([errs[keep], sub_e])[regroup]


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
    n = shape[0]
    a = np.broadcast_to(np.asarray(a, dtype=float), shape)
    b = np.broadcast_to(np.asarray(b, dtype=float), shape)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), shape)
    splits = np.broadcast_to(splits, (n, splits.shape[1]))
    if not np.all(np.isfinite(a) & np.isfinite(b) & (a < b)):
        raise ValueError("need finite a < b")
    out = (np.empty(n), np.empty(n), np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool))
    for first in range(0, n, _BLOCK):
        sl = slice(first, first + _BLOCK)
        _refine_block(f, first, a[sl], b[sl], tol[sl], splits[sl], max_evals, min_panels, out)
    return QuadBatch(*out)


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


def _levin_u(s: np.ndarray, kmax: int = 12):
    """Levin u-transform of a partial-sum sequence.

    Explicit form with beta = 1 and remainder estimates omega_n = (n+1) a_n.
    Returns (estimate, error_estimate); the error estimate is the spread of
    the last transform orders.
    """
    s = np.asarray(s, dtype=float)
    n = len(s)
    if n < 4:
        return s[-1], np.inf
    a = np.empty(n)
    a[0] = s[0]
    a[1:] = np.diff(s)
    omega = (np.arange(n) + 1.0) * a
    usable = np.abs(omega) > 1e-300
    if not usable[-min(n, kmax + 2):].all():
        return s[-1], np.inf
    ests = []
    for k in range(3, min(kmax, n - 1) + 1):
        m = n - 1 - k  # transform window ends at the newest sums
        num = 0.0
        den = 0.0
        for j in range(k + 1):
            c = (-1.0) ** j * math.comb(k, j) * ((1.0 + m + j) / (1.0 + m + k)) ** (k - 1)
            w = c / omega[m + j]
            num += w * s[m + j]
            den += w
        if den == 0.0 or not math.isfinite(den):
            continue
        ests.append(num / den)
    if len(ests) < 2:
        return s[-1], np.inf
    ests = np.array(ests[-4:])
    est = ests[-1]
    err = float(np.max(np.abs(np.diff(ests)))) + 1e-16 * abs(est)
    return float(est), err


def _iterated_aitken(s: np.ndarray):
    """Fallback acceleration: repeated Aitken delta-squared."""
    v = np.asarray(s, dtype=float)
    prev = v[-1]
    err = np.inf
    while len(v) >= 3:
        d1 = np.diff(v)
        d2 = np.diff(v, 2)
        mask = np.abs(d2) > 1e-300
        if not mask.any():
            break
        nxt = v[:-2] - d1[:-1] ** 2 / np.where(mask, d2, 1.0)
        nxt = nxt[mask]
        if len(nxt) == 0:
            break
        err = abs(nxt[-1] - prev)
        prev = nxt[-1]
        v = nxt
    return float(prev), float(err)


def _validated(transform, seq: np.ndarray):
    """Run a sequence transform twice (full and truncated window) and widen
    the error estimate by the disagreement; guards against false plateaus."""
    est, err = transform(seq)
    if len(seq) >= 24 and math.isfinite(err):
        est2, _ = transform(seq[: max(12, int(0.85 * len(seq)))])
        err = max(err, 0.7 * abs(est - est2))
    return est, err


def _neville_to_zero(xs: np.ndarray, ys) -> np.ndarray:
    """Neville's tableau extrapolated to x = 0: entry k is the value at 0 of
    the polynomial through (xs[i], ys[i]), i <= k."""
    tab = np.array(ys, dtype=float)
    out = [tab[0]]
    for k in range(1, len(xs)):
        tab = tab[:-1] + (tab[:-1] - tab[1:]) * xs[:-k] / (xs[k:] - xs[:-k])
        out.append(tab[0])
    return np.array(out)


def _richardson_inverse_t(sums: np.ndarray, t0: float, p: float):
    """Neville extrapolation of partial sums to T = oo in powers of 1/T.

    Uses boundaries at doubled panel counts snapped to the 2p phase grid, so
    every retained oscillatory harmonic has the same phase at all nodes and
    the residual is an honest power series in 1/T.
    """
    n = len(sums)
    m = n // 2  # sums index 2m-1 sits at T = t0 + 2 m p
    xs = []
    ys = []
    while m >= 4 and len(xs) < 12:
        xs.append(1.0 / (t0 + 2.0 * m * p))
        ys.append(sums[2 * m - 1])
        m //= 2
    if len(xs) < 3:
        return sums[-1], np.inf
    ext = _neville_to_zero(np.array(xs), ys)
    change = np.abs(np.diff(ext))
    best = (float(ext[0]), np.inf)
    for k in range(2, len(ext)):
        if change[k - 1] < best[1]:
            best = (float(ext[k]), float(change[k - 1]) + 1e-15 * abs(ext[k]))
    return best


def _accelerate_sums(sums: np.ndarray, t0: float = 0.0, p: float = math.pi):
    """Best available limit estimate for a partial-sum sequence.

    Candidates: Levin-u on the newest window (sharp for alternating tails),
    Richardson extrapolation in 1/T over period-doubled boundaries (sharp
    for monotone algebraic tails), and iterated Aitken as a fallback.
    """
    n = len(sums)
    cands = [_validated(_levin_u, sums[-min(n, 40):])]
    if n >= 64:
        cands.append(_richardson_inverse_t(sums, t0, p))
    cands.append(_validated(_iterated_aitken, sums[-min(n, 48):]))
    return min(cands, key=lambda c: c[1] if math.isfinite(c[1]) else np.inf)


def _smooth_cutoff(u: np.ndarray) -> np.ndarray:
    """C-infinity transition from 1 at u=0 to 0 at u=1 (exp bump quotient)."""
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
        b = np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
    return a / (a + b)


def integrate_oscillatory_mollified(
    g: OscillatoryIntegrand,
    tol: float = 1e-9,
    *,
    min_frequency: float = 1.0,
    levels: int = 4,
    max_t: float = 2.0e5,
    chunks_per_period: int = 2,
) -> QuadResult:
    """Improper oscillatory integral by mollified truncation.

    Replaces the sharp upper limit T with a smooth cutoff ramping from 1 to 0
    over [T, 2T]; every oscillatory component of frequency omega then leaves
    a remainder vanishing faster than any power of 1/(omega T), regardless of
    how many incommensurate frequencies the integrand mixes.  A residual
    non-oscillating component decaying like t^(-alpha) survives as an
    algebraic error in powers of T^(-1/2), which a short Richardson
    extrapolation over doubled T removes.

    Every panel is one of the canonical grid width * k (canonical_panel_nodes,
    width = phase_period / chunks_per_period), with the start cutoff rounded
    up to a whole number of panels, so integrals with the same width share
    their nodes.  T doubles from level to level, so the tail panels on
    [T, 2T] are exactly the next level's plain panels: their integrand values
    are kept and summed again without the cutoff, and each node is evaluated
    once.  The error estimate is floored at the rounding level of the
    extrapolated sums.
    """
    p = g.phase_period
    t0 = min(max(12.0 * p, 55.0 / max(min_frequency, 1e-6)), max_t / 2.0**levels)
    width = p / max(1, chunks_per_period)
    m0 = max(8, int(math.ceil(t0 / width)))  # t0 rounded up to whole panels
    nodes, half = canonical_panel_nodes(width, 0, m0)
    part = half * (_eval_nodes(g.evaluator, nodes) @ _W16)
    plain_total = float(part.sum())
    abs_total = float(np.abs(part).sum())
    n_evals = 16 * m0
    vals = []
    xs = []
    for j in range(levels):
        k0 = m0 << j
        big_t = width * k0
        nodes, half = canonical_panel_nodes(width, k0, 2 * k0)
        raw = _eval_nodes(g.evaluator, nodes)
        n_evals += 16 * k0
        damped = raw * _smooth_cutoff((nodes - big_t) / big_t)
        vals.append(plain_total + float((half * (damped @ _W16)).sum()))
        xs.append(big_t**-0.5)
        # undamped, the same panels are the next level's plain part
        part = half * (raw @ _W16)
        plain_total += float(part.sum())
        abs_total += float(np.abs(part).sum())

    # Neville extrapolation to x = 0, anchored at the largest T.  No error
    # estimate goes below the rounding level of entry k: eps times the sum of
    # the absolute panel contributions, times the sum of |Lagrange weights|
    # at 0 that entry applies to the sums
    xs = np.array(xs[::-1])
    ext = _neville_to_zero(xs, vals[::-1])
    floor = [np.finfo(float).eps * abs_total * sum(
        abs(np.prod([x / (x - xj) for x in xs[:k + 1] if x != xj])) for xj in xs[:k + 1]
    ) for k in range(levels)]
    best, err = float(ext[0]), (abs(vals[-1] - vals[0]) if levels > 1 else np.inf)
    err = max(err, floor[0])
    for k in range(1, levels):
        cand = float(abs(ext[k] - ext[k - 1])) + floor[k]
        if cand < err:
            best, err = float(ext[k]), cand
    return QuadResult(best, err, n_evals, err < tol)


def _divergence_diagnosis(panels: np.ndarray, times: np.ndarray, alpha: float) -> bool:
    """True when the panel sums indicate a non-summable mean component.

    A constant-sign tail whose fitted envelope exponent is <= 1 cannot sum to
    a finite limit (the oscillation-free part behaves like int t^-a dt); a
    non-decaying tail of either sign (alpha <= 0) likewise diverges.
    """
    if len(panels) < 48:
        return False
    tail = panels[-48:]
    tt = times[-48:]
    if alpha <= 0.0:
        # Cauchy failure: increments not shrinking
        first = abs(tail[:24].sum())
        second = abs(tail[24:].sum())
        return second > 0.5 * first and second > 1e-13 * (1.0 + abs(panels.sum()))
    same_sign = bool(np.all(tail > 0) or np.all(tail < 0))
    if not same_sign:
        return False
    mags = np.abs(tail)
    if np.any(mags == 0.0):
        return False
    slope = np.polyfit(np.log(tt), np.log(mags), 1)[0]
    return slope >= -1.02


def oscillatory_partial_integrals(
    g: OscillatoryIntegrand, a: float, t_values, *, chunks_per_period: int = 2
) -> np.ndarray:
    """Cumulative integrals int_a^T g for every T in t_values (increasing)."""
    t_values = np.asarray(t_values, dtype=float)
    edges = np.unique(np.concatenate([[a], t_values]))
    out = np.empty(len(t_values))
    total = 0.0
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        n = max(1, int(math.ceil((hi - lo) / g.phase_period * chunks_per_period)))
        cuts = np.linspace(lo, hi, n + 1)
        total += float(_panel_values(g.evaluator, cuts[:-1], cuts[1:], _X16, _W16).sum())
        out[i] = total
    return out[np.searchsorted(edges[1:], t_values)]


def integrate_oscillatory_tail(
    g: OscillatoryIntegrand,
    a: float,
    tol: float = 1e-9,
    *,
    max_panels: int = 20_000,
    min_panels: int = 64,
    chunks_per_period: int = 2,
) -> QuadResult:
    """Improper integral int_a^oo g as a limit of inter-zero partial sums.

    Panels of one phase_period each (aligned to phase_offset), integrated by
    a fixed rule and summed; the partial-sum sequence is accelerated by a
    Levin u-transform with iterated-Aitken fallback.  Absolutely convergent
    tails (decay_exponent > 1) may instead stop by plain truncation once the
    analytic envelope bound C T^(1-alpha)/(alpha-1) meets the tolerance.
    Conditionally convergent inputs always take the acceleration path.
    """
    alpha = g.decay_exponent
    p = g.phase_period
    # first boundary lands on the asymptotic zero grid offset + (k + 1/2) p
    k0 = math.ceil((a - g.phase_offset) / p - 0.5)
    t0 = g.phase_offset + (k0 + 0.5) * p
    while t0 <= a + 1e-12 * (1.0 + abs(a)):
        t0 += p

    head = 0.0
    n_evals = 0
    if t0 > a:
        n = max(2, int(math.ceil((t0 - a) / p * 2 * max(2, chunks_per_period))))
        cuts = np.linspace(a, t0, n + 1)
        head = float(_panel_values(g.evaluator, cuts[:-1], cuts[1:], _X16, _W16).sum())
        n_evals += 16 * n

    sums: list[float] = []
    panels: list[float] = []
    total = 0.0
    batch = max(16, min_panels)
    t = t0
    best: tuple[float, float] | None = None
    while len(panels) < max_panels:
        edges = t + p * np.arange(batch + 1)
        sub = max(1, chunks_per_period)
        fine = np.linspace(edges[:-1], edges[1:], sub + 1, axis=1)
        vals = _panel_values(
            g.evaluator, fine[:, :-1].ravel(), fine[:, 1:].ravel(), _X16, _W16
        ).reshape(batch, sub).sum(axis=1)
        n_evals += 16 * batch * sub
        for v in vals:
            total += float(v)
            panels.append(float(v))
            sums.append(total)
        t = float(edges[-1])

        if len(sums) >= min_panels:
            diag = _divergence_diagnosis(
                np.asarray(panels), t0 + p * np.arange(1, len(panels) + 1), alpha
            )
            if diag:
                return QuadResult(
                    head + total, np.inf, n_evals, False, status="divergent"
                )
            # fast path: plain truncation once the analytic tail bound is met
            if alpha > 1.0:
                recent = np.abs(panels[-8:])
                c_env = float(np.max(recent)) / p * t**alpha
                tail = 2.0 * c_env * t ** (1.0 - alpha) / (alpha - 1.0)
                if tail < tol:
                    return QuadResult(head + total, tail, n_evals, True)
            est, err = _accelerate_sums(np.asarray(sums), t0, p)
            if math.isfinite(err):
                if best is None or err < best[1]:
                    best = (est, err)
                if err < tol:
                    return QuadResult(head + est, err, n_evals, True)
        batch = min(max(batch, len(panels)) , max_panels - len(panels))
        if batch <= 0:
            break

    sums_arr = np.asarray(sums)
    panels_arr = np.asarray(panels)
    est_a, err_a = _accelerate_sums(sums_arr, t0, p)
    if best is None or err_a < best[1]:
        best = (est_a, err_a)
    if best[1] < tol:
        return QuadResult(head + best[0], best[1], n_evals, True)

    # divergence diagnosis: Cauchy criterion on second-half increments
    half = sums_arr[len(sums_arr) // 2]
    incr = abs(sums_arr[-1] - half)
    cauchy_fail = incr > max(10.0 * tol, 1e-8 * abs(sums_arr[-1]) + 10.0 * tol)
    tail_sign = np.sign(panels_arr[-48:])
    same_sign = np.all(tail_sign >= 0) or np.all(tail_sign <= 0)
    if cauchy_fail and (alpha <= 0.0 or (same_sign and alpha <= 1.0 + 1e-9)):
        return QuadResult(head + float(sums_arr[-1]), np.inf, n_evals, False, status="divergent")
    return QuadResult(head + best[0], best[1], n_evals, False)


def gauss_jacobi_symmetric(order, m: int):
    """m-point Gauss rule for the weight (1 - s^2)^(nu - 1/2) on (-1, 1).

    Golub-Welsch on the symmetric Jacobi matrix of the Gegenbauer weight;
    nodes come in +/- pairs with equal weights and the weights sum to
    sqrt(pi) Gamma(nu + 1/2) / Gamma(nu + 1).  Returns (nodes, weights).
    """
    nu = order.nu if isinstance(order, BesselOrder) else float(order)
    if nu < 0:
        raise ValueError("order must be >= 0")
    if int(m) != m or m < 1:
        raise ValueError("node count must be an integer >= 1")
    if m > _GAUSS_JACOBI_NODE_BUDGET:
        raise ValueError(f"node count exceeds budget {_GAUSS_JACOBI_NODE_BUDGET}")
    mu0 = math.sqrt(math.pi) * math.exp(gammaln(nu + 0.5) - gammaln(nu + 1.0))
    if m == 1:
        return np.zeros(1), np.array([mu0])
    k = np.arange(1, m)
    beta = np.empty(m - 1)
    beta[0] = 1.0 / (2.0 * (nu + 1.0))
    if m > 2:
        kk = k[1:].astype(float)
        beta[1:] = kk * (kk + 2.0 * nu - 1.0) / (4.0 * (kk + nu) * (kk + nu - 1.0))
    nodes, vecs = eigh_tridiagonal(np.zeros(m), np.sqrt(beta))
    weights = mu0 * vecs[0, :] ** 2
    # enforce exact +/- symmetry
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return nodes, weights
