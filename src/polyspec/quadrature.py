"""Generic 1-D integration engines.

Three pieces: an adaptive finite-interval integrator built on an embedded
open Gauss pair (no endpoint evaluations, so integrable inverse-square-root
endpoints need no special handling), an improper oscillatory integrator that
partitions [a, oo) into asymptotic half-periods and accelerates the partial
sums, and Gauss-Jacobi rules for the symmetric weight (1-s^2)^(nu-1/2).
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
    "OscillatoryIntegrand",
    "DivergentIntegralError",
    "NonConvergedError",
    "integrate_adaptive",
    "integrate_oscillatory_tail",
    "integrate_oscillatory_mollified",
    "oscillatory_partial_integrals",
    "gauss_jacobi_symmetric",
]

_X7, _W7 = leggauss(7)
_X15, _W15 = leggauss(15)
_X16, _W16 = leggauss(16)

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


def _panel_values(f, lefts: np.ndarray, rights: np.ndarray, xg, wg):
    """Batched fixed-rule estimates over many panels: one call to f."""
    mid = 0.5 * (lefts + rights)[:, None]
    half = 0.5 * (rights - lefts)[:, None]
    nodes = mid + half * xg[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return half[:, 0] * (vals @ wg)


def _panel_pair(f, lefts, rights, scale):
    """Fine/coarse estimates and error per panel, with a guard for panels so
    narrow that rounding pushes nodes onto an integrable endpoint singularity."""
    fine = _panel_values(f, lefts, rights, _X15, _W15)
    coarse = _panel_values(f, lefts, rights, _X7, _W7)
    errs = np.abs(fine - coarse)
    bad = ~np.isfinite(fine) | ~np.isfinite(coarse)
    if bad.any():
        narrow = (rights - lefts) <= 1e-13 * scale
        if np.any(bad & ~narrow):
            raise ValueError("integrand returned non-finite values on a panel")
        fine = np.where(bad, 0.0, fine)
        errs = np.where(bad, 0.0, errs)
    return fine, errs


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
    converged=False.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("need finite a < b")
    cuts = [a] + sorted(p for p in split_points if a < p < b) + [b]
    edges = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        k = max(1, int(math.ceil(min_panels * (hi - lo) / (b - a))))
        edges.append(np.linspace(lo, hi, k + 1))
    lefts = np.concatenate([e[:-1] for e in edges])
    rights = np.concatenate([e[1:] for e in edges])
    scale = abs(a) + abs(b) + 1.0

    vals, errs = _panel_pair(f, lefts, rights, scale)
    n_evals = 22 * len(lefts)

    while True:
        total = float(vals.sum())
        total_err = float(errs.sum())
        if total_err <= tol:
            return QuadResult(total, total_err, n_evals, True)
        if n_evals >= max_evals:
            return QuadResult(total, total_err, n_evals, False)
        # split the panels carrying most of the error; panels already at
        # rounding width are frozen (their residual error is irreducible)
        splittable = (rights - lefts) > 1e-13 * scale
        if not splittable.any():
            return QuadResult(total, total_err, n_evals, total_err <= tol)
        err_rank = np.where(splittable, errs, -1.0)
        order = np.argsort(err_rank)[::-1]
        order = order[err_rank[order] > 0]
        if len(order) == 0:
            return QuadResult(total, total_err, n_evals, False)
        csum = np.cumsum(errs[order])
        n_split = max(1, int(np.searchsorted(csum, 0.90 * csum[-1])) + 1)
        n_split = min(n_split, len(order), max(1, (max_evals - n_evals) // 44))
        idx = order[:n_split]
        keep = np.ones(len(lefts), dtype=bool)
        keep[idx] = False
        mids = 0.5 * (lefts[idx] + rights[idx])
        new_l = np.concatenate([lefts[idx], mids])
        new_r = np.concatenate([mids, rights[idx]])
        sub_v, sub_e = _panel_pair(f, new_l, new_r, scale)
        vals = np.concatenate([vals[keep], sub_v])
        errs = np.concatenate([errs[keep], sub_e])
        lefts = np.concatenate([lefts[keep], new_l])
        rights = np.concatenate([rights[keep], new_r])
        n_evals += 44 * n_split


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
    xs = np.array(xs)
    tab = np.array(ys)
    prev = tab[0]
    best = (float(prev), np.inf)
    for k in range(1, len(xs)):
        tab = tab[:-1] + (tab[:-1] - tab[1:]) * xs[:len(tab) - 1] / (
            xs[k:] - xs[: len(tab) - 1]
        )
        change = abs(tab[0] - prev)
        if k >= 2 and change < best[1]:
            best = (float(tab[0]), float(change) + 1e-15 * abs(tab[0]))
        prev = tab[0]
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
    """
    p = g.phase_period
    t0 = min(max(12.0 * p, 55.0 / max(min_frequency, 1e-6)), max_t / 2.0**levels)
    width = p / max(1, chunks_per_period)
    vals = []
    xs = []
    plain_total = 0.0
    plain_end = 0.0
    n_evals = 0
    for j in range(levels):
        big_t = t0 * 2.0**j
        n = max(8, int(math.ceil((big_t - plain_end) / width)))
        cuts = np.linspace(plain_end, big_t, n + 1)
        plain_total += float(_panel_values(g.evaluator, cuts[:-1], cuts[1:], _X16, _W16).sum())
        plain_end = big_t
        n_evals += 16 * n

        n2 = max(8, int(math.ceil(big_t / width)))
        cuts = np.linspace(big_t, 2.0 * big_t, n2 + 1)

        def damped(t: np.ndarray, big_t=big_t) -> np.ndarray:
            return np.asarray(g.evaluator(t)) * _smooth_cutoff((t - big_t) / big_t)

        tail = float(_panel_values(damped, cuts[:-1], cuts[1:], _X16, _W16).sum())
        n_evals += 16 * n2
        vals.append(plain_total + tail)
        xs.append(big_t**-0.5)

    # Neville extrapolation to x = 0, anchored at the largest T
    order = np.argsort(xs)
    xs_arr = np.array(xs)[order]
    tab = np.array(vals)[order]
    prev = tab[0]
    best = (float(prev), abs(tab[0] - tab[-1]) if levels > 1 else np.inf)
    for k in range(1, levels):
        tab = tab[:-1] + (tab[:-1] - tab[1:]) * xs_arr[: len(tab) - 1] / (
            xs_arr[k:] - xs_arr[: len(tab) - 1]
        )
        change = abs(tab[0] - prev)
        if change < best[1]:
            best = (float(tab[0]), float(change) + 1e-15 * abs(tab[0]))
        prev = tab[0]
    return QuadResult(best[0], best[1], n_evals, best[1] < tol)


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
