"""Radial densities of uniform random flights and the constants they govern.

A flight of n unit steps, each uniform on S^(d-1), has radius density
rho^d_n supported on (0, n).  Four evaluation routes are provided: the
closed form at n = 2, the Bessel-moment integral (all n >= 2), a recursion
that lowers n by averaging the previous density over a sphere of directions,
and a Monte Carlo histogram of sampled radii.  The wave-moment constants

    I_q^d = int_0^infty jd(t)^q t^(d-1) dt

equal (nu!)^2 4^nu rho^d_{q-1}(1) whenever they converge, which ties them to
the same density machinery and yields an independent second route.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import ellipkm1, gammaln

from . import quadrature, specfun
from ._memo import build_once
from .quadrature import QuadResult, integrate_adaptive

# placeholders: perfbench's tracer wraps these names on this module, and
# nothing calls them (drop each with its tracer target)
integrate_oscillatory_mollified = integrate_oscillatory_tail = PchipInterpolator = None

__all__ = [
    "WalkSpec",
    "DensityRoute",
    "Classification",
    "IdqRoute",
    "DensityCurve",
    "IdqResult",
    "SingularProximityWarning",
    "SINGULAR_INTERIOR_POINTS",
    "rho2_closed",
    "density_kluyver",
    "density_recursion",
    "classify_idq",
    "idq",
    "idq_closed_form",
    "idq_value",
    "sample_walk",
    "density_curve",
    "density_on_grid",
]

MAX_RECURSION_STEPS = 8
SINGULAR_WARNING_RADIUS = 1e-3
# walks drawn by the Monte Carlo density route
MC_DENSITY_SAMPLES = 1_000_000
# rounding bar of the closed forms, per unit |value|: against 40-digit
# mpmath, I_3^d (d = 2..10) is at most 2.6 eps off, I_5^2 3.3 eps and rho_2
# on (0, 2) 4.5 eps (d = 2..10); 16 eps leaves a margin of 3.5
_CLOSED_FORM_BAR = 16.0 * quadrature._EPS

# interior points where the density is infinite: the planar three-step walk
# at unit radius is the only one (larger n smooths it away)
SINGULAR_INTERIOR_POINTS = {(2, 3): (1.0,)}


class SingularProximityWarning(UserWarning):
    """A density was evaluated near one of its singular radii."""


class DensityRoute(str, Enum):
    CLOSED_FORM2 = "ClosedForm2"
    KLUYVER = "Kluyver"
    RECURSION = "Recursion"
    MONTE_CARLO = "MonteCarlo"


class Classification(str, Enum):
    ABSOLUTE = "Absolute"
    CONDITIONAL = "Conditional"
    DIVERGENT = "Divergent"


class IdqRoute(str, Enum):
    DIRECT_INTEGRAL = "DirectIntegral"
    RECURSION_ENDPOINT = "RecursionEndpoint"
    CLOSED_FORM = "ClosedForm"


@dataclass(frozen=True)
class WalkSpec:
    d: int
    n: int

    def __post_init__(self) -> None:
        specfun._validate_dim(self.d)
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"step count must be an integer >= 1, got {self.n}")


@dataclass
class DensityCurve:
    spec: WalkSpec
    grid: np.ndarray
    values: np.ndarray
    route: DensityRoute
    error: np.ndarray


@dataclass
class IdqResult:
    d: int
    q: int
    classification: Classification
    value: float | None
    error: float | None
    route: IdqRoute


def _norm_factor(d: int) -> float:
    """(nu!)^2 4^nu for nu = d/2 - 1."""
    nu = 0.5 * d - 1.0
    return math.exp(2.0 * gammaln(nu + 1.0)) * 4.0**nu


def rho2_closed(d: int, r):
    """Radius density of the two-step flight on (0, 2), zero outside.

    (2 / (pi binom(2nu, nu))) r^(2nu) ((2 - r)(2 + r))^(nu - 1/2): 2 - r is
    exact next to r = 2, where 4 - r^2 would lose digits to the rounding of
    r^2.  The central binomial of half-integer order goes through log-gamma.
    """
    nu = specfun._validate_dim(d)
    arr = np.asarray(r, dtype=float)
    binom = math.exp(gammaln(2 * nu + 1) - 2 * gammaln(nu + 1))
    inside = (arr > 0) & (arr < 2)
    x = np.where(inside, arr, 1.0)
    vals = 2.0 / (math.pi * binom) * x ** (2 * nu) * ((2.0 - x) * (2.0 + x)) ** (nu - 0.5)
    out = np.where(inside, vals, 0.0)
    return float(out) if arr.ndim == 0 else out


def _psi2(d: int, u: np.ndarray) -> np.ndarray:
    """psi_2 = rho_2 / u^(d-1), the recursion base."""
    u = np.asarray(u, dtype=float)
    inside = (u > 0) & (u < 2)
    x = np.where(inside, u, 1.0)
    return np.where(inside, rho2_closed(d, x) / x ** (d - 1), 0.0)


def _psi3_planar(u, one_minus_u=None) -> np.ndarray:
    """psi^2_3 = p_3(u) / u, the planar three-step density in closed form.

    p_3(x) = 4x / (pi^2 sqrt((3-x)(x+1)^3)) K(m) on (0, 1) and
    sqrt(x) / pi^2 K(m) on (1, 3) (Borwein, Straub, Wan & Zudilin, Canad. J.
    Math. 2012).  K goes through ellipkm1 on the closed-form complement
    1 - m = (1-x)^3 (x+3) / ((3-x)(x+1)^3), resp. (x-1)^3 (x+3) / (16x), which
    keeps full relative accuracy into the log-infinite point x = 1 as long
    as 1 - x does: a caller that forms u near 1 from a small offset passes
    one_minus_u, the signed 1 - u computed without cancellation, in place
    of 1.0 - u.  1 - m is floored at the smallest normal double: a finite
    cap on the integrable spike, which quadrature nodes do hit exactly.
    """
    u = np.asarray(u, dtype=float)
    inside = (u >= 0) & (u < 3)
    x = np.where(inside, u, 0.5)
    off = 1.0 - x if one_minus_u is None else np.where(inside, one_minus_u, 0.5)
    low = off > 0.0
    dist = np.abs(off)
    # p_3 = K / (pi^2 sqrt(den)) * (x on (0, 1), sqrt(x) on (1, 3))
    den = np.where(low, (3.0 - x) * (x + 1.0) * (x + 1.0) * (x + 1.0) / 16.0, x)
    one_minus_m = dist * dist * dist * (x + 3.0) / (16.0 * den)
    k = ellipkm1(np.maximum(one_minus_m, np.finfo(float).tiny))
    return np.where(inside, k / (math.pi**2 * np.sqrt(den)), 0.0)


# c of the planar psi_3's log spike at u = 1, psi_3(u) ~ -c ln|1 - u|: the
# limit 1/pi^2 of _psi3_planar's prefactor times the 3/2 of K's ln((1 - u)^-3)
_PLANAR_LOG_SPIKE = 1.5 / math.pi**2


def _step_pref(d: int) -> float:
    """(nu!)^2 4^nu / (pi (2nu)!), the prefactor of one recursion step."""
    return _norm_factor(d) / (math.pi * math.exp(gammaln(d - 1.0)))


def _psi_kinks(n: int) -> tuple[float, ...]:
    """The radii where psi^d_n fails to be analytic, in any dimension.

    psi_2 is integrably singular at u = 2 for d = 2 and jumps there for
    d = 3; above it they are the integer lattice of sub-flight supports,
    which includes the log-infinite point of the planar 3-step.
    """
    return (2.0,) if n == 2 else tuple(float(k) for k in range(1, n + 1))


def _recursion_error(vals):
    """The recursion route's error bar, fixed by hand and not measured; inf
    at an infinite density."""
    return 1e-6 * np.abs(vals) + 1e-9


def _psi_step(d: int, n: int, rs: np.ndarray, tol: float) -> np.ndarray:
    """psi^d_n at each radius in rs, by one batched step from level n - 1.

    In the angle variable the step reads

        psi_n(r) = pref int_0^pi psi_{n-1}(sqrt(1 + 2 r cos(phi) + r^2))
                   sin(phi)^(2 nu) dphi,

    pref = _step_pref(d).  All radii go into one integrate_adaptive_batch
    call; row k of its splits holds the angles where the argument at rs[k]
    crosses a kink radius of the previous level (NaN where it does not).
    For radii within 0.1 of 1, a geometric ladder of splits into phi = pi is
    added when the previous level is psi_2 (n = 3), which is ~1/u at u = 0 in
    every dimension.  The step from the exact planar psi_3 hands it the
    offset 1 - u computed without cancellation, since psi_3 is log-infinite
    at u = 1, ~ -c ln|1 - u| with c = _PLANAR_LOG_SPIKE.  That step
    integrates psi_3 + c ln|u^2 - 1|, bounded at u = 1, and subtracts the
    closed form c int_0^pi ln|r (r + 2 cos(phi))| dphi = c pi (ln r +
    arccosh(max(r/2, 1))).  An integral left unconverged with an error
    above 100 tol raises NonConvergedError.
    """
    prev = _psi_level(d, n - 1)
    power = float(d - 2)  # 2 nu
    root = 2.0 * np.sqrt(rs)
    kinks = np.asarray(_psi_kinks(n - 1))
    s = (kinks * kinks - 1.0 - (rs * rs)[:, None]) / (2.0 * rs[:, None])
    with np.errstate(invalid="ignore"):
        splits = np.where((s > -1.0) & (s < 1.0), np.arccos(s), np.nan)
    # the first kink is u = 1, crossed at phi_1 = arccos(-r/2) when r < 2
    phi1 = splits[:, 0]

    def integrand(phi: np.ndarray, k) -> np.ndarray:
        # cancellation-free form of sqrt(1 + 2 r cos(phi) + r^2); the naive
        # expression loses everything below u ~ 1e-8 when r is near 1
        u = np.hypot(1.0 - rs[k], root[k] * np.cos(0.5 * phi))
        if (d, n) != (2, 4):
            return prev(u) * np.sin(phi) ** power if power else prev(u)
        # the log spike of the planar psi_3 at u = 1 drowns in the rounding
        # of 1.0 - u when r is small (u - 1 ~ r cos(phi)), so form u^2 - 1 =
        # r (r + 2 cos(phi)) without cancellation: -4 r sin((phi + phi_1)/2)
        # sin((phi - phi_1)/2) for r < 2, r ((r - 2) + 4 cos(phi/2)^2) above
        r = rs[k]
        sq = np.where(
            r < 2.0,
            -4.0 * r * np.sin(0.5 * (phi + phi1[k])) * np.sin(0.5 * (phi - phi1[k])),
            r * ((r - 2.0) + 4.0 * np.cos(0.5 * phi) ** 2),
        )
        return prev(u, -sq / (1.0 + u)) + _PLANAR_LOG_SPIKE * np.log(np.abs(sq))

    # the argument grazes the 1/u blow-up of psi_2 at phi = pi when r is near
    # 1; the resulting peak of width |1 - r| hides between quadrature nodes,
    # and the error estimate misses it, so panel it down explicitly.  The
    # levels above psi_2 are finite at u = 0, except the planar psi_4 table,
    # which is only log-infinite there (psi_4(u) ~ -3 ln(u) / (2 pi^2)) and
    # converges without a ladder
    u_min = np.abs(1.0 - rs)
    near = u_min < 0.1
    if n == 3 and near.any():
        ladder = np.full((len(rs), 30), np.nan)
        ladder[near] = math.pi - np.geomspace(
            np.maximum(u_min[near], 1e-11) * 0.5, 1.0, 30, axis=-1
        )
        splits = np.concatenate([splits, ladder], axis=1)
    # looked up on the module, so a wrapper installed there sees the call
    res = quadrature.integrate_adaptive_batch(
        integrand, 0.0, math.pi, tol, split_points=splits, max_evals=400_000
    )
    quadrature.check_converged(res, tol, f"psi recursion step (d={d}, n={n})")
    if (d, n) != (2, 4):
        return _step_pref(d) * res.value
    spike = math.pi * (np.log(rs) + np.arccosh(np.maximum(0.5 * rs, 1.0)))
    return _step_pref(d) * (res.value - _PLANAR_LOG_SPIKE * spike)


# the grid of one unit segment of a psi table: Chebyshev-type interior nodes
# plus geometric grading into the ends, where the density is merely C^0
# across kinks.  Rounded to multiples of 2^-50, so k + node is exact below 8
# and a table evaluated at its own nodes reads its spline's knots
_UNIT_NODES = np.unique(np.round(2.0**50 * np.concatenate([
    0.5 * (1.0 - np.cos(np.linspace(0, math.pi, 74)[1:-1])),
    np.geomspace(1e-9, 0.25, 30),
    1.0 - np.geomspace(1e-9, 0.25, 30),
])) / 2.0**50)


def _spline_coef(y: np.ndarray) -> np.ndarray:
    """The not-a-knot cubic spline through each column of y at _UNIT_NODES,
    laid out as _PsiTable.coef with one segment per column."""
    x = _UNIT_NODES
    h = np.diff(x)
    dx = h[:, None]
    slope = np.diff(y, axis=0) / dx
    # the knot slopes of every column solve one tridiagonal system: the
    # second derivative continuous at the interior nodes, the third at
    # the second and the second-to-last (not-a-knot).  Rows and order of
    # operations follow scipy's not-a-knot spline, whose coefficients
    # these match bit for bit (the oracle in tests/test_walk.py)
    ab = np.zeros((3, len(x)))  # upper, main and lower diagonal
    ab[0, 1], ab[0, 2:] = x[2] - x[0], h[:-1]
    ab[1, 0], ab[1, 1:-1], ab[1, -1] = h[1], 2 * (h[:-1] + h[1:]), h[-2]
    ab[2, :-2], ab[2, -2] = h[1:], x[-1] - x[-3]
    rhs = np.empty_like(y)
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    w = x[2] - x[0]
    rhs[0] = ((h[0] + 2 * w) * h[1] * slope[0] + h[0] ** 2 * slope[1]) / w
    w = x[-1] - x[-3]
    rhs[-1] = (h[-1] ** 2 * slope[-2] + (2 * w + h[-1]) * h[-2] * slope[-1]) / w
    s = solve_banded((1, 1), ab, rhs, overwrite_ab=True, overwrite_b=True,
                     check_finite=False)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]]
                    ).transpose(0, 2, 1).reshape(4, -1)


class _PsiTable:
    """psi^d_n (n >= 3) on the unit segments [k, k + 1), k < n, whose ends are
    its kinks: a not-a-knot cubic spline on _UNIT_NODES per segment, so no
    segment spans a kink, and within one the next level's integrand has no
    derivative jumps (C^2) for the adaptive engine to bisect toward.

    Segments are fit on first read: a read fits the missing leading segments
    [0, floor(max u) + 1) under the table's lock, their nodes in one batched
    engine call, which reads the level below and so may fit its segments
    under its own lock (locks go from level n to n - 1 only).  Node
    integrals and spline columns are independent, so a table fit in pieces
    equals one fit at once bit for bit.  A node left unconverged with an
    error above 100 tol raises NonConvergedError.
    """

    def __init__(self, d: int, n: int):
        self.d, self.n = d, n
        # row p holds the coefficients of power 3 - p; entry
        # k (len(_UNIT_NODES) - 1) + i belongs to interval i of segment k
        self.coef = np.zeros((4, n * (len(_UNIT_NODES) - 1)))
        self._fit = 0  # segments [0, _fit) hold their coefficients
        self._lock = threading.Lock()

    def _fit_segments(self, top: int) -> None:
        """Fit segments [_fit, top), unless another thread fit them first."""
        with self._lock:
            lo = self._fit
            if top <= lo:
                return
            rs = (np.arange(lo, top)[:, None] + _UNIT_NODES).ravel()
            # column k holds segment lo + k at the nodes
            y = _psi_step(self.d, self.n, rs, 1e-9).reshape(top - lo, -1).T
            m = len(_UNIT_NODES) - 1
            self.coef[:, lo * m:top * m] = _spline_coef(y)
            self._fit = top  # set last: a reader that sees it sees the coefficients

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        inside = (u >= 0.0) & (u < self.n)
        v = np.where(inside, u, 0.0).ravel()
        k = np.floor(v)
        top = int(np.max(k, where=inside.ravel(), initial=-1.0)) + 1
        if top > self._fit:
            self._fit_segments(top)
        v = v - k
        # interval i of the grid holds v; the clip to the end intervals
        # extends their cubics over the gaps within 1e-9 of a kink
        i = np.searchsorted(_UNIT_NODES[1:-1], v, "right")
        j = k.astype(np.intp) * (len(_UNIT_NODES) - 1) + i
        v = v - _UNIT_NODES[i]
        c0, c1, c2, c3 = self.coef
        out = ((c0.take(j) * v + c1.take(j)) * v + c2.take(j)) * v + c3.take(j)
        out = out.reshape(u.shape)
        return np.maximum(np.where(inside, out, 0.0), 0.0)


@build_once
def _psi_level(d: int, n: int):
    """Callable psi^d_n, cached; a table is built empty and fit as it is read.

    The planar 3-step level is the exact density, so the planar tables
    start from n = 4.
    """
    if n == 2:
        return lambda u: _psi2(d, u)
    if (d, n) == (2, 3):
        return _psi3_planar
    return _PsiTable(d, n)


def _at_singular_point(d: int, n: int, r) -> np.ndarray:
    """True where r lies within 1e-12 of a registered infinite-density radius."""
    r = np.asarray(r, dtype=float)
    hit = np.zeros(r.shape, dtype=bool)
    for r0 in SINGULAR_INTERIOR_POINTS.get((d, n), ()):
        hit |= np.abs(r - r0) < 1e-12
    return hit


def density_recursion(spec: WalkSpec, r):
    """rho^d_n(r) through the n -> n-1 recursion, n between 3 and the cap.

    r is a radius or an array of radii; every radius strictly inside the
    support goes into one batched step, split at the kink crossings of the
    previous level.  The planar three-step density is the closed form
    _psi3_planar, not a step.  Registered infinite-density points return inf.
    """
    d, n = spec.d, spec.n
    if not 3 <= n <= MAX_RECURSION_STEPS:
        raise ValueError(f"recursion supports 3 <= n <= {MAX_RECURSION_STEPS}")
    arr = np.asarray(r, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("radius must not be NaN")
    out = np.zeros(arr.shape)
    singular = _at_singular_point(d, n, arr)
    out[singular] = math.inf
    todo = (arr > 0) & (arr < n) & ~singular
    rs = arr[todo]
    if (d, n) == (2, 3):
        near = rs[np.abs(rs - 1.0) < SINGULAR_WARNING_RADIUS]
        if near.size:
            warnings.warn(
                f"planar three-step density evaluated within {SINGULAR_WARNING_RADIUS:g}"
                f" of its singular radius (d={d}, r={near[0]})",
                SingularProximityWarning,
                stacklevel=2,
            )
        out[todo] = rs * _psi3_planar(rs)
    elif rs.size:
        out[todo] = _psi_step(d, n, rs, 1e-10) * rs ** (d - 1)
    return float(out) if arr.ndim == 0 else out


# the first cutoff of the Kluyver head when Hankel's series of jd
# terminates (odd d, below d = 31): the tail is then exact in exact
# arithmetic, and pi measured within 2.2e-16 of Rayleigh-Treloar at (3, 5)
# on half the head evaluations of 2 pi.  In floats the series' terms cancel
# once nu n grows (a tail bar of 5.8e-6 at (13, 4), r = 1), so the cutoff
# doubles until the tail's bar is a quarter of tol.  Elsewhere the head
# ends where t and r t are both past the series' seam, at T = max(seam,
# seam / r), until r seam falls below _KLUYVER_TAYLOR_REACH (r = 0.05 up
# to d = 8); from there on the head ends at the seam and the small-radius
# tail takes over.  At r = 0.05 its _KLUYVER_TAYLOR_TERMS Taylor terms of
# x^(2nu+1) jd(x) met rho2_closed, the p_4 oracle and the T = seam / r
# route at (2..6, 2..6) within 1e-15 on 440-840 evaluations (the T = seam
# / r route: 2,200-14,000; 300,000 at r = 0.002); at r = 0.1 the omitted
# term put 2e-9 on the bar
_KLUYVER_EXACT_CUTOFF = math.pi
_KLUYVER_TAYLOR_REACH = 2.0
_KLUYVER_TAYLOR_TERMS = 12


@build_once
def _kluyver_table(d: int, n: int):
    """The r-free part of the Kluyver tail, built once per (d, n).

    jd(t) = nu! 2^nu t^(-nu) (2 pi t)^(-1/2) (H(1/t) e^(i(t - phi)) + conj)
    with H(y) = sum_k a_k (i y)^k (the a_k of specfun._hankel_terms) and
    phi = (2 nu + 1) pi/4.  Returns (seam, exact, h, g): h holds the
    coefficients of H, and row k of g those of binom(n, k) e^(-i (n - 2k)
    phi) H^(n-k) conj(H)^k, the harmonic e^(i (n - 2k) t) of jd(t)^n, both
    to order top.  Where the series terminates (exact) top is the degree of
    the whole product, so nothing is truncated; else top = _HANKEL_TERMS,
    whose order is left out of the sum and bounds what is.
    """
    seam, a = specfun._hankel_terms(0.5 * d - 1.0)[:2]
    exact = a[-1] == 0.0
    top = (n + 1) * int(np.flatnonzero(a)[-1]) if exact else len(a) - 1
    h = np.zeros(top + 1, dtype=complex)
    m = min(len(a), top + 1)
    h[:m] = np.asarray(a[:m]) * 1j ** np.arange(m)
    g = np.zeros((n + 1, top + 1), dtype=complex)
    g[:, 0] = [math.comb(n, k) * np.exp(-1j * (n - 2 * k) * (d - 1) * math.pi / 4.0)
               for k in range(n + 1)]
    # every row takes one factor per step, H for its first n - k steps and
    # conj(H) after, all rows in the same array operations.  One product of
    # the powers H^(n-k) and conj(H^k) per row would be cheaper, but its
    # sums cancel: at (7, 59) it put 2.7e-16 on a tail of 2.3e-19.
    terms = int(np.flatnonzero(h)[-1]) + 1
    k = np.arange(n + 1)[:, None]
    for step in range(n):
        factor = np.where(step < n - k, h[:terms], h[:terms].conj())
        prev = g.copy()
        g *= factor[:, :1]
        for i in range(1, terms):
            g[:, i:] += factor[:, i:i + 1] * prev[:, :-i]
    return seam, exact, h, g


def _kluyver_harmonics(d: int, n: int, r: float):
    """The Kluyver integrand past the seam as harmonics t^(-s) e^(i omega t).

    Multiplying out Hankel's series of jd(t)^n and jd(r t), the integrand is
    pref Re sum_(k, j) coef[k, j] t^(-s_j) e^(i omega_k t) with omega_k =
    n - 2k + r, s_j = s0 + j, s0 = (n - 1)(d - 1)/2 (the conjugate terms
    carry the frequencies n - 2k - r).  Returns (pref, omega, s, coef,
    summed): orders j < summed are the series, and coef[:, summed] (when
    the series does not terminate) is the first order left out.
    """
    _, exact, h, g = _kluyver_table(d, n)
    top = h.size - 1
    nu = 0.5 * d - 1.0
    # H(1/(r t)): order m scales by r^-m
    f = h * r ** -np.arange(top + 1.0) * np.exp(-1j * (d - 1) * math.pi / 4.0)
    coef = np.array([np.convolve(f, row)[:top + 1] for row in g])
    pref = 2.0 * _norm_factor(d) ** (0.5 * (n + 1)) * r ** (nu + 0.5) / (2.0 * math.pi) ** (0.5 * (n + 1))
    omega = n - 2.0 * np.arange(n + 1) + r
    s = 0.5 * (n - 1) * (d - 1) + np.arange(top + 1.0)
    return pref, omega, s, coef, top + 1 if exact else top


def _kluyver_tail(d: int, n: int, r: float, big_t: float, rows=slice(None)):
    """int_T^oo (t r)^(2nu+1) jd(t r) jd(t)^n dt, and its error.

    Each harmonic's tail is closed-form (quadrature.power_exp_tail).  The
    error adds the tails' own bounds, the rounding floor eps sum |terms|
    and, where Hankel's series does not terminate, the first omitted order
    bounded by its envelope, sum_k |coef| T^(1-s) / (s - 1).  rows keeps
    only those harmonics k of jd(t)^n.
    """
    pref, omega, s, coef, summed = _kluyver_harmonics(d, n, r)
    omega, coef = omega[rows], coef[rows]
    tails, bounds = quadrature.power_exp_tail(s[:summed], omega[:, None], big_t)
    terms = coef[:, :summed] * tails
    err = np.sum(np.abs(coef[:, :summed]) * bounds) + quadrature._EPS * np.sum(np.abs(terms))
    if summed < s.size:
        cut = s[summed]
        err += np.sum(np.abs(coef[:, summed])) * big_t ** (1.0 - cut) / (cut - 1.0)
    return pref * float(np.sum(terms).real), pref * float(err)


def _kluyver_small_radius_tail(d: int, n: int, r: float, tol: float):
    """int_T^oo (t r)^(2nu+1) jd(t r) jd(t)^n dt from the seam T at even d
    and r T < _KLUYVER_TAYLOR_REACH, with its error and evaluations.

    Only jd(t)^n is expanded: jd(t)^n = A t^(-sigma) sum_(k, j) b[k, j]
    t^(-j) e^(i (n - 2k) t), sigma = n (nu + 1/2), A = (nu! 2^nu)^n
    (2 pi)^(-n/2).  On the harmonics with n - 2k != 0 the Taylor series
    G(x) = x^(2nu+1) jd(x) = sum_m g_m x^(2nu+1+2m) is integrated term by
    term: its m-th term gives power_exp_tail at s = sigma + j - 2nu - 1 - 2m,
    the Abel limit where s <= 0, and the series converges since G is of
    exponential type r < |n - 2k|.  The resonant harmonic n = 2k goes to
    the adaptive engine up to seam / r (tolerance tol), where r t passes the
    seam, and to _kluyver_tail from there.  The error adds the engine's,
    the tails' bounds, the rounding floor, the first omitted Taylor term
    and the first omitted order of jd(t)^n bounded through |G(x)| <= x^(2nu+1).
    """
    seam, _, _, g = _kluyver_table(d, n)
    nu = 0.5 * d - 1.0
    order = g.shape[1] - 1  # the first omitted order of jd(t)^n
    sigma = n * (nu + 0.5)
    b = (_norm_factor(d) / (2.0 * math.pi)) ** (0.5 * n) * g
    m = np.arange(_KLUYVER_TAYLOR_TERMS + 1)
    g_m = (-1.0) ** m * np.exp(gammaln(nu + 1.0) - gammaln(m + 1.0) - gammaln(m + nu + 1.0)) / 4.0**m
    omega = n - 2.0 * np.arange(n + 1)
    wave = omega != 0.0
    j = np.arange(order)
    tails, bounds = quadrature.power_exp_tail(
        sigma + j[:, None] - 2.0 * nu - 1.0 - 2.0 * m, omega[wave, None, None], seam)
    coef = b[wave, :order, None] * (g_m * r ** (2.0 * nu + 1.0 + 2.0 * m))
    terms = coef * tails
    value = float(np.sum(terms[..., :-1]).real)
    err = float(np.sum(np.abs(coef) * bounds) + np.sum(np.abs(terms[..., -1]))
                + quadrature._EPS * np.sum(np.abs(terms)))
    err += (np.sum(np.abs(b[:, order])) * r ** (2.0 * nu + 1.0)
            * seam ** (2.0 * nu + 2.0 - sigma - order) / (sigma + order - 2.0 * nu - 2.0))
    evals = 0
    if n % 2 == 0:
        row = b[n // 2, :order].real

        def resonant(t: np.ndarray) -> np.ndarray:
            tr = t * r
            powers = t[:, None] ** -(sigma + j)
            return tr ** (2.0 * nu + 1.0) * specfun.jd(d, tr) * (powers @ row)

        end = seam / r
        mid = integrate_adaptive(resonant, seam, end, tol,
                                 split_points=seam * 2.0 ** np.arange(1.0, math.log2(end / seam)))
        far, far_err = _kluyver_tail(d, n, r, end, rows=[n // 2])
        value += mid.value + far
        err += mid.abs_error_estimate + far_err
        evals = mid.n_evals
    return value, err, evals


def density_kluyver(spec: WalkSpec, r: float, tol: float = 1e-8) -> QuadResult:
    """rho^d_n(r) by the oscillatory Bessel-moment integral.

    rho^d_n(r) = (1/((nu!)^2 4^nu)) int_0^inf (t r)^(2nu+1) jd(t r) jd(t)^n dt,
    split at a cutoff T.  The head int_0^T goes to the adaptive engine on
    exact jd values.  Past T, Hankel's expansion (DLMF 10.17.3) turns the
    integrand into a finite sum of harmonics t^(-s) e^(i omega t), omega =
    n - 2k +- r and s = (n - 1)(d - 1)/2 + j, and each harmonic's tail is
    T^(1-s) E_s(-i omega T) in closed form.  At odd d below 31 the series
    terminates and the tail is exact up to rounding: T is the first of pi,
    2 pi, 4 pi, .. whose tail bar is at most tol / 4, or the first past the
    seam; else T = max(seam, seam / r), so that t and r t are both past the
    seam of the series.  Below r seam = _KLUYVER_TAYLOR_REACH the head ends
    at the seam and only jd(t)^n is expanded there
    (_kluyver_small_radius_tail).  The error bar adds the head engine's
    estimate, the tails' own bounds, the rounding floor eps sum |terms| and
    the first omitted Hankel (and Taylor) order; converged means bar < tol.
    Registered infinite-density points come back with status 'divergent'.
    """
    d, n = spec.d, spec.n
    if n < 2:
        raise ValueError("the density integral needs n >= 2")
    if not r > 0:
        raise ValueError(f"radius must be > 0, got {r}")
    if r >= n:
        return QuadResult(0.0, 0.0, 0, True)
    if _at_singular_point(d, n, r):
        return QuadResult(math.inf, math.inf, 0, False, status="divergent")
    nu = 0.5 * d - 1.0
    fac = _norm_factor(d)
    seam, exact = _kluyver_table(d, n)[:2]
    small = not exact and r * seam < _KLUYVER_TAYLOR_REACH
    tail_evals = 0
    if small:
        big_t = seam
        tail, tail_err, tail_evals = _kluyver_small_radius_tail(d, n, r, 0.25 * tol * fac)
    else:
        big_t = _KLUYVER_EXACT_CUTOFF if exact else max(seam, seam / r)
        tail, tail_err = _kluyver_tail(d, n, r, big_t)
        while exact and tail_err > 0.25 * tol * fac and big_t < seam:
            big_t *= 2.0
            tail, tail_err = _kluyver_tail(d, n, r, big_t)

    def integrand(t: np.ndarray) -> np.ndarray:
        kernel = specfun.jd(d, t)
        # at r = 1 (every idq) the two kernels are one
        inner = kernel if r == 1.0 else specfun.jd(d, t * r)
        return (t * r) ** (2.0 * nu + 1.0) * inner * kernel ** n

    # the head starts on one panel per period of its fastest harmonic, n + r,
    # refused past the engine's default budget, which it runs on
    splits = quadrature.period_splits(0.0, big_t, n + r, quadrature._MAX_EVALS)
    head = integrate_adaptive(integrand, 0.0, big_t, 0.5 * tol * fac, split_points=splits)
    err = (head.abs_error_estimate + tail_err + quadrature._EPS * abs(head.value)) / fac
    return QuadResult((head.value + tail) / fac, err, head.n_evals + tail_evals, err < tol)


def classify_idq(d: int, q: int) -> Classification:
    """Convergence class of the q-th wave-kernel moment in dimension d.

    Divergent for q = 2 (non-decaying mean part) and for (2, 4) (log);
    conditional for (2, 3) and (3, 3); absolutely convergent whenever the
    envelope decays faster than 1/t, i.e. (d-1)(q/2 - 1) > 1.
    """
    specfun._validate_dim(d)
    if int(q) != q or q < 2:
        raise ValueError(f"moment order must be an integer >= 2, got {q}")
    if q == 2 or (d, q) == (2, 4):
        return Classification.DIVERGENT
    if (d, q) in ((2, 3), (3, 3)):
        return Classification.CONDITIONAL
    return Classification.ABSOLUTE


def idq_closed_form(d: int, q: int) -> float:
    """Exact values: the q = 3 product formula for every d, and (d, q) = (2, 5)."""
    nu = specfun._validate_dim(d)
    if q == 3:
        return (
            2.0
            / (math.pi * math.sqrt(3.0))
            * 12.0**nu
            * math.exp(4.0 * gammaln(nu + 1.0) - gammaln(2.0 * nu + 1.0))
        )
    if (d, q) == (2, 5):
        lg = sum(gammaln(f / 15.0) for f in (1.0, 2.0, 4.0, 8.0))
        return math.sqrt(5.0) * math.exp(lg) / (40.0 * math.pi**4)
    raise ValueError(f"no closed form for (d, q) = ({d}, {q})")


def idq_value(d: int, q: int, tol: float) -> float | None:
    """I_q^d by its closed form where idq_closed_form has one, else by the
    direct integral at tol; None for a divergent moment."""
    try:
        return idq_closed_form(d, q)
    except ValueError:
        return idq(d, q, IdqRoute.DIRECT_INTEGRAL, tol).value


def idq(d: int, q: int, route: IdqRoute | str = IdqRoute.DIRECT_INTEGRAL,
        tol: float = 1e-9) -> IdqResult:
    """The moment constant I_q^d with its analytic convergence class.

    Routes: DirectIntegral is (nu!)^2 4^nu density_kluyver at q - 1 steps
    and r = 1, its bar that factor times the density's plus 4 eps |value|;
    RecursionEndpoint uses (nu!)^2 4^nu psi^d_{q-1}(1); ClosedForm covers
    q = 3 and (2, 5).  Closed-form values, q = 3 by recursion too, carry
    the rounding bar _CLOSED_FORM_BAR |value|.
    Divergent classifications return no value regardless of route; they
    are decided analytically by classify_idq, never numerically.  A direct
    integral left unconverged beyond 100 tol raises NonConvergedError.
    """
    route = IdqRoute(route)
    cls = classify_idq(d, q)
    if cls is Classification.DIVERGENT:
        return IdqResult(d, q, cls, None, None, route)
    if route is IdqRoute.CLOSED_FORM:
        val = idq_closed_form(d, q)
        return IdqResult(d, q, cls, val, _CLOSED_FORM_BAR * abs(val), route)
    fac = _norm_factor(d)
    if route is IdqRoute.RECURSION_ENDPOINT:
        if q == 3:
            val = fac * float(_psi2(d, np.asarray(1.0)))
            return IdqResult(d, q, cls, val, _CLOSED_FORM_BAR * abs(val), route)
        if q - 1 > MAX_RECURSION_STEPS:
            raise ValueError("recursion endpoint limited to q <= cap + 1")
        rho = density_recursion(WalkSpec(d, q - 1), 1.0)
        val = fac * rho
        return IdqResult(d, q, cls, val, float(_recursion_error(val)), route)
    res = density_kluyver(WalkSpec(d, q - 1), 1.0, tol / fac)
    val = fac * res.value
    err = fac * res.abs_error_estimate + 4.0 * quadrature._EPS * abs(val)
    quadrature.check_converged(QuadResult(val, err, res.n_evals, err < tol), tol,
                               f"moment integral (d={d}, q={q})")
    return IdqResult(d, q, cls, val, err, route)


def sample_walk(spec: WalkSpec, n_samples: int, seed: int) -> np.ndarray:
    """Radii of n-step uniform flights, one per sample.

    Only the radius is drawn.  Step k has cosine t_k with the running sum,
    so r_k^2 = r_(k-1)^2 + 1 + 2 r_(k-1) t_k from r_1 = 1.  By rotational
    invariance t_k is i.i.d. and independent of r_(k-1), with the law of one
    coordinate of a uniform point on S^(d-1): t = 2B - 1, B ~ Beta((d-1)/2,
    (d-1)/2).  At d = 3 that law is uniform on [-1, 1] (Archimedes' hat-box
    theorem), drawn directly because numpy's beta(1, 1) takes a slow
    rejection path.  Samples are generated in fixed-size chunks with
    chunk-indexed substreams, so the output is reproducible for a given seed
    independently of how chunks are scheduled.
    """
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    a = 0.5 * (spec.d - 1)
    out = np.empty(n_samples)
    chunk = 1 << 16
    for idx, start in enumerate(range(0, n_samples, chunk)):
        m = min(chunk, n_samples - start)
        rng = np.random.default_rng([seed, idx])
        r = np.ones(m)
        for _ in range(spec.n - 1):
            if spec.d == 3:
                t = rng.uniform(-1.0, 1.0, m)
            else:
                t = 2.0 * rng.beta(a, a, m) - 1.0
            r = np.sqrt(np.maximum(r * r + 1.0 + 2.0 * r * t, 0.0))
        out[start:start + m] = r
    return out


def density_on_grid(spec: WalkSpec, grid: np.ndarray, route: DensityRoute,
                    seed: int = 42, tol: float = 1e-8):
    """Density values and per-point error estimates on a grid of radii."""
    grid = np.asarray(grid, dtype=float)
    if route is DensityRoute.CLOSED_FORM2:
        if spec.n != 2:
            raise ValueError("closed form applies to n = 2 only")
        vals = rho2_closed(spec.d, grid)
        errs = _CLOSED_FORM_BAR * np.abs(vals)
    elif route is DensityRoute.KLUYVER:
        vals, errs = np.empty_like(grid), np.empty_like(grid)
        for i, r in enumerate(grid):
            res = density_kluyver(spec, float(r), tol)
            if res.status != "divergent":  # divergent: an infinite-density point
                quadrature.check_converged(res, tol, f"density integral at r={r:g}")
            vals[i] = res.value
            errs[i] = res.abs_error_estimate
    elif route is DensityRoute.RECURSION:
        vals = density_recursion(spec, grid)
        errs = _recursion_error(vals)
    elif route is DensityRoute.MONTE_CARLO:
        radii = np.sort(sample_walk(spec, MC_DENSITY_SAMPLES, seed))
        # bins between grid midpoints; a lone point gets a fixed width
        widths = np.gradient(grid) if len(grid) > 1 else np.array([min(0.05, spec.n / 10)])
        lo = np.maximum(0.0, grid - widths / 2)
        hi = np.minimum(float(spec.n), grid + widths / 2)
        # radii in the half-open bin [lo, hi); past the support (r > n) the
        # density is 0 with error 0
        inside = grid <= spec.n
        count = np.where(inside, np.searchsorted(radii, hi) - np.searchsorted(radii, lo), 0)
        scale = MC_DENSITY_SAMPLES * np.where(inside, hi - lo, math.inf)
        vals = count / scale
        errs = np.sqrt(np.maximum(count, 1)) / scale
    else:
        raise ValueError(f"unknown route {route}")
    return vals, errs


def density_curve(spec: WalkSpec, r_min: float, r_max: float, points: int,
                  route: DensityRoute | str, seed: int = 42,
                  tol: float = 1e-8) -> DensityCurve:
    """Tabulated density over an inclusive radius range."""
    route = DensityRoute(route)
    if spec.n < 2:
        raise ValueError("density routes need n >= 2 (a single step has unit radius)")
    if not (0 <= r_min < r_max < math.inf):
        raise ValueError("need 0 <= r_min < r_max < inf")
    if points < 1:
        raise ValueError(f"need points >= 1, got {points}")
    grid = np.linspace(r_min, r_max, points)
    grid = grid[grid > 0] if r_min == 0 else grid
    if not grid.size:
        raise ValueError("no radius left once r = 0 is dropped; need points >= 2")
    vals, errs = density_on_grid(spec, grid, route, seed=seed, tol=tol)
    return DensityCurve(spec, grid, vals, route, errs)
