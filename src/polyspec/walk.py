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
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
# PchipInterpolator is not called here; perfbench's tracer wraps the name
from scipy.interpolate import CubicSpline, PchipInterpolator  # noqa: F401
from scipy.special import ellipkm1, gammaln

from . import quadrature, specfun
from ._memo import build_once
# integrate_adaptive is not called here; perfbench's tracer wraps the name
from .quadrature import (  # noqa: F401
    QuadResult,
    integrate_adaptive,
    integrate_oscillatory_mollified,
    integrate_oscillatory_tail,
)

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

    @property
    def nu(self) -> float:
        return 0.5 * self.d - 1.0


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

    (2 / (pi binom(2nu, nu))) r^(2nu) (4 - r^2)^(nu - 1/2); the central
    binomial of half-integer order goes through log-gamma.
    """
    nu = specfun._validate_dim(d)
    arr = np.asarray(r, dtype=float)
    binom = math.exp(gammaln(2 * nu + 1) - 2 * gammaln(nu + 1))
    inside = (arr > 0) & (arr < 2)
    x = np.where(inside, arr, 1.0)
    vals = 2.0 / (math.pi * binom) * x ** (2 * nu) * (4.0 - x * x) ** (nu - 0.5)
    out = np.where(inside, vals, 0.0)
    return float(out) if arr.ndim == 0 else out


def _psi2(d: int, u: np.ndarray) -> np.ndarray:
    """psi_2 = rho_2 / u^(d-1), the recursion base."""
    u = np.asarray(u, dtype=float)
    inside = (u > 0) & (u < 2)
    x = np.where(inside, u, 1.0)
    return np.where(inside, rho2_closed(d, x) / x ** (d - 1), 0.0)


def _psi3_planar(u) -> np.ndarray:
    """psi^2_3 = p_3(u) / u, the planar three-step density in closed form.

    p_3(x) = 4x / (pi^2 sqrt((3-x)(x+1)^3)) K(m) on (0, 1) and
    sqrt(x) / pi^2 K(m) on (1, 3) (Borwein, Straub, Wan & Zudilin, Canad. J.
    Math. 2012).  K goes through ellipkm1 on the closed-form complement
    1 - m = (1-x)^3 (x+3) / ((3-x)(x+1)^3), resp. (x-1)^3 (x+3) / (16x), which
    keeps full relative accuracy into the log-infinite point x = 1.  There
    1 - m is floored at the smallest normal double: a finite cap on the
    integrable spike, which quadrature nodes do hit exactly.
    """
    u = np.asarray(u, dtype=float)
    inside = (u >= 0) & (u < 3)
    x = np.where(inside, u, 0.5)
    low = x < 1.0
    dist = np.abs(1.0 - x)
    # p_3 = K / (pi^2 sqrt(den)) * (x on (0, 1), sqrt(x) on (1, 3))
    den = np.where(low, (3.0 - x) * (x + 1.0) * (x + 1.0) * (x + 1.0) / 16.0, x)
    one_minus_m = dist * dist * dist * (x + 3.0) / (16.0 * den)
    k = ellipkm1(np.maximum(one_minus_m, np.finfo(float).tiny))
    return np.where(inside, k / (math.pi**2 * np.sqrt(den)), 0.0)


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
    every dimension.  An integral left unconverged with an error above
    100 tol raises NonConvergedError.
    """
    prev = _psi_level(d, n - 1)
    power = float(d - 2)  # 2 nu
    root = 2.0 * np.sqrt(rs)

    def integrand(phi: np.ndarray, k) -> np.ndarray:
        # cancellation-free form of sqrt(1 + 2 r cos(phi) + r^2); the naive
        # expression loses everything below u ~ 1e-8 when r is near 1
        u = np.hypot(1.0 - rs[k], root[k] * np.cos(0.5 * phi))
        return prev(u) * np.sin(phi) ** power if power else prev(u)

    kinks = np.asarray(_psi_kinks(n - 1))
    s = (kinks * kinks - 1.0 - (rs * rs)[:, None]) / (2.0 * rs[:, None])
    with np.errstate(invalid="ignore"):
        splits = np.where((s > -1.0) & (s < 1.0), np.arccos(s), np.nan)
    # the argument grazes the 1/u blow-up of psi_2 at phi = pi when r is near
    # 1; the resulting peak of width |1 - r| hides between quadrature nodes,
    # and the error estimate misses it, so panel it down explicitly.  The
    # levels above psi_2 (the exact planar psi_3, every table) are finite at
    # u = 0, so they have no such peak
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
    return _step_pref(d) * res.value


class _PsiTable:
    """psi^d_n tabulated per unit segment with kink-graded grids.

    Every node of the level is one integral of a single batched engine call;
    a node left unconverged with an error above 100 tol raises
    NonConvergedError.  Each segment is a not-a-knot cubic spline: C^2, so
    the next level's integrand has no derivative jumps for the adaptive
    engine to bisect toward.  The segment ends are 0 and the kinks of psi_n,
    so no spline spans a kink and none rings there.
    """

    def __init__(self, d: int, n: int):
        self.d = d
        self.n = n
        ends = (0.0,) + _psi_kinks(n)
        grids = []
        for lo, hi in zip(ends[:-1], ends[1:]):
            width = hi - lo
            # Chebyshev-type interior nodes plus geometric grading into the
            # segment ends, where the density is merely C^0 across kinks
            base = lo + width * 0.5 * (1.0 - np.cos(np.linspace(0, math.pi, 74)[1:-1]))
            edges = np.concatenate(
                [lo + width * np.geomspace(1e-9, 0.25, 30),
                 hi - width * np.geomspace(1e-9, 0.25, 30)]
            )
            grids.append(np.unique(np.concatenate([base, edges])))
        vals = np.split(_psi_step(d, n, np.concatenate(grids), 1e-9),
                        np.cumsum([len(g) for g in grids])[:-1])
        self.segments = [
            (lo, hi, CubicSpline(pts, v, extrapolate=True))
            for lo, hi, pts, v in zip(ends[:-1], ends[1:], grids, vals)
        ]

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        for lo, hi, interp in self.segments:
            mask = (u >= lo) & (u < hi)
            if mask.any():
                out[mask] = interp(u[mask])
        return np.maximum(out, 0.0)


@build_once
def _psi_level(d: int, n: int):
    """Callable psi^d_n, cached; a table asks for the level below as it builds.

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


def _min_beat_frequency(n: int, r: float) -> float:
    freqs = []
    for k in range(n + 1):
        for s in (-1.0, 1.0):
            f = abs((n - 2 * k) + s * r)
            if f > 1e-9:
                freqs.append(f)
    return min(freqs) if freqs else 1.0


# canonical panels per memoised block of jd(t)^n
_KERNEL_BLOCK_PANELS = 64


@build_once
def _kernel_block(d: int, n: int, width: float, block: int) -> np.ndarray:
    """jd(d, t) ** n on the B = _KERNEL_BLOCK_PANELS canonical panels of this
    width from panel block * B on, 16 entries per panel."""
    k0 = block * _KERNEL_BLOCK_PANELS
    nodes = quadrature.canonical_panel_nodes(width, k0, k0 + _KERNEL_BLOCK_PANELS)[0]
    return specfun.jd(d, nodes.ravel()) ** n


def _kernel_power(d: int, n: int, width: float, t: np.ndarray) -> np.ndarray:
    """specfun.jd(d, t) ** n, bit for bit, shared across Kluyver radii.

    When t are whole panels of the canonical grid of this width (as
    integrate_oscillatory_mollified asks for them), the values are sliced
    from blocks of panels, each built once per (d, n, width, block) and kept
    (_kernel_block); any other t is computed directly, so the blocks only
    ever change speed.
    """
    m, rest = divmod(t.size, 16)
    k0 = math.floor(t[0] / width) if t.ndim == 1 and m and math.isfinite(t[0]) else -1
    if rest or k0 < 0 or not np.array_equal(
        quadrature.canonical_panel_nodes(width, k0, k0 + m)[0].ravel(), t
    ):
        return specfun.jd(d, t) ** n
    b0, b1 = k0 // _KERNEL_BLOCK_PANELS, (k0 + m - 1) // _KERNEL_BLOCK_PANELS
    vals = np.concatenate([_kernel_block(d, n, width, b) for b in range(b0, b1 + 1)])
    start = 16 * (k0 - b0 * _KERNEL_BLOCK_PANELS)
    return vals[start:start + 16 * m]


def density_kluyver(spec: WalkSpec, r: float, tol: float = 1e-8) -> QuadResult:
    """rho^d_n(r) by the oscillatory Bessel-moment integral.

    rho^d_n(r) = (1/((nu!)^2 4^nu)) int_0^inf (t r)^(2nu+1) jd(t r) jd(t)^n dt,
    an improper integral evaluated by mollified truncation on the engine's
    canonical panel grid.  The factor jd(t)^n does not depend on r: it is
    read from blocks shared by every radius with the same (d, n).
    Interior resonances with a non-summable envelope are the
    infinite-density points and come back with status 'divergent'.
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

    # the integrand mixes the incommensurate frequencies |n - 2k +- r|, so
    # sharp-truncation acceleration is unreliable; mollified truncation with
    # Richardson over doubled cutoffs handles every mixture uniformly
    chunks = max(2, int(math.ceil((n + r + 2) / 2.0)))
    width = math.pi / chunks  # the engine's panel width

    def integrand(t: np.ndarray) -> np.ndarray:
        return (t * r) ** (2 * nu + 1) * specfun.jd(d, t * r) * _kernel_power(d, n, width, t)

    res = integrate_oscillatory_mollified(
        integrand, tol * fac, min_frequency=_min_beat_frequency(n, r), chunks_per_period=chunks
    )
    return QuadResult(
        res.value / fac,
        res.abs_error_estimate / fac,
        res.n_evals,
        res.converged,
        status=res.status,
    )


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


def _idq_integrand(d: int, q: int):
    def f(t: np.ndarray) -> np.ndarray:
        return specfun.jd(d, t) ** q * t ** (d - 1)

    return f


def idq(d: int, q: int, route: IdqRoute | str = IdqRoute.DIRECT_INTEGRAL,
        tol: float = 1e-9) -> IdqResult:
    """The moment constant I_q^d with its analytic convergence class.

    Routes: DirectIntegral evaluates the oscillatory integral; RecursionEndpoint
    uses (nu!)^2 4^nu psi^d_{q-1}(1); ClosedForm covers q = 3 and (2, 5).
    Divergent classifications return no value regardless of route; they
    are decided analytically by classify_idq, never numerically.  A direct
    integral left unconverged beyond 100 tol raises NonConvergedError.
    """
    route = IdqRoute(route)
    cls = classify_idq(d, q)
    if cls is Classification.DIVERGENT:
        return IdqResult(d, q, cls, None, None, route)
    if route is IdqRoute.CLOSED_FORM:
        return IdqResult(d, q, cls, idq_closed_form(d, q), 0.0, route)
    fac = _norm_factor(d)
    if route is IdqRoute.RECURSION_ENDPOINT:
        if q == 3:
            val = fac * float(_psi2(d, np.asarray(1.0)))
            return IdqResult(d, q, cls, val, 1e-15 * abs(val), route)
        if q - 1 > MAX_RECURSION_STEPS:
            raise ValueError("recursion endpoint limited to q <= cap + 1")
        rho = density_recursion(WalkSpec(d, q - 1), 1.0)
        val = fac * rho
        return IdqResult(d, q, cls, val, float(_recursion_error(val)), route)
    res = integrate_oscillatory_tail(
        _idq_integrand(d, q),
        tol,
        decay_exponent=(d - 1) * (q / 2.0 - 1.0),
        phase_offset=(d - 1) * math.pi / 4.0,
        chunks_per_period=max(2, (q + 2) // 2),
    )
    quadrature.check_converged(res, tol, f"moment integral (d={d}, q={q})")
    return IdqResult(d, q, cls, res.value, res.abs_error_estimate, route)


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
        errs = np.full_like(grid, 1e-15) * np.abs(vals)
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
