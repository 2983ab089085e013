"""Radial densities of uniform random flights and the constants they govern.

A flight of n unit steps, each uniform on S^(d-1), has radius density
rho^d_n supported on (0, n).  Three evaluation routes are provided: the
closed form at n = 2, the oscillatory Bessel-moment integral (valid for all
n >= 2), and a fixed-point recursion that lowers n by averaging the previous
density over a sphere of directions.  The wave-moment constants

    I_q^d = int_0^infty jd(t)^q t^(d-1) dt

equal (nu!)^2 4^nu rho^d_{q-1}(1) whenever they converge, which ties them to
the same density machinery and yields an independent second route.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import gammaln

from . import quadrature, specfun
from .quadrature import (
    NonConvergedError,
    OscillatoryIntegrand,
    QuadResult,
    integrate_adaptive,
    integrate_oscillatory_mollified,
    integrate_oscillatory_tail,
    oscillatory_partial_integrals,
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
    "idq_partial_integrals",
    "sample_walk",
    "density_curve",
    "density_on_grid",
]

MAX_RECURSION_STEPS = 8
SINGULAR_WARNING_RADIUS = 1e-3

# interior points where the density is infinite: the planar three-step walk
# at unit radius is the only one (larger n smooths it away)
SINGULAR_INTERIOR_POINTS = {(2, 3): (1.0,)}


class SingularProximityWarning(UserWarning):
    """The recursion base was evaluated near one of its singular radii."""


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


def _psi_integral(d: int, prev, prev_kinks, r: float, tol: float) -> float:
    """One recursion step: average psi_{n-1} over step directions.

    In the angle variable the step reads

        psi_n(r) = pref int_0^pi psi_{n-1}(sqrt(1 + 2 r cos(phi) + r^2))
                   sin(phi)^(2 nu) dphi,

    pref = (nu!)^2 4^nu / (pi (2nu)!); the integrand is split at the angles
    where the argument crosses a kink radius of the previous level.
    """
    nu = 0.5 * d - 1.0
    pref = _norm_factor(d) / (math.pi * math.exp(gammaln(2 * nu + 1)))

    def integrand(phi: np.ndarray) -> np.ndarray:
        # cancellation-free form of sqrt(1 + 2 r cos(phi) + r^2); the naive
        # expression loses everything below u ~ 1e-8 when r is near 1
        c = np.cos(0.5 * phi)
        u = np.hypot(1.0 - r, 2.0 * math.sqrt(r) * c)
        return prev(u) * np.sin(phi) ** (2.0 * nu)

    splits = []
    for u0 in prev_kinks:
        s = (u0 * u0 - 1.0 - r * r) / (2.0 * r)
        if -1.0 < s < 1.0:
            splits.append(math.acos(s))
    # for d = 2 the argument grazes the 1/u blow-up of the density kernel at
    # phi = pi when r is near 1; the resulting peak of width |1 - r| hides
    # between quadrature nodes, so panel it down explicitly
    u_min = abs(1.0 - r)
    if d == 2 and u_min < 0.1:
        ladder = math.pi - np.geomspace(max(u_min, 1e-11) * 0.5, 1.0, 30)
        splits.extend(float(x) for x in ladder if 0.0 < x < math.pi)
    res = integrate_adaptive(
        integrand, 0.0, math.pi, tol, split_points=splits, max_evals=400_000
    )
    return pref * res.value


class _PsiTable:
    """psi^d_n tabulated per unit segment with kink-graded grids.

    A registered logarithmic spike (the planar 3-step walk at unit radius)
    is subtracted before interpolation with a coefficient fitted from the
    innermost graded nodes, and restored analytically on evaluation: the
    remainder is interpolation-friendly while the spike itself is exact.
    """

    def __init__(self, d: int, n: int, prev, prev_kinks, tol: float = 1e-9):
        self.d = d
        self.n = n
        self.segments = []
        spike = SINGULAR_INTERIOR_POINTS.get((d, n), (None,))[0]
        for k in range(n):
            lo, hi = float(k), float(k + 1)
            width = hi - lo
            # Chebyshev-type interior nodes plus geometric grading into the
            # segment ends, where the density is merely C^0 across kinks
            base = lo + width * 0.5 * (1.0 - np.cos(np.linspace(0, math.pi, 74)[1:-1]))
            edges = np.concatenate(
                [lo + width * np.geomspace(1e-9, 0.25, 30),
                 hi - width * np.geomspace(1e-9, 0.25, 30)]
            )
            pts = np.unique(np.concatenate([base, edges]))
            vals = np.array([_psi_integral(d, prev, prev_kinks, float(r), tol) for r in pts])
            log_amp = 0.0
            if spike is not None and (abs(lo - spike) < 1e-12 or abs(hi - spike) < 1e-12):
                delta = np.abs(pts - spike)
                i1, i2 = np.argsort(delta)[:2]
                log_amp = (vals[i1] - vals[i2]) / math.log(delta[i2] / delta[i1])
                vals = vals - log_amp * np.log(1.0 / delta)
            self.segments.append(
                (lo, hi, PchipInterpolator(pts, vals, extrapolate=True), log_amp, spike)
            )

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        for lo, hi, interp, log_amp, spike in self.segments:
            mask = (u >= lo) & (u < hi)
            if mask.any():
                vals = interp(u[mask])
                if log_amp:
                    vals = vals + log_amp * np.log(
                        1.0 / np.maximum(np.abs(u[mask] - spike), 1e-300)
                    )
                out[mask] = vals
        return np.maximum(out, 0.0)


@lru_cache(maxsize=None)
def _psi_level(d: int, n: int):
    """Callable psi^d_n plus its kink list, built bottom-up and cached.

    The kinks are the radii where psi^d_n fails to be analytic.  psi_2 is
    integrably singular at u = 2 for d = 2 and jumps there for d = 3; above
    it they are the integer lattice of sub-flight supports, which includes
    the log-infinite point of the planar 3-step.
    """
    if n == 2:
        return (lambda u: _psi2(d, u)), (2.0,)
    prev, prev_kinks = _psi_level(d, n - 1)
    table = _PsiTable(d, n, prev, prev_kinks)
    return table, tuple(float(k) for k in range(1, n + 1))


def density_recursion(spec: WalkSpec, r: float, m_nodes: int = 64) -> float:
    """rho^d_n(r) through the n -> n-1 recursion, n between 3 and the cap.

    The direction average uses the symmetric Gauss-Jacobi rule when the
    argument path stays inside a single analytic piece of the previous level;
    otherwise the integral is split at the kink crossings and refined
    adaptively.  Registered infinite-density points return inf.
    """
    d, n = spec.d, spec.n
    if not 3 <= n <= MAX_RECURSION_STEPS:
        raise ValueError(f"recursion supports 3 <= n <= {MAX_RECURSION_STEPS}")
    if not 0 < r < n:
        return 0.0
    for r0 in SINGULAR_INTERIOR_POINTS.get((d, n), ()):
        if abs(r - r0) < 1e-12:
            return math.inf
    prev, prev_kinks = _psi_level(d, n - 1)
    lo, hi = abs(1.0 - r), 1.0 + r
    clear = all(not (lo - 0.05 < k < hi + 0.05) for k in prev_kinks) and lo > 0.05
    if clear and n > 3:
        near = min(abs(r - r0) for r0 in SINGULAR_INTERIOR_POINTS.get((d, n - 1), (math.inf,)))
        clear = near > 0.05
    if clear:
        nu = 0.5 * d - 1.0
        # looked up on the module, so a wrapper installed there (perfbench's
        # tracer) also sees this call
        s, w = quadrature.gauss_jacobi_symmetric(nu, m_nodes)
        u = np.sqrt((1.0 - r) ** 2 + 2.0 * r * (1.0 + s))
        pref = _norm_factor(d) / (math.pi * math.exp(gammaln(2 * nu + 1)))
        psi = pref * float(np.dot(w, prev(u)))
    else:
        # the d = 2 base blows up (integrably) at u = 2; grazing it with the
        # path endpoint is the approach to the infinite-density point
        if d == 2 and n == 3 and abs(r - 1.0) < SINGULAR_WARNING_RADIUS:
            warnings.warn(
                f"recursion base evaluated within {SINGULAR_WARNING_RADIUS:g} of its"
                f" singular radius (d={d}, r={r})",
                SingularProximityWarning,
                stacklevel=2,
            )
        psi = _psi_integral(d, prev, prev_kinks, float(r), 1e-10)
    return psi * r ** (d - 1)


def _resonant_frequency(n: int, r: float) -> bool:
    """True when some product harmonic of the moment integrand is constant."""
    for k in range(n + 1):
        if abs(abs(n - 2 * k) - r) < 1e-12:
            return True
    return False


def _min_beat_frequency(n: int, r: float) -> float:
    freqs = []
    for k in range(n + 1):
        for s in (-1.0, 1.0):
            f = abs((n - 2 * k) + s * r)
            if f > 1e-9:
                freqs.append(f)
    return min(freqs) if freqs else 1.0


def density_kluyver(spec: WalkSpec, r: float, tol: float = 1e-8) -> QuadResult:
    """rho^d_n(r) by the oscillatory Bessel-moment integral.

    rho^d_n(r) = (1/((nu!)^2 4^nu)) int_0^inf (t r)^(2nu+1) jd(t r) jd(t)^n dt,
    an improper integral evaluated by inter-zero partial sums plus sequence
    acceleration.  Interior resonances with a non-summable envelope are the
    infinite-density points and come back with status 'divergent'.
    """
    d, n = spec.d, spec.n
    if n < 2:
        raise ValueError("the density integral needs n >= 2")
    if r <= 0:
        raise ValueError("radius must be > 0")
    if r >= n:
        return QuadResult(0.0, 0.0, 0, True)
    nu = 0.5 * d - 1.0
    fac = _norm_factor(d)
    alpha = (d - 1) * (n - 1) / 2.0

    def integrand(t: np.ndarray) -> np.ndarray:
        return (t * r) ** (2 * nu + 1) * specfun.jd(d, t * r) * specfun.jd(d, t) ** n

    if _resonant_frequency(n, r) and alpha <= 1.0 + 1e-12:
        return QuadResult(math.inf, math.inf, 0, False, status="divergent")

    # the integrand mixes the incommensurate frequencies |n - 2k +- r|, so
    # sharp-truncation acceleration is unreliable; mollified truncation with
    # Richardson over doubled cutoffs handles every mixture uniformly
    chunks = max(2, int(math.ceil((n + r + 2) / 2.0)))
    g = OscillatoryIntegrand(
        integrand,
        decay_exponent=alpha,
        phase_period=math.pi,
        phase_offset=(d - 1) * math.pi / 4.0,
    )
    res = integrate_oscillatory_mollified(
        g, tol * fac, min_frequency=_min_beat_frequency(n, r), chunks_per_period=chunks
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
    if int(d) != d or d < 2 or int(q) != q or q < 2:
        raise ValueError("need integers d >= 2, q >= 2")
    if q == 2 or (d, q) == (2, 4):
        return Classification.DIVERGENT
    if (d, q) in ((2, 3), (3, 3)):
        return Classification.CONDITIONAL
    return Classification.ABSOLUTE


def idq_closed_form(d: int, q: int) -> float:
    """Exact values: the q = 3 product formula for every d, and (d, q) = (2, 5)."""
    nu = 0.5 * d - 1.0
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


def _idq_integrand(d: int, q: int):
    def f(t: np.ndarray) -> np.ndarray:
        return specfun.jd(d, t) ** q * t ** (d - 1)

    return f


def idq(d: int, q: int, route: IdqRoute | str = IdqRoute.DIRECT_INTEGRAL,
        tol: float = 1e-9) -> IdqResult:
    """The moment constant I_q^d with its analytic convergence class.

    Routes: DirectIntegral evaluates the oscillatory integral; RecursionEndpoint
    uses (nu!)^2 4^nu psi^d_{q-1}(1); ClosedForm covers q = 3 and (2, 5).
    Divergent classifications return no value regardless of route.
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
        return IdqResult(d, q, cls, val, 1e-6 * abs(val) + 1e-9, route)
    alpha = (d - 1) * (q / 2.0 - 1.0)
    g = OscillatoryIntegrand(
        _idq_integrand(d, q),
        decay_exponent=alpha,
        phase_period=math.pi,
        phase_offset=(d - 1) * math.pi / 4.0,
    )
    res = integrate_oscillatory_tail(g, 0.0, tol, chunks_per_period=max(2, (q + 2) // 2))
    if res.status == "divergent":
        return IdqResult(d, q, Classification.DIVERGENT, None, None, route)
    return IdqResult(d, q, cls, res.value, res.abs_error_estimate, route)


def idq_partial_integrals(d: int, q: int, t_values) -> np.ndarray:
    """Cumulative moment integrals int_0^T jd^q t^(d-1) dt over a grid of T."""
    g = OscillatoryIntegrand(
        _idq_integrand(d, q),
        decay_exponent=(d - 1) * (q / 2.0 - 1.0),
        phase_period=math.pi,
    )
    return oscillatory_partial_integrals(g, 0.0, t_values, chunks_per_period=max(2, q))


def sample_walk(spec: WalkSpec, n_samples: int, seed: int) -> np.ndarray:
    """Radii of n-step uniform flights, one per sample.

    Steps are Gaussian vectors normalized to the unit sphere (rejection-free
    in every dimension).  Samples are generated in fixed-size chunks with
    chunk-indexed substreams, so the output is reproducible for a given seed
    independently of how chunks are scheduled.
    """
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    out = np.empty(n_samples)
    chunk = 1 << 16
    for idx, start in enumerate(range(0, n_samples, chunk)):
        m = min(chunk, n_samples - start)
        rng = np.random.default_rng([seed, idx])
        acc = np.zeros((m, spec.d))
        for _ in range(spec.n):
            g = rng.standard_normal((m, spec.d))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            acc += g
        out[start:start + m] = np.linalg.norm(acc, axis=1)
    return out


def density_on_grid(spec: WalkSpec, grid: np.ndarray, route: DensityRoute,
                    seed: int = 42, tol: float = 1e-8,
                    mc_samples: int = 1_000_000):
    """Density values and per-point error estimates on a grid of radii."""
    grid = np.asarray(grid, dtype=float)
    vals = np.empty_like(grid)
    errs = np.zeros_like(grid)
    if route is DensityRoute.CLOSED_FORM2:
        if spec.n != 2:
            raise ValueError("closed form applies to n = 2 only")
        vals = rho2_closed(spec.d, grid)
        errs = np.full_like(grid, 1e-15) * np.abs(vals)
    elif route is DensityRoute.KLUYVER:
        for i, r in enumerate(grid):
            res = density_kluyver(spec, float(r), tol)
            if res.status == "non_converged" and res.abs_error_estimate > 100 * tol:
                raise NonConvergedError(
                    f"density integral failed to converge at r={r:g}"
                    f" (estimate error {res.abs_error_estimate:.2e})"
                )
            vals[i] = res.value if res.status != "divergent" else math.inf
            errs[i] = res.abs_error_estimate
    elif route is DensityRoute.RECURSION:
        for i, r in enumerate(grid):
            vals[i] = density_recursion(spec, float(r))
            errs[i] = 1e-6 * abs(vals[i]) + 1e-9 if math.isfinite(vals[i]) else math.inf
    elif route is DensityRoute.MONTE_CARLO:
        radii = sample_walk(spec, mc_samples, seed)
        if len(grid) > 1:
            widths = np.empty_like(grid)
            widths[1:-1] = 0.5 * (grid[2:] - grid[:-2])
            widths[0] = grid[1] - grid[0]
            widths[-1] = grid[-1] - grid[-2]
        else:
            widths = np.array([min(0.05, spec.n / 10)])
        for i, (r, w) in enumerate(zip(grid, widths)):
            lo, hi = max(0.0, r - w / 2), min(float(spec.n), r + w / 2)
            count = int(np.count_nonzero((radii >= lo) & (radii < hi)))
            vals[i] = count / (mc_samples * (hi - lo))
            errs[i] = math.sqrt(max(count, 1)) / (mc_samples * (hi - lo))
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
    if not (0 <= r_min < r_max):
        raise ValueError("need 0 <= r_min < r_max")
    grid = np.linspace(r_min, r_max, points)
    grid = grid[grid > 0] if r_min == 0 else grid
    vals, errs = density_on_grid(spec, grid, route, seed=seed, tol=tol)
    return DensityCurve(spec, grid, vals, route, errs)
