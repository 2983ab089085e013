"""Monte Carlo oracles: Gaussian wave samples, domain quadratures, and
variance estimates of Hermite wave functionals.

Every draw is F z with z standard normal and F F^T the covariance at the
points.  The field picks F: the planar (d = 2, Euclidean) wave takes a
Fourier-Bessel expansion (exact by Graf's addition theorem, linear in the
number of points), every other field a pivoted Cholesky factor with one
column per unit of numerical rank (exact in law for any finite point set).
Trials are drawn in fixed-size chunks with chunk-indexed substreams, so
results are reproducible for a given seed regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import betainc, chdtrc, jv

from . import specfun, walk
from .geometry import BallSpec, Geometry
# integrate_adaptive is not called here; perfbench's tracer wraps the name
from .quadrature import (  # noqa: F401
    check_converged,
    gauss_jacobi_symmetric,
    integrate_adaptive,
    integrate_adaptive_batch,
)
from .variance import FieldSpec, PolyspectrumSpec

__all__ = [
    "QuadratureDomain",
    "MCVariance",
    "CovarianceFactorizationError",
    "build_domain",
    "mc_polyspectrum_variance",
    "mc_walk_density_check",
]

COVARIANCE_POINT_BUDGET = 4096
_TRIAL_CHUNK = 256


class CovarianceFactorizationError(np.linalg.LinAlgError):
    """The covariance is indefinite, so no factor reproduces it."""


def _kernel(spec: FieldSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Covariance of the field between points x and y, broadcast over rows."""
    if spec.geometry == Geometry.EUCLIDEAN:
        diff = x - y
        dist = np.sqrt(np.maximum(np.einsum("...k,...k->...", diff, diff), 0.0))
        return specfun.jd(spec.d, spec.freq * dist)
    gram = np.clip(np.einsum("...k,...k->...", x, y), -1.0, 1.0)
    return specfun.gegenbauer(specfun.GegenbauerSpec(spec.d, spec.ell), gram)


def _covariance(spec: FieldSpec, points: np.ndarray, cols) -> np.ndarray:
    """The covariance columns cols: an n x len(cols) array."""
    return _kernel(spec, points[:, None, :], points[None, cols, :])


def _cholesky_factor(spec: FieldSpec, points: np.ndarray) -> np.ndarray:
    """n x r pivoted Cholesky factor, r the covariance's numerical rank.

    Matrix-free (Harbrecht, Peters & Schneider, Appl. Numer. Math. 2012):
    each step evaluates only the covariance column of the largest residual
    variance, so the work is n (r + 1) kernel values with the diagonal.  It
    stops before column k + 1 once that residual plus the (k + 1) eps
    rounding of a (k + 1)-term F F^T is within n eps max diag, which keeps
    2 ell + 1 columns on S^2 and (ell + 1)^2 on S^3.  An indefinite
    covariance stops it as well, and then F F^T misses a diagonal entry of
    the covariance.
    """
    n = len(points)
    if n > COVARIANCE_POINT_BUDGET:
        raise ValueError(
            f"covariance sampling limited to {COVARIANCE_POINT_BUDGET} points"
        )
    diag = _kernel(spec, points, points)
    scale = np.finfo(float).eps * float(diag.max(initial=0.0))
    res = diag.copy()
    # as in LAPACK's pivoted Cholesky, pivot k swaps into place k, so the factor is
    # lower triangular in pivot order and step k reads only the n - k open
    # rows; its columns are contiguous rows of a k x n array
    perm = np.arange(n)
    rows = np.empty((min(n, 32), n))
    k = 0
    while k < n:
        i = k + int(np.argmax(res[k:]))
        if res[i] <= (n - k - 1) * scale:
            break
        if k == len(rows):
            rows = np.concatenate([rows, np.empty((min(k, n - k), n))])
        for a in (perm, res, rows[:k].T):
            a[[k, i]] = a[[i, k]]
        col = _covariance(spec, points, [perm[k]])[perm[k:], 0]
        # einsum, not BLAS's gemv, whose sums change with its thread count
        col -= np.einsum("i,ij->j", rows[:k, k], rows[:k, k:])
        col /= math.sqrt(res[k])
        res[k:] -= col * col
        rows[k, :k] = 0.0
        rows[k, k:] = col
        k += 1
    out = np.empty((n, k))
    out[perm] = rows[:k].T
    miss = np.abs(np.sum(out * out, axis=1) - diag).max(initial=0.0)
    if miss > 1e-8:
        raise CovarianceFactorizationError(
            f"indefinite covariance: the rank-{k} factor misses a variance by {miss:.2e}")
    return out


def _fourier_bessel_factor(lam: float, points: np.ndarray) -> np.ndarray:
    """Columns J_0(lam r), then sqrt2 J_m(lam r) (cos m theta, sin m theta)
    for m = 1..M, ordered by m so that draws share low-order coefficients.

    By Graf's addition theorem F F^T = J_0(lam |x - y|) on any point set.
    J_m(x) decays faster than geometrically for m > x + O(x^(1/3)), so with
    x = lam max r the neglected variance 2 sum_{m > M} J_m^2 is below rounding.
    """
    r = np.hypot(points[:, 0], points[:, 1])
    theta = np.arctan2(points[:, 1], points[:, 0])
    x = lam * float(r.max(initial=0.0))
    M = math.ceil(x + 10.0 * max(x, 1.0) ** (1.0 / 3.0)) + 10
    # the largest Cholesky factor the point budget allows bounds the memory
    if len(points) * (2 * M + 1) > COVARIANCE_POINT_BUDGET**2:
        raise ValueError(f"Fourier-Bessel factor {len(points)} x {2 * M + 1}"
                         f" exceeds {COVARIANCE_POINT_BUDGET}^2 entries")
    r_u, inv = np.unique(r, return_inverse=True)
    bessel = jv(np.arange(M + 1), lam * r_u[:, None])[inv]
    m_theta = np.arange(1, M + 1) * theta[:, None]
    out = np.empty((len(points), 2 * M + 1))
    out[:, 0] = bessel[:, 0]
    out[:, 1::2] = math.sqrt(2.0) * bessel[:, 1:] * np.cos(m_theta)
    out[:, 2::2] = math.sqrt(2.0) * bessel[:, 1:] * np.sin(m_theta)
    return out


def _factor(spec: FieldSpec, points: np.ndarray) -> np.ndarray:
    """F with F F^T the covariance of the field at the points."""
    if spec.geometry == Geometry.EUCLIDEAN and spec.d == 2:
        return _fourier_bessel_factor(spec.freq, points)
    return _cholesky_factor(spec, points)


@dataclass
class QuadratureDomain:
    ball: BallSpec
    points: np.ndarray
    weights: np.ndarray

    @property
    def volume(self) -> float:
        return float(self.weights.sum())


def _lift(c: np.ndarray | None, s: np.ndarray, w: np.ndarray, x: np.ndarray, v: np.ndarray):
    """Product of a 1-D rule (c_i, s_i, w_i) and a sphere rule (x, v): points
    (c_i, s_i x) and weights w_i v; c is None for the ball, which has no
    first coordinate."""
    pts = s[:, None, None] * x[None, :, :]
    if c is not None:
        first = np.broadcast_to(c[:, None, None], pts.shape[:2] + (1,))
        pts = np.concatenate([first, pts], axis=2)
    return pts.reshape(-1, pts.shape[2]), (w[:, None] * v[None, :]).ravel()


def _sphere_rule(m: int, n_polar: int, n_azimuth: int):
    """Product quadrature on the unit sphere S^m in R^(m+1), m >= 1."""
    if m == 1:
        ang = 2.0 * math.pi * (np.arange(n_azimuth) + 0.5) / n_azimuth
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
        return pts, np.full(n_azimuth, 2.0 * math.pi / n_azimuth)
    # colatitude measure sin^(m-1) dtheta = (1-t^2)^((m-2)/2) dt, the
    # symmetric Jacobi weight of order nu = (m-1)/2
    t, tw = gauss_jacobi_symmetric(0.5 * (m - 1), n_polar)
    s = np.sqrt(np.maximum(1.0 - t * t, 0.0))
    return _lift(t, s, tw, *_sphere_rule(m - 1, n_polar, n_azimuth))


def build_domain(geometry: Geometry, d: int, R: float, resolution: int) -> QuadratureDomain:
    """Positive-weight product quadrature over a ball or geodesic cap.

    Euclidean: Gauss-Legendre radii against r^(d-1) times a product rule on
    S^(d-1).  Spherical: Gauss-Legendre colatitudes against sin(theta)^(d-1)
    times the same angular rule, with points embedded in R^(d+1).  Weights
    sum to the domain volume.
    """
    ball = BallSpec(Geometry(geometry), d, R)  # validates d and R
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    if 4 * resolution**d > COVARIANCE_POINT_BUDGET**2:  # refused before it is built
        raise ValueError(f"resolution {resolution} gives 4 * {resolution}^{d} points;"
                         f" no factor draws more than {COVARIANCE_POINT_BUDGET}^2")
    x, wx = leggauss(resolution)
    sph = _sphere_rule(d - 1, resolution, 4 * resolution)
    a = 0.5 * R * (x + 1.0)  # radius or colatitude
    if ball.geometry == Geometry.EUCLIDEAN:
        pts, w = _lift(None, a, 0.5 * R * wx * a ** (d - 1), *sph)
    else:
        pts, w = _lift(np.cos(a), np.sin(a), 0.5 * R * wx * np.sin(a) ** (d - 1), *sph)
    return QuadratureDomain(ball, pts, w)


@dataclass
class MCVariance:
    trials: int
    estimate: float
    ci95: tuple[float, float]
    seed: int

    def __post_init__(self) -> None:
        lo, hi = self.ci95
        if not lo <= self.estimate <= hi:
            raise ValueError("confidence interval must bracket the estimate")


def mc_polyspectrum_variance(spec: PolyspectrumSpec, seed: int,
                             domain: QuadratureDomain, trials: int) -> MCVariance:
    """Sample variance of int_D H_q(field) over independent draws of
    spec.field, on a domain over spec's ball (else ValueError).

    The 95% interval uses the normal approximation for the variance of
    i.i.d. functionals with the fourth-moment correction.  Deterministic
    for a fixed seed: trials are partitioned into fixed chunks with
    chunk-indexed substreams.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    if domain.ball != spec.ball:
        raise ValueError(f"domain ball {domain.ball} is not the spec's ball {spec.ball}")
    factor = _factor(spec.field, domain.points)
    vals = np.empty(trials)
    for idx, start in enumerate(range(0, trials, _TRIAL_CHUNK)):
        m = min(_TRIAL_CHUNK, trials - start)
        rng = np.random.default_rng([seed, 1_000_000 + idx])
        fields = factor @ rng.standard_normal((factor.shape[1], m))
        vals[start:start + m] = domain.weights @ specfun.hermite(spec.q, fields)
    est = float(np.var(vals, ddof=1))
    centered = vals - vals.mean()
    m4 = float(np.mean(centered**4))
    var_of_var = max(m4 - est**2 * (trials - 3) / (trials - 1), 0.0) / trials
    half = 1.959963984540054 * math.sqrt(var_of_var)
    return MCVariance(trials, est, (est - half, est + half), seed)


def _bin_masses(spec: walk.WalkSpec, edges: np.ndarray) -> np.ndarray:
    """Analytic probability mass of the walk radius in each bin.

    For two steps r^2 / 4 is Beta((d-1)/2, (d-1)/2), the law sample_walk
    draws, so the masses are differences of its distribution function (the
    quadrature of rho_2 stalled at its inverse-square-root end at d = 2).
    """
    d, n = spec.d, spec.n
    if n == 2:
        a = 0.5 * (d - 1)
        return np.diff(betainc(a, a, edges**2 / 4.0))
    tab = walk._psi_level(d, n)
    res = integrate_adaptive_batch(
        lambda r, k: tab(r) * r ** (d - 1), edges[:-1], edges[1:], 1e-9,
        split_points=[walk._psi_kinks(n)], max_evals=200_000,
    )
    check_converged(res, 1e-9, "bin mass quadrature")
    return res.value


def mc_walk_density_check(spec: walk.WalkSpec, n_samples: int, bins: int,
                          seed: int = 42):
    """Chi-square goodness of fit of sampled walk radii against the density.

    Equal-width bins over the support; bins whose expected count falls below
    10 are merged into their neighbor (this also absorbs the registered
    infinite-density point of the planar 3-step walk), and at least 2 must
    remain.  Returns (chi2, pvalue).
    """
    if spec.n < 2:
        raise ValueError("density routes need n >= 2 (a single step has unit radius)")
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples")
    if n_samples < 10 * bins:
        raise ValueError("expected counts below 10: too many bins for the sample size")
    radii = walk.sample_walk(spec, n_samples, seed)
    edges = np.linspace(0.0, float(spec.n), bins + 1)
    counts, _ = np.histogram(radii, edges)
    expected = n_samples * _bin_masses(spec, edges)
    # merge under-populated or singular bins into the left neighbor
    singular = [r for r in walk.SINGULAR_INTERIOR_POINTS.get((spec.d, spec.n), ())]
    keep_counts, keep_exp = [], []
    carry_c, carry_e = 0.0, 0.0
    for i in range(bins):
        carry_c += counts[i]
        carry_e += expected[i]
        boundary_singular = any(
            edges[i] <= r0 <= edges[i + 1] + 1e-12 for r0 in singular
        )
        if carry_e >= 10.0 and not boundary_singular:
            keep_counts.append(carry_c)
            keep_exp.append(carry_e)
            carry_c, carry_e = 0.0, 0.0
    if carry_e > 0:
        if not keep_exp:
            raise ValueError("expected counts below 10 in every bin")
        keep_counts[-1] += carry_c
        keep_exp[-1] += carry_e
    counts_arr = np.array(keep_counts)
    exp_arr = np.array(keep_exp)
    if np.any(exp_arr < 10.0):
        raise ValueError("expected counts below 10 after merging")
    if len(exp_arr) < 2:  # one bin leaves the test no degree of freedom
        raise ValueError(f"need at least 2 bins after merging, got {len(exp_arr)}")
    exp_arr *= counts_arr.sum() / exp_arr.sum()
    stat = float(np.sum((counts_arr - exp_arr) ** 2 / exp_arr))
    dof = len(exp_arr) - 1
    return stat, float(chdtrc(dof, stat))
