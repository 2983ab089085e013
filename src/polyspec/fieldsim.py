"""Monte Carlo oracles: Gaussian wave samples, domain quadratures, and
variance estimates of Hermite wave functionals.

Every draw is F z with z standard normal and F F^T the covariance at the
points.  The field picks F: the planar (d = 2, Euclidean) wave takes a
Fourier-Bessel expansion (exact by Graf's addition theorem, linear in the
number of points), every other field a dense Cholesky factorization (exact
in law for any finite point set).  Trials are drawn in fixed-size chunks
with chunk-indexed substreams, so results are reproducible for a given seed
regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import chdtrc, jv

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
    "FieldSampler",
    "QuadratureDomain",
    "MCVariance",
    "CovarianceFactorizationError",
    "build_domain",
    "mc_polyspectrum_variance",
    "mc_walk_density_check",
]

COVARIANCE_POINT_BUDGET = 4096
_NUGGET_LADDER = (0.0, 1e-12, 1e-10, 1e-8)
_TRIAL_CHUNK = 256


class CovarianceFactorizationError(np.linalg.LinAlgError):
    """Covariance factorization failed even at the maximum nugget."""


@dataclass(frozen=True)
class FieldSampler:
    """A Gaussian wave field and the seed of its random substreams."""

    spec: FieldSpec
    seed: int


def _covariance_matrix(spec: FieldSpec, points: np.ndarray) -> np.ndarray:
    if spec.geometry == Geometry.EUCLIDEAN:
        diff = points[:, None, :] - points[None, :, :]
        dist = np.sqrt(np.maximum(np.einsum("ijk,ijk->ij", diff, diff), 0.0))
        return specfun.jd(spec.d, spec.freq * dist)
    gram = np.clip(points @ points.T, -1.0, 1.0)
    gspec = specfun.GegenbauerSpec(spec.d, spec.ell)
    return specfun.gegenbauer(gspec, gram)


def _cholesky_factor(spec: FieldSpec, points: np.ndarray) -> np.ndarray:
    if len(points) > COVARIANCE_POINT_BUDGET:
        raise ValueError(
            f"covariance sampling limited to {COVARIANCE_POINT_BUDGET} points"
        )
    cov = _covariance_matrix(spec, points)
    for nug in _NUGGET_LADDER:
        try:
            return np.linalg.cholesky(cov + nug * np.eye(len(cov)))
        except np.linalg.LinAlgError:
            continue
    eigmin = float(np.linalg.eigvalsh(cov).min())
    raise CovarianceFactorizationError(
        f"covariance not factorizable at nugget {_NUGGET_LADDER[-1]:g};"
        f" smallest eigenvalue ~ {eigmin:.3e}"
    )


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
    bessel = jv(np.arange(M + 1), lam * r[:, None])
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
    geometry: Geometry
    d: int
    R: float
    points: np.ndarray
    weights: np.ndarray

    @property
    def volume(self) -> float:
        return float(self.weights.sum())


def _sphere_rule(m: int, n_polar: int, n_azimuth: int):
    """Product quadrature on the unit sphere S^m in R^(m+1)."""
    if m == 0:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if m == 1:
        ang = 2.0 * math.pi * (np.arange(n_azimuth) + 0.5) / n_azimuth
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
        return pts, np.full(n_azimuth, 2.0 * math.pi / n_azimuth)
    sub_pts, sub_w = _sphere_rule(m - 1, n_polar, n_azimuth)
    # colatitude measure sin^(m-1) dtheta = (1-t^2)^((m-2)/2) dt, the
    # symmetric Jacobi weight of order nu = (m-1)/2
    t, tw = gauss_jacobi_symmetric(0.5 * (m - 1), n_polar)
    s = np.sqrt(np.maximum(1.0 - t * t, 0.0))
    pts = np.concatenate(
        [
            np.column_stack(
                [np.full(len(sub_pts), ti), si * sub_pts]
            )
            for ti, si in zip(t, s)
        ]
    )
    w = np.concatenate([wi * sub_w for wi in tw])
    return pts, w


def build_domain(geometry: Geometry, d: int, R: float, resolution: int) -> QuadratureDomain:
    """Positive-weight product quadrature over a ball or geodesic cap.

    Euclidean: Gauss-Legendre radii against r^(d-1) times a product rule on
    S^(d-1).  Spherical: Gauss-Legendre colatitudes against sin(theta)^(d-1)
    times the same angular rule, with points embedded in R^(d+1).  Weights
    sum to the domain volume.
    """
    geometry = Geometry(geometry)
    BallSpec(geometry, d, R)  # validates d and R
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    n_azimuth = 4 * resolution
    x, wx = leggauss(resolution)
    if geometry == Geometry.EUCLIDEAN:
        r = 0.5 * R * (x + 1.0)
        wr = 0.5 * R * wx * r ** (d - 1)
        sph, sw = _sphere_rule(d - 1, resolution, n_azimuth)
        pts = (r[:, None, None] * sph[None, :, :]).reshape(-1, d)
        w = (wr[:, None] * sw[None, :]).ravel()
    else:
        theta = 0.5 * R * (x + 1.0)
        wt = 0.5 * R * wx * np.sin(theta) ** (d - 1)
        sph, sw = _sphere_rule(d - 1, resolution, n_azimuth)
        pts = np.concatenate(
            [
                np.column_stack(
                    [np.full(len(sph), math.cos(t)), math.sin(t) * sph]
                )
                for t in theta
            ]
        )
        w = (wt[:, None] * sw[None, :]).ravel()
    return QuadratureDomain(geometry, d, R, pts, w)


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


def mc_polyspectrum_variance(spec: PolyspectrumSpec, sampler: FieldSampler,
                             domain: QuadratureDomain, trials: int) -> MCVariance:
    """Sample variance of int_D H_q(field) over independent field draws.

    The 95% interval uses the normal approximation for the variance of
    i.i.d. functionals with the fourth-moment correction.  Deterministic
    for a fixed seed: trials are partitioned into fixed chunks with
    chunk-indexed substreams.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    factor = _factor(sampler.spec, domain.points)
    vals = np.empty(trials)
    for idx, start in enumerate(range(0, trials, _TRIAL_CHUNK)):
        m = min(_TRIAL_CHUNK, trials - start)
        rng = np.random.default_rng([sampler.seed, 1_000_000 + idx])
        fields = factor @ rng.standard_normal((factor.shape[1], m))
        vals[start:start + m] = domain.weights @ specfun.hermite(spec.q, fields)
    est = float(np.var(vals, ddof=1))
    centered = vals - vals.mean()
    m4 = float(np.mean(centered**4))
    var_of_var = max(m4 - est**2 * (trials - 3) / (trials - 1), 0.0) / trials
    half = 1.959963984540054 * math.sqrt(var_of_var)
    return MCVariance(trials, est, (est - half, est + half), sampler.seed)


def _bin_masses(spec: walk.WalkSpec, edges: np.ndarray) -> np.ndarray:
    """Analytic probability mass of the walk radius in each bin."""
    d, n = spec.d, spec.n
    tab, _ = walk._psi_level(d, n)

    def rho(r: np.ndarray) -> np.ndarray:
        return tab(r) * r ** (d - 1)

    res = integrate_adaptive_batch(
        lambda r, k: rho(r), edges[:-1], edges[1:], 1e-9,
        split_points=np.arange(1.0, n + 1.0)[None, :], max_evals=200_000,
    )
    check_converged(res, 1e-9, "bin mass quadrature")
    return res.value


def mc_walk_density_check(spec: walk.WalkSpec, n_samples: int, bins: int,
                          seed: int = 42):
    """Chi-square goodness of fit of sampled walk radii against the density.

    Equal-width bins over the support; bins whose expected count falls below
    10 are merged into their neighbor (this also absorbs the registered
    infinite-density point of the planar 3-step walk).  Returns
    (chi2, pvalue).
    """
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
    exp_arr *= counts_arr.sum() / exp_arr.sum()
    stat = float(np.sum((counts_arr - exp_arr) ** 2 / exp_arr))
    dof = len(exp_arr) - 1
    return stat, float(chdtrc(dof, stat))
