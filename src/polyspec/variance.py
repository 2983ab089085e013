"""Variances of Hermite-polynomial wave functionals over balls and caps.

For a unit-variance Gaussian wave with radial covariance kernel rho(r), the
Hermite moment identity E[H_q(X) H_q(Y)] = q! E[XY]^q turns the variance of
int_D H_q(field) into a single radial integral of q! rho^q against the
domain's pair-distance weight.  Exact evaluation starts on one panel per
period of rho^q's fastest harmonic, split at the weight's kink; the
high-frequency predictors carry explicit constants tied to the wave-moment
integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import roots_hermitenorm

from . import specfun, walk
from .geometry import BallSpec, Geometry, make_weight
from .quadrature import check_converged, integrate_adaptive, period_splits

__all__ = [
    "FieldSpec",
    "PolyspectrumSpec",
    "Method",
    "Regime",
    "VarianceEstimate",
    "variance_exact_euclidean",
    "variance_exact_spherical",
    "variance_asymptotic",
    "hermite_covariance_identity_check",
]


@dataclass(frozen=True)
class FieldSpec:
    """A monochromatic Gaussian wave: Euclidean at wavenumber freq > 0, or
    spherical at integer degree freq >= 1."""

    geometry: Geometry
    d: int
    freq: float

    def __post_init__(self) -> None:
        specfun._validate_dim(self.d)
        if self.geometry == Geometry.EUCLIDEAN:
            if not (0 < self.freq < math.inf):
                raise ValueError("wavenumber must be finite and > 0")
        else:
            if not (1 <= self.freq < math.inf) or int(self.freq) != self.freq:
                raise ValueError("degree must be a finite integer >= 1")

    @property
    def ell(self) -> int:
        return int(self.freq)

    @property
    def big_l(self) -> float:
        return self.freq + 0.5 * (self.d - 1)


@dataclass(frozen=True)
class PolyspectrumSpec:
    field: FieldSpec
    q: int
    R: float

    def __post_init__(self) -> None:
        if int(self.q) != self.q or self.q < 2:
            raise ValueError("polynomial order must be an integer >= 2")
        BallSpec(self.field.geometry, self.field.d, self.R)  # validates R

    @property
    def ball(self) -> BallSpec:
        return BallSpec(self.field.geometry, self.field.d, self.R)


class Method(str, Enum):
    EXACT_QUADRATURE = "ExactQuadrature"
    ASYMPTOTIC = "Asymptotic"


class Regime(str, Enum):
    Q2 = "Q2"
    D2Q4 = "D2Q4"
    GENERIC = "Generic"
    PARITY_ZERO = "ParityZero"


@dataclass
class VarianceEstimate:
    spec: PolyspectrumSpec
    value: float
    method: Method
    error: float | None
    regime: Regime


def regime_of(spec: PolyspectrumSpec) -> Regime:
    """High-frequency regime of a polyspectrum variance."""
    d, q = spec.field.d, spec.q
    if (
        spec.field.geometry == Geometry.SPHERICAL
        and spec.R >= math.pi
        and q % 2 == 1
        and spec.field.ell % 2 == 1
    ):
        return Regime.PARITY_ZERO
    if q == 2:
        return Regime.Q2
    if (d, q) == (2, 4):
        return Regime.D2Q4
    return Regime.GENERIC


def _exact_quadrature(spec: PolyspectrumSpec, kernel, measure, freq: float,
                      tol: float) -> VarianceEstimate:
    """q! int_0^end kernel(r)^q W(r) measure(r) dr by adaptive quadrature,
    W the ball's pair weight.  The first pass is one panel per period of
    the fastest harmonic, q freq (period_splits, which refuses more panels
    than the 6e6-evaluation budget covers), split again at W's kink."""
    q, w = spec.q, make_weight(spec.ball)
    qfac = math.factorial(q)
    end = w.support_end
    max_evals = 6_000_000
    try:
        splits = np.append(period_splits(0.0, end, q * freq, max_evals), w.kink)
        res = integrate_adaptive(lambda r: kernel(r) ** q * w(r) * measure(r), 0.0, end,
                                 tol / qfac, split_points=splits, max_evals=max_evals)
    except ValueError as exc:
        raise ValueError(f"exact quadrature at frequency {freq:g}: {exc}") from None
    check_converged(res, tol / qfac, "variance quadrature")
    return VarianceEstimate(
        spec, qfac * res.value, Method.EXACT_QUADRATURE,
        qfac * res.abs_error_estimate, regime_of(spec),
    )


def variance_exact_euclidean(spec: PolyspectrumSpec, tol: float = 1e-9) -> VarianceEstimate:
    """q! int_0^2R jd(lambda r)^q W(r) r^(d-1) dr."""
    if spec.field.geometry != Geometry.EUCLIDEAN:
        raise ValueError("Euclidean spec required")
    d, lam = spec.field.d, spec.field.freq
    return _exact_quadrature(spec, lambda r: specfun.jd(d, lam * r),
                             lambda r: r ** (d - 1), lam, tol)


def variance_exact_spherical(spec: PolyspectrumSpec, tol: float = 1e-9) -> VarianceEstimate:
    """q! int_0^pi G(cos r)^q W(r) sin(r)^(d-1) dr at degree ell.

    Whole-sphere odd-odd specs vanish identically by the degree parity of
    the covariance polynomial; that regime short-circuits to exactly 0.
    """
    if spec.field.geometry != Geometry.SPHERICAL:
        raise ValueError("spherical spec required")
    regime = regime_of(spec)
    if regime is Regime.PARITY_ZERO:
        return VarianceEstimate(spec, 0.0, Method.EXACT_QUADRATURE, 0.0, regime)
    d = spec.field.d
    gspec = specfun.GegenbauerSpec(d, spec.field.ell)
    return _exact_quadrature(spec, lambda r: specfun.gegenbauer(gspec, np.cos(r)),
                             lambda r: np.sin(r) ** (d - 1), gspec.L, tol)


def variance_asymptotic(spec: PolyspectrumSpec) -> VarianceEstimate:
    """Leading-order variance prediction with explicit constants.

    Generic (q >= 3 away from (2,4)): q! I_q^d W(0) f^-d with f the
    wavenumber (Euclidean) or the degree (spherical).  On caps the
    antipodal weight enters with the parity sign,

        q! I_q^d (W(0) + (-1)^(q ell) W(pi)) ell^-d,

    which reproduces the doubled whole-sphere constant (W is constant at
    R = pi), the odd-odd vanishing, and the Euclidean form (W(2R) = 0).

    Q2: the squared cosine envelope of the kernel averages to 1/2, giving
    q! (nu!)^2 4^nu (1/pi) (int W) f^(1-d) with f = lambda, or L = ell +
    (d-1)/2 on the sphere (the degree enters through the Bessel argument).

    D2Q4: the quartic envelope averages to 3/8 and the surviving 1/r mean
    part integrates to a logarithm: 4! (3/(2 pi^2)) W(0) log(f) f^-2, with
    W(0) + W(pi) in place of W(0) on caps (both poles contribute).
    """
    d, q = spec.field.d, spec.q
    spherical = spec.field.geometry == Geometry.SPHERICAL
    regime = regime_of(spec)
    w = make_weight(spec.ball)
    qfac = math.factorial(q)
    if regime is Regime.PARITY_ZERO:
        return VarianceEstimate(spec, 0.0, Method.ASYMPTOTIC, None, regime)
    if regime is Regime.Q2:
        f = spec.field.big_l if spherical else spec.field.freq
        envelope = walk._norm_factor(d) / math.pi
        value = qfac * envelope * w.integral * f ** (1 - d)
        return VarianceEstimate(spec, value, Method.ASYMPTOTIC, None, regime)
    if regime is Regime.D2Q4:
        f = spec.field.freq
        w_ends = w.at_zero + (w(math.pi) if spherical else 0.0)
        value = qfac * (3.0 / (2.0 * math.pi**2)) * w_ends * math.log(f) / f**2
        return VarianceEstimate(spec, value, Method.ASYMPTOTIC, None, regime)
    f = spec.field.freq
    idq_val = walk.idq_value(d, q, 1e-10)
    weight_term = w.at_zero
    if spherical:
        sign = -1.0 if (q % 2 == 1 and spec.field.ell % 2 == 1) else 1.0
        weight_term += sign * w(math.pi)
    value = qfac * idq_val * weight_term * f ** (-d)
    return VarianceEstimate(spec, value, Method.ASYMPTOTIC, None, regime)


def hermite_covariance_identity_check(q: int, rho: float) -> float:
    """Discrepancy of the Hermite moment identity at correlation rho.

    Computes E[H_q(X) H_q(Y)] for unit-variance jointly Gaussian (X, Y) by
    Gauss-Hermite quadrature (exact for these polynomial integrands) and
    returns the difference against q! rho^q.
    """
    if int(q) != q or q < 1:
        raise ValueError("order must be an integer >= 1")
    if abs(rho) > 1:
        raise ValueError("correlation must lie in [-1, 1]")
    m = q + 2
    x, wx = roots_hermitenorm(m)
    wx = wx / math.sqrt(2.0 * math.pi)
    hx = specfun.hermite(q, x)
    c = math.sqrt(max(0.0, 1.0 - rho * rho))
    # Y = rho X + c Z over the product rule
    yy = rho * x[:, None] + c * x[None, :]
    hy = specfun.hermite(q, yy)
    val = float(np.einsum("i,j,i,ij->", wx, wx, hx, hy))
    return val - math.factorial(q) * rho**q
