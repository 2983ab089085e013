"""Variances of Hermite-polynomial wave functionals over balls and caps.

For a unit-variance Gaussian wave with radial covariance kernel rho(r), the
Hermite moment identity E[H_q(X) H_q(Y)] = q! E[XY]^q turns the variance of
int_D H_q(field) into a single radial integral of q! rho^q against the
domain's pair-distance weight.  Exact evaluation starts on one panel per
period of rho^q's fastest harmonic, split at the weight's kink, and a
frequency ladder is one batched engine call; the high-frequency predictors
carry explicit constants tied to the wave-moment integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import quadrature, specfun, walk
from .geometry import BallSpec, Geometry, make_weight
# integrate_adaptive is not called here; perfbench's tracer wraps the name
from .quadrature import check_converged, integrate_adaptive, period_splits  # noqa: F401

__all__ = [
    "FieldSpec",
    "PolyspectrumSpec",
    "Method",
    "Regime",
    "VarianceEstimate",
    "variance_exact_euclidean",
    "variance_exact_spherical",
    "variance_asymptotic",
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


def _exact_quadrature(specs: list[PolyspectrumSpec], kernel, measure, freqs,
                      tol: float) -> list[VarianceEstimate]:
    """q! int_0^end kernel(r, k)^q W(r) measure(r) dr for each rung k of a
    ladder, W the ball's pair weight, in one batched adaptive quadrature
    that refines each rung exactly as it would alone.  A rung's first pass
    is one panel per period of its fastest harmonic, q freqs[k]
    (period_splits, which refuses more panels than the 6e6-evaluation
    budget covers), split again at W's kink."""
    q, w = specs[0].q, make_weight(specs[0].ball)
    qfac = math.factorial(q)
    end = w.support_end
    max_evals = 6_000_000
    rows = []
    for freq in freqs:
        try:
            rows.append(np.append(period_splits(0.0, end, q * freq, max_evals), w.kink))
        except ValueError as exc:
            raise ValueError(f"exact quadrature at frequency {freq:g}: {exc}") from None
    splits = np.full((len(rows), max(map(len, rows))), np.nan)
    for k, row in enumerate(rows):
        splits[k, :len(row)] = row
    try:
        res = quadrature.integrate_adaptive_batch(
            lambda r, k: kernel(r, k) ** q * w(r) * measure(r), 0.0, end, tol / qfac,
            split_points=splits, max_evals=max_evals)
    except ValueError as exc:
        label = ", ".join(f"{freq:g}" for freq in freqs)
        raise ValueError(f"exact quadrature at frequency {label}: {exc}") from None
    check_converged(res, tol / qfac, "variance quadrature")
    return [VarianceEstimate(spec, qfac * res[k].value, Method.EXACT_QUADRATURE,
                             qfac * res[k].abs_error_estimate, regime_of(spec))
            for k, spec in enumerate(specs)]


def _ladder(specs, what: str, geometry: Geometry | None = None) -> list[PolyspectrumSpec]:
    """specs as a list of rungs; ValueError unless there is one, all have
    the geometry (when given), and they differ only in frequency."""
    ladder = list(specs)
    if not ladder or geometry and any(s.field.geometry != geometry for s in ladder):
        raise ValueError(f"{what} spec required")
    if len({(s.field.geometry, s.field.d, s.q, s.R) for s in ladder}) > 1:
        raise ValueError("ladder rungs must differ only in frequency")
    return ladder


def variance_exact_euclidean(specs, tol: float = 1e-9) -> list[VarianceEstimate]:
    """q! int_0^2R jd(lambda r)^q W(r) r^(d-1) dr for each rung of a ladder
    of specs, in its order, all rungs in one engine call."""
    ladder = _ladder(specs, "Euclidean", Geometry.EUCLIDEAN)
    d = ladder[0].field.d
    freqs = [s.field.freq for s in ladder]
    lams = np.array(freqs)
    return _exact_quadrature(ladder, lambda r, k: specfun.jd(d, lams[k] * r),
                             lambda r: r ** (d - 1), freqs, tol)


def variance_exact_spherical(specs, tol: float = 1e-9) -> list[VarianceEstimate]:
    """q! int_0^pi G(cos r)^q W(r) sin(r)^(d-1) dr at degree ell, for each
    rung of a ladder as in variance_exact_euclidean.  Whole-sphere odd-odd
    rungs vanish identically by the degree parity of the covariance
    polynomial; they short-circuit to exactly 0 and stay out of the engine
    call, which the other rungs share (none is made when no rung is left)."""
    ladder = _ladder(specs, "spherical", Geometry.SPHERICAL)
    live = [s for s in ladder if regime_of(s) is not Regime.PARITY_ZERO]
    found = iter(())
    if live:
        d = ladder[0].field.d
        gspecs = [specfun.GegenbauerSpec(d, s.field.ell) for s in live]

        def kernel(r, k):
            g = np.empty_like(r)
            for j, gspec in enumerate(gspecs):
                at = k == j
                if at.any():
                    g[at] = specfun.gegenbauer(gspec, np.cos(r[at]))
            return g

        found = iter(_exact_quadrature(live, kernel, lambda r: np.sin(r) ** (d - 1),
                                       [g.L for g in gspecs], tol))
    return [VarianceEstimate(s, 0.0, Method.EXACT_QUADRATURE, 0.0, Regime.PARITY_ZERO)
            if regime_of(s) is Regime.PARITY_ZERO else next(found) for s in ladder]


def _pow(f: float, e: int) -> float:
    """f ** e, inf past the float range (where a float power raises
    OverflowError; it underflows to 0.0 without one)."""
    try:
        return f ** e
    except OverflowError:
        return math.inf


def variance_asymptotic(specs) -> list[VarianceEstimate]:
    """Leading-order variance predictions with explicit constants for each
    rung of a ladder, in its order; the weight and I_q^d are built once.

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

    Where a power of f leaves the float range the prediction is +-inf: f^-d
    or f^(1-d) overflows, or f^2 underflows to 0 (there log f < 0).
    """
    ladder = _ladder(specs, "polyspectrum")
    d, q = ladder[0].field.d, ladder[0].q
    spherical = ladder[0].field.geometry == Geometry.SPHERICAL
    regimes = [regime_of(s) for s in ladder]
    w = make_weight(ladder[0].ball)
    w_pi = w(math.pi) if spherical else 0.0
    qfac = math.factorial(q)
    idq_val = walk.idq_value(d, q, 1e-10) if Regime.GENERIC in regimes else None
    out = []
    for spec, regime in zip(ladder, regimes):
        f = spec.field.big_l if spherical and regime is Regime.Q2 else spec.field.freq
        if regime is Regime.PARITY_ZERO:
            value = 0.0
        elif regime is Regime.Q2:
            value = qfac * (walk._norm_factor(d) / math.pi) * w.integral * _pow(f, 1 - d)
        elif regime is Regime.D2Q4:
            num = qfac * (3.0 / (2.0 * math.pi**2)) * (w.at_zero + w_pi) * math.log(f)
            value = num / f2 if (f2 := _pow(f, 2)) else -math.inf
        else:
            sign = -1.0 if (q % 2 == 1 and spec.field.ell % 2 == 1) else 1.0
            weight_term = w.at_zero + sign * w_pi if spherical else w.at_zero
            value = qfac * idq_val * weight_term * _pow(f, -d)
        out.append(VarianceEstimate(spec, value, Method.ASYMPTOTIC, None, regime))
    return out
