"""Volumes and intersection-volume weight functions on R^d and S^d.

The weight functions reduce double integrals of radial kernels over a ball
(or geodesic cap) times itself to single radial integrals:

    int_B int_B f(|x-y|) dx dy = int_0^2R f(r) W(r) r^(d-1) dr

with W(r) = omega_{d-1} |B(x,R) cap B(y,R)| at center distance r, and the
spherical analog with sin(r)^(d-1) in place of r^(d-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import betainc, betaln, gammaln

# integrate_adaptive is not called here; perfbench's tracer wraps the name
from .quadrature import check_converged, integrate_adaptive, integrate_adaptive_batch  # noqa: F401
from .specfun import _validate_dim

__all__ = [
    "Geometry",
    "BallSpec",
    "WeightFunction",
    "omega",
    "ball_volume",
    "cap_volume",
    "weight_euclidean",
    "weight_spherical",
    "make_weight",
]

# base grid size of a spherical cap-weight table
WEIGHT_TABLE_POINTS = 800


class Geometry(str, Enum):
    EUCLIDEAN = "euclidean"
    SPHERICAL = "spherical"


@dataclass(frozen=True)
class BallSpec:
    geometry: Geometry
    d: int
    R: float

    def __post_init__(self) -> None:
        _validate_dim(self.d)
        if self.geometry == Geometry.EUCLIDEAN:
            if not (self.R > 0):
                raise ValueError("Euclidean radius must be > 0")
        else:
            if not (0 < self.R <= math.pi):
                raise ValueError("spherical radius must lie in (0, pi]")

    @property
    def support_end(self) -> float:
        return 2.0 * self.R if self.geometry == Geometry.EUCLIDEAN else math.pi


def omega(d: int) -> float:
    """Total volume of the unit sphere S^d, 2 pi^((d+1)/2) / Gamma((d+1)/2)."""
    if int(d) != d or d < 0:
        raise ValueError(f"dimension must be an integer >= 0, got {d}")
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.exp(gammaln((d + 1) / 2.0))


def ball_volume(d: int, R: float) -> float:
    """Volume of the radius-R ball in R^d: omega_{d-1} R^d / d."""
    BallSpec(Geometry.EUCLIDEAN, d, R)  # validates d and R
    return omega(d - 1) * R**d / d


def _cap_volume_euclidean(d: int, R: float, h) -> np.ndarray:
    """Volume of the cap of height h of a radius-R ball in R^d.

    Regularized incomplete Beta form, valid for 0 <= h <= 2R:
    half the ball volume scaled by I_x((d+1)/2, 1/2) at x = (2Rh - h^2)/R^2
    for h <= R, complemented for h > R.
    """
    h = np.clip(np.asarray(h, dtype=float), 0.0, 2.0 * R)
    ball = ball_volume(d, R)
    small = np.minimum(h, 2.0 * R - h)
    x = np.clip((2.0 * R - small) * small / R**2, 0.0, 1.0)
    v = 0.5 * ball * betainc((d + 1) / 2.0, 0.5, x)
    return np.where(h > R, ball - v, v)


def weight_euclidean(d: int, R: float, r):
    """omega_{d-1} times the lens volume of two radius-R balls at distance r.

    The lens is twice the cap of height R - r/2; identically 0 for r >= 2R.
    """
    BallSpec(Geometry.EUCLIDEAN, d, R)  # validates d and R
    arr = np.asarray(r, dtype=float)
    h = np.clip(R - 0.5 * np.abs(arr), 0.0, R)
    out = omega(d - 1) * 2.0 * _cap_volume_euclidean(d, R, h)
    return float(out) if arr.ndim == 0 else out


def _sin_power_integral(m: int, phi) -> np.ndarray:
    """int_0^phi sin(psi)^m dpsi for phi in [0, pi], vectorized in phi."""
    phi = np.asarray(phi, dtype=float)
    if m == 0:
        return phi.copy()
    total = math.exp(betaln((m + 1) / 2.0, 0.5))  # int_0^pi sin^m
    s = np.sin(np.clip(phi, 0.0, math.pi)) ** 2
    half = 0.5 * total * betainc((m + 1) / 2.0, 0.5, s)
    return np.where(phi <= 0.5 * math.pi, half, total - half)


def cap_volume(d: int, R: float) -> float:
    """Volume of a geodesic cap of radius R on S^d: omega_{d-1} int_0^R sin^(d-1)."""
    BallSpec(Geometry.SPHERICAL, d, R)  # validates d and R
    return omega(d - 1) * float(_sin_power_integral(d - 1, R))


def weight_spherical(d: int, R: float, r):
    """omega_{d-1} times the volume of the intersection of two geodesic caps.

    Caps of radius R on S^d at geodesic center distance r.  Latitude
    quadrature from the first center: the zone at colatitude theta meets the
    second cap in a sub-cap of S^(d-1) whose half-angle is an arccos
    expression in cos R, cos r, cos theta (argument clamped to [-1, 1] to
    absorb the all-in / all-out configurations).  Exactly
    omega_{d-1} omega_d when R = pi.  Each latitude quadrature runs at
    tolerance 1e-10.
    """
    BallSpec(Geometry.SPHERICAL, d, R)  # validates d and R
    scalar = np.asarray(r).ndim == 0
    rs = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any((rs < 0) | (rs > math.pi)):
        raise ValueError("center distance must lie in [0, pi]")
    if R >= math.pi:
        out = np.full_like(rs, omega(d - 1) * omega(d))
        return float(out[0]) if scalar else out
    w_d2 = omega(d - 2)
    # coincident centers: the intersection is the whole cap
    out = np.full_like(rs, omega(d - 1) * cap_volume(d, R))
    apart = ~(rs < 1e-12)
    sin_r, cos_r = np.sin(rs[apart]), np.cos(rs[apart])

    def zone(theta, k):
        ct, st = np.cos(theta), np.sin(theta)
        arg = (math.cos(R) - ct * cos_r[k]) / np.maximum(st * sin_r[k], 1e-300)
        phi = np.arccos(np.clip(arg, -1.0, 1.0))
        return st ** (d - 1) * w_d2 * _sin_power_integral(d - 2, phi)

    # clamp transitions: the latitude circle enters or leaves the second
    # cap directly (theta = |r - R|, r + R) or by wrapping past the far
    # pole (theta = 2 pi - r - R, relevant once R > pi/2)
    r = rs[apart, None]
    kinks = np.hstack([np.abs(r - R), r + R, 2.0 * math.pi - r - R])
    res = integrate_adaptive_batch(zone, 0.0, R, 1e-10, split_points=kinks)
    check_converged(res, 1e-10, "cap weight quadrature")
    out[apart] = omega(d - 1) * res.value
    return float(out[0]) if scalar else out


@dataclass
class WeightFunction:
    """Pair-distance weight of a ball or cap, vectorized over distances,
    with its exact integral int_0^support_end W(r) dr."""

    spec: BallSpec
    _eval: Callable[[np.ndarray], np.ndarray]
    integral: float

    def __call__(self, r):
        arr = np.asarray(r, dtype=float)
        out = self._eval(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    @property
    def support_end(self) -> float:
        return self.spec.support_end

    @property
    def at_zero(self) -> float:
        return self(0.0)


def make_weight(spec: BallSpec) -> WeightFunction:
    """Build the weight function for a ball spec.

    Euclidean weights are closed-form, with the closed-form integral
    4 omega_{d-1} omega_{d-2} R^(d+1) / ((d-1)(d+1)); the whole sphere's is
    the constant omega_{d-1} omega_d.  Partial-cap weights are tabulated once
    on a dense grid (each table value a latitude quadrature) and interpolated
    monotonically in between, which also gives their exact integral.  The
    grid spans the kink at r = 2R, so the interpolant stays PCHIP: a C^2
    spline rings there (down to -1.9e-5 past 2R at d = 2, R = 1, where W = 0).
    """
    d, R = spec.d, spec.R
    if spec.geometry == Geometry.EUCLIDEAN:

        def ev(r: np.ndarray) -> np.ndarray:
            return np.asarray(weight_euclidean(d, R, r))

        integral = 4.0 * omega(d - 1) * omega(d - 2) * R ** (d + 1) / ((d - 1) * (d + 1))
        return WeightFunction(spec, ev, integral)

    if R >= math.pi:
        const = omega(d - 1) * omega(d)

        def ev_const(r: np.ndarray) -> np.ndarray:
            return np.full_like(np.asarray(r, dtype=float), const)

        return WeightFunction(spec, ev_const, math.pi * const)

    # grid refined near the kinks at r = 0 and r = 2R (caps become disjoint)
    base = np.unique(
        np.concatenate(
            [
                np.linspace(0.0, math.pi, WEIGHT_TABLE_POINTS),
                np.linspace(0.0, min(2.0 * R, math.pi), WEIGHT_TABLE_POINTS // 2),
                np.geomspace(1e-6, math.pi, WEIGHT_TABLE_POINTS // 4),
            ]
        )
    )
    vals = weight_spherical(d, R, base)
    interp = PchipInterpolator(base, vals, extrapolate=False)

    def ev_tab(r: np.ndarray) -> np.ndarray:
        out = interp(np.clip(r, 0.0, math.pi))
        return np.nan_to_num(out, nan=0.0)

    return WeightFunction(spec, ev_tab, float(interp.integrate(0.0, math.pi)))
