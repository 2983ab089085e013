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
from scipy.special import binom, gammaln

from .quadrature import gauss_jacobi
# integrate_adaptive is not called here; perfbench's tracer wraps the name
from .quadrature import integrate_adaptive  # noqa: F401
from .specfun import _validate_dim

# placeholder: perfbench's tracer wraps this name on this module, and
# nothing calls it (drop it with its tracer target)
PchipInterpolator = None

__all__ = [
    "Geometry",
    "BallSpec",
    "WeightFunction",
    "omega",
    "ball_volume",
    "cap_volume",
    "weight_spherical",
    "make_weight",
]

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
            if not (0 < self.R < math.inf):
                raise ValueError("Euclidean radius must be finite and > 0")
            try:
                _ball_weight_integral(self.d, self.R)
            except OverflowError:
                raise ValueError(f"radius {self.R:g}: its weight integral overflows") from None
        else:
            if not (0 < self.R <= math.pi):
                raise ValueError("spherical radius must lie in (0, pi]")

    @property
    def support_end(self) -> float:
        """Where the pair weight ends: 2R, and at most pi on the sphere."""
        end = 2.0 * self.R
        return end if self.geometry == Geometry.EUCLIDEAN else min(math.pi, end)


def omega(d: int) -> float:
    """Total volume of the unit sphere S^d, 2 pi^((d+1)/2) / Gamma((d+1)/2)."""
    if int(d) != d or d < 0:
        raise ValueError(f"dimension must be an integer >= 0, got {d}")
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.exp(gammaln((d + 1) / 2.0))


def _ball_weight_integral(d: int, R: float) -> float:
    """4 omega_{d-1} omega_{d-2} R^(d+1) / ((d-1)(d+1)), the integral of a
    Euclidean ball's weight.  With R = m 2^e it scales m^(d+1) by 2^(e(d+1)),
    so no power of R is formed; OverflowError where it exceeds a float."""
    m, e = math.frexp(R)
    scaled = 4.0 * omega(d - 1) * omega(d - 2) * m ** (d + 1) / ((d - 1) * (d + 1))
    return math.ldexp(scaled, e * (d + 1))


def ball_volume(d: int, R: float) -> float:
    """Volume of the radius-R ball in R^d: omega_{d-1} R^d / d."""
    BallSpec(Geometry.EUCLIDEAN, d, R)  # validates d and R
    return omega(d - 1) * R**d / d


def _sin_power_integral(m: int, x, v) -> np.ndarray:
    """F_m(x) = int_x^1 (1 - t^2)^((m-1)/2) dt = int_0^arccos(x) sin^m for
    x in [-1, 1], given x and v = 1 - x, vectorized.

    Below x = 1/2 it is the quarter int_0^(pi/2) cos^m less int_0^arcsin(x)
    cos^m, both from _cos_power_integrals.  From 1/2 on, where that
    difference cancels, it is the tangency series 2^k v^(k+1) sum_j
    binom(k, j) (-v/2)^j / (k + j + 1), k = (m - 1)/2.  It ends at j = k for
    odd m; for even m its terms fall by at least v/2 <= 1/4 each past j = k,
    and 27 more reach the last bit of the sum (24 do for every even m <= 80).
    """
    x, v = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(v, dtype=float))
    out, low = np.empty(x.shape), x < 0.5
    # sin = 1, cos = 0 appended gives the quarter as the last value
    sin_phi, cos_phi = np.append(x[low], 1.0), np.append(np.sqrt(v[low] * (1.0 + x[low])), 0.0)
    *_, (_, j) = _cos_power_integrals(m % 2, m, sin_phi, cos_phi)
    out[low] = j[-1] - j[:-1]
    k, w, i = 0.5 * (m - 1), v[~low], np.arange((m + 1) // 2 if m % 2 else m // 2 + 27)
    out[~low] = (2.0 * w) ** k * w * np.polyval((binom(k, i) / (k + i + 1))[::-1], -0.5 * w)
    return out


def cap_volume(d: int, R: float) -> float:
    """Volume of a geodesic cap of radius R on S^d: omega_{d-1} int_0^R sin^(d-1),
    which is F_(d-1)(cos R) with 1 - cos R = 2 sin^2(R/2) (_sin_power_integral)."""
    BallSpec(Geometry.SPHERICAL, d, R)  # validates d and R
    v = 2.0 * math.sin(0.5 * R) ** 2
    return omega(d - 1) * float(_sin_power_integral(d - 1, math.cos(R), v))


def _cos_power_integrals(m0: int, m1: int, sin_phi, cos_phi):
    """Yield (m, int_0^phi cos^m) for m = m0, m0 + 2, ..., m1 (m0 = 0 or 1)."""
    j = sin_phi if m0 else np.arctan2(sin_phi, cos_phi)
    p, cos2 = cos_phi ** (m0 + 1) * sin_phi, cos_phi * cos_phi
    for m in range(m0, m1 + 1, 2):
        yield m, j
        j, p = (p + (m + 1) * j) / (m + 2), p * cos2


def _cap_drop(d: int, c: float, r: np.ndarray) -> np.ndarray:
    """G_d(r) = int_0^r (1 - c^2 tan^2(s/2))^((d-1)/2) ds / 2, r <= r*.

    Under c tan(s/2) = sin(phi) it is G_d = c int_0^phi cos^d / (c^2 + sin^2),
    and cos^2 = a - (c^2 + sin^2), a = 1 + c^2, gives G_d = a G_(d-2) - c J_(d-2)
    with J_m = int_0^phi cos^m, G_1 = r/2 and G_0 = arctan(sqrt(a) tan(r/2) /
    cos(phi)) / sqrt(a).  Each step scales rounding by about a, so past
    a^(d//2) = 16 the same G_d is summed as the positive series
    c sum_k J_(d+2k) / a^(k+1), cut where a^-k drops below 2^-53.
    """
    a = 1.0 + c * c
    t = np.tan(0.5 * r)
    sin_phi = np.minimum(c * t, 1.0)
    cos_phi = np.sqrt((1.0 - sin_phi) * (1.0 + sin_phi))
    if a ** (d // 2) <= 16.0:
        g = 0.5 * r if d % 2 else np.arctan2(math.sqrt(a) * t, cos_phi) / math.sqrt(a)
        for _, j in _cos_power_integrals(d % 2, d - 2, sin_phi, cos_phi):
            g = a * g - c * j
        return g
    last = d + 2 * math.ceil(53.0 * math.log(2.0) / math.log(a)) - 2
    terms = _cos_power_integrals(d % 2, last, sin_phi, cos_phi)
    return c * sum(j / a ** ((m - d) // 2 + 1) for m, j in terms if m >= d)


def _cap_weight(spec: BallSpec) -> WeightFunction:
    """The weight of a geodesic cap in closed form, with its integral.

    Moving one center by dr changes the intersection by the flux through the
    part of its boundary sphere inside the other cap: W'(r) = -K (1 - c^2
    tan^2(r/2))_+^((d-1)/2), c = |cot R|, K = omega_{d-1} omega_{d-2}
    sin(R)^(d-1) / (d-1), zero from r* = 2 arctan(1/c) (2R, or 2 pi - 2R once
    R > pi/2).  So W = W(0) - 2K G_d (see _cap_drop), W(0) = omega_{d-1} |cap|,
    down to W(pi) = omega_{d-1} max(0, 2 |cap| - omega_d), the overlap of two
    caps that cover the sphere; the whole sphere's W is omega_{d-1} omega_d.

    int_0^pi W = pi W(pi) - int_0^r* r W'.  W' falls to 0 within about c
    of r*; tan(r/2) = sinh(v) stretches that to O(1), so the moment is
    K int_0^v* 4 arctan(sinh v) sech(v) (1 - c^2 sinh^2 v)^((d-1)/2) dv,
    v* = asinh(1/c).  A Gauss-Jacobi rule takes (v* - v)^((d-1)/2) as its
    weight; the rest is analytic within pi/2 of the segment, and
    20 + 3 ceil(v*) nodes leave only the rounding of the rule itself.
    """
    d, R = spec.d, spec.R
    if R >= math.pi:
        const = omega(d - 1) * omega(d)
        return WeightFunction(spec, lambda r: np.full_like(r, const), math.pi * const, 0.0)
    c = abs(math.cos(R) / math.sin(R))
    K = omega(d - 1) * omega(d - 2) * math.sin(R) ** (d - 1) / (d - 1)
    cap = cap_volume(d, R)
    w0, w_pi = omega(d - 1) * cap, omega(d - 1) * max(0.0, 2.0 * cap - omega(d))
    r_end = 2.0 * math.atan2(1.0, c)

    def ev(r: np.ndarray) -> np.ndarray:
        drop = _cap_drop(d, c, np.clip(r, 0.0, r_end))
        return np.where(r < r_end, np.maximum(w0 - 2.0 * K * drop, w_pi), w_pi)

    v_end = math.asinh(1.0 / c)
    x, wx = gauss_jacobi(20 + 3 * math.ceil(v_end), 0.5 * (d - 1), 0.0)
    v, gap = 0.5 * v_end * (1.0 + x), 0.5 * v_end * (1.0 - x)
    # (1 - c^2 sinh^2 v) / (v* - v), without cancellation next to v*
    inner = (2.0 * c * np.cosh(0.5 * (v_end + v)) * np.sinh(0.5 * gap) / gap
             * (1.0 + c * np.sinh(v)))
    f = 4.0 * np.arctan(np.sinh(v)) / np.cosh(v) * inner ** (0.5 * (d - 1))
    moment = K * (0.5 * v_end) ** (0.5 * (d + 1)) * float(wx @ f)
    return WeightFunction(spec, ev, math.pi * w_pi + moment, r_end)


def weight_spherical(d: int, R: float, r):
    """omega_{d-1} times the volume of the intersection of two geodesic caps
    of radius R on S^d at center distance r, in closed form (_cap_weight)."""
    spec = BallSpec(Geometry.SPHERICAL, d, R)  # validates d and R
    if not np.all((np.asarray(r) >= 0) & (np.asarray(r) <= math.pi)):
        raise ValueError("center distance must lie in [0, pi]")
    return _cap_weight(spec)(r)


@dataclass
class WeightFunction:
    """Pair-distance weight of a ball or cap, vectorized over distances,
    with its exact integral int_0^support_end W(r) dr and the kink from
    which W is constant."""

    spec: BallSpec
    _eval: Callable[[np.ndarray], np.ndarray]
    integral: float
    kink: float

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
    """Build the weight function for a ball spec, in closed form.

    A cap's is _cap_weight.  A ball's is omega_{d-1} times a lens of two
    caps, each omega_{d-2} R^d F_d(u) / (d - 1) with u = r / 2R
    (_sin_power_integral), 0 from its kink r = 2R on, with the integral
    _ball_weight_integral.
    """
    if spec.geometry == Geometry.SPHERICAL:
        return _cap_weight(spec)
    d, R = spec.d, spec.R
    const = 2.0 * omega(d - 1) * omega(d - 2) * R**d / (d - 1)

    def ev(r: np.ndarray) -> np.ndarray:
        u = np.minimum(0.5 * np.abs(r) / R, 1.0)
        return const * _sin_power_integral(d, u, 1.0 - u)

    return WeightFunction(spec, ev, _ball_weight_integral(d, R), 2.0 * R)
