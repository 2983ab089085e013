"""Special-function kernels used throughout the library.

Bessel functions of the first kind at integer and half-integer order, the
normalized radial covariance kernel of isotropic monochromatic waves, Hermite
polynomials (probabilists' convention), normalized Gegenbauer polynomials, and
the Bessel main term of their large-degree approximation.

The kernel jd goes through ``scipy.special``: ``jv`` at integer order (even
d) and ``spherical_jn`` at half-integer order (odd d), which is several times
faster than ``jv`` there.  Against 40-digit mpmath for d = 2..10 the absolute
error measured at most 8e-15 for r <= 40, and at most 1.4e-13 r^{-(d-1)/2}
(that is, relative to the kernel's envelope) for 40 < r <= 2e5.

All evaluators accept scalars or numpy arrays and are pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_hermitenorm, gammaln, jv, spherical_jn

__all__ = [
    "BesselOrder",
    "GegenbauerSpec",
    "bessel_j",
    "jd",
    "jd_amplitude_constant",
    "jd_asymptotic",
    "hermite",
    "gegenbauer",
    "hilb_main_term",
    "eigenspace_dim",
]


def _validate_dim(d: int) -> float:
    """Check an ambient dimension (integer >= 2) and return nu = d/2 - 1."""
    if int(d) != d or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d}")
    return 0.5 * d - 1.0


@dataclass(frozen=True)
class BesselOrder:
    """Bessel order tied to an ambient dimension: nu = d/2 - 1."""

    d: int

    def __post_init__(self) -> None:
        _validate_dim(self.d)

    @property
    def nu(self) -> float:
        return 0.5 * self.d - 1.0


@dataclass(frozen=True)
class GegenbauerSpec:
    """Degree-ell normalized Gegenbauer polynomial on the sphere S^d."""

    d: int
    ell: int

    def __post_init__(self) -> None:
        _validate_dim(self.d)
        if int(self.ell) != self.ell or self.ell < 0:
            raise ValueError(f"degree must be an integer >= 0, got {self.ell}")

    @property
    def nu(self) -> float:
        return 0.5 * self.d - 1.0

    @property
    def L(self) -> float:
        return self.ell + 0.5 * (self.d - 1)


def _as_nu(order) -> float:
    """Accept a BesselOrder or a bare (half-)integer order >= 0."""
    nu = order.nu if isinstance(order, BesselOrder) else float(order)
    if not math.isfinite(nu) or nu < 0:
        raise ValueError(f"order must be finite and >= 0, got {nu}")
    if abs(2 * nu - round(2 * nu)) > 1e-12:
        raise ValueError(f"order must be an integer or half-integer, got {nu}")
    return nu


def bessel_j(order, x):
    """Bessel function of the first kind J_nu(x) for x >= 0.

    Order must be a non-negative integer or half-integer (a BesselOrder or a
    bare number).  Evaluated by ``scipy.special.jv``.
    """
    nu = _as_nu(order)
    arr = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(arr)):
        raise ValueError("argument must be finite")
    if np.any(arr < 0):
        raise ValueError("argument must be >= 0")
    out = jv(nu, arr)
    return float(out) if arr.ndim == 0 else out


def _jd_arr(d: int, r: np.ndarray) -> np.ndarray:
    """jd on a checked array of arguments r >= 0."""
    d = int(d)
    # below 1e-6 the two-term series is exact to rounding; it also gives
    # exactly 1 at r = 0 and keeps r^-n finite where the Bessel value underflows
    tiny = r < 1e-6
    x = np.where(tiny, 1.0, r)
    if d % 2:
        # nu = n + 1/2 and J_nu(x) = sqrt(2x/pi) j_n(x) fold the prefactor to (2n+1)!!
        n = (d - 3) // 2
        vals = math.prod(range(1, 2 * n + 2, 2)) * spherical_jn(n, x) / x**n
    else:
        n = d // 2 - 1
        vals = math.factorial(n) * 2**n * jv(n, x) / x**n
    return np.where(tiny, 1.0 - r * r / (2 * d), vals)


def jd(d: int, r):
    """Normalized wave kernel nu! 2^nu r^{-nu} J_nu(r), nu = d/2 - 1.

    Unit value at r = 0 (removable singularity); equals sin(r)/r for d = 3.
    """
    _validate_dim(d)
    arr = np.asarray(r, dtype=float)
    if np.any(~np.isfinite(arr)):
        raise ValueError("argument must be finite")
    if np.any(arr < 0):
        raise ValueError("argument must be >= 0")
    out = _jd_arr(d, arr)
    return float(out) if arr.ndim == 0 else out


def jd_amplitude_constant(d: int) -> float:
    """The constant C_d with jd(r) ~ C_d r^{-(d-1)/2} cos(r - phase) at large r."""
    nu = _validate_dim(d)
    return math.exp(gammaln(nu + 1)) * 2.0**nu * math.sqrt(2.0 / math.pi)


def jd_asymptotic(d: int, r):
    """Cosine-envelope approximation of jd: returns (amplitude, phase_shift).

    jd(d, r) ~ amplitude * cos(r - phase_shift) with
    amplitude = C_d (r v 1)^{-(d-1)/2} and phase_shift = (d-1) pi / 4; the
    remainder is O(r^{1 - d/2}).
    """
    _validate_dim(d)
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("argument must be > 0")
    amp = jd_amplitude_constant(d) * np.maximum(arr, 1.0) ** (-0.5 * (d - 1))
    phase = (d - 1) * math.pi / 4.0
    if arr.ndim == 0:
        return float(amp), phase
    return amp, phase


def hermite(q: int, t):
    """Probabilists' Hermite polynomial H_q(t), by ``scipy.special.eval_hermitenorm``."""
    if int(q) != q or q < 0:
        raise ValueError(f"degree must be an integer >= 0, got {q}")
    arr = np.asarray(t, dtype=float)
    out = eval_hermitenorm(int(q), arr)
    return float(out) if arr.ndim == 0 else out


def gegenbauer(spec: GegenbauerSpec, t):
    """Normalized Gegenbauer polynomial with G(1) = 1 on [-1, 1].

    Evaluates binom(ell+nu, ell)^{-1} P^{(nu,nu)}_ell(t) by folding the
    normalization into the Jacobi three-term recurrence, which keeps every
    intermediate in [-1, 1] for arbitrary degree:

        G_k = ((2k + 2nu - 1) t G_{k-1} - (k - 1) G_{k-2}) / (k + 2nu)

    ``scipy.special.eval_jacobi`` is not used: at d = 4, ell = 160 it measured
    2x slower (0.14 s against 0.07 s per 1e5 points) and less accurate against
    mpmath (max error 1.2e-14 against 1.3e-16).
    """
    arr = np.asarray(t, dtype=float)
    if np.any(np.abs(arr) > 1.0 + 1e-12):
        raise ValueError("argument must lie in [-1, 1]")
    arr = np.clip(arr, -1.0, 1.0)
    a = spec.nu
    g0 = np.ones_like(arr)
    if spec.ell == 0:
        return float(g0) if arr.ndim == 0 else g0
    g1 = arr.copy()
    for k in range(2, spec.ell + 1):
        g0, g1 = g1, ((2 * k + 2 * a - 1) * arr * g1 - (k - 1) * g0) / (k + 2 * a)
    return float(g1) if arr.ndim == 0 else g1


def hilb_main_term(spec: GegenbauerSpec, theta):
    """Bessel main term of the large-degree Gegenbauer approximation.

    Returns (sin t)^{-nu} (2^nu / binom(ell+nu, ell)) (Gamma(ell+d/2) /
    (L^nu ell!)) (t / sin t)^{1/2} J_nu(L t); the Gamma ratio cancels the
    binomial exactly, leaving (t/sin t)^{nu + 1/2} jd(d, L t).
    """
    arr = np.asarray(theta, dtype=float)
    if np.any((arr <= 0.0) | (arr >= math.pi)):
        raise ValueError("angle must lie strictly inside (0, pi)")
    nu = spec.nu
    big_l = spec.L
    vals = np.atleast_1d(arr)
    out = (vals / np.sin(vals)) ** (nu + 0.5) * _jd_arr(spec.d, big_l * vals)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def eigenspace_dim(d: int, ell: int) -> int:
    """Dimension of the degree-ell Laplace eigenspace on S^d, exact integer."""
    _validate_dim(d)
    if int(ell) != ell or ell < 1:
        raise ValueError(f"degree must be an integer >= 1, got {ell}")
    num = (2 * ell + d - 1) * math.comb(ell + d - 2, ell - 1)
    if num % ell:
        raise ArithmeticError("eigenspace dimension is not an integer")
    return num // ell
