"""Special-function kernels used throughout the library.

The normalized radial covariance kernel of isotropic monochromatic waves,
Hermite polynomials (probabilists' convention), normalized Gegenbauer
polynomials, and the Bessel main term of their large-degree approximation.

The kernel jd goes through ``scipy.special``: ``spherical_jn`` at
half-integer order (odd d), which is several times faster than ``jv`` there,
and ``jv`` at integer order (even d), except that d = 2 and d = 4 use the
Cephes ``j0`` / ``j1`` for r <= 40, about 30 times faster than ``jv``.
Against 30-digit mpmath ``j0`` measured within 3.7e-16 and ``j1`` within
8.9e-16 r^{-1/2} on [0, 40]; beyond 40 they drift (to 1.0e-12 and
3.1e-12 r^{-1/2} on [2e4, 2e5]) while ``jv`` stays at 3.7e-16 r^{-1/2}, so
``jv`` takes over there.  Against 40-digit mpmath for d = 2..10 the absolute
error of jd measured at most 8e-15 for r <= 40, and at most
1.4e-13 r^{-(d-1)/2} (that is, relative to the kernel's envelope) for
40 < r <= 2e5.

All evaluators accept scalars or numpy arrays and are pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_hermitenorm, j0, j1, jv, spherical_jn

__all__ = [
    "GegenbauerSpec",
    "jd",
    "hermite",
    "gegenbauer",
    "hilb_main_term",
]


# Largest argument at which d = 2, 4 take the Cephes j0 / j1: within 3.7e-16
# (j0) and 8.9e-16 r^{-1/2} (j1) of 30-digit mpmath on [0, 40]; beyond, they
# drift to 2.1e-14 r^{-1/2} on [200, 400] and 1.0e-12 r^{-1/2} on [2e4, 2e5]
_CEPHES_MAX = 40.0


def _validate_dim(d: int) -> float:
    """Check an ambient dimension (integer >= 2) and return nu = d/2 - 1."""
    if int(d) != d or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d}")
    return 0.5 * d - 1.0


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
        if n < 2:
            bessel = (j0 if n == 0 else j1)(x, out=np.empty_like(x))
            far = x > _CEPHES_MAX
            bessel[far] = jv(n, x[far])
        else:
            bessel = jv(n, x)
        vals = math.factorial(n) * 2**n * bessel / x**n
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

