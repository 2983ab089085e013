"""Special-function kernels used throughout the library.

The normalized radial covariance kernel of isotropic monochromatic waves,
Hermite polynomials (probabilists' convention), normalized Gegenbauer
polynomials, and the Bessel main term of their large-degree approximation.

The kernel jd takes ``scipy.special.spherical_jn`` at odd d (half-integer
order), several times faster than ``jv`` there.  At even d it splits at a
per-order seam: 40 up to d = 8, 40.05 at d = 10, 88 at d = 26, 436 at d = 42.

- Below the seam: the Cephes ``j0`` / ``j1`` for d = 2, 4, about 30 times
  faster than ``jv``, and ``jv`` for d >= 6.
- Past it: Hankel's expansion (DLMF 10.17.3), 14 terms, its phase taken from
  cos and sin of the argument itself.  The seam is where the first omitted
  term falls below 2^-56.  Against 30-digit mpmath, J_nu measured within
  4.3e-16 of its envelope (2/(pi r))^{1/2} for nu = 0..20 up to r = 2e5, and
  ``jv`` within 6.6e-16.  It takes 70-90 ms per 10^6 points (one core, in
  chunks of 8192) where ``jv`` takes 250-330 ms.

Cephes ``j0`` / ``j1`` measured within 3.7e-16 and 8.9e-16 r^{-1/2} of
30-digit mpmath on [0, 40] but drift beyond (to 1.0e-12 and
3.1e-12 r^{-1/2} on [2e4, 2e5]): they form the phase as x - pi/4, whose
rounding costs ulp(x)/2 of phase.  Against 40-digit mpmath for d = 2..10,
the absolute error of jd measured at most 8e-15 for r <= 40, and at most
4.1e-16 of the kernel's envelope nu! 2^nu (2/pi)^{1/2} r^{-(d-1)/2} for
40 < r <= 2e5 (5.0e-16 for even d up to 42, past each seam).

All evaluators accept scalars or numpy arrays and are pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_hermitenorm, j0, j1, jv, spherical_jn

from ._memo import build_once

__all__ = [
    "GegenbauerSpec",
    "jd",
    "hermite",
    "gegenbauer",
    "hilb_main_term",
]


# Largest argument at which d = 2, 4 take the Cephes j0 / j1 (within 3.7e-16
# and 8.9e-16 r^{-1/2} of 30-digit mpmath on [0, 40]), and the lowest seam
# of Hankel's expansion, which takes over past it
_CEPHES_MAX = 40.0
_HANKEL_TERMS = 14
# points per pass: on whole arrays (calls of up to 112,128 points in the
# `sweep` benchmark) the temporaries added 1 MB of peak RSS and 10% of solve time
_HANKEL_CHUNK = 8192


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


@build_once
def _hankel_terms(n: int):
    """Seam, Horner coefficients and phase signs of Hankel's expansion of J_n.

    With a_k = prod_{j<=k} (4n^2 - (2j-1)^2) / (k! 8^k), P = sum (-1)^m a_2m
    x^-2m and Q = sum (-1)^m a_(2m+1) x^-(2m+1) over the first _HANKEL_TERMS
    terms (DLMF 10.17.3).  Past the seam the first omitted term
    a_14 x^-14 is below 2^-56.  c, s are sqrt(2) cos and sqrt(2) sin of the
    phase (2n + 1) pi/4.
    """
    mu = 4.0 * n * n
    a = [1.0]
    for k in range(1, _HANKEL_TERMS + 1):
        a.append(a[-1] * (mu - (2 * k - 1) ** 2) / (8.0 * k))
    seam = max(_CEPHES_MAX, (abs(a[-1]) * 2.0**56) ** (1.0 / _HANKEL_TERMS))
    half = _HANKEL_TERMS // 2
    p = [(-1) ** m * a[2 * m] for m in reversed(range(half))]
    q = [(-1) ** m * a[2 * m + 1] for m in reversed(range(half))]
    c, s = ((1, 1), (-1, 1), (-1, -1), (1, -1))[n % 4]
    return seam, p, q, c, s


def _hankel(n: int, x: np.ndarray) -> np.ndarray:
    """J_n on a 1-D array past the seam of _hankel_terms(n).

    J_n(x) = (pi x)^{-1/2} (P (c cos x + s sin x) + Q (s cos x - c sin x)),
    that is (2/(pi x))^{1/2} (P cos w - Q sin w) at w = x - (2n + 1) pi/4
    with the phase split off exactly: w itself is never formed, since the
    rounding of x - pi/4 costs ulp(x)/2 of phase.
    """
    _, p, q, c, s = _hankel_terms(n)
    out = np.empty_like(x)
    for lo in range(0, x.size, _HANKEL_CHUNK):
        t = x[lo:lo + _HANKEL_CHUNK]
        y = 1.0 / (t * t)
        cos_t, sin_t = np.cos(t), np.sin(t)
        out[lo:lo + _HANKEL_CHUNK] = (
            np.polyval(p, y) * (c * cos_t + s * sin_t)
            + np.polyval(q, y) / t * (s * cos_t - c * sin_t)
        ) / np.sqrt(np.pi * t)
    return out


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
        far = x > _hankel_terms(n)[0]
        near = x[~far]
        bessel = np.empty_like(x)
        bessel[~far] = j0(near) if n == 0 else j1(near) if n == 1 else jv(n, near)
        bessel[far] = _hankel(n, x[far])
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

