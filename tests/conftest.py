import math
import os

# run BLAS as the CLI does: on one thread, set before numpy loads OpenBLAS
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest
from scipy.special import beta, betainc, roots_hermitenorm

from polyspec import geometry as geo
from polyspec import specfun as sf
from polyspec.quadrature import check_converged, integrate_adaptive_batch

_X16, _W16 = np.polynomial.legendre.leggauss(16)


def sin_power_integral(m: int, phi) -> np.ndarray:
    """int_0^phi sin^m for phi in [0, pi] and m >= 0, by scipy's incomplete Beta.

    With x = cos^2 phi it is B((m+1)/2, 1/2) (1 - sign(cos phi) I_x(1/2, (m+1)/2)) / 2:
    I_x(1/2, a) grows like |cos phi| from x = 0, so phi next to pi/2 keeps its
    digits.  At m = 0 that is arccos(cos phi), which loses small phi, so m = 0
    returns phi itself.
    """
    if m == 0:
        return np.asarray(phi, dtype=float)
    c = np.cos(np.asarray(phi, dtype=float))
    a = 0.5 * (m + 1)
    return 0.5 * beta(a, 0.5) * (1.0 - np.sign(c) * betainc(0.5, a, c * c))


def latitude_weight(d: int, R: float, r, tol: float) -> np.ndarray:
    """omega_{d-1} times the volume of two radius-R caps of S^d at distances r,
    by quadrature over the latitude of the first cap.

    The zone at colatitude theta meets the second cap in a sub-cap of
    S^(d-1) whose half-angle is an arccos expression in cos R, cos r and
    cos theta (clamped to [-1, 1] for the all-in and all-out zones).  One
    adaptive integral per distance, each to absolute tolerance tol on the
    volume, split where the zone enters or leaves the second cap.
    """
    rs = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.full_like(rs, geo.omega(d - 1) * geo.cap_volume(d, R))
    apart = ~(rs < 1e-12)
    sin_r, cos_r = np.sin(rs[apart]), np.cos(rs[apart])

    def zone(theta, k):
        ct, st = np.cos(theta), np.sin(theta)
        arg = (math.cos(R) - ct * cos_r[k]) / np.maximum(st * sin_r[k], 1e-300)
        phi = np.arccos(np.clip(arg, -1.0, 1.0))
        return st ** (d - 1) * geo.omega(d - 2) * sin_power_integral(d - 2, phi)

    # the zone enters or leaves the second cap directly (theta = |r - R|,
    # r + R) or by wrapping past the far pole (theta = 2 pi - r - R)
    col = rs[apart, None]
    kinks = np.hstack([np.abs(col - R), col + R, 2.0 * math.pi - col - R])
    res = integrate_adaptive_batch(zone, 0.0, R, tol, split_points=kinks)
    check_converged(res, tol, "latitude weight oracle")
    out[apart] = geo.omega(d - 1) * res.value
    return out


@pytest.fixture(scope="session")
def latitude_oracle():
    """The latitude-quadrature cap weight, an oracle for the closed form."""
    return latitude_weight


def partial_integrals(f, t_values, chunks_per_period: int = 2) -> np.ndarray:
    """Cumulative integrals int_0^T f for every T in t_values (increasing).

    Each stretch between consecutive T is cut into chunks_per_period panels
    per period pi, each integrated by 16-point Gauss-Legendre, and the
    panel sums accumulate in order.  Truncated integrals, so an oracle for
    how a moment integral grows with its upper limit, not for its value.
    """
    t_values = np.asarray(t_values, dtype=float)
    edges = np.unique(np.concatenate([[0.0], t_values]))
    out = np.empty(len(t_values))
    total = 0.0
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        n = max(1, int(math.ceil((hi - lo) / math.pi * chunks_per_period)))
        cuts = np.linspace(lo, hi, n + 1)
        mid, half = 0.5 * (cuts[:-1] + cuts[1:]), 0.5 * (cuts[1:] - cuts[:-1])
        nodes = mid[:, None] + half[:, None] * _X16
        vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
        panels = half * (vals @ _W16)
        total += float(panels.sum())
        out[i] = total
    return out[np.searchsorted(edges[1:], t_values)]


@pytest.fixture(scope="session")
def partial_integrals_oracle():
    """Cumulative truncated integrals int_0^T f over a grid of T."""
    return partial_integrals


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
    hx = sf.hermite(q, x)
    c = math.sqrt(max(0.0, 1.0 - rho * rho))
    # Y = rho X + c Z over the product rule
    yy = rho * x[:, None] + c * x[None, :]
    hy = sf.hermite(q, yy)
    val = float(np.einsum("i,j,i,ij->", wx, wx, hx, hy))
    return val - math.factorial(q) * rho**q


@pytest.fixture(scope="session")
def hermite_identity():
    """The Hermite moment identity's discrepancy, by Gauss-Hermite quadrature."""
    return hermite_covariance_identity_check


def hilb_main_term(spec: sf.GegenbauerSpec, theta):
    """Bessel main term of the large-degree Gegenbauer approximation.

    Returns (sin t)^{-nu} (2^nu / binom(ell+nu, ell)) (Gamma(ell+d/2) /
    (L^nu ell!)) (t / sin t)^{1/2} J_nu(L t); the Gamma ratio cancels the
    binomial exactly, leaving (t/sin t)^{nu + 1/2} jd(d, L t).
    """
    arr = np.asarray(theta, dtype=float)
    if np.any((arr <= 0.0) | (arr >= math.pi)):
        raise ValueError("angle must lie strictly inside (0, pi)")
    vals = np.atleast_1d(arr)
    out = (vals / np.sin(vals)) ** (spec.nu + 0.5) * sf.jd(spec.d, spec.L * vals)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


@pytest.fixture(scope="session")
def hilb_term():
    """Hilb's Bessel main term of a normalized Gegenbauer polynomial."""
    return hilb_main_term
