import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma, jv, roots_hermitenorm

from polyspec import specfun as sf


def bessel_series_oracle(nu: float, x: float, terms: int = 120) -> float:
    """Plain ascending-series evaluation, independent of the library path."""
    total = 0.0
    term = (0.5 * x) ** nu / math.gamma(nu + 1)
    for k in range(terms):
        total += term
        term *= -(0.25 * x * x) / ((k + 1) * (nu + k + 1))
    return total


def jd_from_jv(d: int, x: np.ndarray) -> np.ndarray:
    """nu! 2^nu x^-nu J_nu(x) by scipy's jv, for x > 0."""
    nu = 0.5 * d - 1.0
    return gamma(nu + 1.0) * 2.0**nu * x**-nu * jv(nu, x)


class TestBesselJ:
    """jd's Bessel branches (Cephes j0 / j1, spherical_jn, jv, Hankel's
    expansion) against references that do not take them."""

    def test_j0_at_zero(self):
        assert sf.jd(2, 0.0) == 1.0

    def test_half_order_trig_zero(self):
        # J_{3/2} in closed form: jd(5, r) = 3 (sin r - r cos r) / r^3
        r = np.linspace(0.5, 50.0, 5001)
        expect = 3.0 * (np.sin(r) - r * np.cos(r)) / r**3
        assert np.abs(sf.jd(5, r) - expect).max() < 1e-13

    def test_first_zero_of_j0(self):
        # locate the first zero of the series oracle by bisection, then
        # check the library value there
        lo, hi = 2.0, 3.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if bessel_series_oracle(0.0, lo) * bessel_series_oracle(0.0, mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert abs(lo - 2.404825557695773) < 1e-12
        assert abs(sf.jd(2, 2.404825557695773)) < 1e-10

    @pytest.mark.parametrize("d", range(2, 11))
    def test_against_scipy(self, d):
        # the Cephes branch (d = 2, 4 up to r = 40), spherical_jn (odd d) and
        # Hankel's expansion (even d past the seam) against the jv form of
        # the kernel
        x = np.concatenate(
            [np.linspace(1e-8, 20, 500), np.linspace(20, 200, 200), [1e3, 1e4]]
        )
        mine = sf.jd(d, x)
        ref = jd_from_jv(d, x)
        small = x <= 20
        # relative accuracy up to x = 20, absolute beyond
        assert np.all(
            np.abs(mine[small] - ref[small])
            <= 1e-12 * np.abs(ref[small]) + 1e-13
        )
        assert np.all(np.abs(mine[~small] - ref[~small]) <= 1e-12)

    def test_against_series_oracle_midrange(self):
        # the plain-float oracle loses ~e^x/x * eps to cancellation, so the
        # comparison tolerance follows the oracle's accuracy, not the library's
        for nu in (0, 1, 2):
            for x in (0.5, 4.0, 9.0, 13.5):
                pref = math.factorial(nu) * 2**nu * x**-nu
                slack = pref * (5e-16 * math.exp(x) / x + 1e-14)
                assert sf.jd(2 * nu + 2, x) == pytest.approx(
                    pref * bessel_series_oracle(nu, x), abs=slack
                )

    def test_rejects_bad_inputs(self):
        for d, r in ((2, -1.0), (2, math.inf), (2, math.nan), (2.5, 1.0), (1, 1.0)):
            with pytest.raises(ValueError):
                sf.jd(d, r)


def jd_mpmath(d: int, r: float) -> float:
    """nu! 2^nu r^-nu J_nu(r) in 40-digit arithmetic; skips the calling test
    where the optional mpmath is not installed."""
    mpmath = pytest.importorskip("mpmath")
    if r == 0.0:
        return 1.0
    with mpmath.workdps(40):
        nu = mpmath.mpf(d) / 2 - 1
        x = mpmath.mpf(r)
        return float(mpmath.gamma(nu + 1) * 2**nu * x**-nu * mpmath.besselj(nu, x))


def jd_amplitude(d: int) -> float:
    """nu! 2^nu (2/pi)^{1/2}: jd(d, r) oscillates within this times r^{-(d-1)/2}."""
    nu = 0.5 * d - 1.0
    return gamma(nu + 1.0) * 2.0**nu * math.sqrt(2.0 / math.pi)


def hankel_seam(d: int) -> float:
    """Where even d switches to Hankel's expansion (40 up to d = 8)."""
    return sf._hankel_terms(d // 2 - 1)[0] if d % 2 == 0 else 40.0


class TestJd:
    @pytest.mark.parametrize("d", [*range(2, 11), 12, 16, 20, 30, 40])
    def test_against_mpmath(self, d):
        # 40 (1 -+ 1e-12) straddle the seam where d = 2, 4 switch from j0/j1 to
        # Hankel's expansion; far starts just past each order's seam
        near = np.concatenate([[0.0, 1e-300, 1e-9, 1e-6, 2e-6, 1e-3, 40 * (1 - 1e-12),
                                40 * (1 + 1e-12)], np.linspace(0.1, 40, 200)])
        far = np.geomspace(max(40.5, hankel_seam(d) * (1 + 1e-12)), 2e5, 200)
        ref_near = np.array([jd_mpmath(d, r) for r in near])
        ref_far = np.array([jd_mpmath(d, r) for r in far])
        assert np.all(np.abs(sf.jd(d, near) - ref_near) <= 2e-14)
        # beyond the first lobes the bound follows the kernel's envelope, with
        # its amplitude: for d <= 10 (amplitude at most 306) this is tighter
        # than 1e-11 r^{-(d-1)/2}, which would ask for less than one ulp from
        # d = 16 on (amplitude 5.1e22 at d = 40)
        envelope = jd_amplitude(d) * far ** (-0.5 * (d - 1))
        assert np.all(np.abs(sf.jd(d, far) - ref_far) <= 2e-15 * envelope)

    @pytest.mark.parametrize("d", [5, 7, 9, 11, 13, 21])
    def test_odd_d_unbiased_below_series_seam(self, d):
        # spherical_jn(n, t) / t^n read a mean 2.6-6.0 eps relative high here
        # (4.9 eps on (1e-3, 0.1) at d = 5), which q-th powers carry into I_q^d
        seam = sf._series_terms(d)[0]
        edges = [1e-3, 0.1, *np.arange(1.0, seam), seam]
        rng = np.random.default_rng(d)
        for lo, hi in zip(edges[:-1], edges[1:]):
            t = rng.uniform(lo, hi, 80)
            ref = np.array([jd_mpmath(d, r) for r in t])
            bias = np.mean((sf.jd(d, t) - ref) / np.abs(ref))
            assert abs(bias) <= np.finfo(float).eps, (lo, hi)

    @pytest.mark.parametrize("d", [*range(2, 11), 40])
    def test_scalar_and_0d_match_arrays(self, d):
        for r in (50.0, 1e4):
            one = sf.jd(d, np.array([r]))[0]
            assert sf.jd(d, r) == one and sf.jd(d, np.array(r)) == one
            assert type(sf.jd(d, r)) is float

    def test_low_even_orders_never_call_jv(self, monkeypatch):
        # d = 2, 4 take j0 / j1 up to 40 and Hankel's expansion past it
        def refuse(*args):
            raise AssertionError("jv called")

        monkeypatch.setattr(sf, "jv", refuse)
        r = np.concatenate([[0.0, 1e-7], np.geomspace(1e-3, 2e5, 20_000)])
        for d in (2, 4):
            assert np.all(np.isfinite(sf.jd(d, r)))
            assert np.isfinite(sf.jd(d, 40.0)) and np.isfinite(sf.jd(d, 2e5))

    def test_value_at_zero(self):
        for d in range(2, 9):
            assert sf.jd(d, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_d3_is_sinc(self):
        r = np.linspace(1e-6, 50, 7001)
        assert np.abs(sf.jd(3, r) - np.sin(r) / r).max() < 1e-13

    def test_d3_zero_at_pi(self):
        assert abs(sf.jd(3, math.pi)) < 1e-15

    def test_d4_matches_bessel(self):
        # nu = 1: jd = 1! * 2 * r^-1 * J_1(r)
        expect = 2.0 / 0.5 * bessel_series_oracle(1.0, 0.5)
        assert sf.jd(4, 0.5) == pytest.approx(expect, rel=1e-13)

    def test_bounded_by_one(self):
        r = np.geomspace(1e-3, 60, 2000)
        for d in range(2, 9):
            assert np.abs(sf.jd(d, r)).max() <= 1.0 + 1e-12

    def test_envelope_bound_d2(self):
        # jd(2, r) = J_0(r) = sqrt(2/pi) r^{-1/2} cos(r - pi/4) + O(r^{-3/2})
        # beyond the first lobes
        r = np.linspace(5.0, 200.0, 4000)
        envelope = math.sqrt(2.0 / math.pi) * r**-0.5
        resid = np.abs(sf.jd(2, r) - envelope * np.cos(r - math.pi / 4))
        assert np.all(resid <= 0.5 * r**-1.5)


class TestHermite:
    def test_low_orders(self):
        assert sf.hermite(2, 2.0) == pytest.approx(3.0)
        assert sf.hermite(3, 1.0) == pytest.approx(-2.0)

    def test_h6_monomial_expansion(self):
        # H6(t) = t^6 - 15 t^4 + 45 t^2 - 15
        t = 0.7
        expect = t**6 - 15 * t**4 + 45 * t**2 - 15
        assert sf.hermite(6, t) == pytest.approx(expect, rel=1e-14)

    def test_orthogonality(self):
        x, w = roots_hermitenorm(24)
        w = w / math.sqrt(2 * math.pi)
        for p in range(9):
            hp = sf.hermite(p, x)
            for q in range(9):
                hq = sf.hermite(q, x)
                val = float(np.sum(w * hp * hq))
                expect = math.factorial(q) if p == q else 0.0
                assert val == pytest.approx(expect, abs=1e-8)

    @settings(max_examples=80, deadline=None)
    @given(q=st.integers(0, 12), t=st.floats(-5.0, 5.0, allow_nan=False))
    def test_matches_numpy_hermite_e(self, q, t):
        coeffs = np.zeros(q + 1)
        coeffs[q] = 1.0
        expect = np.polynomial.hermite_e.hermeval(t, coeffs)
        assert sf.hermite(q, t) == pytest.approx(expect, rel=1e-12, abs=1e-12)


class TestGegenbauer:
    def test_legendre_case(self):
        # d = 2 reduces to Legendre: P2(0) = -1/2
        assert sf.gegenbauer(sf.GegenbauerSpec(2, 2), 0.0) == pytest.approx(-0.5)

    @pytest.mark.parametrize("d,ell", [(2, 5), (3, 17), (4, 40), (5, 60), (2, 500)])
    def test_unit_normalization(self, d, ell):
        assert sf.gegenbauer(sf.GegenbauerSpec(d, ell), 1.0) == pytest.approx(
            1.0, abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 5),
        ell=st.integers(0, 60),
        t=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_parity(self, d, ell, t):
        spec = sf.GegenbauerSpec(d, ell)
        left = sf.gegenbauer(spec, -t)
        right = (-1.0) ** ell * sf.gegenbauer(spec, t)
        assert left == pytest.approx(right, abs=1e-12)

    def test_explicit_parity_example(self):
        spec = sf.GegenbauerSpec(3, 5)
        assert sf.gegenbauer(spec, -0.3) == pytest.approx(
            -sf.gegenbauer(spec, 0.3), abs=1e-13
        )

    def test_bounded_by_one(self):
        t = np.linspace(-1, 1, 2001)
        for d in (2, 3, 5):
            for ell in (3, 11, 60):
                vals = sf.gegenbauer(sf.GegenbauerSpec(d, ell), t)
                assert np.abs(vals).max() <= 1.0 + 1e-12

    def test_rejects_outside_interval(self):
        with pytest.raises(ValueError):
            sf.gegenbauer(sf.GegenbauerSpec(2, 3), 1.5)


class TestHilbMainTerm:
    def test_small_angle_limit(self, hilb_term):
        spec = sf.GegenbauerSpec(3, 12)
        vals = hilb_term(spec, np.array([1e-6, 1e-5]))
        assert np.allclose(vals, 1.0, atol=1e-6)

    def test_error_against_remainder_bound(self, hilb_term):
        # remainder envelope sqrt(theta) ell^{-3/2} (sin theta)^{-nu}; the
        # fitted constant should not grow when the degree doubles
        for d in (2, 3):
            nu = 0.5 * d - 1.0
            fitted = {}
            for ell in (40, 80):
                spec = sf.GegenbauerSpec(d, ell)
                th = np.linspace(1.5 / ell, 2.0, 400)
                err = np.abs(
                    hilb_term(spec, th)
                    - sf.gegenbauer(spec, np.cos(th))
                )
                shape = np.sqrt(th) * ell**-1.5 * np.sin(th) ** -nu
                fitted[ell] = (err / shape).max()
            assert fitted[80] <= fitted[40] * 1.2 + 1e-9

    def test_error_decays_with_degree(self, hilb_term):
        spec40 = sf.GegenbauerSpec(3, 30)
        spec60 = sf.GegenbauerSpec(3, 60)
        th = np.linspace(0.5, 1.5, 100)
        e40 = np.abs(hilb_term(spec40, th) - sf.gegenbauer(spec40, np.cos(th))).max()
        e60 = np.abs(hilb_term(spec60, th) - sf.gegenbauer(spec60, np.cos(th))).max()
        assert e60 <= max(0.5 * e40, 1e-13)

    def test_rejects_bad_angle(self, hilb_term):
        with pytest.raises(ValueError):
            hilb_term(sf.GegenbauerSpec(2, 4), 0.0)
        with pytest.raises(ValueError):
            hilb_term(sf.GegenbauerSpec(2, 4), math.pi)

