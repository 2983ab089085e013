import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_hermitenorm

from polyspec import specfun as sf


def bessel_series_oracle(nu: float, x: float, terms: int = 120) -> float:
    """Plain ascending-series evaluation, independent of the library path."""
    total = 0.0
    term = (0.5 * x) ** nu / math.gamma(nu + 1)
    for k in range(terms):
        total += term
        term *= -(0.25 * x * x) / ((k + 1) * (nu + k + 1))
    return total


class TestBesselJ:
    def test_j0_at_zero(self):
        assert sf.bessel_j(0.0, 0.0) == 1.0

    def test_half_order_trig_zero(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin(x) vanishes at pi
        assert abs(sf.bessel_j(0.5, math.pi)) < 1e-15

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
        assert abs(sf.bessel_j(0.0, 2.404825557695773)) < 1e-10

    @pytest.mark.parametrize("d", range(2, 11))
    def test_against_scipy(self, d):
        # bessel_j is scipy's jv; the reference is 30-digit mpmath
        nu = 0.5 * d - 1.0
        x = np.concatenate(
            [np.linspace(1e-8, 20, 500), np.linspace(20, 200, 200), [1e3, 1e4]]
        )
        mine = sf.bessel_j(sf.BesselOrder(d), x)
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.besselj(nu, v)) for v in x])
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
        for nu in (0.0, 1.0, 2.0):
            for x in (0.5, 4.0, 9.0, 13.5):
                slack = 5e-16 * math.exp(x) / x + 1e-14
                assert sf.bessel_j(nu, x) == pytest.approx(
                    bessel_series_oracle(nu, x), abs=slack
                )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sf.bessel_j(0.0, -1.0)
        with pytest.raises(ValueError):
            sf.bessel_j(0.3, 1.0)
        with pytest.raises(ValueError):
            sf.bessel_j(0.0, math.inf)


def jd_mpmath(d: int, r: float) -> float:
    """nu! 2^nu r^-nu J_nu(r) in 40-digit arithmetic."""
    if r == 0.0:
        return 1.0
    with mpmath.workdps(40):
        nu = mpmath.mpf(d) / 2 - 1
        x = mpmath.mpf(r)
        return float(mpmath.gamma(nu + 1) * 2**nu * x**-nu * mpmath.besselj(nu, x))


class TestJd:
    @pytest.mark.parametrize("d", range(2, 11))
    def test_against_mpmath(self, d):
        near = np.concatenate([[0.0, 1e-300, 1e-9, 1e-6, 2e-6, 1e-3], np.linspace(0.1, 40, 200)])
        far = np.geomspace(40.5, 2e5, 200)
        ref_near = np.array([jd_mpmath(d, r) for r in near])
        ref_far = np.array([jd_mpmath(d, r) for r in far])
        assert np.all(np.abs(sf.jd(d, near) - ref_near) <= 2e-14)
        # beyond the first lobes the bound follows the envelope r^{-(d-1)/2}
        assert np.all(np.abs(sf.jd(d, far) - ref_far) <= 1e-11 * far ** (-0.5 * (d - 1)))

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


class TestJdAsymptotic:
    def test_phase_d3(self):
        _, phase = sf.jd_asymptotic(3, 100.0)
        assert phase == pytest.approx(math.pi / 2)

    def test_envelope_bound_d2(self):
        # |jd - amp cos(r - phase)| = O(r^{-3/2}) beyond the first lobes
        r = np.linspace(5.0, 200.0, 4000)
        amp, phase = sf.jd_asymptotic(2, r)
        resid = np.abs(sf.jd(2, r) - amp * np.cos(r - phase))
        assert np.all(resid <= 0.5 * r**-1.5)

    def test_amplitude_clamped_below_one(self):
        amp_small, _ = sf.jd_asymptotic(2, 0.5)
        amp_one, _ = sf.jd_asymptotic(2, 1.0)
        assert amp_small == amp_one

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sf.jd_asymptotic(2, 0.0)


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
    def test_small_angle_limit(self):
        spec = sf.GegenbauerSpec(3, 12)
        vals = sf.hilb_main_term(spec, np.array([1e-6, 1e-5]))
        assert np.allclose(vals, 1.0, atol=1e-6)

    def test_error_against_remainder_bound(self):
        # remainder envelope sqrt(theta) ell^{-3/2} (sin theta)^{-nu}; the
        # fitted constant should not grow when the degree doubles
        for d in (2, 3):
            nu = 0.5 * d - 1.0
            fitted = {}
            for ell in (40, 80):
                spec = sf.GegenbauerSpec(d, ell)
                th = np.linspace(1.5 / ell, 2.0, 400)
                err = np.abs(
                    sf.hilb_main_term(spec, th)
                    - sf.gegenbauer(spec, np.cos(th))
                )
                shape = np.sqrt(th) * ell**-1.5 * np.sin(th) ** -nu
                fitted[ell] = (err / shape).max()
            assert fitted[80] <= fitted[40] * 1.2 + 1e-9

    def test_error_decays_with_degree(self):
        spec40 = sf.GegenbauerSpec(3, 30)
        spec60 = sf.GegenbauerSpec(3, 60)
        th = np.linspace(0.5, 1.5, 100)
        e40 = np.abs(sf.hilb_main_term(spec40, th) - sf.gegenbauer(spec40, np.cos(th))).max()
        e60 = np.abs(sf.hilb_main_term(spec60, th) - sf.gegenbauer(spec60, np.cos(th))).max()
        assert e60 <= max(0.5 * e40, 1e-13)

    def test_rejects_bad_angle(self):
        with pytest.raises(ValueError):
            sf.hilb_main_term(sf.GegenbauerSpec(2, 4), 0.0)
        with pytest.raises(ValueError):
            sf.hilb_main_term(sf.GegenbauerSpec(2, 4), math.pi)


class TestEigenspaceDim:
    def test_known_values(self):
        assert sf.eigenspace_dim(2, 3) == 7
        assert sf.eigenspace_dim(2, 1) == 3
        assert sf.eigenspace_dim(3, 1) == 4

    def test_circle_counts(self):
        # S^2 harmonics: 2 ell + 1
        for ell in range(1, 30):
            assert sf.eigenspace_dim(2, ell) == 2 * ell + 1

    def test_difference_of_binomials_identity(self):
        # degree-ell harmonic polynomials in the ambient d+1 variables
        for d in range(2, 8):
            for ell in range(2, 40):
                expect = math.comb(ell + d, ell) - math.comb(ell + d - 2, ell - 2)
                assert sf.eigenspace_dim(d, ell) == expect

    def test_rejects_zero_degree(self):
        with pytest.raises(ValueError):
            sf.eigenspace_dim(3, 0)
