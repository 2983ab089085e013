import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from polyspec import variance as va
from polyspec import walk
from polyspec.geometry import BallSpec, Geometry, make_weight, omega
from polyspec.quadrature import integrate_adaptive

E, S = Geometry.EUCLIDEAN, Geometry.SPHERICAL


def euclid(d, lam, q, R):
    return va.PolyspectrumSpec(va.FieldSpec(E, d, lam), q, R)


def sphere(d, ell, q, R):
    return va.PolyspectrumSpec(va.FieldSpec(S, d, ell), q, R)


class TestSpecValidation:
    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            euclid(2, 10.0, 1, 1.0)

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            va.FieldSpec(E, 2, 0.0)
        with pytest.raises(ValueError):
            va.FieldSpec(S, 2, 2.5)


class TestRegime:
    def test_parity_zero_requires_all_conditions(self):
        assert va.regime_of(sphere(2, 11, 3, math.pi)) is va.Regime.PARITY_ZERO
        assert va.regime_of(sphere(2, 12, 3, math.pi)) is va.Regime.GENERIC
        assert va.regime_of(sphere(2, 11, 4, math.pi)) is va.Regime.D2Q4
        assert va.regime_of(sphere(2, 11, 3, 2.0)) is va.Regime.GENERIC

    def test_other_regimes(self):
        assert va.regime_of(euclid(2, 5.0, 2, 1.0)) is va.Regime.Q2
        assert va.regime_of(euclid(2, 5.0, 4, 1.0)) is va.Regime.D2Q4
        assert va.regime_of(euclid(3, 5.0, 4, 1.0)) is va.Regime.GENERIC


class TestExactEuclidean:
    def test_q2_frequency_scaling(self):
        v10 = va.variance_exact_euclidean(euclid(2, 10.0, 2, 1.0))
        v20 = va.variance_exact_euclidean(euclid(2, 20.0, 2, 1.0))
        assert v20.value / v10.value == pytest.approx(0.5, rel=0.15)

    def test_generic_limit_d3_q3(self):
        target = math.factorial(3) * (math.pi / 4) * omega(2) * (omega(2) / 3.0)
        ratios = []
        for lam in (100.0, 400.0):
            v = va.variance_exact_euclidean(euclid(3, lam, 3, 1.0))
            ratios.append(lam**3 * v.value / target)
        assert ratios[0] == pytest.approx(1.0, abs=0.1)
        assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)

    def test_even_order_positive(self):
        v = va.variance_exact_euclidean(euclid(2, 7.0, 4, 0.8))
        assert v.value > 0

    def test_scaling_identity(self):
        # V(d,q,R,lam) = lam^(-2d) V(d,q,lam R, 1)
        left = va.variance_exact_euclidean(euclid(2, 5.0, 3, 1.0), 1e-12)
        right = va.variance_exact_euclidean(euclid(2, 1.0, 3, 5.0), 1e-12)
        assert left.value == pytest.approx(5.0**-4 * right.value, rel=1e-8)

    def test_method_tag_and_error(self):
        v = va.variance_exact_euclidean(euclid(2, 9.0, 3, 1.0))
        assert v.method is va.Method.EXACT_QUADRATURE
        assert v.error >= 0


class TestExactSpherical:
    def test_parity_shortcut(self):
        v = va.variance_exact_spherical(sphere(2, 11, 3, math.pi))
        assert v.value == 0.0 and v.regime is va.Regime.PARITY_ZERO

    def test_parity_raw_quadrature_tiny(self):
        raw = va.variance_exact_spherical(
            sphere(2, 11, 3, math.pi), shortcut_parity=False
        )
        scale = math.factorial(3) * omega(1) * omega(2)
        assert abs(raw.value) <= 1e-12 * scale

    def test_even_degree_full_sphere_constant(self):
        v = va.variance_exact_spherical(sphere(2, 12, 3, math.pi))
        pred = 2 * math.factorial(3) * omega(1) * omega(2) * walk.idq_closed_form(2, 3) / 144.0
        assert v.value == pytest.approx(pred, rel=0.2)

    def test_q2_partial_cap_scaling(self):
        vals = {}
        for ell in (60, 120):
            v = va.variance_exact_spherical(sphere(2, ell, 2, 1.0))
            vals[ell] = ell * v.value
        assert vals[120] == pytest.approx(vals[60], rel=0.1)
        assert vals[120] > 0

    def test_parity_zero_flips(self):
        # flipping any one of (odd q, odd ell, full sphere) leaves a value
        # comparable to the generic prediction
        base_pairs = [
            sphere(2, 31, 4, math.pi),   # q even
            sphere(2, 30, 3, math.pi),   # ell even
            sphere(2, 31, 3, 2.0),       # partial cap
        ]
        for spec in base_pairs:
            v = va.variance_exact_spherical(spec)
            pred = va.variance_asymptotic(spec)
            assert v.value >= 0.5 * pred.value, spec


class TestAsymptotic:
    def test_generic_constant_d3_q3(self):
        spec = euclid(3, 3.0, 3, 1.0)
        expect = 6 * (math.pi / 4) * omega(2) * (omega(2) / 3) * 3.0**-3
        assert va.variance_asymptotic(spec).value == pytest.approx(expect, rel=1e-12)

    def test_full_sphere_doubling(self):
        spec = sphere(2, 40, 5, math.pi)
        expect = (
            2 * math.factorial(5) * omega(1) * omega(2)
            * walk.idq_closed_form(2, 5) * 40.0**-2
        )
        assert va.variance_asymptotic(spec).value == pytest.approx(expect, rel=1e-10)

    def test_parity_zero_prediction(self):
        assert va.variance_asymptotic(sphere(2, 41, 5, math.pi)).value == 0.0

    def test_d2q4_log_regime_against_exact(self):
        spec100 = euclid(2, 100.0, 4, 1.0)
        spec800 = euclid(2, 800.0, 4, 1.0)
        for spec in (spec100, spec800):
            v = va.variance_exact_euclidean(spec, 1e-10)
            p = va.variance_asymptotic(spec)
            assert v.value / p.value == pytest.approx(1.0, abs=0.35)
        r100 = va.variance_exact_euclidean(spec100, 1e-10).value / va.variance_asymptotic(spec100).value
        r800 = va.variance_exact_euclidean(spec800, 1e-10).value / va.variance_asymptotic(spec800).value
        assert abs(r800 - 1.0) < abs(r100 - 1.0)

    def test_q2_constant_against_exact(self):
        for d in (2, 3):
            spec = euclid(d, 300.0, 2, 1.0)
            v = va.variance_exact_euclidean(spec, 1e-10)
            p = va.variance_asymptotic(spec)
            assert v.value / p.value == pytest.approx(1.0, abs=0.05), d

    def test_q2_spherical_constant_against_exact(self):
        spec = sphere(2, 200, 2, 1.0)
        v = va.variance_exact_spherical(spec, 1e-10)
        p = va.variance_asymptotic(spec)
        assert v.value / p.value == pytest.approx(1.0, abs=0.08)

    def test_regime_consistency_sequence(self):
        # |lam^d V / (q! I W(0)) - 1| eventually decreasing along 25 * 2^k
        spec0 = euclid(3, 25.0, 3, 1.0)
        target = va.variance_asymptotic(spec0).value * 25.0**3
        devs = []
        for k in range(5):
            lam = 25.0 * 2**k
            v = va.variance_exact_euclidean(euclid(3, lam, 3, 1.0))
            devs.append(abs(lam**3 * v.value / target - 1.0))
        assert devs[-1] < devs[0]
        assert devs[-1] < devs[-2] or devs[-2] < devs[-3]

    @pytest.mark.parametrize("geometry, d, R", [
        *(pytest.param(S, d, R, id=f"{d}-{R}")
          for d, R in [(2, 1.0), (2, 1.5), (3, 0.7), (4, 2.5)]),
        *(pytest.param(S, d, math.pi, id=f"sphere-{d}") for d in (2, 3)),
        *(pytest.param(E, d, R, id=f"euclidean-{d}-{R}")
          for d in (2, 3, 4, 5) for R in (0.3, 1.0, 2.5)),
    ])
    def test_weight_mean_integral_is_exact_table_integral(self, geometry, d, R):
        # every weight kind carries its exact integral: the cap table's, the
        # Euclidean closed form, the whole sphere's constant times pi
        w = make_weight(BallSpec(geometry, d, R))
        ref = integrate_adaptive(lambda r: w(r), 0.0, w.support_end, 1e-13 * w.integral)
        assert ref.converged
        assert w.integral == pytest.approx(ref.value, rel=1e-11)

    def test_positive_predictions(self):
        for spec in (euclid(2, 50.0, 3, 1.0), sphere(3, 20, 4, 1.0)):
            assert va.variance_asymptotic(spec).value > 0


class TestHermiteIdentity:
    @pytest.mark.parametrize("q", range(1, 7))
    @pytest.mark.parametrize("rho", [0.0, 0.3, -0.3, 0.9, -0.9, 1.0])
    def test_discrepancy_small(self, q, rho):
        assert abs(va.hermite_covariance_identity_check(q, rho)) < 1e-8

    def test_independence(self):
        assert va.hermite_covariance_identity_check(2, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_perfect_correlation(self):
        # X = Y: E H_3(X)^2 = 3!
        assert abs(va.hermite_covariance_identity_check(3, 1.0)) < 1e-10

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            va.hermite_covariance_identity_check(0, 0.5)
        with pytest.raises(ValueError):
            va.hermite_covariance_identity_check(2, 1.5)


def test_cached_weight_builds_once_under_threads(monkeypatch):
    real, builds = va.make_weight, []

    def counting(ball):
        builds.append(ball)
        time.sleep(0.05)  # keep the build open while the other thread asks
        return real(ball)

    monkeypatch.setattr(va, "make_weight", counting)
    va._cached_weight.cache_clear()
    ball = sphere(2, 20, 2, 0.9).ball
    barrier = threading.Barrier(2)

    def run():
        barrier.wait()
        return va._cached_weight(ball)

    with ThreadPoolExecutor(2) as pool:
        a, b = [f.result() for f in [pool.submit(run) for _ in range(2)]]
    assert builds == [ball]
    assert a is b
