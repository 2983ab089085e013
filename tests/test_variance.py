import math

import numpy as np
import pytest
from scipy.special import eval_legendre

from polyspec import specfun
from polyspec import variance as va
from polyspec import walk
from polyspec.geometry import BallSpec, Geometry, WeightFunction, cap_volume, make_weight, omega
from polyspec.quadrature import integrate_adaptive

E, S = Geometry.EUCLIDEAN, Geometry.SPHERICAL


def euclid(d, lam, q, R):
    return va.PolyspectrumSpec(va.FieldSpec(E, d, lam), q, R)


def sphere(d, ell, q, R):
    return va.PolyspectrumSpec(va.FieldSpec(S, d, ell), q, R)


_X20, _W20 = np.polynomial.legendre.leggauss(20)


def s2_cap_weight(R, r):
    """W(r) of a radius-R cap of S^2 by Gauss-Bonnet: omega_1 times the lens
    area 2 pi - 2 gamma - 4 beta cos R (two arcs of geodesic curvature
    cot R, each turning 2 beta, exterior angle gamma at each corner) up to
    r* = min(2R, 2 pi - 2R), and from there on omega_1 max(0, 2 |cap| -
    4 pi), the overlap of two caps that cover the sphere."""
    r_star = min(2 * R, 2 * math.pi - 2 * R)
    rr = np.minimum(r, r_star)
    cos_beta = math.cos(R) * (1 - np.cos(rr)) / (math.sin(R) * np.sin(rr))
    cos_gamma = (np.cos(rr) - math.cos(R) ** 2) / math.sin(R) ** 2
    area = (2 * math.pi - 2 * np.arccos(np.clip(cos_gamma, -1, 1))
            - 4 * np.arccos(np.clip(cos_beta, -1, 1)) * math.cos(R))
    return 2 * math.pi * np.where(r < r_star, area, max(0.0, -4 * math.pi * math.cos(R)))


def kink_split_gauss_legendre(f, kink, b, panels=128):
    """int_0^b f by composite 20-point Gauss-Legendre split at kink, the
    panels left of it graded geometrically into it (a cap weight meets its
    constant there like (r* - r)^(3/2))."""
    h = kink / panels
    edges = np.concatenate([np.linspace(0.0, kink - h, panels),
                            kink - h * 2.0 ** -np.arange(1, 40),
                            np.linspace(kink, b, panels + 1)])
    lo, hi = edges[:-1, None], edges[1:, None]
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _X20
    return float(np.sum(0.5 * (hi - lo) * _W20 * f(nodes)))


def test_ladder_work_count(monkeypatch):
    """The benchmark's variance ladders at their unjittered rungs converge
    in fewer than 180,000 engine evaluations together at tol 1e-8 (179,445
    with the caps of R < pi/2 integrated up to 2R, where their weight
    ends; 186,330 up to pi; 420,555 with 8 first-pass panels per period
    of freq, not one per period of q freq)."""
    engine, evals = va.integrate_adaptive, []

    def counting(*args, **kwargs):
        res = engine(*args, **kwargs)
        evals.append(res.n_evals)
        assert res.converged
        return res

    monkeypatch.setattr(va, "integrate_adaptive", counting)
    for d, q in ((2, 3), (2, 4), (3, 4)):
        for lam in (25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0):
            va.variance_exact_euclidean(euclid(d, lam, q, 1.0), 1e-8)
    for d, q, R in ((2, 3, 1.0), (3, 3, 0.7), (2, 2, 1.5)):
        for ell in (10, 20, 40, 80, 160):
            va.variance_exact_spherical(sphere(d, ell, q, R), 1e-8)
    assert len(evals) == 36
    assert sum(evals) < 180_000


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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tol"):
            va.variance_exact_euclidean(euclid(2, 9.0, 3, 1.0), tol)

    def test_method_tag_and_error(self):
        v = va.variance_exact_euclidean(euclid(2, 9.0, 3, 1.0))
        assert v.method is va.Method.EXACT_QUADRATURE
        assert v.error >= 0


class TestExactSpherical:
    def test_parity_shortcut(self):
        v = va.variance_exact_spherical(sphere(2, 11, 3, math.pi))
        assert v.value == 0.0 and v.regime is va.Regime.PARITY_ZERO

    def test_parity_raw_quadrature_tiny(self):
        # the odd-odd integrand G(cos r)^3 sin(r) W(r) itself, on a first
        # pass of 46 equal panels, 8 per period at L = 11.5
        gspec = specfun.GegenbauerSpec(2, 11)
        w = make_weight(sphere(2, 11, 3, math.pi).ball)
        raw = math.factorial(3) * integrate_adaptive(
            lambda r: specfun.gegenbauer(gspec, np.cos(r)) ** 3 * np.sin(r) * w(r),
            0.0, math.pi, 1e-9 / 6, split_points=np.linspace(0.0, math.pi, 47)[1:-1],
        ).value
        scale = math.factorial(3) * omega(1) * omega(2)
        assert abs(raw) <= 1e-12 * scale

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

    @pytest.mark.parametrize("d, q, R, ell", [
        (2, 2, 1.5, 40), (2, 3, 1.0, 20), (2, 3, 1.0, 80), (2, 5, 1.0, 40),
        (5, 3, 1.5, 30), (3, 3, 0.7, 40), (3, 5, 0.7, 40),
    ])
    def test_error_bar_covers_latitude_reference(self, latitude_oracle, monkeypatch,
                                                  d, q, R, ell):
        # the same quadrature over the latitude oracle's W at 1e-13 of the cap;
        # a cap weight off by more than rounding shows up beyond the bar
        # (the former PCHIP table was 1.5x to 3,600x outside it here)
        spec = sphere(d, ell, q, R)
        v = va.variance_exact_spherical(spec, tol=1e-11)
        tol_w = 1e-13 * cap_volume(d, R)
        monkeypatch.setattr(va, "make_weight", lambda ball: WeightFunction(
            ball, lambda r: latitude_oracle(d, R, r, tol_w), math.nan,
            min(2 * R, 2 * math.pi - 2 * R)))
        ref = va.variance_exact_spherical(spec, tol=1e-13)
        assert abs(v.value - ref.value) <= v.error

    @pytest.mark.parametrize("q, R, ell", [(2, 1.5, 19), (3, 2.0, 10), (2, 2.5, 19)])
    def test_error_bar_covers_reference_past_kink(self, q, R, ell):
        # W is not smooth at r* = min(2R, 2 pi - 2R), inside (0, pi) on these
        # caps; with no first-pass split there the bars at tol 1e-8 missed
        # this reference by 1.06x, 17x and 3.7x
        v = va.variance_exact_spherical(sphere(2, ell, q, R), tol=1e-8)
        ref = math.factorial(q) * kink_split_gauss_legendre(
            lambda r: eval_legendre(ell, np.cos(r)) ** q * np.sin(r) * s2_cap_weight(R, r),
            min(2 * R, 2 * math.pi - 2 * R), math.pi)
        assert abs(v.value - ref) <= v.error


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
          for d, R in [(2, 1.0), (2, 1.5), (3, 0.7), (4, 2.5),
                       (2, math.pi / 2), (5, math.pi / 2 - 1e-6)]),
        *(pytest.param(S, d, math.pi, id=f"sphere-{d}") for d in (2, 3)),
        *(pytest.param(E, d, R, id=f"euclidean-{d}-{R}")
          for d in (2, 3, 4, 5) for R in (0.3, 1.0, 2.5)),
    ])
    def test_weight_mean_integral_is_exact_table_integral(self, geometry, d, R):
        # every weight kind carries its exact integral: the cap's closed W
        # with its Gauss-Jacobi moment (at c = |cot R| near 0 the rule has
        # the most nodes), the Euclidean closed form, the whole sphere's
        # constant times pi
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
