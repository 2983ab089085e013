import math
import sys

import numpy as np
import pytest

from polyspec import geometry as geo
from polyspec.geometry import BallSpec, Geometry
from polyspec.quadrature import integrate_adaptive


class TestOmega:
    def test_known_values(self):
        assert geo.omega(1) == pytest.approx(2 * math.pi, rel=1e-14)
        assert geo.omega(2) == pytest.approx(4 * math.pi, rel=1e-14)
        assert geo.omega(3) == pytest.approx(2 * math.pi**2, rel=1e-14)

    def test_zero_sphere(self):
        assert geo.omega(0) == pytest.approx(2.0, rel=1e-14)


class TestBallVolume:
    def test_known_values(self):
        assert geo.ball_volume(2, 1.0) == pytest.approx(math.pi, rel=1e-14)
        assert geo.ball_volume(3, 1.0) == pytest.approx(4 * math.pi / 3, rel=1e-14)
        assert geo.ball_volume(4, 2.0) == pytest.approx(8 * math.pi**2, rel=1e-14)

    def test_overflowing_radius_refused(self):
        # R ** d raised OverflowError
        with pytest.raises(ValueError, match="overflows"):
            geo.ball_volume(2, 1e300)


class TestWeightEuclidean:
    def test_value_at_zero(self):
        for d in (2, 3, 4, 5):
            expect = geo.omega(d - 1) * geo.ball_volume(d, 1.3)
            assert geo.weight_euclidean(d, 1.3, 0.0) == pytest.approx(expect, rel=1e-12)

    def test_tangent_balls(self):
        assert geo.weight_euclidean(2, 1.0, 2.0) == 0.0
        assert geo.weight_euclidean(3, 1.0, 2.7) == 0.0

    def test_planar_lens_oracle(self):
        lens = 2 * math.acos(0.5) - 0.5 * math.sqrt(3.0)
        assert geo.weight_euclidean(2, 1.0, 1.0) == pytest.approx(
            2 * math.pi * lens, rel=1e-12
        )

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("r", [1e-10, 1e-8, 1e-6, 1e-4])
    def test_small_distance_lens_closed_form(self, d, r):
        # the lens at r << R in 40-digit mpmath: 2 R^2 acos(r/2R) -
        # (r/2) sqrt(4R^2 - r^2) at d = 2, pi (4R + r)(2R - r)^2 / 12 at d = 3.
        # Forming 1 - (r/2R)^2 next to 1 left 7.5e-9 relative at d = 3,
        # r = 1e-8
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            x = mpmath.mpf(r)
            if d == 2:
                lens = 2 * mpmath.acos(x / 2) - x / 2 * mpmath.sqrt(4 - x * x)
            else:
                lens = mpmath.pi * (4 + x) * (2 - x) ** 2 / 12
            expect = float(geo.omega(d - 1) * lens)
        assert geo.weight_euclidean(d, 1.0, r) == pytest.approx(expect, rel=1e-14, abs=0)

    def test_monotone_nonincreasing(self):
        r = np.linspace(0.0, 2.0, 100)
        for d in (2, 3, 5):
            w = geo.weight_euclidean(d, 1.0, r)
            assert np.all(np.diff(w) <= 1e-12)

    def test_change_of_variable_identity_mc(self):
        # double ball integral of exp(-|x-y|) vs its radial reduction
        rng = np.random.default_rng(42)
        n = 1_000_000
        for d in (2, 3):
            x = rng.standard_normal((n, d))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            x *= rng.uniform(0, 1, (n, 1)) ** (1.0 / d)
            y = rng.standard_normal((n, d))
            y /= np.linalg.norm(y, axis=1, keepdims=True)
            y *= rng.uniform(0, 1, (n, 1)) ** (1.0 / d)
            f = np.exp(-np.linalg.norm(x - y, axis=1))
            vol = geo.ball_volume(d, 1.0)
            mc = f.mean() * vol**2
            se = f.std() / math.sqrt(n) * vol**2
            res = integrate_adaptive(
                lambda r: np.exp(-r) * geo.weight_euclidean(d, 1.0, r) * r ** (d - 1),
                0.0, 2.0, 1e-9,
            )
            assert abs(res.value - mc) <= 4.0 * se


def omega_mpmath(n: int):
    """omega_n = 2 pi^((n+1)/2) / Gamma((n+1)/2) at mpmath's working precision."""
    mpmath = pytest.importorskip("mpmath")
    return 2 * mpmath.pi ** (mpmath.mpf(n + 1) / 2) / mpmath.gamma(mpmath.mpf(n + 1) / 2)


def sin_power_mpmath(m: int, x):
    """F_m(x) = int_x^1 (1 - t^2)^((m-1)/2) dt = int_0^arccos(x) sin^m at
    mpmath's working precision, by the incomplete Beta B_(1-x^2)((m+1)/2, 1/2) / 2
    and, for x < 0, its complement.  mpmath.quad misreads small caps (x near 1)
    at m = 7."""
    mpmath = pytest.importorskip("mpmath")
    a = mpmath.mpf(m + 1) / 2
    half = mpmath.betainc(a, 0.5, 0, 1 - x * x) / 2
    return half if x >= 0 else mpmath.beta(a, 0.5) - half


class TestLensAndCapAgainstMpmath:
    # both come from geometry._sin_power_integral.  Measured on these grids
    # for d = 2...7: within 6.5 eps (lens) and 2 eps (caps); the former
    # incomplete-Beta route read up to 1.0e-14 on the lens grid at d = 7
    @pytest.mark.parametrize("d", range(2, 8))
    def test_lens(self, d):
        mpmath = pytest.importorskip("mpmath")
        tails = np.geomspace(1e-10, 0.5, 25)
        u = np.concatenate([tails, np.linspace(0.02, 0.98, 49), 1.0 - tails])
        with mpmath.workdps(40):
            scale = 2 * omega_mpmath(d - 1) * omega_mpmath(d - 2) / (d - 1)
            expect = np.array([float(scale * sin_power_mpmath(d, mpmath.mpf(x))) for x in u])
        got = geo.weight_euclidean(d, 1.0, 2.0 * u)
        assert np.abs(got / expect - 1.0).max() <= 2e-15

    @pytest.mark.parametrize("d", range(2, 8))
    def test_cap_volume(self, d):
        mpmath = pytest.importorskip("mpmath")
        radii = [1e-6, 1e-3, 0.3, 1.0, math.pi / 2 - 1e-9, math.pi / 2 + 1e-9, 2.5,
                 math.pi - 1e-3, math.pi]
        with mpmath.workdps(40):
            expect = np.array([float(omega_mpmath(d - 1)
                                     * sin_power_mpmath(d - 1, mpmath.cos(mpmath.mpf(R))))
                               for R in radii])
        got = np.array([geo.cap_volume(d, R) for R in radii])
        assert np.abs(got / expect - 1.0).max() <= 2e-15


class TestWeightSpherical:
    def test_full_sphere_constant(self):
        for d in (2, 3, 4):
            expect = geo.omega(d - 1) * geo.omega(d)
            for r in (0.0, 1.0, math.pi):
                assert geo.weight_spherical(d, math.pi, r) == pytest.approx(
                    expect, rel=1e-12
                )

    def test_cap_area_at_zero_s2(self):
        for R in (0.5, 1.2, 2.5):
            expect = 2 * math.pi * 2 * math.pi * (1 - math.cos(R))
            assert geo.weight_spherical(2, R, 0.0) == pytest.approx(expect, rel=1e-10)

    def test_antipodal_hemispheres(self):
        assert geo.weight_spherical(2, math.pi / 2, math.pi) == pytest.approx(
            0.0, abs=1e-10
        )

    @pytest.mark.parametrize("d,R", [(2, 1.0), (3, 0.8), (4, 2.0), (5, 1.5)])
    def test_value_at_zero_is_cap_volume(self, d, R):
        expect = geo.omega(d - 1) * geo.cap_volume(d, R)
        assert geo.weight_spherical(d, R, 0.0) == pytest.approx(expect, abs=1e-8 * expect)

    def test_monotone_nonincreasing(self):
        r = np.linspace(0.0, math.pi, 100)
        for d, R in ((2, 1.0), (3, 2.0)):
            w = geo.weight_spherical(d, R, r)
            assert np.all(np.diff(w) <= 1e-8 * w.max())

    def test_change_of_variable_identity_mc(self):
        # cap pair integral of exp(-distance) on S^2 vs radial reduction
        rng = np.random.default_rng(7)
        n = 1_000_000
        R = 1.0
        z = rng.standard_normal((4 * n, 3))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        inside = np.arccos(np.clip(z[:, 2], -1, 1)) <= R
        pts = z[inside]
        half = len(pts) // 2
        x, y = pts[:half], pts[half : 2 * half]
        f = np.exp(-np.arccos(np.clip(np.sum(x * y, axis=1), -1, 1)))
        cap = geo.cap_volume(2, R)
        mc = f.mean() * cap**2
        se = f.std() / math.sqrt(half) * cap**2
        res = integrate_adaptive(
            lambda r: np.exp(-r) * geo.weight_spherical(2, R, r) * np.sin(r),
            0.0, math.pi, 1e-7,
        )
        assert abs(res.value - mc) <= 4.0 * se


class TestCapWeightClosedForm:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("R", [0.3, 1.0, math.pi / 2, 2.0, 2.5, math.pi - 1e-3])
    def test_matches_latitude_oracle(self, latitude_oracle, d, R):
        # c = |cot R| is 0 at pi/2; r* = 2R or 2 pi - 2R is where W' ends;
        # measured: within 1.1e-14 W(0) on this grid
        r = np.array([x for x in (0.0, 2 * R, 2 * math.pi - 2 * R, math.pi,
                                  0.5 * R, R, 0.3, 1.3, 2.9) if 0.0 <= x <= math.pi])
        w0 = geo.omega(d - 1) * geo.cap_volume(d, R)
        oracle = latitude_oracle(d, R, r, 1e-13 * geo.cap_volume(d, R))
        assert np.abs(geo.weight_spherical(d, R, r) - oracle).max() <= 1e-13 * w0

    @pytest.mark.parametrize("R", [0.3, 1.0, 1.5, 2.0, 2.5])
    def test_s2_gauss_bonnet_lens(self, R):
        # the lens has two arcs of geodesic curvature cot R, each turning
        # 2 beta at its cap center, and exterior angle gamma at each corner:
        # area = 2 pi - 2 gamma - 4 beta cos R
        r = np.linspace(0.05, 0.99 * min(2 * R, 2 * math.pi - 2 * R), 9)
        cos_beta = math.cos(R) * (1 - np.cos(r)) / (math.sin(R) * np.sin(r))
        cos_gamma = (np.cos(r) - math.cos(R) ** 2) / math.sin(R) ** 2
        area = (2 * math.pi - 2 * np.arccos(cos_gamma)
                - 4 * np.arccos(cos_beta) * math.cos(R))
        w0 = geo.weight_spherical(2, R, 0.0)
        assert np.abs(geo.weight_spherical(2, R, r) - 2 * math.pi * area).max() <= 1e-13 * w0

    def test_disjoint_caps_weigh_zero(self):
        for d in (2, 3, 4, 5):
            assert np.all(geo.weight_spherical(d, 1.0, np.array([2.0, 2.5, math.pi])) == 0.0)

    def test_rejects_nan_distance(self):
        # NaN failed both range comparisons and came back as weight 0.0
        for r in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match="center distance"):
                geo.weight_spherical(2, 1.0, r)


class TestWeightFunctionObjects:
    def test_spherical_weight_matches_latitude_quadrature(self, latitude_oracle):
        w = geo.make_weight(BallSpec(Geometry.SPHERICAL, 2, 1.0))
        r = np.linspace(0.01, 3.1, 17)
        assert np.abs(w(r) - latitude_oracle(2, 1.0, r, 1e-10)).max() <= 1e-10 * w.at_zero

    def test_euclidean_eval(self):
        w = geo.make_weight(BallSpec(Geometry.EUCLIDEAN, 3, 1.0))
        assert w.support_end == 2.0
        assert w(2.5) == 0.0

    def test_weight_non_increasing(self):
        # measured on this grid: no step increases, the cap weights included
        for geometry, d, R in [
            (Geometry.EUCLIDEAN, 2, 1.0), (Geometry.EUCLIDEAN, 3, 1.0),
            (Geometry.SPHERICAL, 2, 1.0), (Geometry.SPHERICAL, 3, 0.7),
            (Geometry.SPHERICAL, 3, math.pi), (Geometry.SPHERICAL, 2, 2.5),
        ]:
            w = geo.make_weight(BallSpec(geometry, d, R))
            vals = w(np.linspace(0.0, w.support_end, 20_001))
            assert np.max(np.diff(vals)) <= 1e-10, (geometry, d, R)


class TestBallSpecValidation:
    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            BallSpec(Geometry.EUCLIDEAN, 2, 0.0)
        with pytest.raises(ValueError):
            BallSpec(Geometry.SPHERICAL, 2, 3.5)

    @pytest.mark.parametrize("d", [2, 3, 6, 20])
    def test_euclidean_radius_up_to_a_finite_weight_integral(self, d):
        # at d = 20 the integral's constant is below 1, so R ** (d + 1)
        # overflows before the integral does
        const = 4 * geo.omega(d - 1) * geo.omega(d - 2) / ((d - 1) * (d + 1))
        edge = math.exp((math.log(sys.float_info.max) - math.log(const)) / (d + 1))
        weight = geo.make_weight(BallSpec(Geometry.EUCLIDEAN, d, edge * (1 - 1e-12)))
        assert math.isfinite(weight.integral) and weight.integral > 1e307
        with pytest.raises(ValueError, match="overflows"):
            BallSpec(Geometry.EUCLIDEAN, d, edge * (1 + 1e-12))

    def test_support_end(self):
        assert BallSpec(Geometry.EUCLIDEAN, 2, 1.5).support_end == 3.0
        # a cap's weight is 0 past 2R when R < pi/2
        assert BallSpec(Geometry.SPHERICAL, 2, 1.5).support_end == 3.0
        assert BallSpec(Geometry.SPHERICAL, 2, 2.0).support_end == math.pi
