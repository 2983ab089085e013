import math

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


class TestWeightFunctionObjects:
    def test_spherical_table_matches_direct(self):
        w = geo.make_weight(BallSpec(Geometry.SPHERICAL, 2, 1.0))
        r = np.linspace(0.01, 3.1, 17)
        direct = geo.weight_spherical(2, 1.0, r)
        assert np.abs(w(r) - direct).max() < 5e-6

    def test_euclidean_eval(self):
        w = geo.make_weight(BallSpec(Geometry.EUCLIDEAN, 3, 1.0))
        assert w.support_end == 2.0
        assert w(2.5) == 0.0

    def test_weight_non_increasing(self):
        # measured on this grid: the largest increase is <= 0, except 3.1e-12
        # on the (d, R) = (2, 2.5) cap table
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

    def test_support_end(self):
        assert BallSpec(Geometry.EUCLIDEAN, 2, 1.5).support_end == 3.0
        assert BallSpec(Geometry.SPHERICAL, 2, 1.5).support_end == math.pi
