import math
import time

import numpy as np
import pytest
from scipy.special import jv

from polyspec import fieldsim as fs
from polyspec import specfun
from polyspec import variance as va
from polyspec import walk
from polyspec.geometry import Geometry, ball_volume, cap_volume

E, S = Geometry.EUCLIDEAN, Geometry.SPHERICAL


class TestBuildDomain:
    @pytest.mark.parametrize("d,R", [(2, 1.0), (3, 1.0), (4, 2.0)])
    def test_euclidean_volume(self, d, R):
        dom = fs.build_domain(E, d, R, 10)
        assert dom.volume == pytest.approx(ball_volume(d, R), rel=1e-10)
        assert np.all(dom.weights > 0)

    @pytest.mark.parametrize("d,R", [(2, 1.0), (2, math.pi), (3, 0.8)])
    def test_spherical_volume(self, d, R):
        dom = fs.build_domain(S, d, R, 12)
        assert dom.volume == pytest.approx(cap_volume(d, R), rel=1e-10)
        # points live on the unit sphere in R^(d+1)
        assert np.allclose(np.linalg.norm(dom.points, axis=1), 1.0, atol=1e-12)

    def test_smooth_integrand(self):
        dom = fs.build_domain(E, 2, 1.0, 16)
        val = float(np.sum(dom.weights * np.exp(-np.sum(dom.points**2, axis=1))))
        assert val == pytest.approx(math.pi * (1 - math.exp(-1)), rel=1e-12)

    @pytest.mark.parametrize("geometry,d,R,second,fourth", [
        (E, 4, 1.0, 2 * math.pi**2 / 24, 2 * math.pi**2 / 192),
        (S, 3, math.pi, 2 * math.pi**2 / 4, 2 * math.pi**2 / 24),
    ])
    def test_coordinate_moments(self, geometry, d, R, second, fourth):
        # x_i^2 and x_i^2 x_j^2 over the R^4 ball and the whole S^3, on every
        # coordinate and pair: each level of the product rule is read
        dom = fs.build_domain(geometry, d, R, 16)
        sq = dom.points**2
        assert np.abs(dom.weights @ sq - second).max() < 1e-12
        for i in range(sq.shape[1]):
            for j in range(i):
                assert abs(dom.weights @ (sq[:, i] * sq[:, j]) - fourth) < 1e-12, (i, j)

    def test_rejects_low_resolution(self):
        with pytest.raises(ValueError):
            fs.build_domain(E, 2, 1.0, 4)

    @pytest.mark.parametrize("geometry,d,resolution", [(E, 3, 2000), (S, 2, 3000)])
    def test_refuses_oversized_domain_before_building(self, geometry, d, resolution):
        # 4 resolution^d points, beyond the 4096^2 any factor draws: the R^3
        # domain asked numpy for 715 GiB, the S^2 one built 36 M points
        start = time.perf_counter()
        with pytest.raises(ValueError, match="points"):
            fs.build_domain(geometry, d, 1.0, resolution)
        assert time.perf_counter() - start < 1.0


def _draws(spec, pts, rng, n_draws):
    factor = fs._factor(spec, pts)
    return factor @ rng.standard_normal((factor.shape[1], n_draws))


class TestSamplers:
    def test_unit_variance_single_point(self):
        spec = va.FieldSpec(E, 2, 10.0)
        draws = _draws(spec, np.zeros((1, 2)), np.random.default_rng(5), 30_000)[0]
        assert draws.mean() == pytest.approx(0.0, abs=0.02)
        assert draws.var() == pytest.approx(1.0, abs=3 * math.sqrt(2 / 30_000) + 0.01)

    def test_euclidean_two_point_correlation(self):
        # d = 3, so the draws go through the Cholesky factor
        spec = va.FieldSpec(E, 3, 10.0)
        pts = np.array([[0.0, 0.0, 0.0], [0.25, 0.0, 0.0]])
        f = _draws(spec, pts, np.random.default_rng([6, 0]), 60_000)
        corr = np.corrcoef(f)[0, 1]
        expect = specfun.jd(3, 10.0 * 0.25)
        assert corr == pytest.approx(expect, abs=4.0 / math.sqrt(60_000))

    def test_spherical_two_point_correlation(self):
        from polyspec.specfun import GegenbauerSpec, gegenbauer

        spec = va.FieldSpec(S, 2, 15)
        r0 = 0.3
        pts = np.array([[0.0, 0.0, 1.0], [math.sin(r0), 0.0, math.cos(r0)]])
        f = _draws(spec, pts, np.random.default_rng([7, 0]), 60_000)
        corr = np.corrcoef(f)[0, 1]
        expect = gegenbauer(GegenbauerSpec(2, 15), math.cos(r0))
        assert corr == pytest.approx(expect, abs=4.0 / math.sqrt(60_000))

    @pytest.mark.parametrize(
        "spec,planar",
        [(va.FieldSpec(E, 2, 5.0), True), (va.FieldSpec(S, 2, 5), False),
         (va.FieldSpec(E, 3, 5.0), False)],
        ids=["planar", "spherical", "d3"],
    )
    def test_fourier_bessel_planar_only(self, spec, planar):
        # the field picks the factor: Fourier-Bessel columns for the planar
        # wave, a pivoted Cholesky factor of at most n columns for the others
        rng = np.random.default_rng(2)
        if spec.geometry == S:
            pts = rng.normal(size=(12, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        else:
            pts = rng.uniform(-0.5, 0.5, (12, spec.d))
        f = fs._factor(spec, pts)
        if planar:
            r_max = float(np.hypot(pts[:, 0], pts[:, 1]).max())
            assert f.shape[0] == 12 and f.shape[1] % 2 == 1
            assert f.shape[1] > 2 * spec.freq * r_max
        else:
            assert f.shape[0] == 12 and f.shape[1] <= 12
            # the dropped Schur complement (n eps) plus Cholesky's backward
            # error ((n + 1) eps on a unit diagonal)
            cov = fs._covariance(spec, pts, np.arange(len(pts)))
            assert np.abs(f @ f.T - cov).max() <= (2 * 12 + 1) * np.finfo(float).eps
        if spec.geometry == S:
            # a degree-5 harmonic on S^2 spans 2 ell + 1 = 11 functions
            assert f.shape[1] == 11

    def test_sampler_reproducible(self):
        # a spherical field, drawn through the Cholesky factor
        spec = va.PolyspectrumSpec(va.FieldSpec(S, 2, 5), 3, 1.0)
        dom = fs.build_domain(S, 2, 1.0, 8)
        ma = fs.mc_polyspectrum_variance(spec, 3, dom, 100)
        mb = fs.mc_polyspectrum_variance(spec, 3, dom, 100)
        assert ma.estimate == mb.estimate and ma.ci95 == mb.ci95

    @pytest.mark.parametrize(
        "spec,R,resolution,rank",
        [(va.FieldSpec(S, 2, 15), 1.0, 16, 31), (va.FieldSpec(S, 3, 10), 0.7, 8, 120),
         (va.FieldSpec(E, 3, 10.0), 1.0, 8, None)],
        ids=["S2", "S3", "R3"],
    )
    def test_cholesky_factor_exact(self, spec, R, resolution, rank):
        # F F^T is the covariance within n eps, with one column per unit of
        # rank: 2 ell + 1 harmonics of degree ell on S^2, (ell + 1)^2 on S^3
        pts = fs.build_domain(spec.geometry, spec.d, R, resolution).points
        f = fs._cholesky_factor(spec, pts)
        cov = fs._covariance(spec, pts, np.arange(len(pts)))
        assert np.abs(f @ f.T - cov).max() <= len(pts) * np.finfo(float).eps
        if rank is not None:
            assert f.shape == (len(pts), rank)

    def test_cholesky_factor_work(self, monkeypatch):
        # matrix-free: the diagonal and one column per unit of rank, so
        # (2 ell + 2) n kernel values on S^2 where the dense covariance has n^2
        ell = 15
        spec = va.FieldSpec(S, 2, ell)
        pts = fs.build_domain(S, 2, 1.0, 16).points
        sizes = []
        gegenbauer = specfun.gegenbauer
        monkeypatch.setattr(specfun, "gegenbauer",
                            lambda s, t: sizes.append(np.size(t)) or gegenbauer(s, t))
        f = fs._cholesky_factor(spec, pts)
        assert f.shape[1] == 2 * ell + 1
        assert sum(sizes) <= (2 * ell + 2) * len(pts)

    def test_point_budget(self):
        spec = va.FieldSpec(E, 3, 5.0)
        pts = np.zeros((fs.COVARIANCE_POINT_BUDGET + 1, 3))
        with pytest.raises(ValueError):
            fs._factor(spec, pts)

    def test_fourier_bessel_budget(self):
        # within the Cholesky point budget, but lam max r = 2828 asks for
        # 5959 columns: more entries than the largest Cholesky factor
        spec = va.FieldSpec(E, 2, 5.0)
        pts = np.full((fs.COVARIANCE_POINT_BUDGET, 2), 400.0)
        with pytest.raises(ValueError):
            fs._factor(spec, pts)

    @pytest.mark.parametrize(
        "lam,shift", [(10.0, None), (6.0, (5.0, -3.0))], ids=["64-points", "shifted-domain"]
    )
    def test_fourier_bessel_factor_exact(self, lam, shift):
        # Graf's addition theorem: F F^T is the planar covariance J_0
        if shift is None:
            pts = np.random.default_rng(1).uniform(-0.5, 0.5, (64, 2))
        else:
            pts = fs.build_domain(E, 2, 1.0, 10).points + np.array(shift)
        f = fs._factor(va.FieldSpec(E, 2, lam), pts)
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        assert np.abs(f @ f.T - specfun.jd(2, lam * dist)).max() <= 1e-13

    @pytest.mark.parametrize("resolution", [16, 24, 48])
    def test_fourier_bessel_columns_per_point(self, resolution):
        # Bessel values taken per distinct radius equal a jv call per point
        lam = 20.0
        pts = fs.build_domain(E, 2, 1.0, resolution).points
        f = fs._fourier_bessel_factor(lam, pts)
        r = np.hypot(pts[:, 0], pts[:, 1])
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        m = np.arange(1, f.shape[1] // 2 + 1)
        assert np.array_equal(f[:, 0], jv(0, lam * r))
        assert np.array_equal(
            f[:, 1::2], math.sqrt(2.0) * jv(m, lam * r[:, None]) * np.cos(m * theta[:, None])
        )

    def test_fourier_bessel_unit_variance(self):
        # the truncation in m drops less than rounding on criterion 9's domain
        dom = fs.build_domain(E, 2, 1.0, 48)
        f = fs._factor(va.FieldSpec(E, 2, 20.0), dom.points)
        assert np.abs(1.0 - np.sum(f * f, axis=1)).max() <= 1e-14

    def test_fourier_bessel_vs_covariance_factor(self):
        # empirical covariance matrices agree entrywise within 5 std errors
        spec = va.FieldSpec(E, 2, 10.0)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.5, 0.5, (64, 2))
        trials = 15_000
        ffb = np.concatenate(
            [_draws(spec, pts, np.random.default_rng([21, i]), 500)
             for i in range(trials // 500)],
            axis=1,
        )
        chol = fs._cholesky_factor(spec, pts)
        assert fs._factor(spec, pts).shape != chol.shape  # two different factors
        fcf = chol @ np.random.default_rng([22, 0]).standard_normal((chol.shape[1], trials))
        cfb = ffb @ ffb.T / trials
        ccf = fcf @ fcf.T / trials
        # se of a covariance entry of unit-variance fields is ~ sqrt(2/T)
        se = math.sqrt(2.0 / trials)
        assert np.abs(cfb - ccf).max() <= 5.0 * math.sqrt(2) * se


class TestMCPolyspectrumVariance:
    def test_ci_brackets_exact_euclidean(self):
        spec = va.PolyspectrumSpec(va.FieldSpec(E, 2, 8.0), 3, 1.0)
        dom = fs.build_domain(E, 2, 1.0, 12)
        mc = fs.mc_polyspectrum_variance(spec, 99, dom, 1500)
        exact = va.variance_exact_euclidean(spec)
        assert mc.ci95[0] <= exact.value <= mc.ci95[1]
        assert mc.ci95[0] <= mc.estimate <= mc.ci95[1]

    def test_even_order_positive(self):
        spec = va.PolyspectrumSpec(va.FieldSpec(E, 2, 5.0), 2, 1.0)
        dom = fs.build_domain(E, 2, 1.0, 10)
        mc = fs.mc_polyspectrum_variance(spec, 3, dom, 400)
        assert mc.estimate > 0

    def test_deterministic(self):
        spec = va.PolyspectrumSpec(va.FieldSpec(E, 2, 5.0), 3, 1.0)
        dom = fs.build_domain(E, 2, 1.0, 10)
        a = fs.mc_polyspectrum_variance(spec, 5, dom, 300)
        b = fs.mc_polyspectrum_variance(spec, 5, dom, 300)
        assert a.estimate == b.estimate and a.ci95 == b.ci95

    @pytest.mark.parametrize("ell", [5, 8])
    def test_odd_q_spherical(self, ell):
        # the paper's headline branch, q = 5 on S^2, against the exact
        # variance at ten fixed seeds: the mean within 3 standard errors and
        # at least 7 of the 10 intervals covering it (criterion 9's rule)
        spec = va.PolyspectrumSpec(va.FieldSpec(S, 2, ell), 5, 1.0)
        dom = fs.build_domain(S, 2, 1.0, 16)
        exact = va.variance_exact_spherical(spec).value
        runs = [fs.mc_polyspectrum_variance(spec, seed, dom, 2000)
                for seed in range(77, 87)]
        ests = np.array([m.estimate for m in runs])
        se = float(ests.std(ddof=1)) / math.sqrt(len(runs))
        assert abs(float(ests.mean()) - exact) <= 3.0 * se
        assert sum(m.ci95[0] <= exact <= m.ci95[1] for m in runs) >= 7

    def test_recentring_invariance(self):
        # stationarity: shifting the domain moves the estimate within the CI
        spec = va.PolyspectrumSpec(va.FieldSpec(E, 2, 6.0), 3, 1.0)
        dom = fs.build_domain(E, 2, 1.0, 10)
        shifted = fs.QuadratureDomain(
            dom.ball, dom.points + np.array([5.0, -3.0]), dom.weights
        )
        a = fs.mc_polyspectrum_variance(spec, 31, dom, 1200)
        b = fs.mc_polyspectrum_variance(spec, 32, shifted, 1200)
        width = (a.ci95[1] - a.ci95[0]) + (b.ci95[1] - b.ci95[0])
        assert abs(a.estimate - b.estimate) <= width

    def test_resolution_doubling_within_ci(self):
        # common Fourier-Bessel coefficients isolate the quadrature effect
        spec = va.PolyspectrumSpec(va.FieldSpec(E, 2, 6.0), 3, 1.0)
        doms = [fs.build_domain(E, 2, 1.0, res) for res in (10, 20)]
        ests = []
        for dom in doms:
            mc = fs.mc_polyspectrum_variance(spec, 88, dom, 600)
            ests.append(mc)
        half = 0.5 * (ests[0].ci95[1] - ests[0].ci95[0])
        assert abs(ests[0].estimate - ests[1].estimate) <= half

    @pytest.mark.parametrize("geometry,R", [(E, 0.3), (S, 1.0)])
    def test_rejects_domain_of_another_ball(self, geometry, R):
        # a planar R = 1 spec used to give a number on any domain: 0.0453 on
        # an R = 0.3 disc and 1.859 on an S^2 cap (0.4455 on its own disc)
        spec = va.PolyspectrumSpec(va.FieldSpec(E, 2, 10.0), 3, 1.0)
        dom = fs.build_domain(geometry, 2, R, 16)
        with pytest.raises(ValueError, match="ball"):
            fs.mc_polyspectrum_variance(spec, 1, dom, 200)

    def test_rejects_few_trials(self):
        spec = va.PolyspectrumSpec(va.FieldSpec(E, 2, 5.0), 3, 1.0)
        dom = fs.build_domain(E, 2, 1.0, 10)
        with pytest.raises(ValueError):
            fs.mc_polyspectrum_variance(spec, 5, dom, 50)


class TestWalkDensityCheck:
    def test_two_step_closed_form(self):
        chi2, p = fs.mc_walk_density_check(walk.WalkSpec(3, 2), 1_000_000, 50, seed=11)
        assert p > 0.001

    @pytest.mark.parametrize("d,cdf", [
        (2, lambda r: 2.0 / math.pi * np.arcsin(r / 2.0)),  # Beta(1/2, 1/2)
        (3, lambda r: r * r / 4.0),  # Beta(1, 1)
    ], ids=["arcsine", "uniform"])
    def test_two_step_bin_masses(self, d, cdf):
        # r^2 / 4 of a two-step flight is Beta((d-1)/2, (d-1)/2); at d = 2
        # the quadrature of rho_2 stopped 1.05e-8 off, unconverged, on the
        # last bin [1.96, 2] next to its inverse-square-root end
        edges = np.linspace(0.0, 2.0, 51)
        masses = fs._bin_masses(walk.WalkSpec(d, 2), edges)
        assert np.max(np.abs(masses - np.diff(cdf(edges)))) <= 1e-14

    def test_recursion_density(self):
        chi2, p = fs.mc_walk_density_check(walk.WalkSpec(2, 5), 1_000_000, 50, seed=12)
        assert p > 0.001

    def test_singular_pair_merges_bins(self):
        chi2, p = fs.mc_walk_density_check(walk.WalkSpec(2, 3), 1_000_000, 50, seed=13)
        assert p > 0.001

    @pytest.mark.parametrize("d", [2, 3])
    def test_refuses_single_step(self, d):
        with pytest.raises(ValueError, match="n >= 2"):
            fs.mc_walk_density_check(walk.WalkSpec(d, 1), 1000, 10, seed=1)

    def test_refuses_sparse_bins(self):
        with pytest.raises(ValueError):
            fs.mc_walk_density_check(walk.WalkSpec(2, 2), 1200, 400, seed=1)

    @pytest.mark.parametrize("bins", [0, 1])
    def test_refuses_fewer_than_two_bins(self, bins):
        # one bin has 0 degrees of freedom and gave p = 0.0 on a perfect
        # fit; no bin gave (0.0, nan)
        with pytest.raises(ValueError, match="at least 2"):
            fs.mc_walk_density_check(walk.WalkSpec(3, 3), 1000, bins, seed=1)
