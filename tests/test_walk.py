import math
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import betainc, gammaln

from polyspec import quadrature, specfun, walk
from polyspec.walk import Classification, DensityRoute, IdqRoute, WalkSpec


class TestRho2Closed:
    def test_d3_is_linear(self):
        assert walk.rho2_closed(3, 1.0) == pytest.approx(0.5, rel=1e-14)
        r = np.linspace(0.05, 1.95, 50)
        assert np.allclose(walk.rho2_closed(3, r), r / 2, rtol=1e-13)

    def test_d2_value(self):
        assert walk.rho2_closed(2, 1.0) == pytest.approx(
            2.0 / (math.pi * math.sqrt(3.0)), rel=1e-14
        )

    def test_closed_route_bars_cover_mpmath(self):
        # next to r = 2, 4 - r^2 lost up to 228 eps to the rounding of r^2
        mpmath = pytest.importorskip("mpmath")
        grid = np.concatenate([np.linspace(0.0, 2.0, 1001), 2.0 - np.geomspace(1e-12, 1.0, 60)])
        for d in range(2, 11):
            curve = walk.density_on_grid(WalkSpec(d, 2), grid, DensityRoute.CLOSED_FORM2)
            with mpmath.workdps(40):
                nu = mpmath.mpf(d) / 2 - 1
                scale = 2 * mpmath.gamma(nu + 1) ** 2 / (mpmath.pi * mpmath.gamma(2 * nu + 1))
                for r, value, err in zip(grid, *curve):
                    rm = mpmath.mpf(float(r))
                    ref = scale * rm ** (2 * nu) * (4 - rm**2) ** (nu - 0.5) if 0 < r < 2 else 0
                    assert abs(value - ref) <= err, (d, r)

    def test_outside_support(self):
        assert walk.rho2_closed(2, 2.5) == 0.0
        assert walk.rho2_closed(4, -0.1) == 0.0

    def test_normalizes(self):
        # graded grid absorbs the inverse-sqrt edge for d = 2
        r = 2.0 - np.geomspace(1e-14, 2.0 - 1e-9, 120_000)[::-1]
        for d in (2, 3, 4, 5):
            mass = np.trapezoid(walk.rho2_closed(d, r), r)
            assert mass == pytest.approx(1.0, abs=1e-4)


class TestDensityRecursion:
    def test_d3_n3_closed_region(self):
        # psi is identically 1/2 on (0,1): rho = r^2/2
        for r in (0.5, 0.925, 0.94, 0.949, 1.0 - 1e-6, 1.0 - 1e-9):
            assert walk.density_recursion(WalkSpec(3, 3), r) == pytest.approx(
                r * r / 2.0, abs=1e-10
            ), r

    def test_d3_n3_outer_piece(self):
        for r in (1.5, 2.2, 2.9, 1.0 + 1e-6, 1.0 + 1e-9):
            assert walk.density_recursion(WalkSpec(3, 3), r) == pytest.approx(
                r * (3.0 - r) / 4.0, abs=1e-9
            )

    def test_registered_singularity(self):
        assert walk.density_recursion(WalkSpec(2, 3), 1.0) == math.inf

    def test_positive_on_support(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 4, 5):
            for n in (3, 4, 5, 6):
                pts = rng.uniform(1e-3, n - 1e-3, 50)
                vals = [walk.density_recursion(WalkSpec(d, n), float(r)) for r in pts]
                assert all(v > 0 for v in vals)

    def test_vanishes_at_support_edge(self):
        v = walk.density_recursion(WalkSpec(4, 4), 3.999)
        assert 0.0 <= v < 1e-6

    def test_outside_support(self):
        assert walk.density_recursion(WalkSpec(3, 4), 4.5) == 0.0

    def test_near_singular_warning(self):
        with pytest.warns(walk.SingularProximityWarning):
            walk.density_recursion(WalkSpec(2, 3), 1.0 + 2e-4)

    def test_rejects_out_of_range_n(self):
        with pytest.raises(ValueError):
            walk.density_recursion(WalkSpec(2, 9), 1.0)

    def test_rejects_nan_radius(self):
        # NaN failed both support comparisons and came back as density 0.0
        with pytest.raises(ValueError, match="NaN"):
            walk.density_recursion(WalkSpec(3, 4), math.nan)
        with pytest.raises(ValueError, match="NaN"):
            walk.density_recursion(WalkSpec(3, 4), np.array([1.0, math.nan]))

    def test_planar_four_step_against_kluyver(self):
        # the planar recursion starts from the exact three-step density
        spec = WalkSpec(2, 4)
        for r in (0.4, 1.0, 1.5, 2.3, 2.6, 3.4, 3.8):
            ref = walk.density_kluyver(spec, r, tol=1e-11)
            assert ref.converged, r
            assert walk.density_recursion(spec, r) == pytest.approx(ref.value, abs=1e-9), r


def _recursion_grid(n: int) -> np.ndarray:
    """Interior radii plus 0, the integers 1 and 2, the edge n and n + 0.5."""
    return np.concatenate([[0.0, 1.0, 2.0, n, n + 0.5], (np.arange(7) + 0.5) * n / 7])


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
class TestRecursionArrays:
    def test_array_is_scalar_bit_for_bit(self, d, n):
        spec, grid = WalkSpec(d, n), _recursion_grid(n)
        vals = walk.density_recursion(spec, grid)
        ref = np.array([walk.density_recursion(spec, float(r)) for r in grid])
        assert np.array_equal(vals, ref)
        assert np.array_equal(np.isinf(vals), ((d, n) == (2, 3)) & (grid == 1.0))
        assert np.array_equal(vals == 0.0, (grid <= 0.0) | (grid >= n))

    def test_one_engine_call_per_array(self, d, n, monkeypatch):
        spec, grid = WalkSpec(d, n), _recursion_grid(n)
        walk.density_recursion(spec, 0.5)  # warm the level below
        engine, calls = quadrature.integrate_adaptive_batch, []

        def counting(*args, **kwargs):
            calls.append(1)
            return engine(*args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_adaptive_batch", counting)
        walk.density_recursion(spec, grid)
        walk.density_on_grid(spec, grid, DensityRoute.RECURSION)
        # the planar three-step density is a closed form, not a step
        assert len(calls) == (0 if (d, n) == (2, 3) else 2)


def p3_mpmath(x: float) -> float:
    """The planar three-step density p_3(x) by 60-digit mpmath 2F1 (Borwein,
    Straub, Wan & Zudilin).  1 - z ~ (1 - x)^3 / 4 near x = 1: at
    |x - 1| = 1e-12 the argument alone needs ~36 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        xm = mpmath.mpf(x)
        z = xm**2 * (9 - xm**2) ** 2 / (3 + xm**2) ** 3
        return float(2 * mpmath.sqrt(3) / mpmath.pi * xm / (3 + xm**2)
                     * mpmath.hyp2f1(mpmath.mpf(1) / 3, mpmath.mpf(2) / 3, 1, z))


class TestExactPlanarThreeStep:
    def test_against_mpmath_hypergeometric(self):
        psi3 = walk._psi_level(2, 3)
        assert walk._psi_kinks(3) == (1.0, 2.0, 3.0)
        offsets = [1e-12, 1e-9, 1e-6, 1e-3, 0.1]
        grid = sorted({1.0 + s * e for e in offsets for s in (-1, 1)}
                      | {1e-6, 0.05, 0.3, 0.6, 1.4, 1.8, 2.2, 2.7, 2.99, 3.0 - 1e-9})
        for x in grid:
            ref = p3_mpmath(x) / x
            assert float(psi3(np.array([x]))[0]) == pytest.approx(ref, rel=1e-14), x

    def test_density_recursion_is_closed_form(self):
        # a step from psi_2 was off by 1.7e-7 relative at r = 0.9
        for r in (0.3, 0.9, 1.2, 1.5, 2.0, 2.5, 2.95):
            assert walk.density_recursion(WalkSpec(2, 3), r) == pytest.approx(
                p3_mpmath(r), rel=1e-13), r

    def test_finite_cap_at_unit_radius(self):
        psi3 = walk._psi_level(2, 3)
        vals = psi3(np.array([1.0, 3.0, 3.5]))
        assert np.isfinite(vals[0]) and vals[0] > psi3(np.array([1.0 - 1e-12]))[0]
        assert vals[1] == 0.0 and vals[2] == 0.0

    def test_idq_2_5_recursion_endpoint(self):
        rec = walk.idq(2, 5, IdqRoute.RECURSION_ENDPOINT)
        assert rec.value == pytest.approx(walk.idq_closed_form(2, 5), rel=1e-9)


def psi4_planar_mpmath(r: float) -> float:
    """The planar psi_4(r) = (1/pi) int_0^pi p_3(u)/u dphi for 0 < r < 4 at 30
    digits, u = sqrt(1 + 2 r cos(phi) + r^2).  Up to r = 2 it is split where
    u = 1 (phi_1 = arccos(-r/2)), and the angle is measured from phi_1, so
    1 - u keeps full relative precision at the log spike of p_3; past r = 2,
    u^2 - 1 = r ((r - 2) + 4 cos(phi/2)^2) stays above 0, nearest at phi =
    pi, and p_3 vanishes below phi_3 = arccos((8 - r^2) / (2 r)), where u
    passes 3.  K(m) comes from 1 - m by the AGM, since mpmath.ellipk rounds
    m to 1 there and returns inf."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        rm = mpmath.mpf(r)
        if rm > 2:
            def u2_minus_1(t):
                return rm * ((rm - 2) + 4 * mpmath.cos(t / 2) ** 2)

            phi3 = mpmath.acos((8 - rm**2) / (2 * rm))
            near = mpmath.pi - mpmath.sqrt(rm - 2)  # the spike's width
            ends = [phi3] + ([near] if near > phi3 else []) + [mpmath.pi]
        else:
            phi1 = mpmath.acos(-rm / 2)

            def u2_minus_1(t):
                return -4 * rm * mpmath.sin(phi1 + t / 2) * mpmath.sin(t / 2)

            ends = [-phi1, mpmath.mpf(0)] + ([mpmath.pi - phi1] if rm < 2 else [])

        def psi3(t):
            sq = u2_minus_1(t)
            u = mpmath.sqrt(1 + sq)
            off = -sq / (1 + u)  # 1 - u
            den = (3 - u) * (u + 1) ** 3 / 16 if off > 0 else u
            one_minus_m = abs(off) ** 3 * (u + 3) / (16 * den)
            k = mpmath.pi / (2 * mpmath.agm(1, mpmath.sqrt(one_minus_m)))
            return k / (mpmath.pi**2 * mpmath.sqrt(den))

        return float(mpmath.quad(psi3, ends) / mpmath.pi)


def test_planar_psi4_tiny_radii_against_mpmath():
    # 1.0 - u left the log spike of p_3 as rounding noise: 1.6e-6 off at
    # r = 1e-9, each node running out its budget unconverged.  The spike's
    # log part comes out in closed form, c pi ln r up to r = 2 plus c pi
    # arccosh(r / 2) above: radii on both sides of r = 2 and at it
    rs = np.array([1e-9, 1.95e-9, 1e-8, 5e-8, 1e-7, 1e-3, 0.5, 1.5, 1.999, 2.0, 2.001,
                   2.5, 3.5])
    got = walk._psi_step(2, 4, rs, 1e-9)
    for r, value in zip(rs, got):
        assert value == pytest.approx(psi4_planar_mpmath(r), abs=2e-10), r
    # r (r + 2 cos(phi)) cancels into u = 1 at phi = pi: 2.0e-7 off at r = 2
    assert walk.density_recursion(WalkSpec(2, 4), 2.0) == pytest.approx(
        2.0 * psi4_planar_mpmath(2.0), abs=1e-10)


def test_planar_psi4_step_work_count(monkeypatch):
    """The (2, 4) step on its table nodes converges in fewer than 130,000
    evaluations (120,420; 381,300 while the engine bisected toward the log
    spike of psi_3 at u = 1)."""
    engine, evals = quadrature.integrate_adaptive_batch, []

    def counting(*args, **kwargs):
        res = engine(*args, **kwargs)
        evals.append(int(res.n_evals.sum()))
        assert res.converged.all()
        return res

    monkeypatch.setattr(quadrature, "integrate_adaptive_batch", counting)
    walk._psi_step(2, 4, (np.arange(4)[:, None] + walk._UNIT_NODES).ravel(), 1e-9)
    assert len(evals) == 1 and evals[0] < 130_000


def rayleigh_treloar(n: int, r):
    """The exact d = 3 random-flight density (Rayleigh 1919, Treloar 1946):
    rho_n(r) = r / (2^(n-1) (n-2)!) sum_k (-1)^k C(n, k) (n - 2k - r)_+^(n-2)."""
    s = sum((-1) ** k * math.comb(n, k) * np.maximum(n - 2 * k - r, 0.0) ** (n - 2)
            for k in range(n + 1))
    return r / (2 ** (n - 1) * math.factorial(n - 2)) * s


def _idq_references() -> dict:
    """Reference values of I_q^d: exact where known, else mpmath."""
    refs = {(d, 3): walk.idq_closed_form(d, 3) for d in range(2, 11)}
    refs[(2, 5)] = walk.idq_closed_form(2, 5)
    for q in range(4, 12):  # I_q^3 = (pi/2) rho^3_{q-1}(1)
        refs[(3, q)] = math.pi / 2 * rayleigh_treloar(q - 1, 1.0)
    # I_q^d = (nu!)^2 4^nu rho^d_{q-1}(1) with the exact odd-d endpoints
    # rho^5_3(1) = 12/35, rho^5_4(1) = 14697/71680, rho^7_3(1) = 240/1001
    refs[(5, 4)] = 9 * math.pi / 2 * 12 / 35
    refs[(5, 5)] = 9 * math.pi / 2 * 14697 / 71680
    refs[(7, 4)] = 27000 * math.pi / 1001
    # mpmath.quadosc(lambda t: jd(d, t)**q * t**(d - 1), [0, inf], omega=1)
    # at 30 digits
    refs.update({
        (2, 6): 0.3368279617664489349224489,
        (2, 8): 0.2377146534191920500631623,
        (4, 4): 1.621138938277404343102071,
        (4, 5): 1.036731939784353150734028,
        (4, 6): 0.7502534646002740200875636,
        (6, 4): 18.44495858662291163707246,
        (6, 5): 10.11889217800612314669908,
        (6, 6): 6.181359957117357307240736,
        (8, 4): 455.3269776812055901265887,
        (10, 4): 19376.82390215291529515332,
    })
    return refs


IDQ_REFERENCES = _idq_references()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_d3_levels_against_rayleigh_treloar(n):
    # PCHIP tables were off by up to 6.6e-6; the step from psi_2 near r = 1
    # by 1.4e-6 without the split ladder
    tab = walk._psi_level(3, n)
    grid = np.unique(np.concatenate(
        [np.linspace(0.0, n, 3001)]
        + [k + s * np.geomspace(1e-9, 0.4, 40) for k in range(n + 1) for s in (-1, 1)]
    ))
    grid = grid[(grid > 0) & (grid < n)]
    err = np.abs(tab(grid) * grid**2 - rayleigh_treloar(n, grid))
    assert err.max() < 1e-8, grid[err.argmax()]


def _psi3_by_angle(d, r, tol):
    """psi^d_3(r) = pref int_0^pi psi_2(u) sin(phi)^(2 nu) dphi with u =
    |1 + r e^(i phi)|, split where u crosses 2 and by a geometric ladder into
    phi = pi, where psi_2 ~ 1/u peaks to a width |1 - r|."""
    def f(phi):
        u = np.hypot(1.0 - r, 2.0 * math.sqrt(r) * np.cos(0.5 * phi))
        return walk._psi2(d, u) * np.sin(phi) ** (d - 2.0)

    c = (3.0 - r * r) / (2.0 * r)
    splits = [math.acos(c)] if -1.0 < c < 1.0 else []
    splits += list(math.pi - np.geomspace(max(abs(1.0 - r), 1e-11) * 0.5, 1.0, 30))
    res = quadrature.integrate_adaptive(f, 0.0, math.pi, tol, split_points=sorted(splits),
                                        max_evals=400_000)
    assert res.converged, r
    return walk._step_pref(d) * res.value


@pytest.mark.parametrize("d", [4, 5, 6])
def test_psi3_step_against_angle_integral(d):
    # the step from psi_2 integrates in the radius u of the two-step sum,
    # where psi_2's 1/u blow-up cancels against the Jacobian: against the
    # angle integral, radii by 0, at 1 from both sides, at 2 and by 3
    rs = np.array([1e-9, 1e-3, 0.3, 0.5, 1 - 1e-6, 1 - 1e-9, 1.0, 1 + 1e-9, 1 + 1e-6,
                   1.5, 2.0, 2.5, 3 - 1e-6])
    got = walk._psi_step(d, 3, rs, 1e-12)
    ref = [_psi3_by_angle(d, r, 1e-12) for r in rs]
    np.testing.assert_allclose(got, ref, rtol=0, atol=2e-12)


def test_planar_psi4_table_at_graded_midpoints():
    # the planar psi_4 is log-infinite at u = 0; splined through the spike,
    # the table was 2.4e-3 off at u = 1.5e-9.  It stores the bounded psi_4 +
    # c ln u: 2.3e-10 off at most, at u = 0.014
    x = walk._UNIT_NODES
    mid = 0.5 * (x[1:] + x[:-1])
    mid = mid[(mid < 0.25) | (mid > 0.75)]  # the geometric grading into 0 and 1
    ref = walk._psi_step(2, 4, mid, 1e-12)
    np.testing.assert_allclose(walk._psi_level(2, 4)(mid), ref, rtol=0, atol=1e-9)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_recursion_endpoint_against_direct(d):
    for q in range(5, 9):
        direct = walk.idq(d, q, IdqRoute.DIRECT_INTEGRAL)
        rec = walk.idq(d, q, IdqRoute.RECURSION_ENDPOINT)
        assert rec.value == pytest.approx(direct.value, rel=1e-7), q


def test_psi_levels_work_count(monkeypatch):
    """The psi levels `polyspec table` reads, each read over its whole
    support, take one engine call each, converge in every integral and,
    together, take fewer than 1.1 M integrand evaluations (1,071,510;
    1,429,050 while psi_3 at d >= 3 was stepped in the angle, with a split
    ladder into psi_2's 1/u blow-up, and the planar psi_4 table splined
    psi_4 through its log spike at u = 0; 1.69 M before the planar psi_4
    step took psi_3's log spike in closed form; PCHIP tables took 26 M;
    4.9 M while the planar psi_4 nodes at r ~ 1e-9 ran out their budgets on
    the rounding noise of 1.0 - u)."""
    engine = quadrature.integrate_adaptive_batch
    evals = []

    def counting(*args, **kwargs):
        res = engine(*args, **kwargs)
        evals.append(int(res.n_evals.sum()))
        assert res.converged.all()
        return res

    monkeypatch.setattr(quadrature, "integrate_adaptive_batch", counting)
    walk._psi_level.cache_clear()
    for d in range(2, 7):
        # bottom up, so each fit finds the level below it fit already
        for n in range(3, 7):
            walk._psi_level(d, n)(np.linspace(0.0, n, 10 * n + 1))
    # d = 2 tabulates n = 4, 5, 6 (n = 3 is exact); d >= 3 tabulates n = 3 to 6
    assert len(evals) == 3 + 4 * 4
    assert sum(evals) < 1_100_000


class TestDensityKluyver:
    def test_two_step_cross_route(self):
        res = walk.density_kluyver(WalkSpec(3, 2), 1.0, 1e-8)
        assert res.value == pytest.approx(0.5, abs=1e-6)

    def test_four_step_cross_route(self):
        res = walk.density_kluyver(WalkSpec(2, 4), 1.0, 1e-7)
        ref = walk.density_recursion(WalkSpec(2, 4), 1.0)
        assert res.value == pytest.approx(ref, abs=1e-5)

    def test_registered_divergence(self):
        res = walk.density_kluyver(WalkSpec(2, 3), 1.0)
        assert res.status == "divergent"

    def test_positive_outer_region(self):
        res = walk.density_kluyver(WalkSpec(2, 3), 2.9, 1e-7)
        assert res.converged and res.value > 0

    def test_outside_support(self):
        res = walk.density_kluyver(WalkSpec(2, 4), 4.2)
        assert res.value == 0.0

    def test_rejects_nan_radius(self):
        # NaN passed the r <= 0 check and failed later in a float-to-int cast
        with pytest.raises(ValueError, match="radius"):
            walk.density_kluyver(WalkSpec(3, 4), math.nan)

    def test_error_bars_cover_rayleigh_treloar(self):
        # the bar never drops below rounding: the mollified engine once put
        # 9.9e-20 on 9.9e-5 at r = 4.875, where moving its start cutoff by
        # less than one panel moved the value by 4.0e-16
        res = walk.density_kluyver(WalkSpec(3, 5), 4.875, 1e-8)
        assert res.abs_error_estimate >= 4.0e-16
        # that engine also stopped unconverged at r = 1 and 3 (up to 1.96
        # tol), and this test skipped the radii that did not converge
        for i in range(1, 40):
            r = 5 * i / 40
            res = walk.density_kluyver(WalkSpec(3, 5), r, 1e-8)
            assert res.converged, r
            assert abs(res.value - rayleigh_treloar(5, r)) <= res.abs_error_estimate, r

    @pytest.mark.parametrize("r", [2.0, 2.0 - 1e-6, 2.0 + 1e-6])
    def test_planar_four_step_at_resonant_radius(self, r):
        # omega = n - 2k + r vanishes at r = 2 (k = 3): the mollified engine
        # stopped non_converged there with an error estimate of 3.2e-6
        res = walk.density_kluyver(WalkSpec(2, 4), r, 1e-8)
        assert res.converged
        assert abs(res.value - r * psi4_planar_mpmath(r)) <= res.abs_error_estimate

    @pytest.mark.parametrize("r", [1.0, 3.0, 1.0 - 1e-6, 1.0 + 1e-6])
    def test_d3_five_step_at_resonant_radii(self, r):
        res = walk.density_kluyver(WalkSpec(3, 5), r, 1e-8)
        assert res.converged
        assert abs(res.value - rayleigh_treloar(5, r)) <= res.abs_error_estimate

    @pytest.mark.parametrize("d, n", [(2, 2), (4, 2), (2, 3), (2, 4)])
    @pytest.mark.parametrize("r", [1e-6, 1e-4, 0.0499])
    def test_small_radii_against_exact_references(self, d, n, r):
        # below r = 0.05 (r seam = 2) the small-radius tail.  With the head
        # ending at seam / r, capped at 5e4, every pair here failed at
        # r = 1e-5; the mollified route failed there at (2, 2) and (2, 4)
        res = walk.density_kluyver(WalkSpec(d, n), r, 1e-8)
        if n == 2:
            ref = walk.rho2_closed(d, r)
        elif n == 3:
            ref = walk.density_recursion(WalkSpec(2, 3), r)  # closed form
        else:
            ref = r * psi4_planar_mpmath(r)
        assert res.converged
        assert abs(res.value - ref) <= res.abs_error_estimate

    @pytest.mark.parametrize("d,n,r", [(13, 4, 1.0), (11, 6, 3.0)])
    def test_high_odd_dimension_against_recursion(self, d, n, r):
        # the terminating Hankel series cancels at the old fixed cutoff pi:
        # (13, 4, 1) stopped with an error estimate of 5.8e-6
        res = walk.density_kluyver(WalkSpec(d, n), r, 1e-8)
        ref = walk.density_recursion(WalkSpec(d, n), r)
        assert res.converged
        assert abs(res.value - ref) <= res.abs_error_estimate + walk._recursion_error(ref)

    def test_singular_registry_is_the_divergent_resonance(self):
        # a tail harmonic with omega = 0 and s <= 1 does not converge: that
        # happens at an interior integer radius exactly where the registry
        # puts an infinite density
        for d in range(2, 7):
            for n in range(2, 9):
                for r in range(1, n):
                    _, omega, s, coef, summed = walk._kluyver_harmonics(d, n, float(r))
                    divergent = ((omega[:, None] == 0.0) & (s[:summed] <= 1.0)
                                 & (coef[:, :summed] != 0.0))
                    registered = r in walk.SINGULAR_INTERIOR_POINTS.get((d, n), ())
                    assert divergent.any() == registered, (d, n, r)


# the 80 Kluyver radii of the benchmark's sweep: the CLI's 41-point grids
SWEEP_POINTS = [(d, n, n * i / 40) for d, n in ((2, 4), (3, 5)) for i in range(1, 41)]


def _kluyver(points):
    return {p: walk.density_kluyver(WalkSpec(p[0], p[1]), p[2], 1e-8) for p in points}


def _race(fn, *args):
    """fn(*args) from two threads released together."""
    barrier = threading.Barrier(2)

    def run():
        barrier.wait()
        return fn(*args)

    with ThreadPoolExecutor(2) as pool:
        futures = [pool.submit(run) for _ in range(2)]
        return [f.result(timeout=300) for f in futures]


@pytest.fixture(scope="module")
def sweep_reference():
    """The sweep radii in ascending order from a cold tail table."""
    walk._kluyver_table.cache_clear()
    return _kluyver(SWEEP_POINTS)


class TestKernelTable:
    """The Kluyver route: its r-free tail table (walk._kluyver_table, built
    once per (d, n)) and its head engine calls."""

    def test_sweep_head_work_count(self, sweep_reference):
        # 4.84 M mollified-engine evaluations (6.41 M jd points) before the
        # head + Hankel tail split; 48,268 head evaluations after it with the
        # GL15 + GL7 pair, 32,910 with K15/G7
        assert all(res.converged for res in sweep_reference.values())
        assert sum(res.n_evals for res in sweep_reference.values()) < 36_000

    @pytest.mark.parametrize("order", ["descending", "shuffled"])
    def test_results_independent_of_call_order(self, sweep_reference, order):
        points = SWEEP_POINTS[::-1]
        if order == "shuffled":
            points = random.Random(6).sample(SWEEP_POINTS, len(SWEEP_POINTS))
        walk._kluyver_table.cache_clear()
        assert _kluyver(points) == sweep_reference

    def test_results_independent_of_thread_count(self, sweep_reference):
        walk._kluyver_table.cache_clear()
        with ThreadPoolExecutor(2) as pool:
            got = list(pool.map(lambda p: _kluyver([p])[p], SWEEP_POINTS))
        assert dict(zip(SWEEP_POINTS, got)) == sweep_reference

    def test_grid_heads_are_one_radius_each(self, monkeypatch):
        # one head call per radius inside the support, each split only up to
        # its own cutoff, so a grid's memory stays that of its worst radius;
        # below r seam = 2 the resonant harmonic takes one more call
        engine, calls = walk.integrate_adaptive, []

        def recording(f, a, b, tol, *, split_points):
            calls.append((a, b, len(split_points)))
            return engine(f, a, b, tol, split_points=split_points)

        monkeypatch.setattr(walk, "integrate_adaptive", recording)
        grid = np.linspace(0.02, 4.5, 225)
        walk.density_on_grid(WalkSpec(2, 4), grid, DensityRoute.KLUYVER)
        seam = walk._kluyver_table(2, 4)[0]
        heads = [(b, m) for a, b, m in calls if a == 0.0]
        inside = grid[grid < 4]
        assert len(heads) == inside.size
        assert len(calls) == inside.size + np.count_nonzero(inside * seam < 2.0)
        for (b, splits), r in zip(heads, inside):
            assert b == (seam if r * seam < 2.0 else max(seam, seam / r))
            assert splits == math.ceil(b * (4 + r) / (2 * math.pi))
        assert max(m for _, _, m in calls) < 800

    def test_table_builds_once_under_threads(self, monkeypatch):
        hankel, builds = specfun._hankel_terms, []

        def counting(nu):
            builds.append(nu)
            time.sleep(0.05)  # keep the build open while the other thread asks
            return hankel(nu)

        monkeypatch.setattr(specfun, "_hankel_terms", counting)
        walk._kluyver_table.cache_clear()
        a, b = _race(walk._kluyver_table, 2, 4)
        assert builds == [0.0] and a is b


class TestPsiTable:
    @pytest.fixture(scope="class")
    def table(self):
        return walk._PsiTable(3, 4)

    @pytest.mark.parametrize("k", range(4))
    def test_reproduces_step_at_nodes(self, table, k):
        u = k + walk._UNIT_NODES
        ref = walk._psi_step(3, 4, u, 1e-9)
        np.testing.assert_allclose(table(u), ref, rtol=1e-12, atol=0)

    def test_zero_off_support(self, table):
        u = np.array([-math.inf, -3.0, -0.5, -1e-300, 4.0, 4.0 + 1e-12, 4.5, 1e300, math.inf])
        assert np.array_equal(table(u), np.zeros_like(u))

    def test_keeps_shape(self, table):
        u = np.linspace(0.0, 4.0, 12).reshape(3, 4)
        assert table(u).shape == (3, 4)
        assert np.array_equal(table(u).ravel(), table(u.ravel()))
        one = table(np.float64(2.5))
        assert np.ndim(one) == 0 and one == table(np.array([2.5]))[0]


def _scipy_psi_table(d, n):
    """The reference psi table: scipy's not-a-knot CubicSpline over the same
    nodes and values, each point read in its own segment's column.  The
    planar psi_4 is log-infinite at u = 0, so its spline goes through the
    bounded psi_4 + c ln u, and a read subtracts c ln u again."""
    from scipy.interpolate import CubicSpline

    log = walk._PLANAR_LOG_SPIKE if (d, n) == (2, 4) else 0.0
    at = (np.arange(n)[:, None] + walk._UNIT_NODES).ravel()
    vals = walk._psi_step(d, n, at, 1e-9) + log * np.log(at)
    spline = CubicSpline(walk._UNIT_NODES, vals.reshape(n, -1).T)

    def table(u):
        out = np.zeros_like(u)
        for k in range(n):
            mask = (u >= k) & (u < k + 1)
            out[mask] = spline(u[mask] - k)[:, k] - log * np.log(u[mask])
        return np.maximum(out, 0.0)

    return table


@pytest.mark.parametrize("d,n", [(2, 4), (3, 5), (5, 6)])
def test_psi_table_matches_scipy_spline(d, n):
    rng = np.random.default_rng(7)
    offsets = np.geomspace(1e-12, 1e-8, 9)
    kinks = np.arange(n + 1.0)[:, None]
    u = np.concatenate([
        (np.arange(n)[:, None] + rng.random((n, 10_000))).ravel(),
        # the end gaps, where the end cubics extend past the outer nodes
        (kinks - offsets).ravel(),
        (kinks + offsets).ravel(),
    ])
    ref = _scipy_psi_table(d, n)(u)
    assert np.max(np.abs(walk._psi_level(d, n)(u) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_psi_level_builds_once_under_threads(monkeypatch):
    # two threads read one level together: each segment of it, and of the
    # level below that its fit reads, is fit exactly once
    step, fits = walk._psi_step, []

    def counting(d, n, rs, tol):
        fits.extend((n, int(k)) for k in np.unique(np.floor(rs)))
        time.sleep(0.05)  # keep the fit open while the other thread reads
        return step(d, n, rs, tol)

    monkeypatch.setattr(walk, "_psi_step", counting)
    walk._psi_level.cache_clear()
    u = np.linspace(0.0, 4.0, 41)
    (tab_a, a), (tab_b, b) = _race(lambda: (walk._psi_level(3, 4), walk._psi_level(3, 4)(u)))
    assert sorted(fits) == [(3, k) for k in range(3)] + [(4, k) for k in range(4)]
    assert tab_a is tab_b and np.array_equal(a, b)


def test_psi_table_fit_in_pieces_matches_fit_at_once():
    # segments are fit on first read; reads that fit them piece by piece,
    # here and in the level below, give the coefficients of one whole read
    u = np.linspace(0.0, 5.0, 51)
    walk._psi_level.cache_clear()
    pieces = walk._psi_level(2, 5)
    assert pieces._fit == 0
    pieces(np.array([0.3]))
    assert pieces._fit == 1
    pieces(np.array([2.5, 1.2]))
    assert pieces._fit == 3
    pieces(u)
    walk._psi_level.cache_clear()
    whole = walk._psi_level(2, 5)
    whole(u)
    assert np.array_equal(pieces.coef, whole.coef)
    assert np.array_equal(pieces(u), whole(u))


class TestRouteAgreement:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_kluyver_vs_recursion_grid(self, d, n):
        if (d, n) == (2, 3):
            pytest.skip("registered singular pair")
        spec = WalkSpec(d, n)
        grid = (np.arange(20) + 0.5) * n / 20.0
        for r in grid:
            res = walk.density_kluyver(spec, float(r), 1e-7)
            ref = walk.density_recursion(spec, float(r))
            tol = max(1e-5, 3.0 * res.abs_error_estimate)
            assert res.value == pytest.approx(ref, abs=tol), (d, n, r)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_kluyver_vs_closed_n2(self, d):
        spec = WalkSpec(d, 2)
        for r in (np.arange(20) + 0.5) * 2.0 / 20.0:
            res = walk.density_kluyver(spec, float(r), 1e-8)
            assert res.value == pytest.approx(
                walk.rho2_closed(d, float(r)), abs=1e-6
            ), (d, r)


class TestNormalization:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_mass_and_second_moment(self, d, n):
        tab = walk._psi_level(d, n)
        grid = np.unique(
            np.concatenate(
                [np.linspace(1e-9, n - 1e-9, 3001)]
                + [
                    k + s * np.geomspace(1e-9, 0.4, 40)
                    for k in range(0, n + 1)
                    for s in (-1, 1)
                ]
            )
        )
        grid = grid[(grid > 0) & (grid < n)]
        rho = tab(grid) * grid ** (d - 1)
        mass = np.trapezoid(rho, grid)
        m2 = np.trapezoid(rho * grid**2, grid)
        assert mass == pytest.approx(1.0, abs=1e-4)
        assert m2 == pytest.approx(float(n), abs=1e-4 * n)


class TestClassification:
    def test_divergent_cases(self):
        assert walk.classify_idq(2, 4) is Classification.DIVERGENT
        for d in range(2, 7):
            assert walk.classify_idq(d, 2) is Classification.DIVERGENT

    def test_conditional_cases(self):
        assert walk.classify_idq(2, 3) is Classification.CONDITIONAL
        assert walk.classify_idq(3, 3) is Classification.CONDITIONAL

    def test_absolute_cases(self):
        assert walk.classify_idq(5, 3) is Classification.ABSOLUTE
        assert walk.classify_idq(2, 5) is Classification.ABSOLUTE
        assert walk.classify_idq(3, 4) is Classification.ABSOLUTE

    def test_bad_dimension_message_matches_walkspec(self):
        for d in (1, 2.5):
            with pytest.raises(ValueError) as spec_err:
                WalkSpec(d, 3)
            with pytest.raises(ValueError) as cls_err:
                walk.classify_idq(d, 3)
            assert str(cls_err.value) == str(spec_err.value)
        with pytest.raises(ValueError, match="moment order"):
            walk.classify_idq(3, 1)

    def test_envelope_threshold(self):
        for d in range(2, 8):
            for q in range(3, 9):
                if (d, q) == (2, 4):
                    continue
                expect = (
                    Classification.ABSOLUTE
                    if (d - 1) * (q / 2 - 1) > 1
                    else Classification.CONDITIONAL
                )
                assert walk.classify_idq(d, q) is expect

    def test_agrees_with_tail_harmonics(self):
        # I_q^d is the Kluyver integral of n = q - 1 steps at r = 1: it
        # diverges where a resonant tail harmonic (omega = 0) decays no
        # faster than 1/t, and converges absolutely where the slowest
        # envelope t^(-s0) does
        for d in range(2, 11):
            for q in range(3, 13):
                _, omega, s, coef, summed = walk._kluyver_harmonics(d, q - 1, 1.0)
                divergent = ((omega[:, None] == 0.0) & (s[:summed] <= 1.0)
                             & (coef[:, :summed] != 0.0)).any()
                expect = (Classification.DIVERGENT if divergent
                          else Classification.ABSOLUTE if s[0] > 1.0
                          else Classification.CONDITIONAL)
                assert walk.classify_idq(d, q) is expect, (d, q)
                assert divergent == ((d, q) == (2, 4))


# I_q^d by mpmath at 30 digits: mpmath.quad on [0, 40] (unit pieces) plus
# mpmath.quadosc(..., omega=1) beyond
LARGE_Q_REFERENCES = {
    (4, 100): 0.003168107024333200551275381,
    (5, 60): 0.007381621554626847778750875,
    (5, 100): 0.002075712640233760004945414,
    (5, 151): 0.0007439849690125158224461539,
    (7, 60): 0.009902646767621689631187551,
    (9, 30): 0.541327697862997075859574,
    (9, 31): 0.4682153251024060222819992,
    (9, 32): 0.4068164385866833881524435,
    (9, 33): 0.3549766333078235432192549,
    (9, 34): 0.3109860030683043059021575,
    (9, 35): 0.2734780140501309459884476,
}


class TestIdq:
    def test_d3_q3_both_routes(self):
        direct = walk.idq(3, 3, IdqRoute.DIRECT_INTEGRAL, 1e-10)
        rec = walk.idq(3, 3, IdqRoute.RECURSION_ENDPOINT)
        assert direct.value == pytest.approx(math.pi / 4, rel=1e-9)
        assert rec.value == pytest.approx(math.pi / 4, rel=1e-12)

    def test_gamma_product_closed_form(self):
        lg = sum(gammaln(f / 15.0) for f in (1.0, 2.0, 4.0, 8.0))
        expect = math.sqrt(5.0) * math.exp(lg) / (40.0 * math.pi**4)
        assert walk.idq_closed_form(2, 5) == pytest.approx(expect, rel=1e-14)
        direct = walk.idq(2, 5, IdqRoute.DIRECT_INTEGRAL, 1e-9)
        assert direct.value == pytest.approx(expect, rel=1e-7)

    def test_q3_formula_reduces_at_d2(self):
        assert walk.idq_closed_form(2, 3) == pytest.approx(
            2.0 / (math.pi * math.sqrt(3.0)), rel=1e-14
        )

    def test_divergent_has_no_value(self):
        res = walk.idq(2, 4)
        assert res.classification is Classification.DIVERGENT
        assert res.value is None and res.error is None

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_tolerance(self, tol):
        # a NaN tol used to spend the whole panel budget and return a value
        # with no sign that it never converged
        with pytest.raises(ValueError, match="tol"):
            walk.idq(3, 5, IdqRoute.DIRECT_INTEGRAL, tol)
        with pytest.raises(ValueError, match="tol"):
            walk.density_kluyver(WalkSpec(3, 5), 1.5, tol)

    def test_unconverged_direct_integral_raises(self, monkeypatch):
        def unconverged(f, a, b, tol, **kwargs):
            return quadrature.QuadResult(0.49, 1e3 * tol, 2_000_020, False)

        # the direct route's head on [0, T], the one engine call of idq
        monkeypatch.setattr(walk, "integrate_adaptive", unconverged)
        with pytest.raises(quadrature.NonConvergedError):
            walk.idq(3, 5, IdqRoute.DIRECT_INTEGRAL)

    @pytest.mark.parametrize("tol", [1e-8, 1e-9, 1e-10, 1e-11, 1e-12])
    def test_direct_error_bars_cover_references(self, tol):
        # the bar adds the head's estimate, the Hankel tail's bound and the
        # rounding of fac rho: without 4 eps |value|, (10, 4) at tol 1e-12
        # was 1.1e-11 off against a bar of 8.0e-12.  At 1e-12 the head of
        # (10, 3) (6.27e4) stops at its rounding level, not at its budget
        for (d, q), ref in IDQ_REFERENCES.items():
            res = walk.idq(d, q, IdqRoute.DIRECT_INTEGRAL, tol)
            assert abs(res.value - ref) <= res.error, (d, q)
        assert walk.idq(4, 5, IdqRoute.DIRECT_INTEGRAL, tol).error > 0.0

    @pytest.mark.parametrize("d,q", [
        dq for dq in sorted(IDQ_REFERENCES) if dq[1] - 1 <= walk.MAX_RECURSION_STEPS
    ])
    def test_recursion_error_bars_cover_references(self, d, q):
        # I_6^2 was 4.21e-7 off against a bar of 3.38e-7 while the planar
        # psi_4 table splined psi_4 itself through its log spike at u = 0
        res = walk.idq(d, q, IdqRoute.RECURSION_ENDPOINT)
        assert abs(res.value - IDQ_REFERENCES[(d, q)]) <= res.error

    @pytest.mark.parametrize("q", range(30, 36))
    def test_nine_dimensional_many_step_constants(self, q):
        # the odd-d cutoff was fixed at pi, where the terminating Hankel
        # series cancels: the Kluyver route gave 14.9, -135.8, ... with
        # bars from 12.7 up against true values of 0.54 to 0.27
        res = walk.idq(9, q, IdqRoute.DIRECT_INTEGRAL)
        assert res.value == pytest.approx(LARGE_Q_REFERENCES[(9, q)], rel=1e-13)

    def test_many_step_rayleigh_treloar_constant(self):
        # I_200^3 = (pi/2) rho^3_199(1), the Rayleigh-Treloar sum in exact
        # rationals; the tail engine's envelope bound overflowed at q = 200
        n = 199
        s = sum((-1) ** k * math.comb(n, k) * Fraction(n - 2 * k - 1) ** (n - 2)
                for k in range((n - 1) // 2 + 1))
        ref = math.pi / 2 * float(s / (2 ** (n - 1) * math.factorial(n - 2)))
        res = walk.idq(3, 200, IdqRoute.DIRECT_INTEGRAL)
        assert abs(res.value - ref) <= res.error

    def test_large_q_even_dimension(self):
        # the tail engine raised OverflowError in t**alpha at (4, 100)
        res = walk.idq(4, 100, IdqRoute.DIRECT_INTEGRAL)
        assert abs(res.value - LARGE_Q_REFERENCES[(4, 100)]) <= res.error

    @pytest.mark.parametrize("d,q", [(5, 60), (5, 100), (5, 151), (7, 60), (9, 30)])
    def test_large_q_bars_cover_references(self, d, q):
        # spherical_jn put odd-d jd about 4 eps high below t = max(1, (d - 3)/2),
        # and I_q^d about 4 q eps off, past the head's bar
        res = walk.idq(d, q, IdqRoute.DIRECT_INTEGRAL)
        assert abs(res.value - LARGE_Q_REFERENCES[(d, q)]) <= res.error

    def test_value_prefers_closed_form(self):
        assert walk.idq_value(4, 3, 1e-10) == walk.idq_closed_form(4, 3)
        assert walk.idq_value(2, 5, 1e-10) == walk.idq_closed_form(2, 5)
        direct = walk.idq(3, 4, IdqRoute.DIRECT_INTEGRAL, 1e-10).value
        assert walk.idq_value(3, 4, 1e-10) == direct
        assert walk.idq_value(2, 4, 1e-10) is None
        for d in (1, 2.5):  # the closed form returned 0.0 and 0.521
            with pytest.raises(ValueError):
                walk.idq_value(d, 3, 1e-10)

    def test_closed_route_rejected_outside_coverage(self):
        with pytest.raises(ValueError):
            walk.idq(3, 5, IdqRoute.CLOSED_FORM)

    def test_closed_form_bars_cover_mpmath(self):
        # the closed forms are a few eps off a 40-digit reference (I_5^2 by
        # 3.3 eps), so a bar of 0.0 or of 1e-15 |value| does not cover them
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            refs = {(2, 5): mpmath.sqrt(5) / (40 * mpmath.pi**4) * mpmath.fprod(
                mpmath.gamma(mpmath.mpf(f) / 15) for f in (1, 2, 4, 8))}
            for d in range(2, 11):
                nu = mpmath.mpf(d) / 2 - 1
                refs[d, 3] = (2 / (mpmath.pi * mpmath.sqrt(3)) * 12**nu
                              * mpmath.gamma(nu + 1) ** 4 / mpmath.gamma(2 * nu + 1))
            for (d, q), ref in refs.items():
                routes = [IdqRoute.CLOSED_FORM] + [IdqRoute.RECURSION_ENDPOINT] * (q == 3)
                for route in routes:
                    res = walk.idq(d, q, route)
                    assert abs(res.value - ref) <= res.error, (d, q, route)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_route_consistency_up_to_q7(self, d):
        for q in range(3, 8):
            if walk.classify_idq(d, q) is Classification.DIVERGENT:
                continue
            a = walk.idq(d, q, IdqRoute.DIRECT_INTEGRAL, 1e-9)
            b = walk.idq(d, q, IdqRoute.RECURSION_ENDPOINT)
            assert a.value == pytest.approx(b.value, rel=1e-5), (d, q)


class TestSampleWalk:
    def test_radii_in_support(self):
        r = walk.sample_walk(WalkSpec(4, 5), 20_000, 3)
        assert r.min() >= 0.0 and r.max() <= 5.0

    def test_second_moment(self):
        n_samples = 400_000
        r = walk.sample_walk(WalkSpec(3, 4), n_samples, 9)
        sq = r**2
        se = sq.std() / math.sqrt(n_samples)
        assert abs(sq.mean() - 4.0) <= 4.0 * se

    def test_kolmogorov_smirnov_two_step(self):
        n = 1_000_000
        r = np.sort(walk.sample_walk(WalkSpec(3, 2), n, 123))
        cdf = np.minimum(r**2 / 4.0, 1.0)
        ks = np.abs(np.arange(1, n + 1) / n - cdf).max()
        assert ks <= 1.63 / math.sqrt(n)

    @pytest.mark.parametrize("d", [2, 4, 5])
    def test_kolmogorov_smirnov_two_step_any_dim(self, d):
        # at n = 2, r^2 / 4 = (1 + t) / 2 is Beta((d-1)/2, (d-1)/2)
        n = 1_000_000
        r = np.sort(walk.sample_walk(WalkSpec(d, 2), n, 123))
        a = 0.5 * (d - 1)
        cdf = betainc(a, a, np.minimum(r**2 / 4.0, 1.0))
        ks = np.abs(np.arange(1, n + 1) / n - cdf).max()
        assert ks <= 1.63 / math.sqrt(n)

    @pytest.mark.parametrize("d,steps", [(2, 5), (4, 3), (5, 4)])
    def test_second_moment_and_support_any_dim(self, d, steps):
        # uncorrelated unit steps: E r^2 = n, and 0 <= r <= n
        n_samples = 400_000
        r = walk.sample_walk(WalkSpec(d, steps), n_samples, 9)
        sq = r**2
        se = sq.std() / math.sqrt(n_samples)
        assert abs(sq.mean() - steps) <= 4.0 * se
        assert r.min() >= 0.0 and r.max() <= steps

    def test_deterministic(self):
        a = walk.sample_walk(WalkSpec(2, 3), 70_000, 11)
        b = walk.sample_walk(WalkSpec(2, 3), 70_000, 11)
        assert np.array_equal(a, b)


class TestDensityCurve:
    def test_closed_route_rows(self):
        curve = walk.density_curve(WalkSpec(3, 2), 0.0, 2.0, 21, DensityRoute.CLOSED_FORM2)
        inside = curve.grid < 2.0  # the support is open at r = 2
        assert np.allclose(curve.values[inside], curve.grid[inside] / 2.0, rtol=1e-12)
        assert np.all(curve.values[~inside] == 0.0)

    def test_values_vanish_beyond_support(self):
        curve = walk.density_curve(WalkSpec(3, 2), 1.5, 2.5, 11, "ClosedForm2")
        assert np.all(curve.values[curve.grid >= 2.0] == 0.0)

    def test_mc_route_matches_closed(self):
        curve = walk.density_curve(WalkSpec(3, 2), 0.2, 1.8, 9, DensityRoute.MONTE_CARLO)
        expect = curve.grid / 2.0
        assert np.all(np.abs(curve.values - expect) <= 6.0 * curve.error + 1e-3)

    def test_mc_bins_match_per_point_counts(self):
        spec = WalkSpec(3, 4)
        grid = np.linspace(0.0, 5.0, 26)[1:]  # points past r = 4 read 0 +- 0
        vals, errs = walk.density_on_grid(spec, grid, DensityRoute.MONTE_CARLO, seed=7)
        radii = walk.sample_walk(spec, walk.MC_DENSITY_SAMPLES, 7)
        for i, (r, w) in enumerate(zip(grid, np.gradient(grid))):
            if r > 4.0:
                assert (vals[i], errs[i]) == (0.0, 0.0), r
                continue
            lo, hi = max(0.0, r - w / 2), min(4.0, r + w / 2)
            count = int(np.count_nonzero((radii >= lo) & (radii < hi)))
            scale = walk.MC_DENSITY_SAMPLES * (hi - lo)
            assert vals[i] == count / scale, r
            assert errs[i] == math.sqrt(max(count, 1)) / scale, r

    def test_recursion_emits_inf_at_singularity(self):
        curve = walk.density_curve(WalkSpec(2, 3), 0.5, 1.5, 3, DensityRoute.RECURSION)
        assert math.isinf(curve.values[1])

    def test_rejects_single_step(self):
        with pytest.raises(ValueError):
            walk.density_curve(WalkSpec(2, 1), 0.0, 1.0, 5, DensityRoute.KLUYVER)
