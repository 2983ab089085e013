import math

import numpy as np
import pytest
from scipy.special import gamma, roots_jacobi

from polyspec import quadrature as quad
from polyspec import specfun as sf


class TestIntegrateAdaptive:
    def test_constant(self):
        res = quad.integrate_adaptive(lambda x: np.ones_like(x), 0.0, 2.0, 1e-10)
        assert res.value == pytest.approx(2.0, abs=1e-12)
        assert res.converged

    def test_inverse_sqrt_endpoint(self):
        # antiderivative (2/pi) arcsin(r/2): total mass one
        res = quad.integrate_adaptive(
            lambda r: 2.0 / (math.pi * np.sqrt(4.0 - r * r)), 0.0, 2.0, 1e-8
        )
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_oscillatory_dirichlet(self):
        res = quad.integrate_adaptive(
            lambda t: np.sin(t) ** 3 / t, 1e-300, 1e4, 1e-6, max_evals=3_000_000
        )
        # the sharp cutoff leaves a genuine O(1/T) tail
        assert res.value == pytest.approx(math.pi / 4, abs=3e-4)

    def test_split_points(self):
        res = quad.integrate_adaptive(
            lambda x: np.abs(x - 0.3), 0.0, 1.0, 1e-12, split_points=(0.3,)
        )
        assert res.value == pytest.approx(0.5 * (0.3**2 + 0.7**2), abs=1e-12)

    def test_budget_exhaustion_flag(self):
        res = quad.integrate_adaptive(
            lambda r: 1.0 / np.sqrt(np.abs(r)), 1e-300, 1.0, 1e-14, max_evals=500
        )
        assert not res.converged
        assert res.status == "non_converged"

    def test_refuses_first_pass_over_budget(self):
        # min_panels GL15 + GL7 pairs exceed max_evals: refused before f runs
        # or any panel is allocated
        def f(x):
            raise AssertionError("integrand called")

        with pytest.raises(ValueError, match="max_evals"):
            quad.integrate_adaptive(f, 0.0, 1.0, 1e-8, min_panels=10**300)
        with pytest.raises(ValueError, match="max_evals"):
            quad.integrate_adaptive(f, 0.0, 1.0, 1e-8, min_panels=46, max_evals=1000)
        res = quad.integrate_adaptive(lambda x: x, 0.0, 1.0, 1e-8, min_panels=45,
                                      max_evals=1000)
        assert res.value == pytest.approx(0.5, abs=1e-12) and res.n_evals == 990


# members of one family: (integrand, a, b, tol, split points); the third has
# an inverse-square-root endpoint, the last exhausts its budget
_FAMILY = [
    (lambda x: np.cos(5.0 * x) * np.exp(-x), 0.0, 2.0, 1e-12, (0.7, 1.3)),
    (lambda x: np.abs(x - 0.3), 0.0, 1.0, 1e-12, (0.3,)),
    (lambda r: 2.0 / (math.pi * np.sqrt(4.0 - r * r)), 0.0, 2.0, 1e-8, ()),
    (lambda x: np.log(np.abs(x - 1.0)), 0.5, 3.0, 1e-10, (1.0, 2.0, 2.5)),
    (lambda r: 1.0 / np.sqrt(np.abs(r)), 1e-300, 1.0, 1e-14, ()),
]


def _family_integrand(funcs):
    def f(x, k):
        out = np.empty_like(x)
        for j, g in enumerate(funcs):
            sel = k == j
            if sel.any():
                out[sel] = g(x[sel])
        return out

    return f


def _family_splits(rows):
    width = max(len(r) for r in rows)
    return np.array([list(r) + [np.nan] * (width - len(r)) for r in rows])


class TestAdaptiveBatch:
    def test_family_matches_separate_calls(self):
        funcs, a, b, tol, splits = zip(*_FAMILY)
        fam = quad.integrate_adaptive_batch(
            _family_integrand(funcs), a, b, tol,
            split_points=_family_splits(splits), max_evals=30_000,
        )
        assert len(fam) == len(_FAMILY)
        for k, (g, lo, hi, t, sp) in enumerate(_FAMILY):
            one = quad.integrate_adaptive(g, lo, hi, t, split_points=sp, max_evals=30_000)
            assert fam[k] == one, k
        assert list(fam.converged) == [True, True, True, True, False]
        assert fam.n_evals[-1] >= 30_000

    def test_independent_of_blocks_and_order(self, monkeypatch):
        omega = np.linspace(0.5, 40.0, 150)
        f = lambda x, k: np.cos(omega[k] * x) / (1.0 + x)
        splits = np.where(omega[:, None] > 20.0, np.array([[0.5, 1.5]]), np.nan)
        ref = quad.integrate_adaptive_batch(f, 0.0, 2.0, 1e-11, split_points=splits)
        monkeypatch.setattr(quad, "_CHUNK_PANELS", 5)
        small = quad.integrate_adaptive_batch(f, 0.0, 2.0, 1e-11, split_points=splits)
        rev = omega[::-1].copy()
        back = quad.integrate_adaptive_batch(
            lambda x, k: np.cos(rev[k] * x) / (1.0 + x), 0.0, 2.0, 1e-11,
            split_points=splits[::-1],
        )
        for res, order in ((small, slice(None)), (back, slice(None, None, -1))):
            assert np.array_equal(res.value[order], ref.value)
            assert np.array_equal(res.abs_error_estimate[order], ref.abs_error_estimate)
            assert np.array_equal(res.n_evals[order], ref.n_evals)
            assert np.array_equal(res.converged[order], ref.converged)
        assert ref.converged.all()

    def test_empty_family(self):
        res = quad.integrate_adaptive_batch(
            lambda x, k: x, np.zeros(0), np.ones(0), split_points=np.zeros((0, 3))
        )
        assert len(res) == 0
        for arr in (res.value, res.abs_error_estimate, res.n_evals, res.converged):
            assert arr.shape == (0,)

    def test_non_finite_on_wide_panel_raises(self):
        f = lambda x, k: np.where(k == 1, np.nan, x)
        with pytest.raises(ValueError):
            quad.integrate_adaptive_batch(f, 0.0, [1.0, 1.0])
        with pytest.raises(ValueError):
            quad.integrate_adaptive(lambda x: np.full_like(x, np.inf), 0.0, 1.0)

    def test_check_converged(self):
        exhausted = quad.integrate_adaptive(
            lambda r: 1.0 / np.sqrt(np.abs(r)), 1e-300, 1.0, 1e-14, max_evals=500
        )
        with pytest.raises(quad.NonConvergedError):
            quad.check_converged(exhausted, 1e-14)
        # within 100 tol of its target an unconverged result passes
        quad.check_converged(exhausted, exhausted.abs_error_estimate / 100.0)
        funcs, a, b, tol, splits = zip(*_FAMILY)
        fam = quad.integrate_adaptive_batch(
            _family_integrand(funcs), a, b, tol,
            split_points=_family_splits(splits), max_evals=30_000,
        )
        with pytest.raises(quad.NonConvergedError):
            quad.check_converged(fam, tol)
        quad.check_converged(fam[0], tol[0])


class TestOscillatoryTail:
    def test_dirichlet_cube(self):
        res = quad.integrate_oscillatory_tail(
            lambda t: sf.jd(3, t) ** 3 * t**2,
            1e-9,
            decay_exponent=1.0,
            phase_offset=math.pi / 2,
        )
        assert res.converged
        assert res.value == pytest.approx(math.pi / 4, abs=1e-9)

    def test_divergent_integrals_come_back_unconverged(self):
        # divergence is decided analytically (walk.classify_idq); the engine
        # itself must only never claim a limit that does not exist
        for power, alpha in ((4, 1.0), (2, 0.0)):  # log growth, constant envelope
            res = quad.integrate_oscillatory_tail(
                lambda t: sf.jd(2, t) ** power * t,
                1e-9,
                decay_exponent=alpha,
                phase_offset=math.pi / 4,
            )
            assert not res.converged and res.status == "non_converged", power

    def test_damped_against_adaptive(self):
        f = lambda t: sf.jd(2, t) ** 2 * t * np.exp(-t)
        res = quad.integrate_oscillatory_tail(
            f, 1e-9, decay_exponent=2.0, phase_offset=math.pi / 4
        )
        oracle = quad.integrate_adaptive(f, 1e-300, 40.0, 1e-12)
        assert res.value == pytest.approx(oracle.value, abs=1e-8)

    @pytest.mark.parametrize("d,q", [(4, 4), (3, 5)])
    def test_absolutely_convergent_vs_brute_truncation(self, d, q,
                                                       partial_integrals_oracle):
        f = lambda t: sf.jd(d, t) ** q * t ** (d - 1)
        res = quad.integrate_oscillatory_tail(
            f, 1e-9, decay_exponent=(d - 1) * (q / 2 - 1), phase_offset=(d - 1) * math.pi / 4
        )
        brute = partial_integrals_oracle(f, np.array([1e5]))[0]
        assert res.converged
        assert res.value == pytest.approx(brute, abs=1e-6)


class TestGaussJacobiSymmetric:
    @pytest.mark.parametrize(
        "nu,total",
        [(0.5, 2.0), (0.0, math.pi), (1.0, math.pi / 2), (1.5, 8.0 / 3.0 * 0.5)],
    )
    def test_weight_sums(self, nu, total):
        _, w = quad.gauss_jacobi_symmetric(nu, 8)
        expect = math.sqrt(math.pi) * gamma(nu + 0.5) / gamma(nu + 1.0)
        assert w.sum() == pytest.approx(expect, rel=1e-13)
        assert w.sum() == pytest.approx(total, rel=1e-12)

    def test_symmetric_pairs(self):
        x, w = quad.gauss_jacobi_symmetric(1.0, 9)
        assert np.allclose(x + x[::-1], 0.0, atol=1e-15)
        assert np.allclose(w - w[::-1], 0.0, atol=1e-15)
        assert np.all(w > 0)

    def test_second_moment_closed_form(self):
        # int s^2 (1-s^2)^(1/2) ds over (-1,1) = B(3/2,3/2) = pi/8
        x, w = quad.gauss_jacobi_symmetric(1.0, 6)
        assert float(np.sum(w * x * x)) == pytest.approx(math.pi / 8, rel=1e-14)

    @pytest.mark.parametrize("nu,m", [(0.0, 6), (0.5, 7), (1.0, 5), (2.5, 9)])
    def test_matches_scipy_roots_jacobi(self, nu, m):
        x, w = quad.gauss_jacobi_symmetric(nu, m)
        xr, wr = roots_jacobi(m, nu - 0.5, nu - 0.5)
        assert np.allclose(np.sort(x), np.sort(xr), atol=1e-12)
        assert np.allclose(w, wr[np.argsort(xr)], atol=1e-12)

    def test_polynomial_exactness(self):
        nu, m = 1.5, 7
        x, w = quad.gauss_jacobi_symmetric(nu, m)
        for k in range(0, 2 * m - 1, 2):
            approx = float(np.sum(w * x**k))
            # moment of the even weight: B((k+1)/2, nu+1/2)
            expect = (
                gamma((k + 1) / 2.0) * gamma(nu + 0.5) / gamma((k + 1) / 2.0 + nu + 0.5)
            )
            assert approx == pytest.approx(expect, rel=1e-12)

    def test_doubling_nodes_is_stable(self):
        f = lambda s: np.cos(3.0 * s)
        vals = []
        for m in (24, 48):
            x, w = quad.gauss_jacobi_symmetric(0.5, m)
            vals.append(float(np.sum(w * f(x))))
        assert abs(vals[1] - vals[0]) < 1e-13

    def test_rejects_budget(self):
        with pytest.raises(ValueError):
            quad.gauss_jacobi_symmetric(0.5, 5000)


class TestMollified:
    def test_single_frequency(self):
        # int_0^inf cos(t)/ (1+t)^0.7 style check against the tail engine
        f = lambda t: sf.jd(2, t) ** 3 * t
        a = quad.integrate_oscillatory_tail(
            f, 1e-10, decay_exponent=0.5, phase_offset=math.pi / 4
        )
        b = quad.integrate_oscillatory_mollified(f, 1e-10)
        assert b.value == pytest.approx(a.value, abs=5e-9)

    def test_each_node_evaluated_once(self):
        # each level's tail panels on [T, 2T] are the next level's plain panels
        seen = []

        def f(t):
            seen.append(np.array(t))
            return sf.jd(2, t) ** 3 * t

        res = quad.integrate_oscillatory_mollified(f, 1e-10)
        nodes = np.concatenate(seen)
        assert len(nodes) == res.n_evals
        assert len(np.unique(nodes)) == len(nodes)

    def test_panels_on_canonical_grid(self):
        # [0, t0] with t0 rounded up to whole panels, then [T, 2T] with
        # T = width m0 2^j: the same nodes for every integral of one width
        seen = []

        def f(t):
            seen.append(np.array(t))
            return sf.jd(3, t) ** 4 * t * t

        res = quad.integrate_oscillatory_mollified(f, 1e-10, min_frequency=1.3,
                                                   chunks_per_period=3)
        width = math.pi / 3
        m0 = math.ceil(55.0 / 1.3 / width)
        ranges = [(0, m0)] + [(m0 << j, m0 << (j + 1)) for j in range(4)]
        assert len(seen) == len(ranges)
        for t, (k0, k1) in zip(seen, ranges):
            nodes, _ = quad.canonical_panel_nodes(width, k0, k1)
            assert np.array_equal(t, nodes.ravel())
        assert res.n_evals == 16 * (m0 << 4)

    def test_canonical_nodes_do_not_depend_on_range(self):
        width = math.pi / 5
        whole, _ = quad.canonical_panel_nodes(width, 0, 300)
        part, _ = quad.canonical_panel_nodes(width, 123, 257)
        assert np.array_equal(whole[123:257], part)

    @pytest.mark.parametrize("s", [3.0, 6.0, 8.0])
    def test_error_floor_at_rounding_level(self, s):
        # int_0^oo cos(t) exp(-(t/s)^2) dt: every level sums the same panels,
        # so the extrapolants agree exactly and only rounding is left: eps
        # times the absolute panel sum, about s / sqrt(pi), whatever the value
        res = quad.integrate_oscillatory_mollified(
            lambda t: np.cos(t) * np.exp(-(t / s) ** 2), 1e-12)
        exact = math.sqrt(math.pi) * s / 2.0 * math.exp(-s * s / 4.0)
        assert abs(res.value - exact) <= res.abs_error_estimate
        assert res.abs_error_estimate >= np.finfo(float).eps * s / 2.0


class TestNeville:
    def test_polynomial_extrapolated_exactly(self):
        xs = np.array([0.1, 0.2, 0.4, 0.8])
        ext = quad._neville_to_zero(xs, 3.0 - 2.0 * xs + 5.0 * xs**2)
        assert ext[0] == 3.0 - 2.0 * 0.1 + 5.0 * 0.01
        assert ext[2] == pytest.approx(3.0, abs=1e-14)
        assert ext[3] == pytest.approx(3.0, abs=1e-14)
