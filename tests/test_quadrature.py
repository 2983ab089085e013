import dataclasses
import math

import numpy as np
import pytest
from scipy.special import digamma, gamma, roots_jacobi

from polyspec import quadrature as quad


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
        # converged within the 1,914 evaluations the GL15 + GL7 pair took;
        # a frozen endpoint panel whose estimate stays above tol would spend
        # the whole 2 M budget instead
        assert res.converged and res.n_evals <= 1_914

    def test_no_node_on_a_singular_edge(self):
        # inverse-square-root edge at c, far from 0 so that frozen panels are
        # a few hundred ulps wide; the pieces next to c bisect down to every
        # width across an octave of the frozen one.  The outermost node comes
        # within a few ulps of c but never onto it.
        c = 1024.5
        for piece in np.geomspace(16.0, 32.0, 25, endpoint=False):
            reached = []

            def f(x):
                reached.append(x.max())
                return 1.0 / np.sqrt(c - x)

            quad.integrate_adaptive(f, 0.0, c, 1e-8, split_points=(c - piece,),
                                    max_evals=30_000)
            assert c - 4 * np.spacing(c) < max(reached) < c

    @pytest.mark.xfail(strict=True, reason="next to an inverse-square-root edge far"
                       " from 0 the integrand is rounding noise that |K15 - G7| does"
                       " not see: the whole budget goes and the bar is short")
    def test_far_singular_edge_bar_covers_error(self):
        # 2,000,010 evaluations, 5.7e-7 off the true 2 sqrt(c), estimate 1.96e-7
        c = 1024.5
        res = quad.integrate_adaptive(lambda x: 1.0 / np.sqrt(c - x), 0.0, c, 1e-8,
                                      split_points=(c - 18.896,))
        assert abs(res.value - 2.0 * math.sqrt(c)) <= res.abs_error_estimate

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
        # one panel of the rule's nodes per piece between the split points:
        # 66 panels of 15 nodes fit 1000 evaluations, 67 are refused before
        # f runs.  A refusal that counted only a requested panel count let
        # 999 split points under max_evals = 1000 run 15,000 evaluations.
        def f(x):
            raise AssertionError("integrand called")

        per_panel = len(quad._XK15)
        fits = 1000 // per_panel
        for pieces in (fits + 1, 1000):
            with pytest.raises(ValueError, match="max_evals"):
                quad.integrate_adaptive(f, 0.0, 1.0, 1e-8, max_evals=1000,
                                        split_points=np.linspace(0.0, 1.0, pieces + 1)[1:-1])
        res = quad.integrate_adaptive(lambda x: x, 0.0, 1.0, 1e-8, max_evals=1000,
                                      split_points=np.linspace(0.0, 1.0, fits + 1)[1:-1])
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert res.n_evals == fits * per_panel == 990

    def test_refusal_counts_only_pieces(self):
        # NaN padding, split points outside (a, b), on its ends or repeated
        # make no piece and so count toward no integral's first pass
        rows = np.full((2, 80), np.nan)
        rows[0, :65] = np.linspace(0.0, 1.0, 67)[1:-1]
        rows[1, :2] = (0.5, 0.5)
        rows[1, 2:8] = (-1.0, 0.0, 1.0, 2.0, -np.inf, np.inf)
        res = quad.integrate_adaptive_batch(lambda x, k: x, 0.0, 1.0, 1e-8,
                                            split_points=rows, max_evals=1000)
        assert np.array_equal(res.n_evals, [990, 30])
        assert np.allclose(res.value, 0.5, atol=1e-12)
        rows[0, 65] = 0.99  # a 67th piece
        with pytest.raises(ValueError, match="max_evals"):
            quad.integrate_adaptive_batch(lambda x, k: x, 0.0, 1.0, 1e-8,
                                          split_points=rows, max_evals=1000)


class TestKronrodRule:
    """The adaptive engine's K15/G7 table on [-1, 1]."""

    def test_k15_exact_through_degree_23(self):
        k = np.arange(25)
        got = np.array([math.fsum(quad._WK15 * quad._XK15**j) for j in k])
        exact = np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)
        assert np.all(np.abs(got - exact)[:24] <= 4 * np.finfo(float).eps)
        assert abs(got[24] - exact[24]) > 1e-10  # and no further

    def test_g7_subset_is_leggauss(self):
        x7, w7 = np.polynomial.legendre.leggauss(7)
        assert np.max(np.abs(quad._XK15[quad._G7] - x7)) <= np.finfo(float).eps
        assert np.max(np.abs(quad._WG7 - w7)) <= np.finfo(float).eps

    def test_weights_and_symmetry(self):
        for w in (quad._WK15, quad._WG7):
            assert abs(math.fsum(w) - 2.0) <= 2 * np.finfo(float).eps
            assert np.array_equal(w, w[::-1])
        assert np.array_equal(quad._XK15, -quad._XK15[::-1])
        assert np.all(np.diff(quad._XK15) > 0) and quad._XK15[7] == 0.0

    def test_digits_against_mpmath(self):
        # Kronrod's construction at 40 digits: the G7 nodes are the zeros of
        # P_7, the added nodes those of the Stieltjes polynomial E_8 (even,
        # monic, orthogonal to x, x^3, x^5, x^7 under the weight P_7), and
        # the weights make the 15-node rule exact on 1, x, ..., x^14
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            p7 = {7: mpmath.mpf(429) / 16, 5: mpmath.mpf(-693) / 16,
                  3: mpmath.mpf(315) / 16, 1: mpmath.mpf(-35) / 16}

            def moment(j):  # int_-1^1 x^j dx
                return mpmath.mpf(2) / (j + 1) if j % 2 == 0 else mpmath.mpf(0)

            def p7_moment(j):  # int_-1^1 P_7(x) x^j dx
                return sum(c * moment(i + j) for i, c in p7.items())

            odd = (1, 3, 5, 7)
            c = mpmath.lu_solve(
                mpmath.matrix([[p7_moment(i + k) for i in (0, 2, 4, 6)] for k in odd]),
                mpmath.matrix([-p7_moment(8 + k) for k in odd]),
            )
            e8 = lambda x: x**8 + c[3] * x**6 + c[2] * x**4 + c[1] * x**2 + c[0]
            p7x = lambda x: sum(cf * x**i for i, cf in p7.items())
            nodes = [mpmath.findroot(p7x if i % 2 else e8, mpmath.mpf(float(x)))
                     for i, x in enumerate(quad._XK15)]

            def weights(xs):  # the interpolatory rule on the nodes xs
                return np.array([float(w) for w in mpmath.lu_solve(
                    mpmath.matrix([[x**j for x in xs] for j in range(len(xs))]),
                    mpmath.matrix([moment(j) for j in range(len(xs))]),
                )])

            assert np.array_equal(quad._XK15, [float(x) for x in nodes])
            assert np.array_equal(quad._WK15, weights(nodes))
            assert np.array_equal(quad._WG7, weights(nodes[1::2]))


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

    def test_frozen_panel_keeps_its_g7_value(self):
        # rounding puts an outer Kronrod node on a singular panel edge: a
        # frozen panel counts its G7 value with all of it as error, never 0
        outer = lambda x, k: np.where(np.abs(x - 2.0) == np.abs(x - 2.0).min(), np.inf, 1.0)
        w = 1e-13
        args = (np.array([2.0 - w]), np.array([2.0]), np.array([0]))
        value, err = quad._panel_pair(outer, *args, np.array([w]))
        assert value[0] == pytest.approx(w, rel=1e-12) and err[0] == value[0]
        with pytest.raises(ValueError):  # not frozen
            quad._panel_pair(outer, *args, np.array([w / 4]))
        centre = lambda x, k: np.where(x == np.median(x), np.inf, 1.0)  # a G7 node
        with pytest.raises(ValueError):
            quad._panel_pair(centre, *args, np.array([w]))

    def test_check_converged(self):
        exhausted = quad.integrate_adaptive(
            lambda r: 1.0 / np.sqrt(np.abs(r)), 1e-300, 1.0, 1e-14, max_evals=500
        )
        with pytest.raises(quad.NonConvergedError):
            quad.check_converged(exhausted, 1e-14)
        # within 100 tol of its target an unconverged result passes, up to the
        # boundary itself (a tol whose product by 100 is exact) and no further
        tol = 2.0**-20
        at = dataclasses.replace(exhausted, abs_error_estimate=100.0 * tol)
        quad.check_converged(at, tol)
        past = dataclasses.replace(at, abs_error_estimate=np.nextafter(100.0 * tol, np.inf))
        with pytest.raises(quad.NonConvergedError):
            quad.check_converged(past, tol)
        funcs, a, b, tol, splits = zip(*_FAMILY)
        fam = quad.integrate_adaptive_batch(
            _family_integrand(funcs), a, b, tol,
            split_points=_family_splits(splits), max_evals=30_000,
        )
        with pytest.raises(quad.NonConvergedError):
            quad.check_converged(fam, tol)
        quad.check_converged(fam[0], tol[0])


def _scripted_errors(monkeypatch, error_of):
    """Replace the panel rule: every panel has value 0 and the error
    error_of(lefts, rights); returns the list of (lefts, rights) per call."""
    calls = []

    def pair(f, lefts, rights, owner, narrow_width):
        calls.append((lefts.copy(), rights.copy()))
        return np.zeros(len(lefts)), error_of(lefts, rights)

    monkeypatch.setattr(quad, "_panel_pair", pair)
    return calls


class TestSplitRule:
    """Each step bisects every panel whose error is at least half its
    integral's mean, within the budget."""

    def test_splits_only_panels_above_half_the_mean(self, monkeypatch):
        # one panel at 1.0 and 20 at 0.01: the mean is 0.057, so only the
        # first splits (a rule that splits until 90% of the error is covered
        # takes 9).  Halves report no error, so the second step converges.
        width = 1.0 / 21
        calls = _scripted_errors(monkeypatch, lambda lo, hi: np.where(
            hi - lo < 0.75 * width, 0.0, np.where(lo == 0.0, 1.0, 0.01)))
        res = quad.integrate_adaptive(lambda x: x, 0.0, 1.0, 0.5,
                                      split_points=np.arange(1, 21) * width)
        assert res.converged and res.abs_error_estimate == pytest.approx(0.2)
        assert len(calls) == 2 and len(calls[0][0]) == 21
        lefts, rights = calls[1]
        assert np.array_equal(lefts, [0.0, 0.5 * width])
        assert np.array_equal(rights, [0.5 * width, width])
        assert res.n_evals == 23 * len(quad._XK15)

    def test_equal_errors_make_progress(self, monkeypatch):
        # three panels at 0.1 have a rounded mean above 0.1: a threshold of
        # the whole mean would split none of them, and never stop
        assert np.mean([0.1, 0.1, 0.1]) > 0.1
        calls = _scripted_errors(monkeypatch, lambda lo, hi: np.full(len(lo), 0.1))
        res = quad.integrate_adaptive(lambda x: x, 0.0, 1.0, 1e-3,
                                      split_points=(1 / 3, 2 / 3), max_evals=3_000)
        assert [len(lo) for lo, _ in calls[:4]] == [3, 6, 12, 24]
        assert all(len(lo) >= 2 for lo, _ in calls[1:])
        assert not res.converged and 3_000 <= res.n_evals < 3_000 + 30

    def test_budget_takes_largest_first(self, monkeypatch):
        # ten panels whose errors grow with x, all above half the mean: 135
        # evaluations left allow 4 bisections, so the 4 rightmost split; then
        # 15 left allow none, and the largest panel splits alone
        calls = _scripted_errors(monkeypatch, lambda lo, hi: 1.0 + lo)
        res = quad.integrate_adaptive(lambda x: x, 0.0, 1.0, 1e-9, max_evals=285,
                                      split_points=np.arange(1, 10) / 10)
        assert not res.converged
        assert 285 <= res.n_evals < 285 + 30
        assert res.n_evals == (10 + 2 * 4 + 2) * len(quad._XK15)
        assert [len(lo) for lo, _ in calls] == [10, 8, 2]
        assert np.allclose(np.sort(calls[1][0])[::2], [0.6, 0.7, 0.8, 0.9])
        assert np.allclose(calls[2][0], [0.95, 0.975])


EXPINT_ORDERS = [0.5, 1.5, 2.5, 4.5, 2.0, 3.0, 4.0, 9.0]
# |omega T| on both sides of the seam between the series and the fraction
EXPINT_ARGS = [1e-8, 1e-3, 0.3, 1.0, quad._EXPINT_SEAM * (1 - 1e-12),
               quad._EXPINT_SEAM, 4.0, 40.0, 400.0]


def expint_mpmath(p: float, z: complex) -> complex:
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return complex(mpmath.expint(p, mpmath.mpc(z.real, z.imag)))


def expint_step_by_step(p, z):
    """_expint as one numpy step per series term and per fraction step: the
    loop the blocked version must reproduce bit for bit."""
    p, z = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(z, dtype=complex))
    out = np.empty(z.shape, dtype=complex)
    err = np.empty(z.shape)
    small = np.abs(z) < quad._EXPINT_SEAM
    if small.any():
        ps, zs = p[small], z[small]
        log_z = np.log(zs)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            lead = np.where(ps == np.rint(ps), 0.0, gamma(1.0 - ps) * np.exp((ps - 1.0) * log_z))
        total, scale = lead, np.abs(lead) * (1.0 + np.abs((ps - 1.0) * log_z))
        log_part = digamma(ps) - log_z
        term = np.ones(zs.shape, dtype=complex)
        for k in range(quad._EXPINT_SERIES_TERMS):
            if k:
                term = term * -zs / k
            den = 1.0 - ps + k
            pole = den == 0.0
            part = np.where(pole, term * log_part, -term / np.where(pole, 1.0, den))
            total = total + part
            scale = scale + np.abs(part)
        out[small], err[small] = total, quad._EPS * scale
    big = ~small
    if big.any():
        pb, zb = p[big], z[big]
        b = zb + pb
        c = np.full(zb.shape, 1.0 / np.finfo(float).tiny, dtype=complex)
        d = 1.0 / b
        h = d
        done = np.zeros(zb.shape, dtype=bool)
        for steps in range(1, quad._EXPINT_MAX_STEPS + 1):
            a = -steps * (pb - 1.0 + steps)
            b = b + 2.0
            d = 1.0 / (a * d + b)
            c = b + a / c
            delta = c * d
            h = h * delta
            change = np.abs(delta - 1.0)
            done |= change < quad._EPS
            if done.all():
                break
        out[big] = h * np.exp(-zb)
        err[big] = np.abs(out[big]) * (change + quad._EPS * steps)
    return out, err


def random_expint_family(rng):
    """1-39 entries: on the imaginary axis with p in [-23.5, 30) (p <= 0
    from the seam on), or in the right half-plane with p > 0; |z| from 0.1
    to about 1e3, a third of the orders integers (the series' pole term)."""
    n = int(rng.integers(1, 40))
    mag = 10.0 ** rng.uniform(-1.0, 3.0, n)
    if rng.random() < 0.5:
        p = rng.uniform(-23.5, 30.0, n)
        z = 1j * rng.choice([-1.0, 1.0], n) * np.where(p <= 0.0, quad._EXPINT_SEAM + mag, mag)
    else:
        p = rng.uniform(0.05, 30.0, n)
        z = mag * np.exp(1j * rng.uniform(-0.5 * np.pi, 0.5 * np.pi, n))
    ints = rng.random(n) < 1 / 3
    p[ints] = np.maximum(np.rint(p[ints]), 1.0)
    return p, z


class TestPowerExpTail:
    @pytest.mark.parametrize("p", EXPINT_ORDERS)
    def test_expint_against_mpmath(self, p):
        z = np.array([1j * sign * x for x in EXPINT_ARGS for sign in (1, -1)])
        ref = np.array([expint_mpmath(p, complex(x)) for x in z])
        got, bound = quad._expint(p, z)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref)), z[np.argmax(np.abs(got - ref) / np.abs(ref))]
        assert np.all(bound < 1e-13 * np.abs(ref))

    @pytest.mark.parametrize("p", [0.0, -0.5, -3.0, -10.5, -23.5])
    def test_expint_nonpositive_orders_against_mpmath(self, p):
        # the small-radius Kluyver tail's Taylor terms, at |omega T| >= 40
        z = np.array([1j * sign * x for x in (40.0, 80.0, 400.0) for sign in (1, -1)])
        ref = np.array([expint_mpmath(p, complex(x)) for x in z])
        got, bound = quad._expint(p, z)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
        assert np.all(np.abs(got - ref) <= bound)

    def test_expint_matches_step_by_step_loop(self):
        # the series block and the blocked fraction keep every rounding of
        # the loop they replace
        rng = np.random.default_rng(20)
        for _ in range(200):
            p, z = random_expint_family(rng)
            got, ref = quad._expint(p, z), expint_step_by_step(p, z)
            for x, y in zip(got, ref):
                assert np.array_equal(x.view(np.int64), y.view(np.int64)), (p, z)

    @pytest.mark.parametrize("budget", [5, 16, 17, 33])
    def test_expint_budget_matches_step_by_step_loop(self, budget, monkeypatch):
        # budgets shorter than, equal to and just past one block, and past two
        rng = np.random.default_rng(budget)
        families = [random_expint_family(rng) for _ in range(40)]
        unbounded = [expint_step_by_step(p, z)[0] for p, z in families]
        monkeypatch.setattr(quad, "_EXPINT_MAX_STEPS", budget)
        at_budget = 0
        for (p, z), full in zip(families, unbounded):
            got, ref = quad._expint(p, z), expint_step_by_step(p, z)
            for x, y in zip(got, ref):
                assert np.array_equal(x.view(np.int64), y.view(np.int64)), (p, z)
            at_budget += not np.array_equal(ref[0], full)  # the budget stopped it
        assert at_budget > 0

    def test_tail_is_scaled_expint(self):
        s, omega, t = 2.5, -3.0, 40.0
        value, bound = quad.power_exp_tail(s, omega, t)
        assert value == pytest.approx(t ** (1 - s) * expint_mpmath(s, 1j * 3.0 * t), rel=1e-14)
        assert 0 < bound < 1e-14 * abs(value)

    def test_resonant_tail(self):
        value, bound = quad.power_exp_tail([1.5, 3.0, 1.0, 0.5], 0.0, 4.0)
        assert np.array_equal(value, [4.0**-0.5 / 0.5, 4.0**-2 / 2.0, math.inf, math.inf])
        assert np.array_equal(bound, np.zeros(4))


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


def _mpmath_jacobi_rule(m, alpha, beta):
    """The m-point Gauss-Jacobi rule at 40 digits, rounded to float."""
    mpmath = pytest.importorskip("mpmath")

    with mpmath.workdps(40):
        x, w = mpmath.gauss_quadrature(m, "jacobi", alpha, beta)
        return np.array([float(v) for v in x]), np.array([float(v) for v in w])


class TestGaussJacobi:
    # the cap weight's rules, alpha = (d - 1)/2 and beta = 0 at 20 + 3 k
    # nodes (134 at R = pi/2), symmetric rules nu - 1/2 (nu = 0 has alpha +
    # beta = -1, where the textbook off-diagonal is 0/0 at k = 1), and one
    # non-symmetric rule with alpha + beta = -1, and one node.  Measured:
    # nodes within 2.3e-16, weights within 3.1e-12 of the largest at m = 134
    # (4.4e-12 at nu = 0, m = 64); scipy's roots_jacobi had the same
    # non-symmetric weights, whose formula takes P_m' at the nodes before
    # the Newton step
    @pytest.mark.parametrize("alpha,beta,m", [
        (0.5, 0.0, 20), (1.0, 0.0, 47), (1.5, 0.0, 134), (2.0, 0.0, 59),
        (2.5, 0.0, 26), (3.0, 0.0, 41),
        (-0.5, -0.5, 6), (-0.5, -0.5, 32), (0.0, 0.0, 7), (0.0, 0.0, 50),
        (0.5, 0.5, 40), (1.0, 1.0, 33), (2.0, 2.0, 9),
        (-0.25, -0.75, 12), (2.0, 0.0, 1),
    ])
    def test_matches_mpmath(self, alpha, beta, m):
        x, w = quad.gauss_jacobi(m, alpha, beta)
        xr, wr = _mpmath_jacobi_rule(m, alpha, beta)
        assert np.all(np.diff(x) > 0)
        assert np.abs(x - xr).max() <= 2 * quad._EPS
        assert np.abs(w - wr).max() <= 1e-11 * wr.max()
        assert w.sum() == pytest.approx(wr.sum(), rel=4 * quad._EPS)
        if alpha == beta:
            xs, ws = quad.gauss_jacobi_symmetric(alpha + 0.5, m)
            assert np.abs(xs - xr).max() <= 2 * quad._EPS
            assert np.abs(ws - wr).max() <= 1e-11 * wr.max()

    def test_polynomial_exactness(self):
        # int (1-s)^a (1+s)^b s^k over (-1, 1) against mpmath
        mpmath = pytest.importorskip("mpmath")

        a, b, m = 1.5, 0.0, 12
        x, w = quad.gauss_jacobi(m, a, b)
        for k in range(2 * m):
            with mpmath.workdps(30):
                expect = float(mpmath.quad(lambda s: (1 - s) ** a * (1 + s) ** b * s**k, [-1, 1]))
            assert float(np.sum(w * x**k)) == pytest.approx(expect, rel=1e-13, abs=1e-15)

    def test_budget(self):
        # every route asks for at most 161 nodes; the budget's own rule is a
        # dense eigenproblem of order 512, tens of milliseconds on one thread
        x, w = quad.gauss_jacobi(quad._GAUSS_JACOBI_NODE_BUDGET, 1.0, 0.0)
        assert len(x) == quad._GAUSS_JACOBI_NODE_BUDGET and np.all(w > 0)
        with pytest.raises(ValueError):
            quad.gauss_jacobi(quad._GAUSS_JACOBI_NODE_BUDGET + 1, 1.0, 0.0)

    @pytest.mark.parametrize("alpha,beta,m", [
        (-1.0, 0.0, 5), (0.0, -1.5, 5), (0.5, 0.0, 0), (0.5, 0.0, 2.5),
    ])
    def test_rejects_bad_input(self, alpha, beta, m):
        with pytest.raises(ValueError):
            quad.gauss_jacobi(m, alpha, beta)
