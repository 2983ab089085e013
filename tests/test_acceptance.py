"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline)."""

import math

import numpy as np
import pytest

from polyspec import fieldsim as fs
from polyspec import geometry as geo
from polyspec import specfun as sf
from polyspec import variance as va
from polyspec import walk
from polyspec.geometry import Geometry
from polyspec.walk import Classification, IdqRoute, WalkSpec

E, S = Geometry.EUCLIDEAN, Geometry.SPHERICAL


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_exact_constants():
    direct33 = walk.idq(3, 3, IdqRoute.DIRECT_INTEGRAL, 1e-10).value
    rec33 = walk.idq(3, 3, IdqRoute.RECURSION_ENDPOINT).value
    ok = (
        abs(direct33 - math.pi / 4) <= 1e-8 * (math.pi / 4)
        and abs(rec33 - math.pi / 4) <= 1e-8 * (math.pi / 4)
    )
    detail = f"I(3,3): direct={direct33:.12g} recursion={rec33:.12g} target pi/4"
    worst = 0.0
    for d in range(2, 7):
        closed = walk.idq_closed_form(d, 3)
        direct = walk.idq(d, 3, IdqRoute.DIRECT_INTEGRAL, 1e-10).value
        worst = max(worst, abs(direct - closed) / closed)
    ok = ok and worst <= 1e-7
    detail += f"; I(d,3) d=2..6 worst rel dev {worst:.2e}"
    closed25 = walk.idq_closed_form(2, 5)
    direct25 = walk.idq(2, 5, IdqRoute.DIRECT_INTEGRAL, 1e-10).value
    rel25 = abs(direct25 - closed25) / closed25
    ok = ok and rel25 <= 1e-6
    detail += f"; I(2,5) rel dev {rel25:.2e}"
    report("criterion 1 (exact constants)", ok, detail)


def test_criterion_02_divergence_classification(partial_integrals_oracle):
    ok = walk.classify_idq(2, 4) is Classification.DIVERGENT
    ok = ok and all(
        walk.classify_idq(d, 2) is Classification.DIVERGENT for d in range(2, 7)
    )
    t_grid = np.geomspace(1e2, 1e4, 12)
    # int_0^T jd(2, t)^4 t dt, four panels per period as for q = 4
    partials = partial_integrals_oracle(lambda t: sf.jd(2, t) ** 4 * t, t_grid, 4)
    design = np.vstack([np.ones_like(t_grid), np.log(t_grid)]).T
    coef, *_ = np.linalg.lstsq(design, partials, rcond=None)
    fit = design @ coef
    r2 = 1.0 - ((partials - fit) ** 2).sum() / ((partials - partials.mean()) ** 2).sum()
    ok = ok and coef[1] > 0 and r2 > 0.999
    report(
        "criterion 2 (divergence classification)",
        ok,
        f"analytic classes correct; log-growth fit c={coef[1]:.5f} (R^2={r2:.6f})",
    )


def test_criterion_03_density_cross_validation():
    pairs = [
        (d, n) for d in (2, 3, 4, 5) for n in (2, 3, 4, 5, 6) if (d, n) != (2, 3)
    ]
    worst_cross = 0.0
    for d, n in pairs:
        spec = WalkSpec(d, n)
        grid = (np.arange(20) + 0.5) * n / 20.0
        for r in grid:
            res = walk.density_kluyver(spec, float(r), 1e-7)
            ref = (
                walk.rho2_closed(d, float(r))
                if n == 2
                else walk.density_recursion(spec, float(r))
            )
            worst_cross = max(worst_cross, abs(res.value - ref))
    ok = worst_cross <= 1e-5
    detail = f"kluyver-vs-reference worst {worst_cross:.2e}"

    worst_mass = worst_m2 = 0.0
    for d, n in pairs:
        if n == 2:
            grid = 2.0 - np.geomspace(1e-14, 2.0 - 1e-9, 120_000)[::-1]
            rho = walk.rho2_closed(d, grid)
        else:
            tab = walk._psi_level(d, n)
            grid = np.unique(
                np.concatenate(
                    [np.linspace(1e-9, n - 1e-9, 3001)]
                    + [
                        k + s * np.geomspace(1e-9, 0.4, 40)
                        for k in range(n + 1)
                        for s in (-1, 1)
                    ]
                )
            )
            grid = grid[(grid > 0) & (grid < n)]
            rho = tab(grid) * grid ** (d - 1)
        worst_mass = max(worst_mass, abs(np.trapezoid(rho, grid) - 1.0))
        worst_m2 = max(
            worst_m2, abs(np.trapezoid(rho * grid**2, grid) - n) / n
        )
    ok = ok and worst_mass <= 1e-4 and worst_m2 <= 1e-4
    detail += f"; mass dev {worst_mass:.2e}; second-moment dev {worst_m2:.2e}"

    worst_p = 1.0
    for d, n in pairs:
        _, pval = fs.mc_walk_density_check(WalkSpec(d, n), 1_000_000, 50, seed=2024)
        worst_p = min(worst_p, pval)
    ok = ok and worst_p > 0.001
    detail += f"; chi-square min p-value {worst_p:.4f}"
    report("criterion 3 (density cross-validation)", ok, detail)


def test_criterion_04_generic_regime():
    ok = True
    details = []
    for d, q in [(2, 3), (2, 5), (3, 3), (3, 4)]:
        ratios = {}
        for lam in (100.0, 200.0, 400.0):
            spec = va.PolyspectrumSpec(va.FieldSpec(E, d, lam), q, 1.0)
            v = va.variance_exact_euclidean(spec)
            pred = va.variance_asymptotic(spec)
            ratios[lam] = v.value / pred.value
        ok = ok and 0.85 <= ratios[200.0] <= 1.15
        ok = ok and abs(ratios[400.0] - 1.0) < abs(ratios[100.0] - 1.0)
        details.append(f"(d{d},q{q}): r200={ratios[200.0]:.4f}")
    report("criterion 4 (generic regime)", ok, "; ".join(details))


def test_criterion_05_q2_regime():
    ok = True
    details = []
    for d in (2, 3):
        v100 = va.variance_exact_euclidean(
            va.PolyspectrumSpec(va.FieldSpec(E, d, 100.0), 2, 1.0)
        ).value
        v200 = va.variance_exact_euclidean(
            va.PolyspectrumSpec(va.FieldSpec(E, d, 200.0), 2, 1.0)
        ).value
        ratio = v200 / v100
        target = 2.0 ** (1 - d)
        ok = ok and abs(ratio / target - 1.0) <= 0.10
        details.append(f"d={d}: ratio={ratio:.4f} target={target:.4f}")
    report("criterion 5 (q=2 regime)", ok, "; ".join(details))


def test_criterion_06_d2q4_log_regime():
    vals = {}
    for lam in (100.0, 400.0, 1600.0):
        spec = va.PolyspectrumSpec(va.FieldSpec(E, 2, lam), 4, 1.0)
        v = va.variance_exact_euclidean(spec, 1e-10)
        vals[lam] = lam**2 * v.value / math.log(lam)
    const = 24.0 * (3.0 / (2.0 * math.pi**2)) * geo.weight_euclidean(2, 1.0, 0.0)
    ok = (
        abs(vals[400.0] / vals[100.0] - 1.0) <= 0.15
        and abs(vals[1600.0] / vals[400.0] - 1.0) <= 0.15
        and abs(vals[1600.0] - const) < abs(vals[100.0] - const)
    )
    report(
        "criterion 6 (d=2,q=4 log regime)",
        ok,
        f"lam^2 V/log(lam) = {vals[100.0]:.3f}, {vals[400.0]:.3f}, "
        f"{vals[1600.0]:.3f} -> {const:.3f}",
    )


def test_criterion_07_spherical_parity():
    raw11 = va.variance_exact_spherical(
        va.PolyspectrumSpec(va.FieldSpec(S, 2, 11), 3, math.pi),
        shortcut_parity=False,
    ).value
    v12 = va.variance_exact_spherical(
        va.PolyspectrumSpec(va.FieldSpec(S, 2, 12), 3, math.pi)
    ).value
    ok = abs(raw11) <= 1e-10 * v12
    pred12 = (
        2.0 * math.factorial(3) * geo.omega(1) * geo.omega(2)
        * walk.idq_closed_form(2, 3) / 144.0
    )
    ok = ok and abs(v12 / pred12 - 1.0) <= 0.20
    report(
        "criterion 7 (spherical parity)",
        ok,
        f"odd-odd raw={raw11:.2e} vs neighbor={v12:.5f}; "
        f"neighbor/prediction={v12 / pred12:.4f}",
    )


def test_criterion_08_cross_geometry_constant():
    spec_s = va.PolyspectrumSpec(va.FieldSpec(S, 2, 300), 3, 1.0)
    spec_e = va.PolyspectrumSpec(va.FieldSpec(E, 2, 300.0), 3, 1.0)
    v_s = va.variance_exact_spherical(spec_s).value
    v_e = va.variance_exact_euclidean(spec_e).value
    c_s = 300.0**2 * v_s / va.make_weight(spec_s.ball).at_zero
    c_e = 300.0**2 * v_e / va.make_weight(spec_e.ball).at_zero
    ok = abs(c_s / c_e - 1.0) <= 0.10
    report(
        "criterion 8 (cross-geometry constant)",
        ok,
        f"spherical={c_s:.5f} euclidean={c_e:.5f} ratio={c_s / c_e:.4f}",
    )


def test_criterion_09_monte_carlo_consistency():
    spec = va.PolyspectrumSpec(va.FieldSpec(E, 2, 20.0), 3, 1.0)
    dom = fs.build_domain(E, 2, 1.0, 24)
    mc = fs.mc_polyspectrum_variance(spec, 4242, dom, 2000)
    exact = va.variance_exact_euclidean(spec).value
    ok = mc.ci95[0] <= exact <= mc.ci95[1]
    detail = f"euclidean CI ({mc.ci95[0]:.5f}, {mc.ci95[1]:.5f}) covers {exact:.5f}"

    # resolution doubling with common Fourier-Bessel coefficients: quadrature
    # bias must stay inside the CI half-width
    ests = []
    for res in (24, 48):
        d2 = fs.build_domain(E, 2, 1.0, res)
        ests.append(fs.mc_polyspectrum_variance(spec, 777, d2, 400))
    half = 0.5 * (ests[0].ci95[1] - ests[0].ci95[0])
    ok = ok and abs(ests[0].estimate - ests[1].estimate) <= half
    detail += f"; doubling shift {abs(ests[0].estimate - ests[1].estimate):.2e} <= {half:.2e}"

    # ten fixed seeds: the mean must sit within 3 standard errors of the
    # exact value and at least 7 of the 10 intervals must cover it
    spec_s = va.PolyspectrumSpec(va.FieldSpec(S, 2, 15), 2, 1.0)
    dom_s = fs.build_domain(S, 2, 1.0, 20)
    exact_s = va.variance_exact_spherical(spec_s).value
    runs = [fs.mc_polyspectrum_variance(spec_s, seed, dom_s, 2000)
            for seed in range(77, 87)]
    ests_s = np.array([m.estimate for m in runs])
    se = float(ests_s.std(ddof=1)) / math.sqrt(len(runs))
    covered = sum(m.ci95[0] <= exact_s <= m.ci95[1] for m in runs)
    z = abs(float(ests_s.mean()) - exact_s) / se
    ok = ok and z <= 3.0 and covered >= 7
    detail += (f"; spherical mean {ests_s.mean():.4f} is {z:.2f} se from {exact_s:.4f},"
               f" {covered}/10 CIs cover it")
    report("criterion 9 (Monte Carlo consistency)", ok, detail)


def test_criterion_10_hermite_identity():
    worst = 0.0
    for q in range(1, 7):
        for rho in (0.0, 0.3, -0.3, 0.9, -0.9, 1.0):
            worst = max(worst, abs(va.hermite_covariance_identity_check(q, rho)))
    ok = worst <= 1e-8
    report("criterion 10 (Hermite identity)", ok, f"worst discrepancy {worst:.2e}")


def test_criterion_11_hilb_validation():
    from polyspec import specfun as sf

    ok = True
    details = []
    for d in (2, 3):
        errs = {}
        for ell in (40, 80):
            spec = sf.GegenbauerSpec(d, ell)
            theta = np.linspace(0.1, 2.0, 400)
            errs[ell] = np.abs(
                sf.hilb_main_term(spec, theta) - sf.gegenbauer(spec, np.cos(theta))
            ).max()
        # the main term is exact at d = 3 (half-integer order), where both
        # errors sit at rounding level and cannot halve further
        ok = ok and (errs[80] <= 0.5 * errs[40] or errs[80] <= 1e-12)
        details.append(f"d={d}: {errs[40]:.2e} -> {errs[80]:.2e}")
    report("criterion 11 (Hilb validation)", ok, "; ".join(details))


def test_criterion_12_odd_q_hyperspherical_harmonics():
    # the paper's headline: odd q >= 5 on Random Hyperspherical Harmonics,
    # left as a conjecture by Marinucci & Wigman (Comm. Math. Phys. 2014).
    # On caps of radius 1 the exact/asymptotic ratio tends to 1 at rate 1/ell
    ok = True
    details = []
    ells = (25, 50, 100, 200, 400)
    for d, q in [(2, 5), (3, 5), (2, 7)]:
        ratios = []
        for ell in ells:
            spec = va.PolyspectrumSpec(va.FieldSpec(S, d, ell), q, 1.0)
            ratios.append(
                va.variance_exact_spherical(spec).value / va.variance_asymptotic(spec).value
            )
        gaps = [1.0 - r for r in ratios]
        halving = gaps[-2] / gaps[-1]
        step = 2.0 * ratios[-1] - ratios[-2]  # Richardson step in 1/ell
        ok = ok and all(g1 > g2 > 0 for g1, g2 in zip(gaps, gaps[1:]))
        ok = ok and 1.9 <= halving <= 2.1 and abs(step - 1.0) <= 5e-4
        # the constant I_q^d by two independent routes
        direct = walk.idq(d, q, IdqRoute.DIRECT_INTEGRAL, 1e-10).value
        rec = walk.idq(d, q, IdqRoute.RECURSION_ENDPOINT).value
        rel = abs(direct - rec) / abs(direct)
        ok = ok and rel <= 1e-7
        details.append(
            f"S^{d} q={q}: r={ratios[0]:.5f}->{ratios[-1]:.5f}, gap halving "
            f"{halving:.3f}, Richardson-1 {step - 1.0:.1e}, direct/recursion {rel:.1e}"
        )
    # I_5^3 = (pi/2) rho^3_4(1) = 5 pi / 32 (Rayleigh-Treloar)
    i53 = walk.idq(3, 5, IdqRoute.DIRECT_INTEGRAL, 1e-10).value
    ok = ok and abs(i53 - 5.0 * math.pi / 32.0) <= 1e-15
    details.append(f"I_5^3 - 5pi/32 = {i53 - 5.0 * math.pi / 32.0:.1e}")
    report("criterion 12 (odd q on hyperspherical harmonics)", ok, "; ".join(details))
