"""Workload definitions: the ops each workload runs, built from the seed.

Standard library only, so that building the inputs loads nothing the
program would otherwise load itself during the timed ops.

An op is a plain dict:

- ``name``: a label, unique within the workload;
- ``cli``: argv for ``polyspec.cli.main``, or ``call`` plus ``args`` for a
  library function the benchmark calls directly;
- ``check``: the name of the independent check in ``checks.py`` plus the
  parameters it needs.
"""

from __future__ import annotations

import random

WORKLOADS = ("table", "sweep", "mc")

# Frequency ladders before the seed's jitter of up to +-5% per rung.
EUCLID_LADDER = (25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0)
SPHERE_LADDER = (10.0, 20.0, 40.0, 80.0, 160.0)
EUCLID_CASES = ((2, 3), (2, 4), (3, 4))  # (d, q), ball radius R = 1
SPHERE_CASES = ((2, 3, 1.0), (3, 3, 0.7), (2, 2, 1.5))  # (d, q, R)
KLUYVER_CASES = ((2, 4), (3, 5))
GRID_POINTS = 41  # the CLI default: 41 points over [0, n], r = 0 dropped
KLUYVER_TOL = 1e-8  # the CLI default --tol
JITTER = 0.05


def _jitter(rng: random.Random, base: float) -> float:
    return base * (1.0 + rng.uniform(-JITTER, JITTER))


def _grid(n: int) -> list[float]:
    """The CLI density grid: linspace(0, n, 41) without r = 0."""
    return [n * i / (GRID_POINTS - 1) for i in range(1, GRID_POINTS)]


def _table_ops(rng: random.Random) -> list[dict]:
    argv = ["density", "--d", "2", "--n", "4", "--route", "recursion",
            "--points", str(GRID_POINTS)]
    return [
        {"name": "table", "cli": ["table"], "check": {"kind": "table"}},
        {"name": "density-recursion-d2n4", "cli": argv,
         "check": {"kind": "density_csv", "d": 2, "n": 4}},
    ]


def _sweep_ops(rng: random.Random) -> list[dict]:
    ops = []
    for d, q in EUCLID_CASES:
        freqs = [_jitter(rng, f) for f in EUCLID_LADDER]
        ops.append(_ladder_op("euclidean", d, q, 1.0, freqs))
    for d, q, R in SPHERE_CASES:
        degrees = [float(round(_jitter(rng, f))) for f in SPHERE_LADDER]
        ops.append(_ladder_op("spherical", d, q, R, degrees))
    for d, n in KLUYVER_CASES:
        for r in _grid(n):
            ops.append({
                "name": f"kluyver-d{d}n{n}-r{r:g}",
                "call": "density_kluyver",
                "args": {"d": d, "n": n, "r": r, "tol": KLUYVER_TOL},
                "check": {"kind": "density_point", "d": d, "n": n, "r": r},
            })
    return ops


def _ladder_op(geometry: str, d: int, q: int, R: float, freqs: list[float]) -> dict:
    grid = ",".join(repr(f) for f in freqs)
    return {
        "name": f"variance-{geometry}-d{d}q{q}R{R:g}",
        "cli": ["variance", "--geometry", geometry, "--d", str(d), "--q", str(q),
                "--R", repr(R), "--freq-grid", grid],
        "check": {"kind": "variance_ladder", "geometry": geometry, "d": d,
                  "q": q, "R": R},
    }


def _mc_ops(rng: random.Random) -> list[dict]:
    seeds = [rng.randrange(1, 2**31) for _ in range(4)]
    lam = _jitter(rng, 10.0)
    ell = float(round(_jitter(rng, 15.0)))
    ops = []
    for (geometry, d, q, R, freq), seed in zip(
        (("euclidean", 2, 3, 1.0, lam), ("spherical", 2, 2, 1.0, ell)), seeds
    ):
        ops.append({
            "name": f"variance-mc-{geometry}-d{d}q{q}",
            "cli": ["variance", "--geometry", geometry, "--d", str(d), "--q", str(q),
                    "--R", repr(R), "--freq", repr(freq), "--method", "mc",
                    "--trials", "2000", "--resolution", "16", "--seed", str(seed)],
            "check": {"kind": "variance_mc", "geometry": geometry, "d": d, "q": q,
                      "R": R, "freq": freq, "resolution": 16},
        })
    ops.append({
        "name": "density-mc-d3n4",
        "cli": ["density", "--d", "3", "--n", "4", "--route", "mc",
                "--points", str(GRID_POINTS), "--seed", str(seeds[2])],
        "check": {"kind": "density_mc", "d": 3, "n": 4, "samples": 1_000_000},
    })
    ops.append({
        "name": "walk-density-check-d3n5",
        "call": "mc_walk_density_check",
        "args": {"d": 3, "n": 5, "n_samples": 200_000, "bins": 40, "seed": seeds[3]},
        "check": {"kind": "chi_square"},
    })
    return ops


def build(workload: str, seed: int) -> list[dict]:
    """The ops of one workload run, in execution order; same seed, same ops."""
    builders = {"table": _table_ops, "sweep": _sweep_ops, "mc": _mc_ops}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return builders[workload](random.Random(f"{workload}:{seed}"))
