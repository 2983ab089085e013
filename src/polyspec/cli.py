"""Command-line front end: every computation as a reproducible subcommand.

Output is CSV (fixed header, 17 significant digits, "inf" sentinel for
divergent values) or JSON (one top-level object with "inputs", "results"
and "meta"); a run is fully determined by its flags and the seed.

Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 linear algebra
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__, fieldsim, geometry, variance, walk

__all__ = ["main"]

EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_LINALG = 4


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return format(x, ".17g")
    return str(x)


def _jsonable(x):
    if isinstance(x, float) and not math.isfinite(x):
        return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
    return x


def _emit(args, header: list[str], rows: list[list], inputs: dict,
          started: float) -> None:
    if args.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        results = [
            {k: _jsonable(v) for k, v in zip(header, row)} for row in rows
        ]
        payload = {
            "inputs": inputs,
            "results": results,
            "meta": {
                "seed": args.seed,
                "version": __version__,
                "wall_time_s": round(time.monotonic() - started, 6),
            },
        }
        text = json.dumps(payload, indent=2) + "\n"
    if args.output_path:
        with open(args.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_density(args, started: float) -> int:
    spec = walk.WalkSpec(args.d, args.n)
    route = {
        "closed": walk.DensityRoute.CLOSED_FORM2,
        "kluyver": walk.DensityRoute.KLUYVER,
        "recursion": walk.DensityRoute.RECURSION,
        "mc": walk.DensityRoute.MONTE_CARLO,
    }[args.route]
    curve = walk.density_curve(spec, args.r_min, args.r_max, args.points,
                               route, seed=args.seed, tol=args.tol)
    rows = [
        [float(r), float(v), float(e), route.value]
        for r, v, e in zip(curve.grid, curve.values, curve.error)
    ]
    inputs = {"d": args.d, "n": args.n, "r_min": args.r_min, "r_max": args.r_max,
              "points": args.points, "route": args.route}
    _emit(args, ["r", "rho", "err", "route"], rows, inputs, started)
    return 0


def _cmd_constant(args, started: float) -> int:
    route = {
        "direct": walk.IdqRoute.DIRECT_INTEGRAL,
        "recursion": walk.IdqRoute.RECURSION_ENDPOINT,
        "closed": walk.IdqRoute.CLOSED_FORM,
    }[args.route]
    res = walk.idq(args.d, args.q, route, tol=args.tol)
    row = [res.d, res.q, res.classification.value,
           res.value if res.value is not None else None,
           res.error if res.error is not None else None,
           res.route.value]
    inputs = {"d": args.d, "q": args.q, "route": args.route}
    _emit(args, ["d", "q", "classification", "value", "error", "route"],
          [row], inputs, started)
    return 0


def _variance_row(args, freq: float):
    geo = geometry.Geometry(args.geometry)
    fs_spec = variance.FieldSpec(geo, args.d, freq)
    spec = variance.PolyspectrumSpec(fs_spec, args.q, args.R)
    pred = variance.variance_asymptotic(spec)
    if args.method == "asym":
        value, err_lo, err_hi = pred.value, 0.0, 0.0
    elif args.method == "exact":
        est = (variance.variance_exact_euclidean(spec, args.tol)
               if geo == geometry.Geometry.EUCLIDEAN
               else variance.variance_exact_spherical(spec, args.tol))
        value, err_lo, err_hi = est.value, est.error, est.error
    else:
        dom = fieldsim.build_domain(geo, args.d, args.R, args.resolution)
        sampler = fieldsim.FieldSampler(fs_spec, args.seed)
        mc = fieldsim.mc_polyspectrum_variance(spec, sampler, dom, args.trials)
        value = mc.estimate
        err_lo, err_hi = mc.estimate - mc.ci95[0], mc.ci95[1] - mc.estimate
    ratio = value / pred.value if pred.value else None
    return [freq, value, args.method, err_lo, err_hi, pred.regime.value, ratio]


def _cmd_variance(args, started: float) -> int:
    if (args.freq is None) == (args.freq_grid is None):
        raise argparse.ArgumentTypeError("provide exactly one of --freq / --freq-grid")
    freqs = ([args.freq] if args.freq is not None
             else [float(f) for f in args.freq_grid.split(",")])
    rows = [_variance_row(args, f) for f in freqs]
    inputs = {"geometry": args.geometry, "d": args.d, "q": args.q, "R": args.R,
              "freqs": freqs, "method": args.method, "trials": args.trials,
              "resolution": args.resolution}
    _emit(args, ["freq", "value", "method", "err_lo", "err_hi", "regime",
                 "ratio_to_prediction"], rows, inputs, started)
    return 0


def _cmd_table(args, started: float) -> int:
    rows = []
    for d, q in [(2, 3), (3, 3), (4, 3), (5, 3), (6, 3), (2, 5)]:
        closed = walk.idq_closed_form(d, q)
        direct = walk.idq(d, q, walk.IdqRoute.DIRECT_INTEGRAL, 1e-10)
        rec = walk.idq(d, q, walk.IdqRoute.RECURSION_ENDPOINT)
        rows.append([
            "constant", d, q, walk.classify_idq(d, q).value, closed,
            direct.value, rec.value,
            abs(direct.value - closed), abs(rec.value - closed),
        ])
    for d in range(2, 7):
        for q in range(2, 9):
            cls = walk.classify_idq(d, q)
            if cls is walk.Classification.DIVERGENT:
                rows.append(["classification", d, q, cls.value,
                             None, None, None, None, None])
                continue
            direct = walk.idq(d, q, walk.IdqRoute.DIRECT_INTEGRAL, 1e-9)
            rec = walk.idq(d, q, walk.IdqRoute.RECURSION_ENDPOINT)
            rows.append(["classification", d, q, cls.value, None,
                         direct.value, rec.value, None,
                         abs(direct.value - rec.value)])
    _emit(args, ["kind", "d", "q", "classification", "closed", "direct",
                 "recursion", "delta_direct", "delta_recursion"],
          rows, {}, started)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyspec",
        description="Random-wave polyspectrum variances and random-flight densities",
    )
    parser.add_argument("--config", type=str, default=None,
                        help="flat key=value file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=True):
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--output-path", type=str, default=None)
        if tol:
            p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("density", help="random-flight radius density on a grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--points", type=int, default=41)
    p.add_argument("--route", choices=("closed", "kluyver", "recursion", "mc"),
                   required=True)
    common(p)
    p.set_defaults(fn=_cmd_density, default_format="csv")

    p = sub.add_parser("constant", help="wave-kernel moment constant I_q^d")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--route", choices=("direct", "recursion", "closed"),
                   default="direct")
    common(p)
    p.set_defaults(fn=_cmd_constant, default_format="json")

    p = sub.add_parser("variance", help="polyspectrum variance vs frequency")
    p.add_argument("--geometry", choices=("euclidean", "spherical"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--freq", type=float, default=None)
    p.add_argument("--freq-grid", type=str, default=None,
                   help="comma-separated frequency list")
    p.add_argument("--method", choices=("exact", "asym", "mc"), default="exact")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--resolution", type=int, default=16)
    common(p)
    p.set_defaults(fn=_cmd_variance, default_format="csv")

    # table rows run at fixed tolerances: 1e-10 for constants, 1e-9 for
    # classifications
    p = sub.add_parser("table", help="constants and classification reproduction table")
    common(p, tol=False)
    p.set_defaults(fn=_cmd_table, default_format="csv")
    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Inject --config key=value pairs as flags after the subcommand.

    Injected flags precede the user's own, so explicit flags win (argparse
    keeps the last occurrence of a repeated option).  The subcommand is the
    first token argparse leaves after the top-level options, so a config
    file named like a subcommand is not taken for one.
    """
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", type=str, default=None)
    probe.add_argument("rest", nargs=argparse.REMAINDER)
    known, _ = probe.parse_known_args(argv)
    if not known.config or not known.rest:
        return argv
    injected: list[str] = []
    with open(known.config, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            injected += ["--" + key.strip().replace("_", "-"), value.strip()]
    pos = len(argv) - len(known.rest)
    return argv[: pos + 1] + injected + argv[pos + 1 :]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    argv = _apply_config(argv)
    args = parser.parse_args(argv)
    if args.format is None:
        args.format = args.default_format
    if getattr(args, "r_max", None) is None and hasattr(args, "n"):
        args.r_max = float(args.n)
    started = time.monotonic()
    try:
        return args.fn(args, started)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    except (fieldsim.CovarianceFactorizationError, np.linalg.LinAlgError) as exc:
        print(f"linear algebra failure: {exc}", file=sys.stderr)
        return EXIT_LINALG
    except ValueError as exc:  # after LinAlgError, which subclasses it
        parser.error(str(exc))
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
