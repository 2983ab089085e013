"""One cold repetition of a workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload table --seed 1 [--trace 1] [--import-only]

Times ``import polyspec.cli`` (set-up), then runs the workload's ops in
order (solve), reads the process's CPU time and peak memory, and only then
checks every output.  Prints one JSON object on its last line.  Run by
``run.py``, which puts the checkout's ``src`` first on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time


def _machine() -> dict:
    """Versions and the BLAS thread default, read in this interpreter."""
    import ctypes
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        try:
            threads = int(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
            break
        except (OSError, AttributeError):
            continue
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads_default": threads,
            "env_blas_threads": {k: os.environ.get(k) for k in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "POLYSPEC_THREADS")}}


def _run_op(op: dict):
    """Run one op; returns (status, output).  status 'ok' or a failure kind."""
    from polyspec import cli, fieldsim, walk

    if "cli" in op:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(op["cli"]))
        except SystemExit as exc:
            rc = exc.code
        return ("ok" if rc == 0 else f"exit {rc}"), buf.getvalue()
    a = op["args"]
    if op["call"] == "density_kluyver":
        res = walk.density_kluyver(walk.WalkSpec(a["d"], a["n"]), a["r"], a["tol"])
        # the CLI's own acceptance rule for a density point
        if res.status == "divergent":
            return "divergent", res
        if res.status == "non_converged" and res.abs_error_estimate > 100 * a["tol"]:
            return "non_converged", res
        return "ok", res
    if op["call"] == "mc_walk_density_check":
        return "ok", fieldsim.mc_walk_density_check(
            walk.WalkSpec(a["d"], a["n"]), a["n_samples"], a["bins"], seed=a["seed"])
    raise ValueError(f"unknown call {op['call']!r}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--spans", default=None, help="file for the traced spans")
    args = parser.parse_args()

    start = time.perf_counter()
    import polyspec.cli  # noqa: F401  (the set-up being measured)

    setup_s = time.perf_counter() - start
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(polyspec.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"polyspec imported from {polyspec.cli.__file__}, not {src}")
    if args.import_only:
        print(json.dumps({"setup_s": setup_s, "machine": _machine()}))
        return 0

    import workloads  # this file's directory is first on sys.path

    ops = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer().install()
    results = []
    solve_start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            status, output = _run_op(op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            status, output = f"raised {type(exc).__name__}: {exc}", None
        results.append((op, status, output, time.perf_counter() - t0))
    solve_s = time.perf_counter() - solve_start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    layer = None
    if tracer is not None:
        tracer.uninstall()
        layer = tracing.layer_metrics(tracer.summary())
        if args.spans:
            tracer.dump(args.spans)

    import checks

    op_records = []
    for op, status, output, op_s in results:
        record = {"name": op["name"], "s": op_s, "status": status}
        if status == "ok":
            try:
                record.update(checks.run(op, output))
            except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
                # output the check cannot even read is wrong output
                record.update(ok=False, rejects_perturbed=True,
                              failed=[f"unreadable output: {exc!r}"])
        op_records.append(record)
    print(json.dumps({
        "setup_s": setup_s,
        "solve_s": solve_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "ops": op_records,
        "layer": layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
