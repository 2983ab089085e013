"""Cold-start time-to-solution benchmark for polyspec.

    python3 perfbench/run.py --workload table|sweep|mc --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition of the workload is a
fresh interpreter (``rep.py``), so every table and cache starts cold, as it
does for a user running one CLI command.  Repetitions run one after
another until ``--seconds`` is spent (at least one), and the end-to-end
metrics are their medians.  With ``--trace 1`` traced and untraced
repetitions alternate and the per-layer metrics are printed instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details of every
repetition, the machine record and, for traced runs, every span go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads  # this file's directory is first on sys.path

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
HARD_LIMIT_S = 165.0  # a run must end within 180 s
MIN_REPS = 2  # one cold rep alone spreads too widely from run to run
MIN_SETUP_SAMPLES = 5

END_TO_END = {  # name -> unit
    "solve_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "1",
}


def _child(argv: list[str], env: dict, timeout: float) -> dict:
    """Run one fresh interpreter; its last stdout line is its JSON result."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "rep.py")] + argv,
                          env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"rep.py {' '.join(argv)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "polyspec", "cli.py")):
        print("no src/polyspec in the current directory: run from the root of a"
              " polyspec checkout", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "POLYSPEC_THREADS"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    started = time.monotonic()
    load_start = os.getloadavg()

    def remaining() -> float:
        return HARD_LIMIT_S - (time.monotonic() - started)

    first = _child(["--workload", args.workload, "--seed", "0", "--import-only"],
                   env, remaining())
    setups = [first["setup_s"]]
    reps, durations = [], []
    while True:
        traced = args.trace == 1 and len(reps) % 2 == 1
        argv = ["--workload", args.workload, "--seed", str(args.seed),
                "--trace", str(int(traced))]
        if traced:
            argv += ["--spans", os.path.join(OUT, f"{tag}-rep{len(reps)}-spans.jsonl.gz")]
        t0 = time.monotonic()
        rep = _child(argv, env, remaining())
        durations.append(time.monotonic() - t0)
        rep["traced"] = traced
        reps.append(rep)
        setups.append(rep["setup_s"])
        elapsed = time.monotonic() - started
        next_s = statistics.median(durations)
        if len(reps) < MIN_REPS:
            continue  # a traced run also needs one rep of each kind
        if elapsed + next_s > min(args.seconds, HARD_LIMIT_S - 5.0):
            break
    while len(setups) < MIN_SETUP_SAMPLES and remaining() > 10.0:
        setups.append(_child(["--workload", args.workload, "--seed", "0",
                              "--import-only"], env, remaining())["setup_s"])

    ops = [op for rep in reps for op in rep["ops"]]
    failed = sum(1 for op in ops if op["status"] != "ok" or not op["ok"])
    correct = all(op.get("ok", True) and op.get("rejects_perturbed", True) for op in ops)
    plain = [rep for rep in reps if not rep["traced"]]
    if args.trace:
        traced_reps = [rep for rep in reps if rep["traced"]]
        metrics = {
            name: {"value": statistics.median(rep["layer"][name]["value"] for rep in traced_reps),
                   "unit": m["unit"]}
            for name, m in traced_reps[0]["layer"].items()
        }
        base = statistics.median(rep["solve_s"] for rep in plain)
        metrics["trace.overhead_share"] = {
            "value": statistics.median(rep["solve_s"] for rep in traced_reps) / base - 1.0,
            "unit": "1"}
    else:
        values = {
            "solve_s": statistics.median(rep["solve_s"] for rep in plain),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(rep["cpu_s"] for rep in plain),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain),
            "ok_share": 1.0 - failed / len(ops),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": metrics, "setup_samples": setups, "rep_wall_s": durations,
        "machine": dict(first["machine"], nproc=os.cpu_count(), cpu_model=_cpu_model(),
                        loadavg_start=load_start, loadavg_end=os.getloadavg()),
        "reps": reps,
    }
    path = os.path.join(OUT, f"{tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for op in ops:
        if op["status"] != "ok" or not op["ok"] or not op["rejects_perturbed"]:
            print(f"op {op['name']}: {op['status']} {op.get('failed', '')}"
                  f" {op.get('blind', '')}".rstrip())
    print(f"{args.workload} seed {args.seed}: {len(plain)} cold reps,"
          f" {len(reps) - len(plain)} traced, {len(setups)} set-up samples;"
          f" failed_share {failed / len(ops):.6g} ({failed}/{len(ops)} ops); details in {path}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
