"""Benchmark of `poissonlie verify`: run one workload and print its metrics.

    python3 benchmarks/run.py --workload sampled --seed 42 --seconds 20 --trace 0

Runs from a checkout of the repository; the package is imported from `src/`,
nothing is installed or built.  With `--trace 0` the last line of stdout holds
the end-to-end metrics of BENCHMARK.json, with `--trace 1` its per-layer
metrics.  The line before it holds the details: environment stamp, report
digests and per-call times.  Both are also written under `.bench_out/`."""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: fresh processes that only set up, besides the measured one; the set-up
#: time reported is the median over all of them
SETUP_PROBES = 4
#: every run must end within this many seconds
RUN_LIMIT_S = 170.0
#: BLAS and OpenMP pools are held at one thread, at most nproc on any machine
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42,
                    help="passed to every verify call as --seed (must be >= 0)")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "poissonlie", "cli.py")):
        sys.stderr.write(f"error: no poissonlie sources under {ROOT}/src\n")
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2
    if args.seed < 0 or args.seconds < 1:
        sys.stderr.write("error: --seed must be >= 0 and --seconds >= 1\n")
        return 2

    summary = run_worker(args, [], deadline)
    if args.trace:
        values = summary["layers"]
        wanted = spec["per_layer"]
    else:
        probes = [summary] + [run_worker(args, ["--setup-only"], deadline)
                              for _ in range(SETUP_PROBES)]
        setups = [p["setup_s"] for p in probes]
        summary["raw_setup_samples_s"] = [p["raw_setup_s"] for p in probes]
        values = {"wall_s": summary["wall_s"],
                  "slowest_verify_s": summary["slowest_verify_s"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": summary["peak_rss_mb"],
                  "verdict_ok_ratio": 1.0 - summary["failed"] / summary["attempted"]}
        summary["setup_samples_s"] = setups
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.stderr.write(f"error: metrics not measured: {missing}\n")
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    summary.pop("layers", None)
    summary.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, git_commit=git_commit(), thread_env=THREAD_ENV)
    result = {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
              "failed": summary["failed"], "metrics": metrics}
    out = os.path.join(ROOT, ".bench_out",
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"details": summary, "result": result}, fh, indent=1)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
