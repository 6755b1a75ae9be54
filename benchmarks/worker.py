"""One workload process: set up, run the workload's `verify` calls in passes,
judge every verdict, and print a JSON summary as the last line of stdout.

Run by `run.py` in a fresh interpreter, so that `setup_s` counts the import of
the package and `peak_rss_mb` covers this workload alone.  Nothing but the
standard library is imported before the set-up clock starts.

Times are measured raw and also stated at the nominal speed of
`reference.py`: its sampler runs a reference unit every few milliseconds for
the whole life of the process, set-up included, and each stretch of work is
scaled by the units run during it."""

from __future__ import annotations

import time

T_START = time.perf_counter()

from reference import Sampler  # noqa: E402

SAMPLER = Sampler()
SAMPLER.start()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from workloads import KNOB_TARGETS, WORKLOADS, Call, Workload  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")


def set_up(workload: Workload) -> dict[str, str]:
    """Import the package, build the workload's catalog entries, and export
    and parse its imported pairs.  Returns pair name -> exported JSON path,
    relative to the checkout so that reports name the same path everywhere."""
    from poissonlie import cli
    from poissonlie.catalog import get_entry
    from poissonlie.matched import MatchedPair

    for name in workload.catalog_pairs():
        get_entry(name)
    paths = {}
    for name in workload.imported_pairs():
        path = os.path.join(os.path.relpath(OUT_DIR, ROOT), "pairs", f"{name}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["catalog", "export", name, "--out", path])
        if code != 0:
            raise RuntimeError(f"catalog export {name} exited {code}")
        with open(path, encoding="utf-8") as fh:
            MatchedPair.from_json(fh.read())
        paths[name] = path
    return paths


def argv_of(call: Call, paths: dict[str, str], seed: int, out: str) -> list[str]:
    argv = ["verify", paths[call.pair] if call.imported else call.pair]
    if call.checks:
        argv += ["--checks", call.checks]
    if call.samples is not None:
        argv += ["--samples", str(call.samples)]
    if call.knob:
        argv += ["--corrupt", call.knob]
    return argv + ["--seed", str(seed), "--out", out]


def judge(call: Call, code, error: str | None, path: str) -> tuple[str | None, str | None]:
    """Return (digest of the report without its timestamp, reason the verdict
    is wrong or None)."""
    if error is not None:
        return None, f"raised {error}"
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return None, f"unreadable report: {exc}"
    doc.get("meta", {}).pop("timestamp", None)
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    if code != call.expected_exit:
        return digest, f"exit {code}, expected {call.expected_exit}"
    results = doc.get("results", [])
    target = KNOB_TARGETS.get(call.knob)
    checks = {r.get("check") for r in results}
    if call.checks and checks != set(call.checks.split(",")):
        return digest, f"report covers {sorted(checks)}"
    if target is not None and target not in checks:
        return digest, f"target check {target} missing"
    for r in results:
        resid, tol = r.get("max_residual"), r.get("tolerance")
        if r.get("check") == target:
            if r.get("pass") is not False:
                return digest, f"{target} passed under --corrupt {call.knob}"
        elif not (r.get("pass") is True
                  and all(isinstance(x, (int, float)) for x in (resid, tol))
                  and math.isfinite(resid) and resid <= tol):
            return digest, f"{r.get('check')}: pass={r.get('pass')} residual {resid} tol {tol}"
    return digest, None


def run_pass(workload: Workload, paths: dict[str, str], seed: int, tmp: str) -> dict:
    """Run every call once, closed loop; judge the reports after the last
    call, and state each call's time at nominal speed."""
    from poissonlie import cli

    outcomes, spans = [], []
    for i, call in enumerate(workload.calls):
        out = os.path.join(tmp, f"report-{i}.json")
        argv = argv_of(call, paths, seed, out)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code, error = cli.main(argv), None
        except SystemExit as exc:
            code, error = exc.code, None
        except Exception as exc:  # a crash is a wrong verdict, not a benchmark failure
            code, error = None, repr(exc)
        spans.append((t0, time.perf_counter()))
        outcomes.append((code, error, out))
    digests, wrong = {}, {}
    for call, (code, error, out) in zip(workload.calls, outcomes):
        digest, reason = judge(call, code, error, out)
        digests[call.label()] = digest
        if reason is not None:
            wrong[call.label()] = reason
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)
    raw, nominal = zip(*(SAMPLER.nominal(t0, t1) for t0, t1 in spans))
    return {"wall_s": sum(nominal), "slowest_s": max(nominal),
            "call_s": list(nominal), "raw_call_s": list(raw),
            "digests": digests, "wrong": wrong}


def run_passes(workload, paths, seed, tmp, budget_s, tracer=None) -> list[dict]:
    """Run passes while the next one is expected to end less than half a pass
    past the budget, so that a run measures about `budget_s` on average;
    always at least one."""
    passes = []
    began = time.perf_counter()
    while True:
        span = tracer.open("bench.pass") if tracer else None
        rec = run_pass(workload, paths, seed, tmp)
        if tracer:
            tracer.close(span)
            rec["spans"] = (span, len(tracer.start))
        passes.append(rec)
        typical = (time.perf_counter() - began) / len(passes)
        if time.perf_counter() - began + typical / 2 > budget_s:
            return passes


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, when it can be found."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
            "blas_threads": blas_threads()}


def source_id() -> str:
    """Digest of the program's source files, standing in for a commit id."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "poissonlie")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def compare_stored_digests(workload: str, seed: int, digests: dict) -> dict[str, str]:
    """Reports of one program version and seed must repeat across runs: the
    first run stores its digests, later runs compare against them."""
    store = os.path.join(OUT_DIR, "digests", f"{source_id()[:16]}-{workload}-seed{seed}.json")
    if os.path.exists(store):
        with open(store, encoding="utf-8") as fh:
            stored = json.load(fh)
        return {label: "report digest differs from an earlier run"
                for label, d in digests.items() if stored.get(label) != d}
    os.makedirs(os.path.dirname(store), exist_ok=True)
    tmp = f"{store}.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
    os.replace(tmp, store)
    return {}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    os.chdir(ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        paths = set_up(workload)
        raw, nominal = SAMPLER.nominal(T_START, time.perf_counter())
        setup = {"raw_setup_s": raw, "setup_s": nominal}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        SAMPLER.add_numeric_unit()
        summary = measure(workload, args, paths, tmp)
        summary.update(setup)
        print(json.dumps(summary))
        return 0
    finally:
        SAMPLER.stop()
        shutil.rmtree(tmp, ignore_errors=True)


def measure(workload: Workload, args, paths: dict[str, str], tmp: str) -> dict:
    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    passes = run_passes(workload, paths, args.seed, tmp, untraced_budget)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        passes += run_passes(workload, paths, args.seed, tmp, args.seconds / 2, tracer)

    wrong = {}
    for i, p in enumerate(passes):
        for label, reason in p["wrong"].items():
            wrong[f"pass {i}: {label}"] = reason
        for label, d in p["digests"].items():
            if d != passes[0]["digests"][label]:
                wrong[f"pass {i}: {label}"] = "report digest differs from pass 0"
    for label, reason in compare_stored_digests(args.workload, args.seed,
                                                passes[0]["digests"]).items():
        wrong.setdefault(f"pass 0: {label}", reason)

    plain = [p for p in passes if "spans" not in p]
    summary = {
        "env": environment(),
        "source_sha256": source_id(),
        "attempted": len(passes) * len(workload.calls),
        "failed": len(wrong),
        "wrong": wrong,
        "digests": passes[0]["digests"],
        "calls": [c.label() for c in workload.calls],
        "passes": [{k: p[k] for k in ("wall_s", "slowest_s", "call_s", "raw_call_s")}
                   | {"traced": "spans" in p} for p in passes],
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "slowest_verify_s": statistics.median(p["slowest_s"] for p in plain),
        "raw_wall_s": statistics.median(sum(p["raw_call_s"]) for p in plain),
        "raw_slowest_verify_s": statistics.median(max(p["raw_call_s"]) for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference_units": len(SAMPLER.units),
        "reference_unit_median_s": statistics.median(SAMPLER.units),
    }
    if tracer is not None:
        from tracing import layer_metrics

        traced = [p for p in passes if "spans" in p]
        per_pass = [layer_metrics(tracer, *p["spans"]) for p in traced]
        layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - summary["wall_s"])
        summary["layers"] = layers
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}.npz")
        tracer.save(spans)
        summary["spans_file"] = os.path.relpath(spans, ROOT)
    return summary


if __name__ == "__main__":
    sys.exit(main())
