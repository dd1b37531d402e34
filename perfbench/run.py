"""homfit benchmark: seeded CLI workloads, output checks, per-layer trace.

    python3 perfbench/run.py --workload planar --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout.  It writes the workload's inputs
for --seed, times `import homfit` in fresh interpreters (setup_s), then
runs passes over every job of the workload, each pass in a fresh
interpreter so caches start cold as they do for a command-line user,
until --seconds have gone by (at least one pass).  Every report is
checked (checks.py).  Medians over passes are printed by name with their
unit; the last line of standard output is one JSON object:

    {"correct": ..., "attempted": jobs run, "failed": jobs failing a check,
     "metrics": {name: {"value": ..., "unit": ...}}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 one
untraced pass is followed by traced passes (spans.py) and the metrics
are the per-layer ones, plus the tracing overhead.  Inputs, reports,
spans and a full record go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# BLAS threads are capped at the cores this process may use; set before
# numpy loads so that children inherit the same cap.
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3           # interpreter start + `import homfit`, median taken
MIN_PASSES = 2           # unless a single pass outlasts --seconds
TIME_LIMIT_S = 170.0     # a run must end well inside 180 s


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "commit": git_commit(),
    }


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def remaining(t0):
    left = TIME_LIMIT_S - (perf_counter() - t0)
    if left <= 0:
        raise BenchError("time limit reached")
    return left


def measure_setup(t0):
    times = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import homfit"],
                              env=child_env(), capture_output=True, text=True,
                              timeout=remaining(t0))
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"import homfit failed:\n{proc.stderr}")
    return statistics.median(times)


def run_pass(jobs_file, out, traced, t0):
    cmd = [sys.executable, str(HERE / "passrun.py"), str(jobs_file), str(out)]
    if traced:
        cmd.append("--trace")
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=remaining(t0))
    if proc.returncode != 0:
        raise BenchError(f"pass failed (exit {proc.returncode}):\n{proc.stderr}")
    record = json.loads((out / "pass.json").read_text())
    for job in record["jobs"]:
        path = out / f"{job['name']}.json"
        job["report"] = json.loads(path.read_text()) if path.exists() else None
    return record


def run_passes(jobs, jobs_file, work, seconds, traced, t0, min_passes=MIN_PASSES):
    """Passes until `seconds` have gone by and `min_passes` are done (one
    is enough when it alone outlasts `seconds`); none that would likely
    cross the time limit."""
    passes = []
    start = perf_counter()
    while True:
        out = work / f"pass{len(passes)}{'_traced' if traced else ''}"
        record = run_pass(jobs_file, out, traced, t0)
        for job, result in zip(jobs, record["jobs"]):
            result["failures"] = checks.check_report(job, result["code"], result["report"])
        passes.append(record)
        elapsed = perf_counter() - start
        per_pass = elapsed / len(passes)
        enough = len(passes) >= min_passes or per_pass > seconds
        if (elapsed >= seconds and enough) or (
                perf_counter() - t0 + 1.5 * per_pass > TIME_LIMIT_S):
            return passes


def median_of(passes, key):
    return statistics.median(key(p) for p in passes)


def end_to_end(passes, setup_s):
    return {
        "suite_s": median_of(passes, lambda p: p["suite_s"]),
        "job_s_max": median_of(passes, lambda p: max(j["seconds"] for j in p["jobs"])),
        "peak_rss_mb": median_of(passes, lambda p: p["peak_rss_mb"]),
        "setup_s": setup_s,
    }


def per_layer(traced, untraced):
    """Medians of the traced passes' layer metrics, the oracle's volume
    gap from the reports, and the tracing overhead against the untraced
    pass."""
    names = traced[0]["layers"]
    values = {k: median_of(traced, lambda p, k=k: p["layers"][k]) for k in names}
    gaps = [j["report"]["oracle"]["volume_rel_gap"] for p in traced for j in p["jobs"]
            if j["report"] and j["report"]["oracle"]
            and "volume_rel_gap" in j["report"]["oracle"]]
    values["oracle.vol_gap_max"] = max(gaps, default=0.0)
    suite = median_of(traced, lambda p: p["suite_s"])
    plain = median_of(untraced, lambda p: p["suite_s"])
    values["trace.suite_s"] = suite
    values["trace.untraced_suite_s"] = plain
    values["trace.overhead_s"] = suite - plain
    values["trace.overhead_frac"] = (suite - plain) / plain
    values["trace.unattributed_s"] = suite - values["trace.layer_sum_s"]
    return values


def declared_units(kind):
    """Metric name -> unit of the `end_to_end` or `per_layer` list in
    BENCHMARK.json, the one place metrics are declared."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def bench(args):
    t0 = perf_counter()
    if not (SRC / "homfit" / "__init__.py").is_file():
        raise BenchError(f"no homfit sources under {SRC}")
    work = ROOT / ".perfbench" / f"{args.workload}_seed{args.seed}_trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    jobs = workloads.build(args.workload, args.seed, work / "inputs")
    jobs_file = work / "inputs" / "jobs.json"
    jobs_file.write_text(json.dumps(jobs))
    env = environment()
    print(json.dumps({"environment": env}))

    setup_s = measure_setup(t0)
    if args.trace:
        untraced = run_passes(jobs, jobs_file, work, 0, False, t0, min_passes=1)
        passes = run_passes(jobs, jobs_file, work, args.seconds, True, t0)
        units = declared_units("per_layer")
        metrics = per_layer(passes, untraced)
        passes = untraced + passes
    else:
        units = declared_units("end_to_end")
        passes = run_passes(jobs, jobs_file, work, args.seconds, False, t0)
        metrics = end_to_end(passes, setup_s)
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    metrics = {k: metrics[k] for k in units}

    attempted = failed = 0
    correct = True
    for i, p in enumerate(passes):
        for result in p["jobs"]:
            attempted += 1
            failed += bool(result["failures"])
            correct &= not any(kind in checks.WRONG_ANSWER
                               for kind, _ in result["failures"])
            if i == 0:
                line = f"{result['name']:<12} {result['seconds']:9.3f} s  exit {result['code']}"
                detail = "; ".join(f"{k}: {d}" for k, d in result["failures"])
                print(line + ("  FAIL " + detail if detail else "  ok"))
    print(f"passes {len(passes)}  jobs {attempted}  failed {failed}  "
          f"fail_frac {failed / attempted:.4f} ratio")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")

    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    for p in passes:
        for job in p["jobs"]:
            job.pop("report")
    (work / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "seconds": args.seconds, "environment": env, "setup_s": setup_s,
         "passes": passes, "result": result}, indent=1))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = bench(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
