"""One pass of a workload in a fresh interpreter.

    python3 perfbench/passrun.py JOBS_JSON OUT_DIR [--trace]

Imports `homfit` (not timed), then runs every job of JOBS_JSON in order
through `homfit.cli.main`, the code path of `python -m homfit`, each
writing its report into OUT_DIR.  Writes OUT_DIR/pass.json with the wall
time of each job, the exit codes and the peak resident memory of this
process; with --trace also the spans (OUT_DIR/spans.json) and the
per-layer summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
from pathlib import Path
from time import perf_counter

from spans import SPAN_FIELDS, Tracer


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("jobs")
    parser.add_argument("out")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    jobs = json.loads(Path(args.jobs).read_text())
    inputs = Path(args.jobs).parent
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    from homfit import cli

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    results = []
    errors = io.StringIO()
    suite_start = perf_counter()
    for job in jobs:
        argv = [str(inputs / job["input"]), *job["flags"],
                "--out", str(out / f"{job['name']}.json")]
        if tracer is not None:
            tracer.job = job["name"]
        start = perf_counter()
        with contextlib.redirect_stderr(errors):
            code = cli.main(argv)
        results.append({"name": job["name"], "code": code,
                        "seconds": perf_counter() - start})
    suite_s = perf_counter() - suite_start

    record = {
        "jobs": results,
        "suite_s": suite_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stderr": errors.getvalue(),
    }
    if tracer is not None:
        record["layers"] = tracer.summarize()
        (out / "spans.json").write_text(json.dumps(
            {"fields": SPAN_FIELDS, "spans": tracer.spans}))
    (out / "pass.json").write_text(json.dumps(record))


if __name__ == "__main__":
    main()
