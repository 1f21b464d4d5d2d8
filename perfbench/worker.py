"""Benchmark worker: runs one workload's job list in-process, in passes.

Usage: python3 worker.py WORK_DIR SECONDS TRACE CALIBRATION

Reads ``WORK_DIR/plan.json`` (written by run.py), imports infoflow.cli
and runs every job as one ``infoflow.cli.main(argv)`` call, one after
the other (a closed loop with one client). A pass is the whole job
list; passes repeat until SECONDS are spent. With TRACE=1 the first
half of the time runs untraced passes and the second half traced ones,
so the difference is the tracing overhead. Before the first job of a
pass and after every job, the CALIBRATION loop of calibrate.py is timed
(outside the jobs' latencies), so run.py can scale each job to reference
speed. run.py pins the worker to one CPU, so loop and job share it.

After each pass, outside the timed region, every output is
fingerprinted; the first pass's outputs are kept in ``kept/`` for the
output checks and later passes' are deleted. Results go to
``WORK_DIR/results.json``.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

import calibrate
from check import file_sha256


def canonical(doc) -> str:
    """JSON text of a report without run-dependent fields (the sweep's ``seconds``)."""
    if isinstance(doc, dict):
        doc = {k: v for k, v in doc.items() if k != "seconds"}
    return json.dumps(doc, sort_keys=True)


def fingerprint(job: dict) -> dict:
    """Digest of a job's outputs, equal across passes when the job is deterministic."""
    out = {}
    for rel in job["reports"]:
        if os.path.exists(rel):
            with open(rel) as fh:
                out[rel] = hashlib.sha256(canonical(json.load(fh)).encode()).hexdigest()
    for rel in job["logs"]:
        if os.path.exists(rel):
            out[rel] = file_sha256(Path(rel))
    return out


def output_bytes(job: dict) -> int:
    total = 0
    for root, _, files in os.walk(Path("out") / job["name"]):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def run_pass(cli, jobs: list[dict], kind: str, tracer=None) -> dict:
    for job in jobs:
        (Path("out") / job["name"]).mkdir(parents=True, exist_ok=True)
    latencies, codes = [], []
    calibration = [calibrate.point(kind)]
    t_pass = perf_counter_ns()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.start_job(index)
        t0 = perf_counter_ns()
        try:
            code = cli.main(list(job["argv"]))
        except SystemExit as exc:  # argparse rejects argv with exit code 2
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an uncaught error is a failed job, not a crash of the run
            code = f"{type(exc).__name__}: {exc}"
        latencies.append(perf_counter_ns() - t0)
        codes.append(code)
        calibration.append(calibrate.point(kind))
    wall = perf_counter_ns() - t_pass
    return {
        "wall_ns": wall,
        "latency_ns": latencies,
        "calibration_ns": calibration,
        "exit": codes,
        "emit_bytes": sum(output_bytes(job) for job in jobs),
        "fingerprints": [fingerprint(job) for job in jobs],
    }


def run_phase(cli, jobs: list[dict], kind: str, budget_ns: int, passes: list, tracer=None, metrics=None) -> None:
    """Run whole passes while the next one is expected to fit in ``budget_ns``."""
    start = perf_counter_ns()
    last = 0
    while not passes or perf_counter_ns() - start + last <= budget_ns:
        t0 = perf_counter_ns()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            result = run_pass(cli, jobs, kind, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            layer = tracer.metrics()
            layer["cli.emit_bytes"] = float(result["emit_bytes"])
            metrics.append(layer)
            if len(metrics) == 1:
                write_spans(tracer)
        if not os.path.exists("kept"):
            os.rename("out", "kept")
        else:
            shutil.rmtree("out")
        passes.append(result)
        last = perf_counter_ns() - t0
        if budget_ns <= 0:
            break


def write_spans(tracer) -> None:
    """Write the first traced pass's spans, one JSON array per line."""
    from tracer import TARGETS

    names = [t.name for t in TARGETS]
    with gzip.open("spans.jsonl.gz", "wt", compresslevel=1) as fh:
        fh.write(json.dumps(["name", "start_ns", "end_ns", "parent", "job", "self_ns", "error"]) + "\n")
        for span, own in zip(tracer.spans, tracer.self_ns()):
            fh.write(json.dumps([names[span[0]], span[1], span[2], span[3], span[4], own, span[6]]) + "\n")


def main(argv: list[str]) -> int:
    work, seconds, trace, kind = Path(argv[0]), float(argv[1]), argv[2] == "1", argv[3]
    os.chdir(work)
    with open("plan.json") as fh:
        jobs = json.load(fh)["jobs"]

    import numpy

    import infoflow._kernels
    import infoflow.cli as cli

    budget = int(seconds * 1e9)
    untraced: list[dict] = []
    traced: list[dict] = []
    layer_metrics: list[dict] = []
    if trace:
        from tracer import Tracer

        run_phase(cli, jobs, kind, budget // 2, untraced)
        run_phase(cli, jobs, kind, budget // 2, traced, Tracer(), layer_metrics)
    else:
        run_phase(cli, jobs, kind, budget, untraced)

    layers = {}
    if layer_metrics:
        layers = {k: statistics.median(m[k] for m in layer_metrics) for k in layer_metrics[0]}
    results = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": infoflow._kernels.backend(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": untraced,
        "traced_passes": traced,
        "layers": layers,
    }
    with open("results.json", "w") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
