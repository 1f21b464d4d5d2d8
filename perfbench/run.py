"""End-to-end benchmark of the infoflow CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep|leakage|society|anon|all
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --write-reference

Each workload is a seeded job list (see workloads.py) run as a closed
loop with one client: one worker process, no threads, every job one
in-process ``infoflow.cli.main(argv)`` call that writes its report into
a work directory. With ``--trace 0`` the run prints the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it runs untraced passes,
then traced ones, and prints the per-layer metrics, tracing overhead
included. Times are scaled to reference machine speed by a calibration
loop timed around every job and every set-up sample on the same CPU
(calibrate.py); the raw times are kept in the result file. Every
completed job's output is checked (check.py); the
default seed is also compared against outputs frozen from the seed
commit (``--write-reference`` freezes them).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. Runtime files go to
``.perfbench_runs/`` in the checkout: the work directory (removed at the
end), a stamped result file per run, and the spans of the last traced
run of each workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import check  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0  # the seed whose outputs are frozen in reference/
SETUP_SAMPLES = 4  # before the worker, and as many again after it
RUN_TIMEOUT_S = 170  # a run must end within 180 s
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


def time_setup(env: dict[str, str]) -> tuple[float, float]:
    """Seconds of one fresh-process ``import infoflow.cli``: (raw, at reference speed).

    No ``timeout=``: with one, subprocess polls in 50 ms steps. The run's
    alarm (see ``main``) bounds the wait instead."""
    before = calibrate.point("python")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import infoflow.cli"], env=env, check=True)
    raw = time.perf_counter() - t0
    return raw, raw * calibrate.scale("python", before, calibrate.point("python"))


def _timed_out(signum, frame):
    raise BenchError(f"the run did not finish within {RUN_TIMEOUT_S} s")


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail(latencies_ms: list[float], jobs_per_pass: int) -> tuple[float, float, int]:
    """(value, percentile, jobs beyond): the highest percentile of the ladder with
    at least ten jobs of one pass beyond it, taken over the latencies of all passes.
    The percentile depends on the job list only, not on how many passes fit."""
    p = next((q for q in TAIL_LADDER if jobs_per_pass * (1 - q / 100) >= 10), TAIL_LADDER[-1])
    value = percentile(latencies_ms, p)
    return value, p, sum(1 for v in latencies_ms if v > value)


def normalized_ns(p: dict, kind: str) -> list[float]:
    """A pass's job latencies at reference speed: each job scaled by the
    calibration points just before and just after it."""
    cal = p["calibration_ns"]
    return [ns * calibrate.scale(kind, cal[j], cal[j + 1]) for j, ns in enumerate(p["latency_ns"])]


def batch_wall_s(passes: list[list[float]]) -> float:
    """Wall time of the job list (ns per job, one list per pass), each job at
    its median over the passes: a burst of load moves one sample, not the sum."""
    return sum(statistics.median(p[j] for p in passes) for j in range(len(passes[0]))) / 1e9


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "infoflow").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp(root: Path, worker: dict) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": source_digest(root),
        "python": worker["python"],
        "numpy": worker["numpy"],
        "backend": worker["backend"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def run_workload(root: Path, bench: dict, name: str, seed: int, seconds: float, trace: bool,
                 write_reference: bool = False) -> dict:
    runs = root / ".perfbench_runs"
    work = runs / f"work-{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        jobs = workloads.build(name, seed, root / "src" / "infoflow" / "data", work)
        plan = json.dumps({"jobs": jobs}, sort_keys=True)
        (work / "plan.json").write_text(plan)
        env = child_env(root)
        timed_setup = not (trace or write_reference)
        setup = []
        if timed_setup:
            time_setup(env)  # untimed: the first import may compile bytecode
            setup = [time_setup(env) for _ in range(SETUP_SAMPLES)]
        with open(work / "worker.stderr", "w") as err:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(work), str(seconds), "1" if trace else "0",
                 workloads.CALIBRATION[name]],
                env=env, stdout=subprocess.DEVNULL, stderr=err,
            )
        if timed_setup:  # samples on both sides of the passes, which span the run
            setup += [time_setup(env) for _ in range(SETUP_SAMPLES)]
        if proc.returncode != 0:
            raise BenchError(f"{name}: worker exited {proc.returncode}:\n" + (work / "worker.stderr").read_text()[-3000:])
        worker = json.loads((work / "results.json").read_text())
        result = evaluate(root, bench, name, seed, trace, jobs, plan, worker, work, setup, write_reference)
        if (work / "spans.jsonl.gz").exists():
            os.replace(work / "spans.jsonl.gz", runs / f"spans-{name}.jsonl.gz")
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def evaluate(root, bench, name, seed, trace, jobs, plan, worker, work, setup, write_reference) -> dict:
    passes = worker["passes"] + worker["traced_passes"]
    first = passes[0]
    problems: list[str] = []
    units = 0
    for index, job in enumerate(jobs):
        code = first["exit"][index]
        if any(p["exit"][index] != code or p["fingerprints"][index] != first["fingerprints"][index] for p in passes):
            problems.append(f"{job['name']}: outputs or exit code differ between passes")
        if not isinstance(code, int):
            problems.append(f"{job['name']}: uncaught {code}")
        elif code == 1:
            problems.append(f"{job['name']}: exit 1, information cap violated")
        elif code == 0:
            problem, job_units = check.check_job(job, work)
            units += job_units
            if problem:
                problems.append(f"{job['name']}: {problem}")

    ref_path = HERE / "reference" / f"{name}.json"
    if write_reference or seed == DEFAULT_SEED:
        digests = [check.digest(job, work, first["exit"][i]) for i, job in enumerate(jobs)]
    if write_reference:
        ref = {"workload": name, "seed": seed, "plan_sha256": hashlib.sha256(plan.encode()).hexdigest(),
               "jobs": {job["name"]: d for job, d in zip(jobs, digests)}}
        ref_path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    elif seed == DEFAULT_SEED:
        ref = json.loads(ref_path.read_text())
        if ref["plan_sha256"] != hashlib.sha256(plan.encode()).hexdigest():
            problems.append(f"{ref_path.name} was frozen from another job list; refreeze it")
        else:
            for job, got in zip(jobs, digests):
                problem = check.compare(ref["jobs"][job["name"]], got)
                if problem:
                    problems.append(f"{job['name']}: {problem}")

    attempted = len(jobs) * len(passes)
    failed = sum(1 for p in passes for code in p["exit"] if code not in (0, 1))
    kind = workloads.CALIBRATION[name]
    untraced = [normalized_ns(p, kind) for p in worker["passes"]]
    raw = [p["latency_ns"] for p in worker["passes"]]
    slowdown = statistics.median(t for p in passes for point in p["calibration_ns"] for t in point) / calibrate.REFERENCE_NS[kind]
    layers = dict(worker["layers"])
    if trace:
        traced = [normalized_ns(p, kind) for p in worker["traced_passes"]]
        layers["trace.overhead_s"] = batch_wall_s(traced) - batch_wall_s(untraced)
        layers["machine.slowdown"] = slowdown

    def end_to_end(per_pass: list[list[float]], setup_s: list[float]) -> dict:
        latencies = [ns / 1e6 for p in per_pass for ns in p]
        wall = batch_wall_s(per_pass)
        return {
            "wall_s": wall,
            "job_p50_ms": percentile(latencies, 50),
            "job_tail_ms": tail(latencies, len(jobs))[0],
            "work_per_s": units / wall,
            "completed_ratio": 1.0 - failed / attempted,
            "peak_rss_mb": worker["peak_rss_kb"] / 1024,
            "setup_s": statistics.median(setup_s) if setup_s else None,
        }

    e2e = end_to_end(untraced, [s[1] for s in setup])
    latencies = [ns / 1e6 for p in untraced for ns in p]
    _, tail_p, beyond = tail(latencies, len(jobs))
    spec = bench["per_layer"] if trace else bench["end_to_end"]
    values = layers if trace else e2e
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "stamp": stamp(root, worker),
        "passes": len(untraced),
        "pass_wall_s": [p["wall_ns"] / 1e9 for p in passes],
        "traced_passes": len(worker["traced_passes"]),
        "jobs_per_pass": len(jobs),
        "tail": {"percentile": tail_p, "jobs_beyond": beyond},
        "failed_ratio": failed / attempted,
        "refused_jobs": sorted({jobs[i]["name"] for i, c in enumerate(first["exit"]) if c not in (0, 1)}),
        "work_units_per_pass": units,
        "setup_samples_s": [s[0] for s in setup],
        "problems": problems,
        "machine_slowdown": slowdown,
        "end_to_end": e2e,
        "end_to_end_raw": end_to_end(raw, [s[0] for s in setup]),
        "layers": layers,
        "latency_ms": latencies,
        "raw_latency_ms": [ns / 1e6 for p in raw for ns in p],
        "summary": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
        },
    }


def report(result: dict) -> None:
    s = result["stamp"]
    print(f"# workload={result['workload']} seed={result['seed']} trace={result['trace']} "
          f"passes={result['passes']}+{result['traced_passes']} traced, {result['jobs_per_pass']} jobs/pass")
    print(f"# commit={s['commit']} source={s['source_sha256'][:12]} python={s['python']} numpy={s['numpy']} "
          f"backend={s['backend']} nproc={s['nproc']} cpu={s['cpu_model']!r}")
    print(f"# times at reference speed; this run's machine was {result['machine_slowdown']:.3f}x slower "
          f"than the reference (raw times in brackets)")
    raw = result["end_to_end_raw"]
    for name, m in result["summary"]["metrics"].items():
        note = ""
        if name in raw and name not in ("completed_ratio", "peak_rss_mb") and raw[name] is not None:
            note = f"  [raw {raw[name]:.6g}]"
        if name == "job_tail_ms":
            note += f"  (p{result['tail']['percentile']:g}, {result['tail']['jobs_beyond']} jobs beyond)"
        elif name == "completed_ratio":
            note = (f"  (failed_ratio {result['failed_ratio']:.4f}: "
                    f"{result['summary']['failed']} of {result['summary']['attempted']} jobs refused)")
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{result['workload']:>8} {name:<28} {value:>14} {m['unit']}{note}")
    for problem in result["problems"][:20]:
        print(f"CHECK FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="|".join(workloads.WORKLOADS) + "|all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true", help="freeze this job list's outputs")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "infoflow" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("error: run from the root of an infoflow checkout (src/infoflow and BENCHMARK.json)", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    if args.write_reference:
        args.seed, seconds, args.trace = DEFAULT_SEED, 0, 0

    results = []
    calibrate.pin_to_one_cpu()  # the worker and the set-up imports inherit it
    signal.signal(signal.SIGALRM, _timed_out)
    try:
        for name in names:
            signal.alarm(RUN_TIMEOUT_S)
            result = run_workload(root, bench, name, args.seed, seconds, bool(args.trace), args.write_reference)
            report(result)
            out = root / ".perfbench_runs" / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps({k: v for k, v in result.items() if k != "summary"}, indent=1) + "\n")
            results.append(result)
    except (BenchError, ValueError, OSError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)

    if len(results) == 1:
        summary = results[0]["summary"]
    else:
        summary = {
            "correct": all(r["summary"]["correct"] for r in results),
            "attempted": sum(r["summary"]["attempted"] for r in results),
            "failed": sum(r["summary"]["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": v for r in results for k, v in r["summary"]["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
