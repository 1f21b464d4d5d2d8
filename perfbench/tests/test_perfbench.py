"""Tests of the benchmark itself.

Run from the root of the repository:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import filecmp
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import infoflow  # noqa: E402
import infoflow.cli  # noqa: E402
import calibrate  # noqa: E402
import check  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

DATA = ROOT / "src" / "infoflow" / "data"


def _build(workload: str, seed: int, where: Path) -> tuple[str, list[str]]:
    jobs = workloads.build(workload, seed, DATA, where)
    files = sorted(p.relative_to(where).as_posix() for p in (where / "in").iterdir())
    return json.dumps(jobs, sort_keys=True), files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_jobs_and_inputs(workload, tmp_path):
    plan_a, files_a = _build(workload, 7, tmp_path / "a")
    plan_b, files_b = _build(workload, 7, tmp_path / "b")
    assert plan_a == plan_b
    assert files_a == files_b
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", files_a, shallow=False)
    assert not mismatch and not errors

    plan_c, files_c = _build(workload, 8, tmp_path / "c")
    assert plan_c != plan_a
    shared = sorted(set(files_a) & set(files_c))
    _, differ, _ = filecmp.cmpfiles(tmp_path / "a", tmp_path / "c", shared, shallow=False)
    assert differ, "a different seed must change some input file"


def _bindings() -> dict:
    """Every attribute of every infoflow module, and of every class the tracer wraps."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "infoflow" or name.startswith("infoflow."):
            found.update({(name, k): v for k, v in vars(mod).items()})
    for t in tracer_mod.TARGETS:
        if "." in t.attr:
            cls_name, meth = t.attr.split(".")
            cls = getattr(sys.modules[f"infoflow.{t.module}"], cls_name)
            found[(cls.__qualname__, meth)] = cls.__dict__[meth]
    return found


def _jobs(tmp: Path) -> list[list[str]]:
    swapped = json.loads((DATA / "twins.json").read_text())
    swapped["entities"][0]["data"].reverse()
    (tmp / "swapped.json").write_text(json.dumps(swapped))
    return [
        ["sweep", "--cases", "20", "--out", str(tmp / "sweep.json")],
        ["verify-bound", "--rr", "k=3", "eps=0.5", "--out", str(tmp / "rr.json")],
        ["compose", "rr:k=2,eps=1", "rr:k=2,eps=0.5", "--out", str(tmp / "compose.json")],
        ["leakage", "--scenario", "fork-collider", "--out", str(tmp / "fc.json")],
        ["leakage", "--scenario", "ballot", "--n", "30", "--out", str(tmp / "ballot.json")],
        ["simulate", "--scenario", str(DATA / "twins.json"), "--out", str(tmp / "twins")],
        ["simulate", "--scenario", str(tmp / "swapped.json"), "--out", str(tmp / "swapped")],
        ["anon", str(DATA / "anon_release.csv"), "--dp", "eps=1", "--sensitive", "diagnosis",
         "--release-out", str(tmp / "released.csv"), "--out", str(tmp / "dp.json")],
    ]


@pytest.fixture()
def traced(tmp_path):
    """A tracer that ran a few jobs, with the exit codes the jobs returned."""
    before = _bindings()
    t = tracer_mod.Tracer()
    t.install()
    try:
        assert infoflow.causal.mi_bits is not before[("infoflow.causal", "mi_bits")]
        assert infoflow.channels.scan_log_ratio is not before[("infoflow.channels", "scan_log_ratio")]
        codes = []
        for index, argv in enumerate(_jobs(tmp_path)):
            t.start_job(index)
            codes.append(infoflow.cli.main(argv))
    finally:
        t.uninstall()
    return t, codes, before


def test_tracer_restores_every_binding(traced):
    _, codes, before = traced
    assert codes == [0, 0, 0, 0, 3, 0, 2, 0]
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed


def test_child_spans_stay_inside_their_parent(traced):
    t, _, _ = traced
    spans = t.spans
    assert spans
    for span in spans:
        assert span[tracer_mod.START] <= span[tracer_mod.END]
        if span[tracer_mod.PARENT] >= 0:
            parent = spans[span[tracer_mod.PARENT]]
            assert parent[tracer_mod.START] <= span[tracer_mod.START]
            assert span[tracer_mod.END] <= parent[tracer_mod.END]
            assert parent[tracer_mod.JOB] == span[tracer_mod.JOB]


def test_self_times_sum_to_job_time(traced):
    t, codes, _ = traced
    own = t.self_ns()
    assert min(own) >= 0
    for job in range(len(codes)):
        roots = [s for s in t.spans if s[tracer_mod.JOB] == job and s[tracer_mod.PARENT] < 0]
        assert len(roots) == 1  # the cli.main call
        root = roots[0]
        total = sum(o for s, o in zip(t.spans, own) if s[tracer_mod.JOB] == job)
        assert total == root[tracer_mod.END] - root[tracer_mod.START]


def test_layer_counters(traced):
    t, _, _ = traced
    m = t.metrics()
    assert set(m) == set(tracer_mod.metric_names())
    assert m["channels.cases"] == 20 + 1 + 1 + 1  # sweep cases, verify, compose, dp release
    assert m["causal.capacity_refusals"] == 1  # ballot with 30 voters
    assert m["causal.errors"] == 2  # the refusal and the conditional_mi defect
    assert m["cli.errors"] == 0
    assert m["kernels.mi_bits_calls"] > 0
    assert m["kernels.scan_calls"] == 20 + 1 + 2 + 1  # compose also reports the product's eps
    assert 0 < m["causal.cmi_useful_ratio"] <= 1


@pytest.mark.parametrize(
    "jobs, percentile, beyond",
    [(215, 95.0, 10), (40, 75.0, 10), (39, 50.0, 19), (10, 50.0, 5)],
)
def test_tail_is_highest_percentile_with_ten_jobs_beyond(jobs, percentile, beyond):
    latencies = [float(i) for i in range(1, jobs + 1)]
    value, p, n = run.tail(latencies, jobs)
    assert (p, n) == (percentile, beyond)
    assert value == run.percentile(latencies, p)


def test_latencies_are_scaled_by_the_calibration_around_each_job():
    ref = calibrate.REFERENCE_NS["python"]
    slow, fast = [2 * ref] * calibrate.SAMPLES, [ref] * calibrate.SAMPLES
    p = {"latency_ns": [1000, 1000, 1000], "calibration_ns": [slow, slow, fast, fast]}
    # the middle job sits between a slow and a fast point: the median of the six samples
    assert run.normalized_ns(p, "python") == [500.0, 1000 * ref / (1.5 * ref), 1000.0]
    assert run.batch_wall_s([[1e9, 3e9], [2e9, 1e9], [3e9, 2e9]]) == 4.0


@pytest.mark.parametrize(
    "ref_exit, got_exit, flagged",
    [(0, 0, False), (2, 0, False), (2, 2, False), (0, 2, True), (3, 2, True), (0, "ValueError: boom", True)],
)
def test_reference_flags_newly_refused_jobs(ref_exit, got_exit, flagged):
    ref = {"exit": ref_exit, "reports": {}, "logs": {}}
    got = {"exit": got_exit, "reports": {}, "logs": {}}
    assert (check.compare(ref, got) is not None) == flagged


def _worker_result(code) -> dict:
    return {"python": "3", "numpy": "2", "backend": "numpy", "peak_rss_kb": 1024, "layers": {},
            "traced_passes": [],
            "passes": [{"exit": [code], "fingerprints": [{}], "latency_ns": [10**6], "wall_ns": 10**6,
                        "calibration_ns": [[250_000] * 3, [270_000] * 3]}]}


def test_uncaught_exception_fails_the_run_on_any_seed(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    job = {"name": "j", "argv": [], "reports": [], "logs": [], "check": {"kind": "sweep"}}
    result = run.evaluate(ROOT, bench, "sweep", 5, False, [job], "{}", _worker_result("ValueError: boom"),
                          tmp_path, [(0.1, 0.1)], False)
    assert result["problems"] and not result["summary"]["correct"]
    assert result["summary"]["failed"] == 1


def test_compare_refuses_runs_that_failed_their_checks(tmp_path, capsys):
    stamp = {"backend": "numpy", "python": "3", "numpy": "2", "nproc": 2, "cpu_model": "x"}
    for side, problems in (("base", []), ("new", ["j: wrong output"])):
        (tmp_path / side).mkdir()
        doc = {"workload": "sweep", "seed": 1, "trace": 0, "stamp": stamp, "problems": problems,
               "end_to_end": {"wall_s": 1.0}}
        (tmp_path / side / "sweep.json").write_text(json.dumps(doc))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 2
    assert "failed their checks" in capsys.readouterr().err
