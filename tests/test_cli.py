import contextlib
import io
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import infoflow
from infoflow.cli import _emit, main
from infoflow.society import write_events_jsonl

LN3 = math.log(3)
GOLDEN = Path(__file__).parent / "golden"


def data_path(name: str) -> str:
    return str(resources.files("infoflow.data").joinpath(name))


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr().out if capsys else None
    return code, out


class TestVerifyBound:
    def test_rr_uniform_holds(self, capsys):
        code, out = run_cli(
            "verify-bound", "--rr", "k=2", f"eps={LN3}", "--prior", "uniform", capsys=capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["holds"] is True
        assert doc["mi_sh"] == pytest.approx(0.188722, abs=1e-6)

    def test_matches_golden(self, capsys):
        _, out = run_cli(
            "verify-bound", "--rr", "k=2", f"eps={LN3}", "--prior", "uniform", capsys=capsys
        )
        assert json.loads(out) == json.loads((GOLDEN / "verify_bound_rr.json").read_text())

    def test_constant_channel_file(self, tmp_path, capsys):
        chan = {"inputs": ["a", "b"], "outputs": ["y"], "rows": [[1.0], [1.0]]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(chan))
        code, out = run_cli("verify-bound", "--channel", str(path), capsys=capsys)
        assert code == 0
        assert json.loads(out)["mi_sh"] == pytest.approx(0.0, abs=1e-12)

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run_cli("verify-bound", "--channel", str(path), capsys=capsys)
        assert code == 2

    def test_requires_exactly_one_source(self, capsys):
        code, _ = run_cli("verify-bound", capsys=capsys)
        assert code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify-bound", "--rr", "k=2", "eps=1.0", "--frobnicate"])

    def test_csv_format(self, capsys):
        code, out = run_cli(
            "verify-bound", "--rr", "k=2", "eps=1.0", "--format", "csv", capsys=capsys
        )
        assert code == 0
        assert out.splitlines()[0] == "key,value"


class TestSweep:
    def test_small_sweep_passes(self, capsys):
        code, out = run_cli("sweep", "--cases", "50", "--seed", "4", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == 0 and doc["cases"] == 50


class TestLeakage:
    def test_fork_collider_fixture_has_eight_rows(self, capsys):
        code, out = run_cli("leakage", "--net", data_path("fork_collider.json"), "--message", "M", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["profile"]) == 8
        mis = [r["mi_sh"] for r in doc["profile"]]
        assert mis == sorted(mis, reverse=True)

    def test_fork_collider_scenario_matches_golden(self, capsys):
        _, out = run_cli("leakage", "--scenario", "fork-collider", capsys=capsys)
        assert json.loads(out) == json.loads((GOLDEN / "leakage_fork_collider.json").read_text())

    def test_disconnected_node_reports_zero(self, tmp_path, capsys):
        net = {
            "nodes": [
                {"name": "X", "states": ["0", "1"], "parents": [], "cpt": [0.5, 0.5]},
                {
                    "name": "M",
                    "states": ["0", "1"],
                    "parents": ["X"],
                    "cpt": {"0": [1.0, 0.0], "1": [0.0, 1.0]},
                },
                {"name": "H", "states": ["0", "1"], "parents": [], "cpt": [0.4, 0.6]},
            ]
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(net))
        code, out = run_cli("leakage", "--net", str(path), "--message", "M", capsys=capsys)
        assert code == 0
        rows = {r["node"]: r["mi_sh"] for r in json.loads(out)["profile"]}
        assert rows["H"] == pytest.approx(0.0, abs=1e-9)

    def test_ballot_scenario_value(self, capsys):
        code, out = run_cli("leakage", "--scenario", "ballot", "--n", "3", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["i_tally_v1_sh"] == pytest.approx(0.311278, abs=1e-6)

    def test_capacity_exits_3(self, tmp_path, capsys):
        nodes = [
            {"name": f"R{i}", "states": ["0", "1"], "parents": [], "cpt": [0.5, 0.5]}
            for i in range(23)
        ]
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"nodes": nodes}))
        code, _ = run_cli("leakage", "--net", str(path), "--message", "R0", capsys=capsys)
        assert code == 3

    def test_emit_net_round_trips(self, tmp_path, capsys):
        out_net = tmp_path / "emitted.json"
        code, _ = run_cli(
            "leakage", "--scenario", "twins", "--emit-net", str(out_net), capsys=capsys
        )
        assert code == 0
        doc = json.loads(out_net.read_text())
        assert [n["name"] for n in doc["nodes"]] == ["Z", "S1", "S2"]


class TestSimulate:
    def test_twins_log_contains_induced_context(self, capsys):
        code, out = run_cli("simulate", "--scenario", data_path("twins.json"), capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        induced = [r for r in doc["events"] if r["record"] == "induced-context"]
        assert induced and all(r["context"]["sender"] == "twin2" for r in induced)

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        for d in ("a", "b"):
            code, _ = run_cli(
                "simulate",
                "--scenario",
                data_path("twins.json"),
                "--out",
                str(tmp_path / d),
                capsys=capsys,
            )
            assert code == 0
        assert (tmp_path / "a" / "events.jsonl").read_bytes() == (
            tmp_path / "b" / "events.jsonl"
        ).read_bytes()
        assert (tmp_path / "a" / "ledger.json").read_bytes() == (
            tmp_path / "b" / "ledger.json"
        ).read_bytes()

    def test_matches_golden_files(self, tmp_path, capsys):
        run_cli("simulate", "--scenario", data_path("twins.json"), "--out", str(tmp_path), capsys=capsys)
        assert (tmp_path / "events.jsonl").read_text() == (GOLDEN / "twins_events.jsonl").read_text()
        assert (tmp_path / "ledger.json").read_text() == (GOLDEN / "twins_ledger.json").read_text()

    def test_csv_output(self, tmp_path, capsys):
        code, _ = run_cli(
            "simulate",
            "--scenario",
            data_path("twins.json"),
            "--out",
            str(tmp_path),
            "--format",
            "csv",
            capsys=capsys,
        )
        assert code == 0
        header = (tmp_path / "events.csv").read_text().splitlines()[0]
        assert header.startswith("record,id,t,kind")

    def test_zero_probability_scenario_is_empty(self, tmp_path, capsys):
        cfg = {
            "seed": 1,
            "ticks": 5,
            "entities": [
                {
                    "id": "a",
                    "data": [
                        {"datum": "d", "value": "v", "owner": "a", "governance": "conjunct"}
                    ],
                },
                {"id": "b", "data": []},
            ],
            "logistic": {"alpha": 0.0, "beta": 0.0, "gamma": 700.0},
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(cfg))
        code, out = run_cli("simulate", "--scenario", str(path), capsys=capsys)
        assert code == 0
        assert json.loads(out)["events"] == []

    def test_negative_budget_exits_2(self, tmp_path, capsys):
        cfg = json.loads(Path(data_path("twins.json")).read_text())
        cfg["budgets"] = {"gender": -2.0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, _ = run_cli("simulate", "--scenario", str(path), capsys=capsys)
        assert code == 2


class TestAnon:
    def test_fixture_attack_matches_golden(self, capsys):
        code, out = run_cli(
            "anon", data_path("anon_release.csv"), data_path("anon_aux.csv"), capsys=capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == json.loads((GOLDEN / "anon_attack.json").read_text())
        assert doc["homogeneity_rate"] == 1.0 and doc["k_achieved"] == 2

    def test_dp_release_bound(self, tmp_path, capsys):
        code, out = run_cli(
            "anon",
            data_path("anon_release.csv"),
            "--dp",
            str(LN3),
            "--sensitive",
            "diagnosis",
            "--release-out",
            str(tmp_path / "released.csv"),
            capsys=capsys,
        )
        assert code == 0
        assert json.loads(out)["bound_sh"] == pytest.approx(math.log2(3), abs=1e-9)
        assert (tmp_path / "released.csv").exists()
        assert (tmp_path / "released.csv.roles.json").exists()

    def test_disjoint_aux(self, tmp_path, capsys):
        (tmp_path / "aux.csv").write_text("zip,age\n999,90-99\n")
        (tmp_path / "aux.csv.roles.json").write_text(
            json.dumps({"roles": {"zip": "quasi-identifier", "age": "quasi-identifier"}})
        )
        code, out = run_cli(
            "anon", data_path("anon_release.csv"), str(tmp_path / "aux.csv"), capsys=capsys
        )
        assert code == 0
        assert json.loads(out)["reid_rate"] == 0.0

    def test_dp_accepts_eps_prefix(self, capsys):
        code, out = run_cli(
            "anon",
            data_path("anon_release.csv"),
            "--dp",
            f"eps={LN3}",
            "--sensitive",
            "diagnosis",
            capsys=capsys,
        )
        assert code == 0
        assert json.loads(out)["bound_sh"] == pytest.approx(math.log2(3), abs=1e-9)

    def test_missing_sidecar_exits_2(self, tmp_path, capsys):
        (tmp_path / "t.csv").write_text("a\n1\n")
        code, _ = run_cli("anon", str(tmp_path / "t.csv"), "--dp", "1.0", "--sensitive", "a", capsys=capsys)
        assert code == 2

    def test_aux_and_dp_mutually_exclusive(self, capsys):
        code, _ = run_cli(
            "anon",
            data_path("anon_release.csv"),
            data_path("anon_aux.csv"),
            "--dp",
            "1.0",
            capsys=capsys,
        )
        assert code == 2


class TestCompose:
    def test_two_rr_specs(self, capsys):
        spec = f"rr:k=2,eps={LN3}"
        code, out = run_cli("compose", spec, spec, capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["eps_report"]["eps"] == pytest.approx(2 * LN3, abs=1e-9)
        assert doc["certificate"]["holds"] is True

    def test_channel_files(self, tmp_path, capsys):
        chan = {"inputs": ["0", "1"], "outputs": ["0", "1"], "rows": [[0.75, 0.25], [0.25, 0.75]]}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(chan))
        code, out = run_cli("compose", str(p), str(p), capsys=capsys)
        assert code == 0
        assert len(json.loads(out)["channel"]["outputs"]) == 4


TWINS = json.loads(Path(data_path("twins.json")).read_text())


def _twins_with(**changes) -> str:
    return json.dumps({**TWINS, **changes})


def _write(tmp_path, name: str, text: str) -> str:
    (tmp_path / name).write_text(text)
    return str(tmp_path / name)


# (files to write, argv in which a written file's name stands for its path)
MALFORMED = {
    "channel-null-cell": (
        {"c.json": json.dumps({"inputs": ["a", "b"], "outputs": ["x", "y"], "rows": [[None, 0.5], [0.5, 0.5]]})},
        ["verify-bound", "--channel", "c.json"],
    ),
    "prior-null-cell": (
        {"p.json": json.dumps({"outcomes": ["0", "1"], "probs": [None, 0.5]})},
        ["verify-bound", "--rr", "k=2", "eps=1", "--prior", "p.json"],
    ),
    "cpt-null-cell": (
        {"n.json": json.dumps({"nodes": [
            {"name": "X", "states": ["0", "1"], "parents": [], "cpt": [None, 0.5]},
            {"name": "M", "states": ["0", "1"], "parents": ["X"], "cpt": {"0": [1, 0], "1": [0, 1]}},
        ]})},
        ["leakage", "--net", "n.json", "--message", "M"],
    ),
    "nodes-not-a-list": ({"n.json": '{"nodes": 5}'}, ["leakage", "--net", "n.json", "--message", "M"]),
    "entities-not-a-list": ({"s.json": '{"entities": {"a": 1}}'}, ["simulate", "--scenario", "s.json"]),
    "channel-is-a-list": ({"c.json": "[[0.5, 0.5]]"}, ["verify-bound", "--channel", "c.json"]),
    "roles-not-a-mapping": (
        {"r.json": '{"roles": 5}'},
        ["anon", data_path("anon_release.csv"), "--dp", "1", "--sensitive", "diagnosis", "--roles", "r.json"],
    ),
    # ownership [1] is refused as "unknown node 1"; a list that names a node got past that check
    "ownership-not-a-mapping": (
        {"s.json": _twins_with(attribution={**TWINS["attribution"], "ownership": ["S2"]})},
        ["simulate", "--scenario", "s.json"],
    ),
    "nan-literal": (
        {"c.json": '{"inputs": ["0", "1"], "outputs": ["x", "y"], "rows": [[NaN, 0.5], [0.5, 0.5]]}'},
        ["compose", "c.json", "rr:k=2,eps=1"],
    ),
    "nan-logistic-weight": (
        {"s.json": _twins_with(logistic={"alpha": math.nan})},
        ["simulate", "--scenario", "s.json"],
    ),
    "number-beyond-float": ({"s.json": _twins_with(seed=0).replace('"seed": 0', '"seed": 1e400')},
                            ["simulate", "--scenario", "s.json"]),
    "csv-without-header": (
        {"t.csv": "", "t.csv.roles.json": '{"roles": {}}'},
        ["anon", "t.csv", "--dp", "1", "--sensitive", "a"],
    ),
    "csv-field-beyond-limit": (
        {"t.csv": "a\n" + "x" * 200_000 + "\n", "t.csv.roles.json": '{"roles": {"a": "sensitive"}}'},
        ["anon", "t.csv", "--dp", "1", "--sensitive", "a"],
    ),
    "sweep-without-cases": ({}, ["sweep", "--cases", "0"]),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_2_with_one_error_line(self, case, tmp_path, capsys):
        files, argv = MALFORMED[case]
        paths = {name: _write(tmp_path, name, text) for name, text in files.items()}
        code = main([paths.get(arg, arg) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert captured.out == ""  # nothing is reported for a refused input

    def test_error_names_the_file(self, tmp_path, capsys):
        path = _write(tmp_path, "net.json", '{"nodes": 5}')
        assert main(["leakage", "--net", path, "--message", "M"]) == 2
        assert path in capsys.readouterr().err


# Small JSON documents over the keys the loaders read, so that fuzzing gets
# past the top level of each format.
KEYS = ("inputs", "outputs", "rows", "outcomes", "probs", "nodes", "name", "states", "parents", "cpt",
        "entities", "id", "data", "datum", "owner", "governance", "value", "trust", "incentives",
        "logistic", "alpha", "budgets", "implicit_channels", "subject", "observer", "p", "attribution",
        "net", "ownership", "message_nodes", "roles", "zip", "age", "sex", "diagnosis", "ticks", "M", "0", "1")
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["0", "1", "M", "a", "b", "conjunct", "quasi-identifier", "sensitive", ""])
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=5),
    max_leaves=16,
)
FUZZ_FILES = ("channel.json", "prior.json", "net.json", "scenario.json", "roles.json")


class TestFuzzedDocuments:
    @given(docs=st.tuples(*[DOCUMENTS] * len(FUZZ_FILES)))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_document_exits_0_2_or_3(self, docs, tmp_path):
        paths = {name: _write(tmp_path, name, json.dumps(doc)) for name, doc in zip(FUZZ_FILES, docs)}
        out = str(tmp_path / "out")
        runs = [
            ["verify-bound", "--channel", paths["channel.json"], "--prior", paths["prior.json"]],
            ["compose", paths["channel.json"], "rr:k=2,eps=1", "--prior", paths["prior.json"]],
            ["leakage", "--net", paths["net.json"], "--message", "M"],
            ["simulate", "--scenario", paths["scenario.json"], "--out", out],
            ["anon", data_path("anon_release.csv"), "--dp", "1", "--sensitive", "diagnosis",
             "--roles", paths["roles.json"]],
        ]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            assert code in (0, 2, 3), (argv, err.getvalue())
            assert "Traceback" not in err.getvalue()


class TestOptions:
    @pytest.mark.parametrize("sub", ["verify-bound", "sweep", "leakage", "simulate", "anon", "compose"])
    def test_help_lists_only_options_that_are_read(self, sub, capsys):
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        text = capsys.readouterr().out
        assert "--tolerance" not in text
        assert ("--seed" in text) == (sub in ("sweep", "leakage", "anon"))

    def test_seed_is_refused_where_nothing_is_random(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", data_path("twins.json"), "--seed", "1"])
        assert exc.value.code == 2

    def test_fork_collider_seed_zero_is_seed_zero(self, capsys):
        _, default = run_cli("leakage", "--scenario", "fork-collider", capsys=capsys)
        _, zero = run_cli("leakage", "--scenario", "fork-collider", "--seed", "0", capsys=capsys)
        _, explicit = run_cli("leakage", "--scenario", "fork-collider", "--seed", "42", capsys=capsys)
        assert default == explicit != zero


class TestStrictOutput:
    def test_non_finite_report_leaves_no_file(self, tmp_path):
        out = tmp_path / "report.json"
        with pytest.raises(ValueError):
            _emit({"x": math.inf}, "json", out)
        assert not out.exists()

    def test_event_log_refuses_nan(self):
        with pytest.raises(ValueError):
            write_events_jsonl([{"x": math.nan}], io.StringIO())


class TestConsoleEntry:
    def test_module_invocation(self):
        # The child must import the same infoflow as this process, installed
        # or not, so put the package's source root first on its path.
        src_root = str(Path(infoflow.__file__).resolve().parents[1])
        inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src_root, *inherited])}
        out = subprocess.run(
            [sys.executable, "-m", "infoflow", "verify-bound", "--rr", "k=2", "eps=1.0"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["holds"] is True
