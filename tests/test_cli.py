import contextlib
import copy
import csv
import io
import json
import logging
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import infoflow
from infoflow import causal, cli, randomized_response, society
from infoflow.cli import _emit, main
from infoflow.society import write_events_jsonl, write_ledger_json
from helpers import joint_cells, mi_cells, rr_release_oracle

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

    def test_point_mass_prior_gives_exactly_zero(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"outcomes": ["0", "1"], "probs": [1, 0]}))
        code, out = run_cli("verify-bound", "--rr", "k=2", "eps=1", "--prior", str(path), capsys=capsys)
        assert code == 0
        assert json.loads(out)["mi_sh"] == 0.0

    def test_channel_and_prior_accepted_alone_are_accepted_together(self, tmp_path, capsys):
        # each table sums to 1 + 9e-10, within 1e-9; their product mass sums to 1 + 1.8e-9
        rows = [[0.5000000009, 0.5], [0.2000000009, 0.8]]
        probs = [0.5000000009, 0.5]
        chan = _write(tmp_path, "c.json", json.dumps({"inputs": ["a", "b"], "outputs": ["y", "z"], "rows": rows}))
        prior = _write(tmp_path, "p.json", json.dumps({"outcomes": ["a", "b"], "probs": probs}))
        code, out = run_cli("verify-bound", "--channel", chan, "--prior", prior, capsys=capsys)
        assert code == 0
        assert json.loads(out)["mi_sh"] == pytest.approx(mi_cells(joint_cells(probs, rows)), abs=1e-12)

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


    @pytest.mark.parametrize(
        ("argv", "size"),
        [
            (["verify-bound", "--rr", "k=100000", "eps=1"], "randomized response with k=100000 has 10000000000 cells"),
            (["compose", "rr:k=162,eps=1", "rr:k=162,eps=0.5"],
             "the product of a 162x162 and a 162x162 channel has 4251528 cells"),
        ],
    )
    def test_matrix_beyond_the_cell_cap_exits_3_before_it_is_built(self, argv, size, capsys):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert capsys.readouterr().err == f"error: {size}, exceeding the cap of {2**22}\n"
        assert peak < 2**20  # the refused matrix would take 32 MB or more


class TestSweep:
    def test_capacity_exits_3_naming_size_and_cap(self, capsys):
        # refused before the first case is drawn
        code = main(["sweep", "--cases", str(10**12)])
        assert code == 3
        assert capsys.readouterr().err == f"error: a sweep of {10**12} cases, exceeding the cap of {2**20}\n"

    def test_small_sweep_passes(self, capsys):
        code, out = run_cli("sweep", "--cases", "50", "--seed", "4", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == 0 and doc["cases"] == 50

    def test_debug_logging_leaves_the_report_unchanged(self, caplog, capsys):
        def report(out):
            doc = json.loads(out)
            del doc["seconds"]  # the sweep's wall time
            return doc

        _, plain = run_cli("sweep", "--cases", "30", "--seed", "5", capsys=capsys)
        with caplog.at_level(logging.DEBUG, logger="infoflow.channels"):
            _, logged = run_cli("sweep", "--cases", "30", "--seed", "5", capsys=capsys)
        assert report(logged) == report(plain)
        [message] = [r.getMessage() for r in caplog.records if r.name == "infoflow.channels"]
        assert message.startswith("bound_sweep: 30 cases in ") and message.endswith(" cases/s")


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

    def test_debug_logging_leaves_the_report_unchanged(self, caplog, capsys):
        argv = ("leakage", "--net", data_path("fork_collider.json"), "--message", "M")
        _, plain = run_cli(*argv, capsys=capsys)
        with caplog.at_level(logging.DEBUG, logger="infoflow.causal"):
            _, logged = run_cli(*argv, capsys=capsys)
        assert logged == plain
        [built, profile] = [r.getMessage() for r in caplog.records if r.name == "infoflow.causal"]
        assert re.fullmatch(r"joint: 512 states, \d+ multiply calls in \d+\.\d{3} s", built)
        assert profile.startswith("leakage_profile: 512 joint states, 9 marginals in ") and profile.endswith(" s")

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


# a scenario in which nothing fires
SILENT = {
    "seed": 1,
    "ticks": 5,
    "entities": [
        {"id": "a", "data": [{"datum": "d", "value": "v", "owner": "a", "governance": "conjunct"}]},
        {"id": "b", "data": []},
    ],
    "logistic": {"alpha": 0.0, "beta": 0.0, "gamma": 700.0},
}


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

    def test_csv_rows_of_each_kind(self, tmp_path):
        # a zygosity budget below one release stops that flow; the gender flow still induces one about S2
        path = _write(tmp_path, "s.json", _twins_with(budgets={"zygosity": 0.5}))
        assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "out"), "--format", "csv"]) == 0
        assert (tmp_path / "out" / "events.csv").read_text().splitlines() == [
            "record,id,t,kind,sender,receiver,datum,selective_sh,logons,metrons,context_id,attempted_sh,headroom_sh",
            "flow,x:0:twin1>receiver:gender,0,explicit,twin1,receiver,gender,1.0,2,1,c:0:twin1>receiver,,",
            "budget-stop,,0,,twin1,receiver,zygosity,,,,,1.0,0.5",
            "induced-flow,x:0:twin1>receiver:gender~twin2:S2,0,implicit,twin2,receiver,S2,0.18872187554086717,2,1,"
            "x:0:twin1>receiver:gender~twin2,,",
        ]

    def test_a_datum_sent_twice_in_a_context_induces_nothing_the_second_time(self, tmp_path, capsys):
        # at two ticks and window 2, one context carries gender, zygosity, then gender again
        path = _write(tmp_path, "s.json", _twins_with(ticks=2, window=2))
        code, out = run_cli("simulate", "--scenario", path, capsys=capsys)
        assert code == 0
        records = json.loads(out)["events"]
        flows = [r["id"] for r in records if r["record"] == "flow"]
        assert flows == ["x:0:twin1>receiver:gender", "x:0:twin1>receiver:zygosity", "x:1:twin1>receiver:gender"]
        induced = [r["context"]["id"] for r in records if r["record"] == "induced-context"]
        assert induced == ["x:0:twin1>receiver:gender~twin2", "x:0:twin1>receiver:zygosity~twin2"]

    def test_a_leaked_node_already_in_the_conditioning_is_still_refused(self, tmp_path, capsys):
        # zygosity first, then gender: Z is both conditioned on and measured, ROADMAP item 1's open refusal
        first = TWINS["entities"][0]
        swapped = {**first, "data": first["data"][::-1]}
        path = _write(tmp_path, "s.json", _twins_with(entities=[swapped, *TWINS["entities"][1:]]))
        assert main(["simulate", "--scenario", path]) == 2
        assert capsys.readouterr().err == "error: scenario attribution: duplicate nodes in marginal: 'Z'\n"

    def test_run_beyond_the_draw_cap_exits_3_naming_size_and_cap(self, tmp_path, capsys):
        # refused when the simulation is built, before the first tick
        doc = json.loads(Path(data_path("twins.json")).read_text())
        doc["ticks"] = 10**20
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        code = main(["simulate", "--scenario", str(path)])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1
        assert err[0].startswith(f"error: {10**20} ticks of ")
        assert err[0].endswith(f"exceeding the cap of {2**24}")

    def test_zero_probability_scenario_is_empty(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(SILENT))
        code, out = run_cli("simulate", "--scenario", str(path), capsys=capsys)
        assert code == 0
        assert json.loads(out)["events"] == []

    def test_csv_needs_out(self, monkeypatch, capsys):
        def refuse(path):
            raise AssertionError("the scenario was read")

        monkeypatch.setattr(society, "load_scenario", refuse)
        assert main(["simulate", "--scenario", data_path("twins.json"), "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")

    def test_empty_ledger_is_an_empty_csv_file(self, tmp_path):
        path = _write(tmp_path, "s.json", json.dumps(SILENT))
        assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "out"), "--format", "csv"]) == 0
        assert (tmp_path / "out" / "ledger.csv").read_text() == ""
        assert (tmp_path / "out" / "events.csv").read_text().splitlines() == [",".join(society._CSV_FIELDS)]

    def test_net_path_is_read_from_the_scenario_directory(self, tmp_path, monkeypatch, capsys):
        _, inline = run_cli("simulate", "--scenario", data_path("twins.json"), capsys=capsys)
        (tmp_path / "scenario").mkdir()
        _write(tmp_path / "scenario", "net.json", json.dumps(TWINS["attribution"]["net"]))
        _write(tmp_path / "scenario", "s.json", _twins_with(attribution={**TWINS["attribution"], "net": "net.json"}))
        monkeypatch.chdir(tmp_path)
        code, out = run_cli("simulate", "--scenario", "scenario/s.json", capsys=capsys)
        assert (code, out) == (0, inline)

    def test_negative_budget_exits_2(self, tmp_path, capsys):
        cfg = json.loads(Path(data_path("twins.json")).read_text())
        cfg["budgets"] = {"gender": -2.0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, _ = run_cli("simulate", "--scenario", str(path), capsys=capsys)
        assert code == 2

    def test_trust_by_or_in_an_outsider_is_refused(self, tmp_path, capsys):
        trust = {"twin1": {**TWINS["trust"]["twin1"], "ghost": 1.0}, "ghost": {"twin1": 1.0}}
        path = _write(tmp_path, "s.json", _twins_with(trust=trust))
        assert main(["simulate", "--scenario", path]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: unknown trusted entity 'ghost'\n")

    @pytest.mark.parametrize(
        "case",
        [
            "attribution-unknown-message-node",
            "ownership-not-a-mapping",
            "attribution-threshold-negative",
            "attribution-owner-integer",
            "attribution-unknown-owner",
            "attribution-unknown-message-datum",
            "attribution-datum-not-a-node",
            "attribution-empty",
            "attribution-typo",
        ],
    )
    def test_attribution_is_checked_before_the_run(self, case, tmp_path, monkeypatch, capsys):
        def refuse(scenario):
            raise AssertionError("a scenario with a malformed attribution block was simulated")

        monkeypatch.setattr(society, "simulate", refuse)
        files, argv = MALFORMED[case]
        paths = {name: _write(tmp_path, name, text) for name, text in files.items()}
        assert main([paths.get(arg, arg) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("error: scenario attribution: ")

    def test_an_attribution_net_beyond_the_cap_exits_3_before_the_first_tick(self, tmp_path, monkeypatch, capsys):
        def refuse(self):
            raise AssertionError("a tick was run for a scenario whose attribution net is beyond the cap")

        monkeypatch.setattr(society.Simulation, "step", refuse)
        roots = [{"name": f"R{i}", "states": ["0", "1"], "parents": [], "cpt": [0.5, 0.5]} for i in range(21)]
        net = {"nodes": [*TWINS["attribution"]["net"]["nodes"], *roots]}  # 2^3 * 2^21 states
        path = _write(tmp_path, "s.json", _twins_with(attribution={**TWINS["attribution"], "net": net}, ticks=2**20))
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", path, "--out", str(out)]) == 3
        err = f"error: state space has {2**24} configurations, exceeding the cap of {2**22}\n"
        assert capsys.readouterr() == ("", err)
        assert not out.exists()

    def test_debug_logging_leaves_the_report_unchanged(self, caplog, capsys):
        _, plain = run_cli("simulate", "--scenario", data_path("twins.json"), capsys=capsys)
        with caplog.at_level(logging.DEBUG, logger="infoflow"):
            _, logged = run_cli("simulate", "--scenario", data_path("twins.json"), capsys=capsys)
        assert logged == plain
        assert any("memo hits" in r.getMessage() for r in caplog.records)


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

    def test_dp_release_out_is_the_bytes_of_the_per_row_oracle(self, tmp_path, capsys):
        # 20k rows whose cells hold commas and quotes: the written release is what csv.writer
        # makes of the rows that one rng.choice per row draws
        n, eps, seed = 20000, 0.9, 11
        header = ["zip", "s", "note", "age"]
        sensitive = ['a,b', 'say "hi"', "plain", '"', ","]
        rows = [[f"1{i % 37:04d}", sensitive[(i * 7) % 5], f'n"{i % 3}",x', str(i % 90)] for i in range(n)]
        release = tmp_path / "t.csv"
        with open(release, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header] + rows)
        roles = {"zip": "quasi-identifier", "s": "sensitive", "note": "identifier", "age": "quasi-identifier"}
        (tmp_path / "t.csv.roles.json").write_text(json.dumps({"roles": roles}))
        out = tmp_path / "released.csv"
        argv = ["anon", str(release), "--dp", f"eps={eps}", "--sensitive", "s", "--seed", str(seed)]
        assert run_cli(*argv, "--release-out", str(out), capsys=capsys)[0] == 0
        drawn = rr_release_oracle([row[1] for row in rows], randomized_response(5, eps).rows, seed)
        expected = io.StringIO(newline="")
        released = [[row[0], value, *row[2:]] for row, value in zip(rows, drawn)]
        csv.writer(expected, lineterminator="\n").writerows([header] + released)
        assert out.read_bytes() == expected.getvalue().encode()

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

    @pytest.mark.parametrize("dp", ["eps=none", "eps=1"])
    def test_release_beyond_the_cell_cap_exits_3_before_a_channel_is_built(self, dp, tmp_path, capsys):
        (tmp_path / "t.csv").write_text("diag\n" + "".join(f"d{i}\n" for i in range(2049)))
        (tmp_path / "t.csv.roles.json").write_text(json.dumps({"roles": {"diag": "sensitive"}}))
        tracemalloc.start()
        try:
            code = main(["anon", str(tmp_path / "t.csv"), "--dp", dp, "--sensitive", "diag"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        size = f"a release channel over 2049 categories has {2049 * 2049} cells"
        assert capsys.readouterr().err == f"error: {size}, exceeding the cap of {2**22}\n"
        assert peak < 2**22  # the refused 2049x2049 matrix would take 32 MB

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

    @pytest.mark.parametrize("option, value", [("--release-out", "x.csv"), ("--seed", "1"), ("--sensitive", "diagnosis")])
    def test_release_options_refused_with_aux(self, option, value, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["anon", data_path("anon_release.csv"), data_path("anon_aux.csv"), option, value]) == 2
        assert capsys.readouterr().err == f"error: {option}: only with --dp\n"
        assert not (tmp_path / "x.csv").exists()

    def test_options_checked_before_any_table_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        assert main(["anon", missing, missing, "--seed", "1"]) == 2
        assert main(["anon", missing, "--dp", "1"]) == 2
        assert main(["anon", missing, "--dp", "1", "--sensitive", "s", "--aux-roles", missing]) == 2
        assert "missing.csv" not in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["eps=-1", "0", "inf", "nan"])
    def test_dp_eps_checked_before_the_table_is_read(self, eps, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the table was read before eps was checked")

        monkeypatch.setattr(cli, "read_table", refuse)
        assert main(["anon", data_path("anon_release.csv"), "--dp", eps, "--sensitive", "diagnosis"]) == 2
        assert capsys.readouterr().err.startswith("error: eps must be positive and finite, got ")

    def test_debug_logging_leaves_the_reports_unchanged(self, caplog, capsys):
        linkage = ["anon", data_path("anon_release.csv"), data_path("anon_aux.csv")]
        dp = ["anon", data_path("anon_release.csv"), "--dp", "1", "--sensitive", "diagnosis", "--seed", "5"]
        plain = [run_cli(*argv, capsys=capsys) for argv in (linkage, dp)]
        with caplog.at_level(logging.DEBUG, logger="infoflow.anonymity"):
            logged = [run_cli(*argv, capsys=capsys) for argv in (linkage, dp)]
        assert logged == plain
        messages = [r.getMessage() for r in caplog.records if r.name == "infoflow.anonymity"]
        assert messages == ["linkage_attack: 3 classes, 1 matched, 2 auxiliary rows", "dp_release: 6 rows, 3 categories"]


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

    def test_point_mass_prior_gives_exactly_zero(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"outcomes": ["0", "1"], "probs": [1, 0]}))
        code, out = run_cli("compose", "rr:k=2,eps=1", "rr:k=2,eps=1", "--prior", str(path), capsys=capsys)
        assert code == 0
        assert json.loads(out)["certificate"]["mi_sh"] == 0.0

    def test_product_of_accepted_channels_is_accepted_and_reads_back(self, tmp_path, capsys):
        # each row sums to 1 + 9e-10, within tolerance; the product's rows sum to about 1 + 1.8e-9
        path = _write(tmp_path, "c.json", json.dumps(
            {"inputs": ["0", "1"], "outputs": ["x", "y"], "rows": [[0.5000000009, 0.5], [0.2000000009, 0.8]]}))
        assert run_cli("verify-bound", "--channel", path, capsys=capsys)[0] == 0
        code, out = run_cli("compose", path, path, capsys=capsys)
        assert code == 0
        product = _write(tmp_path, "product.json", json.dumps(json.loads(out)["channel"]))
        assert run_cli("verify-bound", "--channel", product, capsys=capsys)[0] == 0


TWINS = json.loads(Path(data_path("twins.json")).read_text())


def _twins_with(**changes) -> str:
    return json.dumps({**TWINS, **changes})


def _write(tmp_path, name: str, text: str) -> str:
    (tmp_path / name).write_text(text)
    return str(tmp_path / name)


def _twins_datum(**changes) -> str:
    """Twins with ``changes`` applied to the first datum of its first entity."""
    first = TWINS["entities"][0]
    return _twins_with(entities=[{**first, "data": [{**first["data"][0], **changes}]}, *TWINS["entities"][1:]])


def _twins_channel(**changes) -> str:
    """Twins with one implicit channel, twin1's gender seen by the receiver, with ``changes`` applied."""
    channel = {"subject": "twin1", "observer": "receiver", "datum": "gender", "p": 0.5}
    return _twins_with(implicit_channels=[{**channel, **changes}])


def _net(*nodes) -> str:
    return json.dumps({"nodes": list(nodes)})


_X = {"name": "X", "states": ["0", "1"], "parents": [], "cpt": [0.5, 0.5]}
_M = {"name": "M", "states": ["0", "1"], "parents": ["X"], "cpt": {"0": [1, 0], "1": [0, 1]}}
_LEAKAGE = ["leakage", "--net", "n.json", "--message", "M"]

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
    # the row sum would overflow to inf, and numpy would warn on stderr
    "channel-cells-near-float-max": (
        {"c.json": json.dumps({"inputs": ["a", "b"], "outputs": ["x", "y"], "rows": [[1e308, 1e308], [0.5, 0.5]]})},
        ["verify-bound", "--channel", "c.json"],
    ),
    "roles-not-a-mapping": (
        {"r.json": '{"roles": 5}'},
        ["anon", data_path("anon_release.csv"), "--dp", "1", "--sensitive", "diagnosis", "--roles", "r.json"],
    ),
    # ownership [1] is refused as "unknown node 1"; a list that names a node got past that check
    "ownership-not-a-mapping": (
        {"s.json": _twins_with(attribution={**TWINS["attribution"], "ownership": ["S2"]})},
        ["simulate", "--scenario", "s.json"],
    ),
    "ownership-null": (
        {"s.json": _twins_with(attribution={**TWINS["attribution"], "ownership": None})},
        ["simulate", "--scenario", "s.json"],
    ),
    "attribution-unknown-message-node": (
        {"s.json": _twins_with(attribution={**TWINS["attribution"], "message_nodes": {"gender": "nope"}})},
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
    # ("a,b", "c") and ("a", "b,c") would both key the row "a,b,c"; the fourth key fills the count
    "cpt-keys-with-commas": (
        {"n.json": json.dumps({"nodes": [
            {"name": "A", "states": ["a,b", "a"], "parents": [], "cpt": [0.5, 0.5]},
            {"name": "B", "states": ["c", "b,c"], "parents": [], "cpt": [0.5, 0.5]},
            {"name": "M", "states": ["0", "1"], "parents": ["A", "B"],
             "cpt": {"a,b,c": [1, 0], "a,b,b,c": [0, 1], "a,c": [0, 1], "extra": [0.5, 0.5]}},
        ]})},
        ["leakage", "--net", "n.json", "--message", "M"],
    ),
    "logistic-typo": ({"s.json": _twins_with(logistic={"alpah": 50})}, ["simulate", "--scenario", "s.json"]),
    "datum-typo": (
        {"s.json": _twins_with(entities=[{**TWINS["entities"][0], "data": [
            {**TWINS["entities"][0]["data"][0], "domian_size": 2}]}, *TWINS["entities"][1:]])},
        ["simulate", "--scenario", "s.json"],
    ),
    "attribution-typo": (
        {"s.json": _twins_with(attribution={**TWINS["attribution"], "treshold": 0.5})},
        ["simulate", "--scenario", "s.json"],
    ),
    "attribution-threshold-not-a-number": (
        {"s.json": _twins_with(attribution={**TWINS["attribution"], "threshold": "high"})},
        ["simulate", "--scenario", "s.json"],
    ),
    "attribution-threshold-string-number": (
        {"s.json": _twins_with(attribution={**TWINS["attribution"], "threshold": "1e-3"})},
        ["simulate", "--scenario", "s.json"],
    ),
    "attribution-threshold-boolean": (
        {"s.json": _twins_with(attribution={**TWINS["attribution"], "threshold": True})},
        ["simulate", "--scenario", "s.json"],
    ),
    # a null threshold is a value of the wrong type, not an absent one
    "attribution-threshold-null": (
        {"s.json": _twins_with(attribution={**TWINS["attribution"], "threshold": None})},
        ["simulate", "--scenario", "s.json"],
    ),
    # e^eps overflows a float beyond eps = 709.78
    "rr-eps-beyond-float": ({}, ["verify-bound", "--rr", "k=2", "eps=1000"]),
    "channel-rr-eps-beyond-float": ({}, ["verify-bound", "--channel", "rr:k=2,eps=710"]),
    "compose-rr-eps-beyond-float": ({}, ["compose", "rr:k=2,eps=1000", "rr:k=2,eps=1"]),
    "mechanism-eps-beyond-float": (
        {"s.json": _twins_datum(mechanism={"kind": "randomized-response", "k": 2, "eps": 710})},
        ["simulate", "--scenario", "s.json"],
    ),
    "dp-eps-beyond-float": ({}, ["anon", data_path("anon_release.csv"), "--dp", "eps=1000", "--sensitive", "diagnosis"]),
    # tuple() would split a string into one label per character
    "channel-inputs-string": (
        {"c.json": json.dumps({"inputs": "01", "outputs": ["x", "y"], "rows": [[0.5, 0.5], [0.5, 0.5]]})},
        ["verify-bound", "--channel", "c.json"],
    ),
    "prior-outcomes-string": (
        {"p.json": json.dumps({"outcomes": "01", "probs": [0.5, 0.5]})},
        ["verify-bound", "--rr", "k=2", "eps=1", "--prior", "p.json"],
    ),
    "net-states-string": ({"n.json": _net({**_X, "states": "01"}, _M)}, _LEAKAGE),
    "net-parents-string": ({"n.json": _net(_X, {**_M, "parents": "X"})}, _LEAKAGE),
    "net-node-name-integer": ({"n.json": _net(_X, {**_M, "name": 5})}, ["leakage", "--net", "n.json", "--message", "X"]),
    # each row sums to 1 + 9e-10, within its tolerance; the 1,200-node product is not
    "net-joint-sum-beyond-tolerance": (
        {"n.json": _net(*({"name": f"N{i}", "states": ["s"], "cpt": [1 + 9e-10]} for i in range(1200)))},
        ["leakage", "--net", "n.json", "--message", "N0"],
    ),
    "root-cpt-object": ({"n.json": _net({**_X, "cpt": {"": [0.5, 0.5]}}, _M)}, _LEAKAGE),
    "parent-declared-after-child": ({"n.json": _net(_M, _X)}, _LEAKAGE),
    "cpt-wrong-key": ({"n.json": _net(_X, {**_M, "cpt": {"0": [1, 0], "2": [0, 1]}})}, _LEAKAGE),
    "duplicate-node-name": ({"n.json": _net(_X, _X, _M)}, _LEAKAGE),
    "duplicate-parents": (
        {"n.json": _net(_X, {**_M, "parents": ["X", "X"], "cpt": dict.fromkeys(["0,0", "0,1", "1,0", "1,1"], [1, 0])})},
        _LEAKAGE,
    ),
    "channel-rows-mismatch-labels": (
        {"c.json": json.dumps({"inputs": ["a", "b"], "outputs": ["x", "y"], "rows": [[0.5, 0.5]]})},
        ["verify-bound", "--channel", "c.json"],
    ),
    "channel-without-labels": (
        {"c.json": json.dumps({"inputs": [], "outputs": ["x"], "rows": []})},
        ["verify-bound", "--channel", "c.json"],
    ),
    "leakage-net-and-scenario": ({}, ["leakage", "--net", data_path("fork_collider.json"), "--scenario", "twins"]),
    "leakage-without-net-or-scenario": ({}, ["leakage"]),
    "leakage-unknown-scenario": ({}, ["leakage", "--scenario", "triplets"]),
    "leakage-net-without-message": ({}, ["leakage", "--net", data_path("fork_collider.json")]),
    # each of these options is read by one built-in scenario only
    "leakage-q-without-twins": ({}, ["leakage", "--net", data_path("fork_collider.json"), "--message", "M",
                                     "--q", "0.3"]),
    "leakage-n-without-ballot": ({}, ["leakage", "--scenario", "twins", "--n", "9"]),
    "leakage-seed-without-fork-collider": ({}, ["leakage", "--scenario", "ballot", "--seed", "5"]),
    "rr-token-without-equals": ({}, ["verify-bound", "--rr", "k2", "eps=1"]),
    "rr-spec-without-eps": ({}, ["compose", "rr:k=2", "rr:k=2,eps=1"]),
    "rr-spec-without-k": ({}, ["verify-bound", "--rr", "eps=1"]),
    "rr-repeated-key": ({}, ["verify-bound", "--rr", "k=2", "eps=1", "k=3"]),
    "rr-spec-repeated-key": ({}, ["verify-bound", "--channel", "rr:k=2,eps=1,k=3"]),
    "sweep-seed-negative": ({}, ["sweep", "--cases", "1", "--seed", "-1"]),
    "fork-collider-seed-negative": ({}, ["leakage", "--scenario", "fork-collider", "--seed", "-1"]),
    "dp-seed-negative": ({}, ["anon", data_path("anon_release.csv"), "--dp", "1", "--sensitive", "diagnosis",
                              "--seed", "-1"]),
    "mechanism-kind": (
        {"s.json": _twins_datum(mechanism={"kind": "laplace", "k": 2, "eps": 1})},
        ["simulate", "--scenario", "s.json"],
    ),
    "governance-tag": ({"s.json": _twins_datum(governance="owned")}, ["simulate", "--scenario", "s.json"]),
    "domain-size-zero": ({"s.json": _twins_datum(domain_size=0)}, ["simulate", "--scenario", "s.json"]),
    "gamma-beyond-float": (
        {"s.json": _twins_with(logistic={"gamma": 0}).replace('"gamma": 0', '"gamma": 1e400')},
        ["simulate", "--scenario", "s.json"],
    ),
    "implicit-channel-to-itself": ({"s.json": _twins_channel(observer="twin1")}, ["simulate", "--scenario", "s.json"]),
    "implicit-channel-p-2": ({"s.json": _twins_channel(p=2)}, ["simulate", "--scenario", "s.json"]),
    "implicit-channel-unknown-entity": (
        {"s.json": _twins_channel(observer="nobody")},
        ["simulate", "--scenario", "s.json"],
    ),
    # each name a scenario refers to resolves: a budget or incentive for a datum nobody holds would do nothing
    "budget-unknown-datum": ({"s.json": _twins_with(budgets={"gendre": 0.0})}, ["simulate", "--scenario", "s.json"]),
    "incentive-unknown-datum": (
        {"s.json": _twins_with(incentives={"twin1": {"gendre": 1.0}})},
        ["simulate", "--scenario", "s.json"],
    ),
    "incentive-datum-not-held": (
        {"s.json": _twins_with(incentives={"twin2": {"gender": 1.0}})},
        ["simulate", "--scenario", "s.json"],
    ),
    "incentive-unknown-sender": (
        {"s.json": _twins_with(incentives={"ghost": {"gender": 1.0}})},
        ["simulate", "--scenario", "s.json"],
    ),
    "attribution-unknown-owner": (
        {"s.json": _twins_with(attribution={**TWINS["attribution"], "ownership": {"S2": "ghost"}})},
        ["simulate", "--scenario", "s.json"],
    ),
    "attribution-unknown-message-datum": (
        {"s.json": _twins_with(attribution={**TWINS["attribution"], "message_nodes": {"gendre": "S1"}})},
        ["simulate", "--scenario", "s.json"],
    ),
    # each held datum must be a node without message_nodes, though no flow fires
    "attribution-datum-not-a-node": (
        {"s.json": _twins_with(attribution={k: v for k, v in TWINS["attribution"].items() if k != "message_nodes"},
                               incentives={}, trust={})},
        ["simulate", "--scenario", "s.json"],
    ),
    "attribution-false": ({"s.json": _twins_with(attribution=False)}, ["simulate", "--scenario", "s.json"]),
    "attribution-empty": ({"s.json": _twins_with(attribution={})}, ["simulate", "--scenario", "s.json"]),
    "trust-by-outsider": (
        {"s.json": _twins_with(trust={"ghost": {"twin1": 1.0}})},
        ["simulate", "--scenario", "s.json"],
    ),
    "trust-in-outsider": (
        {"s.json": _twins_with(trust={"twin1": {"ghost": 1.0}})},
        ["simulate", "--scenario", "s.json"],
    ),
    "trust-in-itself": ({"s.json": _twins_with(trust={"twin1": {"twin1": 1.0}})}, ["simulate", "--scenario", "s.json"]),
    "duplicate-entity-ids": (
        {"s.json": _twins_with(entities=[*TWINS["entities"], TWINS["entities"][-1]])},
        ["simulate", "--scenario", "s.json"],
    ),
    "entity-id-integer": (
        {"s.json": _twins_with(entities=[*TWINS["entities"][:2], {"id": 7, "data": []}])},
        ["simulate", "--scenario", "s.json"],
    ),
    "datum-id-integer": ({"s.json": _twins_datum(datum=7)}, ["simulate", "--scenario", "s.json"]),
    "entity-id-separator": (
        {"s.json": _twins_with(entities=[*TWINS["entities"][:2], {"id": "re:ceiver", "data": []}])},
        ["simulate", "--scenario", "s.json"],
    ),
    "datum-id-separator": ({"s.json": _twins_datum(datum="gen~der")}, ["simulate", "--scenario", "s.json"]),
    "datum-owner-integer": ({"s.json": _twins_datum(owner=1)}, ["simulate", "--scenario", "s.json"]),
    # an owner names an entity of the society, as every other name a scenario refers to does
    "datum-owner-unknown": (
        {"s.json": _twins_with(entities=[
            {**TWINS["entities"][0], "data": [TWINS["entities"][0]["data"][0],
                                              {**TWINS["entities"][0]["data"][1], "owner": "gh:ost"}]},
            *TWINS["entities"][1:],
        ])},
        ["simulate", "--scenario", "s.json"],
    ),
    "datum-value-integer": ({"s.json": _twins_datum(value=5)}, ["simulate", "--scenario", "s.json"]),
    "implicit-channel-observer-integer": ({"s.json": _twins_channel(observer=7)}, ["simulate", "--scenario", "s.json"]),
    "attribution-threshold-negative": (
        {"s.json": _twins_with(attribution={**TWINS["attribution"], "threshold": -1})},
        ["simulate", "--scenario", "s.json"],
    ),
    "attribution-owner-integer": (
        {"s.json": _twins_with(attribution={**TWINS["attribution"], "ownership": {"S2": 7}})},
        ["simulate", "--scenario", "s.json"],
    ),
    "ticks-negative": ({"s.json": _twins_with(ticks=-1)}, ["simulate", "--scenario", "s.json"]),
    "ticks-fraction": ({"s.json": _twins_with(ticks=2.7)}, ["simulate", "--scenario", "s.json"]),
    "ticks-boolean": ({"s.json": _twins_with(ticks=True)}, ["simulate", "--scenario", "s.json"]),
    "ticks-string": ({"s.json": _twins_with(ticks="2")}, ["simulate", "--scenario", "s.json"]),
    "ticks-1e308": ({"s.json": _twins_with(ticks=1e308)}, ["simulate", "--scenario", "s.json"]),
    "seed-negative": ({"s.json": _twins_with(seed=-1, ticks=0)}, ["simulate", "--scenario", "s.json"]),
    "seed-fraction": ({"s.json": _twins_with(seed=2.9)}, ["simulate", "--scenario", "s.json"]),
    "window-string": ({"s.json": _twins_with(window="1")}, ["simulate", "--scenario", "s.json"]),
    "domain-size-fraction": ({"s.json": _twins_datum(domain_size=2.5)}, ["simulate", "--scenario", "s.json"]),
    "mechanism-k-fraction": (
        {"s.json": _twins_datum(mechanism={"kind": "randomized-response", "k": 2.9, "eps": 1})},
        ["simulate", "--scenario", "s.json"],
    ),
    "mechanism-eps-string": (
        {"s.json": _twins_datum(mechanism={"kind": "randomized-response", "k": 2, "eps": "1"})},
        ["simulate", "--scenario", "s.json"],
    ),
    "implicit-channel-p-string": ({"s.json": _twins_channel(p="0.5")}, ["simulate", "--scenario", "s.json"]),
    "logistic-alpha-boolean": ({"s.json": _twins_with(logistic={"alpha": True})}, ["simulate", "--scenario", "s.json"]),
    "trust-string": ({"s.json": _twins_with(trust={"twin1": {"receiver": "1"}})}, ["simulate", "--scenario", "s.json"]),
    "incentive-boolean": (
        {"s.json": _twins_with(incentives={"twin1": {"gender": True}})},
        ["simulate", "--scenario", "s.json"],
    ),
    "budget-string": ({"s.json": _twins_with(budgets={"gender": "0.5"})}, ["simulate", "--scenario", "s.json"]),
    "net-states-booleans": ({"n.json": _net({**_X, "states": [True, False]}, _M)}, _LEAKAGE),
    "channel-cells-not-numbers": (
        {"c.json": json.dumps({"inputs": ["a", "b"], "outputs": ["x", "y"], "rows": [["0.5", "0.5"], [True, False]]})},
        ["verify-bound", "--channel", "c.json"],
    ),
    "channel-output-integer": (
        {"c.json": json.dumps({"inputs": ["a", "b"], "outputs": ["x", 1], "rows": [[0.5, 0.5], [0.5, 0.5]]})},
        ["verify-bound", "--channel", "c.json"],
    ),
    "prior-outcomes-integers": (
        {"p.json": json.dumps({"outcomes": [0, 1], "probs": [0.5, 0.5]})},
        ["verify-bound", "--rr", "k=2", "eps=1", "--prior", "p.json"],
    ),
    # numpy reads [true, 0] as the integers [1, 0]
    "prior-probs-mixed-boolean": (
        {"p.json": json.dumps({"outcomes": ["0", "1"], "probs": [True, 0]})},
        ["verify-bound", "--rr", "k=2", "eps=1", "--prior", "p.json"],
    ),
    "cpt-mixed-boolean": ({"n.json": _net(_X, {**_M, "cpt": {"0": [True, 0], "1": [0, 1]}})}, _LEAKAGE),
    "prior-probs-booleans": (
        {"p.json": json.dumps({"outcomes": ["0", "1"], "probs": [True, False]})},
        ["verify-bound", "--rr", "k=2", "eps=1", "--prior", "p.json"],
    ),
    "window-zero": ({"s.json": _twins_with(window=0)}, ["simulate", "--scenario", "s.json"]),
    "csv-role-integer": (
        {"t.csv": "a\n1\n", "t.csv.roles.json": '{"roles": {"a": 5}}'},
        ["anon", "t.csv", "--dp", "1", "--sensitive", "a"],
    ),
    "csv-duplicate-column": (
        {"t.csv": "a,a\n1,2\n", "t.csv.roles.json": '{"roles": {"a": "sensitive"}}'},
        ["anon", "t.csv", "--dp", "1", "--sensitive", "a"],
    ),
    "channel-unknown-key": (
        {"c.json": json.dumps({"inputs": ["a"], "outputs": ["x"], "rows": [[1.0]], "row": [[1.0]]})},
        ["verify-bound", "--channel", "c.json"],
    ),
    "prior-unknown-key": (
        {"p.json": json.dumps({"outcomes": ["0", "1"], "probs": [0.5, 0.5], "prob": [1, 0]})},
        ["verify-bound", "--rr", "k=2", "eps=1", "--prior", "p.json"],
    ),
    "net-unknown-key": ({"n.json": json.dumps({"nodes": [_X, _M], "edges": [["X", "M"]]})}, _LEAKAGE),
    # read as a root without the key check, and reported as leaking 0.0 Sh
    "node-unknown-key": (
        {"n.json": _net(_X, {"name": "M", "states": ["0", "1"], "parent": ["X"], "cpt": [0.5, 0.5]})},
        _LEAKAGE,
    ),
    "roles-unknown-key": (
        {"t.csv": "a\nx\ny\n", "t.csv.roles.json": '{"roles": {"a": "sensitive"}, "role": {}}'},
        ["anon", "t.csv", "--dp", "1", "--sensitive", "a"],
    ),
    # a role for a column the table lacks: a misspelt column name would otherwise go unnoticed
    "roles-unknown-column": (
        {"r.json": json.dumps({"roles": {"zip": "quasi-identifier", "age": "quasi-identifier",
                                         "diagnosis": "sensitive", "diagnosys": "sensitive"}})},
        ["anon", data_path("anon_release.csv"), "--dp", "1", "--sensitive", "diagnosis", "--roles", "r.json"],
    ),
    "linkage-without-sensitive-column": (
        {"r.csv": "zip,age,diag\n1,20,a\n1,20,b\n",
         "r.csv.roles.json": json.dumps({"roles": {"zip": "quasi-identifier", "age": "quasi-identifier",
                                                   "diag": "identifier"}}),
         "a.csv": "zip,age\n1,20\n",
         "a.csv.roles.json": json.dumps({"roles": {"zip": "quasi-identifier", "age": "quasi-identifier"}})},
        ["anon", "r.csv", "a.csv"],
    ),
}


# the check a row is written to reach, where a different check would also exit 2
REFUSED_BY = {
    "ownership-null": "scenario attribution: ownership must be a mapping, got NoneType",
    "attribution-threshold-not-a-number": "attribution threshold must be a number, got 'high'",
    "attribution-threshold-string-number": "attribution threshold must be a number, got '1e-3'",
    "attribution-threshold-boolean": "attribution threshold must be a number, got True",
    "attribution-threshold-null": "attribution threshold must be a number, got None",
    "rr-eps-beyond-float": "eps 1000.0 exceeds 709.782712893384",
    "channel-rr-eps-beyond-float": "eps 710.0 exceeds 709.782712893384",
    "compose-rr-eps-beyond-float": "eps 1000.0 exceeds 709.782712893384",
    "dp-eps-beyond-float": "eps 1000.0 exceeds 709.782712893384",
    "mechanism-eps-beyond-float": "eps 710.0 exceeds 709.782712893384",
    "channel-inputs-string": "inputs must be a list, got the string '01'",
    "prior-outcomes-string": "outcomes must be a list, got the string '01'",
    "net-states-string": "states of X must be a list, got the string '01'",
    "net-parents-string": "parents of 'M' must be a list, got the string 'X'",
    "net-node-name-integer": "node name must be a string, got 5",
    "net-joint-sum-beyond-tolerance": "joint sums to 1.00000108",
    "root-cpt-object": "expects a flat cpt list",
    "parent-declared-after-child": "not declared earlier",
    "cpt-wrong-key": "exactly one row per parent combination",
    "duplicate-node-name": "duplicate node name",
    "duplicate-parents": "duplicate parents",
    "channel-rows-mismatch-labels": "channel has shape (1, 2), expected (2, 2)",
    "channel-cells-near-float-max": "channel has an entry above 1",
    "channel-without-labels": "inputs must be non-empty",
    "leakage-net-and-scenario": "exactly one of --net or --scenario",
    "leakage-without-net-or-scenario": "exactly one of --net or --scenario",
    "leakage-unknown-scenario": "unknown scenario",
    "leakage-net-without-message": "--message is required",
    "rr-token-without-equals": "expected key=value",
    "rr-spec-without-eps": "randomized response needs",
    "rr-spec-without-k": "randomized response needs",
    "rr-repeated-key": "duplicate randomized-response key: 'k'",
    "rr-spec-repeated-key": "duplicate randomized-response key: 'k'",
    "sweep-seed-negative": "seed must be >= 0, got -1",
    "fork-collider-seed-negative": "seed must be >= 0, got -1",
    "dp-seed-negative": "seed must be >= 0, got -1",
    "mechanism-kind": "unknown mechanism kind 'laplace'",
    "governance-tag": "unknown governance tag",
    "domain-size-zero": "domain_size must be >= 1",
    "gamma-beyond-float": "gamma must be finite",
    "implicit-channel-to-itself": "subject and observer must differ",
    "implicit-channel-p-2": "p must be in [0,1]",
    "implicit-channel-unknown-entity": "unknown entity",
    "budget-unknown-datum": "unknown budgeted datum 'gendre'",
    "incentive-unknown-datum": "entity 'twin1' does not hold datum 'gendre'",
    "incentive-datum-not-held": "entity 'twin2' does not hold datum 'gender'",
    "incentive-unknown-sender": "entity 'ghost' does not hold datum 'gender'",
    "attribution-unknown-owner": "scenario attribution: unknown owner 'ghost'",
    "attribution-unknown-message-datum": "scenario attribution: unknown message_nodes datum 'gendre'",
    "attribution-datum-not-a-node": "scenario attribution: unknown node 'gender'",
    "attribution-false": "attribution must be an object, got bool",
    "attribution-empty": "scenario attribution: malformed input (KeyError: 'net')",
    "trust-by-outsider": "unknown trusting entity 'ghost'",
    "trust-in-outsider": "unknown trusted entity 'ghost'",
    "trust-in-itself": "entity 'twin1' cannot trust itself",
    "leakage-q-without-twins": "error: --q only with --scenario twins",
    "leakage-n-without-ballot": "error: --n only with --scenario ballot",
    "leakage-seed-without-fork-collider": "error: --seed only with --scenario fork-collider",
    "duplicate-entity-ids": "duplicate entity ids",
    "entity-id-integer": "entity id must be a string, got 7",
    "datum-id-integer": "datum id must be a string, got 7",
    "entity-id-separator": "entity id 're:ceiver' must not contain any of '>', ':', '~'",
    "datum-id-separator": "datum id 'gen~der' must not contain any of '>', ':', '~'",
    "datum-owner-integer": "owner of datum 'gender' must be a string, got 1",
    "datum-owner-unknown": "s.json: unknown owner of datum 'zygosity' 'gh:ost'",
    "datum-value-integer": "value of datum 'gender' must be a string, got 5",
    "implicit-channel-observer-integer": "implicit channel observer must be a string, got 7",
    "attribution-threshold-negative": "attribution threshold must be finite and >= 0, got -1.0",
    "attribution-owner-integer": "owner of node 'S2' must be a string, got 7",
    "ticks-negative": "ticks must be >= 0",
    "ticks-fraction": "ticks must be an integer, got 2.7",
    "ticks-boolean": "ticks must be an integer, got True",
    "ticks-string": "ticks must be an integer, got '2'",
    "ticks-1e308": "ticks must be an integer, got 1e+308",
    "seed-negative": "seed must be >= 0",
    "seed-fraction": "seed must be an integer, got 2.9",
    "window-string": "window must be an integer, got '1'",
    "domain-size-fraction": "datum domain_size must be an integer, got 2.5",
    "mechanism-k-fraction": "mechanism k must be an integer, got 2.9",
    "mechanism-eps-string": "mechanism eps must be a number, got '1'",
    "implicit-channel-p-string": "implicit channel p must be a number, got '0.5'",
    "logistic-alpha-boolean": "logistic alpha must be a number, got True",
    "trust-string": "trust('twin1', 'receiver') must be a number, got '1'",
    "incentive-boolean": "incentive('twin1', 'gender') must be a number, got True",
    "budget-string": "budget for 'gender' must be a number, got '0.5'",
    "net-states-booleans": "states of X must be strings, got True",
    "channel-cells-not-numbers": "channel has an entry that is not a number",
    "channel-output-integer": "outputs must be strings, got 1",
    "prior-outcomes-integers": "outcomes must be strings, got 0",
    "prior-probs-booleans": "probs has an entry that is not a number",
    "prior-probs-mixed-boolean": "probs has an entry that is not a number",
    "cpt-mixed-boolean": "cpt of 'M' has an entry that is not a number",
    "csv-role-integer": "column names and roles must be strings",
    "window-zero": "window must be >= 1",
    "csv-duplicate-column": "duplicate column names",
    "attribution-typo": "unknown attribution keys: ['treshold']",
    "channel-unknown-key": "unknown channel keys: ['row']",
    "prior-unknown-key": "unknown distribution keys: ['prob']",
    "net-unknown-key": "unknown network keys: ['edges']",
    "node-unknown-key": "unknown node keys: ['parent']",
    "roles-unknown-key": "unknown roles sidecar keys: ['role']",
    "roles-unknown-column": "anon_release.csv: unknown roles sidecar column 'diagnosys'",
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
        assert REFUSED_BY.get(case, "") in lines[0]
        assert captured.out == ""  # nothing is reported for a refused input

    def test_ids_that_would_give_two_flows_one_id_are_refused(self, tmp_path, capsys):
        # a>b sending to c and a sending to b>c would both log x:0:a>b>c:d at tick 0
        def holder(entity):
            return {"id": entity, "data": [{"datum": "d", "owner": entity, "governance": "conjunct"}]}

        doc = {"entities": [holder("a>b"), holder("a"), {"id": "c"}, {"id": "b>c"}], "logistic": {"gamma": -50}}
        path = _write(tmp_path, "s.json", json.dumps(doc))
        assert main(["simulate", "--scenario", path]) == 2
        assert capsys.readouterr().err == f"error: {path}: entity id 'a>b' must not contain any of '>', ':', '~'\n"

    def test_huge_tick_count_is_refused_at_once(self, tmp_path, capsys):
        files, argv = MALFORMED["ticks-1e308"]
        paths = {name: _write(tmp_path, name, text) for name, text in files.items()}
        start = time.perf_counter()
        assert main([paths.get(arg, arg) for arg in argv]) == 2
        assert time.perf_counter() - start < 1.0

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


# Valid documents of each input type, each mutated at one or two points below.
VALID = {
    "scenario": TWINS,
    "net": causal.net_to_json_dict(causal.fork_collider_graph()),
    "channel": {"inputs": ["a", "b", "c"], "outputs": ["x", "y"], "rows": [[0.5, 0.5], [0.25, 0.75], [0.9, 0.1]]},
    "prior": {"outcomes": ["a", "b", "c"], "probs": [0.2, 0.3, 0.5]},
    "roles": json.loads(Path(data_path("anon_release.csv.roles.json")).read_text()),
}
DELETE, RENAME = object(), object()
# "ghost" is a name no document declares: an id, owner or datum that takes it refers to nothing
MUTATIONS = (None, True, False, 1e308, 10**30, "nan", "ghost", [], {}, DELETE)


def _points(doc, path=()):
    """Paths to every value inside a JSON document, the document itself excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _points(value, path + (key,))


@st.composite
def mutated(draw):
    """(document type, that document with one or two points replaced or deleted, or their keys renamed "ghost")."""
    kind = draw(st.sampled_from(sorted(VALID)))
    doc = copy.deepcopy(VALID[kind])
    for _ in range(draw(st.integers(1, 2))):
        points = list(_points(doc))
        if not points:
            break
        *parents, key = draw(st.sampled_from(points))
        parent = doc
        for step in parents:
            parent = parent[step]
        value = draw(st.sampled_from(MUTATIONS + (RENAME,) if isinstance(parent, dict) else MUTATIONS))
        if value is DELETE:
            del parent[key]
        elif value is RENAME:
            parent["ghost"] = parent.pop(key)
        else:
            parent[key] = copy.deepcopy(value)
    return kind, doc


class TestMutatedDocuments:
    @given(case=mutated())
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_document_exits_0_2_or_3_with_one_error_line(self, case, tmp_path):
        kind, doc = case
        paths = {name: _write(tmp_path, f"{name}.json", json.dumps(VALID[name])) for name in VALID}
        paths[kind] = _write(tmp_path, f"{kind}.json", json.dumps(doc))
        runs = {
            "channel": [["verify-bound", "--channel", paths["channel"], "--prior", paths["prior"]],
                        ["compose", paths["channel"], paths["channel"], "--prior", paths["prior"]]],
            "prior": [["verify-bound", "--channel", paths["channel"], "--prior", paths["prior"]]],
            "net": [["leakage", "--net", paths["net"], "--message", "M"]],
            "scenario": [["simulate", "--scenario", paths["scenario"], "--out", str(tmp_path / "out")]],
            "roles": [["anon", data_path("anon_release.csv"), data_path("anon_aux.csv"), "--roles", paths["roles"]],
                      ["anon", data_path("anon_release.csv"), "--dp", "1", "--sensitive", "diagnosis",
                       "--roles", paths["roles"]]],
        }
        for argv in runs[kind]:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            lines = err.getvalue().splitlines()
            assert code in (0, 2, 3), (argv, doc, err.getvalue())
            if code == 0:
                assert lines == [], (argv, doc)
            else:
                assert len(lines) == 1 and lines[0].startswith("error: "), (argv, doc, lines)


# eps as command-line text: any float up to 1e308, floats around the e^eps overflow at 709.78, and non-finite text
EPS_TEXT = (
    st.floats(min_value=-1e308, max_value=1e308).map(repr)
    | st.floats(min_value=700.0, max_value=720.0).map(repr)
    | st.sampled_from(["nan", "inf", "-inf", "1e400"])
)


class TestRandomizedResponseSpecs:
    @given(k=st.integers(2, 64), eps=EPS_TEXT)
    @settings(max_examples=60, deadline=None)
    def test_any_spec_exits_0_or_2_with_at_most_one_error_line(self, k, eps):
        spec = f"rr:k={k},eps={eps}"
        runs = [
            ["verify-bound", "--channel", spec],
            ["compose", spec, f"rr:k={k},eps=1"],
            ["anon", data_path("anon_release.csv"), "--dp", f"eps={eps}", "--sensitive", "diagnosis"],
        ]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            lines = err.getvalue().splitlines()
            assert code in (0, 2), (argv, err.getvalue())
            if code == 0:
                assert lines == [], argv
            else:
                assert len(lines) == 1 and lines[0].startswith("error: "), argv


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


class TestVerbose:
    GOLDEN_RUNS = [
        (["verify-bound", "--rr", "k=2", f"eps={LN3}", "--prior", "uniform"], "verify_bound_rr.json", []),
        (["leakage", "--scenario", "fork-collider"], "leakage_fork_collider.json",
         ["infoflow.causal: joint: ", "infoflow.causal: leakage_profile: "]),
        (["anon", data_path("anon_release.csv"), data_path("anon_aux.csv")], "anon_attack.json",
         ["infoflow.anonymity: linkage_attack: "]),
    ]

    @pytest.mark.parametrize(("argv", "golden", "logged"), GOLDEN_RUNS)
    def test_reports_are_the_golden_bytes_with_and_without_v(self, argv, golden, logged, capsys):
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(["-v", *argv]) == 0
        verbose = capsys.readouterr()
        assert plain.out == verbose.out == (GOLDEN / golden).read_text()
        assert plain.err == ""
        assert [line for line in verbose.err.splitlines() if not line.startswith("infoflow.")] == []
        for prefix in logged:
            assert any(line.startswith(prefix) for line in verbose.err.splitlines())

    def test_simulate_logs_are_the_golden_bytes_with_and_without_v(self, tmp_path, capsys):
        for flags, out in (([], tmp_path / "plain"), (["-v"], tmp_path / "verbose")):
            assert main([*flags, "simulate", "--scenario", data_path("twins.json"), "--out", str(out)]) == 0
            for name in ("twins_events.jsonl", "twins_ledger.json"):
                assert (out / name.removeprefix("twins_")).read_bytes() == (GOLDEN / name).read_bytes()
        logged = capsys.readouterr().err.splitlines()
        [run] = [line for line in logged if line.startswith("infoflow.society: Simulation.run: ")]
        assert re.fullmatch(r"infoflow\.society: Simulation\.run: 1 ticks, 4 candidates and 0 implicit channels "
                            r"per tick, 2 events, 0 budget stops in \d+\.\d{3} s", run)
        assert "infoflow.society: bundle_contexts: 1 contexts of window 1" in logged
        assert any(line.endswith("memo hits") for line in logged)

    def test_sweep_logs_cases_per_second_with_v_only(self, capsys):
        def report(out):
            doc = json.loads(out)
            del doc["seconds"]  # the sweep's wall time
            return doc

        assert main(["sweep", "--cases", "30", "--seed", "5"]) == 0
        plain = capsys.readouterr()
        assert main(["-v", "sweep", "--cases", "30", "--seed", "5"]) == 0
        verbose = capsys.readouterr()
        assert report(verbose.out) == report(plain.out)
        assert plain.err == ""
        [line] = verbose.err.splitlines()
        assert line.startswith("infoflow.channels: bound_sweep: 30 cases in ") and line.endswith(" cases/s")

    def test_v_holds_for_one_call_only(self, capsys):
        main(["-v", "sweep", "--cases", "3"])
        capsys.readouterr()
        main(["sweep", "--cases", "3"])
        assert capsys.readouterr().err == ""


class TestStrictOutput:
    def test_non_finite_report_leaves_no_file(self, tmp_path):
        out, table = tmp_path / "report.json", tmp_path / "table.csv"
        with pytest.raises(ValueError):
            _emit({"x": math.inf}, "json", out, [(table, lambda fh: fh.write("a\n"))])
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_output_removes_every_file_the_command_wrote(self, tmp_path):
        first, second, other = tmp_path / "first.txt", tmp_path / "second.txt", tmp_path / "other.txt"
        other.write_text("kept")

        def fail(fh):
            fh.write("partial")
            raise ValueError("Out of range float values are not JSON compliant: inf")

        files = [(first, lambda fh: fh.write("done")), (second, fail),
                 (tmp_path / "never.txt", lambda fh: fh.write("x"))]
        with pytest.raises(ValueError, match="not JSON compliant"):
            _emit({"x": 1}, "json", tmp_path / "report.json", files)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["other.txt"]

    def test_a_log_that_cannot_be_opened_leaves_no_other_log(self, tmp_path, capsys):
        (tmp_path / "ledger.json").mkdir()
        assert main(["simulate", "--scenario", data_path("twins.json"), "--out", str(tmp_path)]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["ledger.json"]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "ledger.json" in err

    @pytest.mark.parametrize("argv, written", [
        (["leakage", "--scenario", "twins", "--emit-net", "net.json"], ["net.json"]),
        (["anon", data_path("anon_release.csv"), "--dp", "eps=1", "--sensitive", "diagnosis", "--release-out",
          "rel.csv"], ["rel.csv", "rel.csv.roles.json"]),
    ], ids=["leakage", "anon"])
    def test_a_report_that_cannot_be_opened_leaves_no_other_file(self, argv, written, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "missing/r.json"]) == 2
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing" in err
        assert main(argv) == 0  # the same command without the bad --out writes them
        assert sorted(p.name for p in tmp_path.iterdir()) == written

    @pytest.mark.parametrize("argv, twice", [
        (["leakage", "--scenario", "twins", "--emit-net", "r.json", "--out", "./r.json"], "r.json"),
        (["anon", data_path("anon_release.csv"), "--dp", "eps=1", "--sensitive", "diagnosis", "--release-out",
          "rel.csv", "--out", "rel.csv.roles.json"], "rel.csv.roles.json"),
    ], ids=["leakage", "anon"])
    def test_two_outputs_naming_one_file_are_refused_before_any_is_written(self, argv, twice, tmp_path, monkeypatch,
                                                                           capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: duplicate output file: {str(tmp_path.resolve() / twice)!r}\n")
        assert list(tmp_path.iterdir()) == []

    def test_event_log_refuses_nan(self):
        result = society.simulate(society.load_scenario(data_path("twins.json")))
        object.__setattr__(result.events[0].measure, "selective_sh", math.nan)
        with pytest.raises(ValueError):
            write_events_jsonl(result, io.StringIO())

    def test_ledger_refuses_inf(self):
        ledger = society.Ledger(cumulative={("a", "b", "d"): math.inf})
        with pytest.raises(ValueError):
            write_ledger_json(ledger, io.StringIO())

    @pytest.mark.parametrize(
        "fmt, broken", [("json", "event"), ("json", "ledger"), ("csv", "ledger")]
    )
    def test_simulation_that_fails_to_encode_leaves_no_output(self, fmt, broken, tmp_path, monkeypatch, capsys):
        simulate = society.simulate

        def with_non_finite(scenario):
            result = simulate(scenario)
            if broken == "event":  # a NaN measure injected into a frozen event
                object.__setattr__(result.events[0].measure, "selective_sh", math.nan)
            else:
                result.ledger.cumulative[next(iter(result.ledger.cumulative))] = math.inf
            return result

        monkeypatch.setattr(society, "simulate", with_non_finite)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", data_path("twins.json"), "--out", str(out), "--format", fmt]) == 2
        assert list(out.iterdir()) == []
        assert capsys.readouterr().err.startswith("error: ")


def run_child(*argv) -> subprocess.CompletedProcess:
    """``python -m infoflow ARGV`` in a new process."""
    # The child must import the same infoflow as this process, installed
    # or not, so put the package's source root first on its path.
    src_root = str(Path(infoflow.__file__).resolve().parents[1])
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src_root, *inherited])}
    return subprocess.run([sys.executable, "-m", "infoflow", *argv], capture_output=True, text=True, env=env)


class TestConsoleEntry:
    def test_module_invocation(self):
        out = run_child("verify-bound", "--rr", "k=2", "eps=1.0")
        assert out.returncode == 0
        assert json.loads(out.stdout)["holds"] is True


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples() -> list[str]:
    """The ``infoflow ...`` lines of the README's CLI block."""
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("infoflow ")]


class TestReadme:
    @pytest.mark.parametrize("line", readme_examples())
    def test_cli_example_exits_0(self, line, tmp_path, monkeypatch, capsys):
        # data paths are the repository's; everything an example writes lands in tmp_path
        argv = [str(README.parent / arg) if arg.startswith("src/") else arg for arg in shlex.split(line)[1:]]
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0


class TestRepeatedCalls:
    def test_one_process_matches_separate_processes(self, capsys):
        # options of one call (a seed, a format) must not carry over to the next
        runs = [
            ["leakage", "--scenario", "fork-collider", "--seed", "0"],
            ["leakage", "--scenario", "fork-collider"],
            ["verify-bound", "--rr", "k=3", "eps=0.5", "--format", "csv"],
            ["compose", "rr:k=2,eps=1", "rr:k=2,eps=2"],
            ["verify-bound", "--prior", "uniform"],
            ["simulate", "--scenario", data_path("twins.json")],
        ]
        for argv in runs:
            code = main(argv)
            captured = capsys.readouterr()
            child = run_child(*argv)
            assert (code, captured.out, captured.err) == (child.returncode, child.stdout, child.stderr), argv
