import copy
import dataclasses
import io
import json
import logging
import math
import pickle
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infoflow import (
    BudgetStop,
    CapacityError,
    Context,
    DatumRecord,
    Entity,
    FlowEvent,
    ImplicitChannel,
    InfoMeasure,
    Ledger,
    LogisticParams,
    ReleaseMechanism,
    Scenario,
    Simulation,
    SimulationResult,
    Society,
    bundle_contexts,
    decision_prob,
    ledger_report,
    load_scenario,
    simulate,
)
from infoflow import society as society_module
from infoflow.causal import attribute_flows, check_attribution, load_attribution, net_to_json_dict, twins_scenario
from infoflow.cli import _write, main
from infoflow.society import (
    DRAW_CAP,
    FLOW_KINDS,
    _BATCH,
    _decision_table,
    release_measure,
    scenario_from_json_dict,
    write_events_csv,
    write_events_jsonl,
    write_ledger_json,
)
import helpers
from helpers import scalar_simulation

LN3 = math.log(3)
LOG2_3 = math.log2(3)
TWINS_PATH = resources.files("infoflow.data").joinpath("twins.json")
GOLDEN = Path(__file__).parent / "golden"


def flow(t, sender, receiver, datum, kind="explicit"):
    return FlowEvent(
        id=f"{kind[0]}:{t}:{sender}>{receiver}:{datum}",
        t=t,
        sender=sender,
        receiver=receiver,
        datum=datum,
        measure=InfoMeasure(1.0, 2, 1),
        kind=kind,
        context_id=f"c:{t}:{sender}>{receiver}",
    )


def loaded_twins() -> Scenario:
    with resources.as_file(TWINS_PATH) as path:
        return load_scenario(path)


def write_json(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def two_entity_scenario(**overrides):
    cfg = {
        "seed": 0,
        "ticks": 3,
        "entities": [
            {
                "id": "alice",
                "data": [
                    {"datum": "location", "value": "home", "owner": "alice", "governance": "conjunct"}
                ],
            },
            {"id": "bob", "data": []},
            {"id": "camera", "data": []},
        ],
        "trust": {"alice": {"bob": 0.9}},
        "incentives": {"alice": {"location": 1.0}},
        "implicit_channels": [
            {"subject": "alice", "observer": "camera", "datum": "location", "p": 0.4}
        ],
    }
    cfg.update(overrides)
    return scenario_from_json_dict(cfg)


def decision_society(trust=0.0, incentive=0.0, logistic=LogisticParams()):
    """Entities "a", holding datum "d", and "b": a's trust in b and incentive to release d as given."""
    entities = (Entity("a", (DatumRecord("d", "", "a", "conjunct"),)), Entity("b"))
    return Society(entities, {("a", "b"): trust}, {("a", "d"): incentive}, logistic=logistic)


class TestDecisionProb:
    def test_baseline_suppression(self):
        p = decision_prob(decision_society(), "a", "b", "d")
        assert p == pytest.approx(1 / (1 + math.exp(3)), abs=1e-12)

    @pytest.mark.parametrize("sender, receiver, datum, trust, incentives, message", [
        ("ghost", "b", "nothing", {("ghost", "b"): 0.5}, {}, "unknown trusting entity 'ghost'"),
        ("a", "ghost", "d", {("a", "ghost"): 0.5}, {}, "unknown trusted entity 'ghost'"),
        ("a", "a", "d", {("a", "a"): 0.5}, {}, "entity 'a' cannot trust itself"),
        ("b", "a", "d", {}, {("b", "d"): 1.0}, "entity 'b' does not hold datum 'd'"),
        ("a", "b", "e", {}, {("a", "e"): 1.0}, "entity 'a' does not hold datum 'e'"),
    ])
    def test_refuses_what_the_society_refuses_in_its_words(self, sender, receiver, datum, trust, incentives, message):
        """A key the society would refuse as a trust or incentive entry is refused, with the society's message."""
        soc = decision_society()
        with pytest.raises(ValueError) as refused:
            decision_prob(soc, sender, receiver, datum)
        with pytest.raises(ValueError) as society_refused:
            Society(soc.entities, trust, incentives)
        assert str(refused.value) == str(society_refused.value) == message

    def test_full_trust(self):
        assert decision_prob(decision_society(trust=1.0), "a", "b", "d") == pytest.approx(
            1 / (1 + math.exp(-1)), abs=1e-12
        )

    def test_degenerate_gamma_suppresses_everything(self):
        soc = decision_society(1.0, 5.0, LogisticParams(alpha=0.0, beta=0.0, gamma=700.0))
        assert decision_prob(soc, "a", "b", "d") == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_trust_and_incentive(self):
        import numpy as np

        rng = np.random.default_rng(4)
        for _ in range(50):
            t0, inc0 = rng.uniform(0, 1), rng.uniform(0, 4)
            bump_t, bump_i = rng.uniform(0, 1 - t0), rng.uniform(0, 3)
            base = decision_prob(decision_society(t0, inc0), "a", "b", "d")
            more_trust = decision_prob(decision_society(t0 + bump_t, inc0), "a", "b", "d")
            more_inc = decision_prob(decision_society(t0, inc0 + bump_i), "a", "b", "d")
            assert more_trust >= base - 1e-15
            assert more_inc >= base - 1e-15

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            LogisticParams(alpha=-1.0)

    @pytest.mark.parametrize("weights", [{"alpha": math.nan}, {"beta": math.nan}, {"alpha": math.inf}])
    def test_rejects_non_finite_weights(self, weights):
        with pytest.raises(ValueError, match="finite"):
            LogisticParams(**weights)


@st.composite
def decision_societies(draw):
    """Societies with tied, 0.0 and -0.0 trust and data-less entities.

    Trust is drawn between two distinct entities and incentives for (sender, datum) pairs the sender holds,
    the only ones a society accepts.
    """
    ids = [f"e{k}" for k in range(draw(st.integers(2, 5)))]
    entities = [
        Entity(eid, tuple(DatumRecord(f"d{j}", "", eid, "conjunct") for j in range(draw(st.integers(0, 2)))))
        for eid in ids
    ]
    values = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0, 1)
    pairs = st.sampled_from([(s, r) for s in ids for r in ids if s != r])
    trust = draw(st.dictionaries(pairs, values, max_size=12))
    trust |= {(ids[-1], ids[0]): draw(st.sampled_from([0.0, -0.0]))}
    held = [(e.id, r.datum) for e in entities for r in e.data]
    incentives = draw(st.dictionaries(st.sampled_from(held), st.floats(0, 5), max_size=6)) if held else {}
    weights = st.sampled_from([0.0, 4.0]) | st.floats(0, 10)
    logistic = LogisticParams(draw(weights), draw(weights), draw(st.floats(-10, 10)))
    return Society(tuple(entities), trust, incentives, logistic=logistic)


class TestDecisionTable:
    @given(decision_societies())
    @example(decision_society(0.5, 2.0, LogisticParams(alpha=1.5, beta=0.25, gamma=-2.0)))
    @example(decision_society(1.0, 5.0, LogisticParams(alpha=0.0, beta=0.0, gamma=700.0)))
    @settings(max_examples=150, deadline=None)
    def test_probabilities_equal_decision_prob_exactly(self, soc):
        """The table's probabilities are ``decision_prob``'s, which weighs the factors by the society's own weights."""
        blocks, p = _decision_table(soc)
        ids = [e.id for e in soc.entities]
        assert [(k, d) for k, d, _ in blocks] == [(k, r.datum) for k, e in enumerate(soc.entities) for r in e.data]
        assert [m for *_, m in blocks] == [release_measure(r) for e in soc.entities for r in e.data]
        assert len({id(m) for *_, m in blocks}) <= 1  # every datum here has the same content, so one measure
        expected = [
            decision_prob(soc, ids[k], receiver, datum)
            for k, datum, _ in blocks
            for receiver in ids
            if receiver != ids[k]
        ]
        assert p.tolist() == expected
        assert p.tobytes() == np.array(expected, dtype=np.float64).tobytes()

    def test_build_is_logged_at_debug(self, caplog):
        trust = {"alice": {"bob": 0.9}, "bob": {"camera": 0.5}}
        with caplog.at_level(logging.DEBUG, logger="infoflow.society"):
            Simulation(two_entity_scenario(trust=trust))
        [message] = [r.getMessage() for r in caplog.records if r.name == "infoflow.society"]
        assert re.fullmatch(r"Simulation: 2 candidates in 1 blocks, 2 trusted pairs, built in \d+\.\d{6} s", message)


class TestEntityInvariants:
    def test_conjunct_requires_self_ownership(self):
        with pytest.raises(ValueError, match="governance"):
            Entity("a", (DatumRecord("d", "v", owner="b", governance="conjunct"),))

    def test_delegated_requires_other_owner(self):
        with pytest.raises(ValueError, match="governance"):
            Entity("a", (DatumRecord("d", "v", owner="a", governance="delegated"),))

    def test_duplicate_datum_ids(self):
        with pytest.raises(ValueError, match="duplicate datum"):
            Entity(
                "a",
                (
                    DatumRecord("d", "v", owner="a", governance="conjunct"),
                    DatumRecord("d", "w", owner="a", governance="conjunct"),
                ),
            )

    def test_flow_requires_distinct_entities(self):
        with pytest.raises(ValueError, match="differ"):
            flow(0, "a", "a", "d")

    def test_flow_of_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            flow(0, "a", "b", "d", kind="ambient")


ID_TEXT = st.text(alphabet="ab", min_size=1, max_size=3) | st.text(alphabet="ab>:~", min_size=1, max_size=3)


@st.composite
def separator_scenarios(draw):
    """Documents of 2-4 entities whose ids and data ids may hold a flow-id separator; every candidate fires."""
    ids = draw(st.lists(ID_TEXT, min_size=2, max_size=4, unique=True))
    entities = [
        {"id": e, "data": [{"datum": d, "owner": e, "governance": "conjunct"}
                           for d in draw(st.lists(ID_TEXT, max_size=2, unique=True))]}
        for e in ids
    ]
    channels = [{"subject": e["id"], "observer": o, "datum": r["datum"], "p": 1.0}
                for e in entities for r in e["data"] for o in ids if o != e["id"]]
    return {"entities": entities, "implicit_channels": channels, "logistic": {"gamma": -50}, "ticks": 2}


class TestFlowIds:
    @given(separator_scenarios())
    @example({"entities": [{"id": "a>b", "data": [{"datum": "d", "owner": "a>b", "governance": "conjunct"}]},
                           {"id": "a", "data": [{"datum": "d", "owner": "a", "governance": "conjunct"}]},
                           {"id": "c"}, {"id": "b>c"}], "logistic": {"gamma": -50}})
    @settings(max_examples=150, deadline=None)
    def test_an_accepted_scenario_logs_unique_flow_ids(self, doc):
        names = [e["id"] for e in doc["entities"]] + [r["datum"] for e in doc["entities"] for r in e.get("data", [])]
        reserved = [n for n in names if set(n) & set(">:~")]
        if reserved:
            with pytest.raises(ValueError, match="must not contain any of '>', ':', '~'"):
                scenario_from_json_dict(doc)
            return
        ids = [f.id for f in simulate(scenario_from_json_dict(doc)).events]
        assert len(ids) == len(set(ids))


class TestDrawCap:
    # only built, never run: a refusal comes before the first tick
    def test_ticks_times_draws_per_tick_is_capped(self):
        # 2 explicit candidates (alice's datum to bob and to the camera) and 1 implicit channel
        assert len(Simulation(two_entity_scenario(ticks=DRAW_CAP // 3))._p) == 2
        with pytest.raises(CapacityError, match=f"{DRAW_CAP // 3 + 1} ticks of 3 draws make {3 * (DRAW_CAP // 3 + 1)} "
                                                f"draws, exceeding the cap of {DRAW_CAP}"):
            Simulation(two_entity_scenario(ticks=DRAW_CAP // 3 + 1))

    def test_a_tick_without_draws_counts_as_one(self):
        quiet = {"entities": [{"id": "a", "data": []}, {"id": "b", "data": []}], "implicit_channels": [],
                 "incentives": {}, "trust": {}}
        Simulation(two_entity_scenario(**quiet, ticks=DRAW_CAP))
        with pytest.raises(CapacityError, match=f"exceeding the cap of {DRAW_CAP}"):
            Simulation(two_entity_scenario(**quiet, ticks=10**20))

    def test_candidates_are_counted_before_the_decision_table_is_built(self, monkeypatch):
        def refuse(soc):
            raise AssertionError("a decision table was built for a run beyond the draw cap")

        monkeypatch.setattr(society_module, "_decision_table", refuse)
        # 4,097 senders of one datum each, to 4,096 receivers each: 16,781,312 candidates
        entities = [{"id": f"e{k}", "data": [{"datum": "d", "value": "v", "owner": f"e{k}", "governance": "conjunct"}]}
                    for k in range(4097)]
        scenario = two_entity_scenario(entities=entities, implicit_channels=[], incentives={}, trust={}, ticks=1)
        with pytest.raises(CapacityError, match=f"^1 ticks of 16781312 draws make 16781312 draws, exceeding the cap "
                                                f"of {DRAW_CAP}$"):
            Simulation(scenario)


class TestSimulationDeterminism:
    def test_equal_seeds_equal_logs(self):
        a = simulate(two_entity_scenario(seed=13, ticks=10))
        b = simulate(two_entity_scenario(seed=13, ticks=10))
        assert json.dumps(a.records(), sort_keys=True) == json.dumps(b.records(), sort_keys=True)

    def test_different_seeds_differ(self):
        logs = {
            json.dumps(simulate(two_entity_scenario(seed=s, ticks=10)).records(), sort_keys=True)
            for s in range(5)
        }
        assert len(logs) > 1

    def test_factor_perturbation_preserves_implicit_events(self):
        for seed in range(20):
            base = simulate(two_entity_scenario(seed=seed, ticks=8))
            perturbed = simulate(
                two_entity_scenario(
                    seed=seed,
                    ticks=8,
                    trust={"alice": {"bob": 0.2}},
                    incentives={"alice": {"location": 3.5}},
                )
            )
            implicit = lambda r: [e.id for e in r.events if e.kind == "implicit"]
            assert implicit(base) == implicit(perturbed)

    def test_zero_probability_means_no_explicit_events(self):
        scenario = two_entity_scenario(
            trust={}, incentives={}, logistic={"alpha": 0.0, "beta": 0.0, "gamma": 700.0}
        )
        result = simulate(scenario)
        assert [e for e in result.events if e.kind == "explicit"] == []

    def test_certain_implicit_channel_fires_every_tick(self):
        scenario = two_entity_scenario(
            ticks=5,
            implicit_channels=[
                {"subject": "alice", "observer": "camera", "datum": "location", "p": 1.0}
            ],
        )
        result = simulate(scenario)
        assert len([e for e in result.events if e.kind == "implicit"]) == 5

    def test_events_are_atomic_and_pairwise(self):
        result = simulate(two_entity_scenario(seed=3, ticks=10))
        for e in result.events:
            assert e.sender != e.receiver
            assert isinstance(e.datum, str) and e.datum

    @pytest.mark.parametrize("steps", [0, 1, 3, 4])
    def test_run_after_steps_runs_only_the_ticks_left(self, steps):
        scenario = lambda: two_entity_scenario(seed=7, ticks=4, budgets={"location": 3.0})
        sim = Simulation(scenario())
        for _ in range(steps):
            sim.step()
        result = sim.run()
        assert sim.t == 4
        assert result.records() == simulate(scenario()).records()
        assert sim.run().records() == result.records()  # a second run has no ticks left

    def test_step_refuses_a_tick_past_the_scenario(self):
        sim = Simulation(loaded_twins())
        result = sim.run()
        cumulative = dict(result.ledger.cumulative)
        with pytest.raises(ValueError, match=r"tick 1 is past the scenario's ticks = 1"):
            sim.step()
        assert sim.t == 1 and sim.events == result.events and result.ledger.cumulative == cumulative


def budget_scenario(seed=0, ticks=4):
    return scenario_from_json_dict(
        {
            "seed": seed,
            "ticks": ticks,
            "entities": [
                {
                    "id": "alice",
                    "data": [
                        {
                            "datum": "salary",
                            "value": "high",
                            "owner": "alice",
                            "governance": "conjunct",
                            "domain_size": 2,
                            "mechanism": {"kind": "randomized-response", "k": 2, "eps": LN3},
                        }
                    ],
                },
                {"id": "bob", "data": []},
            ],
            "trust": {"alice": {"bob": 1.0}},
            "incentives": {"alice": {"salary": 5.0}},
            "budgets": {"salary": 2 * LOG2_3},
        }
    )


@st.composite
def ledger_runs(draw):
    """Budgets and a sequence of ``charge`` and ``record`` calls with ties at the budget plus 1e-9 Sh and -0.0 amounts.

    Datum "e" has no budget; amounts near the budgets make the tie cases likely.
    """
    caps = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0, 2)
    budgets = {d: draw(caps) for d in ("d", "f") if draw(st.booleans())}
    keys = st.tuples(st.sampled_from(["a", "b"]), st.sampled_from(["a", "b"]), st.sampled_from(["d", "e", "f"]))
    ties = [1e-9, 0.5 + 1e-9, 1.0 + 1e-9, math.nextafter(1.0 + 1e-9, math.inf), math.nextafter(1e-9, 0.0)]
    amounts = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, *ties]) | st.floats(0, 2)
    ops = draw(st.lists(st.tuples(st.sampled_from(["charge", "charge", "record"]), keys, amounts), max_size=12))
    return budgets, ops


class TestLedger:
    def test_single_release_records_log2_3(self):
        scenario = budget_scenario(ticks=1, seed=0)
        result = simulate(scenario)
        assert len(result.events) == 1
        assert result.events[0].measure.selective_sh == pytest.approx(LOG2_3, abs=1e-12)
        rows = ledger_report(result.ledger)
        assert rows[0]["cumulative_sh"] == pytest.approx(1.584963, abs=1e-6)

    def test_budget_stops_after_two_releases(self):
        # p(release) = logistic(4 + 5 - 3) per tick; seed 0 fires on every tick here
        result = simulate(budget_scenario(seed=0, ticks=4))
        assert len(result.events) == 2
        assert len(result.stops) == 2
        used = result.ledger.cumulative[("alice", "bob", "salary")]
        assert used == pytest.approx(2 * LOG2_3, abs=1e-12)
        assert ledger_report(result.ledger)[0]["headroom_sh"] == 0.0

    def test_cumulative_never_exceeds_budget(self):
        for seed in range(10):
            sim = Simulation(budget_scenario(seed=seed, ticks=6))
            for _ in range(6):
                sim.step()
                for (s, r, d), used in sim.ledger.cumulative.items():
                    cap = sim.ledger.budgets.get(d)
                    if cap is not None:
                        assert used <= cap + 1e-9

    def test_cumulative_is_monotone(self):
        sim = Simulation(two_entity_scenario(seed=5, ticks=10))
        previous = {}
        for _ in range(10):
            sim.step()
            for key, used in sim.ledger.cumulative.items():
                assert used >= previous.get(key, 0.0) - 1e-15
            previous = dict(sim.ledger.cumulative)

    def test_unbudgeted_datum_has_no_headroom(self):
        ledger = Ledger(budgets={"salary": 1.0}, cumulative={("a", "b", "salary"): 0.25, ("a", "b", "age"): 3.0})
        assert ledger.headroom("a", "b", "salary") == 0.75
        assert ledger.headroom("a", "b", "age") is None

    @given(ledger_runs())
    @example(({"d": 1.0}, [("charge", ("a", "b", "d"), 1.0 + 1e-9), ("charge", ("a", "b", "d"), 5e-324)]))
    @example(({"d": 1.0}, [("charge", ("a", "b", "d"), math.nextafter(1.0 + 1e-9, math.inf))]))
    @example(({"d": -0.0}, [("charge", ("a", "b", "d"), -0.0), ("record", ("a", "b", "d"), 1.0),
                            ("charge", ("a", "b", "d"), 0.0), ("charge", ("a", "b", "e"), 1e300)]))
    @settings(max_examples=300, deadline=None)
    def test_charge_and_record_equal_the_budget_oracle(self, run):
        """Every cumulative sum and every headroom ``charge`` returns, bit for bit, against a plain-Python ledger."""
        budgets, ops = run
        ledger = Ledger(budgets=budgets)
        returned = [getattr(ledger, op)(*key, amount) for op, key, amount in ops]
        cumulative, expected = helpers.budget_oracle(budgets, ops)
        assert [None if x is None else x.hex() for x in returned] == [None if x is None else x.hex() for x in expected]
        assert {k: v.hex() for k, v in ledger.cumulative.items()} == {k: v.hex() for k, v in cumulative.items()}
        assert list(ledger.cumulative) == list(cumulative)

    def test_budgets_are_read_only(self):
        for ledger in (Ledger(budgets={"salary": 1.0}), Simulation(budget_scenario()).ledger):
            with pytest.raises(TypeError):
                ledger.budgets["salary"] = -1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                ledger.budgets = {"salary": "x"}

    def test_a_simulation_reads_the_society_budgets(self):
        scenario = budget_scenario(seed=0, ticks=4)
        sim = Simulation(scenario)
        assert sim.ledger.budgets is scenario.society.budgets
        assert len(sim.run().events) == 2  # the budget the society checked stops the third release

    def test_a_simulation_does_not_check_the_budgets_again(self, monkeypatch):
        scenario = budget_scenario(seed=0, ticks=4)
        calls = []
        budgets = society_module._budgets
        monkeypatch.setattr(society_module, "_budgets", lambda b: calls.append(b) or budgets(b))
        Simulation(scenario)
        assert calls == []
        Ledger(budgets={"salary": 1.0})  # a ledger built on its own still checks its budgets
        assert calls == [{"salary": 1.0}]

    def test_charge_records_a_release_or_returns_the_headroom(self):
        ledger = Ledger(budgets={"salary": 1.0})
        assert ledger.charge("a", "b", "salary", 0.75) is None
        assert ledger.charge("a", "b", "salary", 0.5) == 0.25  # refused: nothing is recorded
        assert ledger.charge("a", "b", "salary", 0.25 + 1e-10) is None  # within the 1e-9 Sh tolerance
        assert ledger.charge("a", "b", "age", 1e300) is None  # no budget
        assert ledger.cumulative == {("a", "b", "salary"): 0.75 + (0.25 + 1e-10), ("a", "b", "age"): 1e300}
        assert ledger.charge("a", "b", "salary", 0.5) == 0.0

    def test_empty_ledger_report(self):
        result = simulate(two_entity_scenario(ticks=0))
        assert ledger_report(result.ledger) == []

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            two_entity_scenario(budgets={"location": -1.0})


def random_scenario_doc(seed, n_ent=6, ticks=5):
    """A scenario with budgets tight enough to stop releases, mechanisms and implicit channels."""
    import numpy as np

    rng = np.random.default_rng(seed)
    ids = [f"e{k}" for k in range(n_ent)]
    entities, trust, incentives = [], {}, {}
    for eid in ids:
        data = []
        for j in range(int(rng.integers(1, 4))):
            rec = {"datum": f"d{j}", "owner": eid, "governance": "conjunct", "domain_size": int(rng.integers(1, 5))}
            if j == 1:
                rec["mechanism"] = {"kind": "randomized-response", "k": 2, "eps": float(rng.uniform(0.1, 1.5))}
            data.append(rec)
        entities.append({"id": eid, "data": data})
        # equal trust values and an explicit zero
        friends = rng.choice([i for i in ids if i != eid], size=3, replace=False)
        trust[eid] = {str(f): float(rng.choice([0.0, 0.75, 1.0])) for f in friends}
        incentives[eid] = {f"d{j}": float(rng.uniform(0.0, 3.0)) for j in range(len(data))}
    channels = {}
    for _ in range(4):
        subject, observer = (str(v) for v in rng.choice(ids, size=2, replace=False))
        channels[subject, observer] = {"subject": subject, "observer": observer, "datum": "d0",
                                       "p": float(rng.uniform(0.1, 0.9))}
    return {
        "seed": int(rng.integers(2**31)),
        "ticks": ticks,
        "entities": entities,
        "trust": trust,
        "incentives": incentives,
        "implicit_channels": list(channels.values()),
        "budgets": {"d0": 2.5, "d1": 1.0},
        "logistic": {"alpha": 4.0, "beta": 1.0, "gamma": 4.5},
    }


def shared_key_doc(seed):
    """Alice releases her location to bob, and a channel shows it to him: both charge one budgeted ledger key."""
    return {
        "seed": seed,
        "ticks": 4,
        "entities": [
            {"id": "alice", "data": [{"datum": "location", "owner": "alice", "governance": "conjunct",
                                      "domain_size": 4}]},
            {"id": "bob"},
            {"id": "carol"},
        ],
        "trust": {"alice": {"bob": 1.0, "carol": 0.5}},
        "incentives": {"alice": {"location": 1.0}},
        "implicit_channels": [{"subject": "alice", "observer": "bob", "datum": "location", "p": 0.7}],
        "budgets": {"location": 5.0},
    }


class TestBatchedDraws:
    @pytest.mark.parametrize("seed", range(8))
    def test_records_equal_the_per_candidate_loop(self, seed):
        doc = random_scenario_doc(seed)
        expected_records, expected_ledger = scalar_simulation(doc)
        result = simulate(scenario_from_json_dict(doc))
        assert result.records() == expected_records
        assert result.ledger.cumulative == expected_ledger

    def test_implicit_flows_and_explicit_releases_share_a_budgeted_key(self):
        shared = []
        for seed in range(6):
            doc = shared_key_doc(seed)
            expected_records, expected_ledger = scalar_simulation(doc)
            result = simulate(scenario_from_json_dict(doc))
            assert result.records() == expected_records
            assert result.ledger.cumulative == expected_ledger
            shared += [r for r in expected_records if (r["sender"], r["receiver"]) == ("alice", "bob")]
        # implicit flows take the key past its budget, so a later stop finds no headroom
        assert {r.get("kind", r["record"]) for r in shared} == {"explicit", "implicit", "budget-stop"}
        assert {r["headroom_sh"] for r in shared if r["record"] == "budget-stop"} == {0.0, 1.0}

    def test_scenarios_exercise_stops_and_both_kinds(self):
        records = [r for seed in range(8) for r in scalar_simulation(random_scenario_doc(seed))[0]]
        kinds = {r.get("kind", r["record"]) for r in records}
        assert kinds == {"explicit", "implicit", "budget-stop"}
        assert len({r["t"] for r in records}) > 1

    def test_implicit_channels_cannot_be_changed_after_the_checks(self):
        camera = [{"subject": "alice", "observer": "camera", "datum": "location", "p": 1.0}]
        scenario = two_entity_scenario(ticks=3, implicit_channels=camera)
        sim = Simulation(scenario)
        added = ImplicitChannel("alice", "bob", "location", 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.society.implicit_channels = (*scenario.society.implicit_channels, added)
        implicit = [e for e in sim.run().events if e.kind == "implicit"]
        assert {(e.sender, e.receiver) for e in implicit} == {("alice", "camera")}
        # the channel's events share the one measure built with the simulation
        assert len({id(e.measure) for e in implicit}) == 1 < len(implicit)

    def test_factors_cannot_be_changed_after_the_checks(self):
        scenario = two_entity_scenario(seed=2, ticks=4)
        sim = Simulation(scenario)
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.society.trust = {}
        with pytest.raises(TypeError):
            scenario.society.trust[("alice", "bob")] = 0.0
        expected = simulate(two_entity_scenario(seed=2, ticks=4))
        assert [e.id for e in sim.run().events] == [e.id for e in expected.events]


class TestFrozenScenario:
    """A scenario is checked once, when it is built: no field of its records and no item of their mappings changes."""

    RECORDS = {
        "scenario": lambda sc: sc,
        "society": lambda sc: sc.society,
    }
    # (record, mapping, key, value): the first two are an outsider's trust and a trust out of range
    MUTATIONS = [
        ("society", "trust", ("ghost", "twin1"), 1.0),
        ("society", "trust", ("twin1", "receiver"), 7.0),
        ("society", "incentives", ("twin1", "gender"), 100.0),
        ("society", "budgets", "gender", 0.0),
        ("society", "held", ("twin2", "gender"), None),
    ]

    @pytest.mark.parametrize("record", RECORDS)
    def test_no_field_can_be_assigned(self, record):
        target = self.RECORDS[record](loaded_twins())
        for f in dataclasses.fields(target):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(target, f.name, getattr(target, f.name))

    @pytest.mark.parametrize(("record", "name", "key", "value"), MUTATIONS)
    def test_no_mapping_item_can_be_set(self, record, name, key, value):
        mapping = getattr(self.RECORDS[record](loaded_twins()), name)
        before = dict(mapping)
        with pytest.raises(TypeError):
            mapping[key] = value
        assert dict(mapping) == before

    def test_a_refused_mutation_leaves_the_golden_run(self):
        scenario = loaded_twins()
        for record, name, key, value in self.MUTATIONS:
            with pytest.raises(TypeError):
                getattr(self.RECORDS[record](scenario), name)[key] = value
        result = simulate(scenario)
        with resources.as_file(TWINS_PATH) as path:
            induced = attribute_flows(result.events, **load_attribution(scenario, path.parent))
        events, ledger = io.StringIO(), io.StringIO()
        write_events_jsonl(result, events, induced)
        write_ledger_json(result.ledger, ledger)
        assert events.getvalue() == (GOLDEN / "twins_events.jsonl").read_text(encoding="utf-8")
        assert ledger.getvalue() == (GOLDEN / "twins_ledger.json").read_text(encoding="utf-8")

    @pytest.mark.parametrize("record", RECORDS)
    def test_a_society_cannot_be_pickled_or_deep_copied(self, record):
        target = self.RECORDS[record](loaded_twins())
        with pytest.raises(TypeError):
            pickle.dumps(target)
        with pytest.raises(TypeError):
            copy.deepcopy(target)


class TestBundleContexts:
    def test_single_event_single_context(self):
        ctxs = bundle_contexts([flow(0, "a", "b", "d")])
        assert len(ctxs) == 1
        assert [f.id for f in ctxs[0].flows] == ["e:0:a>b:d"]

    def test_same_pair_same_tick_shares_context(self):
        ctxs = bundle_contexts([flow(0, "a", "b", "d1"), flow(0, "a", "b", "d2")])
        assert len(ctxs) == 1
        assert len(ctxs[0].flows) == 2

    def test_three_pairs_three_contexts(self):
        events = [flow(0, "a", "b", "d"), flow(0, "a", "c", "d"), flow(0, "b", "c", "d")]
        assert len(bundle_contexts(events)) == 3

    def test_window_spans_ticks(self):
        events = [flow(0, "a", "b", "d1"), flow(1, "a", "b", "d2"), flow(5, "a", "b", "d3")]
        ctxs = bundle_contexts(events, window=2)
        assert [len(c.flows) for c in ctxs] == [2, 1]

    def test_every_event_in_exactly_one_context(self):
        events = [flow(t, "a", "b", f"d{t}") for t in range(6)]
        ctxs = bundle_contexts(events, window=2)
        seen = [f.id for c in ctxs for f in c.flows]
        assert sorted(seen) == sorted(e.id for e in events)
        assert len(seen) == len(set(seen))

    def test_contexts_ordered_by_tick_sender_receiver(self):
        # (b, a)'s first context closes mid-stream, before the others open or close
        events = [flow(0, "b", "a", "d"), flow(0, "a", "c", "d"), flow(1, "a", "b", "d"), flow(2, "b", "a", "d")]
        ctxs = bundle_contexts(events, window=2)
        assert [(c.id, c.t, c.sender, c.receiver) for c in ctxs] == [
            ("C0000", 0, "a", "c"),
            ("C0001", 0, "b", "a"),
            ("C0002", 1, "a", "b"),
            ("C0003", 2, "b", "a"),
        ]

    def test_window_below_one_rejected(self):
        with pytest.raises(ValueError, match="window must be >= 1"):
            bundle_contexts([flow(0, "a", "b", "d")], window=0)

    @pytest.mark.parametrize("window", [True, 2.5, "2"])
    def test_window_of_another_type_rejected_as_a_scenario_refuses_it(self, window):
        with pytest.raises(ValueError) as refused:
            bundle_contexts([flow(0, "a", "b", "d")], window=window)
        with pytest.raises(ValueError) as scenario_refused:
            Scenario(two_entity_scenario().society, window=window)
        assert str(refused.value) == str(scenario_refused.value) == f"window must be an integer, got {window!r}"

    def test_unsorted_events_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            bundle_contexts([flow(3, "a", "b", "d"), flow(1, "a", "b", "d")])

    def test_context_requires_shared_pair(self):
        with pytest.raises(ValueError, match="share sender"):
            Context("c", 0, "a", "b", (flow(0, "a", "x", "d"),))


def valid_records():
    f = flow(0, "a", "b", "d")
    return [f, BudgetStop(1, "a", "b", "d", 1.0, 0.5), Context("C0000", 0, "a", "b", [f])]


# each record with one field that its checks refuse
INVALID_FIELDS = [
    (0, {"receiver": "a"}, "sender and receiver must differ"),
    (0, {"kind": "bogus"}, "kind must be one of"),
    (1, {"sender": "b"}, "sender and receiver must differ"),
    (2, {"receiver": "x"}, "context flows must share sender and receiver"),
    (2, {"flows": [flow(0, "b", "a", "d")]}, "context flows must share sender and receiver"),
]


class TestRecords:
    @pytest.mark.parametrize(("which", "change", "message"), INVALID_FIELDS)
    def test_every_construction_path_refuses_invalid_fields(self, which, change, message):
        record = valid_records()[which]
        fields = {**record._asdict(), **change}
        cls = type(record)
        with pytest.raises(ValueError, match=message):
            cls(**fields)
        with pytest.raises(ValueError, match=message):
            cls(*fields.values())
        with pytest.raises(ValueError, match=message):
            cls._make(fields.values())
        with pytest.raises(ValueError, match=message):
            record._replace(**change)

    @pytest.mark.parametrize("which", range(3))
    def test_fields_cannot_be_assigned(self, which):
        record = valid_records()[which]
        with pytest.raises(AttributeError):
            record.t = 5
        with pytest.raises(AttributeError):
            record.extra = 1

    @pytest.mark.parametrize("which", range(3))
    def test_equal_to_a_tuple_of_its_fields_and_hashed_alike(self, which):
        record = valid_records()[which]
        fields = tuple(getattr(record, name) for name in record._fields)
        assert record == fields and hash(record) == hash(fields)
        assert type(record)._make(fields) == record and record._replace() == record

    def test_field_names_and_order(self):
        assert FlowEvent._fields == ("id", "t", "sender", "receiver", "datum", "measure", "kind", "context_id")
        assert BudgetStop._fields == ("t", "sender", "receiver", "datum", "attempted_sh", "headroom_sh")
        assert Context._fields == ("id", "t", "sender", "receiver", "flows")

    def test_context_flows_become_a_tuple(self):
        assert valid_records()[2].flows == (flow(0, "a", "b", "d"),)

    @pytest.mark.parametrize("which", range(3))
    def test_pickle_and_copy_keep_the_record(self, which):
        record = valid_records()[which]
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(twin) is type(record) and twin == record

    @pytest.mark.parametrize(("which", "change", "message"), INVALID_FIELDS)
    def test_pickle_and_copy_rebuild_through_the_checks(self, which, change, message):
        record = valid_records()[which]
        # a record built past __new__, as a NamedTuple's own _make would build it
        forged = tuple.__new__(type(record), tuple({**record._asdict(), **change}.values()))
        for rebuild in (lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy):
            with pytest.raises(ValueError, match=message):
                rebuild(forged)


class TestScenarioJson:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            scenario_from_json_dict({"entities": [], "bogus": 1})

    @pytest.mark.parametrize(
        "block, overrides",
        [
            ("logistic", {"logistic": {"alpah": 50}}),
            ("entity", {"entities": [{"id": "a", "dta": []}, {"id": "b"}]}),
            ("datum", {"entities": [
                {"id": "a", "data": [{"datum": "d", "owner": "a", "governance": "conjunct", "domian_size": 4}]},
                {"id": "b"},
            ]}),
            ("mechanism", {"entities": [
                {"id": "a", "data": [{"datum": "d", "owner": "a", "governance": "conjunct",
                                      "mechanism": {"kind": "randomized-response", "k": 2, "eps": 1.0, "esp": 2}}]},
                {"id": "b"},
            ]}),
            ("implicit channel", {"implicit_channels": [
                {"subject": "alice", "observer": "camera", "datum": "location", "p": 0.4, "q": 1}
            ]}),
        ],
    )
    def test_unknown_nested_keys_rejected(self, block, overrides):
        with pytest.raises(ValueError, match=f"unknown {block} keys"):
            two_entity_scenario(**overrides)

    def test_mistyped_attribution_key_rejected(self, tmp_path):
        twins = json.loads(resources.files("infoflow.data").joinpath("twins.json").read_text(encoding="utf-8"))
        twins["attribution"]["treshold"] = 1
        path = tmp_path / "twins.json"
        path.write_text(json.dumps(twins), encoding="utf-8")
        scenario = load_scenario(path)  # the block is read, and its keys checked, by its one reader
        with pytest.raises(ValueError, match=r"^scenario attribution: unknown attribution keys: \['treshold'\]$"):
            load_attribution(scenario, path.parent)

    def test_absent_keys_take_the_dataclass_defaults(self):
        sc = two_entity_scenario()
        assert sc.society.logistic == LogisticParams()
        assert sc.society.entities[0].data[0] == DatumRecord("location", "home", "alice", "conjunct")
        assert (sc.window, sc.attribution) == (1, None)

    def test_factors_key_rejected(self):
        # no decision reads extra named factors, so the scenario format has none
        with pytest.raises(ValueError, match="unknown scenario keys"):
            two_entity_scenario(factors={"mood": 1.0})

    def test_duplicate_implicit_channel_rejected(self):
        with pytest.raises(ValueError, match="duplicate implicit channel"):
            two_entity_scenario(
                implicit_channels=[
                    {"subject": "alice", "observer": "camera", "datum": "location", "p": 0.4},
                    {"subject": "alice", "observer": "camera", "datum": "location", "p": 0.6},
                ]
            )

    def test_channel_subject_must_hold_datum(self):
        with pytest.raises(ValueError, match="does not hold"):
            two_entity_scenario(
                implicit_channels=[
                    {"subject": "bob", "observer": "camera", "datum": "location", "p": 0.4}
                ]
            )

    @pytest.mark.parametrize("trust, message", [
        ({"ghost": {"bob": 1.0}}, "unknown trusting entity 'ghost'"),
        ({"alice": {"ghost": 1.0}}, "unknown trusted entity 'ghost'"),
        ({"alice": {"alice": 1.0}}, "entity 'alice' cannot trust itself"),
    ])
    def test_trust_names_two_distinct_entities(self, trust, message):
        trust = {(s, r): v for s, row in trust.items() for r, v in row.items()}
        with pytest.raises(ValueError) as refused:
            Society((Entity("alice"), Entity("bob")), trust)
        assert str(refused.value) == message

    def test_trust_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="trust"):
            two_entity_scenario(trust={"alice": {"bob": 1.5}})

    def test_society_needs_two_entities(self):
        with pytest.raises(ValueError, match="number of entities in a society must be >= 2, got 1"):
            Society(entities=(Entity("only"),))

    @pytest.mark.parametrize("factors, message", [
        ({"trust": {"only": {"ghost": 2}}}, "trust('only', 'ghost') must be in [0,1], got 2.0"),
        ({"incentives": {"only": {"ghost": -1}}}, "incentive('only', 'ghost') must be finite and >= 0, got -1.0"),
        ({"trust": {"only": {"ghost": 2}}, "incentives": {"only": {"ghost": -1}}},
         "trust('only', 'ghost') must be in [0,1], got 2.0"),
    ], ids=["trust", "incentive", "trust-and-incentive"])
    def test_factor_values_are_refused_before_the_society_rules(self, factors, message):
        # one entity and outsiders in the keys break three society rules, yet the values are refused first
        with pytest.raises(ValueError) as refused:
            scenario_from_json_dict({"entities": [{"id": "only"}], **factors})
        assert str(refused.value) == message

    def test_negative_seed_rejected(self):
        society = two_entity_scenario().society
        with pytest.raises(ValueError, match="seed must be >= 0"):
            Scenario(society, seed=-1, ticks=0)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"ticks": 2.7}, "ticks must be an integer, got 2.7"),
            ({"window": True}, "window must be an integer, got True"),
            ({"seed": "2"}, "seed must be an integer, got '2'"),
            ({"trust": {"alice": {"bob": "0.9"}}}, "trust('alice', 'bob') must be a number, got '0.9'"),
            ({"incentives": {"alice": {"location": False}}}, "incentive('alice', 'location') must be a number"),
            ({"logistic": {"gamma": "3"}}, "logistic gamma must be a number, got '3'"),
            ({"trust": {"alice": {"bob": 1.5}}}, "trust('alice', 'bob') must be in [0,1], got 1.5"),
            ({"incentives": {"alice": {"location": -1}}},
             "incentive('alice', 'location') must be finite and >= 0, got -1.0"),
        ],
    )
    def test_numbers_are_checked_not_converted(self, overrides, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            two_entity_scenario(**overrides)

    def test_numpy_integers_are_accepted_and_stored_as_ints(self):
        # as bound_sweep does; the records keep Python ints, so they stay JSON-safe
        mechanism = ReleaseMechanism("randomized-response", np.int64(3), 1.0)
        datum = DatumRecord("d", "v", "alice", "conjunct", domain_size=np.int32(3), mechanism=mechanism)
        society = two_entity_scenario().society
        scenario = Scenario(society, seed=np.int64(5), ticks=np.uint8(2), window=np.int16(3))
        values = [mechanism.k, datum.domain_size, scenario.seed, scenario.ticks, scenario.window]
        assert values == [3, 3, 5, 2, 3]
        assert {type(v) for v in values} == {int}
        assert json.dumps(values) == "[3, 3, 5, 2, 3]"
        plain = Scenario(society, seed=5, ticks=2, window=3)
        assert simulate(scenario).records() == simulate(plain).records()

    @pytest.mark.parametrize(
        "record, edit, message",
        [
            # an entity has no number: its id of another type stands for the mistyped value
            ("entity", lambda doc: doc["entities"][0].pop("id"), "missing 1 required positional argument: 'id'"),
            ("entity", lambda doc: doc["entities"][0].update(dta=[]), "unknown entity keys: ['dta']"),
            ("entity", lambda doc: doc["entities"][0].update(id=7), "entity id must be a string, got 7"),
            ("datum", lambda doc: doc["entities"][0]["data"][0].pop("owner"),
             "missing 1 required positional argument: 'owner'"),
            ("datum", lambda doc: doc["entities"][0]["data"][0].update(domian_size=4),
             "unknown datum keys: ['domian_size']"),
            ("datum", lambda doc: doc["entities"][0]["data"][0].update(domain_size="4"),
             "datum domain_size must be an integer, got '4'"),
            ("mechanism", lambda doc: doc["entities"][0]["data"][0]["mechanism"].pop("eps"),
             "missing 1 required positional argument: 'eps'"),
            ("mechanism", lambda doc: doc["entities"][0]["data"][0]["mechanism"].update(esp=1.0),
             "unknown mechanism keys: ['esp']"),
            ("mechanism", lambda doc: doc["entities"][0]["data"][0]["mechanism"].update(k=2.0),
             "mechanism k must be an integer, got 2.0"),
            ("implicit channel", lambda doc: doc["implicit_channels"][0].pop("p"),
             "missing 1 required positional argument: 'p'"),
            ("implicit channel", lambda doc: doc["implicit_channels"][0].update(q=1),
             "unknown implicit channel keys: ['q']"),
            ("implicit channel", lambda doc: doc["implicit_channels"][0].update(p="0.4"),
             "implicit channel p must be a number, got '0.4'"),
            # every logistic weight has a default, so no key is required there
            ("logistic", lambda doc: doc["logistic"].update(alpah=50), "unknown logistic keys: ['alpah']"),
            ("logistic", lambda doc: doc["logistic"].update(gamma="3"), "logistic gamma must be a number, got '3'"),
        ],
    )
    def test_each_record_refusal_exits_2_with_one_error_line(self, record, edit, message, tmp_path, capsys):
        doc = {
            "entities": [
                {"id": "alice", "data": [{"datum": "location", "owner": "alice", "governance": "conjunct",
                                          "mechanism": {"kind": "randomized-response", "k": 2, "eps": 1.0}}]},
                {"id": "bob"},
            ],
            "implicit_channels": [{"subject": "alice", "observer": "bob", "datum": "location", "p": 0.4}],
            "logistic": {"alpha": 4.0, "beta": 1.0, "gamma": 3.0},
        }
        assert main(["simulate", "--scenario", str(write_json(tmp_path, doc))]) == 0
        capsys.readouterr()
        edit(doc)
        assert main(["simulate", "--scenario", str(write_json(tmp_path, doc))]) == 2
        out, err = capsys.readouterr()
        [line] = err.splitlines()
        assert out == "" and line.startswith("error: ") and message in line

    def test_json_integers_are_stored_as_floats(self):
        scenario = two_entity_scenario(trust={"alice": {"bob": 1}}, budgets={"location": 2},
                                       logistic={"alpha": 4, "beta": 1, "gamma": 3})
        soc = scenario.society
        values = [soc.trust[("alice", "bob")], soc.budgets["location"], soc.logistic.alpha]
        assert values == [1.0, 2.0, 4.0] and all(type(v) is float for v in values)


TWINS_NET = twins_scenario()[0]
PAIR = (Entity("alice"), Entity("bob"))


def typed_fields_doc():
    """A valid scenario that gives every field with a type rule, the attribution threshold included."""
    return {
        "seed": 0, "ticks": 1, "window": 1,
        "entities": [
            {"id": "alice", "data": [{"datum": "location", "owner": "alice", "governance": "conjunct", "domain_size": 2,
                                      "mechanism": {"kind": "randomized-response", "k": 2, "eps": 1.0}}]},
            {"id": "bob"},
        ],
        "trust": {"alice": {"bob": 0.5}},
        "incentives": {"alice": {"location": 1.0}},
        "implicit_channels": [{"subject": "alice", "observer": "bob", "datum": "location", "p": 0.4}],
        "logistic": {"alpha": 4.0, "beta": 1.0, "gamma": 3.0},
        "budgets": {"location": 1.0},
        "attribution": {"net": net_to_json_dict(TWINS_NET), "ownership": {"S2": "bob"},
                        "message_nodes": {"location": "S1"}, "threshold": 1e-6},
    }


# field: (its place in typed_fields_doc, its type, the name a refusal gives it, the record or check built directly)
TYPED_FIELDS = {
    "seed": (("seed",), "integer", "seed", lambda v: Scenario(Society(PAIR), seed=v)),
    "ticks": (("ticks",), "integer", "ticks", lambda v: Scenario(Society(PAIR), ticks=v)),
    "window": (("window",), "integer", "window", lambda v: Scenario(Society(PAIR), window=v)),
    "domain_size": (("entities", 0, "data", 0, "domain_size"), "integer", "datum domain_size",
                    lambda v: DatumRecord("location", "", "alice", "conjunct", domain_size=v)),
    "mechanism k": (("entities", 0, "data", 0, "mechanism", "k"), "integer", "mechanism k",
                    lambda v: ReleaseMechanism("randomized-response", v, 1.0)),
    "mechanism eps": (("entities", 0, "data", 0, "mechanism", "eps"), "number", "mechanism eps",
                      lambda v: ReleaseMechanism("randomized-response", 2, v)),
    "trust": (("trust", "alice", "bob"), "number", "trust('alice', 'bob')",
              lambda v: Society(PAIR, trust={("alice", "bob"): v})),
    "incentive": (("incentives", "alice", "location"), "number", "incentive('alice', 'location')",
                  lambda v: Society(PAIR, incentives={("alice", "location"): v})),
    "implicit channel p": (("implicit_channels", 0, "p"), "number", "implicit channel p",
                           lambda v: ImplicitChannel("alice", "bob", "location", v)),
    "alpha": (("logistic", "alpha"), "number", "logistic alpha", lambda v: LogisticParams(alpha=v)),
    "beta": (("logistic", "beta"), "number", "logistic beta", lambda v: LogisticParams(beta=v)),
    "gamma": (("logistic", "gamma"), "number", "logistic gamma", lambda v: LogisticParams(gamma=v)),
    "budget": (("budgets", "location"), "number", "budget for 'location'",
               lambda v: Society(PAIR, budgets={"location": v})),
    "attribution threshold": (("attribution", "threshold"), "number", "attribution threshold",
                              lambda v: check_attribution(TWINS_NET, {"S2": "bob"}, {"location": "S1"}, v)),
}
MISTYPED = [(name, v) for name, (_, kind, _, _) in TYPED_FIELDS.items()
            for v in (True, "2", *([2.7] if kind == "integer" else []))]


class TestLibraryRefusesWhatTheReaderRefuses:
    def test_the_document_is_valid(self, tmp_path):
        assert main(["simulate", "--scenario", str(write_json(tmp_path, typed_fields_doc())),
                     "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("name, value", MISTYPED, ids=[f"{n}={v!r}" for n, v in MISTYPED])
    def test_direct_construction_refuses_with_the_cli_message(self, name, value, tmp_path, capsys):
        (*parents, key), kind, what, build = TYPED_FIELDS[name]
        doc = typed_fields_doc()
        parent = doc
        for step in parents:
            parent = parent[step]
        parent[key] = value
        path = write_json(tmp_path, doc)
        assert main(["simulate", "--scenario", str(path)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        where = "scenario attribution" if parents == ["attribution"] else path
        message = f"{what} must be {'an integer' if kind == 'integer' else 'a number'}, got {value!r}"
        assert line == f"error: {where}: {message}"
        with pytest.raises(ValueError) as refused:
            build(value)
        assert str(refused.value) == message

    @pytest.mark.parametrize("build, message", [
        (lambda: InfoMeasure(0.5, 2.5, 1), "logons must be an integer, got 2.5"),
        (lambda: InfoMeasure(0.5, 2, True), "metrons must be an integer, got True"),
        (lambda: InfoMeasure(True, 2, 1), "selective_sh must be a number, got True"),
        (lambda: Ledger(budgets={"x": "1"}), "budget for 'x' must be a number, got '1'"),
        (lambda: check_attribution(TWINS_NET, {}, {}, threshold=True), "attribution threshold must be a number, got True"),
    ])
    def test_records_without_a_document_refuse_other_types(self, build, message):
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == message


# ids with what JSON and CSV must escape or quote, non-ASCII text and the id separators
IDS = st.text(st.sampled_from(['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "😀",
                               ">", ":", ",", "~", "a", "b"]), max_size=5) | st.text(max_size=4)
SH = st.sampled_from([5e-324, 1e16, 1e-7, 0.0, -0.0, 1.0, 0.1, 1 / 3]) | st.floats(0, 1e300) | st.builds(
    np.float64, st.floats(0, 64)
)


@st.composite
def simulation_outputs(draw):
    """A simulation result, induced (cause, context) pairs sharing causes, and a ledger."""
    entities = draw(st.lists(IDS, min_size=2, max_size=4, unique=True))
    logons = st.integers(0, 2) | st.integers(0, 2**70)
    measures = draw(st.lists(st.builds(InfoMeasure, SH, logons, st.integers(0, 2)),
                             min_size=1, max_size=4))

    def pair():
        sender, receiver = draw(st.permutations(entities))[:2]
        return sender, receiver

    def flows(t, sender, receiver, kinds=FLOW_KINDS, max_size=3):
        return [
            FlowEvent(draw(IDS), t, sender, receiver, draw(IDS), draw(st.sampled_from(measures)),
                      draw(st.sampled_from(kinds)), draw(IDS))
            for _ in range(draw(st.integers(1, max_size)))
        ]

    ticks = st.integers(0, 3)
    events = [f for _ in range(draw(st.integers(0, 4))) for f in flows(draw(ticks), *pair())]
    stops = [BudgetStop(draw(ticks), *pair(), draw(IDS), draw(SH), draw(SH)) for _ in range(draw(st.integers(0, 3)))]
    causes = [Context(draw(IDS), t, s, r, flows(t, s, r, ("explicit",))) for t, (s, r) in
              ((draw(ticks), pair()) for _ in range(draw(st.integers(1, 2))))]
    induced = []
    for _ in range(draw(st.integers(0, 4))):
        cause = draw(st.sampled_from(causes))
        owner = draw(st.sampled_from([e for e in entities if e != cause.receiver]))
        induced.append((cause, Context(draw(IDS), cause.t, owner, cause.receiver,
                                       flows(cause.t, owner, cause.receiver, ("implicit",), 2))))
    data = draw(st.lists(IDS, min_size=1, max_size=3, unique=True))
    budgets = {d: draw(SH) for d in data if draw(st.booleans())}
    keys = st.tuples(st.sampled_from(entities), st.sampled_from(entities), st.sampled_from(data))
    ledger = Ledger(budgets=budgets, cumulative=draw(st.dictionaries(keys, SH, max_size=4)))
    return SimulationResult(events, stops, ledger), induced


def written(write, *args) -> str:
    fh = io.StringIO()
    write(*args, fh)
    return fh.getvalue()


class TestTextWriters:
    """The streamed writers against the dict oracle of tests/helpers.py encoded by json and csv."""

    @given(simulation_outputs())
    @settings(max_examples=200, deadline=None)
    @example((SimulationResult([], [], Ledger()), []))
    def test_writers_equal_the_dict_oracle(self, output):
        result, induced = output
        records = helpers.event_records(result, induced)
        rows = helpers.ledger_rows(result.ledger)
        dumps = lambda doc, **kw: json.dumps(doc, sort_keys=True, allow_nan=False, **kw)  # noqa: E731
        fh = io.StringIO()
        write_events_jsonl(result, fh, induced)
        assert fh.getvalue() == "".join(dumps(rec) + "\n" for rec in records)
        assert written(write_ledger_json, result.ledger) == dumps(rows, indent=2) + "\n"
        fh = io.StringIO()
        write_events_csv(result, fh, induced)
        oracle = written(helpers.write_events_csv, records)
        if "\r" not in oracle:  # csv.writer leaves a \r bare, which would end the row when read
            assert fh.getvalue() == oracle
        events = [[str(row[k]) for k in helpers.EVENT_CSV_FIELDS] for row in helpers.events_csv_rows(records)]
        assert helpers.read_csv(fh.getvalue()) == [helpers.EVENT_CSV_FIELDS, *events]
        ledger = written(_write, ledger_report(result.ledger), "csv")
        assert ledger == written(_write, rows, "csv")
        fields = sorted({k for row in rows for k in row})
        cells = [["" if row[k] is None else str(row[k]) for k in fields] for row in rows]
        assert helpers.read_csv(ledger) == ([fields, *cells] if rows else [])
        stdout = {"events": result.records(induced), "ledger": ledger_report(result.ledger)}
        assert written(_write, stdout, "json") == dumps({"events": records, "ledger": rows}, indent=2) + "\n"

    def test_logs_longer_than_a_batch_equal_the_dict_oracle(self):
        class Writes(io.StringIO):
            calls = 0

            def write(self, text):
                self.calls += 1
                return super().write(text)

        events = [flow(t, "a", "b", f"d{i}") for t in range(3) for i in range(700)]
        stops = [BudgetStop(t, "b", "a", "d", 1.0, 0.5) for t in range(3)]
        cumulative = {("a", "b", f"d{i}"): i / 7 for i in range(1500)}
        result = SimulationResult(events, stops, Ledger({"d1": 0.5, "d9": 2.0}, cumulative))
        dumps = lambda doc, **kw: json.dumps(doc, sort_keys=True, allow_nan=False, **kw)  # noqa: E731
        fh = Writes()
        write_events_jsonl(result, fh)
        assert fh.getvalue() == "".join(dumps(rec) + "\n" for rec in helpers.event_records(result))
        assert fh.calls == math.ceil(2103 / _BATCH)  # 2,100 flows and 3 stops, in batches
        fh = Writes()
        write_ledger_json(result.ledger, fh)
        assert fh.getvalue() == dumps(helpers.ledger_rows(result.ledger), indent=2) + "\n"
        assert fh.calls == math.ceil(1501 / _BATCH)  # 1,500 rows and the closing bracket

    def test_shared_measure_and_cause_are_written_in_full_each_time(self):
        a = flow(0, "a", "b", "d")
        cause = Context("C0", 0, "a", "b", (a,))
        # equal as values, so a memo keyed by value would write the first one's text for both
        zeros = [InfoMeasure(0.0, 2, 1), InfoMeasure(-0.0, 2, 1)] * 2
        induced = [
            (cause, Context(f"k{i}", 0, "c", "b", (FlowEvent(f"i{i}", 0, "c", "b", "n", m, "implicit", "k"),)))
            for i, m in enumerate(zeros)
        ]
        fh = io.StringIO()
        write_events_jsonl(SimulationResult([a], [], Ledger()), fh, induced)
        lines = fh.getvalue().splitlines()
        assert [json.loads(line)["cause"] for line in lines[1:]] == [helpers.context_dict(cause)] * 4
        assert ['"selective_sh": -0.0' in line for line in lines[1:]] == [False, True, False, True]
