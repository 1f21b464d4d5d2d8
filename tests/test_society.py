import io
import json
import math
import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infoflow import (
    BudgetStop,
    Context,
    DatumRecord,
    Entity,
    FactorState,
    FlowEvent,
    ImplicitChannel,
    InfoMeasure,
    Ledger,
    LogisticParams,
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
from infoflow.cli import _write
from infoflow.society import (
    FLOW_KINDS,
    _decision_table,
    scenario_from_json_dict,
    write_events_csv,
    write_events_jsonl,
    write_ledger_json,
)
import helpers
from helpers import scalar_simulation

LN3 = math.log(3)
LOG2_3 = math.log2(3)


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


class TestDecisionProb:
    def test_baseline_suppression(self):
        p = decision_prob(FactorState(), "a", "b", "d")
        assert p == pytest.approx(1 / (1 + math.exp(3)), abs=1e-12)

    def test_full_trust(self):
        f = FactorState(trust={("a", "b"): 1.0})
        assert decision_prob(f, "a", "b", "d") == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-12)

    def test_degenerate_gamma_suppresses_everything(self):
        params = LogisticParams(alpha=0.0, beta=0.0, gamma=700.0)
        assert decision_prob(FactorState(), "a", "b", "d", params) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_trust_and_incentive(self):
        import numpy as np

        rng = np.random.default_rng(4)
        for _ in range(50):
            t0, inc0 = rng.uniform(0, 1), rng.uniform(0, 4)
            bump_t, bump_i = rng.uniform(0, 1 - t0), rng.uniform(0, 3)
            base = decision_prob(
                FactorState(trust={("a", "b"): t0}, incentives={("a", "d"): inc0}), "a", "b", "d"
            )
            more_trust = decision_prob(
                FactorState(trust={("a", "b"): t0 + bump_t}, incentives={("a", "d"): inc0}),
                "a",
                "b",
                "d",
            )
            more_inc = decision_prob(
                FactorState(trust={("a", "b"): t0}, incentives={("a", "d"): inc0 + bump_i}),
                "a",
                "b",
                "d",
            )
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
    """Societies with trust in and from entities outside them, self-trust, tied and zero trust, and data-less entities."""
    ids = [f"e{k}" for k in range(draw(st.integers(2, 5)))]
    entities = [
        Entity(eid, tuple(DatumRecord(f"d{j}", "", eid, "conjunct") for j in range(draw(st.integers(0, 2)))))
        for eid in ids
    ]
    values = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1)
    names = st.sampled_from([*ids, "ghost"])
    trust = draw(st.dictionaries(st.tuples(names, names), values, max_size=12))
    trust |= {(ids[0], ids[0]): draw(values), (ids[0], "ghost"): 1.0, ("ghost", ids[1]): 1.0}
    incentives = draw(st.dictionaries(st.tuples(st.sampled_from(ids), st.sampled_from(["d0", "d1"])),
                                      st.floats(0, 5), max_size=6))
    weights = st.sampled_from([0.0, 4.0]) | st.floats(0, 10)
    logistic = LogisticParams(draw(weights), draw(weights), draw(st.floats(-10, 10)))
    return Society(tuple(entities), FactorState(trust, incentives), logistic=logistic)


class TestDecisionTable:
    @given(decision_societies())
    @settings(max_examples=150, deadline=None)
    def test_probabilities_equal_decision_prob_exactly(self, soc):
        blocks, p = _decision_table(soc)
        ids = [e.id for e in soc.entities]
        assert [(k, d) for k, d, _ in blocks] == [(k, r.datum) for k, e in enumerate(soc.entities) for r in e.data]
        expected = [
            decision_prob(soc.factors, ids[k], receiver, datum, soc.logistic)
            for k, datum, _ in blocks
            for receiver in ids
            if receiver != ids[k]
        ]
        assert p.tolist() == expected


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
        sim = Simulation(two_entity_scenario(seed=5, ticks=0))
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
        assert not ledger.would_exceed("a", "b", "age", 1e300)

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
        # equal trust values, an explicit zero and an entity outside the society
        friends = rng.choice([i for i in ids if i != eid], size=3, replace=False)
        trust[eid] = {str(f): float(rng.choice([0.0, 0.75, 1.0])) for f in friends} | {"ghost": 1.0}
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


class TestBatchedDraws:
    @pytest.mark.parametrize("seed", range(8))
    def test_records_equal_the_per_candidate_loop(self, seed):
        doc = random_scenario_doc(seed)
        expected_records, expected_ledger = scalar_simulation(doc)
        result = simulate(scenario_from_json_dict(doc))
        assert result.records() == expected_records
        assert result.ledger.cumulative == expected_ledger

    def test_scenarios_exercise_stops_and_both_kinds(self):
        records = [r for seed in range(8) for r in scalar_simulation(random_scenario_doc(seed))[0]]
        kinds = {r.get("kind", r["record"]) for r in records}
        assert kinds == {"explicit", "implicit", "budget-stop"}
        assert len({r["t"] for r in records}) > 1

    def test_implicit_channels_are_read_when_the_simulation_is_built(self):
        camera = [{"subject": "alice", "observer": "camera", "datum": "location", "p": 1.0}]
        scenario = two_entity_scenario(ticks=3, implicit_channels=camera)
        sim = Simulation(scenario)
        # a certain channel added to the running society never fires
        added = ImplicitChannel("alice", "bob", "location", 1.0)
        scenario.society.implicit_channels = (*scenario.society.implicit_channels, added)
        for _ in range(3):
            sim.step()
        implicit = [e for e in sim.events if e.kind == "implicit"]
        assert {(e.sender, e.receiver) for e in implicit} == {("alice", "camera")}
        expected = simulate(two_entity_scenario(ticks=3, implicit_channels=camera))
        assert [e.id for e in sim.events] == [e.id for e in expected.events]
        # the channel's events share the one measure built with the simulation
        assert len({id(e.measure) for e in implicit}) == 1 < len(implicit)

    def test_factors_are_read_when_the_simulation_is_built(self):
        scenario = two_entity_scenario(seed=2, ticks=4)
        sim = Simulation(scenario)
        scenario.society.factors = FactorState()  # the run keeps the factors it was built with
        for _ in range(4):
            sim.step()
        expected = simulate(two_entity_scenario(seed=2, ticks=4))
        assert [e.id for e in sim.events] == [e.id for e in expected.events]


class TestBundleContexts:
    def test_single_event_single_context(self):
        ctxs = bundle_contexts([flow(0, "a", "b", "d")])
        assert len(ctxs) == 1
        assert ctxs[0].flow_ids == ["e:0:a>b:d"]

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
        seen = [fid for c in ctxs for fid in c.flow_ids]
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

    def test_unsorted_events_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            bundle_contexts([flow(3, "a", "b", "d"), flow(1, "a", "b", "d")])

    def test_context_requires_shared_pair(self):
        with pytest.raises(ValueError, match="share sender"):
            Context("c", 0, "a", "b", (flow(0, "a", "x", "d"),))


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
        twins = json.loads(resources.files("infoflow.data").joinpath("twins.json").read_text())
        twins["attribution"]["treshold"] = 1
        path = tmp_path / "twins.json"
        path.write_text(json.dumps(twins))
        with pytest.raises(ValueError, match=r"unknown attribution keys: \['treshold'\]"):
            load_scenario(path)

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

    def test_trust_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="trust"):
            two_entity_scenario(trust={"alice": {"bob": 1.5}})

    def test_society_needs_two_entities(self):
        with pytest.raises(ValueError, match="two entities"):
            Society(entities=(Entity("only"),))

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
        ],
    )
    def test_numbers_are_checked_not_converted(self, overrides, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            two_entity_scenario(**overrides)

    def test_json_integers_are_stored_as_floats(self):
        scenario = two_entity_scenario(trust={"alice": {"bob": 1}}, budgets={"location": 2},
                                       logistic={"alpha": 4, "beta": 1, "gamma": 3})
        soc = scenario.society
        values = [soc.factors.trust[("alice", "bob")], soc.budgets["location"], soc.logistic.alpha]
        assert values == [1.0, 2.0, 4.0] and all(type(v) is float for v in values)


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
        assert fh.getvalue() == written(helpers.write_events_csv, records)
        assert written(_write, ledger_report(result.ledger), "csv") == written(_write, rows, "csv")
        stdout = {"events": result.records(induced), "ledger": ledger_report(result.ledger)}
        assert written(_write, stdout, "json") == dumps({"events": records, "ledger": rows}, indent=2) + "\n"

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
