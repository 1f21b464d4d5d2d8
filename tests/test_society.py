import json
import math

import pytest

from infoflow import (
    Context,
    DatumRecord,
    Entity,
    FactorState,
    FlowEvent,
    InfoMeasure,
    LogisticParams,
    Simulation,
    Society,
    bundle_contexts,
    decision_prob,
    ledger_report,
    simulate,
)
from infoflow.society import scenario_from_json_dict

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

    def test_empty_ledger_report(self):
        result = simulate(two_entity_scenario(ticks=0))
        assert ledger_report(result.ledger) == []

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            two_entity_scenario(budgets={"location": -1.0})


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
