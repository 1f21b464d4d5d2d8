import collections
import functools
import itertools
import json
import logging
import math
import re
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoflow import (
    BayesNet,
    CapacityError,
    FlowEvent,
    InfoMeasure,
    Node,
    attribute_flows,
    ballot_scenario,
    bundle_contexts,
    conditional_mi,
    joint,
    leakage_profile,
    fork_collider_graph,
    twins_scenario,
)
import infoflow
from infoflow import causal, measures
from infoflow._kernels import entropy_bits, mi_bits
from infoflow.causal import STATE_SPACE_CAP, load_net, net_from_json_dict, net_to_json_dict
from infoflow.society import scenario_from_json_dict, simulate
from infoflow.cli import main
from helpers import entropy_cells, mi_cells, naive_conditional_mi, naive_net_joint, naive_pair_mi, sum_marginal


def binary_root(name, p1=0.5):
    return Node(name, ("0", "1"), (), np.array([1 - p1, p1]))


def copy_node(name, parent):
    return Node(name, ("0", "1"), (parent,), np.array([[1.0, 0.0], [0.0, 1.0]]))


def random_small_net(rng, n_nodes=5):
    """A random DAG of 1- to 3-state nodes, each with up to 3 parents in random declared order."""
    nodes = []
    for k in range(n_nodes):
        card = int(rng.integers(1, 4))
        n_par = int(rng.integers(0, min(k, 3) + 1))
        pars = rng.choice(k, size=n_par, replace=False).tolist()
        par_names = tuple(nodes[p].name for p in pars)
        rows = int(np.prod([nodes[p].card for p in pars])) if pars else 1
        cpt = rng.dirichlet(np.ones(card), size=rows)
        nodes.append(Node(f"N{k}", tuple(str(s) for s in range(card)), par_names, cpt))
    return BayesNet(tuple(nodes))


def explicit_event(sender, receiver, datum, t=0):
    return FlowEvent(
        id=f"x:{t}:{sender}>{receiver}:{datum}",
        t=t,
        sender=sender,
        receiver=receiver,
        datum=datum,
        measure=InfoMeasure(1.0, 2, 1),
        kind="explicit",
        context_id=f"c:{t}:{sender}>{receiver}",
    )


class TestJoint:
    def test_single_root(self):
        net = BayesNet((binary_root("A"),))
        assert np.allclose(joint(net).probs, [0.5, 0.5])

    def test_deterministic_chain_is_diagonal(self):
        net = BayesNet((binary_root("X"), copy_node("Y", "X")))
        assert np.allclose(joint(net).probs, np.eye(2) / 2)

    def test_fork_collider_graph_sums_to_one(self):
        dense = joint(fork_collider_graph(seed=42))
        assert dense.probs.sum() == pytest.approx(1.0, abs=1e-6)
        assert dense.probs.size == 2**9

    def test_matches_naive_factor_product(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            net = random_small_net(rng, int(rng.integers(1, 8)))
            dense = joint(net)
            naive = naive_net_joint(net)
            assert dense.probs.shape == net.cards
            assert list(naive) == list(itertools.product(*(range(c) for c in net.cards)))
            assert np.array_equal(dense.probs.reshape(-1), np.array(list(naive.values())))

    def test_peak_memory_stays_below_one_and_a_half_results(self):
        # a 20-node binary chain: 8 MiB of joint; the running product's one
        # temporary is the 4 MiB product of the first 19 factors
        nodes = [binary_root("C0", 0.3)]
        for k in range(1, 20):
            nodes.append(Node(f"C{k}", ("0", "1"), (f"C{k - 1}",), np.array([[0.9, 0.1], [0.2, 0.8]])))
        net = BayesNet(tuple(nodes))
        tracemalloc.start()
        try:
            dense = joint(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dense.probs.nbytes == 8 * 2**20
        assert peak < 1.6 * dense.probs.nbytes

    def test_joint_logs_states_multiply_calls_and_seconds_at_debug(self, caplog):
        # the tally's CPT has 11,264 cells: a step of one multiply per CPT cell would log thousands
        net, _ = ballot_scenario(10)
        with caplog.at_level(logging.DEBUG, logger="infoflow.causal"):
            joint(net)
        [message] = [r.getMessage() for r in caplog.records if r.name == "infoflow.causal"]
        calls = re.fullmatch(r"joint: 11264 states, (\d+) multiply calls in \d+\.\d{3} s", message)
        assert calls and int(calls[1]) <= 21  # at most two per voter and one for the tally

    def test_capacity_guard_names_size(self):
        net = BayesNet(tuple(binary_root(f"R{i}") for i in range(23)))
        with pytest.raises(CapacityError, match=str(2**23)):
            joint(net)

    def test_joint_beyond_the_sum_tolerance_is_refused(self):
        # each single-state row sums to 1 + 9e-10, within its own 1e-9; 1,200 of them multiply past 1e-6
        net = BayesNet(tuple(Node(f"N{i}", ("s",), (), [1 + 9e-10]) for i in range(1200)))
        with pytest.raises(ValueError, match=r"joint sums to 1\.00000108\d*, outside tolerance"):
            joint(net)

    def test_capacity_error_is_one_class(self):
        assert causal.CapacityError is measures.CapacityError is infoflow.CapacityError is CapacityError

    def test_requires_topological_declaration(self):
        with pytest.raises(ValueError, match="topological"):
            BayesNet((copy_node("Y", "X"), binary_root("X")))

    def test_rejects_bad_cpt_shape(self):
        with pytest.raises(ValueError, match="rows"):
            BayesNet(
                (
                    binary_root("A"),
                    Node("B", ("0", "1"), ("A",), np.array([[0.5, 0.5]])),
                )
            )


class TestMarginal:
    def test_equals_one_ndarray_sum_bit_for_bit(self):
        # kept sets with and without the innermost axis that has more than one state,
        # names in any order: the einsum path and the sum path alike
        rng = np.random.default_rng(23)
        innermost = 0
        for _ in range(300):
            net = random_small_net(rng, int(rng.integers(1, 8)))
            dense = joint(net)
            n = len(net.names)
            keep = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist()
            live = [i for i, c in enumerate(net.cards) if c > 1]
            if live and live[-1] not in keep and rng.random() < 0.5:
                keep.insert(int(rng.integers(len(keep) + 1)), live[-1])
            innermost += bool(live) and live[-1] in keep
            got = dense.marginal(*(net.names[i] for i in keep))
            expected = sum_marginal(dense.probs, keep)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)
        assert 100 < innermost < 250

    def test_outer_kept_axis_between_summed_runs_equals_one_ndarray_sum_bit_for_bit(self):
        # marginals that keep the innermost multi-state axis, as leakage_profile's do; counts the kept sets
        # whose outer multi-state axis has a summed multi-state axis before it and another before the next kept one
        rng = np.random.default_rng(31)
        between = 0
        for _ in range(300):
            net = random_small_net(rng, int(rng.integers(6, 11)))
            while sum(c > 1 for c in net.cards) < 4:
                net = random_small_net(rng, int(rng.integers(6, 11)))
            dense = joint(net)
            live = [i for i, c in enumerate(net.cards) if c > 1]
            others = [i for i in range(len(net.cards)) if i != live[-1]]
            keep = rng.choice(others, size=int(rng.integers(1, 4)), replace=False).tolist()
            keep.insert(int(rng.integers(len(keep) + 1)), live[-1])
            kept_live = sorted(i for i in keep if i in live)
            summed = [i for i in live if i not in keep]
            if len(kept_live) > 1:
                outer, after = kept_live[:2]
                between += any(i < outer for i in summed) and any(outer < i < after for i in summed)
            got = dense.marginal(*(net.names[i] for i in keep))
            expected = sum_marginal(dense.probs, keep)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)
        assert between > 90

    def test_leakage_profile_equals_one_from_ndarray_sum_marginals(self):
        # 2^8 * 3^7 = 559872 cells; each pair marginal keeps the message, the last node
        rng = np.random.default_rng(37)
        nodes = []
        for k in range(15):
            card = 2 if k % 2 == 0 else 3
            pars = rng.choice(k, size=min(k, int(rng.integers(1, 3))), replace=False).tolist()
            rows = math.prod(nodes[p].card for p in pars)
            cpt = rng.dirichlet(np.ones(card), size=rows)
            nodes.append(Node(f"N{k}", tuple(str(v) for v in range(card)), tuple(nodes[p].name for p in pars), cpt))
        net = BayesNet(tuple(nodes))
        assert net.state_space_size() >= 2**16
        dense = joint(net)
        last = len(net.nodes) - 1
        pm = sum_marginal(dense.probs, [last])
        obs = int(np.argmax(pm))
        rows = []
        for v in range(last):
            m2 = np.ascontiguousarray(sum_marginal(dense.probs, [last, v]))
            cond = np.ascontiguousarray(m2[obs] / pm[obs])
            drop = entropy_bits(m2.sum(axis=0)) - entropy_bits(cond)
            rows.append({"node": net.names[v], "mi_sh": mi_bits(m2), "posterior_entropy_drop_sh": drop})
        rows.sort(key=lambda r: (-r["mi_sh"], r["node"]))
        profile = leakage_profile(net, net.names[last])
        assert profile.observed_value == str(obs)
        assert profile.rows_sorted() == rows

    def test_large_joint_marginals_equal_one_ndarray_sum(self):
        rng = np.random.default_rng(29)
        nodes = [Node("R", ("0", "1", "2"), (), rng.dirichlet(np.ones(3)))]
        for k in range(1, 16):
            pars = rng.choice(k, size=min(k, 2), replace=False)
            rows = math.prod(nodes[p].card for p in pars)
            cpt = rng.dirichlet(np.ones(2), size=rows)
            nodes.append(Node(f"N{k}", ("0", "1"), tuple(nodes[p].name for p in pars), cpt))
        dense = joint(BayesNet(tuple(nodes)))
        names = dense.names
        for keep in ([15], [15, 0], [3, 15], [15, 14], [7, 15, 2], [0], [4, 9]):
            got = dense.marginal(*(names[i] for i in keep))
            assert np.array_equal(got, sum_marginal(dense.probs, keep))

    def test_repeated_node_is_refused_by_name(self):
        dense = joint(fork_collider_graph(seed=42))
        with pytest.raises(ValueError, match="^duplicate nodes in marginal: 'M'$"):
            dense.marginal("M", "A", "M")
        # a conditioning set that holds a queried node reaches it too
        twins = joint(twins_scenario()[0])
        with pytest.raises(ValueError, match="^duplicate nodes in marginal: 'S2'$"):
            conditional_mi(twins, "Z", "S2", ["S2"])

    def test_unknown_node_is_refused_by_name(self):
        twins = joint(twins_scenario()[0])
        with pytest.raises(ValueError, match="^unknown node 'Q'$"):
            twins.marginal("S1", "Q")
        with pytest.raises(ValueError, match="^unknown node 'Q'$"):
            conditional_mi(twins, "Z", "S2", ["Q"])

    def test_net_beyond_the_einsum_label_count_profiles(self):
        # 60 nodes, 51 of them single-state: the merged view drops those axes
        nodes = [binary_root("B0", 0.3)]
        for k in range(1, 60):
            prev = nodes[-1]
            if k % 8 == 3:
                binary = next(n for n in reversed(nodes) if n.card == 2)
                cpt = np.array([[0.8, 0.2], [0.25, 0.75]])
                nodes.append(Node(f"B{k}", ("0", "1"), (binary.name,), cpt))
            else:
                nodes.append(Node(f"U{k}", ("u",), (prev.name,), np.ones((prev.card, 1))))
        net = BayesNet(tuple(nodes))
        assert len(net.nodes) == 60 and sum(c == 2 for c in net.cards) == 9
        profile = leakage_profile(net, "B59")
        assert len(profile.per_node_mi) == 59
        for node in net.nodes[:-1]:
            mi = profile.per_node_mi[node.name]
            if node.card == 1:
                assert mi == 0.0
            elif node.name in ("B0", "B51"):
                assert mi == pytest.approx(naive_pair_mi(net, "B59", node.name), abs=1e-12)


class TestLeakageProfile:
    def test_disconnected_node_leaks_nothing(self):
        net = BayesNet((binary_root("X"), copy_node("M", "X"), binary_root("H", 0.4)))
        prof = leakage_profile(net, "M")
        assert prof.per_node_mi["H"] < 1e-9

    def test_deterministic_copy_reveals_everything(self):
        net = BayesNet((Node("X", ("0", "1"), (), np.array([0.7, 0.3])), copy_node("M", "X")))
        prof = leakage_profile(net, "M")
        assert prof.per_node_mi["X"] == pytest.approx(entropy_cells([0.7, 0.3]), abs=1e-12)

    def test_collider_keeps_parents_independent(self):
        rng = np.random.default_rng(5)
        net = BayesNet(
            (
                binary_root("A", 0.3),
                binary_root("B", 0.6),
                Node("C", ("0", "1"), ("A", "B"), rng.dirichlet(np.ones(2), size=4)),
            )
        )
        assert leakage_profile(net, "A").per_node_mi["B"] < 1e-9

    def test_fork_collider_graph_all_nodes_leak(self):
        prof = leakage_profile(fork_collider_graph(seed=42), "M")
        assert set(prof.per_node_mi) == set("ABCDEFG") | {"X"}
        assert all(v > 1e-6 for v in prof.per_node_mi.values())

    def test_fork_collider_graph_mi_matches_naive_oracle(self):
        net = fork_collider_graph(seed=42)
        prof = leakage_profile(net, "M")
        for v in ("A", "D", "G", "X"):
            assert prof.per_node_mi[v] == pytest.approx(naive_pair_mi(net, "M", v), abs=1e-12)

    def test_mi_bounded_by_marginal_entropies(self):
        net = fork_collider_graph(seed=42)
        dense = joint(net)
        prof = leakage_profile(net, "M")
        h_m = entropy_cells(dense.marginal("M"))
        for v, mi in prof.per_node_mi.items():
            assert mi <= min(h_m, entropy_cells(dense.marginal(v))) + 1e-9

    def test_names_are_checked_before_enumeration(self):
        # a typo is an input error even on a net beyond the state-space cap
        net = BayesNet(tuple(binary_root(f"R{i}") for i in range(23)))
        with pytest.raises(ValueError, match="unknown node"):
            leakage_profile(net, "nope")

    def test_sorted_rows_descend(self):
        rows = leakage_profile(fork_collider_graph(seed=42), "M").rows_sorted()
        mis = [r["mi_sh"] for r in rows]
        assert mis == sorted(mis, reverse=True)


class TestTwins:
    def test_identical_branch_pins_sibling(self):
        _, report = twins_scenario()
        assert report["posterior_entropy_s2_identical_sh"] == pytest.approx(0.0, abs=1e-12)

    def test_fraternal_branch_stays_uniform(self):
        _, report = twins_scenario()
        assert report["posterior_entropy_s2_fraternal_sh"] == pytest.approx(1.0, abs=1e-12)

    def test_conditional_mi_against_eight_state_oracle(self):
        # brute force over the 8 joint states, independent of the library
        joint_cells = {}
        for z, s1, s2 in itertools.product(range(2), repeat=3):
            p_s2 = (1.0 if s2 == s1 else 0.0) if z == 0 else 0.5
            joint_cells[(z, s1, s2)] = 0.5 * 0.5 * p_s2
        expected = 0.0
        for s1 in range(2):
            p_s1 = sum(p for (z, s, s2), p in joint_cells.items() if s == s1)
            cond = {
                (z, s2): joint_cells[(z, s1, s2)] / p_s1
                for z in range(2)
                for s2 in range(2)
            }
            expected += p_s1 * mi_cells(cond)
        _, report = twins_scenario()
        assert report["mi_zygosity_s2_given_s1_sh"] == pytest.approx(expected, abs=1e-12)
        assert report["mi_zygosity_s2_given_s1_sh"] == pytest.approx(0.3112781244591328, abs=1e-9)

    def test_zygosity_marginally_independent_of_sibling(self):
        net, _ = twins_scenario()
        assert conditional_mi(joint(net), "Z", "S2") < 1e-12

    def test_rejects_degenerate_prior(self):
        with pytest.raises(ValueError):
            twins_scenario(q=0.0)

    @pytest.mark.parametrize("q", [1e-9, 0.1, 0.3, 0.5, 2 / 3, 0.9, 1 - 1e-9])
    def test_the_joint_is_its_marginal_over_every_node_bit_for_bit(self, q):
        # the report indexes dense.probs by (Z, S1, S2)
        dense = joint(twins_scenario(q)[0])
        assert dense.names == ("Z", "S1", "S2")
        assert np.array_equal(dense.marginal(*dense.names).view(np.uint64), dense.probs.view(np.uint64))


class TestConditionalMI:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_plain_python_oracle(self, data):
        net = random_small_net(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                               n_nodes=data.draw(st.integers(2, 6)))
        a, b = data.draw(st.lists(st.sampled_from(net.names), min_size=2, max_size=2, unique=True))
        others = [n for n in net.names if n not in (a, b)]
        cond = data.draw(st.lists(st.sampled_from(others), max_size=5)) if others else []
        got = conditional_mi(joint(net), a, b, cond)
        assert got == pytest.approx(naive_conditional_mi(net, a, b, cond), abs=1e-12)

    def test_a_repeated_conditioning_name_counts_once(self):
        dense = joint(twins_scenario()[0])
        once = conditional_mi(dense, "Z", "S2", ["S1"])
        assert once == 0.31127812445913283
        assert conditional_mi(dense, "Z", "S2", ["S1", "S1"]) == once
        assert conditional_mi(dense, "S1", "S2", ["Z", "Z", "Z"]) == conditional_mi(dense, "S1", "S2", ["Z"])


class TestBallot:
    def test_three_voters_against_enumeration(self):
        # enumerate the 8 voter configurations by hand
        cells = {}
        for cfg in itertools.product(range(2), repeat=3):
            cells[(sum(cfg), cfg[0])] = cells.get((sum(cfg), cfg[0]), 0.0) + 1 / 8
        _, report = ballot_scenario(3)
        assert report["i_tally_v1_sh"] == pytest.approx(mi_cells(cells), abs=1e-12)
        assert report["i_tally_v1_sh"] == pytest.approx(0.311278, abs=1e-6)

    def test_unanimous_tally_pins_every_vote(self):
        _, report = ballot_scenario(3)
        assert report["posterior_v1"]["3"]["entropy_sh"] == pytest.approx(0.0, abs=1e-12)
        assert report["posterior_v1"]["0"]["entropy_sh"] == pytest.approx(0.0, abs=1e-12)

    def test_posterior_probability_at_tally_one(self):
        _, report = ballot_scenario(3)
        assert report["posterior_v1"]["1"]["p_v1_one"] == pytest.approx(1 / 3, abs=1e-12)

    def test_chain_rule_identity(self):
        for n in (2, 3, 5):
            _, report = ballot_scenario(n)
            assert report["i_tally_v1_sh"] + report["h_v1_given_tally_sh"] == pytest.approx(
                1.0, abs=1e-9
            )

    def test_net_tally_is_deterministic_sum(self):
        net, _ = ballot_scenario(3)
        dense = joint(net)
        m = dense.marginal("V1", "V2", "V3", "T")
        for v1, v2, v3 in itertools.product(range(2), repeat=3):
            row = m[v1, v2, v3]
            assert row[v1 + v2 + v3] == pytest.approx(0.125, abs=1e-12)
            assert row.sum() == pytest.approx(0.125, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 18))
    def test_tally_table_is_the_enumerated_marginal_bit_for_bit(self, n, monkeypatch):
        tables = []
        monkeypatch.setattr(causal, "mi_bits", lambda table: tables.append(table) or mi_bits(table))
        net, report = ballot_scenario(n)
        oracle = np.ascontiguousarray(joint(net).marginal("T", "V1"))
        [table] = tables
        assert table.dtype == oracle.dtype and table.shape == oracle.shape == (n + 1, 2)
        assert np.array_equal(table.view(np.uint64), oracle.view(np.uint64))
        assert report["i_tally_v1_sh"] == mi_bits(oracle)

    def test_report_enumerates_no_joint(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="infoflow.causal"):
            ballot_scenario(10)
        assert not [r for r in caplog.records if r.getMessage().startswith("joint: ")]

    def test_capacity_and_domain_errors(self):
        with pytest.raises(CapacityError):
            ballot_scenario(21)
        with pytest.raises(ValueError):
            ballot_scenario(1)

    def test_state_space_cap_decides_the_voter_limit(self):
        # the net holds 2^n (n+1) states: 17 voters fit under 2^22, 18 do not
        net, _ = ballot_scenario(17)
        assert net.state_space_size() == 2**17 * 18 <= STATE_SPACE_CAP
        with pytest.raises(CapacityError, match=rf"2\^18\*19 .* {STATE_SPACE_CAP}"):
            ballot_scenario(18)


class TestAttributeFlows:
    def test_twins_flows_induce_sibling_context(self):
        net, _ = twins_scenario()
        events = [
            explicit_event("twin1", "receiver", "S1"),
            explicit_event("twin1", "receiver", "Z"),
        ]
        ownership = {"S1": "twin1", "Z": "twin2", "S2": "twin2"}
        pairs = attribute_flows(events, net, ownership)
        assert len(pairs) == 2
        for cause, induced in pairs:
            assert induced.sender == "twin2"
            assert induced.receiver == "receiver"
            assert all(f.kind == "implicit" for f in induced.flows)
        # the ancestry reveal leaks the sibling trait only given the first message
        leak = {f.datum: f.measure.selective_sh for f in pairs[1][1].flows}
        assert leak["S2"] == pytest.approx(0.3112781244591328, abs=1e-9)

    def test_disconnected_message_induces_nothing(self):
        net = BayesNet((binary_root("X"), copy_node("M", "X"), binary_root("H")))
        pairs = attribute_flows(
            [explicit_event("a", "b", "H")], net, ownership={"X": "c", "M": "a"}
        )
        assert pairs == []

    def test_ballot_release_induces_one_context_per_voter(self):
        net, _ = ballot_scenario(4)
        ownership = {f"V{i + 1}": f"voter{i + 1}" for i in range(4)}
        pairs = attribute_flows([explicit_event("authority", "public", "T")], net, ownership)
        assert len(pairs) == 4
        assert sorted(p[1].sender for p in pairs) == [f"voter{i + 1}" for i in range(4)]

    def test_sender_owned_nodes_induce_nothing(self):
        net, _ = twins_scenario()
        events = [explicit_event("twin1", "receiver", "Z")]
        pairs = attribute_flows(events, net, ownership={"S1": "twin1", "Z": "twin1", "S2": "twin1"})
        assert pairs == []

    def test_receiver_owned_nodes_induce_nothing(self):
        net, _ = twins_scenario()
        events = [explicit_event("twin1", "receiver", "Z")]
        pairs = attribute_flows(events, net, ownership={"S2": "receiver"})
        assert pairs == []

    def test_unknown_node_rejected(self):
        net, _ = twins_scenario()
        with pytest.raises(ValueError, match="unknown node"):
            attribute_flows([explicit_event("a", "b", "nope")], net, ownership={})
        with pytest.raises(ValueError, match="unknown node"):
            attribute_flows([], net, ownership={"nope": "a"})

    def test_unknown_datum_without_a_node_map_is_refused_before_any_measure(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a flow was measured before every datum was resolved")

        net, _ = twins_scenario()
        monkeypatch.setattr(causal, "conditional_mi", refuse)
        events = [explicit_event("twin1", "receiver", "S1"), explicit_event("twin1", "receiver", "nope")]
        with pytest.raises(ValueError, match="unknown node 'nope'"):
            attribute_flows(events, net, {"S2": "twin2"})

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_threshold_outside_0_inf_rejected(self, threshold):
        net, _ = twins_scenario()
        events = [explicit_event("twin1", "receiver", "S1")]
        with pytest.raises(ValueError, match="attribution threshold must be finite and >= 0"):
            attribute_flows(events, net, {"S2": "twin2"}, threshold=threshold)

    @pytest.mark.parametrize("threshold, window, message", [
        (True, 1, "attribution threshold must be a number, got True"),
        ("1e-3", 1, "attribution threshold must be a number, got '1e-3'"),
        (None, 1, "attribution threshold must be a number, got None"),
        (1e-6, 2.5, "window must be an integer, got 2.5"),
    ])
    def test_threshold_and_window_of_another_type_rejected(self, threshold, window, message):
        net, _ = twins_scenario()
        events = [explicit_event("twin1", "receiver", "S1")]
        with pytest.raises(ValueError) as refused:
            attribute_flows(events, net, {"S2": "twin2"}, threshold=threshold, window=window)
        assert str(refused.value) == message

    def test_datum_missing_from_the_node_map_is_skipped(self):
        # the unmapped flow neither induces a context nor joins the conditioning of the later flow
        net, _ = twins_scenario()
        node_of, ownership = {"gender": "S1", "zygosity": "Z"}, {"S2": "twin2"}

        def leaks(data):
            events = [explicit_event("twin1", "receiver", d) for d in data]
            pairs = attribute_flows(events, net, ownership, node_of=node_of)
            return [(ctx.id, [(f.datum, f.measure) for f in ctx.flows]) for _, ctx in pairs]

        assert leaks(["gender", "shoe_size", "zygosity"]) == leaks(["gender", "zygosity"]) != []
        assert leaks(["shoe_size"]) == []

    def test_implicit_flows_are_skipped(self):
        net, _ = twins_scenario()
        gender, zygosity = explicit_event("twin1", "receiver", "S1"), explicit_event("twin1", "receiver", "Z")
        seen = FlowEvent("i:0:twin1>receiver:Z", 0, "twin1", "receiver", "Z", zygosity.measure, "implicit",
                         zygosity.context_id)
        ownership = {"S2": "twin2"}
        assert attribute_flows([seen], net, ownership) == []
        only_gender = pair_summary(attribute_flows([gender], net, ownership))
        assert pair_summary(attribute_flows([gender, seen], net, ownership)) == only_gender != []

    def test_node_mapping_skips_unmodeled_data(self):
        net, _ = twins_scenario()
        events = [explicit_event("twin1", "receiver", "shoe_size")]
        pairs = attribute_flows(events, net, ownership={"S2": "twin2"}, node_of={})
        assert pairs == []


def repeated_flows_log():
    """Explicit flows in six contexts whose message sequences repeat across contexts."""
    sequences = [
        (0, "s1", "r1", ["m", "x"]),
        (0, "s2", "r1", ["m", "x"]),
        (0, "alice", "r2", ["x", "g", "unmodelled"]),
        (1, "s1", "r1", ["x", "m"]),
        (1, "s2", "r2", ["m", "x", "g"]),
        (2, "s1", "r2", ["m"]),
    ]
    return [explicit_event(s, r, d, t=t) for t, s, r, data in sequences for d in data]


REPEATED_OWNERSHIP = {"A": "alice", "B": "bob", "C": "carol", "D": "dave"}
REPEATED_NODE_OF = {"m": "M", "x": "X", "g": "G"}


def per_flow_attribution(events, net, ownership, node_of, threshold=1e-6, cmi=None):
    """Induced pairs from one fresh measure per flow and owned node, and every key evaluated.

    ``cmi(a, b, given)`` is the measure, by default ``conditional_mi`` on the net's dense joint. A message
    already in the context is measured too: only a measure that allows it in ``given`` can take one.
    """
    if cmi is None:
        dense = joint(net)
        cmi = functools.partial(conditional_mi, dense)
    pairs, keys = [], []
    for ctx in bundle_contexts(events):
        conditioning = []
        for flow in ctx.flows:
            m = node_of.get(flow.datum)
            if flow.kind != "explicit" or m is None:
                continue
            leaks = {}
            for node in net.nodes:
                owner = ownership.get(node.name)
                if node.name == m or owner is None or owner in (flow.sender, flow.receiver):
                    continue
                keys.append((m, node.name, tuple(conditioning)))
                mi = cmi(m, node.name, tuple(conditioning))
                if mi > threshold:
                    leaks.setdefault(owner, []).append((node.name, mi))
            for owner, leaked in leaks.items():
                induced = f"{flow.id}~{owner}"
                pairs.append((ctx.id, induced, owner, flow.receiver, [(f"{induced}:{n}", n, mi) for n, mi in leaked]))
            if m not in conditioning:
                conditioning.append(m)
    return pairs, keys


def pair_summary(pairs):
    return [
        (cause.id, ctx.id, ctx.sender, ctx.receiver, [(f.id, f.datum, f.measure.selective_sh) for f in ctx.flows])
        for cause, ctx in pairs
    ]


def assert_pairs_close(pairs, expected):
    """``pair_summary(pairs)`` equals ``expected`` with each leak within 1e-12 Sh, the other fields exactly."""
    got = pair_summary(pairs)

    def fields(summary):
        return [(*head, [(fid, name) for fid, name, _ in flows]) for *head, flows in summary]

    assert fields(got) == fields(expected)
    leaks = [mi for *_, flows in expected for _, _, mi in flows]
    assert [mi for *_, flows in got for _, _, mi in flows] == pytest.approx(leaks, abs=1e-12)


class TestAttributionMemo:
    def test_each_distinct_key_is_evaluated_once(self, monkeypatch):
        net, events = fork_collider_graph(seed=42), repeated_flows_log()
        expected, keys = per_flow_attribution(events, net, REPEATED_OWNERSHIP, REPEATED_NODE_OF)
        calls = collections.Counter()

        def counting(dense, a, b, given=()):
            calls[a, b, tuple(given)] += 1
            return conditional_mi(dense, a, b, given)

        monkeypatch.setattr(causal, "conditional_mi", counting)
        pairs = attribute_flows(events, net, REPEATED_OWNERSHIP, node_of=REPEATED_NODE_OF)
        assert len(keys) > len(set(keys))  # the log repeats keys, so the memo has work
        assert calls == collections.Counter(set(keys))
        assert expected and pair_summary(pairs) == expected

    @pytest.mark.parametrize("ownership", [{}, {"A": "alice"}])
    def test_unowned_nodes_are_never_evaluated(self, ownership, monkeypatch):
        net, events = fork_collider_graph(seed=42), repeated_flows_log()
        nodes = collections.Counter()

        def counting(dense, a, b, given=()):
            nodes[b] += 1
            return conditional_mi(dense, a, b, given)

        monkeypatch.setattr(causal, "conditional_mi", counting)
        attribute_flows(events, net, ownership, node_of=REPEATED_NODE_OF)
        assert set(nodes) == set(ownership)

    def test_below_threshold_repeats_are_not_evaluated_again(self, monkeypatch):
        net, events = fork_collider_graph(seed=42), repeated_flows_log()
        _, keys = per_flow_attribution(events, net, REPEATED_OWNERSHIP, REPEATED_NODE_OF)
        dense = joint(net)
        mis = {key: conditional_mi(dense, *key) for key in set(keys)}
        threshold = sorted(mis.values())[len(mis) // 2]
        below = [key for key in keys if mis[key] <= threshold]
        assert len(below) > len(set(below))  # keys at or below the threshold repeat
        expected, _ = per_flow_attribution(events, net, REPEATED_OWNERSHIP, REPEATED_NODE_OF, threshold)
        calls = collections.Counter()

        def counting(dense, a, b, given=()):
            calls[a, b, tuple(given)] += 1
            return conditional_mi(dense, a, b, given)

        monkeypatch.setattr(causal, "conditional_mi", counting)
        pairs = attribute_flows(events, net, REPEATED_OWNERSHIP, threshold=threshold, node_of=REPEATED_NODE_OF)
        assert calls == collections.Counter(set(keys))
        assert expected and pair_summary(pairs) == expected

    def test_induced_flows_of_one_key_share_one_measure(self):
        net, events = fork_collider_graph(seed=42), repeated_flows_log()
        _, keys = per_flow_attribution(events, net, REPEATED_OWNERSHIP, REPEATED_NODE_OF)
        dense = joint(net)
        leaking = {key for key in keys if conditional_mi(dense, *key) > 1e-6}
        pairs = attribute_flows(events, net, REPEATED_OWNERSHIP, node_of=REPEATED_NODE_OF)
        flows = [f for _, ctx in pairs for f in ctx.flows]
        assert len({id(f.measure) for f in flows}) == len(leaking) < len(flows)
        assert all(f.measure == InfoMeasure(f.measure.selective_sh, net.node(f.datum).card, 1) for f in flows)

    def test_pairs_equal_the_per_flow_oracle_on_the_twins_scenario(self):
        doc = json.loads(resources.files("infoflow.data").joinpath("twins.json").read_text(encoding="utf-8"))
        scenario = scenario_from_json_dict({**doc, "ticks": 12})
        net = net_from_json_dict(doc["attribution"]["net"])
        ownership, node_of = doc["attribution"]["ownership"], doc["attribution"]["message_nodes"]
        events = simulate(scenario).events
        expected, keys = per_flow_attribution(events, net, ownership, node_of)
        assert expected and len(keys) > len(set(keys))
        assert pair_summary(attribute_flows(events, net, ownership, node_of=node_of)) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_pairs_equal_the_per_flow_oracle_on_random_small_nets(self, seed):
        rng = np.random.default_rng(seed)
        net = random_small_net(rng, n_nodes=int(rng.integers(3, 7)))
        names = rng.permutation([node.name for node in net.nodes]).tolist()
        # messages come from unowned nodes and may repeat within a context; an owned node both
        # measured and conditioned on is conditional_mi's repeated-node refusal (ROADMAP item 1)
        split = int(rng.integers(1, len(names)))
        messages, entities = names[:split], ["a", "b", "c", "d"]
        ownership = {name: entities[int(rng.integers(4))] for name in names[split:]}
        pairs = list(itertools.permutations(entities, 2))
        events = []
        for t in range(3):
            for p in rng.choice(len(pairs), size=int(rng.integers(1, 5)), replace=False).tolist():
                sent = rng.choice(messages, size=int(rng.integers(1, split + 3))).tolist()
                events += [explicit_event(*pairs[p], name, t=t) for name in sent]
        node_of = {name: name for name in names}
        threshold = [1e-6, 0.05][seed % 2]
        cmi = functools.cache(functools.partial(naive_conditional_mi, net))
        expected, keys = per_flow_attribution(events, net, ownership, node_of, threshold, cmi=cmi)
        assert any(m in cond for m, _, cond in keys)  # a context carries a message twice
        pairs = attribute_flows(events, net, ownership, threshold=threshold, node_of=node_of)
        assert_pairs_close(pairs, expected)
        assert all(f.measure.logons == net.node(f.datum).card for _, ctx in pairs for f in ctx.flows)

    def test_counts_are_logged_at_debug(self, caplog):
        net, events = fork_collider_graph(seed=42), repeated_flows_log()
        _, keys = per_flow_attribution(events, net, REPEATED_OWNERSHIP, REPEATED_NODE_OF)
        with caplog.at_level(logging.DEBUG, logger="infoflow.causal"):
            attribute_flows(events, net, REPEATED_OWNERSHIP, node_of=REPEATED_NODE_OF)
        [record] = [r for r in caplog.records if r.getMessage().startswith("attribute_flows: ")]
        distinct = len(set(keys))
        assert record.levelno == logging.DEBUG
        assert record.getMessage() == (
            f"attribute_flows: {distinct} distinct conditional_mi evaluations, {len(keys) - distinct} memo hits"
        )


class TestNetJson:
    def test_round_trip(self):
        net = fork_collider_graph(seed=42)
        back = net_from_json_dict(json.loads(json.dumps(net_to_json_dict(net))))
        assert back.names == net.names
        for a, b in zip(net.nodes, back.nodes):
            assert np.array_equal(a.cpt, b.cpt)

    def test_bundled_fixture_matches_builder(self):
        with resources.files("infoflow.data").joinpath("fork_collider.json").open(encoding="utf-8") as fh:
            bundled = net_from_json_dict(json.load(fh))
        built = fork_collider_graph(seed=42)
        assert bundled.names == built.names
        for a, b in zip(bundled.nodes, built.nodes):
            assert np.array_equal(a.cpt, b.cpt)

    def test_missing_cpt_row_rejected(self):
        doc = {
            "nodes": [
                {"name": "A", "states": ["0", "1"], "parents": [], "cpt": [0.5, 0.5]},
                {
                    "name": "B",
                    "states": ["0", "1"],
                    "parents": ["A"],
                    "cpt": {"0": [0.5, 0.5]},
                },
            ]
        }
        with pytest.raises(ValueError, match="one row per parent combination"):
            net_from_json_dict(doc)
        doc["nodes"][1]["cpt"] = [[0.5, 0.5], [0.5, 0.5]]
        with pytest.raises(ValueError, match="keyed by parent states"):
            net_from_json_dict(doc)

    def test_the_reader_and_the_net_state_each_dag_rule_in_one_wording(self):
        root = {"name": "A", "states": ["0", "1"], "parents": [], "cpt": [0.5, 0.5]}
        child = {"name": "B", "states": ["0", "1"], "parents": ["A"]}
        late = "parent 'A' of 'B' not declared earlier (order must be topological)"
        with pytest.raises(ValueError) as read:
            net_from_json_dict({"nodes": [{**child, "cpt": {"0": [1, 0], "1": [0, 1]}}, root]})
        with pytest.raises(ValueError) as built:
            BayesNet((copy_node("B", "A"), binary_root("A")))
        assert str(read.value) == str(built.value) == late
        # too few keys, a key that names no combination, and a built net's short cpt give one message
        rows = "cpt of 'B' has 1 rows, expected exactly one row per parent combination: 2"
        for cpt in ({"0": [1, 0]}, {"0": [1, 0], "2": [0, 1]}):
            with pytest.raises(ValueError) as read:
                net_from_json_dict({"nodes": [root, {**child, "cpt": cpt}]})
            assert str(read.value) == rows
        with pytest.raises(ValueError) as built:
            BayesNet((binary_root("A"), Node("B", ("0", "1"), ("A",), np.array([[1.0, 0.0]]))))
        assert str(built.value) == rows

    def test_load_net(self, tmp_path):
        path = tmp_path / "net.json"
        net, _ = twins_scenario()
        path.write_text(json.dumps(net_to_json_dict(net)), encoding="utf-8")
        assert load_net(path).names == net.names

    def test_row_count_is_checked_before_the_combinations(self, tmp_path, capsys):
        # ten four-state parents make 4^10 combinations; a one-row cpt is refused before any is built
        parents = [
            {"name": f"P{i}", "states": ["a", "b", "c", "d"], "parents": [], "cpt": [0.25] * 4} for i in range(10)
        ]
        child = {"name": "M", "states": ["0", "1"], "parents": [p["name"] for p in parents],
                 "cpt": {",".join("a" * 10): [0.5, 0.5]}}
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"nodes": parents + [child]}), encoding="utf-8")
        tracemalloc.start()
        try:
            code = main(["leakage", "--net", str(path), "--message", "M"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "one row per parent combination" in capsys.readouterr().err
        assert peak < 2 * 2**20
