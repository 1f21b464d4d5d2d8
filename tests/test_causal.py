import collections
import itertools
import json
import logging
import math
import tracemalloc
from importlib import resources

import numpy as np
import pytest

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
from infoflow.cli import main
from helpers import entropy_cells, mi_cells, naive_net_joint, naive_pair_mi, sum_marginal


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
        with pytest.raises(ValueError, match="repeated node 'M' in marginal"):
            dense.marginal("M", "A", "M")
        # a conditioning set that holds a queried node reaches it too
        twins = joint(twins_scenario()[0])
        with pytest.raises(ValueError, match="repeated node 'S2' in marginal"):
            conditional_mi(twins, "Z", "S2", ["S2"])

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

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_threshold_outside_0_inf_rejected(self, threshold):
        net, _ = twins_scenario()
        events = [explicit_event("twin1", "receiver", "S1")]
        with pytest.raises(ValueError, match="attribution threshold must be finite and >= 0"):
            attribute_flows(events, net, {"S2": "twin2"}, threshold=threshold)

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


def per_flow_attribution(events, net, ownership, node_of, threshold=1e-6):
    """Induced pairs from one fresh conditional_mi per flow and owned node, and every key evaluated."""
    dense = joint(net)
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
                mi = conditional_mi(dense, m, node.name, conditioning)
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

    def test_counts_are_logged_at_debug(self, caplog):
        net, events = fork_collider_graph(seed=42), repeated_flows_log()
        _, keys = per_flow_attribution(events, net, REPEATED_OWNERSHIP, REPEATED_NODE_OF)
        with caplog.at_level(logging.DEBUG, logger="infoflow.causal"):
            attribute_flows(events, net, REPEATED_OWNERSHIP, node_of=REPEATED_NODE_OF)
        [record] = [r for r in caplog.records if r.name == "infoflow.causal"]
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
        with resources.files("infoflow.data").joinpath("fork_collider.json").open() as fh:
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

    def test_load_net(self, tmp_path):
        path = tmp_path / "net.json"
        net, _ = twins_scenario()
        path.write_text(json.dumps(net_to_json_dict(net)))
        assert load_net(path).names == net.names

    def test_row_count_is_checked_before_the_combinations(self, tmp_path, capsys):
        # ten four-state parents make 4^10 combinations; a one-row cpt is refused before any is built
        parents = [
            {"name": f"P{i}", "states": ["a", "b", "c", "d"], "parents": [], "cpt": [0.25] * 4} for i in range(10)
        ]
        child = {"name": "M", "states": ["0", "1"], "parents": [p["name"] for p in parents],
                 "cpt": {",".join("a" * 10): [0.5, 0.5]}}
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"nodes": parents + [child]}))
        tracemalloc.start()
        try:
            code = main(["leakage", "--net", str(path), "--message", "M"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "one row per parent combination" in capsys.readouterr().err
        assert peak < 2 * 2**20
