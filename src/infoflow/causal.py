"""Exact inference on small categorical DAG models of data dependencies.

Builds the dense joint as a running product of the CPT factors in
node order (guarded by a hard state-space cap, since a dense tensor
does not scale), profiles how much each variable leaks through a
transmitted message node, and attributes flows: an explicit flow whose
message carries information about a node owned by somebody other than
the sender induces an implicit flow from that owner. Ships two fully
worked scenarios (sibling bundling via a shared-ancestry switch, and a
released ballot tally) plus the seeded fork/collider network used as a
regression fixture.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ._kernels import dense_joint, entropy_bits, merged_view, mi_bits
from .measures import (
    STATE_SPACE_CAP, CapacityError, InfoMeasure, _as_tuple, _check_labels, _nonneg, _stochastic, load_json,
)
from .society import Context, FlowEvent, _check_id, bundle_contexts

JOINT_SUM_TOL = 1e-6

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Node:
    """Categorical node: states, parent names, and a CPT.

    ``cpt`` has shape (number of parent-state combinations, number of
    states); combinations run row-major over the parents in declared
    order (first parent most significant).
    """

    name: str
    states: tuple[str, ...]
    parents: tuple[str, ...]
    cpt: np.ndarray

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"node name must be a string, got {self.name!r}")
        object.__setattr__(self, "states", _check_labels(self.states, f"states of {self.name}"))
        object.__setattr__(self, "parents", _as_tuple(self.parents, f"parents of {self.name!r}"))
        if len(set(self.parents)) != len(self.parents):
            raise ValueError(f"duplicate parents on node {self.name!r}")
        # a root's cpt may be given as one flat row; BayesNet checks the row count
        c = [self.cpt] if np.ndim(self.cpt) < 2 else self.cpt
        shape = (max(len(c), 1), len(self.states))
        object.__setattr__(self, "cpt", _stochastic(c, shape, f"cpt of {self.name!r}", rows=True))

    @property
    def card(self) -> int:
        return len(self.states)


@dataclass(frozen=True, eq=False)
class BayesNet:
    """DAG of categorical nodes; declaration order must be topological."""

    nodes: tuple[Node, ...]
    _by_name: dict[str, Node] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        seen: dict[str, Node] = {}
        for node in self.nodes:
            if node.name in seen:
                raise ValueError(f"duplicate node name {node.name!r}")
            for p in node.parents:
                if p not in seen:
                    raise ValueError(
                        f"parent {p!r} of {node.name!r} not declared earlier (order must be topological)"
                    )
            expect_rows = 1
            for p in node.parents:
                expect_rows *= seen[p].card
            if node.cpt.shape[0] != expect_rows:
                raise ValueError(
                    f"cpt of {node.name!r} has {node.cpt.shape[0]} rows, expected {expect_rows}"
                )
            seen[node.name] = node
        object.__setattr__(self, "_by_name", seen)

    def node(self, name: str) -> Node:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown node {name!r}") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    @property
    def cards(self) -> tuple[int, ...]:
        return tuple(n.card for n in self.nodes)

    def state_space_size(self) -> int:
        return math.prod(self.cards)


@dataclass(frozen=True, eq=False)
class DenseJoint:
    """Exact joint over all nodes as a dense probability tensor."""

    names: tuple[str, ...]
    probs: np.ndarray

    def marginal(self, *names: str) -> np.ndarray:
        """Marginal tensor with axes in the requested name order; a name given twice is refused.

        When the innermost axis with more than one state is kept, the
        marginal is an einsum over the tensor's ``merged_view``: like
        ``ndarray.sum``, it then adds each cell's terms one at a time in
        row-major order, so the two agree bit for bit, and it runs
        several times faster. When the outermost kept axis has a summed
        run on each side of it in that view (a pair marginal that keeps
        the last node, away from the edges), it is indexed away: one
        einsum per state of it, over a view of one axis fewer, stacked.
        Each output cell still gets the same terms in the same order, so
        the bits do not change, and numpy's iterator steps over one axis
        fewer: twice as fast or more on 2^18-2^22 cells. When the
        innermost axis is summed out, ``ndarray.sum`` adds each
        innermost run pairwise and einsum does not, so ``ndarray.sum``
        does the sum. The choice follows bit identity, not size: on
        joints below about 2^10 cells einsum is the slower of the two.
        Variable elimination (ROADMAP item 3) replaces both paths.
        """
        repeated = [n for i, n in enumerate(names) if n in names[:i]]
        if repeated:
            raise ValueError(f"repeated node {repeated[0]!r} in marginal")
        keep = [self.names.index(n) for n in names]
        order = sorted(keep)
        cards = self.probs.shape
        shape, sub, kept = merged_view(cards, order)
        if kept and sub[-1] == kept[-1]:
            view = self.probs.reshape(shape)
            i = sub.index(kept[0])
            if len(kept) > 1 and 0 < i and sub[i + 1] not in kept:
                # one einsum per state of the outer kept axis, with summed runs on both sides of it
                rest = sub[:i] + sub[i + 1:]
                m = np.stack([np.einsum(f"{rest}->{kept[1:]}", plane) for plane in np.moveaxis(view, i, 0)])
            else:
                m = np.einsum(f"{sub}->{kept}", view)
            m = m.reshape([cards[k] for k in order])
        else:
            drop = tuple(i for i in range(len(cards)) if i not in keep)
            m = self.probs.sum(axis=drop) if drop else self.probs
        return np.transpose(m, [order.index(k) for k in keep])


def joint(net: BayesNet) -> DenseJoint:
    """Dense joint over every state combination, one CPT factor at a time in node order.

    Refuses state spaces beyond STATE_SPACE_CAP configurations; exact
    enumeration is a desk-scale tool.
    """
    size = net.state_space_size()
    if size > STATE_SPACE_CAP:
        raise CapacityError(
            f"state space has {size} configurations, exceeding the cap of {STATE_SPACE_CAP}"
        )
    name_to_idx = {n.name: i for i, n in enumerate(net.nodes)}
    cpts = [n.cpt for n in net.nodes]
    parents = [[name_to_idx[p] for p in n.parents] for n in net.nodes]
    flat = dense_joint(net.cards, cpts, parents)
    total = float(flat.sum())
    if abs(total - 1.0) > JOINT_SUM_TOL:
        raise ValueError(f"joint sums to {total}, outside tolerance")
    probs = flat.reshape(tuple(net.cards))
    probs.setflags(write=False)
    return DenseJoint(names=net.names, probs=probs)


def conditional_mi(dense: DenseJoint, a: str, b: str, given: list[str] | tuple[str, ...] = ()) -> float:
    """I(a; b | given) in Sh, from the dense joint."""
    axes = [a, b] + [g for g in given]
    m = dense.marginal(*axes)
    flat = m.reshape(m.shape[0], m.shape[1], -1)
    total = 0.0
    for g in range(flat.shape[2]):
        cell = np.ascontiguousarray(flat[:, :, g])
        pg = float(cell.sum())
        if pg > 0.0:
            total += pg * mi_bits(cell / pg)
    return total


@dataclass(frozen=True)
class LeakageProfile:
    """Per-node information revealed by transmitting one message node."""

    message_node: str
    observed_value: str
    per_node_mi: dict[str, float]
    per_node_posterior_entropy_drop: dict[str, float]

    def rows_sorted(self) -> list[dict]:
        rows = [
            {
                "node": v,
                "mi_sh": self.per_node_mi[v],
                "posterior_entropy_drop_sh": self.per_node_posterior_entropy_drop[v],
            }
            for v in self.per_node_mi
        ]
        rows.sort(key=lambda r: (-r["mi_sh"], r["node"]))
        return rows

    def to_json_dict(self) -> dict:
        return {
            "message_node": self.message_node,
            "observed_value": self.observed_value,
            "profile": self.rows_sorted(),
        }


def leakage_profile(net: BayesNet, message: str) -> LeakageProfile:
    """I(message; V) and realized posterior-entropy drop for every other node V.

    The drop is H(V) - H(V | message = observed), where the observed
    value is the message's most probable one. Nodes independent of the
    message report (numerically) zero.
    """
    msg_node = net.node(message)  # raises on an unknown message before enumeration
    t0 = time.perf_counter()
    dense = joint(net)
    pm = dense.marginal(message)
    obs_idx = int(np.argmax(pm))

    mis: dict[str, float] = {}
    drops: dict[str, float] = {}
    for node in net.nodes:
        if node.name == message:
            continue
        m2 = np.ascontiguousarray(dense.marginal(message, node.name))
        mis[node.name] = mi_bits(m2)
        h_prior = entropy_bits(m2.sum(axis=0))
        cond = np.ascontiguousarray(m2[obs_idx] / pm[obs_idx])
        drops[node.name] = h_prior - entropy_bits(cond)
    log.debug(
        "leakage_profile: %d joint states, %d marginals in %.3f s",
        dense.probs.size, len(mis) + 1, time.perf_counter() - t0,
    )
    return LeakageProfile(
        message_node=message,
        observed_value=msg_node.states[obs_idx],
        per_node_mi=mis,
        per_node_posterior_entropy_drop=drops,
    )


# ---------------------------------------------------------------------------
# worked scenarios
# ---------------------------------------------------------------------------


def twins_scenario(q: float = 0.5) -> tuple[BayesNet, dict]:
    """Sibling bundling: a shared-ancestry switch couples two traits.

    Z is the ancestry switch (identical/fraternal, prior q), S1 the
    sender's trait, S2 the sibling's. When Z = identical, S2 copies S1;
    otherwise it is independent. The report quantifies the induced
    implicit flow: once S1 is observed, revealing Z = identical drives
    the posterior entropy of S2 to zero.
    """
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must be in (0,1), got {q}")
    z = Node("Z", ("identical", "fraternal"), (), np.array([q, 1.0 - q]))
    s1 = Node("S1", ("0", "1"), (), np.array([0.5, 0.5]))
    s2 = Node(
        "S2",
        ("0", "1"),
        ("Z", "S1"),
        np.array(
            [
                [1.0, 0.0],  # identical, S1=0
                [0.0, 1.0],  # identical, S1=1
                [0.5, 0.5],  # fraternal, S1=0
                [0.5, 0.5],  # fraternal, S1=1
            ]
        ),
    )
    net = BayesNet((z, s1, s2))
    dense = joint(net)
    probs = dense.marginal("Z", "S1", "S2")

    def h_s2_given(z_idx: int, s1_idx: int) -> float:
        cell = probs[z_idx, s1_idx]
        return entropy_bits(np.ascontiguousarray(cell / cell.sum()))

    report = {
        "zygosity_prior": q,
        "posterior_entropy_s2_identical_sh": h_s2_given(0, 0),
        "posterior_entropy_s2_fraternal_sh": h_s2_given(1, 0),
        "mi_zygosity_s2_given_s1_sh": conditional_mi(dense, "Z", "S2", ["S1"]),
        "mi_s1_s2_sh": conditional_mi(dense, "S1", "S2"),
    }
    return net, report


def ballot_scenario(n_voters: int) -> tuple[BayesNet, dict]:
    """Released tally of n iid uniform binary votes.

    The report is read off the net's dense joint, which enumerates all
    2^n voter configurations: mutual information between the tally and
    one vote, and the posterior over that vote for every tally value
    (unanimous tallies pin it down exactly).
    """
    if n_voters < 2:
        raise ValueError(f"need at least 2 voters, got {n_voters}")
    n = n_voters
    # the net's 2^n (n+1) states, checked before the tally CPT of that size is built
    if n > STATE_SPACE_CAP.bit_length() or (n + 1) << n > STATE_SPACE_CAP:
        raise CapacityError(
            f"{n} voters give 2^{n}*{n + 1} configurations, exceeding the cap of {STATE_SPACE_CAP}"
        )
    voters = [Node(f"V{i + 1}", ("0", "1"), (), np.array([0.5, 0.5])) for i in range(n)]
    combos = np.arange(2**n, dtype=np.int64)
    tally = np.zeros(2**n, dtype=np.int64)
    for k in range(n):
        tally += (combos >> k) & 1
    cpt = np.zeros((2**n, n + 1))
    cpt[combos, tally] = 1.0
    t_node = Node("T", tuple(str(t) for t in range(n + 1)), tuple(v.name for v in voters), cpt)
    net = BayesNet(tuple(voters) + (t_node,))

    # every joint cell is 0 or 2^-n, so these sums are exact
    jm = joint(net).marginal("T", "V1")
    p_t = jm.sum(axis=1)
    posterior = {}
    h_v1_given_t = 0.0
    for t in range(n + 1):
        row = jm[t] / p_t[t]
        h = entropy_bits(np.ascontiguousarray(row))
        posterior[str(t)] = {"p_v1_one": float(row[1]), "entropy_sh": h}
        h_v1_given_t += float(p_t[t]) * h
    report = {
        "n_voters": n,
        "i_tally_v1_sh": mi_bits(jm),
        "h_v1_given_tally_sh": h_v1_given_t,
        "posterior_v1": posterior,
    }
    return net, report


def fork_collider_graph(seed: int = 42) -> BayesNet:
    """Seeded all-binary fork/collider network with a transmitted message.

    Structure: A -> {D, E}; B, C -> D; D, F -> E; E, G -> X; X -> M.
    A forks into D and E; E and G collide on X; M is the transmitted
    message hanging off X. CPT rows are flat-Dirichlet draws from one
    seeded generator, so the resulting leakage values are reproducible
    fixtures.
    """
    rng = np.random.default_rng(seed)
    structure = [
        ("A", ()),
        ("B", ()),
        ("C", ()),
        ("F", ()),
        ("G", ()),
        ("D", ("A", "B", "C")),
        ("E", ("A", "D", "F")),
        ("X", ("E", "G")),
        ("M", ("X",)),
    ]
    nodes = []
    for name, parents in structure:
        rows = rng.dirichlet(np.ones(2), size=2 ** len(parents))
        nodes.append(Node(name, ("0", "1"), parents, rows))
    return BayesNet(tuple(nodes))


# ---------------------------------------------------------------------------
# flow attribution
# ---------------------------------------------------------------------------


def check_attribution(
    net: BayesNet, ownership: dict[str, str], node_of: dict[str, str] | None = None, threshold: float | None = None
) -> None:
    """Refuse an ownership or datum-to-node mapping that is not a mapping or names a node the net lacks.

    Owners are entity ids, so they must be strings; a ``threshold``, when given, must be finite and >= 0.
    """
    if threshold is not None:
        _nonneg(threshold, "attribution threshold")
    for what, mapping in (("ownership", ownership), ("message node map", node_of)):
        if mapping is not None and not isinstance(mapping, dict):
            raise ValueError(f"{what} must be a mapping, got {type(mapping).__name__}")
    for node_name, owner in ownership.items():
        net.node(node_name)  # raises on unknown nodes
        _check_id(owner, f"owner of node {node_name!r}")
    for node_name in (node_of or {}).values():
        net.node(node_name)


def attribute_flows(
    context_log: list[FlowEvent],
    net: BayesNet,
    ownership: dict[str, str],
    threshold: float = 1e-6,
    window: int = 1,
    node_of: dict[str, str] | None = None,
) -> list[tuple[Context, Context]]:
    """Induce implicit contexts from explicit flows that leak others' data.

    For every explicit flow whose message node carries more than
    ``threshold`` Sh about a node owned by an entity other than the
    sender (or receiver), an implicit context is emitted with that owner
    as sender, paired with the explicit context that caused it. Because
    a receiver accumulates messages, the leak of each flow is measured
    conditionally on the earlier explicit messages in the same context.
    Each distinct (message, node, conditioning sequence) is evaluated
    once per call; repeats reuse that value, so they are bit-identical.

    ``node_of`` optionally maps datum ids to net nodes; data without a
    mapping are skipped. Without it, each datum id must itself be a
    node name.
    """
    check_attribution(net, ownership, node_of, threshold)

    def message_node(ev: FlowEvent) -> str | None:
        if node_of is not None:
            return node_of.get(ev.datum)
        net.node(ev.datum)  # raises on unknown nodes
        return ev.datum

    owned = [(node.name, ownership[node.name], node.card) for node in net.nodes if node.name in ownership]
    dense = joint(net)
    # (message, node, conditioning in order) -> I(message; node | conditioning)
    memo: dict[tuple[str, str, tuple[str, ...]], float] = {}
    hits = 0
    pairs: list[tuple[Context, Context]] = []
    for ctx in bundle_contexts(context_log, window=window):
        conditioning: list[str] = []
        for flow in ctx.flows:
            if flow.kind != "explicit":
                continue
            m = message_node(flow)
            if m is None:
                continue
            given = tuple(conditioning)
            leaks: dict[str, list[tuple[str, float, int]]] = {}
            for name, owner, card in owned:
                if name == m or owner in (flow.sender, flow.receiver):
                    continue
                key = (m, name, given)
                mi = memo.get(key)
                if mi is None:
                    mi = memo[key] = conditional_mi(dense, m, name, given)
                else:
                    hits += 1
                if mi > threshold:
                    leaks.setdefault(owner, []).append((name, mi, card))
            for owner, leaked in leaks.items():
                induced_id = f"{flow.id}~{owner}"
                induced_flows = tuple(
                    FlowEvent(
                        id=f"{induced_id}:{node_name}",
                        t=flow.t,
                        sender=owner,
                        receiver=flow.receiver,
                        datum=node_name,
                        measure=InfoMeasure(selective_sh=mi, logons=card, metrons=1),
                        kind="implicit",
                        context_id=induced_id,
                    )
                    for node_name, mi, card in leaked
                )
                induced = Context(id=induced_id, t=flow.t, sender=owner, receiver=flow.receiver, flows=induced_flows)
                pairs.append((ctx, induced))
            if m not in conditioning:
                conditioning.append(m)
    log.debug("attribute_flows: %d distinct conditional_mi evaluations, %d memo hits", len(memo), hits)
    return pairs


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def _combo_keys(parent_states: list[tuple[str, ...]]) -> list[str]:
    """CPT row keys: each parent-state combination, row-major, joined by commas.

    A state label with a comma would make two combinations share a key,
    so it is refused in both directions.
    """
    if any("," in s for states in parent_states for s in states):
        raise ValueError("state labels used as cpt keys must not contain commas")
    return [",".join(combo) for combo in itertools.product(*parent_states)]


def net_to_json_dict(net: BayesNet) -> dict:
    nodes = []
    for node in net.nodes:
        if not node.parents:
            cpt = [float(v) for v in node.cpt[0]]
        else:
            keys = _combo_keys([net.node(p).states for p in node.parents])
            cpt = {key: [float(v) for v in row] for key, row in zip(keys, node.cpt)}
        nodes.append(
            {
                "name": node.name,
                "states": list(node.states),
                "parents": list(node.parents),
                "cpt": cpt,
            }
        )
    return {"nodes": nodes}


def net_from_json_dict(d: dict) -> BayesNet:
    declared: dict[str, Node] = {}
    nodes = []
    for spec in d["nodes"]:
        name = spec["name"]
        parents = _as_tuple(spec.get("parents", ()), f"parents of {name!r}")
        cpt_spec = spec["cpt"]
        if not parents:
            if not isinstance(cpt_spec, list):
                raise ValueError(f"root node {name!r} expects a flat cpt list")
            cpt = cpt_spec
        else:
            for p in parents:
                if p not in declared:
                    raise ValueError(f"parent {p!r} of {name!r} not declared earlier")
            if not isinstance(cpt_spec, dict):
                raise ValueError(f"node {name!r} with parents expects a cpt object keyed by parent states")
            # counted before the combinations are built: their number is a product of cards
            if len(cpt_spec) != math.prod(declared[p].card for p in parents):
                raise ValueError(f"cpt of {name!r} must have exactly one row per parent combination")
            try:
                cpt = [cpt_spec[key] for key in _combo_keys([declared[p].states for p in parents])]
            except KeyError:
                raise ValueError(f"cpt of {name!r} must have exactly one row per parent combination") from None
        node = Node(name, spec["states"], parents, cpt)
        declared[name] = node
        nodes.append(node)
    return BayesNet(tuple(nodes))


def load_net(path) -> BayesNet:
    return load_json(path, net_from_json_dict)
