"""Seeded discrete-time simulator of entities, factors, and flows.

Entities hold governed data; at every tick each (sender, receiver,
datum) candidate fires an explicit flow with a probability given by a
logistic link over trust and incentives, while environment channels
(e.g. a camera) fire implicit flows with probabilities independent of
the subject's factors. Explicit and implicit draws come from separate
per-tick generator streams, so perturbing a subject's factors can never
change the implicit event set. A ledger accumulates the worst-case
information content of every flow and enforces optional per-datum
release budgets on explicit flows.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import _check_rr, dp_to_mi_bound
from .measures import InfoMeasure, _nonneg, load_json

GOVERNANCE_TAGS = (
    "conjunct",
    "delegated",
    "distributed-shard",
    "distributed-share",
    "distributed-copy",
)

FLOW_KINDS = ("explicit", "implicit")


@dataclass(frozen=True)
class ReleaseMechanism:
    """Randomizing mechanism attached to a datum (k-ary randomized response)."""

    kind: str
    k: int
    eps: float

    def __post_init__(self):
        if self.kind != "randomized-response":
            raise ValueError(f"unsupported mechanism kind {self.kind!r}")
        _check_rr(self.k, self.eps)


@dataclass(frozen=True)
class DatumRecord:
    """One datum held by an entity, with ownership and governance tags."""

    datum: str
    value: str
    owner: str
    governance: str
    domain_size: int = 2
    mechanism: ReleaseMechanism | None = None

    def __post_init__(self):
        if self.governance not in GOVERNANCE_TAGS:
            raise ValueError(f"unknown governance tag {self.governance!r}")
        if self.domain_size < 1:
            raise ValueError("domain_size must be >= 1")


@dataclass(frozen=True)
class Entity:
    id: str
    data: tuple[DatumRecord, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "data", tuple(self.data))
        ids = [r.datum for r in self.data]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate datum ids on entity {self.id!r}")
        for r in self.data:
            conjunct = r.owner == self.id
            if (r.governance == "conjunct") != conjunct:
                raise ValueError(
                    f"governance {r.governance!r} inconsistent with owner {r.owner!r} "
                    f"on holder {self.id!r}"
                )


@dataclass
class FactorState:
    """Trust in receivers and incentives to release data."""

    trust: dict[tuple[str, str], float] = field(default_factory=dict)
    incentives: dict[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self):
        for k, v in self.trust.items():
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"trust{k} must be in [0,1], got {v}")
        for k, v in self.incentives.items():
            _nonneg(v, f"incentive{k}")

    def trust_of(self, sender: str, receiver: str) -> float:
        return self.trust.get((sender, receiver), 0.0)

    def incentive_of(self, sender: str, datum: str) -> float:
        return self.incentives.get((sender, datum), 0.0)


@dataclass(frozen=True)
class LogisticParams:
    """Weights of the decision link: p = logistic(alpha*trust + beta*incentive - gamma).

    alpha and beta must be non-negative so the decision probability is
    monotone in trust and incentives.
    """

    alpha: float = 4.0
    beta: float = 1.0
    gamma: float = 3.0

    def __post_init__(self):
        _nonneg(self.alpha, "alpha")
        _nonneg(self.beta, "beta")
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")


@dataclass(frozen=True)
class ImplicitChannel:
    """Environment channel firing with probability p, independent of factors."""

    subject: str
    observer: str
    datum: str
    p: float

    def __post_init__(self):
        if self.subject == self.observer:
            raise ValueError("implicit channel subject and observer must differ")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"implicit channel p must be in [0,1], got {self.p}")


@dataclass(frozen=True)
class FlowEvent:
    """One atomic, pairwise flow of a single datum."""

    id: str
    t: int
    sender: str
    receiver: str
    datum: str
    measure: InfoMeasure
    kind: str
    context_id: str

    def __post_init__(self):
        if self.sender == self.receiver:
            raise ValueError("flow sender and receiver must differ")
        if self.kind not in FLOW_KINDS:
            raise ValueError(f"kind must be one of {FLOW_KINDS}, got {self.kind!r}")

    def to_json_dict(self) -> dict:
        return {
            "record": "flow",
            "id": self.id,
            "t": self.t,
            "sender": self.sender,
            "receiver": self.receiver,
            "datum": self.datum,
            "kind": self.kind,
            "context_id": self.context_id,
            "measure": self.measure.to_json_dict(),
        }


@dataclass(frozen=True)
class BudgetStop:
    """Record of an explicit release suppressed by an exhausted budget."""

    t: int
    sender: str
    receiver: str
    datum: str
    attempted_sh: float
    headroom_sh: float

    def to_json_dict(self) -> dict:
        return {
            "record": "budget-stop",
            "t": self.t,
            "sender": self.sender,
            "receiver": self.receiver,
            "datum": self.datum,
            "attempted_sh": float(self.attempted_sh),
            "headroom_sh": float(self.headroom_sh),
        }


@dataclass(frozen=True)
class Context:
    """Flows bundled by shared (sender, receiver) within a tick window."""

    id: str
    t: int
    sender: str
    receiver: str
    flows: tuple[FlowEvent, ...]

    def __post_init__(self):
        object.__setattr__(self, "flows", tuple(self.flows))
        for f in self.flows:
            if (f.sender, f.receiver) != (self.sender, self.receiver):
                raise ValueError("context flows must share sender and receiver")

    @property
    def flow_ids(self) -> list[str]:
        return [f.id for f in self.flows]

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "t": self.t,
            "sender": self.sender,
            "receiver": self.receiver,
            "flow_ids": self.flow_ids,
        }


@dataclass
class Ledger:
    """Per-(sender, receiver, datum) cumulative worst-case content, in Sh."""

    budgets: dict[str, float] = field(default_factory=dict)
    cumulative: dict[tuple[str, str, str], float] = field(default_factory=dict)

    def __post_init__(self):
        for d, cap in self.budgets.items():
            _nonneg(cap, f"budget for {d!r}")

    def headroom(self, sender: str, receiver: str, datum: str) -> float | None:
        cap = self.budgets.get(datum)
        if cap is None:
            return None
        used = self.cumulative.get((sender, receiver, datum), 0.0)
        return max(cap - used, 0.0)

    def would_exceed(self, sender: str, receiver: str, datum: str, amount_sh: float) -> bool:
        cap = self.budgets.get(datum)
        if cap is None:
            return False
        used = self.cumulative.get((sender, receiver, datum), 0.0)
        return used + amount_sh > cap + 1e-9

    def record(self, sender: str, receiver: str, datum: str, amount_sh: float) -> None:
        key = (sender, receiver, datum)
        self.cumulative[key] = self.cumulative.get(key, 0.0) + amount_sh


@dataclass
class Society:
    """Entities plus the factors influencing their flow decisions."""

    entities: tuple[Entity, ...]
    factors: FactorState = field(default_factory=FactorState)
    implicit_channels: tuple[ImplicitChannel, ...] = ()
    logistic: LogisticParams = field(default_factory=LogisticParams)
    budgets: dict[str, float] = field(default_factory=dict)
    # (holder id, datum id) -> the record that holder keeps
    held: dict[tuple[str, str], DatumRecord] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.entities = tuple(self.entities)
        if len(self.entities) < 2:
            raise ValueError("a society needs at least two entities")
        ids = [e.id for e in self.entities]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate entity ids")
        for d, cap in self.budgets.items():
            _nonneg(cap, f"budget for {d!r}")
        known = set(ids)
        self.held = {(e.id, r.datum): r for e in self.entities for r in e.data}
        self.implicit_channels = tuple(self.implicit_channels)
        seen = set()
        for ch in self.implicit_channels:
            if ch.subject not in known or ch.observer not in known:
                raise ValueError(f"implicit channel references unknown entity: {ch}")
            if (ch.subject, ch.datum) not in self.held:
                raise ValueError(f"subject {ch.subject!r} does not hold datum {ch.datum!r}")
            key = (ch.subject, ch.observer, ch.datum)
            if key in seen:
                raise ValueError(f"duplicate implicit channel {key}")
            seen.add(key)


def _logistic(x: float) -> float:
    # numerically stable for large |x|
    if x >= 0:
        z = math.exp(-x)
        return 1.0 / (1.0 + z)
    z = math.exp(x)
    return z / (1.0 + z)


def decision_prob(
    factors: FactorState,
    sender: str,
    receiver: str,
    datum: str,
    params: LogisticParams = LogisticParams(),
) -> float:
    """Probability the sender decides to release datum to receiver.

    Monotone non-decreasing in both trust(sender, receiver) and
    incentive(sender, datum).
    """
    x = (
        params.alpha * factors.trust_of(sender, receiver)
        + params.beta * factors.incentive_of(sender, datum)
        - params.gamma
    )
    return _logistic(x)


def release_measure(rec: DatumRecord) -> InfoMeasure:
    """Worst-case content of one release of a datum, in Sh.

    A mechanism-mediated release is capped by eps * log2(e) per
    invocation; a raw release can resolve the whole domain.
    """
    if rec.mechanism is not None:
        return InfoMeasure(
            selective_sh=dp_to_mi_bound(rec.mechanism.eps),
            logons=rec.mechanism.k,
            metrons=1,
        )
    return _raw_release_measure(rec)


def _raw_release_measure(rec: DatumRecord) -> InfoMeasure:
    """Content of a release that can resolve the datum's whole domain, in Sh."""
    return InfoMeasure(
        selective_sh=math.log2(rec.domain_size) if rec.domain_size > 1 else 0.0,
        logons=rec.domain_size,
        metrons=1,
    )


@dataclass
class Scenario:
    """A society plus run parameters; the unit the CLI consumes."""

    society: Society
    seed: int = 0
    ticks: int = 1
    window: int = 1
    attribution: dict | None = None

    def __post_init__(self):
        if self.ticks < 0:
            raise ValueError("ticks must be >= 0")
        if self.window < 1:
            raise ValueError("window must be >= 1")


@dataclass
class SimulationResult:
    events: list[FlowEvent]
    stops: list[BudgetStop]
    ledger: Ledger

    def records(self) -> list[dict]:
        recs = [e.to_json_dict() for e in self.events] + [s.to_json_dict() for s in self.stops]
        recs.sort(key=lambda r: r["t"])  # stable: keeps within-tick occurrence order
        return recs


class Simulation:
    """Single-owner, strictly sequential run of a scenario.

    Explicit candidate draws and implicit channel draws use separate
    generator streams derived from (seed, tick, stream), so equal seeds
    reproduce the event list exactly and factor perturbations cannot
    touch the implicit stream.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.society = scenario.society
        self.ledger = Ledger(budgets=dict(scenario.society.budgets))
        self.t = 0
        self.events: list[FlowEvent] = []
        self.stops: list[BudgetStop] = []

    def step(self) -> tuple[list[FlowEvent], list[BudgetStop]]:
        t = self.t
        soc = self.society
        rng_explicit = np.random.default_rng([self.scenario.seed, t, 0])
        rng_implicit = np.random.default_rng([self.scenario.seed, t, 1])
        events: list[FlowEvent] = []
        stops: list[BudgetStop] = []

        for sender in soc.entities:
            for rec in sender.data:
                for receiver in soc.entities:
                    if receiver.id == sender.id:
                        continue
                    p = decision_prob(soc.factors, sender.id, receiver.id, rec.datum, soc.logistic)
                    if rng_explicit.random() >= p:
                        continue
                    measure = release_measure(rec)
                    if self.ledger.would_exceed(sender.id, receiver.id, rec.datum, measure.selective_sh):
                        stops.append(
                            BudgetStop(
                                t=t,
                                sender=sender.id,
                                receiver=receiver.id,
                                datum=rec.datum,
                                attempted_sh=measure.selective_sh,
                                headroom_sh=self.ledger.headroom(sender.id, receiver.id, rec.datum),
                            )
                        )
                        continue
                    events.append(
                        FlowEvent(
                            id=f"x:{t}:{sender.id}>{receiver.id}:{rec.datum}",
                            t=t,
                            sender=sender.id,
                            receiver=receiver.id,
                            datum=rec.datum,
                            measure=measure,
                            kind="explicit",
                            context_id=f"c:{t}:{sender.id}>{receiver.id}",
                        )
                    )
                    self.ledger.record(sender.id, receiver.id, rec.datum, measure.selective_sh)

        for ch in soc.implicit_channels:
            if rng_implicit.random() >= ch.p:
                continue
            measure = _raw_release_measure(soc.held[(ch.subject, ch.datum)])
            events.append(
                FlowEvent(
                    id=f"i:{t}:{ch.subject}>{ch.observer}:{ch.datum}",
                    t=t,
                    sender=ch.subject,
                    receiver=ch.observer,
                    datum=ch.datum,
                    measure=measure,
                    kind="implicit",
                    context_id=f"c:{t}:{ch.subject}>{ch.observer}",
                )
            )
            self.ledger.record(ch.subject, ch.observer, ch.datum, measure.selective_sh)

        self.t += 1
        self.events.extend(events)
        self.stops.extend(stops)
        return events, stops

    def run(self) -> SimulationResult:
        for _ in range(self.scenario.ticks):
            self.step()
        return SimulationResult(events=list(self.events), stops=list(self.stops), ledger=self.ledger)


def simulate(scenario: Scenario) -> SimulationResult:
    return Simulation(scenario).run()


def bundle_contexts(events: list[FlowEvent], window: int = 1) -> list[Context]:
    """Group same-(sender, receiver) events within `window` ticks.

    Events must be sorted by tick; every event lands in exactly one
    context, opened at its first event's tick.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    last_t = None
    for e in events:
        if last_t is not None and e.t < last_t:
            raise ValueError("events must be sorted by tick")
        last_t = e.t
    open_ctx: dict[tuple[str, str], list[FlowEvent]] = {}
    groups: list[list[FlowEvent]] = []
    for e in events:
        pair = (e.sender, e.receiver)
        if pair in open_ctx and e.t - open_ctx[pair][0].t >= window:
            groups.append(open_ctx.pop(pair))
        open_ctx.setdefault(pair, []).append(e)
    groups.extend(open_ctx.values())
    # contexts of one pair open at distinct ticks, so this key is unique
    groups.sort(key=lambda fs: (fs[0].t, fs[0].sender, fs[0].receiver))
    return [
        Context(id=f"C{i:04d}", t=fs[0].t, sender=fs[0].sender, receiver=fs[0].receiver, flows=tuple(fs))
        for i, fs in enumerate(groups)
    ]


def ledger_report(ledger: Ledger) -> list[dict]:
    """Per-(sender, receiver, datum) cumulative content, budget, headroom."""
    rows = []
    for (sender, receiver, datum), used in sorted(ledger.cumulative.items()):
        cap = ledger.budgets.get(datum)
        headroom = ledger.headroom(sender, receiver, datum)
        rows.append(
            {
                "sender": sender,
                "receiver": receiver,
                "datum": datum,
                "cumulative_sh": float(used),
                "budget_sh": None if cap is None else float(cap),
                "headroom_sh": None if headroom is None else float(headroom),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# scenario JSON and event-log output
# ---------------------------------------------------------------------------

_SCENARIO_KEYS = {
    "seed",
    "ticks",
    "window",
    "logistic",
    "entities",
    "trust",
    "incentives",
    "implicit_channels",
    "budgets",
    "attribution",
}


def scenario_from_json_dict(cfg: dict) -> Scenario:
    unknown = set(cfg) - _SCENARIO_KEYS
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    entities = []
    for ent in cfg.get("entities", []):
        data = []
        for rec in ent.get("data", []):
            mech = rec.get("mechanism")
            data.append(
                DatumRecord(
                    datum=rec["datum"],
                    value=str(rec.get("value", "")),
                    owner=rec["owner"],
                    governance=rec["governance"],
                    domain_size=int(rec.get("domain_size", 2)),
                    mechanism=None
                    if mech is None
                    else ReleaseMechanism(kind=mech["kind"], k=int(mech["k"]), eps=float(mech["eps"])),
                )
            )
        entities.append(Entity(id=ent["id"], data=tuple(data)))
    factors = FactorState(
        trust={(s, r): float(v) for s, row in cfg.get("trust", {}).items() for r, v in row.items()},
        incentives={
            (s, d): float(v) for s, row in cfg.get("incentives", {}).items() for d, v in row.items()
        },
    )
    logi = cfg.get("logistic", {})
    society = Society(
        entities=tuple(entities),
        factors=factors,
        implicit_channels=tuple(
            ImplicitChannel(
                subject=ch["subject"],
                observer=ch["observer"],
                datum=ch["datum"],
                p=float(ch["p"]),
            )
            for ch in cfg.get("implicit_channels", [])
        ),
        logistic=LogisticParams(
            alpha=float(logi.get("alpha", 4.0)),
            beta=float(logi.get("beta", 1.0)),
            gamma=float(logi.get("gamma", 3.0)),
        ),
        budgets={d: float(v) for d, v in cfg.get("budgets", {}).items()},
    )
    return Scenario(
        society=society,
        seed=int(cfg.get("seed", 0)),
        ticks=int(cfg.get("ticks", 1)),
        window=int(cfg.get("window", 1)),
        attribution=cfg.get("attribution"),
    )


def load_scenario(path) -> Scenario:
    return load_json(path, scenario_from_json_dict)


_CSV_FIELDS = [
    "record",
    "id",
    "t",
    "kind",
    "sender",
    "receiver",
    "datum",
    "selective_sh",
    "logons",
    "metrons",
    "context_id",
    "attempted_sh",
    "headroom_sh",
]


def write_events_jsonl(records: list[dict], fh) -> None:
    for rec in records:
        fh.write(json.dumps(rec, sort_keys=True, allow_nan=False) + "\n")


def write_events_csv(records: list[dict], fh) -> None:
    writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for rec in records:
        flat = dict(rec)
        measure = flat.pop("measure", None)
        if measure:
            flat["selective_sh"] = measure["selective_sh"]
            flat["logons"] = measure["logons"]
            flat["metrons"] = measure["metrons"]
        writer.writerow({k: flat.get(k, "") for k in _CSV_FIELDS})
