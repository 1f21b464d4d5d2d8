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
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _str
from operator import attrgetter

import numpy as np

from .channels import _check_rr, dp_to_mi_bound
from .measures import InfoMeasure, _check_keys, _nonneg, load_json

GOVERNANCE_TAGS = (
    "conjunct",
    "delegated",
    "distributed-shard",
    "distributed-share",
    "distributed-copy",
)

FLOW_KINDS = ("explicit", "implicit")
_ID_TAG = {"explicit": "x", "implicit": "i"}  # flow ids open with the kind's tag


def _check_id(value, what: str) -> None:
    """Refuse an entity or datum id that is not a string."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")


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
        _check_id(self.datum, "datum id")
        _check_id(self.owner, f"owner of datum {self.datum!r}")
        if self.governance not in GOVERNANCE_TAGS:
            raise ValueError(f"unknown governance tag {self.governance!r}")
        if self.domain_size < 1:
            raise ValueError("domain_size must be >= 1")


@dataclass(frozen=True)
class Entity:
    id: str
    data: tuple[DatumRecord, ...] = ()

    def __post_init__(self):
        _check_id(self.id, "entity id")
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
        for what in ("subject", "observer", "datum"):
            _check_id(getattr(self, what), f"implicit channel {what}")
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


@dataclass(frozen=True)
class BudgetStop:
    """Record of an explicit release suppressed by an exhausted budget."""

    t: int
    sender: str
    receiver: str
    datum: str
    attempted_sh: float
    headroom_sh: float


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


def _logit(params: LogisticParams, trust: float, incentive: float) -> float:
    return params.alpha * trust + params.beta * incentive - params.gamma


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
    return _logistic(_logit(params, factors.trust_of(sender, receiver), factors.incentive_of(sender, datum)))


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.ticks < 0:
            raise ValueError("ticks must be >= 0")
        if self.window < 1:
            raise ValueError("window must be >= 1")


@dataclass
class SimulationResult:
    events: list[FlowEvent]
    stops: list[BudgetStop]
    ledger: Ledger

    def records(self, induced: list[tuple[Context, Context]] = ()) -> list[dict]:
        """The event log as dicts: each line ``write_events_jsonl`` writes, parsed."""
        return [json.loads(line) for line in _event_lines(self, induced)]

    def by_tick(self) -> list[FlowEvent | BudgetStop]:
        """Flows and budget stops by tick; within a tick, flows in occurrence order, then stops."""
        return sorted([*self.events, *self.stops], key=attrgetter("t"))


class Simulation:
    """Single-owner, strictly sequential run of a scenario.

    Explicit candidate draws and implicit channel draws use separate
    generator streams derived from (seed, tick, stream), so equal seeds
    reproduce the event list exactly and factor perturbations cannot
    touch the implicit stream.

    The society is read once, when the simulation is built. Every
    (sender, datum, receiver) candidate's decision probability is fixed
    then, with the logistic link evaluated once per distinct trust value
    per datum; so are the implicit channels and the content of each
    one's release. Changing ``society.factors`` or
    ``society.implicit_channels`` afterwards does not affect the run.
    Each tick draws one uniform per candidate in a single batch, in the
    order sender, datum, receiver of the society's declarations.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.society = scenario.society
        self.ledger = Ledger(budgets=dict(scenario.society.budgets))
        self.t = 0
        self.events: list[FlowEvent] = []
        self.stops: list[BudgetStop] = []
        self._ids = [e.id for e in scenario.society.entities]
        self._blocks, self._p = _decision_table(scenario.society)
        self._implicit = [
            (ch, _raw_release_measure(scenario.society.held[(ch.subject, ch.datum)]))
            for ch in scenario.society.implicit_channels
        ]

    def step(self) -> tuple[list[FlowEvent], list[BudgetStop]]:
        t = self.t
        rng_explicit = np.random.default_rng([self.scenario.seed, t, 0])
        rng_implicit = np.random.default_rng([self.scenario.seed, t, 1])
        events: list[FlowEvent] = []
        stops: list[BudgetStop] = []

        def fire(kind: str, sender: str, receiver: str, datum: str, measure: InfoMeasure) -> None:
            events.append(
                FlowEvent(
                    id=f"{_ID_TAG[kind]}:{t}:{sender}>{receiver}:{datum}",
                    t=t,
                    sender=sender,
                    receiver=receiver,
                    datum=datum,
                    measure=measure,
                    kind=kind,
                    context_id=f"c:{t}:{sender}>{receiver}",
                )
            )
            self.ledger.record(sender, receiver, datum, measure.selective_sh)

        # a batch of N uniforms is the same stream as N scalar draws, so the fired set
        # is the one a draw per candidate in this order gives
        width = len(self._ids) - 1
        for i in np.flatnonzero(rng_explicit.random(len(self._p)) < self._p).tolist():
            b, j = divmod(i, width)
            k, datum, measure = self._blocks[b]
            sender, receiver = self._ids[k], self._ids[j + (j >= k)]
            if self.ledger.would_exceed(sender, receiver, datum, measure.selective_sh):
                stops.append(
                    BudgetStop(
                        t=t,
                        sender=sender,
                        receiver=receiver,
                        datum=datum,
                        attempted_sh=measure.selective_sh,
                        headroom_sh=self.ledger.headroom(sender, receiver, datum),
                    )
                )
            else:
                fire("explicit", sender, receiver, datum, measure)

        for ch, measure in self._implicit:
            if rng_implicit.random() < ch.p:
                fire("implicit", ch.subject, ch.observer, ch.datum, measure)

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


def _decision_table(soc: Society) -> tuple[list[tuple[int, str, InfoMeasure]], np.ndarray]:
    """Explicit-flow candidates and their decision probabilities.

    Candidates run over senders, then each sender's data, then receivers
    (every other entity), in declaration order. With n entities, block
    b = (sender position, datum, release content) holds candidates
    b*(n-1) to (b+1)*(n-1) - 1, and offset j in a block is the receiver
    at position j, or j + 1 from the sender's position on. A probability
    depends on the candidate only through its (trust, incentive) pair,
    so the link is evaluated once per distinct trust in a block.
    """
    factors, params = soc.factors, soc.logistic
    pos = {e.id: k for k, e in enumerate(soc.entities)}
    trust = np.zeros((len(pos), len(pos)))
    for (sender, receiver), v in factors.trust.items():
        if sender in pos and receiver in pos:
            trust[pos[sender], pos[receiver]] = v
    blocks: list[tuple[int, str, InfoMeasure]] = []
    probs: list[np.ndarray] = []
    for k, sender in enumerate(soc.entities):
        # the sender's distinct trust values, and each receiver's index into them
        distinct, which = np.unique(np.delete(trust[k], k), return_inverse=True)
        values = distinct.tolist()
        for rec in sender.data:
            incentive = factors.incentive_of(sender.id, rec.datum)
            probs.append(np.array([_logistic(_logit(params, t, incentive)) for t in values])[which])
            blocks.append((k, rec.datum, release_measure(rec)))
    return blocks, np.concatenate(probs) if probs else np.empty(0)


def bundle_contexts(events: list[FlowEvent], window: int = 1) -> list[Context]:
    """Group same-(sender, receiver) events within `window` ticks.

    Events must be sorted by tick; every event lands in exactly one
    context, opened at its first event's tick.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    open_ctx: dict[tuple[str, str], list[FlowEvent]] = {}
    groups: list[list[FlowEvent]] = []
    last_t = -math.inf
    for e in events:
        if e.t < last_t:
            raise ValueError("events must be sorted by tick")
        last_t = e.t
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
    """Per-(sender, receiver, datum) cumulative content, budget, headroom: ``write_ledger_json``'s text, parsed."""
    return json.loads("".join(_ledger_chunks(ledger)))


# ---------------------------------------------------------------------------
# scenario JSON and event-log output
# ---------------------------------------------------------------------------

# the top level spreads a Scenario, its Society and the Society's FactorState
_SCENARIO_KEYS = (
    ({f.name for f in fields(Scenario)} - {"society"})
    | ({f.name for f in fields(Society) if f.init} - {"factors"})
    | {f.name for f in fields(FactorState)}
)


def _integer(value, what: str) -> int:
    """Refuse a JSON value that is not an integer (a boolean, a string or a float such as 2.7 or 1e308)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """A JSON number as a float; a boolean or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _from_json(cls, doc: dict, what: str, **convert):
    """``cls`` from a JSON object keyed by its field names, ``convert[key]`` applied to each value.

    ``int`` and ``float`` there stand for ``_integer`` and ``_number``. A key that is not a field is
    refused; an absent one takes the field's default.
    """
    _check_keys(doc, [f.name for f in fields(cls)], what)

    def value(k, v):
        c = convert.get(k)
        if c in (int, float):
            return (_integer if c is int else _number)(v, f"{what} {k}")
        return v if c is None else c(v)

    return cls(**{k: value(k, v) for k, v in doc.items()})


def _datum_from_json(doc: dict) -> DatumRecord:
    def mechanism(m):
        return None if m is None else _from_json(ReleaseMechanism, m, "mechanism", k=int, eps=float)

    return _from_json(DatumRecord, {"value": "", **doc}, "datum", value=str, domain_size=int, mechanism=mechanism)


def scenario_from_json_dict(cfg: dict) -> Scenario:
    _check_keys(cfg, _SCENARIO_KEYS, "scenario")
    entities = [
        _from_json(Entity, ent, "entity", data=lambda recs: tuple(map(_datum_from_json, recs)))
        for ent in cfg.get("entities", [])
    ]
    factors = FactorState(
        trust={
            (s, r): _number(v, f"trust{(s, r)}") for s, row in cfg.get("trust", {}).items() for r, v in row.items()
        },
        incentives={
            (s, d): _number(v, f"incentive{(s, d)}")
            for s, row in cfg.get("incentives", {}).items()
            for d, v in row.items()
        },
    )
    society = Society(
        entities=tuple(entities),
        factors=factors,
        implicit_channels=tuple(
            _from_json(ImplicitChannel, ch, "implicit channel", p=float) for ch in cfg.get("implicit_channels", [])
        ),
        logistic=_from_json(LogisticParams, cfg.get("logistic", {}), "logistic", alpha=float, beta=float, gamma=float),
        budgets={d: _number(v, f"budget for {d!r}") for d, v in cfg.get("budgets", {}).items()},
    )
    run = {k: _integer(cfg[k], k) for k in ("seed", "ticks", "window") if k in cfg}
    _check_keys(cfg.get("attribution") or {}, ("net", "ownership", "threshold", "message_nodes"), "attribution")
    return Scenario(society=society, attribution=cfg.get("attribution"), **run)


def load_scenario(path) -> Scenario:
    return load_json(path, scenario_from_json_dict)


# the columns of events.csv; write_events_csv builds its rows in this order
_CSV_FIELDS = ("record", "id", "t", "kind", "sender", "receiver", "datum", "selective_sh", "logons", "metrons",
               "context_id", "attempted_sh", "headroom_sh")


# The writers below put out exactly the bytes of json.dumps(record, sort_keys=True,
# allow_nan=False) per event-log line and of json.dump(rows, indent=2, sort_keys=True,
# allow_nan=False) for the ledger: keys in sorted order, strings through the C string
# encoder json uses, floats through float.__repr__. An InfoMeasure or a cause Context
# that many records share is encoded once per write, keyed by identity (a value key
# would merge 0.0 and -0.0).


def _float(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return repr(x)


def _measure_text(m: InfoMeasure) -> str:
    # "unbounded" is part of the log schema; an InfoMeasure is always finite, so it is always false
    return (
        f'{{"logons": {int(m.logons)}, "metrons": {int(m.metrons)}, '
        f'"selective_sh": {_float(m.selective_sh)}, "unbounded": false}}'
    )


def _context_text(c: Context) -> str:
    flow_ids = ", ".join([_str(f.id) for f in c.flows])
    return (
        f'{{"flow_ids": [{flow_ids}], "id": {_str(c.id)}, "receiver": {_str(c.receiver)}, '
        f'"sender": {_str(c.sender)}, "t": {c.t}}}'
    )


def _event_lines(result: SimulationResult, induced: list[tuple[Context, Context]]):
    """Each line of the event log: flows and budget stops by tick, then one line per induced (cause, context) pair."""
    measures: dict[int, str] = {}
    causes: dict[int, str] = {}

    def flow_text(f: FlowEvent) -> str:
        m = measures.get(id(f.measure))
        if m is None:
            m = measures[id(f.measure)] = _measure_text(f.measure)
        return (
            f'{{"context_id": {_str(f.context_id)}, "datum": {_str(f.datum)}, "id": {_str(f.id)}, '
            f'"kind": {_str(f.kind)}, "measure": {m}, "receiver": {_str(f.receiver)}, "record": "flow", '
            f'"sender": {_str(f.sender)}, "t": {f.t}}}'
        )

    for r in result.by_tick():
        if isinstance(r, FlowEvent):
            yield flow_text(r) + "\n"
        else:
            yield (
                f'{{"attempted_sh": {_float(r.attempted_sh)}, "datum": {_str(r.datum)}, '
                f'"headroom_sh": {_float(r.headroom_sh)}, "receiver": {_str(r.receiver)}, '
                f'"record": "budget-stop", "sender": {_str(r.sender)}, "t": {r.t}}}\n'
            )
    for cause, context in induced:
        c = causes.get(id(cause))
        if c is None:
            c = causes[id(cause)] = _context_text(cause)
        flows = ", ".join([flow_text(f) for f in context.flows])
        yield f'{{"cause": {c}, "context": {_context_text(context)}, "flows": [{flows}], "record": "induced-context"}}\n'


def _ledger_chunks(ledger: Ledger):
    """The ledger document in pieces: the opening bracket with the first row, each further row, the close."""
    sep = "[\n"
    cumulative = ledger.cumulative
    for key in sorted(cumulative):  # the keys are unique: sorting them alone gives the items' order, faster
        sender, receiver, datum = key
        if datum in ledger.budgets:
            budget, headroom = _float(ledger.budgets[datum]), _float(ledger.headroom(*key))
        else:
            budget = headroom = "null"
        yield (
            f'{sep}  {{\n    "budget_sh": {budget},\n    "cumulative_sh": {_float(cumulative[key])},\n'
            f'    "datum": {_str(datum)},\n    "headroom_sh": {headroom},\n'
            f'    "receiver": {_str(receiver)},\n    "sender": {_str(sender)}\n  }}'
        )
        sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


def write_events_jsonl(result: SimulationResult, fh, induced: list[tuple[Context, Context]] = ()) -> None:
    """The event log of ``result`` and its induced contexts, streamed to ``fh`` one line per record."""
    fh.writelines(_event_lines(result, induced))


def write_ledger_json(ledger: Ledger, fh) -> None:
    """``ledger_report`` as a JSON document indented by 2, streamed to ``fh`` one row at a time."""
    fh.writelines(_ledger_chunks(ledger))


def write_events_csv(result: SimulationResult, fh, induced: list[tuple[Context, Context]] = ()) -> None:
    """One row per flow and budget stop, and one ``induced-flow`` row per flow of an induced context."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)

    def flow_row(record: str, f: FlowEvent) -> list:
        m = f.measure
        return [record, f.id, f.t, f.kind, f.sender, f.receiver, f.datum,
                float(m.selective_sh), int(m.logons), int(m.metrons), f.context_id, "", ""]

    for r in result.by_tick():
        if isinstance(r, FlowEvent):
            writer.writerow(flow_row("flow", r))
        else:
            writer.writerow(["budget-stop", "", r.t, "", r.sender, r.receiver, r.datum,
                             "", "", "", "", float(r.attempted_sh), float(r.headroom_sh)])
    for _, context in induced:
        writer.writerows([flow_row("induced-flow", f) for f in context.flows])
