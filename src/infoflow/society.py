"""Seeded discrete-time simulator of entities, factors, and flows.

Entities hold governed data; at every tick each (sender, receiver,
datum) candidate fires an explicit flow with a probability given by a
logistic link over trust and incentives, while environment channels
(e.g. a camera) fire implicit flows with probabilities independent of
the subject's factors. Explicit and implicit draws come from separate
per-tick generator streams, so perturbing a subject's factors can never
change the implicit event set. A ledger accumulates the sum of
certified per-release caps of every flow and enforces optional
per-datum release budgets on explicit flows.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
import time
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _str
from operator import attrgetter
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .channels import _check_rr, dp_to_mi_bound
from .measures import (
    INTEGERS, InfoMeasure, _at_least, _check_id, _check_keys, _check_size, _distinct, _integer, _known, _nonneg,
    _number, _prechecked, _unit, load_json, write_csv,
)

GOVERNANCE_TAGS = (
    "conjunct",
    "delegated",
    "distributed-shard",
    "distributed-share",
    "distributed-copy",
)

FLOW_KINDS = ("explicit", "implicit")
DRAW_CAP = 2**24  # draws in one run: ticks * (explicit candidates + implicit channels)
_ID_TAG = {"explicit": "x", "implicit": "i"}  # flow ids open with the kind's tag
_ID_SEPARATORS = ">:~"  # flow and context ids join entity and datum ids with these, so no such id holds one
_BATCH = 128  # event-log lines or ledger rows joined per write; a larger batch holds more text at once

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ReleaseMechanism:
    """Randomizing mechanism attached to a datum (k-ary randomized response)."""

    kind: str
    k: int
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "k", _integer(self.k, "mechanism k", INTEGERS))
        object.__setattr__(self, "eps", _number(self.eps, "mechanism eps"))
        _known(self.kind, ("randomized-response",), "mechanism kind")
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
        object.__setattr__(self, "domain_size", _integer(self.domain_size, "datum domain_size", INTEGERS))
        _at_least(self.domain_size, 1, "domain_size")
        _check_id(self.datum, "datum id", reserved=_ID_SEPARATORS)
        _check_id(self.value, "value of datum ", self.datum)
        _check_id(self.owner, "owner of datum ", self.datum)
        _known(self.governance, GOVERNANCE_TAGS, "governance tag")


@dataclass(frozen=True)
class Entity:
    id: str
    data: tuple[DatumRecord, ...] = ()

    def __post_init__(self):
        _check_id(self.id, "entity id", reserved=_ID_SEPARATORS)
        object.__setattr__(self, "data", tuple(self.data))
        _distinct([r.datum for r in self.data], "datum ids on entity ", self.id)
        for r in self.data:
            conjunct = r.owner == self.id
            if (r.governance == "conjunct") != conjunct:
                raise ValueError(
                    f"governance {r.governance!r} inconsistent with owner {r.owner!r} "
                    f"on holder {self.id!r}"
                )


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
        for name in ("alpha", "beta", "gamma"):
            object.__setattr__(self, name, _number(getattr(self, name), f"logistic {name}"))
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
        object.__setattr__(self, "p", _unit(_number(self.p, "implicit channel p"), "implicit channel p"))


class _Record:
    """Base of the tuple records below: ``_make``, and so ``_replace``, builds through the validating ``__new__``.

    A ``NamedTuple``'s own ``_make`` calls ``tuple.__new__`` and skips every check. Pickling and
    ``copy`` pass the fields to ``__new__``, so they are checked too.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _FlowFields(NamedTuple):
    id: str
    t: int
    sender: str
    receiver: str
    datum: str
    measure: InfoMeasure
    kind: str
    context_id: str


class FlowEvent(_Record, _FlowFields):
    """One atomic, pairwise flow of a single datum."""

    __slots__ = ()

    def __new__(cls, id, t, sender, receiver, datum, measure, kind, context_id):
        if sender == receiver:
            raise ValueError("flow sender and receiver must differ")
        if kind not in FLOW_KINDS:
            raise ValueError(f"kind must be one of {FLOW_KINDS}, got {kind!r}")
        return tuple.__new__(cls, (id, t, sender, receiver, datum, measure, kind, context_id))


class _StopFields(NamedTuple):
    t: int
    sender: str
    receiver: str
    datum: str
    attempted_sh: float
    headroom_sh: float


class BudgetStop(_Record, _StopFields):
    """Record of an explicit release suppressed by an exhausted budget."""

    __slots__ = ()

    def __new__(cls, t, sender, receiver, datum, attempted_sh, headroom_sh):
        if sender == receiver:
            raise ValueError("budget stop sender and receiver must differ")
        return tuple.__new__(cls, (t, sender, receiver, datum, attempted_sh, headroom_sh))


class _ContextFields(NamedTuple):
    id: str
    t: int
    sender: str
    receiver: str
    flows: tuple[FlowEvent, ...]


class Context(_Record, _ContextFields):
    """Flows bundled by shared (sender, receiver) within a tick window."""

    __slots__ = ()

    def __new__(cls, id, t, sender, receiver, flows):
        flows = tuple(flows)
        for f in flows:
            if f.sender != sender or f.receiver != receiver:
                raise ValueError("context flows must share sender and receiver")
        return tuple.__new__(cls, (id, t, sender, receiver, flows))


def _budgets(budgets: Mapping) -> Mapping[str, float]:
    """The budget rule: each datum's budget a finite number >= 0, stored as a float in a read-only view."""
    return MappingProxyType({d: _nonneg(_number(v, "budget for ", d), "budget for ", d) for d, v in budgets.items()})


@dataclass(frozen=True)
class Ledger:
    """Per-(sender, receiver, datum) sum of certified per-release caps, in Sh, against read-only per-datum budgets."""

    budgets: Mapping[str, float] = field(default_factory=dict)
    cumulative: dict[tuple[str, str, str], float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "budgets", _budgets(self.budgets))

    @classmethod
    def of(cls, society: Society) -> Ledger:
        """An empty ledger that reads ``society``'s budgets, which the society checked: one copy, checked once."""
        return _prechecked(cls, budgets=society.budgets, cumulative={})

    def headroom(self, sender: str, receiver: str, datum: str) -> float | None:
        cap = self.budgets.get(datum)
        return None if cap is None else max(cap - self.cumulative.get((sender, receiver, datum), 0.0), 0.0)

    def charge(self, sender: str, receiver: str, datum: str, amount_sh: float) -> float | None:
        """The budget rule: record a release up to the budget plus 1e-9 Sh, or record nothing and give the headroom."""
        cap = self.budgets.get(datum)
        if cap is not None and self.cumulative.get((sender, receiver, datum), 0.0) + amount_sh > cap + 1e-9:
            return self.headroom(sender, receiver, datum)
        self.record(sender, receiver, datum, amount_sh)
        return None

    def record(self, sender: str, receiver: str, datum: str, amount_sh: float) -> None:
        key = (sender, receiver, datum)
        self.cumulative[key] = self.cumulative.get(key, 0.0) + amount_sh


@dataclass(frozen=True)
class Society:
    """Entities plus the factors of their flow decisions: trust in receivers and incentives to release data."""

    entities: tuple[Entity, ...]
    trust: Mapping[tuple[str, str], float] = field(default_factory=dict)
    incentives: Mapping[tuple[str, str], float] = field(default_factory=dict)
    implicit_channels: tuple[ImplicitChannel, ...] = ()
    logistic: LogisticParams = field(default_factory=LogisticParams)
    budgets: Mapping[str, float] = field(default_factory=dict)
    # entity id -> its position in entities, in that order: the one index of the society's ids
    index: Mapping[str, int] = field(init=False, repr=False, compare=False)
    # (holder id, datum id) -> the record that holder keeps
    held: Mapping[tuple[str, str], DatumRecord] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        trust = {k: _unit(_number(v, "trust", k), "trust", k) for k, v in self.trust.items()}
        incentives = {k: _nonneg(_number(v, "incentive", k), "incentive", k) for k, v in self.incentives.items()}
        object.__setattr__(self, "trust", MappingProxyType(trust))
        object.__setattr__(self, "incentives", MappingProxyType(incentives))
        object.__setattr__(self, "entities", tuple(self.entities))
        _at_least(len(self.entities), 2, "number of entities in a society")
        _distinct([e.id for e in self.entities], "entity ids")
        object.__setattr__(self, "budgets", _budgets(self.budgets))
        index = {e.id: k for k, e in enumerate(self.entities)}
        object.__setattr__(self, "index", MappingProxyType(index))
        object.__setattr__(self, "held", MappingProxyType({(e.id, r.datum): r for e in self.entities for r in e.data}))
        for r in self.held.values():
            _known(r.owner, index, "owner of datum ", r.datum)
        object.__setattr__(self, "implicit_channels", tuple(self.implicit_channels))
        for ch in self.implicit_channels:
            _known(ch.subject, index, "entity")
            _known(ch.observer, index, "entity")
        # a channel observes its subject's datum, and an incentive is to release the sender's own
        for holder, datum in [*((ch.subject, ch.datum) for ch in self.implicit_channels), *self.incentives]:
            _holds(holder, datum, self.held)
        _distinct([(ch.subject, ch.observer, ch.datum) for ch in self.implicit_channels], "implicit channels")
        for sender, receiver in self.trust:
            _trust_pair(sender, receiver, index)
        data = {d for _, d in self.held}
        for d in self.budgets:
            _known(d, data, "budgeted datum")


def _holds(holder: str, datum: str, held: Mapping[tuple[str, str], DatumRecord]) -> None:
    """The holding rule: ``holder`` is an entity that keeps a record of ``datum``."""
    if (holder, datum) not in held:
        raise ValueError(f"entity {holder!r} does not hold datum {datum!r}")


def _trust_pair(sender: str, receiver: str, known) -> None:
    """The trust rule: a (sender, receiver) key names two distinct entities of the society."""
    _known(sender, known, "trusting entity")
    _known(receiver, known, "trusted entity")
    if sender == receiver:
        raise ValueError(f"entity {sender!r} cannot trust itself")


def _logistic(x: float) -> float:
    # numerically stable for large |x|
    if x >= 0:
        z = math.exp(-x)
        return 1.0 / (1.0 + z)
    z = math.exp(x)
    return z / (1.0 + z)


def _logit(params: LogisticParams, trust: float, incentive: float) -> float:
    return params.alpha * trust + params.beta * incentive - params.gamma


def decision_prob(society: Society, sender: str, receiver: str, datum: str) -> float:
    """Probability the sender decides to release datum to receiver, by the society's own logistic weights.

    Monotone non-decreasing in both trust(sender, receiver) and
    incentive(sender, datum), each 0 where the society gives none. Its
    keys are refused as the society refuses a trust or incentive key.
    """
    _trust_pair(sender, receiver, society.index)
    _holds(sender, datum, society.held)
    trust, incentive = society.trust.get((sender, receiver), 0.0), society.incentives.get((sender, datum), 0.0)
    return _logistic(_logit(society.logistic, trust, incentive))


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
        selective_sh=math.log2(rec.domain_size),
        logons=rec.domain_size,
        metrons=1,
    )


@dataclass(frozen=True)
class Scenario:
    """A society plus run parameters; the unit the CLI consumes."""

    society: Society
    seed: int = 0
    ticks: int = 1
    window: int = 1
    attribution: dict | None = None  # the block as the document gives it: causal.load_attribution reads and checks it

    def __post_init__(self):
        object.__setattr__(self, "seed", _integer(self.seed, "seed", INTEGERS))
        _at_least(self.seed, 0, "seed")
        object.__setattr__(self, "ticks", _integer(self.ticks, "ticks", INTEGERS))
        _at_least(self.ticks, 0, "ticks")
        object.__setattr__(self, "window", _window(self.window))


def _window(window: int) -> int:
    """The window rule: an integer >= 1 of ticks that one context spans, as an ``int``."""
    window = _integer(window, "window", INTEGERS)
    _at_least(window, 1, "window")
    return window


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

    The scenario's records are frozen and their mappings read-only views
    (so a society cannot be pickled or deep-copied): the run reads the
    society as it was checked. Every (sender, datum, receiver) candidate's
    decision probability is fixed when the simulation is built, from the
    sparse trust map (see ``_decision_table``); so is the content of each
    implicit channel's release. Each tick draws one uniform per candidate
    in a single batch, in the order sender, datum, receiver of the
    society's declarations. A run of more than DRAW_CAP draws in all is
    refused before the decision table is built, and ``step`` refuses a tick
    past the scenario's ``ticks``.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.society = scenario.society
        self.ledger = Ledger.of(scenario.society)
        self.t = 0
        self.events: list[FlowEvent] = []
        self.stops: list[BudgetStop] = []
        self._ids = list(scenario.society.index)
        # the draws are counted before the table is built; a tick without a candidate costs its generators: one draw
        candidates = len(scenario.society.held) * (len(self._ids) - 1)
        per_tick = max(candidates + len(scenario.society.implicit_channels), 1)
        draws = scenario.ticks * per_tick
        _check_size(draws, DRAW_CAP, f"{scenario.ticks} ticks of {per_tick} draws make {draws} draws")
        t0 = time.perf_counter()
        self._blocks, self._p = _decision_table(scenario.society)
        self._implicit = [
            (ch, _raw_release_measure(scenario.society.held[(ch.subject, ch.datum)]))
            for ch in scenario.society.implicit_channels
        ]
        log.debug("Simulation: %d candidates in %d blocks, %d trusted pairs, built in %.6f s",
                  len(self._p), len(self._blocks), len(scenario.society.trust), time.perf_counter() - t0)

    def step(self) -> tuple[list[FlowEvent], list[BudgetStop]]:
        t = self.t
        if t >= self.scenario.ticks:
            raise ValueError(f"tick {t} is past the scenario's ticks = {self.scenario.ticks}")
        rng_explicit = np.random.default_rng([self.scenario.seed, t, 0])
        rng_implicit = np.random.default_rng([self.scenario.seed, t, 1])
        events: list[FlowEvent] = []
        stops: list[BudgetStop] = []

        def flow(kind: str, sender: str, receiver: str, datum: str, measure: InfoMeasure) -> FlowEvent:
            return FlowEvent(f"{_ID_TAG[kind]}:{t}:{sender}>{receiver}:{datum}", t, sender, receiver, datum, measure,
                             kind, f"c:{t}:{sender}>{receiver}")

        # a batch of N uniforms is the same stream as N scalar draws, so the fired set
        # is the one a draw per candidate in this order gives
        fired = np.flatnonzero(rng_explicit.random(len(self._p)) < self._p)
        blocks, offsets = np.divmod(fired, len(self._ids) - 1)
        for b, j in zip(blocks.tolist(), offsets.tolist()):
            k, datum, measure = self._blocks[b]
            sender, receiver = self._ids[k], self._ids[j + (j >= k)]
            headroom = self.ledger.charge(sender, receiver, datum, measure.selective_sh)
            if headroom is None:
                events.append(flow("explicit", sender, receiver, datum, measure))
            else:
                stops.append(BudgetStop(t, sender, receiver, datum, measure.selective_sh, headroom))

        for ch, measure in self._implicit:
            if rng_implicit.random() < ch.p:
                events.append(flow("implicit", ch.subject, ch.observer, ch.datum, measure))
                self.ledger.record(ch.subject, ch.observer, ch.datum, measure.selective_sh)

        self.t += 1
        self.events.extend(events)
        self.stops.extend(stops)
        return events, stops

    def run(self) -> SimulationResult:
        """Run the ticks left of the scenario's ``ticks``: after k ``step`` calls, ticks k onwards."""
        t0, start = time.perf_counter(), self.t
        while self.t < self.scenario.ticks:
            self.step()
        log.debug(
            "Simulation.run: %d ticks, %d candidates and %d implicit channels per tick, "
            "%d events, %d budget stops in %.3f s",
            self.t - start, len(self._p), len(self._implicit), len(self.events), len(self.stops),
            time.perf_counter() - t0,
        )
        return SimulationResult(events=list(self.events), stops=list(self.stops), ledger=self.ledger)


def simulate(scenario: Scenario) -> SimulationResult:
    return Simulation(scenario).run()


def _decision_table(soc: Society) -> tuple[list[tuple[int, str, InfoMeasure]], np.ndarray]:
    """Explicit-flow candidates and their decision probabilities.

    Candidates run over senders, then each sender's data, then receivers
    (every other entity), in declaration order. With n entities, block
    b = (sender position, datum, release content) holds candidates
    b*(n-1) to (b+1)*(n-1) - 1, and offset j in a block is the receiver
    at position j, or j + 1 from the sender's position on. Every
    candidate of a block takes the block's probability at trust 0, and
    the receivers the sender has a trust entry for are then overwritten:
    the link runs once per block plus once per (block, trusted receiver).
    """
    params = soc.logistic
    pos = soc.index
    width = len(pos) - 1
    # each sender's trusted receivers, as (offset in its blocks, trust)
    trusted: list[list[tuple[int, float]]] = [[] for _ in pos]
    for (sender, receiver), v in soc.trust.items():
        k, r = pos[sender], pos[receiver]
        trusted[k].append((r - (r > k), v))
    blocks: list[tuple[int, str, InfoMeasure]] = []
    base, cells, values, measures = [], [], [], {}  # probabilities at trust 0; trusted cells and theirs
    for k, sender in enumerate(soc.entities):
        for rec in sender.data:
            incentive = soc.incentives.get((sender.id, rec.datum), 0.0)
            start = len(blocks) * width
            base.append(_logistic(_logit(params, 0.0, incentive)))
            for j, v in trusted[k]:
                cells.append(start + j)
                values.append(_logistic(_logit(params, v, incentive)))
            content = (rec.domain_size, rec.mechanism)  # data of equal content share one measure
            if content not in measures:
                measures[content] = release_measure(rec)
            blocks.append((k, rec.datum, measures[content]))
    p = np.repeat(np.array(base, dtype=np.float64), width)
    p[cells] = values
    return blocks, p


def bundle_contexts(events: list[FlowEvent], window: int = 1) -> list[Context]:
    """Group same-(sender, receiver) events within `window` ticks.

    Events must be sorted by tick; every event lands in exactly one
    context, opened at its first event's tick.
    """
    _window(window)
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
    contexts = [Context(f"C{i:04d}", fs[0].t, fs[0].sender, fs[0].receiver, fs) for i, fs in enumerate(groups)]
    log.debug("bundle_contexts: %d contexts of window %d", len(contexts), window)
    return contexts


def ledger_report(ledger: Ledger) -> list[dict]:
    """Per-(sender, receiver, datum) cumulative content, budget, headroom: ``write_ledger_json``'s text, parsed."""
    return json.loads("".join(_ledger_chunks(ledger)))


# ---------------------------------------------------------------------------
# scenario JSON and event-log output
# ---------------------------------------------------------------------------

# the top level spreads a Scenario and its Society
_SCENARIO_KEYS = ({f.name for f in fields(Scenario)} - {"society"}) | {f.name for f in fields(Society) if f.init}


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    """The field names of dataclass ``cls``, read once per class rather than once per record."""
    return tuple(f.name for f in fields(cls))


def _from_json(cls, doc: dict, what: str, **nested):
    """``cls`` from a JSON object keyed by its field names, the value of a key in ``nested`` read by its reader there.

    A key that is not a field is refused; an absent one takes the field's default. ``cls`` checks every value.
    """
    _check_keys(doc, _field_names(cls), what)
    return cls(**{k: nested[k](v) if k in nested else v for k, v in doc.items()})


def _mechanism_from_json(doc: dict | None) -> ReleaseMechanism | None:
    return None if doc is None else _from_json(ReleaseMechanism, doc, "mechanism")


def _datum_from_json(doc: dict) -> DatumRecord:
    return _from_json(DatumRecord, {"value": "", **doc}, "datum", mechanism=_mechanism_from_json)


def _data_from_json(docs: list) -> tuple[DatumRecord, ...]:
    return tuple(map(_datum_from_json, docs))


def scenario_from_json_dict(cfg: dict) -> Scenario:
    _check_keys(cfg, _SCENARIO_KEYS, "scenario")
    entities = [_from_json(Entity, ent, "entity", data=_data_from_json) for ent in cfg.get("entities", [])]
    channels = [_from_json(ImplicitChannel, ch, "implicit channel") for ch in cfg.get("implicit_channels", [])]
    society = Society(
        entities=entities,
        trust={(s, r): v for s, row in cfg.get("trust", {}).items() for r, v in row.items()},
        incentives={(s, d): v for s, row in cfg.get("incentives", {}).items() for d, v in row.items()},
        implicit_channels=channels,
        logistic=_from_json(LogisticParams, cfg.get("logistic", {}), "logistic"),
        budgets=cfg.get("budgets", {}),
    )
    run = {k: cfg[k] for k in ("seed", "ticks", "window") if k in cfg}
    return Scenario(society=society, attribution=cfg.get("attribution"), **run)


def load_scenario(path) -> Scenario:
    return load_json(path, scenario_from_json_dict)


# the columns of events.csv; write_events_csv builds its rows in this order
_CSV_FIELDS = ("record", "id", "t", "kind", "sender", "receiver", "datum", "selective_sh", "logons", "metrons",
               "context_id", "attempted_sh", "headroom_sh")


# The writers below put out exactly the bytes of json.dumps(record, sort_keys=True, allow_nan=False)
# per event-log line and of measures.write_json(rows) for the ledger: keys in sorted order, strings
# through the C string encoder json uses, floats through float.__repr__. An InfoMeasure or a cause
# Context that many records share is encoded once per write, keyed by identity (a value key would
# merge 0.0 and -0.0).


def _float(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return repr(x)


def _measure_text(m: InfoMeasure) -> str:
    # "unbounded" is part of the log schema; an InfoMeasure is always finite, so it is always false
    return (
        f'{{"logons": {m.logons}, "metrons": {m.metrons}, '
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
    budgets = {datum: _float(cap) for datum, cap in ledger.budgets.items()}  # each budget's text, formatted once
    for key in sorted(cumulative):  # the keys are unique: sorting them alone gives the items' order, faster
        sender, receiver, datum = key
        budget = budgets.get(datum, "null")
        headroom = _float(ledger.headroom(*key)) if datum in budgets else "null"
        yield (
            f'{sep}  {{\n    "budget_sh": {budget},\n    "cumulative_sh": {_float(cumulative[key])},\n'
            f'    "datum": {_str(datum)},\n    "headroom_sh": {headroom},\n'
            f'    "receiver": {_str(receiver)},\n    "sender": {_str(sender)}\n  }}'
        )
        sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


def _write_batched(chunks, fh) -> None:
    """Write ``chunks`` to ``fh`` joined _BATCH at a time: one ``write`` call each, the text held a batch at a time."""
    chunks = iter(chunks)
    while batch := "".join(itertools.islice(chunks, _BATCH)):
        fh.write(batch)


def write_events_jsonl(result: SimulationResult, fh, induced: list[tuple[Context, Context]] = ()) -> None:
    """The event log of ``result`` and its induced contexts, streamed to ``fh`` in batches of records."""
    _write_batched(_event_lines(result, induced), fh)


def write_ledger_json(ledger: Ledger, fh) -> None:
    """``ledger_report`` as a JSON document indented by 2, streamed to ``fh`` in batches of rows."""
    _write_batched(_ledger_chunks(ledger), fh)


def write_events_csv(result: SimulationResult, fh, induced: list[tuple[Context, Context]] = ()) -> None:
    """One row per flow and budget stop, and one ``induced-flow`` row per flow of an induced context."""

    def flow_row(record: str, f: FlowEvent) -> list:
        m = f.measure
        return [record, f.id, f.t, f.kind, f.sender, f.receiver, f.datum,
                m.selective_sh, m.logons, m.metrons, f.context_id, "", ""]

    def stop_row(r: BudgetStop) -> list:
        return ["budget-stop", "", r.t, "", r.sender, r.receiver, r.datum,
                "", "", "", "", float(r.attempted_sh), float(r.headroom_sh)]

    ticks = (flow_row("flow", r) if isinstance(r, FlowEvent) else stop_row(r) for r in result.by_tick())
    induced_flows = (flow_row("induced-flow", f) for _, context in induced for f in context.flows)
    write_csv(itertools.chain([_CSV_FIELDS], ticks, induced_flows), fh)
