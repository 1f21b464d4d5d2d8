"""Finite probability distributions and exact information measures.

Conventions used throughout the package:

* probabilities are float64 with absolute tolerance 1e-9 on stochasticity
  checks,
* all logarithms are base 2 and quantities are reported in Shannons (Sh),
* 0 * log2(0) = 0, and zero-mass cells of a joint contribute nothing,
* the information content of a zero-probability outcome is the tagged
  :data:`UNBOUNDED` value, never a float infinity.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ._kernels import entropy_bits, mi_bits

SUM_TOL = 1e-9


@dataclass(frozen=True)
class Unbounded:
    """Tag for an information quantity with no finite value.

    Deliberately supports no arithmetic so it cannot silently leak into
    sums; compare with ``is UNBOUNDED``.
    """

    def __repr__(self) -> str:
        return "unbounded"


UNBOUNDED = Unbounded()


def _stochastic(values, shape: tuple[int, ...], what: str, rows: bool = False) -> np.ndarray:
    """Frozen float64 copy of a table whose entries are >= 0 (not NaN) and sum, or per row sum, to 1."""
    a = np.array(values, dtype=np.float64)
    if a.shape != shape:
        raise ValueError(f"{what} has shape {a.shape}, expected {shape}")
    if not a.min() >= 0:
        raise ValueError(f"{what} has a negative or NaN entry")
    if rows:
        bad = np.abs(a.sum(axis=1) - 1.0) > SUM_TOL
        if bad.any():
            raise ValueError(f"{what} rows {np.flatnonzero(bad).tolist()} are not stochastic")
    elif abs(a.sum() - 1.0) > SUM_TOL:
        raise ValueError(f"{what} sums to {a.sum()}, not 1")
    a.setflags(write=False)
    return a


def _nonneg(value: float, what: str) -> None:
    """Refuse a ``value`` that is not finite and >= 0 (NaN included)."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{what} must be finite and >= 0, got {value}")


def _check_keys(doc: dict, known, what: str) -> None:
    """Refuse a JSON object with a key outside ``known``."""
    unknown = set(doc) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


@contextmanager
def malformed(where):
    """Make every error of reading outside input a ValueError that names ``where``.

    Input of the wrong shape (a list for a mapping, a missing key, int()
    of a 1e400 that parsed to inf, a CSV field beyond the csv module's
    limit) raises one of the types caught here.
    """
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    except (TypeError, AttributeError, KeyError, IndexError, OverflowError, csv.Error) as exc:
        raise ValueError(f"{where}: malformed input ({type(exc).__name__}: {exc})") from exc


def load_json(path, parse):
    """``parse`` applied to the strict JSON document at ``path`` (no NaN or Infinity literals)."""
    with malformed(path):
        with open(path) as fh:
            doc = json.load(fh, parse_constant=_refuse_constant)
        return parse(doc)


def _check_labels(labels, what: str) -> tuple[str, ...]:
    labels = tuple(str(x) for x in labels)
    if not labels:
        raise ValueError(f"{what} must be non-empty")
    if len(set(labels)) != len(labels):
        raise ValueError(f"{what} must be unique, got {labels}")
    return labels


@dataclass(frozen=True, eq=False)
class Dist:
    """Probability distribution over a finite, labeled outcome space."""

    outcomes: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "outcomes", _check_labels(self.outcomes, "outcomes"))
        object.__setattr__(self, "probs", _stochastic(self.probs, (len(self.outcomes),), "probs"))

    @classmethod
    def uniform(cls, outcomes) -> "Dist":
        outcomes = tuple(outcomes)
        n = len(outcomes)
        return cls(outcomes, np.full(n, 1.0 / n))

    def prob(self, outcome) -> float:
        outcome = str(outcome)
        if outcome not in self.outcomes:
            raise ValueError(f"unknown outcome {outcome!r}, have {self.outcomes}")
        return float(self.probs[self.outcomes.index(outcome)])

    def to_json_dict(self) -> dict:
        return {"outcomes": list(self.outcomes), "probs": [float(p) for p in self.probs]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Dist":
        return cls(tuple(d["outcomes"]), d["probs"])


@dataclass(frozen=True, eq=False)
class Joint:
    """Joint mass over two finite outcome spaces."""

    x_outcomes: tuple[str, ...]
    y_outcomes: tuple[str, ...]
    mass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_outcomes", _check_labels(self.x_outcomes, "x outcomes"))
        object.__setattr__(self, "y_outcomes", _check_labels(self.y_outcomes, "y outcomes"))
        shape = (len(self.x_outcomes), len(self.y_outcomes))
        object.__setattr__(self, "mass", _stochastic(self.mass, shape, "mass"))

    def marginal_x(self) -> Dist:
        return Dist(self.x_outcomes, self.mass.sum(axis=1))

    def marginal_y(self) -> Dist:
        return Dist(self.y_outcomes, self.mass.sum(axis=0))

    def transpose(self) -> "Joint":
        return Joint(self.y_outcomes, self.x_outcomes, self.mass.T)

    def to_json_dict(self) -> dict:
        return {
            "x": list(self.x_outcomes),
            "y": list(self.y_outcomes),
            "mass": [[float(v) for v in row] for row in self.mass],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Joint":
        return cls(tuple(d["x"]), tuple(d["y"]), d["mass"])


@dataclass(frozen=True)
class InfoMeasure:
    """Information content of one message, in all three units.

    ``selective_sh`` is the Shannon (selective) content; ``logons`` counts
    distinguishable groups in the representation and ``metrons`` its
    indistinguishable elements.
    """

    selective_sh: float
    logons: int
    metrons: int
    unbounded: bool = False

    def __post_init__(self):
        if self.logons < 0 or self.metrons < 0:
            raise ValueError("logons/metrons must be non-negative")
        if not self.unbounded:
            _nonneg(self.selective_sh, "selective_sh")


@dataclass(frozen=True)
class Representation:
    """Partition of element ids into distinguishable groups."""

    groups: tuple[frozenset, ...] = field(default_factory=tuple)

    def __post_init__(self):
        groups = tuple(frozenset(g) for g in self.groups)
        if not groups:
            raise ValueError("representation must have at least one group")
        if any(not g for g in groups):
            raise ValueError("groups must be non-empty")
        seen: set = set()
        for g in groups:
            if seen & g:
                raise ValueError("groups must be disjoint")
            seen |= g
        object.__setattr__(self, "groups", groups)

    @property
    def elements(self) -> frozenset:
        return frozenset().union(*self.groups)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def self_information(d: Dist, outcome) -> float | Unbounded:
    """-log2 p(outcome) in Sh; UNBOUNDED when the outcome has probability 0."""
    p = d.prob(outcome)
    if p == 0.0:
        return UNBOUNDED
    return -math.log2(p)


def entropy(d: Dist) -> float:
    """Shannon entropy H(d) in Sh."""
    return entropy_bits(d.probs)


def mutual_information(j: Joint) -> float:
    """I(X;Y) in Sh from the joint mass; zero-mass cells contribute 0."""
    return mi_bits(j.mass)


def total_variation(p: Dist, q: Dist) -> float:
    """(1/2) sum |p - q| over a shared outcome space."""
    if p.outcomes != q.outcomes:
        raise ValueError(f"outcome spaces differ: {p.outcomes} vs {q.outcomes}")
    return float(0.5 * np.abs(p.probs - q.probs).sum())


def structural_metric_content(r: Representation) -> InfoMeasure:
    """Structural (logons) and metrical (metrons) content of a partition.

    logons = number of distinguishable groups, metrons = total element
    count, selective content = log2(number of groups).
    """
    n_groups = len(r.groups)
    return InfoMeasure(
        selective_sh=math.log2(n_groups),
        logons=n_groups,
        metrons=len(r.elements),
    )
