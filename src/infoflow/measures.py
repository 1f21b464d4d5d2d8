"""Finite probability distributions and exact information measures.

Conventions used throughout the package:

* probabilities are float64 with absolute tolerance 1e-9 on stochasticity
  checks,
* all logarithms are base 2 and quantities are reported in Shannons (Sh),
* 0 * log2(0) = 0, and zero-mass cells of a joint contribute nothing.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ._kernels import entropy_bits, mi_bits

SUM_TOL = 1e-9

STATE_SPACE_CAP = 2**22  # cells of a dense table: a net's joint, a randomized-response matrix, a composed channel


class CapacityError(Exception):
    """Raised when a computation would exceed a size cap; the message names the size and the cap."""


def _has_bool(values) -> bool:
    """Whether ``values`` is a boolean or a (nested) list or tuple holding one; an ndarray is neither."""
    if isinstance(values, (list, tuple)):
        return any(map(_has_bool, values))
    return isinstance(values, (bool, np.bool_))


def _stochastic(values, shape: tuple[int, ...], what: str, rows: bool = False) -> np.ndarray:
    """Frozen float64 copy of a table of numbers >= 0 (not NaN) that sum, or per row sum, to 1.

    A table with a cell that is not a number (a string, boolean or null cell) is refused. Booleans
    are looked for before numpy reads the table, which would take ``[true, 0]`` as the integers
    ``[1, 0]``; an ndarray is taken as numpy already read it.
    """
    a = np.array(values)
    if a.dtype.kind not in "iuf" or _has_bool(values):
        raise ValueError(f"{what} has an entry that is not a number: a string, a boolean or a null (NaN)")
    a = a.astype(np.float64, copy=False)
    if a.shape != shape:
        raise ValueError(f"{what} has shape {a.shape}, expected {shape}")
    if not a.min() >= 0:
        raise ValueError(f"{what} has a negative or NaN entry")
    if rows:
        deviation = np.abs(a.sum(axis=1) - 1.0)
        if deviation.max() > SUM_TOL:
            raise ValueError(f"{what} rows {np.flatnonzero(deviation > SUM_TOL).tolist()} are not stochastic")
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


def _as_tuple(values, what: str) -> tuple:
    """``values`` as a tuple; a string is refused, since tuple() would split it into one item per character."""
    if isinstance(values, str):
        raise ValueError(f"{what} must be a list, got the string {values!r}")
    return tuple(values)


def _check_labels(labels, what: str) -> tuple[str, ...]:
    """``labels`` as a tuple of unique strings; a label of another type is refused, not converted."""
    labels = _as_tuple(labels, what)
    for x in labels:
        if not isinstance(x, str):
            raise ValueError(f"{what} must be strings, got {x!r}")
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
        n = len(outcomes)
        return cls(outcomes, np.full(n, 1.0 / n))

    @classmethod
    def from_json_dict(cls, d: dict) -> "Dist":
        return cls(d["outcomes"], d["probs"])


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


@dataclass(frozen=True)
class InfoMeasure:
    """Information content of one message, in all three units.

    ``selective_sh`` is the Shannon (selective) content; ``logons`` counts
    the distinguishable values the message can take (its structural
    content) and ``metrons`` the elements each value carries (its metrical
    content).
    """

    selective_sh: float
    logons: int
    metrons: int

    def __post_init__(self):
        if self.logons < 0 or self.metrons < 0:
            raise ValueError("logons/metrons must be non-negative")
        _nonneg(self.selective_sh, "selective_sh")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def entropy(d: Dist) -> float:
    """Shannon entropy H(d) in Sh."""
    return entropy_bits(d.probs)


def mutual_information(j: Joint) -> float:
    """I(X;Y) in Sh from the joint mass; zero-mass cells contribute 0."""
    return mi_bits(j.mass)
