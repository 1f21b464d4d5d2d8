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
from itertools import islice
from pathlib import Path

import numpy as np

from ._kernels import entropy_bits, mi_bits

SUM_TOL = 1e-9

INTEGERS = (int, np.integer)  # the integer types a record or check accepts where numpy may hand it one

STATE_SPACE_CAP = 2**22  # cells of a dense table: a net's joint, a randomized-response matrix, a composed channel

_CHUNK_ROWS = 4096  # rows joined into one text at a time by write_csv


class CapacityError(Exception):
    """Raised when a computation would exceed a size cap; the message names the size and the cap."""


def _has_bool(values) -> bool:
    """Whether ``values`` is a boolean or a (nested) list or tuple holding one; an ndarray is neither.

    One nesting level at a time: the types of a level's items are
    collected first, so a level of numbers costs one pass and no call
    per cell.
    """
    level = [values]
    while level:
        nested = False
        for t in set(map(type, level)):
            if issubclass(t, (bool, np.bool_)):
                return True
            nested = nested or issubclass(t, (list, tuple))
        if not nested:
            return False
        level = [x for v in level if isinstance(v, (list, tuple)) for x in v]
    return False


def _stochastic(values, shape: tuple[int, ...], what: str, rows: bool = False, stacked: bool = False) -> np.ndarray:
    """Frozen float64 copy of a table of numbers >= 0 (not NaN) that sum, or per row sum, to 1.

    A table with a cell that is not a number (a string, boolean or null cell) is refused. Booleans
    are looked for before numpy reads the table, which would take ``[true, 0]`` as the integers
    ``[1, 0]``; an ndarray is taken as numpy already read it. A table with a cell above
    1 + SUM_TOL (which no stochastic table has) is refused before a cell near the float maximum can
    overflow its sum. ``stacked`` checks a stack of tables of ``shape`` along the first axis in one
    pass; the first table in it that breaks a rule is refused in the words it would get alone.
    """
    a = np.array(values)
    if a.dtype.kind not in "iuf" or _has_bool(values):
        raise ValueError(f"{what} has an entry that is not a number: a string, a boolean or a null (NaN)")
    a = a.astype(np.float64, copy=False)
    if a.shape[stacked:] != shape:
        raise ValueError(f"{what} has shape {a.shape[stacked:]}, expected {shape}")
    if not a.min() >= 0:
        raise ValueError(f"{what} has a negative or NaN entry")
    if a.max() > 1.0 + SUM_TOL:
        raise ValueError(f"{what} has an entry above 1")
    if rows or stacked:
        # the sum of each row, along the last axis, or of each table in a stack
        deviation = np.abs((a if rows else a.reshape(len(a), -1)).sum(axis=-1) - 1.0)
        if deviation.max() > SUM_TOL:
            if stacked:  # refuse the first bad table by its own message
                _stochastic(a[np.argwhere(deviation > SUM_TOL)[0, 0]], shape, what, rows)
            raise ValueError(f"{what} rows {np.flatnonzero(deviation > SUM_TOL).tolist()} are not stochastic")
    elif abs(a.sum() - 1.0) > SUM_TOL:
        raise ValueError(f"{what} sums to {a.sum()}, not 1")
    a.setflags(write=False)
    return a


def _prechecked(cls, **fields):
    """A frozen dataclass ``cls`` holding ``fields`` that passed its checks already, built without ``__post_init__``."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)  # a frozen dataclass refuses setattr; its instance dict does not
    return obj


# A ``key`` given to a rule below is written, as its repr, after ``what`` in a refusal, so a caller that checks many
# values, such as trust per (sender, receiver), formats the key only when it refuses one.
def _named(what: str, key) -> str:
    return what if key is None else f"{what}{key!r}"


def _nonneg(value: float, what: str, key=None) -> float:
    """``value``, refused if it is not finite and >= 0 (NaN included)."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{_named(what, key)} must be finite and >= 0, got {value}")
    return value


def _at_least(value, n: int, what: str) -> None:
    """Refuse a ``value`` below ``n`` (NaN included): a negative seed, say, before numpy's bare refusal of it."""
    if not value >= n:
        raise ValueError(f"{what} must be >= {n}, got {value}")


def _unit(value: float, what: str, key=None) -> float:
    """``value``, refused if it is outside [0, 1] (NaN included)."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{_named(what, key)} must be in [0,1], got {value}")
    return value


def _check_size(size: int, cap: int, what: str) -> None:
    """Refuse a ``size`` above ``cap`` with a CapacityError; ``what`` names the size."""
    if size > cap:
        raise CapacityError(f"{what}, exceeding the cap of {cap}")


def _distinct(items, what: str, key=None) -> None:
    """Refuse ``items`` that hold a repeat, naming the first one."""
    seen = set()
    for x in items:
        if x in seen:
            raise ValueError(f"duplicate {_named(what, key)}: {x!r}")
        seen.add(x)


def _known(value, known, what: str, key=None):
    """``value``, refused, by name, if it is not in ``known``: a name a record refers to must resolve."""
    if value not in known:
        raise ValueError(f"unknown {_named(what, key)} {value!r}")
    return value


def _check_id(value, what: str, key=None, reserved: str = "") -> None:
    """Refuse an id, a name or a datum value that is not a string, or holds a ``reserved`` character."""
    if not isinstance(value, str):
        raise ValueError(f"{_named(what, key)} must be a string, got {value!r}")
    for c in reserved:  # a plain loop: most calls reserve nothing, and a generator would cost each of them
        if c in value:
            raise ValueError(f"{_named(what, key)} {value!r} must not contain any of {', '.join(map(repr, reserved))}")


def _integer(value, what: str, kinds=int) -> int:
    """``value`` as an ``int``; refused unless an integer of ``kinds`` (so a bool, a str or a float such as 1e308)."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _number(value, what: str, key=None) -> float:
    """A number as a float; a boolean or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{_named(what, key)} must be a number, got {value!r}")
    return float(value)


def _check_keys(doc: dict, known, what: str) -> dict:
    """``doc``, a JSON object, refused if it is not one or has a key outside ``known``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be an object, got {type(doc).__name__}")
    unknown = set(doc) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return doc


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


@contextmanager
def malformed(where):
    """Make every error of reading outside input a ValueError that names ``where``.

    Input of the wrong shape (a list for a mapping, a missing key, int()
    of a 1e400 that parsed to inf, a CSV field beyond the csv module's
    limit, JSON nested deeper than the decoder recurses) raises one of
    the types caught here.
    """
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    except (TypeError, AttributeError, KeyError, IndexError, OverflowError, RecursionError, csv.Error) as exc:
        raise ValueError(f"{where}: malformed input ({type(exc).__name__}: {exc})") from exc


def read_file(path) -> str:
    """The text of the file at ``path``, decoded as UTF-8 whatever the locale, its line ends kept as written.

    A byte-order mark at the start is not part of the text (``utf-8-sig``), as a JSON parser may ignore one
    (RFC 8259, 8.1) and a spreadsheet's UTF-8 CSV starts with one; a U+FEFF after the start is text.
    """
    with open(path, encoding="utf-8-sig", newline="") as fh:
        return fh.read()


def load_json(path, parse):
    """``parse`` applied to the strict JSON document at ``path`` (no NaN or Infinity literals)."""
    with malformed(path):
        return parse(json.loads(read_file(path), parse_constant=_refuse_constant))


def write_files(files: list) -> None:
    """Call each ``write(fh)`` of the ``(path, write)`` pairs ``files`` on ``path`` opened as UTF-8 text.

    Two pairs that name one file are refused before any is opened; if any step fails, no file written is kept.
    """
    if len(files) > 1:  # resolving a path costs a stat per component; one file cannot repeat
        _distinct([str(Path(path).resolve()) for path, _ in files], "output file")
    written = []
    try:
        for path, write in files:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                written.append(path)
                write(fh)
    except BaseException:
        for path in written:
            Path(path).unlink()
        raise


def write_json(doc, fh) -> None:
    """``doc`` as a strict JSON document, indented by 2 with its keys sorted, and a newline."""
    json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
    fh.write("\n")


def write_csv(rows, fh) -> None:
    """Write ``rows`` as ``csv.writer(fh, lineterminator="\\n")`` does, save that each cell of a row with a ``\\r``
    in a cell is quoted: the writer leaves a ``\\r`` bare, and ``csv.reader`` ends a row there. Rows go
    ``_CHUNK_ROWS`` at a time: a chunk of string cells that the writer leaves as they are (none holds a comma, quote
    char, ``\\r``, ``\\n`` or NUL, and no line is empty, as one empty cell is quoted) is written as its join, where
    a row of ``w`` cells puts ``w - 1`` commas and one newline; any other chunk goes through the csv module."""
    plain = csv.writer(fh, lineterminator="\n")
    quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        try:
            text, widths = "\n".join(map(",".join, chunk)) + "\n", set(map(len, chunk))
            cells = len(chunk) * max(widths) if len(widths) == 1 else sum(map(len, chunk))
        except TypeError:  # a cell that is not a string
            text = None
        if (text is not None and text.count(",") == cells - len(chunk) and text.count("\n") == len(chunk)
                and not any(c in text for c in '"\r\0') and (min(widths) > 1 or "\n\n" not in "\n" + text)):
            fh.write(text)
        else:
            for row in chunk:
                (quoted if "\r" in "".join(map(str, row)) else plain).writerow(row)


def write_text(stream, text: str) -> None:
    """Write ``text`` to ``stream`` as UTF-8 (an undecodable argv byte as that byte) after the text it holds."""
    if getattr(stream, "buffer", None) is None:  # a text-only stream, such as an io.StringIO
        stream.write(text)
    else:
        stream.flush()
        stream.buffer.write(text.encode("utf-8", "surrogateescape"))


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
        outcomes = _check_labels(outcomes, "outcomes")  # an empty space is refused by name, before 1 / 0
        return cls(outcomes, np.full(len(outcomes), 1.0 / len(outcomes)))

    @classmethod
    def from_json_dict(cls, d: dict) -> "Dist":
        _check_keys(d, ("outcomes", "probs"), "distribution")
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
        if _integer(self.logons, "logons") < 0 or _integer(self.metrons, "metrons") < 0:
            raise ValueError("logons/metrons must be non-negative")
        object.__setattr__(self, "selective_sh", _nonneg(_number(self.selective_sh, "selective_sh"), "selective_sh"))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def entropy(d: Dist) -> float:
    """Shannon entropy H(d) in Sh."""
    return entropy_bits(d.probs)


def mutual_information(j: Joint) -> float:
    """I(X;Y) in Sh from the joint mass; zero-mass cells contribute 0."""
    return mi_bits(j.mass)
