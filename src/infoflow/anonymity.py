"""Tabular release hardening: where k-anonymity fails and a channel bound holds.

A k-anonymous table still discloses attributes when an equivalence
class is homogeneous in its sensitive value, and auxiliary data joins
make that failure concrete. A randomized-response release of the
sensitive column, by contrast, carries a per-record information cap
that no post-processing or auxiliary join can raise.

The bundled 6-row fixture (three quasi-identifier classes of two rows
each, one class with identical sensitive values) is constructed so the
homogeneity attack succeeds with k-anonymity formally intact.
"""

from __future__ import annotations

import csv
import json
import logging
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .channels import BoundCertificate, Channel, check_mi_bound, randomized_response
from .measures import (
    STATE_SPACE_CAP, Dist, _at_least, _check_keys, _check_size, _distinct, _known, _unit, load_json, malformed,
)

log = logging.getLogger(__name__)

ROLES = ("identifier", "quasi-identifier", "sensitive")


@dataclass(frozen=True)
class Table:
    """Rectangular table of strings with a role per column.

    ``rows`` may be any iterable of rows; it is consumed once and kept
    as a tuple of tuples. A column name, role or cell that is not a
    string is refused, not converted.
    """

    columns: tuple[tuple[str, str], ...]  # (name, role)
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple((n, r) for n, r in self.columns))
        if set(map(type, chain.from_iterable(self.columns))) - {str}:
            raise ValueError(f"column names and roles must be strings, got {self.columns}")
        _distinct([n for n, _ in self.columns], "column names")
        for _, role in self.columns:
            _known(role, ROLES, "column role")
        width = len(self.columns)
        rows = tuple(map(tuple, self.rows))
        if set(map(len, rows)) - {width}:
            i = next(i for i, row in enumerate(rows) if len(row) != width)
            raise ValueError(f"row {i} has {len(rows[i])} cells, expected {width}")
        odd = set(map(type, chain.from_iterable(rows))) - {str}
        if odd:
            raise ValueError(f"table cells must be strings, found {', '.join(sorted(t.__name__ for t in odd))}")
        object.__setattr__(self, "rows", rows)

    def column_names(self, role: str | None = None) -> list[str]:
        return [n for n, r in self.columns if role is None or r == role]

    def _index(self, name: str) -> int:
        """The position of the column ``name``; a name the table lacks is refused."""
        names = self.column_names()
        return names.index(_known(name, names, "column"))

    def column(self, name: str) -> list[str]:
        return list(map(itemgetter(self._index(name)), self.rows))

    def project(self, names: list[str]) -> list[tuple[str, ...]]:
        """Each row's cells in the named columns, as tuples."""
        idxs = list(map(self._index, names))
        if len(idxs) == 1:  # itemgetter of one index returns the cell, not a tuple
            return [(cell,) for cell in self.column(names[0])]
        return list(map(itemgetter(*idxs), self.rows))


@dataclass(frozen=True)
class AnonReport:
    """Outcome of a linkage attack against a released table."""

    k_achieved: int
    homogeneity_rate: float
    reid_rate: float

    def __post_init__(self):
        _at_least(self.k_achieved, 1, "k_achieved")
        _unit(self.homogeneity_rate, "homogeneity_rate")
        _unit(self.reid_rate, "reid_rate")

    def to_json_dict(self) -> dict:
        return asdict(self)


def _qi_classes(t: Table) -> Counter[tuple[str, ...]]:
    """Row count of each equivalence class over all quasi-identifier columns."""
    if not t.rows:
        raise ValueError("table is empty")
    qi = t.column_names("quasi-identifier")
    if not qi:
        raise ValueError("no quasi-identifier columns designated")
    return Counter(t.project(qi))


def k_anonymity_level(t: Table) -> int:
    """Smallest equivalence-class size over the quasi-identifier columns."""
    return min(_qi_classes(t).values())


def linkage_attack(release: Table, auxiliary: Table) -> AnonReport:
    """Join auxiliary records to the release's quasi-identifier classes.

    reid_rate is the fraction of auxiliary rows whose matched class has
    size 1 (unique re-identification); homogeneity_rate is the fraction
    of matched classes carrying a single sensitive value (attribute
    disclosure even when k > 1). The release needs a sensitive column.
    """
    qi = release.column_names("quasi-identifier")
    aux_qi = set(auxiliary.column_names("quasi-identifier"))
    shared = [n for n in qi if n in aux_qi]
    if not shared:
        raise ValueError("release and auxiliary share no quasi-identifier columns")
    sensitive = release.column_names("sensitive")
    if not sensitive:
        raise ValueError("release has no 'sensitive' column: homogeneity is undefined without one")
    # the release's classes are counted once, on every quasi-identifier; merged by
    # their shared cells they give the classes the auxiliary rows can join
    classes = _qi_classes(release)
    at = [qi.index(n) for n in shared]
    sizes: Counter[tuple[str, ...]] = Counter()
    for key, n in classes.items():
        sizes[tuple(key[i] for i in at)] += n
    keys = release.project(shared)
    aux_keys = auxiliary.project(shared)
    matched = sizes.keys() & set(aux_keys)
    reid_hits = sum(1 for key in aux_keys if sizes.get(key) == 1)
    # distinct sensitive values per class: count the distinct (key, value) pairs
    spread = Counter(map(itemgetter(0), set(zip(keys, release.project(sensitive)))))
    homogeneous = sum(1 for key in matched if spread[key] == 1)
    log.debug("linkage_attack: %d classes, %d matched, %d auxiliary rows", len(sizes), len(matched), len(aux_keys))
    return AnonReport(
        k_achieved=min(classes.values()),
        homogeneity_rate=homogeneous / len(matched) if matched else 0.0,
        reid_rate=reid_hits / len(aux_keys) if aux_keys else 0.0,
    )


def dp_release(
    t: Table,
    sensitive_column: str,
    eps: float | None,
    seed: int = 0,
) -> tuple[Table, BoundCertificate]:
    """Replace a categorical sensitive column via randomized response.

    Returns the released table and the information-cap certificate for
    the mechanism under the column's empirical prior. ``eps=None``
    releases the column unchanged through the identity channel, whose
    certificate is flagged unbounded. Either channel has k*k cells for
    k categories; more than STATE_SPACE_CAP are refused before either
    is built.

    The release stream is one ``default_rng(seed).random()`` uniform per
    row, in row order, inverted through the row's cumulative channel
    row: bit for bit what ``rng.choice(k, p=row)`` per row draws.
    """
    _at_least(seed, 0, "seed")
    col = t._index(sensitive_column)
    values = t.column(sensitive_column)
    categories = tuple(sorted(set(values)))
    k = len(categories)
    _at_least(k, 2, f"categories in column {sensitive_column!r}")
    index = {c: i for i, c in enumerate(categories)}
    codes = np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))
    log.debug("dp_release: %d rows, %d categories", len(values), k)
    _check_size(k * k, STATE_SPACE_CAP, f"a release channel over {k} categories has {k * k} cells")
    if eps is None:
        chan = Channel(categories, categories, np.eye(k))
        released = t
    else:
        chan = randomized_response(k, eps, outcomes=categories)
        u = np.random.default_rng(seed).random(len(values))
        cdf = chan.rows.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        drawn = np.empty_like(codes)
        for c in range(k):
            rows_c = codes == c
            drawn[rows_c] = np.searchsorted(cdf[c], u[rows_c], side="right")
        new_values = map(categories.__getitem__, drawn.tolist())
        released = Table(t.columns, (row[:col] + (v,) + row[col + 1:] for row, v in zip(t.rows, new_values)))
    counts = np.bincount(codes, minlength=k).astype(np.float64)
    cert = check_mi_bound(chan, Dist(categories, counts / counts.sum()))
    return released, cert


# ---------------------------------------------------------------------------
# CSV + role-sidecar IO
# ---------------------------------------------------------------------------


def default_roles_path(csv_path) -> Path:
    return Path(str(csv_path) + ".roles.json")


def read_table(csv_path, roles_path=None) -> Table:
    """Load a CSV with its JSON sidecar declaring column roles."""
    roles_path = default_roles_path(csv_path) if roles_path is None else Path(roles_path)
    roles = load_json(roles_path, lambda doc: dict(_check_keys(doc, ("roles",), "roles sidecar")["roles"].items()))
    with open(csv_path, newline="") as fh, malformed(csv_path):
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("no header row")
        missing = [n for n in header if n not in roles]
        if missing:
            raise ValueError(f"sidecar {roles_path} missing roles for columns {missing}")
        for n in roles:
            _known(n, header, "roles sidecar column")
        return Table(tuple((n, roles[n]) for n in header), reader)


def table_files(t: Table, csv_path) -> list:
    """The ``(path, write)`` pairs of ``t`` as a CSV with its role sidecar beside it, where ``read_table`` looks."""
    roles = json.dumps({"roles": dict(t.columns)}, indent=2, sort_keys=True) + "\n"
    return [(csv_path, lambda fh: csv.writer(fh, lineterminator="\n").writerows(chain([t.column_names()], t.rows))),
            (default_roles_path(csv_path), lambda fh: fh.write(roles))]


def write_table(t: Table, csv_path) -> None:
    """Write ``t`` as a CSV with its role sidecar beside it, where ``read_table`` looks by default."""
    for path, write in table_files(t, csv_path):
        with open(path, "w", newline="") as fh:
            write(fh)
