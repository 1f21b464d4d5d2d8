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
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from .channels import BoundCertificate, Channel, check_mi_bound, randomized_response
from .measures import Dist, load_json, malformed

log = logging.getLogger(__name__)

ROLES = ("identifier", "quasi-identifier", "sensitive")


@dataclass(frozen=True)
class Table:
    """Rectangular table with a role per column.

    ``rows`` may be any iterable of rows; it is consumed once and kept
    as a tuple of string tuples.
    """

    columns: tuple[tuple[str, str], ...]  # (name, role)
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple((str(n), str(r)) for n, r in self.columns))
        names = [n for n, _ in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names")
        for _, role in self.columns:
            if role not in ROLES:
                raise ValueError(f"unknown column role {role!r}")
        width = len(self.columns)
        rows = []
        for i, row in enumerate(self.rows):
            row = tuple(map(str, row))
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} cells, expected {width}")
            rows.append(row)
        object.__setattr__(self, "rows", tuple(rows))

    def column_names(self, role: str | None = None) -> list[str]:
        return [n for n, r in self.columns if role is None or r == role]

    def column(self, name: str) -> list[str]:
        return list(map(itemgetter(self.column_names().index(name)), self.rows))

    def project(self, names: list[str]) -> list[tuple[str, ...]]:
        """Each row's cells in the named columns, as tuples."""
        idxs = [self.column_names().index(n) for n in names]
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
        if self.k_achieved < 1:
            raise ValueError("k_achieved must be >= 1")
        for name in ("homogeneity_rate", "reid_rate"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0,1], got {v}")

    def to_json_dict(self) -> dict:
        return {
            "k_achieved": int(self.k_achieved),
            "homogeneity_rate": float(self.homogeneity_rate),
            "reid_rate": float(self.reid_rate),
        }


def k_anonymity_level(t: Table) -> int:
    """Smallest equivalence-class size over the quasi-identifier columns."""
    if not t.rows:
        raise ValueError("table is empty")
    qi = t.column_names("quasi-identifier")
    if not qi:
        raise ValueError("no quasi-identifier columns designated")
    return min(Counter(t.project(qi)).values())


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
    keys = release.project(shared)
    sizes = Counter(keys)
    aux_keys = auxiliary.project(shared)
    matched = sizes.keys() & set(aux_keys)
    reid_hits = sum(1 for key in aux_keys if sizes.get(key) == 1)
    # distinct sensitive values per class: count the distinct (key, value) pairs
    spread = Counter(map(itemgetter(0), set(zip(keys, release.project(sensitive)))))
    homogeneous = sum(1 for key in matched if spread[key] == 1)
    log.debug("linkage_attack: %d classes, %d matched, %d auxiliary rows", len(sizes), len(matched), len(aux_keys))
    return AnonReport(
        k_achieved=k_anonymity_level(release),
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
    certificate is flagged unbounded.

    The release stream is one ``default_rng(seed).random()`` uniform per
    row, in row order, inverted through the row's cumulative channel
    row: bit for bit what ``rng.choice(k, p=row)`` per row draws.
    """
    names = t.column_names()
    if sensitive_column not in names:
        raise ValueError(f"unknown column {sensitive_column!r}")
    col = names.index(sensitive_column)
    values = t.column(sensitive_column)
    categories = tuple(sorted(set(values)))
    k = len(categories)
    if k < 2:
        raise ValueError(f"column {sensitive_column!r} needs >= 2 categories")
    index = {c: i for i, c in enumerate(categories)}
    codes = np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))
    log.debug("dp_release: %d rows, %d categories", len(values), k)
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
    roles = load_json(roles_path, lambda doc: {n: str(r) for n, r in doc["roles"].items()})
    with open(csv_path, newline="") as fh, malformed(csv_path):
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("no header row")
        missing = [n for n in header if n not in roles]
        if missing:
            raise ValueError(f"sidecar {roles_path} missing roles for columns {missing}")
        return Table(tuple((n, roles[n]) for n in header), reader)


def write_table(t: Table, csv_path) -> None:
    """Write ``t`` as a CSV with its role sidecar beside it, where ``read_table`` looks by default."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(t.column_names())
        writer.writerows(t.rows)
    with open(default_roles_path(csv_path), "w") as fh:
        json.dump({"roles": {n: r for n, r in t.columns}}, fh, indent=2, sort_keys=True)
        fh.write("\n")
