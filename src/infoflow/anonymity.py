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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channels import BoundCertificate, Channel, check_mi_bound, randomized_response
from .measures import Dist, load_json, malformed

ROLES = ("identifier", "quasi-identifier", "sensitive")


@dataclass(frozen=True)
class Table:
    """Rectangular table with a role per column."""

    columns: tuple[tuple[str, str], ...]  # (name, role)
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple((str(n), str(r)) for n, r in self.columns))
        object.__setattr__(self, "rows", tuple(tuple(str(v) for v in row) for row in self.rows))
        names = [n for n, _ in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names")
        for _, role in self.columns:
            if role not in ROLES:
                raise ValueError(f"unknown column role {role!r}")
        width = len(self.columns)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} cells, expected {width}")

    def column_names(self, role: str | None = None) -> list[str]:
        return [n for n, r in self.columns if role is None or r == role]

    def column(self, name: str) -> list[str]:
        idx = self.column_names().index(name)
        return [row[idx] for row in self.rows]

    def project(self, names: list[str]) -> list[tuple[str, ...]]:
        idxs = [self.column_names().index(n) for n in names]
        return [tuple(row[i] for i in idxs) for row in self.rows]


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


def _classes(t: Table, qi_names: list[str]) -> dict[tuple[str, ...], list[int]]:
    groups: dict[tuple[str, ...], list[int]] = {}
    for i, key in enumerate(t.project(qi_names)):
        groups.setdefault(key, []).append(i)
    return groups


def k_anonymity_level(t: Table) -> int:
    """Smallest equivalence-class size over the quasi-identifier columns."""
    if not t.rows:
        raise ValueError("table is empty")
    qi = t.column_names("quasi-identifier")
    if not qi:
        raise ValueError("no quasi-identifier columns designated")
    return min(len(idxs) for idxs in _classes(t, qi).values())


def linkage_attack(release: Table, auxiliary: Table) -> AnonReport:
    """Join auxiliary records to the release's quasi-identifier classes.

    reid_rate is the fraction of auxiliary rows whose matched class has
    size 1 (unique re-identification); homogeneity_rate is the fraction
    of matched classes carrying a single sensitive value (attribute
    disclosure even when k > 1).
    """
    shared = [n for n in release.column_names("quasi-identifier") if n in auxiliary.column_names("quasi-identifier")]
    if not shared:
        raise ValueError("release and auxiliary share no quasi-identifier columns")
    sensitive = release.column_names("sensitive")
    classes = _classes(release, shared)
    sens_values = {
        key: {tuple(release.rows[i][release.column_names().index(s)] for s in sensitive) for i in idxs}
        for key, idxs in classes.items()
    }
    matched: dict[tuple[str, ...], None] = {}
    reid_hits = 0
    aux_keys = auxiliary.project(shared)
    for key in aux_keys:
        if key not in classes:
            continue
        matched[key] = None
        if len(classes[key]) == 1:
            reid_hits += 1
    homogeneous = sum(1 for key in matched if len(sens_values[key]) == 1)
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
    """
    names = t.column_names()
    if sensitive_column not in names:
        raise ValueError(f"unknown column {sensitive_column!r}")
    values = t.column(sensitive_column)
    categories = tuple(sorted(set(values)))
    if len(categories) < 2:
        raise ValueError(f"column {sensitive_column!r} needs >= 2 categories")
    if eps is None:
        chan = Channel(categories, categories, np.eye(len(categories)))
        released = values
    else:
        chan = randomized_response(len(categories), eps, outcomes=categories)
        rng = np.random.default_rng(seed)
        released = []
        for v in values:
            row = chan.rows[categories.index(v)]
            released.append(categories[rng.choice(len(categories), p=row)])
    counts = np.array([values.count(c) for c in categories], dtype=np.float64)
    prior = Dist(categories, counts / counts.sum())
    cert = check_mi_bound(chan, prior)
    col_idx = names.index(sensitive_column)
    new_rows = tuple(
        tuple(released[i] if j == col_idx else cell for j, cell in enumerate(row))
        for i, row in enumerate(t.rows)
    )
    return Table(t.columns, new_rows), cert


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
        rows = [tuple(row) for row in reader]
    missing = [n for n in header if n not in roles]
    if missing:
        raise ValueError(f"sidecar {roles_path} missing roles for columns {missing}")
    return Table(tuple((n, roles[n]) for n in header), tuple(rows))


def write_table(t: Table, csv_path, roles_path=None) -> None:
    roles_path = default_roles_path(csv_path) if roles_path is None else Path(roles_path)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(t.column_names())
        writer.writerows(t.rows)
    with open(roles_path, "w") as fh:
        json.dump({"roles": {n: r for n, r in t.columns}}, fh, indent=2, sort_keys=True)
        fh.write("\n")
