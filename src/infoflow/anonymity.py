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
from dataclasses import asdict, dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .channels import BoundCertificate, Channel, check_mi_bound, randomized_response
from .measures import (
    STATE_SPACE_CAP, Dist, _at_least, _check_keys, _check_size, _distinct, _known, _unit, load_json, malformed,
)

log = logging.getLogger(__name__)

ROLES = ("identifier", "quasi-identifier", "sensitive")
_INTP_MAX = np.iinfo(np.intp).max


@dataclass(frozen=True, init=False)
class Table:
    """Rectangular table of strings with a role per column, held by column.

    ``Table(columns, rows)`` consumes ``rows``, any iterable of rows,
    once. A column name, role or cell that is not a string is refused,
    not converted. ``cells`` holds one tuple per column; ``rows``,
    ``column`` and ``project`` are views built from it.
    """

    columns: tuple[tuple[str, str], ...]  # (name, role)
    cells: tuple[tuple[str, ...], ...]  # one tuple per column
    height: int  # the row count, kept apart so that a zero-column table keeps it
    _codes: dict = field(compare=False, repr=False)  # column index -> (categories, codes), filled by coded

    def __init__(self, columns, rows):
        columns = tuple((n, r) for n, r in columns)
        if set(map(type, chain.from_iterable(columns))) - {str}:
            raise ValueError(f"column names and roles must be strings, got {columns}")
        _distinct([n for n, _ in columns], "column names")
        for _, role in columns:
            _known(role, ROLES, "column role")
        width = len(columns)
        rows = tuple(map(tuple, rows))  # tuples of strings, unlike lists, drop out of the garbage collector's scans
        if set(map(len, rows)) - {width}:
            i = next(i for i, row in enumerate(rows) if len(row) != width)
            raise ValueError(f"row {i} has {len(rows[i])} cells, expected {width}")
        cells = tuple(tuple(map(itemgetter(i), rows)) for i in range(width))
        odd = set(map(type, chain.from_iterable(cells))) - {str}
        if odd:
            raise ValueError(f"table cells must be strings, found {', '.join(sorted(t.__name__ for t in odd))}")
        self._set(columns, cells, len(rows))

    def _set(self, columns, cells, height) -> None:
        for name, value in (("columns", columns), ("cells", cells), ("height", height), ("_codes", {})):
            object.__setattr__(self, name, value)

    def _replaced(self, i: int, cells: tuple[str, ...]) -> Table:
        """This table with column ``i`` replaced by ``cells``, unchecked: the caller draws them from its categories."""
        t = object.__new__(Table)
        t._set(self.columns, self.cells[:i] + (cells,) + self.cells[i + 1:], self.height)
        return t

    @property
    def rows(self) -> tuple[tuple[str, ...], ...]:
        return tuple(_rows_of(self.cells, self.height))

    def column_names(self, role: str | None = None) -> list[str]:
        return [n for n, r in self.columns if role is None or r == role]

    def _index(self, name: str) -> int:
        """The position of the column ``name``; a name the table lacks is refused."""
        names = self.column_names()
        return names.index(_known(name, names, "column"))

    def column(self, name: str) -> list[str]:
        return list(self.cells[self._index(name)])

    def project(self, names: list[str]) -> list[tuple[str, ...]]:
        """Each row's cells in the named columns, as tuples."""
        return list(_rows_of([self.cells[self._index(n)] for n in names], self.height))

    def coded(self, name: str) -> tuple[tuple[str, ...], np.ndarray]:
        """The column's sorted distinct values and each row's index into them, computed once.

        ``categories[codes]`` is the column; the codes are read-only.
        """
        i = self._index(name)
        if i not in self._codes:
            cells = self.cells[i]
            categories = tuple(sorted(set(cells)))
            index = dict(zip(categories, range(len(categories))))
            codes = np.fromiter(map(index.__getitem__, cells), dtype=np.intp, count=len(cells))
            codes.flags.writeable = False
            self._codes[i] = categories, codes
        return self._codes[i]


def _rows_of(cells, height: int):
    """The rows of the columns ``cells``, as tuples; with no column, ``height`` empty rows."""
    return zip(*cells) if cells else repeat((), height)


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


def _combined(codes: list[np.ndarray], radices: list[int]) -> tuple[np.ndarray, int]:
    """One key per row for its combination of codes, and a bound on the keys.

    The codes combine in mixed radix; where the radix product could
    overflow ``intp``, the keys so far are first compacted to their rank.
    """
    key, span = codes[0], radices[0]
    for c, k in zip(codes[1:], radices[1:]):
        if span * k > _INTP_MAX:
            ranks, key = np.unique(key, return_inverse=True)
            span = len(ranks)
        key, span = key * k + c, span * k
    return key, span


def _classes(t: Table, names: list[str]) -> tuple[np.ndarray, int]:
    """Each row's equivalence class over the columns ``names``, below the returned bound."""
    coded = [t.coded(n) for n in names]
    return _combined([codes for _, codes in coded], [len(categories) for categories, _ in coded])


def k_anonymity_level(t: Table) -> int:
    """Smallest equivalence-class size over the quasi-identifier columns."""
    if not t.height:
        raise ValueError("table is empty")
    qi = t.column_names("quasi-identifier")
    if not qi:
        raise ValueError("no quasi-identifier columns designated")
    return int(np.unique(_classes(t, qi)[0], return_counts=True)[1].min())


def linkage_attack(release: Table, auxiliary: Table) -> AnonReport:
    """Join auxiliary records to the release's quasi-identifier classes.

    reid_rate is the fraction of auxiliary rows whose matched class has
    size 1 (unique re-identification); homogeneity_rate is the fraction
    of matched classes carrying a single sensitive value (attribute
    disclosure even when k > 1). The release needs a sensitive column.
    An auxiliary value absent from the release's column matches no class.
    """
    qi = release.column_names("quasi-identifier")
    aux_qi = set(auxiliary.column_names("quasi-identifier"))
    shared = [n for n in qi if n in aux_qi]
    if not shared:
        raise ValueError("release and auxiliary share no quasi-identifier columns")
    sensitive = release.column_names("sensitive")
    if not sensitive:
        raise ValueError("release has no 'sensitive' column: homogeneity is undefined without one")
    k_achieved = k_anonymity_level(release)
    # auxiliary cells take the release's codes (-1: absent from the release); the rows with
    # no absent cell join the release's rows in one key space over the shared columns
    coded = [release.coded(n) for n in shared]
    aux = [np.fromiter(map(dict(zip(categories, range(len(categories)))).get, auxiliary.column(n), repeat(-1)),
                       dtype=np.intp, count=auxiliary.height) for n, (categories, _) in zip(shared, coded)]
    found = np.logical_and.reduce([codes >= 0 for codes in aux])
    joined = _combined([np.concatenate((codes, a[found])) for (_, codes), a in zip(coded, aux)],
                       [len(categories) for categories, _ in coded])[0]
    keys, joined = np.unique(joined, return_inverse=True)
    cls, aux_cls = joined[:release.height], joined[release.height:]
    sizes = np.bincount(cls, minlength=len(keys))
    matched = np.unique(aux_cls[sizes[aux_cls] > 0])
    reid_hits = np.count_nonzero(sizes[aux_cls] == 1)
    # distinct sensitive values per class: count the distinct (class, value) pairs
    values, bound = _classes(release, sensitive)
    pairs = np.unique(_combined([cls, values], [len(keys), bound])[0], return_index=True)[1]
    spread = np.bincount(cls[pairs], minlength=len(keys))
    homogeneous = np.count_nonzero(spread[matched] == 1)
    log.debug("linkage_attack: %d classes, %d matched, %d auxiliary rows",
              np.count_nonzero(sizes), len(matched), auxiliary.height)
    return AnonReport(
        k_achieved=k_achieved,
        homogeneity_rate=homogeneous / len(matched) if len(matched) else 0.0,
        reid_rate=reid_hits / auxiliary.height if auxiliary.height else 0.0,
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
    categories, codes = t.coded(sensitive_column)
    k = len(categories)
    _at_least(k, 2, f"categories in column {sensitive_column!r}")
    log.debug("dp_release: %d rows, %d categories", t.height, k)
    _check_size(k * k, STATE_SPACE_CAP, f"a release channel over {k} categories has {k * k} cells")
    if eps is None:
        chan = Channel(categories, categories, np.eye(k))
        released = t
    else:
        chan = randomized_response(k, eps, outcomes=categories)
        u = np.random.default_rng(seed).random(t.height)
        cdf = chan.rows.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        drawn = np.empty_like(codes)
        for c in range(k):
            rows_c = codes == c
            drawn[rows_c] = np.searchsorted(cdf[c], u[rows_c], side="right")
        released = t._replaced(t._index(sensitive_column), tuple(np.array(categories, dtype=object)[drawn].tolist()))
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
    return [(csv_path, lambda fh: csv.writer(fh, lineterminator="\n").writerows(
                chain([t.column_names()], _rows_of(t.cells, t.height)))),
            (default_roles_path(csv_path), lambda fh: fh.write(roles))]


def write_table(t: Table, csv_path) -> None:
    """Write ``t`` as a CSV with its role sidecar beside it, where ``read_table`` looks by default."""
    for path, write in table_files(t, csv_path):
        with open(path, "w", newline="") as fh:
            write(fh)
