"""Output checks for completed jobs.

Every seed: invariants that hold whatever the inputs are (no sweep
violation, 0 <= MI <= min(H(M), H(V)), randomized releases certified
and in domain, linkage rates recomputed from the tables).

The default seed also compares against reference outputs frozen from
the seed commit (``reference/<workload>.json``): Shannon values (keys
ending in ``_sh``) to 1e-12 absolute, every other report field exactly,
and event logs, ledgers and released tables by sha256.

The checker reads numpy and the files only; it never imports infoflow.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

SHANNON_TOL = 1e-12  # reference comparison
BOUND_TOL = 1e-9  # invariants: the certificates' own tolerance


class CheckFailed(Exception):
    pass


def kept(work: Path, rel: str) -> Path:
    """Where the first pass's copy of output ``out/...`` is kept."""
    return work / "kept" / rel.removeprefix("out/")


def _load(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def entropy(p) -> float:
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def _mi_in_range(mi: float, *entropies: float) -> None:
    _require(-BOUND_TOL <= mi <= min(entropies) + BOUND_TOL,
             f"MI {mi} outside [0, min(H)={min(entropies)}]")


def realized_eps(rows: np.ndarray) -> float:
    hi, lo = rows.max(axis=0), rows.min(axis=0)
    live = hi > 0
    if (live & (lo <= 0)).any():
        return math.inf
    return float((np.log(hi[live]) - np.log(lo[live])).max()) if live.any() else 0.0


def rr_rows(k: int, eps: float) -> np.ndarray:
    rows = np.full((k, k), 1.0 / (math.exp(eps) + k - 1))
    np.fill_diagonal(rows, math.exp(eps) / (math.exp(eps) + k - 1))
    return rows


def _channel_rows(work: Path, spec: str) -> np.ndarray:
    if spec.startswith("rr:"):
        kv = dict(tok.split("=") for tok in spec[3:].split(","))
        return rr_rows(int(kv["k"]), float(kv["eps"]))
    return np.asarray(_load(work / spec)["rows"], dtype=np.float64)


def _certificate(cert: dict, mi_entropies: tuple[float, ...]) -> None:
    _require(cert["holds"] is True, "certificate does not hold")
    if not cert["unbounded"]:
        _require(cert["mi_sh"] <= cert["bound_sh"] + BOUND_TOL, "MI exceeds the certified bound")
    _mi_in_range(cert["mi_sh"], *mi_entropies)


# ---------------------------------------------------------------------------
# per-kind invariants; each returns the job's work units
# ---------------------------------------------------------------------------


def _verify(job: dict, work: Path) -> int:
    c = job["check"]
    rows = rr_rows(c["k"], c["eps"]) if c["kind"] == "verify-rr" else _channel_rows(work, c["channel"])
    n = rows.shape[0]
    prior = np.full(n, 1.0 / n) if c.get("prior") is None else np.asarray(_load(work / c["prior"])["probs"])
    _certificate(_load(kept(work, job["reports"][0])), (entropy(prior), entropy(prior @ rows)))
    return 1


def _compose(job: dict, work: Path) -> int:
    c = job["check"]
    r1, r2 = _channel_rows(work, c["first"]), _channel_rows(work, c["second"])
    doc = _load(kept(work, job["reports"][0]))
    rows = np.asarray(doc["channel"]["rows"], dtype=np.float64)
    expect = (r1[:, :, None] * r2[:, None, :]).reshape(r1.shape[0], -1)
    _require(rows.shape == expect.shape and np.allclose(rows, expect, rtol=0, atol=1e-15),
             "product channel differs from the product of its parts")
    eps_sum = realized_eps(r1) + realized_eps(r2)
    eps = doc["eps_report"]
    _require(eps["unbounded"] == math.isinf(eps_sum), "unbounded flag does not match the parts")
    if not eps["unbounded"]:
        _require(eps["eps"] <= eps_sum + BOUND_TOL, "composed eps exceeds the sum of the parts")
    prior = np.full(rows.shape[0], 1.0 / rows.shape[0])
    _certificate(doc["certificate"], (entropy(prior), entropy(prior @ rows)))
    return 1


def _sweep(job: dict, work: Path) -> int:
    doc = _load(kept(work, job["reports"][0]))
    cases = int(job["argv"][job["argv"].index("--cases") + 1])
    _require(doc["cases"] == cases, "sweep ran a different number of cases")
    _require(doc["violations"] == 0, f"sweep reports {doc['violations']} violations")
    _require(0.0 <= doc["max_mi_sh"] <= math.log2(8) + BOUND_TOL, "max MI outside [0, log2 8]")
    _require(doc["min_slack_sh"] >= -BOUND_TOL, "negative slack")
    return cases


def node_marginals(net: dict) -> dict[str, np.ndarray]:
    """Exact single-node marginals of a network JSON, by einsum over its CPTs."""
    names = [n["name"] for n in net["nodes"]]
    label = {name: i for i, name in enumerate(names)}
    card = {n["name"]: len(n["states"]) for n in net["nodes"]}
    states = {n["name"]: n["states"] for n in net["nodes"]}
    operands = []
    for node in net["nodes"]:
        parents = node["parents"]
        if not parents:
            table = np.asarray(node["cpt"], dtype=np.float64)
        else:
            combos = np.indices([card[p] for p in parents]).reshape(len(parents), -1).T
            table = np.asarray(
                [node["cpt"][",".join(states[p][v] for p, v in zip(parents, combo))] for combo in combos],
                dtype=np.float64,
            ).reshape([card[p] for p in parents] + [card[node["name"]]])
        operands += [table, [label[p] for p in parents] + [label[node["name"]]]]
    out = {}
    for name in names:
        out[name] = np.einsum(*operands, [label[name]], optimize="greedy")
    return out


def _leakage(job: dict, work: Path) -> int:
    c = job["check"]
    doc = _load(kept(work, job["reports"][0]))
    net_path = work / c["net"] if c["net"].startswith("in/") else kept(work, c["net"])
    net = _load(net_path)
    marg = node_marginals(net)
    message = doc["message_node"]
    _require(c["message"] in (None, message), "profile of the wrong message node")
    _require(len(doc["profile"]) == len(marg) - 1, "profile does not cover every other node")
    h_m = entropy(marg[message])
    for row in doc["profile"]:
        _mi_in_range(row["mi_sh"], h_m, entropy(marg[row["node"]]))
    return len(doc["profile"])


def _society(job: dict, work: Path) -> int:
    units, last_t = 0, -1
    with open(kept(work, job["logs"][0])) as fh:
        for line in fh:
            rec = json.loads(line)
            if "t" in rec:  # flows and budget stops, sorted; induced contexts follow them
                _require(rec["t"] >= last_t, "events not sorted by tick")
                last_t = rec["t"]
            if rec["record"] == "flow":
                sh = rec["measure"]["selective_sh"]
                _require(math.isfinite(sh) and sh >= 0, "flow with negative content")
                units += 1
            elif rec["record"] == "induced-context":
                for flow in rec["flows"]:
                    m = flow["measure"]
                    _require(0.0 <= m["selective_sh"] <= math.log2(m["logons"]) + BOUND_TOL,
                             "induced flow outside [0, log2 |V|]")
                units += len(rec["flows"])
            else:
                _require(rec["attempted_sh"] > rec["headroom_sh"] - BOUND_TOL, "budget stop with headroom left")
    for row in _load(kept(work, job["logs"][1])):
        _require(row["cumulative_sh"] >= 0, "negative ledger entry")
    return units


def _read_csv(path: Path) -> tuple[list[str], list[list[str]], dict[str, str]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows, _load(Path(str(path) + ".roles.json"))["roles"]


def _linkage(job: dict, work: Path) -> int:
    c = job["check"]
    header, rows, roles = _read_csv(work / c["release"])
    aux_header, aux_rows, aux_roles = _read_csv(work / c["aux"])
    qi = [h for h in header if roles[h] == "quasi-identifier"]
    shared = [h for h in qi if aux_roles.get(h) == "quasi-identifier" and h in aux_header]
    sens = [header.index(h) for h in header if roles[h] == "sensitive"]
    key_of = [header.index(h) for h in shared]
    sizes = Counter(tuple(r[i] for i in key_of) for r in rows)
    values: dict[tuple, set] = {}
    for r in rows:
        values.setdefault(tuple(r[i] for i in key_of), set()).add(tuple(r[i] for i in sens))
    aux_keys = [tuple(r[aux_header.index(h)] for h in shared) for r in aux_rows]
    matched = {k for k in aux_keys if k in sizes}
    expect = {
        "k_achieved": min(Counter(tuple(r[header.index(h)] for h in qi) for r in rows).values()),
        "homogeneity_rate": sum(len(values[k]) == 1 for k in matched) / len(matched) if matched else 0.0,
        "reid_rate": sum(sizes.get(k) == 1 for k in aux_keys) / len(aux_keys) if aux_keys else 0.0,
    }
    doc = _load(kept(work, job["reports"][0]))
    _require(doc == expect, f"linkage report {doc} differs from the recomputed {expect}")
    return c["rows"]


def _dp(job: dict, work: Path) -> int:
    c = job["check"]
    header, rows, _ = _read_csv(work / c["release"])
    out_header, out_rows, _ = _read_csv(kept(work, c["released"]))
    _require(out_header == header and len(out_rows) == len(rows), "released table changed shape")
    col = header.index("diagnosis")
    categories = sorted({r[col] for r in rows})
    for before, after in zip(rows, out_rows):
        _require(after[:col] + after[col + 1:] == before[:col] + before[col + 1:], "non-sensitive cell changed")
        _require(after[col] in categories, "released value outside the column's domain")
    if c["eps"] is None:
        _require(out_rows == rows, "identity release changed the table")
    doc = _load(kept(work, job["reports"][0]))
    counts = Counter(r[col] for r in rows)
    prior = np.asarray([counts[k] for k in categories], dtype=np.float64) / len(rows)
    _require(doc["unbounded"] == (c["eps"] is None), "unbounded flag does not match eps")
    if c["eps"] is not None:
        _require(abs(doc["eps"] - c["eps"]) <= BOUND_TOL, "realized eps differs from the requested eps")
    _certificate(doc, (entropy(prior),))
    return c["rows"]


CHECKS = {
    "verify": _verify,
    "verify-rr": _verify,
    "compose": _compose,
    "sweep": _sweep,
    "leakage": _leakage,
    "society": _society,
    "linkage": _linkage,
    "dp": _dp,
}


def check_job(job: dict, work: Path) -> tuple[str | None, int]:
    """(problem, work units) for a job that exited 0; problem is None when it passes."""
    try:
        return None, CHECKS[job["check"]["kind"]](job, work)
    except CheckFailed as exc:
        return str(exc), 0
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}", 0


# ---------------------------------------------------------------------------
# frozen reference outputs
# ---------------------------------------------------------------------------


def split_shannon(doc, path: str = "") -> tuple[object, list]:
    """(doc with Shannon values blanked, [[path, value], ...] of the Shannon values)."""
    found: list = []
    if isinstance(doc, dict):
        out = {}
        for k, v in doc.items():
            if k == "seconds":  # the sweep's wall time
                continue
            if k.endswith("_sh") and not isinstance(v, (dict, list)):
                found.append([f"{path}/{k}", v])
                out[k] = None
            else:
                out[k], sub = split_shannon(v, f"{path}/{k}")
                found += sub
        return out, found
    if isinstance(doc, list):
        out = []
        for i, v in enumerate(doc):
            item, sub = split_shannon(v, f"{path}/{i}")
            out.append(item)
            found += sub
        return out, found
    return doc, found


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest(job: dict, work: Path, code) -> dict:
    """What the reference keeps of one job's first-pass outputs."""
    out: dict = {"exit": code}
    if code != 0:
        return out
    out["reports"] = {}
    for rel in job["reports"]:
        blanked, shannon = split_shannon(_load(kept(work, rel)))
        exact = hashlib.sha256(json.dumps(blanked, sort_keys=True).encode()).hexdigest()
        out["reports"][rel] = {"exact": exact, "shannon": shannon}
    out["logs"] = {rel: file_sha256(kept(work, rel)) for rel in job["logs"]}
    return out


def compare(ref: dict, got: dict) -> str | None:
    """Problem with a job's digest against its reference, or None.

    A job may newly complete (a fix); then only the invariants apply. A
    job that completed in the reference, or was refused with another
    exit code, must not now be refused."""
    if got["exit"] != 0:
        if got["exit"] != ref["exit"]:
            return f"exit {got['exit']}, the reference exits {ref['exit']}"
        return None
    if ref["exit"] != 0:
        return None
    for rel, want in ref["reports"].items():
        have = got["reports"][rel]
        if have["exact"] != want["exact"]:
            return f"{rel}: non-Shannon fields differ from the reference"
        if [p for p, _ in have["shannon"]] != [p for p, _ in want["shannon"]]:
            return f"{rel}: Shannon fields differ from the reference"
        for (path, a), (_, b) in zip(have["shannon"], want["shannon"]):
            if (a is None) != (b is None) or (a is not None and abs(a - b) > SHANNON_TOL):
                return f"{rel}{path}: {a} differs from the reference {b} by more than {SHANNON_TOL}"
    for rel, want in ref["logs"].items():
        if got["logs"][rel] != want:
            return f"{rel}: sha256 differs from the reference"
    return None
