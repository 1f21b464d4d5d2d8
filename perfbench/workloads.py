"""Seeded job lists and input files for the benchmark workloads.

Every workload is a fixed list of job *shapes* (sizes, kinds, flags);
the seed only fills in contents (CPT rows, channel entries, table
cells, per-job seeds). That keeps the cost of a job list nearly the
same for every seed, so runs with different seeds can be compared.

Job sizes come in groups of similar jobs, placed so that the median job
and the tail percentile (see run.py) fall inside a group rather than at
a step between two sizes, where load on the machine would reorder them.

A job is a dict:

* ``name``: unique within the list; the job writes into ``out/<name>/``
* ``argv``: arguments for ``infoflow.cli.main``, with paths relative to
  the work directory (``in/...`` for inputs, ``out/<name>/...`` for outputs)
* ``reports``: JSON reports among the outputs, checked field by field
* ``logs``: other outputs (event logs, ledgers, released tables), checked
  byte for byte
* ``check``: what the output checker needs to know about the inputs

Inputs are written under ``<work>/in/``. Nothing here imports infoflow:
the program sees only the generated files and argv.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "leakage", "society", "anon")

# salt per workload, so the same --seed draws unrelated streams
_SALT = {"sweep": 1, "leakage": 2, "society": 3, "anon": 4}

# calibration loop (see calibrate.py) whose slowdown under contention
# matches the workload's: dense-joint enumeration is memory-bound, the
# rest is interpreter-bound
CALIBRATION = {"sweep": "python", "leakage": "array", "society": "python", "anon": "python"}


def build(workload: str, seed: int, src_data: Path, work: Path) -> list[dict]:
    """Write the inputs of one workload under ``work/in`` and return its jobs."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    (work / "in").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([_SALT[workload], seed])
    jobs = _BUILDERS[workload](rng, _Inputs(work), src_data)
    names = [j["name"] for j in jobs]
    if len(set(names)) != len(names):
        raise AssertionError("job names must be unique")
    return jobs


class _Inputs:
    """Writes input files under ``work/in`` and returns their relative paths."""

    def __init__(self, work: Path):
        self.work = work

    def json(self, name: str, doc) -> str:
        rel = f"in/{name}"
        with open(self.work / rel, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return rel

    def csv(self, name: str, header: list[str], rows, roles: dict[str, str]) -> str:
        rel = f"in/{name}"
        with open(self.work / rel, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        self.json(f"{name}.roles.json", {"roles": roles})
        return rel


def _job(name: str, argv: list[str], reports=(), logs=(), **check) -> dict:
    return {"name": name, "argv": argv, "reports": list(reports), "logs": list(logs), "check": check}


def _floats(a) -> list:
    return [float(v) for v in np.asarray(a).reshape(-1)]


# ---------------------------------------------------------------------------
# sweep: many small channel matrices
# ---------------------------------------------------------------------------

# 190 single-certificate jobs hold the median, the 200-case sweeps the p95
SWEEP_CASES = (100,) * 12 + (200,) * 14 + (1000, 2000, 5000)
CHANNEL_SIZES = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
VERIFY_JOBS = 150
COMPOSE_OUTPUTS = ((2, 2), (2, 8), (4, 4), (8, 8), (4, 16), (2, 32), (3, 5), (6, 6))
COMPOSE_JOBS = 40


def _channel_rows(rng, n_in: int, n_out: int, unbounded: bool) -> np.ndarray:
    rows = rng.dirichlet(np.ones(n_out), size=n_in)
    rows = np.maximum(rows, 1e-6)
    if unbounded:
        rows[0, 0] = 0.0  # an output impossible under one input: no finite eps
    return rows / rows.sum(axis=1, keepdims=True)


def _channel_doc(rows: np.ndarray, inputs=None) -> dict:
    return {
        "inputs": inputs or [f"x{i}" for i in range(rows.shape[0])],
        "outputs": [f"y{j}" for j in range(rows.shape[1])],
        "rows": [_floats(r) for r in rows],
    }


def _prior_doc(rng, n: int) -> dict:
    p = np.maximum(rng.dirichlet(np.ones(n)), 1e-9)
    return {"outcomes": [f"x{i}" for i in range(n)], "probs": _floats(p / p.sum())}


def _sweep_jobs(rng, inputs: _Inputs, src_data: Path) -> list[dict]:
    jobs = []
    for i in range(VERIFY_JOBS):
        n_in = CHANNEL_SIZES[i % len(CHANNEL_SIZES)]
        n_out = CHANNEL_SIZES[(i * 7 + 3) % len(CHANNEL_SIZES)]
        name = f"verify{i:03d}"
        out = f"out/{name}/report.json"
        if i % 8 == 7:
            k = 2 + i % 6
            eps = round(float(rng.uniform(0.1, 3.0)), 6)
            argv = ["verify-bound", "--rr", f"k={k}", f"eps={eps}", "--out", out]
            jobs.append(_job(name, argv, [out], kind="verify-rr", k=k, eps=eps))
            continue
        chan = inputs.json(f"{name}.channel.json", _channel_doc(_channel_rows(rng, n_in, n_out, i % 10 == 4)))
        argv = ["verify-bound", "--channel", chan]
        prior = None
        if i % 2:
            prior = inputs.json(f"{name}.prior.json", _prior_doc(rng, n_in))
            argv += ["--prior", prior]
        jobs.append(_job(name, argv + ["--out", out], [out], kind="verify", channel=chan, prior=prior))
    for i in range(COMPOSE_JOBS):
        a, b = COMPOSE_OUTPUTS[i % len(COMPOSE_OUTPUTS)]
        n_in = 2 + i % 15
        name = f"compose{i:03d}"
        out = f"out/{name}/report.json"
        inline_rr = i % 6 == 5  # randomized response labels its inputs 0..k-1
        labels = [str(x) for x in range(n_in)] if inline_rr else None
        first = inputs.json(f"{name}.first.json", _channel_doc(_channel_rows(rng, n_in, a, False), labels))
        if inline_rr:
            second = f"rr:k={n_in},eps={round(float(rng.uniform(0.2, 2.0)), 6)}"
        else:
            second = inputs.json(f"{name}.second.json", _channel_doc(_channel_rows(rng, n_in, b, i % 12 == 3)))
        jobs.append(_job(name, ["compose", first, second, "--out", out], [out], kind="compose", first=first, second=second))
    for i, cases in enumerate(SWEEP_CASES):
        name = f"sweep{i:02d}-{cases}"
        out = f"out/{name}/report.json"
        job_seed = int(rng.integers(2**31))
        jobs.append(_job(name, ["sweep", "--cases", str(cases), "--seed", str(job_seed), "--out", out], [out], kind="sweep"))
    return _interleave(jobs, rng)


def _interleave(jobs: list[dict], rng) -> list[dict]:
    """Seeded job order, so big and small jobs mix within a pass."""
    order = rng.permutation(len(jobs))
    return [jobs[int(i)] for i in order]


# ---------------------------------------------------------------------------
# leakage: dense enumeration of generated networks
# ---------------------------------------------------------------------------

# (kind, number of nodes, cards). Cards cycle over the nodes; the state
# space is fixed by the shape, whatever the seed. About 2^16 states hold
# the median, about 2^18 the p75.
LEAKAGE_NETS = (
    ("chain", 10, (2,)),
    ("fanin", 11, (2,)),
    ("chain", 7, (3,)),
    *[(kind, 16, (2,)) for kind in ("chain", "fanin", "forkcollider") for _ in range(3)],
    ("chain", 10, (3,)),
    ("fanin", 10, (3,)),
    ("fanin", 10, (3,)),
    *[(kind, 18, (2,)) for kind, count in (("chain", 5), ("fanin", 5), ("forkcollider", 4)) for _ in range(count)],
    ("chain", 22, (2,)),
    ("fanin", 22, (2,)),
    # beyond the 2^22-state cap: the dense path refuses these (exit 3)
    ("chain", 30, (2,)),
    ("chain", 40, (2,)),
    ("fanin", 32, (2,)),
)
BALLOT_VOTERS = (3, 5, 8, 10)
TWINS_Q = (0.1, 0.5, 0.9)
FORK_COLLIDER_RUNS = 4


def _parent_sets(kind: str, n: int, rng) -> list[list[int]]:
    if kind == "chain":
        return [[]] + [[k - 1] for k in range(1, n)]
    if kind == "fanin":
        sets = [[]]
        for k in range(1, n):
            width = int(rng.integers(0, min(3, k) + 1))
            sets.append(sorted(int(p) for p in rng.choice(k, size=width, replace=False)))
        return sets
    # forkcollider: roots, then alternate forks (one parent shared by the
    # next node too) and colliders (two or three earlier parents)
    roots = max(2, n // 4)
    sets = [[] for _ in range(roots)]
    for k in range(roots, n):
        if k % 2:
            sets.append([int(rng.integers(0, k))])
        else:
            width = min(k, 2 + int(rng.integers(0, 2)))
            sets.append(sorted(int(p) for p in rng.choice(k, size=width, replace=False)))
    return sets


def _net_doc(parent_sets: list[list[int]], cards: tuple[int, ...], rng) -> dict:
    n = len(parent_sets)
    card = [cards[k % len(cards)] for k in range(n)]
    names = [f"N{k:02d}" for k in range(n)]
    states = [[f"s{v}" for v in range(card[k])] for k in range(n)]
    nodes = []
    for k, pars in enumerate(parent_sets):
        if not pars:
            cpt = _floats(rng.dirichlet(np.ones(card[k])))
        else:
            combos = np.indices([card[p] for p in pars]).reshape(len(pars), -1).T
            cpt = {
                ",".join(states[p][v] for p, v in zip(pars, combo)): _floats(rng.dirichlet(np.ones(card[k])))
                for combo in combos
            }
        nodes.append({"name": names[k], "states": states[k], "parents": [names[p] for p in pars], "cpt": cpt})
    return {"nodes": nodes}


def _leakage_jobs(rng, inputs: _Inputs, src_data: Path) -> list[dict]:
    jobs = []
    for i, (kind, n, cards) in enumerate(LEAKAGE_NETS):
        name = f"net{i:02d}-{kind}{n}"
        out = f"out/{name}/report.json"
        doc = _net_doc(_parent_sets(kind, n, rng), cards, rng)
        message = doc["nodes"][-1]["name"]  # fixed, as the marginals' cost depends on the axes kept
        net = inputs.json(f"{name}.json", doc)
        jobs.append(
            _job(name, ["leakage", "--net", net, "--message", message, "--out", out], [out],
                 kind="leakage", net=net, message=message)
        )
    scenarios = [("fork-collider", ["--seed", str(int(rng.integers(1, 2**31)))]) for _ in range(FORK_COLLIDER_RUNS)]
    scenarios += [("ballot", ["--n", str(n)]) for n in BALLOT_VOTERS]
    scenarios += [("twins", ["--q", str(q)]) for q in TWINS_Q]
    for i, (scenario, extra) in enumerate(scenarios):
        name = f"scenario{i:02d}-{scenario}"
        out, net = f"out/{name}/report.json", f"out/{name}/net.json"
        argv = ["leakage", "--scenario", scenario, *extra, "--emit-net", net, "--out", out]
        jobs.append(_job(name, argv, [out, net], kind="leakage", net=net, message=None))
    return _interleave(jobs, rng)


# ---------------------------------------------------------------------------
# society: simulation plus attribution
# ---------------------------------------------------------------------------

# (entities, data per entity, ticks, attribution net nodes or 0, jobs of this
# shape). The small simulations hold the median, the 30-entity attribution
# jobs the p75.
SOCIETIES = (
    (30, 3, 1, 0, 12),
    (20, 3, 2, 0, 12),
    (30, 2, 1, 12, 12),
    (200, 2, 1, 0, 1),
    (100, 4, 2, 0, 1),
    (20, 4, 2, 12, 1),
    (20, 3, 1, 14, 1),
    (12, 2, 1, 16, 1),
)
# One large attribution job whose net nodes nobody owns, at the default
# decision link: attribute_flows bundles its whole event log (about 16k
# flows) into contexts, where bundle_contexts is quadratic in the open
# (sender, receiver) pairs, but makes no conditional_mi call.
BUNDLE_SOCIETY = (100, 4, 5, 12)
BUDGETS = {"d1": 2.0, "d3": 3.0}
# Attribution runs one conditional_mi per explicit flow and owned node, so
# its cost follows the flow count. A steep decision link (every entity
# sends each datum to its friends and to nobody else) fixes that count by
# the shape, whatever the seed.
STEEP = {"alpha": 20.0, "beta": 0.0, "gamma": 14.0}


def _scenario_doc(rng, n_ent: int, n_data: int, ticks: int, net_nodes: int, owned: bool = True) -> dict:
    steep = bool(net_nodes) and owned
    ids = [f"e{k:03d}" for k in range(n_ent)]
    entities, incentives, trust = [], {}, {}
    for k, eid in enumerate(ids):
        data = []
        for j in range(n_data):
            if rng.random() < 0.25:
                owner = ids[int(rng.integers(n_ent))]
            else:
                owner = eid
            rec = {
                "datum": f"d{j}",
                "value": f"v{int(rng.integers(10))}",
                "owner": owner,
                "governance": "conjunct" if owner == eid else "distributed-copy",
                "domain_size": 2 + 2 * j,
            }
            if j == 2:
                rec["mechanism"] = {"kind": "randomized-response", "k": 2, "eps": round(float(rng.uniform(0.2, 1.5)), 3)}
            data.append(rec)
        entities.append({"id": eid, "data": data})
        others = [i for i in range(n_ent) if i != k]
        friends = rng.choice(others, size=2 if steep else 3, replace=False)
        trust[eid] = {ids[int(f)]: 1.0 if steep else round(float(rng.uniform(0.3, 1.0)), 3) for f in friends}
        incentives[eid] = {f"d{j}": round(float(rng.uniform(0.0, 1.0)), 3) for j in range(n_data)}
    channels = []
    for _ in range(n_ent // 4):
        s, o = (int(v) for v in rng.choice(n_ent, size=2, replace=False))
        channels.append({"subject": ids[s], "observer": ids[o], "datum": f"d{int(rng.integers(n_data))}",
                         "p": round(float(rng.uniform(0.05, 0.5)), 3)})
    unique = {(c["subject"], c["observer"], c["datum"]): c for c in channels}
    doc = {
        "seed": int(rng.integers(2**31)),
        "ticks": ticks,
        "window": 1,
        "entities": entities,
        "trust": trust,
        "incentives": incentives,
        "implicit_channels": list(unique.values()),
        "budgets": {d: cap for d, cap in BUDGETS.items() if int(d[1:]) < n_data},
    }
    if steep:
        doc["logistic"] = STEEP
    if net_nodes:
        net = _net_doc(_parent_sets("fanin", net_nodes, rng), (2,), rng)
        names = [node["name"] for node in net["nodes"]]
        # The message nodes are the last ones: which axes a marginal of the
        # dense joint keeps decides its cost, so the shape fixes them. They
        # stay unowned: a context whose conditioning set holds an owned
        # message node trips the conditional_mi defect that the twins jobs
        # below reproduce, and these jobs are here to measure attribution.
        messages = names[-n_data:]
        doc["attribution"] = {
            "net": net,
            "message_nodes": {f"d{j}": m for j, m in enumerate(messages)},
            "ownership": {name: ids[int(rng.integers(n_ent))] for name in names if name not in messages and owned},
            "threshold": 1e-6,
        }
    return doc


def _society_jobs(rng, inputs: _Inputs, src_data: Path) -> list[dict]:
    jobs = []

    def simulate(name: str, doc: dict) -> dict:
        scenario = inputs.json(f"{name}.json", doc)
        out = f"out/{name}"
        return _job(name, ["simulate", "--scenario", scenario, "--out", out], (),
                    [f"{out}/events.jsonl", f"{out}/ledger.json"], kind="society")

    for i, (n_ent, n_data, ticks, net_nodes, repeats) in enumerate(SOCIETIES):
        for r in range(repeats):
            name = f"society{i}{r:02d}-{n_ent}x{n_data}x{ticks}n{net_nodes}"
            jobs.append(simulate(name, _scenario_doc(rng, n_ent, n_data, ticks, net_nodes)))
    n_ent, n_data, ticks, net_nodes = BUNDLE_SOCIETY
    jobs.append(simulate(f"bundle-{n_ent}x{n_data}x{ticks}n{net_nodes}",
                         _scenario_doc(rng, n_ent, n_data, ticks, net_nodes, owned=False)))
    with open(src_data / "twins.json") as fh:
        twins = json.load(fh)
    jobs.append(simulate("twins", twins))
    # Both reproduce a seed defect: causal.conditional_mi raises "axes don't
    # match array" when the conditioning set already holds the message or
    # the leaked node, and the CLI exits 2. A fix lowers the refused share.
    swapped = json.loads(json.dumps(twins))
    swapped["entities"][0]["data"].reverse()
    jobs.append(simulate("twins-swapped", swapped))
    windowed = dict(twins, ticks=2, window=2)
    jobs.append(simulate("twins-t2w2", windowed))
    return _interleave(jobs, rng)


# ---------------------------------------------------------------------------
# anon: per-row table work
# ---------------------------------------------------------------------------

# (rows, tables): 2k-row releases hold the median, 10k-row linkage attacks the p75
LINKAGE_TABLES = ((1000, 10), (10000, 12), (30000, 1))
DP_TABLES = ((2000, 18), (100000, 1))


ZIPS, AGES, SEXES = 40, 8, 2
DIAGNOSES = ("flu", "cold", "cancer", "asthma", "diabetes", "healthy")


def _table(rng, rows: int) -> tuple[list[str], list[list[str]]]:
    zips = rng.integers(0, ZIPS, size=rows)
    ages = rng.integers(0, AGES, size=rows)
    sexes = rng.integers(0, SEXES, size=rows)
    diag = rng.choice(len(DIAGNOSES), size=rows, p=[0.3, 0.25, 0.1, 0.15, 0.1, 0.1])
    body = [
        [f"1{z:04d}", f"{10 * a}-{10 * a + 9}", "FM"[s], DIAGNOSES[d]]
        for z, a, s, d in zip(zips.tolist(), ages.tolist(), sexes.tolist(), diag.tolist())
    ]
    return ["zip", "age", "sex", "diagnosis"], body


RELEASE_ROLES = {"zip": "quasi-identifier", "age": "quasi-identifier", "sex": "quasi-identifier", "diagnosis": "sensitive"}
AUX_ROLES = {"name": "identifier", "zip": "quasi-identifier", "age": "quasi-identifier"}


def _anon_jobs(rng, inputs: _Inputs, src_data: Path) -> list[dict]:
    jobs = []
    for i, (rows, tables) in enumerate(LINKAGE_TABLES):
        for r in range(tables):
            name = f"linkage{i}{r:02d}-{rows}"
            header, body = _table(rng, rows)
            release = inputs.csv(f"{name}.release.csv", header, body, RELEASE_ROLES)
            picks = rng.choice(rows, size=max(10, rows // 10), replace=False)
            aux_body = [[f"p{int(k)}", body[int(k)][0], body[int(k)][1]] for k in picks]
            aux_body += [[f"q{k}", "99999", "0-9"] for k in range(len(aux_body) // 10)]
            aux = inputs.csv(f"{name}.aux.csv", ["name", "zip", "age"], aux_body, AUX_ROLES)
            out = f"out/{name}/report.json"
            jobs.append(_job(name, ["anon", release, aux, "--out", out], [out], kind="linkage",
                             release=release, aux=aux, rows=rows + len(aux_body)))
    for i, (rows, tables) in enumerate(DP_TABLES):
        for r in range(tables):
            name = f"dp{i}{r:02d}-{rows}"
            header, body = _table(rng, rows)
            release = inputs.csv(f"{name}.release.csv", header, body, RELEASE_ROLES)
            eps = "none" if (i, r) == (0, 0) else str(round(float(rng.uniform(0.1, 2.0)), 4))
            out, released = f"out/{name}/report.json", f"out/{name}/released.csv"
            argv = ["anon", release, "--dp", f"eps={eps}", "--sensitive", "diagnosis",
                    "--seed", str(int(rng.integers(2**31))), "--release-out", released, "--out", out]
            jobs.append(_job(name, argv, [out], [released], kind="dp", release=release, released=released,
                             eps=None if eps == "none" else float(eps), rows=rows))
    return _interleave(jobs, rng)


_BUILDERS = {
    "sweep": _sweep_jobs,
    "leakage": _leakage_jobs,
    "society": _society_jobs,
    "anon": _anon_jobs,
}
