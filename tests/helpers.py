"""Brute-force oracles used to compute or re-check expected test values.

Deliberately independent of the library: plain-Python dict/loop
arithmetic only, so a kernel bug cannot hide behind itself.
"""

import itertools
import math


def entropy_cells(ps) -> float:
    return sum(-p * math.log2(p) for p in ps if p > 0)


def mi_cells(cells: dict) -> float:
    """Mutual information in Sh from a dict (x, y) -> probability."""
    px, py = {}, {}
    for (x, y), p in cells.items():
        px[x] = px.get(x, 0.0) + p
        py[y] = py.get(y, 0.0) + p
    return sum(
        p * math.log2(p / (px[x] * py[y])) for (x, y), p in cells.items() if p > 0
    )


def max_log_ratio(rows) -> float:
    """Max over x, x', y of ln(rows[x][y] / rows[x'][y]), pair by pair.

    0/0 counts as ratio 1 and a positive entry over a zero entry is
    unbounded (math.inf).
    """
    best = 0.0
    for y in range(len(rows[0])):
        for a in (row[y] for row in rows):
            for b in (row[y] for row in rows):
                if a <= 0:
                    continue
                if b <= 0:
                    return math.inf
                best = max(best, math.log(a / b))
    return best


def scan_log_ratio_masked(rows) -> tuple:
    """The eps scan of ``_kernels.scan_log_ratio`` with both zero masks formed on every call.

    The kernel forms them only when a column has a 0; it must return
    this function's eps, witness and column bit for bit on any
    row-stochastic array.
    """
    import numpy as np

    colmax = rows.max(axis=0)
    colmin = rows.min(axis=0)
    live = colmax > 0.0
    unbounded = live & (colmin <= 0.0)
    if unbounded.any():
        y = int(np.argmax(unbounded))
        return math.inf, int(np.argmax(rows[:, y])), int(np.argmin(rows[:, y])), y
    ratios = np.zeros(rows.shape[1])
    ratios[live] = np.log(colmax[live]) - np.log(colmin[live])
    y = int(np.argmax(ratios))
    return float(ratios[y]), int(np.argmax(rows[:, y])), int(np.argmin(rows[:, y])), y


def mi_bits_outer(mass) -> float:
    """Mutual information in Sh by ``np.outer`` of the marginals; ``_kernels.mi_bits`` must equal it bit for bit."""
    import numpy as np

    px = mass.sum(axis=1)
    py = mass.sum(axis=0)
    prod = np.outer(px, py)
    m = mass > 0.0
    return max(float((mass[m] * np.log2(mass[m] / prod[m])).sum()), 0.0)


def dirichlet_sweep(n_cases: int, seed: int, certify) -> tuple:
    """(violations, max_mi_sh, min_slack_sh) of ``channels.bound_sweep``'s cases drawn one generator at a time.

    Case i draws from a new ``default_rng([seed, i])``: two
    ``integers(2, 9)`` (inputs, outputs), the channel rows by
    ``Generator.dirichlet`` (floored at 1e-6 and renormalized), then
    the prior by ``Generator.dirichlet``. ``certify(rows, probs)``
    returns the case's certificate.
    """
    import numpy as np

    violations, max_mi, min_slack = 0, 0.0, math.inf
    for case in range(n_cases):
        rng = np.random.default_rng([seed, case])
        n_in = int(rng.integers(2, 9))
        n_out = int(rng.integers(2, 9))
        rows = rng.dirichlet(np.ones(n_out), size=n_in)
        np.maximum(rows, 1e-6, out=rows)
        rows /= rows.sum(axis=1, keepdims=True)
        cert = certify(rows, rng.dirichlet(np.ones(n_in)))
        violations += not cert.holds
        max_mi = max(max_mi, cert.mi_sh)
        min_slack = min(min_slack, cert.bound_sh - cert.mi_sh)
    return violations, max_mi, min_slack


def joint_cells(prior, rows) -> dict:
    """Cells of prior(x) * rows[x][y], keyed by index pairs."""
    return {
        (i, j): prior[i] * rows[i][j]
        for i in range(len(prior))
        for j in range(len(rows[i]))
    }


def has_bool_recursive(values) -> bool:
    """Whether ``values`` is a boolean or a (nested) list or tuple holding one, one call per item.

    ``measures._has_bool`` must give its answer on every input; an
    ndarray is neither a boolean nor a list.
    """
    import numpy as np

    if isinstance(values, (list, tuple)):
        return any(map(has_bool_recursive, values))
    return isinstance(values, (bool, np.bool_))


def naive_net_joint(net) -> dict:
    """Per-state factor product over every configuration of a BayesNet."""
    idx = {n.name: i for i, n in enumerate(net.nodes)}
    cards = [n.card for n in net.nodes]
    out = {}
    for combo in itertools.product(*(range(c) for c in cards)):
        p = 1.0
        for k, node in enumerate(net.nodes):
            row = 0
            for parent in node.parents:
                row = row * cards[idx[parent]] + combo[idx[parent]]
            p *= float(node.cpt[row, combo[k]])
        out[combo] = p
    return out


def naive_conditional_mi(net, a: str, b: str, given=()) -> float:
    """I(a; b | given) in Sh via the naive joint: the sum of p(x, y, g) log2(p(x, y, g) p(g) / (p(x, g) p(y, g))).

    ``given`` is read state by state off each configuration, so a name
    may repeat in it, or be ``a`` or ``b``: such a term is log2(1) = 0.
    """
    idx = {n.name: i for i, n in enumerate(net.nodes)}
    cells, xg, yg, g_only = {}, {}, {}, {}
    for combo, p in naive_net_joint(net).items():
        x, y, g = combo[idx[a]], combo[idx[b]], tuple(combo[idx[n]] for n in given)
        for table, key in ((cells, (x, y, g)), (xg, (x, g)), (yg, (y, g)), (g_only, g)):
            table[key] = table.get(key, 0.0) + p
    return sum(
        p * math.log2(p * g_only[g] / (xg[x, g] * yg[y, g])) for (x, y, g), p in cells.items() if p > 0
    )


def sum_marginal(probs, keep):
    """Marginal of a dense tensor keeping axes ``keep`` in that order, by one ``ndarray.sum``.

    The reference the dense joint's marginals must match bit for bit.
    """
    import numpy as np

    drop = tuple(i for i in range(probs.ndim) if i not in keep)
    m = probs.sum(axis=drop) if drop else probs
    return np.transpose(m, [sorted(keep).index(k) for k in keep])


def naive_pair_mi(net, a: str, b: str) -> float:
    """MI between two nodes via the naive joint."""
    idx = {n.name: i for i, n in enumerate(net.nodes)}
    cells = {}
    for combo, p in naive_net_joint(net).items():
        key = (combo[idx[a]], combo[idx[b]])
        cells[key] = cells.get(key, 0.0) + p
    return mi_cells(cells)


def scalar_simulation(cfg: dict) -> tuple[list, dict]:
    """Records and ledger of a scenario document, one draw per candidate.

    Replays the simulator's per-candidate loop: at every tick each
    (sender, datum, receiver) candidate, in declaration order, draws one
    scalar from the tick's explicit stream and fires when the draw is
    below its logistic decision probability; budgets suppress explicit
    releases; implicit channels draw from their own stream.
    """
    import numpy as np

    logi = cfg.get("logistic", {})
    alpha, beta, gamma = logi.get("alpha", 4.0), logi.get("beta", 1.0), logi.get("gamma", 3.0)
    trust, incentives = cfg.get("trust", {}), cfg.get("incentives", {})
    budgets = cfg.get("budgets", {})
    held = {(e["id"], r["datum"]): r for e in cfg["entities"] for r in e.get("data", [])}

    def logistic(x):
        if x >= 0:
            return 1.0 / (1.0 + math.exp(-x))
        z = math.exp(x)
        return z / (1.0 + z)

    def raw_measure(rec):
        k = rec.get("domain_size", 2)
        return {"selective_sh": math.log2(k) if k > 1 else 0.0, "logons": k, "metrons": 1, "unbounded": False}

    def release_measure(rec):
        mech = rec.get("mechanism")
        if mech is None:
            return raw_measure(rec)
        return {"selective_sh": mech["eps"] * math.log2(math.e), "logons": mech["k"], "metrons": 1,
                "unbounded": False}

    def flow(t, kind, sender, receiver, datum, measure):
        prefix = {"explicit": "x", "implicit": "i"}[kind]
        return {"record": "flow", "id": f"{prefix}:{t}:{sender}>{receiver}:{datum}", "t": t,
                "sender": sender, "receiver": receiver, "datum": datum, "kind": kind,
                "context_id": f"c:{t}:{sender}>{receiver}", "measure": measure}

    cumulative, records = {}, []
    seed = cfg.get("seed", 0)
    for t in range(cfg.get("ticks", 1)):
        rng_explicit = np.random.default_rng([seed, t, 0])
        rng_implicit = np.random.default_rng([seed, t, 1])
        flows, stops = [], []
        for sender in cfg["entities"]:
            s = sender["id"]
            for rec in sender.get("data", []):
                d = rec["datum"]
                for receiver in cfg["entities"]:
                    r = receiver["id"]
                    if r == s:
                        continue
                    x = alpha * trust.get(s, {}).get(r, 0.0) + beta * incentives.get(s, {}).get(d, 0.0) - gamma
                    if rng_explicit.random() >= logistic(x):
                        continue
                    measure = release_measure(rec)
                    used = cumulative.get((s, r, d), 0.0)
                    if d in budgets and used + measure["selective_sh"] > budgets[d] + 1e-9:
                        stops.append({"record": "budget-stop", "t": t, "sender": s, "receiver": r, "datum": d,
                                      "attempted_sh": measure["selective_sh"],
                                      "headroom_sh": max(budgets[d] - used, 0.0)})
                        continue
                    flows.append(flow(t, "explicit", s, r, d, measure))
                    cumulative[(s, r, d)] = used + measure["selective_sh"]
        for ch in cfg.get("implicit_channels", []):
            if rng_implicit.random() >= ch["p"]:
                continue
            key = (ch["subject"], ch["observer"], ch["datum"])
            measure = raw_measure(held[(ch["subject"], ch["datum"])])
            flows.append(flow(t, "implicit", *key, measure))
            cumulative[key] = cumulative.get(key, 0.0) + measure["selective_sh"]
        records += flows + stops
    return records, cumulative


def rr_release_oracle(values, rows, seed) -> list:
    """Randomized-response release of ``values``, one ``rng.choice`` per row.

    ``rows[i]`` is the output distribution of the i-th category in sorted
    order; each row draws from one ``default_rng(seed)`` stream in turn.
    """
    import numpy as np

    categories = sorted(set(values))
    rng = np.random.default_rng(seed)
    return [categories[rng.choice(len(categories), p=rows[categories.index(v)])] for v in values]


def naive_linkage(release_columns, release_rows, aux_columns, aux_rows) -> dict:
    """Linkage-attack report from (name, role) columns and rows, via a dict of sets."""

    def named(columns, role):
        return [n for n, r in columns if r == role]

    def cells(columns, row, names):
        pos = [n for n, _ in columns]
        return tuple(row[pos.index(n)] for n in names)

    qi = named(release_columns, "quasi-identifier")
    aux_qi = named(aux_columns, "quasi-identifier")
    shared = [n for n in qi if n in aux_qi]
    sensitive = named(release_columns, "sensitive")
    members, full = {}, {}
    for row in release_rows:
        key = cells(release_columns, row, shared)
        members.setdefault(key, []).append(cells(release_columns, row, sensitive))
        full_key = cells(release_columns, row, qi)
        full[full_key] = full.get(full_key, 0) + 1
    matched, reid = set(), 0
    for row in aux_rows:
        key = cells(aux_columns, row, shared)
        if key in members:
            matched.add(key)
            reid += len(members[key]) == 1
    homogeneous = sum(1 for key in matched if len(set(members[key])) == 1)
    return {
        "k_achieved": min(full.values()),
        "homogeneity_rate": homogeneous / len(matched) if matched else 0.0,
        "reid_rate": reid / len(aux_rows) if aux_rows else 0.0,
    }


def naive_read_table(csv_path, roles_path=None):
    """The table ``anonymity.read_table`` loads, by one ``csv.reader`` pass over the open file (a byte-order mark
    at its start skipped).

    ``read_table`` must give the same columns, cells and height, or refuse
    with the same message; the table and the sidecar rules are the
    library's own.
    """
    import csv
    from pathlib import Path

    from infoflow.anonymity import Table, default_roles_path
    from infoflow.measures import _check_keys, _known, load_json, malformed

    roles_path = default_roles_path(csv_path) if roles_path is None else Path(roles_path)
    roles = load_json(roles_path, lambda doc: dict(_check_keys(doc, ("roles",), "roles sidecar")["roles"].items()))
    with open(csv_path, newline="", encoding="utf-8-sig") as fh, malformed(csv_path):
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


# The event-log and ledger schema as dicts, built field by field from the
# objects: json.dumps(rec, sort_keys=True, allow_nan=False) of each record
# is a line of events.jsonl, and json.dump(rows, indent=2, sort_keys=True,
# allow_nan=False) of the ledger rows is ledger.json.


def measure_dict(m) -> dict:
    return {
        "selective_sh": float(m.selective_sh),
        "logons": int(m.logons),
        "metrons": int(m.metrons),
        "unbounded": False,
    }


def flow_dict(f) -> dict:
    return {
        "record": "flow",
        "id": f.id,
        "t": f.t,
        "sender": f.sender,
        "receiver": f.receiver,
        "datum": f.datum,
        "kind": f.kind,
        "context_id": f.context_id,
        "measure": measure_dict(f.measure),
    }


def stop_dict(s) -> dict:
    return {
        "record": "budget-stop",
        "t": s.t,
        "sender": s.sender,
        "receiver": s.receiver,
        "datum": s.datum,
        "attempted_sh": float(s.attempted_sh),
        "headroom_sh": float(s.headroom_sh),
    }


def context_dict(c) -> dict:
    return {"id": c.id, "t": c.t, "sender": c.sender, "receiver": c.receiver, "flow_ids": [f.id for f in c.flows]}


def event_records(result, induced=()) -> list:
    """Flows and budget stops by tick (stable), then one record per induced (cause, context) pair."""
    recs = [flow_dict(e) for e in result.events] + [stop_dict(s) for s in result.stops]
    recs.sort(key=lambda r: r["t"])
    recs += [
        {
            "record": "induced-context",
            "cause": context_dict(cause),
            "context": context_dict(context),
            "flows": [flow_dict(f) for f in context.flows],
        }
        for cause, context in induced
    ]
    return recs


def budget_oracle(budgets: dict, ops) -> tuple[dict, list]:
    """Cumulative sums and what each call returns for ``ops``, (``"charge"`` or ``"record"``, key, amount) triples.

    A charge whose datum has a budget and would take the key's sum past the
    budget plus 1e-9 Sh records nothing and returns the headroom, the budget
    less the sum and at least 0.0; every other call adds its amount.
    """
    cumulative, returned = {}, []
    for op, key, amount in ops:
        used = cumulative.get(key, 0.0)
        cap = budgets.get(key[2])
        if op == "charge" and cap is not None and used + amount > cap + 1e-9:
            returned.append(max(cap - used, 0.0))
        else:
            cumulative[key] = used + amount
            returned.append(None)
    return cumulative, returned


def ledger_rows(ledger) -> list:
    """Per-(sender, receiver, datum) cumulative content, budget and headroom, sorted by key."""
    rows = []
    for (sender, receiver, datum), used in sorted(ledger.cumulative.items()):
        cap = ledger.budgets.get(datum)
        headroom = None if cap is None else max(cap - used, 0.0)
        rows.append(
            {
                "sender": sender,
                "receiver": receiver,
                "datum": datum,
                "cumulative_sh": float(used),
                "budget_sh": None if cap is None else float(cap),
                "headroom_sh": None if headroom is None else float(headroom),
            }
        )
    return rows


EVENT_CSV_FIELDS = ["record", "id", "t", "kind", "sender", "receiver", "datum", "selective_sh", "logons",
                    "metrons", "context_id", "attempted_sh", "headroom_sh"]


def read_csv(text: str) -> list[list[str]]:
    """The rows ``csv.reader`` reads from ``text``, whose line ends are as written."""
    import csv
    import io

    return list(csv.reader(io.StringIO(text, newline="")))


def events_csv_rows(records) -> list[dict]:
    """The rows of events.csv from event records, as dicts: one ``induced-flow`` row per flow of an induced context."""
    out = []
    for rec in records:
        rows = [{**f, "record": "induced-flow"} for f in rec["flows"]] if rec["record"] == "induced-context" else [rec]
        for row in rows:
            measure = row.get("measure") or {}
            out.append({k: row.get(k, measure.get(k, "")) for k in EVENT_CSV_FIELDS})
    return out


def write_events_csv(records, fh) -> None:
    """events.csv from event records, as ``csv.DictWriter`` writes ``events_csv_rows``."""
    import csv

    writer = csv.DictWriter(fh, fieldnames=EVENT_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(events_csv_rows(records))


def write_csv_rows(rows, fh) -> None:
    """``measures.write_csv`` one row at a time through the csv module, with no joined fast path.

    ``write_csv`` must write these bytes for any rows: a row with a ``\\r``
    in a cell has every cell quoted, and any other row is written as
    ``csv.writer(fh, lineterminator="\\n")`` writes it.
    """
    import csv

    plain = csv.writer(fh, lineterminator="\n")
    quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in rows:
        (quoted if "\r" in "".join(map(str, row)) else plain).writerow(row)
