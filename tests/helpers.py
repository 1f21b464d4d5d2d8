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


def joint_cells(prior, rows) -> dict:
    """Cells of prior(x) * rows[x][y], keyed by index pairs."""
    return {
        (i, j): prior[i] * rows[i][j]
        for i in range(len(prior))
        for j in range(len(rows[i]))
    }


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


def naive_pair_mi(net, a: str, b: str) -> float:
    """MI between two nodes via the naive joint."""
    idx = {n.name: i for i, n in enumerate(net.nodes)}
    cells = {}
    for combo, p in naive_net_joint(net).items():
        key = (combo[idx[a]], combo[idx[b]])
        cells[key] = cells.get(key, 0.0) + p
    return mi_cells(cells)
