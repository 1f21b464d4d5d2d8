"""Numeric inner loops, in numpy.

Entropy, mutual information, the per-column epsilon scan and dense
joint enumeration. All entropies/informations are in bits (Sh), logs
base 2; epsilon scans use natural log.
"""

from __future__ import annotations

import math

import numpy as np


def backend() -> str:
    """Name of the kernel backend; always 'numpy'."""
    return "numpy"


def entropy_bits(p: np.ndarray) -> float:
    # 0 log 0 := 0
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def mi_bits(mass: np.ndarray) -> float:
    # rounding can sum to a hair below 0; mutual information is never negative
    px = mass.sum(axis=1)
    py = mass.sum(axis=0)
    prod = np.outer(px, py)
    m = mass > 0.0
    return max(float((mass[m] * np.log2(mass[m] / prod[m])).sum()), 0.0)


def scan_log_ratio(rows: np.ndarray) -> tuple[float, int, int, int]:
    """Max over inputs x,x' and outputs y of ln(rows[x,y]/rows[x',y]).

    Per column the max ratio is colmax/colmin; 0/0 counts as ratio 1 and
    a positive entry over a zero entry is unbounded. Returns
    (eps, x, x', y) with eps = math.inf in the unbounded case.
    """
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


def dense_joint(cards, cpts, parents) -> np.ndarray:
    """Joint over all nodes by broadcast-multiplying each CPT factor.

    cards: per-node state counts, nodes in topological order.
    cpts[k]: array of shape (prod(parent cards), cards[k]).
    parents[k]: indices of node k's parents, in declared order.
    """
    n = len(cards)
    out = np.ones(tuple(int(c) for c in cards))
    for k in range(n):
        pax = [int(p) for p in parents[k]]
        axes = pax + [k]
        arr = cpts[k].reshape(tuple(int(cards[p]) for p in pax) + (int(cards[k]),))
        order = np.argsort(axes)
        arr = np.transpose(arr, tuple(order))
        shape = [1] * n
        for ax in axes:
            shape[ax] = int(cards[ax])
        out = out * arr.reshape(tuple(shape))
    return out.reshape(-1)
