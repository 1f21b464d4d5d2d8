"""Numeric inner loops, in numpy.

Entropy, mutual information, the per-column epsilon scan and the dense
joint as a running product of CPT factors. All entropies/informations
are in bits (Sh), logs base 2; epsilon scans use natural log.
"""

from __future__ import annotations

import math
import string

import numpy as np

LABELS = string.ascii_letters  # einsum's subscripts


def backend() -> str:
    """Name of the kernel backend; always 'numpy'."""
    return "numpy"


def entropy_bits(p: np.ndarray) -> float:
    # 0 log 0 := 0
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def mi_bits(mass: np.ndarray) -> float:
    # the positive cells in row-major order, gathered only when some cell is 0
    cells, prod = mass.ravel(), (mass.sum(axis=1)[:, None] * mass.sum(axis=0)).ravel()
    if not np.minimum.reduce(cells) > 0.0:
        m = cells > 0.0
        cells, prod = cells[m], prod[m]
    # rounding can sum to a hair below 0; mutual information is never negative
    return max(float((cells * np.log2(cells / prod)).sum()), 0.0)


def scan_log_ratio(rows: np.ndarray) -> tuple[float, int, int, int]:
    """Max over inputs x,x' and outputs y of ln(rows[x,y]/rows[x',y]).

    Per column the max ratio is colmax/colmin; 0/0 counts as ratio 1 and
    a positive entry over a zero entry is unbounded. Returns
    (eps, x, x', y) with eps = math.inf in the unbounded case. The
    masks for those two cases are formed only when some column minimum
    is 0; an all-zero column then takes colmax = colmin = 1.
    """
    colmax = rows.max(axis=0)
    colmin = rows.min(axis=0)
    if not colmin.min() > 0.0:
        live = colmax > 0.0
        unbounded = live & (colmin <= 0.0)
        if unbounded.any():
            y = int(unbounded.argmax())
            return math.inf, int(rows[:, y].argmax()), int(rows[:, y].argmin()), y
        colmax = np.where(live, colmax, 1.0)
        colmin = np.where(live, colmin, 1.0)
    ratios = np.log(colmax) - np.log(colmin)
    y = int(ratios.argmax())
    return float(ratios[y]), int(rows[:, y].argmax()), int(rows[:, y].argmin()), y


def merged_view(cards, marked) -> tuple[list[int], str, str]:
    """Shape and einsum subscripts of a row-major tensor over ``cards`` seen with its unmarked runs merged.

    ``marked`` holds axis indices in increasing order. Each run of
    unmarked axes between them becomes one axis, and every single-state
    axis is dropped, so the view has at most 2*len(marked)+1 axes.
    Returns the view's shape, its subscripts, and the subscripts of the
    marked axes it keeps, in order.
    """
    shape: list[int] = []
    sub = kept = ""

    def axis(size: int, is_marked: bool) -> None:
        nonlocal sub, kept
        if size > 1:
            shape.append(int(size))
            sub += LABELS[len(sub)]
            kept += sub[-1] if is_marked else ""

    start = 0
    for p in marked:
        axis(math.prod(cards[start:p]), False)
        axis(cards[p], True)
        start = p + 1
    axis(math.prod(cards[start:]), False)
    return shape, sub, kept


ONE_CALL_CELLS = 2**12  # a step that makes fewer cells is one broadcast multiply: numpy's cost per call dominates


def _joint_steps(cards, parents):
    """How ``dense_joint`` multiplies each node's factor in: (card, parents in increasing order, view, split).

    The view is the ``merged_view`` shape of the product so far with
    the parents marked, and a flag per view axis for marked. Each
    ``np.multiply`` spans the view's axes before ``split``; one call is
    made per state of the axes from ``split`` on and per child state.
    ``split`` is None when the step is one broadcast multiply.
    """
    cards = [int(c) for c in cards]
    for k, card in enumerate(cards):
        ordered = sorted(int(p) for p in parents[k])
        shape, sub, kept = merged_view(cards[:k], ordered)
        marked = [s in kept for s in sub]
        unmarked = [i for i, m in enumerate(marked) if not m]
        split = None
        if unmarked and math.prod(shape) * card >= ONE_CALL_CELLS:
            split = unmarked[-1] + 1
            if shape[split - 1] <= math.prod(shape[split:]):
                split = len(shape)  # the run is no longer than the parent states after it: run along those
        yield card, ordered, (shape, marked), split


def multiply_calls(cards, parents) -> int:
    """Number of ``np.multiply`` calls ``dense_joint`` makes for a net of these cards and parents."""
    return sum(1 if split is None else math.prod(shape[split:]) * card
               for card, _, (shape, _), split in _joint_steps(cards, parents))


def _multiply_in(x, factor, shape, marked, split):
    """The product ``x`` over the view ``shape`` times a factor over its marked axes and one new axis.

    A helper, so the slab views of one step are gone before the next
    step allocates: they would keep the product two steps back alive.
    """
    card = factor.shape[-1]
    x = x.reshape(shape)
    factor = factor.reshape([n if m else 1 for n, m in zip(shape, marked)] + [card])
    if split is None:
        return np.multiply(x[..., None], factor)
    new = np.empty(shape + [card])
    for states in np.ndindex(*shape[split:], card):
        np.multiply(x[(..., *states[:-1])], factor[(..., *states)], out=new[(..., *states)])
    return new


def dense_joint(cards, cpts, parents) -> np.ndarray:
    """Joint over all nodes as a running product of the CPT factors, flattened row-major.

    cards: per-node state counts, nodes in topological order.
    cpts[k]: array of shape (prod(parent cards), cards[k]).
    parents[k]: indices of node k's parents, in declared order.

    Parents come before their child, so the product of the first k
    factors spans only the first k axes, and node k's factor multiplies
    it into one more axis: O(2^n) work for n binary nodes, and the one
    temporary is the product a node short of the result. Every cell is
    (((c0*c1)*c2)...) in node order, one IEEE product of the previous
    cell and one CPT entry, the product a per-configuration loop
    computes, bit for bit.

    Each step writes a new array over ``merged_view`` of the product so
    far with the parents marked, plus the child's axis. numpy's inner
    loop runs along the innermost axis a call spans, and a factor entry
    is constant along an unmarked run, so one ``np.multiply`` per child
    state and per state of the parents after the view's innermost
    unmarked run makes every inner loop run along that run, not along a
    node's 2-3 states. When that run is no longer than the parent states
    after it, the calls run along those states instead (one per child
    state), which keeps a node whose CPT has many cells from taking one
    call per cell. A view with no unmarked axis (the ballot tally), or a
    step of fewer than ONE_CALL_CELLS cells, is one broadcast multiply.
    """
    cards = [int(c) for c in cards]
    out = np.ones(())
    for k, (card, ordered, (shape, marked), split) in enumerate(_joint_steps(cards, parents)):
        pax = [int(p) for p in parents[k]]
        factor = cpts[k].reshape([cards[p] for p in pax] + [card])
        factor = factor.transpose([pax.index(p) for p in ordered] + [len(pax)])
        out = _multiply_in(out, factor, shape, marked, split)
    return out.reshape(-1)
