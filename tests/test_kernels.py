import math

import numpy as np
import pytest

from infoflow import _kernels
from infoflow.causal import BayesNet, Node

from helpers import entropy_cells, max_log_ratio, mi_bits_outer, mi_cells, naive_net_joint, scan_log_ratio_masked


def random_joint(rng, n, m):
    mass = rng.dirichlet(np.ones(n * m)).reshape(n, m)
    return mass


def random_net_arrays(rng, n_nodes=5):
    """cards / cpts / parents triples for a random small DAG with 1- to 3-state nodes."""
    cards = rng.integers(1, 4, size=n_nodes)
    cpts, parents = [], []
    for k in range(n_nodes):
        n_par = int(rng.integers(0, min(k, 3) + 1))
        # parents in random declared order, so dense_joint must transpose
        pars = rng.choice(k, size=n_par, replace=False).tolist() if n_par else []
        rows = int(np.prod([cards[p] for p in pars])) if pars else 1
        cpts.append(rng.dirichlet(np.ones(cards[k]), size=rows))
        parents.append(pars)
    return cards, cpts, parents


def test_backend_is_numpy():
    assert _kernels.backend() == "numpy"


class TestEntropy:
    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            p = rng.dirichlet(np.ones(int(rng.integers(2, 9))))
            assert _kernels.entropy_bits(p) == pytest.approx(entropy_cells(p.tolist()), abs=1e-12)

    def test_zero_cells(self):
        assert _kernels.entropy_bits(np.array([0.5, 0.0, 0.5])) == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = rng.dirichlet(np.ones(6))
            p[rng.choice(6, size=2, replace=False)] = 0.0
            p /= p.sum()
            assert _kernels.entropy_bits(p) == pytest.approx(entropy_cells(p.tolist()), abs=1e-12)


class TestMI:
    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            mass = random_joint(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            if rng.random() < 0.5:
                mass[0, 0] = 0.0
                mass /= mass.sum()
            cells = {(i, j): float(mass[i, j]) for i in range(mass.shape[0]) for j in range(mass.shape[1])}
            assert _kernels.mi_bits(mass) == pytest.approx(mi_cells(cells), abs=1e-12)

    def test_never_negative(self):
        # one row carries all the mass, so the joint is a product; rounding can sum its terms below 0
        rng = np.random.default_rng(5)
        for _ in range(50):
            n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            mass = np.zeros((n, m))
            mass[int(rng.integers(n))] = rng.dirichlet(np.ones(m))
            cells = {(i, j): float(mass[i, j]) for i in range(n) for j in range(m)}
            mi = _kernels.mi_bits(mass)
            assert mi >= 0.0
            assert mi == pytest.approx(mi_cells(cells), abs=1e-12)


class TestScanLogRatio:
    def test_matches_oracle_and_witness_reproduces_ratio(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            rows = rng.dirichlet(np.ones(int(rng.integers(2, 6))), size=int(rng.integers(2, 6)))
            eps, x, xp, y = _kernels.scan_log_ratio(rows)
            assert eps == pytest.approx(max_log_ratio(rows.tolist()), abs=1e-12)
            assert math.log(rows[x, y] / rows[xp, y]) == pytest.approx(eps, abs=1e-12)

    def test_unbounded(self):
        rows = np.array([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
        eps, x, xp, y = _kernels.scan_log_ratio(rows)
        assert math.isinf(eps) and math.isinf(max_log_ratio(rows.tolist()))
        assert y == 2 and rows[x, y] > 0 and rows[xp, y] == 0

    def test_skips_all_zero_columns(self):
        rows = np.array([[0.5, 0.0, 0.5], [0.25, 0.0, 0.75]])
        eps, x, xp, y = _kernels.scan_log_ratio(rows)
        assert eps == pytest.approx(max_log_ratio(rows.tolist()), abs=1e-12)
        assert eps == pytest.approx(math.log(0.5 / 0.25), abs=1e-12)
        assert math.log(rows[x, y] / rows[xp, y]) == pytest.approx(eps, abs=1e-12)


def zero_case_rows(rng, kind):
    """Random row-stochastic rows of one kind of zero pattern (or ties) the kernels branch on."""
    n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    rows = rng.dirichlet(np.ones(m), size=n)
    if kind == "zero cells":
        rows[rng.random((n, m)) < 0.3] = 0.0
    elif kind == "all-zero columns":
        rows[:, rng.choice(m, size=int(rng.integers(0, m)), replace=False)] = 0.0
    elif kind == "unbounded after bounded":
        # a zero under one input in a later column only; the bounded columns come first
        y = int(rng.integers(m))
        rows[int(rng.integers(n)), y:] = 0.0
    elif kind == "tied columns":
        rows[:, rng.integers(m, size=m)] = rows[:, [0]]
        rows = np.round(rows, 1)
    sums = rows.sum(axis=1, keepdims=True)
    return np.divide(rows, sums, out=np.zeros_like(rows), where=sums > 0)


@pytest.mark.parametrize("kind", ["none", "zero cells", "all-zero columns", "unbounded after bounded", "tied columns"])
def test_kernels_equal_their_masked_forms_exactly(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(500):
        rows = zero_case_rows(rng, kind)
        assert _kernels.scan_log_ratio(rows) == scan_log_ratio_masked(rows)
        total = rows.sum()
        mass = rows / total if total > 0 else rows
        assert _kernels.mi_bits(mass) == mi_bits_outer(mass)


class TestDenseJoint:
    def test_matches_naive_net_joint(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            cards, cpts, parents = random_net_arrays(rng, int(rng.integers(1, 8)))
            net = BayesNet(
                tuple(
                    Node(
                        name=f"n{k}",
                        states=tuple(str(s) for s in range(int(cards[k]))),
                        parents=tuple(f"n{p}" for p in parents[k]),
                        cpt=cpts[k],
                    )
                    for k in range(len(cards))
                )
            )
            # naive_net_joint enumerates states row-major, like dense_joint's flat output,
            # and multiplies each cell's factors in node order, as the running product does
            expected = np.array(list(naive_net_joint(net).values()))
            got = _kernels.dense_joint(cards, cpts, parents)
            assert np.array_equal(got, expected)
            assert got.sum() == pytest.approx(1.0, abs=1e-9)

    def test_merged_view_drops_single_state_axes_and_merges_runs(self):
        # axes 0..5 with cards 2,1,3,2,1,2; marked 2 and 5
        shape, sub, kept = _kernels.merged_view([2, 1, 3, 2, 1, 2], [2, 5])
        assert shape == [2, 3, 2, 2]
        assert (sub, kept) == ("abcd", "bd")
        assert _kernels.merged_view([1, 1], [0]) == ([], "", "")
