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
        column_major = np.asfortranarray(mass)  # its marginals may round otherwise; its cells are summed row-major
        assert _kernels.mi_bits(column_major) == mi_bits_outer(column_major)


def net_of(cards, cpts, parents):
    return BayesNet(
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


def shaped_net_arrays(rng, kind):
    """cards / cpts / parents of a net of 2^12-2^14 cells whose views take one of the kernel's step shapes.

    Some CPT rows are one-hot with -0.0 for their zeros, so a cell's sign bit shows whether it is the
    product of the same entries.
    """
    n = int(rng.integers(12, 15))
    cards = [2] * n
    if kind == "all earlier":
        # each node's parents are every earlier node (declared in random order): no unmarked axis
        cards = [2] * 10 + [int(rng.integers(5, 17))]
        parents = [rng.permutation(k).tolist() for k in range(len(cards))]
    elif kind == "chain":
        cards = [2] * 14
        parents = [[]] + [[k - 1] for k in range(1, 14)]  # the parent is the innermost axis
    elif kind == "separated":
        # up to 3 parents, counting back from the node before (or the one before it) in steps of 1-3 nodes:
        # unmarked runs between them, and after them or not
        parents = [sorted(range(k - 1 - int(rng.integers(2)), -1, -int(rng.integers(1, 4)))[:3]) for k in range(n)]
    elif kind == "single-state":
        cards = [1 if k % 3 == 1 else 2 for k in range(n + n // 2)]
        widths = [min(k, int(rng.integers(0, 3))) for k in range(len(cards))]
        parents = [rng.choice(k, size=w, replace=False).tolist() for k, w in enumerate(widths)]
    else:  # "after a short run": a node outside the parents sits before all of them
        parents = [[] for _ in range(n - 1)] + [list(range(1, n - 1))]
    cpts = []
    for k, pars in enumerate(parents):
        rows = rng.dirichlet(np.ones(cards[k]), size=math.prod(cards[p] for p in pars))
        for r in np.flatnonzero(rng.random(len(rows)) < 0.2):
            rows[r] = -0.0
            rows[r, rng.integers(cards[k])] = 1.0
        cpts.append(rows)
    return cards, cpts, parents


class TestDenseJoint:
    def test_matches_naive_net_joint(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            cards, cpts, parents = random_net_arrays(rng, int(rng.integers(1, 8)))
            # naive_net_joint enumerates states row-major, like dense_joint's flat output,
            # and multiplies each cell's factors in node order, as the running product does
            expected = np.array(list(naive_net_joint(net_of(cards, cpts, parents)).values()))
            got = _kernels.dense_joint(cards, cpts, parents)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
            assert got.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("kind", ["all earlier", "chain", "separated", "single-state", "after a short run"])
    def test_step_shapes_match_naive_net_joint_bit_for_bit(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(3):
            cards, cpts, parents = shaped_net_arrays(rng, kind)
            assert 2**12 <= math.prod(cards) <= 2**14
            expected = np.array(list(naive_net_joint(net_of(cards, cpts, parents)).values()))
            got = _kernels.dense_joint(cards, cpts, parents)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
            assert np.signbit(expected).any()

    def test_multiply_calls_counts_the_kernel_calls(self, monkeypatch):
        class CountingNumpy:
            calls = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def multiply(self, *args, **kwargs):
                self.calls += 1
                return np.multiply(*args, **kwargs)

        rng = np.random.default_rng(43)
        kinds = ["all earlier", "chain", "separated", "single-state", "after a short run"]
        nets = [(kind, shaped_net_arrays(rng, kind)) for kind in kinds]
        nets += [("small", random_net_arrays(rng, 7)) for _ in range(5)]
        for kind, (cards, cpts, parents) in nets:
            counting = CountingNumpy()
            monkeypatch.setattr(_kernels, "np", counting)
            _kernels.dense_joint(cards, cpts, parents)
            monkeypatch.undo()
            assert counting.calls == _kernels.multiply_calls(cards, parents)
            if kind == "after a short run":
                # the last node's CPT has 2^(n-1) cells; its step makes one call per state, not one per cell
                assert counting.calls < 2 * len(cards)

    def test_merged_view_drops_single_state_axes_and_merges_runs(self):
        # axes 0..5 with cards 2,1,3,2,1,2; marked 2 and 5
        shape, sub, kept = _kernels.merged_view([2, 1, 3, 2, 1, 2], [2, 5])
        assert shape == [2, 3, 2, 2]
        assert (sub, kept) == ("abcd", "bd")
        assert _kernels.merged_view([1, 1], [0]) == ([], "", "")
