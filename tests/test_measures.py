import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoflow import (
    UNBOUNDED,
    Dist,
    InfoMeasure,
    Joint,
    Representation,
    entropy,
    mutual_information,
    self_information,
    structural_metric_content,
    total_variation,
)
from infoflow.causal import Node
from infoflow.channels import Channel
from helpers import entropy_cells, mi_cells


def dist(*ps, labels=None):
    labels = labels or tuple(f"o{i}" for i in range(len(ps)))
    return Dist(labels, np.array(ps))


prob_vectors = st.lists(
    st.floats(min_value=0.001, max_value=1.0, allow_nan=False), min_size=1, max_size=8
).map(lambda xs: [x / sum(xs) for x in xs])

mass_matrices = st.tuples(st.integers(2, 5), st.integers(2, 5)).flatmap(
    lambda shape: st.lists(
        st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
).map(lambda rows: (np.array(rows) / np.array(rows).sum()))


@pytest.mark.parametrize(
    "build",
    [
        lambda nan: Dist(("a", "b"), [nan, 0.5]),
        lambda nan: Joint(("a", "b"), ("x",), [[nan], [0.5]]),
        lambda nan: Channel(("a",), ("x", "y"), [[nan, 0.5]]),
        lambda nan: Node("R", ("0", "1"), (), [nan, 0.5]),
    ],
    ids=["Dist", "Joint", "Channel", "Node"],
)
def test_every_table_type_refuses_nan(build):
    # NaN passes a negativity test and poisons a sum test; the table check refuses it
    with pytest.raises(ValueError, match="NaN"):
        build(float("nan"))
    with pytest.raises(ValueError, match="NaN"):
        build(None)  # a JSON null cell


@pytest.mark.parametrize(
    "build",
    [
        lambda a, b: Dist(("a", "b"), [a, b]),
        lambda a, b: Joint(("a", "b"), ("x",), [[a], [b]]),
        lambda a, b: Channel(("a",), ("x", "y"), [[a, b]]),
        lambda a, b: Node("R", ("0", "1"), (), [a, b]),
    ],
    ids=["Dist", "Joint", "Channel", "Node"],
)
@pytest.mark.parametrize("cells", [("0.5", 0.5), (True, False)], ids=["string", "booleans"])
def test_every_table_type_refuses_cells_that_are_not_numbers(build, cells):
    with pytest.raises(ValueError, match="not a number"):
        build(*cells)
    build(1, 0)  # integers are numbers


@pytest.mark.parametrize(
    "build",
    [
        lambda label: Dist((label, "b"), [0.5, 0.5]),
        lambda label: Joint(("a",), (label, "y"), [[0.5, 0.5]]),
        lambda label: Channel((label, "b"), ("x",), [[1.0], [1.0]]),
        lambda label: Node("R", (label, "1"), (), [0.5, 0.5]),
    ],
    ids=["Dist", "Joint", "Channel", "Node"],
)
@pytest.mark.parametrize("label", [0, True, None])
def test_every_labeled_type_refuses_labels_that_are_not_strings(build, label):
    with pytest.raises(ValueError, match=f"must be strings, got {label!r}"):
        build(label)


class TestDist:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            dist(1.2, -0.2)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            dist(0.5, 0.4)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            Dist(("a", "a"), np.array([0.5, 0.5]))

    def test_immutable(self):
        d = dist(0.5, 0.5)
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    def test_json_round_trip(self):
        d = dist(0.75, 0.25, labels=("yes", "no"))
        back = Dist.from_json_dict(json.loads(json.dumps(d.to_json_dict())))
        assert back.outcomes == d.outcomes
        assert np.array_equal(back.probs, d.probs)


class TestSelfInformation:
    def test_uniform_binary_is_one_bit(self):
        assert self_information(dist(0.5, 0.5), "o0") == pytest.approx(1.0)

    def test_one_eighth_is_three_bits(self):
        assert self_information(dist(0.125, 0.875), "o0") == pytest.approx(3.0)

    def test_certain_event_is_zero(self):
        assert self_information(dist(1.0, 0.0), "o0") == pytest.approx(0.0)

    def test_zero_probability_is_unbounded(self):
        assert self_information(dist(1.0, 0.0), "o1") is UNBOUNDED

    def test_unbounded_reads_as_its_name(self):
        assert repr(UNBOUNDED) == "unbounded"

    def test_unbounded_does_not_sum(self):
        with pytest.raises(TypeError):
            UNBOUNDED + 1.0  # noqa: B018

    def test_unknown_outcome(self):
        with pytest.raises(ValueError, match="unknown outcome"):
            self_information(dist(0.5, 0.5), "nope")


class TestEntropy:
    def test_uniform_four(self):
        assert entropy(dist(0.25, 0.25, 0.25, 0.25)) == pytest.approx(2.0)

    def test_point_mass(self):
        assert entropy(dist(1.0, 0.0, 0.0)) == pytest.approx(0.0)

    def test_three_quarters(self):
        # frozen from the direct -sum(p log2 p) evaluation
        assert entropy(dist(0.75, 0.25)) == pytest.approx(0.8112781244591328, abs=1e-12)
        assert entropy(dist(0.75, 0.25)) == pytest.approx(entropy_cells([0.75, 0.25]), abs=1e-12)

    @given(prob_vectors)
    def test_bounds(self, ps):
        d = dist(*ps)
        h = entropy(d)
        assert -1e-9 <= h <= math.log2(len(ps)) + 1e-9

    @given(prob_vectors)
    def test_decomposes_over_self_information(self, ps):
        d = dist(*ps)
        total = sum(
            p * self_information(d, o) for o, p in zip(d.outcomes, d.probs) if p > 0
        )
        assert entropy(d) == pytest.approx(total, abs=1e-9)


class TestMutualInformation:
    def test_independent_product_is_zero(self):
        px = np.array([0.3, 0.7])
        py = np.array([0.2, 0.5, 0.3])
        j = Joint(("a", "b"), ("x", "y", "z"), np.outer(px, py))
        assert mutual_information(j) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_copy_uniform_four(self):
        j = Joint(tuple("abcd"), tuple("abcd"), np.eye(4) / 4)
        assert mutual_information(j) == pytest.approx(2.0)

    def test_binary_three_quarters_keep_channel(self):
        mass = np.array([[0.375, 0.125], [0.125, 0.375]])
        j = Joint(("0", "1"), ("0", "1"), mass)
        oracle = mi_cells({(i, k): mass[i, k] for i in range(2) for k in range(2)})
        assert mutual_information(j) == pytest.approx(oracle, abs=1e-12)
        assert mutual_information(j) == pytest.approx(0.1887218755408672, abs=1e-9)

    @given(mass_matrices)
    @settings(max_examples=60)
    def test_nonnegative_and_bounded_by_marginals(self, mass):
        j = Joint(
            tuple(f"x{i}" for i in range(mass.shape[0])),
            tuple(f"y{i}" for i in range(mass.shape[1])),
            mass,
        )
        mi = mutual_information(j)
        assert mi >= -1e-9
        assert mi <= min(entropy(j.marginal_x()), entropy(j.marginal_y())) + 1e-9

    @given(mass_matrices)
    @settings(max_examples=60)
    def test_symmetric_under_transposition(self, mass):
        j = Joint(
            tuple(f"x{i}" for i in range(mass.shape[0])),
            tuple(f"y{i}" for i in range(mass.shape[1])),
            mass,
        )
        assert mutual_information(j) == pytest.approx(mutual_information(j.transpose()), abs=1e-9)

    def test_marginals_are_valid_dists(self):
        j = Joint(("a", "b"), ("x", "y"), np.array([[0.4, 0.1], [0.2, 0.3]]))
        assert j.marginal_x().probs.sum() == pytest.approx(1.0)
        assert j.marginal_y().probs.sum() == pytest.approx(1.0)

    def test_json_round_trip(self):
        j = Joint(("a", "b"), ("x", "y"), np.array([[0.4, 0.1], [0.2, 0.3]]))
        back = Joint.from_json_dict(json.loads(json.dumps(j.to_json_dict())))
        assert np.array_equal(back.mass, j.mass)


class TestTotalVariation:
    def test_identical(self):
        assert total_variation(dist(0.5, 0.5), dist(0.5, 0.5)) == 0.0

    def test_disjoint_point_masses(self):
        assert total_variation(dist(1.0, 0.0), dist(0.0, 1.0)) == pytest.approx(1.0)

    def test_swapped(self):
        assert total_variation(dist(0.75, 0.25), dist(0.25, 0.75)) == pytest.approx(0.5)

    def test_mismatched_spaces(self):
        with pytest.raises(ValueError, match="outcome spaces differ"):
            total_variation(dist(0.5, 0.5), dist(0.5, 0.5, labels=("p", "q")))

    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(
                *(
                    st.lists(st.floats(0.001, 1.0), min_size=n, max_size=n).map(
                        lambda xs: [x / sum(xs) for x in xs]
                    )
                    for _ in range(3)
                )
            )
        )
    )
    @settings(max_examples=60)
    def test_is_a_metric(self, triple):
        p, q, r = (dist(*ps) for ps in triple)
        assert total_variation(p, p) == 0.0
        assert total_variation(p, q) == pytest.approx(total_variation(q, p))
        assert total_variation(p, r) <= total_variation(p, q) + total_variation(q, r) + 1e-12


class TestStructuralMetricContent:
    def test_five_singletons(self):
        r = Representation(tuple(frozenset([i]) for i in range(5)))
        m = structural_metric_content(r)
        assert (m.logons, m.metrons) == (5, 5)

    def test_one_group_of_eight(self):
        m = structural_metric_content(Representation((frozenset(range(8)),)))
        assert (m.logons, m.metrons) == (1, 8)

    def test_four_equal_groups(self):
        r = Representation(tuple(frozenset([2 * i, 2 * i + 1]) for i in range(4)))
        assert structural_metric_content(r).selective_sh == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one group"):
            Representation(())

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="groups must be non-empty"):
            Representation((frozenset([1]), frozenset()))

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            Representation((frozenset([1, 2]), frozenset([2, 3])))


class TestInfoMeasure:
    @pytest.mark.parametrize("counts", [(-1, 1), (1, -1)])
    def test_negative_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="logons/metrons must be non-negative"):
            InfoMeasure(1.0, *counts)

    @pytest.mark.parametrize("sh", [math.nan, math.inf, -1.0])
    def test_content_must_be_finite_and_non_negative(self, sh):
        with pytest.raises(ValueError, match="selective_sh must be finite and >= 0"):
            InfoMeasure(sh, 1, 1)
