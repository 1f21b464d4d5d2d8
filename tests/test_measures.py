import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoflow import CapacityError, Dist, InfoMeasure, Joint, entropy, measures, mutual_information
from infoflow.causal import Node
from infoflow.channels import Channel, randomized_response
from infoflow.measures import (
    _at_least, _check_size, _distinct, _has_bool, _known, _nonneg, _number, _stochastic, _unit, read_file, write_csv,
    write_text,
)
from helpers import entropy_cells, has_bool_recursive, mi_cells, write_csv_rows


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


def random_nested(rng, depth=0):
    """A random nesting of lists and tuples whose leaves are numbers, booleans, ndarrays, strings or None."""
    if depth < 6 and rng.random() < 0.45:
        items = [random_nested(rng, depth + 1) for _ in range(int(rng.integers(0, 4)))]
        return items if rng.random() < 0.5 else tuple(items)
    leaves = (
        lambda: float(rng.random()), lambda: int(rng.integers(3)), lambda: True, lambda: False, lambda: np.True_,
        lambda: np.bool_(False), lambda: np.array([True, False]), lambda: np.zeros(2), lambda: "1", lambda: None,
    )
    # booleans are rare leaves, so most values hold none and the scan must open every level to say so
    weights = np.array([8, 8, 1, 1, 1, 1, 2, 2, 2, 2], dtype=float)
    return leaves[rng.choice(len(leaves), p=weights / weights.sum())]()


def test_has_bool_equals_the_recursive_scan():
    rng = np.random.default_rng(41)
    found = 0
    for _ in range(3000):
        values = random_nested(rng)
        found += has_bool_recursive(values)
        assert _has_bool(values) == has_bool_recursive(values)
    assert 300 < found < 2700
    for values in ([], [[]], [[], [[[True]]]], [[0.5] * 3] * 2 + [[0.5, 0.5, np.False_]], "True", np.array([True])):
        assert _has_bool(values) == has_bool_recursive(values)


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


@pytest.mark.parametrize(
    "build, what",
    [
        (lambda: Dist("ab", [0.5, 0.5]), "outcomes"),
        (lambda: Joint(("a",), "xy", [[0.5, 0.5]]), "y outcomes"),
        (lambda: Channel("ab", ("x",), [[1.0], [1.0]]), "inputs"),
        (lambda: randomized_response(2, 1.0, outcomes="ab"), "inputs"),
        (lambda: Node("R", "01", (), [0.5, 0.5]), "states of R"),
        (lambda: Node("C", ("0", "1"), "A", [[0.5, 0.5], [0.5, 0.5]]), "parents of 'C'"),
    ],
    ids=["Dist", "Joint", "Channel", "randomized_response", "Node-states", "Node-parents"],
)
def test_a_string_is_refused_where_a_list_belongs(build, what):
    with pytest.raises(ValueError, match=f"^{what} must be a list, got the string "):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Channel(("a", "b"), ("x", "y"), [[0.5, 0.4], [0.5, 0.5]]), "channel rows [0] are not stochastic"),
        (lambda: Channel(("a", "b"), ("x", "y"), [[2.0, 0.0], [0.5, 0.5]]), "channel has an entry above 1"),
        (lambda: Channel(("a",), ("x", "y"), [[0.5, 0.5], [0.5, 0.5]]), "channel has shape (2, 2), expected (1, 2)"),
        (lambda: Node("C", ("0", "1"), ("A",), [[0.5, 0.5], [0.3, 0.3]]), "cpt of 'C' rows [1] are not stochastic"),
        (lambda: Dist(("a", "b"), [0.5, 0.4]), "probs sums to 0.9, not 1"),
        (lambda: Dist(("a", "b"), np.array([1.5, -0.5])), "probs has a negative or NaN entry"),
        (lambda: Joint(("a", "b"), ("x",), [[0.5], [0.25]]), "mass sums to 0.75, not 1"),
    ],
)
def test_table_refusals_word_for_word(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


def test_an_ndarray_near_the_float_maximum_is_refused_before_its_sum_overflows():
    # an overflowing sum would warn, and the suite turns a warning into a failure
    with pytest.raises(ValueError, match="^channel has an entry above 1$"):
        Channel(("a", "b"), ("x", "y"), np.array([[1e308, 1e308], [0.5, 0.5]]))


class TestStack:
    """A stack of tables is checked in one pass and refused in the words its first bad table gets alone."""

    @staticmethod
    def rows(shape, seed=0):
        draws = np.random.default_rng(seed).random(shape) + 0.1
        return draws / draws.sum(axis=-1, keepdims=True)

    def refusal(self, *args, **kwargs):
        with pytest.raises(ValueError) as refused:
            _stochastic(*args, **kwargs)
        return str(refused.value)

    def test_an_accepted_stack_is_a_frozen_copy(self):
        stack = self.rows((6, 3, 4))
        checked = _stochastic(stack, (3, 4), "channel", rows=True, stacked=True)
        assert np.array_equal(checked, stack) and checked is not stack
        assert not checked.flags.writeable and not checked[2].flags.writeable

    @pytest.mark.parametrize("spoil", ["halve", "nan", "negative"])
    @pytest.mark.parametrize("case, row", [(0, 0), (3, 2), (5, 1)])
    def test_one_bad_row_of_one_table(self, spoil, case, row):
        stack = self.rows((6, 3, 4), seed=case)
        stack[case, row] *= 0.5
        if spoil != "halve":
            stack[case, row, 1] = np.nan if spoil == "nan" else -0.1
        message = self.refusal(stack, (3, 4), "channel", rows=True, stacked=True)
        assert message == self.refusal(stack[case], (3, 4), "channel", rows=True)

    def test_the_first_bad_table_is_named(self):
        stack = self.rows((6, 3, 4))
        stack[2, 1] *= 0.5
        stack[4] *= 0.5
        message = self.refusal(stack, (3, 4), "channel", rows=True, stacked=True)
        assert message == "channel rows [1] are not stochastic"

    @pytest.mark.parametrize("case", [0, 4])
    def test_one_bad_table_of_a_stack_of_distributions(self, case):
        stack = self.rows((5, 3), seed=case)
        stack[case] *= 0.75
        message = self.refusal(stack, (3,), "probs", stacked=True)
        assert message == self.refusal(stack[case], (3,), "probs") == f"probs sums to {stack[case].sum()}, not 1"

    def test_tables_of_the_wrong_shape(self):
        assert self.refusal(self.rows((4, 3)), (2,), "probs", stacked=True) == "probs has shape (3,), expected (2,)"


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

    def test_uniform_over_no_outcomes_is_refused_as_the_constructor_refuses_it(self):
        for build in (lambda: Dist.uniform(()), lambda: Dist((), [])):
            with pytest.raises(ValueError) as refused:
                build()
            assert str(refused.value) == "outcomes must be non-empty"

    def test_immutable(self):
        d = dist(0.5, 0.5)
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    def test_from_json_document(self):
        d = Dist.from_json_dict(json.loads('{"outcomes": ["yes", "no"], "probs": [0.75, 0.25]}'))
        assert d.outcomes == ("yes", "no")
        assert np.array_equal(d.probs, [0.75, 0.25])


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
        total = sum(p * -math.log2(p) for p in d.probs if p > 0)
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
        assert mi <= min(entropy_cells(mass.sum(axis=1)), entropy_cells(mass.sum(axis=0))) + 1e-9

    @given(mass_matrices)
    @settings(max_examples=60)
    def test_symmetric_under_transposition(self, mass):
        j = Joint(
            tuple(f"x{i}" for i in range(mass.shape[0])),
            tuple(f"y{i}" for i in range(mass.shape[1])),
            mass,
        )
        transposed = Joint(j.y_outcomes, j.x_outcomes, j.mass.T)
        assert mutual_information(j) == pytest.approx(mutual_information(transposed), abs=1e-9)


class TestInfoMeasure:
    @pytest.mark.parametrize("counts", [(-1, 1), (1, -1)])
    def test_negative_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="logons/metrons must be non-negative"):
            InfoMeasure(1.0, *counts)

    @pytest.mark.parametrize("sh", [math.nan, math.inf, -1.0])
    def test_content_must_be_finite_and_non_negative(self, sh):
        with pytest.raises(ValueError, match="selective_sh must be finite and >= 0"):
            InfoMeasure(sh, 1, 1)


# Each refusal rule of the package is stated once, in measures; these hold each at its boundary.


@pytest.mark.parametrize("cap", [1, 2**22])
def test_size_rule_refuses_only_above_the_cap(cap):
    _check_size(cap, cap, "the table")
    with pytest.raises(CapacityError, match=f"^the table, exceeding the cap of {cap}$"):
        _check_size(cap + 1, cap, "the table")


@pytest.mark.parametrize("n", [0, 1, 2])
def test_minimum_rule_refuses_only_below_the_minimum(n):
    _at_least(n, n, "k")
    with pytest.raises(ValueError, match=f"^k must be >= {n}, got {n - 1}$"):
        _at_least(n - 1, n, "k")
    with pytest.raises(ValueError, match=f"^k must be >= {n}, got nan$"):
        _at_least(math.nan, n, "k")


@pytest.mark.parametrize(("value", "ok"), [(0.0, True), (1.0, True), (0, True), (1 + 1e-12, False),
                                           (-1e-12, False), (math.nan, False)])
def test_unit_rule_refuses_outside_zero_to_one(value, ok):
    if ok:
        _unit(value, "p")
    else:
        with pytest.raises(ValueError, match="^" + re.escape(f"p must be in [0,1], got {value}") + "$"):
            _unit(value, "p")


@pytest.mark.parametrize(("rule", "value", "message"), [(_nonneg, -1.0, "must be finite and >= 0, got -1.0"),
                                                     (_unit, 1.5, "must be in [0,1], got 1.5"),
                                                     (_number, "0.9", "must be a number, got '0.9'")])
def test_a_key_is_written_after_what_in_a_refusal(rule, value, message):
    with pytest.raises(ValueError, match="^" + re.escape(f"trust('a', 'b') {message}") + "$"):
        rule(value, "trust", ("a", "b"))
    with pytest.raises(ValueError, match="^" + re.escape(f"trust {message}") + "$"):
        rule(value, "trust")


@pytest.mark.parametrize(("items", "first"), [(["a", "b", "b", "a"], "'b'"), (["a", "b", "a", "b"], "'a'"),
                                              ([("s", "o"), ("s", "o")], "('s', 'o')")])
def test_uniqueness_rule_names_the_first_repeat(items, first):
    _distinct(list(dict.fromkeys(items)), "ids")
    with pytest.raises(ValueError, match=f"^duplicate ids: {re.escape(first)}$"):
        _distinct(items, "ids")


@pytest.mark.parametrize("known", [("conjunct", "delegated"), {"conjunct": 0, "delegated": 1}, {"conjunct"}])
def test_membership_rule_returns_a_known_value_and_names_an_unknown_one(known):
    assert _known("conjunct", known, "governance tag") == "conjunct"
    with pytest.raises(ValueError, match=r"^unknown governance tag 'owned'$"):
        _known("owned", known, "governance tag")
    with pytest.raises(ValueError, match=r"^unknown owner of node 'S2' 'ghost'$"):
        _known("ghost", known, "owner of node ", "S2")


PLAIN_CELLS = st.text(alphabet=["a", " "], max_size=2)  # cells of a chunk that write_csv joins
ANY_CELLS = st.one_of(
    st.text(alphabet=["a", " ", ",", '"', "\r", "\n", "\0", "\ufeff"], max_size=3),
    st.integers(-2, 2), st.floats(width=16), st.none(), st.booleans(),
)


def _csv_text(write, rows) -> str:
    buf = io.StringIO(newline="")
    write(rows, buf)
    return buf.getvalue()


class TestWriteCsv:
    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_any_rows_are_written_as_the_csv_module_writes_them_row_by_row(self, data):
        # ragged rows of 0 to 3 cells, in chunks small enough that a draw crosses several chunk edges
        cell = data.draw(st.sampled_from([PLAIN_CELLS, ANY_CELLS]))
        rows = data.draw(st.lists(st.lists(cell, max_size=3) | st.tuples(cell, cell), max_size=12))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_CHUNK_ROWS", data.draw(st.integers(1, 5)))
            written = _csv_text(write_csv, iter(rows))
        assert written == _csv_text(write_csv_rows, rows)

    @pytest.mark.parametrize("rows, text", [
        ([["a", "b"], ["c,d"]], 'a,b\n"c,d"\n'),  # a short row's missing comma is in a cell
        ([["a", "b\nc"], ["d"], ["e", "f"]], 'a,"b\nc"\nd\ne,f\n'),
        ([[], ["a"], []], "\na\n\n"),
        ([["a"], [""], ["b"]], 'a\n""\nb\n'),
        ([["a", ""], ["", "b"]], "a,\n,b\n"),
        ([["x\r", "y"], ["z", "w"]], '"x\r","y"\nz,w\n'),
        ([["k", 1, None, 2.5, True]], "k,1,,2.5,True\n"),
        ([["a\0", "b"]], "a\0,b\n"),
    ])
    def test_rows_whose_join_is_not_the_writers_text(self, rows, text):
        assert _csv_text(write_csv, rows) == _csv_text(write_csv_rows, rows) == text

    def test_string_cells_the_writer_leaves_as_they_are_are_joined(self, monkeypatch):
        class Refuse:
            def writerow(self, row):
                raise AssertionError(f"the csv module wrote {row!r}")

        monkeypatch.setattr(measures.csv, "writer", lambda *args, **kwargs: Refuse())
        rows = [["id", "diag"], *([str(i), "flu"] for i in range(2 * measures._CHUNK_ROWS + 1)), ["x"], ["y", "", "z"]]
        assert _csv_text(write_csv, rows) == "".join(",".join(row) + "\n" for row in rows)


class TestWriteText:
    def test_a_stream_with_no_bytes_beneath_takes_the_text(self):
        buf = io.StringIO()
        write_text(buf, "é \udcc3\n")
        assert buf.getvalue() == "é \udcc3\n"

    def test_the_bytes_are_utf8_after_the_text_the_stream_holds(self):
        # an ASCII text layer, as sys.stderr in the C locale; an undecodable argv byte comes back as that byte
        raw = io.BytesIO()
        stream = io.TextIOWrapper(raw, encoding="ascii")
        stream.write("first\n")
        write_text(stream, "nö \udcc3\udcb6\n")
        stream.write("last\n")
        stream.flush()
        assert raw.getvalue() == b"first\nn\xc3\xb6 \xc3\xb6\nlast\n"


class TestReadFile:
    @pytest.mark.parametrize("text", ["a,b\r\n1,2\n", '{"k": ["\ufeff"]}', ""])
    def test_a_byte_order_mark_at_the_start_is_not_text(self, text, tmp_path):
        (tmp_path / "twin").write_bytes(text.encode())
        (tmp_path / "bom").write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert read_file(tmp_path / "bom") == read_file(tmp_path / "twin") == text

    def test_a_mark_after_the_start_stays(self, tmp_path):
        (tmp_path / "f").write_bytes("a\ufeff,\ufeffb\n\ufeff".encode())
        (tmp_path / "twice").write_bytes("\ufeff\ufeffa".encode())
        assert read_file(tmp_path / "f") == "a\ufeff,\ufeffb\n\ufeff"
        assert read_file(tmp_path / "twice") == "\ufeffa"
