import csv
import dataclasses
import io
import json
import math
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from helpers import naive_linkage, naive_read_table, rr_release_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from infoflow import (
    AnonReport,
    Dist,
    Table,
    check_mi_bound,
    dp_release,
    k_anonymity_level,
    linkage_attack,
    mutual_information,
    post_process,
    push_through,
    randomized_response,
)
from infoflow import anonymity, measures
from infoflow.anonymity import read_table, write_table

LN3 = math.log(3)

QI = "quasi-identifier"


def fixture_release() -> Table:
    with resources.as_file(resources.files("infoflow.data").joinpath("anon_release.csv")) as p:
        return read_table(p)


def fixture_aux() -> Table:
    with resources.as_file(resources.files("infoflow.data").joinpath("anon_aux.csv")) as p:
        return read_table(p)


class TestKAnonymity:
    def test_all_identical_qis(self):
        t = Table((("zip", QI),), tuple(("130",) for _ in range(4)))
        assert k_anonymity_level(t) == 4

    def test_all_distinct_qis(self):
        t = Table((("zip", QI),), tuple((str(i),) for i in range(4)))
        assert k_anonymity_level(t) == 1

    def test_bundled_fixture_is_two_anonymous(self):
        assert k_anonymity_level(fixture_release()) == 2

    def test_empty_table(self):
        with pytest.raises(ValueError, match="^table is empty$"):
            k_anonymity_level(Table((("zip", QI),), ()))

    def test_requires_quasi_identifiers(self):
        t = Table((("diagnosis", "sensitive"),), (("flu",),))
        with pytest.raises(ValueError, match="quasi-identifier"):
            k_anonymity_level(t)

    def test_invariant_under_row_permutation_and_identifier_removal(self):
        t = fixture_release()
        k = k_anonymity_level(t)
        permuted = Table(t.columns, tuple(reversed(t.rows)))
        assert k_anonymity_level(permuted) == k
        with_id = Table(
            ((("name", "identifier"),) + t.columns),
            tuple((f"p{i}",) + row for i, row in enumerate(t.rows)),
        )
        assert k_anonymity_level(with_id) == k


class TestLinkageAttack:
    def test_unique_rows_fully_reidentified(self):
        release = Table(
            (("zip", QI), ("diagnosis", "sensitive")),
            (("1", "flu"), ("2", "cold"), ("3", "cancer")),
        )
        aux = Table((("name", "identifier"), ("zip", QI)), (("a", "1"), ("b", "3")))
        report = linkage_attack(release, aux)
        assert report.reid_rate == 1.0
        assert report.k_achieved == 1

    def test_fixture_homogeneity_attack(self):
        # the targeted class keeps k = 2 yet discloses its sensitive value
        report = linkage_attack(fixture_release(), fixture_aux())
        assert report.k_achieved == 2
        assert report.homogeneity_rate == 1.0
        assert report.reid_rate == 0.0

    def test_disjoint_auxiliary(self):
        aux = Table((("zip", QI), ("age", QI)), (("999", "90-99"),))
        report = linkage_attack(fixture_release(), aux)
        assert report.reid_rate == 0.0
        assert report.homogeneity_rate == 0.0

    def test_requires_shared_quasi_identifiers(self):
        aux = Table((("height", QI),), (("tall",),))
        with pytest.raises(ValueError, match="share no quasi-identifier"):
            linkage_attack(fixture_release(), aux)

    def test_empty_release_refused(self):
        release = Table((("zip", QI), ("diag", "sensitive")), ())
        aux = Table((("zip", QI),), (("1",),))
        with pytest.raises(ValueError, match="empty"):
            linkage_attack(release, aux)

    def test_requires_a_sensitive_column(self):
        # without one, every matched class would count as disclosing a value it does not have
        release = Table((("zip", QI), ("age", QI), ("diag", "identifier")), (("1", "20", "a"), ("1", "20", "b")))
        aux = Table((("zip", QI), ("age", QI)), (("1", "20"),))
        with pytest.raises(ValueError, match="'sensitive'"):
            linkage_attack(release, aux)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_join(self, data):
        # duplicate rows, absent aux keys, a partial shared QI set, several sensitive columns
        cell = st.sampled_from("abc")
        qi = data.draw(st.lists(st.sampled_from(["zip", "age", "sex"]), min_size=1, max_size=3, unique=True))
        sensitive = data.draw(st.lists(st.sampled_from(["diag", "hiv"]), min_size=1, max_size=2, unique=True))
        columns = [(n, QI) for n in qi] + [(n, "sensitive") for n in sensitive] + [("name", "identifier")]
        columns = data.draw(st.permutations(columns))
        rows = data.draw(st.lists(st.tuples(*[cell] * len(columns)), min_size=1, max_size=12))
        aux_qi = data.draw(st.lists(st.sampled_from(qi + ["height"]), min_size=1, max_size=4, unique=True)
                           .filter(lambda names: set(names) & set(qi)))
        aux_columns = [(n, QI) for n in aux_qi] + [("who", "identifier")]
        aux_rows = data.draw(st.lists(st.tuples(*[st.sampled_from("abz")] * len(aux_columns)), max_size=8))
        report = linkage_attack(Table(tuple(columns), tuple(rows)), Table(tuple(aux_columns), tuple(aux_rows)))
        assert report.to_json_dict() == naive_linkage(columns, rows, aux_columns, aux_rows)


    def test_matches_naive_join_when_the_class_keys_overflow_a_radix(self):
        # 8 quasi-identifiers of 300 categories each: 300**8 > 2**63 keys, so the codes are compacted.
        # Two rows 2**64 apart in mixed radix would share one wrapped int64 key without it.
        rng = np.random.default_rng(5)
        codes = rng.permuted(np.tile(np.arange(300), (8, 2)), axis=1).T.tolist()
        codes += [[0] * 8, [2**64 // 300**p % 300 for p in range(7, -1, -1)]]
        base = [tuple(f"v{c:03d}" for c in row) for row in codes]
        qi = [f"q{i}" for i in range(8)]
        columns = [(n, QI) for n in qi] + [("diag", "sensitive")]
        rows = [key + (f"d{int(rng.integers(2))}",) for key in base[:-2] for _ in range(int(rng.integers(1, 4)))]
        rows += [base[-2] + ("d0",), base[-1] + ("d1",)]
        aux_columns = [("who", "identifier")] + [(n, QI) for n in reversed(qi)]
        picks = [*rng.choice(len(base) - 2, size=200, replace=False), len(base) - 2, len(base) - 1]
        aux_rows = [(f"p{i}",) + base[i][::-1] for i in picks] + [("x",) + ("v000",) * 7 + ("absent",)]
        release = Table(tuple(columns), tuple(rows))
        assert math.prod(len(release.coded(n)[0]) for n in qi) == 300**8 > 2**63
        report = linkage_attack(release, Table(tuple(aux_columns), tuple(aux_rows)))
        assert report.to_json_dict() == naive_linkage(columns, rows, aux_columns, aux_rows)
        assert 0 < report.homogeneity_rate < 1 and 0 < report.reid_rate < 1


class TestAnonReport:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ((0, 0.0, 0.0), "k_achieved must be >= 1"),
            ((1, 1.5, 0.0), "homogeneity_rate must be in [0,1], got 1.5"),
            ((1, 0.0, -0.1), "reid_rate must be in [0,1], got -0.1"),
            ((1, 0.0, math.nan), "reid_rate must be in [0,1], got nan"),
        ],
    )
    def test_out_of_range_fields_rejected(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            AnonReport(*fields)


class TestDpRelease:
    def binary_table(self):
        return Table(
            (("zip", QI), ("hiv", "sensitive")),
            (("1", "pos"), ("1", "neg"), ("2", "neg"), ("2", "neg")),
        )

    def test_binary_column_bound_is_log2_3(self):
        _, cert = dp_release(self.binary_table(), "hiv", LN3)
        assert cert.bound_sh == pytest.approx(math.log2(3), abs=1e-9)
        assert cert.holds and not cert.unbounded

    def test_vanishing_eps_releases_nothing(self):
        _, cert = dp_release(self.binary_table(), "hiv", 1e-9)
        assert cert.mi_sh == pytest.approx(0.0, abs=1e-9)

    def test_identity_release_is_unbounded(self):
        released, cert = dp_release(self.binary_table(), "hiv", None)
        assert cert.unbounded
        assert released.rows == self.binary_table().rows

    def test_released_values_stay_in_domain(self):
        released, _ = dp_release(fixture_release(), "diagnosis", 0.5, seed=3)
        domain = set(fixture_release().column("diagnosis"))
        assert set(released.column("diagnosis")) <= domain
        assert released.column_names() == fixture_release().column_names()

    def test_input_table_is_left_unchanged(self):
        t = fixture_release()
        rows, codes = t.rows, t.coded("diagnosis")[1].copy()
        released, _ = dp_release(t, "diagnosis", 0.3, seed=2)
        assert released.rows != rows
        assert t.rows == rows == fixture_release().rows
        assert np.array_equal(t.coded("diagnosis")[1], codes)

    def test_deterministic_under_seed(self):
        a, _ = dp_release(fixture_release(), "diagnosis", 0.7, seed=11)
        b, _ = dp_release(fixture_release(), "diagnosis", 0.7, seed=11)
        assert a.rows == b.rows

    @pytest.mark.parametrize("k", [2, 3, 5, 9])
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2**31 - 1])
    def test_matches_per_row_choice(self, k, seed):
        values = [f"c{(7 * i + 3) % k}" for i in range(300)]
        self.assert_matches_oracle(values, 0.8, seed)

    @pytest.mark.parametrize("eps", [1e-6, 30.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_row_choice_at_extreme_eps(self, eps, seed):
        self.assert_matches_oracle([f"c{i % 4}" for i in range(200)], eps, seed)

    def test_matches_per_row_choice_in_first_appearance_order(self):
        # categories first appear out of sorted order; "mid" holds a single row
        values = ["zeta", "alpha", "zeta", "mid", "beta", "alpha"] + ["zeta", "beta"] * 40
        for seed in range(5):
            self.assert_matches_oracle(values, 1.3, seed)

    def test_identity_release_matches_identity_oracle(self):
        values = ["b", "a", "c", "a", "b", "b"]
        released, _ = dp_release(self.column_table(values), "s", None, seed=3)
        assert released.column("s") == rr_release_oracle(values, np.eye(3), 3) == values

    def column_table(self, values):
        return Table((("zip", QI), ("s", "sensitive"), ("z2", QI)), tuple((str(i), v, "x") for i, v in enumerate(values)))

    def assert_matches_oracle(self, values, eps, seed):
        t = self.column_table(values)
        released, _ = dp_release(t, "s", eps, seed=seed)
        rows = randomized_response(len(set(values)), eps).rows
        assert released.column("s") == rr_release_oracle(values, rows, seed)
        assert [released.column(n) for n in ("zip", "z2")] == [t.column(n) for n in ("zip", "z2")]

    def test_rejects_single_category(self):
        t = Table((("zip", QI), ("s", "sensitive")), (("1", "x"), ("2", "x")))
        with pytest.raises(ValueError, match="categories"):
            dp_release(t, "s", 1.0)

    def test_rejects_unknown_column(self):
        with pytest.raises(ValueError, match="unknown column"):
            dp_release(fixture_release(), "nope", 1.0)

    def test_post_processing_never_beats_certificate(self):
        # merging released categories can never push information past the cap
        t = fixture_release()
        values = t.column("diagnosis")
        categories = tuple(sorted(set(values)))
        chan = randomized_response(len(categories), LN3, outcomes=categories)
        counts = np.array([values.count(c) for c in categories], dtype=np.float64)
        prior = Dist(categories, counts / counts.sum())
        cert = check_mi_bound(chan, prior)
        rng = np.random.default_rng(7)
        for _ in range(50):
            targets = rng.integers(0, len(categories), size=len(categories))
            merged = post_process(chan, lambda y: f"g{targets[categories.index(y)]}")
            assert mutual_information(push_through(prior, merged)) <= cert.bound_sh + 1e-9


class TestTableIo:
    def test_round_trip(self, tmp_path):
        t = fixture_release()
        write_table(t, tmp_path / "t.csv")
        back = read_table(tmp_path / "t.csv")
        assert back.columns == t.columns
        assert back.rows == t.rows

    def test_a_sidecar_that_cannot_be_written_leaves_no_csv(self, tmp_path):
        (tmp_path / "t.csv.roles.json").mkdir()
        with pytest.raises(OSError):
            write_table(fixture_release(), tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()

    def test_missing_role_rejected(self, tmp_path):
        (tmp_path / "t.csv").write_text("a,b\n1,2\n", encoding="utf-8")
        (tmp_path / "t.csv.roles.json").write_text('{"roles": {"a": "quasi-identifier"}}', encoding="utf-8")
        with pytest.raises(ValueError, match="missing roles"):
            read_table(tmp_path / "t.csv")

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="unknown column role"):
            Table((("a", "mystery"),), (("1",),))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            Table((("a", QI), ("b", QI)), (("1",),))

    def test_ragged_row_named_by_index(self):
        with pytest.raises(ValueError, match=re.escape("row 2 has 3 cells, expected 2")):
            Table((("a", QI), ("b", QI)), (("1", "2"), ("3", "4"), ("5", "6", "7"), ("8",)))

    def test_unhashable_cell_rejected_by_type(self):
        with pytest.raises(ValueError, match="^table cells must be strings, found list$"):
            Table((("a", QI), ("b", QI)), (("1", "2"), ("3", ["4"])))

    def test_integer_cell_rejected(self):
        with pytest.raises(ValueError, match="table cells must be strings, found int"):
            Table((("a", QI), ("b", QI)), (("1", "2"), ("3", 5)))

    @pytest.mark.parametrize("column", [(5, QI), ("a", 5)])
    def test_non_string_column_name_or_role_rejected(self, column):
        with pytest.raises(ValueError, match="column names and roles must be strings"):
            Table((column,), (("1",),))


ROLES = ["identifier", QI, "sensitive"]


def _read_both(path):
    """``(table, message)`` of ``read_table`` and of ``naive_read_table`` on ``path``: one of each pair is None."""
    out = []
    for read in (read_table, naive_read_table):
        try:
            t = read(path)
            out.append(((t.columns, t.cells, t.height), None))
        except ValueError as exc:
            out.append((None, str(exc)))
    return out


def _save(path, text: str, roles: dict) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    Path(str(path) + ".roles.json").write_text(json.dumps({"roles": roles}), encoding="utf-8")


class TestReadMatchesCsvReader:
    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_any_text_reads_as_csv_reader_reads_it(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("read") / "t.csv"
        names = ["a", "é", "a a"][:data.draw(st.integers(1, 3))]
        roles = {n: data.draw(st.sampled_from(ROLES)) for n in names}
        cell = st.text(alphabet=["a", "é", " ", ",", '"', "\r", "\n", "\0", "\ufeff"], max_size=8)
        header = ",".join(names) if data.draw(st.booleans()) else data.draw(cell)
        lines = data.draw(st.lists(cell, max_size=6))
        text = "\n".join([header, *lines]) + data.draw(st.sampled_from(["", "\n", "\r\n"]))
        _save(path, text, roles)
        new, old = _read_both(path)
        assert new == old

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_plain_tables_read_as_csv_reader_reads_them(self, data, tmp_path_factory):
        # rows as csv.writer writes them, most with no quote at all
        path = tmp_path_factory.mktemp("plain") / "t.csv"
        width = data.draw(st.integers(1, 3))
        names = [f"c{i}" for i in range(width)]
        cell = st.text(alphabet=["a", "é", " ", ",", '"'], max_size=3) if data.draw(st.booleans()) \
            else st.text(alphabet=["a", "é", " "], max_size=3)
        rows = data.draw(st.lists(st.tuples(*[cell] * width), max_size=8))
        buf = io.StringIO(newline="")
        csv.writer(buf, lineterminator=data.draw(st.sampled_from(["\n", "\r\n", "\r"]))).writerows([names, *rows])
        _save(path, buf.getvalue(), dict(zip(names, ROLES)))
        new, old = _read_both(path)
        assert new == old and old[0] is not None

    def test_crlf_file_equals_its_lf_twin(self, tmp_path):
        text = "zip,age,diagnosis\n13053,20-29,flu\n13068,30-39,cold\n"
        _save(tmp_path / "lf.csv", text, dict(zip(["zip", "age", "diagnosis"], [QI, QI, "sensitive"])))
        _save(tmp_path / "crlf.csv", text.replace("\n", "\r\n"), dict(zip(["zip", "age", "diagnosis"], [QI, QI, "sensitive"])))
        assert read_table(tmp_path / "crlf.csv") == read_table(tmp_path / "lf.csv")
        assert read_table(tmp_path / "lf.csv").cells == (("13053", "13068"), ("20-29", "30-39"), ("flu", "cold"))

    @pytest.mark.parametrize("text", ["zip,diag\n1,flu\n2,\ufeffcold\n", 'zip,diag\n1,"flu, cold"\n2,\ufeffcold\n'])
    def test_a_file_opening_with_a_byte_order_mark_reads_as_its_twin(self, text, tmp_path):
        # a spreadsheet's UTF-8 CSV opens with one; the first text is split by column, the second read by csv.reader
        roles = {"zip": QI, "diag": "sensitive"}
        _save(tmp_path / "twin.csv", text, roles)
        _save(tmp_path / "bom.csv", "\ufeff" + text, roles)
        t = read_table(tmp_path / "bom.csv")
        assert t == read_table(tmp_path / "twin.csv") and t.column_names() == ["zip", "diag"]
        assert t.cells[1][1] == "\ufeffcold"  # a mark after the start is the cell's

    def test_single_column_file_with_an_empty_line(self, tmp_path):
        # csv.reader reads the empty line as a row of no cell
        _save(tmp_path / "t.csv", "diag\nflu\n\ncold\n", {"diag": "sensitive"})
        new, old = _read_both(tmp_path / "t.csv")
        assert new == old == (None, f"{tmp_path / 't.csv'}: row 1 has 0 cells, expected 1")

    def test_field_beyond_the_csv_field_limit_is_refused_as_csv_reader_refuses_it(self, tmp_path):
        _save(tmp_path / "t.csv", "a,b\n1,123456\n", {"a": QI, "b": "sensitive"})
        limit = csv.field_size_limit(5)
        try:
            new, old = _read_both(tmp_path / "t.csv")
        finally:
            csv.field_size_limit(limit)
        assert new == old == (None, f"{tmp_path / 't.csv'}: malformed input (Error: field larger than field limit (5))")

    def test_generated_100k_row_table(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 100_000
        zips, ages, diag = rng.integers(0, 40, n), rng.integers(0, 8, n), rng.integers(0, 6, n)
        text = "zip,age,diagnosis\n" + "".join(f"1{z:04d},{10 * a}-{10 * a + 9},d{d}\n"
                                                 for z, a, d in zip(zips.tolist(), ages.tolist(), diag.tolist()))
        _save(tmp_path / "t.csv", text, {"zip": QI, "age": QI, "diagnosis": "sensitive"})
        new, old = _read_both(tmp_path / "t.csv")
        assert new == old and old[0][2] == n

    def test_plain_text_is_split_without_csv_reader(self, tmp_path, monkeypatch):
        _save(tmp_path / "t.csv", "a,b\r\n1,2\r\n3,4", {"a": QI, "b": "sensitive"})

        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader read quote-free text")

        monkeypatch.setattr(anonymity.csv, "reader", refuse)
        assert read_table(tmp_path / "t.csv").cells == (("1", "3"), ("2", "4"))


def _csv_writer_bytes(t: Table) -> bytes:
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator="\n").writerows([t.column_names(), *t.rows])
    return buf.getvalue().encode()


def _written(t: Table, tmp_path) -> bytes:
    write_table(t, tmp_path / "w.csv")
    return (tmp_path / "w.csv").read_bytes()


CELLS = ["a", " ", ",", '"', "\r", "\n", "\0"]  # with the empty cell, st.text's shortest draw


class TestWriteMatchesCsvWriter:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_tables_with_no_carriage_return_are_written_as_csv_writer_writes_them(self, data, tmp_path_factory):
        width = data.draw(st.integers(0, 3))
        cell = st.text(alphabet=[c for c in CELLS if c != "\r"], max_size=3)
        rows = data.draw(st.lists(st.tuples(*[cell] * width), max_size=8))
        t = Table(tuple((f"c{i}", QI) for i in range(width)), rows)
        assert _written(t, tmp_path_factory.mktemp("write")) == _csv_writer_bytes(t)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_tables_read_back(self, data, tmp_path_factory):
        # half the tables have quote-free text, which read_table splits without csv.reader
        width = data.draw(st.integers(0, 3))
        cell = st.text(alphabet=data.draw(st.sampled_from([["a", " "], CELLS])), max_size=3)
        rows = data.draw(st.lists(st.tuples(*[cell] * width), max_size=8))
        t = Table(tuple((f"c{i}", ROLES[i]) for i in range(width)), rows)
        path = tmp_path_factory.mktemp("back") / "t.csv"
        write_table(t, path)
        assert _read_both(path) == [((t.columns, t.cells, t.height), None)] * 2

    def test_a_row_with_a_carriage_return_has_every_cell_quoted(self, tmp_path):
        t = Table((("a", QI), ("b", "sensitive")), [("c\rd", "x"), ("e", "y")])
        assert _written(t, tmp_path) == b'a,b\n"c\rd","x"\ne,y\n'
        assert read_table(tmp_path / "w.csv") == t

    def test_one_column_tables_with_empty_cells(self, tmp_path):
        for name in ["diag", ""]:
            for cells in [(), ("",), ("a", ""), ("", "", "b"), ("a", "b")]:
                t = Table(((name, "sensitive"),), [(c,) for c in cells])
                assert _written(t, tmp_path) == _csv_writer_bytes(t)

    def test_a_quoted_row_in_the_second_chunk(self, tmp_path):
        n = 3 * measures._CHUNK_ROWS
        rows = [(str(i), "flu") for i in range(n)]
        rows[measures._CHUNK_ROWS + 5] = ("x", 'say "hi", then')
        t = Table((("id", "identifier"), ("diag", "sensitive")), rows)
        written = _written(t, tmp_path)
        assert written == _csv_writer_bytes(t)
        assert b'x,"say ""hi"", then"\n' in written


class TestColumnarTable:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_views_round_trip_the_rows(self, data):
        width = data.draw(st.integers(0, 4))
        names = [f"c{i}" for i in range(width)]
        columns = tuple((n, data.draw(st.sampled_from(["identifier", QI, "sensitive"]))) for n in names)
        rows = data.draw(st.lists(st.tuples(*[st.text(max_size=3)] * width), max_size=10))
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []  # duplicate rows
        t = Table(columns, iter(rows))
        assert t.height == len(rows)
        assert t.rows == tuple(rows)
        assert t.cells == tuple(tuple(row[i] for row in rows) for i in range(width))
        for i, name in enumerate(names):
            column = [row[i] for row in rows]
            assert t.column(name) == column
            categories, codes = t.coded(name)
            assert categories == tuple(sorted(set(column)))
            assert [categories[c] for c in codes] == column
            assert codes.dtype == np.intp and not codes.flags.writeable
            assert t.coded(name)[1] is codes  # computed once

    def test_table_is_immutable(self):
        t = fixture_release()
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.cells = ()
        with pytest.raises(ValueError, match="read-only"):
            t.coded("zip")[1][0] = 1
        assert t == fixture_release() and hash(t) == hash(fixture_release())

    def test_zero_column_table_keeps_its_row_count(self):
        t = Table((), [(), (), ()])
        assert t.height == 3
        assert t.rows == ((), (), ())
        assert t.cells == ()

    def test_empty_table_stays_empty(self):
        t = Table((("a", QI), ("b", "sensitive")), [])
        assert (t.height, t.rows, t.column("a"), t.cells) == (0, (), [], ((), ()))
        assert t.coded("b")[0] == () and t.coded("b")[1].shape == (0,)
