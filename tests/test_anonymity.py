import math
import re
from importlib import resources

import numpy as np
import pytest
from helpers import naive_linkage, rr_release_oracle
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
        with pytest.raises(ValueError, match="empty"):
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
        released, _ = dp_release(self.column_table(values), "s", eps, seed=seed)
        rows = randomized_response(len(set(values)), eps).rows
        assert released.column("s") == rr_release_oracle(values, rows, seed)
        assert released.project(["zip", "z2"]) == self.column_table(values).project(["zip", "z2"])

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

    def test_missing_role_rejected(self, tmp_path):
        (tmp_path / "t.csv").write_text("a,b\n1,2\n")
        (tmp_path / "t.csv.roles.json").write_text('{"roles": {"a": "quasi-identifier"}}')
        with pytest.raises(ValueError, match="missing roles"):
            read_table(tmp_path / "t.csv")

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="unknown column role"):
            Table((("a", "mystery"),), (("1",),))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            Table((("a", QI), ("b", QI)), (("1",),))
