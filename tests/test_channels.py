import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoflow import (
    CapacityError,
    Channel,
    Dist,
    bound_sweep,
    check_mi_bound,
    compose,
    dp_to_mi_bound,
    mi_without_dp_example,
    mutual_information,
    post_process,
    push_through,
    random_channel,
    random_prior,
    randomized_response,
    realized_epsilon,
)
from infoflow import channels
from infoflow.channels import EPS_MAX, SWEEP_CASE_CAP, _case_states
from infoflow.measures import STATE_SPACE_CAP
from helpers import dirichlet_sweep, joint_cells, mi_cells

LN3 = math.log(3)


def constant_channel(n_in=2, n_out=2, inputs=None):
    rows = np.full((n_in, n_out), 1.0 / n_out)
    inputs = inputs or tuple(str(i) for i in range(n_in))
    return Channel(inputs, tuple(f"y{j}" for j in range(n_out)), rows)


def identity_channel(n=2):
    return Channel(tuple(str(i) for i in range(n)), tuple(str(i) for i in range(n)), np.eye(n))


def brute_force_mi(channel: Channel, prior: Dist) -> float:
    return mi_cells(joint_cells(list(prior.probs), [list(r) for r in channel.rows]))


class TestRandomizedResponse:
    def test_binary_ln3(self):
        c = randomized_response(2, LN3)
        assert c.rows[0, 0] == pytest.approx(0.75, abs=1e-12)
        assert c.rows[0, 1] == pytest.approx(0.25, abs=1e-12)

    def test_vanishing_eps_is_symmetric(self):
        c = randomized_response(2, 1e-9)
        assert c.rows[0, 0] == pytest.approx(0.5, abs=1e-9)
        assert c.rows[0, 1] == pytest.approx(0.5, abs=1e-9)

    def test_four_ary_ln3(self):
        c = randomized_response(4, LN3)
        assert c.rows[2, 2] == pytest.approx(0.5, abs=1e-12)
        assert c.rows[2, 0] == pytest.approx(1 / 6, abs=1e-12)

    def test_rows_stochastic(self):
        c = randomized_response(5, 0.3)
        assert np.allclose(c.rows.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("k,eps", [(1, 1.0), (0, 1.0), (2, 0.0), (2, -1.0), (2, math.inf)])
    def test_rejects_bad_parameters(self, k, eps):
        with pytest.raises(ValueError):
            randomized_response(k, eps)

    def test_rejects_wrong_number_of_labels(self):
        with pytest.raises(ValueError, match="expected 3 outcome labels, got 2"):
            randomized_response(3, 1.0, outcomes=("a", "b"))

    def test_refuses_labels_that_are_not_strings(self):
        with pytest.raises(ValueError, match="inputs must be strings, got 0"):
            randomized_response(2, 1.0, outcomes=(0, 1))

    def test_eps_up_to_the_float_limit_is_built(self):
        c = randomized_response(3, EPS_MAX)
        e = math.exp(EPS_MAX)
        assert c.rows[0, 0] == e / (e + 2) and c.rows[0, 1] == 1.0 / (e + 2)

    @pytest.mark.parametrize("eps", [math.nextafter(EPS_MAX, math.inf), 710.0, 1e308])
    def test_eps_beyond_the_float_limit_is_refused(self, eps):
        with pytest.raises(ValueError, match="^" + re.escape(f"eps {eps} exceeds {EPS_MAX}, the largest eps")):
            randomized_response(2, eps)

    def test_k_beyond_the_cell_cap_is_refused(self):
        k = math.isqrt(STATE_SPACE_CAP) + 1
        with pytest.raises(CapacityError, match=f"k={k} has {k * k} cells, exceeding the cap of {STATE_SPACE_CAP}$"):
            randomized_response(k, 1.0)

    def test_realized_eps_matches_request(self):
        for k, eps in [(2, LN3), (3, 0.7), (6, 2.1)]:
            rep = realized_epsilon(randomized_response(k, eps))
            assert rep.eps == pytest.approx(eps, abs=1e-9)


class TestRealizedEpsilon:
    def test_rr_binary(self):
        rep = realized_epsilon(randomized_response(2, LN3))
        assert rep.eps == pytest.approx(1.0986122886681098, abs=1e-9)
        assert not rep.unbounded

    def test_identity_unbounded(self):
        rep = realized_epsilon(identity_channel())
        assert rep.unbounded
        assert math.isinf(rep.eps)

    def test_constant_is_zero(self):
        assert realized_epsilon(constant_channel()).eps == 0.0

    def test_witness_reproduces_eps(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            c = random_channel(int(rng.integers(2, 7)), int(rng.integers(2, 7)), rng)
            rep = realized_epsilon(c)
            x = c.input_outcomes.index(rep.witness[0])
            xp = c.input_outcomes.index(rep.witness[1])
            y = c.output_outcomes.index(rep.witness[2])
            assert rep.eps == pytest.approx(math.log(c.rows[x, y] / c.rows[xp, y]), abs=1e-9)


class TestCheckMiBound:
    def test_rr_binary_uniform(self):
        c = randomized_response(2, LN3)
        prior = Dist.uniform(c.input_outcomes)
        cert = check_mi_bound(c, prior)
        # brute-force joint oracle over the 4 cells, computed before the library value
        assert brute_force_mi(c, prior) == pytest.approx(cert.mi_sh, abs=1e-12)
        assert cert.mi_sh == pytest.approx(0.188722, abs=1e-6)
        assert cert.bound_sh == pytest.approx(1.584963, abs=1e-6)
        assert cert.holds

    def test_constant_channel(self):
        cert = check_mi_bound(constant_channel(), Dist(("0", "1"), np.array([0.9, 0.1])))
        assert cert.mi_sh == pytest.approx(0.0, abs=1e-12)
        assert cert.bound_sh == 0.0
        assert cert.holds

    def test_rr4_half_eps(self):
        c = randomized_response(4, 0.5)
        prior = Dist.uniform(c.input_outcomes)
        cert = check_mi_bound(c, prior)
        assert brute_force_mi(c, prior) == pytest.approx(cert.mi_sh, abs=1e-12)
        assert cert.holds

    def test_unbounded_is_flagged(self):
        cert = check_mi_bound(identity_channel(), Dist.uniform(("0", "1")))
        assert cert.unbounded and cert.holds
        assert math.isinf(cert.bound_sh)

    def test_bound_is_prior_independent(self):
        c = randomized_response(3, 0.8)
        rng = np.random.default_rng(0)
        bounds = {
            check_mi_bound(c, random_prior(3, rng, outcomes=c.input_outcomes)).bound_sh
            for _ in range(5)
        }
        assert len(bounds) == 1

    def test_mismatched_prior(self):
        with pytest.raises(ValueError, match="prior"):
            check_mi_bound(randomized_response(2, 1.0), Dist.uniform(("a", "b")))
        with pytest.raises(ValueError, match="prior"):
            push_through(Dist.uniform(("a", "b")), randomized_response(2, 1.0))

    def test_push_through_accepts_the_pair_the_certificate_accepts(self):
        # each table sums to 1 + 9e-10, within tolerance; their product sums to about 1 + 1.8e-9
        prior = Dist(("0", "1"), [0.5 + 9e-10, 0.5])
        c = Channel(("0", "1"), ("x", "y"), [[0.5 + 9e-10, 0.5]] * 2)
        mass = push_through(prior, c).mass
        assert abs(mass.sum() - 1.0) < 1e-15
        assert mutual_information(push_through(prior, c)) == pytest.approx(check_mi_bound(c, prior).mi_sh, abs=1e-12)

    def test_push_through_within_tolerance_is_the_product_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n_in = int(rng.integers(1, 6))
            c, prior = random_channel(n_in, int(rng.integers(1, 6)), rng), random_prior(n_in, rng)
            product = prior.probs[:, None] * c.rows
            assert push_through(prior, c).mass.view(np.uint64).tolist() == product.view(np.uint64).tolist()

    def test_certificate_json(self):
        cert = check_mi_bound(randomized_response(2, LN3), Dist.uniform(("0", "1")))
        doc = json.loads(json.dumps(cert.to_json_dict()))
        assert set(doc) == {"eps", "mi_sh", "bound_sh", "holds", "unbounded", "witness"}
        assert len(doc["witness"]) == 3


class TestDpToMiBound:
    def test_ln2_is_one_shannon(self):
        assert dp_to_mi_bound(math.log(2)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_eps(self):
        assert dp_to_mi_bound(0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dp_to_mi_bound(-0.1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_non_finite(self, eps):
        with pytest.raises(ValueError, match="finite"):
            dp_to_mi_bound(eps)


class TestCompose:
    def test_with_constant_keeps_eps(self):
        c = randomized_response(2, LN3)
        rep = realized_epsilon(compose(c, constant_channel()))
        assert rep.eps == pytest.approx(LN3, abs=1e-12)

    def test_rr_twice_doubles_eps(self):
        c = randomized_response(2, LN3)
        rep = realized_epsilon(compose(c, c))
        assert rep.eps == pytest.approx(2 * LN3, abs=1e-9)

    def test_composed_mi_within_doubled_bound(self):
        c = randomized_response(2, LN3)
        cc = compose(c, c)
        mi = mutual_information(push_through(Dist.uniform(cc.input_outcomes), cc))
        assert mi <= 2 * math.log2(3) + 1e-9
        assert check_mi_bound(cc, Dist.uniform(cc.input_outcomes)).holds

    def test_labels_with_commas_stay_distinct(self):
        # joined bare, both ('a,b', 'c') and ('a', 'b,c') would read (a,b,c)
        c1 = Channel(("x0", "x1"), ("a,b", "a"), [[0.5, 0.5], [0.2, 0.8]])
        c2 = Channel(("x0", "x1"), ("c", "b,c"), [[0.3, 0.7], [0.6, 0.4]])
        assert compose(c1, c2).output_outcomes == ("(a\\,b,c)", "(a\\,b,b\\,c)", "(a,c)", "(a,b\\,c)")

    def test_labels_escape_backslashes_and_parentheses_only(self):
        plain = Channel(("x",), ("c", "d e"), [[0.5, 0.5]])
        assert compose(plain, plain).output_outcomes == ("(c,c)", "(c,d e)", "(d e,c)", "(d e,d e)")
        odd = Channel(("x",), ("a\\", "(a)"), [[0.5, 0.5]])
        assert compose(odd, Channel(("x",), ("c",), [[1.0]])).output_outcomes == ("(a\\\\,c)", "(\\(a\\),c)")

    @given(st.lists(st.text(alphabet="a,()\\", max_size=4), min_size=2, max_size=4, unique=True),
           st.lists(st.text(alphabet="a,()\\", max_size=4), min_size=2, max_size=4, unique=True))
    @settings(max_examples=200, deadline=None)
    def test_labels_are_injective(self, first, second):
        c1 = Channel(("x",), tuple(first), [[1.0 / len(first)] * len(first)])
        c2 = Channel(("x",), tuple(second), [[1.0 / len(second)] * len(second)])
        assert len(set(compose(c1, c2).output_outcomes)) == len(first) * len(second)

    def test_nested_product_labels_are_escaped(self):
        c = Channel(("x",), ("a", "b"), [[0.5, 0.5]])
        assert compose(compose(c, c), c).output_outcomes[:2] == ("(\\(a\\,a\\),a)", "(\\(a\\,a\\),b)")

    def test_mismatched_inputs(self):
        with pytest.raises(ValueError, match="input spaces differ"):
            compose(randomized_response(2, 1.0), randomized_response(3, 1.0))

    def test_product_beyond_the_cell_cap_is_refused(self):
        n = math.isqrt(STATE_SPACE_CAP)
        c1, c2 = constant_channel(1, n), constant_channel(1, n + 1)
        with pytest.raises(CapacityError, match=f"a 1x{n} and a 1x{n + 1} channel has {n * (n + 1)} cells, "
                                                f"exceeding the cap of {STATE_SPACE_CAP}$"):
            compose(c1, c2)

    def test_eps_subadditive_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n_in = int(rng.integers(2, 6))
            c1 = random_channel(n_in, int(rng.integers(2, 6)), rng)
            c2 = random_channel(n_in, int(rng.integers(2, 6)), rng)
            c2 = Channel(c1.input_outcomes, c2.output_outcomes, c2.rows)
            e1, e2 = realized_epsilon(c1).eps, realized_epsilon(c2).eps
            assert realized_epsilon(compose(c1, c2)).eps <= e1 + e2 + 1e-9

    def test_product_within_tolerance_is_left_as_it_is(self):
        rng = np.random.default_rng(5)
        pairs = [(randomized_response(3, 0.7), randomized_response(3, 2.0))]
        for _ in range(20):
            c1, c2 = random_channel(4, int(rng.integers(2, 6)), rng), random_channel(4, int(rng.integers(2, 6)), rng)
            pairs.append((c1, c2))
        for c1, c2 in pairs:
            product = (c1.rows[:, :, None] * c2.rows[:, None, :]).reshape(len(c1.input_outcomes), -1)
            assert np.array_equal(compose(c1, c2).rows, product)

    def test_product_beyond_tolerance_is_renormalised(self):
        # each row sums to 1 + 9e-10, within tolerance; the product's rows sum to about 1 + 1.8e-9
        c = Channel(("0", "1"), ("x", "y"), [[0.5000000009, 0.5], [0.2000000009, 0.8]])
        cc = compose(c, c)
        assert np.abs(cc.rows.sum(axis=1) - 1.0).max() < 1e-15
        assert realized_epsilon(cc).eps <= 2 * realized_epsilon(c).eps + 4e-9


class TestPostProcess:
    def test_identity_map_unchanged(self):
        c = randomized_response(3, 0.9)
        out = post_process(c, lambda y: y)
        assert out.output_outcomes == c.output_outcomes
        assert np.array_equal(out.rows, c.rows)

    def test_refuses_labels_that_are_not_strings(self):
        with pytest.raises(ValueError, match="outputs must be strings, got 0"):
            post_process(randomized_response(3, 0.9), lambda y: int(y) % 2)

    def test_constant_map_kills_mi(self):
        c = randomized_response(3, 2.0)
        merged = post_process(c, lambda y: "all")
        mi = mutual_information(push_through(Dist.uniform(c.input_outcomes), merged))
        assert mi == pytest.approx(0.0, abs=1e-12)

    def test_pair_merge_strictly_below_unmerged(self):
        c = randomized_response(4, LN3)
        prior = Dist.uniform(c.input_outcomes)
        merged = post_process(c, lambda y: "lo" if y in ("0", "1") else "hi")
        mi_full = mutual_information(push_through(prior, c))
        mi_merged = mutual_information(push_through(prior, merged))
        # both recomputed exhaustively by the dict oracle
        assert mi_full == pytest.approx(brute_force_mi(c, prior), abs=1e-12)
        assert mi_merged == pytest.approx(brute_force_mi(merged, prior), abs=1e-12)
        assert mi_merged < mi_full - 1e-6

    def test_never_increases_mi_or_eps(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n_out = int(rng.integers(2, 7))
            c = random_channel(int(rng.integers(2, 6)), n_out, rng)
            prior = random_prior(len(c.input_outcomes), rng, outcomes=c.input_outcomes)
            targets = rng.integers(0, n_out, size=n_out)
            merged = post_process(c, lambda y: f"g{targets[c.output_outcomes.index(y)]}")
            assert mutual_information(push_through(prior, merged)) <= (
                mutual_information(push_through(prior, c)) + 1e-9
            )
            assert realized_epsilon(merged).eps <= realized_epsilon(c).eps + 1e-9


class TestMiWithoutDp:
    def test_eps_unbounded_but_mi_small(self):
        c, cert = mi_without_dp_example()
        assert cert.unbounded
        oracle = brute_force_mi(c, Dist.uniform(c.input_outcomes))
        assert cert.mi_sh == pytest.approx(oracle, abs=1e-12)
        assert cert.mi_sh == pytest.approx(0.005018, abs=1e-6)


class TestSweep:
    def test_no_violations(self):
        result = bound_sweep(50, seed=3)
        assert result.violations == 0
        assert result.min_slack_sh > 0

    def test_rejects_no_cases(self):
        with pytest.raises(ValueError, match="n_cases"):
            bound_sweep(0)

    def test_refuses_cases_beyond_the_cap(self):
        with pytest.raises(CapacityError, match=f"{SWEEP_CASE_CAP + 1} cases, exceeding the cap of {SWEEP_CASE_CAP}"):
            bound_sweep(SWEEP_CASE_CAP + 1)

    def test_refuses_a_negative_seed_by_name(self):
        with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
            bound_sweep(1, seed=-1)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_cases": 2.5}, "n_cases must be an integer, got 2.5"),
            ({"n_cases": 1e12}, "n_cases must be an integer, got 1000000000000.0"),  # not the cap's refusal
            ({"n_cases": True}, "n_cases must be an integer, got True"),
            ({"n_cases": "5"}, "n_cases must be an integer, got '5'"),
            ({"n_cases": 5, "seed": 1.0}, "seed must be an integer, got 1.0"),
            ({"n_cases": 5, "seed": False}, "seed must be an integer, got False"),
            ({"n_cases": 5, "seed": "2"}, "seed must be an integer, got '2'"),
        ],
    )
    def test_refuses_a_non_integer_by_name(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            bound_sweep(**kwargs)

    def test_accepts_numpy_integers(self):
        a, b = bound_sweep(np.int64(5), seed=np.int64(2)), bound_sweep(5, seed=2)
        assert (a.cases, a.seed) == (5, 2)
        assert (a.violations, a.max_mi_sh, a.min_slack_sh) == (b.violations, b.max_mi_sh, b.min_slack_sh)

    def test_reproducible(self):
        a = bound_sweep(20, seed=9)
        b = bound_sweep(20, seed=9)
        assert (a.max_mi_sh, a.min_slack_sh) == (b.max_mi_sh, b.min_slack_sh)

    @pytest.mark.parametrize(
        "cases, seed, max_mi, min_slack",
        [
            (2000, 0, "0x1.b9733a9cebf26p-1", "0x1.f5fa52e204858p-5"),
            (500, 11, "0x1.6b8e948db4030p-1", "0x1.9aed9ac3cba5bp-3"),
        ],
    )
    def test_matches_frozen_values(self, cases, seed, max_mi, min_slack):
        # frozen values: a faster certificate path must keep every case's result
        result = bound_sweep(cases, seed=seed)
        assert result.violations == 0
        assert result.max_mi_sh == pytest.approx(float.fromhex(max_mi), abs=1e-12)
        assert result.min_slack_sh == pytest.approx(float.fromhex(min_slack), abs=1e-12)


SEEDS = (0, 1, 2**31 - 1, 2**32, 2**100 + 7)  # one to four 32-bit seed words


def certify(rows, probs):
    n_in, n_out = rows.shape
    inputs = tuple(f"x{i}" for i in range(n_in))
    return check_mi_bound(Channel(inputs, tuple(f"y{j}" for j in range(n_out)), rows), Dist(inputs, probs))


class TestSweepStreams:
    """The sweep's draws are numpy's, bit for bit: a numpy release that changed either stream fails here."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("case", [0, 1, 4095, 4096, 2**20 - 1])
    def test_case_state_is_default_rngs(self, seed, case):
        assert list(_case_states(seed, case, case + 1)) == [np.random.default_rng([seed, case]).bit_generator.state]

    def test_states_of_a_run_of_cases(self):
        states = list(_case_states(2**32, 1020, 1030))
        assert states == [np.random.default_rng([2**32, case]).bit_generator.state for case in range(1020, 1030)]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_draws_are_generator_dirichlet(self, n):
        for seed in range(5):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            for n_out in range(2, 9):
                rows = reference.dirichlet(np.ones(n_out), size=n)
                np.maximum(rows, 1e-6, out=rows)
                rows /= rows.sum(axis=1, keepdims=True)
                assert np.array_equal(random_channel(n, n_out, rng).rows, rows)
            assert np.array_equal(random_prior(n, rng).probs, reference.dirichlet(np.ones(n)))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("cases", [1, 500, 2000])
    def test_sweep_is_the_per_case_generator_sweep(self, seed, cases):
        result = bound_sweep(cases, seed=seed)
        assert (result.violations, result.max_mi_sh, result.min_slack_sh) == dirichlet_sweep(cases, seed, certify)

    def test_sweep_across_seeding_chunks(self, monkeypatch):
        monkeypatch.setattr(channels, "_SEED_CHUNK", 7)
        result = bound_sweep(60, seed=2**100 + 7)
        assert (result.violations, result.max_mi_sh, result.min_slack_sh) == dirichlet_sweep(60, 2**100 + 7, certify)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sweep_of_one_case_per_chunk(self, seed, monkeypatch):
        monkeypatch.setattr(channels, "_SEED_CHUNK", 1)
        result = bound_sweep(40, seed=seed)
        assert (result.violations, result.max_mi_sh, result.min_slack_sh) == dirichlet_sweep(40, seed, certify)

    def test_sweep_of_one_chunk_holding_every_shape(self):
        assert len(channels._shape_groups(3, 0, channels._SEED_CHUNK)) == 7 * 7
        result = bound_sweep(channels._SEED_CHUNK, seed=3)
        expected = dirichlet_sweep(channels._SEED_CHUNK, 3, certify)
        assert (result.violations, result.max_mi_sh, result.min_slack_sh) == expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_grouped_draws_are_the_scalar_draws(self, seed):
        # one integers(2, 9, size=2) and one exponential block a case: the scalar draws' stream and end state
        expected = {}
        for case in range(4096):
            scalar, grouped = np.random.default_rng([seed, case]), np.random.default_rng([seed, case])
            n_in, n_out = int(scalar.integers(2, 9)), int(scalar.integers(2, 9))
            rows, prior = scalar.standard_exponential((n_in, n_out)), scalar.standard_exponential(n_in)
            block = np.concatenate([rows.ravel(), prior])
            expected.setdefault((n_in, n_out), []).append(block)
            assert grouped.integers(2, 9, size=2).tolist() == [n_in, n_out]
            assert np.array_equal(grouped.standard_exponential(n_in * n_out + n_in), block)
            assert grouped.bit_generator.state == scalar.bit_generator.state
        groups = channels._shape_groups(seed, 0, 4096)
        assert list(groups) == list(expected)
        assert all(np.array_equal(groups[shape], np.stack(expected[shape])) for shape in groups)


def spoil_nan(table):
    table.flat[1] = np.nan


def spoil_sum(table):
    table[-1] *= 0.5  # a channel's last row, or a prior's last cell


class TestSweepGroupCheck:
    """A sweep checks each (seeding chunk, shape) group's rows and priors once; each case is still certified."""

    def refusal(self, build):
        with pytest.raises(ValueError) as refused:
            build()
        return str(refused.value)

    @pytest.mark.parametrize("spoil", [spoil_nan, spoil_sum])
    def test_a_bad_channel_draw_is_refused_as_its_channel_is(self, spoil, monkeypatch):
        spoiled, channel_rows = [], channels._channel_rows

        def bad_rows(draws):
            rows = channel_rows(draws)
            if len(spoiled) == 0 and len(rows) > 2:  # the middle case of the first group of three or more
                spoil(rows[len(rows) // 2])
                spoiled.append(rows[len(rows) // 2].copy())
            return rows

        monkeypatch.setattr(channels, "_channel_rows", bad_rows)
        message = self.refusal(lambda: bound_sweep(200, seed=4))
        n_in, n_out = spoiled[0].shape
        inputs, outputs = tuple(f"x{i}" for i in range(n_in)), tuple(f"y{j}" for j in range(n_out))
        assert message == self.refusal(lambda: Channel(inputs, outputs, spoiled[0]))

    @pytest.mark.parametrize("spoil", [spoil_nan, spoil_sum])
    def test_a_bad_prior_draw_is_refused_as_its_dist_is(self, spoil, monkeypatch):
        spoiled, flat_dirichlet = [], channels._flat_dirichlet

        def bad_priors(draws):
            table = flat_dirichlet(draws)
            if table.ndim == 2 and len(spoiled) == 0 and len(table) > 2:  # a group's priors, not its rows
                spoil(table[1])
                spoiled.append(table[1].copy())
            return table

        monkeypatch.setattr(channels, "_flat_dirichlet", bad_priors)
        message = self.refusal(lambda: bound_sweep(200, seed=4))
        inputs = tuple(f"x{i}" for i in range(len(spoiled[0])))
        assert message == self.refusal(lambda: Dist(inputs, spoiled[0]))

    def test_one_check_of_rows_and_one_of_priors_per_group(self, monkeypatch):
        checks, stochastic = [], channels._stochastic

        def counted(values, shape, what, **kwargs):
            checks.append((len(values), what))
            return stochastic(values, shape, what, **kwargs)

        monkeypatch.setattr(channels, "_stochastic", counted)
        chunk = channels._SEED_CHUNK
        groups = [channels._shape_groups(5, start, min(start + chunk, 2500)) for start in range(0, 2500, chunk)]
        bound_sweep(2500, seed=5)
        assert len(checks) == 2 * sum(map(len, groups)) < 2500 / 8  # at most 49 shapes a chunk
        assert [what for _, what in checks] == ["channel", "probs"] * (len(checks) // 2)
        assert sum(n for n, what in checks if what == "channel") == 2500

    def test_each_case_is_certified_from_read_only_views_of_its_group(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"{type(self).__name__} checked again in a sweep")

        cases, certify = [], channels.check_mi_bound

        def recorded(c, prior):
            cases.append((c, prior))
            return certify(c, prior)

        monkeypatch.setattr(Channel, "__post_init__", refuse)
        monkeypatch.setattr(Dist, "__post_init__", refuse)
        monkeypatch.setattr(channels, "check_mi_bound", recorded)
        bound_sweep(300, seed=6)
        assert len(cases) == 300
        for c, prior in cases:
            assert not c.rows.flags.writeable and not prior.probs.flags.writeable
            assert c.rows.base is not None and prior.probs.base is not None
            assert prior.outcomes == c.input_outcomes == tuple(f"x{i}" for i in range(len(c.rows)))


class TestChannelType:
    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError, match="not stochastic"):
            Channel(("a", "b"), ("x", "y"), np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            Channel(("a",), ("x", "y"), np.array([[1.2, -0.2]]))

    def test_json_round_trip(self):
        c = randomized_response(3, 0.4)
        back = Channel.from_json_dict(json.loads(json.dumps(c.to_json_dict())))
        assert back.input_outcomes == c.input_outcomes
        assert np.array_equal(back.rows, c.rows)
