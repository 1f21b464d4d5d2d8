import json
import math
import re

import numpy as np
import pytest

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
from infoflow.channels import EPS_MAX, SWEEP_CASE_CAP
from infoflow.measures import STATE_SPACE_CAP
from helpers import joint_cells, mi_cells

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
        with pytest.raises(CapacityError, match=f"{SWEEP_CASE_CAP + 1} cases exceeds the cap of {SWEEP_CASE_CAP}"):
            bound_sweep(SWEEP_CASE_CAP + 1)

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
