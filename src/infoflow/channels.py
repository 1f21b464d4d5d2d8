"""Randomizing mechanisms as row-stochastic channels.

A mechanism that maps a sensitive input to a released output is a
conditional distribution p(y|x), i.e. a row-stochastic matrix. This
module measures the tightest multiplicative-stability epsilon a channel
actually satisfies, certifies the resulting mutual-information cap of
eps * log2(e) Sh per invocation, and exercises the two closure
properties that make that cap usable as a budget: additivity under
composition and monotonicity under output post-processing. It also
builds the standard counterexample showing the converse fails (small
mutual information with no finite epsilon).
"""

from __future__ import annotations

import functools
import logging
import math
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from ._kernels import mi_bits, scan_log_ratio
from .measures import (
    INTEGERS, STATE_SPACE_CAP, SUM_TOL, Dist, Joint, _at_least, _check_keys, _check_labels, _check_size, _integer,
    _nonneg, _prechecked, _stochastic,
)

log = logging.getLogger(__name__)

SWEEP_CASE_CAP = 2**20  # cases in one bound_sweep: about 35 s at the 0.031-0.033 ms a case timed on a 2-vCPU Xeon

LOG2_E = math.log2(math.e)

EPS_MAX = math.log(sys.float_info.max)  # the largest eps whose e^eps, which randomized response computes, is finite


@dataclass(frozen=True, eq=False)
class Channel:
    """Row-stochastic conditional matrix p(y|x) over labeled spaces."""

    input_outcomes: tuple[str, ...]
    output_outcomes: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "input_outcomes", _check_labels(self.input_outcomes, "inputs"))
        object.__setattr__(self, "output_outcomes", _check_labels(self.output_outcomes, "outputs"))
        shape = (len(self.input_outcomes), len(self.output_outcomes))
        object.__setattr__(self, "rows", _stochastic(self.rows, shape, "channel", rows=True))

    def to_json_dict(self) -> dict:
        return {
            "inputs": list(self.input_outcomes),
            "outputs": list(self.output_outcomes),
            "rows": [[float(v) for v in row] for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Channel":
        _check_keys(d, ("inputs", "outputs", "rows"), "channel")
        return cls(d["inputs"], d["outputs"], d["rows"])


@dataclass(frozen=True)
class EpsReport:
    """Tightest epsilon a channel satisfies, with the witnessing triple.

    ``eps`` is math.inf (``unbounded``) when some output has positive
    probability under one input and zero under another; ``witness`` is
    the (x, x', y) achieving the maximal probability ratio.
    """

    eps: float
    witness: tuple[str, str, str]

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.eps)

    def to_json_dict(self) -> dict:
        return {
            "eps": None if self.unbounded else float(self.eps),
            "unbounded": self.unbounded,
            "witness": list(self.witness),
        }


@dataclass(frozen=True)
class BoundCertificate(EpsReport):
    """Checked instance of the per-invocation information cap: an eps report plus the MI under one prior.

    ``bound_sh`` (``dp_to_mi_bound(eps)``, eps * log2(e) Sh) and
    ``holds`` are derived from ``eps`` and ``mi_sh``; ``holds`` says
    whether the measured mutual information stays within the bound
    (tolerance 1e-9). An unbounded eps gives an infinite bound that
    holds vacuously.
    """

    mi_sh: float

    @property
    def bound_sh(self) -> float:
        return math.inf if self.unbounded else dp_to_mi_bound(self.eps)

    @property
    def holds(self) -> bool:
        return bool(self.mi_sh <= self.bound_sh + 1e-9)

    def to_json_dict(self) -> dict:
        return {
            **super().to_json_dict(),
            "mi_sh": float(self.mi_sh),
            "bound_sh": None if self.unbounded else float(self.bound_sh),
            "holds": self.holds,
        }


# ---------------------------------------------------------------------------
# mechanisms and measurements
# ---------------------------------------------------------------------------


def _check_eps(eps: float) -> None:
    """Refuse a randomized-response eps other than 0 < eps <= EPS_MAX."""
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if eps > EPS_MAX:
        raise ValueError(f"eps {eps} exceeds {EPS_MAX}, the largest eps whose e^eps is a finite float")


def _check_rr(k: int, eps: float) -> None:
    """Refuse randomized-response parameters other than k >= 2 and finite eps > 0."""
    _at_least(k, 2, "k")
    _check_eps(eps)


def randomized_response(k: int, eps: float, outcomes=None) -> Channel:
    """k-ary randomized response: keep the true value w.p. e^eps/(e^eps+k-1).

    Every off-diagonal output gets probability 1/(e^eps + k - 1), which
    makes the max probability ratio exactly e^eps. A k whose k*k matrix
    exceeds STATE_SPACE_CAP cells is refused before it is built.
    """
    _check_rr(k, eps)
    _check_size(k * k, STATE_SPACE_CAP, f"randomized response with k={k} has {k * k} cells")
    if outcomes is None:
        outcomes = tuple(str(i) for i in range(k))
    elif len(outcomes) != k:
        raise ValueError(f"expected {k} outcome labels, got {len(outcomes)}")
    keep = math.exp(eps) / (math.exp(eps) + k - 1)
    off = 1.0 / (math.exp(eps) + k - 1)
    rows = np.full((k, k), off)
    np.fill_diagonal(rows, keep)
    return Channel(outcomes, outcomes, rows)


def realized_epsilon(c: Channel) -> EpsReport:
    """Max over x, x', y of ln(p(y|x) / p(y|x')).

    0/0 ratios count as 1 (so a constant channel realizes eps = 0); a
    positive probability over a zero one is unbounded.
    """
    eps, x, xp, y = scan_log_ratio(c.rows)
    return EpsReport(max(eps, 0.0), (c.input_outcomes[x], c.input_outcomes[xp], c.output_outcomes[y]))


def _product(prior: Dist, c: Channel) -> np.ndarray:
    """Mass prior(x) * p(y|x) of a prior fed through a channel over the channel's inputs."""
    if prior.outcomes != c.input_outcomes:
        raise ValueError(f"prior is over {prior.outcomes}, channel inputs are {c.input_outcomes}")
    return prior.probs[:, None] * c.rows


def _renormalised(table: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """``table`` as is, or over ``sums`` if one is more than SUM_TOL off 1, as a product of accepted tables can be."""
    return table / sums if np.abs(sums - 1.0).max() > SUM_TOL else table


def push_through(prior: Dist, c: Channel) -> Joint:
    """Joint (input, output) mass from a prior fed through a channel, divided by its sum as ``_renormalised`` says."""
    mass = _product(prior, c)
    return Joint(c.input_outcomes, c.output_outcomes, _renormalised(mass, mass.sum()))


def dp_to_mi_bound(eps: float) -> float:
    """Information cap of one eps-stable invocation: eps*log2(e) Sh."""
    _nonneg(eps, "eps")
    return eps * LOG2_E


def check_mi_bound(c: Channel, prior: Dist) -> BoundCertificate:
    """Certify mutual information <= realized-eps * log2(e) for one prior.

    When the realized eps is unbounded the certificate is flagged and
    holds vacuously. The mutual information is taken from the product
    mass of two checked tables, with no ``Joint`` built to check it
    again: its cells are >= 0, and its sum is within rounding of the
    two tables' own tolerances of 1.
    """
    report = realized_epsilon(c)
    return BoundCertificate(report.eps, report.witness, mi_bits(_product(prior, c)))


def compose(c1: Channel, c2: Channel) -> Channel:
    """Product channel releasing both outputs of two independent invocations.

    p(y1,y2|x) = p1(y1|x) * p2(y2|x); output labels are "(y1,y2)". A
    product of more than STATE_SPACE_CAP cells is refused before it is
    built. Its rows are divided by their sums as ``_renormalised`` says,
    so a product of accepted channels is accepted. Its eps never exceeds
    the sum of its parts', save that a renormalised product's can by
    rounding: by at most about 4*SUM_TOL.
    """
    if c1.input_outcomes != c2.input_outcomes:
        raise ValueError(
            f"input spaces differ: {c1.input_outcomes} vs {c2.input_outcomes}"
        )
    n_in, n1, n2 = len(c1.input_outcomes), len(c1.output_outcomes), len(c2.output_outcomes)
    cells = n_in * n1 * n2
    _check_size(cells, STATE_SPACE_CAP, f"the product of a {n_in}x{n1} and a {n_in}x{n2} channel has {cells} cells")
    outputs = tuple(f"({a},{b})" for a in c1.output_outcomes for b in c2.output_outcomes)
    rows = (c1.rows[:, :, None] * c2.rows[:, None, :]).reshape(n_in, -1)
    return Channel(c1.input_outcomes, outputs, _renormalised(rows, rows.sum(axis=1, keepdims=True)))


def post_process(c: Channel, fn) -> Channel:
    """Deterministically relabel/merge outputs via fn: output label -> string label.

    Merging columns can only discard information: mutual information and
    realized eps never increase.
    """
    merged: dict[str, np.ndarray] = {}
    for j, y in enumerate(c.output_outcomes):
        new = fn(y)
        merged[new] = merged.get(new, 0.0) + c.rows[:, j]
    return Channel(c.input_outcomes, tuple(merged), np.stack(list(merged.values()), axis=1))


def mi_without_dp_example() -> tuple[Channel, BoundCertificate]:
    """Channel with tiny mutual information but no finite eps.

    p(1|x=0) = 0 while p(1|x=1) = 0.01: a single output that is possible
    under one input and impossible under the other breaks every
    multiplicative guarantee, yet under a uniform prior the output
    carries only ~0.005 Sh about the input. A small information cap is
    therefore not a multiplicative-stability guarantee.
    """
    c = Channel(("0", "1"), ("0", "1"), np.array([[1.0, 0.0], [0.99, 0.01]]))
    cert = check_mi_bound(c, Dist.uniform(c.input_outcomes))
    return c, cert


# ---------------------------------------------------------------------------
# randomized sweeps
# ---------------------------------------------------------------------------


def _flat_dirichlet(draws: np.ndarray) -> np.ndarray:
    """Exponential ``draws`` made flat-Dirichlet rows along the last axis, in place, bit for bit ``rng.dirichlet``.

    For alphas >= 0.1 numpy draws each Gamma(1) cell as a standard
    exponential, sums the row left to right and multiplies the row by
    the reciprocal of that sum; a cumulative sum adds in the same order.
    """
    draws *= 1.0 / np.add.accumulate(draws, axis=-1)[..., -1:]
    return draws


def _channel_rows(draws: np.ndarray) -> np.ndarray:
    """Flat-Dirichlet rows of ``draws`` (in place), floored at 1e-6 and renormalized.

    The floor keeps every entry positive so the realized eps is finite
    and the information cap is non-vacuous.
    """
    rows = np.maximum(_flat_dirichlet(draws), 1e-6, out=draws)
    rows /= rows.sum(axis=-1, keepdims=True)
    return rows


def random_channel(n_in: int, n_out: int, rng: np.random.Generator) -> Channel:
    """Random finite-eps channel: flat-Dirichlet rows, floored at 1e-6 and renormalized (``_channel_rows``)."""
    return Channel(_labels("x", n_in), _labels("y", n_out), _channel_rows(rng.standard_exponential((n_in, n_out))))


def random_prior(n: int, rng: np.random.Generator, outcomes=None) -> Dist:
    p = _flat_dirichlet(rng.standard_exponential(n))
    return Dist(outcomes if outcomes is not None else _labels("x", n), p)


@functools.cache
def _labels(prefix: str, n: int) -> tuple[str, ...]:
    """The labels prefix0 .. prefix{n-1}, built once per size."""
    return tuple(f"{prefix}{i}" for i in range(n))


# numpy's SeedSequence hash constants (pool of 4 words) and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1
_SEED_CHUNK = 2**10  # cases seeded in one vectorised pass and drawn, grouped and normalised together: about 0.7 MB


def _uint32_words(n: int) -> list[int]:
    """The little-endian 32-bit words of n >= 0, one word for 0, as SeedSequence splits an integer."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _case_states(seed: int, start: int, stop: int):
    """Yield ``default_rng([seed, case]).bit_generator.state`` for each case in [start, stop), start < stop <= 2**32.

    One pass of uint32 array arithmetic, the cases along the array,
    does what ``SeedSequence([seed, case]).generate_state(4, uint64)``
    does for one case: hash the entropy words (the seed's words, then
    the case) into a pool of 4, then hash the pool into 8 output words.
    PCG64 then seeds its 128-bit state s and increment from those words
    with two LCG steps: inc = (initseq << 1) | 1 and
    state = ((inc + s) * MULT + inc) mod 2**128. numpy integer arrays
    wrap on overflow, which is the uint32 arithmetic numpy's own loop
    does.
    """
    n = stop - start
    entropy = [np.full(n, w, dtype=np.uint32) for w in _uint32_words(seed)]
    entropy.append(np.arange(start, stop, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(n, dtype=np.uint32)) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        out.append((value ^ (value >> 16)).astype(np.uint64))
    s_hi, s_lo, i_hi, i_lo = ((out[2 * j] | out[2 * j + 1] << 32).tolist() for j in range(4))
    for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        state = ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


def _shape_groups(seed: int, start: int, stop: int) -> dict:
    """The draws of cases [start, stop), grouped by shape: (n_in, n_out) -> one row of draws per case, in case order.

    Case i draws from one reused generator set to the state
    ``default_rng([seed, i])`` starts in: ``integers(2, 9, size=2)``
    (the stream of two scalar draws), then one block of
    n_in*n_out + n_in standard exponentials (the stream of the rows
    block, then the prior block).
    """
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    groups = {}
    for state in _case_states(seed, start, stop):
        bits.state = state
        n_in, n_out = rng.integers(2, 9, size=2).tolist()
        groups.setdefault((n_in, n_out), []).append(rng.standard_exponential(n_in * n_out + n_in))
    return {shape: np.stack(draws) for shape, draws in groups.items()}


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a randomized information-cap sweep."""

    cases: int
    violations: int
    max_mi_sh: float
    min_slack_sh: float
    seed: int
    seconds: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def bound_sweep(n_cases: int, seed: int = 0) -> SweepResult:
    """Check the information cap on n_cases random channel/prior pairs.

    Case i draws from ``default_rng([seed, i])``, so cases are
    reproducible independently of evaluation order: a channel of 2 to 8
    inputs and 2 to 8 outputs, its rows, then the prior (``_shape_groups``).
    The draws of one seeding chunk are normalised one shape at a time,
    and each shape's labels, stacked rows and stacked priors are checked
    once. Each case's Channel and Dist hold read-only views of the
    checked stacks, and each case gets its own certificate.
    An n_cases or seed that is not a Python or numpy integer, more than
    SWEEP_CASE_CAP cases, or a negative seed, are refused.
    """
    _integer(n_cases, "n_cases", INTEGERS)
    _integer(seed, "seed", INTEGERS)
    _at_least(n_cases, 1, "n_cases")
    _check_size(n_cases, SWEEP_CASE_CAP, f"a sweep of {n_cases} cases")
    _at_least(seed, 0, "seed")
    t0 = time.perf_counter()
    violations = 0
    max_mi = 0.0
    min_slack = math.inf
    for start in range(0, n_cases, _SEED_CHUNK):
        for (n_in, n_out), draws in _shape_groups(seed, start, min(start + _SEED_CHUNK, n_cases)).items():
            xs, ys = _check_labels(_labels("x", n_in), "inputs"), _check_labels(_labels("y", n_out), "outputs")
            rows = _channel_rows(draws[:, :n_in * n_out].reshape(-1, n_in, n_out))
            rows = _stochastic(rows, (n_in, n_out), "channel", rows=True, stacked=True)
            priors = _stochastic(_flat_dirichlet(draws[:, n_in * n_out:]), (n_in,), "probs", stacked=True)
            for r, p in zip(rows, priors):
                c = _prechecked(Channel, input_outcomes=xs, output_outcomes=ys, rows=r)
                cert = check_mi_bound(c, _prechecked(Dist, outcomes=xs, probs=p))
                violations += not cert.holds
                max_mi = max(max_mi, cert.mi_sh)
                min_slack = min(min_slack, cert.bound_sh - cert.mi_sh)
    seconds = time.perf_counter() - t0
    log.debug("bound_sweep: %d cases in %.3f s, %.0f cases/s", n_cases, seconds, n_cases / seconds)
    return SweepResult(
        cases=n_cases,
        violations=violations,
        max_mi_sh=max_mi,
        min_slack_sh=min_slack,
        seed=seed,
        seconds=seconds,
    )
