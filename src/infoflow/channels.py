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

import math
import time
from dataclasses import dataclass

import numpy as np

from ._kernels import scan_log_ratio
from .measures import Dist, Joint, _check_labels, _nonneg, _stochastic, mutual_information

LOG2_E = math.log2(math.e)


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

    def row(self, x) -> Dist:
        x = str(x)
        return Dist(self.output_outcomes, self.rows[self.input_outcomes.index(x)])

    def to_json_dict(self) -> dict:
        return {
            "inputs": list(self.input_outcomes),
            "outputs": list(self.output_outcomes),
            "rows": [[float(v) for v in row] for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Channel":
        return cls(tuple(d["inputs"]), tuple(d["outputs"]), d["rows"])


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
    """Refuse a randomized-response eps other than a finite eps > 0."""
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps}")


def _check_rr(k: int, eps: float) -> None:
    """Refuse randomized-response parameters other than k >= 2 and finite eps > 0."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    _check_eps(eps)


def randomized_response(k: int, eps: float, outcomes=None) -> Channel:
    """k-ary randomized response: keep the true value w.p. e^eps/(e^eps+k-1).

    Every off-diagonal output gets probability 1/(e^eps + k - 1), which
    makes the max probability ratio exactly e^eps.
    """
    _check_rr(k, eps)
    if outcomes is None:
        outcomes = tuple(str(i) for i in range(k))
    else:
        outcomes = tuple(str(o) for o in outcomes)
        if len(outcomes) != k:
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


def push_through(prior: Dist, c: Channel) -> Joint:
    """Joint (input, output) mass from a prior fed through a channel."""
    if prior.outcomes != c.input_outcomes:
        raise ValueError(f"prior is over {prior.outcomes}, channel inputs are {c.input_outcomes}")
    return Joint(c.input_outcomes, c.output_outcomes, prior.probs[:, None] * c.rows)


def dp_to_mi_bound(eps: float, n: int = 1) -> float:
    """Cumulative information cap of n eps-stable invocations: n*eps*log2(e) Sh."""
    _nonneg(eps, "eps")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n * eps * LOG2_E


def check_mi_bound(c: Channel, prior: Dist) -> BoundCertificate:
    """Certify mutual information <= realized-eps * log2(e) for one prior.

    When the realized eps is unbounded the certificate is flagged and
    holds vacuously.
    """
    report = realized_epsilon(c)
    return BoundCertificate(report.eps, report.witness, mutual_information(push_through(prior, c)))


def compose(c1: Channel, c2: Channel) -> Channel:
    """Product channel releasing both outputs of two independent invocations.

    p(y1,y2|x) = p1(y1|x) * p2(y2|x); output labels are "(y1,y2)". The
    realized eps of the product never exceeds the sum of the parts.
    """
    if c1.input_outcomes != c2.input_outcomes:
        raise ValueError(
            f"input spaces differ: {c1.input_outcomes} vs {c2.input_outcomes}"
        )
    outputs = tuple(f"({a},{b})" for a in c1.output_outcomes for b in c2.output_outcomes)
    rows = (c1.rows[:, :, None] * c2.rows[:, None, :]).reshape(len(c1.input_outcomes), -1)
    return Channel(c1.input_outcomes, outputs, rows)


def post_process(c: Channel, fn) -> Channel:
    """Deterministically relabel/merge outputs via fn: output label -> label.

    Merging columns can only discard information: mutual information and
    realized eps never increase.
    """
    merged: dict[str, np.ndarray] = {}
    for j, y in enumerate(c.output_outcomes):
        new = str(fn(y))
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


def random_channel(n_in: int, n_out: int, rng: np.random.Generator) -> Channel:
    """Random finite-eps channel: flat-Dirichlet rows, floored at 1e-6 and renormalized.

    The floor keeps every entry positive so the realized eps is finite
    and the information cap is non-vacuous.
    """
    rows = rng.dirichlet(np.ones(n_out), size=n_in)
    rows = np.maximum(rows, 1e-6)
    rows /= rows.sum(axis=1, keepdims=True)
    inputs = tuple(f"x{i}" for i in range(n_in))
    outputs = tuple(f"y{j}" for j in range(n_out))
    return Channel(inputs, outputs, rows)


def random_prior(n: int, rng: np.random.Generator, outcomes=None) -> Dist:
    p = rng.dirichlet(np.ones(n))
    return Dist(outcomes if outcomes is not None else tuple(f"x{i}" for i in range(n)), p)


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
        return {
            "cases": self.cases,
            "violations": self.violations,
            "max_mi_sh": float(self.max_mi_sh),
            "min_slack_sh": float(self.min_slack_sh),
            "seed": self.seed,
            "seconds": float(self.seconds),
        }


def bound_sweep(n_cases: int, seed: int = 0) -> SweepResult:
    """Check the information cap on n_cases random channel/prior pairs.

    Each case gets its own seeded generator so cases are reproducible
    independently of evaluation order; a channel has 2 to 8 inputs and
    2 to 8 outputs.
    """
    if n_cases < 1:
        raise ValueError(f"n_cases must be >= 1, got {n_cases}")
    t0 = time.perf_counter()
    violations = 0
    max_mi = 0.0
    min_slack = math.inf
    for case in range(n_cases):
        rng = np.random.default_rng([seed, case])
        n_in = int(rng.integers(2, 9))
        n_out = int(rng.integers(2, 9))
        c = random_channel(n_in, n_out, rng)
        prior = random_prior(n_in, rng)
        cert = check_mi_bound(c, prior)
        if not cert.holds:
            violations += 1
        max_mi = max(max_mi, cert.mi_sh)
        min_slack = min(min_slack, cert.bound_sh - cert.mi_sh)
    return SweepResult(
        cases=n_cases,
        violations=violations,
        max_mi_sh=max_mi,
        min_slack_sh=min_slack,
        seed=seed,
        seconds=time.perf_counter() - t0,
    )
