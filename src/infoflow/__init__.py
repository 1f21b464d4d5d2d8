"""Exact information-flow accounting over finite distributions.

Information measures on labeled finite distributions, randomizing
mechanisms as channels with certified per-invocation information caps,
exact leakage profiles on small causal networks, a seeded simulator of
explicit/implicit flows with budget ledgers, and a linkage-attack
harness showing where k-anonymity fails.
"""

from .anonymity import AnonReport, Table, dp_release, k_anonymity_level, linkage_attack
from .causal import (
    BayesNet,
    DenseJoint,
    LeakageProfile,
    Node,
    attribute_flows,
    ballot_scenario,
    conditional_mi,
    joint,
    leakage_profile,
    fork_collider_graph,
    twins_scenario,
)
from .channels import (
    BoundCertificate,
    Channel,
    EpsReport,
    bound_sweep,
    check_mi_bound,
    compose,
    dp_to_mi_bound,
    mi_without_dp_example,
    post_process,
    push_through,
    random_channel,
    random_prior,
    randomized_response,
    realized_epsilon,
)
from .measures import CapacityError, Dist, InfoMeasure, Joint, entropy, mutual_information
from .society import (
    BudgetStop,
    Context,
    DatumRecord,
    Entity,
    FlowEvent,
    ImplicitChannel,
    Ledger,
    LogisticParams,
    ReleaseMechanism,
    Scenario,
    Simulation,
    SimulationResult,
    Society,
    bundle_contexts,
    decision_prob,
    ledger_report,
    load_scenario,
    simulate,
)

__version__ = "0.1.0"
