"""Per-layer spans recorded from outside infoflow.

``Tracer.install`` replaces public functions of the layers (the modules
``cli``, ``channels``, ``measures``, ``_kernels``, ``causal``,
``society`` and ``anonymity``) with timing wrappers, and
``Tracer.uninstall`` puts every original back. A name imported by value
(``from ._kernels import mi_bits``) is a separate binding, so each
target is replaced wherever an infoflow module binds the same object.

Each call becomes a span: name, start, end, parent, job. Spans stay in
memory. A span's self time is its duration minus the time its child
spans cover; spans nest strictly (one thread), so the self times of a
job's spans add up to the job's time.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from time import perf_counter_ns

# span fields
NAME, START, END, PARENT, JOB, CHILD_NS, ERROR = range(7)

LAYERS = ("cli", "channels", "measures", "kernels", "causal", "society", "anonymity")


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module`` attribute ``attr`` (``Class.method`` for methods)."""

    module: str
    attr: str
    layer: str
    times: tuple[str, ...] = ()  # metrics summing this target's self time
    calls: tuple[str, ...] = ()  # metrics counting its calls
    observe: str | None = None  # Tracer method called with (args, kwargs, result)
    before: str | None = None  # Tracer method called with (args, kwargs) before the call

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.attr}"


TARGETS = (
    Target("cli", "main", "cli", times=("cli.self_s",)),
    Target("cli", "_load_channel_spec", "cli", times=("cli.load_s",)),
    Target("cli", "_load_prior", "cli", times=("cli.load_s",)),
    Target("cli", "_emit", "cli", times=("cli.emit_s",)),
    Target("causal", "load_net", "causal", times=("cli.load_s",)),
    Target("society", "load_scenario", "society", times=("cli.load_s",)),
    Target("society", "write_events_jsonl", "society", times=("cli.emit_s",)),
    Target("anonymity", "read_table", "anonymity", times=("cli.load_s", "anonymity.read_s"), observe="_rows"),
    Target("anonymity", "write_table", "anonymity", times=("cli.emit_s",)),
    Target("measures", "Dist.__post_init__", "measures", times=("measures.objects_s",), calls=("measures.objects_built",)),
    Target("measures", "Joint.__post_init__", "measures", times=("measures.objects_s",), calls=("measures.objects_built",)),
    Target("channels", "Channel.__post_init__", "channels", times=("measures.objects_s",), calls=("measures.objects_built",)),
    Target("channels", "random_channel", "channels", times=("channels.build_s",)),
    Target("channels", "random_prior", "channels", times=("channels.build_s",)),
    Target("channels", "randomized_response", "channels", times=("channels.build_s",)),
    Target("channels", "compose", "channels", times=("channels.build_s",)),
    Target("channels", "check_mi_bound", "channels", times=("channels.certify_s",), calls=("channels.cases",)),
    Target("channels", "realized_epsilon", "channels", times=("channels.certify_s",)),
    Target("channels", "push_through", "channels", times=("channels.certify_s",)),
    Target("channels", "bound_sweep", "channels", times=("channels.sweep_s",)),
    Target("_kernels", "mi_bits", "kernels", times=("kernels.mi_bits_s",), calls=("kernels.mi_bits_calls",), observe="_bytes_in"),
    Target("_kernels", "entropy_bits", "kernels", times=("kernels.entropy_s",), calls=("kernels.entropy_calls",), observe="_bytes_in"),
    Target("_kernels", "scan_log_ratio", "kernels", times=("kernels.scan_s",), calls=("kernels.scan_calls",), observe="_bytes_in"),
    Target("_kernels", "dense_joint", "kernels", times=("kernels.dense_joint_s",), observe="_bytes_out"),
    Target("causal", "joint", "causal", times=("causal.joint_s",), observe="_joint"),
    Target("causal", "DenseJoint.marginal", "causal", times=("causal.marginal_s",), calls=("causal.marginal_calls",)),
    Target("causal", "conditional_mi", "causal", times=("causal.cmi_s",), calls=("causal.cmi_calls",), observe="_cmi"),
    Target("causal", "leakage_profile", "causal", times=("causal.profile_s",)),
    Target("causal", "attribute_flows", "causal", times=("causal.attribute_s",), observe="_attribute", before="_threshold_of"),
    Target("causal", "twins_scenario", "causal", times=("causal.scenario_s",)),
    Target("causal", "ballot_scenario", "causal", times=("causal.scenario_s",)),
    Target("causal", "fork_collider_graph", "causal", times=("causal.scenario_s",)),
    Target("society", "Simulation.step", "society", times=("society.step_s",), observe="_step"),
    Target("society", "bundle_contexts", "society", times=("society.bundle_s",), observe="_contexts"),
    Target("society", "ledger_report", "society", times=("society.ledger_s",)),
    Target("anonymity", "dp_release", "anonymity", times=("anonymity.dp_release_s",)),
    Target("anonymity", "linkage_attack", "anonymity", times=("anonymity.linkage_s",)),
)

COUNTERS = (
    "kernels.bytes_computed",
    "causal.joint_states",
    "causal.cmi_repeats",
    "causal.cmi_useful",
    "causal.induced_pairs",
    "causal.capacity_refusals",
    "society.candidates",
    "society.events",
    "society.stops",
    "society.contexts",
    "anonymity.rows",
) + tuple(f"{layer}.errors" for layer in LAYERS)


def metric_names() -> list[str]:
    """Every metric ``Tracer.metrics`` reports, in a stable order."""
    names = {m for t in TARGETS for m in t.times + t.calls} | set(COUNTERS)
    names |= {"causal.cmi_repeat_ratio", "causal.cmi_useful_ratio", "trace.spans"}
    return sorted(names)


class Tracer:
    """Wraps infoflow from outside; records spans and counters in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._cmi_seen: set = set()
        self._threshold = 1e-6

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items()) if name == "infoflow" or name.startswith("infoflow.")]
        for index, target in enumerate(TARGETS):
            module = importlib.import_module(f"infoflow.{target.module}")
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(index, original))
                continue
            original = getattr(module, target.attr)
            wrapper = self._wrap(index, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _wrap(self, index: int, fn):
        tracer = self
        target = TARGETS[index]
        observer = getattr(self, target.observe) if target.observe else None
        before = getattr(self, target.before) if target.before else None

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack = tracer._stack
            span = [index, 0, 0, stack[-1] if stack else -1, tracer.job, 0, None]
            me = len(tracer.spans)
            tracer.spans.append(span)
            stack.append(me)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = perf_counter_ns()
                stack.pop()
                tracer._close(span, exc)
                raise
            span[END] = perf_counter_ns()
            stack.pop()
            tracer._close(span, None)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _close(self, span: list, exc: BaseException | None) -> None:
        parent = span[PARENT]
        if parent >= 0:
            self.spans[parent][CHILD_NS] += span[END] - span[START]
        if exc is None:
            return
        span[ERROR] = type(exc).__name__
        layer = TARGETS[span[NAME]].layer
        if parent < 0 or TARGETS[self.spans[parent][NAME]].layer != layer:
            self.counters[f"{layer}.errors"] += 1
            if layer == "causal" and span[ERROR] == "CapacityError":
                self.counters["causal.capacity_refusals"] += 1

    # -- job bookkeeping -----------------------------------------------------

    def start_job(self, job: int) -> None:
        self.job = job
        self._cmi_seen = set()
        self._threshold = 1e-6

    def reset(self) -> None:
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    # -- observers -----------------------------------------------------------

    def _bytes_in(self, args, kwargs, result) -> None:
        self.counters["kernels.bytes_computed"] += args[0].nbytes

    def _bytes_out(self, args, kwargs, result) -> None:
        self.counters["kernels.bytes_computed"] += result.nbytes

    def _joint(self, args, kwargs, result) -> None:
        self.counters["causal.joint_states"] += result.probs.size

    def _cmi(self, args, kwargs, result) -> None:
        given = kwargs.get("given", args[3] if len(args) > 3 else ())
        key = (args[1], args[2], tuple(given))
        if key in self._cmi_seen:
            self.counters["causal.cmi_repeats"] += 1
        self._cmi_seen.add(key)
        if result > self._threshold:
            self.counters["causal.cmi_useful"] += 1

    def _threshold_of(self, args, kwargs) -> None:
        self._threshold = kwargs.get("threshold", args[3] if len(args) > 3 else 1e-6)

    def _attribute(self, args, kwargs, result) -> None:
        self.counters["causal.induced_pairs"] += len(result)

    def _step(self, args, kwargs, result) -> None:
        sim = args[0]
        entities = sim.society.entities
        self.counters["society.candidates"] += sum(len(e.data) for e in entities) * (len(entities) - 1)
        self.counters["society.events"] += len(result[0])
        self.counters["society.stops"] += len(result[1])

    def _contexts(self, args, kwargs, result) -> None:
        self.counters["society.contexts"] += len(result)

    def _rows(self, args, kwargs, result) -> None:
        self.counters["anonymity.rows"] += len(result.rows)

    # -- aggregation ---------------------------------------------------------

    def self_ns(self) -> list[int]:
        return [s[END] - s[START] - s[CHILD_NS] for s in self.spans]

    def metrics(self) -> dict[str, float]:
        """Layer metrics of the spans and counters recorded since ``reset``."""
        out = dict.fromkeys(metric_names(), 0.0)
        for span, own in zip(self.spans, self.self_ns()):
            target = TARGETS[span[NAME]]
            for m in target.times:
                out[m] += own / 1e9
            for m in target.calls:
                out[m] += 1
        out.update({k: float(v) for k, v in self.counters.items()})
        calls = out["causal.cmi_calls"]
        out["causal.cmi_repeat_ratio"] = out["causal.cmi_repeats"] / calls if calls else 0.0
        out["causal.cmi_useful_ratio"] = out["causal.cmi_useful"] / calls if calls else 0.0
        out["trace.spans"] = float(len(self.spans))
        return out
