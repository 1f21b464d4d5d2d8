"""Command-line interface.

Subcommands: verify-bound, sweep, leakage, simulate, anon, compose.
Reports and input documents are strict JSON (reports in CSV via --format
csv). Exit codes: 0 ok, 1 information-cap violated (a theorem-check
failure that should never occur), 2 input error, 3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import causal, society
from .anonymity import dp_release, linkage_attack, read_table, write_table
from .channels import Channel, bound_sweep, check_mi_bound, compose, randomized_response, realized_epsilon
from .errors import CapacityError
from .measures import Dist, load_json, malformed

EXIT_OK = 0
EXIT_BOUND_VIOLATED = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3


def _emit(doc, fmt: str, out=None) -> None:
    """Write a report to ``out`` (stdout when None); a report that fails to serialize leaves no output.

    Files are streamed: a simulation's ledger can hold tens of thousands of rows.
    """
    if out is None:
        buf = io.StringIO()
        _write(doc, fmt, buf)
        sys.stdout.write(buf.getvalue())
        return
    try:
        with open(out, "w") as fh:
            _write(doc, fmt, fh)
    except ValueError:  # a non-finite number
        Path(out).unlink()
        raise


def _write(doc, fmt: str, fh) -> None:
    if fmt == "json":
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
        return
    writer = csv.writer(fh, lineterminator="\n")
    if isinstance(doc, list) and doc and isinstance(doc[0], dict):
        fields = sorted({k for row in doc for k in row})
        writer.writerow(fields)
        for row in doc:
            writer.writerow([row.get(k, "") for k in fields])
    elif isinstance(doc, dict):
        writer.writerow(["key", "value"])
        for k in sorted(doc):
            writer.writerow([k, json.dumps(doc[k], sort_keys=True, allow_nan=False)])
    else:
        writer.writerow([doc])


def _parse_kv(tokens: list[str]) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        out[k] = v
    return out


def _rr_from_kv(kv: dict[str, str]) -> Channel:
    unknown = set(kv) - {"k", "eps"}
    if unknown:
        raise ValueError(f"unknown randomized-response parameters {sorted(unknown)}")
    if "k" not in kv or "eps" not in kv:
        raise ValueError("randomized response needs k=<int> eps=<float>")
    return randomized_response(int(kv["k"]), float(kv["eps"]))


def _load_channel_spec(spec: str) -> Channel:
    """Channel from a file path or an inline 'rr:k=2,eps=1.1' spec."""
    if spec.startswith("rr:"):
        return _rr_from_kv(_parse_kv(spec[3:].split(",")))
    return load_json(spec, Channel.from_json_dict)


def _load_prior(spec: str, channel: Channel) -> Dist:
    if spec == "uniform":
        return Dist.uniform(channel.input_outcomes)
    return load_json(spec, Dist.from_json_dict)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_verify_bound(args) -> int:
    if (args.rr is None) == (args.channel is None):
        raise ValueError("provide exactly one of --rr or --channel")
    chan = _rr_from_kv(_parse_kv(args.rr)) if args.rr else _load_channel_spec(args.channel)
    prior = _load_prior(args.prior, chan)
    cert = check_mi_bound(chan, prior)
    _emit(cert.to_json_dict(), args.fmt, args.out)
    return EXIT_OK if cert.holds else EXIT_BOUND_VIOLATED


def cmd_sweep(args) -> int:
    result = bound_sweep(args.cases, seed=args.seed)
    _emit(result.to_json_dict(), args.fmt, args.out)
    return EXIT_OK if result.violations == 0 else EXIT_BOUND_VIOLATED


def cmd_leakage(args) -> int:
    if (args.net is None) == (args.scenario is None):
        raise ValueError("provide exactly one of --net or --scenario")
    report = None
    if args.scenario == "twins":
        net, report = causal.twins_scenario(q=args.q)
        message = args.message or "Z"
    elif args.scenario == "ballot":
        net, report = causal.ballot_scenario(args.n)
        message = args.message or "T"
    elif args.scenario == "fork-collider":
        net = causal.fork_collider_graph(seed=args.seed)
        message = args.message or "M"
    elif args.scenario is not None:
        raise ValueError(f"unknown scenario {args.scenario!r} (twins|ballot|fork-collider)")
    else:
        net = causal.load_net(args.net)
        if args.message is None:
            raise ValueError("--message is required with --net")
        message = args.message
    profile = causal.leakage_profile(net, message)
    doc = profile.to_json_dict()
    if report is not None:
        doc["report"] = report
    if args.emit_net:
        _emit(causal.net_to_json_dict(net), "json", args.emit_net)
    _emit(doc if args.fmt == "json" else profile.rows_sorted(), args.fmt, args.out)
    return EXIT_OK


def _attribution_records(result, scenario) -> list[dict]:
    attribution = scenario.attribution
    if not attribution:
        return []
    with malformed("scenario attribution"):
        net_spec = attribution["net"]
        net = causal.load_net(net_spec) if isinstance(net_spec, str) else causal.net_from_json_dict(net_spec)
        pairs = causal.attribute_flows(
            result.events,
            net,
            ownership=attribution.get("ownership", {}),
            threshold=float(attribution.get("threshold", 1e-6)),
            window=scenario.window,
            node_of=attribution.get("message_nodes"),
        )
    return [
        {
            "record": "induced-context",
            "cause": c1.to_json_dict(),
            "context": c2.to_json_dict(),
            "flows": [f.to_json_dict() for f in c2.flows],
        }
        for c1, c2 in pairs
    ]


def cmd_simulate(args) -> int:
    scenario = society.load_scenario(args.scenario)
    result = society.simulate(scenario)
    records = result.records() + _attribution_records(result, scenario)
    ledger_rows = society.ledger_report(result.ledger)
    if args.out is None:
        _emit({"events": records, "ledger": ledger_rows}, "json")
        return EXIT_OK
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.fmt == "json":
        with open(outdir / "events.jsonl", "w") as fh:
            society.write_events_jsonl(records, fh)
        _emit(ledger_rows, "json", outdir / "ledger.json")
    else:
        flat = []
        for rec in records:
            if rec["record"] == "induced-context":
                for f in rec["flows"]:
                    flat.append({**f, "record": "induced-flow"})
            else:
                flat.append(rec)
        with open(outdir / "events.csv", "w", newline="") as fh:
            society.write_events_csv(flat, fh)
        _emit(ledger_rows, "csv", outdir / "ledger.csv")
    return EXIT_OK


def cmd_anon(args) -> int:
    release = read_table(args.release, args.roles)
    if (args.aux is None) == (args.dp is None):
        raise ValueError("provide exactly one of AUX or --dp")
    if args.aux is not None:
        aux = read_table(args.aux, args.aux_roles)
        report = linkage_attack(release, aux)
        _emit(report.to_json_dict(), args.fmt, args.out)
        return EXIT_OK
    if args.sensitive is None:
        raise ValueError("--sensitive is required with --dp")
    spec = args.dp.removeprefix("eps=")
    eps = None if spec == "none" else float(spec)
    released, cert = dp_release(release, args.sensitive, eps, seed=args.seed)
    if args.release_out:
        write_table(released, args.release_out)
    _emit(cert.to_json_dict(), args.fmt, args.out)
    return EXIT_OK


def cmd_compose(args) -> int:
    c1 = _load_channel_spec(args.first)
    c2 = _load_channel_spec(args.second)
    product = compose(c1, c2)
    prior = _load_prior(args.prior, product)
    cert = check_mi_bound(product, prior)
    doc = {
        "channel": product.to_json_dict(),
        "eps_report": realized_epsilon(product).to_json_dict(),
        "certificate": cert.to_json_dict(),
    }
    _emit(doc, args.fmt, args.out)
    return EXIT_OK if cert.holds else EXIT_BOUND_VIOLATED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="write the report here instead of stdout")

    parser = argparse.ArgumentParser(prog="infoflow", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify-bound", parents=[common], help="certify the information cap of a channel")
    p.add_argument("--rr", nargs="+", metavar="k=K eps=E", help="randomized-response generator spec")
    p.add_argument("--channel", help="channel JSON file")
    p.add_argument("--prior", default="uniform", help="prior JSON file or 'uniform'")
    p.set_defaults(handler=cmd_verify_bound)

    p = sub.add_parser("sweep", parents=[common], help="randomized information-cap sweep")
    p.add_argument("--cases", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0, help="seed of the random channels and priors")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("leakage", parents=[common], help="per-node leakage profile of a message")
    p.add_argument("--net", help="network JSON file")
    p.add_argument("--message", help="message node name")
    p.add_argument("--scenario", help="built-in scenario: twins|ballot|fork-collider")
    p.add_argument("--n", type=int, default=3, help="voters for the ballot scenario")
    p.add_argument("--q", type=float, default=0.5, help="ancestry-switch prior for the twins scenario")
    p.add_argument("--seed", type=int, default=42, help="seed of the fork-collider scenario's CPTs")
    p.add_argument("--emit-net", help="also write the network JSON here")
    p.set_defaults(handler=cmd_leakage)

    p = sub.add_parser("simulate", parents=[common], help="run a scenario and write its logs")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("anon", parents=[common], help="linkage attack or randomized release of a table")
    p.add_argument("release", help="released CSV (roles sidecar: <file>.roles.json)")
    p.add_argument("aux", nargs="?", help="auxiliary CSV for the linkage attack")
    p.add_argument("--dp", help="eps for a randomized release of --sensitive ('none' = identity)")
    p.add_argument("--sensitive", help="sensitive column to randomize")
    p.add_argument("--roles", help="override the release roles sidecar")
    p.add_argument("--aux-roles", help="override the auxiliary roles sidecar")
    p.add_argument("--release-out", help="write the released CSV here")
    p.add_argument("--seed", type=int, default=0, help="seed of the randomized release")
    p.set_defaults(handler=cmd_anon)

    p = sub.add_parser("compose", parents=[common], help="product of two channels plus its certificate")
    p.add_argument("first", help="channel JSON file or rr:k=K,eps=E")
    p.add_argument("second", help="channel JSON file or rr:k=K,eps=E")
    p.add_argument("--prior", default="uniform")
    p.set_defaults(handler=cmd_compose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
