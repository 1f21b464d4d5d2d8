"""Command-line interface.

Subcommands: verify-bound, sweep, leakage, simulate, anon, compose.
Reports and input documents are strict JSON (reports in CSV via --format
csv). Exit codes: 0 ok, 1 information-cap violated (a theorem-check
failure that should never occur), 2 input error, 3 capacity exceeded.
``-v`` before the subcommand writes the infoflow loggers' DEBUG lines
(timings and sizes) to stderr; reports are the same bytes either way.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import logging
import sys
from pathlib import Path

from . import causal, society
from .anonymity import dp_release, linkage_attack, read_table, table_files
from .channels import Channel, _check_eps, bound_sweep, check_mi_bound, compose, randomized_response, realized_epsilon
from .measures import CapacityError, Dist, _check_keys, _distinct, load_json, malformed

EXIT_OK = 0
EXIT_BOUND_VIOLATED = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3


def _emit(report, fmt: str, out, files) -> None:
    """Write each ``(path, write)`` of ``files``, then ``report`` (if not None) to ``out``, or to stdout when None.

    Two outputs that name one file are refused before any is opened; if any step fails, no file written is kept.
    """
    outputs, buf = list(files), io.StringIO()
    if report is not None and out is None:  # the stdout text, built before any file
        _write(report, fmt, buf)
    elif report is not None:
        outputs.append((out, lambda fh: _write(report, fmt, fh)))
    if len(outputs) > 1:  # resolving a path costs a stat per component; one output cannot repeat
        _distinct([str(Path(path).resolve()) for path, _ in outputs], "output file")
    written = []
    try:
        for path, write in outputs:
            with open(path, "w", newline="") as fh:
                written.append(path)
                write(fh)
    except BaseException:
        for path in written:
            Path(path).unlink()
        raise
    sys.stdout.write(buf.getvalue())


def _write(doc, fmt: str, fh) -> None:
    if fmt == "json":
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
        return
    writer = csv.writer(fh, lineterminator="\n")
    if isinstance(doc, dict):
        writer.writerow(["key", "value"])
        for k in sorted(doc):
            writer.writerow([k, json.dumps(doc[k], sort_keys=True, allow_nan=False)])
    elif doc:  # a table: one row per dict; an empty table is an empty file
        fields = sorted({k for row in doc for k in row})
        writer.writerow(fields)
        for row in doc:
            writer.writerow([row.get(k, "") for k in fields])


def _parse_kv(tokens: list[str]) -> dict[str, str]:
    for tok in tokens:
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
    pairs = [tok.split("=", 1) for tok in tokens]
    _distinct([k for k, _ in pairs], "randomized-response key")
    return dict(pairs)


def _rr_from_kv(kv: dict[str, str]) -> Channel:
    _check_keys(kv, ("k", "eps"), "randomized-response")
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
# subcommand handlers: each returns (exit code, report or None, (path, write) files), and main writes them
# ---------------------------------------------------------------------------


def cmd_verify_bound(args):
    if (args.rr is None) == (args.channel is None):
        raise ValueError("provide exactly one of --rr or --channel")
    chan = _rr_from_kv(_parse_kv(args.rr)) if args.rr else _load_channel_spec(args.channel)
    prior = _load_prior(args.prior, chan)
    cert = check_mi_bound(chan, prior)
    return EXIT_OK if cert.holds else EXIT_BOUND_VIOLATED, cert.to_json_dict(), ()


def cmd_sweep(args):
    result = bound_sweep(args.cases, seed=args.seed)
    return EXIT_OK if result.violations == 0 else EXIT_BOUND_VIOLATED, result.to_json_dict(), ()


def cmd_leakage(args):
    if (args.net is None) == (args.scenario is None):
        raise ValueError("provide exactly one of --net or --scenario")
    own = (("--q", "twins", args.q), ("--n", "ballot", args.n), ("--seed", "fork-collider", args.seed))
    stray = [f"{opt} only with --scenario {name}" for opt, name, v in own if v is not None and args.scenario != name]
    if stray:
        raise ValueError("; ".join(stray))
    report = None
    if args.scenario == "twins":
        net, report = causal.twins_scenario(q=0.5 if args.q is None else args.q)
        message = args.message or "Z"
    elif args.scenario == "ballot":
        net, report = causal.ballot_scenario(3 if args.n is None else args.n)
        message = args.message or "T"
    elif args.scenario == "fork-collider":
        net = causal.fork_collider_graph(seed=42 if args.seed is None else args.seed)
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
    files = [(args.emit_net, lambda fh: _write(causal.net_to_json_dict(net), "json", fh))] if args.emit_net else []
    return EXIT_OK, doc if args.fmt == "json" else profile.rows_sorted(), files


def cmd_simulate(args):
    if args.out is None and args.fmt == "csv":
        raise ValueError("simulate --format csv writes events.csv and ledger.csv: it needs --out")
    scenario = society.load_scenario(args.scenario)
    # a bad attribution block is refused before the run
    attribution = causal.load_attribution(scenario, Path(args.scenario).parent)
    result = society.simulate(scenario)
    with malformed("scenario attribution"):
        induced = causal.attribute_flows(result.events, **attribution) if attribution else []
    if args.out is None:
        return EXIT_OK, {"events": result.records(induced), "ledger": society.ledger_report(result.ledger)}, ()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.fmt == "json":
        return EXIT_OK, None, [
            (outdir / "events.jsonl", lambda fh: society.write_events_jsonl(result, fh, induced)),
            (outdir / "ledger.json", lambda fh: society.write_ledger_json(result.ledger, fh))]
    return EXIT_OK, None, [
        (outdir / "events.csv", lambda fh: society.write_events_csv(result, fh, induced)),
        (outdir / "ledger.csv", lambda fh: _write(society.ledger_report(result.ledger), "csv", fh))]


def cmd_anon(args):
    # the option combination is checked before any table is read
    if (args.aux is None) == (args.dp is None):
        raise ValueError("provide exactly one of AUX or --dp")
    if args.aux is not None:
        mode, only = "--dp", {"--sensitive": args.sensitive, "--seed": args.seed, "--release-out": args.release_out}
    else:
        mode, only = "AUX", {"--aux-roles": args.aux_roles}
    stray = [opt for opt, v in only.items() if v is not None]
    if stray:
        raise ValueError(f"{', '.join(stray)}: only with {mode}")
    if args.aux is not None:
        report = linkage_attack(read_table(args.release, args.roles), read_table(args.aux, args.aux_roles))
        return EXIT_OK, report.to_json_dict(), ()
    if args.sensitive is None:
        raise ValueError("--sensitive is required with --dp")
    spec = args.dp.removeprefix("eps=")
    eps = None if spec == "none" else float(spec)
    if eps is not None:
        _check_eps(eps)
    seed = 0 if args.seed is None else args.seed
    released, cert = dp_release(read_table(args.release, args.roles), args.sensitive, eps, seed=seed)
    return EXIT_OK, cert.to_json_dict(), table_files(released, args.release_out) if args.release_out else ()


def cmd_compose(args):
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
    return EXIT_OK if cert.holds else EXIT_BOUND_VIOLATED, doc, ()


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call rather than at import."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="write the report here instead of stdout")

    parser = argparse.ArgumentParser(prog="infoflow", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="write the infoflow loggers' DEBUG lines (timings and sizes) to stderr")
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
    p.add_argument("--n", type=int, help="voters of the ballot scenario (only with it; default 3)")
    p.add_argument("--q", type=float, help="ancestry-switch prior of the twins scenario (only with it; default 0.5)")
    p.add_argument("--seed", type=int, help="seed of the fork-collider scenario's CPTs (only with it; default 42)")
    p.add_argument("--emit-net", help="also write the network JSON here")
    p.set_defaults(handler=cmd_leakage)

    p = sub.add_parser("simulate", parents=[common], help="run a scenario and write its logs")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("anon", parents=[common], help="linkage attack or randomized release of a table")
    p.add_argument("release", help="released CSV (roles sidecar: <file>.roles.json)")
    p.add_argument("aux", nargs="?", help="auxiliary CSV for the linkage attack")
    p.add_argument("--dp", help="eps for a randomized release of --sensitive ('none' = identity)")
    p.add_argument("--sensitive", help="sensitive column to randomize (only with --dp)")
    p.add_argument("--roles", help="override the release roles sidecar")
    p.add_argument("--aux-roles", help="override the auxiliary roles sidecar (only with AUX)")
    p.add_argument("--release-out", help="write the released CSV here (only with --dp)")
    p.add_argument("--seed", type=int, default=None, help="seed of the randomized release (only with --dp; default 0)")
    p.set_defaults(handler=cmd_anon)

    p = sub.add_parser("compose", parents=[common], help="product of two channels plus its certificate")
    p.add_argument("first", help="channel JSON file or rr:k=K,eps=E")
    p.add_argument("second", help="channel JSON file or rr:k=K,eps=E")
    p.add_argument("--prior", default="uniform")
    p.set_defaults(handler=cmd_compose)
    return parser


@contextlib.contextmanager
def _debug_to_stderr(on: bool):
    """Write the ``infoflow.*`` loggers' DEBUG lines to stderr for one command, when ``on``."""
    if not on:
        yield
        return
    logger = logging.getLogger("infoflow")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    with _debug_to_stderr(args.verbose):
        try:
            code, report, files = args.handler(args)
            _emit(report, args.fmt, args.out, files)
            return code
        except CapacityError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CAPACITY
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
