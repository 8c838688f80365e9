"""Command-line front end.

Subcommands mirror the pipeline stages: ``rip`` an application model into an
event-flow graph, build the ``edg`` from a program model, ``gen`` sequences,
``replay`` them, compare ``report`` files, and ``export-dot`` either graph.

Exit codes: 0 on success, 1 when a replay found failing (or, without
``--allow-broken``, broken) test cases, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

from .appmodel import AppModel, load_app_model
from .generate import (
    GenConfig,
    PRESETS,
    SequenceRecord,
    generate_sequences,
    load_sequences,
    save_sequences,
)
from .graphs import Edg, Efg, GuiseqError, export_dot, load_graph, save_graph
from .programdb import build_class_db, build_edg, load_program_model
from .replay import (
    group_test_cases,
    load_report,
    render_report_table,
    run_suite,
    save_report,
)
from .ripper import build_efg_from_structure, rip, save_structure

__all__ = ["main", "entrypoint"]


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guiseq",
        description="Grey-box GUI test-sequence generation and replay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rip", help="explore an application model into an event-flow graph")
    p.add_argument("--model", required=True, type=Path, help="application model (JSON)")
    p.add_argument("--out", required=True, type=Path, help="event-flow graph output (JSON)")
    p.add_argument("--structure", type=Path, help="also write the observed GUI structure")
    p.add_argument("--dot", type=Path, help="also write the graph in DOT form")

    p = sub.add_parser("edg", help="build the event-dependency graph from a program model")
    p.add_argument("--ir", required=True, type=Path, help="program model (JSON)")
    p.add_argument("--efg", required=True, type=Path, help="event-flow graph (JSON)")
    p.add_argument("--out", required=True, type=Path, help="event-dependency graph output (JSON)")
    p.add_argument("--dot", type=Path, help="also write the graph in DOT form")

    p = sub.add_parser("gen", help="generate executable test sequences")
    p.add_argument("--config", choices=sorted(PRESETS), help="preset configuration")
    p.add_argument("--mode", choices=["blackbox", "greybox"], help="generator mode")
    p.add_argument("--length", type=int, help="events per generated sequence")
    p.add_argument("--top", type=int, help="per-event sequence budget (grey-box)")
    p.add_argument("--efg", required=True, type=Path, help="event-flow graph (JSON)")
    p.add_argument("--edg", type=Path, help="event-dependency graph (grey-box only)")
    p.add_argument("--out", required=True, type=Path, help="sequence output (JSON lines)")

    p = sub.add_parser("replay", help="execute generated sequences against a model")
    p.add_argument("--model", required=True, type=Path, help="application model (JSON)")
    p.add_argument("--sequences", required=True, type=Path, help="sequence file (JSON lines)")
    p.add_argument("--report", required=True, type=Path, help="report output (JSON)")
    p.add_argument(
        "--parallel",
        type=_positive_int,
        default=1,
        help="accepted and ignored: replay runs in one thread",
    )
    p.add_argument(
        "--allow-broken",
        action="store_true",
        help="broken sequences do not fail the run",
    )

    p = sub.add_parser("report", help="tabulate one or more replay reports")
    p.add_argument("reports", nargs="+", type=Path, help="report files (JSON)")
    p.add_argument("--label", action="append", default=[], help="column label (repeatable)")
    p.add_argument(
        "--gen-seconds",
        action="append",
        default=[],
        type=float,
        help="measured generation time per column (repeatable)",
    )
    p.add_argument(
        "--exec-seconds",
        action="append",
        default=[],
        type=float,
        help="measured execution time per column (repeatable)",
    )

    p = sub.add_parser("export-dot", help="render a graph file as DOT")
    p.add_argument("--graph", required=True, type=Path, help="graph file (JSON)")
    p.add_argument("--out", type=Path, help="output path (stdout when omitted)")

    return parser


@contextmanager
def _naming(path: Path):
    """Prefix ``path`` to a :class:`GuiseqError` raised inside: the input
    file whose content caused it, such as a model's unbounded recursion."""
    try:
        yield
    except GuiseqError as exc:
        raise GuiseqError(f"{path}: {exc}") from None


def _load_efg(path: Path) -> Efg:
    g = load_graph(path)
    if not isinstance(g, Efg):
        raise GuiseqError(f"{path}: expected an event-flow graph (with initial events)")
    return g


def _load_edg(path: Path) -> Edg:
    g = load_graph(path)
    if not isinstance(g, Edg):
        raise GuiseqError(f"{path}: expected an event-dependency graph (weighted edges)")
    return g


def _cmd_rip(args: argparse.Namespace) -> int:
    model = load_app_model(args.model)
    with _naming(args.model):
        structure = rip(model)
    efg = build_efg_from_structure(structure)
    dot = None if args.dot is None else export_dot(efg)  # before any file is written
    save_graph(efg, args.out)
    if args.structure is not None:
        save_structure(structure, args.structure)
    if dot is not None:
        args.dot.write_text(dot, encoding="utf-8")
    print(
        f"ripped {model.name}: {len(efg.events)} events, "
        f"{len(efg.initials)} initial, {len(efg.edges)} edges -> {args.out}"
    )
    return 0


def _cmd_edg(args: argparse.Namespace) -> int:
    db = build_class_db(load_program_model(args.ir))
    efg = _load_efg(args.efg)
    edg, warnings = build_edg(db, efg)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    dot = None if args.dot is None else export_dot(edg)  # before any file is written
    save_graph(edg, args.out)
    if dot is not None:
        args.dot.write_text(dot, encoding="utf-8")
    print(f"built dependency graph: {len(edg.edges)} edges -> {args.out}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    preset = PRESETS.get(args.config)
    mode = args.mode or (preset.mode if preset else None)
    length = args.length if args.length is not None else (preset.length if preset else None)
    top = args.top if args.top is not None else (preset.top if preset else None)
    if mode is None or length is None:
        raise GuiseqError("gen needs --config, or --mode and --length")
    efg = _load_efg(args.efg)
    edg = None
    if mode == "greybox":
        if args.edg is None:
            raise GuiseqError("grey-box generation needs --edg")
        edg = _load_edg(args.edg)
    config = GenConfig(name="cli", mode=mode, length=length, top=top)
    result = generate_sequences(config, efg, edg)
    for d in result.diagnostics:
        print(f"warning: {d}", file=sys.stderr)
    save_sequences(result.records, args.out)
    print(f"generated {len(result.records)} sequences -> {args.out}")
    return 0


def _check_sequences(model: AppModel, records: Sequence[SequenceRecord], path: Path) -> None:
    """Reject, before any case runs, a record whose events the model does not
    declare or whose targets fall outside its events.  The distinct events
    are checked at once; only when one is unknown are the records scanned,
    for the first offender."""
    known = model.event_window
    try:
        all_known = known.keys() >= set().union(*[record.events for record in records])
    except TypeError:  # an unhashable event, such as a list
        all_known = False
    for record in records:
        for event in () if all_known else record.events:
            if type(event) is not str or event not in known:
                raise GuiseqError(
                    f"{path}: sequence {record.id!r}: event {event!r} is not an event "
                    f"of model {model.name!r}"
                )
        for t in record.targets:
            if not 0 <= t < len(record.events):
                raise GuiseqError(
                    f"{path}: sequence {record.id!r}: target {t} is outside its "
                    f"{len(record.events)} events"
                )


def _cmd_replay(args: argparse.Namespace) -> int:
    model = load_app_model(args.model)
    records = load_sequences(args.sequences)
    _check_sequences(model, records, args.sequences)
    with _naming(args.sequences):
        cases = group_test_cases(records)
    with _naming(args.model):
        suite = run_suite(model, cases, parallelism=args.parallel)
    save_report(suite, args.report)
    failed, broken = suite.count("failed"), suite.count("broken")
    print(
        f"replayed {len(suite.results)} test cases: {suite.count('passed')} passed, "
        f"{failed} failed, {broken} broken; "
        f"statement coverage {suite.statement_coverage:.4f}, "
        f"branch coverage {suite.branch_coverage:.4f}"
    )
    if failed > 0:
        return 1
    if broken > 0 and not args.allow_broken:
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    docs = [load_report(p) for p in args.reports]
    labels = args.label + [p.stem for p in args.reports[len(args.label) :]]
    if len(labels) != len(docs):
        raise GuiseqError("more labels than report files")
    times = args.gen_seconds + [None] * (len(docs) - len(args.gen_seconds))
    etimes = args.exec_seconds + [None] * (len(docs) - len(args.exec_seconds))
    if len(times) != len(docs) or len(etimes) != len(docs):
        raise GuiseqError("more timing values than report files")
    print(render_report_table(list(zip(labels, docs)), times, etimes), end="")
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    dot = export_dot(load_graph(args.graph))
    if args.out is None:
        print(dot, end="")
    else:
        args.out.write_text(dot, encoding="utf-8")
    return 0


_COMMANDS = {
    "rip": _cmd_rip,
    "edg": _cmd_edg,
    "gen": _cmd_gen,
    "replay": _cmd_replay,
    "report": _cmd_report,
    "export-dot": _cmd_export_dot,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GuiseqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
