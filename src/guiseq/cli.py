"""Command-line front end.

Subcommands mirror the pipeline stages: ``rip`` an application model into an
event-flow graph, build the ``edg`` from a program model, ``gen`` sequences,
``replay`` them, compare ``report`` files, and ``export-dot`` either graph,
the one way to a graph's DOT form.

Exit codes: 0 on success, 1 when a replay found failing (or, without
``--allow-broken``, broken) test cases, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence
from contextlib import contextmanager
from pathlib import Path

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


def _seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of every command in :data:`_COMMANDS`, with only
    ``command``'s arguments: one call runs one."""
    parser = argparse.ArgumentParser(
        prog="guiseq",
        description="Grey-box GUI test-sequence generation and replay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments if name == command else ():
            p.add_argument(flag, **options)
    return parser


_EFG = "event-flow graph (with initial events)"


@contextmanager
def _naming(path: Path):
    """Prefix ``path`` to a :class:`GuiseqError` raised inside: the input
    file whose content caused it, such as a model's unbounded recursion."""
    try:
        yield
    except GuiseqError as exc:
        raise GuiseqError(f"{path}: {exc}") from None


def _load(path: Path, kind: type, what: str):
    """The graph at ``path``, which must be a ``kind``, named ``what`` if not."""
    g = load_graph(path)
    if not isinstance(g, kind):
        raise GuiseqError(f"{path}: expected an {what}")
    return g


def _cmd_rip(args: argparse.Namespace) -> int:
    model = load_app_model(args.model)
    with _naming(args.model):
        structure = rip(model)
    efg = build_efg_from_structure(structure)
    save_graph(efg, args.out)
    if args.structure is not None:
        save_structure(structure, args.structure)
    print(
        f"ripped {model.name}: {len(efg.events)} events, "
        f"{len(efg.initials)} initial, {len(efg.edges)} edges -> {args.out}"
    )
    return 0


def _cmd_edg(args: argparse.Namespace) -> int:
    program = load_program_model(args.ir)
    efg = _load(args.efg, Efg, _EFG)
    with _naming(args.ir):
        edg, warnings = build_edg(build_class_db(program), efg)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    save_graph(edg, args.out)
    print(f"built dependency graph: {len(edg.edges)} edges -> {args.out}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    preset = PRESETS.get(args.config)
    mode = args.mode or (preset.mode if preset else None)
    length = args.length if args.length is not None else (preset.length if preset else None)
    top = args.top if args.top is not None else (preset.top if preset else None)
    if mode is None or length is None:
        raise GuiseqError("gen needs --config, or --mode and --length")
    efg = _load(args.efg, Efg, _EFG)
    edg = None
    if mode == "greybox":
        if args.edg is None:
            raise GuiseqError("grey-box generation needs --edg")
        edg = _load(args.edg, Edg, "event-dependency graph (weighted edges)")
    config = GenConfig(mode, length, top)
    result = generate_sequences(config, efg, edg)
    for d in result.diagnostics:
        print(f"warning: {d}", file=sys.stderr)
    save_sequences(result.records, args.out)
    print(f"generated {len(result.records)} sequences -> {args.out}")
    return 0


def _check_sequences(model: AppModel, records: Sequence[SequenceRecord]) -> None:
    """Reject, before any case runs, a record whose events the model does not
    declare or whose targets fall outside its events: one scan in file
    order, each event looked up where it occurs."""
    known = model.event_window
    for record in records:
        for event in record.events:
            if event not in known:
                raise GuiseqError(
                    f"sequence {record.id!r}: event {event!r} is not an event "
                    f"of model {model.name!r}"
                )
        for t in record.targets:
            if not 0 <= t < len(record.events):
                raise GuiseqError(
                    f"sequence {record.id!r}: target {t} is outside its "
                    f"{len(record.events)} events"
                )


def _cmd_replay(args: argparse.Namespace) -> int:
    model = load_app_model(args.model)
    records = load_sequences(args.sequences)
    with _naming(args.sequences):
        _check_sequences(model, records)
        cases = group_test_cases(records)
    with _naming(args.model):
        suite = run_suite(model, cases)
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
    table = render_report_table(list(zip(labels, docs)), args.gen_seconds, args.exec_seconds)
    print(table, end="")
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    dot = export_dot(load_graph(args.graph))
    if args.out is None:
        print(dot, end="")
    else:
        args.out.write_text(dot, encoding="utf-8")
    return 0


#: Each command's handler, help line and ``(flag, add_argument options)`` pairs.
_COMMANDS = {
    "rip": (_cmd_rip, "explore an application model into an event-flow graph", (
        ("--model", dict(required=True, type=Path, help="application model (JSON)")),
        ("--out", dict(required=True, type=Path, help="event-flow graph output (JSON)")),
        ("--structure", dict(type=Path, help="also write the observed GUI structure")),
    )),
    "edg": (_cmd_edg, "build the event-dependency graph from a program model", (
        ("--ir", dict(required=True, type=Path, help="program model (JSON)")),
        ("--efg", dict(required=True, type=Path, help="event-flow graph (JSON)")),
        ("--out", dict(required=True, type=Path, help="event-dependency graph output (JSON)")),
    )),
    "gen": (_cmd_gen, "generate executable test sequences", (
        ("--config", dict(choices=sorted(PRESETS), help="preset configuration")),
        ("--mode", dict(choices=["blackbox", "greybox"], help="generator mode")),
        ("--length", dict(type=int, help="events per generated sequence")),
        ("--top", dict(type=int, help="per-event sequence budget (grey-box)")),
        ("--efg", dict(required=True, type=Path, help="event-flow graph (JSON)")),
        ("--edg", dict(type=Path, help="event-dependency graph (grey-box only)")),
        ("--out", dict(required=True, type=Path, help="sequence output (JSON lines)")),
    )),
    "replay": (_cmd_replay, "execute generated sequences against a model", (
        ("--model", dict(required=True, type=Path, help="application model (JSON)")),
        ("--sequences", dict(required=True, type=Path, help="sequence file (JSON lines)")),
        ("--report", dict(required=True, type=Path, help="report output (JSON)")),
        ("--parallel", dict(
            type=_positive_int, default=1, help="accepted and ignored: replay runs in one thread"
        )),
        ("--allow-broken", dict(action="store_true", help="broken sequences do not fail the run")),
    )),
    "report": (_cmd_report, "tabulate one or more replay reports", (
        ("reports", dict(nargs="+", type=Path, help="report files (JSON)")),
        ("--label", dict(action="append", default=[], help="column label (repeatable)")),
        ("--gen-seconds", dict(
            action="append", default=[], type=_seconds,
            help="measured generation time per column (repeatable)",
        )),
        ("--exec-seconds", dict(
            action="append", default=[], type=_seconds,
            help="measured execution time per column (repeatable)",
        )),
    )),
    "export-dot": (_cmd_export_dot, "render a graph file as DOT", (
        ("--graph", dict(required=True, type=Path, help="graph file (JSON)")),
        ("--out", dict(type=Path, help="output path (stdout when omitted)")),
    )),
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The first command name is the command: no top-level option takes a value.
    args = _build_parser(next((a for a in argv if a in _COMMANDS), None)).parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (GuiseqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
