"""Sequence replay: execute generated sequences against an application model.

A test case is a record plus its later split parts.  It runs from a launch
against fresh settings; each later part gets a fresh launch on the settings
the earlier parts left, and event positions count on across parts.  After
a clean run the application restarts once.  The verdict is:

* **failed** — a crash in an event handler, in a launch block, or in the
  restart;
* **broken** — an event was not available when its turn came; the case
  stops there, but what ran still counts toward coverage;
* **passed** — everything ran and the restart came up clean.

Coverage is the union of what every launch and firing of the suite ran, as
statement and branch fractions of the model's coverage universe, rounded to
four decimals.

:func:`run_suite` fires each distinct first-part prefix once and forks where
cases part ways; a restart is launched once per distinct settings content.
Every verdict, and the coverage, equals what :func:`run_test_case` computes
from scratch for each case, so neither sharing nor case order shows.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cache, cached_property, partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .appmodel import AppModel
from .generate import SequenceRecord
from .graphs import SCHEMA_VERSION, GuiseqError, QuotedStrings, read_document, typed
from .simulator import (
    Coverage,
    CrashRecord,
    GuiState,
    UnavailableEventError,
    fire_event,
    launch,
)

__all__ = [
    "TestCase",
    "CaseResult",
    "SuiteResult",
    "group_test_cases",
    "run_test_case",
    "run_suite",
    "save_report",
    "load_report",
    "render_report_table",
]


class TestCase(NamedTuple):
    """One replayable unit: a sequence record plus any later split parts."""

    parts: tuple[SequenceRecord, ...]

    @property
    def id(self) -> str:
        return self.parts[0].id

    @property
    def events(self) -> tuple[str, ...]:
        """All events across parts, in execution order."""
        return tuple(e for part in self.parts for e in part.events)

    @property
    def targets(self) -> tuple[int, ...]:
        """Target positions rebased onto the cumulative event list."""
        out: list[int] = []
        offset = 0
        for part in self.parts:
            out.extend(offset + t for t in part.targets)
            offset += len(part.events)
        return tuple(out)


def group_test_cases(records: Sequence[SequenceRecord]) -> list[TestCase]:
    """Regroup a record stream into test cases, attaching split parts to
    their first part.  Cases are built by ``tuple.__new__``, every field by
    position: the generated constructor runs a Python frame per case."""
    cases: dict[str, TestCase] = {}  # by first part's id, in order
    ids: set[str] = set()
    for record in records:
        if record.id in ids:
            raise GuiseqError(f"duplicate sequence id {record.id!r}")
        ids.add(record.id)
        if record.split_of is None:
            cases[record.id] = tuple.__new__(TestCase, ((record,),))
        elif (case := cases.get(record.split_of)) is not None:
            cases[record.split_of] = tuple.__new__(TestCase, (case.parts + (record,),))
        else:
            raise GuiseqError(
                f"sequence {record.id!r} continues unknown sequence {record.split_of!r}"
            )
    return list(cases.values())


class CaseResult(NamedTuple):
    case: TestCase
    verdict: str  # "passed" | "failed" | "broken"
    crash: CrashRecord | None = None
    broken_at: int | None = None


#: ``_result((case, verdict, crash, broken_at))`` is that :class:`CaseResult`,
#: built without the Python frame of its generated constructor.  Pass all
#: four fields, in declaration order.
_result = partial(tuple.__new__, CaseResult)


def run_test_case(model: AppModel, case: TestCase, coverage: Coverage) -> CaseResult:
    """Replay one case from a launch against fresh settings, sharing nothing,
    and record what it covers in ``coverage``."""
    state, crash = launch(model, {}, phase="launch", coverage=coverage)
    if crash is not None:
        return _result((case, "failed", crash, None))
    return _finish_case(model, case, state, {})


def _fire(state: GuiState, event: str, position: int) -> tuple | None:
    """Fire ``event`` on ``state`` as the event at ``position`` of a case:
    None if it ran, otherwise the case's ``(verdict, crash, broken_at)``."""
    try:
        crash = fire_event(state, event)
    except UnavailableEventError:
        return "broken", None, position
    if crash is not None:
        return "failed", dataclasses.replace(crash, position=position), None
    return None


def _finish_case(
    model: AppModel,
    case: TestCase,
    state: GuiState,
    restarts: dict[frozenset, CrashRecord | None],
    start: int = 0,
) -> CaseResult:
    """Replay ``case`` on from ``state``, a live instance of its first part
    that has fired that part's first ``start`` events, recording into the
    state's coverage sink.  ``restarts`` memoises the restart's crash by the
    frozen set of the settings' items; a snapshot missing from it is
    launched, into the same sink."""
    offset = 0
    for n, part in enumerate(case.parts):
        if n:
            state, crash = launch(model, state.settings, phase="launch", coverage=state.coverage)
            if crash is not None:
                return _result((case, "failed", crash, None))
        for k in range(start, len(part.events)):
            if (verdict := _fire(state, part.events[k], offset + k)) is not None:
                return _result((case,) + verdict)
        offset += len(part.events)
        start = 0
    key = frozenset(state.settings.items())
    if key not in restarts:
        restarts[key] = launch(model, state.settings, phase="restart", coverage=state.coverage)[1]
    crash = restarts[key]
    return _result((case, "passed" if crash is None else "failed", crash, None))


def _replay_tree(
    model: AppModel, cases: Sequence[TestCase], coverage: Coverage
) -> list[CaseResult]:
    """Replay ``cases`` into ``coverage`` by a depth-first walk over the tree
    their first parts form, firing each distinct first-part prefix once.

    An entry of the walk is ``(state, depth, group)``: every case in
    ``group`` has a first part that begins with the ``depth`` events
    ``state`` has fired.  Each case that ends there, and each next event,
    uses the state; all but the last user get a fork of it.
    """
    if not cases:
        return []
    root, crash = launch(model, {}, phase="launch", coverage=coverage)
    if crash is not None:  # every case fails the same way; nothing more runs
        return [_result((case, "failed", crash, None)) for case in cases]
    firsts = [case.parts[0].events for case in cases]
    results: list = [None] * len(cases)  # by position in ``cases``
    restarts: dict[frozenset, CrashRecord | None] = {}
    walk = [(root, 0, range(len(cases)))]
    while walk:
        state, depth, group = walk.pop()
        if len(group) == 1:
            i = group[0]
            results[i] = _finish_case(model, cases[i], state, restarts, depth)
            continue
        ending: list[int] = []
        branches: dict[str, list[int]] = {}
        for i in group:
            if len(firsts[i]) == depth:
                ending.append(i)
            else:
                branches.setdefault(firsts[i][depth], []).append(i)
        # A finishing case owns its state too: its later parts and its
        # restart launch on the state's settings.
        users = len(ending) + len(branches)
        for i in ending:
            users -= 1
            own = state if users == 0 else state.fork()
            results[i] = _finish_case(model, cases[i], own, restarts, depth)
        for event, below in branches.items():
            users -= 1
            own = state if users == 0 else state.fork()
            verdict = _fire(own, event, depth)
            if verdict is None:
                walk.append((own, depth + 1, below))
            else:  # nothing is shared past a crash or a broken event
                for i in below:
                    results[i] = _result((cases[i],) + verdict)
    return results


@dataclass(frozen=True)
class SuiteResult:
    model_name: str
    results: tuple[CaseResult, ...]
    statements_total: int
    branches_total: int
    covered_statements: frozenset[str]
    covered_branches: frozenset[str]
    entered_handlers: frozenset[str]

    def count(self, verdict: str) -> int:
        return self._verdicts.get(verdict, 0)

    @cached_property
    def _verdicts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.results:
            counts[r.verdict] = counts.get(r.verdict, 0) + 1
        return counts

    @property
    def statement_coverage(self) -> float:
        if self.statements_total == 0:
            return 1.0
        return round(len(self.covered_statements) / self.statements_total, 4)

    @property
    def branch_coverage(self) -> float:
        if self.branches_total == 0:
            return 1.0
        return round(len(self.covered_branches) / self.branches_total, 4)


def run_suite(
    model: AppModel, cases: Sequence[TestCase], parallelism: int = 1
) -> SuiteResult:
    """Replay all cases with one coverage sink for the suite, firing each
    distinct first-part prefix once, and list their results in the order of
    ``cases``.  ``parallelism`` is accepted and ignored: replay runs in one
    thread."""
    coverage = Coverage()
    results = _replay_tree(model, cases, coverage)
    statements, branches = model.coverage_universe
    return SuiteResult(
        model_name=model.name,
        results=tuple(results),
        statements_total=len(statements),
        branches_total=len(branches),
        covered_statements=frozenset(coverage.statements),
        covered_branches=frozenset(coverage.branches),
        entered_handlers=frozenset(coverage.handlers),
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def save_report(suite: SuiteResult, path: Path | str) -> None:
    """Write the report of ``suite``: the bytes of ``json.dumps(doc,
    indent=2, sort_keys=True)`` and a final newline, where ``doc`` is the
    document its oracle ``tests/oracles.py::report_to_json`` builds.  The
    text is rendered straight from ``suite``, summary first, and each test's
    text is written as soon as it is rendered, so the whole report is never
    held at once.  Each event is quoted once and each distinct targets tuple
    rendered once."""
    quoted = QuotedStrings()

    def array(items: Iterable[str]) -> str:
        body = ",\n        ".join(items)
        return "[\n        " + body + "\n      ]" if body else "[]"

    targets_text = cache(lambda targets: array(map(str, targets)))

    summary = (
        ("branchCoverage", repr(suite.branch_coverage)),
        ("branchesCovered", len(suite.covered_branches)),
        ("branchesTotal", suite.branches_total),
        ("broken", suite.count("broken")),
        ("failed", suite.count("failed")),
        ("passed", suite.count("passed")),
        ("statementCoverage", repr(suite.statement_coverage)),
        ("statementsCovered", len(suite.covered_statements)),
        ("statementsTotal", suite.statements_total),
        ("total", len(suite.results)),
    )
    with open(path, "w", encoding="utf-8") as out:
        out.write(
            '{\n  "model": ' + encode_basestring_ascii(suite.model_name)
            + f',\n  "schemaVersion": {SCHEMA_VERSION},\n  "summary": {{\n    '
            + ",\n    ".join(f'"{key}": {value}' for key, value in summary)
            + '\n  },\n  "tests": '
        )
        separator = "[\n    "
        for case, verdict, crash, broken_at in suite.results:
            # A test's optional keys, each with its separator, before "events"
            head = "" if broken_at is None else f'"brokenAt": {broken_at},\n      '
            if crash is not None:
                position = "null" if crash.position is None else str(crash.position)
                head += (
                    f'"crash": {{\n        "kind": {quoted[crash.kind]},'
                    f'\n        "phase": {quoted[crash.phase]},'
                    f'\n        "position": {position},'
                    f'\n        "statement": {quoted[crash.statement]}\n      }},\n      '
                )
            if len(case.parts) == 1:
                sequence, more = case.parts[0], ""
            else:  # and "parts" after "id"; events and targets span every part
                sequence = case
                ids = array(encode_basestring_ascii(p.id) for p in case.parts)
                more = f'"parts": {ids},\n      '
            out.write(
                f'{separator}{{\n      {head}"events": '
                f"{array(map(quoted.__getitem__, sequence.events))},"
                f'\n      "id": {encode_basestring_ascii(sequence.id)},\n      {more}'
                f'"targets": {targets_text(sequence.targets)},'
                f'\n      "verdict": {quoted[verdict]}\n    }}'
            )
            separator = ",\n    "
        out.write("\n  ]\n}\n" if suite.results else "[]\n}\n")


def _report_from_json(doc: dict) -> dict:
    summary = doc["summary"]
    total = typed(summary["total"], int, "summary 'total'")
    broken = typed(summary["broken"], int, "summary 'broken'")
    if total < 0:
        raise ValueError(f"summary 'total' is {total}, not a count of 0 or more")
    if not 0 <= broken <= total:
        raise ValueError(f"summary 'broken' is {broken}, not a count from 0 to the total {total}")
    for key in ("statementCoverage", "branchCoverage"):
        if type(summary[key]) not in (int, float) or not 0 <= summary[key] <= 1:
            raise TypeError(f"summary {key!r} is {summary[key]!r}, not a number from 0 to 1")
    return doc


def load_report(path: Path | str) -> dict:
    """A replay report, checked for the summary figures the table shows."""
    return read_document(path, "replay report", _report_from_json)


def render_report_table(
    columns: Sequence[tuple[str, dict]],
    gen_seconds: Sequence[float | None] | None = None,
    exec_seconds: Sequence[float | None] | None = None,
) -> str:
    """Side-by-side summary of replay reports.

    ``columns`` pairs a label with a report document.  Timing rows show "-"
    unless measured values are supplied — the report files themselves never
    carry wall-clock times, so repeated runs stay byte-identical.
    """
    gen_seconds = gen_seconds or [None] * len(columns)
    exec_seconds = exec_seconds or [None] * len(columns)

    def fmt_time(value: float | None) -> str:
        return "-" if value is None else f"{value:.2f}s"

    rows = [
        ("", [label for label, _ in columns]),
        ("# es", [str(doc["summary"]["total"]) for _, doc in columns]),
        ("# broken es", [str(doc["summary"]["broken"]) for _, doc in columns]),
        ("gen t", [fmt_time(v) for v in gen_seconds]),
        ("exec t", [fmt_time(v) for v in exec_seconds]),
        ("line cov.", [f"{doc['summary']['statementCoverage']:.4f}" for _, doc in columns]),
        ("branch cov.", [f"{doc['summary']['branchCoverage']:.4f}" for _, doc in columns]),
    ]
    label_width = max(len(name) for name, _ in rows)
    col_widths = [
        max(len(rows[r][1][c]) for r in range(len(rows)))
        for c in range(len(columns))
    ]
    lines = []
    for name, cells in rows:
        padded = [cell.ljust(col_widths[i]) for i, cell in enumerate(cells)]
        lines.append((name.ljust(label_width) + " | " + " | ".join(padded)).rstrip())
    return "\n".join(lines) + "\n"
