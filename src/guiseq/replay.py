"""Sequence replay: execute generated sequences against an application model.

A test case is the plain tuple of a record and its later split parts.  It
runs from a launch against fresh settings; each later part gets a fresh
launch on the settings the earlier parts left, and event positions count on
across parts.  After a clean run the application restarts once.  The
verdict is:

* **failed** — a crash in an event handler, in a launch block, or in the
  restart;
* **broken** — an event was not available when its turn came; the case
  stops there, but what ran still counts toward coverage;
* **passed** — everything ran and the restart came up clean.

Coverage is the union of what every launch and firing of the suite ran, as
statement and branch fractions of the model's coverage universe, rounded to
four decimals.

:func:`run_suite` fires each distinct first-part prefix once and forks where
cases part ways.  The coverage sink's memo, where a hit adds no coverage
(:class:`~guiseq.simulator.Coverage`), holds each restart's outcome by the
frozen settings, and each leaf's, a one-part case's last event, by a tuple
of them, the event and the values of the fields its handler reads: no call
key, a tuple that starts with a str, meets either.  Every
verdict, and the coverage, equals what :func:`run_test_case` computes from
scratch for each case, so neither sharing nor case order shows.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from functools import cache, cached_property, partial
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

from .appmodel import AppModel
from .generate import SequenceRecord
from .graphs import SCHEMA_VERSION, GuiseqError, QuotedStrings, Value, read_document, typed
from .simulator import (
    Coverage,
    CrashRecord,
    GuiState,
    UnavailableEventError,
    fire_event,
    is_available,
    launch,
)

__all__ = [
    "CaseResult",
    "SuiteResult",
    "group_test_cases",
    "run_test_case",
    "run_suite",
    "save_report",
    "load_report",
    "render_report_table",
]


def group_test_cases(records: Sequence[SequenceRecord]) -> list[tuple[SequenceRecord, ...]]:
    """Regroup a record stream into test cases, in the order of their first
    parts.  A case is the tuple of a first part and the split parts that
    continue it, in file order, wherever they sit after it."""
    cases: dict[str, tuple[SequenceRecord, ...]] = {}  # by first part's id, in order
    ids: set[str] = set()
    for record in records:
        if record.id in ids:
            raise GuiseqError(f"duplicate sequence id {record.id!r}")
        ids.add(record.id)
        if record.split_of is None:
            cases[record.id] = (record,)
        elif (case := cases.get(record.split_of)) is not None:
            cases[record.split_of] = (*case, record)
        else:
            raise GuiseqError(
                f"sequence {record.id!r} continues unknown sequence {record.split_of!r}"
            )
    return list(cases.values())


class CaseResult(Value):
    __slots__ = ()
    case: tuple[SequenceRecord, ...]
    verdict: str  # "passed" | "failed" | "broken"
    crash: CrashRecord | None = None
    broken_at: int | None = None


#: ``_result((case, verdict, crash, broken_at))`` is that :class:`CaseResult`,
#: built without the Python frame of ``Value.__new__``.  Pass all four
#: fields, in declaration order.
_result = partial(tuple.__new__, CaseResult)


def run_test_case(
    model: AppModel, case: tuple[SequenceRecord, ...], coverage: Coverage
) -> CaseResult:
    """Replay one case alone, from a launch against fresh settings, into
    ``coverage``; its memo of calls and restarts is shared by every run
    recording into it, so a sink serves one model."""
    state, crash = launch(model, {}, phase="launch", coverage=coverage)
    if crash is not None:
        return _result((case, "failed", crash, None))
    return _finish_case(case, state)


def _fire(state: GuiState, event: str, position: int) -> tuple | None:
    """Fire ``event`` on ``state`` as the event at ``position`` of a case:
    None if it ran, otherwise the case's ``(verdict, crash, broken_at)``."""
    try:
        crash = fire_event(state, event)
    except UnavailableEventError:
        return "broken", None, position
    if crash is not None:
        return "failed", CrashRecord(crash.kind, crash.statement, crash.phase, position), None
    return None


def _finish_case(case: tuple[SequenceRecord, ...], state: GuiState, start: int = 0) -> CaseResult:
    """Replay ``case`` on from ``state``, a live instance of its first part
    that has fired that part's first ``start`` events, recording into the
    state's coverage sink.  The restart is launched, into the same sink, once
    per settings snapshot the sink's memo has not seen; a hit adds no
    coverage, since the sink holds what that launch covered."""
    model, offset = state.model, 0
    for n, part in enumerate(case):
        if n:
            state, crash = launch(model, state.settings, phase="launch", coverage=state.coverage)
            if crash is not None:
                return _result((case, "failed", crash, None))
        for k in range(start, len(part.events)):
            if (verdict := _fire(state, part.events[k], offset + k)) is not None:
                return _result((case,) + verdict)
        offset += len(part.events)
        start = 0
    memo, key = state.coverage.memo, frozenset(state.settings.items())
    if key not in memo:
        memo[key] = launch(model, state.settings, phase="restart", coverage=state.coverage)[1]
    crash = memo[key]
    return _result((case, "passed" if crash is None else "failed", crash, None))


def _replay_tree(
    model: AppModel, cases: Sequence[tuple[SequenceRecord, ...]], coverage: Coverage
) -> list[CaseResult]:
    """Replay ``cases`` into ``coverage`` by a depth-first walk over the tree
    their first parts form, firing each distinct first-part prefix once.

    An entry of the walk is ``(state, depth, group)``: every case in
    ``group`` has a first part that begins with the ``depth`` events
    ``state`` has fired.  Each case that ends there, and each next event,
    uses the state; all but the last user get a fork of it.

    A next event that only ends one-part cases is a leaf.  Once the event is
    available, its outcome, the verdict of the fire and of the restart after
    it, depends only on its key: the event, the values of the fields its
    handler reads (:attr:`Program.handler_reads
    <guiseq.simulator.Program.handler_reads>`) and the settings.  No handler
    reads an enabled flag, and an exited state offers no event.  No handler
    reads the window stack either: ``open`` and ``close`` of a window other
    than the main one change no verdict, and the main window is open while
    the application runs, so closing it always exits.  So a leaf whose key
    the sink's memo holds is resolved without a fork or a fire: one check
    that the event is available, then the memoised verdict, an event crash
    moved to this position.
    """
    if not cases:
        return []
    root, crash = launch(model, {}, phase="launch", coverage=coverage)
    if crash is not None:  # every case fails the same way; nothing more runs
        return [_result((case, "failed", crash, None)) for case in cases]
    firsts = [case[0].events for case in cases]
    # the position of a one-part case's last event, where it may be a leaf;
    # -1 for a case with later parts
    last = [len(case[0].events) - 1 if len(case) == 1 else -1 for case in cases]
    results: list = [None] * len(cases)  # by position in ``cases``
    # what each event's handler reads, from the fields: one value, or a
    # tuple of them; an event whose handler reads none has no entry
    values = {e: itemgetter(*fields) for e, fields in model.program.handler_reads.items() if fields}
    memo = coverage.memo
    walk = [(root, 0, range(len(cases)))]
    while walk:
        state, depth, group = walk.pop()
        # each case that ends here, then each next event the memo does not
        # resolve: ``(event or None, cases, leaf key or None)``
        users: list[tuple[str | None, list[int], tuple | None]] = []
        branches: dict[str, list[int]] = {}
        for i in group:
            if len(firsts[i]) == depth:
                users.append((None, [i], None))
            else:
                branches.setdefault(firsts[i][depth], []).append(i)
        here = None  # the settings, if a leaf needs them
        for event, below in branches.items():
            key = None
            if last[below[0]] == depth and (
                len(below) == 1 or all(last[i] == depth for i in below)
            ):
                if here is None:
                    here = frozenset(state.settings.items())
                read = values.get(event)
                key = here, event, read and read(state.fields)
                if (verdict := memo.get(key)) is not None:
                    if not is_available(state, event):
                        verdict = "broken", None, depth
                    elif (crash := verdict[1]) is not None and crash.phase == "event":
                        crash = CrashRecord(crash.kind, crash.statement, crash.phase, depth)
                        verdict = "failed", crash, None
                    for i in below:
                        results[i] = _result((cases[i],) + verdict)
                    continue
            users.append((event, below, key))
        # all but the last user get a fork; a finishing case owns its state
        # too, since its later parts and its restart launch on its settings
        for n, (event, below, key) in enumerate(users, 1 - len(users)):
            own = state.fork() if n else state
            if event is None:  # the one case in ``below`` ends here
                results[below[0]] = _finish_case(cases[below[0]], own, depth)
                continue
            if key is None:
                if (verdict := _fire(own, event, depth)) is None:
                    walk.append((own, depth + 1, below))
                    continue
            else:
                verdict = _finish_case(cases[below[0]], own, depth)[1:]
                if verdict[0] != "broken":
                    memo[key] = verdict
            # nothing is shared past a crash or a broken event, or below a leaf
            for i in below:
                results[i] = _result((cases[i],) + verdict)
    return results


class SuiteResult(Value):
    model_name: str
    results: tuple[CaseResult, ...]
    statements_total: int
    branches_total: int
    covered_statements: frozenset[str]
    covered_branches: frozenset[str]
    entered_handlers: frozenset[str]

    def count(self, verdict: str) -> int:
        return self._verdicts[verdict]

    @cached_property
    def _verdicts(self) -> Counter[str]:
        return Counter(r.verdict for r in self.results)

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


def run_suite(model: AppModel, cases: Sequence[tuple[SequenceRecord, ...]]) -> SuiteResult:
    """Replay all cases in one thread with one coverage sink for the suite,
    firing each distinct first-part prefix once, and list their results in
    the order of ``cases``."""
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
            first = case[0]
            events, targets, more = first.events, first.targets, ""
            if len(case) > 1:  # events and targets span every part, and "parts" follows "id"
                events, targets, offset = [], [], 0
                for part in case:
                    events += part.events
                    targets += [offset + t for t in part.targets]
                    offset += len(part.events)
                targets = tuple(targets)
                more = f'"parts": {array(encode_basestring_ascii(p.id) for p in case)},\n      '
            out.write(
                f'{separator}{{\n      {head}"events": '
                f"{array(map(quoted.__getitem__, events))},"
                f'\n      "id": {encode_basestring_ascii(first.id)},\n      {more}'
                f'"targets": {targets_text(targets)},'
                f'\n      "verdict": {quoted[verdict]}\n    }}'
            )
            separator = ",\n    "
        out.write("\n  ]\n}\n" if suite.results else "[]\n}\n")


def _report_from_json(doc: dict) -> dict:
    summary = typed(doc["summary"], dict, "summary")
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

    ``columns`` pairs a label with a report document.  A timing cell shows
    "-" unless a measured value is supplied for its column — the report files
    themselves never carry wall-clock times, so repeated runs stay
    byte-identical.  More timing values than columns is an error.
    """

    def times(values: Sequence[float | None] | None) -> list[str]:
        values = values or ()
        if len(values) > len(columns):
            raise GuiseqError("more timing values than report files")
        cells = ["-" if v is None else f"{v:.2f}s" for v in values]
        return cells + ["-"] * (len(columns) - len(cells))

    rows = [
        ("", [label for label, _ in columns]),
        ("# es", [str(doc["summary"]["total"]) for _, doc in columns]),
        ("# broken es", [str(doc["summary"]["broken"]) for _, doc in columns]),
        ("gen t", times(gen_seconds)),
        ("exec t", times(exec_seconds)),
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
