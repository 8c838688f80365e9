"""Sequence replay: execute generated sequences against an application model.

Each test case walks five steps: select the sequence (grouping split parts
back into one case), prepare a pristine environment (a launch against a
fresh settings store — nothing leaks between cases), execute the events,
restart the application once after a clean run to let launch-time code meet
whatever the sequence persisted, and classify the outcome:

* **failed** — a crash, either while firing an event, in the launch block of
  one of the case's launches, or in the post-sequence restart;
* **broken** — some event was not available when its turn came, so the
  sequence does not describe a feasible interaction (flow-graph
  over-approximation caught in the act); the case stops there, but the
  prefix that did execute still counts toward coverage;
* **passed** — everything ran and the restart came up clean.

Split parts run back to back within one case — every part gets a fresh GUI
launch, while the settings store carries over — and event positions in
verdicts are cumulative across parts.  Coverage is the union over all
launches and firings of all cases, reported as statement and branch
fractions of the model's coverage universe, rounded to four decimals.

**Prefix sharing.**  The simulator is deterministic, so a case whose first
part begins with the same events as the previous case's need not launch and
fire them again.  :func:`run_suite` walks the cases in order and, before the
previous case fires past the point where the two first parts part ways, it
forks that state (:meth:`~guiseq.simulator.GuiState.fork`: own settings
store, windows, widget flags, fields and coverage); the case resumes from the
fork.  The one launch against fresh settings is shared the same way.  Nothing
is shared past a crash or a broken event, nor when the launch itself
crashes, and later parts never are: each launches against its own case's
settings.  The restart probe is shared too: a launch depends only on the
model and the settings' contents, so each chunk keeps the outcome of a
restart (covered statements and branches, and the crash) by a snapshot of
the settings (:meth:`~guiseq.simulator.SettingsStore.snapshot`) and
launches again only for a snapshot it has not seen.  Every case's result
equals what :func:`run_test_case`, which shares nothing, computes from
scratch.

Cases are still independent (own settings store, own GUI instances), which
is what makes parallel replay safe: ``parallelism`` N splits the cases into
N contiguous chunks, each replayed by the same prefix-sharing loop on a
thread of its own, and the results come back in case order.  The threads
do not run Python in parallel; the chunks only change where sharing starts
again, never the results.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Container, Iterable, Sequence

from .appmodel import AppModel
from .generate import SequenceRecord
from .graphs import SCHEMA_VERSION, GuiseqError, QuotedStrings, read_document
from .simulator import (
    CrashRecord,
    GuiState,
    SettingsStore,
    fire_event,
    is_available,
    launch,
)

__all__ = [
    "TestCase",
    "CaseResult",
    "SuiteResult",
    "group_test_cases",
    "run_test_case",
    "run_suite",
    "report_to_json",
    "save_report",
    "load_report",
    "render_report_table",
]


@dataclass(frozen=True)
class TestCase:
    """One replayable unit: a sequence record plus any later split parts."""

    parts: tuple[SequenceRecord, ...]

    @property
    def id(self) -> str:
        return self.parts[0].id

    @property
    def events(self) -> tuple[str, ...]:
        """All events across parts, in execution order."""
        if len(self.parts) == 1:
            return self.parts[0].events
        return tuple(e for part in self.parts for e in part.events)

    @property
    def targets(self) -> tuple[int, ...]:
        """Target positions rebased onto the cumulative event list."""
        if len(self.parts) == 1:
            return self.parts[0].targets
        out: list[int] = []
        offset = 0
        for part in self.parts:
            out.extend(offset + t for t in part.targets)
            offset += len(part.events)
        return tuple(out)


def group_test_cases(records: Sequence[SequenceRecord]) -> list[TestCase]:
    """Regroup a record stream into test cases, attaching split parts to
    their first part."""
    groups: dict[str, list[SequenceRecord]] = {}
    order: list[str] = []
    for record in records:
        if record.split_of is None:
            if record.id in groups:
                raise GuiseqError(f"duplicate sequence id {record.id!r}")
            groups[record.id] = [record]
            order.append(record.id)
        else:
            if record.split_of not in groups:
                raise GuiseqError(
                    f"sequence {record.id!r} continues unknown sequence {record.split_of!r}"
                )
            groups[record.split_of].append(record)
    return [TestCase(parts=tuple(groups[i])) for i in order]


@dataclass(frozen=True)
class CaseResult:
    case: TestCase
    verdict: str  # "passed" | "failed" | "broken"
    crash: CrashRecord | None = None
    broken_at: int | None = None
    covered_statements: frozenset[str] = frozenset()
    covered_branches: frozenset[str] = frozenset()
    entered_handlers: frozenset[str] = frozenset()


#: What a restart leaves: its covered statements and branches, and its crash.
Restart = tuple[frozenset[str], frozenset[str], CrashRecord | None]


def run_test_case(model: AppModel, case: TestCase) -> CaseResult:
    """Replay one case from a launch against a fresh settings store."""
    state, crash = launch(model, SettingsStore(), phase="launch")
    return _finish_case(model, case, state, crash)


def _restart(model: AppModel, settings: SettingsStore) -> Restart:
    state, crash = launch(model, settings, phase="restart")
    return frozenset(state.covered_statements), frozenset(state.covered_branches), crash


def _finish_case(
    model: AppModel,
    case: TestCase,
    state: GuiState,
    crash: CrashRecord | None,
    start: int = 0,
    fork_at: Container[int] = (),
    saved: list[tuple[int, GuiState]] | None = None,
    restarts: dict[frozenset, Restart] | None = None,
) -> CaseResult:
    """Replay ``case`` on from ``state``, a live instance of its first part
    that has fired that part's first ``start`` events (``crash`` is its launch
    crash, if any).  At each first-part position in ``fork_at`` — before the
    event there, or after the part's last event — a fork of the state is
    pushed onto ``saved`` as ``(position, state)``.  ``restarts`` memoises
    the restart by :meth:`~guiseq.simulator.SettingsStore.snapshot`; without
    it, the restart is a launch."""
    statements: set[str] = set()
    branches: set[str] = set()
    handlers: set[str] = set()

    def absorb(state: GuiState) -> None:
        statements.update(state.covered_statements)
        branches.update(state.covered_branches)
        handlers.update(state.entered_handlers)

    def result(verdict: str, crash: CrashRecord | None = None, broken_at: int | None = None) -> CaseResult:
        return CaseResult(
            case=case,
            verdict=verdict,
            crash=crash,
            broken_at=broken_at,
            covered_statements=frozenset(statements),
            covered_branches=frozenset(branches),
            entered_handlers=frozenset(handlers),
        )

    offset = 0
    for n, part in enumerate(case.parts):
        if n:
            state, crash = launch(model, state.settings, phase="launch")
        if crash is not None:
            absorb(state)
            return result("failed", crash=crash)
        for k in range(start, len(part.events)):
            if k in fork_at:
                saved.append((k, state.fork()))
            event = part.events[k]
            if not is_available(state, event):
                absorb(state)
                return result("broken", broken_at=offset + k)
            outcome = fire_event(state, event)
            if outcome.crash is not None:
                absorb(state)
                return result(
                    "failed",
                    crash=dataclasses.replace(outcome.crash, position=offset + k),
                )
        if len(part.events) in fork_at:
            saved.append((len(part.events), state.fork()))
        absorb(state)
        offset += len(part.events)
        start, fork_at = 0, ()
    if restarts is None:
        restart = _restart(model, state.settings)
    else:
        key = state.settings.snapshot()
        restart = restarts.get(key)
        if restart is None:
            restart = restarts[key] = _restart(model, state.settings)
    restart_statements, restart_branches, crash = restart
    statements.update(restart_statements)
    branches.update(restart_branches)
    if crash is not None:
        return result("failed", crash=crash)
    return result("passed")


def _common_prefix(a: Sequence[str], b: Sequence[str]) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _run_chunk(model: AppModel, cases: Sequence[TestCase]) -> list[CaseResult]:
    """Replay ``cases`` in order, each case resuming from a fork of the state
    where its first part stops sharing events with the previous case's.

    ``saved`` holds untouched states as ``(events fired, state)``, the depth
    rising, the root (the one launch against fresh settings) at the bottom.
    A state stays only while a later case will resume at exactly its depth,
    so every saved state lies on the next case's path and the top one is
    where it resumes.
    """
    if not cases:
        return []
    root, crash = launch(model, SettingsStore(), phase="launch")
    if crash is not None:  # every case fails the same way; nothing to share
        return [run_test_case(model, case) for case in cases]
    firsts = [case.parts[0].events for case in cases]
    # shared[i]: first-part events case i has in common with case i + 1
    shared = [_common_prefix(a, b) for a, b in zip(firsts, firsts[1:])] + [-1]
    saved: list[tuple[int, GuiState]] = [(0, root)]
    restarts: dict[frozenset, Restart] = {}
    results = []
    for i, case in enumerate(cases):
        depth, state = saved[-1]
        # Later cases resume where the running minimum of shared[i:] steps
        # down.  It steps to this depth again only if a later case resumes
        # here too; otherwise this case may use up the saved state.  The
        # root always stays: a case that breaks or crashes saves nothing
        # deeper for the cases after it.
        fork_at: set[int] = set()
        low, j = len(firsts[i]) + 1, i
        while shared[j] > depth:
            if shared[j] < low:
                low = shared[j]
                fork_at.add(low)
            j += 1
        if shared[j] == depth or depth == 0:
            state = state.fork()
        else:
            saved.pop()
        results.append(_finish_case(model, case, state, None, depth, fork_at, saved, restarts))
    return results


@dataclass(frozen=True)
class SuiteResult:
    model_name: str
    results: tuple[CaseResult, ...]
    statements_total: int
    branches_total: int

    @cached_property
    def covered_statements(self) -> frozenset[str]:
        out: set[str] = set()
        for r in self.results:
            out.update(r.covered_statements)
        return frozenset(out)

    @cached_property
    def covered_branches(self) -> frozenset[str]:
        out: set[str] = set()
        for r in self.results:
            out.update(r.covered_branches)
        return frozenset(out)

    @cached_property
    def entered_handlers(self) -> frozenset[str]:
        out: set[str] = set()
        for r in self.results:
            out.update(r.entered_handlers)
        return frozenset(out)

    def count(self, verdict: str) -> int:
        return sum(1 for r in self.results if r.verdict == verdict)

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
    """Replay all cases.  ``parallelism`` > 1 splits them into that many
    contiguous chunks and replays each on a thread of its own; results come
    back in case order either way, so reports do not depend on it."""
    size = max(1, -(-len(cases) // parallelism))
    chunks = [cases[i : i + size] for i in range(0, len(cases), size)]
    if len(chunks) <= 1:
        results = _run_chunk(model, cases)
    else:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            done = pool.map(lambda chunk: _run_chunk(model, chunk), chunks)
            results = [r for chunk_results in done for r in chunk_results]
    statements, branches = model.coverage_universe
    return SuiteResult(
        model_name=model.name,
        results=tuple(results),
        statements_total=len(statements),
        branches_total=len(branches),
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def report_to_json(suite: SuiteResult) -> dict:
    tests = []
    for r in suite.results:
        doc: dict = {
            "id": r.case.id,
            "events": list(r.case.events),
            "targets": list(r.case.targets),
            "verdict": r.verdict,
        }
        if len(r.case.parts) > 1:
            doc["parts"] = [p.id for p in r.case.parts]
        if r.crash is not None:
            doc["crash"] = {
                "kind": r.crash.kind,
                "statement": r.crash.statement,
                "phase": r.crash.phase,
                "position": r.crash.position,
            }
        if r.broken_at is not None:
            doc["brokenAt"] = r.broken_at
        tests.append(doc)
    return {
        "schemaVersion": SCHEMA_VERSION,
        "model": suite.model_name,
        "tests": tests,
        "summary": {
            "total": len(suite.results),
            "passed": suite.count("passed"),
            "failed": suite.count("failed"),
            "broken": suite.count("broken"),
            "statementsCovered": len(suite.covered_statements),
            "statementsTotal": suite.statements_total,
            "statementCoverage": suite.statement_coverage,
            "branchesCovered": len(suite.covered_branches),
            "branchesTotal": suite.branches_total,
            "branchCoverage": suite.branch_coverage,
        },
    }


def save_report(suite: SuiteResult, path: Path | str) -> None:
    """Write the report of ``suite``: the bytes of
    ``json.dumps(report_to_json(suite), indent=2, sort_keys=True)`` and a
    final newline, rendered straight from ``suite`` without building the
    document.  Keys come in sorted order, each event is quoted once, integers
    are written by ``str`` and the coverage fractions by ``repr``, as
    ``json`` writes them."""
    quoted = QuotedStrings()

    def array(items: Iterable[str]) -> str:
        body = ",\n        ".join(items)
        return "[\n        " + body + "\n      ]" if body else "[]"

    tests = []
    for r in suite.results:
        case, crash = r.case, r.crash
        fields = []  # "key": value, in sorted key order
        if r.broken_at is not None:
            fields.append(f'"brokenAt": {r.broken_at}')
        if crash is not None:
            position = "null" if crash.position is None else str(crash.position)
            fields.append(
                f'"crash": {{\n        "kind": {quoted[crash.kind]},'
                f'\n        "phase": {quoted[crash.phase]},'
                f'\n        "position": {position},'
                f'\n        "statement": {quoted[crash.statement]}\n      }}'
            )
        fields.append('"events": ' + array(map(quoted.__getitem__, case.events)))
        fields.append('"id": ' + encode_basestring_ascii(case.id))
        if len(case.parts) > 1:
            fields.append('"parts": ' + array(encode_basestring_ascii(p.id) for p in case.parts))
        fields.append('"targets": ' + array(map(str, case.targets)))
        fields.append('"verdict": ' + quoted[r.verdict])
        tests.append("{\n      " + ",\n      ".join(fields) + "\n    }")
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
    text = "".join((
        '{\n  "model": ', encode_basestring_ascii(suite.model_name),
        f',\n  "schemaVersion": {SCHEMA_VERSION}',
        ',\n  "summary": {\n    ',
        ",\n    ".join(f'"{key}": {value}' for key, value in summary),
        '\n  },\n  "tests": ',
        "[\n    " + ",\n    ".join(tests) + "\n  ]" if tests else "[]",
        "\n}\n",
    ))
    Path(path).write_text(text, encoding="utf-8")


def _report_from_json(doc: dict) -> dict:
    summary = doc["summary"]
    for key in ("total", "broken", "statementCoverage", "branchCoverage"):
        if type(summary[key]) not in (int, float):
            raise TypeError(f"summary {key!r} is {summary[key]!r}, not a number")
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
