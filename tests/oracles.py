"""Independent reference implementations for checking the real ones.

Everything here deliberately uses a *different* algorithm from the package
code: effect closures by fixpoint iteration instead of a call-graph walk,
dependency edges by comparing every pair of events instead of counting the
readers of each written field, flow-graph edges sorted on a key tuple
instead of grouped by source, graph violations found by a walk over every
item instead of by set algebra, distances by Floyd-Warshall instead of
seeded BFS, an entry point ranked by a path from every initial instead of
one pass from all of them, path enumeration by plain recursion instead of
budgeted ordered search, available events by a scan of every declared
window instead of a walk down the stack from each open one, the rip by
relaunching and firing each context again instead of forking, a sequence
record as a document for ``json.dumps`` instead of rendered text, a graph
and a replay report as documents for ``json.dumps`` instead of rendered
text (:func:`graph_to_json`, the oracle of ``graphs.save_graph``, and
:func:`report_to_json`, the oracle of ``replay.save_report``), a suite
replayed one case at a time, each from its own launch into a sink of its
own, instead of along shared prefixes with memos (:func:`replayed_alone`,
:func:`report_alone`), handlers run
by walking their statements instead of compiled steps, a JSON-lines file cut
into line strings for ``json.loads`` instead of scanned in place, a sequence
file's events checked one occurrence at a time instead of as a set of
distinct events, split parts grouped into a list per case instead of into
the case itself, a model's violations, coverage universe and program model
by walking its parsed statements again (:func:`walk_statements`,
:func:`statement_effects`) instead of as it is parsed and compiled.
Slow is fine — most run on graphs of at most a dozen events, and the
graph oracles once on one ripped benchmark model of about a hundred.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Callable, Iterable, Iterator

from guiseq.appmodel import (
    AppModel,
    Call,
    CloseWindow,
    Condition,
    CopyField,
    Deref,
    ExitApp,
    If,
    OpenWindow,
    ReadField,
    ReadSetting,
    SetField,
    SetNull,
    SetWidgetEnabled,
    Statement,
    ThrowArrayOob,
    WriteSetting,
    _BY_CLASS,
)
from guiseq.generate import SequenceRecord
from guiseq.replay import SuiteResult, run_test_case
from guiseq.graphs import SCHEMA_VERSION, Edg, Efg, GuiseqError, _parse_document, shortest_path
from guiseq.programdb import HANDLERS, ProgramClass, ProgramMethod, ProgramModel
from guiseq.ripper import GuiStructure, _discover, _fire_and_record
from guiseq.simulator import (
    CRASH_ARRAY_OOB,
    CRASH_NULL_DEREF,
    MAX_CALL_DEPTH,
    Coverage,
    CrashRecord,
    GuiState,
    _CrashSignal,
    _ExitSignal,
    available_events,
    fire_event,
    is_available,
    launch,
)

INF = float("inf")


def walk_statements(block: Iterable[Statement], prefix: str) -> Iterator[tuple[str, Statement]]:
    """``(statement id, statement)`` for every statement of ``block`` in
    pre-order, descending into conditionals; ids as in
    ``AppModel.coverage_universe``."""
    for i, stmt in enumerate(block):
        sid = f"{prefix}{i}"
        yield sid, stmt
        if isinstance(stmt, If):
            yield from walk_statements(stmt.then, f"{sid}.t.")
            yield from walk_statements(stmt.orelse, f"{sid}.e.")


def statement_effects(stmt: Statement) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The model fields one statement reads and writes, by itself, from the
    op table's operand roles.

    A conditional reads its condition's field; the statements in its blocks,
    like the body of a called method, have effects of their own.
    """
    if isinstance(stmt, If):
        return (stmt.cond.field,), ()
    operands = _BY_CLASS[type(stmt)][1]
    return (
        tuple(getattr(stmt, attr) for attr, _, role in operands if role == "read"),
        tuple(getattr(stmt, attr) for attr, _, role in operands if role == "write"),
    )


def walked_program_model(app: AppModel) -> ProgramModel:
    """``derive_program_model`` by walking every handler's and method's
    statements with :func:`statement_effects` instead of reading the
    compile's notes: each method's direct reads, writes and calls, first
    seen first, descending into conditionals but not into calls."""
    owners: dict[str, list[str]] = {}
    for name in app.fields:
        owner, field_name = name.rsplit(".", 1)
        owners.setdefault(owner, []).append(field_name)
    blocks = [(event, app.handlers.get(event, ())) for event in app.events]
    blocks += app.methods.items()
    methods = []
    for name, block in blocks:
        reads: dict[str, None] = {}
        writes: dict[str, None] = {}
        calls: dict[str, None] = {}
        for _, stmt in walk_statements(block, ""):
            stmt_reads, stmt_writes = statement_effects(stmt)
            reads.update(dict.fromkeys(stmt_reads))
            writes.update(dict.fromkeys(stmt_writes))
            if isinstance(stmt, Call):
                calls[f"{HANDLERS}.{stmt.method}"] = None
        methods.append(ProgramMethod(f"{HANDLERS}.{name}", tuple(reads), tuple(writes), tuple(calls)))
    classes = tuple(ProgramClass(owner, tuple(fields), ()) for owner, fields in owners.items())
    return ProgramModel(
        classes=classes + (ProgramClass(HANDLERS, (), tuple(methods)),),
        bindings={event: f"{HANDLERS}.{event}" for event in app.events},
    )


def fixpoint_effects(model: ProgramModel, kind: str) -> dict[str, frozenset[str]]:
    """Per-method transitive field effects, by iterating until stable."""
    own: dict[str, set[str]] = {}
    calls: dict[str, tuple[str, ...]] = {}
    for cls in model.classes:
        for m in cls.methods:
            own[m.name] = set(m.writes if kind == "writes" else m.reads)
            calls[m.name] = m.calls
    effects = {name: set(values) for name, values in own.items()}
    changed = True
    while changed:
        changed = False
        for name in effects:
            merged = set(own[name])
            for callee in calls[name]:
                merged |= effects[callee]
            if merged != effects[name]:
                effects[name] = merged
                changed = True
    return {name: frozenset(values) for name, values in effects.items()}


def brute_force_edg(model: ProgramModel, events: tuple[str, ...]) -> set[tuple[str, int, str]]:
    """Dependency edges from scratch: compare every write set with every read set."""
    writes = fixpoint_effects(model, "writes")
    reads = fixpoint_effects(model, "reads")
    edges: set[tuple[str, int, str]] = set()
    for src in events:
        for dst in events:
            if src not in model.bindings or dst not in model.bindings:
                continue
            overlap = len(writes[model.bindings[src]] & reads[model.bindings[dst]])
            if overlap:
                edges.add((src, overlap, dst))
    return edges


def in_declaration_order(
    edges: Iterable[tuple[str, int, str]], events: tuple[str, ...]
) -> tuple[tuple[str, int, str], ...]:
    """Dependency edges sorted by their source's declaration index, then
    their target's: the order ``Edg.edges`` holds."""
    index = {e: i for i, e in enumerate(events)}
    return tuple(sorted(edges, key=lambda e: (index[e[0]], index[e[2]])))


def sorted_efg(events: Iterable[str], initials: Iterable[str], edges: Iterable[tuple[str, str]]) -> Efg:
    """``Efg.of`` by one sort of the distinct edges on a key tuple of both
    endpoints' declaration indexes, instead of grouping by source."""
    ev = tuple(events)
    index = {e: i for i, e in enumerate(ev)}
    uniq = sorted(
        set(tuple(e) for e in edges),
        key=lambda e: (index.get(e[0], len(ev)), index.get(e[1], len(ev))),
    )
    return Efg(events=ev, initials=tuple(initials), edges=tuple(uniq))


def scanned_violations(g: Efg) -> list[str]:
    """``validate_efg`` by walking every event, initial and edge, instead of
    deciding with set algebra whether there is anything to name."""
    violations: list[str] = []
    seen: set[str] = set()
    for e in g.events:
        if e in seen:
            violations.append(f"duplicate event id {e!r}")
        seen.add(e)
    declared = set(g.events)
    for i in g.initials:
        if i not in declared:
            violations.append(f"initial event {i!r} is not declared")
    if g.events and not g.initials:
        violations.append("graph declares events but no initial events")
    seen_edges: set[tuple[str, str]] = set()
    for src, dst in g.edges:
        if src not in declared:
            violations.append(f"edge source {src!r} is not declared")
        if dst not in declared:
            violations.append(f"edge target {dst!r} is not declared")
        if (src, dst) in seen_edges:
            violations.append(f"duplicate edge ({src!r}, {dst!r})")
        seen_edges.add((src, dst))
    return violations


def _operands(stmt: Statement) -> list[tuple[str | None, object]]:
    """``(role, value)`` of each operand; a conditional reads its condition's field."""
    if isinstance(stmt, If):
        return [("read", stmt.cond.field)]
    return [(role, getattr(stmt, attr)) for attr, _, role in _BY_CLASS[type(stmt)][1]]


def walked_violations(model: AppModel) -> list[str]:
    """``load_app_model``'s violations of a parsed model: the structural
    checks, then a walk of every handler, method and the launch block that
    checks each operand's name."""
    violations: list[str] = []
    if not model.windows:
        violations.append("model declares no windows")
    mains = [w.name for w in model.windows if w.main]
    if len(mains) != 1:
        violations.append(f"expected exactly one main window, found {len(mains)}")
    window_names: set[str] = set()
    for w in model.windows:
        if w.name in window_names:
            violations.append(f"duplicate window name {w.name!r}")
        window_names.add(w.name)
        widget_ids: set[str] = set()
        for widget in w.widgets:
            if widget.id in widget_ids:
                violations.append(f"window {w.name!r}: duplicate widget id {widget.id!r}")
            widget_ids.add(widget.id)
    events: set[str] = set()
    for e in model.events:
        if e in events:
            violations.append(f"duplicate event id {e!r}")
        events.add(e)
    for e in dict.fromkeys(model.events):
        if e not in model.handlers:
            violations.append(f"event {e!r} has no handler")
    for h in model.handlers:
        if h not in events:
            violations.append(f"handler for unknown event {h!r}")
    for name, value in model.fields.items():
        if "." not in name:
            violations.append(f"field {name!r} is not owner-qualified (expected 'Owner.field')")
        if not (value is None or isinstance(value, (str, bool))):
            violations.append(f"field {name!r} has unsupported initial value {value!r}")

    declared_fields = set(model.fields)
    widget_pairs = {(w.name, widget.id) for w in model.windows for widget in w.widgets}

    def check_block(block: Iterable[Statement], where: str) -> None:
        for _, stmt in walk_statements(block, ""):
            for role, name in _operands(stmt):
                if role in ("read", "write") and name not in declared_fields:
                    violations.append(f"{where}: undeclared field {name!r}")
                elif role == "window" and name not in window_names:
                    violations.append(f"{where}: undeclared window {name!r}")
                elif role == "widget" and (stmt.window, name) not in widget_pairs:
                    violations.append(f"{where}: unknown widget {stmt.window!r}/{name!r}")
                elif role == "method" and name not in model.methods:
                    violations.append(f"{where}: call to undeclared method {name!r}")

    for event, block in model.handlers.items():
        check_block(block, f"handler {event!r}")
    for name, block in model.methods.items():
        check_block(block, f"method {name!r}")
    check_block(model.on_launch, "launch block")
    return violations


def walked_coverage_universe(model: AppModel) -> tuple[frozenset[str], frozenset[str]]:
    """``AppModel.coverage_universe`` by walking every block's statements
    instead of taking the ids the compile formats."""
    statements: set[str] = set()
    branches: set[str] = set()
    blocks = [(model.handlers.get(event, ()), f"h:{event}/") for event in model.events]
    blocks += [(block, f"m:{name}/") for name, block in model.methods.items()]
    blocks.append((model.on_launch, "launch/"))
    for block, prefix in blocks:
        for sid, stmt in walk_statements(block, prefix):
            statements.add(sid)
            if isinstance(stmt, If):
                branches.update((f"{sid}:then", f"{sid}:else"))
    return frozenset(statements), frozenset(branches)


def floyd_warshall(g: Efg) -> dict[tuple[str, str], float]:
    """All-pairs hop distances; dist[(u, u)] is 0 (the non-strict convention)."""
    dist = {(u, v): (0 if u == v else INF) for u in g.events for v in g.events}
    for u, v in g.edges:
        if u != v:
            dist[(u, v)] = 1
    for k in g.events:
        for i in g.events:
            ik = dist[(i, k)]
            if ik is INF:
                continue
            for j in g.events:
                d = ik + dist[(k, j)]
                if d < dist[(i, j)]:
                    dist[(i, j)] = d
    return dist


def strict_cycle_length(g: Efg, dist: dict[tuple[str, str], float], event: str) -> float:
    """Length of the shortest non-empty cycle through ``event``."""
    best = INF
    for u, v in g.edge_set:
        if u == event:
            best = min(best, 1 + dist[(v, event)])
    return best


def lexmin_shortest_path(
    g: Efg, dist: dict[tuple[str, str], float], src: str, dst: str, strict: bool = False
) -> list[str] | None:
    """The minimum-hop path that is least in declaration order, by greedy choice.

    From each node take the earliest-declared successor that still lies on a
    minimum-hop path to ``dst``.  Conventions as in ``shortest_path``: the start
    is excluded, a non-strict self-query is ``[]``, a strict one wants a cycle.
    """
    if src == dst and not strict:
        return []
    remaining = strict_cycle_length(g, dist, src) if src == dst else dist[(src, dst)]
    if remaining == INF:
        return None
    order = {e: i for i, e in enumerate(g.events)}
    path, node = [], src
    while remaining:
        successors = sorted((v for u, v in g.edge_set if u == node), key=order.__getitem__)
        node = next(v for v in successors if 1 + dist[(v, dst)] == remaining)
        path.append(node)
        remaining -= 1
    return path


def scanned_best_entry(g: Efg, head: str) -> tuple[str, list[str]] | None:
    """The entry for ``head`` found by reading a shortest path from every
    initial and keeping the shortest, ties to the earliest-declared initial."""
    if head in g.initials:
        return head, []
    best: tuple[int, int, str, list[str]] | None = None
    for initial in g.initials:
        connection = shortest_path(g, initial, head)
        if connection is None:
            continue
        key = (len(connection), g.decl_index[initial])
        if best is None or key < best[:2]:
            best = (key[0], key[1], initial, connection)
    return None if best is None else (best[2], best[3])


def enumerate_exact_paths(g: Efg, length: int) -> set[tuple[str, ...]]:
    """All flow-graph walks of exactly ``length`` events, from any event."""
    out: set[tuple[str, ...]] = set()

    def extend(path: list[str]) -> None:
        if len(path) == length:
            out.add(tuple(path))
            return
        for u, v in g.edge_set:
            if u == path[-1]:
                extend(path + [v])

    for e in g.events:
        extend([e])
    return out


def maximal_paths(d: Edg, length: int) -> set[tuple[str, ...]]:
    """All dependency-graph paths truncated at ``length``: complete when they
    reach the length or run out of successors."""
    successors: dict[str, list[str]] = {e: [] for e in d.events}
    for src, _w, dst in d.edges:
        successors[src].append(dst)
    out: set[tuple[str, ...]] = set()

    def extend(path: list[str]) -> None:
        if len(path) == length or not successors[path[-1]]:
            out.add(tuple(path))
            return
        for nxt in successors[path[-1]]:
            extend(path + [nxt])

    for e in d.events:
        extend([e])
    return out


def reachable_from(g: Efg, starts: tuple[str, ...]) -> frozenset[str]:
    seen = set(starts)
    frontier = list(starts)
    while frontier:
        node = frontier.pop()
        for u, v in g.edge_set:
            if u == node and v not in seen:
                seen.add(v)
                frontier.append(v)
    return frozenset(seen)


def scanned_available_events(state: GuiState) -> tuple[str, ...]:
    """Available events by a declaration-order scan of the model's windows,
    rescanning the stack above each open window for a modal one."""
    if state.exited:
        return ()
    out: list[str] = []
    for w in state.model.windows:
        if w.name not in state.open_windows:
            continue
        above = state.open_windows[state.open_windows.index(w.name) + 1 :]
        if any(state.model.window_by_name[v].modal for v in above):
            continue
        if w.window_event is not None:
            out.append(w.window_event)
        for widget in w.widgets:
            if state.enabled[widget.event]:
                out.append(widget.event)
    index = {e: i for i, e in enumerate(state.model.events)}
    out.sort(key=index.__getitem__)
    return tuple(out)


def relaunching_rip(model: AppModel) -> GuiStructure:
    """The rip with a relaunch per probe: every state, the one a context's
    available events are read from included, is rebuilt by launching against
    fresh settings and firing the context again.  Firing records come from
    the ripper's own ``_fire_and_record``; only how a state is reached differs."""

    def relaunched(context: tuple[str, ...]) -> GuiState:
        state, crash = launch(model, {})
        assert crash is None
        for event in context:
            assert fire_event(state, event) is None
        return state

    probe = relaunched(())
    discoveries, flags = {}, {}
    _discover(probe, discoveries, flags)
    fired: set[str] = set()
    firings = []
    queue: deque[tuple[str, ...]] = deque([()])
    while queue:
        context = queue.popleft()
        for event in available_events(relaunched(context)):
            if event in fired:
                continue
            fired.add(event)
            state = relaunched(context)
            firings.append(_fire_and_record(state, event, context, discoveries, flags))
            if not state.exited:
                queue.append(context + (event,))
    return GuiStructure(
        app=model.name,
        windows=tuple(discoveries.values()),
        enabled_at_discovery=flags,
        initials=available_events(probe),
        firings=tuple(firings),
    )


def oracle_record(record: SequenceRecord) -> dict:
    """A sequence record as the document its line in a sequence file holds."""
    doc: dict = {
        "schemaVersion": SCHEMA_VERSION,
        "id": record.id,
        "events": list(record.events),
        "targets": list(record.targets),
        "origin": record.origin,
    }
    if record.abstract is not None:
        doc["abstract"] = list(record.abstract)
    if record.split_of is not None:
        doc["splitOf"] = record.split_of
    return doc


def graph_to_json(g: Efg | Edg) -> dict:
    """JSON document for either graph flavour.

    The flow graph carries ``initials`` and weightless edges; the dependency
    graph omits ``initials`` and weights every edge.  The presence of the
    ``initials`` key is what tells the two apart on load.
    """
    doc: dict = {
        "schemaVersion": SCHEMA_VERSION,
        "events": [{"id": e} for e in g.events],
    }
    if isinstance(g, Efg):
        doc["initials"] = list(g.initials)
        doc["edges"] = [{"from": src, "to": dst} for src, dst in g.edges]
    else:
        doc["edges"] = [
            {"from": src, "to": dst, "weight": weight} for src, weight, dst in g.edges
        ]
    return doc


def joined_case(case: tuple[SequenceRecord, ...]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """A case's events across all its parts, in the order they run, and its
    targets, each part's shifted past the events of the parts before it."""
    events: list[str] = []
    targets: list[int] = []
    for part in case:
        targets += [len(events) + t for t in part.targets]
        events += part.events
    return tuple(events), tuple(targets)


def report_to_json(suite: SuiteResult) -> dict:
    tests = []
    for r in suite.results:
        events, targets = joined_case(r.case)
        doc: dict = {
            "id": r.case[0].id,
            "events": list(events),
            "targets": list(targets),
            "verdict": r.verdict,
        }
        if len(r.case) > 1:
            doc["parts"] = [p.id for p in r.case]
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


def oracle_report(suite: SuiteResult) -> str:
    """The text of :func:`report_to_json`'s document, as a report file holds it."""
    return json.dumps(report_to_json(suite), indent=2, sort_keys=True) + "\n"


def replayed_alone(
    model: AppModel, cases: Iterable[tuple[SequenceRecord, ...]]
) -> tuple[tuple, tuple]:
    """Each case replayed from scratch into a sink of its own: the results,
    and the union of the sinks as a suite's three coverage fields."""
    results, statements, branches, handlers = [], set(), set(), set()
    for case in cases:
        coverage = Coverage()
        results.append(run_test_case(model, case, coverage))
        statements |= coverage.statements
        branches |= coverage.branches
        handlers |= coverage.handlers
    return tuple(results), (frozenset(statements), frozenset(branches), frozenset(handlers))


def report_alone(model: AppModel, cases: Iterable[tuple[SequenceRecord, ...]]) -> str:
    """The report ``replay`` writes for ``cases``, built from
    :func:`replayed_alone`: what sharing and memos must not change."""
    results, covered = replayed_alone(model, cases)
    statements, branches = model.coverage_universe
    return oracle_report(SuiteResult(model.name, results, len(statements), len(branches), *covered))


def split_document_lines(path: Path | str, kind: str, parse: Callable[[dict], object]) -> list:
    """The documents of a JSON-lines file: the text cut into lines on
    ``"\n"`` and each non-blank one decoded by ``json.loads``."""
    text = Path(path).read_text(encoding="utf-8")
    return [
        _parse_document(line, path, lineno, kind, parse)
        for lineno, line in enumerate(text.split("\n"), start=1)
        if line.strip()
    ]


def scanned_check_sequences(
    model: AppModel, records: Iterable[SequenceRecord], path: Path | str
) -> None:
    """The replay command's check of a sequence file against ``model``: every
    event of every record looked up where it occurs, in file order."""
    known = model.event_window
    for record in records:
        for event in record.events:
            if event not in known:
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


def listed_group_test_cases(
    records: Iterable[SequenceRecord],
) -> list[tuple[SequenceRecord, ...]]:
    """Test cases from a record stream: a list of parts per first part, each
    made a case once every record has been read."""
    groups: dict[str, list[SequenceRecord]] = {}  # by first part's id, in order
    ids: set[str] = set()
    for record in records:
        if record.id in ids:
            raise GuiseqError(f"duplicate sequence id {record.id!r}")
        ids.add(record.id)
        if record.split_of is None:
            groups[record.id] = [record]
        else:
            if record.split_of not in groups:
                raise GuiseqError(
                    f"sequence {record.id!r} continues unknown sequence {record.split_of!r}"
                )
            groups[record.split_of].append(record)
    return [tuple(parts) for parts in groups.values()]


def _evaluate(cond: Condition, state: GuiState) -> bool:
    value = state.fields[cond.field]
    if cond.kind == "isNull":
        return value is None
    if cond.kind == "isTrue":
        return value is True
    return value == cond.value  # "equals"


def _close_window(state: GuiState, window: str) -> None:
    if window not in state.open_windows:
        return
    state.open_windows.remove(window)
    if window == state.model.main_window:
        state.exited = True
        raise _ExitSignal()


def interpret_block(
    state: GuiState, block: Iterable[Statement], prefix: str, depth: int
) -> None:
    """Run ``block`` statement by statement, formatting each id as it goes."""
    if depth > MAX_CALL_DEPTH:
        raise GuiseqError(
            f"call depth exceeded {MAX_CALL_DEPTH} at {prefix!r}; "
            "the model likely has unbounded recursion"
        )
    for i, stmt in enumerate(block):
        sid = f"{prefix}{i}"
        state.coverage.statements.add(sid)
        if isinstance(stmt, SetField):
            state.fields[stmt.field] = stmt.value
        elif isinstance(stmt, SetNull):
            state.fields[stmt.field] = None
        elif isinstance(stmt, ReadField):  # log too
            state.fields[stmt.field]  # an observation, no effect
        elif isinstance(stmt, CopyField):
            state.fields[stmt.dst] = state.fields[stmt.src]
        elif isinstance(stmt, If):
            if _evaluate(stmt.cond, state):
                state.coverage.branches.add(f"{sid}:then")
                interpret_block(state, stmt.then, f"{sid}.t.", depth)
            else:
                state.coverage.branches.add(f"{sid}:else")
                interpret_block(state, stmt.orelse, f"{sid}.e.", depth)
        elif isinstance(stmt, OpenWindow):
            if stmt.window not in state.open_windows:
                state.open_windows.append(stmt.window)
        elif isinstance(stmt, CloseWindow):
            _close_window(state, stmt.window)
        elif isinstance(stmt, ExitApp):
            state.exited = True
            raise _ExitSignal()
        elif isinstance(stmt, Call):
            interpret_block(state, state.model.methods[stmt.method], f"m:{stmt.method}/", depth + 1)
        elif isinstance(stmt, WriteSetting):
            value = state.fields[stmt.field]
            if isinstance(value, bool):
                value = "true" if value else "false"
            state.settings[stmt.key] = value
        elif isinstance(stmt, ReadSetting):
            state.fields[stmt.field] = state.settings.get(stmt.key)
        elif isinstance(stmt, SetWidgetEnabled):
            widgets = state.model.window_by_name[stmt.window].widgets
            state.enabled[next(w.event for w in widgets if w.id == stmt.widget)] = stmt.enabled
        elif isinstance(stmt, Deref):
            if state.fields[stmt.field] is None:
                raise _CrashSignal(CRASH_NULL_DEREF, sid)
        elif isinstance(stmt, ThrowArrayOob):
            raise _CrashSignal(CRASH_ARRAY_OOB, sid)
        else:
            raise AssertionError(f"unknown statement {stmt!r}")


def interpreted_launch(
    model: AppModel,
    settings: dict[str, str | None],
    *,
    phase: str = "launch",
    coverage: Coverage | None = None,
) -> tuple[GuiState, CrashRecord | None]:
    """``simulator.launch`` with the launch block interpreted."""
    state = GuiState(
        model=model,
        settings=settings,
        open_windows=[model.main_window],
        enabled=dict(model.initial_enabled),
        fields=dict(model.fields),
        coverage=Coverage() if coverage is None else coverage,
    )
    try:
        interpret_block(state, model.on_launch, "launch/", 0)
    except _CrashSignal as crash:
        state.exited = True
        return state, CrashRecord(kind=crash.kind, statement=crash.statement, phase=phase)
    except _ExitSignal:
        pass
    return state, None


def interpreted_fire(state: GuiState, event: str) -> CrashRecord | None:
    """``simulator.fire_event`` with the handler interpreted."""
    assert is_available(state, event)
    state.coverage.handlers.add(event)
    try:
        interpret_block(state, state.model.handlers[event], f"h:{event}/", 0)
    except _CrashSignal as crash:
        state.exited = True
        return CrashRecord(kind=crash.kind, statement=crash.statement)
    except _ExitSignal:
        pass
    return None
