"""Independent reference implementations for checking the real ones.

Everything here deliberately uses a *different* algorithm from the package
code: effect closures by fixpoint iteration instead of a call-graph walk,
distances by Floyd-Warshall instead of seeded BFS, an entry point ranked by
a path from every initial instead of one pass from all of them, path
enumeration by plain recursion instead of budgeted ordered search, available
events by a scan of every declared window instead of a walk down the stack
from each open one, the rip by relaunching and firing each context again
instead of forking, a sequence record as a document for ``json.dumps``
instead of rendered text, handlers run by walking their statements instead
of compiled steps, a JSON-lines file cut into line strings for
``json.loads`` instead of scanned in place, a sequence file's events checked
one occurrence at a time instead of as a set of distinct events, split parts
grouped into a list per case instead of into the case itself.
Slow is fine — these run on graphs of at most a dozen events.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Callable, Iterable

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
)
from guiseq.generate import SequenceRecord
from guiseq.replay import TestCase
from guiseq.graphs import SCHEMA_VERSION, Edg, Efg, GuiseqError, _parse_document, shortest_path
from guiseq.programdb import ProgramModel
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
            if state.widget_enabled[(w.name, widget.id)]:
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
    discoveries = {w: _discover(model, probe, w) for w in probe.open_windows}
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
            firings.append(_fire_and_record(model, state, event, context, discoveries))
            if not state.exited:
                queue.append(context + (event,))
    return GuiStructure(
        app=model.name,
        windows=tuple(discoveries.values()),
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


def listed_group_test_cases(records: Iterable[SequenceRecord]) -> list[TestCase]:
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
    return [TestCase(tuple(parts)) for parts in groups.values()]


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
            state.widget_enabled[(stmt.window, stmt.widget)] = stmt.enabled
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
        widget_enabled=dict(model.initial_widget_enabled),
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
