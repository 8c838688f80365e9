"""Program model: classes, fields, methods, and event-handler bindings.

This is the static-analysis side of the toolkit.  A :class:`ProgramModel`
describes what a (decompiled or source-analysed) application's handlers do to
object fields: per method, which fields it reads, which it writes, and which
other methods it calls.  Field names are qualified as ``Class.field`` so two
classes may declare the same short name without colliding.

From that model, :func:`build_class_db` indexes and checks the methods once,
and :meth:`ClassDb.effects` answers the query the dependency analysis needs:
the fields an event's handler *transitively* reads and writes, both gathered
in one walk of the call graph (cycles included; a visited set makes the walk
terminate).  :func:`build_edg` walks once per event, then emits a weighted
dependency edge from every event whose write set overlaps another
event's read set (self-pairs included: a handler that reads what it wrote
earlier depends on its previous run).  It indexes each field's readers once
and counts, per writer, the readers of its fields, rather than comparing
every pair of events.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping

from .appmodel import AppModel, Call, statement_effects, walk_statements
from .graphs import SCHEMA_VERSION, Edg, Efg, GuiseqError, read_document, typed, typed_list

__all__ = [
    "ProgramMethod",
    "ProgramClass",
    "ProgramModel",
    "ClassDb",
    "UnboundEventError",
    "build_class_db",
    "build_edg",
    "derive_program_model",
    "load_program_model",
    "program_model_to_json",
]


class UnboundEventError(GuiseqError):
    """An event has no handler binding in the program model."""


@dataclass(frozen=True)
class ProgramMethod:
    name: str  # qualified, "Class.method"
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    calls: tuple[str, ...]


@dataclass(frozen=True)
class ProgramClass:
    name: str
    fields: tuple[str, ...]
    methods: tuple[ProgramMethod, ...]


@dataclass(frozen=True)
class ProgramModel:
    classes: tuple[ProgramClass, ...]
    bindings: Mapping[str, str]  # event id -> qualified handler method


@dataclass(frozen=True)
class ClassDb:
    """A program model and its methods indexed by qualified name.

    :meth:`effects` walks the call graph once from an event's bound handler
    and returns both transitive field sets.
    """

    model: ProgramModel
    methods: Mapping[str, ProgramMethod]

    def effects(self, event: str) -> tuple[frozenset[str], frozenset[str]]:
        """The fields an event's handler transitively reads and writes.

        Depth-first walk over the call graph with a visited set, so mutually
        recursive methods contribute each effect exactly once and the walk
        always terminates.
        """
        try:
            root = self.model.bindings[event]
        except KeyError:
            raise UnboundEventError(f"event {event!r} has no handler binding") from None
        if root not in self.methods:
            raise GuiseqError(f"event {event!r} is bound to unknown method {root!r}")
        reads: set[str] = set()
        writes: set[str] = set()
        visited: set[str] = set()
        stack = [root]
        while stack:
            name = stack.pop()
            if name not in visited:
                visited.add(name)
                method = self.methods[name]  # build_class_db checked every callee
                reads.update(method.reads)
                writes.update(method.writes)
                stack.extend(method.calls)
        return frozenset(reads), frozenset(writes)


def build_class_db(model: ProgramModel) -> ClassDb:
    """Index a program model's methods, checking eagerly that no method is
    declared twice, then that each method calls only indexed methods and
    touches only declared fields."""
    methods: dict[str, ProgramMethod] = {}
    for cls in model.classes:
        for m in cls.methods:
            if m.name in methods:
                raise GuiseqError(f"duplicate method {m.name!r} in program model")
            methods[m.name] = m
    declared = {f"{cls.name}.{f}" for cls in model.classes for f in cls.fields}
    for m in methods.values():
        for callee in m.calls:
            if callee not in methods:
                raise GuiseqError(f"method {m.name!r} calls unknown method {callee!r}")
        for f in (*m.reads, *m.writes):
            if f not in declared:
                raise GuiseqError(f"method {m.name!r} references undeclared field {f!r}")
    return ClassDb(model, methods)


def build_edg(db: ClassDb, efg: Efg) -> tuple[Edg, list[str]]:
    """Derive the event-dependency graph for the events of a flow graph.

    Every ordered pair of events (self-pairs included) gets an edge iff the
    first event's transitive write set intersects the second's transitive
    read set; the weight is the size of that intersection.  Events without a
    handler binding contribute empty effect sets and a warning rather than an
    error — a partial program model still yields a usable (if sparser) graph.

    The pairs are never enumerated.  Each field that some event writes
    lists its reader events once, and a writer's weights are the counts of
    each reader over its fields, so the work grows with the sum of the
    weights, not with the square of the events.
    """
    warnings: list[str] = []
    writes: dict[str, frozenset[str]] = {}
    reads: dict[str, frozenset[str]] = {}
    for e in efg.events:
        try:
            reads[e], writes[e] = db.effects(e)
        except UnboundEventError:
            warnings.append(f"event {e!r} has no handler binding; dependencies unknown")
    written = frozenset().union(*writes.values())
    readers: dict[str, list[str]] = {}
    for e, fields in reads.items():
        for f in fields & written:
            readers.setdefault(f, []).append(e)
    edges: list[tuple[str, int, str]] = []
    for src in efg.events:
        if fields := writes.get(src):
            weights = Counter(chain.from_iterable(readers.get(f, ()) for f in fields))
            edges += ((src, weight, dst) for dst, weight in weights.items())
    return Edg.of(efg.events, edges), warnings


# ---------------------------------------------------------------------------
# Extraction from an application model
# ---------------------------------------------------------------------------


#: The synthetic class :func:`derive_program_model` makes handlers and methods of.
HANDLERS = "Handlers"


def _direct_method(name: str, block) -> ProgramMethod:
    """``Handlers.name`` with the first-seen-ordered direct reads,
    writes and calls of a statement block.

    Descends into conditionals but not into calls — called methods carry
    their own effects and appear in ``calls``, which is exactly what lets
    :meth:`ClassDb.effects` reconstruct the transitive sets.
    """
    reads: dict[str, None] = {}
    writes: dict[str, None] = {}
    calls: dict[str, None] = {}
    for _, stmt in walk_statements(block, ""):
        stmt_reads, stmt_writes = statement_effects(stmt)
        reads.update(dict.fromkeys(stmt_reads))
        writes.update(dict.fromkeys(stmt_writes))
        if isinstance(stmt, Call):
            calls[f"{HANDLERS}.{stmt.method}"] = None
    return ProgramMethod(
        name=f"{HANDLERS}.{name}",
        reads=tuple(reads),
        writes=tuple(writes),
        calls=tuple(calls),
    )


def derive_program_model(app: AppModel) -> ProgramModel:
    """Extract the field-traffic model an exact static analysis would see.

    Application fields are owner-qualified (``"MainWindow.text"``), so each
    owner prefix becomes a field-holding class; handler and method bodies
    become methods of the synthetic class :data:`HANDLERS`, carrying their
    direct reads/writes/calls.  The result is the ground-truth counterpart to a
    hand-curated analysis of the same application.
    """
    owners: dict[str, list[str]] = {}
    for name in app.fields:
        owner, field_name = name.rsplit(".", 1)
        owners.setdefault(owner, []).append(field_name)
    if HANDLERS in owners:
        raise GuiseqError(f"field owner {HANDLERS!r} collides with the handlers class name")
    taken = set(app.events) & set(app.methods)
    if taken:
        raise GuiseqError(f"event ids collide with method names: {sorted(taken)}")

    blocks = [(event, app.handlers.get(event, ())) for event in app.events]
    blocks += app.methods.items()
    methods = [_direct_method(name, block) for name, block in blocks]
    classes = tuple(
        ProgramClass(name=owner, fields=tuple(fields), methods=())
        for owner, fields in owners.items()
    ) + (ProgramClass(name=HANDLERS, fields=(), methods=tuple(methods)),)
    bindings = {event: f"{HANDLERS}.{event}" for event in app.events}
    return ProgramModel(classes=classes, bindings=bindings)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def program_model_to_json(model: ProgramModel) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "classes": [
            {
                "name": cls.name,
                "fields": list(cls.fields),
                "methods": [
                    {
                        "name": m.name,
                        "reads": list(m.reads),
                        "writes": list(m.writes),
                        "calls": list(m.calls),
                    }
                    for m in cls.methods
                ],
            }
            for cls in model.classes
        ],
        "bindings": dict(model.bindings),
    }


def _method_from_json(doc: dict) -> ProgramMethod:
    return ProgramMethod(
        name=typed(doc["name"], str, "method name"),
        reads=typed_list(doc.get("reads", []), str, "reads"),
        writes=typed_list(doc.get("writes", []), str, "writes"),
        calls=typed_list(doc.get("calls", []), str, "calls"),
    )


def _program_model_from_json(doc: dict) -> ProgramModel:
    classes = tuple(
        ProgramClass(
            name=typed(c["name"], str, "class name"),
            fields=typed_list(c.get("fields", []), str, "fields"),
            methods=tuple(
                _method_from_json(m) for m in typed(c.get("methods", []), list, "methods")
            ),
        )
        for c in typed(doc.get("classes", []), list, "classes")
    )
    bindings = typed(doc.get("bindings", {}), dict, "bindings")
    for event, method in bindings.items():
        typed(method, str, f"binding of {event!r}")
    return ProgramModel(classes=classes, bindings=bindings)


def load_program_model(path: Path | str) -> ProgramModel:
    return read_document(path, "program model", _program_model_from_json)
