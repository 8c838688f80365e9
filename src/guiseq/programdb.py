"""Program model: classes, fields, methods, and event-handler bindings.

This is the static-analysis side of the toolkit.  A :class:`ProgramModel`
describes what a (decompiled or source-analysed) application's handlers do to
object fields: per method, which fields it reads, which it writes, and which
other methods it calls.  Field names are qualified as ``Class.field`` so two
classes may declare the same short name without colliding.

From that model, :func:`build_class_db` indexes and checks the methods once,
and :meth:`ClassDb.effects` answers the query the dependency analysis needs:
the fields an event's handler *transitively* reads and writes, both gathered
over its :func:`call_closure`, the package's one call-graph walk (cycles
included; a visited set makes it terminate).  :func:`build_edg` asks once
per event, then emits a weighted dependency edge from every event whose
write set overlaps another event's read set (self-pairs included: a handler
that reads what it wrote earlier depends on its previous run).  It indexes
each field's readers once and counts, per writer, the readers of its
fields, rather than comparing every pair of events.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Mapping
from itertools import chain
from pathlib import Path

from .appmodel import AppModel
from .graphs import SCHEMA_VERSION, Edg, Efg, GuiseqError, Value, read_document, typed, typed_list

__all__ = [
    "ProgramMethod",
    "ProgramClass",
    "ProgramModel",
    "ClassDb",
    "build_class_db",
    "build_edg",
    "call_closure",
    "derive_program_model",
    "load_program_model",
    "program_model_to_json",
]


class ProgramMethod(Value):
    name: str  # qualified, "Class.method"
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    calls: tuple[str, ...]


class ProgramClass(Value):
    name: str
    fields: tuple[str, ...]
    methods: tuple[ProgramMethod, ...]


class ProgramModel(Value):
    classes: tuple[ProgramClass, ...]
    bindings: Mapping[str, str]  # event id -> qualified handler method


class ClassDb(Value):
    """A program model and its methods indexed by qualified name.

    :meth:`effects` returns both transitive field sets of an event's bound
    handler.
    """

    model: ProgramModel
    methods: Mapping[str, ProgramMethod]

    def effects(self, event: str) -> tuple[frozenset[str], frozenset[str]]:
        """The fields an event's handler transitively reads and writes: the
        effects of every method in its handler's :func:`call_closure`."""
        try:
            root = self.model.bindings[event]
        except KeyError:
            raise GuiseqError(f"event {event!r} has no handler binding") from None
        if root not in self.methods:
            raise GuiseqError(f"event {event!r} is bound to unknown method {root!r}")
        methods = self.methods  # build_class_db checked every callee
        reached = [methods[name] for name in call_closure(root, lambda m: methods[m].calls)]
        return (
            frozenset(chain.from_iterable(m.reads for m in reached)),
            frozenset(chain.from_iterable(m.writes for m in reached)),
        )


def call_closure(root: str, calls: Callable[[str], Iterable[str]]) -> dict[str, None]:
    """``root`` and every method it calls, itself or through others, each
    once, as keys in the order a depth-first walk of the call graph reaches
    them; ``calls(name)`` lists a method's callees.  A visited set makes the
    walk end on recursive calls."""
    reached: dict[str, None] = {}
    stack = [root]
    while stack:
        if (name := stack.pop()) not in reached:
            reached[name] = None
            stack += calls(name)
    return reached


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
        if e in db.model.bindings:
            reads[e], writes[e] = db.effects(e)
        else:
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


def derive_program_model(app: AppModel) -> ProgramModel:
    """Extract the field-traffic model an exact static analysis would see.

    Application fields are owner-qualified (``"MainWindow.text"``), so each
    owner prefix becomes a field-holding class; handler and method bodies
    become methods of the synthetic class :data:`HANDLERS`, carrying the
    direct reads/writes/calls the compile noted (:attr:`AppModel.program
    <guiseq.appmodel.AppModel.program>`), each once, first noted first; an
    event with no handler gets an empty method.  The result is the
    ground-truth counterpart to a hand-curated analysis of the same application.
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

    program = app.program
    notes = [(event, program.handler_uses.get(event, ((), (), ()))) for event in app.events]
    notes += program.method_uses.items()
    methods = [
        ProgramMethod(
            f"{HANDLERS}.{name}",
            tuple(dict.fromkeys(reads)),
            tuple(dict.fromkeys(writes)),
            tuple(dict.fromkeys(f"{HANDLERS}.{callee}" for callee in callees)),
        )
        for name, (reads, writes, callees) in notes
    ]
    classes = tuple(
        ProgramClass(owner, tuple(fields), ()) for owner, fields in owners.items()
    ) + (ProgramClass(HANDLERS, (), tuple(methods)),)
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
        typed(doc["name"], str, "method name"),
        typed_list(doc.get("reads", []), str, "reads"),
        typed_list(doc.get("writes", []), str, "writes"),
        typed_list(doc.get("calls", []), str, "calls"),
    )


def _program_model_from_json(doc: dict) -> ProgramModel:
    classes = tuple(
        ProgramClass(
            typed(c["name"], str, "class name"),
            typed_list(c.get("fields", []), str, "fields"),
            tuple(_method_from_json(m) for m in typed(c.get("methods", []), list, "methods")),
        )
        for c in typed(doc.get("classes", []), list, "classes")
    )
    bindings = typed(doc.get("bindings", {}), dict, "bindings")
    for event, method in bindings.items():
        typed(method, str, f"binding of {event!r}")
    return ProgramModel(classes=classes, bindings=bindings)


def load_program_model(path: Path | str) -> ProgramModel:
    return read_document(path, "program model", _program_model_from_json)
