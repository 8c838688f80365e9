"""Declarative model of a GUI application under test.

An :class:`AppModel` describes a small reactive application precisely enough
to simulate it: windows with widgets, object fields with initial values, and
event handlers written in a tiny statement language.  The simulator
(:mod:`guiseq.simulator`) runs the statements, compiled once per model
(:attr:`AppModel.program`); this module only defines and validates them.

The statement language is deliberately minimal — just enough to express the
behaviours that matter for event-interaction testing:

* field traffic (``set``, ``setNull``, ``read``, ``copy``) so handlers can
  depend on what earlier handlers did;
* control flow (``if`` over null/boolean/equality checks on a field);
* GUI effects (``open``, ``close``, ``enable``, ``exit``);
* persisted key-value settings (``writeSetting``, ``readSetting``) that
  survive an application restart;
* defect triggers (``deref`` crashes on a null field, ``throwArrayOob``
  crashes unconditionally — guard it with an ``if``);
* inert reads (``log``) and procedure calls (``call``).

Each op is defined in one place, the op table ``_OPS``: its class, its
JSON keys, and what each operand names.  Parsing (which checks each
operand's name as it reads it) and dumping read the table.  The simulator's
table of step builders, keyed by the same classes, is the other per-op
dispatch: it compiles each statement and notes the fields it reads and
writes and the method it calls.  Loading and compiling
(:attr:`AppModel.program`, which also lists :attr:`AppModel.coverage_universe`
and holds those notes) each walk the statements once.

Field names are owner-qualified strings such as ``"MainWindow.text"``; the
owner prefix groups fields the way a class would, which is also how
:func:`~guiseq.programdb.derive_program_model` reconstructs a static
read/write model from the compile's notes.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from pathlib import Path

from .graphs import SCHEMA_VERSION, GuiseqError, Value, read_document, typed

__all__ = [
    "FieldValue",
    "Condition",
    "Statement",
    "SetField",
    "SetNull",
    "ReadField",
    "CopyField",
    "If",
    "OpenWindow",
    "CloseWindow",
    "ExitApp",
    "Call",
    "WriteSetting",
    "ReadSetting",
    "SetWidgetEnabled",
    "Deref",
    "ThrowArrayOob",
    "Log",
    "Widget",
    "WindowSpec",
    "AppModel",
    "load_app_model",
    "app_model_to_json",
]

FieldValue = str | bool | None


class Condition(Value):
    """Predicate over a single field: ``isNull``, ``isTrue``, or ``equals``."""

    kind: str
    field: str
    value: str | None = None


class SetField(Value):
    field: str
    value: str | bool


class SetNull(Value):
    field: str


class ReadField(Value):
    field: str


class CopyField(Value):
    src: str
    dst: str


class If(Value):
    cond: Condition
    then: tuple["Statement", ...]
    orelse: tuple["Statement", ...] = ()


class OpenWindow(Value):
    window: str


class CloseWindow(Value):
    window: str


class ExitApp(Value):
    pass


class Call(Value):
    method: str


class WriteSetting(Value):
    key: str
    field: str


class ReadSetting(Value):
    key: str
    field: str


class SetWidgetEnabled(Value):
    window: str
    widget: str
    enabled: bool


class Deref(Value):
    field: str


class ThrowArrayOob(Value):
    pass


class Log(ReadField):
    """A read that only observes: the ``log`` op, analysed and run as ``read``."""


Statement = (
    SetField | SetNull | ReadField | CopyField | If | OpenWindow | CloseWindow | ExitApp
    | Call | WriteSetting | ReadSetting | SetWidgetEnabled | Deref | ThrowArrayOob | Log
)

# ---------------------------------------------------------------------------
# The statement table
# ---------------------------------------------------------------------------

#: The op table: each op's class and a ``(JSON key, role)`` per field of
#: the class, in order.  A role says what the operand names: a model field the
#: statement ``"read"``s or ``"write"``s, a declared ``"window"`` or
#: ``"method"``, or a ``"widget"`` of the statement's window.  ``"value"``
#: (string or boolean) and ``"flag"`` (boolean) are literals; None is any
#: other string.  ``if``, a condition and two blocks, is handled by hand.
_OPS: dict[str, tuple[type, tuple[tuple[str, str | None], ...]]] = {
    "set": (SetField, (("field", "write"), ("value", "value"))),
    "setNull": (SetNull, (("field", "write"),)),
    "read": (ReadField, (("field", "read"),)),
    "copy": (CopyField, (("from", "read"), ("to", "write"))),
    "open": (OpenWindow, (("window", "window"),)),
    "close": (CloseWindow, (("window", "window"),)),
    "exit": (ExitApp, ()),
    "call": (Call, (("method", "method"),)),
    "writeSetting": (WriteSetting, (("key", None), ("field", "read"))),
    "readSetting": (ReadSetting, (("key", None), ("field", "write"))),
    "enable": (SetWidgetEnabled, (("window", None), ("widget", "widget"), ("enabled", "flag"))),
    "deref": (Deref, (("field", "read"),)),
    "throwArrayOob": (ThrowArrayOob, ()),
    "log": (Log, (("field", "read"),)),
}

#: The table by class: the op and ``(field, JSON key, role)`` per operand.
_BY_CLASS = {
    cls: (op, tuple((f, *operand) for f, operand in zip(cls.__match_args__, operands)))
    for op, (cls, operands) in _OPS.items()
}
#: The JSON types, and their name in errors, of literals; other operands are strings.
_LITERAL_TYPES = {"value": ((str, bool), "a string or boolean"), "flag": ((bool,), "a boolean")}
_STRING = ((str,), "a string")

_CONDITION_KINDS = ("isNull", "isTrue", "equals")


class Widget(Value):
    id: str
    event: str
    enabled: bool = True


class WindowSpec(Value):
    name: str
    widgets: tuple[Widget, ...]
    modal: bool = False
    main: bool = False
    window_event: str | None = None

    @cached_property
    def events(self) -> tuple[str, ...]:
        """The window's events: its window event, if any, then its widgets'
        events in widget order."""
        events = tuple(widget.event for widget in self.widgets)
        return events if self.window_event is None else (self.window_event, *events)


class AppModel(Value):
    """A complete application description.

    ``handlers`` maps event ids to statement blocks; ``methods`` holds named
    blocks reachable via ``call``.  ``on_launch`` runs on every application
    (re)start — it is where settings written by a previous run come back to
    bite.
    """

    name: str
    windows: tuple[WindowSpec, ...]
    fields: Mapping[str, FieldValue]
    handlers: Mapping[str, tuple[Statement, ...]]
    methods: Mapping[str, tuple[Statement, ...]]
    on_launch: tuple[Statement, ...] = ()

    @cached_property
    def events(self) -> tuple[str, ...]:
        """All event ids in declaration order (the universal tie-break order):
        each window's :attr:`WindowSpec.events`, windows in declaration order."""
        return tuple(e for w in self.windows for e in w.events)

    @cached_property
    def main_window(self) -> str:
        return next(w.name for w in self.windows if w.main)

    @cached_property
    def window_by_name(self) -> Mapping[str, WindowSpec]:
        return {w.name: w for w in self.windows}

    @cached_property
    def event_window(self) -> Mapping[str, str]:
        """The window each event belongs to (its widget's window, or the
        declaring window for window-level events)."""
        return {e: w.name for w in self.windows for e in w.events}

    @cached_property
    def initial_enabled(self) -> Mapping[str, bool]:
        """Each event's declared enabled flag, keyed by event; a window event
        is always enabled.  Every launch starts from a copy."""
        return dict.fromkeys(self.events, True) | {
            widget.event: widget.enabled for w in self.windows for widget in w.widgets
        }

    @cached_property
    def program(self) -> Program:
        """The handlers, methods and launch block compiled for the simulator
        (:class:`guiseq.simulator.Program`), built on the first launch or
        fire, not when the model is loaded."""
        from .simulator import Program  # that module imports this one

        return Program(self)

    @property
    def coverage_universe(self) -> tuple[frozenset[str], frozenset[str]]:
        """All statement ids and branch ids the model can ever execute, as compiled.

        Statement ids name a statement by its position: ``h:<event>/<path>``
        for handler bodies, ``m:<method>/<path>`` for named methods,
        ``launch/<path>`` for the launch block.  ``<path>`` is the dotted
        index path, descending into conditionals via ``.t.``/``.e.`` — e.g.
        ``h:e3/0.t.1`` is the second statement of the then-branch of the
        conditional at position 0.  Each conditional also contributes two
        branch ids, ``<id>:then`` and ``<id>:else``.
        """
        return self.program.statement_ids, self.program.branch_ids


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_app_model(model: AppModel) -> list[str]:
    """The structural violations; the names statements use are checked as parsed."""
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
    return violations


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _parse_condition(doc: dict, where: str) -> Condition:
    kind = typed(doc, dict, f"{where} cond").get("kind")
    if kind not in _CONDITION_KINDS:
        raise GuiseqError(f"{where}: unknown condition kind {kind!r}")
    value = doc.get("value")
    if kind == "equals" and not isinstance(value, str):
        raise GuiseqError(f"{where}: 'equals' condition needs a string value")
    if kind != "equals" and value is not None:
        raise GuiseqError(f"{where}: {kind!r} condition takes no 'value'")
    field = typed(doc["field"], str, f"{where} cond field")
    return Condition(kind=kind, field=field, value=value)


#: What a violation calls a name of each checked role that is not declared.
_UNDECLARED = {
    "read": "undeclared field",
    "write": "undeclared field",
    "window": "undeclared window",
    "widget": "unknown widget",
    "method": "call to undeclared method",
}


def _parse_statement(doc: dict, where: str, declared: dict, violations: list[str]) -> Statement:
    """``doc``'s statement; each name not ``declared`` (by role) adds a violation."""
    op = typed(doc, dict, f"{where} statement").get("op")
    if op == "if":
        try:
            cond = _parse_condition(doc["cond"], where)
            if cond.field not in declared["read"]:
                violations.append(f"{where}: undeclared field {cond.field!r}")
            blocks = [
                _parse_block(doc.get(key, []), where, declared, violations, f"{where} {key}")
                for key in ("then", "else")
            ]
        except KeyError as exc:
            raise GuiseqError(f"{where}: statement 'if' missing key {exc}") from None
        return If(cond, *blocks)
    if op not in _OPS:
        raise GuiseqError(f"{where}: unknown statement op {op!r}")
    cls, operands = _OPS[op]
    values = []
    for key, role in operands:
        if key not in doc:
            raise GuiseqError(f"{where}: statement {op!r} missing key {key!r}")
        value = doc[key]
        types, noun = _LITERAL_TYPES.get(role, _STRING)
        if type(value) not in types:
            raise GuiseqError(f"{where}: {op!r} {key} must be {noun}")
        values.append(value)
        if role in _UNDECLARED:
            name = (values[0], value) if role == "widget" else value  # in the window, operand 0
            if name not in declared[role]:
                shown = "%r/%r" % name if role == "widget" else repr(name)
                violations.append(f"{where}: {_UNDECLARED[role]} {shown}")
    return tuple.__new__(cls, values)  # every field, in order, without a Python frame


def _parse_block(docs: list, where: str, declared: dict, violations: list, what=None) -> tuple:
    """The statements of the list ``docs``, called ``what`` (or ``where``) if it is no list."""
    return tuple(
        _parse_statement(d, where, declared, violations) for d in typed(docs, list, what or where)
    )


def _app_model_from_json(doc: dict, default_name: str) -> AppModel:
    windows = tuple(
        WindowSpec(
            name=typed(w["name"], str, "window name"),
            modal=typed(w.get("modal", False), bool, f"window {w['name']!r} modal"),
            main=typed(w.get("main", False), bool, f"window {w['name']!r} main"),
            window_event=(
                None if (event := w.get("windowEvent")) is None
                else typed(event, str, f"window {w['name']!r} windowEvent")
            ),
            widgets=tuple(
                Widget(  # by position, the constructor's fast path: id, event, enabled
                    typed(widget["id"], str, "widget id"),
                    typed(widget["event"], str, f"widget {widget['id']!r} event"),
                    typed(widget.get("enabled", True), bool, f"widget {widget['id']!r} enabled"),
                )
                for widget in typed(w.get("widgets", []), list, f"window {w['name']!r} widgets")
            ),
        )
        for w in typed(doc.get("windows", []), list, "windows")
    )
    name = typed(doc.get("name", default_name), str, "model name")
    fields = typed(doc.get("fields", {}), dict, "fields")
    methods = doc.get("methods", {})
    # Method names read untyped: a bad handler is reported before a bad "methods".
    declared = {
        "read": fields,
        "write": fields,
        "window": {w.name for w in windows},
        "widget": {(w.name, widget.id) for w in windows for widget in w.widgets},
        "method": methods if type(methods) is dict else {},
    }
    violations: list[str] = []
    model = AppModel(
        name=name,
        windows=windows,
        fields=fields,
        handlers={
            event: _parse_block(block, f"handler {event!r}", declared, violations)
            for event, block in typed(doc.get("handlers", {}), dict, "handlers").items()
        },
        methods={
            method: _parse_block(block, f"method {method!r}", declared, violations)
            for method, block in typed(methods, dict, "methods").items()
        },
        on_launch=_parse_block(doc.get("onLaunch", []), "launch block", declared, violations),
    )
    violations[:0] = validate_app_model(model)
    if violations:
        raise GuiseqError("; ".join(violations))
    return model


def load_app_model(path: Path | str) -> AppModel:
    default_name = Path(path).stem
    return read_document(
        path, "application model", lambda doc: _app_model_from_json(doc, default_name)
    )


def _condition_to_json(cond: Condition) -> dict:
    doc: dict = {"kind": cond.kind, "field": cond.field}
    if cond.value is not None:
        doc["value"] = cond.value
    return doc


def _statement_to_json(stmt: Statement) -> dict:
    if isinstance(stmt, If):
        doc = {
            "op": "if",
            "cond": _condition_to_json(stmt.cond),
            "then": [_statement_to_json(s) for s in stmt.then],
        }
        if stmt.orelse:
            doc["else"] = [_statement_to_json(s) for s in stmt.orelse]
        return doc
    op, operands = _BY_CLASS[type(stmt)]
    return {"op": op, **{key: getattr(stmt, attr) for attr, key, _ in operands}}


def app_model_to_json(model: AppModel) -> dict:
    windows = []
    for w in model.windows:
        wdoc: dict = {
            "name": w.name,
            "modal": w.modal,
            "main": w.main,
            "widgets": [
                {"id": widget.id, "event": widget.event, "enabled": widget.enabled}
                for widget in w.widgets
            ],
        }
        if w.window_event is not None:
            wdoc["windowEvent"] = w.window_event
        windows.append(wdoc)
    return {
        "schemaVersion": SCHEMA_VERSION,
        "name": model.name,
        "windows": windows,
        "fields": dict(model.fields),
        "onLaunch": [_statement_to_json(s) for s in model.on_launch],
        "handlers": {
            event: [_statement_to_json(s) for s in block]
            for event, block in model.handlers.items()
        },
        "methods": {
            name: [_statement_to_json(s) for s in block]
            for name, block in model.methods.items()
        },
    }
