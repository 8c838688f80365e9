"""The statement table: every op parses, dumps back, has pinned effects and
compiles to pinned notes, and statements of different kinds compare unequal.
A load reports undeclared names in the order a walk of the parsed model
finds them, and the compile lists the coverage universe a walk finds."""

from __future__ import annotations

import importlib
import json
import re
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guiseq import appmodel, corpus, replay, simulator
from guiseq.appmodel import (
    _BY_CLASS,
    _OPS,
    Call,
    CloseWindow,
    CopyField,
    Deref,
    ExitApp,
    If,
    Log,
    OpenWindow,
    ReadField,
    ReadSetting,
    SetField,
    SetNull,
    SetWidgetEnabled,
    ThrowArrayOob,
    WriteSetting,
    app_model_to_json,
    load_app_model,
    validate_app_model,
)
from guiseq.generate import SequenceRecord
from guiseq.graphs import GuiseqError

from oracles import (
    statement_effects,
    walk_statements,
    walked_coverage_universe,
    walked_violations,
)
from strategies import app_models, replace

BENCH = Path(__file__).resolve().parents[1] / "bench"

IF_DOC = {
    "op": "if",
    "cond": {"kind": "equals", "field": "A.x", "value": "v"},
    "then": [{"op": "read", "field": "A.y"}],
    "else": [{"op": "exit"}],
}

# (JSON as the dumper writes it, dataclass, fields read, fields written)
STATEMENTS = [
    ({"op": "set", "field": "A.x", "value": "v"}, SetField, (), ("A.x",)),
    ({"op": "setNull", "field": "A.x"}, SetNull, (), ("A.x",)),
    ({"op": "read", "field": "A.x"}, ReadField, ("A.x",), ()),
    ({"op": "copy", "from": "A.x", "to": "A.y"}, CopyField, ("A.x",), ("A.y",)),
    (IF_DOC, If, ("A.x",), ()),
    ({"op": "open", "window": "Dlg"}, OpenWindow, (), ()),
    ({"op": "close", "window": "Dlg"}, CloseWindow, (), ()),
    ({"op": "exit"}, ExitApp, (), ()),
    ({"op": "call", "method": "m"}, Call, (), ()),
    ({"op": "writeSetting", "key": "k", "field": "A.x"}, WriteSetting, ("A.x",), ()),
    ({"op": "readSetting", "key": "k", "field": "A.x"}, ReadSetting, (), ("A.x",)),
    (
        {"op": "enable", "window": "Dlg", "widget": "w", "enabled": False},
        SetWidgetEnabled,
        (),
        (),
    ),
    ({"op": "deref", "field": "A.x"}, Deref, ("A.x",), ()),
    ({"op": "throwArrayOob"}, ThrowArrayOob, (), ()),
    ({"op": "log", "field": "A.x"}, Log, ("A.x",), ()),
]


def _model_doc(handler: list) -> dict:
    """A model declaring every name the statements above refer to."""
    return {
        "schemaVersion": 1,
        "name": "ops",
        "windows": [
            {"name": "Main", "main": True, "modal": False,
             "widgets": [{"id": "go", "event": "e", "enabled": True}]},
            {"name": "Dlg", "main": False, "modal": True,
             "widgets": [{"id": "w", "event": "d", "enabled": True}]},
        ],
        "fields": {"A.x": None, "A.y": "y"},
        "onLaunch": [],
        "handlers": {"e": handler, "d": []},
        "methods": {"m": []},
    }


def test_every_op_has_a_case():
    assert {doc["op"] for doc, *_ in STATEMENTS} == set(_OPS) | {"if"}


@pytest.mark.parametrize(
    ("doc", "cls", "reads", "writes"), STATEMENTS, ids=[doc["op"] for doc, *_ in STATEMENTS]
)
def test_statement_parses_dumps_back_and_has_pinned_effects(tmp_path, doc, cls, reads, writes):
    path = tmp_path / "ops.app.json"
    path.write_text(json.dumps(_model_doc([doc])))
    model = load_app_model(path)
    (stmt,) = model.handlers["e"]
    assert type(stmt) is cls
    dumped = app_model_to_json(model)["handlers"]["e"][0]
    assert dumped == doc
    assert json.dumps(dumped) == json.dumps(doc)  # same key order
    assert statement_effects(stmt) == (reads, writes)
    noted_reads, noted_writes, callees = model.program.handler_uses["e"]
    if cls is If:  # the condition first, then what the branches note: A.y
        reads += ("A.y",)
    assert (tuple(noted_reads), tuple(noted_writes)) == (reads, writes)
    assert callees == (["m"] if cls is Call else [])


def test_statements_of_different_kinds_compare_unequal():
    same_operands = [
        [ReadField("A.x"), Log("A.x"), Deref("A.x"), SetNull("A.x")],
        [OpenWindow("W"), CloseWindow("W")],
        [ExitApp(), ThrowArrayOob()],
    ]
    for statements in same_operands:
        assert statements == [
            type(stmt)(*(getattr(stmt, f) for f in stmt.__match_args__)) for stmt in statements
        ]
        for a, b in combinations(statements, 2):
            assert a != b and b != a, (a, b)
        assert len(set(statements)) == len(statements)


def test_walk_statements_is_pre_order_with_branch_ids(tmp_path):
    path = tmp_path / "ops.app.json"
    path.write_text(json.dumps(_model_doc([{"op": "exit"}, IF_DOC])))
    block = load_app_model(path).handlers["e"]
    assert [(sid, type(stmt)) for sid, stmt in walk_statements(block, "h:e/")] == [
        ("h:e/0", ExitApp),
        ("h:e/1", If),
        ("h:e/1.t.0", ReadField),
        ("h:e/1.e.0", ExitApp),
    ]


@pytest.mark.parametrize("name", corpus.MODELS)
def test_corpus_model_round_trips_through_json(tmp_path, name):
    model = corpus.app_model(name)
    dumped = app_model_to_json(model)
    path = tmp_path / f"{name}.app.json"
    path.write_text(json.dumps(dumped))
    again = load_app_model(path)
    assert again == model
    assert json.dumps(app_model_to_json(again)) == json.dumps(dumped)


def test_a_window_event_round_trips_through_json(tmp_path):
    doc = _model_doc([])
    doc["windows"][1]["windowEvent"] = "focus"
    doc["handlers"]["focus"] = [{"op": "close", "window": "Dlg"}]
    path = tmp_path / "ops.app.json"
    path.write_text(json.dumps(doc))
    assert app_model_to_json(load_app_model(path)) == doc


@settings(max_examples=100, deadline=None)
@given(model=app_models())
def test_drawn_models_are_valid_and_round_trip_through_json(tmp_path_factory, model):
    assert validate_app_model(model) == []
    doc = app_model_to_json(model)
    path = tmp_path_factory.getbasetemp() / "drawn.app.json"
    path.write_text(json.dumps(doc))
    loaded = load_app_model(path)
    assert loaded == model
    assert app_model_to_json(loaded) == doc


@pytest.mark.parametrize(
    ("lookup", "message"),
    [
        (corpus.model_path, "unknown bundled model 'nope'"),
        (corpus.ir_path, "unknown bundled program model 'nope'"),
    ],
    ids=["model", "program-model"],
)
def test_an_unknown_bundled_name_raises_key_error(lookup, message):
    with pytest.raises(KeyError, match=re.escape(message)):
        lookup("nope")


@pytest.mark.parametrize(
    ("doc", "message"),
    [
        ({"op": "copy", "from": "A.ghost", "to": "A.y"}, "handler 'e': undeclared field 'A.ghost'"),
        ({"op": "readSetting", "key": "k", "field": "A.ghost"}, "undeclared field 'A.ghost'"),
        ({**IF_DOC, "cond": {"kind": "isNull", "field": "A.ghost"}}, "undeclared field 'A.ghost'"),
        ({"op": "open", "window": "Nope"}, "handler 'e': undeclared window 'Nope'"),
        (
            {"op": "enable", "window": "Dlg", "widget": "go", "enabled": True},
            "handler 'e': unknown widget 'Dlg'/'go'",
        ),
        ({"op": "call", "method": "gone"}, "handler 'e': call to undeclared method 'gone'"),
        ({"op": "set", "field": "A.x", "value": 7}, "'set' value must be a string or boolean"),
        ({"op": "writeSetting", "key": ["k"], "field": "A.x"}, "'writeSetting' key must be a string"),
        (
            {"op": "enable", "window": "Dlg", "widget": "w", "enabled": "no"},
            "'enable' enabled must be a boolean",
        ),
        ({"op": "deref"}, "handler 'e': statement 'deref' missing key 'field'"),
        ({"op": "if", "then": []}, "handler 'e': statement 'if' missing key 'cond'"),
    ],
    ids=[
        "copy-from", "readSetting-field", "if-cond", "open-window", "enable-widget",
        "call-method", "set-value", "writeSetting-key", "enable-enabled", "deref-no-field",
        "if-no-cond",
    ],
)
def test_invalid_operand_is_reported_with_the_file(tmp_path, doc, message):
    path = tmp_path / "ops.app.json"
    path.write_text(json.dumps(_model_doc([doc])))
    with pytest.raises(GuiseqError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
        load_app_model(path)


def test_events_without_a_handler_are_reported_in_declaration_order(tmp_path):
    doc = json.loads(corpus.model_path("example-app").read_text())
    doc["handlers"] = {"e4": doc["handlers"]["e4"]}
    path = tmp_path / "app.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GuiseqError) as exc:
        load_app_model(path)
    assert str(exc.value) == (
        f"{path}: event 'e1' has no handler; event 'e2' has no handler; "
        "event 'e3' has no handler"
    )


@pytest.mark.parametrize("value", [5, ["x"]], ids=["number", "list"])
def test_window_event_of_another_type_is_reported_with_the_file(tmp_path, value):
    doc = json.loads(corpus.model_path("example-app").read_text())
    doc["windows"][0]["windowEvent"] = value
    path = tmp_path / "app.json"
    path.write_text(json.dumps(doc))
    message = f"window 'MainWindow' windowEvent is {value!r}, not str"
    with pytest.raises(GuiseqError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}$"):
        load_app_model(path)


@pytest.mark.parametrize(
    ("path", "value", "message"),
    [
        (("handlers",), [], "malformed application model: handlers is [], not dict"),
        (("methods",), [], "malformed application model: methods is [], not dict"),
        (
            ("handlers", "e1", 0),
            "set",
            "malformed application model: handler 'e1' statement is 'set', not dict",
        ),
        (
            ("handlers", "e3", 0, "cond"),
            "isTrue",
            "malformed application model: handler 'e3' cond is 'isTrue', not dict",
        ),
        (
            ("handlers", "e3", 0, "cond", "field"),
            ["x"],
            "malformed application model: handler 'e3' cond field is ['x'], not str",
        ),
        (
            ("handlers", "e1"),
            [{"op": "if", "cond": {"kind": "bogus", "field": "MainWindow.enabled"}, "then": []}],
            "handler 'e1': unknown condition kind 'bogus'",
        ),
        (
            ("handlers", "e3", 0, "cond", "value"),
            [1],
            "handler 'e3': 'isTrue' condition takes no 'value'",
        ),
        (
            ("handlers", "e3", 0, "cond"),
            {"kind": "isNull", "field": "MainWindow.text", "value": {"x": 1}},
            "handler 'e3': 'isNull' condition takes no 'value'",
        ),
        (
            ("handlers", "e3", 0, "then"),
            {},
            "malformed application model: handler 'e3' then is {}, not list",
        ),
        (
            ("handlers", "e3", 0, "else"),
            {},
            "malformed application model: handler 'e3' else is {}, not list",
        ),
        (
            ("handlers", "e3", 0, "cond"),
            {"kind": "equals", "field": "MainWindow.text"},
            "handler 'e3': 'equals' condition needs a string value",
        ),
        (
            ("windows",),
            [],
            "model declares no windows; expected exactly one main window, found 0; "
            "handler for unknown event 'e1'; handler for unknown event 'e2'; "
            "handler for unknown event 'e3'; handler for unknown event 'e4'; "
            "method 'openDialog': undeclared window 'Dialog'; "
            "method 'closeDialog': undeclared window 'Dialog'",
        ),
        (
            ("windows", 1, "name"),
            "MainWindow",
            "duplicate window name 'MainWindow'; "
            "method 'openDialog': undeclared window 'Dialog'; "
            "method 'closeDialog': undeclared window 'Dialog'",
        ),
        (
            ("windows", 0, "widgets", 1, "id"),
            "b1",
            "window 'MainWindow': duplicate widget id 'b1'",
        ),
        (
            ("windows", 1, "widgets", 0, "event"),
            "e1",
            "duplicate event id 'e1'; handler for unknown event 'e4'",
        ),
        (
            ("fields", "x"),
            None,
            "field 'x' is not owner-qualified (expected 'Owner.field')",
        ),
        (
            ("fields", "MainWindow.text"),
            5,
            "field 'MainWindow.text' has unsupported initial value 5",
        ),
    ],
    ids=[
        "handlers-as-list", "methods-as-list", "statement-as-string", "cond-as-string",
        "cond-field-as-list", "unknown-condition-kind", "is-true-with-a-value",
        "is-null-with-a-value", "then-as-object", "else-as-object",
        "equals-without-a-value", "no-windows", "duplicate-window-name",
        "duplicate-widget-id", "duplicate-event-id", "field-not-owner-qualified",
        "field-of-another-type",
    ],
)
def test_a_bad_value_is_reported_by_its_key(tmp_path, path, value, message):
    doc = json.loads(corpus.model_path("example-app").read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    model = tmp_path / "app.json"
    model.write_text(json.dumps(doc))
    with pytest.raises(GuiseqError) as exc:
        load_app_model(model)
    assert str(exc.value) == f"{model}: {message}"


#: A name no corpus model declares, for each role whose names are checked.
UNDECLARED = {
    "read": "Ghost.field",
    "write": "Ghost.field",
    "window": "GhostWindow",
    "widget": "ghost",
    "method": "ghost",
}


def _operand_slots(block: tuple, steps: tuple = ()):
    """``(steps, attribute, role)`` of each checked operand of ``block``,
    conditions and branches included; ``steps`` leads to its statement
    through indexes and ``"then"``/``"orelse"``."""
    for i, stmt in enumerate(block):
        if isinstance(stmt, If):
            yield (*steps, i), "cond", "read"
            yield from _operand_slots(stmt.then, (*steps, i, "then"))
            yield from _operand_slots(stmt.orelse, (*steps, i, "orelse"))
        else:
            for attr, _, role in _BY_CLASS[type(stmt)][1]:
                if role in UNDECLARED:
                    yield (*steps, i), attr, role


def _with_operand(block: tuple, steps: tuple, attr: str, name: str) -> tuple:
    """``block`` with the operand at ``steps`` and ``attr`` naming ``name``."""
    i, *rest = steps
    stmt = block[i]
    if rest:
        branch, *rest = rest
        stmt = replace(stmt, **{branch: _with_operand(getattr(stmt, branch), rest, attr, name)})
    elif attr == "cond":
        stmt = replace(stmt, cond=replace(stmt.cond, field=name))
    else:
        stmt = replace(stmt, **{attr: name})
    return (*block[:i], stmt, *block[i + 1:])


@st.composite
def misnamed_models(draw, model):
    """``model`` with a few operands, in any block, pointed at other names,
    mostly undeclared ones, and perhaps one handler dropped."""
    names = {
        "read": list(model.fields),
        "window": [w.name for w in model.windows],
        "widget": [widget.id for w in model.windows for widget in w.widgets],
        "method": list(model.methods),
    }
    names["write"] = names["read"]
    for _ in range(draw(st.integers(0, 6))):
        blocks = [("handlers", event, block) for event, block in model.handlers.items()]
        blocks += [("methods", method, block) for method, block in model.methods.items()]
        blocks.append(("on_launch", None, model.on_launch))
        slots = [(kind, key, block, *slot) for kind, key, block in blocks
                 for slot in _operand_slots(block)]
        kind, key, block, steps, attr, role = draw(st.sampled_from(slots))
        name = draw(st.sampled_from([UNDECLARED[role]] * 3 + names[role]))
        block = _with_operand(block, steps, attr, name)
        if kind == "on_launch":
            model = replace(model, on_launch=block)
        else:
            model = replace(model, **{kind: {**getattr(model, kind), key: block}})
    if draw(st.booleans()):
        dropped = draw(st.sampled_from(list(model.handlers)))
        model = replace(model, handlers={e: b for e, b in model.handlers.items() if e != dropped})
    return model


@pytest.mark.parametrize("name", [*corpus.MODELS, "drawn"])
def test_load_reports_the_violations_of_a_walk_in_its_order(tmp_path_factory, name):
    """Operand names are checked as they are parsed: every violation, in the
    order a walk of the parsed model after its structural checks finds it.
    The ``drawn`` row misnames models drawn by ``strategies.app_models``:
    80 of them, since drawing a model costs more than checking it."""
    path = tmp_path_factory.getbasetemp() / f"{name}.app.json"
    bases = app_models() if name == "drawn" else st.just(corpus.app_model(name))

    @settings(max_examples=80 if name == "drawn" else 150, deadline=None)
    @given(model=bases.flatmap(misnamed_models))
    def check(model):
        path.write_text(json.dumps(app_model_to_json(model)))
        expected = walked_violations(model)
        if expected:
            with pytest.raises(GuiseqError) as exc:
                load_app_model(path)
            assert str(exc.value) == f"{path}: " + "; ".join(expected)
        else:
            assert load_app_model(path) == model

    check()


@pytest.mark.parametrize(
    "model",
    [*corpus.MODELS, *(f"bench:{w}" for w in ("blackbox-wide", "greybox-deep", "rip-wizard"))],
)
def test_the_compile_lists_the_walked_coverage_universe(monkeypatch, model):
    if model.startswith("bench:"):
        monkeypatch.syspath_prepend(str(BENCH))
        app = importlib.import_module("models").build_model(model.removeprefix("bench:"), 1)
    else:
        app = corpus.app_model(model)
    assert app.coverage_universe == walked_coverage_universe(app)


def test_loading_and_replaying_walk_no_statements(monkeypatch):
    """The parse checks names, and the compile lists the coverage universe
    and notes each statement's effects: loading and replaying parse each
    statement once and compile it once.  The statement walker, the tests'
    oracle now, is not in the package."""
    parsed, compiled = [], []

    def parse(doc, *args, _parse=appmodel._parse_statement):
        parsed.append(doc)
        return _parse(doc, *args)

    monkeypatch.setattr(appmodel, "_parse_statement", parse)
    for cls, build in simulator._STEPS.items():
        def counted(stmt, *args, _build=build):
            compiled.append(stmt)
            return _build(stmt, *args)
        monkeypatch.setitem(simulator._STEPS, cls, counted)
    model = load_app_model(corpus.model_path("example-app"))
    case = (SequenceRecord("s1", ("e3", "e4"), (0, 1), "blackbox"),)
    suite = replay.run_suite(model, [case])
    assert (suite.statements_total, suite.branches_total) == (12, 2)
    assert len(parsed) == len(compiled) == 12
    assert not any(hasattr(appmodel, name) for name in ("walk_statements", "statement_effects"))
