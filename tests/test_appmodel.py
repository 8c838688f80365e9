"""The statement table: every op parses, dumps back and has pinned effects."""

from __future__ import annotations

import json
import re

import pytest

from guiseq import corpus
from guiseq.appmodel import (
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
    statement_effects,
    walk_statements,
)
from guiseq.graphs import GuiseqError

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
    ],
    ids=[
        "copy-from", "readSetting-field", "if-cond", "open-window", "enable-widget",
        "call-method", "set-value", "writeSetting-key", "enable-enabled", "deref-no-field",
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
    ],
    ids=[
        "handlers-as-list", "methods-as-list", "statement-as-string", "cond-as-string",
        "cond-field-as-list", "unknown-condition-kind",
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
