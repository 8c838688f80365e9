from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings

from guiseq import corpus, ripper
from guiseq.appmodel import load_app_model
from guiseq.cli import main
from guiseq.graphs import GuiseqError
from guiseq.ripper import build_efg_from_structure, rip, save_structure, structure_to_json
from guiseq.simulator import CRASH_NULL_DEREF, available_events, launch

from oracles import relaunching_rip
from strategies import app_models

EXAMPLE_EDGES = {
    ("e1", "e1"), ("e1", "e2"), ("e1", "e3"),
    ("e2", "e1"), ("e2", "e2"), ("e2", "e3"),
    ("e3", "e4"),
    ("e4", "e1"), ("e4", "e2"), ("e4", "e3"),
}


def test_rip_example_structure(example_app):
    s = rip(example_app)
    assert s.app == "example-app"
    assert [w.name for w in s.windows] == ["MainWindow", "Dialog"]
    assert s.initials == ("e1", "e2", "e3")
    # each event fired exactly once
    assert sorted(f.event for f in s.firings) == ["e1", "e2", "e3", "e4"]
    by_event = {f.event: f for f in s.firings}
    assert by_event["e3"].opened == (("Dialog", ("e4",)),)
    assert by_event["e3"].own_window_persists
    assert not by_event["e3"].own_window_unblocked  # the dialog is modal
    assert by_event["e4"].closed_any
    assert by_event["e4"].context == ("e3",)


def test_example_flow_graph(example_app, example_efg):
    ripped = build_efg_from_structure(rip(example_app))
    assert ripped == example_efg
    assert ripped.initials == ("e1", "e2", "e3")
    assert set(ripped.edge_set) == EXAMPLE_EDGES


def test_jabref_flow_graph(jabref_app, jabref_efg):
    s = rip(jabref_app)
    assert build_efg_from_structure(s) == jabref_efg
    assert jabref_efg.initials == ("Manage content selectors",)
    # "Close database" runs with the selector dialog still open in the
    # background, but only its own window's events become flow targets, so
    # there is no ("Close database", "OK") edge.  "OK" closes its own window,
    # which makes everything in the settled state a target.
    assert set(jabref_efg.edge_set) == {
        ("Manage content selectors", "Close database"),
        ("Manage content selectors", "OK"),
        ("Close database", "Manage content selectors"),
        ("OK", "Manage content selectors"),
        ("OK", "Close database"),
    }
    # "Close database" was greyed out when its window was first seen
    main = next(w for w in s.windows if w.main)
    flags = {widget.event: s.enabled_at_discovery[widget.event] for widget in main.widgets}
    assert flags == {"Manage content selectors": True, "Close database": False}


def test_rachota_flow_graph(rachota_app, rachota_efg):
    assert build_efg_from_structure(rip(rachota_app)) == rachota_efg
    assert rachota_efg.initials == ("System settings",)
    assert set(rachota_efg.edge_set) == {
        ("System settings", "Add task"),
        ("System settings", "OK1"),
        ("Add task", "OK2"),
        ("OK2", "System settings"),
    }


def crasher_model(tmp_path):
    """Event ``a`` opens a window and then crashes; ``b`` and ``c`` are harmless."""
    doc = {
        "schemaVersion": 1,
        "name": "crasher",
        "windows": [
            {
                "name": "Main",
                "main": True,
                "modal": False,
                "widgets": [
                    {"id": "wa", "event": "a", "enabled": True},
                    {"id": "wb", "event": "b", "enabled": True},
                ],
            },
            {
                "name": "W",
                "main": False,
                "modal": False,
                "widgets": [{"id": "wc", "event": "c", "enabled": True}],
            },
        ],
        "fields": {"Main.hole": None},
        "onLaunch": [],
        "handlers": {
            "a": [{"op": "open", "window": "W"}, {"op": "deref", "field": "Main.hole"}],
            "b": [{"op": "log", "field": "Main.hole"}],
            "c": [{"op": "close", "window": "W"}],
        },
        "methods": {},
    }
    p = tmp_path / "crasher.json"
    p.write_text(json.dumps(doc))
    return load_app_model(p)


def test_crashing_event_is_recorded_but_contributes_nothing(tmp_path):
    model = crasher_model(tmp_path)
    s = rip(model)
    by_event = {f.event: f for f in s.firings}
    assert by_event["a"].crashed
    assert by_event["a"].crash.kind == CRASH_NULL_DEREF
    assert by_event["a"].crash.statement == "h:a/1"
    # the window the handler opened before crashing was never reached again
    assert [w.name for w in s.windows] == ["Main"]

    g = build_efg_from_structure(s)
    assert g.events == ("a", "b")  # c belongs to the undiscovered window
    assert set(g.edge_set) == {("b", "a"), ("b", "b")}


@pytest.mark.parametrize("name", ["example-app", "jabref-scenario", "rachota-scenario"])
def test_rip_equals_the_relaunching_oracle(name):
    model = corpus.app_model(name)
    assert rip(model) == relaunching_rip(model)


@settings(max_examples=100, deadline=None)
@given(model=app_models())
def test_rip_equals_the_relaunching_oracle_on_drawn_models(model):
    assume(available_events(launch(model, {})[0]))  # rip refuses a launch that offers none
    assert rip(model) == relaunching_rip(model)


def test_rip_of_a_crashing_model_equals_the_relaunching_oracle(tmp_path):
    model = crasher_model(tmp_path)
    assert rip(model) == relaunching_rip(model)


@pytest.mark.parametrize("name", ["example-app", "jabref-scenario", "rachota-scenario", "crasher"])
def test_rip_reads_availability_once_per_settled_state(tmp_path, monkeypatch, name):
    """Once after launch and once after each firing that did not crash: a
    context's events are the ones its firing already read."""
    model = crasher_model(tmp_path) if name == "crasher" else corpus.app_model(name)
    calls = []

    def counted(state):
        calls.append(state)
        return available_events(state)

    monkeypatch.setattr(ripper, "available_events", counted)
    s = rip(model)
    assert len(calls) == 1 + sum(not f.crashed for f in s.firings)


def test_rip_refuses_an_app_that_crashes_on_launch(tmp_path):
    doc = {
        "schemaVersion": 1,
        "name": "dead-on-arrival",
        "windows": [
            {
                "name": "Main",
                "main": True,
                "modal": False,
                "widgets": [{"id": "w", "event": "e", "enabled": True}],
            }
        ],
        "fields": {"Main.hole": None},
        "onLaunch": [{"op": "deref", "field": "Main.hole"}],
        "handlers": {"e": []},
        "methods": {},
    }
    p = tmp_path / "doa.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(GuiseqError, match="crashed in its launch block"):
        rip(load_app_model(p))


def one_window_model(tmp_path, on_launch, handlers, enabled=True):
    """A main window whose widgets fire ``handlers``' events, each enabled
    or not, after ``on_launch`` runs."""
    doc = {
        "schemaVersion": 1,
        "name": "one-window",
        "windows": [
            {
                "name": "Main",
                "main": True,
                "modal": False,
                "widgets": [
                    {"id": f"w{event}", "event": event, "enabled": enabled} for event in handlers
                ],
            }
        ],
        "fields": {},
        "onLaunch": on_launch,
        "handlers": handlers,
        "methods": {},
    }
    p = tmp_path / "one-window.json"
    p.write_text(json.dumps(doc))
    return p


@pytest.mark.parametrize(
    ("on_launch", "enabled", "how"),
    [
        ([{"op": "exit"}], True, "exited in its launch block"),
        ([{"op": "close", "window": "Main"}], True, "exited in its launch block"),
        ([], False, "enables no event on launch"),
    ],
    ids=["exit", "close-main", "nothing-enabled"],
)
def test_rip_refuses_an_app_that_offers_no_event_on_launch(
    tmp_path, capsys, on_launch, enabled, how
):
    model = one_window_model(tmp_path, on_launch, {"e": []}, enabled)
    outs = [tmp_path / name for name in ("efg.json", "structure.json")]
    argv = ["rip", "--model", str(model), "--out", str(outs[0]), "--structure", str(outs[1])]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {model}: application 'one-window' {how}; cannot rip\n"
    assert not any(out.exists() for out in outs)


def test_structure_of_a_crashed_and_of_an_exiting_firing(tmp_path):
    firings = structure_to_json(rip(crasher_model(tmp_path)))["firings"]
    assert firings[0] == {
        "event": "a",
        "context": [],
        "crashed": True,
        "exited": True,
        "ownWindow": "Main",
        "ownWindowPersists": False,
        "ownWindowUnblocked": False,
        "opened": [],
        "closedAny": False,
        "postAvailable": [],
        "postEnabledOwnWindow": [],
        "crash": {"kind": CRASH_NULL_DEREF, "statement": "h:a/1"},
    }
    model = one_window_model(tmp_path, [], {"q": [{"op": "exit"}], "x": []})
    firings = structure_to_json(rip(load_app_model(model)))["firings"]
    assert firings[0] == {
        "event": "q",
        "context": [],
        "crashed": False,
        "exited": True,
        "ownWindow": "Main",
        "ownWindowPersists": True,
        "ownWindowUnblocked": False,
        "opened": [],
        "closedAny": False,
        "postAvailable": [],
        "postEnabledOwnWindow": ["q", "x"],
    }


def test_structure_serialization(tmp_path, example_app):
    s = rip(example_app)
    doc = structure_to_json(s)
    assert doc["app"] == "example-app"
    assert doc["initials"] == ["e1", "e2", "e3"]
    assert {w["name"] for w in doc["windows"]} == {"MainWindow", "Dialog"}
    e3 = next(f for f in doc["firings"] if f["event"] == "e3")
    assert e3["opened"] == [{"window": "Dialog", "initialEvents": ["e4"]}]
    assert "crash" not in e3

    out = tmp_path / "structure.json"
    save_structure(s, out)
    assert json.loads(out.read_text()) == doc
    again = tmp_path / "structure2.json"
    save_structure(rip(example_app), again)
    assert out.read_bytes() == again.read_bytes()


def test_structure_windows_are_the_discovered_windows_with_their_first_flags(tmp_path):
    doc = {
        "schemaVersion": 1,
        "name": "windows",
        "windows": [
            {
                "name": "Main",
                "main": True,
                "windowEvent": "refresh",
                "widgets": [
                    {"id": "wo", "event": "open"},
                    {"id": "wd", "event": "del", "enabled": False},
                ],
            },
            {
                "name": "Dialog",
                "modal": True,
                "widgets": [{"id": "wk", "event": "ok"}, {"id": "wc", "event": "cancel"}],
            },
            {"name": "Never", "widgets": [{"id": "wn", "event": "never"}]},
        ],
        "fields": {},
        "handlers": {
            "refresh": [],
            "open": [
                {"op": "enable", "window": "Dialog", "widget": "wc", "enabled": False},
                {"op": "open", "window": "Dialog"},
            ],
            "del": [],
            "ok": [{"op": "close", "window": "Dialog"}],
            "cancel": [],
            "never": [],
        },
    }
    p = tmp_path / "windows.json"
    p.write_text(json.dumps(doc))
    assert structure_to_json(rip(load_app_model(p)))["windows"] == [
        {
            "name": "Main",
            "modal": False,
            "main": True,
            "widgets": [
                {"id": "wo", "event": "open", "enabledAtDiscovery": True},
                {"id": "wd", "event": "del", "enabledAtDiscovery": False},
            ],
            "windowEvent": "refresh",
        },
        {
            "name": "Dialog",
            "modal": True,
            "main": False,
            "widgets": [
                {"id": "wk", "event": "ok", "enabledAtDiscovery": True},
                {"id": "wc", "event": "cancel", "enabledAtDiscovery": False},
            ],
        },
    ]
