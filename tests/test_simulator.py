from __future__ import annotations

import gc
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guiseq import corpus
from guiseq.appmodel import _OPS, If, load_app_model
from guiseq.graphs import GuiseqError
from guiseq.programdb import HANDLERS, derive_program_model
from guiseq.simulator import (
    _STEPS,
    CRASH_ARRAY_OOB,
    CRASH_NULL_DEREF,
    MAX_CALL_DEPTH,
    Coverage,
    CrashRecord,
    available_events,
    fire_event,
    is_available,
    launch,
)

from oracles import (
    fixpoint_effects,
    interpreted_fire,
    interpreted_launch,
    scanned_available_events,
    walked_program_model,
)
from strategies import app_models


def write_model(tmp_path, doc):
    base = {
        "schemaVersion": 1,
        "name": "synthetic",
        "fields": {},
        "onLaunch": [],
        "methods": {},
    }
    base.update(doc)
    p = tmp_path / "app.json"
    p.write_text(json.dumps(base))
    return load_app_model(p)


def two_window_doc(**overrides):
    doc = {
        "windows": [
            {
                "name": "Main",
                "main": True,
                "modal": False,
                "widgets": [
                    {"id": "w1", "event": "open", "enabled": True},
                    {"id": "w2", "event": "quit", "enabled": True},
                ],
            },
            {
                "name": "Aux",
                "main": False,
                "modal": False,
                "widgets": [{"id": "w3", "event": "shut", "enabled": True}],
            },
        ],
        "handlers": {
            "open": [{"op": "open", "window": "Aux"}],
            "quit": [{"op": "close", "window": "Main"}],
            "shut": [{"op": "close", "window": "Aux"}],
        },
    }
    doc.update(overrides)
    return doc


def test_example_coverage_universe(example_app):
    statements, branches = example_app.coverage_universe
    assert statements == {
        "h:e1/0",
        "h:e2/0", "h:e2/1",
        "h:e3/0", "h:e3/0.t.0", "h:e3/0.e.0",
        "h:e4/0", "h:e4/1", "h:e4/2",
        "m:openDialog/0", "m:openDialog/1",
        "m:closeDialog/0",
    }
    assert branches == {"h:e3/0:then", "h:e3/0:else"}


def test_available_events_follow_declaration_order(example_app):
    state, crash = launch(example_app, {})
    assert crash is None
    assert available_events(state) == ("e1", "e2", "e3")


def test_modal_window_blocks_everything_below(example_app):
    state, _ = launch(example_app, {})
    assert fire_event(state, "e3") is None
    assert state.open_windows == ["MainWindow", "Dialog"]
    assert available_events(state) == ("e4",)


def test_modeless_window_blocks_nothing(jabref_app):
    state, _ = launch(jabref_app, {})
    assert available_events(state) == ("Manage content selectors",)
    fire_event(state, "Manage content selectors")
    # the selector dialog is modeless, so main-window events stay live
    assert available_events(state) == ("Close database", "OK")


@pytest.mark.parametrize(
    "name", ["example-app", "jabref-scenario", "rachota-scenario", "window-events", "drawn"]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_availability_matches_the_scanning_oracle(tmp_path_factory, name, data):
    """Random walks that fire available events and relaunch against the same
    settings; at every step both availability checks agree with the oracle."""
    if name == "drawn":
        model = data.draw(app_models())
    elif name == "window-events":
        model = write_model(tmp_path_factory.getbasetemp(), WINDOW_EVENTS_DOC)
    else:
        model = corpus.app_model(name)
    store = {}
    state, _ = launch(model, store)
    for _ in range(data.draw(st.integers(min_value=0, max_value=25))):
        expected = scanned_available_events(state)
        assert available_events(state) == expected
        for event in model.events + ("no such event",):
            assert is_available(state, event) == (event in expected)
        if not expected or data.draw(st.integers(min_value=0, max_value=9)) == 0:
            state, _ = launch(model, store)
        else:
            fire_event(state, data.draw(st.sampled_from(expected)))


def observed(state):
    """Everything about a running instance that later events can see.  Its
    coverage sink is compared on its own, since forks share it."""
    return (
        dict(state.fields),
        list(state.open_windows),
        dict(state.enabled),
        dict(state.settings),
        state.exited,
    )


@pytest.mark.parametrize("name", ["example-app", "jabref-scenario", "rachota-scenario", "drawn"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_fork_continues_like_a_relaunch_that_fires_the_prefix_again(name, data):
    """Fork a state after a random walk; continuing the fork and continuing a
    fresh launch that fired the same walk again stay equal, through a final
    relaunch against the settings each one carries, and the forked state
    itself does not change but for the coverage sink it shares, call memo
    included."""
    model = data.draw(app_models()) if name == "drawn" else corpus.app_model(name)
    original, _ = launch(model, {})
    prefix = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=12))):
        available = available_events(original)
        if not available:
            break
        prefix.append(data.draw(st.sampled_from(available)))
        fire_event(original, prefix[-1])
    before = observed(original)

    fork = original.fork()
    relaunched, _ = launch(model, {})
    for event in prefix:
        fire_event(relaunched, event)
    assert observed(fork) == observed(relaunched) == before
    assert fork.coverage == relaunched.coverage
    for _ in range(data.draw(st.integers(min_value=0, max_value=12))):
        available = available_events(fork)
        if not available:
            break
        event = data.draw(st.sampled_from(available))
        assert fire_event(fork, event) == fire_event(relaunched, event)
        assert observed(fork) == observed(relaunched)
        assert fork.coverage == relaunched.coverage
    fork_again, fork_crash = launch(model, fork.settings, phase="restart")
    relaunched_again, relaunched_crash = launch(model, relaunched.settings, phase="restart")
    assert fork_crash == relaunched_crash
    assert observed(fork_again) == observed(relaunched_again)
    assert fork_again.coverage == relaunched_again.coverage
    assert observed(original) == before
    assert original.coverage is fork.coverage


def widget(event, enabled=True):
    return {"id": f"w_{event}", "event": event, "enabled": enabled}


#: A model for what the corpus does not do: a method that calls itself until
#: a field runs down, closing the main window, ``exit``, a boolean written to
#: the settings that crashes the launch block of the next launch, a modal
#: window with a window event, and a widget enabled at run time.
FEATURES_DOC = {
    "windows": [
        {
            "name": "Main",
            "main": True,
            "widgets": [widget(e) for e in ("count", "save", "quit", "stop", "dialog")]
            + [widget("boom", enabled=False)],
        },
        {"name": "Dialog", "modal": True, "windowEvent": "focus", "widgets": [widget("ok")]},
    ],
    "fields": {
        "Main.n": "2",
        "Main.flag": True,
        "Main.got": None,
        "Main.hole": None,
        "Main.text": "x",
    },
    "onLaunch": [
        {"op": "readSetting", "key": "flag", "field": "Main.got"},
        {
            "op": "if",
            "cond": {"kind": "equals", "field": "Main.got", "value": "false"},
            "then": [{"op": "deref", "field": "Main.hole"}],
            "else": [{"op": "log", "field": "Main.got"}],
        },
    ],
    "methods": {
        "countdown": [
            {
                "op": "if",
                "cond": {"kind": "equals", "field": "Main.n", "value": "2"},
                "then": [
                    {"op": "set", "field": "Main.n", "value": "1"},
                    {"op": "call", "method": "countdown"},
                ],
                "else": [
                    {
                        "op": "if",
                        "cond": {"kind": "equals", "field": "Main.n", "value": "1"},
                        "then": [
                            {"op": "set", "field": "Main.n", "value": "0"},
                            {"op": "call", "method": "countdown"},
                        ],
                        "else": [{"op": "copy", "from": "Main.n", "to": "Main.text"}],
                    }
                ],
            }
        ],
    },
    "handlers": {
        "count": [
            {"op": "call", "method": "countdown"},
            {"op": "set", "field": "Main.n", "value": "2"},
        ],
        "save": [
            {"op": "writeSetting", "key": "flag", "field": "Main.flag"},
            {
                "op": "if",
                "cond": {"kind": "isTrue", "field": "Main.flag"},
                "then": [{"op": "set", "field": "Main.flag", "value": False}],
                "else": [{"op": "set", "field": "Main.flag", "value": True}],
            },
        ],
        "quit": [
            {"op": "close", "window": "Main"},
            {"op": "set", "field": "Main.text", "value": "late"},
        ],
        "stop": [{"op": "exit"}, {"op": "set", "field": "Main.text", "value": "late"}],
        "dialog": [
            {"op": "open", "window": "Dialog"},
            {"op": "enable", "window": "Main", "widget": "w_boom", "enabled": True},
        ],
        "focus": [{"op": "read", "field": "Main.n"}],
        "ok": [{"op": "close", "window": "Dialog"}, {"op": "setNull", "field": "Main.text"}],
        "boom": [
            {
                "op": "if",
                "cond": {"kind": "isNull", "field": "Main.text"},
                "then": [{"op": "throwArrayOob"}],
                "else": [{"op": "deref", "field": "Main.text"}],
            }
        ],
    },
}


def enable(widget_event, enabled):
    return {"op": "enable", "window": "Main", "widget": f"w_{widget_event}", "enabled": enabled}


#: Window events, which no corpus model declares: one on the main window, one
#: on a modeless and one on a modal window, each opened and closed by
#: widgets, and handlers that disable and re-enable a main-window widget.
WINDOW_EVENTS_DOC = {
    "windows": [
        {
            "name": "Main",
            "main": True,
            "windowEvent": "mainFocus",
            "widgets": [widget(e) for e in ("tools", "ask", "flicker", "target", "quit")],
        },
        {
            "name": "Tools",
            "windowEvent": "toolsFocus",
            "widgets": [widget("toolsClose"), widget("reenable", enabled=False)],
        },
        {
            "name": "Ask",
            "modal": True,
            "windowEvent": "askFocus",
            "widgets": [widget("askOk"), widget("disable")],
        },
    ],
    "handlers": {
        "mainFocus": [],
        "tools": [{"op": "open", "window": "Tools"}],
        "ask": [{"op": "open", "window": "Ask"}],
        "flicker": [enable("target", False), enable("flicker", False), enable("flicker", True)],
        "target": [enable("target", False)],
        "quit": [{"op": "close", "window": "Main"}],
        "toolsFocus": [{"op": "enable", "window": "Tools", "widget": "w_reenable", "enabled": True}],
        "toolsClose": [{"op": "close", "window": "Tools"}],
        "reenable": [enable("target", True)],
        "askFocus": [],
        "askOk": [{"op": "close", "window": "Ask"}],
        "disable": [enable("tools", False), enable("target", False), enable("tools", True)],
    },
}


def call(method):
    return {"op": "call", "method": method}


#: Calls that the memo of write-free calls answers: ``check`` writes nothing
#: and derefs ``Main.text``, which ``clear`` sets to None; handlers call it at
#: depth 0, ``outer`` at depth 1, and ``bump``, which writes a field, calls
#: it too.  ``mode`` flips a field that ``check`` reads in its ``if``.
MEMO_DOC = {
    "windows": [
        {
            "name": "Main",
            "main": True,
            "widgets": [widget(e) for e in ("a", "b", "bump", "reset", "clear", "fill", "mode")],
        },
    ],
    "fields": {"Main.text": "x", "Main.mode": "a", "Main.n": "0"},
    "methods": {
        "check": [
            {"op": "deref", "field": "Main.text"},
            {
                "op": "if",
                "cond": {"kind": "equals", "field": "Main.mode", "value": "a"},
                "then": [{"op": "log", "field": "Main.mode"}],
                "else": [{"op": "read", "field": "Main.n"}],
            },
        ],
        "outer": [call("check"), {"op": "read", "field": "Main.n"}],
        "bump": [call("check"), {"op": "set", "field": "Main.n", "value": "1"}],
    },
    "handlers": {
        "a": [call("check")],
        "b": [call("outer")],
        "bump": [call("bump")],
        "reset": [{"op": "set", "field": "Main.n", "value": "0"}],
        "clear": [{"op": "setNull", "field": "Main.text"}],
        "fill": [{"op": "set", "field": "Main.text", "value": "y"}],
        "mode": [
            {
                "op": "if",
                "cond": {"kind": "equals", "field": "Main.mode", "value": "a"},
                "then": [{"op": "set", "field": "Main.mode", "value": "b"}],
                "else": [{"op": "set", "field": "Main.mode", "value": "a"}],
            }
        ],
    },
}


def assert_notes_match_the_walked_program_model(model):
    """The program model derived from the compile's notes is the one a walk
    of the statements finds, tuple order included, and each handler's read
    set is what that model's handler reads, by fixpoint iteration."""
    walked = walked_program_model(model)
    assert derive_program_model(model) == walked
    reads = fixpoint_effects(walked, "reads")
    assert {e: frozenset(fields) for e, fields in model.program.handler_reads.items()} == {
        e: reads[f"{HANDLERS}.{e}"] for e in model.events
    }


@pytest.mark.parametrize("name", ["example-app", "jabref-scenario", "rachota-scenario"])
def test_each_handlers_read_set_is_what_the_program_model_reads(name):
    model = corpus.app_model(name)
    assert model.program.handler_reads.keys() == set(model.events)
    assert_notes_match_the_walked_program_model(model)


@settings(max_examples=150, deadline=None)
@given(model=app_models(cycles=True))
def test_each_drawn_handlers_read_set_is_what_the_program_model_reads(model):
    assert_notes_match_the_walked_program_model(model)


def test_every_op_has_a_step_builder():
    assert set(_STEPS) == {cls for cls, _operands in _OPS.values()} | {If}


def walk_both(model, picks):
    """Walk a compiled and an interpreted instance of ``model`` in step and
    assert after every step that they are equal.  ``picks(available)`` gives
    the next event to fire, or None to relaunch both against the settings
    and into the coverage sink each carries.  Returns the crashes seen and
    the statements covered."""
    (compiled, crash), (interpreted, crash_again) = (
        launch(model, {}), interpreted_launch(model, {})
    )
    crashes = [crash]
    assert crash == crash_again
    assert observed(compiled) == observed(interpreted)
    assert compiled.coverage == interpreted.coverage
    while (event := picks(available_events(compiled))) is not False:
        if event is None:
            compiled, crash = launch(
                model, compiled.settings, phase="restart", coverage=compiled.coverage
            )
            interpreted, crash_again = interpreted_launch(
                model, interpreted.settings, phase="restart", coverage=interpreted.coverage
            )
            assert crash == crash_again
        else:
            crash = fire_event(compiled, event)
            assert crash == interpreted_fire(interpreted, event)
        crashes.append(crash)
        assert observed(compiled) == observed(interpreted)
        assert compiled.coverage == interpreted.coverage
    return crashes, compiled.coverage.statements


@pytest.mark.parametrize(
    "name",
    [
        "example-app", "jabref-scenario", "rachota-scenario",
        "features", "window-events", "memo", "drawn",
    ],
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compiled_handlers_run_like_the_interpreter(tmp_path_factory, name, data):
    """Random walks of events and relaunches give equal fields, window stack,
    enabled flags, settings, coverage, entered handlers, crashes and exit
    flags under the compiled steps and the statement-walking oracle."""
    docs = {"features": FEATURES_DOC, "window-events": WINDOW_EVENTS_DOC, "memo": MEMO_DOC}
    if name == "drawn":
        model = data.draw(app_models())
    elif name in docs:
        model = write_model(tmp_path_factory.getbasetemp(), docs[name])
    else:
        model = corpus.app_model(name)
    steps = iter(range(data.draw(st.integers(min_value=0, max_value=30))))

    def picks(available):
        if next(steps, None) is None:
            return False
        if not available or data.draw(st.integers(min_value=0, max_value=7)) == 0:
            return None
        return data.draw(st.sampled_from(available))

    walk_both(model, picks)


def test_the_features_model_reaches_each_feature_under_both(tmp_path):
    model = write_model(tmp_path, FEATURES_DOC)
    script = iter([
        "count", "dialog", "focus", "ok", "boom", None,  # throwArrayOob
        "dialog", "ok", "count", "boom", "save", "stop", None,  # a deref that holds, exit
        "save", "save", "quit", None,  # a boolean persisted as "false"
    ])
    crashes, statements = walk_both(model, lambda available: next(script, False))
    assert [c.statement for c in crashes if c is not None] == ["h:boom/0.t.0", "launch/1.t.0"]
    assert crashes[-1].phase == "restart"
    assert {"m:countdown/0.t.1", "m:countdown/0.e.0.t.1", "m:countdown/0.e.0.e.0"} <= statements
    assert {"h:stop/0", "h:quit/0"} <= statements
    assert not {"h:stop/1", "h:quit/1"} & statements


class CountingSet(set):
    """A statement set that counts how often each id is added: ``_run`` adds
    every statement it runs."""

    def __init__(self):
        super().__init__()
        self.runs = Counter()

    def add(self, sid):
        self.runs[sid] += 1
        super().add(sid)


def counting_sink():
    sink = Coverage()
    sink.statements = CountingSet()
    return sink


def test_a_write_free_method_runs_once_per_key_in_each_sink(tmp_path):
    """``check`` runs once per (depth, values it reads) in a sink, across
    relaunches into it, and a memoised crash is raised again; ``bump``
    writes, so it runs on every call; a fresh sink starts with no entry."""
    model = write_model(tmp_path, MEMO_DOC)
    sink = counting_sink()
    state, _ = launch(model, {}, coverage=sink)
    walk = ("a", "a", "b", "b", "bump", "reset", "bump", "reset", "mode", "a", "b", "mode", "a")
    for event in walk:
        assert fire_event(state, event) is None
    # mode "a" at depths 0 and 1, then mode "b" at depths 0 and 1; the
    # ``reset`` after each ``bump`` gives its next call equal values to read
    assert sink.statements.runs["m:check/0"] == 4
    assert sink.statements.runs["m:outer/0"] == 2
    assert sink.statements.runs["m:bump/0"] == 2
    assert {"m:check/1:then", "m:check/1:else"} <= sink.branches
    fire_event(state, "clear")
    crash = fire_event(state, "a")
    assert crash == CrashRecord(CRASH_NULL_DEREF, "m:check/0")
    assert sink.statements.runs["m:check/0"] == 5

    covered = set(sink.statements)
    state, _ = launch(model, {}, coverage=sink)
    fire_event(state, "clear")
    assert fire_event(state, "a") == crash
    assert state.exited
    assert sink.statements.runs["m:check/0"] == 5 and sink.statements == covered

    other = counting_sink()
    state, _ = launch(model, {}, coverage=other)
    assert fire_event(state, "a") is None
    assert other.statements.runs["m:check/0"] == 1
    assert sink.statements.runs["m:check/0"] == 5


def test_a_memoised_call_still_raises_past_the_depth_limit(tmp_path):
    """``probe`` ran at depth 0; reached again through a chain of write-free
    calls, with the same field values, its own call passes
    :data:`MAX_CALL_DEPTH`, so it raises, every time."""
    doc = two_window_doc()
    doc["fields"] = {"Main.x": "v"}
    chain = {f"d{k}": [call(f"d{k + 1}")] for k in range(MAX_CALL_DEPTH - 2)}
    doc["methods"] = chain | {
        f"d{MAX_CALL_DEPTH - 2}": [call("probe")],
        "probe": [call("leaf")],
        "leaf": [{"op": "read", "field": "Main.x"}],
    }
    doc["handlers"] |= {"open": [call("probe")], "quit": [call("d0")]}
    model = write_model(tmp_path, doc)
    state, _ = launch(model, {})
    assert fire_event(state, "open") is None
    for _ in range(2):
        with pytest.raises(GuiseqError, match=f"exceeded {MAX_CALL_DEPTH} at 'm:leaf/'"):
            fire_event(state, "quit")


def test_a_compiled_model_is_freed_without_the_garbage_collector(tmp_path):
    """No step refers to the program or its blocks, so a model, its compiled
    program and the states of a walk that memoises a call's crash are freed
    by reference counts alone: with a handler that calls a method that calls
    none, and with one whose method calls a method."""
    check = [{"op": "deref", "field": "Main.x"}]
    outer = {"check": check, "outer": [call("check")]}
    for methods, entry in ({"check": check}, "check"), (outer, "outer"):
        doc = two_window_doc()
        doc["fields"] = {"Main.x": None}
        doc["methods"] = methods
        doc["handlers"]["open"] = [call(entry)]
        model = write_model(tmp_path, doc)
        gc.collect()
        gc.disable()
        try:
            state, _ = launch(model, {})
            crash = fire_event(state, "open")
            state, _ = launch(model, {}, coverage=state.coverage)
            assert fire_event(state, "open") == crash is not None
            del model, state
            assert gc.collect() == 0, entry
        finally:
            gc.enable()


@pytest.mark.parametrize("name", ["example-app", "jabref-scenario", "rachota-scenario"])
def test_mutating_a_fork_leaves_the_original_untouched(name):
    model = corpus.app_model(name)
    original, _ = launch(model, {})
    fire_event(original, available_events(original)[0])
    before = observed(original)
    fork = original.fork()
    fork.settings["a key"] = "a value"
    fork.open_windows.append("a window")
    for key, enabled in fork.enabled.items():
        fork.enabled[key] = not enabled
    for field in fork.fields:
        fork.fields[field] = "changed"
    fork.exited = True
    assert observed(original) == before
    assert observed(original.fork()) == before
    assert fork.coverage is original.coverage


def test_reopen_and_close_missing_are_noops(tmp_path):
    doc = two_window_doc()
    doc["handlers"]["open"] = [
        {"op": "open", "window": "Aux"},
        {"op": "open", "window": "Aux"},
    ]
    doc["handlers"]["shut"] = [
        {"op": "close", "window": "Aux"},
        {"op": "close", "window": "Aux"},
    ]
    model = write_model(tmp_path, doc)
    state, _ = launch(model, {})
    assert fire_event(state, "open") is None
    assert state.open_windows == ["Main", "Aux"]
    assert fire_event(state, "shut") is None
    assert state.open_windows == ["Main"]
    assert not state.exited


def test_closing_main_window_exits(tmp_path):
    model = write_model(tmp_path, two_window_doc())
    state, _ = launch(model, {})
    assert fire_event(state, "quit") is None and state.exited
    assert state.exited
    assert available_events(state) == ()


def test_exit_aborts_the_running_handler(tmp_path):
    doc = two_window_doc()
    doc["fields"] = {"Main.mark": None}
    doc["handlers"]["quit"] = [
        {"op": "exit"},
        {"op": "set", "field": "Main.mark", "value": "late"},
    ]
    model = write_model(tmp_path, doc)
    state, _ = launch(model, {})
    assert fire_event(state, "quit") is None and state.exited
    assert state.fields["Main.mark"] is None
    assert "h:quit/1" not in state.coverage.statements


def test_null_dereference_crash_names_the_statement(example_app):
    state, _ = launch(example_app, {})
    fire_event(state, "e3")
    assert fire_event(state, "e4") is None  # nulls MainWindow.text
    crash = fire_event(state, "e2")
    assert crash is not None and state.exited
    assert crash.kind == CRASH_NULL_DEREF
    assert crash.statement == "h:e2/0"
    assert crash.phase == "event"
    # the crashing statement itself counts as covered, its successor does not
    assert "h:e2/0" in state.coverage.statements
    assert "h:e2/1" not in state.coverage.statements


def test_array_bounds_crash_in_else_branch(jabref_app):
    state, _ = launch(jabref_app, {})
    for event in ("Manage content selectors", "Close database", "Manage content selectors"):
        assert fire_event(state, event) is None
    crash = fire_event(state, "OK")
    assert crash is not None
    assert crash.kind == CRASH_ARRAY_OOB
    assert crash.statement == "h:OK/0.e.0"
    assert "h:OK/0:else" in state.coverage.branches


def test_settings_survive_relaunch_and_coerce_booleans(tmp_path):
    doc = two_window_doc()
    doc["fields"] = {"Main.flag": True, "Main.got": "x"}
    doc["handlers"]["open"] = [
        {"op": "writeSetting", "key": "k", "field": "Main.flag"},
        {"op": "readSetting", "key": "missing", "field": "Main.got"},
    ]
    model = write_model(tmp_path, doc)
    settings = {}
    state, _ = launch(model, settings)
    fire_event(state, "open")
    assert settings.get("k") == "true"
    assert state.fields["Main.got"] is None
    # a later launch against the same store sees what the first one wrote
    state2, _ = launch(model, settings)
    assert state2.settings.get("k") == "true"
    assert settings == {"k": "true"}


def test_widget_flags_survive_window_close_but_not_relaunch(tmp_path):
    doc = two_window_doc()
    doc["windows"][1]["widgets"][0]["enabled"] = False
    doc["handlers"]["open"] = [
        {"op": "open", "window": "Aux"},
        {"op": "enable", "window": "Aux", "widget": "w3", "enabled": True},
    ]
    model = write_model(tmp_path, doc)
    state, _ = launch(model, {})
    fire_event(state, "open")
    assert "shut" in available_events(state)
    fire_event(state, "shut")  # closes Aux
    state.open_windows.append("Aux")  # a bare reopen, no handler in between
    assert "shut" in available_events(state)

    fresh, _ = launch(model, {})
    fresh.open_windows.append("Aux")
    assert "shut" not in available_events(fresh)


def test_firing_an_unavailable_event_raises(example_app):
    state, _ = launch(example_app, {})
    with pytest.raises(GuiseqError, match="not available"):
        fire_event(state, "e4")


def test_runaway_recursion_is_cut_off(tmp_path):
    doc = two_window_doc()
    doc["handlers"]["open"] = [{"op": "call", "method": "loop"}]
    doc["methods"] = {"loop": [{"op": "call", "method": "loop"}]}
    model = write_model(tmp_path, doc)
    state, _ = launch(model, {})
    with pytest.raises(GuiseqError, match=f"call depth exceeded {MAX_CALL_DEPTH}"):
        fire_event(state, "open")


def test_launch_block_runs_and_can_crash(rachota_app):
    # nothing stored: the guarded branch stays cold
    state, crash = launch(rachota_app, {})
    assert crash is None
    assert "launch/1.t.0" not in state.coverage.statements

    # a count of "1" with no stored task dereferences null during startup
    poisoned = {}
    poisoned["tasks.count"] = "1"
    state, crash = launch(rachota_app, poisoned)
    assert crash is not None
    assert crash.kind == CRASH_NULL_DEREF
    assert crash.statement == "launch/1.t.1"
    assert crash.phase == "launch"
    assert state.exited


def test_load_rejects_invalid_models(tmp_path):
    p = tmp_path / "bad.json"

    doc = {
        "schemaVersion": 1,
        "name": "bad",
        "windows": [
            {"name": "A", "main": True, "modal": False, "widgets": []},
            {"name": "B", "main": True, "modal": False, "widgets": []},
        ],
        "fields": {},
        "onLaunch": [],
        "handlers": {},
        "methods": {},
    }
    p.write_text(json.dumps(doc))
    with pytest.raises(GuiseqError, match="exactly one main window"):
        load_app_model(p)

    doc["windows"] = [
        {
            "name": "A",
            "main": True,
            "modal": False,
            "widgets": [{"id": "w", "event": "e", "enabled": True}],
        }
    ]
    doc["handlers"] = {"e": [{"op": "frobnicate"}]}
    p.write_text(json.dumps(doc))
    with pytest.raises(GuiseqError, match="unknown statement op 'frobnicate'"):
        load_app_model(p)

    doc["handlers"] = {"e": [{"op": "set", "field": "A.ghost", "value": "x"}]}
    p.write_text(json.dumps(doc))
    with pytest.raises(GuiseqError, match="undeclared field 'A.ghost'"):
        load_app_model(p)

    doc["handlers"] = {}
    p.write_text(json.dumps(doc))
    with pytest.raises(GuiseqError, match="event 'e' has no handler"):
        load_app_model(p)
