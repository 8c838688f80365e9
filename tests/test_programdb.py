from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guiseq import corpus
from guiseq.graphs import Efg, GuiseqError
from guiseq.programdb import (
    ClassDb,
    ProgramClass,
    ProgramMethod,
    ProgramModel,
    UnboundEventError,
    build_class_db,
    build_edg,
    derive_program_model,
    load_program_model,
    program_model_to_json,
)

from oracles import brute_force_edg, fixpoint_effects, in_declaration_order


def model_of(fields, methods, bindings) -> ProgramModel:
    cls = ProgramClass(
        name="C",
        fields=tuple(fields),
        methods=tuple(
            ProgramMethod(
                name=f"C.{name}",
                reads=tuple(f"C.{f}" for f in reads),
                writes=tuple(f"C.{f}" for f in writes),
                calls=tuple(f"C.{c}" for c in calls),
            )
            for name, reads, writes, calls in methods
        ),
    )
    return ProgramModel(classes=(cls,), bindings=dict(bindings))


def test_effect_closure_follows_calls():
    m = model_of(
        ["a", "b", "c"],
        [
            ("top", ["a"], [], ["mid"]),
            ("mid", [], ["b"], ["leaf"]),
            ("leaf", ["c"], ["c"], []),
        ],
        {"ev": "C.top"},
    )
    db = build_class_db(m)
    assert db.effects("ev")[0] == {"C.a", "C.c"}
    assert db.effects("ev")[1] == {"C.b", "C.c"}


def test_effect_closure_terminates_on_mutual_recursion():
    m = model_of(
        ["x", "y"],
        [
            ("ping", ["x"], [], ["pong"]),
            ("pong", [], ["y"], ["ping"]),
        ],
        {"ev": "C.ping", "ev2": "C.pong"},
    )
    db = build_class_db(m)
    assert db.effects("ev")[0] == {"C.x"}
    assert db.effects("ev")[1] == {"C.y"}
    assert db.effects("ev2")[0] == {"C.x"}


def test_build_class_db_rejects_broken_models():
    dup = ProgramModel(
        classes=(
            ProgramClass("C", ("a",), (ProgramMethod("C.m", (), (), ()),)),
            ProgramClass("D", (), (ProgramMethod("C.m", (), (), ()),)),
        ),
        bindings={},
    )
    with pytest.raises(GuiseqError, match="duplicate method 'C.m'"):
        build_class_db(dup)

    with pytest.raises(GuiseqError, match="unknown method 'C.gone'"):
        build_class_db(model_of(["a"], [("m", [], [], ["gone"])], {}))

    with pytest.raises(GuiseqError, match="undeclared field 'C.ghost'"):
        build_class_db(model_of(["a"], [("m", ["ghost"], [], [])], {}))


def test_unbound_event_raises_but_edg_only_warns():
    m = model_of(["a"], [("m", ["a"], ["a"], [])], {"e1": "C.m"})
    db = build_class_db(m)
    with pytest.raises(UnboundEventError):
        db.effects("e2")

    g = Efg.of(["e1", "e2"], ["e1"], [("e1", "e2")])
    d, warnings = build_edg(db, g)
    assert d.edges == (("e1", 1, "e1"),)
    assert warnings == ["event 'e2' has no handler binding; dependencies unknown"]


def test_example_dependency_graph(example_edg):
    assert example_edg.edges == (
        ("e1", 1, "e3"),
        ("e2", 1, "e2"),
        ("e4", 1, "e2"),
    )


def test_jabref_dependency_graph(jabref_edg):
    assert jabref_edg.edges == (
        ("Close database", 2, "Manage content selectors"),
        ("Close database", 2, "OK"),
        ("OK", 2, "Close database"),
    )


def test_rachota_dependency_weights(rachota_edg):
    weights = {(s, t): w for s, w, t in rachota_edg.edges}
    assert weights == {
        ("System settings", "Add task"): 7,
        ("System settings", "OK1"): 25,
        ("System settings", "OK2"): 6,
        ("Add task", "System settings"): 5,
        ("Add task", "OK1"): 4,
        ("Add task", "OK2"): 19,
        ("OK1", "System settings"): 6,
        ("OK1", "Add task"): 4,
        ("OK1", "OK2"): 6,
        ("OK2", "System settings"): 6,
        ("OK2", "Add task"): 4,
        ("OK2", "OK1"): 6,
    }


def test_bundled_literal_model_matches_derivation(example_app):
    """The checked-in per-statement program model must track the app model."""
    derived = program_model_to_json(derive_program_model(example_app))
    on_disk = json.loads(corpus.ir_path("example-app-literal").read_text())
    assert derived == on_disk


def test_derive_program_model_collects_handler_effects(example_app):
    m = derive_program_model(example_app)
    db = build_class_db(m)
    assert db.effects("e2")[0] == {"MainWindow.text"}
    assert db.effects("e2")[1] == {"MainWindow.text"}
    # e3's dialog-opening branch goes through two helper methods
    assert db.effects("e3")[1] == {"Dialog.mainWindow"}
    assert db.effects("e4")[0] == {"Dialog.mainWindow"}
    assert db.effects("e4")[1] == {"MainWindow.text"}


def test_derive_program_model_rejects_names_that_collide(example_app):
    handlers_owner = replace(example_app, fields={**example_app.fields, "Handlers.x": None})
    with pytest.raises(
        GuiseqError, match="^field owner 'Handlers' collides with the handlers class name$"
    ):
        derive_program_model(handlers_owner)
    event_as_method = replace(example_app, methods={**example_app.methods, "e2": (), "e1": ()})
    with pytest.raises(
        GuiseqError, match=r"^event ids collide with method names: \['e1', 'e2'\]$"
    ):
        derive_program_model(event_as_method)


def test_program_model_round_trip(tmp_path, example_app):
    m = derive_program_model(example_app)
    p = tmp_path / "m.json"
    p.write_text(json.dumps(program_model_to_json(m)))
    assert load_program_model(p) == m


def test_loaded_model_is_validated_on_indexing(tmp_path):
    # loading is pure deserialization; reference checks happen when the
    # model is indexed, which every consumer does before querying it.
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "schemaVersion": 1,
        "classes": [{"name": "C", "fields": [], "methods": [
            {"name": "C.m", "reads": [], "writes": [], "calls": ["C.gone"]},
        ]}],
        "bindings": {},
    }))
    m = load_program_model(p)
    with pytest.raises(GuiseqError, match="unknown method 'C.gone'"):
        build_class_db(m)

    p.write_text("[]")
    with pytest.raises(GuiseqError, match="JSON object"):
        load_program_model(p)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

FIELDS = ["f0", "f1", "f2", "f3"]
METHOD_NAMES = ["m0", "m1", "m2", "m3", "m4"]


@st.composite
def program_models(draw) -> ProgramModel:
    field_st = st.lists(st.sampled_from(FIELDS), unique=True, max_size=len(FIELDS))
    methods = []
    for name in METHOD_NAMES:
        methods.append((
            name,
            draw(field_st),
            draw(field_st),
            draw(st.lists(st.sampled_from(METHOD_NAMES), unique=True, max_size=3)),
        ))
    n_events = draw(st.integers(min_value=1, max_value=4))
    bindings = {
        f"e{i}": f"C.{draw(st.sampled_from(METHOD_NAMES))}" for i in range(n_events)
    }
    return model_of(FIELDS, methods, bindings)


@given(program_models())
@settings(max_examples=150)
def test_closure_matches_fixpoint_iteration(m: ProgramModel):
    db = build_class_db(m)
    reads = fixpoint_effects(m, "reads")
    writes = fixpoint_effects(m, "writes")
    for event, handler in m.bindings.items():
        assert db.effects(event)[0] == reads[handler]
        assert db.effects(event)[1] == writes[handler]


@given(program_models(), st.data())
@settings(max_examples=150)
def test_dependency_graph_matches_brute_force(m: ProgramModel, data):
    """In the declared order of the flow graph's events, some of which may
    have no binding."""
    unbound = data.draw(st.lists(st.sampled_from(["u0", "u1", "u2"]), unique=True))
    events = tuple(data.draw(st.permutations([*m.bindings, *unbound])))
    g = Efg.of(events, events[:1], [])
    d, warnings = build_edg(build_class_db(m), g)
    assert warnings == [
        f"event {e!r} has no handler binding; dependencies unknown"
        for e in events if e not in m.bindings
    ]
    assert d.edges == in_declaration_order(brute_force_edg(m, events), events)
