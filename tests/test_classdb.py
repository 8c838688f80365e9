"""The program-model index: the order of its eager checks, and one walk
of each handler's call graph when the dependency graph is built."""

from __future__ import annotations

from collections import Counter

import pytest

from guiseq.corpus import program_model
from guiseq.graphs import Efg, GuiseqError
from guiseq.programdb import (
    ClassDb,
    ProgramClass,
    ProgramMethod,
    ProgramModel,
    build_class_db,
    build_edg,
)


def test_a_duplicate_method_is_reported_before_an_earlier_unknown_callee():
    model = ProgramModel(
        classes=(
            ProgramClass("C", (), (ProgramMethod("C.m", (), (), ("C.gone",)),)),
            ProgramClass("D", (), (ProgramMethod("D.n", (), (), ()),) * 2),
        ),
        bindings={},
    )
    with pytest.raises(GuiseqError, match=r"^duplicate method 'D\.n' in program model$"):
        build_class_db(model)


def test_an_unknown_callee_is_reported_before_a_later_undeclared_field():
    model = ProgramModel(
        classes=(
            ProgramClass("C", ("a",), (
                ProgramMethod("C.m", ("C.a",), (), ("C.gone",)),
                ProgramMethod("C.n", ("C.ghost",), (), ()),
            )),
        ),
        bindings={},
    )
    with pytest.raises(GuiseqError, match=r"^method 'C\.m' calls unknown method 'C\.gone'$"):
        build_class_db(model)


def test_build_edg_walks_each_events_handler_once(monkeypatch, example_efg):
    calls: Counter[str] = Counter()
    effects = ClassDb.effects

    def spy(self, event):
        calls[event] += 1
        return effects(self, event)

    monkeypatch.setattr(ClassDb, "effects", spy)
    # an event with no binding is walked, and warned about, once too
    efg = Efg.of([*example_efg.events, "unbound"], example_efg.initials, example_efg.edges)
    edg, warnings = build_edg(build_class_db(program_model("example-app-curated")), efg)
    assert calls == Counter(efg.events)
    assert warnings == ["event 'unbound' has no handler binding; dependencies unknown"]
    assert edg.edges == (("e1", 1, "e3"), ("e2", 1, "e2"), ("e4", 1, "e2"))
