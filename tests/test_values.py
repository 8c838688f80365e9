"""The package's value classes: built by position or by keyword with the
defaults they declare, equal exactly when class and compared fields are,
hashed alike when equal, immutable unless they are one of the two mutable
records, printed with their class and fields, and copied whole; the ones
made per record or case hold no ``__dict__``.  Importing the command line
loads neither ``typing`` nor the modules a ``dataclasses`` import pulls in.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import guiseq
from guiseq import appmodel, generate, graphs, programdb, replay, ripper, simulator

#: Every value class and its fields, in constructor order: the positions and
#: keyword names that callers, the benchmark's model builder among them, use.
FIELDS = {
    appmodel.Condition: "kind field value",
    appmodel.SetField: "field value",
    appmodel.SetNull: "field",
    appmodel.ReadField: "field",
    appmodel.CopyField: "src dst",
    appmodel.If: "cond then orelse",
    appmodel.OpenWindow: "window",
    appmodel.CloseWindow: "window",
    appmodel.ExitApp: "",
    appmodel.Call: "method",
    appmodel.WriteSetting: "key field",
    appmodel.ReadSetting: "key field",
    appmodel.SetWidgetEnabled: "window widget enabled",
    appmodel.Deref: "field",
    appmodel.ThrowArrayOob: "",
    appmodel.Log: "field",
    appmodel.Widget: "id event enabled",
    appmodel.WindowSpec: "name widgets modal main window_event",
    appmodel.AppModel: "name windows fields handlers methods on_launch",
    graphs.Efg: "events initials edges",
    graphs.Edg: "events edges",
    generate.GenConfig: "mode length top",
    generate.SequenceRecord: "id events targets origin abstract split_of",
    generate.GenerationResult: "records diagnostics",
    programdb.ProgramMethod: "name reads writes calls",
    programdb.ProgramClass: "name fields methods",
    programdb.ProgramModel: "classes bindings",
    programdb.ClassDb: "model methods",
    simulator.CrashRecord: "kind statement phase position",
    simulator.Coverage: "statements branches handlers memo",
    simulator.GuiState: "model settings open_windows enabled fields coverage exited",
    ripper.Firing: (
        "event context crash exited own_window own_window_persists own_window_unblocked"
        " opened closed_any post_available post_enabled_own"
    ),
    ripper.GuiStructure: "app windows enabled_at_discovery initials firings",
    replay.CaseResult: "case verdict crash broken_at",
    replay.SuiteResult: (
        "model_name results statements_total branches_total covered_statements"
        " covered_branches entered_handlers"
    ),
}
MUTABLE = {simulator.Coverage, simulator.GuiState}
#: The fields a class leaves out of equality and repr.
UNCOMPARED = {simulator.Coverage: {"memo"}}

#: The declared defaults; a Coverage's sets and memo are new and empty.
DEFAULTS = {
    appmodel.Condition: {"value": None},
    appmodel.If: {"orelse": ()},
    appmodel.Widget: {"enabled": True},
    appmodel.WindowSpec: {"modal": False, "main": False, "window_event": None},
    appmodel.AppModel: {"on_launch": ()},
    generate.GenConfig: {"top": None},
    generate.SequenceRecord: {"abstract": None, "split_of": None},
    simulator.CrashRecord: {"phase": "event", "position": None},
    simulator.GuiState: {"exited": False},
    replay.CaseResult: {"crash": None, "broken_at": None},
    ripper.Firing: {
        "own_window_persists": False,
        "own_window_unblocked": False,
        "opened": (),
        "closed_any": False,
        "post_available": (),
        "post_enabled_own": (),
    },
}


def make(cls: type, *values, **fields):
    """A value of ``cls`` with these fields; a Coverage takes no argument, so
    its fields are assigned once it is made."""
    if cls is not simulator.Coverage:
        return cls(*values, **fields)
    sink = cls()
    for name, value in {**dict(zip(FIELDS[cls].split(), values)), **fields}.items():
        setattr(sink, name, value)
    return sink


def subclasses(cls: type) -> set[type]:
    return {c for sub in cls.__subclasses__() for c in {sub} | subclasses(sub)}


def test_every_value_class_is_listed():
    # GuiState and Coverage are mutable records, not Value tuples
    assert subclasses(graphs.Value) | MUTABLE == set(FIELDS)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_values_are_equal_exactly_when_class_and_fields_are(cls):
    fields = FIELDS[cls].split()
    values = [f"v{i}" for i in range(len(fields))]
    a, b = make(cls, *values), make(cls, **dict(zip(fields, values)))
    assert a is not b and a == b and not a != b
    assert [getattr(a, f) for f in fields] == values
    for i, f in enumerate(fields):
        changed = make(cls, *values[:i], "other", *values[i + 1:])
        if f in UNCOMPARED.get(cls, ()):
            assert changed == a
        else:
            assert changed != a and not changed == a
    for other in FIELDS:
        if other is not cls and len(FIELDS[other].split()) == len(fields):
            assert a != make(other, *values) and make(other, *values) != a
    assert a != tuple(values) and tuple(values) != a and not tuple(values) == a
    shown = [f"{f}={v!r}" for f, v in zip(fields, values) if f not in UNCOMPARED.get(cls, ())]
    assert repr(a) == f"{cls.__name__}({', '.join(shown)})"
    assert a  # true even with no fields


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_values_hash_alike_when_equal_and_take_no_assignment(cls):
    fields = FIELDS[cls].split()
    values = [f"v{i}" for i in range(len(fields))]
    a, b = make(cls, *values), make(cls, *values)
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, fields[0], "other")
        assert getattr(a, fields[0]) == "other"
        return
    assert hash(a) == hash(b)
    for name in fields + ["unknown"]:
        with pytest.raises(AttributeError):
            setattr(a, name, "other")
    assert a == b and not hasattr(a, "unknown")
    assert copy.copy(a) == a == pickle.loads(pickle.dumps(a))


@pytest.mark.parametrize("cls", DEFAULTS, ids=lambda cls: cls.__name__)
def test_fields_left_out_take_their_declared_defaults(cls):
    fields = FIELDS[cls].split()
    given = {f: f"v{i}" for i, f in enumerate(fields) if f not in DEFAULTS[cls]}
    for value in cls(*given.values()), cls(**given):
        assert {f: getattr(value, f) for f in fields} == given | DEFAULTS[cls]
    with pytest.raises(TypeError):
        cls(*fields, "one too many")
    with pytest.raises(TypeError):
        cls(*given.values(), unknown=1)
    with pytest.raises(TypeError):
        cls()


def test_a_new_coverage_sink_is_empty_and_its_own():
    a, b = simulator.Coverage(), simulator.Coverage()
    assert (a.statements, a.branches, a.handlers, a.memo) == (set(), set(), set(), {})
    assert a.statements is not b.statements and a.memo is not b.memo


@pytest.mark.parametrize(
    "cls", [generate.SequenceRecord, replay.CaseResult],
    ids=lambda cls: cls.__name__,
)
def test_a_value_made_per_record_or_case_has_no_instance_dict(cls):
    value = cls(*map(str, range(len(cls.__match_args__))))
    assert not hasattr(value, "__dict__")


def test_importing_the_command_line_loads_no_typing_or_dataclass_machinery():
    """``typing`` and ``dataclasses``, which pulls in ``inspect``, ``ast``
    and ``dis``, are costly imports: a fresh ``guiseq`` process that loads
    none of them starts in a fraction of the time.  Only what the import
    adds counts, in a process run with ``-S``: a ``site`` hook may load
    ``typing`` before the import and hide it."""
    src = Path(guiseq.__file__).resolve().parents[1]
    script = (
        "import sys; old = set(sys.modules); import guiseq.cli; print(*set(sys.modules) - old)"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "guiseq.cli" in loaded
    assert [m for m in ("typing", "dataclasses", "inspect", "ast", "dis") if m in loaded] == []
