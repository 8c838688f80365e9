"""Hypothesis strategies for small random graphs and application models,
shared across test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from guiseq.appmodel import (
    AppModel,
    Call,
    CloseWindow,
    Condition,
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
    Statement,
    ThrowArrayOob,
    Widget,
    WindowSpec,
    WriteSetting,
)
from guiseq.graphs import Edg, Efg, Value


def replace(value: Value, **changes) -> Value:
    """``value`` with the fields ``changes`` names set to its values: a new
    value of the same class, like ``dataclasses.replace``."""
    return type(value)(**{**{f: getattr(value, f) for f in value.__match_args__}, **changes})


@st.composite
def efgs(draw, max_events: int = 8) -> Efg:
    n = draw(st.integers(min_value=1, max_value=max_events))
    events = [f"e{i}" for i in range(n)]
    pairs = [(a, b) for a in events for b in events]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    initials = draw(
        st.lists(st.sampled_from(events), unique=True, min_size=1, max_size=n)
    )
    return Efg.of(events, initials, edges)


@st.composite
def edgs(draw, max_events: int = 6) -> Edg:
    n = draw(st.integers(min_value=1, max_value=max_events))
    events = [f"e{i}" for i in range(n)]
    pairs = [(a, b) for a in events for b in events]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    edges = [
        (src, draw(st.integers(min_value=1, max_value=3)), dst) for src, dst in chosen
    ]
    return Edg.of(events, edges)


#: Short strings that JSON must escape: quotes, backslashes, control and
#: non-ASCII characters (line separators and astral ones included), mixed with
#: any other character.
awkward_text = st.text(
    st.sampled_from('"\\\n\t\x00\x1f\x7f\x85 é€😀') | st.characters(),
    max_size=5,
)


#: The values a drawn model's fields start from.
field_values = st.sampled_from([None, True, False, "a", "b"])


#: The ops that change no state, which a write-free method is made of.
WRITE_FREE_OPS = ["read", "log"] * 3 + ["deref", "throwArrayOob"]


@st.composite
def statements(
    draw, names: dict, depth: int, callees: tuple[str, ...], write_free: bool = False
) -> Statement:
    """One statement of any of the 15 ops over the model's ``names``, or of
    :data:`WRITE_FREE_OPS` if ``write_free``: an ``if`` only while ``depth``
    is above 0 (its blocks get ``depth - 1``), a ``call`` only to one of
    ``callees``.  Field traffic, ``if`` and ``call`` come three times as
    often as any other op, most of which can end, block or break a case, so
    that cases run on."""
    ops = WRITE_FREE_OPS if write_free else ["set", "setNull", "read", "copy", "log"] * 3 + [
        "open", "close", "exit", "writeSetting", "readSetting", "enable", "deref", "throwArrayOob"
    ]
    ops = ops + ["if"] * 3 * (depth > 0) + ["call"] * 3 * bool(callees)
    op = draw(st.sampled_from(ops))
    field = st.sampled_from(names["fields"])
    key = st.sampled_from(["k0", "k1"])
    window = st.sampled_from(names["windows"])
    if op == "if":
        kind = draw(st.sampled_from(["isNull", "isTrue", "equals"]))
        value = draw(st.sampled_from(["a", "b"])) if kind == "equals" else None
        then, orelse = (draw(blocks(names, depth - 1, callees, write_free)) for _ in range(2))
        return If(Condition(kind, draw(field), value), then, orelse)
    return {
        "set": lambda: SetField(draw(field), draw(st.sampled_from([True, False, "a", "b"]))),
        "setNull": lambda: SetNull(draw(field)),
        "read": lambda: ReadField(draw(field)),
        "copy": lambda: CopyField(draw(field), draw(field)),
        "open": lambda: OpenWindow(draw(window)),
        "close": lambda: CloseWindow(draw(window)),
        "exit": ExitApp,
        "call": lambda: Call(draw(st.sampled_from(callees))),
        "writeSetting": lambda: WriteSetting(draw(key), draw(field)),
        "readSetting": lambda: ReadSetting(draw(key), draw(field)),
        "enable": lambda: SetWidgetEnabled(
            *draw(st.sampled_from(names["widgets"])), draw(st.booleans())
        ),
        "deref": lambda: Deref(draw(field)),
        "throwArrayOob": ThrowArrayOob,
        "log": lambda: Log(draw(field)),
    }[op]()


def blocks(names: dict, depth: int, callees: tuple[str, ...], write_free: bool = False):
    """Blocks of up to three :func:`statements`."""
    return st.lists(statements(names, depth, callees, write_free), max_size=3).map(tuple)


@st.composite
def app_models(draw, max_windows: int = 3, depth: int = 2, cycles: bool = False) -> AppModel:
    """A valid application model: a main window and up to ``max_windows - 1``
    nested windows, modal or modeless, some with a window event; widgets
    enabled or disabled; handlers and methods over all 15 ops, ``if`` nested
    at most ``depth`` deep; a launch block that reads a setting and may
    crash on it.  Window ``W<i>`` is opened by an event of an earlier window
    and closed by its own last widget.  A method calls only earlier methods,
    so replay ends, unless ``cycles`` lets it call any method.

    Two shapes come more often than the ops' weights alone would draw them.
    About half the handlers end by disabling a widget of another window, or
    of their own if there is one window: an event whose availability a
    sibling probe reads.  A write-free method ``pure``, drawn from
    :data:`WRITE_FREE_OPS`, is called by about half the handlers and any
    method may call it, so walks repeat its calls.  Every handler ends
    by writing ``"a"`` or ``"b"`` to the setting the launch block reads, so
    that cases leave it set to different values, on one of which a restart
    may crash."""
    fields = {f"F.x{i}": draw(field_values) for i in range(draw(st.integers(1, 4)))}
    windows = []
    for i in range(draw(st.integers(1, max_windows))):
        name = f"W{i}"
        widgets = tuple(
            Widget(f"b{j}", f"{name}.b{j}", draw(st.sampled_from([True, True, False])))
            for j in range(draw(st.integers(1, 3)))
        )
        windows.append(WindowSpec(
            name, widgets, modal=i > 0 and draw(st.booleans()), main=i == 0,
            window_event=f"{name}.focus" if draw(st.booleans()) else None,
        ))
    names = {
        "fields": list(fields),
        "windows": [w.name for w in windows],
        "widgets": [(w.name, widget.id) for w in windows for widget in w.widgets],
    }
    methods = ["pure"] + [f"m{k}" for k in range(draw(st.integers(0, 2)))]
    bodies = {"pure": draw(blocks(names, depth, (), write_free=True))}
    bodies.update(
        (name, draw(blocks(names, depth, tuple(methods if cycles else methods[:k]))))
        for k, name in enumerate(methods[1:], 1)
    )
    handlers = {}
    for w in windows:
        others = [(v.name, widget.id) for v in windows if v is not w for widget in v.widgets]
        for event in w.events:
            handlers[event] = draw(blocks(names, depth, tuple(methods)))
            if draw(st.booleans()):
                handlers[event] = (Call("pure"),) + handlers[event]
            if draw(st.booleans()):
                target = draw(st.sampled_from(others or names["widgets"]))
                handlers[event] += (SetWidgetEnabled(*target, False),)
    for i, w in enumerate(windows[1:], 1):
        opener = draw(st.sampled_from([e for v in windows[:i] for e in v.events]))
        handlers[opener] = (OpenWindow(w.name),) + handlers[opener]
        closer = w.widgets[-1].event
        handlers[closer] += (CloseWindow(w.name),)
    setting_field = draw(st.sampled_from(names["fields"]))
    on_launch = (ReadSetting("k0", setting_field),)
    if draw(st.booleans()):
        on_launch += (If(Condition("equals", setting_field, "a"), (ThrowArrayOob(),)),)
    for event in handlers:
        value = draw(st.sampled_from(["a", "b"]))
        handlers[event] += (SetField(setting_field, value), WriteSetting("k0", setting_field))
    return AppModel("drawn", tuple(windows), fields, handlers, bodies, on_launch)
