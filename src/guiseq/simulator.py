"""Deterministic simulator for application models.

A :class:`GuiState` is one running instance: its window stack, enabled
flags by event, fields and persisted settings (a plain ``dict``).  Same model, same
settings and same events give the same result, which is what makes replay
reports byte-identical.

* **Launch.**  :func:`launch` opens the main window, resets enabled flags
  and fields to their declared values, and runs the launch block against
  the *given* settings, the only state that survives a relaunch.
* **Modality.**  A window is blocked while a modal window sits above it on
  the stack, and a blocked window offers no event.  Opening an open window
  or closing a closed one does nothing; closing the main window exits.
* **Firing.**  :func:`fire_event` refuses an event that is not available
  (:func:`is_available`) with :class:`UnavailableEventError`.  A crash
  (``deref`` of a null field, ``throwArrayOob``) or an ``exit`` stops the
  handler; the crashing statement still counts as covered.  It returns the
  :class:`CrashRecord`, or None; ``exited`` on the state tells whether the
  application still runs.  A ``call`` chain deeper than
  :data:`MAX_CALL_DEPTH` raises :class:`~guiseq.graphs.GuiseqError`.
* **Fork.**  :meth:`GuiState.fork` copies an instance; continuing the copy
  equals relaunching and firing the same events again.  Only the
  :class:`Coverage` sink is shared.
* **Coverage.**  Statement ids, branch ids (see
  :attr:`~guiseq.appmodel.AppModel.coverage_universe`) and entered handlers
  go to the sink the launch was given.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import partial
from operator import eq, is_
from typing import Any, Callable, Iterable

from .appmodel import (
    AppModel,
    Call,
    CloseWindow,
    Condition,
    CopyField,
    Deref,
    ExitApp,
    FieldValue,
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
    WriteSetting,
)
from .graphs import GuiseqError

__all__ = [
    "CRASH_NULL_DEREF",
    "CRASH_ARRAY_OOB",
    "MAX_CALL_DEPTH",
    "CrashRecord",
    "Coverage",
    "GuiState",
    "Program",
    "UnavailableEventError",
    "launch",
    "fire_event",
    "available_events",
    "is_available",
]

CRASH_NULL_DEREF = "nullDereference"
CRASH_ARRAY_OOB = "arrayIndexOutOfBounds"

# Call chains deeper than this are model bugs (unbounded recursion), not
# simulated crashes: the simulator refuses to run them.
MAX_CALL_DEPTH = 64


@dataclass(frozen=True)
class CrashRecord:
    """An uncaught defect: what blew up, where, and in which phase.

    ``phase`` is ``"event"`` for a crash inside an event handler,
    ``"launch"`` for the launch block of an initial launch, and
    ``"restart"`` for the launch block of a post-sequence restart.
    ``position`` is the sequence position of the crashing event (only
    meaningful for the ``"event"`` phase; None otherwise).
    """

    kind: str
    statement: str
    phase: str = "event"
    position: int | None = None


@dataclass
class Coverage:
    """A sink for what ran: statement ids, branch ids and the events whose
    handler was entered."""

    statements: set[str] = dc_field(default_factory=set)
    branches: set[str] = dc_field(default_factory=set)
    handlers: set[str] = dc_field(default_factory=set)


@dataclass(slots=True)
class GuiState:
    """Mutable state of one running application instance.  ``settings``
    holds the persisted settings, the state that survives a relaunch."""

    model: AppModel
    settings: dict[str, str | None]
    open_windows: list[str]
    enabled: dict[str, bool]
    fields: dict[str, FieldValue]
    coverage: Coverage
    exited: bool = False

    def fork(self) -> GuiState:
        """An independent copy of this instance, settings included, that
        writes into the same coverage sink.

        The simulator is deterministic, so continuing a fork is observably
        the same as relaunching against the same settings and firing the
        events that led here again, only without that work.  Every field
        is passed by position, in declaration order: replay makes about one
        fork per case, and keywords cost more than the copies.
        """
        return GuiState(
            self.model,
            self.settings.copy(),
            self.open_windows.copy(),
            self.enabled.copy(),
            self.fields.copy(),
            self.coverage,
            self.exited,
        )

    def window_blocked(self, window: str) -> bool:
        """True while a modal window sits strictly above ``window``, or
        while ``window`` is not open: a walk down the stack that stops at
        ``window`` or at the first modal window."""
        window_by_name = self.model.window_by_name
        for name in reversed(self.open_windows):
            if name == window:
                return False
            if window_by_name[name].modal:
                return True
        return True

    def enabled_events(self, window: str) -> tuple[str, ...]:
        """The enabled events of ``window``'s :attr:`WindowSpec.events
        <guiseq.appmodel.WindowSpec.events>`, the ones it offers while
        unblocked."""
        return tuple(filter(self.enabled.__getitem__, self.model.window_by_name[window].events))


class _CrashSignal(Exception):
    def __init__(self, kind: str, statement: str) -> None:
        super().__init__(kind)
        self.kind = kind
        self.statement = statement


class _ExitSignal(Exception):
    pass


def available_events(state: GuiState) -> tuple[str, ...]:
    """Events the user could trigger right now, in declaration order.

    An event is available when its window is open and unblocked and (for
    widget events) its widget is currently enabled.  Nothing is available
    after the application exits.
    """
    if state.exited:
        return ()
    return tuple(
        event
        for spec in state.model.windows
        if spec.name in state.open_windows and not state.window_blocked(spec.name)
        for event in state.enabled_events(spec.name)
    )


def is_available(state: GuiState, event: str) -> bool:
    """Whether ``event`` is in :func:`available_events` right now, at a cost
    that does not grow with the model.  False for an event the model does
    not declare."""
    window = state.model.event_window.get(event)
    if state.exited or window is None or state.window_blocked(window):
        return False
    return state.enabled[event]


# ---------------------------------------------------------------------------
# Compiled blocks
# ---------------------------------------------------------------------------

#: One compiled statement: runs it on a state, given the call depth.
Step = Callable[[GuiState, int], None]
#: A compiled block: ``(statement id, step)`` per statement, in order.
Block = tuple[tuple[str, Step], ...]


def _run(state: GuiState, block: Block, depth: int) -> None:
    cover = state.coverage.statements.add
    for sid, step in block:
        cover(sid)
        step(state, depth)


class Program:
    """An :class:`~guiseq.appmodel.AppModel`'s handlers, methods and launch
    block compiled into steps, each with its statement id, branch ids and
    operands bound.  Built once per model instance, on its first launch or
    fire (:attr:`AppModel.program <guiseq.appmodel.AppModel.program>`).  Every
    id formatted is kept, frozen, in :attr:`statement_ids` and :attr:`branch_ids`."""

    def __init__(self, model: AppModel) -> None:
        self.main_window = model.main_window
        self.statement_ids, self.branch_ids = [], []  # frozen once the blocks compile
        #: The event of each ``(window, widget id)``: what an ``enable`` sets.
        self.widget_event = {
            (w.name, widget.id): widget.event for w in model.windows for widget in w.widgets
        }
        #: Filled before any step runs, so a ``call`` looks its method up here
        #: when it runs, recursive calls included.
        self.methods: dict[str, Block] = {}
        for name, block in model.methods.items():
            self.methods[name] = self.block(block, f"m:{name}/")
        self.handlers = {
            event: self.block(block, f"h:{event}/") for event, block in model.handlers.items()
        }
        self.on_launch = self.block(model.on_launch, "launch/")
        self.statement_ids, self.branch_ids = map(frozenset, (self.statement_ids, self.branch_ids))

    def block(self, statements: Iterable[Statement], prefix: str) -> Block:
        out = []
        for i, stmt in enumerate(statements):
            sid = f"{prefix}{i}"
            self.statement_ids.append(sid)
            out.append((sid, _STEPS[type(stmt)](stmt, sid, self)))
        return tuple(out)


def _set(field: str, value: FieldValue) -> Step:
    def step(state: GuiState, depth: int) -> None:
        state.fields[field] = value
    return step


def _read(stmt: ReadField, sid: str, program: Program) -> Step:
    field = stmt.field

    def step(state: GuiState, depth: int) -> None:
        state.fields[field]  # an observation, no effect
    return step


def _copy(stmt: CopyField, sid: str, program: Program) -> Step:
    src, dst = stmt.src, stmt.dst

    def step(state: GuiState, depth: int) -> None:
        state.fields[dst] = state.fields[src]
    return step


#: Each condition kind's test of the field's value, given the condition.
_TESTS: dict[str, Callable[[Condition], Callable[[FieldValue], bool]]] = {
    "isNull": lambda cond: partial(is_, None),
    "isTrue": lambda cond: partial(is_, True),
    "equals": lambda cond: partial(eq, cond.value),
}


def _if(stmt: If, sid: str, program: Program) -> Step:
    field, test = stmt.cond.field, _TESTS[stmt.cond.kind](stmt.cond)
    then, orelse = program.block(stmt.then, f"{sid}.t."), program.block(stmt.orelse, f"{sid}.e.")
    then_id, else_id = f"{sid}:then", f"{sid}:else"
    program.branch_ids += then_id, else_id

    def step(state: GuiState, depth: int) -> None:
        if test(state.fields[field]):
            state.coverage.branches.add(then_id)
            _run(state, then, depth)
        else:
            state.coverage.branches.add(else_id)
            _run(state, orelse, depth)
    return step


def _open(stmt: OpenWindow, sid: str, program: Program) -> Step:
    window = stmt.window

    def step(state: GuiState, depth: int) -> None:
        if window not in state.open_windows:
            state.open_windows.append(window)
    return step


def _close(stmt: CloseWindow, sid: str, program: Program) -> Step:
    window, main = stmt.window, stmt.window == program.main_window

    def step(state: GuiState, depth: int) -> None:
        if window in state.open_windows:
            state.open_windows.remove(window)
            if main:
                _exit_app(state, depth)
    return step


def _exit_app(state: GuiState, depth: int) -> None:
    state.exited = True
    raise _ExitSignal()


def _call(stmt: Call, sid: str, program: Program) -> Step:
    methods, method, prefix = program.methods, stmt.method, f"m:{stmt.method}/"

    def step(state: GuiState, depth: int) -> None:
        if depth >= MAX_CALL_DEPTH:
            raise GuiseqError(
                f"call depth exceeded {MAX_CALL_DEPTH} at {prefix!r}; "
                "the model likely has unbounded recursion"
            )
        _run(state, methods[method], depth + 1)
    return step


def _write_setting(stmt: WriteSetting, sid: str, program: Program) -> Step:
    key, field = stmt.key, stmt.field

    def step(state: GuiState, depth: int) -> None:
        value = state.fields[field]
        if isinstance(value, bool):
            value = "true" if value else "false"
        state.settings[key] = value
    return step


def _read_setting(stmt: ReadSetting, sid: str, program: Program) -> Step:
    key, field = stmt.key, stmt.field

    def step(state: GuiState, depth: int) -> None:
        # A key never written reads as None, the same as a stored None: the
        # ambiguity that makes unguarded launch-time reads dangerous.
        state.fields[field] = state.settings.get(key)
    return step


def _enable(stmt: SetWidgetEnabled, sid: str, program: Program) -> Step:
    event, enabled = program.widget_event[stmt.window, stmt.widget], stmt.enabled

    def step(state: GuiState, depth: int) -> None:
        state.enabled[event] = enabled
    return step


def _deref(stmt: Deref, sid: str, program: Program) -> Step:
    field = stmt.field

    def step(state: GuiState, depth: int) -> None:
        if state.fields[field] is None:
            raise _CrashSignal(CRASH_NULL_DEREF, sid)
    return step


def _throw(stmt: ThrowArrayOob, sid: str, program: Program) -> Step:
    def step(state: GuiState, depth: int) -> None:
        raise _CrashSignal(CRASH_ARRAY_OOB, sid)
    return step


#: The step builder of each statement class: the one per-op dispatch outside
#: :data:`guiseq.appmodel._OPS`, which cannot hold it because this module
#: imports that one.
_STEPS: dict[type, Callable[[Any, str, Program], Step]] = {
    SetField: lambda stmt, sid, program: _set(stmt.field, stmt.value),
    SetNull: lambda stmt, sid, program: _set(stmt.field, None),
    ReadField: _read,
    Log: _read,
    CopyField: _copy,
    If: _if,
    OpenWindow: _open,
    CloseWindow: _close,
    ExitApp: lambda stmt, sid, program: _exit_app,
    Call: _call,
    WriteSetting: _write_setting,
    ReadSetting: _read_setting,
    SetWidgetEnabled: _enable,
    Deref: _deref,
    ThrowArrayOob: _throw,
}


def launch(
    model: AppModel,
    settings: dict[str, str | None],
    *,
    phase: str = "launch",
    coverage: Coverage | None = None,
) -> tuple[GuiState, CrashRecord | None]:
    """Start a fresh application instance against ``settings``.

    GUI state (windows, enabled flags, fields) is rebuilt from the model's
    declarations; only ``settings``, which the launch reads and later fires
    write, carries history.  The instance
    records what runs in ``coverage``, or in a fresh sink if none is given.
    Returns the state and the crash record if the launch block crashed (the
    state is then dead: ``exited`` is set).
    """
    state = GuiState(
        model=model,
        settings=settings,
        open_windows=[model.main_window],
        enabled=dict(model.initial_enabled),
        fields=dict(model.fields),
        coverage=Coverage() if coverage is None else coverage,
    )
    try:
        _run(state, model.program.on_launch, 0)
    except _CrashSignal as crash:
        state.exited = True
        return state, CrashRecord(kind=crash.kind, statement=crash.statement, phase=phase)
    except _ExitSignal:
        pass
    return state, None


class UnavailableEventError(GuiseqError):
    """An event was fired while :func:`is_available` said no."""


def fire_event(state: GuiState, event: str) -> CrashRecord | None:
    """Trigger ``event``'s handler on a live state and return its crash, or
    None if it ran to its end or exited.

    An unavailable event raises :class:`UnavailableEventError` before
    anything runs: a harness bug for the ripper, which fires only what
    :func:`available_events` lists, and a broken sequence for replay.
    """
    if not is_available(state, event):
        raise UnavailableEventError(f"event {event!r} fired while not available")
    state.coverage.handlers.add(event)
    try:
        _run(state, state.model.program.handlers[event], 0)
    except _CrashSignal as crash:
        state.exited = True
        return CrashRecord(kind=crash.kind, statement=crash.statement)
    except _ExitSignal:
        pass
    return None
