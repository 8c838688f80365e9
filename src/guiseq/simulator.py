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
  handler, or a launch block, in the one function that runs both; the
  crashing statement still counts as covered.  It returns the
  :class:`CrashRecord`, or None; ``exited`` on the state tells whether the
  application still runs.  A ``call`` chain deeper than
  :data:`MAX_CALL_DEPTH` raises :class:`~guiseq.graphs.GuiseqError`.
* **Fork.**  :meth:`GuiState.fork` copies an instance; continuing the copy
  equals relaunching and firing the same events again.  Only the
  :class:`Coverage` sink is shared, with its memo of outcomes.
* **Coverage.**  Statement ids, branch ids (see
  :attr:`~guiseq.appmodel.AppModel.coverage_universe`) and entered handlers
  go to the sink the launch was given.  Its ``memo`` holds outcomes, among
  them each ``call`` of a write-free method, one whose statements and
  callees set no field, flag, window or setting and do not exit: it runs
  once per ``(method, depth, values of the fields it reads)``, its only
  inputs, and a repeat raises the same crash or returns at once.  A hit adds
  no coverage: the sink holds what the first run covered.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import cached_property, partial
from itertools import chain
from operator import eq, is_

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
from .graphs import GuiseqError, Value
from .programdb import call_closure

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


class CrashRecord(Value):
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


class Coverage:
    """A sink for what ran: statement ids, branch ids and the events whose
    handler was entered; and ``memo``, the outcomes the runs that record
    into it have computed, the package's one home for them.  A new sink
    holds a new empty set, or dict, of each."""

    __match_args__ = ("statements", "branches", "handlers")  # not the memo: see below
    __eq__, __repr__ = Value.__eq__, Value.__repr__

    def __init__(self) -> None:
        self.statements = set()
        self.branches = set()
        self.handlers = set()
        #: A write-free method call's crash ``(kind, statement)``, or None, by
        #: ``(method, depth, *values of the fields its call closure reads)``; no
        #: other module's key is a tuple that starts with a str.  A hit is exact
        #: as it adds no coverage: this sink holds what the first run covered.  No
        #: key names a model, so a sink serves one; nor is the memo a result, so
        #: sinks compare without it.
        self.memo = {}


class GuiState:
    """Mutable state of one running application instance.  ``settings``
    holds the persisted settings, the state that survives a relaunch."""

    __slots__ = __match_args__ = (
        "model", "settings", "open_windows", "enabled", "fields", "coverage", "exited"
    )
    __eq__, __repr__ = Value.__eq__, Value.__repr__

    def __init__(
        self,
        model: AppModel,
        settings: dict[str, str | None],
        open_windows: list[str],
        enabled: dict[str, bool],
        fields: dict[str, FieldValue],
        coverage: Coverage,
        exited: bool = False,
    ) -> None:
        self.model = model
        self.settings = settings
        self.open_windows = open_windows
        self.enabled = enabled
        self.fields = fields
        self.coverage = coverage
        self.exited = exited

    def fork(self) -> GuiState:
        """An independent copy of this instance, settings included, that
        writes into the same coverage sink.

        The simulator is deterministic, so continuing a fork is observably
        the same as relaunching against the same settings and firing the
        events that led here again, only without that work.  Every field
        is passed by position, in declaration order: the ripper forks once
        per probe and replay for every case its leaf memo does not resolve,
        and keywords cost more than the copies.
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


def _run_top(state: GuiState, block: Block, phase: str) -> CrashRecord | None:
    """Run a handler or a launch block: a crash kills ``state`` and returns
    its :class:`CrashRecord` of ``phase``; an exit or the block's end, None."""
    try:
        _run(state, block, 0)
    except _CrashSignal as crash:
        state.exited = True
        return CrashRecord(crash.kind, crash.statement, phase, None)
    except _ExitSignal:
        pass
    return None


class Program:
    """An :class:`~guiseq.appmodel.AppModel`'s handlers, methods and launch
    block compiled into steps, each with its statement id, branch ids and
    operands bound.  Built once per model instance, on its first launch or
    fire (:attr:`AppModel.program <guiseq.appmodel.AppModel.program>`).  Every
    id formatted is kept, frozen, in :attr:`statement_ids` and :attr:`branch_ids`.
    The step builders note what each handler and method reads, writes and
    calls: the package's one effect analysis of statements, which
    :func:`~guiseq.programdb.derive_program_model` and :attr:`handler_reads` read."""

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
        #: The fields each write-free method's call closure reads, the key of
        #: its calls' memo; filled at the end of the compile, like ``methods``.
        self.write_free: dict[str, tuple[str, ...]] = {}
        #: The ``(reads, writes, callees)`` the step builders noted in each
        #: method, then in each handler.
        self.method_uses: dict[str, tuple[list[str], list[str], list[str]]] = {}
        writers = set()  # methods with a statement that changes the state
        for name, block in model.methods.items():
            self.methods[name], self.method_uses[name] = self.unit(block, f"m:{name}/")
            if self.writing:
                writers.add(name)
        self.handlers: dict[str, Block] = {}
        self.handler_uses: dict[str, tuple[list[str], list[str], list[str]]] = {}
        for event, block in model.handlers.items():
            self.handlers[event], self.handler_uses[event] = self.unit(block, f"h:{event}/")
        # a unit of its own, so that its notes do not land in the last handler's
        self.on_launch = self.unit(model.on_launch, "launch/")[0]
        self.statement_ids, self.branch_ids = map(frozenset, (self.statement_ids, self.branch_ids))
        uses = self.method_uses
        #: The fields each method reads, itself or through the methods it
        #: calls, each once: summed over its ``call_closure``.
        self.closure_reads: dict[str, tuple[str, ...]] = {}
        for name in uses:
            closure = call_closure(name, lambda m: uses[m][2])
            self.closure_reads[name] = reads = tuple(dict.fromkeys(chain.from_iterable(
                uses[method][0] for method in closure
            )))
            if writers.isdisjoint(closure):
                self.write_free[name] = reads

    @cached_property
    def handler_reads(self) -> dict[str, tuple[str, ...]]:
        """The fields each event's handler reads, itself or through the
        methods it calls, in ``if`` conditions included, some of them more
        than once.  Taken from the compile's notes on first use, which only
        replay makes."""
        return {
            event: sum(map(self.closure_reads.__getitem__, called), tuple(reads))
            for event, (reads, _, called) in self.handler_uses.items()
        }

    def unit(self, statements: Iterable[Statement], prefix: str) -> tuple[Block, tuple]:
        """A handler, method or launch block compiled, and the ``(reads,
        writes, callees)`` its step builders noted, in its nested blocks
        too, in the order a pre-order walk of its statements meets them.
        ``writing`` then tells whether any of them is not in :data:`_WRITE_FREE`."""
        self.reads, self.writes, self.callees = uses = [], [], []
        self.writing = False
        return self.block(statements, prefix), uses

    def block(self, statements: Iterable[Statement], prefix: str) -> Block:
        out = []
        for i, stmt in enumerate(statements):
            sid = f"{prefix}{i}"
            self.statement_ids.append(sid)
            out.append((sid, _STEPS[kind := type(stmt)](stmt, sid, self)))
            if kind not in _WRITE_FREE:
                self.writing = True
        return tuple(out)


def _set(field: str, value: FieldValue, program: Program) -> Step:
    program.writes.append(field)

    def step(state: GuiState, depth: int) -> None:
        state.fields[field] = value
    return step


def _read(stmt: ReadField, sid: str, program: Program) -> Step:
    field = stmt.field
    program.reads.append(field)

    def step(state: GuiState, depth: int) -> None:
        state.fields[field]  # an observation, no effect
    return step


def _copy(stmt: CopyField, sid: str, program: Program) -> Step:
    src, dst = stmt.src, stmt.dst
    program.reads.append(src)
    program.writes.append(dst)

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
    program.reads.append(field)  # before the branches' notes: pre-order
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
    method = stmt.method
    program.callees.append(method)

    def step(state: GuiState, depth: int) -> None:
        if depth >= MAX_CALL_DEPTH:
            raise GuiseqError(
                f"call depth exceeded {MAX_CALL_DEPTH} at {f'm:{method}/'!r}; "
                "the model likely has unbounded recursion"
            )
        # looked up as it runs: a step holding the blocks that hold it is a cycle
        program = state.model.program
        if (reads := program.write_free.get(method)) is None:
            return _run(state, program.methods[method], depth + 1)
        memo, key = state.coverage.memo, (method, depth, *map(state.fields.__getitem__, reads))
        if key not in memo:
            try:
                _run(state, program.methods[method], depth + 1)
            except _CrashSignal as crash:
                memo[key] = crash.kind, crash.statement
                raise
            memo[key] = None
        elif memo[key] is not None:
            raise _CrashSignal(*memo[key])
    return step


def _write_setting(stmt: WriteSetting, sid: str, program: Program) -> Step:
    key, field = stmt.key, stmt.field
    program.reads.append(field)

    def step(state: GuiState, depth: int) -> None:
        value = state.fields[field]
        if isinstance(value, bool):
            value = "true" if value else "false"
        state.settings[key] = value
    return step


def _read_setting(stmt: ReadSetting, sid: str, program: Program) -> Step:
    key, field = stmt.key, stmt.field
    program.writes.append(field)

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
    program.reads.append(field)

    def step(state: GuiState, depth: int) -> None:
        if state.fields[field] is None:
            raise _CrashSignal(CRASH_NULL_DEREF, sid)
    return step


def _throw(stmt: ThrowArrayOob, sid: str, program: Program) -> Step:
    def step(state: GuiState, depth: int) -> None:
        raise _CrashSignal(CRASH_ARRAY_OOB, sid)
    return step


#: The statement classes that change no state: a method made of these alone,
#: and calling only such methods, runs alike on equal values of what it reads.
_WRITE_FREE = frozenset({ReadField, Log, If, Deref, ThrowArrayOob, Call})

#: The step builder of each statement class: the one per-op dispatch outside
#: :data:`guiseq.appmodel._OPS`, which cannot hold it because this module
#: imports that one.
_STEPS: dict[type, Callable[[Statement, str, Program], Step]] = {
    SetField: lambda stmt, sid, program: _set(stmt.field, stmt.value, program),
    SetNull: lambda stmt, sid, program: _set(stmt.field, None, program),
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
    return state, _run_top(state, model.program.on_launch, phase)


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
    return _run_top(state, state.model.program.handlers[event], "event")
