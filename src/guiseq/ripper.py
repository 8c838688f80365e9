"""GUI ripping: explore a live application and reconstruct its event-flow graph.

Ripping answers one question per event: *what does firing it do to the set of
available events?*  The answer has to come from observation, so the ripper
drives the simulated application the way a robot user would — launch, click,
note what appeared — with two policies that keep the exploration sound and
finite:

* **Each event fires exactly once, in the first context where it becomes
  available.**  A context is the event prefix that led to a state; contexts
  are explored breadth-first, so "first" means the shallowest (and, within a
  depth, the earliest-discovered) context.  Re-firing an event per context
  would be unsound here, not just wasteful: an event observed after some
  other handler flipped application state may behave differently (take the
  other branch, skip opening its dialog), and the structural record would
  mix observations from incompatible states.
* **Every firing starts from a fork of the context's settled state.**  The
  application is launched once, with fresh settings; each context keeps the
  state it settled in, and each probe fires on its own copy of that state
  (:meth:`~guiseq.simulator.GuiState.fork`), so an observation is never
  contaminated by a sibling probe and no context prefix is fired twice.

A firing that crashes is recorded (that is a finding, not a failure of the
rip) but contributes no flow edges and its resulting state is not explored.

The flow edges are derived from each firing's structural record:

* events of every window the firing opened (their enabled events at that
  moment) may execute next;
* if the firing closed any window — its own included — everything available
  in the settled state may execute next;
* if the firing's own window survived and is not blocked by a modal window
  above it, the enabled events of that window — and only that window — may
  execute next.  Other windows that merely stayed open in the background do
  not get edges: the firing did not make them available, it just failed to
  take them away.

Initial events are whatever is available right after a fresh launch; a model
that offers none, having exited or enabled nothing, cannot be ripped.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .appmodel import AppModel
from .graphs import SCHEMA_VERSION, Efg, GuiseqError
from .simulator import (
    CrashRecord,
    GuiState,
    available_events,
    fire_event,
    launch,
)

__all__ = [
    "WidgetDiscovery",
    "WindowDiscovery",
    "Firing",
    "GuiStructure",
    "rip",
    "build_efg_from_structure",
    "structure_to_json",
    "save_structure",
]


@dataclass(frozen=True)
class WidgetDiscovery:
    id: str
    event: str
    enabled_at_discovery: bool


@dataclass(frozen=True)
class WindowDiscovery:
    name: str
    modal: bool
    main: bool
    widgets: tuple[WidgetDiscovery, ...]
    window_event: str | None = None


@dataclass(frozen=True)
class Firing:
    """Structural record of one event firing during the rip.  A crashed
    firing keeps the empty defaults of what follows ``own_window``."""

    event: str
    context: tuple[str, ...]
    crash: CrashRecord | None
    exited: bool
    own_window: str
    own_window_persists: bool = False
    own_window_unblocked: bool = False
    opened: tuple[tuple[str, tuple[str, ...]], ...] = ()  # (window, its enabled events)
    closed_any: bool = False
    post_available: tuple[str, ...] = ()
    post_enabled_own: tuple[str, ...] = ()

    @property
    def crashed(self) -> bool:
        return self.crash is not None


@dataclass(frozen=True)
class GuiStructure:
    """Everything the rip observed: windows, launch availability, firings."""

    app: str
    windows: tuple[WindowDiscovery, ...]  # discovery order
    initials: tuple[str, ...]
    firings: tuple[Firing, ...]

    @cached_property
    def events(self) -> tuple[str, ...]:
        out: list[str] = []
        for w in self.windows:
            if w.window_event is not None:
                out.append(w.window_event)
            out.extend(widget.event for widget in w.widgets)
        return tuple(out)


def _discover(model: AppModel, state: GuiState, window: str) -> WindowDiscovery:
    spec = model.window_by_name[window]
    return WindowDiscovery(
        name=spec.name,
        modal=spec.modal,
        main=spec.main,
        window_event=spec.window_event,
        widgets=tuple(
            WidgetDiscovery(
                id=widget.id,
                event=widget.event,
                enabled_at_discovery=state.widget_enabled[(window, widget.id)],
            )
            for widget in spec.widgets
        ),
    )


def _fire_and_record(
    model: AppModel,
    state: GuiState,
    event: str,
    context: tuple[str, ...],
    discoveries: dict[str, WindowDiscovery],
) -> Firing:
    """Fire ``event`` on ``state``, a live instance that settled after
    ``context``, note the windows it shows for the first time, and return
    the structural record of the firing."""
    pre_open = list(state.open_windows)
    crash = fire_event(state, event)
    own = model.event_window[event]
    if crash is not None:
        return Firing(event, context, crash, exited=True, own_window=own)
    post_open = list(state.open_windows)
    for w in post_open:
        if w not in discoveries:
            discoveries[w] = _discover(model, state, w)
    own_persists = own in post_open
    return Firing(
        event=event,
        context=context,
        crash=None,
        exited=state.exited,
        own_window=own,
        own_window_persists=own_persists,
        own_window_unblocked=(
            own_persists and not state.exited and not state.window_blocked(own)
        ),
        opened=tuple(
            (w, state.enabled_events(w)) for w in post_open if w not in pre_open
        ),
        closed_any=any(w not in post_open for w in pre_open),
        post_available=available_events(state),
        post_enabled_own=state.enabled_events(own) if own_persists else (),
    )


def rip(model: AppModel) -> GuiStructure:
    """Explore ``model`` and return its observed structure."""
    probe, crash = launch(model, {})
    if crash is not None:
        raise GuiseqError(
            f"application {model.name!r} crashed in its launch block "
            f"({crash.kind} at {crash.statement}); cannot rip"
        )
    initials = available_events(probe)
    if not initials:
        how = "exited in its launch block" if probe.exited else "enables no event on launch"
        raise GuiseqError(f"application {model.name!r} {how}; cannot rip")
    discoveries = {w: _discover(model, probe, w) for w in probe.open_windows}

    fired: set[str] = set()
    firings: list[Firing] = []
    # Each context travels with the state it settled in; probes fire on forks.
    queue: deque[tuple[tuple[str, ...], GuiState]] = deque([((), probe)])
    while queue:
        context, settled = queue.popleft()
        for event in available_events(settled):
            if event in fired:
                continue
            fired.add(event)
            state = settled.fork()
            firing = _fire_and_record(model, state, event, context, discoveries)
            firings.append(firing)
            if not state.exited:
                queue.append((context + (event,), state))
    return GuiStructure(
        app=model.name,
        windows=tuple(discoveries.values()),
        initials=initials,
        firings=tuple(firings),
    )


def build_efg_from_structure(structure: GuiStructure) -> Efg:
    """Turn the structural firing records into an event-flow graph."""
    edges: list[tuple[str, str]] = []
    for f in structure.firings:
        if f.crashed:
            continue
        targets: set[str] = set()
        for _window, initial_events in f.opened:
            targets.update(initial_events)
        if f.closed_any or not f.own_window_persists:
            targets.update(f.post_available)
        if f.own_window_persists and f.own_window_unblocked:
            targets.update(f.post_enabled_own)
        edges.extend((f.event, t) for t in targets)
    return Efg.of(structure.events, structure.initials, edges)


def structure_to_json(structure: GuiStructure) -> dict:
    firings = []
    for f in structure.firings:
        doc: dict = {
            "event": f.event,
            "context": list(f.context),
            "crashed": f.crashed,
            "exited": f.exited,
            "ownWindow": f.own_window,
            "ownWindowPersists": f.own_window_persists,
            "ownWindowUnblocked": f.own_window_unblocked,
            "opened": [
                {"window": w, "initialEvents": list(events)} for w, events in f.opened
            ],
            "closedAny": f.closed_any,
            "postAvailable": list(f.post_available),
            "postEnabledOwnWindow": list(f.post_enabled_own),
        }
        if f.crash is not None:
            doc["crash"] = {"kind": f.crash.kind, "statement": f.crash.statement}
        firings.append(doc)
    windows = []
    for w in structure.windows:
        wdoc: dict = {
            "name": w.name,
            "modal": w.modal,
            "main": w.main,
            "widgets": [
                {
                    "id": widget.id,
                    "event": widget.event,
                    "enabledAtDiscovery": widget.enabled_at_discovery,
                }
                for widget in w.widgets
            ],
        }
        if w.window_event is not None:
            wdoc["windowEvent"] = w.window_event
        windows.append(wdoc)
    return {
        "schemaVersion": SCHEMA_VERSION,
        "app": structure.app,
        "windows": windows,
        "initials": list(structure.initials),
        "firings": firings,
    }


def save_structure(structure: GuiStructure, path: Path | str) -> None:
    Path(path).write_text(
        json.dumps(structure_to_json(structure), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
