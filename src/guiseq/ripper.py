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
from collections.abc import Mapping
from functools import cached_property
from pathlib import Path

from .appmodel import AppModel, WindowSpec
from .graphs import SCHEMA_VERSION, Efg, GuiseqError, Value
from .simulator import (
    CrashRecord,
    GuiState,
    available_events,
    fire_event,
    launch,
)

__all__ = [
    "Firing",
    "GuiStructure",
    "rip",
    "build_efg_from_structure",
    "structure_to_json",
    "save_structure",
]


class Firing(Value):
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


class GuiStructure(Value):
    """Everything the rip observed: windows, launch availability, firings.
    ``enabled_at_discovery`` holds each widget event's enabled flag when its
    window was first seen open."""

    app: str
    windows: tuple[WindowSpec, ...]  # discovery order
    enabled_at_discovery: Mapping[str, bool]
    initials: tuple[str, ...]
    firings: tuple[Firing, ...]

    @cached_property
    def events(self) -> tuple[str, ...]:
        return tuple(e for w in self.windows for e in w.events)


def _discover(state: GuiState, discoveries: dict[str, WindowSpec], flags: dict) -> None:
    """Note each window open in ``state`` and not yet in ``discoveries``,
    and its widgets' enabled flags in ``flags``."""
    for window in state.open_windows:
        if window not in discoveries:
            discoveries[window] = spec = state.model.window_by_name[window]
            for widget in spec.widgets:
                flags[widget.event] = state.enabled[widget.event]


def _fire_and_record(
    state: GuiState,
    event: str,
    context: tuple[str, ...],
    discoveries: dict[str, WindowSpec],
    flags: dict,
) -> Firing:
    """Fire ``event`` on ``state``, a live instance that settled after
    ``context``, note the windows it shows for the first time, and return
    the structural record of the firing."""
    pre_open = list(state.open_windows)
    crash = fire_event(state, event)
    own = state.model.event_window[event]
    if crash is not None:
        return Firing(event, context, crash, exited=True, own_window=own)
    _discover(state, discoveries, flags)
    post_open = state.open_windows
    own_persists = own in post_open
    return Firing(  # every field, in order, by position: the constructor's fast path
        event,
        context,
        None,
        state.exited,
        own,
        own_persists,
        own_persists and not state.exited and not state.window_blocked(own),
        tuple((w, state.enabled_events(w)) for w in post_open if w not in pre_open),
        any(w not in post_open for w in pre_open),
        available_events(state),
        state.enabled_events(own) if own_persists else (),
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
    discoveries: dict[str, WindowSpec] = {}
    flags: dict[str, bool] = {}
    _discover(probe, discoveries, flags)

    fired: set[str] = set()
    firings: list[Firing] = []
    # Each context travels with the state it settled in and what that state
    # offers, read once when it settled; probes fire on forks.
    queue: deque[tuple[tuple[str, ...], GuiState, tuple[str, ...]]] = deque(
        [((), probe, initials)]
    )
    while queue:
        context, settled, available = queue.popleft()
        for event in available:
            if event in fired:
                continue
            fired.add(event)
            state = settled.fork()
            firing = _fire_and_record(state, event, context, discoveries, flags)
            firings.append(firing)
            if not state.exited:
                queue.append((context + (event,), state, firing.post_available))
    return GuiStructure(
        app=model.name,
        windows=tuple(discoveries.values()),
        enabled_at_discovery=flags,
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
        if f.own_window_unblocked:
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
                    "enabledAtDiscovery": structure.enabled_at_discovery[widget.event],
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
