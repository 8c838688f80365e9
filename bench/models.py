"""Seeded synthetic application models for the benchmark workloads.

Each workload is a fixed *shape* (window layout, sizes, nesting, which
buttons open or enable what) read from ``workloads.json``.  The seed picks
the field traffic of ordinary handlers and the initial field values, so the
application model, the dependency graph and the replay report differ from
seed to seed while the flow graph stays the same.  Black-box work depends
only on the flow graph; grey-box work also depends on the dependency graph,
but there nearly every start event fills its budget.  So timings of
different seeds are comparable.

Every model carries the same bug kit, in a modal dialog opened from the main
window:

* ``clear`` nulls ``Core.ref`` and enables ``Main.use``, whose handler
  dereferences it (an event-phase null dereference);
* ``arm`` sets ``Core.armed`` and enables ``fire``, whose handler throws
  under an ``if`` on that flag (an event-phase array-index crash);
* ``stage`` marks one pending task and enables ``save``, which writes the
  count and the still-null task name to the settings; the launch block reads
  them back and dereferences the name (a restart-phase crash);
* ``lock`` sets a mode that makes ``edit`` disable ``apply``; the ripper
  first fires ``edit`` unlocked, so the flow graph keeps ``edit -> apply``
  and a sequence ``lock, edit, apply`` replays as broken;
* ``Main.quit`` writes ``Core.saved`` and exits; ``Main.status`` reads it.
  The exit leaves no flow edge, so a grey-box abstract ``quit, status`` is
  split into two parts.

Models are written through ``app_model_to_json`` and program models through
``derive_program_model`` and ``program_model_to_json``, the same path a
user with an exact static analysis would take.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pipeline  # noqa: F401  (puts this checkout's guiseq on sys.path)
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
    ThrowArrayOob,
    Widget,
    WindowSpec,
    WriteSetting,
    app_model_to_json,
)
from guiseq.programdb import derive_program_model, program_model_to_json

WORKLOADS_FILE = Path(__file__).resolve().parent / "workloads.json"


def load_workloads() -> dict[str, dict]:
    """Workload name -> its entry in ``workloads.json``."""
    doc = json.loads(WORKLOADS_FILE.read_text(encoding="utf-8"))
    return {w["name"]: w for w in doc["workloads"]}


class _Builder:
    """Collects windows, fields and handlers, then freezes them into an AppModel."""

    def __init__(self, name: str, rng: random.Random) -> None:
        self.name = name
        self.rng = rng
        self.windows: dict[str, tuple[list[Widget], bool, bool]] = {}
        self.fields: dict[str, str | bool | None] = {}
        self.handlers: dict[str, tuple] = {}
        self.methods: dict[str, tuple] = {}
        self.on_launch: tuple = ()

    def window(self, name: str, *, modal: bool = False, main: bool = False) -> str:
        self.windows[name] = ([], modal, main)
        return name

    def event(self, window: str, widget: str, block, *, enabled: bool = True) -> str:
        event = f"{window}.{widget}"
        self.windows[window][0].append(Widget(id=widget, event=event, enabled=enabled))
        self.handlers[event] = tuple(block)
        return event

    def field(self, name: str, value: str | bool | None = None) -> str:
        self.fields[name] = value
        return name

    def ordinary(
        self, window: str, widget: str, reads, writes, *, enabled: bool = True, then=()
    ) -> str:
        """An event whose handler moves data between fields, then does ``then``."""
        block = []
        for f in reads:
            kind = self.rng.choice(("read", "log", "if"))
            if kind == "read":
                block.append(ReadField(f))
            elif kind == "log":
                block.append(Log(f))
            else:
                block.append(If(Condition("isNull", f), then=(ReadField(f),)))
        for f in writes:
            block.append(SetField(f, f"v{self.rng.randrange(1000)}"))
        if reads and writes and self.rng.random() < 0.3:
            block.append(CopyField(reads[0], writes[0]))
        return self.event(window, widget, block + list(then), enabled=enabled)

    def build(self) -> AppModel:
        windows = []
        for name, (widgets, modal, main) in self.windows.items():
            windows.append(WindowSpec(name=name, widgets=tuple(widgets), modal=modal, main=main))
        return AppModel(
            name=self.name,
            windows=tuple(windows),
            fields=dict(self.fields),
            handlers=dict(self.handlers),
            methods=dict(self.methods),
            on_launch=self.on_launch,
        )


def _add_bug_kit(b: _Builder, main: str, kit: str) -> None:
    """Add the shared bug kit (see the module docstring) to window ``kit``."""
    ref = b.field("Core.ref", "document")
    armed = b.field("Core.armed", False)
    count = b.field("Core.count")
    draft = b.field("Core.draft")
    pending = b.field("Core.pending")
    mode = [b.field(f"Core.mode{i}") for i in range(3)]
    text = [b.field(f"Core.text{i}") for i in range(3)]
    saved = [b.field(f"Core.saved{i}") for i in range(3)]
    cnt = b.field("Launch.cnt")
    task = b.field("Launch.task")

    b.on_launch = (
        ReadSetting("tasks.count", cnt),
        If(Condition("equals", cnt, "1"), then=(ReadSetting("tasks.0", task), Deref(task))),
    )
    b.methods["persist"] = (WriteSetting("tasks.count", count), WriteSetting("tasks.0", pending))

    b.event(kit, "clear", [SetNull(ref), SetWidgetEnabled(main, "use", True), CloseWindow(kit)])
    b.event(kit, "arm", [SetField(armed, True), SetWidgetEnabled(kit, "fire", True)])
    b.event(
        kit, "fire", [If(Condition("isTrue", armed), then=(ThrowArrayOob(),), orelse=(Log(armed),))],
        enabled=False,
    )
    b.event(
        kit, "stage",
        [SetField(count, "1"), CopyField(draft, pending), SetWidgetEnabled(kit, "save", True)],
    )
    b.event(kit, "save", [Call("persist"), CloseWindow(kit)], enabled=False)
    b.event(kit, "lock", [SetField(m, "ro") for m in mode])
    b.event(
        kit, "edit",
        [If(Condition("equals", mode[0], "ro"), then=(SetWidgetEnabled(kit, "apply", False),))]
        + [ReadField(m) for m in mode[1:]]
        + [SetField(t, "draft") for t in text],
    )
    b.event(kit, "apply", [ReadField(t) for t in text])
    b.event(kit, "close", [CloseWindow(kit)])

    b.event(main, "use", [Deref(ref)], enabled=False)
    b.event(
        main, "quit", [SetField(s, "yes") for s in saved] + [WriteSetting("app.saved", saved[0]), ExitApp()]
    )
    b.event(main, "status", [ReadField(s) for s in saved])


def _pool(b: _Builder, owner: str, size: int) -> list[str]:
    return [b.field(f"{owner}.f{i}", b.rng.choice((None, "x"))) for i in range(size)]


def _traffic(b: _Builder, pool: list[str], n_reads: int, n_writes: int) -> tuple[list[str], list[str]]:
    return b.rng.sample(pool, n_reads), b.rng.sample(pool, n_writes)


def _blackbox_wide(b: _Builder, p: dict) -> None:
    """Main window with dialog openers; dialogs nested at most two deep.

    Short contexts make the rip cheap; many similar windows make black-box
    walks plentiful and their reaching prefixes repeat the same connections.
    """
    main = b.window("Main", main=True)
    kit = b.window("Kit", modal=True)
    b.event(main, "openKit", [OpenWindow(kit)])
    _add_bug_kit(b, main, kit)
    for i in range(p["main_ordinary"]):
        pool = _pool(b, f"Main{i}", 2)
        b.ordinary(main, f"m{i}", *_traffic(b, pool, 1, 1))
    tops = []
    for i, modal in enumerate(p["top_modal"]):
        d = b.window(f"D{i}", modal=modal)
        b.event(main, f"open{d}", [OpenWindow(d)])
        tops.append(d)
    for i, (parent, modal) in enumerate(zip(tops, p["nested_modal"])):
        n = b.window(f"N{i}", modal=modal)
        b.event(parent, f"open{n}", [OpenWindow(n)])
    for name, (widgets, _modal, is_main) in list(b.windows.items()):
        if is_main or name == kit:
            continue
        b.event(name, "close", [CloseWindow(name)])
        pool = _pool(b, name, p["fields_per_dialog"])
        for j in range(p["dialog_events"] - len(widgets)):
            b.ordinary(name, f"e{j}", *_traffic(b, pool, 1, 1))


def _greybox_deep(b: _Builder, p: dict) -> None:
    """Chains of modal dialogs nested ``depth`` deep, all sharing one field pool.

    The shared pool makes the dependency graph dense, so grey-box abstracts
    jump between far-apart dialogs and need long repairs.  Openers and close
    buttons move data too; with every such event having many dependency
    successors, nearly every start event fills its per-event budget, so the
    number of abstracts hardly depends on the seed.
    """
    main = b.window("Main", main=True)
    shared = _pool(b, "Doc", p["shared_fields"])

    def ordinary(window, widget, then=()):
        b.ordinary(window, widget, *_traffic(b, shared, p["reads"], p["writes"]), then=then)

    kit = None
    for c in range(p["chains"]):
        parent = main
        for level in range(p["depth"]):
            d = b.window(f"C{c}L{level}", modal=True)
            ordinary(parent, f"open{d}", then=[OpenWindow(d)])
            if kit is None:
                kit = d
            parent = d
    _add_bug_kit(b, main, kit)
    for i in range(p["main_ordinary"]):
        ordinary(main, f"m{i}")
    for name, (widgets, _modal, is_main) in list(b.windows.items()):
        if is_main:
            continue
        if name != kit:
            ordinary(name, "close", then=[CloseWindow(name)])
        for j in range(p["dialog_events"] - len(widgets)):
            ordinary(name, f"e{j}")


def _rip_wizard(b: _Builder, p: dict) -> None:
    """One very large main window with a long enabling chain, plus a wizard.

    Step ``c{i}`` enables ``c{i+1}`` and disables itself, so the ripper
    reaches step i only through a context of i events, and every
    availability check scans the whole window.
    """
    main = b.window("Main", main=True)
    steps = p["chain"]
    # Every step runs one shared method over read-only settings: costly to
    # re-fire, yet it adds no dependency edges (nothing writes the settings)
    # and no per-step coverage ids.
    config = _pool(b, "Config", p["step_work"])
    b.methods["step"] = tuple(
        If(Condition("isNull", f), then=(Log(f),), orelse=(ReadField(f),)) for f in config
    )
    for i in range(steps):
        block = [Call("step"), SetWidgetEnabled(main, f"c{i}", False)]
        if i + 1 < steps:
            block.append(SetWidgetEnabled(main, f"c{i + 1}", True))
        b.event(main, f"c{i}", block, enabled=i == 0)
    pool = _pool(b, "Tools", p["fields"])
    for i in range(p["menu"]):  # always enabled: one more initial event each
        b.ordinary(main, f"menu{i}", *_traffic(b, pool, 1, 1))
    tools = [f"t{i}" for i in range(p["tools"])]
    b.event(main, "showTools", [SetWidgetEnabled(main, t, True) for t in tools])
    for t in tools:
        b.ordinary(main, t, *_traffic(b, pool, 1, 1), enabled=False)
    wizard = [b.window(f"W{k}", modal=True) for k in range(p["wizard"])]
    b.event(main, "wizard", [OpenWindow(wizard[0])])
    for k, w in enumerate(wizard):
        if k + 1 < len(wizard):
            b.event(w, "next", [OpenWindow(wizard[k + 1])])
        else:
            b.event(w, "finish", [CloseWindow(x) for x in reversed(wizard)])
    kit = b.window("Kit", modal=True)
    b.event(main, "openKit", [OpenWindow(kit)])
    _add_bug_kit(b, main, kit)


SHAPES = {
    "blackbox-wide": _blackbox_wide,
    "greybox-deep": _greybox_deep,
    "rip-wizard": _rip_wizard,
}


def build_model(workload: str, seed: int) -> AppModel:
    """The application model of ``workload`` for ``seed``."""
    spec = load_workloads()[workload]
    b = _Builder(f"{workload}-{seed}", random.Random(f"{workload}:{seed}"))
    SHAPES[workload](b, spec["shape"])
    return b.build()


def dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_inputs(workload: str, seed: int, out: Path) -> tuple[Path, Path]:
    """Write the workload's application and program model; return their paths."""
    model = build_model(workload, seed)
    out.mkdir(parents=True, exist_ok=True)
    app = out / "app.json"
    ir = out / "ir.json"
    app.write_text(dump(app_model_to_json(model)), encoding="utf-8")
    ir.write_text(dump(program_model_to_json(derive_program_model(model))), encoding="utf-8")
    return app, ir
