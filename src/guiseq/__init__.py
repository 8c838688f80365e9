"""Grey-box GUI test-sequence generation.

The package turns a declarative model of a GUI application into tested
sequences in four stages: rip the model into an event-flow graph, derive an
event-dependency graph from the application's field traffic, generate
executable event sequences (black-box exhaustive or grey-box
dependency-driven), and replay them against the simulated application with a
crash oracle and coverage accounting.
"""

from __future__ import annotations

from .appmodel import AppModel, load_app_model
from .generate import (
    GenConfig,
    PRESETS,
    gen_abstract,
    gen_blackbox,
    generate_sequences,
    load_sequences,
    save_sequences,
    to_executable,
)
from .graphs import (
    Edg,
    Efg,
    GuiseqError,
    export_dot,
    is_executable,
    load_graph,
    save_graph,
    shortest_path,
    validate_efg,
)
from .programdb import (
    ClassDb,
    ProgramModel,
    build_class_db,
    build_edg,
    derive_program_model,
    load_program_model,
)
from .replay import group_test_cases, render_report_table, run_suite, save_report
from .ripper import GuiStructure, build_efg_from_structure, rip
from .simulator import available_events, fire_event, is_available, launch

__version__ = "0.1.0"

__all__ = [
    "AppModel",
    "ClassDb",
    "Edg",
    "Efg",
    "GenConfig",
    "GuiStructure",
    "GuiseqError",
    "PRESETS",
    "ProgramModel",
    "available_events",
    "build_class_db",
    "build_edg",
    "build_efg_from_structure",
    "derive_program_model",
    "export_dot",
    "fire_event",
    "gen_abstract",
    "gen_blackbox",
    "generate_sequences",
    "group_test_cases",
    "is_available",
    "is_executable",
    "launch",
    "load_app_model",
    "load_graph",
    "load_program_model",
    "load_sequences",
    "render_report_table",
    "rip",
    "run_suite",
    "save_graph",
    "save_report",
    "save_sequences",
    "shortest_path",
    "to_executable",
    "validate_efg",
    "__version__",
]
