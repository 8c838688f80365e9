"""Grey-box GUI test-sequence generation.

The package turns a declarative model of a GUI application into tested
sequences in four stages: rip the model into an event-flow graph, derive an
event-dependency graph from the application's field traffic, generate
executable event sequences (black-box exhaustive or grey-box
dependency-driven), and replay them against the simulated application with a
crash oracle and coverage accounting.
"""

from __future__ import annotations

# Only the names the benchmark scripts read from the package itself stay
# here; everything else is imported from its own module.
from .appmodel import load_app_model
from .generate import load_sequences
from .graphs import load_graph
from .programdb import build_class_db, load_program_model
from .replay import group_test_cases, render_report_table
from .simulator import available_events

__version__ = "0.1.0"

__all__ = [
    "available_events",
    "build_class_db",
    "group_test_cases",
    "load_app_model",
    "load_graph",
    "load_program_model",
    "load_sequences",
    "render_report_table",
    "__version__",
]
