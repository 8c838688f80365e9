"""Run the checked-in mutants of ``src/``: each must fail the tests named for it.

Run from the repository root::

    python tests/mutants.py

Each row of :data:`MUTANTS` names a file under ``src/``, a text that must
occur in it exactly once, the text that replaces it, and the pytest node ids
that must then fail.  The runner first checks every row's text, then runs the
named tests of all rows once on an unchanged copy of ``src/``, where they
must pass: a test that fails on any copy (one that imports ``bench/``, which
insists on the checkout's own ``src/``) kills nothing.  For each row it then
copies ``src/`` to a temporary directory, applies the replacement there and
runs the row's tests on the copy in a subprocess: the mutant is killed when
they fail (pytest exit status 1).  It prints one line
per row, ``killed`` or ``survived``, and exits 1 if a row survived, its text
is missing or repeated, a node id is unknown, or the clean run failed.  A
survivor is a finding: its row stays, and a test that kills it is added.
Standard library only, like ``tests/line_coverage.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    path: str  # under src/
    text: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, at least one of which must fail


SIM, REPLAY, GRAPHS = "guiseq/simulator.py", "guiseq/replay.py", "guiseq/graphs.py"
T_SIM, T_REPLAY = "tests/test_simulator.py::", "tests/test_replay.py::"
T_CLI, T_GRAPHS = "tests/test_cli.py::", "tests/test_graphs.py::"
T_VALUES = "tests/test_values.py::"
LEAF = T_REPLAY + "test_a_memoised_leaf_replays_like_the_case_alone"
WALKED = ("tests/test_programdb.py::"
          "test_drawn_handlers_touch_only_noted_fields_and_each_flow_is_an_edg_edge")

MUTANTS = (
    Mutant(
        "fork-shares-the-flag-map", SIM,
        "            self.enabled.copy(),\n", "            self.enabled,\n",
        (T_SIM + "test_mutating_a_fork_leaves_the_original_untouched",),
    ),
    Mutant(
        "call-key-without-depth", SIM,
        "(method, depth, *map(state.fields.__getitem__, reads))",
        "(method, *map(state.fields.__getitem__, reads))",
        (T_SIM + "test_a_memoised_call_still_raises_past_the_depth_limit",),
    ),
    Mutant(
        "call-key-without-read-values", SIM,
        "(method, depth, *map(state.fields.__getitem__, reads))", "(method, depth)",
        (T_SIM + "test_a_write_free_method_runs_once_per_key_in_each_sink",),
    ),
    Mutant(
        "call-memo-per-program", SIM,
        "memo, key = state.coverage.memo, ",
        'memo, key = program.__dict__.setdefault("memo", {}), ',
        (T_SIM + "test_a_write_free_method_runs_once_per_key_in_each_sink",),
    ),
    Mutant(
        "call-memo-on-a-writing-method", SIM,
        "_WRITE_FREE = frozenset({ReadField,", "_WRITE_FREE = frozenset({SetField, ReadField,",
        (T_SIM + "test_a_write_free_method_runs_once_per_key_in_each_sink",),
    ),
    Mutant(
        "call-step-holds-the-methods", SIM,
        "        program = state.model.program\n",
        "        program = state.model.program\n        step.methods = program.methods\n",
        (T_SIM + "test_a_compiled_model_is_freed_without_the_garbage_collector",),
    ),
    Mutant(
        "split-targets-not-rebased", REPLAY,
        "[offset + t for t in part.targets]", "[t for t in part.targets]",
        (T_REPLAY + "test_grouping_rebases_targets",
         T_REPLAY + "test_rendered_report_is_the_json_document"),
    ),
    Mutant(
        "split-part-joins-the-latest-case", REPLAY,
        "        elif (case := cases.get(record.split_of)) is not None:\n"
        "            cases[record.split_of] = (*case, record)\n",
        "        elif record.split_of in cases:\n"
        "            latest = next(reversed(cases))\n"
        "            cases[latest] = (*cases[latest], record)\n",
        (T_CLI + "test_split_parts_anywhere_after_their_first_part_replay_to_the_oracles_report",),
    ),
    Mutant(
        "restart-into-a-fresh-sink", REPLAY,
        'phase="restart", coverage=state.coverage', 'phase="restart", coverage=None',
        (T_REPLAY + "test_one_restart_per_distinct_settings_snapshot",
         "tests/test_acceptance.py::test_11_greybox_coverage_dominates"),
    ),
    Mutant(
        "later-part-launch-into-a-fresh-sink", REPLAY,
        'state.settings, phase="launch", coverage=state.coverage',
        'state.settings, phase="launch", coverage=None',
        (T_REPLAY + "test_split_case_carries_settings_across_parts",),
    ),
    Mutant(
        "restart-key-without-values", REPLAY,
        "memo, key = state.coverage.memo, frozenset(state.settings.items())",
        "memo, key = state.coverage.memo, frozenset(state.settings)",
        (T_REPLAY + "test_one_restart_per_distinct_settings_snapshot",
         T_REPLAY + "test_prefix_sharing_replay_equals_replaying_each_case_alone_on_drawn_models"),
    ),
    Mutant(
        "leaf-key-without-settings", REPLAY,
        "key = here, event, read and read(state.fields)",
        "key = event, read and read(state.fields)",
        (LEAF + "[settings]",),
    ),
    Mutant(
        "leaf-key-without-field-values", REPLAY,
        "key = here, event, read and read(state.fields)", "key = here, event, None",
        (LEAF + "[if-condition]", LEAF + "[called-method]"),
    ),
    Mutant(
        "memoised-crash-keeps-its-position", REPLAY,
        "CrashRecord(crash.kind, crash.statement, crash.phase, depth)", "crash",
        (LEAF + "[crash-depth]",),
    ),
    Mutant(
        "branch-verdict-one-deeper", REPLAY,
        "(verdict := _fire(own, event, depth))", "(verdict := _fire(own, event, depth + 1))",
        (T_REPLAY + "test_shuffled_cases_fire_each_prefix_above_a_crash_once",),
    ),
    Mutant(
        "crash-leaves-the-state-alive", SIM,
        "        state.exited = True\n        return CrashRecord(", "        return CrashRecord(",
        (T_SIM + "test_null_dereference_crash_names_the_statement",
         T_SIM + "test_launch_block_runs_and_can_crash"),
    ),
    Mutant(
        "copy-drops-its-write-note", SIM,
        "    program.reads.append(src)\n    program.writes.append(dst)\n",
        "    program.reads.append(src)\n",
        (T_SIM + "test_each_handlers_read_set_is_what_the_program_model_reads",),
    ),
    Mutant(
        "read-setting-drops-its-write-note", SIM,
        "    key, field = stmt.key, stmt.field\n    program.writes.append(field)\n",
        "    key, field = stmt.key, stmt.field\n",
        ("tests/test_appmodel.py::test_statement_parses_dumps_back_and_has_pinned_effects",),
    ),
    Mutant(
        "set-drops-its-write-note", SIM,
        "Program) -> Step:\n    program.writes.append(field)\n", "Program) -> Step:\n",
        (T_SIM + "test_each_handlers_read_set_is_what_the_program_model_reads",),
    ),
    Mutant(
        "if-notes-its-condition-after-its-branches", SIM,
        "    program.reads.append(field)  # before the branches' notes: pre-order\n"
        "    then, orelse = program.block(stmt.then, f\"{sid}.t.\"), "
        "program.block(stmt.orelse, f\"{sid}.e.\")\n",
        "    then, orelse = program.block(stmt.then, f\"{sid}.t.\"), "
        "program.block(stmt.orelse, f\"{sid}.e.\")\n    program.reads.append(field)\n",
        (T_SIM + "test_each_handlers_read_set_is_what_the_program_model_reads",),
    ),
    Mutant(
        "deref-drops-its-read-note", SIM,
        "Deref, sid: str, program: Program) -> Step:\n    field = stmt.field\n"
        "    program.reads.append(field)\n",
        "Deref, sid: str, program: Program) -> Step:\n    field = stmt.field\n",
        (WALKED,),
    ),
    Mutant(
        "copy-notes-its-write-as-a-read", SIM,
        "    program.reads.append(src)\n    program.writes.append(dst)\n",
        "    program.reads.append(src)\n    program.reads.append(dst)\n",
        (WALKED,),
    ),
    Mutant(
        "graph-events-in-set-order", GRAPHS,
        "for e in g.events),", "for e in set(g.events)),",
        (T_CLI + "test_fresh_processes_under_any_hash_seed_match_an_in_process_run",),
    ),
    Mutant(
        "sequence-ids-written-reversed", "guiseq/generate.py",
        '"id":{encode_basestring_ascii(r.id)}', '"id":{encode_basestring_ascii(r.id[::-1])}',
        (T_REPLAY + "test_written_files_are_the_oracles_bytes_on_the_corpus",),
    ),
    Mutant(
        "targets-shared-before-they-are-typed", "guiseq/generate.py",
        'share(t := typed_list(doc["targets"], int, "targets"), t)',
        'typed_list(list(share(t := tuple(doc["targets"]), t)), int, "targets")',
        (T_CLI + "test_targets_equal_to_an_earlier_records_but_not_ints_exit_2[bool]",
         T_CLI + "test_targets_equal_to_an_earlier_records_but_not_ints_exit_2[float]"),
    ),
    Mutant(
        "loader-interns-nothing", "guiseq/generate.py",
        "map(intern, items)", "map(str, items)",
        ("tests/test_generate.py::test_loaded_records_share_one_string_per_event",),
    ),
    Mutant(
        "sequence-record-without-slots", "guiseq/generate.py",
        "    __slots__ = ()\n    id: str\n", "    id: str\n",
        (T_VALUES + "test_a_value_made_per_record_or_case_has_no_instance_dict[SequenceRecord]",),
    ),
    Mutant(
        "to-executable-shares-no-targets", "guiseq/generate.py",
        "share(t := tuple(targets), t)", "tuple(targets)",
        ("tests/test_generate.py::test_to_executable_shares_equal_targets_across_parts",),
    ),
    Mutant(
        "replay-check-passes-unknown-events", "guiseq/cli.py",
        "if event not in known:", "if False:",
        (T_CLI + "test_replay_rejects_a_sequence_that_does_not_fit_the_model[unknown-event]",),
    ),
    Mutant(
        "fallback-decodes-the-newline", GRAPHS,
        'line.removesuffix("\\n")', "line",
        (T_GRAPHS + "test_line_reader_agrees_with_json_loads_per_line",),
    ),
    Mutant(
        "line-error-before-a-later-bad-byte", GRAPHS,
        "for _ in f:  # a later byte", "for _ in ():  # a later byte",
        (T_GRAPHS + "test_a_later_byte_that_is_not_utf8_wins_over_a_malformed_line_1",),
    ),
    Mutant(
        "bad-byte-offset-from-the-decoders-end", GRAPHS,
        "f.buffer.tell() - len(exc.object)", "f.buffer.tell()",
        (T_GRAPHS + "test_both_readers_name_a_bad_bytes_offset_as_bytes_decode_does[default]",
         T_GRAPHS + "test_an_error_in_a_large_file_holds_little_beside_the_documents[bad-last-byte]"),
    ),
    Mutant(
        "efg-accepts-an-undeclared-target", GRAPHS,
        "sorted(targets[src], key=by_index)", "sorted(targets[src], key=lambda e: index.get(e, 0))",
        (T_GRAPHS + "test_efg_construction_rejects_an_undeclared_endpoint",),
    ),
    Mutant(
        "edg-accepts-a-repeated-event-id", GRAPHS,
        "        if len(index) < len(ev):\n", "        if False:\n",
        (T_GRAPHS + "test_edg_construction_rejects_a_repeated_event_id",),
    ),
    Mutant(
        "value-equality-ignores-the-class", GRAPHS,
        "        if type(other) is not type(self):\n",
        "        if not hasattr(other, \"__match_args__\"):\n",
        ("tests/test_appmodel.py::test_statements_of_different_kinds_compare_unequal",),
    ),
    Mutant(
        "values-take-assignments", GRAPHS,
        "        raise AttributeError(f\"cannot assign to field {name!r}\")\n",
        "        object.__setattr__(self, name, value)\n",
        (T_VALUES + "test_values_hash_alike_when_equal_and_take_no_assignment[CrashRecord]",),
    ),
    Mutant(
        "coverage-compares-its-memo", SIM,
        '"handlers")  # not the memo', '"handlers", "memo")  # not the memo',
        (T_VALUES + "test_values_are_equal_exactly_when_class_and_fields_are[Coverage]",),
    ),
)


def run_tests(src: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit status for ``tests`` with ``guiseq`` imported from ``src``,
    in this process's children too."""
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "-o", f"pythonpath={src}", *tests]
    return subprocess.run(
        command, cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main() -> int:
    bad = 0
    for m in MUTANTS:
        if (count := (SRC / m.path).read_text().count(m.text)) != 1:
            print(f"{m.name}: its text occurs {count} times in src/{m.path}, not once")
            bad += 1
    if bad:
        return 1
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    survived = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp, "clean")
        shutil.copytree(SRC, clean, ignore=shutil.ignore_patterns("__pycache__"))
        if (status := run_tests(clean, tests)) != 0:
            print(f"the named tests fail on an unchanged copy of src/ (pytest exit {status})")
            return 1
        for m in MUTANTS:
            copy = Path(tmp, m.name)
            shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
            target = copy / m.path
            target.write_text(target.read_text().replace(m.text, m.replacement))
            status = run_tests(copy, m.tests)
            if status == 1:
                print(f"killed: {m.name}")
            else:
                print(f"survived: {m.name} (pytest exit status {status})")
                survived += 1
            shutil.rmtree(copy)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutant(s) killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
