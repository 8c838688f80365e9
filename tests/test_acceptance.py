"""Acceptance checks, one per numbered criterion.

Each test prints a ``[PASS] acceptance NN`` line once its assertions hold, so
``pytest -s tests/test_acceptance.py`` reads as a checklist.  Everything runs
against the bundled corpus plus seeded random models — no network, no wall
clock, no machine dependence.
"""

from __future__ import annotations

import contextlib
import io
import random

from guiseq import corpus
from guiseq.cli import main
from guiseq.generate import (
    PRESETS,
    GenConfig,
    gen_abstract,
    generate_sequences,
    to_executable,
)
from guiseq.graphs import Efg, is_executable
from guiseq.programdb import (
    ProgramClass,
    ProgramMethod,
    ProgramModel,
    build_class_db,
    build_edg,
)
from guiseq.replay import group_test_cases, run_suite
from guiseq.ripper import build_efg_from_structure, rip
from guiseq.simulator import CRASH_ARRAY_OOB, CRASH_NULL_DEREF

from oracles import brute_force_edg, maximal_paths


def ok(number: int, text: str) -> None:
    print(f"[PASS] acceptance {number:02d}: {text}")


def events_of(result):
    return [r.events for r in result.records]


def replay(app, result):
    return run_suite(app, group_test_cases(result.records))


def test_01_blackbox_length_two_golden(example_efg):
    result = generate_sequences(PRESETS["B"], example_efg)
    assert events_of(result) == [
        ("e1", "e1"), ("e1", "e2"), ("e1", "e3"),
        ("e2", "e1"), ("e2", "e2"), ("e2", "e3"),
        ("e3", "e4"),
        ("e3", "e4", "e1"), ("e3", "e4", "e2"), ("e3", "e4", "e3"),
    ]
    # the last three would start at e4, which is not initial: they carry the
    # e3 reaching step and mark only the path positions as targets
    for record in result.records[7:]:
        assert record.events[0] == "e3"
        assert record.targets == (1, 2)
    ok(1, "black-box length-2 generation emits exactly the ten expected sequences")


def test_02_blackbox_length_one_golden(example_efg):
    result = generate_sequences(PRESETS["A"], example_efg)
    assert events_of(result) == [("e1",), ("e2",), ("e3",), ("e3", "e4")]
    ok(2, "black-box length-1 generation emits exactly the four expected sequences")


def test_03_dependency_graph_golden(example_edg):
    assert example_edg.edges == (
        ("e1", 1, "e3"),
        ("e2", 1, "e2"),
        ("e4", 1, "e2"),
    )
    ok(3, "dependency analysis of the two-window application yields exactly three edges")


def test_04_greybox_length_two_golden(example_efg, example_edg):
    result = generate_sequences(PRESETS["D"], example_efg, example_edg)
    assert events_of(result) == [
        ("e1", "e3"),
        ("e2", "e2"),
        ("e3",),
        ("e3", "e4", "e2"),
    ]
    assert len(result.records) == 4 < 10  # versus black-box at length 2
    ok(4, "grey-box length-2 generation emits four sequences where black-box needs ten")


def test_05_null_dereference_reproduced(example_app, example_efg, example_edg):
    suite = replay(example_app, generate_sequences(PRESETS["D"], example_efg, example_edg))
    failed = [r for r in suite.results if r.verdict == "failed"]
    assert len(failed) == 1
    assert failed[0].case[0].events == ("e3", "e4", "e2")
    assert failed[0].crash.kind == CRASH_NULL_DEREF
    assert failed[0].crash.position == 2  # the concluding e2
    ok(5, "grey-box replay reproduces the null dereference at the final e2")


def test_06_dialog_bug_needs_greybox(jabref_app, jabref_efg, jabref_edg):
    conversions, _ = to_executable(jabref_efg, [("Close database", "OK")])
    assert [events for events, _targets in conversions[0][1]] == [(
        "Manage content selectors",
        "Close database",
        "Manage content selectors",
        "OK",
    )]

    grey = replay(jabref_app, generate_sequences(PRESETS["D"], jabref_efg, jabref_edg))
    grey_failed = [r for r in grey.results if r.verdict == "failed"]
    assert len(grey_failed) == 1
    assert grey_failed[0].crash.kind == CRASH_ARRAY_OOB

    black = replay(jabref_app, generate_sequences(PRESETS["B"], jabref_efg))
    assert black.count("failed") == 0
    ok(6, "closing the database behind its dialog crashes OK; black-box misses it")


def test_07_persisted_state_bug(rachota_app, rachota_efg, rachota_edg):
    weights = {(s, t): w for s, w, t in rachota_edg.edges}
    assert weights == {
        ("System settings", "Add task"): 7,
        ("System settings", "OK1"): 25,
        ("System settings", "OK2"): 6,
        ("Add task", "System settings"): 5,
        ("Add task", "OK1"): 4,
        ("Add task", "OK2"): 19,
        ("OK1", "System settings"): 6,
        ("OK1", "Add task"): 4,
        ("OK1", "OK2"): 6,
        ("OK2", "System settings"): 6,
        ("OK2", "Add task"): 4,
        ("OK2", "OK1"): 6,
    }

    from_ok2 = [a for a in gen_abstract(rachota_edg, 2, top=2) if a[0] == "OK2"]
    assert set(from_ok2) == {("OK2", "System settings"), ("OK2", "OK1")}

    conversions, _ = to_executable(rachota_efg, [("OK2", "OK1")])
    assert [events for events, _targets in conversions[0][1]] == [(
        "System settings",
        "Add task",
        "OK2",
        "System settings",
        "OK1",
    )]

    suite = replay(
        rachota_app, generate_sequences(PRESETS["D"], rachota_efg, rachota_edg)
    )
    restarts = [
        r for r in suite.results
        if r.verdict == "failed" and r.crash.phase == "restart"
    ]
    assert restarts and all(r.crash.kind == CRASH_NULL_DEREF for r in restarts)
    ok(7, "saving a half-created task crashes the next application launch")


def _random_efg(rng: random.Random) -> Efg:
    n = rng.randint(1, 8)
    events = [f"e{i}" for i in range(n)]
    edges = [
        (a, b) for a in events for b in events if rng.random() < 0.3
    ]
    initials = [e for e in events if rng.random() < 0.4] or [rng.choice(events)]
    return Efg.of(events, initials, edges)


def _random_program_model(rng: random.Random, events: tuple[str, ...]) -> ProgramModel:
    fields = [f"C.f{i}" for i in range(5)]
    names = [f"C.m{i}" for i in range(6)]
    methods = tuple(
        ProgramMethod(
            name=name,
            reads=tuple(f for f in fields if rng.random() < 0.3),
            writes=tuple(f for f in fields if rng.random() < 0.3),
            calls=tuple(c for c in names if rng.random() < 0.2),
        )
        for name in names
    )
    cls = ProgramClass(name="C", fields=tuple(f.split(".")[1] for f in fields), methods=methods)
    bindings = {e: rng.choice(names) for e in events}
    return ProgramModel(classes=(cls,), bindings=bindings)


def test_08_analysis_matches_brute_force_oracles():
    rng = random.Random(0x5EED)
    checked = 0
    for _ in range(120):
        g = _random_efg(rng)
        model = _random_program_model(rng, g.events)
        d, warnings = build_edg(build_class_db(model), g)
        assert warnings == []
        assert set(d.edges) == brute_force_edg(model, g.events)

        length = rng.randint(1, 4)
        got = gen_abstract(d, length)
        assert len(got) == len(set(got))
        assert set(got) == maximal_paths(d, length)
        checked += 1
    assert checked >= 100
    ok(8, f"dependency analysis and abstract search match brute-force oracles on {checked} random models")


def test_09_every_generated_sequence_is_executable():
    rng = random.Random(0xCAFE)
    total = 0
    for _ in range(60):
        g = _random_efg(rng)
        d, _ = build_edg(build_class_db(_random_program_model(rng, g.events)), g)
        configs = [
            GenConfig("blackbox", 1),
            GenConfig("blackbox", 2),
            GenConfig("blackbox", 3),
            GenConfig("greybox", 2, top=None),
            GenConfig("greybox", 3, top=2),
        ]
        for config in configs:
            result = generate_sequences(config, g, d)
            for record in result.records:
                assert is_executable(g, list(record.events))
                for position in record.targets:
                    assert 0 <= position < len(record.events)
            total += len(result.records)
    assert total >= 1000
    ok(9, f"all {total} sequences from either generator are executable on their flow graph")


def _pipeline(tmp_path, tag: str, name: str, parallel: int = 1) -> dict:
    base = tmp_path / f"{name}-{tag}"
    base.mkdir()
    model = str(corpus.model_path(name))
    efg = base / "efg.json"
    edg = base / "edg.json"
    seqs = base / "seqs.jsonl"
    report = base / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["rip", "--model", model, "--out", str(efg)]) == 0
        assert main(["edg", "--ir", str(corpus.ir_path(corpus.DEFAULT_IR[name])),
                     "--efg", str(efg), "--out", str(edg)]) == 0
        assert main(["gen", "--config", "D", "--efg", str(efg),
                     "--edg", str(edg), "--out", str(seqs)]) == 0
        assert main(["replay", "--model", model, "--sequences", str(seqs),
                     "--report", str(report), "--parallel", str(parallel)]) in (0, 1)
    return {p.name: p.read_bytes() for p in (efg, edg, seqs, report)}


def test_10_pipeline_is_deterministic(tmp_path):
    for name in corpus.MODELS:
        first = _pipeline(tmp_path, "first", name)
        second = _pipeline(tmp_path, "second", name)
        assert first == second
        threaded = _pipeline(tmp_path, "threaded", name, parallel=8)
        assert threaded["report.json"] == first["report.json"]
    ok(10, "two pipeline runs per bundled model are byte-identical, at any parallelism")


def test_11_greybox_coverage_dominates():
    golden_statement_coverage = {
        "example-app": (0.9167, 1.0),
        "jabref-scenario": (0.9, 1.0),
        "rachota-scenario": (0.8462, 1.0),
    }
    for name in corpus.MODELS:
        app = corpus.app_model(name)
        efg = build_efg_from_structure(rip(app))
        edg, _ = build_edg(
            build_class_db(corpus.program_model(corpus.DEFAULT_IR[name])), efg
        )
        black = replay(app, generate_sequences(PRESETS["A"], efg))
        grey = replay(app, generate_sequences(PRESETS["D"], efg, edg))
        assert black.entered_handlers <= grey.entered_handlers
        expected = golden_statement_coverage[name]
        assert (black.statement_coverage, grey.statement_coverage) == expected
        again = replay(app, generate_sequences(PRESETS["D"], efg, edg))
        assert again.statement_coverage == grey.statement_coverage
        assert again.branch_coverage == grey.branch_coverage
    ok(11, "grey-box coverage dominates black-box on every bundled model, stably")
