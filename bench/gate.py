"""Correctness checks run on every benchmark invocation.

Each check returns a list of problems; an empty list is a pass.  The
benchmark counts every check as one operation, so a failed check raises the
error rate and marks the run incorrect.
"""

from __future__ import annotations

import json
from pathlib import Path

import pipeline  # noqa: F401  (puts this checkout's guiseq on sys.path)
from guiseq import corpus
from guiseq.generate import PRESETS, generate_sequences, load_sequences
from guiseq.graphs import is_executable, load_graph
from guiseq.programdb import build_class_db, build_edg
from guiseq.replay import group_test_cases, run_suite
from guiseq.ripper import build_efg_from_structure, rip

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def check_reference(workload: str, seed: int, hashes: dict[str, str]) -> list[str]:
    """Artifacts of a workload's default seed match the recorded SHA-256."""
    reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))[workload]
    if reference["seed"] != seed:
        return [f"reference.json records seed {reference['seed']}, not the default seed {seed}"]
    return [
        f"{name}: sha256 {hashes.get(name)} differs from reference {digest}"
        for name, digest in reference["sha256"].items()
        if hashes.get(name) != digest
    ]


def check_same(what: str, expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Two runs on the same inputs wrote byte-identical artifacts."""
    return [f"{what}: {name} differs" for name in expected if actual.get(name) != expected[name]]


def check_executable(out: Path) -> list[str]:
    """Every generated record is a flow-graph path from an initial event."""
    efg = load_graph(out / "efg.json")
    bad = [r.id for r in load_sequences(out / "seqs.jsonl") if not is_executable(efg, r.events)]
    return [f"{len(bad)} records are not executable, first {bad[0]}"] if bad else []


def check_behaviours(report: dict, expects: list[str]) -> list[str]:
    """The replay report shows every behaviour the workload promises."""
    tests = report["tests"]
    seen = {
        "event-crash": any(t.get("crash", {}).get("phase") == "event" for t in tests),
        "restart-crash": any(t.get("crash", {}).get("phase") == "restart" for t in tests),
        "broken": report["summary"]["broken"] > 0,
        "split": any("parts" in t for t in tests),
    }
    return [f"the replay report shows no {what}" for what in expects if not seen[what]]


def _corpus_suite(name: str):
    model = corpus.app_model(name)
    efg = build_efg_from_structure(rip(model))
    edg, _warnings = build_edg(build_class_db(corpus.program_model(corpus.DEFAULT_IR[name])), efg)
    records = generate_sequences(PRESETS["D"], efg, edg).records
    return run_suite(model, group_test_cases(records))


# bundled model -> (crash kind, phase) its configuration-D replay must report
CORPUS_BUGS = {
    "example-app": ("nullDereference", "event"),
    "jabref-scenario": ("arrayIndexOutOfBounds", "event"),
    "rachota-scenario": ("nullDereference", "restart"),
}


def check_corpus() -> list[str]:
    """The three bundled models still reproduce their bugs under config D."""
    problems = []
    for name, (kind, phase) in CORPUS_BUGS.items():
        crashes = {(r.crash.kind, r.crash.phase) for r in _corpus_suite(name).results if r.crash}
        if (kind, phase) not in crashes:
            problems.append(f"{name}: no {phase}-phase {kind} under config D")
    return problems
