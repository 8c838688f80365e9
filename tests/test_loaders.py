"""Malformed input files exit 2 with one ``error:`` line, whatever is wrong.

The property below mutates the bundled models and the artifacts the pipeline
makes from them: it drops a key, gives a value another JSON type, or cuts the
bytes short.  The stage that reads the mutant must either accept it (exit 0,
or 1 for replay verdicts) or exit 2 with exactly one ``error:`` line on
stderr.  Any other exception escapes ``main`` and fails the test.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from guiseq import corpus
from guiseq.cli import main

# One value of every JSON type; a retyped value takes one of another type.
JSON_VALUES = (None, True, 7, 1.5, "x", [], {})


@dataclass(frozen=True)
class Source:
    """A valid input file: its bytes, its documents, and every path into them."""

    kind: str
    raw: bytes
    docs: tuple  # one document, or one per line of a sequence file
    paths: tuple[tuple, ...]

    @classmethod
    def of(cls, kind: str, raw: bytes) -> "Source":
        text = raw.decode("utf-8")
        if kind == "seq":
            docs = [json.loads(line) for line in text.splitlines()]
            return cls(kind, raw, tuple(docs), tuple(_paths(docs)))
        doc = json.loads(text)
        return cls(kind, raw, (doc,), tuple(_paths(doc, (0,))))

    def encode(self, docs: list) -> bytes:
        if self.kind == "seq":
            return "".join(json.dumps(d) + "\n" for d in docs).encode("utf-8")
        return json.dumps(docs[0], indent=2).encode("utf-8")


def _paths(node, prefix: tuple = ()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutants(draw, source: Source) -> bytes:
    how = draw(st.sampled_from(("drop", "retype", "truncate")))
    if how == "truncate":
        return source.raw[: draw(st.integers(min_value=0, max_value=len(source.raw) - 1))]
    docs = copy.deepcopy(list(source.docs))
    path = draw(st.sampled_from(source.paths))
    parent = docs
    for key in path[:-1]:
        parent = parent[key]
    if how == "drop":
        del parent[path[-1]]
    else:
        old = parent[path[-1]]
        parent[path[-1]] = draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(old)]))
    return source.encode(docs)


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """Valid inputs of every kind, and the files each stage reads beside them."""
    work = tmp_path_factory.mktemp("sources")
    out: dict[str, tuple[Source, dict]] = {}
    for app_name, ir_name in (
        ("example-app", "example-app-curated"),
        ("rachota-scenario", "rachota-scenario"),
    ):
        app, ir = corpus.model_path(app_name), corpus.ir_path(ir_name)
        efg, edg = work / f"{app_name}.efg.json", work / f"{app_name}.edg.json"
        seqs, report = work / f"{app_name}.jsonl", work / f"{app_name}.report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["rip", "--model", str(app), "--out", str(efg)]) == 0
            assert main(["edg", "--ir", str(ir), "--efg", str(efg), "--out", str(edg)]) == 0
            assert main(["gen", "--config", "D", "--efg", str(efg), "--edg", str(edg),
                         "--out", str(seqs)]) == 0
            assert main(["replay", "--model", str(app), "--sequences", str(seqs),
                         "--report", str(report), "--allow-broken"]) in (0, 1)
        files = {"app": app, "ir": ir, "efg": efg, "edg": edg, "seq": seqs, "report": report}
        for kind, path in files.items():
            out[f"{kind}:{app_name}"] = (Source.of(kind, path.read_bytes()), files)
    for ir_name in corpus.PROGRAM_MODELS:
        path = corpus.ir_path(ir_name)
        out[f"ir:{ir_name}"] = (Source.of("ir", path.read_bytes()), out["ir:example-app"][1])
    return out, work


def stage(kind: str, bad: str, files: dict, out: str) -> tuple[list[str], set[int]]:
    """The command that reads a ``kind`` file, and the exit codes a valid file may give."""
    if kind == "app":
        return ["rip", "--model", bad, "--out", out], {0}
    if kind == "ir":
        return ["edg", "--ir", bad, "--efg", str(files["efg"]), "--out", out], {0}
    if kind == "efg":
        return ["gen", "--config", "B", "--efg", bad, "--out", out], {0}
    if kind == "edg":
        return ["gen", "--config", "D", "--efg", str(files["efg"]), "--edg", bad, "--out", out], {0}
    if kind == "seq":
        return ["replay", "--model", str(files["app"]), "--sequences", bad, "--report", out], {0, 1}
    return ["report", bad], {0}


def _decodes(source: Source, raw: bytes) -> bool:
    try:
        text = raw.decode("utf-8")
        for doc in text.splitlines() if source.kind == "seq" else [text]:
            json.loads(doc)
    except ValueError:
        return False
    return True


SOURCE_IDS = [
    f"{kind}:{app}" for app in ("example-app", "rachota-scenario")
    for kind in ("app", "efg", "edg", "seq", "report")
] + [f"ir:{name}" for name in corpus.PROGRAM_MODELS]


@pytest.mark.parametrize("source_id", SOURCE_IDS)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_mutated_input_is_accepted_or_exits_2(sources, source_id, data):
    table, work = sources
    source, files = table[source_id]
    raw = data.draw(mutants(source))
    bad = work / "mutant"
    bad.write_bytes(raw)
    argv, valid_codes = stage(source.kind, str(bad), files, str(work / "mutant.out"))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    if code == 2:
        assert len(errors) == 1 and err.getvalue().count("\n") == 1, err.getvalue()
    else:
        assert code in valid_codes and not errors
        assert _decodes(source, raw)
