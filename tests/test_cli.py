from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import guiseq
from guiseq import corpus
from guiseq.cli import _check_sequences, main
from guiseq.generate import SequenceRecord
from guiseq.graphs import GuiseqError, load_graph
from guiseq.simulator import MAX_CALL_DEPTH

from oracles import scanned_check_sequences


@pytest.fixture()
def workdir(tmp_path):
    """Pipeline scratch directory with the example application ripped."""
    model = str(corpus.model_path("example-app"))
    efg = tmp_path / "efg.json"
    assert main(["rip", "--model", model, "--out", str(efg)]) == 0
    return tmp_path


def seq_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_rip_writes_graph_structure_and_dot(tmp_path, capsys):
    model = str(corpus.model_path("example-app"))
    efg = tmp_path / "efg.json"
    structure = tmp_path / "structure.json"
    dot = tmp_path / "efg.dot"
    code = main([
        "rip", "--model", model, "--out", str(efg),
        "--structure", str(structure), "--dot", str(dot),
    ])
    assert code == 0
    assert "ripped example-app: 4 events, 3 initial, 10 edges" in capsys.readouterr().out
    g = load_graph(efg)
    assert g.initials == ("e1", "e2", "e3")
    assert json.loads(structure.read_text())["app"] == "example-app"
    assert '"e1" [peripheries=2];' in dot.read_text()


def test_edg_command(workdir, capsys):
    out = workdir / "edg.json"
    code = main([
        "edg", "--ir", str(corpus.ir_path("example-app-curated")),
        "--efg", str(workdir / "efg.json"), "--out", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "built dependency graph: 3 edges" in captured.out
    assert captured.err == ""
    assert load_graph(out).edges == (("e1", 1, "e3"), ("e2", 1, "e2"), ("e4", 1, "e2"))


def test_edg_dot_writes_what_export_dot_prints(workdir, capsys):
    edg, dot = workdir / "edg.json", workdir / "edg.dot"
    assert main([
        "edg", "--ir", str(corpus.ir_path("example-app-curated")),
        "--efg", str(workdir / "efg.json"), "--out", str(edg), "--dot", str(dot),
    ]) == 0
    capsys.readouterr()
    assert main(["export-dot", "--graph", str(edg)]) == 0
    assert dot.read_bytes() == capsys.readouterr().out.encode()


def test_edg_warns_about_unbound_events(workdir, capsys):
    ir = workdir / "empty.ir.json"
    ir.write_text(json.dumps({"schemaVersion": 1, "classes": [], "bindings": {}}))
    out = workdir / "edg.json"
    code = main(["edg", "--ir", str(ir), "--efg", str(workdir / "efg.json"), "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert err.count("warning:") == 4
    assert "event 'e1' has no handler binding" in err
    assert load_graph(out).edges == ()


def test_gen_presets_and_determinism(workdir, capsys):
    efg = str(workdir / "efg.json")
    a = workdir / "a.jsonl"
    assert main(["gen", "--config", "A", "--efg", efg, "--out", str(a)]) == 0
    assert "generated 4 sequences" in capsys.readouterr().out
    assert [r["events"] for r in seq_lines(a)] == [["e1"], ["e2"], ["e3"], ["e3", "e4"]]

    b = workdir / "b.jsonl"
    assert main(["gen", "--config", "B", "--efg", efg, "--out", str(b)]) == 0
    assert len(seq_lines(b)) == 10

    assert main([
        "edg", "--ir", str(corpus.ir_path("example-app-curated")),
        "--efg", efg, "--out", str(workdir / "edg.json"),
    ]) == 0
    d = workdir / "d.jsonl"
    argv = [
        "gen", "--config", "D", "--efg", efg,
        "--edg", str(workdir / "edg.json"), "--out", str(d),
    ]
    assert main(argv) == 0
    assert [r["id"] for r in seq_lines(d)] == ["s0001", "s0002", "s0003", "s0004"]

    first = d.read_bytes()
    assert main(argv) == 0
    assert d.read_bytes() == first


def test_gen_flag_overrides_replace_preset_values(workdir):
    efg = str(workdir / "efg.json")
    out = workdir / "c1.jsonl"
    # preset C is length 3; asking for length 1 on top of it must win
    assert main(["gen", "--config", "C", "--length", "1", "--efg", efg, "--out", str(out)]) == 0
    assert [r["events"] for r in seq_lines(out)] == [["e1"], ["e2"], ["e3"], ["e3", "e4"]]


def test_replay_exit_codes(workdir, capsys):
    model = str(corpus.model_path("example-app"))
    efg = str(workdir / "efg.json")

    a = workdir / "a.jsonl"
    main(["gen", "--config", "A", "--efg", efg, "--out", str(a)])
    report_a = workdir / "report-a.json"
    assert main([
        "replay", "--model", model, "--sequences", str(a), "--report", str(report_a),
    ]) == 0
    out = capsys.readouterr().out
    assert "replayed 4 test cases: 4 passed, 0 failed, 0 broken" in out
    assert "statement coverage 0.9167" in out

    main(["edg", "--ir", str(corpus.ir_path("example-app-curated")),
          "--efg", efg, "--out", str(workdir / "edg.json")])
    d = workdir / "d.jsonl"
    main(["gen", "--config", "D", "--efg", efg,
          "--edg", str(workdir / "edg.json"), "--out", str(d)])
    report_d = workdir / "report-d.json"
    assert main([
        "replay", "--model", model, "--sequences", str(d), "--report", str(report_d),
    ]) == 1  # the null dereference counts as a failing test
    doc = json.loads(report_d.read_text())
    assert doc["summary"]["failed"] == 1
    assert doc["summary"]["statementCoverage"] == 1.0


def test_replay_broken_handling(workdir, capsys):
    model = str(corpus.model_path("example-app"))
    seqs = workdir / "handmade.jsonl"
    seqs.write_text(
        '{"schemaVersion":1,"id":"s0001","events":["e1","e4"],"targets":[0,1],"origin":"blackbox"}\n'
    )
    report = workdir / "report.json"
    argv = ["replay", "--model", model, "--sequences", str(seqs), "--report", str(report)]
    assert main(argv) == 1
    capsys.readouterr()
    assert main(argv + ["--allow-broken"]) == 0
    assert "0 passed, 0 failed, 1 broken" in capsys.readouterr().out
    assert json.loads(report.read_text())["tests"][0]["brokenAt"] == 1


@pytest.mark.parametrize("name", ["example-app", "jabref-scenario", "rachota-scenario"])
def test_replay_summary_line_and_exit_code_agree_with_the_report(tmp_path, capsys, name):
    model = str(corpus.model_path(name))
    efg, edg = str(tmp_path / "efg.json"), str(tmp_path / "edg.json")
    assert main(["rip", "--model", model, "--out", efg]) == 0
    assert main(["edg", "--ir", str(corpus.ir_path(corpus.DEFAULT_IR[name])),
                 "--efg", efg, "--out", edg]) == 0
    seqs, report = tmp_path / "seqs.jsonl", tmp_path / "report.json"
    for config in "ABCDEF":
        assert main(["gen", "--config", config, "--efg", efg, "--edg", edg,
                     "--out", str(seqs)]) == 0
        for allow_broken in ([], ["--allow-broken"]):
            capsys.readouterr()
            code = main(["replay", "--model", model, "--sequences", str(seqs),
                         "--report", str(report), *allow_broken])
            s = json.loads(report.read_text())["summary"]
            assert capsys.readouterr().out == (
                f"replayed {s['total']} test cases: {s['passed']} passed, "
                f"{s['failed']} failed, {s['broken']} broken; "
                f"statement coverage {s['statementCoverage']:.4f}, "
                f"branch coverage {s['branchCoverage']:.4f}\n"
            )
            failing = s["failed"] > 0 or (s["broken"] > 0 and not allow_broken)
            assert code == (1 if failing else 0), (config, allow_broken)


@pytest.mark.parametrize(
    ("events", "targets", "message"),
    [
        (["e9"], [0], "event 'e9' is not an event of model 'example-app'"),
        ([7], [0], "event 7 is not an event of model 'example-app'"),
        ([[]], [0], "event [] is not an event of model 'example-app'"),
        (["e1"], [7], "target 7 is outside its 1 events"),
        (["e1"], [-1], "target -1 is outside its 1 events"),
    ],
    ids=["unknown-event", "number-event", "list-event", "target-past-the-end", "negative-target"],
)
def test_replay_rejects_a_sequence_that_does_not_fit_the_model(workdir, capsys, events, targets, message):
    seqs = workdir / "handmade.jsonl"
    good = {"schemaVersion": 1, "id": "s0001", "events": ["e1"], "targets": [0], "origin": "blackbox"}
    bad = {**good, "id": "s0002", "events": events, "targets": targets}
    seqs.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    report = workdir / "report.json"
    assert main(["replay", "--model", str(corpus.model_path("example-app")),
                 "--sequences", str(seqs), "--report", str(report)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {seqs}: sequence 's0002': {message}"]
    assert not report.exists()


EXAMPLE_APP = corpus.app_model("example-app")
known_events = st.sampled_from(sorted(EXAMPLE_APP.event_window))
# Mostly events of the model, so that some drawn files pass the check.
drawn_events = st.one_of(
    known_events, known_events, known_events,
    st.sampled_from(["zz", "", "e1 "]),
    st.sampled_from([5, None, True, 1.5]),
    st.lists(known_events, max_size=2),
)


@st.composite
def drawn_records(draw):
    records = []
    for n in range(draw(st.integers(min_value=0, max_value=6))):
        events = draw(st.lists(drawn_events, max_size=4))
        targets = draw(st.lists(st.integers(min_value=-1, max_value=4), max_size=3))
        records.append(SequenceRecord(f"s{n:04d}", tuple(events), tuple(targets), "blackbox"))
    return records


def check_outcome(check, records):
    """The message ``check`` rejects ``records`` with, or None if it passes them."""
    try:
        check(EXAMPLE_APP, records, "drawn.jsonl")
    except GuiseqError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(drawn_records())
def test_checking_distinct_events_rejects_as_scanning_every_occurrence(records):
    assert check_outcome(_check_sequences, records) == check_outcome(
        scanned_check_sequences, records
    )


@pytest.mark.parametrize(
    ("second", "message"),
    [
        ({"id": "s0001"}, "duplicate sequence id 's0001'"),
        ({"id": "s0002", "splitOf": "zz"}, "sequence 's0002' continues unknown sequence 'zz'"),
        ({"id": "s0001", "splitOf": "s0001"}, "duplicate sequence id 's0001'"),
    ],
    ids=["duplicate-id", "unknown-split-of", "split-part-repeats-an-id"],
)
def test_replay_grouping_errors_name_the_file(workdir, capsys, second, message):
    seqs = workdir / "handmade.jsonl"
    good = {"schemaVersion": 1, "id": "s0001", "events": ["e1"], "targets": [0], "origin": "blackbox"}
    seqs.write_text(json.dumps(good) + "\n" + json.dumps({**good, **second}) + "\n")
    report = workdir / "report.json"
    assert main(["replay", "--model", str(corpus.model_path("example-app")),
                 "--sequences", str(seqs), "--report", str(report)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {seqs}: {message}"]
    assert not report.exists()


def test_replay_reads_raw_line_separators_inside_strings(workdir, capsys):
    seqs = workdir / "raw.jsonl"
    docs = [
        {"schemaVersion": 1, "id": "s\u2028\u2029\x851", "events": ["e1"], "targets": [0],
         "origin": "blackbox"},
        {"schemaVersion": 1, "id": "s0002", "events": ["e4"], "targets": [0], "origin": "blackbox"},
    ]
    seqs.write_text("".join(json.dumps(d, ensure_ascii=False) + "\n" for d in docs), encoding="utf-8")
    report = workdir / "report.json"
    assert main(["replay", "--model", str(corpus.model_path("example-app")),
                 "--sequences", str(seqs), "--report", str(report), "--allow-broken"]) == 0
    assert capsys.readouterr().err == ""
    tests = json.loads(report.read_text(encoding="utf-8"))["tests"]
    assert [(t["id"], t["verdict"]) for t in tests] == [
        ("s\u2028\u2029\x851", "passed"), ("s0002", "broken"),
    ]


def test_replay_parallel_output_is_identical(workdir):
    model = str(corpus.model_path("rachota-scenario"))
    efg = workdir / "rachota-efg.json"
    main(["rip", "--model", model, "--out", str(efg)])
    main(["edg", "--ir", str(corpus.ir_path("rachota-scenario")),
          "--efg", str(efg), "--out", str(workdir / "rachota-edg.json")])
    seqs = workdir / "rachota-d.jsonl"
    main(["gen", "--config", "D", "--efg", str(efg),
          "--edg", str(workdir / "rachota-edg.json"), "--out", str(seqs)])

    serial = workdir / "serial.json"
    threaded = workdir / "threaded.json"
    main(["replay", "--model", model, "--sequences", str(seqs), "--report", str(serial)])
    main(["replay", "--model", model, "--sequences", str(seqs),
          "--report", str(threaded), "--parallel", "8"])
    assert serial.read_bytes() == threaded.read_bytes()


def test_report_table_and_labels(workdir, capsys):
    model = str(corpus.model_path("example-app"))
    efg = str(workdir / "efg.json")
    a = workdir / "a.jsonl"
    main(["gen", "--config", "A", "--efg", efg, "--out", str(a)])
    report_a = workdir / "config-a.json"
    main(["replay", "--model", model, "--sequences", str(a), "--report", str(report_a)])
    capsys.readouterr()

    assert main(["report", str(report_a), "--label", "A", "--gen-seconds", "0.5"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].endswith("| A")
    assert "# es        | 4" in out
    assert "gen t       | 0.50s" in out
    assert "exec t      | -" in out
    assert "line cov.   | 0.9167" in out
    assert "branch cov. | 0.5000" in out

    # labels default to the file stem
    assert main(["report", str(report_a)]) == 0
    assert "| config-a" in capsys.readouterr().out

    assert main(["report", str(report_a), "--label", "x", "--label", "y"]) == 2
    assert "more labels than report files" in capsys.readouterr().err

    assert main(["report", str(report_a), "--gen-seconds", "0.5", "--gen-seconds", "1"]) == 2
    assert "more timing values than report files" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
@pytest.mark.parametrize("flag", ["--gen-seconds", "--exec-seconds"])
def test_report_seconds_must_be_finite_and_not_negative(workdir, capsys, flag, value):
    report = workdir / "r.json"
    report.write_text('{"schemaVersion": 1, "summary": {"total": 0, "broken": 0, '
                      '"statementCoverage": 0.0, "branchCoverage": 0.0}}')
    with pytest.raises(SystemExit) as exc:
        main(["report", str(report), flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"{flag}: must be a finite number >= 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    ("key", "literal"),
    [
        ("total", "1e400"),
        ("total", "2.0"),
        ("broken", "1e400"),
        ("total", "-5"),
        ("broken", "-1"),
        ("broken", "9"),
        ("statementCoverage", "NaN"),
        ("statementCoverage", "Infinity"),
        ("branchCoverage", "NaN"),
        ("branchCoverage", "1.5"),
        ("branchCoverage", "-0.25"),
    ],
)
def test_report_with_a_count_or_coverage_out_of_range_exits_2_naming_the_file(
    tmp_path, capsys, key, literal
):
    summary = {"total": 4, "broken": 0, "statementCoverage": 0.5, "branchCoverage": 0.5}
    text = json.dumps({"schemaVersion": 1, "summary": {**summary, key: "@"}})
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"@"', literal))
    assert main(["report", str(bad)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert str(bad) in lines[0] and key in lines[0]
    assert captured.out == ""


def test_export_dot_to_stdout_and_file(workdir, capsys):
    efg = str(workdir / "efg.json")
    assert main(["export-dot", "--graph", efg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    target = workdir / "graph.dot"
    assert main(["export-dot", "--graph", efg, "--out", str(target)]) == 0
    assert target.read_text() == out


def test_export_dot_orders_a_loaded_graphs_edges_by_declaration(tmp_path, capsys):
    efg = tmp_path / "efg.json"
    efg.write_text(json.dumps({
        "schemaVersion": 1,
        "events": [{"id": "a"}, {"id": "b"}],
        "initials": ["a"],
        "edges": [{"from": "b", "to": "a"}, {"from": "a", "to": "b"}],
    }))
    assert main(["export-dot", "--graph", str(efg)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "digraph efg {", '  "a" [peripheries=2];', '  "b";', '  "a" -> "b";', '  "b" -> "a";', "}",
    ]


def test_dot_of_an_id_ending_in_a_backslash_exits_2(tmp_path, capsys):
    doc = json.loads(corpus.model_path("example-app").read_text())
    doc["windows"][0]["widgets"][0]["event"] = "e1\\"
    doc["handlers"]["e1\\"] = doc["handlers"].pop("e1")
    model = tmp_path / "app.json"
    model.write_text(json.dumps(doc))
    efg, dot = tmp_path / "efg.json", tmp_path / "efg.dot"

    def error_lines():
        return [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]

    expected = ["error: event id 'e1\\\\' ends in a backslash, which DOT cannot quote"]
    rip = ["rip", "--model", str(model), "--out", str(efg)]
    assert main([*rip, "--dot", str(dot)]) == 2
    assert error_lines() == expected
    assert not efg.exists() and not dot.exists()

    assert main(rip) == 0
    assert main(["export-dot", "--graph", str(efg)]) == 2
    assert error_lines() == expected

    edg = tmp_path / "edg.json"
    assert main([
        "edg", "--ir", str(corpus.ir_path("example-app-curated")),
        "--efg", str(efg), "--out", str(edg), "--dot", str(dot),
    ]) == 2
    assert error_lines() == expected
    assert not edg.exists() and not dot.exists()


def test_usage_and_io_errors_exit_2(workdir, capsys):
    efg = str(workdir / "efg.json")

    assert main(["rip", "--model", str(workdir / "missing.json"),
                 "--out", str(workdir / "x.json")]) == 2
    assert "error:" in capsys.readouterr().err

    assert main(["gen", "--efg", efg, "--out", str(workdir / "x.jsonl")]) == 2
    assert "gen needs --config, or --mode and --length" in capsys.readouterr().err

    assert main(["gen", "--mode", "greybox", "--length", "2",
                 "--efg", efg, "--out", str(workdir / "x.jsonl")]) == 2
    assert "grey-box generation needs --edg" in capsys.readouterr().err

    main(["edg", "--ir", str(corpus.ir_path("example-app-curated")),
          "--efg", efg, "--out", str(workdir / "edg.json")])
    capsys.readouterr()
    assert main(["gen", "--config", "A", "--efg", str(workdir / "edg.json"),
                 "--out", str(workdir / "x.jsonl")]) == 2
    assert "expected an event-flow graph" in capsys.readouterr().err

    assert main(["replay", "--model", str(corpus.model_path("example-app")),
                 "--sequences", str(workdir / "nope.jsonl"),
                 "--report", str(workdir / "r.json")]) == 2


def test_gen_rejects_a_boolean_dependency_weight(workdir, capsys):
    edg = workdir / "edg.json"
    edg.write_text(json.dumps({
        "schemaVersion": 1,
        "events": [{"id": e} for e in ("e1", "e2", "e3", "e4")],
        "edges": [{"from": "e1", "to": "e3", "weight": True}],
    }))
    out = workdir / "x.jsonl"
    assert main(["gen", "--mode", "greybox", "--length", "2", "--efg",
                 str(workdir / "efg.json"), "--edg", str(edg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "weight True" in err[0]
    assert not out.exists()


def test_gen_rejects_a_dependency_event_the_flow_graph_does_not_declare(workdir, capsys):
    edg = workdir / "edg.json"
    edg.write_text(json.dumps({
        "schemaVersion": 1,
        "events": [{"id": e} for e in ("e1", "e2", "e3", "e4", "z")],
        "edges": [{"from": "z", "to": "e1", "weight": 1}],
    }))
    out = workdir / "x.jsonl"
    assert main(["gen", "--config", "E", "--efg", str(workdir / "efg.json"),
                 "--edg", str(edg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: event 'z' is not declared in the graph\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--config", "A", "--top", "0"],
    ["--mode", "blackbox", "--length", "1", "--top", "-2"],
])
def test_gen_rejects_a_budget_below_one_in_black_box_mode_too(workdir, capsys, flags):
    out = workdir / "x.jsonl"
    assert main(["gen", *flags, "--efg", str(workdir / "efg.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: per-event sequence budget must be positive, got {flags[-1]}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3", "x"])
def test_replay_parallel_must_be_positive(workdir, capsys, workers):
    a = workdir / "a.jsonl"
    assert main(["gen", "--config", "A", "--efg", str(workdir / "efg.json"),
                 "--out", str(a)]) == 0
    capsys.readouterr()
    report = workdir / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--model", str(corpus.model_path("example-app")),
              "--sequences", str(a), "--report", str(report), "--parallel", workers])
    assert exc.value.code == 2
    assert "--parallel: must be a positive integer" in capsys.readouterr().err
    assert not report.exists()


def test_gen_diagnostics_go_to_stderr(tmp_path, capsys):
    g = {
        "schemaVersion": 1,
        "events": [{"id": "a"}, {"id": "b"}],
        "initials": ["a"],
        "edges": [{"from": "a", "to": "a"}],
    }
    efg = tmp_path / "efg.json"
    efg.write_text(json.dumps(g))
    out = tmp_path / "seqs.jsonl"
    assert main(["gen", "--mode", "blackbox", "--length", "1",
                 "--efg", str(efg), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "warning: event 'b' is unreachable" in err
    assert len(seq_lines(out)) == 1


def _replace(path, value):
    """A mutation that sets the value at ``path`` in a JSON document."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


def _drop(path):
    """A mutation that deletes the key at ``path`` from a JSON document."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return mutate


@pytest.mark.parametrize(
    ("kind", "change"),
    [
        ("efg", _drop(("events", 0, "id"))),
        ("efg", _drop(("edges", 0, "to"))),
        ("seq", b"[1,2]\n"),
        ("app", _replace(("windows", 0), "MainWindow")),
        ("app", _replace(("handlers", "e1"), ["set"])),
        ("app", _replace(("fields",), "ab")),
        ("app", _replace(("windows", 0, "name"), ["MainWindow"])),
        ("app", b"\xff\xfe{}"),
        ("efg", _replace(("schemaVersion",), True)),
        ("app", b"[" * 100_000),
        ("app", _replace(("windows", 0, "modal"), "false")),
        ("app", _replace(("windows", 0, "main"), 1)),
        ("app", _replace(("windows", 0, "widgets", 0, "enabled"), "false")),
        ("app", _replace(("name",), 5)),
        ("app", _replace(("name",), None)),
        ("app", _replace(("name",), ["x"])),
        ("app", _replace(("windows", 0, "name"), 7)),
        ("app", _replace(("windows", 0, "widgets", 0, "id"), 7)),
        ("app", _replace(("windows", 0, "widgets", 0, "event"), 5)),
        ("app", _replace(("windows", 0, "windowEvent"), 5)),
        ("app", _replace(("windows", 0, "windowEvent"), ["x"])),
        ("efg", b'{"schemaVersion": 1, "events": [{"id": 5}], "initials": [5], "edges": []}'),
        ("efg", _replace(("initials",), {"e1": 5})),
        ("efg", b'{"schemaVersion": 1, "events": [{"id": "a"}, {"id": "b"}], "initials": "ab", '
                b'"edges": []}'),
        ("app", _replace(("fields",), [
            ["MainWindow.enabled", True], ["MainWindow.text", "Hello World"],
            ["Dialog.mainWindow", None],
        ])),
        ("app", _replace(("handlers", "e1"), {})),
        ("app", _replace(("handlers", "e3", 0, "then"), {})),
        ("app", _replace(("handlers", "e3", 0, "else"), {})),
        ("app", _replace(("handlers", "e3", 0, "cond", "value"), [1])),
        ("app", _replace(("handlers", "e3", 0, "cond"), {
            "kind": "isNull", "field": "MainWindow.text", "value": {"x": 1},
        })),
        ("app", _replace(("onLaunch",), {})),
        ("efg", _replace(("edges",), {})),
        ("edg", b'{"schemaVersion": 1, "events": [{"id": "e1"}, {"id": "e2"}, {"id": "e3"}, '
                b'{"id": "e4"}], "edges": {}}'),
        ("seq", b'{"schemaVersion":1,"id":"s0001","events":["e1"],"targets":[0],"origin":7}\n'),
        ("seq", b'{"schemaVersion":1,"id":"s0001","events":["e1"],"targets":[0],'
                b'"origin":"greybox","abstract":[5]}\n'),
        ("efg", _replace(("edges", 0, "from"), ["x"])),
        ("efg", _replace(("events", 0), "Main.x")),
        ("edg", b'{"schemaVersion": 1, "events": [{"id": "e1"}], '
                b'"edges": [{"from": ["x"], "to": "e1", "weight": 1}]}'),
    ],
    ids=[
        "efg-event-without-id",
        "efg-edge-without-to",
        "sequence-line-not-an-object",
        "app-window-as-string",
        "app-statement-as-string",
        "app-fields-as-string",
        "app-window-name-as-list",
        "not-utf8",
        "schema-version-true",
        "nested-too-deeply",
        "app-modal-as-string",
        "app-main-as-number",
        "app-enabled-as-string",
        "app-model-name-as-number",
        "app-model-name-null",
        "app-model-name-as-list",
        "app-window-name-as-number",
        "app-widget-id-as-number",
        "app-widget-event-as-number",
        "app-window-event-as-number",
        "app-window-event-as-list",
        "efg-event-id-as-number",
        "efg-initials-as-object",
        "efg-initials-as-string",
        "app-fields-as-pairs",
        "app-handler-as-object",
        "app-then-as-object",
        "app-else-as-object",
        "app-is-true-with-a-value",
        "app-is-null-with-a-value",
        "app-onlaunch-as-object",
        "efg-edges-as-object",
        "edg-edges-as-object",
        "seq-origin-as-number",
        "seq-abstract-item-as-number",
        "efg-edge-from-as-list",
        "efg-event-as-string",
        "edg-edge-from-as-list",
    ],
)
def test_malformed_input_exits_2_naming_the_file(workdir, capsys, kind, change):
    model = corpus.model_path("example-app")
    if isinstance(change, bytes):
        content = change
    else:
        doc = json.loads((model if kind == "app" else workdir / "efg.json").read_text())
        change(doc)
        content = json.dumps(doc).encode()
    bad = workdir / f"bad.{kind}"
    bad.write_bytes(content)
    out = str(workdir / "out")
    argv = {
        "app": ["rip", "--model", str(bad), "--out", out],
        "efg": ["gen", "--config", "A", "--efg", str(bad), "--out", out],
        "seq": ["replay", "--model", str(model), "--sequences", str(bad), "--report", out],
        "edg": ["gen", "--config", "D", "--efg", str(workdir / "efg.json"), "--edg", str(bad),
                "--out", out],
    }[kind]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert str(bad) in lines[0]


def _methods(doc):
    return doc["classes"][0]["methods"]


@pytest.mark.parametrize(
    ("change", "message"),
    [
        (lambda doc: _methods(doc)[0]["calls"].append("Nope.x"),
         "method 'MainWindow.onB1' calls unknown method 'Nope.x'"),
        (lambda doc: doc["bindings"].update(e1="Nope.x"),
         "event 'e1' is bound to unknown method 'Nope.x'"),
        (lambda doc: _methods(doc).append(_methods(doc)[0]),
         "duplicate method 'MainWindow.onB1' in program model"),
        (lambda doc: _methods(doc)[0]["reads"].append("MainWindow.nope"),
         "method 'MainWindow.onB1' references undeclared field 'MainWindow.nope'"),
    ],
    ids=["call-to-unknown-method", "binding-to-unknown-method", "duplicate-method",
         "undeclared-field"],
)
def test_edg_error_in_a_program_model_names_the_file(workdir, capsys, change, message):
    doc = json.loads(corpus.ir_path("example-app-curated").read_text())
    change(doc)
    ir = workdir / "bad.ir.json"
    ir.write_text(json.dumps(doc))
    out = workdir / "edg.json"
    argv = ["edg", "--ir", str(ir), "--efg", str(workdir / "efg.json"), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {ir}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["rip", "replay"])
def test_unbounded_recursion_exits_2_naming_the_model(tmp_path, capsys, command):
    doc = {
        "schemaVersion": 1,
        "name": "loop",
        "windows": [
            {
                "name": "Main",
                "main": True,
                "modal": False,
                "widgets": [{"id": "w", "event": "go", "enabled": True}],
            }
        ],
        "fields": {},
        "onLaunch": [],
        "handlers": {"go": [{"op": "call", "method": "f"}]},
        "methods": {"f": [{"op": "call", "method": "f"}]},
    }
    model = tmp_path / "loop.json"
    model.write_text(json.dumps(doc))
    sequences = tmp_path / "seqs.jsonl"
    sequences.write_text(json.dumps({
        "schemaVersion": 1, "id": "s0001", "events": ["go"], "targets": [0], "origin": "blackbox",
    }) + "\n")
    out = str(tmp_path / "out")
    argv = {
        "rip": ["rip", "--model", str(model), "--out", out],
        "replay": ["replay", "--model", str(model), "--sequences", str(sequences), "--report", out],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {model}: call depth exceeded {MAX_CALL_DEPTH} at 'm:f/'; "
        "the model likely has unbounded recursion"
    ]


#: ``--help`` of the program and of each command, each command's
#: missing-argument error, an unknown command and a few other usage errors:
#: argv, exit code, stdout and stderr, recorded at an 80-column terminal.
CLI_TEXT = json.loads((Path(__file__).parent / "cli_text.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CLI_TEXT, ids=[" ".join(c["argv"]) or "-" for c in CLI_TEXT])
def test_help_and_usage_errors_are_pinned(monkeypatch, capsys, case):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(case["argv"])
    assert exc.value.code == case["code"]
    assert capsys.readouterr() == (case["stdout"], case["stderr"])


def test_main_parses_the_process_arguments_by_default(monkeypatch, capsys):
    (case,) = [c for c in CLI_TEXT if c["argv"] == ["replay", "--help"]]
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "argv", ["guiseq", *case["argv"]])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert capsys.readouterr() == (case["stdout"], case["stderr"])


def test_fresh_processes_under_any_hash_seed_match_an_in_process_run(
    tmp_path, monkeypatch, capsys
):
    """``python -m guiseq`` runs rip, edg, then gen and replay for configs C
    and E on example-app under two hash seeds; every exit code, stdout,
    stderr and artifact equals an in-process run's."""
    model = str(corpus.model_path("example-app"))
    argvs = [
        ["rip", "--model", model, "--out", "efg.json", "--structure", "structure.json"],
        ["edg", "--ir", str(corpus.ir_path("example-app-curated")), "--efg", "efg.json",
         "--out", "edg.json"],
        ["gen", "--config", "C", "--efg", "efg.json", "--out", "c.jsonl"],
        ["gen", "--config", "E", "--efg", "efg.json", "--edg", "edg.json", "--out", "e.jsonl"],
        ["replay", "--model", model, "--sequences", "c.jsonl", "--report", "c.json"],
        ["replay", "--model", model, "--sequences", "e.jsonl", "--report", "e.json"],
    ]

    def artifacts(cwd):
        return {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}

    here = tmp_path / "in-process"
    here.mkdir()
    monkeypatch.chdir(here)
    expected = []
    for argv in argvs:
        code = main(argv)
        expected.append((code, *capsys.readouterr()))
    assert [code for code, *_ in expected] == [0, 0, 0, 0, 1, 1]

    src = str(Path(guiseq.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for seed in ("0", "12345"):
        cwd = tmp_path / f"seed-{seed}"
        cwd.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": pythonpath}
        runs = [
            subprocess.run([sys.executable, "-m", "guiseq", *argv], cwd=cwd, env=env,
                           capture_output=True, text=True)
            for argv in argvs
        ]
        assert [(r.returncode, r.stdout, r.stderr) for r in runs] == expected
        assert artifacts(cwd) == artifacts(here)
