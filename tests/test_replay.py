from __future__ import annotations

import json
import random
import tracemalloc
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guiseq import corpus, simulator
from guiseq.appmodel import load_app_model
from guiseq.generate import (
    PRESETS,
    SequenceRecord,
    generate_sequences,
    load_sequences,
    save_sequences,
)
from guiseq import replay as replay_module
from guiseq.graphs import GuiseqError
from guiseq.programdb import build_class_db, build_edg
from guiseq.ripper import build_efg_from_structure, rip
from guiseq.replay import (
    CaseResult,
    SuiteResult,
    TestCase as Case,
    group_test_cases,
    render_report_table,
    report_to_json,
    run_suite,
    run_test_case,
    save_report,
)
from guiseq.simulator import CRASH_NULL_DEREF, Coverage, CrashRecord

from oracles import listed_group_test_cases, oracle_record
from strategies import awkward_text


def record(rid, events, targets=None, split_of=None):
    return SequenceRecord(
        id=rid,
        events=tuple(events),
        targets=tuple(targets if targets is not None else range(len(events))),
        origin="blackbox" if split_of is None else "greybox",
        split_of=split_of,
    )


def greybox_cases(efg, edg):
    return group_test_cases(generate_sequences(PRESETS["D"], efg, edg).records)


def replayed_alone(model, cases):
    """Each case replayed from scratch into a sink of its own: the results,
    and the union of the sinks as a suite's three coverage fields."""
    results, statements, branches, handlers = [], set(), set(), set()
    for case in cases:
        coverage = Coverage()
        results.append(run_test_case(model, case, coverage))
        statements |= coverage.statements
        branches |= coverage.branches
        handlers |= coverage.handlers
    return tuple(results), (frozenset(statements), frozenset(branches), frozenset(handlers))


def suite_coverage(suite):
    return suite.covered_statements, suite.covered_branches, suite.entered_handlers


def launch_phases(monkeypatch):
    """The phase of every launch replay makes from now on, in order."""
    phases = []

    def counted(*args, _launch=replay_module.launch, **kwargs):
        phases.append(kwargs["phase"])
        return _launch(*args, **kwargs)

    monkeypatch.setattr(replay_module, "launch", counted)
    return phases


# ---------------------------------------------------------------------------
# Grouping
# ---------------------------------------------------------------------------


def test_grouping_keeps_order_and_attaches_parts():
    records = [
        record("s0001", ["a"]),
        record("s0002", ["b"]),
        record("s0003", ["c"], split_of="s0002"),
    ]
    cases = group_test_cases(records)
    assert [c.id for c in cases] == ["s0001", "s0002"]
    assert cases[1].events == ("b", "c")
    assert cases[1].targets == (0, 1)


def test_grouping_rebases_targets():
    case = Case(parts=(
        record("s0001", ["a", "b", "c"], targets=[1, 2]),
        record("s0002", ["d", "e"], targets=[1], split_of="s0001"),
    ))
    assert case.events == ("a", "b", "c", "d", "e")
    assert case.targets == (1, 2, 4)


def test_grouping_rejects_inconsistent_streams():
    with pytest.raises(GuiseqError, match="duplicate sequence id 's0001'"):
        group_test_cases([record("s0001", ["a"]), record("s0001", ["a"])])
    with pytest.raises(GuiseqError, match="continues unknown sequence 's0009'"):
        group_test_cases([record("s0002", ["a"], split_of="s0009")])


@st.composite
def record_streams(draw):
    """Records whose ids now and then repeat an earlier one, and whose
    ``splitOf`` is mostly unset or an earlier id (a first part or a split
    part), now and then a later id or no id at all."""
    records = []
    for n in range(draw(st.integers(min_value=0, max_value=8))):
        earlier = [r.id for r in records]
        rid, split_of = f"s{n}", None
        if earlier and draw(st.integers(min_value=0, max_value=9)) == 0:
            rid = draw(st.sampled_from(earlier))
        kind = draw(st.integers(min_value=0, max_value=19))
        if kind == 0:
            split_of = draw(st.sampled_from([f"s{n + 1}", "zz"]))
        elif earlier and kind >= 12:
            split_of = draw(st.sampled_from(earlier))
        records.append(record(rid, draw(st.lists(st.sampled_from("abc"), max_size=3)),
                              split_of=split_of))
    return records


def grouping_outcome(group, records):
    """The cases ``group`` makes of ``records``, or the message it rejects them with."""
    try:
        return group(records)
    except GuiseqError as exc:
        return str(exc)


@settings(max_examples=300)
@given(record_streams())
def test_grouping_into_cases_equals_grouping_into_lists(records):
    assert grouping_outcome(group_test_cases, records) == grouping_outcome(
        listed_group_test_cases, records
    )


# ---------------------------------------------------------------------------
# Records, cases and verdicts as values
# ---------------------------------------------------------------------------


def first_part():
    return SequenceRecord(id="s0001", events=("e1", "e2"), targets=(1,), origin="blackbox")


def split_part():
    return SequenceRecord(
        id="s0002", events=("e3",), targets=(0,), origin="greybox",
        abstract=("e2", "e3"), split_of="s0001",
    )


@pytest.mark.parametrize(
    ("make", "defaults", "field"),
    [
        (first_part, {"abstract": None, "split_of": None}, "events"),
        (lambda: Case(parts=(first_part(), split_part())), {}, "parts"),
        (lambda: CaseResult(case=Case(parts=(first_part(),)), verdict="passed"),
         {"crash": None, "broken_at": None}, "verdict"),
        (lambda: CaseResult(
            case=Case(parts=(first_part(),)), verdict="failed",
            crash=CrashRecord(CRASH_NULL_DEREF, "h:e1/0", "event", 1),
         ), {"broken_at": None}, "crash"),
    ],
    ids=["record", "case", "verdict", "verdict-with-crash"],
)
def test_records_cases_and_verdicts_are_immutable_values(make, defaults, field):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert {name: getattr(a, name) for name in defaults} == defaults
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    assert a == b


def test_records_cases_and_verdicts_survive_a_sequence_file(tmp_path):
    records = [first_part(), split_part(), record("s0003", ["e4"])]
    path = tmp_path / "seqs.jsonl"
    save_sequences(records, path)
    loaded = load_sequences(path)
    assert loaded == records
    cases = group_test_cases(loaded)
    assert cases == [Case((records[0], records[1])), Case((records[2],))]
    assert [CaseResult(c, "passed") for c in cases] == [
        CaseResult(case=Case(parts=(first_part(), split_part())), verdict="passed"),
        CaseResult(case=Case(parts=(records[2],)), verdict="passed"),
    ]


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def test_replay_crash_names_position_and_statement(example_app, example_efg, example_edg):
    suite = run_suite(example_app, greybox_cases(example_efg, example_edg))
    verdicts = {r.case.id: r.verdict for r in suite.results}
    assert verdicts == {
        "s0001": "passed",
        "s0002": "passed",
        "s0003": "passed",
        "s0004": "failed",
    }
    failed = suite.results[3]
    assert failed.case.events == ("e3", "e4", "e2")
    assert failed.crash.kind == CRASH_NULL_DEREF
    assert failed.crash.statement == "h:e2/0"
    assert failed.crash.phase == "event"
    assert failed.crash.position == 2
    # full coverage across the suite, crash notwithstanding
    assert suite.statement_coverage == 1.0
    assert suite.branch_coverage == 1.0
    assert suite.count("failed") == 1


def test_replay_coverage_fractions(example_app, example_efg):
    records = generate_sequences(PRESETS["A"], example_efg).records
    suite = run_suite(example_app, group_test_cases(records))
    assert suite.count("passed") == 4
    # nothing ever runs e3 with the main window disabled, so the else branch
    # (one statement, one branch) stays cold
    assert suite.covered_statements == frozenset(
        example_app.coverage_universe[0] - {"h:e3/0.e.0"}
    )
    assert suite.statement_coverage == 0.9167
    assert suite.branch_coverage == 0.5
    assert suite.entered_handlers == frozenset({"e1", "e2", "e3", "e4"})


def test_replay_flags_infeasible_sequences_as_broken(tmp_path):
    doc = {
        "schemaVersion": 1,
        "name": "stuck",
        "windows": [
            {
                "name": "Main",
                "main": True,
                "modal": False,
                "widgets": [
                    {"id": "wa", "event": "a", "enabled": True},
                    {"id": "wb", "event": "b", "enabled": False},
                ],
            }
        ],
        "fields": {"Main.x": "v"},
        "onLaunch": [],
        "handlers": {"a": [{"op": "log", "field": "Main.x"}], "b": []},
        "methods": {},
    }
    p = tmp_path / "stuck.json"
    p.write_text(json.dumps(doc))
    model = load_app_model(p)

    coverage = Coverage()
    result = run_test_case(model, Case(parts=(record("s0001", ["a", "a", "b"]),)), coverage)
    assert result.verdict == "broken"
    assert result.broken_at == 2
    assert result.crash is None
    # the prefix that did run still counts
    assert "h:a/0" in coverage.statements
    assert coverage.handlers == {"a"}


def test_split_case_carries_settings_across_parts(tmp_path):
    # part 1 persists a value whose presence crashes the next launch: the
    # failure must be attributed to part 2's launch, not to any event
    doc = {
        "schemaVersion": 1,
        "name": "poison",
        "windows": [
            {
                "name": "Main",
                "main": True,
                "modal": False,
                "widgets": [{"id": "wp", "event": "p", "enabled": True}],
            }
        ],
        "fields": {"Main.flag": "1", "Main.got": None, "Main.hole": None},
        "onLaunch": [
            {"op": "readSetting", "key": "k", "field": "Main.got"},
            {
                "op": "if",
                "cond": {"kind": "equals", "field": "Main.got", "value": "1"},
                "then": [{"op": "deref", "field": "Main.hole"}],
                "else": [],
            },
        ],
        "handlers": {"p": [{"op": "writeSetting", "key": "k", "field": "Main.flag"}]},
        "methods": {},
    }
    p = tmp_path / "poison.json"
    p.write_text(json.dumps(doc))
    model = load_app_model(p)

    parts = (record("s0001", ["p"]), record("s0002", ["p"], split_of="s0001"))
    coverage = Coverage()
    result = run_test_case(model, Case(parts=parts), coverage)
    assert result.verdict == "failed"
    assert result.crash.phase == "launch"
    assert result.crash.position is None
    assert result.crash.statement == "launch/1.t.0"
    assert "launch/1:then" in coverage.branches  # part 2's launch records into the sink

    # a single part passes its events but the restart probe meets the poison
    single = run_test_case(model, Case(parts=(record("s0001", ["p"]),)), Coverage())
    assert single.verdict == "failed"
    assert single.crash.phase == "restart"


def test_restart_probe_catches_persisted_state(rachota_app, rachota_efg, rachota_edg):
    suite = run_suite(rachota_app, greybox_cases(rachota_efg, rachota_edg))
    assert len(suite.results) == 12
    failed = {r.case.id: r for r in suite.results if r.verdict == "failed"}
    assert set(failed) == {"s0006", "s0014"}
    for r in failed.values():
        assert r.case.events == ("System settings", "Add task", "OK2", "System settings", "OK1")
        assert r.crash.kind == CRASH_NULL_DEREF
        assert r.crash.phase == "restart"
        assert r.crash.position is None
        assert r.crash.statement == "launch/1.t.1"
    # the split chains run as single cases and survive
    split_case = next(r for r in suite.results if r.case.id == "s0007")
    assert [p.id for p in split_case.case.parts] == ["s0007", "s0008"]
    assert split_case.verdict == "passed"


def test_jabref_greybox_hits_the_guarded_branch(jabref_app, jabref_efg, jabref_edg):
    suite = run_suite(jabref_app, greybox_cases(jabref_efg, jabref_edg))
    failed = [r for r in suite.results if r.verdict == "failed"]
    assert len(failed) == 1
    r = failed[0]
    assert r.case.id == "s0003"
    assert r.case.events == (
        "Manage content selectors",
        "Close database",
        "Manage content selectors",
        "OK",
    )
    assert r.crash.kind == "arrayIndexOutOfBounds"
    assert r.crash.statement == "h:OK/0.e.0"
    assert r.crash.position == 3


def test_parallel_replay_is_observationally_equal(rachota_app, rachota_efg, rachota_edg):
    cases = greybox_cases(rachota_efg, rachota_edg)
    serial = run_suite(rachota_app, cases, parallelism=1)
    threaded = run_suite(rachota_app, cases, parallelism=8)
    assert report_to_json(serial) == report_to_json(threaded)


@cache
def generated_cases(name):
    """The cases of configurations A-F on a bundled model, in file order."""
    model = corpus.app_model(name)
    efg = build_efg_from_structure(rip(model))
    edg, _warnings = build_edg(build_class_db(corpus.program_model(corpus.DEFAULT_IR[name])), efg)
    return tuple(
        case
        for config in "ABCDEF"
        for case in group_test_cases(generate_sequences(PRESETS[config], efg, edg).records)
    )


@st.composite
def case_lists(draw, model, pool):
    """Generated cases, and variants of them that keep a prefix, append any
    of the model's events (so break, exit or crash) and split the result into
    parts; shuffled and duplicated, or sorted so prefixes meet."""
    cases = []
    for n in range(draw(st.integers(min_value=0, max_value=20))):
        base = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            cases.append(base)
            continue
        events = base.events[: draw(st.integers(min_value=0, max_value=len(base.events)))]
        events += tuple(draw(st.lists(st.sampled_from(model.events), max_size=4)))
        cut = st.integers(min_value=1, max_value=max(1, len(events) - 1))
        cuts = sorted(draw(st.sets(cut, max_size=2)))
        bounds = [0] + [c for c in cuts if c < len(events)] + [len(events)]
        cases.append(Case(parts=tuple(
            record(f"x{n}.{k}", events[a:b], split_of=None if k == 0 else f"x{n}.0")
            for k, (a, b) in enumerate(zip(bounds, bounds[1:]))
        )))
    if draw(st.booleans()):
        cases.sort(key=lambda c: c.events)
    return cases


@pytest.mark.parametrize("name", ["example-app", "jabref-scenario", "rachota-scenario"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_prefix_sharing_replay_equals_replaying_each_case_alone(name, data):
    model = corpus.app_model(name)
    cases = data.draw(case_lists(model, generated_cases(name)))
    parallelism = data.draw(st.integers(min_value=1, max_value=3))
    suite = run_suite(model, cases, parallelism)
    results, coverage = replayed_alone(model, cases)
    assert suite.results == results
    assert suite_coverage(suite) == coverage


def test_an_empty_suite_launches_nothing_and_covers_nothing(example_app, monkeypatch):
    phases = launch_phases(monkeypatch)
    suite = run_suite(example_app, [])
    assert phases == []
    assert suite.results == ()
    assert suite_coverage(suite) == (frozenset(),) * 3
    assert suite.statement_coverage == suite.branch_coverage == 0.0


def test_sorted_cases_fire_each_shared_prefix_once(tmp_path, monkeypatch):
    doc = {
        "schemaVersion": 1,
        "name": "keypad",
        "windows": [
            {
                "name": "Main",
                "main": True,
                "modal": False,
                "widgets": [{"id": f"w{e}", "event": e, "enabled": True} for e in "abc"],
            }
        ],
        "fields": {"Main.x": "v"},
        "onLaunch": [],
        "handlers": {e: [{"op": "log", "field": "Main.x"}] for e in "abc"},
        "methods": {},
    }
    p = tmp_path / "keypad.json"
    p.write_text(json.dumps(doc))
    model = load_app_model(p)
    words = [(x, y, z) for x in "abc" for y in "abc" for z in "abc"]
    cases = [Case(parts=(record(f"s{i:04d}", w),)) for i, w in enumerate(words)]

    calls = {"launch": 0, "fire_event": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(replay_module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(replay_module, name, counted)
    suite = run_suite(model, cases)
    assert {r.verdict for r in suite.results} == {"passed"}
    # one fire per node of the prefix tree: 3 + 9 + 27; one shared launch
    # against fresh settings, then one restart per distinct settings
    # snapshot, and every case leaves the settings empty
    assert calls == {"fire_event": 39, "launch": 1 + 1}


def test_shuffled_cases_fire_each_prefix_above_a_crash_once(tmp_path, monkeypatch):
    # "c" dereferences a null field, so nothing below a "c" fires
    doc = {
        "schemaVersion": 1,
        "name": "keypad",
        "windows": [
            {
                "name": "Main",
                "main": True,
                "modal": False,
                "widgets": [{"id": f"w{e}", "event": e, "enabled": True} for e in "abc"],
            }
        ],
        "fields": {"Main.x": "v", "Main.hole": None},
        "onLaunch": [],
        "handlers": {
            "a": [{"op": "log", "field": "Main.x"}],
            "b": [{"op": "log", "field": "Main.x"}],
            "c": [{"op": "deref", "field": "Main.hole"}],
        },
        "methods": {},
    }
    p = tmp_path / "keypad.json"
    p.write_text(json.dumps(doc))
    model = load_app_model(p)
    words = [(x, y, z) for x in "abc" for y in "abc" for z in "abc"]
    calls = {"launch": 0, "fire_event": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(replay_module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(replay_module, name, counted)
    for seed in range(5):
        random.Random(seed).shuffle(words)
        cases = [Case(parts=(record(f"s{i:04d}", w),)) for i, w in enumerate(words)]
        calls.update(launch=0, fire_event=0)
        suite = run_suite(model, cases)
        # one fire per node of the prefix tree not below a "c": 3 + 6 + 12;
        # one launch against fresh settings and one restart, which the
        # eight cases without a "c" share
        assert calls == {"fire_event": 21, "launch": 1 + 1}
        assert suite.count("failed") == 27 - 8
        assert (suite.results, suite_coverage(suite)) == replayed_alone(model, cases)


def test_one_restart_per_distinct_settings_snapshot(tmp_path, monkeypatch):
    # each event persists its own value; "c"'s crashes the launch block
    doc = {
        "schemaVersion": 1,
        "name": "dial",
        "windows": [
            {
                "name": "Main",
                "main": True,
                "modal": False,
                "widgets": [{"id": f"w{e}", "event": e, "enabled": True} for e in "abc"],
            }
        ],
        "fields": {
            "Main.a": "1",
            "Main.b": "2",
            "Main.c": "poison",
            "Main.got": None,
            "Main.hole": None,
        },
        "onLaunch": [
            {"op": "readSetting", "key": "k", "field": "Main.got"},
            {
                "op": "if",
                "cond": {"kind": "equals", "field": "Main.got", "value": "poison"},
                "then": [{"op": "deref", "field": "Main.hole"}],
                "else": [],
            },
        ],
        "handlers": {e: [{"op": "writeSetting", "key": "k", "field": f"Main.{e}"}] for e in "abc"},
        "methods": {},
    }
    p = tmp_path / "dial.json"
    p.write_text(json.dumps(doc))
    model = load_app_model(p)
    words = [(x, y) for x in "abc" for y in "abc"]
    cases = [Case(parts=(record(f"s{i:04d}", w),)) for i, w in enumerate(words)]

    phases = launch_phases(monkeypatch)
    suite = run_suite(model, cases)
    # one launch against fresh settings, then one restart for each of the
    # three values the cases leave behind
    assert phases == ["launch"] + ["restart"] * 3
    # only a restart meets the poison, and what it covers reaches the sink
    assert "launch/1:then" in suite.covered_branches
    monkeypatch.undo()
    assert (suite.results, suite_coverage(suite)) == replayed_alone(model, cases)
    assert [r.verdict for r in suite.results] == ["passed", "passed", "failed"] * 3
    assert {(r.crash.phase, r.crash.statement) for r in suite.results if r.crash} == {
        ("restart", "launch/1.t.0")
    }


def test_a_crashing_launch_fails_every_case_alike(tmp_path, monkeypatch):
    doc = {
        "schemaVersion": 1,
        "name": "dead-on-arrival",
        "windows": [
            {
                "name": "Main",
                "main": True,
                "modal": False,
                "widgets": [{"id": "w", "event": "e", "enabled": True}],
            }
        ],
        "fields": {"Main.hole": None},
        "onLaunch": [{"op": "deref", "field": "Main.hole"}],
        "handlers": {"e": []},
        "methods": {},
    }
    p = tmp_path / "doa.json"
    p.write_text(json.dumps(doc))
    model = load_app_model(p)
    cases = [Case(parts=(record("s0001", ["e", "e"]),)), Case(parts=(record("s0002", ["e"]),))]
    phases = launch_phases(monkeypatch)
    suite = run_suite(model, cases)
    assert phases == ["launch"]
    monkeypatch.undo()
    assert (suite.results, suite_coverage(suite)) == replayed_alone(model, cases)
    assert [(r.verdict, r.crash.phase, r.crash.statement) for r in suite.results] == [
        ("failed", "launch", "launch/0"),
    ] * 2


def test_each_replayed_fire_checks_availability_once(example_app, example_efg, monkeypatch):
    cases = group_test_cases(generate_sequences(PRESETS["C"], example_efg).records)
    cases.append(Case(parts=(record("x0001", ["e1", "e4", "e1"]),)))
    calls = {"is_available": 0, "fire_event": 0}
    # every binding replay could reach each function through
    bound = [(m, n) for m in (simulator, replay_module) for n in calls if hasattr(m, n)]
    for module, name in bound:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    suite = run_suite(example_app, cases)
    assert suite.count("broken") >= 1
    assert calls["is_available"] == calls["fire_event"] > len(cases)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_report_document_shape(example_app, example_efg, example_edg, tmp_path):
    suite = run_suite(example_app, greybox_cases(example_efg, example_edg))
    doc = report_to_json(suite)
    assert doc["model"] == "example-app"
    assert [t["id"] for t in doc["tests"]] == ["s0001", "s0002", "s0003", "s0004"]
    assert all("parts" not in t for t in doc["tests"])  # no splits here
    crash = doc["tests"][3]["crash"]
    assert crash == {
        "kind": "nullDereference",
        "statement": "h:e2/0",
        "phase": "event",
        "position": 2,
    }
    assert doc["summary"] == {
        "total": 4,
        "passed": 3,
        "failed": 1,
        "broken": 0,
        "statementsCovered": 12,
        "statementsTotal": 12,
        "statementCoverage": 1.0,
        "branchesCovered": 2,
        "branchesTotal": 2,
        "branchCoverage": 1.0,
    }

    out = tmp_path / "report.json"
    save_report(suite, out)
    again = tmp_path / "report2.json"
    save_report(suite, again)
    assert out.read_bytes() == again.read_bytes()
    assert json.loads(out.read_text()) == doc


def test_report_lists_split_parts_and_break_positions(rachota_app, rachota_efg, rachota_edg):
    suite = run_suite(rachota_app, greybox_cases(rachota_efg, rachota_edg))
    doc = report_to_json(suite)
    split = next(t for t in doc["tests"] if t["id"] == "s0007")
    assert split["parts"] == ["s0007", "s0008"]

    broken = run_test_case(
        rachota_app, Case(parts=(record("x0001", ["System settings", "OK2"]),)), Coverage()
    )
    assert broken.verdict == "broken"
    bdoc = report_to_json(
        run_suite(rachota_app, [Case(parts=(record("x0001", ["System settings", "OK2"]),))])
    )
    assert bdoc["tests"][0]["brokenAt"] == 1
    assert bdoc["summary"]["broken"] == 1


def oracle_report(suite):
    return json.dumps(report_to_json(suite), indent=2, sort_keys=True) + "\n"


@st.composite
def case_results(draw):
    """A case of one to three parts, any of them empty, and any verdict."""
    texts = st.lists(awkward_text, max_size=4).map(tuple)
    parts = tuple(
        SequenceRecord(
            id=draw(awkward_text),
            events=draw(texts),
            targets=tuple(draw(st.lists(st.integers(min_value=0, max_value=99), max_size=3))),
            origin="greybox",
        )
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    )
    verdict = draw(st.sampled_from(["passed", "failed", "broken"]))
    crash = broken_at = None
    if verdict == "failed":
        crash = CrashRecord(
            kind=draw(awkward_text),
            statement=draw(awkward_text),
            phase=draw(st.sampled_from(["event", "launch", "restart"])),
            position=draw(st.none() | st.integers(min_value=0, max_value=99)),
        )
    elif verdict == "broken":
        broken_at = draw(st.integers(min_value=0, max_value=99))
    return CaseResult(case=Case(parts=parts), verdict=verdict, crash=crash, broken_at=broken_at)


@given(
    model_name=awkward_text,
    results=st.lists(case_results(), max_size=6),
    totals=st.tuples(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20)),
    covered=st.tuples(*[st.frozensets(awkward_text, max_size=4)] * 3),
)
@settings(max_examples=100)
def test_rendered_report_is_the_json_document(
    tmp_path_factory, model_name, results, totals, covered
):
    suite = SuiteResult(model_name, tuple(results), *totals, *covered)
    path = tmp_path_factory.getbasetemp() / "report.json"
    save_report(suite, path)
    assert path.read_text(encoding="utf-8") == oracle_report(suite)


@pytest.mark.parametrize("name", ["example-app", "jabref-scenario", "rachota-scenario"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_report_of_replayed_cases_is_the_json_document(tmp_path_factory, name, data):
    model = corpus.app_model(name)
    suite = run_suite(model, data.draw(case_lists(model, generated_cases(name))))
    path = tmp_path_factory.getbasetemp() / f"{name}.report.json"
    save_report(suite, path)
    assert path.read_text(encoding="utf-8") == oracle_report(suite)


@pytest.mark.parametrize("name", ["example-app", "jabref-scenario", "rachota-scenario"])
def test_written_files_are_the_oracles_bytes_on_the_corpus(tmp_path, name):
    model = corpus.app_model(name)
    efg = build_efg_from_structure(rip(model))
    edg, _warnings = build_edg(build_class_db(corpus.program_model(corpus.DEFAULT_IR[name])), efg)
    seqs, report = tmp_path / "seqs.jsonl", tmp_path / "report.json"
    for config in "ABCDEF":
        records = generate_sequences(PRESETS[config], efg, edg).records
        save_sequences(records, seqs)
        assert seqs.read_bytes() == "".join(
            json.dumps(oracle_record(r), sort_keys=True, separators=(",", ":")) + "\n"
            for r in records
        ).encode("utf-8"), config
        suite = run_suite(model, group_test_cases(records))
        save_report(suite, report)
        assert report.read_bytes() == oracle_report(suite).encode("utf-8"), config


def test_saving_a_report_holds_a_small_part_of_its_text(tmp_path):
    events = [f"Window{i % 7}.event{i}" for i in range(40)]
    results = []
    for i in range(2400):
        parts = (record(f"s{i:05d}", events[i % 37 : i % 37 + 3]),)
        if i % 5 == 0:
            parts += (record(f"p{i:05d}", events[:2], split_of=parts[0].id),)
        if i % 3 == 0:
            crash = CrashRecord(CRASH_NULL_DEREF, f"h:{events[i % 40]}/0", "event", i % 4)
            results.append(CaseResult(Case(parts), "failed", crash=crash))
        elif i % 3 == 1:
            results.append(CaseResult(Case(parts), "broken", broken_at=1))
        else:
            results.append(CaseResult(Case(parts), "passed"))
    suite = SuiteResult("wide", tuple(results), 90, 12, frozenset(events), frozenset("ab"), frozenset())
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        save_report(suite, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * path.stat().st_size
    assert path.read_text(encoding="utf-8") == oracle_report(suite)


def test_report_table_rendering():
    a = {"summary": {"total": 4, "broken": 0, "statementCoverage": 0.9167, "branchCoverage": 0.5}}
    d = {"summary": {"total": 4, "broken": 0, "statementCoverage": 1.0, "branchCoverage": 1.0}}
    assert render_report_table([("A", a), ("D", d)]) == (
        "            | A      | D\n"
        "# es        | 4      | 4\n"
        "# broken es | 0      | 0\n"
        "gen t       | -      | -\n"
        "exec t      | -      | -\n"
        "line cov.   | 0.9167 | 1.0000\n"
        "branch cov. | 0.5000 | 1.0000\n"
    )
    assert render_report_table([("A", a)], gen_seconds=[0.5], exec_seconds=[12.345]) == (
        "            | A\n"
        "# es        | 4\n"
        "# broken es | 0\n"
        "gen t       | 0.50s\n"
        "exec t      | 12.35s\n"
        "line cov.   | 0.9167\n"
        "branch cov. | 0.5000\n"
    )
