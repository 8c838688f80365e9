from __future__ import annotations

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guiseq import generate, graphs
from guiseq.graphs import Edg, Efg, GuiseqError, is_executable
from guiseq.generate import (
    PRESETS,
    GenConfig,
    SequenceRecord,
    _best_entry,
    gen_abstract,
    gen_blackbox,
    generate_sequences,
    load_sequences,
    save_sequences,
    to_executable,
)

from oracles import (
    enumerate_exact_paths,
    floyd_warshall,
    maximal_paths,
    oracle_record,
    reachable_from,
    scanned_best_entry,
)
from strategies import awkward_text, edgs, efgs


def events_of(result):
    return [r.events for r in result.records]


# ---------------------------------------------------------------------------
# Black-box generation
# ---------------------------------------------------------------------------


def test_blackbox_length_one(example_efg):
    sequences, unreachable = gen_blackbox(example_efg, 1)
    assert unreachable == []
    # e4 is not initial, so it gets reached through e3
    assert sequences == [
        (("e1",), (0,)),
        (("e2",), (0,)),
        (("e3",), (0,)),
        (("e3", "e4"), (1,)),
    ]


def test_blackbox_length_two(example_efg):
    sequences, _ = gen_blackbox(example_efg, 2)
    assert [s for s, _t in sequences] == [
        ("e1", "e1"), ("e1", "e2"), ("e1", "e3"),
        ("e2", "e1"), ("e2", "e2"), ("e2", "e3"),
        ("e3", "e4"),
        ("e3", "e4", "e1"), ("e3", "e4", "e2"), ("e3", "e4", "e3"),
    ]
    assert sequences[6][1] == (0, 1)
    assert sequences[7][1] == (1, 2)


def test_blackbox_length_three_count(example_efg):
    sequences, _ = gen_blackbox(example_efg, 3)
    assert len(sequences) == 24


def test_blackbox_reports_unreachable_events():
    g = Efg.of(["a", "b", "c"], ["a"], [("a", "a"), ("c", "a")])
    sequences, unreachable = gen_blackbox(g, 1)
    assert unreachable == ["b", "c"]
    assert [s for s, _t in sequences] == [("a",)]

    result = generate_sequences(GenConfig("blackbox", 1), g)
    assert len(result.diagnostics) == 2
    assert "'b' is unreachable" in result.diagnostics[0]


def test_blackbox_rejects_nonpositive_length(example_efg):
    with pytest.raises(GuiseqError, match="length must be positive"):
        gen_blackbox(example_efg, 0)


#: One initial event that follows itself: exactly one path of any length.
SELF_LOOP_EFG = Efg.of(["e"], ["e"], [("e", "e")])


def test_blackbox_walks_longer_than_the_recursion_limit():
    result = generate_sequences(GenConfig("blackbox", 1500), SELF_LOOP_EFG)
    assert [r.events for r in result.records] == [("e",) * 1500]
    assert result.records[0].targets == tuple(range(1500))


# ---------------------------------------------------------------------------
# Grey-box generation: abstract sequences
# ---------------------------------------------------------------------------


def test_abstract_sequences_unbounded(example_edg):
    assert gen_abstract(example_edg, 2) == [
        ("e1", "e3"),
        ("e2", "e2"),
        ("e3",),  # no outgoing dependencies: still worth one singleton test
        ("e4", "e2"),
    ]


def test_abstract_search_is_weight_first(rachota_edg):
    per_start = gen_abstract(rachota_edg, 2, top=2)
    from_ok2 = [a for a in per_start if a[0] == "OK2"]
    # OK2's heaviest successors tie at weight 6; declaration order breaks it
    assert from_ok2 == [("OK2", "System settings"), ("OK2", "OK1")]


def test_abstract_top_one_takes_best_path_per_event(rachota_edg):
    got = gen_abstract(rachota_edg, 3, top=1)
    assert got == [
        ("System settings", "OK1", "System settings"),
        ("Add task", "OK2", "System settings"),
        ("OK1", "System settings", "OK1"),
        ("OK2", "System settings", "OK1"),
    ]


def test_abstract_budget_larger_than_path_count_is_harmless():
    d = Edg.of(
        ["a", "b", "c"],
        [("a", 2, "b"), ("a", 1, "c"), ("b", 1, "a"), ("c", 1, "a")],
    )
    got = [x for x in gen_abstract(d, 3, top=3) if x[0] == "a"]
    assert got == [("a", "b", "a"), ("a", "c", "a")]


def test_greybox_searches_longer_than_the_recursion_limit():
    d = Edg.of(["e"], [("e", 1, "e")])
    config = GenConfig("greybox", 1500, top=1)
    result = generate_sequences(config, SELF_LOOP_EFG, d)
    assert [r.events for r in result.records] == [("e",) * 1500]
    assert result.records[0].abstract == ("e",) * 1500


def test_abstract_rejects_bad_budgets(example_edg):
    with pytest.raises(GuiseqError, match="budget must be positive"):
        gen_abstract(example_edg, 2, top=0)
    with pytest.raises(GuiseqError, match="length must be positive"):
        gen_abstract(example_edg, 0)


# ---------------------------------------------------------------------------
# Grey-box generation: making abstract sequences executable
# ---------------------------------------------------------------------------


def test_to_executable_splices_connections(jabref_efg):
    conversions, diagnostics = to_executable(jabref_efg, [("Close database", "OK")])
    assert diagnostics == []
    [(_abstract, [(events, targets)])] = conversions
    assert events == (
        "Manage content selectors",
        "Close database",
        "Manage content selectors",
        "OK",
    )
    assert targets == (1, 3)


def test_to_executable_wants_a_real_cycle_for_repeats(example_efg):
    conversions, _ = to_executable(example_efg, [("e2", "e2")])
    [(_abstract, [part])] = conversions
    assert part == (("e2", "e2"), (0, 1))


def test_to_executable_splits_on_missing_connection():
    # b -> a exists in the dependency sense but not as any flow path
    g = Efg.of(["a", "b"], ["a", "b"], [("a", "b")])
    conversions, diagnostics = to_executable(g, [("b", "a")])
    assert diagnostics == []
    assert conversions == [(("b", "a"), [(("b",), (0,)), (("a",), (0,))])]


def test_to_executable_diagnoses_unreachable_events():
    g = Efg.of(["a", "b", "u"], ["a"], [("a", "b"), ("u", "a")])
    conversions, diagnostics = to_executable(g, [("u", "a")])
    assert conversions == []
    assert diagnostics == [
        "abstract sequence ['u', 'a']: event 'u' is unreachable from the "
        "initial events; sequence skipped",
    ]

    conversions, diagnostics = to_executable(g, [("b", "u")])
    [(_abstract, parts)] = conversions
    assert [events for events, _targets in parts] == [("a", "b")]
    assert diagnostics == [
        "abstract sequence ['b', 'u']: event 'u' is unreachable from the "
        "initial events; remainder dropped",
    ]


def test_to_executable_shares_equal_targets_across_parts():
    g = Efg.of(["a", "b"], ["a", "b"], [("a", "b")])
    conversions, _ = to_executable(g, [("b", "a"), ("a", "b"), ("b",)])
    targets = [t for _abstract, parts in conversions for _events, t in parts]
    assert targets == [(0,), (0,), (0, 1), (0,)]
    assert targets[0] is targets[1] is targets[3]


def _count_connection_reads(monkeypatch) -> tuple[set[str], list[tuple]]:
    """Record the sources :meth:`Efg.bfs_tree` is asked for and every
    :func:`shortest_path` read the generator makes."""
    sources: set[str] = set()
    reads: list[tuple] = []
    bfs_tree, shortest_path = Efg.bfs_tree, generate.shortest_path

    def counted_tree(g, source):
        sources.add(source)
        return bfs_tree(g, source)

    def counted_path(g, src, dst, *, strict=False):
        reads.append((src, dst, strict))
        return shortest_path(g, src, dst, strict=strict)

    monkeypatch.setattr(Efg, "bfs_tree", counted_tree)
    monkeypatch.setattr(generate, "shortest_path", counted_path)
    return sources, reads


def _one_initial_wins() -> Efg:
    """A fresh graph (no tree built yet) with three initials, listed out of
    declaration order, where ``a`` wins every head."""
    return Efg.of(
        ["a", "b", "c", "x", "y", "z"],
        ["c", "b", "a"],
        [("a", "x"), ("b", "x"), ("c", "y"), ("x", "y"), ("a", "y"), ("y", "z"), ("z", "y")],
    )


def test_blackbox_builds_trees_only_for_winning_initials(monkeypatch):
    g = _one_initial_wins()
    sources, reads = _count_connection_reads(monkeypatch)
    sequences, unreachable = gen_blackbox(g, 1)
    assert unreachable == []
    assert [s for s, _t in sequences] == [
        ("a",), ("b",), ("c",), ("a", "x"), ("a", "y"), ("a", "y", "z"),
    ]
    assert sources == {"a"}
    assert reads == [("a", "x", False), ("a", "y", False), ("a", "z", False)]


def test_to_executable_reads_each_hop_once(monkeypatch):
    g = _one_initial_wins()
    abstracts = [("x", "y"), ("x", "y", "y"), ("x", "y")]
    _sources, reads = _count_connection_reads(monkeypatch)
    conversions, _ = to_executable(g, abstracts)
    assert [events for _abstract, parts in conversions for events, _t in parts] == [
        ("a", "x", "y"), ("a", "x", "y", "z", "y"), ("a", "x", "y"),
    ]
    assert reads == [("a", "x", False), ("x", "y", False), ("y", "y", True)]


# ---------------------------------------------------------------------------
# Record numbering, presets, serialization
# ---------------------------------------------------------------------------


def test_preset_table():
    assert PRESETS["A"] == GenConfig("blackbox", 1)
    assert PRESETS["B"] == GenConfig("blackbox", 2)
    assert PRESETS["C"] == GenConfig("blackbox", 3)
    assert PRESETS["D"] == GenConfig("greybox", 2, top=None)
    assert PRESETS["E"] == GenConfig("greybox", 3, top=50)
    assert PRESETS["F"] == GenConfig("greybox", 3, top=100)


def test_greybox_records_on_example(example_efg, example_edg):
    result = generate_sequences(PRESETS["D"], example_efg, example_edg)
    assert [r.id for r in result.records] == ["s0001", "s0002", "s0003", "s0004"]
    assert events_of(result) == [
        ("e1", "e3"),
        ("e2", "e2"),
        ("e3",),
        ("e3", "e4", "e2"),
    ]
    assert result.records[3].targets == (1, 2)
    assert result.records[3].abstract == ("e4", "e2")
    assert all(r.split_of is None for r in result.records)
    assert all(r.origin == "greybox" for r in result.records)


def test_greybox_needs_dependency_graph(example_efg):
    with pytest.raises(GuiseqError, match="needs an event-dependency graph"):
        generate_sequences(PRESETS["D"], example_efg)


def test_split_parts_share_abstract_and_link_to_root(rachota_efg, rachota_edg):
    result = generate_sequences(PRESETS["D"], rachota_efg, rachota_edg)
    assert len(result.records) == 15
    links = {r.id: r.split_of for r in result.records if r.split_of is not None}
    assert links == {"s0008": "s0007", "s0010": "s0009", "s0012": "s0011"}
    for rid, root in links.items():
        rec = next(r for r in result.records if r.id == rid)
        root_rec = next(r for r in result.records if r.id == root)
        assert rec.abstract == root_rec.abstract
        assert rec.origin == root_rec.origin == "greybox"


def _spy_on_constructors(monkeypatch, classes) -> list[str]:
    """Make each class's ``__new__`` record the class it builds, then build
    the value as before; returns the record."""
    called: list[str] = []
    for cls in classes:
        def spy(cls, *args, _new=cls.__new__, **kwargs):
            called.append(cls.__name__)
            return _new(cls, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", spy)
    return called


def test_generation_builds_its_values_without_their_constructors(
    monkeypatch, example_efg, example_edg, jabref_efg, jabref_edg, rachota_efg, rachota_edg
):
    # "u" is unreachable: one abstract sequence is skipped, another loses its remainder
    diagnosed = Efg.of(["a", "b", "u"], ["a"], [("a", "b"), ("u", "a")])
    pairs = [
        (example_efg, example_edg),
        (jabref_efg, jabref_edg),
        (rachota_efg, rachota_edg),
        (diagnosed, Edg.of(diagnosed.events, [("b", 1, "u"), ("u", 1, "a")])),
    ]
    called = _spy_on_constructors(monkeypatch, (SequenceRecord,))
    plain: list[tuple] = []  # every abstract, conversion and part
    records: list[SequenceRecord] = []
    diagnostics: list[str] = []
    for efg, edg in pairs:
        for config in PRESETS.values():
            result = generate_sequences(config, efg, edg)
            records.extend(result.records)
            diagnostics.extend(result.diagnostics)
            if config.mode == "greybox":
                abstracts = gen_abstract(edg, config.length, config.top)
                conversions, _ = to_executable(efg, abstracts)
                plain += [*abstracts, *conversions]
                plain += [part for _abstract, parts in conversions for part in parts]
    assert called == []
    assert any(r.split_of is not None for r in records)
    assert any("remainder dropped" in d for d in diagnostics)
    assert {type(r) for r in records} == {SequenceRecord}
    assert all(len(r) == len(SequenceRecord.__match_args__) for r in records)
    assert plain and {type(v) for v in plain} == {tuple}


def test_unknown_mode_is_rejected(example_efg):
    with pytest.raises(GuiseqError, match="unknown generator mode"):
        generate_sequences(GenConfig("magic", 1), example_efg)


def test_sequence_file_round_trip(tmp_path, rachota_efg, rachota_edg):
    result = generate_sequences(PRESETS["D"], rachota_efg, rachota_edg)
    p = tmp_path / "suite.jsonl"
    save_sequences(result.records, p)
    assert load_sequences(p) == list(result.records)

    q = tmp_path / "again.jsonl"
    save_sequences(result.records, q)
    assert p.read_bytes() == q.read_bytes()

    first = p.read_text().splitlines()[0]
    assert first.startswith('{"abstract":')  # compact, key-sorted lines


def test_load_sequences_rejects_garbage(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"schemaVersion":1,"id":"s1","events":["a"],"targets":[0],"origin":"blackbox"}\nnot json\n')
    with pytest.raises(GuiseqError, match="line 2"):
        load_sequences(p)
    p.write_text('{"schemaVersion":7,"id":"s1","events":[],"targets":[],"origin":"blackbox"}\n')
    with pytest.raises(GuiseqError, match="unsupported schema version 7"):
        load_sequences(p)


def test_raw_line_separators_inside_strings_stay_in_their_line(tmp_path):
    # str.splitlines would cut these lines inside the strings.
    event = "a\u2028b\u2029c\x85d"
    doc = {"schemaVersion": 1, "id": "s\u20281", "events": [event], "targets": [0],
           "origin": "greybox", "abstract": [event, "e\u2028"]}
    p = tmp_path / "raw.jsonl"
    p.write_text(
        json.dumps(doc, ensure_ascii=False) + "\n"
        + json.dumps({**doc, "id": "s0002", "splitOf": "s\u20281"}, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    records = load_sequences(p)
    assert records == [
        SequenceRecord("s\u20281", (event,), (0,), "greybox", (event, "e\u2028")),
        SequenceRecord("s0002", (event,), (0,), "greybox", (event, "e\u2028"), "s\u20281"),
    ]
    save_sequences(records, tmp_path / "again.jsonl")
    assert load_sequences(tmp_path / "again.jsonl") == records
    with p.open("a", encoding="utf-8") as out:
        out.write("\u2028not json\n")
    with pytest.raises(GuiseqError, match="line 3: Expecting value"):
        load_sequences(p)


def test_loaded_records_share_one_string_per_event(tmp_path):
    p = tmp_path / "suite.jsonl"
    line1, line2, line3 = (
        '{"schemaVersion":1,"id":"s1","events":["open","ok","open"],"targets":[2],'
        '"origin":"greybox","abstract":["open"]}\n',
        '{"schemaVersion":1,"id":"s2","events":["ok",true,1],"targets":[0],"origin":"greybox"}\n',
        '{"schemaVersion":1,"id":"s3","events":["ok",[]],"targets":[0],"origin":"greybox"}\n',
    )
    typed_line2 = line2.replace("true,1", '"open"')
    p.write_text(line1 + typed_line2)
    first, second = load_sequences(p)
    assert first.events[0] is first.events[2] is first.abstract[0] is second.events[1]
    assert first.events[1] is second.events[0]
    assert first.origin is second.origin
    # Only strings are shared: any other event, a true, a 1 or an unhashable
    # list, makes its line a malformed record.
    p.write_text(line1 + line2 + line3)
    with pytest.raises(GuiseqError) as rejected:
        load_sequences(p)
    assert str(rejected.value) == (
        f"{p}: line 2: malformed sequence record: events is ['ok', True, 1], not a list of str"
    )
    p.write_text(line1 + typed_line2 + line3)
    with pytest.raises(GuiseqError) as rejected:
        load_sequences(p)
    assert str(rejected.value) == (
        f"{p}: line 3: malformed sequence record: events is ['ok', []], not a list of str"
    )


def test_loaded_records_share_one_tuple_per_distinct_targets(tmp_path):
    p = tmp_path / "suite.jsonl"
    line = '{"schemaVersion":1,"id":"s%d","events":["a","b"],"targets":%s,"origin":"blackbox"}\n'
    p.write_text(line % (1, "[0,1]") + line % (2, "[1]") + line % (3, "[0,1]") + line % (4, "[1]"))
    first, second, third, fourth = load_sequences(p)
    assert first.targets == (0, 1) and second.targets == (1,)
    assert first.targets is third.targets and second.targets is fourth.targets


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@given(efgs(max_events=5), st.integers(min_value=1, max_value=3))
@settings(max_examples=100)
def test_blackbox_emits_every_reachable_path_exactly_once(g: Efg, length: int):
    sequences, unreachable = gen_blackbox(g, length)
    reachable = reachable_from(g, g.initials)
    assert set(unreachable) == set(g.events) - reachable

    emitted = [tuple(events[targets[0]:]) for events, targets in sequences]
    expected = {p for p in enumerate_exact_paths(g, length) if p[0] in reachable}
    assert sorted(emitted) == sorted(expected)  # no duplicates, nothing missed

    for events, targets in sequences:
        assert is_executable(g, list(events))
        assert targets == tuple(range(targets[0], len(events)))


@given(efgs(max_events=5), st.integers(min_value=1, max_value=3))
@settings(max_examples=100)
def test_blackbox_prefixes_are_minimal(g: Efg, length: int):
    dist = floyd_warshall(g)
    sequences, _ = gen_blackbox(g, length)
    for events, targets in sequences:
        head = events[targets[0]]
        best = min(dist[(i, head)] for i in g.initials)
        assert targets[0] == best


@given(efgs())
@settings(max_examples=300)
def test_best_entry_equals_scanning_every_initial(g: Efg):
    for event in g.events:
        assert _best_entry(g, event) == scanned_best_entry(g, event)


@given(edgs(), st.integers(min_value=1, max_value=4))
@settings(max_examples=100)
def test_unbounded_abstract_search_finds_all_maximal_paths(d: Edg, length: int):
    got = gen_abstract(d, length)
    assert len(got) == len(set(got))
    assert set(got) == maximal_paths(d, length)


@given(edgs(), st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3))
@settings(max_examples=100)
def test_bounded_abstract_search_respects_the_budget(d: Edg, length: int, top: int):
    per_start: dict[str, int] = {}
    for a in gen_abstract(d, length, top=top):
        per_start[a[0]] = per_start.get(a[0], 0) + 1
    complete: dict[str, int] = {}
    for p in maximal_paths(d, length):
        complete[p[0]] = complete.get(p[0], 0) + 1
    for start in d.events:
        assert per_start[start] == min(top, complete[start])


@st.composite
def graph_pairs(draw) -> tuple[Efg, Edg]:
    """A flow graph and a dependency graph over the same events."""
    g = draw(efgs(max_events=5))
    pairs = [(a, b) for a in g.events for b in g.events]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    weighted = [
        (src, draw(st.integers(min_value=1, max_value=3)), dst) for src, dst in chosen
    ]
    return g, Edg.of(g.events, weighted)


@given(graph_pairs(), st.integers(min_value=1, max_value=3))
@settings(max_examples=100)
def test_converted_parts_are_executable_and_cover_the_abstract(
    pair: tuple[Efg, Edg], length: int
):
    g, d = pair
    conversions, diagnostics = to_executable(g, gen_abstract(d, length))
    for abstract, parts in conversions:
        hit: list[str] = []
        for events, targets in parts:
            assert is_executable(g, list(events))
            hit.extend(events[i] for i in targets)
        # parts cover a prefix of the abstract; the rest was diagnosed away
        assert tuple(hit) == abstract[: len(hit)]
        if not diagnostics:
            assert tuple(hit) == abstract


@st.composite
def sequence_records(
    draw, targets=st.lists(st.integers(min_value=0, max_value=10**6), max_size=4)
) -> SequenceRecord:
    """A record; its ``targets`` are a fresh tuple of a list ``targets`` draws."""
    texts = st.lists(awkward_text, max_size=4).map(tuple)
    return SequenceRecord(
        id=draw(awkward_text),
        events=draw(texts),
        targets=tuple(draw(targets)),
        origin=draw(st.sampled_from(["blackbox", "greybox"]) | awkward_text),
        abstract=draw(st.none() | texts),
        split_of=draw(st.none() | awkward_text),
    )


@given(st.lists(sequence_records(), max_size=8))
@settings(max_examples=100)
def test_each_written_line_is_the_records_json_document(tmp_path_factory, records):
    path = tmp_path_factory.getbasetemp() / "records.jsonl"
    save_sequences(records, path)
    assert path.read_text(encoding="utf-8").split("\n") == [
        json.dumps(oracle_record(r), sort_keys=True, separators=(",", ":")) for r in records
    ] + [""]


@given(st.lists(sequence_records(st.sampled_from([[], [0], [1], [0, 2], [2, 0]])), max_size=8))
@settings(max_examples=100)
def test_records_with_equal_targets_are_each_written_as_their_json_document(
    tmp_path_factory, records
):
    # Few distinct targets, each record holding its own equal tuple: the
    # writer renders each distinct one once and must reuse it for the rest.
    path = tmp_path_factory.getbasetemp() / "records.jsonl"
    save_sequences(records, path)
    assert path.read_text(encoding="utf-8").split("\n") == [
        json.dumps(oracle_record(r), sort_keys=True, separators=(",", ":")) for r in records
    ] + [""]


@given(st.lists(sequence_records(), max_size=8))
@settings(max_examples=100)
def test_every_written_line_is_decoded_in_place(tmp_path_factory, records):
    path = tmp_path_factory.getbasetemp() / "records.jsonl"
    save_sequences(records, path)

    def refuse(text):
        raise AssertionError(f"json.loads called on {text!r}")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "json", SimpleNamespace(loads=refuse))
        assert load_sequences(path) == records
