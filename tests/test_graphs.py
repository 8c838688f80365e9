from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guiseq.graphs import (
    Edg,
    Efg,
    GuiseqError,
    InvalidGraphError,
    UnknownEventError,
    export_dot,
    is_executable,
    load_graph,
    read_document_lines,
    save_graph,
    shortest_path,
    validate_efg,
)

from oracles import (
    floyd_warshall,
    graph_to_json,
    lexmin_shortest_path,
    split_document_lines,
    strict_cycle_length,
)
from strategies import awkward_text, edgs, efgs

# A two-window application's flow graph: three events always reachable from
# the main window, e4 only via the dialog e3 opens.
DEMO = Efg.of(
    ["e1", "e2", "e3", "e4"],
    ["e1", "e2", "e3"],
    [
        ("e1", "e1"), ("e1", "e2"), ("e1", "e3"),
        ("e2", "e1"), ("e2", "e2"), ("e2", "e3"),
        ("e3", "e4"),
        ("e4", "e1"), ("e4", "e2"), ("e4", "e3"),
    ],
)

SHORTEST_PATH_CASES = [
    ("e1", "e2", ["e2"]),
    ("e1", "e4", ["e3", "e4"]),
    ("e3", "e1", ["e4", "e1"]),
    ("e4", "e4", []),
]


@pytest.mark.parametrize("src,dst,expected", SHORTEST_PATH_CASES)
def test_shortest_path_excludes_start_includes_target(src, dst, expected):
    assert shortest_path(DEMO, src, dst) == expected


def test_shortest_path_strict_uses_self_loop():
    assert shortest_path(DEMO, "e2", "e2", strict=True) == ["e2"]


def test_shortest_path_strict_finds_longer_cycle():
    g = Efg.of(["a", "b"], ["a"], [("a", "b"), ("b", "a")])
    assert shortest_path(g, "a", "a", strict=True) == ["b", "a"]
    assert shortest_path(g, "a", "a") == []


def test_shortest_path_unreachable_is_none():
    g = Efg.of(["a", "b", "c"], ["a"], [("a", "b")])
    assert shortest_path(g, "b", "c") is None
    assert shortest_path(g, "c", "c", strict=True) is None


def test_shortest_path_breaks_ties_by_declaration():
    # Two equal-length routes a->b->d and a->c->d: the earlier-declared
    # neighbour must win so results never depend on hash order.
    g = Efg.of(["a", "b", "c", "d"], ["a"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    assert shortest_path(g, "a", "d") == ["b", "d"]


def test_shortest_path_result_is_a_fresh_list():
    # Paths are rebuilt from a tree the graph keeps; a caller that mutates
    # one result must not change the next.
    g = Efg.of(["a", "b", "c"], ["a"], [("a", "b"), ("b", "c"), ("c", "a")])
    first = shortest_path(g, "a", "c")
    first.append("x")
    first[0] = "y"
    assert shortest_path(g, "a", "c") == ["b", "c"]
    cycle = shortest_path(g, "a", "a", strict=True)
    cycle.clear()
    assert shortest_path(g, "a", "a", strict=True) == ["b", "c", "a"]
    assert g.bfs_tree("a") is g.bfs_tree("a")


def test_shortest_path_rejects_unknown_events():
    with pytest.raises(UnknownEventError):
        shortest_path(DEMO, "e1", "nope")


def test_is_executable():
    assert is_executable(DEMO, ["e1", "e2", "e3", "e4"])
    assert is_executable(DEMO, ["e3"])
    assert not is_executable(DEMO, [])  # empty is not a test
    assert not is_executable(DEMO, ["e4"])  # not initial
    assert not is_executable(DEMO, ["e1", "e4"])  # no such edge
    with pytest.raises(UnknownEventError):
        is_executable(DEMO, ["e9"])


def test_validate_efg_reports_violations():
    g = Efg(
        events=("a", "a", "b"),
        initials=("a", "z"),
        edges=(("a", "b"), ("a", "b"), ("b", "q")),
    )
    violations = validate_efg(g)
    joined = "\n".join(violations)
    assert "duplicate event id 'a'" in joined
    assert "initial event 'z'" in joined
    assert "duplicate edge" in joined
    assert "edge target 'q'" in joined


def test_validate_efg_wants_initials():
    assert validate_efg(Efg(events=("a",), initials=(), edges=())) == [
        "graph declares events but no initial events"
    ]


def test_edg_construction_rejects_bad_edges():
    with pytest.raises(UnknownEventError):
        Edg.of(["a"], [("a", 1, "b")])
    with pytest.raises(InvalidGraphError):
        Edg.of(["a", "b"], [("a", 0, "b")])
    with pytest.raises(InvalidGraphError, match="weight True"):
        Edg.of(["a", "b"], [("a", True, "b")])
    with pytest.raises(InvalidGraphError):
        Edg.of(["a", "b"], [("a", 1, "b"), ("a", 2, "b")])


def test_edg_successors_ranked_by_weight_then_declaration():
    d = Edg.of(
        ["a", "b", "c", "d"],
        [("a", 2, "c"), ("a", 5, "d"), ("a", 2, "b")],
    )
    assert d.successors["a"] == (("d", 5), ("b", 2), ("c", 2))


def test_graph_io_round_trip(tmp_path):
    efg_path = tmp_path / "flow.json"
    save_graph(DEMO, efg_path)
    loaded = load_graph(efg_path)
    assert isinstance(loaded, Efg)
    assert loaded == DEMO

    d = Edg.of(["a", "b"], [("a", 3, "b")])
    edg_path = tmp_path / "dep.json"
    save_graph(d, edg_path)
    loaded_d = load_graph(edg_path)
    assert isinstance(loaded_d, Edg)
    assert loaded_d == d


def test_graph_io_double_save_is_byte_identical(tmp_path):
    one, two = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(DEMO, one)
    save_graph(DEMO, two)
    assert one.read_bytes() == two.read_bytes()


def renamed(g, names):
    """``g`` with its events renamed to ``names``, in declaration order."""
    name = dict(zip(g.events, names))
    if isinstance(g, Efg):
        return Efg(
            tuple(names), tuple(map(name.get, g.initials)),
            tuple((name[a], name[b]) for a, b in g.edges),
        )
    return Edg(tuple(names), tuple((name[a], w, name[b]) for a, w, b in g.edges))


@settings(max_examples=150)
@given(g=st.one_of(efgs(), edgs()), data=st.data())
def test_saved_graph_is_the_json_document(tmp_path_factory, g, data):
    """Both flavours, empty edge lists included, with ids JSON must escape."""
    n = len(g.events)
    g = renamed(g, data.draw(st.lists(awkward_text, min_size=n, max_size=n, unique=True)))
    path = tmp_path_factory.getbasetemp() / "graph.json"
    save_graph(g, path)
    assert path.read_bytes() == (
        json.dumps(graph_to_json(g), indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")


def test_load_graph_rejects_bad_documents(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(GuiseqError, match="line 1"):
        load_graph(p)
    p.write_text('{"schemaVersion": 99, "events": []}')
    with pytest.raises(GuiseqError, match="schema version"):
        load_graph(p)
    p.write_text('{"schemaVersion": 1, "events": [{"id": "a"}], "initials": ["b"], "edges": []}')
    with pytest.raises(GuiseqError, match="initial event 'b'"):
        load_graph(p)


def test_export_dot_marks_initials_and_weights():
    dot = export_dot(DEMO)
    assert '"e1" [peripheries=2];' in dot
    assert '"e4";' in dot
    assert '"e3" -> "e4";' in dot
    d = Edg.of(["a", "b"], [("a", 3, "b")])
    assert '"a" -> "b" [label="3"];' in export_dot(d)


def test_export_dot_escapes_quotes_in_ids():
    g = Efg.of(['a"b', "c"], ['a"b'], [('a"b', "c"), ("c", 'a"b')])
    assert export_dot(g).splitlines()[1:5] == [
        '  "a\\"b" [peripheries=2];',
        '  "c";',
        '  "a\\"b" -> "c";',
        '  "c" -> "a\\"b";',
    ]
    d = Edg.of(['a"b', "c"], [('a"b', 2, "c")])
    assert export_dot(d).splitlines()[1:4] == [
        '  "a\\"b";',
        '  "c";',
        '  "a\\"b" -> "c" [label="2"];',
    ]


def test_export_dot_rejects_an_id_ending_in_a_backslash():
    for g in (Efg.of(["a", "b\\"], ["a"], [("a", "b\\")]), Edg.of(["a\\"], [])):
        with pytest.raises(GuiseqError, match=r"event id '\w\\\\' ends in a backslash"):
            export_dot(g)


def test_graph_json_shapes():
    doc = graph_to_json(DEMO)
    assert doc["schemaVersion"] == 1
    assert doc["initials"] == ["e1", "e2", "e3"]
    assert {"from": "e3", "to": "e4"} in doc["edges"]
    ddoc = graph_to_json(Edg.of(["a"], [("a", 2, "a")]))
    assert "initials" not in ddoc
    assert ddoc["edges"] == [{"from": "a", "to": "a", "weight": 2}]


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@given(efgs())
@settings(max_examples=200)
def test_shortest_path_length_matches_all_pairs_distances(g: Efg):
    dist = floyd_warshall(g)
    for src in g.events:
        for dst in g.events:
            path = shortest_path(g, src, dst)
            expected = dist[(src, dst)]
            if path is None:
                assert expected == float("inf")
                continue
            assert len(path) == expected
            # and it must be a real path ending at the target
            hops = [src, *path]
            assert all((a, b) in g.edge_set for a, b in zip(hops, hops[1:]))
            assert not path or path[-1] == dst


@given(efgs())
@settings(max_examples=200)
def test_strict_shortest_path_is_minimal_cycle(g: Efg):
    dist = floyd_warshall(g)
    for event in g.events:
        path = shortest_path(g, event, event, strict=True)
        expected = strict_cycle_length(g, dist, event)
        if path is None:
            assert expected == float("inf")
        else:
            assert len(path) == expected >= 1
            hops = [event, *path]
            assert all((a, b) in g.edge_set for a, b in zip(hops, hops[1:]))


@given(efgs())
@settings(max_examples=200)
def test_shortest_path_is_the_declaration_order_least(g: Efg):
    # Lengths are checked above; this pins which equal-length path wins.
    dist = floyd_warshall(g)
    for src in g.events:
        for dst in g.events:
            for strict in (False, True):
                expected = lexmin_shortest_path(g, dist, src, dst, strict)
                assert shortest_path(g, src, dst, strict=strict) == expected


# Text a file can hold as UTF-8 (no lone surrogates) within one line,
# heavy on the other characters ``str.splitlines`` splits on.
line_text = st.text(
    st.sampled_from("\u2028\u2029\x85\x0b\x0c\x1c\r")
    | st.characters(blacklist_categories=("Cs",), blacklist_characters="\n")
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | line_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(line_text, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def document_lines(draw) -> str:
    """One line of a JSON-lines file, good or bad: a JSON text, most often
    an object of the current schema, written compactly or not and in ASCII
    or not (raw U+2028 and U+0085 included); or a cut, a doubling or a
    padding of one; or any text at all."""
    doc = draw(
        st.dictionaries(line_text, json_values, max_size=3).map(
            lambda d: {"schemaVersion": 1, **d}
        )
        | json_values
    )
    text = json.dumps(
        doc,
        ensure_ascii=draw(st.booleans()),
        separators=draw(st.sampled_from([None, (",", ":")])),
    )
    cut = draw(st.integers(min_value=0, max_value=len(text)))
    return draw(
        st.sampled_from([
            text, text[:cut], text[cut:], text + text, text + "," + text, " " + text, text + "\t",
        ])
        | line_text
    )


@given(st.lists(document_lines(), max_size=5), st.sampled_from(["", "\n", "\n\n"]))
@settings(max_examples=300)
def test_line_reader_agrees_with_json_loads_per_line(tmp_path_factory, lines, end):
    path = tmp_path_factory.getbasetemp() / "documents.jsonl"
    path.write_text("\n".join(lines) + end, encoding="utf-8")

    def outcome(read):
        try:
            return json.dumps(read(path, "document", lambda doc: doc))
        except GuiseqError as exc:
            return f"error: {exc}"

    assert outcome(read_document_lines) == outcome(split_document_lines)
