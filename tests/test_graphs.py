from __future__ import annotations

import importlib
import io
import json
import re
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from guiseq import graphs
from guiseq.generate import gen_abstract
from guiseq.graphs import (
    Edg,
    Efg,
    GuiseqError,
    InvalidGraphError,
    UnknownEventError,
    export_dot,
    is_executable,
    load_graph,
    read_document,
    read_document_lines,
    save_graph,
    shortest_path,
    validate_efg,
)
from guiseq.programdb import build_class_db, build_edg, derive_program_model
from guiseq.ripper import build_efg_from_structure, rip

from oracles import (
    brute_force_edg,
    floyd_warshall,
    graph_to_json,
    in_declaration_order,
    lexmin_shortest_path,
    scanned_violations,
    sorted_efg,
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
    assert violations == scanned_violations(g)


def test_validate_efg_wants_initials():
    assert validate_efg(Efg(events=("a",), initials=(), edges=())) == [
        "graph declares events but no initial events"
    ]


@pytest.mark.parametrize(
    ("edges", "message"),
    [
        # Named independently of the hash seed: the first undeclared source
        # in input order, else the earliest-declared source's first undeclared target.
        ([("a", "x"), ("a", "y"), ("a", "z"), ("q", "a"), ("r", "a")], "edge ('q', 'a')"),
        ([("b", "a"), ("b", "y"), ("a", "x"), ("a", "z")], "edge ('a', 'x')"),
    ],
    ids=["undeclared-source", "undeclared-target"],
)
def test_efg_construction_rejects_an_undeclared_endpoint(edges, message):
    with pytest.raises(UnknownEventError, match=rf"^{re.escape(message)} references an undeclared event$"):
        Efg.of(["a", "b"], ["a"], edges)


def test_edg_construction_rejects_bad_edges():
    with pytest.raises(UnknownEventError):
        Edg.of(["a"], [("a", 1, "b")])
    with pytest.raises(InvalidGraphError):
        Edg.of(["a", "b"], [("a", 0, "b")])
    with pytest.raises(InvalidGraphError, match="weight True"):
        Edg.of(["a", "b"], [("a", True, "b")])
    with pytest.raises(InvalidGraphError):
        Edg.of(["a", "b"], [("a", 1, "b"), ("a", 2, "b")])


def test_edg_construction_reads_an_iterator_of_edges_once():
    edges = [("b", 2, "a"), ("a", 1, "b"), ("a", 3, "a")]
    d = Edg.of(["a", "b"], iter(edges))
    assert d == Edg.of(["a", "b"], list(edges))
    assert d.edges == (("a", 3, "a"), ("a", 1, "b"), ("b", 2, "a"))


@pytest.mark.parametrize(
    ("edges", "error", "message"),
    [
        ([("a", 1, "x")], UnknownEventError, "edge ('a', 'x') references an undeclared event"),
        ([("a", 0, "b")], InvalidGraphError, "edge ('a', 'b') has weight 0, not a positive integer"),
        ([("a", 1, "b"), ("a", 2, "b")], InvalidGraphError, "duplicate dependency edge ('a', 'b')"),
    ],
    ids=["undeclared-event", "weight-zero", "duplicate-edge"],
)
def test_edg_construction_rejects_an_iterator_of_bad_edges_alike(edges, error, message):
    for source in (iter(edges), list(edges)):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            Edg.of(["a", "b"], source)


def test_edg_construction_rejects_a_repeated_event_id():
    for events in (["a", "b", "a"], iter(["a", "b", "a"])):
        with pytest.raises(InvalidGraphError, match=r"^duplicate event id 'a'$"):
            Edg.of(events, [("a", 1, "b")])


def test_deep_abstract_search_on_a_complete_edg_holds_linear_memory():
    """Every event depends on every event, so each step of a length-1500
    search has five siblings: a search that kept them all as paths would
    hold O(successors x length^2) events."""
    events = [f"e{i}" for i in range(5)]
    d = Edg.of(events, [(a, 1, b) for a in events for b in events])
    tracemalloc.start()
    try:
        paths = gen_abstract(d, 1500, top=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert paths == [(e,) + ("e0",) * 1499 for e in events]
    assert peak < 1_000_000


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


def _graph_text(edges, events=({"id": "a"}, {"id": "b"}), initials=("a",)) -> str:
    doc = {"schemaVersion": 1, "events": list(events), "edges": list(edges)}
    if initials is not None:
        doc["initials"] = list(initials)
    return json.dumps(doc)


# A graph file's text and the message its load fails with, after the file name.
BAD_GRAPHS = [
    ("{not json", "line 1: Expecting property name enclosed in double quotes"),
    ('{"schemaVersion": 99, "events": []}', "unsupported schema version 99 (expected 1)"),
    (_graph_text([], events=[{"id": "a"}], initials=["b"]), "initial event 'b' is not declared"),
    (_graph_text([{"from": "a", "to": "b"}, {"from": ["x"], "to": "a"}]),
     "malformed graph: 'from' of edge 1 is ['x'], not str"),
    (_graph_text([{"from": "a", "to": "b", "weight": 1}, {"from": ["x"], "to": "a", "weight": 1}],
                 initials=None),
     "malformed graph: 'from' of edge 1 is ['x'], not str"),
    (_graph_text([{"from": "a", "to": {"b": 1}, "weight": 1}], initials=None),
     "malformed graph: 'to' of edge 0 is {'b': 1}, not str"),
    (_graph_text([], events=[{"id": "a"}, "Main.x"]),
     "malformed graph: event entry is 'Main.x', not dict"),
    (_graph_text([{"from": "a", "to": "b"}, "b"]), "malformed graph: edge 1 is 'b', not dict"),
    (_graph_text([["a", "b"]], initials=None), "malformed graph: edge 0 is ['a', 'b'], not dict"),
    # Hashable values of another type are named as undeclared events.
    (_graph_text([{"from": 5, "to": "a"}]), "edge source 5 is not declared"),
    (_graph_text([{"from": "a", "to": None, "weight": 1}], initials=None),
     "edge ('a', None) references an undeclared event"),
    # The initials are checked before the edges.
    (_graph_text(["b"], initials=[5]), "malformed graph: initials is [5], not a list of str"),
]


def test_load_graph_rejects_bad_documents(tmp_path):
    p = tmp_path / "bad.json"
    for text, message in BAD_GRAPHS:
        p.write_text(text)
        with pytest.raises(GuiseqError) as exc:
            load_graph(p)
        assert str(exc.value) == f"{p}: {message}", text


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


NAMES = ["a", "b", "c", "d"]


@given(
    events=st.lists(st.sampled_from(NAMES), min_size=1, max_size=6),
    data=st.data(),
)
@settings(max_examples=200)
def test_efg_construction_matches_one_sort_of_the_distinct_edges(events, data):
    """Edge lists with repeats, over events that may repeat an id too."""
    pairs = [(a, b) for a in events for b in events]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=3 * len(pairs)))
    assert Efg.of(events, events[:1], edges) == sorted_efg(events, events[:1], edges)


@given(events=st.lists(st.sampled_from(NAMES[:3]), max_size=5), data=st.data())
@settings(max_examples=300)
def test_validate_efg_names_what_a_full_scan_names(events, data):
    """Dirty graphs: repeated events or edges, undeclared initials or
    endpoints ("d" is never declared, and drawn one time in seven), or no
    initials at all; each kind of dirt often alone."""
    names = st.sampled_from(events * 3 + ["d"])
    initials = data.draw(st.lists(names, max_size=3))
    edges = data.draw(st.lists(st.tuples(names, names), max_size=8))
    g = Efg(tuple(events), tuple(initials), tuple(edges))
    assert validate_efg(g) == scanned_violations(g)


BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_a_dense_ripped_graph_matches_the_oracles(tmp_path, monkeypatch):
    """rip-wizard's graphs (123 events, 2,492 flow edges) are far denser
    than any drawn one: rip them, save and load them, and derive the EDG."""
    monkeypatch.syspath_prepend(str(BENCH))
    app = importlib.import_module("models").build_model("rip-wizard", 1)
    structure = rip(app)
    efg = build_efg_from_structure(structure)
    assert len(efg.edges) > 10 * len(efg.events)
    assert efg == sorted_efg(structure.events, structure.initials, efg.edges[::-1])
    assert Efg.of(efg.events, efg.initials, efg.edges[::-1] + efg.edges) == efg
    program = derive_program_model(app)
    edg, warnings = build_edg(build_class_db(program), efg)
    assert warnings == []
    assert edg.edges == in_declaration_order(brute_force_edg(program, efg.events), efg.events)
    for g in (efg, edg):
        save_graph(g, tmp_path / "graph.json")
        assert load_graph(tmp_path / "graph.json") == g


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


def read_outcome(read, path) -> str:
    try:
        return json.dumps(read(path, "document", lambda doc: doc))
    except GuiseqError as exc:
        return f"error: {exc}"


@given(
    lines=st.lists(document_lines(), max_size=5),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    end=st.sampled_from(["", "\n", "\n\n", "\r\n", "\r"]),
)
# a line cut inside a string: its "\n" is not part of the text decoded
@example(lines=['{"schemaVersion": 1, "id": "a', "{}"], newline="\n", end="")
@settings(max_examples=300)
def test_line_reader_agrees_with_json_loads_per_line(tmp_path_factory, lines, newline, end):
    """At any of the three line ends, and with a lone ``"\\r"`` inside a
    line, the reader sees the oracle's lines."""
    path = tmp_path_factory.getbasetemp() / "documents.jsonl"
    path.write_bytes((newline.join(lines) + end).encode("utf-8"))
    assert read_outcome(read_document_lines, path) == read_outcome(split_document_lines, path)


def decode_in_chunks_of(mp: pytest.MonkeyPatch, size: int) -> None:
    """Has :func:`read_document_lines` decode its file ``size`` bytes at a
    time: the text file's own chunk, which its line iterator reads by."""

    def opener(*args, **kwargs):
        f = open(*args, **kwargs)
        f._CHUNK_SIZE = size
        return f

    mp.setattr(graphs, "open", opener, raising=False)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
@given(
    lines=st.lists(document_lines(), max_size=5),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    end=st.sampled_from(["", "\n", "\r\n", "\r"]),
)
@settings(max_examples=75)
def test_line_reader_agrees_with_json_loads_per_line_at_any_chunk_size(
    tmp_path_factory, chunk, lines, newline, end
):
    """Chunks of a few bytes cut lines, ``"\\r\\n"`` pairs and UTF-8
    sequences anywhere; the reader still sees the oracle's lines."""
    path = tmp_path_factory.getbasetemp() / "chunked.jsonl"
    path.write_bytes((newline.join(lines) + end).encode("utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        decode_in_chunks_of(mp, chunk)
        assert read_outcome(read_document_lines, path) == read_outcome(split_document_lines, path)


#: Longer than the text file's buffer, so a line spans several of its reads.
LONG = 8 * io.DEFAULT_BUFFER_SIZE


@pytest.mark.parametrize("chunk", [7, LONG])
def test_a_record_line_longer_than_a_chunk_reads_like_the_oracle(tmp_path, monkeypatch, chunk):
    decode_in_chunks_of(monkeypatch, chunk)
    docs = [{"schemaVersion": 1, "id": f"s{n}", "events": ["e" * chunk] * 3} for n in range(3)]
    path = tmp_path / "long.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
    assert read_document_lines(path, "document", lambda doc: doc) == docs
    assert read_outcome(read_document_lines, path) == read_outcome(split_document_lines, path)


@pytest.mark.parametrize("length", [3, LONG])
def test_a_last_line_without_a_newline_reads_like_the_oracle(tmp_path, length):
    path = tmp_path / "open-ended.jsonl"
    last = "b" * length
    path.write_text(f'{{"schemaVersion": 1, "id": "a"}}\n\n{{"schemaVersion": 1, "id": "{last}"}}')
    assert [d["id"] for d in read_document_lines(path, "document", lambda doc: doc)] == ["a", last]
    assert read_outcome(read_document_lines, path) == read_outcome(split_document_lines, path)


def test_a_later_byte_that_is_not_utf8_wins_over_a_malformed_line_1(tmp_path):
    """Line 1 is malformed and read before the text file's buffer reaches
    the bad byte, which is still the one reported, by its offset in the
    file."""
    path = tmp_path / "late-byte.jsonl"
    raw = b"{\n" + b"\n" * LONG + b"\xff\n"
    path.write_bytes(raw)
    with pytest.raises(GuiseqError) as exc:
        read_document_lines(path, "document", lambda doc: doc)
    assert str(exc.value) == f"{path}: not UTF-8 text: invalid start byte at byte {len(raw) - 2}"


def test_reading_a_large_file_holds_little_beside_the_documents(tmp_path):
    """No more of the file's text is held at once than about one buffer and
    one line, however long the file."""
    line = json.dumps({"schemaVersion": 1, "id": "s", "events": [f"event-{i}" for i in range(24)]})
    path = tmp_path / "large.jsonl"
    path.write_text((line + "\n") * 20_000, encoding="utf-8")
    assert path.stat().st_size >= 5_000_000
    tracemalloc.start()
    try:
        docs = read_document_lines(path, "document", lambda doc: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(docs) == 20_000
    assert peak - sys.getsizeof(docs) < 64 * 1024


#: Bytes that no UTF-8 text holds here: a stray continuation or lead byte, a
#: truncated sequence, a surrogate's encoding.
bad_bytes = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf0\x9f"])


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, None], ids=["1", "2", "3", "7", "default"])
@given(
    lines=st.lists(document_lines(), max_size=4),
    bad=bad_bytes,
    cut=st.integers(min_value=0),
    pad=st.sampled_from([0, 9000]),
)
@settings(max_examples=60)
def test_both_readers_name_a_bad_bytes_offset_as_bytes_decode_does(
    tmp_path_factory, chunk, lines, bad, cut, pad
):
    """Anywhere in the file, a line cut or malformed before it, past the
    text file's first buffer or not, at any decode chunk: the offset is the
    one ``bytes.decode`` names, and so is the reason."""
    text = ("\n" * pad + "\n".join(lines)).encode("utf-8")
    cut %= len(text) + 1
    raw = text[:cut] + bad + text[cut:]
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        reason, start = exc.reason, exc.start
    else:
        assume(False)  # the bad bytes completed a character cut at ``cut``
    path = tmp_path_factory.getbasetemp() / "bad-byte.jsonl"
    path.write_bytes(raw)
    expected = f"error: {path}: not UTF-8 text: {reason} at byte {start}"
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            decode_in_chunks_of(mp, chunk)
        assert read_outcome(read_document_lines, path) == expected
        assert read_outcome(read_document, path) == expected


@pytest.mark.parametrize("first", ["", "{\n"], ids=["bad-last-byte", "and-malformed-line-1"])
def test_an_error_in_a_large_file_holds_little_beside_the_documents(tmp_path, first):
    """Neither a bad last byte nor a malformed line 1 that it comes before
    makes the reader hold more of the file than a clean read does."""
    line = json.dumps({"schemaVersion": 1, "id": "s", "events": [f"event-{i}" for i in range(24)]})
    path = tmp_path / "large.jsonl"
    raw = (first + (line + "\n") * 20_000).encode("utf-8") + b"\xff"
    path.write_bytes(raw)
    tracemalloc.start()
    try:
        with pytest.raises(GuiseqError) as exc:
            read_document_lines(path, "document", lambda doc: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"{path}: not UTF-8 text: invalid start byte at byte {len(raw) - 1}"
    docs = []  # what the reader held of documents when the bad byte came
    for _ in range(0 if first else 20_000):
        docs.append(None)
    assert peak - sys.getsizeof(docs) < 64 * 1024
